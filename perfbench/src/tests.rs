//! Self-tests at smoke size: every named metric is emitted, every
//! output check can fail, and seeds control the inputs.

use super::*;
use crate::checks::{check_counts, check_outputs, check_qos, digest, Sheds, APPS};
use crate::serve::SMOKE;
use querc::{LabeledQuery, QosDrain, RejectReason, TenantSnapshot};
use std::collections::BTreeMap;

fn args(w: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload: w,
        seed,
        seconds: 0.2,
        trace,
    }
}

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit_and_a_finite_value() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(&args(w, 7, trace), &SMOKE, None);
            assert!(r.correct(), "{} trace={trace}: {:?}", w.name(), r.problems);
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, listed(section), "{} trace={trace}", w.name());
            for m in &r.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            let json = r.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn seeds_change_inputs_and_equal_seeds_repeat_digests() {
    for w in Workload::ALL {
        let sql = |seed| -> Vec<String> {
            let input = serve::inputs(w, seed, &SMOKE);
            input.arrivals.iter().map(|a| input.query(a).sql).collect()
        };
        assert_eq!(sql(1), sql(1), "{}", w.name());
        assert_ne!(sql(1), sql(2), "{}", w.name());
        let a = run(&args(w, 3, false), &SMOKE, None);
        let b = run(&args(w, 3, false), &SMOKE, None);
        assert_eq!(a.digests, b.digests, "{}", w.name());
        // A traced run serves untraced and traced and checks that the two
        // digests agree.
        let t = run(&args(w, 3, true), &SMOKE, None);
        assert!(t.correct(), "{}: {:?}", w.name(), t.problems);
        assert_eq!(t.digests[0], t.digests[1]);
        assert_eq!(t.digests[0], a.digests[0], "{}", w.name());
    }
}

/// One fanout window served for real: the drain and the accepted ids.
fn served_window() -> (querc::ServiceDrain, BTreeMap<String, Vec<u64>>) {
    let input = serve::inputs(Workload::Fanout, 5, &SMOKE);
    let (_, mgr) = serve::setup(Workload::Fanout, &input, &mut Tracer::new(false));
    let mut accepted: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for a in input.arrivals.iter().take(40) {
        for app in APPS {
            mgr.submit(app, input.query(a)).expect("serving fabric up");
            accepted.entry(app.to_string()).or_default().push(a.id);
        }
    }
    (mgr.drain(), accepted)
}

#[test]
fn each_output_check_fails_on_a_tampered_output() {
    let (d, accepted) = served_window();
    assert!(check_outputs(&d.outputs, &accepted).is_empty());
    assert!(check_counts(&d.throughput).is_empty());
    let keep_all = |_: &LabeledQuery| true;
    let base = digest(&d.outputs, keep_all);

    type Outputs = BTreeMap<String, Vec<LabeledQuery>>;
    let tamper = |f: &dyn Fn(&mut Outputs)| {
        let mut outs = d.outputs.clone();
        f(&mut outs);
        outs
    };
    let dropped = tamper(&|o| {
        o.get_mut("audit").unwrap().pop();
    });
    assert!(
        !check_outputs(&dropped, &accepted).is_empty(),
        "missing output"
    );
    let duplicated = tamper(&|o| {
        let q = o["errors"][0].clone();
        o.get_mut("errors").unwrap().push(q);
    });
    assert!(
        !check_outputs(&duplicated, &accepted).is_empty(),
        "duplicate output"
    );
    let errored = tamper(&|o| o.get_mut("routing").unwrap()[3].set("app_error", "boom"));
    assert!(!check_outputs(&errored, &accepted).is_empty(), "app_error");
    assert_eq!(checks::app_errors(&errored), 1);
    let unlabeled = tamper(&|o| {
        o.get_mut("summarize").unwrap()[1]
            .labels
            .retain(|(k, _)| k != "summary_cluster")
    });
    assert!(
        !check_outputs(&unlabeled, &accepted).is_empty(),
        "missing label"
    );

    let relabeled = tamper(&|o| o.get_mut("resources").unwrap()[0].set("resource_class", "x"));
    assert_ne!(
        digest(&relabeled, keep_all),
        base,
        "digest sees a label change"
    );
    let reordered = tamper(&|o| o.get_mut("recommend").unwrap().reverse());
    assert_eq!(digest(&reordered, keep_all), base, "digest ignores order");

    let mut counts = d.throughput.clone();
    counts[2].processed -= 1;
    assert!(
        !check_counts(&counts).is_empty(),
        "submitted != processed + rejected"
    );
}

#[test]
fn the_qos_check_fails_on_tampered_accounting() {
    let snap = |submitted, processed, rejected_rate_limited| TenantSnapshot {
        weight: 1,
        submitted,
        processed,
        pending: 0,
        rejected_rate_limited,
        rejected_backlogged: 0,
        rejected_shard_full: 0,
        latency: Default::default(),
    };
    let qos = |minnow: TenantSnapshot, whale: TenantSnapshot| QosDrain {
        tenants: [
            ("minnow00".to_string(), minnow),
            ("whale".to_string(), whale),
        ]
        .into(),
    };
    let offered: BTreeMap<String, u64> =
        [("minnow00".to_string(), 10), ("whale".to_string(), 100)].into();
    let mut sheds = Sheds::new();
    for _ in 0..60 {
        checks::count_shed(&mut sheds, "whale", RejectReason::RateLimited);
    }
    let protected = vec!["minnow00".to_string()];
    let good = qos(snap(10, 10, 0), snap(100, 40, 60));
    assert!(check_qos(&good, &offered, &sheds, &protected).is_empty());

    let minnow_shed = qos(snap(10, 9, 1), snap(100, 40, 60));
    assert!(!check_qos(&minnow_shed, &offered, &sheds, &protected).is_empty());
    let unaccounted = qos(snap(10, 10, 0), snap(100, 41, 59));
    assert!(!check_qos(&unaccounted, &offered, &sheds, &protected).is_empty());
    let lost = qos(snap(10, 10, 0), snap(100, 39, 60));
    assert!(!check_qos(&lost, &offered, &sheds, &protected).is_empty());
    let missing = QosDrain::default();
    assert!(!check_qos(&missing, &offered, &sheds, &protected).is_empty());
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let ok = parse("--workload tenant-flood --seed 9 --seconds 10 --trace 1").unwrap();
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::TenantFlood, 9, 10.0, true)
    );
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload fanout --seed x --seconds 1 --trace 0",
        "--workload fanout --seed 1 --seconds 0 --trace 0",
        "--workload fanout --seed 1 --seconds 1 --trace 2",
        "--workload fanout --seconds 1 --trace 0",
        "--workload fanout --seed 1 --seconds 1 --trace",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}
