//! Output checks: every check returns the problems it found, so a run
//! can report all of them and the self-tests can show each one fails on
//! a tampered output.

use crate::inputs::ARRIVAL_LABEL;
use querc::{AppThroughput, LabeledQuery, QosDrain, RejectReason};
use std::collections::BTreeMap;

/// The six workload apps, by registration name.
pub const APPS: [&str; 6] = [
    "audit",
    "errors",
    "recommend",
    "resources",
    "routing",
    "summarize",
];

/// Labels every output of `app` must carry.
pub fn label_keys(app: &str) -> &'static [&'static str] {
    match app {
        "audit" => &["predicted_user", "audit_flag"],
        "errors" => &["error_probability", "error_risky"],
        "recommend" => &["query_cluster", "next_query"],
        "resources" => &["resource_class"],
        "routing" => &["predicted_cluster", "routing_confidence"],
        "summarize" => &["summary_cluster", "summary_witness"],
        _ => &[],
    }
}

pub fn arrival_of(q: &LabeledQuery) -> Option<u64> {
    q.get(ARRIVAL_LABEL).and_then(|a| a.parse().ok())
}

/// Per app: `submitted == processed + rejected`.
pub fn check_counts(throughput: &[AppThroughput]) -> Vec<String> {
    throughput
        .iter()
        .filter(|t| t.submitted != t.processed + t.rejected)
        .map(|t| {
            format!(
                "{}: submitted {} != processed {} + rejected {}",
                t.app, t.submitted, t.processed, t.rejected
            )
        })
        .collect()
}

/// Per app, the outputs are exactly the accepted arrivals, and every
/// output carries its app's label keys and no `app_error`.
pub fn check_outputs(
    outputs: &BTreeMap<String, Vec<LabeledQuery>>,
    accepted: &BTreeMap<String, Vec<u64>>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (app, ids) in accepted {
        let outs = outputs.get(app).map(Vec::as_slice).unwrap_or(&[]);
        let mut got: Vec<Option<u64>> = outs.iter().map(arrival_of).collect();
        got.sort_unstable();
        let mut want: Vec<Option<u64>> = ids.iter().copied().map(Some).collect();
        want.sort_unstable();
        if got != want {
            problems.push(format!(
                "{app}: {} outputs do not match the {} accepted arrivals",
                got.len(),
                want.len()
            ));
        }
        for q in outs {
            if let Some(e) = q.get("app_error") {
                problems.push(format!("{app}: arrival {:?} app_error {e}", arrival_of(q)));
            }
            for key in label_keys(app) {
                if q.get(key).is_none() {
                    problems.push(format!("{app}: arrival {:?} lacks {key}", arrival_of(q)));
                }
            }
        }
    }
    problems
}

/// Outputs carrying `app_error` (each counts as a failed offer).
pub fn app_errors(outputs: &BTreeMap<String, Vec<LabeledQuery>>) -> u64 {
    outputs
        .values()
        .flatten()
        .filter(|q| q.get("app_error").is_some())
        .count() as u64
}

/// Sheds the generator saw, per tenant: rate limited, backlogged, shard
/// full.
pub type Sheds = BTreeMap<String, [u64; 3]>;

pub fn count_shed(sheds: &mut Sheds, tenant: &str, reason: RejectReason) {
    let slot = match reason {
        RejectReason::RateLimited => 0,
        RejectReason::Backlogged => 1,
        RejectReason::ShardFull => 2,
    };
    sheds.entry(tenant.to_string()).or_default()[slot] += 1;
}

/// The manager's per-tenant accounting matches what the generator
/// offered and saw: protected tenants are never shed, every shed is
/// accounted for by reason, and `submitted == processed + rejected`.
pub fn check_qos(
    qos: &QosDrain,
    offered: &BTreeMap<String, u64>,
    sheds: &Sheds,
    protected: &[String],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (tenant, n) in offered {
        let Some(t) = qos.tenants.get(tenant) else {
            problems.push(format!("tenant {tenant} missing from qos_stats"));
            continue;
        };
        let seen = sheds.get(tenant).copied().unwrap_or_default();
        let counted = [
            t.rejected_rate_limited,
            t.rejected_backlogged,
            t.rejected_shard_full,
        ];
        if t.submitted != *n {
            problems.push(format!(
                "{tenant}: submitted {} != offered {n}",
                t.submitted
            ));
        }
        if counted != seen {
            problems.push(format!("{tenant}: sheds {counted:?} != seen {seen:?}"));
        }
        if t.submitted != t.processed + t.rejected() || t.pending != 0 {
            problems.push(format!(
                "{tenant}: submitted {} != processed {} + rejected {} (pending {})",
                t.submitted,
                t.processed,
                t.rejected(),
                t.pending
            ));
        }
        if protected.contains(tenant) && t.rejected() > 0 {
            problems.push(format!("protected {tenant} shed {} offers", t.rejected()));
        }
    }
    problems
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
    *h ^= 0xff;
    *h = h.wrapping_mul(0x100000001b3);
}

/// Order-independent digest over (arrival id, app, labels) of the
/// outputs `keep` selects: each output hashes on its own, and the
/// hashes are summed.
pub fn digest(
    outputs: &BTreeMap<String, Vec<LabeledQuery>>,
    keep: impl Fn(&LabeledQuery) -> bool,
) -> u64 {
    let mut sum = 0u64;
    for (app, outs) in outputs {
        for q in outs.iter().filter(|q| keep(q)) {
            let mut h = 0xcbf29ce484222325u64;
            fnv(&mut h, app.as_bytes());
            fnv(&mut h, q.sql.as_bytes());
            let mut labels: Vec<&(String, String)> = q.labels.iter().collect();
            labels.sort();
            for (k, v) in labels {
                fnv(&mut h, k.as_bytes());
                fnv(&mut h, v.as_bytes());
            }
            sum = sum.wrapping_add(h);
        }
    }
    sum
}
