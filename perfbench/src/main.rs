//! The querc benchmark: one command that generates a workload from a
//! seed, sets up and serves it through `querc::WorkloadManager`'s
//! public API from a single generator thread, checks every output, and
//! prints each metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` — the end-to-end metrics of untraced runs with `--trace 0`,
//! the per-layer metrics of a traced run with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fanout --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `fanout`, `route-lineage`, `tenant-flood` (see
//! `BENCHMARK.json` and `perfbench/README.md`). The run exits nonzero
//! when an argument is invalid or any output check fails.

mod checks;
mod inputs;
mod layers;
mod quiet;
mod serve;
mod trace;

use serve::{Served, Sizes, Workload};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric as printed.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    digests: Vec<u64>,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn absorb(&mut self, s: &Served) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.digests.push(s.digest);
        self.problems.extend(s.problems.iter().cloned());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cumulative (steal, all) CPU time of the machine, in clock ticks: the
/// time the host ran something else while this machine's CPUs wanted to
/// run.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The machine record printed with every result; `since` is
/// [`cpu_ticks`] at the start of the run.
fn machine(since: (u64, u64)) -> String {
    let now = cpu_ticks();
    let steal_pct = 100.0 * (now.0 - since.0) as f64 / (now.1 - since.1).max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only ask git inside a git checkout, so a parent repository's
    // revision is never reported.
    let rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "none".to_string()
    };
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": \"{}\", \"pool_threads\": {}, \"git_rev\": \"{rev}\", \"rustc\": \"{}\", \"steal_pct\": {steal_pct:.2}}}",
        querc_linalg::kernel::kernel_name(),
        querc_linalg::pool::training_threads(),
        command_line("rustc", &["--version"])
    )
}

/// Untraced run: set up `SETUP_REPS` times, serve once, report the
/// end-to-end metrics.
fn run_untraced(w: Workload, input: &serve::Inputs, seconds: f64) -> Report {
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut ready: Option<(serve::Models, querc::WorkloadManager)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = serve::setup(w, input, &mut off);
        setup_s.push(t0.elapsed().as_secs_f64());
        // Only the last set-up serves; stop the others' workers.
        if let Some((_, idle)) = ready.replace(built) {
            idle.drain();
        }
    }
    let (models, mgr) = ready.expect("at least one set-up");
    let s = serve::serve(w, input, &models, mgr, seconds, &mut off);
    let mut r = Report::default();
    r.absorb(&s);
    println!(
        "served {} arrivals in {} window(s); {} latency samples per window",
        s.arrivals, s.windows, s.samples
    );
    r.put("setup_s", serve::median(setup_s), "s");
    r.put("serve_qps", s.qps, "1/s");
    r.put("p50_us", s.p50_us, "us");
    r.put(
        "ok_ratio",
        1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        "fraction",
    );
    r.put("label_accuracy", s.accuracy, "fraction");
    r.put("peak_rss_mb", peak_rss_mb(), "MB");
    r
}

/// Traced run: set up once with spans, serve untraced and then traced
/// (spans around each submit and the drain), replay the arrivals layer
/// by layer, and report the per-layer metrics and tracing overhead.
fn run_traced(
    w: Workload,
    input: &serve::Inputs,
    sizes: &Sizes,
    seconds: f64,
    spans_out: Option<&Path>,
) -> Report {
    let mut tr = Tracer::new(true);
    let (models, mgr) = serve::setup(w, input, &mut tr);
    let mut off = Tracer::new(false);
    let base = serve::serve(
        w,
        input,
        &models,
        serve::manager(&serve::config(w), &models),
        seconds,
        &mut off,
    );
    let s = serve::serve(w, input, &models, mgr, seconds, &mut tr);
    let mut r = Report::default();
    r.absorb(&base);
    r.absorb(&s);
    if base.digest != s.digest {
        r.problems.push(format!(
            "label digest differs between untraced {:016x} and traced {:016x} runs",
            base.digest, s.digest
        ));
    }
    layers::replay(w, input, sizes.layer_sample, &models, &mut tr);

    let us = |name: &str| tr.per_item_us(name);
    let secs = |name: &str| tr.per_item_us(name) / 1e6;
    let label_us: Vec<f64> = models
        .apps
        .iter()
        .map(|a| us(serve::label_span(a.name())))
        .collect();
    let mean_label = mean(&label_us);

    r.put(
        "sql.lex_calls_per_arrival",
        s.lex_calls as f64 / s.offered_arrivals.max(1) as f64,
        "count",
    );
    r.put("sql.lex_us", us("sql.lex"), "us");
    r.put("sql.fingerprint_us", us("sql.fingerprint"), "us");
    r.put("sql.parse_lineage_us", us("sql.parse_lineage"), "us");
    r.put(
        "embed_plane.hit_ratio",
        s.embed_cache.hit_rate(),
        "fraction",
    );
    r.put(
        "embed_plane.evictions",
        s.embed_cache.evictions as f64,
        "count",
    );
    r.put("embed_plane.lookup_us", us("embed_plane.lookup"), "us");
    r.put("embed.miss_us", us("embed.miss"), "us");
    r.put("embed.train_s", secs("embed.train"), "s");
    for app in checks::APPS {
        r.put(
            format!("apps.{app}.label_us"),
            us(serve::label_span(app)),
            "us",
        );
        r.put(format!("apps.{app}.fit_s"), secs(serve::fit_span(app)), "s");
    }
    r.put(
        "qworker.overhead_us",
        us("qworker.process_chunk") - mean_label,
        "us",
    );
    r.put("index.searches", s.index_searches as f64, "count");
    r.put(
        "index.candidates_per_search",
        s.index_candidates as f64 / s.index_searches.max(1) as f64,
        "count",
    );
    let submits = tr.durations_us("submit");
    r.put(
        "service.submit_p50_us",
        serve::quantile(&submits, 0.5),
        "us",
    );
    r.put(
        "service.submit_p99_us",
        serve::quantile(&submits, 0.99),
        "us",
    );
    r.put("service.p99_us", s.p99_us, "us");
    r.put("service.latency_samples", s.samples as f64, "count");
    r.put("service.drain_ms", s.drain_ms, "ms");
    // `p50_us` follows the routing app except on tenant-flood, where
    // the worst minnow's queries go to every app in turn.
    let (parse, label) = match w {
        Workload::Fanout => (0.0, us("apps.routing.label")),
        Workload::RouteLineage => (us("sql.parse_lineage"), us("apps.routing.label")),
        Workload::TenantFlood => (0.0, mean_label),
    };
    let ingress = us("sql.lex") + us("sql.fingerprint") + us("embed_plane.lookup") + parse;
    r.put("service.wait_us", s.p50_us - ingress - label, "us");
    r.put("service.shed_submit_us", mean(&s.shed_submit_us), "us");
    r.put(
        "service.useful_ratio",
        (s.attempted - s.shed_submit_us.len() as u64) as f64 / s.attempted.max(1) as f64,
        "fraction",
    );
    r.put("qos.admit_us", us("qos.admit"), "us");
    r.put("qos.drr_us", us("qos.drr"), "us");
    let [admitted, rate_limited, backlogged, shard_full] = s.qos_counts.map(|c| c as f64);
    r.put("qos.admitted", admitted, "count");
    r.put("qos.rejected.rate_limited", rate_limited, "count");
    r.put("qos.rejected.backlogged", backlogged, "count");
    r.put("qos.rejected.shard_full", shard_full, "count");
    r.put("gen.late_p99_us", serve::quantile(&s.late_us, 0.99), "us");
    // Overhead on the workload's headline figure: time per arrival on
    // the closed loop, median latency on the open loops.
    let (untraced, traced) = match w {
        Workload::Fanout => (1.0 / base.qps, 1.0 / s.qps),
        _ => (base.p50_us, s.p50_us),
    };
    let overhead = 100.0 * (traced / untraced - 1.0);
    r.put("trace.overhead_pct", overhead, "%");
    r.put("trace.spans", tr.spans().len() as f64, "count");
    println!("tracing overhead {overhead:+.2}%");
    if let Some(path) = spans_out {
        match tr.write_jsonl(path) {
            Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => r
                .problems
                .push(format!("writing spans to {}: {e}", path.display())),
        }
    }
    r
}

fn run(args: &Args, sizes: &Sizes, spans_out: Option<&Path>) -> Report {
    let input = serve::inputs(args.workload, args.seed, sizes);
    println!(
        "census {}",
        inputs::census(&input.records, &input.arrivals).to_json()
    );
    let report = if args.trace {
        run_traced(args.workload, &input, sizes, args.seconds, spans_out)
    } else {
        run_untraced(args.workload, &input, args.seconds)
    };
    for m in &report.metrics {
        println!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for d in &report.digests {
        println!("digest {} {d:016x}", args.workload.name());
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fanout|route-lineage|tenant-flood> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
    let ticks = cpu_ticks();
    let report = run(&args, &serve::FULL, Some(&spans));
    println!("machine {}", machine(ticks));
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
