//! Workload inputs, generated from the run's seed, and their census.

use querc_linalg::Pcg32;
use querc_workloads::{QueryRecord, ReplayConfig, ReplaySchedule, SnowCloud, SnowCloudConfig};
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

/// Label the benchmark attaches to every arrival so each output can be
/// traced back to the offer that produced it.
pub const ARRIVAL_LABEL: &str = "bench_arrival";

/// A SnowCloud trace (paper Table 2's heavy-tailed accounts, six
/// dialects), split into the part the models are trained on and the
/// part that is replayed.
pub struct Trace {
    pub train: Vec<QueryRecord>,
    pub replay: Vec<QueryRecord>,
}

/// Generate a `paper_table2` trace at `scale` and draw two disjoint
/// random subsets from all of it, each kept in trace order: `train`
/// records to train on and `replay` records to serve. (The trace is
/// sorted by time and accounts are active in different periods, so a
/// prefix would hold only a few accounts.)
pub fn trace(seed: u64, scale: f64, train: usize, replay: usize) -> Trace {
    let records = SnowCloud::generate(&SnowCloudConfig::paper_table2(scale, seed)).records;
    assert!(
        records.len() >= train + replay,
        "trace too small: {} records for {train} + {replay}",
        records.len()
    );
    let mut order: Vec<usize> = (0..records.len()).collect();
    Pcg32::with_stream(seed, 0x7ace).shuffle(&mut order);
    let pick = |idx: &[usize]| {
        let mut idx = idx.to_vec();
        idx.sort_unstable();
        idx.into_iter().map(|i| records[i].clone()).collect()
    };
    Trace {
        train: pick(&order[..train]),
        replay: pick(&order[train..train + replay]),
    }
}

/// One offer the generator makes: the record it replays, when it is
/// due relative to the start of the pass (ignored in a closed loop), the
/// app it is addressed to (`None` fans out to every app), and the tenant
/// it is relabeled to, if any.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub id: u64,
    pub due: Duration,
    pub app: Option<&'static str>,
    pub record: usize,
    pub tenant: Option<&'static str>,
}

/// Arrival offsets of an open loop at `qps` with bursty gaps (a blend of
/// constant and exponential gaps with unit mean, see
/// [`ReplaySchedule`]), for `n` arrivals.
pub fn schedule(records: &[QueryRecord], n: usize, qps: f64, seed: u64) -> Vec<Duration> {
    let cycled: Vec<QueryRecord> = records.iter().cycle().take(n).cloned().collect();
    ReplaySchedule::from_records(
        &cycled,
        &ReplayConfig {
            qps,
            burstiness: 0.7,
            seed,
            limit: None,
            tenant_mix: None,
        },
    )
    .events()
    .iter()
    .map(|e| e.offset)
    .collect()
}

/// The properties of an arrival stream that the serving stack's
/// behaviour depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct Census {
    pub arrivals: usize,
    pub templates: usize,
    /// Share of arrivals whose template appeared earlier in the stream.
    pub repeat_share: f64,
    pub tenants: usize,
    pub top_tenant_share: f64,
    /// Dialect → share of arrivals.
    pub dialects: BTreeMap<String, f64>,
    pub mean_sql_bytes: f64,
    pub mean_tokens: f64,
}

/// Census of the arrivals offered over `records`.
pub fn census(records: &[QueryRecord], arrivals: &[Arrival]) -> Census {
    let n = arrivals.len().max(1) as f64;
    // Lex each record once: (fingerprint, tokens).
    let lexed: Vec<(u64, usize)> = records
        .iter()
        .map(|r| {
            let toks = querc_embed::sql_tokens(&r.sql);
            (querc_sql::fingerprint_tokens(&toks), toks.len())
        })
        .collect();
    let mut seen = HashSet::new();
    let mut repeats = 0usize;
    let mut tenants: BTreeMap<&str, usize> = BTreeMap::new();
    let mut dialects: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut bytes, mut tokens) = (0usize, 0usize);
    for a in arrivals {
        let r = &records[a.record];
        let (fingerprint, n_tokens) = lexed[a.record];
        if !seen.insert(fingerprint) {
            repeats += 1;
        }
        *tenants.entry(a.tenant.unwrap_or(&r.account)).or_default() += 1;
        *dialects.entry(&r.dialect).or_default() += 1;
        bytes += r.sql.len();
        tokens += n_tokens;
    }
    Census {
        arrivals: arrivals.len(),
        templates: seen.len(),
        repeat_share: repeats as f64 / n,
        tenants: tenants.len(),
        top_tenant_share: tenants.values().copied().max().unwrap_or(0) as f64 / n,
        dialects: dialects
            .into_iter()
            .map(|(d, c)| (d.to_string(), c as f64 / n))
            .collect(),
        mean_sql_bytes: bytes as f64 / n,
        mean_tokens: tokens as f64 / n,
    }
}

impl Census {
    pub fn to_json(&self) -> String {
        let dialects: Vec<String> = self
            .dialects
            .iter()
            .map(|(d, s)| format!("\"{d}\":{s:.4}"))
            .collect();
        format!(
            "{{\"arrivals\":{},\"templates\":{},\"repeat_share\":{:.4},\"tenants\":{},\
             \"top_tenant_share\":{:.4},\"dialects\":{{{}}},\"mean_sql_bytes\":{:.1},\
             \"mean_tokens\":{:.1}}}",
            self.arrivals,
            self.templates,
            self.repeat_share,
            self.tenants,
            self.top_tenant_share,
            dialects.join(","),
            self.mean_sql_bytes,
            self.mean_tokens
        )
    }
}
