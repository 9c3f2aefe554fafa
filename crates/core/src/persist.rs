//! Persistence-plane glue: the JSON section payloads stored inside a
//! `querc-persist` snapshot, and the shared validation helpers restore
//! paths use.
//!
//! The container (`querc_persist::Snapshot`) guarantees sections arrive
//! byte-identical or not at all (per-section CRCs); everything *inside*
//! a section is still untrusted once parsed — a stale or hand-edited
//! snapshot can carry shapes the serving hot paths would index-panic
//! on. Every restore helper here therefore validates against the live
//! configuration (embedder dims, arena bounds, matrix shapes) and
//! reports [`QuercError::Corrupt`] instead.

use crate::apps::{
    AuditApp, ErrorsApp, RecommendApp, ResourcesApp, RoutingApp, SummarizeApp, WorkloadApp,
};
use crate::classifier::LabelerState;
use crate::error::{QuercError, Result};
use crate::registry::RegistryEvent;
use crate::service::FittedApp;
use querc_embed::Embedder;
use querc_learn::{ClassifierState, ForestState, RandomForest, TreeState};
use std::collections::HashMap;
use std::sync::Arc;

/// Build a [`QuercError::Corrupt`] with a formatted detail message.
pub(crate) fn corrupt(detail: impl Into<String>) -> QuercError {
    QuercError::Corrupt {
        detail: detail.into(),
    }
}

/// Serialize a section payload. `None` only if the shim serializer
/// fails, which no exported state does.
pub(crate) fn to_json<T: serde::Serialize>(value: &T) -> Option<String> {
    serde_json::to_string(value).ok()
}

/// Parse a section payload, mapping any schema mismatch to
/// [`QuercError::Corrupt`] tagged with the section being read.
pub(crate) fn from_json<T: serde::de::DeserializeOwned>(json: &str, what: &str) -> Result<T> {
    serde_json::from_str(json).map_err(|e| corrupt(format!("{what}: {e}")))
}

/// Decode an embed-cache section — `[[ns, fp, [f32, ...]], ...]` — with
/// a single-pass streaming parser instead of the generic shim path.
///
/// The warm set dominates snapshot bytes (100k × 64-float vectors ≈
/// 30 MB), and the generic path pays for it twice: a `json::Value` tree
/// with one heap `String` per number (~6.6M allocations), then a second
/// walk parsing each. This decoder goes straight from payload bytes to
/// `(u64, u64, Vec<f32>)` triples. It accepts exactly what the shim
/// serializer emits (plus interstitial whitespace and `null` → NaN, the
/// shim's float convention); on *any* shape surprise it falls back to
/// [`from_json`], so error reporting and schema tolerance are unchanged.
pub(crate) fn parse_embed_cache(json: &str, what: &str) -> Result<Vec<(u64, u64, Vec<f32>)>> {
    match fast_embed_cache(json) {
        Some(entries) => Ok(entries),
        None => from_json(json, what),
    }
}

fn fast_embed_cache(json: &str) -> Option<Vec<(u64, u64, Vec<f32>)>> {
    let b = json.as_bytes();
    let mut p = 0usize;
    let skip_ws = |p: &mut usize| {
        while matches!(b.get(*p), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *p += 1;
        }
    };
    let eat = |p: &mut usize, c: u8| -> Option<()> { (b.get(*p) == Some(&c)).then(|| *p += 1) };
    // Scan one number token; boundaries are ASCII so the str slice is
    // always valid.
    fn number<'a>(json: &'a str, p: &mut usize) -> Option<&'a str> {
        let b = json.as_bytes();
        let start = *p;
        while matches!(
            b.get(*p),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            *p += 1;
        }
        (*p > start).then(|| &json[start..*p])
    }

    skip_ws(&mut p);
    eat(&mut p, b'[')?;
    skip_ws(&mut p);
    // Size the output from the entry-open count so the big Vec never
    // reallocates mid-parse.
    let mut out = Vec::with_capacity(json.matches("[[").count().max(1));
    if eat(&mut p, b']').is_none() {
        loop {
            skip_ws(&mut p);
            eat(&mut p, b'[')?;
            skip_ws(&mut p);
            let ns = number(json, &mut p)?.parse::<u64>().ok()?;
            skip_ws(&mut p);
            eat(&mut p, b',')?;
            skip_ws(&mut p);
            let fp = number(json, &mut p)?.parse::<u64>().ok()?;
            skip_ws(&mut p);
            eat(&mut p, b',')?;
            skip_ws(&mut p);
            eat(&mut p, b'[')?;
            // Vectors in one section share a dim; reuse the last length
            // as the capacity hint.
            let mut v: Vec<f32> = Vec::with_capacity(
                out.last()
                    .map_or(0, |(_, _, prev): &(_, _, Vec<f32>)| prev.len()),
            );
            skip_ws(&mut p);
            if eat(&mut p, b']').is_none() {
                loop {
                    skip_ws(&mut p);
                    if b[p..].starts_with(b"null") {
                        p += 4;
                        v.push(f32::NAN);
                    } else {
                        v.push(number(json, &mut p)?.parse::<f32>().ok()?);
                    }
                    skip_ws(&mut p);
                    if eat(&mut p, b',').is_some() {
                        continue;
                    }
                    eat(&mut p, b']')?;
                    break;
                }
            }
            skip_ws(&mut p);
            eat(&mut p, b']')?;
            out.push((ns, fp, v));
            skip_ws(&mut p);
            if eat(&mut p, b',').is_some() {
                continue;
            }
            eat(&mut p, b']')?;
            break;
        }
    }
    skip_ws(&mut p);
    (p == b.len()).then_some(out)
}

/// Decode a section's bytes as UTF-8 (all payloads are JSON text).
pub(crate) fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str> {
    std::str::from_utf8(bytes).map_err(|_| corrupt(format!("{what}: payload is not UTF-8")))
}

/// Reject any tree that splits on a feature column past `dim` — the
/// inference path indexes `v[feature]` unchecked.
pub(crate) fn check_tree(tree: &TreeState, dim: usize) -> Result<()> {
    for n in &tree.nodes {
        if !n.leaf && n.feature >= dim {
            return Err(corrupt(format!(
                "tree splits on feature {} but vectors have dim {dim}",
                n.feature
            )));
        }
    }
    Ok(())
}

/// [`check_tree`] over every tree of a forest.
pub(crate) fn check_forest(forest: &ForestState, dim: usize) -> Result<()> {
    forest.trees.iter().try_for_each(|t| check_tree(t, dim))
}

/// Rebuild a forest that will be fed `dim`-wide vectors, validating its
/// splits against `dim` first.
pub(crate) fn restore_forest(state: ForestState, dim: usize) -> Result<RandomForest> {
    check_forest(&state, dim)?;
    RandomForest::from_state(state).map_err(|e| corrupt(e.to_string()))
}

/// Validate a classifier snapshot against the dimensionality its owner
/// will feed it. (Shape *consistency* — weight lengths, arena indices —
/// is `querc-learn`'s job on `from_state`; this checks the one thing
/// only the owner knows: the input width.)
pub(crate) fn check_classifier_dim(state: &ClassifierState, dim: usize) -> Result<()> {
    match state {
        ClassifierState::Forest(f) => check_forest(f, dim),
        ClassifierState::Tree(t) => check_tree(t, dim),
        ClassifierState::Knn(k) => {
            // dim == 0 marks an empty training set: nothing to scan, any
            // probe width is safely answered by the majority class.
            if k.dim == 0 || k.dim == dim {
                Ok(())
            } else {
                Err(corrupt(format!(
                    "knn trained at dim {} but vectors have dim {dim}",
                    k.dim
                )))
            }
        }
        ClassifierState::Softmax(s) => {
            if s.cols == dim + 1 {
                Ok(())
            } else {
                Err(corrupt(format!(
                    "softmax has {} columns but vectors have dim {dim} (want dim+1)",
                    s.cols
                )))
            }
        }
    }
}

/// The `manifest` section: what the snapshot claims to contain, used to
/// detect sections lost to truncation-with-a-rewritten-footer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct ManifestState {
    /// Names of the `app:<name>` sections written.
    pub(crate) apps: Vec<String>,
    /// Names of the registry deployments serialized.
    pub(crate) classifiers: Vec<String>,
}

/// One serialized registry deployment.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct DeploymentState {
    /// Registry key.
    pub(crate) name: String,
    /// Pinned version number at checkpoint time.
    pub(crate) version: u64,
    /// The label this classifier attaches.
    pub(crate) label_name: String,
    /// Embedder family tag (`querc_embed::io::restore_embedder` input).
    pub(crate) embedder_kind: String,
    /// Embedder weights, serialized.
    pub(crate) embedder_json: String,
    /// The labeler half.
    pub(crate) labeler: LabelerState,
}

/// The `registry` section: deployments plus the event history.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct RegistryState {
    /// Serializable deployments (non-persistable ones are skipped).
    pub(crate) deployments: Vec<DeploymentState>,
    /// Full deploy/undeploy history, oldest first.
    pub(crate) events: Vec<RegistryEvent>,
}

/// One `app:<name>` section: the app's embedder spec plus its fitted
/// model as produced by [`crate::apps::AppModel::save_model`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct AppState {
    /// Registration key; must match the section's name suffix.
    pub(crate) app: String,
    /// Embedder family tag.
    pub(crate) embedder_kind: String,
    /// Embedder weights, serialized.
    pub(crate) embedder_json: String,
    /// The app's model payload (opaque to this layer).
    pub(crate) model_json: String,
}

/// One persisted per-tenant QoS policy override (see
/// [`crate::qos::TenantPolicy`]); `rate_per_sec`/`burst` are both
/// `None` for a tenant with no rate limit.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct QosPolicyState {
    /// Routing key the policy applies to.
    pub(crate) tenant: String,
    /// DRR weight.
    pub(crate) weight: u32,
    /// Token-bucket sustained rate, if rate-limited.
    pub(crate) rate_per_sec: Option<f64>,
    /// Token-bucket burst capacity, if rate-limited.
    pub(crate) burst: Option<f64>,
}

/// The `qos` section: the tenant policy overrides installed at
/// checkpoint time. **Additive** — written only when QoS is enabled,
/// ignored by readers that predate it, and absent from pre-QoS
/// snapshots without failing restore (no format version bump).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct QosSectionState {
    /// Explicit per-tenant overrides, sorted by tenant.
    pub(crate) policies: Vec<QosPolicyState>,
}

/// Restores embedders from `(kind, json)` specs, deduplicating by spec
/// so apps and classifiers that shared one embedder at checkpoint time
/// share one `Arc` (and one cache namespace's memory) after restore.
#[derive(Default)]
pub(crate) struct EmbedderCache {
    map: HashMap<(String, String), Arc<dyn Embedder>>,
}

impl EmbedderCache {
    pub(crate) fn restore(&mut self, kind: &str, json: &str) -> Result<Arc<dyn Embedder>> {
        let key = (kind.to_string(), json.to_string());
        if let Some(e) = self.map.get(&key) {
            return Ok(Arc::clone(e));
        }
        let e = querc_embed::io::restore_embedder(kind, json)
            .map_err(|err| corrupt(format!("embedder {kind:?}: {err}")))?;
        self.map.insert(key, Arc::clone(&e));
        Ok(e)
    }
}

/// Rebuild a fitted app from a snapshot section: the default
/// configuration under the restored embedder loads the saved model.
/// Label-time knobs (error thresholds, routing confidence floors) and
/// fit-time facts reports show (tree counts, cluster counts) live inside
/// the serialized **model**, so the default config is all a restore
/// needs.
pub(crate) fn restore_app(
    name: &str,
    embedder: Arc<dyn Embedder>,
    model_json: &str,
) -> Result<FittedApp> {
    fn load<A: WorkloadApp>(app: A, json: &str) -> Result<FittedApp> {
        Ok(FittedApp::new(app.name(), app.load_model(json)?))
    }
    match name {
        "audit" => load(AuditApp::new(embedder), model_json),
        "errors" => load(ErrorsApp::new(embedder), model_json),
        "recommend" => load(RecommendApp::new(embedder), model_json),
        "resources" => load(ResourcesApp::new(embedder), model_json),
        "routing" => load(RoutingApp::new(embedder), model_json),
        "summarize" => load(SummarizeApp::new(embedder), model_json),
        other => Err(corrupt(format!("unknown app in snapshot: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: &Vec<(u64, u64, Vec<f32>)>) {
        let json = to_json(entries).unwrap();
        let fast = fast_embed_cache(&json).expect("writer output takes the fast path");
        let generic: Vec<(u64, u64, Vec<f32>)> = from_json(&json, "t").unwrap();
        assert_eq!(fast.len(), generic.len());
        for ((fa, fb, fv), (ga, gb, gv)) in fast.iter().zip(&generic) {
            assert_eq!((fa, fb), (ga, gb));
            // Bit-compare so NaN round-trips count as equal too.
            let f_bits: Vec<u32> = fv.iter().map(|x| x.to_bits()).collect();
            let g_bits: Vec<u32> = gv.iter().map(|x| x.to_bits()).collect();
            assert_eq!(f_bits, g_bits);
        }
    }

    #[test]
    fn fast_embed_cache_matches_generic_parser() {
        roundtrip(&vec![]);
        roundtrip(&vec![(0, u64::MAX, vec![])]);
        roundtrip(&vec![
            (1, 2, vec![0.0, -0.0, 1.5, -3.25e-7, f32::MIN, f32::MAX]),
            (u64::MAX, 0, vec![f32::NAN, 0.3]),
            (42, 7, (0..64).map(|i| (i as f32 * 0.1).sin()).collect()),
        ]);
    }

    #[test]
    fn fast_embed_cache_accepts_whitespace_and_rejects_junk() {
        let spaced = " [ [1 , 2 , [0.5, null] ] ,\n[3,4,[]] ] ";
        let v = fast_embed_cache(spaced).expect("whitespace tolerated");
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].0, v[0].1), (1, 2));
        assert!(v[0].2[1].is_nan());
        // Shape surprises must decline (→ generic fallback), not panic.
        for junk in [
            "",
            "{}",
            "[[1,2,[0.5]]",
            "[[1,2,[0.5]]] trailing",
            r#"[["a",2,[0.5]]]"#,
            "[[1,2,[true]]]",
            "[[1,2,0.5]]",
            "[[1,2,[0.5],9]]",
        ] {
            assert!(fast_embed_cache(junk).is_none(), "accepted {junk:?}");
        }
    }
}
