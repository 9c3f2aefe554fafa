//! The `Embedder` abstraction — Querc's replacement for feature engineering.
//!
//! A classifier in Querc is a pre-trained *(embedder, labeler)* pair; the
//! embedder half is anything that maps a normalized token sequence to a
//! fixed-dimension vector. Embedders are immutable once trained (training
//! happens in the offline training module), so `embed` takes `&self` and
//! implementations must be deterministic for a given input — Qworkers
//! replicate them freely across threads.
//!
//! ```
//! use querc_embed::{BagOfTokens, Embedder};
//!
//! let embedder = BagOfTokens::new(64, true);
//! // Normalization collapses literals, so these embed identically.
//! let a = embedder.embed_sql("select * from t where x = 1");
//! let b = embedder.embed_sql("SELECT * FROM t WHERE x = 99");
//! assert_eq!(a, b);
//! assert_eq!(a.len(), embedder.dim());
//!
//! // The batched path is an amortization, never a semantic change.
//! let docs = vec![querc_embed::sql_tokens("select * from t where x = 1")];
//! assert_eq!(embedder.embed_batch(&docs)[0], a);
//! ```

/// Maps token sequences to fixed-size dense vectors.
pub trait Embedder: Send + Sync {
    /// Output dimensionality; every returned vector has exactly this length.
    fn dim(&self) -> usize;

    /// Embed one tokenized (normalized) query.
    ///
    /// Must be deterministic: equal token sequences produce equal vectors.
    fn embed(&self, tokens: &[String]) -> Vec<f32>;

    /// Short identifier used in logs and experiment tables
    /// (e.g. `"doc2vec"`, `"lstm"`).
    fn name(&self) -> &'static str;

    /// Convenience: normalize SQL text and embed it.
    fn embed_sql(&self, sql: &str) -> Vec<f32> {
        self.embed(&crate::sql_tokens(sql))
    }

    /// Embed a batch of tokenized queries — the serving hot path.
    ///
    /// Must return exactly `docs.len()` vectors, and each vector must be
    /// **identical** to what [`Embedder::embed`] would return for the same
    /// document: batching is an amortization, never a semantic change.
    /// The default delegates query-at-a-time; `bow`, `doc2vec`, and
    /// `lstm` override it to run documents chunk-parallel or to hoist
    /// per-call setup (scratch buffers) out of the loop.
    fn embed_batch(&self, docs: &[Vec<String>]) -> Vec<Vec<f32>> {
        docs.iter().map(|d| self.embed(d)).collect()
    }

    /// A 64-bit identity for this embedder's *function*, used to
    /// namespace shared vector caches (the serving layer's embed plane):
    /// cache entries written under one namespace are only ever served to
    /// embedders reporting the same namespace. Two embedders that agree
    /// here promise to embed equal token streams to equal vectors.
    ///
    /// The default folds [`Embedder::name`] and [`Embedder::dim`], which
    /// keeps `bow` / `doc2vec` / `lstm` vectors apart. Embedders with
    /// extra knobs or trained state override it to also fold that state
    /// (hash flags, seed, vocabulary size, a weight checksum), so two
    /// differently-configured or separately-trained models of the same
    /// architecture and width never serve each other's vectors.
    fn cache_namespace(&self) -> u64 {
        namespace_fold(namespace_of(self.name()), self.dim() as u64)
    }

    /// Serialize this embedder for a snapshot: `(kind, json)` such that
    /// [`crate::io::restore_embedder`]`(kind, &json)` rebuilds an
    /// embedder with **identical weights** — and therefore an identical
    /// [`Embedder::cache_namespace`], which is what lets warm cache
    /// entries survive a checkpoint/restore cycle. The default is
    /// `None`: embedders without serialization simply opt out of
    /// persistence (their apps refit after a restore).
    fn export_spec(&self) -> Option<(&'static str, String)> {
        None
    }
}

/// Chunk width for [`batch_chunks`]. Fixed — the decomposition depends
/// only on the batch size, so parallel batches merge identically for
/// every thread count.
const BATCH_CHUNK: usize = 32;

/// Run `f` over every document of `docs` with fixed-size chunks
/// distributed across the compute pool, returning results in input
/// order — the shared skeleton of the `embed_batch` overrides. Because
/// each document's result is a pure function of that document (the
/// `Embedder` determinism contract), the output is bit-identical to a
/// sequential `docs.iter().map(f)` at every thread count.
pub fn batch_chunks<T, F>(docs: &[T], f: F) -> Vec<Vec<f32>>
where
    T: Sync,
    F: Fn(&T) -> Vec<f32> + Sync,
{
    let n_chunks = docs.len().div_ceil(BATCH_CHUNK);
    let parts = querc_linalg::ComputePool::current().map(n_chunks, |c| {
        let lo = c * BATCH_CHUNK;
        let hi = (lo + BATCH_CHUNK).min(docs.len());
        docs[lo..hi].iter().map(&f).collect::<Vec<_>>()
    });
    parts.into_iter().flatten().collect()
}

/// FNV-1a hash of an embedder family name — the starting point for
/// [`Embedder::cache_namespace`] implementations.
pub fn namespace_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fold one 64-bit word (a dimension, a seed, a checksum) into a cache
/// namespace, FNV-1a style over its little-endian bytes.
pub fn namespace_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Checksum of a weight slice for namespacing trained models: folds the
/// bit patterns of up to 256 values sampled **evenly across the whole
/// slice**, plus its length. Strided sampling keeps the per-call cost
/// flat (cheap enough for the serving hot path) while covering the
/// entire matrix — a retrain that leaves some region untouched (e.g.
/// vocabulary slots absent from the new corpus) still almost surely
/// moves many of the strided samples. This is probabilistic identity,
/// not a cryptographic digest; callers fold it together with exact
/// discriminators (dims, seed, vocabulary size).
pub fn weights_checksum(weights: &[f32]) -> u64 {
    const SAMPLES: usize = 256;
    let mut h: u64 = 0xcbf29ce484222325;
    if !weights.is_empty() {
        let stride = weights.len().div_ceil(SAMPLES);
        for w in weights.iter().step_by(stride) {
            h = namespace_fold(h, w.to_bits() as u64);
        }
    }
    namespace_fold(h, weights.len() as u64)
}

/// Embed a whole corpus row-by-row into a feature matrix
/// (`corpus.len()` × `embedder.dim()`), as consumed by `querc-learn`
/// classifiers and `querc-cluster`.
pub fn embed_corpus<E: Embedder + ?Sized>(embedder: &E, corpus: &[Vec<String>]) -> Vec<Vec<f32>> {
    embedder.embed_batch(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial embedder for exercising the trait's defaults.
    struct LengthEmbedder;

    impl Embedder for LengthEmbedder {
        fn dim(&self) -> usize {
            2
        }
        fn embed(&self, tokens: &[String]) -> Vec<f32> {
            vec![
                tokens.len() as f32,
                tokens.iter().map(|t| t.len()).sum::<usize>() as f32,
            ]
        }
        fn name(&self) -> &'static str {
            "length"
        }
    }

    #[test]
    fn embed_sql_normalizes_first() {
        let e = LengthEmbedder;
        // Literal values are placeholders after normalization, so these two
        // must embed identically.
        let a = e.embed_sql("SELECT * FROM t WHERE x = 12345");
        let b = e.embed_sql("select * from t where x = 9");
        assert_eq!(a, b);
    }

    #[test]
    fn default_embed_batch_matches_embed() {
        let e = LengthEmbedder;
        let docs = vec![
            vec!["select".to_string(), "x".to_string()],
            vec![],
            vec!["a".to_string(), "bb".to_string(), "ccc".to_string()],
        ];
        let batch = e.embed_batch(&docs);
        assert_eq!(batch.len(), docs.len());
        for (doc, v) in docs.iter().zip(&batch) {
            assert_eq!(*v, e.embed(doc));
        }
    }

    #[test]
    fn cache_namespaces_separate_families_and_configs() {
        use crate::BagOfTokens;
        // Different dims → different namespaces (default impl).
        assert_ne!(
            BagOfTokens::new(64, true).cache_namespace(),
            BagOfTokens::new(128, true).cache_namespace()
        );
        // Same params → same namespace, even across instances.
        assert_eq!(
            BagOfTokens::new(64, true).cache_namespace(),
            BagOfTokens::new(64, true).cache_namespace()
        );
        // Same (name, dim) but different hashing config → different.
        assert_ne!(
            BagOfTokens::new(64, true).cache_namespace(),
            BagOfTokens::new(64, false).cache_namespace()
        );
        // A different family at the same dim → different.
        assert_ne!(
            LengthEmbedder.cache_namespace(),
            BagOfTokens::new(2, false).cache_namespace()
        );
    }

    #[test]
    fn weights_checksum_tracks_content_and_length() {
        assert_ne!(weights_checksum(&[1.0, 2.0]), weights_checksum(&[1.0, 2.5]));
        assert_ne!(weights_checksum(&[1.0]), weights_checksum(&[1.0, 1.0]));
        assert_eq!(weights_checksum(&[]), weights_checksum(&[]));
    }

    #[test]
    fn embed_corpus_shape() {
        let e = LengthEmbedder;
        let corpus = vec![
            vec!["a".to_string()],
            vec!["b".to_string(), "cc".to_string()],
        ];
        let m = embed_corpus(&e, &corpus);
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|r| r.len() == e.dim()));
        assert_eq!(m[1], vec![2.0, 3.0]);
    }
}
