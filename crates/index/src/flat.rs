//! Exact nearest-neighbor search by blocked linear scan.

use crate::metric::Metric;
use crate::store::VectorStore;
use crate::{Hit, IndexStats, TopK, VectorIndex};
use querc_linalg::kernel;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows per scan block. Batched queries revisit each block while it is
/// hot in L1/L2: the store is walked once per *block*, not once per
/// query, which is what makes `search_batch` faster than k independent
/// scans even though the arithmetic is identical.
const SCAN_BLOCK: usize = 256;

/// Exact k-NN over a [`VectorStore`] — the correctness baseline every
/// approximate index is measured against.
///
/// Distances are computed by the fused [`querc_linalg::kernel`] block kernels
/// (one query against a whole contiguous block, no per-row call
/// overhead), dispatched at runtime between the AVX2 arm and the
/// `querc_linalg::ops` scalar reference. The arms are bit-identical, so
/// results (values *and* bits) still match the historical row-by-row
/// brute force; only the selection rule is newly deterministic
/// (`(distance, id)` total order, see the crate docs).
#[derive(Debug)]
pub struct FlatIndex {
    store: VectorStore,
    metric: Metric,
    searches: AtomicU64,
    candidates: AtomicU64,
}

impl FlatIndex {
    /// Index an existing store under `metric`.
    pub fn new(store: VectorStore, metric: Metric) -> FlatIndex {
        FlatIndex {
            store,
            metric,
            searches: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }

    /// Bulk-build from row data (see [`VectorStore::from_rows`]).
    ///
    /// # Panics
    /// If `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f32>], metric: Metric) -> FlatIndex {
        FlatIndex::new(VectorStore::from_rows(rows), metric)
    }

    /// The indexed store.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The index's metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Distances from `query` to rows `[block_start, block_end)`,
    /// written to `buf[..block_end - block_start]`.
    #[inline]
    fn scan_block(&self, query: &[f32], block_start: usize, block_end: usize, buf: &mut [f32]) {
        let stride = self.store.stride();
        let data = &self.store.data()[block_start * stride..block_end * stride];
        self.metric
            .distance_block(query, data, stride, &mut buf[..block_end - block_start]);
    }
}

impl VectorIndex for FlatIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(self.store.len() as u64, Ordering::Relaxed);
        let n = self.store.len();
        let mut top = TopK::new(k);
        let mut buf = [0.0f32; SCAN_BLOCK];
        let mut block_start = 0usize;
        while block_start < n {
            let block_end = (block_start + SCAN_BLOCK).min(n);
            self.scan_block(query, block_start, block_end, &mut buf);
            top.push_block(block_start as u32, &buf[..block_end - block_start]);
            block_start = block_end;
        }
        top.into_sorted()
    }

    fn search_batch(&self, queries: &[&[f32]], k: usize) -> Vec<Vec<Hit>> {
        self.searches
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.candidates
            .fetch_add((queries.len() * self.store.len()) as u64, Ordering::Relaxed);
        let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
        let n = self.store.len();
        let mut buf = [0.0f32; SCAN_BLOCK];
        let mut block_start = 0usize;
        while block_start < n {
            let block_end = (block_start + SCAN_BLOCK).min(n);
            for (q, top) in queries.iter().zip(tops.iter_mut()) {
                self.scan_block(q, block_start, block_end, &mut buf);
                top.push_block(block_start as u32, &buf[..block_end - block_start]);
            }
            block_start = block_end;
        }
        tops.into_iter().map(TopK::into_sorted).collect()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn stats(&self) -> IndexStats {
        let searches = self.searches.load(Ordering::Relaxed);
        IndexStats {
            searches,
            probes: searches,
            candidates: self.candidates.load(Ordering::Relaxed),
            partitions: 1,
            exact: true,
            backend: "flat",
            kernel: kernel::kernel_name(),
            resident_bytes: self.store.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Vec<f32>> {
        (0..20).map(|i| vec![i as f32, 0.0]).collect()
    }

    #[test]
    fn search_finds_exact_neighbors_in_order() {
        let ix = FlatIndex::from_rows(&grid(), Metric::Euclidean);
        let hits = ix.search(&[7.2, 0.0], 3);
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![7, 8, 6]);
        assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
    }

    #[test]
    fn batch_matches_single_and_spans_blocks() {
        // More rows than one scan block, to exercise block boundaries.
        let rows: Vec<Vec<f32>> = (0..(SCAN_BLOCK * 2 + 17))
            .map(|i| vec![(i as f32).sin(), (i as f32).cos()])
            .collect();
        let ix = FlatIndex::from_rows(&rows, Metric::Euclidean);
        let queries: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32 * 0.3, 0.5]).collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let batched = ix.search_batch(&refs, 4);
        for (q, hits) in refs.iter().zip(&batched) {
            assert_eq!(*hits, ix.search(q, 4));
        }
    }

    #[test]
    fn k_clamps_to_len_and_empty_k() {
        let ix = FlatIndex::from_rows(&grid(), Metric::Euclidean);
        assert_eq!(ix.search(&[0.0, 0.0], 100).len(), 20);
        assert_eq!(ix.search(&[0.0, 0.0], 0).len(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let ix = FlatIndex::from_rows(&grid(), Metric::Euclidean);
        let _ = ix.search(&[1.0, 0.0], 2);
        let q = [[2.0f32, 0.0], [3.0, 0.0]];
        let refs: Vec<&[f32]> = q.iter().map(|v| v.as_slice()).collect();
        let _ = ix.search_batch(&refs, 2);
        let s = ix.stats();
        assert_eq!(s.searches, 3);
        assert_eq!(s.probes, 3);
        assert_eq!(s.candidates, 60, "3 searches × 20 rows");
        assert!(s.exact);
        assert_eq!(s.partitions, 1);
        assert_eq!(s.candidates_per_search(), 20.0);
        assert_eq!(s.backend, "flat");
        assert_eq!(s.kernel, kernel::kernel_name());
        assert_eq!(s.resident_bytes, ix.store().memory_bytes());
    }

    #[test]
    fn cosine_metric_is_supported() {
        let rows = vec![vec![1.0f32, 0.0], vec![0.0, 1.0], vec![-1.0, 0.0]];
        let ix = FlatIndex::from_rows(&rows, Metric::Cosine);
        let hits = ix.search(&[10.0, 0.1], 1);
        assert_eq!(hits[0].0, 0, "cosine ignores magnitude");
    }
}
