//! Distance metrics with a total order.
//!
//! The historical call sites each hand-rolled their distance and their
//! comparison — `partial_cmp(..).unwrap_or(Equal)` in the kNN labeler
//! silently corrupted the k-selection whenever a zero vector pushed
//! `1 − cosine` to NaN. Here the distance definitions and the ordering
//! rule live in one place: distances are semantically defined by the
//! `querc_linalg::ops` reference kernels and computed by the
//! runtime-dispatched [`querc_linalg::kernel`] twins (bit-identical on every
//! arm, so values still match the historical scans), and every
//! comparison goes through [`f32::total_cmp`], under which NaN sorts
//! after every real number and therefore can never win a
//! nearest-neighbor slot.

/// How two vectors' distance is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// **Squared** Euclidean distance (`ops::sq_dist`) — monotone in
    /// true Euclidean distance and cheaper, matching what every
    /// historical scan in the workspace computed.
    #[default]
    Euclidean,
    /// Cosine distance `1 − cosine(a, b)`, in `[0, 2]`.
    ///
    /// Zero vectors are defined to be orthogonal to everything
    /// (`ops::cosine` returns 0 for them), so the distance from a zero
    /// vector — to anything, including another zero vector — is exactly
    /// `1.0`, never NaN. Denormal components behave like any other
    /// finite value.
    Cosine,
}

impl Metric {
    /// Distance between `a` and `b`. Finite for all finite inputs;
    /// inputs containing NaN/∞ may yield NaN, which the total order
    /// ranks after every real distance.
    /// Both arms dispatch through [`querc_linalg::kernel`]: an AVX2 kernel when
    /// the CPU has it (bit-identical to the scalar reference — see the
    /// parity suite), the `querc_linalg::ops` reference loops otherwise.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Euclidean => querc_linalg::kernel::sq_dist(a, b),
            Metric::Cosine => querc_linalg::kernel::cosine_dist(a, b),
        }
    }

    /// Distances from `query` to `out.len()` consecutive rows of
    /// `data` — padded row-major storage as produced by
    /// [`crate::VectorStore::data`], row `r` at `r * stride`. Each
    /// `out[r]` is bit-identical to `self.distance(query, row_r)`; the
    /// fused kernels only remove per-row call overhead.
    #[inline]
    pub fn distance_block(&self, query: &[f32], data: &[f32], stride: usize, out: &mut [f32]) {
        match self {
            Metric::Euclidean => querc_linalg::kernel::sq_dist_block(query, data, stride, out),
            Metric::Cosine => querc_linalg::kernel::cosine_dist_block(query, data, stride, out),
        }
    }

    /// Short lowercase name (`"euclidean"` / `"cosine"`), for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Euclidean => "euclidean",
            Metric::Cosine => "cosine",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_is_squared_distance() {
        assert_eq!(Metric::Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn cosine_zero_vectors_are_orthogonal_not_nan() {
        let z = [0.0f32, 0.0];
        let x = [1.0f32, 0.0];
        assert_eq!(Metric::Cosine.distance(&z, &x), 1.0);
        assert_eq!(Metric::Cosine.distance(&x, &z), 1.0);
        assert_eq!(Metric::Cosine.distance(&z, &z), 1.0);
    }

    #[test]
    fn cosine_denormals_are_finite() {
        let tiny = [f32::MIN_POSITIVE / 2.0, 0.0];
        let x = [1.0f32, 0.0];
        let d = Metric::Cosine.distance(&tiny, &x);
        assert!(d.is_finite(), "denormal vector produced {d}");
    }

    #[test]
    fn names() {
        assert_eq!(Metric::Euclidean.name(), "euclidean");
        assert_eq!(Metric::Cosine.name(), "cosine");
        assert_eq!(Metric::default(), Metric::Euclidean);
    }
}
