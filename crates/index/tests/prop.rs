//! Property tests for the SIMD kernel parity contract and the SQ8
//! quantizer's error bounds.
//!
//! Three families:
//!
//! * **SIMD ≡ scalar, bit for bit** — fuzzed over random lengths
//!   (including every tail residue `n % 8`), denormal components, and
//!   unaligned query slices. `to_bits` equality, not approximate.
//! * **Quantizer round-trip** — `decode(encode(x))` is within half a
//!   quantization step of `x` in every dimension.
//! * **ADC error bound** — the asymmetric (f32 query × u8 codes)
//!   Euclidean distance differs from the exact f32 distance by at most
//!   the quantization noise: `|√adc − √exact| ≤ ‖step‖ / 2`, up to f32
//!   rounding slack.

use proptest::prelude::*;
use querc_index::{Metric, Sq8Config, Sq8Index, VectorIndex, VectorStore};
use querc_linalg::kernel::{self, Kernel};
use querc_linalg::ops;

/// Kernels whose parity this machine can witness: always the scalar
/// reference; the AVX2 / AVX-512 arms when the CPU has them.
fn arms() -> Vec<Kernel> {
    let mut arms = vec![Kernel::Scalar];
    if kernel::avx2_available() {
        arms.push(Kernel::Avx2);
    }
    if kernel::avx512_available() {
        arms.push(Kernel::Avx512);
    }
    arms
}

/// Mix denormals and a huge spread of magnitudes into a fuzzed vector:
/// index-selected components are replaced with subnormal values.
fn seed_denormals(v: &mut [f32], mask: u64) {
    for (i, x) in v.iter_mut().enumerate() {
        if (mask >> (i % 64)) & 1 == 1 {
            *x = f32::MIN_POSITIVE / 4.0 * x.signum();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Row kernels agree bit-for-bit across arms, for any length
    /// (tails of every residue), with denormal components, reading the
    /// query from an unaligned slice.
    #[test]
    fn row_kernels_bit_identical(
        mut a in prop::collection::vec(-100.0f32..100.0, 0..70),
        mask in any::<u64>(),
        bseed in any::<u64>(),
    ) {
        seed_denormals(&mut a, mask);
        let n = a.len();
        let b: Vec<f32> = (0..n)
            .map(|i| ((bseed.wrapping_add(i as u64 * 0x9e37) % 2000) as f32 - 1000.0) / 10.0)
            .collect();
        // Unaligned views: one element of padding shifts the slice off
        // any 32-byte boundary the Vec allocation happened to land on.
        let mut a_pad = vec![0.0f32; n + 1];
        a_pad[1..].copy_from_slice(&a);
        let a_off = &a_pad[1..];

        let arms = arms();
        let sq: Vec<u32> = arms.iter().map(|&k| kernel::sq_dist_with(k, a_off, &b).to_bits()).collect();
        let co: Vec<u32> = arms.iter().map(|&k| kernel::cosine_dist_with(k, a_off, &b).to_bits()).collect();
        let dt: Vec<u32> = arms.iter().map(|&k| kernel::dot_with(k, a_off, &b).to_bits()).collect();
        for w in [&sq, &co, &dt] {
            prop_assert!(w.windows(2).all(|p| p[0] == p[1]), "arm mismatch: {w:?}");
        }
        // And the scalar arm IS the ops reference.
        prop_assert_eq!(sq[0], ops::sq_dist(a_off, &b).to_bits());
        prop_assert_eq!(co[0], ops::cosine_dist(a_off, &b).to_bits());
        prop_assert_eq!(dt[0], ops::dot(a_off, &b).to_bits());
    }

    /// Fused block kernels agree bit-for-bit across arms AND with the
    /// row kernels, over padded stores of fuzzed dim/row-count.
    #[test]
    fn block_kernels_bit_identical(
        dim in 1usize..40,
        rows in 1usize..20,
        mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut store = VectorStore::with_capacity(dim, rows);
        for r in 0..rows {
            let mut row: Vec<f32> = (0..dim)
                .map(|d| ((seed.wrapping_add((r * dim + d) as u64 * 0x1df5) % 4000) as f32 - 2000.0) / 40.0)
                .collect();
            seed_denormals(&mut row, mask.rotate_left(r as u32));
            store.push(&row);
        }
        let mut q: Vec<f32> = (0..dim).map(|d| (d as f32).sin() * 9.0).collect();
        seed_denormals(&mut q, mask);

        for metric in [Metric::Euclidean, Metric::Cosine] {
            let mut outs: Vec<Vec<f32>> = Vec::new();
            for &k in &arms() {
                let mut out = vec![0.0f32; rows];
                match metric {
                    Metric::Euclidean =>
                        kernel::sq_dist_block_with(k, &q, store.data(), store.stride(), &mut out),
                    Metric::Cosine =>
                        kernel::cosine_dist_block_with(k, &q, store.data(), store.stride(), &mut out),
                }
                outs.push(out);
            }
            for out in &outs[1..] {
                for (x, y) in outs[0].iter().zip(out) {
                    prop_assert!(x.to_bits() == y.to_bits(), "{metric:?} block arm mismatch");
                }
            }
            for (r, &d) in outs[0].iter().enumerate() {
                let row_d = metric.distance(&q, store.row(r));
                prop_assert!(
                    d.to_bits() == row_d.to_bits(),
                    "{metric:?} block vs row mismatch at row {r}: {d} vs {row_d}"
                );
            }
        }
    }

    /// ADC block kernels agree bit-for-bit across arms for arbitrary
    /// codes and fuzzed dims.
    #[test]
    fn adc_kernels_bit_identical(
        dim in 1usize..40,
        rows in 1usize..12,
        seed in any::<u64>(),
    ) {
        let stride = dim.div_ceil(8) * 8;
        let codes: Vec<u8> = (0..rows * stride)
            .map(|i| (seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i as u64 * 0x9e37) >> 24) as u8)
            .collect();
        let t: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.7).cos() * 50.0).collect();
        let step: Vec<f32> = (0..dim).map(|d| 0.01 + (d as f32 * 0.13).sin().abs()).collect();

        let mut sq_outs: Vec<Vec<f32>> = Vec::new();
        let mut dot_outs: Vec<Vec<f32>> = Vec::new();
        for &k in &arms() {
            let mut sq = vec![0.0f32; rows];
            let mut dt = vec![0.0f32; rows];
            kernel::adc_sq_block_with(k, &t, &step, &codes, stride, &mut sq);
            kernel::adc_dot_block_with(k, &t, &codes, stride, &mut dt);
            sq_outs.push(sq);
            dot_outs.push(dt);
        }
        for outs in [&sq_outs, &dot_outs] {
            for out in &outs[1..] {
                for (x, y) in outs[0].iter().zip(out) {
                    prop_assert!(x.to_bits() == y.to_bits(), "ADC arm mismatch: {x} vs {y}");
                }
            }
        }
    }

    /// Quantizer round-trip: decoding a code reproduces the original
    /// component to within half a step (plus f32 rounding slack).
    #[test]
    fn quantizer_round_trip_error_is_bounded(
        dim in 1usize..24,
        rows in 2usize..30,
        seed in any::<u64>(),
        scale in 0.01f32..1000.0,
    ) {
        let rows_v: Vec<Vec<f32>> = (0..rows)
            .map(|r| (0..dim)
                .map(|d| ((seed.wrapping_add((r * dim + d) as u64 * 0x517c) % 2001) as f32 - 1000.0)
                    / 1000.0 * scale)
                .collect())
            .collect();
        // Flat (nlist 0): codes quantize the raw rows, so the
        // round-trip bound is directly checkable against the inputs.
        let ix = Sq8Index::from_rows(&rows_v, Metric::Euclidean, &Sq8Config {
            nlist: 0,
            rerank_factor: 0,
            ..Default::default()
        });
        let (min, step) = ix.quantizer();
        let codes = ix.codes_by_row();
        for (r, row) in rows_v.iter().enumerate() {
            for (d, &x) in row.iter().enumerate() {
                let c = codes[r * dim + d] as f32;
                let decoded = min[d] + c * step[d];
                let slack = step[d] * 0.5 + step[d] * 1e-4 + scale * 1e-5;
                prop_assert!(
                    (decoded - x).abs() <= slack,
                    "row {r} dim {d}: decoded {decoded} vs {x}, step {}", step[d]
                );
            }
        }
    }

    /// ADC Euclidean distances are within the quantization-noise bound
    /// of the exact f32 distances: `|√adc − √exact| ≤ ‖step‖/2` (+f32
    /// slack). Checked over every row via a full-k search.
    #[test]
    fn adc_distance_is_within_quantization_noise(
        dim in 1usize..16,
        rows in 2usize..24,
        seed in any::<u64>(),
    ) {
        let rows_v: Vec<Vec<f32>> = (0..rows)
            .map(|r| (0..dim)
                .map(|d| ((seed.wrapping_add((r * dim + d) as u64 * 0x6d2b) % 2001) as f32 - 1000.0) / 50.0)
                .collect())
            .collect();
        let ix = Sq8Index::from_rows(&rows_v, Metric::Euclidean, &Sq8Config {
            nlist: 0,
            rerank_factor: 0, // report raw ADC distances
            ..Default::default()
        });
        let (_, step) = ix.quantizer();
        let half_step_norm = ops::norm(step) * 0.5;
        let q: Vec<f32> = (0..dim).map(|d| (d as f32 * 1.3).sin() * 18.0).collect();
        for (id, adc) in ix.search(&q, rows) {
            let exact = ops::sq_dist(&q, &rows_v[id as usize]);
            let (da, de) = (adc.max(0.0).sqrt(), exact.sqrt());
            prop_assert!(
                (da - de).abs() <= half_step_norm * 1.001 + 1e-3,
                "row {id}: √adc {da} vs √exact {de}, bound {half_step_norm}"
            );
        }
    }
}
