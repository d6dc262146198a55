//! SIMD kernels: the dot product backing the dense correlation engine,
//! and the four-lane lag loop of Eq. 1 normalization.
//!
//! Each output lag of the bounded dense correlation is one dot product of
//! two equal-length `f64` slices (the overlapping portions of the source
//! and shifted target windows), so the whole engine reduces to [`dot`].
//!
//! Dispatch rules (see DESIGN.md §6.3):
//!
//! * On `x86_64`, an AVX2 path (4 lanes × 4 independent accumulators) is
//!   selected at runtime via `is_x86_feature_detected!`; otherwise an SSE2
//!   path (2 lanes × 4 accumulators) runs — SSE2 is part of the `x86_64`
//!   baseline, so there is no scalar fallback on this architecture.
//!   Feature detection is cached by the standard library, so the per-call
//!   cost is one relaxed atomic load.
//! * On every other architecture, [`dot_unrolled`] — a 4-accumulator
//!   scalar loop the autovectorizer can turn into whatever the target
//!   offers — is the only path, and the crate stays entirely `unsafe`-free.
//!
//! All paths reassociate the summation (four partial accumulators reduced
//! pairwise), so results may differ from strict left-to-right evaluation
//! in the last ulps. The engine-equivalence suites compare engines under a
//! tolerance for exactly this reason, and on integer-valued signals every
//! association order is exact, which is what the bitwise proptests rely on.
//!
//! Eq. 1's lag loop dispatches the same way, between AVX2 (four lags per
//! block) and the portable one-lag loop of [`crate::normalize`] — with no
//! reassociation at all: every lane computes its lag's expression in the
//! scalar operation order with correctly rounded IEEE `+ − × ÷ √`, nothing
//! fused into an FMA, so the two paths agree bit for bit
//! ([`normalize_into_avx2`](crate::normalize::normalize_into_avx2) ≡
//! [`normalize_into_portable`](crate::normalize::normalize_into_portable)).
//! The whole lag loop is one `#[target_feature]` function, with the cursor
//! walk inlined into it: a call per block into a separate kernel costs
//! more than the vector arithmetic saves.
//!
//! This is the only module in the crate allowed to contain `unsafe` (the
//! crate root sets `deny(unsafe_code)`); every unsafe block is an intrinsic
//! call or raw load whose bounds are established by the loop condition.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use crate::normalize::{self, LagLoop};
#[cfg(target_arch = "x86_64")]
use crate::{
    normalize::{Source, WindowMoments, EPS_ENERGY},
    spike::Moments,
};

/// Dot product of the overlapping prefix of `a` and `b`, using the best
/// kernel the host supports.
///
/// # Example
///
/// ```
/// let a = [1.0, 2.0, 3.0];
/// let b = [4.0, 5.0, 6.0];
/// assert_eq!(e2eprof_xcorr::simd::dot(&a, &b), 32.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_dispatch(a, b)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn dot_dispatch(a: &[f64], b: &[f64]) -> f64 {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: reached only when the host CPU reports AVX2.
        unsafe { dot_avx2(a, b) }
    } else {
        // SAFETY: SSE2 is unconditionally present on x86_64.
        unsafe { dot_sse2(a, b) }
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn dot_dispatch(a: &[f64], b: &[f64]) -> f64 {
    dot_unrolled(a, b)
}

/// Portable 4-lane-unrolled kernel: four independent accumulators give the
/// autovectorizer a dependency-free inner loop and cut the add-latency
/// chain four-fold even when it stays scalar. Used as the non-x86 path and
/// as the reference the SIMD paths are tested against.
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (ka, kb) in (&mut ca).zip(&mut cb) {
        acc[0] += ka[0] * kb[0];
        acc[1] += ka[1] * kb[1];
        acc[2] += ka[2] * kb[2];
        acc[3] += ka[3] * kb[3];
    }
    let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += x * y;
    }
    sum
}

/// AVX2 kernel: 4×4 doubles per iteration with unaligned loads (the slices
/// come from arbitrary window offsets, so alignment cannot be assumed).
///
/// # Safety
///
/// The host CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    // SAFETY (applies to every load below): the loop conditions keep each
    // 4-wide load within the first `n` elements of both slices.
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 16 <= n {
        unsafe {
            let m0 = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
            let m1 = _mm256_mul_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
            );
            let m2 = _mm256_mul_pd(
                _mm256_loadu_pd(ap.add(i + 8)),
                _mm256_loadu_pd(bp.add(i + 8)),
            );
            let m3 = _mm256_mul_pd(
                _mm256_loadu_pd(ap.add(i + 12)),
                _mm256_loadu_pd(bp.add(i + 12)),
            );
            acc0 = _mm256_add_pd(acc0, m0);
            acc1 = _mm256_add_pd(acc1, m1);
            acc2 = _mm256_add_pd(acc2, m2);
            acc3 = _mm256_add_pd(acc3, m3);
        }
        i += 16;
    }
    while i + 4 <= n {
        unsafe {
            acc0 = _mm256_add_pd(
                acc0,
                _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i))),
            );
        }
        i += 4;
    }
    let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is a 4-element f64 array; unaligned store is in bounds.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
    let mut sum = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for k in i..n {
        sum += a[k] * b[k];
    }
    sum
}

/// SSE2 kernel: 4×2 doubles per iteration. The floor for `x86_64` hosts
/// without AVX2.
///
/// # Safety
///
/// The host CPU must support SSE2 (always true on x86_64).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn dot_sse2(a: &[f64], b: &[f64]) -> f64 {
    use core::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = _mm_setzero_pd();
    let mut acc1 = _mm_setzero_pd();
    let mut acc2 = _mm_setzero_pd();
    let mut acc3 = _mm_setzero_pd();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` keeps each 2-wide load within both slices.
        unsafe {
            let m0 = _mm_mul_pd(_mm_loadu_pd(ap.add(i)), _mm_loadu_pd(bp.add(i)));
            let m1 = _mm_mul_pd(_mm_loadu_pd(ap.add(i + 2)), _mm_loadu_pd(bp.add(i + 2)));
            let m2 = _mm_mul_pd(_mm_loadu_pd(ap.add(i + 4)), _mm_loadu_pd(bp.add(i + 4)));
            let m3 = _mm_mul_pd(_mm_loadu_pd(ap.add(i + 6)), _mm_loadu_pd(bp.add(i + 6)));
            acc0 = _mm_add_pd(acc0, m0);
            acc1 = _mm_add_pd(acc1, m1);
            acc2 = _mm_add_pd(acc2, m2);
            acc3 = _mm_add_pd(acc3, m3);
        }
        i += 8;
    }
    let acc = _mm_add_pd(_mm_add_pd(acc0, acc1), _mm_add_pd(acc2, acc3));
    let mut lanes = [0.0f64; 2];
    // SAFETY: `lanes` is a 2-element f64 array.
    unsafe { _mm_storeu_pd(lanes.as_mut_ptr(), acc) };
    let mut sum = lanes[0] + lanes[1];
    for k in i..n {
        sum += a[k] * b[k];
    }
    sum
}

/// Eq. 1's lag loop on the best kernel the host supports.
pub(crate) fn eq1_lags() -> LagLoop {
    eq1_lags_avx2().unwrap_or(normalize::lags_portable)
}

/// Eq. 1's four-lane AVX2 lag loop, if the host has AVX2.
pub(crate) fn eq1_lags_avx2() -> Option<LagLoop> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the loop is handed out only on a host reporting AVX2.
        return Some(|raw, moments, src, out| unsafe { lags_avx2(raw, moments, src, out) });
    }
    None
}

/// The AVX2 lag loop: [`normalize::lags_portable`] four lags per block.
///
/// Each block's `S` and `Q` come from the cursors' block evaluation
/// (`s + v·(part + k)` per lane inside one run or gap, tick by tick
/// otherwise) and the rest of `Source::coefficient` runs lane-wise in its
/// own order: `ey = max(q − s·s/n, 0)`, `num = r − x̄·s`,
/// `den = √(Eₓ·ey)`, `num/den` clamped by `max(−1)` then `min(1)` —
/// operands ordered so a NaN passes through as `f64::clamp` lets it — and
/// `+0.0` wherever `den > EPS_ENERGY` fails. The moments are summed lane by
/// lane in lag order; the lags after the last whole block take the scalar
/// path.
///
/// # Safety
///
/// The host CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lags_avx2(
    raw: &[f64],
    mut moments: WindowMoments<'_>,
    src: Source,
    out: &mut Vec<f64>,
) -> Moments {
    use core::arch::x86_64::*;
    let n = _mm256_set1_pd(src.n);
    let mean = _mm256_set1_pd(src.mean);
    let energy = _mm256_set1_pd(src.energy);
    let eps = _mm256_set1_pd(EPS_ENERGY);
    let (zero, one, minus_one) = (
        _mm256_setzero_pd(),
        _mm256_set1_pd(1.0),
        _mm256_set1_pd(-1.0),
    );
    let mut m = Moments::default();
    let blocks = raw.chunks_exact(4);
    let tail = blocks.remainder();
    let mut d = 0u64;
    for r in blocks {
        let ((s_lo, q_lo), (s_hi, q_hi)) = moments.edges4(d);
        // SAFETY: every load reads a 4-element array or a 4-element chunk.
        let (s_lo, q_lo, s_hi, q_hi, r) = unsafe {
            (
                _mm256_loadu_pd(s_lo.as_ptr()),
                _mm256_loadu_pd(q_lo.as_ptr()),
                _mm256_loadu_pd(s_hi.as_ptr()),
                _mm256_loadu_pd(q_hi.as_ptr()),
                _mm256_loadu_pd(r.as_ptr()),
            )
        };
        let s = _mm256_sub_pd(s_hi, s_lo);
        let q = _mm256_sub_pd(q_hi, q_lo);
        // MAXPD returns its second operand when either is NaN: `zero` here,
        // as `f64::max` does.
        let ey = _mm256_max_pd(
            _mm256_sub_pd(q, _mm256_div_pd(_mm256_mul_pd(s, s), n)),
            zero,
        );
        let num = _mm256_sub_pd(r, _mm256_mul_pd(mean, s));
        let den = _mm256_sqrt_pd(_mm256_mul_pd(energy, ey));
        let rho = _mm256_min_pd(one, _mm256_max_pd(minus_one, _mm256_div_pd(num, den)));
        let rho = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(den, eps), rho);
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is a 4-element f64 array.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), rho) };
        for v in lanes {
            m.add(v);
        }
        out.extend_from_slice(&lanes);
        d += 4;
    }
    for &r in tail {
        let (s, q) = moments.at(d);
        let v = src.coefficient(r, s, q);
        m.add(v);
        out.push(v);
        d += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strict left-to-right reference.
    fn dot_naive(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn signal(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    2 => (state % 7) as f64,
                    _ => ((state % 100) as f64).sqrt(),
                }
            })
            .collect()
    }

    #[test]
    fn matches_naive_at_every_length() {
        // Sweep all remainder classes of both the 16-wide and 4-wide loops.
        for len in 0..70 {
            let a = signal(len, 3);
            let b = signal(len, 11);
            let want = dot_naive(&a, &b);
            let got = dot(&a, &b);
            let tol = 1e-12 * want.abs().max(1.0);
            assert!((got - want).abs() < tol, "len={len}: {got} vs {want}");
            let unrolled = dot_unrolled(&a, &b);
            assert!((unrolled - want).abs() < tol, "unrolled len={len}");
        }
    }

    #[test]
    fn exact_on_integer_values() {
        // Integer products and sums below 2^53 are exact under every
        // association order, so all kernels must agree bitwise.
        for len in [0, 1, 5, 16, 33, 64, 100] {
            let a: Vec<f64> = (0..len).map(|i| ((i * 7 + 3) % 5) as f64).collect();
            let b: Vec<f64> = (0..len).map(|i| ((i * 11 + 1) % 4) as f64).collect();
            assert_eq!(dot(&a, &b), dot_naive(&a, &b), "len={len}");
            assert_eq!(dot_unrolled(&a, &b), dot_naive(&a, &b), "len={len}");
        }
    }

    #[test]
    fn uses_shorter_slice() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 10.0];
        assert_eq!(dot(&a, &b), 30.0);
        assert_eq!(dot(&b, &a), 30.0);
    }
}
