//! SIMD kernels for the numeric hot loops, behind runtime dispatch.
//!
//! Every primitive here has two shapes with **bit-identical** results:
//!
//! * a chunked scalar loop (auto-vectorizable stable Rust) that is always
//!   compiled and serves as the oracle, and
//! * an explicit AVX2 `core::arch` variant for `f64` on `x86_64`, compiled
//!   behind the `simd` cargo feature and selected at runtime via
//!   `is_x86_feature_detected!("avx2")`.
//!
//! Bit-identity holds because neither primitive reorders a floating-point
//! reduction: the gather is permutation-free, and the register-tiled
//! `csrmm` kernel keeps each output element's additions in the exact
//! `j`-order of the serial reference, starting from `T::ZERO`.
//!
//! The active level can be forced (`set_forced`) so perf probes and the
//! equivalence suite can pin scalar-vs-vector runs against each other, and
//! the `SPMM_SIMD` environment variable (`scalar`/`off`/`0`) disables the
//! vector path process-wide for CI's scalar-fallback leg.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::{ColIndex, DenseMatrix, Scalar};

/// Instruction-set level a primitive may run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Chunked scalar loops only (the oracle shape).
    Scalar,
    /// 256-bit AVX2 gathers / multiplies for `f64` lanes.
    Avx2,
}

/// `FORCED` encoding: 0 = auto-detect, 1 = force scalar, 2 = force AVX2
/// (downgraded to scalar when the CPU lacks it — we never fabricate lanes).
static FORCED: AtomicU8 = AtomicU8::new(0);
static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

fn detect() -> SimdLevel {
    if matches!(
        std::env::var("SPMM_SIMD").as_deref(),
        Ok("0") | Ok("off") | Ok("scalar")
    ) {
        return SimdLevel::Scalar;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

fn hardware_level() -> SimdLevel {
    *DETECTED.get_or_init(detect)
}

/// The level the dispatched primitives will use right now.
#[inline]
pub fn level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => match hardware_level() {
            SimdLevel::Avx2 => SimdLevel::Avx2,
            SimdLevel::Scalar => SimdLevel::Scalar,
        },
        _ => hardware_level(),
    }
}

/// Force a dispatch level process-wide (`None` restores auto-detection).
///
/// Because every dispatched primitive is bit-identical across levels, a
/// concurrent flip mid-run only changes timing, never output — tests that
/// compare levels still serialize with a lock to time what they think they
/// are timing.
pub fn set_forced(level: Option<SimdLevel>) {
    let code = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Avx2) => 2,
    };
    FORCED.store(code, Ordering::Relaxed);
}

/// True when [`level`] currently resolves to an actual vector path.
#[inline]
pub fn vectorized() -> bool {
    level() == SimdLevel::Avx2
}

// ---------------------------------------------------------------------------
// Type-dispatch plumbing: the engine is generic over `Scalar`, the intrinsics
// are not. `Scalar: 'static` lets us down-cast slices by `TypeId` with no
// runtime cost beyond one comparison that the optimizer folds per
// monomorphization.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod cast {
    use std::any::TypeId;

    #[inline]
    pub fn slice<T: 'static, U: 'static>(s: &[T]) -> Option<&[U]> {
        if TypeId::of::<T>() == TypeId::of::<U>() {
            // SAFETY: T and U are the same type, so layout and validity match.
            Some(unsafe { std::slice::from_raw_parts(s.as_ptr() as *const U, s.len()) })
        } else {
            None
        }
    }

    #[inline]
    pub fn slice_mut<T: 'static, U: 'static>(s: &mut [T]) -> Option<&mut [U]> {
        if TypeId::of::<T>() == TypeId::of::<U>() {
            // SAFETY: T and U are the same type, so layout and validity match.
            Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut U, s.len()) })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Public primitives. Each dispatches once per *call* (not per element), so
// the branch is amortized over the whole row / tile.

/// SoA gather: `out_cols[i] = idx[i]; out_vals[i] = table[idx[i]]`.
///
/// This is the SPA drain after the touched list is sorted — a memcpy of the
/// column keys plus a value gather, instead of the old interleaved
/// `(col, value)` walk. All three output-producing slices must have
/// `idx.len()` elements; every index must be in bounds for `table`.
#[inline]
pub fn gather_into<T: Scalar>(
    idx: &[ColIndex],
    table: &[T],
    out_cols: &mut [ColIndex],
    out_vals: &mut [T],
) {
    assert_eq!(idx.len(), out_cols.len(), "gather_into: cols length");
    assert_eq!(idx.len(), out_vals.len(), "gather_into: vals length");
    out_cols.copy_from_slice(idx);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level() == SimdLevel::Avx2 {
        if let (Some(table), Some(out)) = (cast::slice::<T, f64>(table), cast::slice_mut(out_vals))
        {
            // SAFETY: AVX2 verified by `level()`; indices bounds-checked by
            // the scalar contract (debug) and by construction (cols < ncols).
            unsafe { avx2::gather_f64(idx, table, out) };
            return;
        }
    }
    gather_scalar(idx, table, out_vals);
}

/// Gather values only: `out_vals[i] = table[idx[i]]`.
#[inline]
fn gather_scalar<T: Scalar>(idx: &[ColIndex], table: &[T], out_vals: &mut [T]) {
    // Chunked by 4 for ILP; the tail runs per element. The loads are
    // data-dependent (a true gather) so scalar code can't fuse them, but
    // splitting the chains lets the core overlap the four cache misses.
    let n = idx.len();
    let whole = n & !3;
    let mut i = 0;
    while i < whole {
        let v0 = table[idx[i] as usize];
        let v1 = table[idx[i + 1] as usize];
        let v2 = table[idx[i + 2] as usize];
        let v3 = table[idx[i + 3] as usize];
        out_vals[i] = v0;
        out_vals[i + 1] = v1;
        out_vals[i + 2] = v2;
        out_vals[i + 3] = v3;
        i += 4;
    }
    while i < n {
        out_vals[i] = table[idx[i] as usize];
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Register-tiled sparse × dense (csrmm) row kernels.

/// Dense B-columns processed per A-row sweep by the tiled kernels. Eight
/// f64 lanes = two 256-bit registers live across the whole sparse row.
pub const CSRMM_TILE: usize = 8;

/// Register-tiled `C[row] = Σ_j a_j * B[j]` over one sparse A-row.
///
/// Loop-interchanged: for each tile of [`CSRMM_TILE`] output columns the
/// sparse row is swept once with the tile's partial sums held in registers,
/// so B traffic is sequential within a tile and C is written exactly once.
/// Each output element still accumulates in ascending-`j` order starting
/// from `T::ZERO` — **bit-identical** to [`crate::reference::csrmm`].
///
/// `out` must be `b.ncols()` long; its prior contents are overwritten.
#[inline]
pub fn csrmm_row_into<T: Scalar>(
    acols: &[ColIndex],
    avals: &[T],
    b: &DenseMatrix<T>,
    out: &mut [T],
) {
    let ncols = b.ncols();
    assert_eq!(out.len(), ncols, "csrmm_row_into: output width");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level() == SimdLevel::Avx2 {
        if let (Some(avals), Some(bdata), Some(out)) = (
            cast::slice::<T, f64>(avals),
            cast::slice(b.data()),
            cast::slice_mut(out),
        ) {
            // SAFETY: AVX2 verified by `level()`; acols index valid B rows.
            unsafe { avx2::csrmm_row_f64(acols, avals, bdata, ncols, out) };
            return;
        }
    }
    csrmm_row_scalar(acols, avals, b.data(), ncols, out);
}

fn csrmm_row_scalar<T: Scalar>(
    acols: &[ColIndex],
    avals: &[T],
    bdata: &[T],
    ncols: usize,
    out: &mut [T],
) {
    let mut c0 = 0;
    while c0 + CSRMM_TILE <= ncols {
        let mut acc = [T::ZERO; CSRMM_TILE];
        for (&j, &aij) in acols.iter().zip(avals) {
            let brow = &bdata[j as usize * ncols + c0..][..CSRMM_TILE];
            for (a, &bv) in acc.iter_mut().zip(brow) {
                *a += aij * bv;
            }
        }
        out[c0..c0 + CSRMM_TILE].copy_from_slice(&acc);
        c0 += CSRMM_TILE;
    }
    // Remainder columns: same per-element j-order accumulation.
    for (c, o) in out.iter_mut().enumerate().skip(c0) {
        let mut acc = T::ZERO;
        for (&j, &aij) in acols.iter().zip(avals) {
            acc += aij * bdata[j as usize * ncols + c];
        }
        *o = acc;
    }
}

// ---------------------------------------------------------------------------
// AVX2 variants (f64). Compiled only with the `simd` feature on x86_64;
// every entry point is `#[target_feature(enable = "avx2")]` and reached
// solely through `level() == Avx2`, which implies runtime support.
//
// No FMA anywhere: `_mm256_fmadd_pd` rounds once where `mul` + `add` round
// twice, which would break bit-identity with the scalar oracle.

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use core::arch::x86_64::*;

    use crate::ColIndex;

    /// # Safety
    /// AVX2 must be available; every `idx` entry must be `< table.len()`
    /// and `< i32::MAX` (ColIndex is u32; matrices are far below 2^31).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_f64(idx: &[ColIndex], table: &[f64], out: &mut [f64]) {
        debug_assert!(idx.iter().all(|&i| (i as usize) < table.len()));
        let n = idx.len();
        let whole = n & !3;
        let mut i = 0;
        while i < whole {
            let vindex = _mm_loadu_si128(idx.as_ptr().add(i) as *const __m128i);
            let g = _mm256_i32gather_pd::<8>(table.as_ptr(), vindex);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), g);
            i += 4;
        }
        while i < n {
            *out.get_unchecked_mut(i) = *table.get_unchecked(*idx.get_unchecked(i) as usize);
            i += 1;
        }
    }

    /// Register-tiled csrmm row: two `__m256d` accumulators live across the
    /// whole sparse row per 8-column tile. mul + add (not fmadd) keeps each
    /// element's rounding identical to the scalar reference.
    ///
    /// # Safety
    /// AVX2 must be available; every `acols` entry must be a valid row of
    /// the `ncols`-wide row-major `bdata`; `out.len() == ncols` (checked by
    /// the dispatching wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn csrmm_row_f64(
        acols: &[ColIndex],
        avals: &[f64],
        bdata: &[f64],
        ncols: usize,
        out: &mut [f64],
    ) {
        let mut c0 = 0;
        while c0 + 8 <= ncols {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for (k, &j) in acols.iter().enumerate() {
                let s = _mm256_set1_pd(*avals.get_unchecked(k));
                let bp = bdata.as_ptr().add(j as usize * ncols + c0);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(s, _mm256_loadu_pd(bp)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(s, _mm256_loadu_pd(bp.add(4))));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(c0), acc0);
            _mm256_storeu_pd(out.as_mut_ptr().add(c0 + 4), acc1);
            c0 += 8;
        }
        for c in c0..ncols {
            let mut acc = 0.0f64;
            for (k, &j) in acols.iter().enumerate() {
                acc += *avals.get_unchecked(k) * *bdata.get_unchecked(j as usize * ncols + c);
            }
            *out.get_unchecked_mut(c) = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the forced level so each one times /
    /// exercises the level it set (outputs are level-independent anyway).
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    fn with_level<R>(l: SimdLevel, f: impl FnOnce() -> R) -> R {
        let _g = LEVEL_LOCK.lock().unwrap();
        set_forced(Some(l));
        let r = f();
        set_forced(None);
        r
    }

    fn vals(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                (x % 2000) as f64 / 7.0 - 140.0
            })
            .collect()
    }

    #[test]
    fn gather_levels_bit_identical() {
        let table = vals(257, 1);
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 64] {
            let idx: Vec<ColIndex> = (0..n).map(|i| ((i * 37 + 11) % 257) as ColIndex).collect();
            let run = |l| {
                with_level(l, || {
                    let mut oc = vec![0 as ColIndex; n];
                    let mut ov = vec![0.0f64; n];
                    gather_into(&idx, &table, &mut oc, &mut ov);
                    (oc, ov)
                })
            };
            let (sc, sv) = run(SimdLevel::Scalar);
            let (vc, vv) = run(SimdLevel::Avx2);
            assert_eq!(sc, vc);
            assert_eq!(
                sv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                vv.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(sv[k].to_bits(), table[i as usize].to_bits());
            }
        }
    }

    #[test]
    fn csrmm_row_matches_reference_bitwise() {
        // Widths straddling the 8-column tile, rows with nnz 0..=9 to cover
        // every remainder-lane count.
        for ncols in [1usize, 4, 7, 8, 9, 15, 16, 19] {
            let b = DenseMatrix::from_row_major(10, ncols, vals(10 * ncols, 4));
            for nnz in 0..=9usize {
                let acols: Vec<ColIndex> =
                    (0..nnz).map(|k| ((k * 3 + 1) % 10) as ColIndex).collect();
                let avals = vals(nnz, 5);
                let reference: Vec<f64> = (0..ncols)
                    .map(|c| {
                        let mut acc = 0.0f64;
                        for (&j, &aij) in acols.iter().zip(&avals) {
                            acc += aij * b.get(j as usize, c);
                        }
                        acc
                    })
                    .collect();
                for l in [SimdLevel::Scalar, SimdLevel::Avx2] {
                    let out = with_level(l, || {
                        let mut out = vec![f64::NAN; ncols];
                        csrmm_row_into(&acols, &avals, &b, &mut out);
                        out
                    });
                    assert_eq!(
                        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "ncols={ncols} nnz={nnz} level={l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_level_roundtrip() {
        let _g = LEVEL_LOCK.lock().unwrap();
        set_forced(Some(SimdLevel::Scalar));
        assert_eq!(level(), SimdLevel::Scalar);
        set_forced(None);
        let auto = level();
        set_forced(Some(SimdLevel::Avx2));
        // Forcing AVX2 never fabricates lanes the CPU lacks: the result is
        // whatever the hardware actually supports, i.e. the auto level.
        assert_eq!(level(), auto);
        set_forced(None);
    }
}
