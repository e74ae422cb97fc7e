//! Runtime-dispatched lane kernels behind [`crate::exec::KernelMode::Simd`].
//!
//! Every kernel here computes in **4-wide logical f64 lanes** with fused
//! multiply-add, independent of the instruction set that executes it:
//!
//! * **AVX2 + FMA** (x86_64): one `__m256d` per logical lane group;
//! * **NEON** (aarch64): two `float64x2_t` registers per group, holding
//!   lanes `0..2` and `2..4`;
//! * **portable fallback**: a `[f64; 4]` lane struct driven by
//!   `f64::mul_add`.
//!
//! ## The lane-determinism contract
//!
//! Reductions split their input into lanes by position (`lane l` owns
//! indices `4t + l`), fold the four lane partials as
//! `(l0 + l1) + (l2 + l3)`, then absorb the tail (`len % 4` elements)
//! one `mul_add` at a time in ascending order. The kernels are the
//! reductions [`dot1`] and [`dot_block`] and the elementwise [`axpy`]
//! and [`fma_panel4`]; the elementwise ones perform exactly one
//! correctly-rounded `mul_add` per contribution, applied in ascending
//! reduction-index order, and never reassociate. Because every backend
//! implements this same schedule with the same IEEE-754 fused ops, a
//! kernel's output is **bitwise identical across backends, runs, and
//! thread counts** — that is the `Simd`-mode determinism contract,
//! asserted by the unit tests below and the `exec_determinism`
//! integration tests. What `Simd` mode does *not* promise is bitwise
//! equality with the `Scalar` oracle: lane-splitting reassociates dot
//! products and `mul_add` rounds once where `a * b + c` rounds twice
//! (proptests pin the two modes to 1e-10 relative agreement, and exact
//! equality on power-of-two-friendly inputs where every operation is
//! exact).
//!
//! Backend selection runs once per process ([`backend`]) and honors
//! `KR_SIMD_BACKEND=portable` so CI exercises the fallback on AVX2
//! hardware. The raw `.fold`-style lane reductions in this file are the
//! one sanctioned exception to the `float-fold` lint (see the
//! `lane_fold` carve-out in `verify.toml`): the schedule above is fixed,
//! so the fold order cannot silently drift.

use std::sync::OnceLock;

/// Instruction set the lane kernels dispatch to (detected once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// x86_64 AVX2 + FMA intrinsics (f64×4 registers).
    Avx2Fma,
    /// aarch64 NEON intrinsics (two f64×2 registers per lane group).
    Neon,
    /// `[f64; 4]` lane struct with `f64::mul_add`; correct everywhere,
    /// fast only where the compiler lowers `mul_add` to a fused op.
    Portable,
}

impl Backend {
    /// Stable lowercase name (used by benches and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2Fma => "avx2+fma",
            Backend::Neon => "neon",
            Backend::Portable => "portable",
        }
    }
}

/// The backend every `Simd`-mode kernel dispatches to, detected once per
/// process and cached.
///
/// `KR_SIMD_BACKEND=portable` forces the fallback (CI uses this to
/// exercise the portable path on AVX2 runners); `auto`, empty, or unset
/// detects. Any other value panics — a typo here must not silently
/// change which kernels run.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| match std::env::var("KR_SIMD_BACKEND") {
        Ok(v) if v.eq_ignore_ascii_case("portable") => Backend::Portable,
        Ok(v) if v.is_empty() || v.eq_ignore_ascii_case("auto") => detect(),
        Ok(v) => panic!("KR_SIMD_BACKEND must be `portable` or `auto`, got `{v}`"),
        Err(_) => detect(),
    })
}

/// One-shot hardware probe behind [`backend`]'s cache.
fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    fn arch() -> Backend {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            Backend::Avx2Fma
        } else {
            Backend::Portable
        }
    }
    #[cfg(target_arch = "aarch64")]
    fn arch() -> Backend {
        Backend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn arch() -> Backend {
        Backend::Portable
    }
    arch()
}

/// `out[j] = alpha.mul_add(x[j], out[j])` over `min(out.len, x.len)`
/// elements. Elementwise (no reassociation); one fused rounding per
/// element.
#[inline]
pub fn axpy(out: &mut [f64], alpha: f64, x: &[f64]) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend()` returns `Avx2Fma` only after runtime
        // detection of both `avx2` and `fma` on this CPU.
        Backend::Avx2Fma => unsafe { avx2::axpy(out, alpha, x) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        Backend::Neon => unsafe { neon::axpy(out, alpha, x) },
        _ => portable::axpy(out, alpha, x),
    }
}

/// Whole-panel register tile: for each output row `i` in `0..4`,
/// `r_i[j] += Σ_p a[i][p] * panel[p * jw + j]` with one fused `mul_add`
/// per contribution in **ascending `p` order** — bitwise identical to
/// one [`axpy`] per row and `p`, but the accumulators stay in registers
/// across the whole `p` loop instead of the output rows being re-walked
/// through memory once per `p`. This is what makes the `Simd` matmul
/// compute-bound rather than L1-traffic-bound.
///
/// `jw = r_i.len()` (all four rows equal), `pw = a[i].len()` (all four
/// equal), and `panel` must hold at least `pw * jw` elements laid out
/// row-major with stride `jw`.
#[inline]
pub fn fma_panel4(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    a: [&[f64]; 4],
    panel: &[f64],
) {
    let jw = r0.len();
    let pw = a[0].len();
    // Real asserts, not debug: these three bounds are what make every
    // raw-pointer offset in the intrinsic backends in-bounds, so a safe
    // caller must not be able to skip them in release builds.
    assert!(r1.len() == jw && r2.len() == jw && r3.len() == jw);
    assert!(a[1].len() == pw && a[2].len() == pw && a[3].len() == pw);
    assert!(panel.len() >= pw.checked_mul(jw).expect("pw * jw overflows usize"));
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend()` returns `Avx2Fma` only after runtime
        // detection of both `avx2` and `fma` on this CPU.
        Backend::Avx2Fma => unsafe { avx2::fma_panel4(r0, r1, r2, r3, a, panel, jw, pw) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        Backend::Neon => unsafe { neon::fma_panel4(r0, r1, r2, r3, a, panel, jw, pw) },
        _ => portable::fma_panel4(r0, r1, r2, r3, a, panel, jw, pw),
    }
}

/// Lane-parallel dot product of two equal-length slices under the
/// contract in the module docs: positional 4-lane split, fused
/// accumulate, `(l0 + l1) + (l2 + l3)` fold, ascending `mul_add` tail.
#[inline]
pub fn dot1(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend()` returns `Avx2Fma` only after runtime
        // detection of both `avx2` and `fma` on this CPU.
        Backend::Avx2Fma => unsafe { avx2::dot1(x, y) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        Backend::Neon => unsafe { neon::dot1(x, y) },
        _ => portable::dot1(x, y),
    }
}

/// Writes `out[j] = dot1(x, row jb + j of y)` for a row-major
/// `(rows × d)` buffer `y`, four rows at a time so each lane load of `x`
/// feeds four accumulators. Every output is bitwise identical to a
/// standalone [`dot1`] call on that row.
#[inline]
pub fn dot_block(x: &[f64], y: &[f64], d: usize, jb: usize, out: &mut [f64]) {
    // Real asserts, not debug: the intrinsic backends load `x` up to
    // index `d` and rows of `y` by raw offset, so these must hold in
    // release builds too.
    assert_eq!(x.len(), d);
    assert!(
        (jb + out.len())
            .checked_mul(d)
            .is_some_and(|end| end <= y.len()),
        "dot_block: rows jb..jb+out.len() must exist in y"
    );
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend()` returns `Avx2Fma` only after runtime
        // detection of both `avx2` and `fma` on this CPU.
        Backend::Avx2Fma => unsafe { avx2::dot_block(x, y, d, jb, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        Backend::Neon => unsafe { neon::dot_block(x, y, d, jb, out) },
        _ => portable::dot_block(x, y, d, jb, out),
    }
}

/// Shared epilogue of every lane dot product: folds the four lane
/// partials in the contract's fixed order, then absorbs the tail
/// (elements from `start` up) one ascending `mul_add` at a time. Scalar
/// code, so all backends share it by construction.
#[inline]
fn finish_dot(lanes: [f64; 4], x: &[f64], y: &[f64], start: usize) -> f64 {
    let acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    // In-order serial fold over the tail — the fixed ascending order is
    // the contract (verify.toml carves this module out of `float-fold`
    // via `lane_fold` for exactly this pattern).
    x[start..]
        .iter()
        .zip(&y[start..])
        .fold(acc, |acc, (&a, &b)| a.mul_add(b, acc))
}

/// `[f64; 4]` lane-struct fallback. Same schedule as the intrinsic
/// backends; `f64::mul_add` keeps the fused rounding (lowered to a
/// hardware FMA where one exists, software-emulated — slow but
/// bit-identical — where not).
mod portable {
    use super::finish_dot;

    pub(super) fn axpy(out: &mut [f64], alpha: f64, x: &[f64]) {
        let n = out.len().min(x.len());
        let (out, x) = (&mut out[..n], &x[..n]);
        for (o, &v) in out.iter_mut().zip(x) {
            *o = alpha.mul_add(v, *o);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn fma_panel4(
        r0: &mut [f64],
        r1: &mut [f64],
        r2: &mut [f64],
        r3: &mut [f64],
        a: [&[f64]; 4],
        panel: &[f64],
        jw: usize,
        pw: usize,
    ) {
        let mut j = 0;
        // 4-column blocks: 4x4 accumulator tile held in locals across
        // the whole `p` loop (the compiler keeps it in registers).
        while j + 4 <= jw {
            let mut acc = [[0.0f64; 4]; 4];
            for (r, row) in acc.iter_mut().enumerate() {
                let src = match r {
                    0 => &r0[j..j + 4],
                    1 => &r1[j..j + 4],
                    2 => &r2[j..j + 4],
                    _ => &r3[j..j + 4],
                };
                row.copy_from_slice(src);
            }
            for pp in 0..pw {
                let b = &panel[pp * jw + j..pp * jw + j + 4];
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = a[r][pp];
                    for l in 0..4 {
                        row[l] = av.mul_add(b[l], row[l]);
                    }
                }
            }
            r0[j..j + 4].copy_from_slice(&acc[0]);
            r1[j..j + 4].copy_from_slice(&acc[1]);
            r2[j..j + 4].copy_from_slice(&acc[2]);
            r3[j..j + 4].copy_from_slice(&acc[3]);
            j += 4;
        }
        // Column tail: per-element ascending-`p` chain, same order as
        // the blocked path.
        while j < jw {
            let mut acc = [r0[j], r1[j], r2[j], r3[j]];
            for pp in 0..pw {
                let bv = panel[pp * jw + j];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot = a[r][pp].mul_add(bv, *slot);
                }
            }
            r0[j] = acc[0];
            r1[j] = acc[1];
            r2[j] = acc[2];
            r3[j] = acc[3];
            j += 1;
        }
    }

    pub(super) fn dot1(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let mut lanes = [0.0f64; 4];
        let mut i = 0;
        while i + 4 <= n {
            for l in 0..4 {
                lanes[l] = x[i + l].mul_add(y[i + l], lanes[l]);
            }
            i += 4;
        }
        finish_dot(lanes, &x[..n], &y[..n], i)
    }

    pub(super) fn dot_block(x: &[f64], y: &[f64], d: usize, jb: usize, out: &mut [f64]) {
        let jw = out.len();
        let mut j = 0;
        while j + 4 <= jw {
            let base = (jb + j) * d;
            let y0 = &y[base..base + d];
            let y1 = &y[base + d..base + 2 * d];
            let y2 = &y[base + 2 * d..base + 3 * d];
            let y3 = &y[base + 3 * d..base + 4 * d];
            let mut lanes = [[0.0f64; 4]; 4];
            let mut i = 0;
            while i + 4 <= d {
                for l in 0..4 {
                    let xv = x[i + l];
                    lanes[0][l] = xv.mul_add(y0[i + l], lanes[0][l]);
                    lanes[1][l] = xv.mul_add(y1[i + l], lanes[1][l]);
                    lanes[2][l] = xv.mul_add(y2[i + l], lanes[2][l]);
                    lanes[3][l] = xv.mul_add(y3[i + l], lanes[3][l]);
                }
                i += 4;
            }
            out[j] = finish_dot(lanes[0], x, y0, i);
            out[j + 1] = finish_dot(lanes[1], x, y1, i);
            out[j + 2] = finish_dot(lanes[2], x, y2, i);
            out[j + 3] = finish_dot(lanes[3], x, y3, i);
            j += 4;
        }
        while j < jw {
            let base = (jb + j) * d;
            out[j] = dot1(x, &y[base..base + d]);
            j += 1;
        }
    }
}

/// AVX2 + FMA backend: one `__m256d` per logical lane group. All
/// functions require `avx2` and `fma` to be available — guaranteed by
/// the [`super::backend`] dispatch.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::finish_dot;
    use core::arch::x86_64::{
        __m256d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };

    /// Spills a vector register into a lane array for the shared scalar
    /// epilogue.
    #[inline(always)]
    fn spill(v: __m256d) -> [f64; 4] {
        let mut t = [0.0f64; 4];
        // SAFETY: `t` is 4 f64s long, exactly what `_mm256_storeu_pd`
        // writes; unaligned stores have no alignment requirement. The
        // intrinsic itself needs AVX, which every caller in this module
        // has (they are all `target_feature(avx2)` functions reached
        // only via the detected-backend dispatch).
        unsafe { _mm256_storeu_pd(t.as_mut_ptr(), v) };
        t
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    // SAFETY: callers must have verified `avx2` and `fma` at
    // runtime (the `backend()` dispatch does). Slice accesses below stay
    // in bounds: lane loops stop at `len - 4` and tails are scalar.
    pub(super) unsafe fn axpy(out: &mut [f64], alpha: f64, x: &[f64]) {
        let n = out.len().min(x.len());
        let va = _mm256_set1_pd(alpha);
        let mut j = 0;
        while j + 4 <= n {
            let vx = _mm256_loadu_pd(x.as_ptr().add(j));
            let vo = _mm256_loadu_pd(out.as_ptr().add(j));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_fmadd_pd(va, vx, vo));
            j += 4;
        }
        while j < n {
            out[j] = alpha.mul_add(x[j], out[j]);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: as for `axpy` above; additionally the dispatching wrapper
    // asserts `jw = r_i.len()`, `pw = a[i].len()`, and
    // `panel.len() >= pw * jw`, which bound every pointer offset below.
    pub(super) unsafe fn fma_panel4(
        r0: &mut [f64],
        r1: &mut [f64],
        r2: &mut [f64],
        r3: &mut [f64],
        a: [&[f64]; 4],
        panel: &[f64],
        jw: usize,
        pw: usize,
    ) {
        let mut j = 0;
        // 4 rows x 8 columns: eight YMM accumulators stay resident
        // across the whole `p` loop; each iteration loads two B vectors
        // and broadcasts four A scalars, so the loop is FMA-bound
        // (8 independent chains keep both FMA ports busy) instead of
        // bound on re-walking the output rows per `p`.
        while j + 8 <= jw {
            let mut c00 = _mm256_loadu_pd(r0.as_ptr().add(j));
            let mut c01 = _mm256_loadu_pd(r0.as_ptr().add(j + 4));
            let mut c10 = _mm256_loadu_pd(r1.as_ptr().add(j));
            let mut c11 = _mm256_loadu_pd(r1.as_ptr().add(j + 4));
            let mut c20 = _mm256_loadu_pd(r2.as_ptr().add(j));
            let mut c21 = _mm256_loadu_pd(r2.as_ptr().add(j + 4));
            let mut c30 = _mm256_loadu_pd(r3.as_ptr().add(j));
            let mut c31 = _mm256_loadu_pd(r3.as_ptr().add(j + 4));
            for pp in 0..pw {
                let b0 = _mm256_loadu_pd(panel.as_ptr().add(pp * jw + j));
                let b1 = _mm256_loadu_pd(panel.as_ptr().add(pp * jw + j + 4));
                let va = _mm256_set1_pd(*a[0].get_unchecked(pp));
                c00 = _mm256_fmadd_pd(va, b0, c00);
                c01 = _mm256_fmadd_pd(va, b1, c01);
                let va = _mm256_set1_pd(*a[1].get_unchecked(pp));
                c10 = _mm256_fmadd_pd(va, b0, c10);
                c11 = _mm256_fmadd_pd(va, b1, c11);
                let va = _mm256_set1_pd(*a[2].get_unchecked(pp));
                c20 = _mm256_fmadd_pd(va, b0, c20);
                c21 = _mm256_fmadd_pd(va, b1, c21);
                let va = _mm256_set1_pd(*a[3].get_unchecked(pp));
                c30 = _mm256_fmadd_pd(va, b0, c30);
                c31 = _mm256_fmadd_pd(va, b1, c31);
            }
            _mm256_storeu_pd(r0.as_mut_ptr().add(j), c00);
            _mm256_storeu_pd(r0.as_mut_ptr().add(j + 4), c01);
            _mm256_storeu_pd(r1.as_mut_ptr().add(j), c10);
            _mm256_storeu_pd(r1.as_mut_ptr().add(j + 4), c11);
            _mm256_storeu_pd(r2.as_mut_ptr().add(j), c20);
            _mm256_storeu_pd(r2.as_mut_ptr().add(j + 4), c21);
            _mm256_storeu_pd(r3.as_mut_ptr().add(j), c30);
            _mm256_storeu_pd(r3.as_mut_ptr().add(j + 4), c31);
            j += 8;
        }
        // One 4-column vector block if it still fits.
        if j + 4 <= jw {
            let mut c0 = _mm256_loadu_pd(r0.as_ptr().add(j));
            let mut c1 = _mm256_loadu_pd(r1.as_ptr().add(j));
            let mut c2 = _mm256_loadu_pd(r2.as_ptr().add(j));
            let mut c3 = _mm256_loadu_pd(r3.as_ptr().add(j));
            for pp in 0..pw {
                let b0 = _mm256_loadu_pd(panel.as_ptr().add(pp * jw + j));
                c0 = _mm256_fmadd_pd(_mm256_set1_pd(*a[0].get_unchecked(pp)), b0, c0);
                c1 = _mm256_fmadd_pd(_mm256_set1_pd(*a[1].get_unchecked(pp)), b0, c1);
                c2 = _mm256_fmadd_pd(_mm256_set1_pd(*a[2].get_unchecked(pp)), b0, c2);
                c3 = _mm256_fmadd_pd(_mm256_set1_pd(*a[3].get_unchecked(pp)), b0, c3);
            }
            _mm256_storeu_pd(r0.as_mut_ptr().add(j), c0);
            _mm256_storeu_pd(r1.as_mut_ptr().add(j), c1);
            _mm256_storeu_pd(r2.as_mut_ptr().add(j), c2);
            _mm256_storeu_pd(r3.as_mut_ptr().add(j), c3);
            j += 4;
        }
        // Scalar column tail: per-element ascending-`p` fused chain —
        // the same order as the vector blocks, just one lane wide.
        while j < jw {
            let mut acc = [r0[j], r1[j], r2[j], r3[j]];
            for pp in 0..pw {
                let bv = panel[pp * jw + j];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot = a[r][pp].mul_add(bv, *slot);
                }
            }
            r0[j] = acc[0];
            r1[j] = acc[1];
            r2[j] = acc[2];
            r3[j] = acc[3];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    // SAFETY: as for `axpy` above; `x` and `y` need not be
    // equal-length (the shorter bound is used).
    pub(super) unsafe fn dot1(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            let vx = _mm256_loadu_pd(x.as_ptr().add(i));
            let vy = _mm256_loadu_pd(y.as_ptr().add(i));
            acc = _mm256_fmadd_pd(vx, vy, acc);
            i += 4;
        }
        finish_dot(spill(acc), &x[..n], &y[..n], i)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    // SAFETY: as for `axpy` above; the dispatching wrapper
    // asserts that rows `jb..jb + out.len()` of `y` exist.
    pub(super) unsafe fn dot_block(x: &[f64], y: &[f64], d: usize, jb: usize, out: &mut [f64]) {
        let jw = out.len();
        let mut j = 0;
        while j + 4 <= jw {
            let base = (jb + j) * d;
            let y0 = &y[base..base + d];
            let y1 = &y[base + d..base + 2 * d];
            let y2 = &y[base + 2 * d..base + 3 * d];
            let y3 = &y[base + 3 * d..base + 4 * d];
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            let mut i = 0;
            while i + 4 <= d {
                let vx = _mm256_loadu_pd(x.as_ptr().add(i));
                a0 = _mm256_fmadd_pd(vx, _mm256_loadu_pd(y0.as_ptr().add(i)), a0);
                a1 = _mm256_fmadd_pd(vx, _mm256_loadu_pd(y1.as_ptr().add(i)), a1);
                a2 = _mm256_fmadd_pd(vx, _mm256_loadu_pd(y2.as_ptr().add(i)), a2);
                a3 = _mm256_fmadd_pd(vx, _mm256_loadu_pd(y3.as_ptr().add(i)), a3);
                i += 4;
            }
            out[j] = finish_dot(spill(a0), x, y0, i);
            out[j + 1] = finish_dot(spill(a1), x, y1, i);
            out[j + 2] = finish_dot(spill(a2), x, y2, i);
            out[j + 3] = finish_dot(spill(a3), x, y3, i);
            j += 4;
        }
        while j < jw {
            let base = (jb + j) * d;
            out[j] = dot1(x, &y[base..base + d]);
            j += 1;
        }
    }
}

/// NEON backend: two `float64x2_t` registers per logical 4-lane group
/// (lanes `0..2` in the low register, `2..4` in the high one), so the
/// accumulation schedule matches the other backends position-for-
/// position.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::finish_dot;
    use core::arch::aarch64::{
        float64x2_t, vdupq_n_f64, vfmaq_f64, vld1q_f64, vmovq_n_f64, vst1q_f64,
    };

    /// Spills a logical lane group (two registers) into a lane array.
    #[inline(always)]
    fn spill(lo: float64x2_t, hi: float64x2_t) -> [f64; 4] {
        let mut t = [0.0f64; 4];
        // SAFETY: `t` has room for both 2-lane stores; NEON is a
        // baseline aarch64 feature.
        unsafe {
            vst1q_f64(t.as_mut_ptr(), lo);
            vst1q_f64(t.as_mut_ptr().add(2), hi);
        }
        t
    }

    #[target_feature(enable = "neon")]
    // SAFETY: NEON is baseline on aarch64; lane loops stop at
    // `len - 4`, tails are scalar.
    pub(super) unsafe fn axpy(out: &mut [f64], alpha: f64, x: &[f64]) {
        let n = out.len().min(x.len());
        let va = vdupq_n_f64(alpha);
        let mut j = 0;
        while j + 4 <= n {
            let xlo = vld1q_f64(x.as_ptr().add(j));
            let xhi = vld1q_f64(x.as_ptr().add(j + 2));
            let olo = vld1q_f64(out.as_ptr().add(j));
            let ohi = vld1q_f64(out.as_ptr().add(j + 2));
            vst1q_f64(out.as_mut_ptr().add(j), vfmaq_f64(olo, va, xlo));
            vst1q_f64(out.as_mut_ptr().add(j + 2), vfmaq_f64(ohi, va, xhi));
            j += 4;
        }
        while j < n {
            out[j] = alpha.mul_add(x[j], out[j]);
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    // SAFETY: as for `axpy`; additionally the dispatching wrapper
    // asserts `jw = r_i.len()`, `pw = a[i].len()`, and
    // `panel.len() >= pw * jw`, which bound every pointer offset below.
    pub(super) unsafe fn fma_panel4(
        r0: &mut [f64],
        r1: &mut [f64],
        r2: &mut [f64],
        r3: &mut [f64],
        a: [&[f64]; 4],
        panel: &[f64],
        jw: usize,
        pw: usize,
    ) {
        let mut j = 0;
        // 4 rows x 4 columns: eight q-register accumulators (two per
        // row, lanes 0..2 and 2..4) resident across the whole `p` loop.
        while j + 4 <= jw {
            let mut c0l = vld1q_f64(r0.as_ptr().add(j));
            let mut c0h = vld1q_f64(r0.as_ptr().add(j + 2));
            let mut c1l = vld1q_f64(r1.as_ptr().add(j));
            let mut c1h = vld1q_f64(r1.as_ptr().add(j + 2));
            let mut c2l = vld1q_f64(r2.as_ptr().add(j));
            let mut c2h = vld1q_f64(r2.as_ptr().add(j + 2));
            let mut c3l = vld1q_f64(r3.as_ptr().add(j));
            let mut c3h = vld1q_f64(r3.as_ptr().add(j + 2));
            for pp in 0..pw {
                let bl = vld1q_f64(panel.as_ptr().add(pp * jw + j));
                let bh = vld1q_f64(panel.as_ptr().add(pp * jw + j + 2));
                let va = vdupq_n_f64(*a[0].get_unchecked(pp));
                c0l = vfmaq_f64(c0l, va, bl);
                c0h = vfmaq_f64(c0h, va, bh);
                let va = vdupq_n_f64(*a[1].get_unchecked(pp));
                c1l = vfmaq_f64(c1l, va, bl);
                c1h = vfmaq_f64(c1h, va, bh);
                let va = vdupq_n_f64(*a[2].get_unchecked(pp));
                c2l = vfmaq_f64(c2l, va, bl);
                c2h = vfmaq_f64(c2h, va, bh);
                let va = vdupq_n_f64(*a[3].get_unchecked(pp));
                c3l = vfmaq_f64(c3l, va, bl);
                c3h = vfmaq_f64(c3h, va, bh);
            }
            vst1q_f64(r0.as_mut_ptr().add(j), c0l);
            vst1q_f64(r0.as_mut_ptr().add(j + 2), c0h);
            vst1q_f64(r1.as_mut_ptr().add(j), c1l);
            vst1q_f64(r1.as_mut_ptr().add(j + 2), c1h);
            vst1q_f64(r2.as_mut_ptr().add(j), c2l);
            vst1q_f64(r2.as_mut_ptr().add(j + 2), c2h);
            vst1q_f64(r3.as_mut_ptr().add(j), c3l);
            vst1q_f64(r3.as_mut_ptr().add(j + 2), c3h);
            j += 4;
        }
        // Scalar column tail: per-element ascending-`p` fused chain.
        while j < jw {
            let mut acc = [r0[j], r1[j], r2[j], r3[j]];
            for pp in 0..pw {
                let bv = panel[pp * jw + j];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot = a[r][pp].mul_add(bv, *slot);
                }
            }
            r0[j] = acc[0];
            r1[j] = acc[1];
            r2[j] = acc[2];
            r3[j] = acc[3];
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    // SAFETY: as for `axpy`.
    pub(super) unsafe fn dot1(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let mut lo = vmovq_n_f64(0.0);
        let mut hi = vmovq_n_f64(0.0);
        let mut i = 0;
        while i + 4 <= n {
            lo = vfmaq_f64(
                lo,
                vld1q_f64(x.as_ptr().add(i)),
                vld1q_f64(y.as_ptr().add(i)),
            );
            hi = vfmaq_f64(
                hi,
                vld1q_f64(x.as_ptr().add(i + 2)),
                vld1q_f64(y.as_ptr().add(i + 2)),
            );
            i += 4;
        }
        finish_dot(spill(lo, hi), &x[..n], &y[..n], i)
    }

    #[target_feature(enable = "neon")]
    // SAFETY: as for `axpy`; rows `jb..jb + out.len()` of `y`
    // must exist (asserted by the dispatching wrapper).
    pub(super) unsafe fn dot_block(x: &[f64], y: &[f64], d: usize, jb: usize, out: &mut [f64]) {
        let jw = out.len();
        let mut j = 0;
        while j < jw {
            let base = (jb + j) * d;
            out[j] = dot1(x, &y[base..base + d]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    /// Reference implementation of the contract, written independently
    /// of any backend.
    fn spec_dot(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let mut lanes = [0.0f64; 4];
        let full = n - n % 4;
        for t in 0..full {
            lanes[t % 4] = x[t].mul_add(y[t], lanes[t % 4]);
        }
        let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for t in full..n {
            acc = x[t].mul_add(y[t], acc);
        }
        acc
    }

    #[test]
    fn detected_backend_matches_portable_bitwise() {
        // The contract's whole point: whichever backend detection picked
        // must agree bit-for-bit with the portable lane struct. On AVX2
        // hosts this compares intrinsics against `mul_add`; on a
        // portable-only host it is trivially true (still checks the
        // spec).
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 64, 65, 257] {
            let x = seq(n, |i| (i as f64).sin() * 3.0);
            let y = seq(n, |i| (i as f64 * 0.7).cos() - 0.3);
            assert_eq!(dot1(&x, &y).to_bits(), spec_dot(&x, &y).to_bits(), "n={n}");

            let mut a = seq(n, |i| i as f64 * 0.25 - 1.0);
            let mut b = a.clone();
            axpy(&mut a, 1.75, &x);
            for (o, &v) in b.iter_mut().zip(&x) {
                *o = 1.75f64.mul_add(v, *o);
            }
            assert_eq!(a, b, "axpy n={n}");
        }
    }

    #[test]
    fn dot_block_rows_match_standalone_dots() {
        let d = 13;
        let rows = 11;
        let x = seq(d, |i| 0.1 * i as f64 - 0.5);
        let y = seq(rows * d, |i| ((i * 37) % 101) as f64 * 0.01);
        for jb in [0usize, 1, 3] {
            let jw = rows - jb;
            let mut out = vec![0.0f64; jw];
            dot_block(&x, &y, d, jb, &mut out);
            for (j, &got) in out.iter().enumerate() {
                let base = (jb + j) * d;
                let want = dot1(&x, &y[base..base + d]);
                assert_eq!(got.to_bits(), want.to_bits(), "jb={jb} j={j}");
            }
        }
    }

    #[test]
    fn fma_panel4_matches_successive_axpys() {
        // The register-resident panel kernel must be bitwise identical
        // to one `axpy` per row and `p` — same per-element ascending-`p`
        // fused chain, only the residency differs. Ragged widths
        // exercise the 8-, 4-, and scalar-column paths.
        for (jw, pw) in [(1usize, 3usize), (4, 7), (7, 5), (11, 1), (19, 6), (24, 9)] {
            let panel = seq(pw * jw, |i| ((i * 29) % 83) as f64 * 0.03 - 1.1);
            let a_rows: Vec<Vec<f64>> = (0..4)
                .map(|r| seq(pw, |p| ((r * pw + p) as f64 * 0.7).sin()))
                .collect();
            let mut rows: Vec<Vec<f64>> = (0..4)
                .map(|r| seq(jw, |i| (r * jw + i) as f64 * 0.05 - 0.4))
                .collect();
            let mut expect = rows.clone();
            {
                let (r0, rest) = rows.split_at_mut(1);
                let (r1, rest) = rest.split_at_mut(1);
                let (r2, r3) = rest.split_at_mut(1);
                fma_panel4(
                    &mut r0[0],
                    &mut r1[0],
                    &mut r2[0],
                    &mut r3[0],
                    [&a_rows[0], &a_rows[1], &a_rows[2], &a_rows[3]],
                    &panel,
                );
            }
            for pp in 0..pw {
                let b = &panel[pp * jw..(pp + 1) * jw];
                for (e, a) in expect.iter_mut().zip(&a_rows) {
                    axpy(e, a[pp], b);
                }
            }
            for r in 0..4 {
                let got: Vec<u64> = rows[r].iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = expect[r].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "jw={jw} pw={pw} row={r}");
            }
        }
    }

    #[test]
    fn backend_name_is_stable() {
        assert_eq!(Backend::Portable.name(), "portable");
        assert_eq!(Backend::Avx2Fma.name(), "avx2+fma");
        assert_eq!(Backend::Neon.name(), "neon");
        // Whatever was detected, the cached answer never changes.
        assert_eq!(backend(), backend());
    }
}
