//! Dense state-vector representation of an n-qubit register.
//!
//! This is the execution substrate for every experiment in the
//! reproduction: circuits are applied to a `2^n` amplitude vector, and
//! measurement outcomes are sampled from the Born-rule distribution.
//! Registers up to ~20 qubits are practical; the paper's machines max out
//! at 14.
//!
//! ## Kernel structure
//!
//! Circuit evolution runs through specialized kernels (see [`crate::fuse`]):
//! monomial gates (diagonals, X/Y, CX/CZ/Rzz/Swap) are applied as index
//! permutations with phase multiplies, everything else as dense 2×2/4×4
//! blocks enumerating only the `2^n/2` (or `2^n/4`) base indices of each
//! amplitude group. [`StateVector::from_circuit`] additionally *fuses*
//! adjacent gates into one kernel per run ([`crate::fuse::FusedProgram`]),
//! while [`StateVector::apply_circuit`] keeps the plain gate-by-gate
//! reference path. Large registers can spread kernel application across
//! the persistent worker pool ([`crate::pool`]) with
//! [`StateVector::apply_fused`]: the whole fused program runs in
//! **one** parallel region, ops whose qubits fit a cache-sized tile are
//! applied tile-by-tile with no synchronization at all, and the remaining
//! ops cross a lightweight [`crate::pool::SpinBarrier`]. The amplitude
//! array is chunked so results are bitwise identical to the serial path
//! for every thread count.
//!
//! Amplitude buffers come from a per-thread arena ([`crate::arena`]):
//! [`StateVector::recycle`] parks a spent buffer and [`StateVector::zero`]
//! reuses it, so batch sweeps over many small circuits stop paying an
//! allocation per circuit.
//!
//! Every circuit-level evolution bumps a process-wide counter
//! ([`simulation_count`]) so tests can assert how many full statevector
//! simulations a pipeline performed — the XOR variant-amortization fast
//! paths ([`StateVector::born_probabilities`]) are measured by the
//! simulations they *don't* run.

use crate::arena;
use crate::bitstring::BitString;
use crate::c64::C64;
use crate::circuit::Circuit;
use crate::fuse::{classify_gate, FusedOp, FusedProgram};
use crate::gate::{Gate, Matrix2, Matrix4};
use crate::pool::{self, SpinBarrier};
use crate::sampler::AliasSampler;
use rand::Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of full statevector circuit simulations.
static CIRCUIT_SIMULATIONS: AtomicU64 = AtomicU64::new(0);

/// The number of circuit-level statevector evolutions performed by this
/// process so far ([`StateVector::from_circuit`], [`StateVector::from_gates`]
/// and [`StateVector::apply_circuit`] each count once; per-gate calls and
/// the permutation fast paths do not).
///
/// The counter is monotonic and process-global: tests should record it
/// before and after the work under measurement and assert on the delta.
pub fn simulation_count() -> u64 {
    CIRCUIT_SIMULATIONS.load(Ordering::Relaxed)
}

/// Inserts a zero bit at position `p`, shifting higher bits up — the
/// standard trick for enumerating only amplitude-group base indices.
#[inline(always)]
fn insert_zero(x: usize, p: usize) -> usize {
    ((x >> p) << (p + 1)) | (x & ((1usize << p) - 1))
}

/// Raw amplitude pointer that may be shared across pool workers.
/// Safety rests on each worker touching a disjoint set of amplitude
/// groups per schedule phase, with a barrier between phases.
struct SharedAmps(*mut C64);
unsafe impl Send for SharedAmps {}
unsafe impl Sync for SharedAmps {}

/// Raw `f64` output pointer shared across pool workers writing disjoint
/// index sets (the probability scan).
struct SharedF64(*mut f64);
unsafe impl Send for SharedF64 {}
unsafe impl Sync for SharedF64 {}

// ---------------------------------------------------------------------------
// Slice-level kernel primitives.
//
// Every kernel below decomposes its amplitude groups into contiguous *runs*
// (maximal stretches of base indices whose low bits stay below the op's
// lowest qubit) and hands the run's columns to these helpers as disjoint
// `&mut` slices. The `&mut` noalias guarantee is what lets LLVM vectorize
// the inner loops; the per-element arithmetic is identical regardless of
// how a range is split into runs, so threaded application stays bitwise
// identical to serial.
// ---------------------------------------------------------------------------

/// `a · b` with each component's final product contracted into an FMA —
/// the exact per-lane arithmetic of a packed `vfmaddsub` complex multiply,
/// so the scalar kernels and the AVX2 kernels produce bit-identical
/// amplitudes. One rounding fewer per component than the `Mul` impl (≤ 1
/// ulp apart from operator arithmetic); every kernel below uses this
/// primitive exclusively, which keeps the simulator self-consistent and
/// bitwise reproducible across thread counts.
#[inline(always)]
fn cmul(a: C64, b: C64) -> C64 {
    C64::new(
        f64::mul_add(a.re, b.re, -(a.im * b.im)),
        f64::mul_add(a.re, b.im, a.im * b.re),
    )
}

/// `s[k] = p · s[k]`.
#[inline(always)]
fn scale(s: &mut [C64], p: C64) {
    for a in s {
        *a = cmul(p, *a);
    }
}

/// Dense 2×2 across two columns: `(a, b) ← m · (a, b)ᵀ`.
#[inline(always)]
fn two_mix(m: &Matrix2, sa: &mut [C64], sb: &mut [C64]) {
    for (a, b) in sa.iter_mut().zip(sb.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = cmul(m[0][0], x) + cmul(m[0][1], y);
        *b = cmul(m[1][0], x) + cmul(m[1][1], y);
    }
}

/// Two-cycle of a monomial op: `out_b = pa · in_a`, `out_a = pb · in_b`.
#[inline(always)]
fn swap_phase(sa: &mut [C64], sb: &mut [C64], pa: C64, pb: C64) {
    if pa == C64::ONE && pb == C64::ONE {
        for (a, b) in sa.iter_mut().zip(sb.iter_mut()) {
            core::mem::swap(a, b);
        }
    } else {
        for (a, b) in sa.iter_mut().zip(sb.iter_mut()) {
            let t = *a;
            *a = cmul(pb, *b);
            *b = cmul(pa, t);
        }
    }
}

/// Three-cycle `c0 → c1 → c2 → c0` with per-source phases.
#[inline(always)]
fn cycle3(s0: &mut [C64], s1: &mut [C64], s2: &mut [C64], p0: C64, p1: C64, p2: C64) {
    for ((a, b), c) in s0.iter_mut().zip(s1.iter_mut()).zip(s2.iter_mut()) {
        let t = *a;
        *a = cmul(p2, *c);
        *c = cmul(p1, *b);
        *b = cmul(p0, t);
    }
}

/// Four-cycle `c0 → c1 → c2 → c3 → c0` with per-source phases.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cycle4(
    s0: &mut [C64],
    s1: &mut [C64],
    s2: &mut [C64],
    s3: &mut [C64],
    p0: C64,
    p1: C64,
    p2: C64,
    p3: C64,
) {
    for (((a, b), c), d) in s0
        .iter_mut()
        .zip(s1.iter_mut())
        .zip(s2.iter_mut())
        .zip(s3.iter_mut())
    {
        let t = *a;
        *a = cmul(p3, *d);
        *d = cmul(p2, *c);
        *c = cmul(p1, *b);
        *b = cmul(p0, t);
    }
}

/// Dense 4×4 across four columns.
#[inline(always)]
fn dense_mix4(m: &Matrix4, s0: &mut [C64], s1: &mut [C64], s2: &mut [C64], s3: &mut [C64]) {
    for (((a, b), c), d) in s0
        .iter_mut()
        .zip(s1.iter_mut())
        .zip(s2.iter_mut())
        .zip(s3.iter_mut())
    {
        let v = [*a, *b, *c, *d];
        let mut out = [C64::ZERO; 4];
        for (r, out_r) in out.iter_mut().enumerate() {
            let mr = &m[r];
            *out_r = cmul(mr[0], v[0]) + cmul(mr[1], v[1]) + cmul(mr[2], v[2]) + cmul(mr[3], v[3]);
        }
        *a = out[0];
        *b = out[1];
        *c = out[2];
        *d = out[3];
    }
}

/// One cycle of a 4-column monomial permutation, precomputed per op.
#[derive(Clone, Copy)]
enum MonoCycle {
    /// Fixed column `c` scaled by `ph[c]` (unit phases are dropped).
    Fix(usize),
    /// Two-cycle `(a b)`.
    Two(usize, usize),
    /// Three-cycle `a → b → c → a`.
    Three(usize, usize, usize),
    /// Four-cycle `a → b → c → d → a`.
    Four(usize, usize, usize, usize),
}

/// Decomposes `out[perm[c]] = ph[c] · in[c]` into disjoint cycles, dropping
/// unit-phase fixed points (so CX touches 2 columns and CZ just 1).
fn mono_cycles(perm: [u8; 4], ph: [C64; 4]) -> ([MonoCycle; 4], usize) {
    let mut cycles = [MonoCycle::Fix(0); 4];
    let mut n = 0;
    let mut visited = [false; 4];
    for c0 in 0..4 {
        if visited[c0] {
            continue;
        }
        let mut cyc = [0usize; 4];
        let mut len = 0;
        let mut c = c0;
        loop {
            visited[c] = true;
            cyc[len] = c;
            len += 1;
            c = perm[c] as usize;
            if c == c0 {
                break;
            }
        }
        let cycle = match len {
            1 => {
                if ph[c0] == C64::ONE {
                    continue;
                }
                MonoCycle::Fix(c0)
            }
            2 => MonoCycle::Two(cyc[0], cyc[1]),
            3 => MonoCycle::Three(cyc[0], cyc[1], cyc[2]),
            _ => MonoCycle::Four(cyc[0], cyc[1], cyc[2], cyc[3]),
        };
        cycles[n] = cycle;
        n += 1;
    }
    (cycles, n)
}

/// Builds the disjoint column slices of one run.
///
/// # Safety
///
/// Caller guarantees the regions `[base + offs[c], base + offs[c] + run)`
/// are in bounds, pairwise disjoint, and unaliased for the borrow.
unsafe fn col<'a>(amps: *mut C64, start: usize, run: usize) -> &'a mut [C64] {
    std::slice::from_raw_parts_mut(amps.add(start), run)
}

/// Applies a 4-column monomial permutation (as cycles) to one run.
///
/// # Safety
///
/// Same contract as [`col`] for all four column offsets.
unsafe fn apply_cycles(
    amps: *mut C64,
    i00: usize,
    offs: [usize; 4],
    run: usize,
    cycles: &[MonoCycle],
    ph: [C64; 4],
) {
    for &cycle in cycles {
        match cycle {
            MonoCycle::Fix(c) => scale(col(amps, i00 + offs[c], run), ph[c]),
            MonoCycle::Two(a, b) => swap_phase(
                col(amps, i00 + offs[a], run),
                col(amps, i00 + offs[b], run),
                ph[a],
                ph[b],
            ),
            MonoCycle::Three(a, b, c) => cycle3(
                col(amps, i00 + offs[a], run),
                col(amps, i00 + offs[b], run),
                col(amps, i00 + offs[c], run),
                ph[a],
                ph[b],
                ph[c],
            ),
            MonoCycle::Four(a, b, c, d) => cycle4(
                col(amps, i00 + offs[a], run),
                col(amps, i00 + offs[b], run),
                col(amps, i00 + offs[c], run),
                col(amps, i00 + offs[d], run),
                ph[a],
                ph[b],
                ph[c],
                ph[d],
            ),
        }
    }
}

/// Iterates the contiguous runs of a group range: `f(i00, run)` where
/// `i00` is the first base index (with the op's qubit bits deposited as
/// zero) and `run ≤ 1 << low_qubit` amplitudes are contiguous from it.
#[inline(always)]
fn for_runs(
    groups: Range<usize>,
    low_qubit: usize,
    insert: impl Fn(usize) -> usize,
    mut f: impl FnMut(usize, usize),
) {
    let blo = 1usize << low_qubit;
    let mut g = groups.start;
    while g < groups.end {
        let run = (blo - (g & (blo - 1))).min(groups.end - g);
        f(insert(g), run);
        g += run;
    }
}

/// Below this run length the slice-based helpers cost more than a plain
/// scalar gather/compute/scatter per group, so kernels whose lowest qubit
/// sits under `log2(RUN_MIN)` take the scalar path instead.
const RUN_MIN: usize = 8;

/// True when the running CPU has AVX2 and FMA, detected once per process.
#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    use std::sync::atomic::AtomicU8;
    static CACHE: AtomicU8 = AtomicU8::new(0);
    match CACHE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            CACHE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Packed-complex `Fact2` loop body: two amplitude groups per iteration.
///
/// A 256-bit lane holds two interleaved `C64`s; `cmul2` is the classic
/// `permute / mul / fmaddsub` complex product by a constant, whose per-lane
/// arithmetic is exactly the scalar [`cmul`] — the scalar tail that handles
/// an odd trailing group therefore matches these lanes bit for bit, and so
/// does any serial/threaded split of a run.
///
/// Leg matrices arrive as per-column-pair variants with the core's phases
/// pre-folded into the last active leg (see [`fact2_runs`]), so the loop
/// body is nothing but the leg arithmetic plus permuted stores.
///
/// # Safety
///
/// Caller must have verified AVX2+FMA at runtime, and `inp`/`out` must
/// point to `n` valid amplitudes per column with the disjointness contract
/// of [`apply_op_groups`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fact2_avx<const LO: bool, const HI: bool>(
    inp: [*mut C64; 4],
    out: [*mut C64; 4],
    n: usize,
    mlo: &[Matrix2; 2],
    mhi: &[Matrix2; 2],
    ph: [C64; 4],
) {
    use std::arch::x86_64::*;
    #[inline(always)]
    unsafe fn cmul2(m: C64, v: __m256d) -> __m256d {
        let vsw = _mm256_permute_pd(v, 0b0101);
        let t = _mm256_mul_pd(vsw, _mm256_set1_pd(m.im));
        _mm256_fmaddsub_pd(v, _mm256_set1_pd(m.re), t)
    }
    let mut k = 0;
    while k < n {
        let mut v = [
            _mm256_loadu_pd(inp[0].add(k) as *const f64),
            _mm256_loadu_pd(inp[1].add(k) as *const f64),
            _mm256_loadu_pd(inp[2].add(k) as *const f64),
            _mm256_loadu_pd(inp[3].add(k) as *const f64),
        ];
        if LO {
            let (x, y) = (v[0], v[1]);
            v[0] = _mm256_add_pd(cmul2(mlo[0][0][0], x), cmul2(mlo[0][0][1], y));
            v[1] = _mm256_add_pd(cmul2(mlo[0][1][0], x), cmul2(mlo[0][1][1], y));
            let (x, y) = (v[2], v[3]);
            v[2] = _mm256_add_pd(cmul2(mlo[1][0][0], x), cmul2(mlo[1][0][1], y));
            v[3] = _mm256_add_pd(cmul2(mlo[1][1][0], x), cmul2(mlo[1][1][1], y));
        }
        if HI {
            let (x, y) = (v[0], v[2]);
            v[0] = _mm256_add_pd(cmul2(mhi[0][0][0], x), cmul2(mhi[0][0][1], y));
            v[2] = _mm256_add_pd(cmul2(mhi[0][1][0], x), cmul2(mhi[0][1][1], y));
            let (x, y) = (v[1], v[3]);
            v[1] = _mm256_add_pd(cmul2(mhi[1][0][0], x), cmul2(mhi[1][0][1], y));
            v[3] = _mm256_add_pd(cmul2(mhi[1][1][0], x), cmul2(mhi[1][1][1], y));
        }
        if LO || HI {
            _mm256_storeu_pd(out[0].add(k) as *mut f64, v[0]);
            _mm256_storeu_pd(out[1].add(k) as *mut f64, v[1]);
            _mm256_storeu_pd(out[2].add(k) as *mut f64, v[2]);
            _mm256_storeu_pd(out[3].add(k) as *mut f64, v[3]);
        } else {
            _mm256_storeu_pd(out[0].add(k) as *mut f64, cmul2(ph[0], v[0]));
            _mm256_storeu_pd(out[1].add(k) as *mut f64, cmul2(ph[1], v[1]));
            _mm256_storeu_pd(out[2].add(k) as *mut f64, cmul2(ph[2], v[2]));
            _mm256_storeu_pd(out[3].add(k) as *mut f64, cmul2(ph[3], v[3]));
        }
        k += 2;
    }
}

/// Single-pass `Fact2` kernel over the runs of a group range: the dense
/// legs and the monomial core land in one read–modify–write sweep. Two
/// precomputations keep the inner loop lean for any monomial core:
///
/// 1. the core's column permutation is pre-applied to the four *output
///    pointers* of each run — `out[c]` receives column `c`'s result — so
///    there is no data-dependent lane selection;
/// 2. the core's phases are pre-folded into the rows of the last active
///    leg (each column pair gets its own scaled copy of the 2×2), so a
///    one-dense-leg op spends exactly 8 complex multiplies per group.
///
/// A pure-monomial op (both legs identity) keeps the phases at the
/// scatter. On x86-64 with AVX2+FMA the bulk of each run goes through
/// [`fact2_avx`] two groups at a time; the scalar tail and any
/// serial/threaded split produce bit-identical amplitudes.
///
/// # Safety
///
/// Same contract as [`apply_op_groups`] for a two-qubit op on `lo < hi`.
#[allow(clippy::too_many_arguments)]
unsafe fn fact2_runs<const LO: bool, const HI: bool>(
    amps: *mut C64,
    groups: Range<usize>,
    lo: usize,
    hi: usize,
    mlo: &Matrix2,
    mhi: &Matrix2,
    perm: [u8; 4],
    ph: [C64; 4],
) {
    let blo = 1usize << lo;
    let bhi = 1usize << hi;
    let offs = [0, blo, bhi, blo | bhi];
    // Phase folding: scale the rows of the last active leg by the phases of
    // the columns that leg's pairs feed (lo pairs (0,1)/(2,3); hi pairs
    // (0,2)/(1,3)).
    let scale_rows = |m: &Matrix2, pa: C64, pb: C64| -> Matrix2 {
        [
            [cmul(pa, m[0][0]), cmul(pa, m[0][1])],
            [cmul(pb, m[1][0]), cmul(pb, m[1][1])],
        ]
    };
    let (mlo2, mhi2) = if HI {
        (
            [*mlo, *mlo],
            [scale_rows(mhi, ph[0], ph[2]), scale_rows(mhi, ph[1], ph[3])],
        )
    } else if LO {
        (
            [scale_rows(mlo, ph[0], ph[1]), scale_rows(mlo, ph[2], ph[3])],
            [*mhi, *mhi],
        )
    } else {
        ([*mlo, *mlo], [*mhi, *mhi])
    };
    #[cfg(target_arch = "x86_64")]
    let simd = has_avx2_fma();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    for_runs(
        groups,
        lo,
        |g| insert_zero(insert_zero(g, lo), hi),
        |i00, run| {
            let inp = [
                amps.add(i00),
                amps.add(i00 + blo),
                amps.add(i00 + bhi),
                amps.add(i00 + blo + bhi),
            ];
            let out = [
                amps.add(i00 + offs[perm[0] as usize]),
                amps.add(i00 + offs[perm[1] as usize]),
                amps.add(i00 + offs[perm[2] as usize]),
                amps.add(i00 + offs[perm[3] as usize]),
            ];
            let mut k = 0;
            #[cfg(target_arch = "x86_64")]
            if simd {
                let n2 = run & !1;
                if n2 > 0 {
                    fact2_avx::<LO, HI>(inp, out, n2, &mlo2, &mhi2, ph);
                }
                k = n2;
            }
            let _ = simd;
            while k < run {
                let mut v = [
                    *inp[0].add(k),
                    *inp[1].add(k),
                    *inp[2].add(k),
                    *inp[3].add(k),
                ];
                if LO {
                    let (x, y) = (v[0], v[1]);
                    v[0] = cmul(mlo2[0][0][0], x) + cmul(mlo2[0][0][1], y);
                    v[1] = cmul(mlo2[0][1][0], x) + cmul(mlo2[0][1][1], y);
                    let (x, y) = (v[2], v[3]);
                    v[2] = cmul(mlo2[1][0][0], x) + cmul(mlo2[1][0][1], y);
                    v[3] = cmul(mlo2[1][1][0], x) + cmul(mlo2[1][1][1], y);
                }
                if HI {
                    let (x, y) = (v[0], v[2]);
                    v[0] = cmul(mhi2[0][0][0], x) + cmul(mhi2[0][0][1], y);
                    v[2] = cmul(mhi2[0][1][0], x) + cmul(mhi2[0][1][1], y);
                    let (x, y) = (v[1], v[3]);
                    v[1] = cmul(mhi2[1][0][0], x) + cmul(mhi2[1][0][1], y);
                    v[3] = cmul(mhi2[1][1][0], x) + cmul(mhi2[1][1][1], y);
                }
                if LO || HI {
                    *out[0].add(k) = v[0];
                    *out[1].add(k) = v[1];
                    *out[2].add(k) = v[2];
                    *out[3].add(k) = v[3];
                } else {
                    *out[0].add(k) = cmul(ph[0], v[0]);
                    *out[1].add(k) = cmul(ph[1], v[1]);
                    *out[2].add(k) = cmul(ph[2], v[2]);
                    *out[3].add(k) = cmul(ph[3], v[3]);
                }
                k += 1;
            }
        },
    );
}

/// Applies one fused kernel to the amplitude groups in `groups`.
///
/// Group `g` covers the amplitudes whose index equals `g` with the op's
/// qubit bits deposited as zero (base index) plus every combination of
/// those bits. Distinct groups touch disjoint amplitudes.
///
/// # Safety
///
/// `amps` must point to at least `groups.end << op.arity()` amplitudes, the
/// op's qubits must be in range, and no other thread may touch the groups
/// in `groups` concurrently.
unsafe fn apply_op_groups(amps: *mut C64, op: &FusedOp, groups: Range<usize>) {
    match *op {
        FusedOp::Mono1 { q, perm, ph } => {
            let bit = 1usize << q;
            let (p0, p1) = (ph[0], ph[1]);
            if perm == [0, 1] {
                // Diagonal: in-place phase multiply; skip unit phases so
                // plain S/T/Phase gates touch half the memory.
                if bit >= RUN_MIN {
                    for_runs(
                        groups,
                        q,
                        |g| insert_zero(g, q),
                        |i0, run| {
                            if p0 != C64::ONE {
                                scale(col(amps, i0, run), p0);
                            }
                            if p1 != C64::ONE {
                                scale(col(amps, i0 + bit, run), p1);
                            }
                        },
                    );
                } else {
                    let (skip0, skip1) = (p0 == C64::ONE, p1 == C64::ONE);
                    for g in groups {
                        let i0 = insert_zero(g, q);
                        if !skip0 {
                            *amps.add(i0) = cmul(p0, *amps.add(i0));
                        }
                        if !skip1 {
                            *amps.add(i0 | bit) = cmul(p1, *amps.add(i0 | bit));
                        }
                    }
                }
            } else {
                // Antidiagonal (X/Y-like): pair swap with phases.
                if bit >= RUN_MIN {
                    for_runs(
                        groups,
                        q,
                        |g| insert_zero(g, q),
                        |i0, run| {
                            swap_phase(col(amps, i0, run), col(amps, i0 + bit, run), p0, p1);
                        },
                    );
                } else {
                    for g in groups {
                        let i0 = insert_zero(g, q);
                        let a0 = *amps.add(i0);
                        let a1 = *amps.add(i0 | bit);
                        *amps.add(i0 | bit) = cmul(p0, a0);
                        *amps.add(i0) = cmul(p1, a1);
                    }
                }
            }
        }
        FusedOp::Dense1 { q, m } => {
            let bit = 1usize << q;
            if bit >= RUN_MIN {
                for_runs(
                    groups,
                    q,
                    |g| insert_zero(g, q),
                    |i0, run| {
                        two_mix(&m, col(amps, i0, run), col(amps, i0 + bit, run));
                    },
                );
            } else {
                for g in groups {
                    let i0 = insert_zero(g, q);
                    let i1 = i0 | bit;
                    let a0 = *amps.add(i0);
                    let a1 = *amps.add(i1);
                    *amps.add(i0) = cmul(m[0][0], a0) + cmul(m[0][1], a1);
                    *amps.add(i1) = cmul(m[1][0], a0) + cmul(m[1][1], a1);
                }
            }
        }
        FusedOp::Mono2 { lo, hi, perm, ph } => {
            let blo = 1usize << lo;
            let bhi = 1usize << hi;
            let offs = [0, blo, bhi, blo | bhi];
            if blo >= RUN_MIN {
                let (cycles, n_cycles) = mono_cycles(perm, ph);
                let cycles = &cycles[..n_cycles];
                for_runs(
                    groups,
                    lo,
                    |g| insert_zero(insert_zero(g, lo), hi),
                    |i00, run| apply_cycles(amps, i00, offs, run, cycles, ph),
                );
            } else {
                // Scalar path: touch only the columns that move or pick up
                // a non-unit phase (CX reads/writes 2 of 4, CZ just 1).
                let mut active = [0usize; 4];
                let mut n_active = 0;
                for c in 0..4 {
                    if !(perm[c] as usize == c && ph[c] == C64::ONE) {
                        active[n_active] = c;
                        n_active += 1;
                    }
                }
                let active = &active[..n_active];
                for g in groups {
                    let i00 = insert_zero(insert_zero(g, lo), hi);
                    let mut v = [C64::ZERO; 4];
                    for &c in active {
                        v[c] = *amps.add(i00 + offs[c]);
                    }
                    for &c in active {
                        *amps.add(i00 + offs[perm[c] as usize]) = cmul(ph[c], v[c]);
                    }
                }
            }
        }
        FusedOp::Dense2 { lo, hi, m } => {
            let blo = 1usize << lo;
            let bhi = 1usize << hi;
            if blo >= RUN_MIN {
                for_runs(
                    groups,
                    lo,
                    |g| insert_zero(insert_zero(g, lo), hi),
                    |i00, run| {
                        dense_mix4(
                            &m,
                            col(amps, i00, run),
                            col(amps, i00 + blo, run),
                            col(amps, i00 + bhi, run),
                            col(amps, i00 + blo + bhi, run),
                        );
                    },
                );
            } else {
                for g in groups {
                    let i00 = insert_zero(insert_zero(g, lo), hi);
                    let idx = [i00, i00 | blo, i00 | bhi, i00 | blo | bhi];
                    let v = [
                        *amps.add(idx[0]),
                        *amps.add(idx[1]),
                        *amps.add(idx[2]),
                        *amps.add(idx[3]),
                    ];
                    for (r, &i) in idx.iter().enumerate() {
                        let mr = &m[r];
                        *amps.add(i) = cmul(mr[0], v[0])
                            + cmul(mr[1], v[1])
                            + cmul(mr[2], v[2])
                            + cmul(mr[3], v[3]);
                    }
                }
            }
        }
        FusedOp::Fact2 {
            lo,
            hi,
            mlo,
            mhi,
            perm,
            ph,
        } => {
            // One pass for `Mono(perm, ph) · (mhi ⊗ mlo)`: long runs take
            // the fused single-sweep kernel (SIMD on x86-64), short runs a
            // scalar gather/compute/scatter per group. The common
            // one-dense-leg case (e.g. H riding a CX) costs 8 multiplies
            // per group — half a dense 4×4.
            let blo = 1usize << lo;
            let bhi = 1usize << hi;
            let offs = [0, blo, bhi, blo | bhi];
            let apply_lo = !crate::fuse::is_identity2(&mlo);
            let apply_hi = !crate::fuse::is_identity2(&mhi);
            // Even length-2 runs win with the packed kernel: one 2-group
            // SIMD iteration amortizes the per-run pointer setup. Only
            // lo = 0 (single-group runs) stays scalar.
            if blo >= 2 {
                match (apply_lo, apply_hi) {
                    (false, false) => {
                        fact2_runs::<false, false>(amps, groups, lo, hi, &mlo, &mhi, perm, ph)
                    }
                    (false, true) => {
                        fact2_runs::<false, true>(amps, groups, lo, hi, &mlo, &mhi, perm, ph)
                    }
                    (true, false) => {
                        fact2_runs::<true, false>(amps, groups, lo, hi, &mlo, &mhi, perm, ph)
                    }
                    (true, true) => {
                        fact2_runs::<true, true>(amps, groups, lo, hi, &mlo, &mhi, perm, ph)
                    }
                }
            } else {
                let unit_ph = ph == [C64::ONE; 4];
                for g in groups {
                    let i00 = insert_zero(insert_zero(g, lo), hi);
                    let mut v = [
                        *amps.add(i00),
                        *amps.add(i00 | blo),
                        *amps.add(i00 | bhi),
                        *amps.add(i00 | blo | bhi),
                    ];
                    if apply_lo {
                        for (a, b) in [(0, 1), (2, 3)] {
                            let (x, y) = (v[a], v[b]);
                            v[a] = cmul(mlo[0][0], x) + cmul(mlo[0][1], y);
                            v[b] = cmul(mlo[1][0], x) + cmul(mlo[1][1], y);
                        }
                    }
                    if apply_hi {
                        for (a, b) in [(0, 2), (1, 3)] {
                            let (x, y) = (v[a], v[b]);
                            v[a] = cmul(mhi[0][0], x) + cmul(mhi[0][1], y);
                            v[b] = cmul(mhi[1][0], x) + cmul(mhi[1][1], y);
                        }
                    }
                    if unit_ph {
                        for c in 0..4 {
                            *amps.add(i00 + offs[perm[c] as usize]) = v[c];
                        }
                    } else {
                        for c in 0..4 {
                            *amps.add(i00 + offs[perm[c] as usize]) = cmul(ph[c], v[c]);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fused-program schedule: cache-sized tiles and barrier phases.
//
// A fused program no longer runs as `n_ops` synchronized full sweeps.
// Instead it is compiled into *phases*: a maximal run of ops whose qubits
// all sit below the tile width executes tile-by-tile (each worker streams
// its tiles through every op of the phase while they are cache-hot, with
// no synchronization at all), and each op touching a higher qubit runs as
// one classic chunked full sweep. Workers only meet at a [`SpinBarrier`]
// between phases.
//
// Bitwise identity is preserved in both directions. Versus the serial
// op-by-op order: a low op's amplitude groups are contained in single
// tiles, so reordering "op then next tile" vs "tile then next op" permutes
// writes to *disjoint* amplitudes only. Versus other thread counts: the
// per-group arithmetic of `apply_op_groups` never depends on how a range
// was split, and phases are ordered by barriers.
// ---------------------------------------------------------------------------

/// Hard cap on tile width: `2^15` amplitudes = 512 KB, sized to leave
/// headroom in a ~1–2 MB per-core L2 once kernel constants and stack are
/// accounted for.
const TILE_BITS_MAX: usize = 15;

/// Picks the tile width (in qubits) for an `n`-qubit apply on `workers`
/// workers: small enough to fit L2 and to give every worker at least two
/// tiles, but never below 10 qubits (16 KB) where per-tile loop overhead
/// would beat the cache win — tiny registers collapse to a single tile.
fn tile_bits_for(n: usize, workers: usize) -> usize {
    let spread = (2 * workers.max(1)).next_power_of_two().trailing_zeros() as usize;
    let t = n.saturating_sub(spread).min(TILE_BITS_MAX);
    t.max(n.min(10))
}

/// One synchronization phase of a fused program.
enum Phase {
    /// `ops[range]` all act below the tile width: run tile-by-tile,
    /// barrier-free within the phase.
    Tiled(Range<usize>),
    /// `ops[idx]` touches a qubit at or above the tile width: one chunked
    /// full sweep.
    Global(usize),
}

/// Highest qubit an op touches.
fn max_qubit(op: &FusedOp) -> usize {
    match *op {
        FusedOp::Mono1 { q, .. } | FusedOp::Dense1 { q, .. } => q,
        FusedOp::Mono2 { hi, .. } | FusedOp::Dense2 { hi, .. } | FusedOp::Fact2 { hi, .. } => hi,
    }
}

/// Greedily groups consecutive below-tile ops into [`Phase::Tiled`] runs.
fn build_schedule(ops: &[FusedOp], tile_bits: usize) -> Vec<Phase> {
    let mut phases = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if max_qubit(&ops[i]) < tile_bits {
            let start = i;
            while i < ops.len() && max_qubit(&ops[i]) < tile_bits {
                i += 1;
            }
            phases.push(Phase::Tiled(start..i));
        } else {
            phases.push(Phase::Global(i));
            i += 1;
        }
    }
    phases
}

/// Executes worker `w`'s share of every phase. All `workers` workers must
/// call this with the same schedule; `barrier` is required iff `workers > 1`.
///
/// # Safety
///
/// `amps` must point to `dim` amplitudes, `dim` a power of two with
/// `dim >= 1 << tile_bits`, every op's qubits in range, and the full
/// worker set `0..workers` must execute concurrently so the barrier
/// completes (except `workers == 1`, which needs no barrier).
#[allow(clippy::too_many_arguments)]
unsafe fn run_schedule(
    amps: *mut C64,
    dim: usize,
    ops: &[FusedOp],
    phases: &[Phase],
    tile_bits: usize,
    w: usize,
    workers: usize,
    barrier: Option<&SpinBarrier>,
) {
    let n_tiles = dim >> tile_bits;
    for (pi, phase) in phases.iter().enumerate() {
        match phase {
            Phase::Tiled(r) => {
                let chunk = n_tiles.div_ceil(workers);
                let t0 = (w * chunk).min(n_tiles);
                let t1 = ((w + 1) * chunk).min(n_tiles);
                for tile in t0..t1 {
                    for op in &ops[r.clone()] {
                        // All the op's qubits are below `tile_bits`, so its
                        // groups partition each tile: tile `t` is exactly
                        // groups `[t << gb, (t+1) << gb)`.
                        let gb = tile_bits - op.arity();
                        apply_op_groups(amps, op, (tile << gb)..((tile + 1) << gb));
                    }
                }
            }
            Phase::Global(i) => {
                let op = &ops[*i];
                let n_groups = dim >> op.arity();
                let chunk = n_groups.div_ceil(workers);
                let start = (w * chunk).min(n_groups);
                let end = ((w + 1) * chunk).min(n_groups);
                if start < end {
                    apply_op_groups(amps, op, start..end);
                }
            }
        }
        if pi + 1 < phases.len() {
            if let Some(b) = barrier {
                b.wait();
            }
        }
    }
}

/// Amplitudes per partial sum in the blocked norm reduction
/// ([`StateVector::norm_sqr`]). The rounding is a function of this block
/// schedule, which journal numerics depend on (DESIGN.md §14,
/// "Cross-version numerics"): registers under 4096 amplitudes reduce in
/// one block and match a plain sequential sum exactly.
const SUM_BLOCK: usize = 4096;

/// A copy of an ideal state at an op boundary of a fused program: the
/// state after `ops[..op]` ([`StateVector::evolve_with_checkpoint`]).
///
/// Its buffer comes from the process-wide checkpoint pool in
/// [`crate::arena`], not from the per-thread arena, and goes back there on
/// drop: one sweep's checkpoints are read by every worker, and two
/// alternating service workers would otherwise each park their own.
#[derive(Debug)]
pub struct Checkpoint {
    op: usize,
    state: StateVector,
}

impl Checkpoint {
    /// The op boundary the state was copied at: it is the state after
    /// `ops[..op]`.
    #[inline]
    pub fn op(&self) -> usize {
        self.op
    }
}

impl Drop for Checkpoint {
    fn drop(&mut self) {
        arena::recycle_shared(std::mem::take(&mut self.state.amps));
    }
}

/// A pure quantum state over `n` qubits as `2^n` complex amplitudes.
///
/// Amplitude `i` is the coefficient of the computational basis state whose
/// bit `k` equals bit `k` of `i` (qubit 0 is the least-significant bit).
///
/// # Examples
///
/// ```
/// use qsim::{Circuit, StateVector};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let psi = StateVector::from_circuit(&bell);
/// let p = psi.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12); // |00⟩
/// assert!((p[3] - 0.5).abs() < 1e-12); // |11⟩
/// assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zero basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or large enough that `2^n` overflows
    /// `usize` (practically, > 30 is rejected to guard against accidental
    /// exponential allocations).
    pub fn zero(n_qubits: usize) -> Self {
        assert!(
            (1..=30).contains(&n_qubits),
            "state vector limited to 1..=30 qubits"
        );
        let dim = 1usize << n_qubits;
        // Reuse a buffer parked by `recycle` when one fits; the arena
        // hands it back zeroed, so this is purely an allocation saving.
        let mut amps = arena::take(dim).unwrap_or_else(|| vec![C64::ZERO; dim]);
        amps[0] = C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Parks this state's amplitude buffer in the per-thread arena
    /// ([`crate::arena`]) so the next [`StateVector::zero`] of a compatible
    /// size reuses it instead of allocating. Call it on states that die in
    /// hot loops — one trajectory state per shot, one prefix state per
    /// variant family; dropping a state instead is always correct, just
    /// slower.
    pub fn recycle(self) {
        arena::recycle(self.amps);
    }

    /// Creates a basis state `|s⟩`.
    pub fn basis(s: BitString) -> Self {
        let mut sv = StateVector::zero(s.width());
        sv.amps[0] = C64::ZERO;
        sv.amps[s.index()] = C64::ONE;
        sv
    }

    /// Creates a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two ≥ 2 or the vector is not
    /// normalized within `1e-9`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "length must be a power of two"
        );
        let n_qubits = len.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "amplitudes not normalized (norm² = {norm})"
        );
        StateVector { n_qubits, amps }
    }

    /// Runs `circuit` from `|0…0⟩` and returns the final state — the
    /// one-thread convenience form of [`StateVector::from_gates`].
    ///
    /// The circuit is gate-fused and run through the specialized kernels
    /// (see [`crate::fuse`]); results agree with the gate-by-gate reference
    /// path ([`StateVector::apply_circuit`]) to ~1e-15 per amplitude.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_gates(circuit.n_qubits(), circuit.gates(), 1)
    }

    /// Runs a gate slice from `|0…0⟩` over an `n_qubits` register on
    /// exactly `threads` pool workers ([`StateVector::apply_fused`]) — the
    /// fused evolution entry point for whole circuits and for circuit
    /// *prefixes* (e.g. the base circuit shared by a family of inversion
    /// variants, see [`Circuit::trailing_x_split`]). Bitwise identical for
    /// every thread count; worthwhile only for large registers (the
    /// executor gates it at ≥ 15 qubits).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn from_gates(n_qubits: usize, gates: &[Gate], threads: usize) -> Self {
        Self::resume(None, n_qubits, gates, threads)
    }

    /// Runs a gate slice, fused, from a checkpoint's state — or from
    /// `|0…0⟩` when `start` is `None` — on exactly `threads` pool workers.
    /// A gate-noise trajectory resumes this way: `gates` are the gates its
    /// checkpoint's ops did not cover, faults inserted (see
    /// [`FusedProgram::gate_ops`]). Counts as one simulation in
    /// [`simulation_count`], like the full evolution it replaces. The
    /// state's buffer comes from this thread's arena.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or if `start` is over another width.
    pub fn resume(
        start: Option<&Checkpoint>,
        n_qubits: usize,
        gates: &[Gate],
        threads: usize,
    ) -> Self {
        let mut sv = match start {
            None => StateVector::zero(n_qubits),
            Some(cp) => {
                assert_eq!(cp.state.n_qubits, n_qubits, "checkpoint width mismatch");
                let len = cp.state.amps.len();
                let mut amps = arena::take_empty(len).unwrap_or_else(|| Vec::with_capacity(len));
                amps.extend_from_slice(&cp.state.amps);
                StateVector { n_qubits, amps }
            }
        };
        let prog = FusedProgram::from_gates(n_qubits, gates);
        CIRCUIT_SIMULATIONS.fetch_add(1, Ordering::Relaxed);
        sv.apply_fused(&prog, threads);
        sv
    }

    /// Runs `prog` from `|0…0⟩` on exactly `threads` pool workers and,
    /// when `at` is `Some(k)`, copies the state after `ops[..k]`: the
    /// ideal checkpoint gate-noise trajectories resume from
    /// ([`StateVector::resume`]). Returns the final state and the
    /// checkpoint. The state after the split applies is bitwise the one
    /// [`StateVector::apply_fused`] reaches in one call, since per-group
    /// kernel arithmetic never depends on how the op list was cut. Counts
    /// as one simulation, unless the program has no ops (it then simulates
    /// nothing).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or if `at` names a boundary past the last
    /// op.
    pub fn evolve_with_checkpoint(
        prog: &FusedProgram,
        at: Option<usize>,
        threads: usize,
    ) -> (Self, Option<Checkpoint>) {
        let ops = prog.ops();
        let split = at.unwrap_or(0);
        assert!(
            split <= ops.len(),
            "checkpoint {split} past the last of {} ops",
            ops.len()
        );
        let n_qubits = prog.n_qubits();
        let mut sv = StateVector::zero(n_qubits);
        if !ops.is_empty() {
            CIRCUIT_SIMULATIONS.fetch_add(1, Ordering::Relaxed);
        }
        sv.apply_ops(&ops[..split], threads);
        let checkpoint = at.map(|op| {
            let mut amps = arena::take_shared(sv.amps.len());
            amps.extend_from_slice(&sv.amps);
            let state = StateVector { n_qubits, amps };
            Checkpoint { op, state }
        });
        sv.apply_ops(&ops[split..], threads);
        (sv, checkpoint)
    }

    /// The number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitudes (length `2^n`).
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The squared 2-norm (should be 1 up to float error).
    ///
    /// Accumulated as fixed-width block partial sums combined in block
    /// order (registers under `SUM_BLOCK` = 4096 amplitudes reduce in one
    /// block and match a plain sequential sum exactly). Note this blocked
    /// order is a numerics change versus pre-pool releases for larger
    /// registers — a version boundary the journal format tracks (see
    /// DESIGN.md §14, "Cross-version numerics").
    pub fn norm_sqr(&self) -> f64 {
        self.amps
            .chunks(SUM_BLOCK)
            .map(|block| block.iter().map(|a| a.norm_sqr()).sum::<f64>())
            .sum()
    }

    /// Renormalizes in place (useful after non-unitary trajectory jumps).
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n <= 0.0 {
            return;
        }
        for a in &mut self.amps {
            *a = *a / n;
        }
    }

    /// Applies a single gate in place through its specialized kernel:
    /// monomial gates (diagonals, X/Y, CX/CZ/Rzz/Swap) run as permutations
    /// with phase multiplies, dense gates enumerate only the `dim/2`
    /// (`dim/4` for two-qubit gates) amplitude-group base indices.
    ///
    /// # Panics
    ///
    /// Panics if the gate references qubits outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        for &q in &gate.qubits() {
            assert!(q < self.n_qubits, "gate {gate} out of range");
        }
        let op = classify_gate(gate);
        self.apply_op(&op);
    }

    /// Applies one classified kernel over the full register.
    fn apply_op(&mut self, op: &FusedOp) {
        let n_groups = self.amps.len() >> op.arity();
        // SAFETY: exclusive `&mut self`, op qubits validated by the caller,
        // and the full group range covers exactly the amplitude vector.
        unsafe { apply_op_groups(self.amps.as_mut_ptr(), op, 0..n_groups) }
    }

    /// Applies a fused program on exactly `workers` persistent pool
    /// workers, executing the whole program in **one** parallel region:
    /// consecutive below-tile ops run tile-by-tile with no
    /// synchronization, other ops as chunked full sweeps, with one
    /// [`SpinBarrier`] wait per phase (see [`crate::fuse::FusedProgram`]).
    /// One worker runs the same schedule on the caller with no barrier.
    ///
    /// The width is honored as given, even past the physical core count —
    /// tests and benchmarks pin it through this entry point, and
    /// production callers clamp first (the executor clamps to
    /// [`pool::available_threads`]). Every worker count computes the same
    /// per-group arithmetic over disjoint group sets, so the result is
    /// **bitwise identical for every width** (the invariant journal resume
    /// relies on).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or the program was compiled for more qubits
    /// than the state.
    pub fn apply_fused(&mut self, prog: &FusedProgram, workers: usize) {
        assert!(
            prog.n_qubits() <= self.n_qubits,
            "program acts on more qubits than the state has"
        );
        self.apply_ops(prog.ops(), workers);
    }

    /// [`StateVector::apply_fused`] over a run of a program's ops, whose
    /// qubits the program's width already checked.
    fn apply_ops(&mut self, ops: &[FusedOp], workers: usize) {
        assert!(workers >= 1, "need at least one thread");
        if ops.is_empty() {
            return;
        }
        let dim = self.amps.len();
        let tile_bits = tile_bits_for(self.n_qubits, workers);
        let phases = build_schedule(ops, tile_bits);
        let amps = self.amps.as_mut_ptr();
        if workers == 1 {
            // SAFETY: exclusive `&mut self`; a single worker covers every
            // group of every phase and needs no barrier.
            unsafe {
                run_schedule(amps, dim, ops, &phases, tile_bits, 0, 1, None);
            }
            return;
        }
        let shared = SharedAmps(amps);
        let shared = &shared;
        let barrier = SpinBarrier::new(workers);
        pool::run(workers, &|w| {
            // SAFETY: workers cover disjoint tiles/chunks per phase and
            // the barrier orders phases; `pool::run` returns only after
            // every worker finishes, keeping the borrow of `amps` valid.
            unsafe {
                run_schedule(
                    shared.0,
                    dim,
                    ops,
                    &phases,
                    tile_bits,
                    w,
                    workers,
                    Some(&barrier),
                );
            }
        });
    }

    /// Applies every gate of `circuit` in order, gate by gate — the
    /// unfused reference path (fusion-based evolution lives in
    /// [`StateVector::from_circuit`] / [`StateVector::apply_fused`]).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit acts on more qubits than the state has"
        );
        CIRCUIT_SIMULATIONS.fetch_add(1, Ordering::Relaxed);
        for g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// The Born-rule probability of each basis state (length `2^n`): the
    /// serial [`StateVector::probabilities_xor`] with mask 0.
    pub fn probabilities(&self) -> Vec<f64> {
        self.probabilities_xor(0, 1)
    }

    /// The Born distribution of this state with a trailing X layer applied
    /// on the set bits of `mask`: entry `i ^ mask` holds `|amps[i]|²`.
    ///
    /// A pre-measurement X layer is a pure index permutation of the state,
    /// so this equals — bit for bit — simulating
    /// [`Circuit::with_premeasure_inversion`] on top of this state and
    /// taking [`StateVector::probabilities`], at `O(2^n)` cost and with no
    /// extra statevector. This is the primitive behind inversion-variant
    /// amortization: one base simulation serves every X-layer variant.
    ///
    /// The scan is chunked across exactly `threads` pool workers. XOR with
    /// a fixed mask is a bijection, so workers scanning disjoint input
    /// chunks write disjoint output indices and the per-entry arithmetic
    /// is unchanged: the result is bitwise identical for every thread
    /// count. Registers under 2^15 amplitudes scan serially, where
    /// dispatch costs more than the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `mask` has bits beyond the register.
    pub fn probabilities_xor(&self, mask: usize, threads: usize) -> Vec<f64> {
        assert!(threads >= 1, "need at least one thread");
        assert!(
            mask < self.amps.len(),
            "mask {mask:#x} outside the {}-qubit register",
            self.n_qubits
        );
        let dim = self.amps.len();
        let serial = threads == 1 || dim < (1 << 15);
        if serial && mask == 0 {
            // The identity relabel: a straight collect vectorizes, the
            // indexed scatter below does not.
            return self.amps.iter().map(|a| a.norm_sqr()).collect();
        }
        let mut probs = vec![0.0; dim];
        if serial {
            for (i, a) in self.amps.iter().enumerate() {
                probs[i ^ mask] = a.norm_sqr();
            }
            return probs;
        }
        let out = SharedF64(probs.as_mut_ptr());
        // Borrow the wrapper (not its pointer field) so the closure capture
        // stays `Sync`.
        let out = &out;
        let amps = &self.amps;
        pool::run(threads, &|w| {
            let chunk = dim.div_ceil(threads);
            let start = (w * chunk).min(dim);
            let end = ((w + 1) * chunk).min(dim);
            for (i, a) in amps[start..end].iter().enumerate() {
                // SAFETY: XOR by `mask` maps this worker's disjoint input
                // range to a disjoint output set; the dispatch completes
                // before `probs` is read.
                unsafe { *out.0.add((start + i) ^ mask) = a.norm_sqr() };
            }
        });
        probs
    }

    /// The Born distribution of `circuit` run on `|0…0⟩`, using the
    /// trailing-X fast paths: the circuit is split by
    /// [`Circuit::trailing_x_split`], only the prefix is simulated, and the
    /// X layer is applied as an XOR permutation
    /// ([`StateVector::probabilities_xor`]). If the circuit is X-only (every
    /// basis-state preparation, and every inversion variant of one) **no
    /// statevector is built at all** — the result is a point mass, and
    /// [`simulation_count`] does not move.
    ///
    /// The prefix simulation and the scan run on exactly `threads` pool
    /// workers, and the prefix state's buffer is recycled through the
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn born_probabilities(circuit: &Circuit, threads: usize) -> Vec<f64> {
        assert!(threads >= 1, "need at least one thread");
        let (prefix, mask) = circuit.trailing_x_split();
        let m = mask.index();
        if prefix.is_empty() {
            let mut probs = vec![0.0; 1usize << circuit.n_qubits()];
            probs[m] = 1.0;
            return probs;
        }
        let sv = StateVector::from_gates(circuit.n_qubits(), prefix, threads);
        let probs = sv.probabilities_xor(m, threads);
        sv.recycle();
        probs
    }

    /// The probability of measuring exactly `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s.width() != n_qubits`.
    pub fn probability_of(&self, s: BitString) -> f64 {
        assert_eq!(s.width(), self.n_qubits, "bit string width mismatch");
        self.amps[s.index()].norm_sqr()
    }

    /// Samples one measurement outcome from the Born distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BitString {
        let mut u: f64 = rng.gen::<f64>() * self.norm_sqr();
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if u < p {
                return BitString::from_value(i as u64, self.n_qubits);
            }
            u -= p;
        }
        // Floating-point slack: return the last state.
        BitString::from_value((self.amps.len() - 1) as u64, self.n_qubits)
    }

    /// Builds an O(1)-per-draw alias sampler over the Born distribution.
    ///
    /// [`StateVector::sample`] scans the full amplitude vector per draw
    /// (`O(2^n)`), which dominates shot loops; building this table once per
    /// state (`O(2^n)`) amortizes that cost away. Draw indices with
    /// [`AliasSampler::sample`] and lift to outcomes with
    /// [`BitString::from_value`].
    pub fn sampler(&self) -> AliasSampler {
        AliasSampler::new(&self.probabilities())
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "dimension mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Expectation value of Z on `qubit`: `P(0) − P(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn expectation_z(&self, qubit: usize) -> f64 {
        assert!(qubit < self.n_qubits, "qubit out of range");
        self.expectation_z_string(1usize << qubit)
    }

    /// Expectation value of a Z-Pauli string: `⟨Z_{i1} Z_{i2} …⟩` where the
    /// set bits of `mask` select the qubits. The QAOA cost function is a
    /// sum of such two-qubit terms, one per graph edge.
    ///
    /// `mask = 0` is the identity (expectation 1).
    ///
    /// # Panics
    ///
    /// Panics if `mask` has bits beyond the register.
    pub fn expectation_z_string(&self, mask: usize) -> f64 {
        assert!(
            mask < self.amps.len(),
            "mask {mask:#x} outside the {}-qubit register",
            self.n_qubits
        );
        let mut ez = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            // Parity of the masked bits decides the sign.
            if (i & mask).count_ones().is_multiple_of(2) {
                ez += p;
            } else {
                ez -= p;
            }
        }
        ez
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    const TOL: f64 = 1e-10;

    #[test]
    fn zero_state() {
        let sv = StateVector::zero(3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert!((sv.probability_of(BitString::zeros(3)) - 1.0).abs() < TOL);
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn basis_state() {
        let s: BitString = "101".parse().unwrap();
        let sv = StateVector::basis(s);
        assert!((sv.probability_of(s) - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_each_qubit() {
        for q in 0..4 {
            let mut sv = StateVector::zero(4);
            sv.apply_gate(&Gate::X(q));
            let expect = BitString::zeros(4).with_bit(q, true);
            assert!((sv.probability_of(expect) - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn h_makes_equal_superposition() {
        let mut sv = StateVector::zero(1);
        sv.apply_gate(&Gate::H(0));
        assert!((sv.amplitudes()[0].re - FRAC_1_SQRT_2).abs() < TOL);
        assert!((sv.amplitudes()[1].re - FRAC_1_SQRT_2).abs() < TOL);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[3] - 0.5).abs() < TOL);
        assert!(p[1] < TOL && p[2] < TOL);
    }

    #[test]
    fn ghz_five_qubits() {
        let mut c = Circuit::new(5);
        c.h(0);
        for q in 0..4 {
            c.cx(q, q + 1);
        }
        let sv = StateVector::from_circuit(&c);
        assert!((sv.probability_of(BitString::zeros(5)) - 0.5).abs() < TOL);
        assert!((sv.probability_of(BitString::ones(5)) - 0.5).abs() < TOL);
    }

    #[test]
    fn cx_control_target_orientation() {
        // Control q1 set, target q0: |q1=1,q0=0⟩ -> |11⟩.
        let mut sv = StateVector::basis("10".parse().unwrap());
        sv.apply_gate(&Gate::Cx {
            control: 1,
            target: 0,
        });
        assert!((sv.probability_of("11".parse().unwrap()) - 1.0).abs() < TOL);
        // Control q1 clear: |01⟩ unchanged.
        let mut sv = StateVector::basis("01".parse().unwrap());
        sv.apply_gate(&Gate::Cx {
            control: 1,
            target: 0,
        });
        assert!((sv.probability_of("01".parse().unwrap()) - 1.0).abs() < TOL);
    }

    #[test]
    fn cx_nonadjacent_qubits() {
        let mut sv = StateVector::basis("001".parse().unwrap());
        sv.apply_gate(&Gate::Cx {
            control: 0,
            target: 2,
        });
        assert!((sv.probability_of("101".parse().unwrap()) - 1.0).abs() < TOL);
    }

    #[test]
    fn swap_exchanges() {
        let mut sv = StateVector::basis("01".parse().unwrap());
        sv.apply_gate(&Gate::Swap { a: 0, b: 1 });
        assert!((sv.probability_of("10".parse().unwrap()) - 1.0).abs() < TOL);
    }

    #[test]
    fn circuit_then_inverse_is_identity() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .rz(1, 0.7)
            .ry(2, 1.3)
            .cz(1, 2)
            .rzz(0, 2, 0.5);
        let mut sv = StateVector::zero(3);
        sv.apply_circuit(&c);
        sv.apply_circuit(&c.inverse());
        assert!((sv.probability_of(BitString::zeros(3)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_preserved_by_gates() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 2).rzz(1, 3, 0.9).ry(2, 0.2).cz(2, 3);
        let sv = StateVector::from_circuit(&c);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut count00 = 0;
        let mut count11 = 0;
        for _ in 0..n {
            let s = sv.sample(&mut rng);
            match s.value() {
                0b00 => count00 += 1,
                0b11 => count11 += 1,
                other => panic!("impossible outcome {other:b}"),
            }
        }
        let f = count00 as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.02, "f = {f}");
        assert_eq!(count00 + count11, n);
    }

    #[test]
    fn alias_sampler_respects_support() {
        let mut c = Circuit::new(3);
        c.h(0);
        for q in 0..2 {
            c.cx(q, q + 1);
        }
        let sv = StateVector::from_circuit(&c);
        let sampler = sv.sampler();
        let mut rng = StdRng::seed_from_u64(21);
        let mut zeros = 0u64;
        let n = 20_000;
        for _ in 0..n {
            match sampler.sample(&mut rng) {
                0 => zeros += 1,
                0b111 => {}
                other => panic!("impossible outcome {other:b}"),
            }
        }
        let f = zeros as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.02, "f = {f}");
    }

    #[test]
    fn expectation_z() {
        let sv = StateVector::zero(2);
        assert!((sv.expectation_z(0) - 1.0).abs() < TOL);
        let mut sv = StateVector::zero(2);
        sv.apply_gate(&Gate::X(1));
        assert!((sv.expectation_z(1) + 1.0).abs() < TOL);
        let mut sv = StateVector::zero(1);
        sv.apply_gate(&Gate::H(0));
        assert!(sv.expectation_z(0).abs() < TOL);
    }

    #[test]
    fn z_string_expectations() {
        // |11⟩: ⟨Z0⟩ = ⟨Z1⟩ = −1, ⟨Z0 Z1⟩ = +1.
        let sv = StateVector::basis("11".parse().unwrap());
        assert!((sv.expectation_z_string(0b01) + 1.0).abs() < TOL);
        assert!((sv.expectation_z_string(0b10) + 1.0).abs() < TOL);
        assert!((sv.expectation_z_string(0b11) - 1.0).abs() < TOL);
        assert!((sv.expectation_z_string(0) - 1.0).abs() < TOL);
        // Bell state: single-qubit Z vanishes, the correlator is +1.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let bell = StateVector::from_circuit(&c);
        assert!(bell.expectation_z_string(0b01).abs() < TOL);
        assert!((bell.expectation_z_string(0b11) - 1.0).abs() < TOL);
    }

    #[test]
    fn z_string_recovers_qaoa_cost() {
        // cut(s) = Σ_edges (1 - Z_a Z_b)/2, so the expected cut equals the
        // probability-weighted sum — cross-check against direct counting.
        let mut c = Circuit::new(3);
        c.h(0).ry(1, 0.7).cx(0, 2).rzz(1, 2, 0.4);
        let sv = StateVector::from_circuit(&c);
        let edges = [(0usize, 1usize), (1, 2), (0, 2)];
        let via_z: f64 = edges
            .iter()
            .map(|&(a, b)| 0.5 * (1.0 - sv.expectation_z_string((1 << a) | (1 << b))))
            .sum();
        let via_counting: f64 = sv
            .probabilities()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let crossing = edges
                    .iter()
                    .filter(|&&(a, b)| ((i >> a) & 1) != ((i >> b) & 1))
                    .count();
                p * crossing as f64
            })
            .sum();
        assert!((via_z - via_counting).abs() < 1e-9);
    }

    #[test]
    fn fidelity_and_inner_product() {
        let a = StateVector::zero(2);
        let b = StateVector::basis("01".parse().unwrap());
        assert!(a.fidelity(&b) < TOL);
        assert!((a.fidelity(&a) - 1.0).abs() < TOL);
    }

    #[test]
    fn normalize_rescales() {
        let mut sv = StateVector::zero(1);
        sv.amps[0] = C64::real(2.0);
        sv.normalize();
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn from_amplitudes_validates() {
        let v = vec![
            C64::real(FRAC_1_SQRT_2),
            C64::ZERO,
            C64::ZERO,
            C64::real(FRAC_1_SQRT_2),
        ];
        let sv = StateVector::from_amplitudes(v);
        assert_eq!(sv.n_qubits(), 2);
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn from_amplitudes_rejects_unnormalized() {
        StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]);
    }

    #[test]
    fn rzz_phases_are_relative_only() {
        // Rzz on a basis state changes only global phase: probabilities fixed.
        let mut sv = StateVector::basis("11".parse().unwrap());
        sv.apply_gate(&Gate::Rzz {
            a: 0,
            b: 1,
            theta: 1.234,
        });
        assert!((sv.probability_of("11".parse().unwrap()) - 1.0).abs() < TOL);
    }

    #[test]
    fn two_qubit_gate_matches_composition() {
        // CZ = H(target) CX H(target)
        let mut c1 = Circuit::new(2);
        c1.h(0).h(1).cz(0, 1);
        let mut c2 = Circuit::new(2);
        c2.h(0).h(1).h(1).cx(0, 1).h(1);
        let a = StateVector::from_circuit(&c1);
        let b = StateVector::from_circuit(&c2);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-9);
    }
}
