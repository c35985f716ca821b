//! In-place fast Walsh–Hadamard transform.
//!
//! The SRHT measurement backend (DESIGN.md §13) applies Φ = R·H·D without
//! ever materializing H: a length-`n` apply is one sign flip, one in-place
//! FWHT, and one row gather. `H` here is the *unnormalized* Hadamard matrix
//! (entries ±1, `H·H = n·I`), defined by the Sylvester recursion; entry
//! `(i, j)` is `(-1)^popcount(i & j)`.
//!
//! The transform is the butterfly network of the textbook loop (stage spans
//! `h = 1, 2, 4, …, n/2`, in that order), restructured three ways that
//! change only the traversal, never an operand pairing or an operation:
//!
//! - **Radix 4.** Stages `h` and `2h` run in one sweep over the same four
//!   operands `(x[i], x[i+h], x[i+2h], x[i+3h])`, halving the passes over
//!   memory. An odd `log2 n` finishes with one radix-2 stage. The wide
//!   pass goes further: four stages per sweep over 16 rows, as two radix-4
//!   steps on one cache-resident column tile at a time.
//! - **Cache blocking.** The array is viewed as `n / CACHE_BLOCK` rows of
//!   [`CACHE_BLOCK`] elements. Every stage with `h < CACHE_BLOCK` stays
//!   inside one row, so [`fwht_block`] runs them row by row while the row
//!   is L1-resident (the *narrow pass*). The remaining stages pair row `r`
//!   with row `r + h/CACHE_BLOCK` at the same column, so [`fwht_across`]
//!   runs them as stride-1 row-against-row butterflies (the *wide pass*).
//! - **Column split.** For a fixed column the wide pass touches no other
//!   column, so any partition of the columns into strips — each strip a
//!   set of plain `&mut` sub-slices, one per row — can run on its own
//!   worker. The narrow pass splits over disjoint rows. `cso-core` drives
//!   both splits on its recovery executor; [`fwht`] is the same two passes
//!   on the calling thread.
//!
//! On x86-64 both passes dispatch at runtime to an AVX2 build of the same
//! loops (`is_x86_feature_detected!`). It uses add and sub only — never
//! FMA — in the textbook operand order, so every output bit equals the
//! textbook loop's; the tests pin that for every `n = 2^0 … 2^20`.

/// Width of one row of the blocked transform: stages with span below it
/// run row by row while the row is cache-resident. 4096 doubles = 32 KiB,
/// inside a typical 48 KiB L1d.
pub const CACHE_BLOCK: usize = 1 << 12;

/// In-place unnormalized Walsh–Hadamard transform of a power-of-two-length
/// slice, on the calling thread. Applying it twice multiplies the input by
/// `data.len()`.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (zero included).
pub fn fwht(data: &mut [f64]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fwht length {n} is not a power of two");
    let block = CACHE_BLOCK.min(n);
    for row in data.chunks_mut(block) {
        fwht_block(row);
    }
    if n > block {
        let mut rows: Vec<&mut [f64]> = data.chunks_mut(block).collect();
        fwht_across(&mut rows);
    }
}

/// The narrow pass: the complete transform of one power-of-two slice, all
/// stages in textbook order. [`fwht`] calls it on rows of at most
/// [`CACHE_BLOCK`] elements, where it runs out of L1.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fwht_block(data: &mut [f64]) {
    assert!(data.len().is_power_of_two(), "fwht length {} is not a power of two", data.len());
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = x86::Avx2::detect() {
        token.block(data);
        return;
    }
    block_stages(&Scalar, data);
}

/// The wide pass: for every column `c`, the Hadamard transform of the
/// column vector `(rows[0][c], rows[1][c], …)`, stages in textbook order.
/// After [`fwht_block`] on each row of a row-major `rows.len() × w` array,
/// this completes the transform of the whole array; run on a strip of
/// columns (each row's sub-slice `[c0, c1)`), it completes the transform
/// for exactly those columns.
///
/// # Panics
///
/// Panics if `rows.len()` is not a power of two or the rows differ in
/// length.
pub fn fwht_across(rows: &mut [&mut [f64]]) {
    assert!(rows.len().is_power_of_two(), "fwht row count {} is not a power of two", rows.len());
    let w = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == w), "fwht rows must have equal length");
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = x86::Avx2::detect() {
        token.across(rows);
        return;
    }
    across_stages(&Scalar, rows);
}

/// The butterfly primitives both passes are scheduled from. Each one is a
/// fixed sequence of adds and subs per element, so every implementation
/// must produce the same bits.
trait Butterflies {
    /// Stages `h` and `2h` on four equal-length quarters `q0..q3` of a
    /// `4h` block: with `a0 = x0+x1, a1 = x0−x1, a2 = x2+x3, a3 = x2−x3`,
    /// writes `(a0+a2, a1+a3, a0−a2, a1−a3)`.
    fn radix4(&self, q0: &mut [f64], q1: &mut [f64], q2: &mut [f64], q3: &mut [f64]);
    /// One stage on two equal halves: `(x, y) → (x+y, x−y)`.
    fn radix2(&self, lo: &mut [f64], hi: &mut [f64]);
    /// Stages 1 and 2 on every aligned quad of `data` (`len % 4 == 0`).
    fn quads(&self, data: &mut [f64]) {
        for quad in data.chunks_exact_mut(4) {
            let (q0, rest) = quad.split_at_mut(1);
            let (q1, rest) = rest.split_at_mut(1);
            let (q2, q3) = rest.split_at_mut(1);
            self.radix4(q0, q1, q2, q3);
        }
    }
}

/// The stage schedule of the narrow pass: radix-4 sweeps at
/// `h = 1, 4, 16, …`, then one radix-2 stage when `log2 n` is odd.
#[inline(always)]
fn block_stages<B: Butterflies>(b: &B, data: &mut [f64]) {
    let n = data.len();
    let mut h = 1;
    if n >= 4 {
        b.quads(data);
        h = 4;
    }
    while 4 * h <= n {
        for block in data.chunks_exact_mut(4 * h) {
            let (q0, rest) = block.split_at_mut(h);
            let (q1, rest) = rest.split_at_mut(h);
            let (q2, q3) = rest.split_at_mut(h);
            b.radix4(q0, q1, q2, q3);
        }
        h *= 4;
    }
    if h < n {
        for block in data.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            b.radix2(lo, hi);
        }
    }
}

/// Columns of one radix-16 tile of the wide pass: 16 row segments of 1 KiB
/// stay cache-resident across the tile's two radix-4 steps.
const TILE: usize = 128;

/// The stage schedule of the wide pass: radix-16 sweeps (stages `h` to
/// `8h`, as two radix-4 steps per column tile), then the narrow schedule's
/// radix-4 and radix-2 stages, with rows in place of elements.
#[inline(always)]
fn across_stages<B: Butterflies>(b: &B, rows: &mut [&mut [f64]]) {
    let n = rows.len();
    let w = rows[0].len();
    let mut h = 1;
    while 16 * h <= n {
        for group in rows.chunks_exact_mut(16 * h) {
            let mut sixteenths = group.chunks_exact_mut(h);
            let mut parts: [&mut [&mut [f64]]; 16] =
                std::array::from_fn(|_| sixteenths.next().expect("16 equal parts"));
            for r in 0..h {
                let mut part = parts.iter_mut();
                let mut tile: [&mut [f64]; 16] =
                    std::array::from_fn(|_| &mut *part.next().expect("16 parts")[r]);
                for t in (0..w).step_by(TILE) {
                    radix16(b, &mut tile, t, (t + TILE).min(w));
                }
            }
        }
        h *= 16;
    }
    while 4 * h <= n {
        for group in rows.chunks_exact_mut(4 * h) {
            let (q0, rest) = group.split_at_mut(h);
            let (q1, rest) = rest.split_at_mut(h);
            let (q2, q3) = rest.split_at_mut(h);
            for (((r0, r1), r2), r3) in q0.iter_mut().zip(q1).zip(q2).zip(q3) {
                b.radix4(r0, r1, r2, r3);
            }
        }
        h *= 4;
    }
    if h < n {
        for group in rows.chunks_exact_mut(2 * h) {
            let (lo, hi) = group.split_at_mut(h);
            for (r0, r1) in lo.iter_mut().zip(hi) {
                b.radix2(r0, r1);
            }
        }
    }
}

/// Stages `h`, `2h`, `4h`, `8h` on columns `[t, e)` of 16 rows spaced `h`
/// apart: radix-4 over rows at distance 1 (stages `h`, `2h`), then over rows
/// at distance 4 (stages `4h`, `8h`).
#[inline(always)]
fn radix16<B: Butterflies>(b: &B, rows: &mut [&mut [f64]; 16], t: usize, e: usize) {
    let [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15] = rows;
    b.radix4(&mut r0[t..e], &mut r1[t..e], &mut r2[t..e], &mut r3[t..e]);
    b.radix4(&mut r4[t..e], &mut r5[t..e], &mut r6[t..e], &mut r7[t..e]);
    b.radix4(&mut r8[t..e], &mut r9[t..e], &mut r10[t..e], &mut r11[t..e]);
    b.radix4(&mut r12[t..e], &mut r13[t..e], &mut r14[t..e], &mut r15[t..e]);
    b.radix4(&mut r0[t..e], &mut r4[t..e], &mut r8[t..e], &mut r12[t..e]);
    b.radix4(&mut r1[t..e], &mut r5[t..e], &mut r9[t..e], &mut r13[t..e]);
    b.radix4(&mut r2[t..e], &mut r6[t..e], &mut r10[t..e], &mut r14[t..e]);
    b.radix4(&mut r3[t..e], &mut r7[t..e], &mut r11[t..e], &mut r15[t..e]);
}

/// Portable butterflies; also the fallback on hosts without AVX2.
struct Scalar;

impl Butterflies for Scalar {
    #[inline(always)]
    fn radix4(&self, q0: &mut [f64], q1: &mut [f64], q2: &mut [f64], q3: &mut [f64]) {
        for (((p0, p1), p2), p3) in q0.iter_mut().zip(q1).zip(q2).zip(q3) {
            let (a0, a1) = (*p0 + *p1, *p0 - *p1);
            let (a2, a3) = (*p2 + *p3, *p2 - *p3);
            *p0 = a0 + a2;
            *p1 = a1 + a3;
            *p2 = a0 - a2;
            *p3 = a1 - a3;
        }
    }

    #[inline(always)]
    fn radix2(&self, lo: &mut [f64], hi: &mut [f64]) {
        for (a, b) in lo.iter_mut().zip(hi) {
            let (x, y) = (*a, *b);
            *a = x + y;
            *b = x - y;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{across_stages, block_stages, Butterflies};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blend_pd, _mm256_loadu_pd, _mm256_permute2f128_pd,
        _mm256_permute_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// Proof that the running CPU supports AVX2: the only way to obtain
    /// one is [`Avx2::detect`], so every method may call the
    /// `#[target_feature(enable = "avx2")]` kernels below.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// `Some` exactly when the CPU reports AVX2 at runtime.
        #[inline]
        pub(super) fn detect() -> Option<Avx2> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        /// The narrow pass, with the whole schedule compiled for AVX2.
        pub(super) fn block(self, data: &mut [f64]) {
            // SAFETY: `self` exists only after `detect` saw AVX2.
            unsafe { block_avx2(self, data) }
        }

        /// The wide pass, with the whole schedule compiled for AVX2.
        pub(super) fn across(self, rows: &mut [&mut [f64]]) {
            // SAFETY: `self` exists only after `detect` saw AVX2.
            unsafe { across_avx2(self, rows) }
        }
    }

    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    unsafe fn block_avx2(token: Avx2, data: &mut [f64]) {
        block_stages(&token, data);
    }

    /// # Safety
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    unsafe fn across_avx2(token: Avx2, rows: &mut [&mut [f64]]) {
        across_stages(&token, rows);
    }

    impl Butterflies for Avx2 {
        #[inline(always)]
        fn radix4(&self, q0: &mut [f64], q1: &mut [f64], q2: &mut [f64], q3: &mut [f64]) {
            // SAFETY: AVX2 is present (see `Avx2`).
            unsafe { radix4_avx2(q0, q1, q2, q3) }
        }

        #[inline(always)]
        fn radix2(&self, lo: &mut [f64], hi: &mut [f64]) {
            // SAFETY: AVX2 is present (see `Avx2`).
            unsafe { radix2_avx2(lo, hi) }
        }

        #[inline(always)]
        fn quads(&self, data: &mut [f64]) {
            // SAFETY: AVX2 is present (see `Avx2`).
            unsafe { quads_avx2(data) }
        }
    }

    /// Four-lane radix-4 butterflies over the common length of the
    /// quarters, scalar tail.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn radix4_avx2(q0: &mut [f64], q1: &mut [f64], q2: &mut [f64], q3: &mut [f64]) {
        // Every pointer access below stays under `len`, the shortest slice.
        let len = q0.len().min(q1.len()).min(q2.len()).min(q3.len());
        let (p0, p1, p2, p3) = (q0.as_mut_ptr(), q1.as_mut_ptr(), q2.as_mut_ptr(), q3.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let x0 = _mm256_loadu_pd(p0.add(i));
            let x1 = _mm256_loadu_pd(p1.add(i));
            let x2 = _mm256_loadu_pd(p2.add(i));
            let x3 = _mm256_loadu_pd(p3.add(i));
            let a0 = _mm256_add_pd(x0, x1);
            let a1 = _mm256_sub_pd(x0, x1);
            let a2 = _mm256_add_pd(x2, x3);
            let a3 = _mm256_sub_pd(x2, x3);
            _mm256_storeu_pd(p0.add(i), _mm256_add_pd(a0, a2));
            _mm256_storeu_pd(p1.add(i), _mm256_add_pd(a1, a3));
            _mm256_storeu_pd(p2.add(i), _mm256_sub_pd(a0, a2));
            _mm256_storeu_pd(p3.add(i), _mm256_sub_pd(a1, a3));
            i += 4;
        }
        super::Scalar.radix4(&mut q0[i..], &mut q1[i..], &mut q2[i..], &mut q3[i..]);
    }

    /// Four-lane radix-2 butterflies over the common length of the halves,
    /// scalar tail.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn radix2_avx2(lo: &mut [f64], hi: &mut [f64]) {
        // Every pointer access below stays under `len`, the shorter slice.
        let len = lo.len().min(hi.len());
        let (pl, ph) = (lo.as_mut_ptr(), hi.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= len {
            let x = _mm256_loadu_pd(pl.add(i));
            let y = _mm256_loadu_pd(ph.add(i));
            _mm256_storeu_pd(pl.add(i), _mm256_add_pd(x, y));
            _mm256_storeu_pd(ph.add(i), _mm256_sub_pd(x, y));
            i += 4;
        }
        super::Scalar.radix2(&mut lo[i..], &mut hi[i..]);
    }

    /// Stages 1 and 2 inside each register-wide quad `[x0, x1, x2, x3]`.
    /// Every kept lane computes its textbook operation with the textbook
    /// operand order (`x0 + x1`, `x0 − x1`, …), so the bits match.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quads_avx2(data: &mut [f64]) {
        let p = data.as_mut_ptr();
        let mut i = 0;
        // Whole quads only, like `chunks_exact(4)` in the portable build.
        while i + 4 <= data.len() {
            let x: __m256d = _mm256_loadu_pd(p.add(i));
            // Stage 1: pairs (0,1), (2,3). `sw` = [x1, x0, x3, x2].
            let sw = _mm256_permute_pd::<0b0101>(x);
            let sum = _mm256_add_pd(x, sw); // lanes 0, 2: x0+x1, x2+x3
            let dif = _mm256_sub_pd(sw, x); // lanes 1, 3: x0−x1, x2−x3
            let a = _mm256_blend_pd::<0b1010>(sum, dif);
            // Stage 2: pairs (0,2), (1,3). `hl` = [a2, a3, a0, a1].
            let hl = _mm256_permute2f128_pd::<0x01>(a, a);
            let sum = _mm256_add_pd(a, hl); // lanes 0, 1: a0+a2, a1+a3
            let dif = _mm256_sub_pd(hl, a); // lanes 2, 3: a0−a2, a1−a3
            _mm256_storeu_pd(p.add(i), _mm256_blend_pd::<0b1100>(sum, dif));
            i += 4;
        }
    }
}

/// One stage of the textbook loop: for every pair `(x, y)` at distance `h`,
/// `(x+y, x−y)`. The tests' bit-level oracle is this stage for
/// `h = 1, 2, 4, …`, unblocked.
#[cfg(test)]
fn butterfly_stage(data: &mut [f64], h: usize) {
    for block in data.chunks_exact_mut(h * 2) {
        let (lo, hi) = block.split_at_mut(h);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *a;
            let y = *b;
            *a = x + y;
            *b = x - y;
        }
    }
}

/// Entry `(row, col)` of the unnormalized Hadamard matrix: ±1.0 by the
/// parity of `popcount(row & col)`. Lets callers read single matrix
/// entries (e.g. `column_into` on the SRHT backend) in O(1).
#[inline]
pub fn hadamard_sign(row: u64, col: u64) -> f64 {
    if (row & col).count_ones() & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Smallest power of two `>= n` (and `>= 1`). Used by the SRHT backend to
/// pick its internal padded length.
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// O(n²) reference: y[i] = Σ_j (-1)^popcount(i&j) x[j].
    fn naive_hadamard(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n).map(|i| (0..n).map(|j| hadamard_sign(i as u64, j as u64) * x[j]).sum()).collect()
    }

    /// The textbook radix-2 loop, no blocking: the bit-level oracle every
    /// other traversal must reproduce.
    fn textbook(data: &mut [f64]) {
        let mut h = 1;
        while h < data.len() {
            butterfly_stage(data, h);
            h <<= 1;
        }
    }

    /// The blocked transform run on `strips` column strips of the wide
    /// pass, each strip handled as one worker would handle it. Strip
    /// counts above the row width leave trailing workers idle.
    fn split(data: &mut [f64], strips: usize, scalar: bool) {
        let n = data.len();
        let block = CACHE_BLOCK.min(n);
        for row in data.chunks_mut(block) {
            if scalar {
                block_stages(&Scalar, row);
            } else {
                fwht_block(row);
            }
        }
        if n > block {
            let width = block.div_ceil(strips);
            let mut tasks: Vec<Vec<&mut [f64]>> = (0..strips).map(|_| Vec::new()).collect();
            for row in data.chunks_mut(block) {
                for (task, piece) in tasks.iter_mut().zip(row.chunks_mut(width)) {
                    task.push(piece);
                }
            }
            for task in tasks.iter_mut().filter(|t| !t.is_empty()) {
                if scalar {
                    across_stages(&Scalar, task);
                } else {
                    fwht_across(task);
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for log_n in 0..=10 {
            let n = 1usize << log_n;
            let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let mut y = x.clone();
            fwht(&mut y);
            let want = naive_hadamard(&x);
            // The butterfly network sums in a different order than the
            // naive scan, so compare to within accumulation round-off.
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-9 * n as f64, "n = {n} i = {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn self_inverse_up_to_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        for log_n in 0..=14 {
            let n = 1usize << log_n;
            let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let mut y = x.clone();
            fwht(&mut y);
            fwht(&mut y);
            for (a, b) in y.iter().zip(&x) {
                assert!(
                    (a - n as f64 * b).abs() <= 1e-9 * n as f64 * b.abs().max(1.0),
                    "n = {n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn blocking_is_bit_identical_to_unblocked() {
        // The textbook single-loop transform, no cache blocking.
        fn plain(data: &mut [f64]) {
            let n = data.len();
            let mut h = 1;
            while h < n {
                butterfly_stage(data, h);
                h <<= 1;
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        // Cross the CACHE_BLOCK boundary so both code paths execute.
        let n = CACHE_BLOCK * 4;
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut a = x.clone();
        let mut b = x;
        fwht(&mut a);
        plain(&mut b);
        assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    /// Radix-4, AVX2 dispatch, cache blocking and every column split equal
    /// the textbook loop bit for bit at every size up to 2^20: odd and even
    /// `log2 n`, lengths below one block, and strip counts above the row
    /// count or the row width.
    #[test]
    fn every_traversal_is_bit_identical_to_textbook() {
        let mut rng = StdRng::seed_from_u64(3);
        for log_n in 0..=20 {
            let n = 1usize << log_n;
            let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let mut want = x.clone();
            textbook(&mut want);
            let want = bits(&want);
            let mut got = x.clone();
            fwht(&mut got);
            assert!(bits(&got) == want, "fwht, n = {n}");
            for strips in [1, 2, 8] {
                for scalar in [false, true] {
                    let mut got = x.clone();
                    split(&mut got, strips, scalar);
                    assert!(bits(&got) == want, "n = {n}, strips = {strips}, scalar = {scalar}");
                }
            }
        }
    }

    #[test]
    fn signed_zeros_and_specials_follow_textbook() {
        // Equal operands make `x − y` a signed zero, where a lane computing
        // `−(y − x)` would differ; infinities and NaN propagate per lane.
        let patterns: [&[f64]; 4] = [
            &[1.0, 1.0, -0.0, 0.0, 2.0, 2.0, 2.0, 2.0],
            &[0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0],
            &[f64::INFINITY, 1.0, f64::NEG_INFINITY, -1.0, 3.0, 3.0, -3.0, 3.0],
            &[5.0, -5.0, 5.0, 5.0, 1e300, 1e300, -1e300, 1e-300],
        ];
        for p in patterns {
            let x: Vec<f64> = p.iter().cycle().take(64).copied().collect();
            let mut want = x.clone();
            textbook(&mut want);
            let mut got = x.clone();
            fwht(&mut got);
            assert_eq!(bits(&got), bits(&want), "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        fwht(&mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn across_rejects_non_power_of_two_rows() {
        let mut a = [0.0; 2];
        let mut b = [0.0; 2];
        let mut c = [0.0; 2];
        fwht_across(&mut [&mut a[..], &mut b[..], &mut c[..]]);
    }

    #[test]
    fn next_pow2_boundaries() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4096), 4096);
        assert_eq!(next_pow2(4097), 8192);
    }
}
