//! Conditional likelihood vectors (CLVs) and per-branch transition
//! matrices in the exact memory layout the paper's kernels assume.
//!
//! A CLV holds, for every alignment pattern, `n_rates` discrete-rate
//! arrays of 4 floats (Figure 3): with Γ(4) that is 16 `f32` per pattern.
//! Storage is flat, pattern-major:
//! `data[((pattern * n_rates) + rate) * 4 + state]`.
//!
//! Buffers are 128-byte aligned — the boundary the Cell/BE DMA engine
//! requires (§3.3) and a friendly alignment for SIMD on any host.

use crate::dna::{StateMask, N_STATES};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

pub use crate::constants::CLV_ALIGN;

/// A heap buffer of `f32` guaranteed to start on a [`CLV_ALIGN`]-byte
/// boundary.
pub struct AlignedBuf {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: `ptr` is the sole pointer to a heap allocation created in
// `zeroed` and released only in `Drop`; no other copy of it escapes
// the struct (`as_slice`/`as_mut_slice` borrow `self`, tying every
// derived reference to the buffer's lifetime and to the borrow
// checker's shared-xor-mutable discipline). `f32` is `Send + Sync`,
// so moving the unique owner across threads (`Send`) or sharing
// `&AlignedBuf` — which only permits reads — between threads (`Sync`)
// has exactly the aliasing story of `Vec<f32>`.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocate `len` zeroed floats.
    pub fn zeroed(len: usize) -> AlignedBuf {
        if len == 0 {
            return AlignedBuf {
                ptr: std::ptr::NonNull::<f32>::dangling().as_ptr(),
                len: 0,
            };
        }
        let layout = Layout::from_size_align(len * std::mem::size_of::<f32>(), CLV_ALIGN)
            .expect("CLV layout overflow");
        // SAFETY: `len != 0` on this path, so `layout` has non-zero
        // size — the only precondition of `alloc_zeroed`. The null
        // return is handled below; alignment to CLV_ALIGN ≥ 4 makes
        // the cast to *mut f32 valid for the whole block.
        let ptr = unsafe { alloc_zeroed(layout) } as *mut f32;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        AlignedBuf { ptr, len }
    }

    /// Number of floats.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the buffer empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View as a shared slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `ptr`/`len` describe a live zero-initialized
        // allocation owned by `self` (or `NonNull::dangling` with
        // `len == 0`, which `from_raw_parts` permits). The returned
        // lifetime is tied to `&self`, so the slice cannot outlive the
        // buffer, and no `&mut` to it can coexist (shared borrow).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// View as a unique slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`, plus `&mut self` guarantees this
        // is the only live reference derived from `ptr` for the
        // returned lifetime — `ptr` never escapes the struct, so there
        // is no other path to the allocation to alias.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            let layout =
                Layout::from_size_align(self.len * std::mem::size_of::<f32>(), CLV_ALIGN).unwrap();
            // SAFETY: `len != 0` means `ptr` came from `alloc_zeroed`
            // in `zeroed` with this exact layout (`len` is immutable
            // after construction), has not been freed (Drop runs at
            // most once), and `Clone` allocates fresh storage rather
            // than sharing `ptr` — so this is the unique release.
            unsafe { dealloc(self.ptr as *mut u8, layout) };
        }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> AlignedBuf {
        let mut out = AlignedBuf::zeroed(self.len);
        out.as_mut_slice().copy_from_slice(self.as_slice());
        out
    }
}

impl std::ops::Deref for AlignedBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf").field("len", &self.len).finish()
    }
}

/// A conditional likelihood vector over `n_patterns` site patterns and
/// `n_rates` discrete rate categories.
#[derive(Debug, Clone)]
pub struct Clv {
    data: AlignedBuf,
    n_patterns: usize,
    n_rates: usize,
}

impl Clv {
    /// Allocate a zeroed CLV.
    pub fn zeroed(n_patterns: usize, n_rates: usize) -> Clv {
        assert!(n_rates >= 1);
        Clv {
            data: AlignedBuf::zeroed(n_patterns * n_rates * N_STATES),
            n_patterns,
            n_rates,
        }
    }

    /// Build a tip CLV from per-pattern observed states: admitted states
    /// get likelihood 1, others 0, replicated across rate categories —
    /// exactly how MrBayes initializes terminal likelihood vectors.
    pub fn tip(masks: &[StateMask], n_rates: usize) -> Clv {
        let mut clv = Clv::zeroed(masks.len(), n_rates);
        clv.fill_tip(masks);
        clv
    }

    /// Overwrite this CLV in place with the tip vector of `masks` (as
    /// [`Clv::tip`] builds it). Every float is written, so the previous
    /// contents do not matter.
    ///
    /// # Panics
    /// Panics if `masks.len()` differs from the pattern count.
    pub fn fill_tip(&mut self, masks: &[StateMask]) {
        assert_eq!(
            masks.len(),
            self.n_patterns,
            "tip masks must cover every pattern"
        );
        let stride = self.pattern_stride();
        for (pattern, mask) in self.data.as_mut_slice().chunks_exact_mut(stride).zip(masks) {
            let row: [f32; N_STATES] =
                std::array::from_fn(|s| if mask.admits(s) { 1.0 } else { 0.0 });
            for entry in pattern.chunks_exact_mut(N_STATES) {
                entry.copy_from_slice(&row);
            }
        }
    }

    /// Number of site patterns.
    #[inline]
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Number of rate categories.
    #[inline]
    pub fn n_rates(&self) -> usize {
        self.n_rates
    }

    /// Floats per pattern (`n_rates * 4`; 16 under Γ(4), as in Figure 3).
    #[inline]
    pub fn pattern_stride(&self) -> usize {
        self.n_rates * N_STATES
    }

    /// Flat view of the whole vector.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Flat mutable view of the whole vector.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Slice holding patterns `range.start..range.end`.
    pub fn patterns(&self, range: std::ops::Range<usize>) -> &[f32] {
        let s = self.pattern_stride();
        &self.as_slice()[range.start * s..range.end * s]
    }

    /// Mutable slice holding patterns `range.start..range.end`.
    pub fn patterns_mut(&mut self, range: std::ops::Range<usize>) -> &mut [f32] {
        let s = self.pattern_stride();
        &mut self.as_mut_slice()[range.start * s..range.end * s]
    }

    /// One (pattern, rate) 4-float state array.
    #[inline]
    pub fn entry(&self, pattern: usize, rate: usize) -> &[f32] {
        let base = (pattern * self.n_rates + rate) * N_STATES;
        &self.as_slice()[base..base + N_STATES]
    }

    /// Fill the whole CLV with a constant (useful in tests).
    pub fn fill(&mut self, v: f32) {
        for x in self.as_mut_slice() {
            *x = v;
        }
    }
}

/// Per-rate-category transition matrices for one branch, stored both
/// row-major (`P[i][j]` = prob i→j) and transposed.
///
/// The transpose exists for the same reason the paper computes it on the
/// Cell (§3.3): the column-wise SIMD kernel walks matrix columns, and a
/// pre-transposed copy turns that into unit-stride access.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrices {
    mats: Vec<[[f32; 4]; 4]>,
    transposed: Vec<[[f32; 4]; 4]>,
}

impl TransitionMatrices {
    /// Wrap per-rate matrices, computing the transposed copies.
    pub fn from_mats(mats: Vec<[[f32; 4]; 4]>) -> TransitionMatrices {
        let transposed = mats
            .iter()
            .map(|m| std::array::from_fn(|i| std::array::from_fn(|j| m[j][i])))
            .collect();
        TransitionMatrices { mats, transposed }
    }

    /// Number of rate categories.
    #[inline]
    pub fn n_rates(&self) -> usize {
        self.mats.len()
    }

    /// Row-major matrix for category `k`.
    #[inline]
    pub fn rate(&self, k: usize) -> &[[f32; 4]; 4] {
        &self.mats[k]
    }

    /// Transposed matrix for category `k` (column `j` of `P` is row `j`).
    #[inline]
    pub fn rate_transposed(&self, k: usize) -> &[[f32; 4]; 4] {
        &self.transposed[k]
    }

    /// All row-major matrices.
    #[inline]
    pub fn mats(&self) -> &[[[f32; 4]; 4]] {
        &self.mats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::Nucleotide;

    #[test]
    fn aligned_buf_alignment_and_zeroing() {
        for len in [1usize, 3, 64, 1000] {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.len(), len);
            assert_eq!(b.as_slice().as_ptr() as usize % CLV_ALIGN, 0);
            assert!(b.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn aligned_buf_zero_len() {
        let b = AlignedBuf::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[] as &[f32]);
        let _ = b.clone();
    }

    #[test]
    fn aligned_buf_clone_is_deep() {
        let mut a = AlignedBuf::zeroed(8);
        a[0] = 42.0;
        let b = a.clone();
        a[0] = 0.0;
        assert_eq!(b[0], 42.0);
    }

    // The next three tests are the Miri smoke surface for the raw
    // allocator (`scripts/verify.sh --deep` runs
    // `cargo +nightly miri test -p plf-phylo clv`): they exercise the
    // alloc/dealloc layout round-trip, the aliasing discipline of
    // `as_slice`/`as_mut_slice`, and Drop-after-Clone uniqueness,
    // which Miri checks against the tree-borrows/provenance rules.

    #[test]
    fn aligned_buf_layout_roundtrip_many_sizes() {
        for len in [1usize, 2, 31, 32, 257, 1023] {
            let mut b = AlignedBuf::zeroed(len);
            b.as_mut_slice()[0] = -1.0;
            b.as_mut_slice()[len - 1] = len as f32; // overwrites [0] when len == 1
            let c = b.clone();
            drop(b); // dealloc with the construction layout
            assert_eq!(c.as_slice()[len - 1], len as f32);
            assert_eq!(c.as_slice()[0], if len == 1 { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn aligned_buf_aliasing_discipline() {
        let mut b = AlignedBuf::zeroed(16);
        {
            let w = b.as_mut_slice();
            w[3] = 7.0;
        } // unique borrow ends before any shared one starts
        let r1 = b.as_slice();
        let r2 = b.as_slice(); // two simultaneous shared views are fine
        assert_eq!(r1[3], r2[3]);
        let w = b.as_mut_slice(); // and a fresh unique view after both
        w[3] += 1.0;
        assert_eq!(b.as_slice()[3], 8.0);
    }

    #[test]
    fn aligned_buf_drop_after_clone_frees_distinct_allocations() {
        let mut a = AlignedBuf::zeroed(64);
        a.as_mut_slice().fill(2.5);
        let b = a.clone();
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        drop(a);
        assert!(b.as_slice().iter().all(|&x| x == 2.5));
        drop(b);
    }

    #[test]
    fn clv_layout_stride() {
        let clv = Clv::zeroed(10, 4);
        assert_eq!(clv.pattern_stride(), 16);
        assert_eq!(clv.as_slice().len(), 160);
        assert_eq!(clv.patterns(2..5).len(), 48);
    }

    #[test]
    fn tip_clv_determined_site() {
        let masks = vec![StateMask::of(Nucleotide::G)];
        let clv = Clv::tip(&masks, 4);
        for r in 0..4 {
            let e = clv.entry(0, r);
            assert_eq!(e, &[0.0, 0.0, 1.0, 0.0]);
        }
    }

    #[test]
    fn tip_clv_ambiguous_site() {
        let masks = vec![StateMask::from_iupac('R').unwrap()]; // A|G
        let clv = Clv::tip(&masks, 2);
        for r in 0..2 {
            assert_eq!(clv.entry(0, r), &[1.0, 0.0, 1.0, 0.0]);
        }
    }

    #[test]
    fn tip_clv_gap_is_all_ones() {
        let clv = Clv::tip(&[StateMask::ANY], 4);
        assert!(clv.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn transition_matrices_transpose() {
        let m = [[1.0, 2.0, 3.0, 4.0],
                 [5.0, 6.0, 7.0, 8.0],
                 [9.0, 10.0, 11.0, 12.0],
                 [13.0, 14.0, 15.0, 16.0f32]];
        let tm = TransitionMatrices::from_mats(vec![m]);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(tm.rate_transposed(0)[i][j], m[j][i]);
            }
        }
    }
}
