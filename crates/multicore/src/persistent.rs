//! Persistent-worker backend — the paper's TFlux suggestion.
//!
//! §4.1.1 observes that OpenMP's per-region spawn/join overhead limits
//! fine-grain scalability and suggests exploring "implementations that
//! are more efficient (e.g. the TFlux model, which has minimal
//! synchronization and runtime overheads)". Every multicore backend now
//! runs on a resident worker team (see [`crate::backend`]); this one
//! adds TFlux-style self-scheduling on top: each call is cut into
//! fixed 256-pattern chunks that the team claims off one atomic index
//! as threads free up, instead of one static chunk per thread.

use crate::backend::{Chunking, RayonBackend};
use plf_phylo::clv::{Clv, TransitionMatrices};
use plf_phylo::kernels::{FusedDown, FusedRoot, FusedScale, PlfBackend, SimdSchedule};
use plf_phylo::metrics::PlfCounters;
use plf_phylo::resilience::PlfError;
use std::sync::Arc;

/// Persistent-thread-pool PLF backend with TFlux-style self-scheduling:
/// the [`RayonBackend`] path with self-scheduled chunks.
pub struct PersistentPoolBackend(RayonBackend);

impl PersistentPoolBackend {
    /// Build a team of `n_threads` (the caller plus `n_threads - 1`
    /// resident OS threads) using the column-wise SIMD kernels.
    ///
    /// # Panics
    ///
    /// If `n_threads` is 0 or a worker thread cannot be spawned.
    pub fn new(n_threads: usize) -> PersistentPoolBackend {
        let backend = RayonBackend::with_chunking(
            n_threads,
            Some(SimdSchedule::ColWise),
            Chunking::SelfScheduled,
        );
        PersistentPoolBackend(
            backend.expect("persistent pool needs n_threads >= 1 and spawnable workers"),
        )
    }

    /// Attach shared observability counters (per-kernel invocations,
    /// patterns, wall time, rescale events).
    pub fn with_metrics(self, counters: Arc<PlfCounters>) -> PersistentPoolBackend {
        PersistentPoolBackend(self.0.with_metrics(counters))
    }

    /// Number of threads participating in each call.
    pub fn n_threads(&self) -> usize {
        self.0.n_threads()
    }
}

impl PlfBackend for PersistentPoolBackend {
    fn name(&self) -> String {
        format!("persistent-{}", self.n_threads())
    }

    fn begin_evaluation(&mut self) {
        self.0.begin_evaluation();
    }

    fn preferred_batch_patterns(&self, n_rates: usize) -> usize {
        self.0.preferred_batch_patterns(n_rates)
    }

    fn cond_like_down(
        &mut self,
        left: &Clv,
        p_left: &TransitionMatrices,
        right: &Clv,
        p_right: &TransitionMatrices,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        self.0.cond_like_down(left, p_left, right, p_right, out)
    }

    fn cond_like_root(
        &mut self,
        a: &Clv,
        p_a: &TransitionMatrices,
        b: &Clv,
        p_b: &TransitionMatrices,
        c: Option<(&Clv, &TransitionMatrices)>,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        self.0.cond_like_root(a, p_a, b, p_b, c, out)
    }

    fn cond_like_scaler(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<(), PlfError> {
        self.0.cond_like_scaler(clv, ln_scalers)
    }

    fn cond_like_down_fused(&mut self, ops: &mut [FusedDown<'_>]) -> Result<(), PlfError> {
        self.0.cond_like_down_fused(ops)
    }

    fn cond_like_root_fused(&mut self, ops: &mut [FusedRoot<'_>]) -> Result<(), PlfError> {
        self.0.cond_like_root_fused(ops)
    }

    fn cond_like_scaler_fused(&mut self, ops: &mut [FusedScale<'_>]) -> Result<(), PlfError> {
        self.0.cond_like_scaler_fused(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CHUNK_PATTERNS;
    use plf_phylo::alignment::Alignment;
    use plf_phylo::kernels::ScalarBackend;
    use plf_phylo::likelihood::TreeLikelihood;
    use plf_phylo::model::{GtrParams, SiteModel};
    use plf_phylo::tree::Tree;

    fn toy() -> (Tree, plf_phylo::alignment::PatternAlignment, SiteModel) {
        let tree = Tree::from_newick(
            "(((a:0.1,b:0.15):0.1,(c:0.2,d:0.1):0.05):0.1,(e:0.1,f:0.3):0.1,g:0.2);",
        )
        .unwrap();
        // > CHUNK_PATTERNS distinct patterns so multiple chunks exist.
        let mut rows = vec![String::new(); 7];
        let bases = ['A', 'C', 'G', 'T'];
        let mut h: u64 = 0x243F6A8885A308D3;
        for _ in 0..600usize {
            for row in rows.iter_mut() {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                row.push(bases[(h >> 33) as usize % 4]);
            }
        }
        let named: Vec<(&str, &str)> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .zip(rows.iter())
            .map(|(n, r)| (*n, r.as_str()))
            .collect();
        let aln = Alignment::from_strings(&named).unwrap().compress();
        let model = SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.6).unwrap();
        (tree, aln, model)
    }

    #[test]
    fn matches_scalar_bitwise() {
        let (tree, aln, model) = toy();
        assert!(aln.n_patterns() > CHUNK_PATTERNS, "need multiple chunks");
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        for threads in [1usize, 2, 4] {
            let mut backend = PersistentPoolBackend::new(threads);
            let mut eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
            let got = eval.log_likelihood(&tree, &mut backend).unwrap();
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn repeated_evaluations_stay_consistent() {
        let (tree, aln, model) = toy();
        let mut backend = PersistentPoolBackend::new(3);
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let first = eval.log_likelihood(&tree, &mut backend).unwrap();
        for _ in 0..10 {
            assert_eq!(eval.log_likelihood(&tree, &mut backend).unwrap(), first);
        }
    }

    #[test]
    fn tiny_inputs_single_chunk() {
        let tree = Tree::from_newick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);").unwrap();
        let aln = Alignment::from_strings(&[
            ("a", "ACGT"),
            ("b", "ACGA"),
            ("c", "ACGT"),
            ("d", "ATGT"),
        ])
        .unwrap()
        .compress();
        let model = SiteModel::jc69();
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let mut backend = PersistentPoolBackend::new(8);
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        assert_eq!(eval.log_likelihood(&tree, &mut backend).unwrap(), expect);
    }
}
