//! The multicore PLF backends — the OpenMP analogue — on one resident
//! worker team.
//!
//! §3.2 of the paper: "parallelize the outermost loop, thus reducing the
//! parallelization overheads", with one static chunk per core. We do the
//! same: each call's pattern loop is cut into contiguous chunks, each
//! processed by the scalar/SIMD range kernels, and the chunks run on a
//! rayon pool whose threads stay resident between calls, like an OpenMP
//! thread team. [`RayonBackend`] cuts one chunk per thread (the static
//! schedule); [`PersistentPoolBackend`](crate::PersistentPoolBackend)
//! runs the same path with fixed-size chunks the team self-schedules.

use plf_phylo::clv::{Clv, TransitionMatrices};
use plf_phylo::dna::N_STATES;
use plf_phylo::kernels::{scalar, simd4, FusedDown, FusedRoot, FusedScale, PlfBackend, SimdSchedule};
use plf_phylo::metrics::{Kernel, KernelTimer, PlfCounters};
use plf_phylo::resilience::{FaultInjector, FaultSite, PlfError};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Patterns per self-scheduled chunk, and per thread in a preferred
/// fused work unit: small enough to balance load and stay in cache,
/// large enough that claiming a chunk costs next to nothing.
pub(crate) const CHUNK_PATTERNS: usize = 256;

/// How a call's patterns are cut into pool items.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Chunking {
    /// One contiguous chunk per thread: OpenMP's static schedule.
    PerThread,
    /// [`CHUNK_PATTERNS`]-pattern chunks, claimed as threads free up:
    /// §4.1.1's TFlux-style self-scheduling.
    SelfScheduled,
}

/// Parallel host backend over a dedicated resident rayon pool.
pub struct RayonBackend {
    pool: rayon::ThreadPool,
    n_threads: usize,
    schedule: Option<SimdSchedule>,
    chunking: Chunking,
    injector: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<PlfCounters>>,
}

impl RayonBackend {
    /// Build a backend with `n_threads` worker threads using the
    /// column-wise SIMD kernels (bitwise-identical to the scalar
    /// reference).
    pub fn new(n_threads: usize) -> Result<RayonBackend, PlfError> {
        RayonBackend::with_kernel(n_threads, Some(SimdSchedule::ColWise))
    }

    /// Choose the kernel: `None` = scalar reference, `Some(schedule)` =
    /// 4-wide SIMD.
    pub fn with_kernel(
        n_threads: usize,
        schedule: Option<SimdSchedule>,
    ) -> Result<RayonBackend, PlfError> {
        RayonBackend::with_chunking(n_threads, schedule, Chunking::PerThread)
    }

    /// Build with an explicit chunk schedule (see [`Chunking`]).
    pub(crate) fn with_chunking(
        n_threads: usize,
        schedule: Option<SimdSchedule>,
        chunking: Chunking,
    ) -> Result<RayonBackend, PlfError> {
        if n_threads == 0 {
            return Err(PlfError::Config(
                "rayon backend needs at least one thread".into(),
            ));
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n_threads)
            .build()
            .map_err(|e| PlfError::Config(format!("thread pool construction: {e}")))?;
        Ok(RayonBackend {
            pool,
            n_threads,
            schedule,
            chunking,
            injector: None,
            metrics: None,
        })
    }

    /// Attach a fault injector (worker panics, output corruption).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> RayonBackend {
        self.injector = Some(injector);
        self
    }

    /// Attach shared observability counters (per-kernel invocations,
    /// patterns, wall time, rescale events).
    pub fn with_metrics(mut self, counters: Arc<PlfCounters>) -> RayonBackend {
        self.metrics = Some(counters);
        self
    }

    /// Number of worker threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Patterns per chunk for a call over `total_m` patterns.
    fn chunk_patterns(&self, total_m: usize) -> usize {
        match self.chunking {
            Chunking::PerThread => total_m.div_ceil(self.n_threads).max(1),
            Chunking::SelfScheduled => CHUNK_PATTERNS,
        }
    }

    /// Run `kernel` on every chunk task, on the pool. The worker-panic
    /// fault is rolled before entering the pool and delivered inside
    /// task 0, so the panic genuinely crosses the pool boundary.
    fn run<T: Send>(&self, tasks: Vec<T>, kernel: impl Fn(T) + Sync) {
        let panic_armed = self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.fire(FaultSite::Worker));
        self.pool.install(|| {
            tasks.into_par_iter().enumerate().for_each(|(ti, task)| {
                if panic_armed && ti == 0 {
                    // The injected worker fault is a panic by definition;
                    // the pool re-raises it on the caller, where the
                    // resilient wrapper catches it.
                    // plf-lint: allow(L2) — deliberate fault injection
                    panic!("injected fault: rayon worker panic");
                }
                kernel(task);
            })
        });
    }

    /// Roll and apply output corruption after the parallel section.
    fn maybe_corrupt(&self, out: &mut [f32]) {
        if let Some(inj) = &self.injector {
            if let Some(kind) = inj.fire_corruption() {
                inj.corrupt(out, kind);
            }
        }
    }
}

impl PlfBackend for RayonBackend {
    fn name(&self) -> String {
        format!("rayon-{}", self.n_threads)
    }

    fn begin_evaluation(&mut self) {
        if let Some(m) = &self.metrics {
            m.record_evaluation();
        }
    }

    fn preferred_batch_patterns(&self, n_rates: usize) -> usize {
        let _ = n_rates;
        // One cache-friendly chunk per worker thread, so a fused work
        // unit keeps the whole pool busy.
        CHUNK_PATTERNS * self.n_threads
    }

    // The single-op kernels are one-op fused calls: with one op the
    // chunking, the fault rolls and the counters are exactly those of a
    // dedicated single-op path.

    fn cond_like_down(
        &mut self,
        left: &Clv,
        p_left: &TransitionMatrices,
        right: &Clv,
        p_right: &TransitionMatrices,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        self.cond_like_down_fused(&mut [FusedDown {
            left,
            p_left,
            right,
            p_right,
            out,
        }])
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
        self.cond_like_root_fused(&mut [FusedRoot {
            a,
            p_a,
            b,
            p_b,
            c,
            out,
        }])
    }

    fn cond_like_scaler(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<(), PlfError> {
        self.cond_like_scaler_fused(&mut [FusedScale { clv, ln_scalers }])
    }

    // Fused calls: all jobs' current ops are flattened into one chunk
    // task list and run as one pool job, so the whole batch pays one
    // fork-join per tree level. Chunks never span ops and patterns are
    // independent, so results are bitwise identical to the per-op path
    // under either chunking.

    fn cond_like_down_fused(&mut self, ops: &mut [FusedDown<'_>]) -> Result<(), PlfError> {
        let total_m: usize = ops.iter().map(|op| op.out.n_patterns()).sum();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Down, total_m);
        let chunk_patterns = self.chunk_patterns(total_m);
        let schedule = self.schedule;
        let mut tasks = Vec::new();
        for op in ops.iter_mut() {
            let n_rates = op.out.n_rates();
            let chunk = chunk_patterns * n_rates * N_STATES;
            let (l, r) = (op.left.as_slice(), op.right.as_slice());
            for (ci, o) in op.out.as_mut_slice().chunks_mut(chunk).enumerate() {
                let start = ci * chunk;
                tasks.push((
                    n_rates,
                    &l[start..start + o.len()],
                    op.p_left,
                    &r[start..start + o.len()],
                    op.p_right,
                    o,
                ));
            }
        }
        self.run(tasks, |(n_rates, lc, p_l, rc, p_r, o)| match schedule {
            None => scalar::cond_like_down_range(lc, p_l, rc, p_r, o, n_rates),
            Some(s) => simd4::cond_like_down_range(s, lc, p_l, rc, p_r, o, n_rates),
        });
        for op in ops.iter_mut() {
            self.maybe_corrupt(op.out.as_mut_slice());
        }
        Ok(())
    }

    fn cond_like_root_fused(&mut self, ops: &mut [FusedRoot<'_>]) -> Result<(), PlfError> {
        let total_m: usize = ops.iter().map(|op| op.out.n_patterns()).sum();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Root, total_m);
        let chunk_patterns = self.chunk_patterns(total_m);
        let schedule = self.schedule;
        let mut tasks = Vec::new();
        for op in ops.iter_mut() {
            let n_rates = op.out.n_rates();
            let chunk = chunk_patterns * n_rates * N_STATES;
            let (sa, sb) = (op.a.as_slice(), op.b.as_slice());
            let sc = op.c.map(|(clv, p)| (clv.as_slice(), p));
            for (ci, o) in op.out.as_mut_slice().chunks_mut(chunk).enumerate() {
                let start = ci * chunk;
                let range = start..start + o.len();
                tasks.push((
                    n_rates,
                    &sa[range.clone()],
                    op.p_a,
                    &sb[range.clone()],
                    op.p_b,
                    sc.map(|(s, p)| (&s[range.clone()], p)),
                    o,
                ));
            }
        }
        self.run(tasks, |(n_rates, ca, p_a, cb, p_b, cc, o)| match schedule {
            None => scalar::cond_like_root_range(ca, p_a, cb, p_b, cc, o, n_rates),
            Some(s) => simd4::cond_like_root_range(s, ca, p_a, cb, p_b, cc, o, n_rates),
        });
        for op in ops.iter_mut() {
            self.maybe_corrupt(op.out.as_mut_slice());
        }
        Ok(())
    }

    fn cond_like_scaler_fused(&mut self, ops: &mut [FusedScale<'_>]) -> Result<(), PlfError> {
        let total_m: usize = ops.iter().map(|op| op.clv.n_patterns()).sum();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Scale, total_m);
        let chunk_patterns = self.chunk_patterns(total_m);
        let schedule = self.schedule;
        let rescaled = AtomicU64::new(0);
        let mut tasks = Vec::new();
        for op in ops.iter_mut() {
            let n_rates = op.clv.n_rates();
            let chunk = chunk_patterns * n_rates * N_STATES;
            for (c, s) in op
                .clv
                .as_mut_slice()
                .chunks_mut(chunk)
                .zip(op.ln_scalers.chunks_mut(chunk_patterns))
            {
                tasks.push((n_rates, c, s));
            }
        }
        self.run(tasks, |(n_rates, c, s)| {
            let n = match schedule {
                None => scalar::cond_like_scaler_range(c, s, n_rates),
                Some(_) => simd4::cond_like_scaler_range(c, s, n_rates),
            };
            rescaled.fetch_add(n, Ordering::Relaxed);
        });
        if let Some(counters) = &self.metrics {
            counters.record_rescaled(rescaled.into_inner());
        }
        for op in ops.iter_mut() {
            self.maybe_corrupt(op.ln_scalers);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plf_phylo::alignment::Alignment;
    use plf_phylo::resilience::CorruptionKind;
    use plf_phylo::kernels::ScalarBackend;
    use plf_phylo::likelihood::TreeLikelihood;
    use plf_phylo::model::{GtrParams, SiteModel};
    use plf_phylo::tree::Tree;

    fn toy() -> (Tree, plf_phylo::alignment::PatternAlignment) {
        let tree = Tree::from_newick(
            "(((a:0.1,b:0.15):0.1,(c:0.2,d:0.1):0.05):0.1,(e:0.1,f:0.3):0.1,g:0.2);",
        )
        .unwrap();
        let aln = Alignment::from_strings(&[
            ("a", "ACGTACGTAAGGCCTTAGCAACGTACGTAAGGCCTTAGCA"),
            ("b", "ACGTACGTACGGCCTTAGCAACGTACCTAAGGCCATAGCA"),
            ("c", "ACGAACGTTAGGCCTAAGCAACGTACGTAAGGCCTTAGTA"),
            ("d", "ACTTACGTAAGGCGTTAGCAACGTACGAAAGGCCTTAGCA"),
            ("e", "ACGTACGTAAGGCCTTAGCATCGTACGTAAGGCCTTAGCA"),
            ("f", "ACGTTCGTAAGGCCTTAGCAACGTACGTAAGCCCTTAGCA"),
            ("g", "AGGTACGTAAGGCCTTAGCAACGTACGTAAGGCCTTAGCG"),
        ])
        .unwrap()
        .compress();
        (tree, aln)
    }

    #[test]
    fn matches_scalar_bitwise_any_thread_count() {
        let (tree, aln) = toy();
        let model = SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.6).unwrap();
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let mut backend = RayonBackend::new(threads).unwrap();
            let mut eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
            let got = eval.log_likelihood(&tree, &mut backend).unwrap();
            assert_eq!(got, expect, "{} threads", threads);
        }
    }

    #[test]
    fn scalar_kernel_variant_matches_too() {
        let (tree, aln) = toy();
        let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let mut backend = RayonBackend::with_kernel(4, None).unwrap();
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        assert_eq!(eval.log_likelihood(&tree, &mut backend).unwrap(), expect);
    }

    #[test]
    fn more_threads_than_patterns_is_safe() {
        let (tree, _) = toy();
        let aln = Alignment::from_strings(&[
            ("a", "AC"),
            ("b", "AC"),
            ("c", "AG"),
            ("d", "AT"),
            ("e", "CC"),
            ("f", "AC"),
            ("g", "AA"),
        ])
        .unwrap()
        .compress();
        let model = SiteModel::jc69();
        let mut backend = RayonBackend::new(16).unwrap();
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let lnl = eval.log_likelihood(&tree, &mut backend).unwrap();
        assert!(lnl.is_finite());
    }

    #[test]
    fn name_reflects_threads() {
        assert_eq!(RayonBackend::new(5).unwrap().name(), "rayon-5");
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        assert!(matches!(
            RayonBackend::new(0),
            Err(PlfError::Config(_))
        ));
    }

    #[test]
    fn injected_corruption_poisons_output() {
        let (tree, aln) = toy();
        let model = SiteModel::jc69();
        let inj = Arc::new(FaultInjector::new(11).schedule_corruption(1, CorruptionKind::Nan));
        let mut backend = RayonBackend::new(2).unwrap().with_fault_injector(inj);
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let lnl = eval.log_likelihood(&tree, &mut backend).unwrap();
        assert!(lnl.is_nan(), "NaN corruption must reach the root, got {lnl}");
    }
}
