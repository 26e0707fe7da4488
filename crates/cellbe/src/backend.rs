//! The functional Cell/BE backend.
//!
//! Executes the PLF exactly the way the paper's Cell port does (§3.3):
//! the PPE (the calling thread) splits the `m` likelihood-vector
//! elements evenly across SPEs (first-level partitioning), each SPE
//! walks its block in Local-Store-sized chunks (second-level
//! partitioning) running the 4-wide SIMD kernels, and control flows
//! through the per-SPE FSM. SPE execution really happens — on scoped
//! host threads, one per SPE, producing bitwise-identical results to
//! the reference kernels — while the calibrated timing model accounts
//! for DMA, double buffering, messages, and barriers. The SPE threads
//! only compute and roll DMA faults; every modeled number comes from
//! one [`CellCalibration::call_cost`] per kernel call.

use crate::dma::DmaEngine;
use crate::fsm::{PpeMessage, SpeFsm};
use crate::timing::{first_level, CellCalibration, KernelKind};
use parking_lot::Mutex;
use plf_phylo::clv::{Clv, TransitionMatrices};
use plf_phylo::dna::N_STATES;
use plf_phylo::kernels::{simd4, FusedDown, FusedRoot, FusedScale, PlfBackend, SimdSchedule};
use plf_phylo::metrics::{Kernel, KernelTimer, PlfCounters};
use plf_phylo::resilience::{panic_message, FaultInjector, PlfError};
use std::sync::Arc;

/// Per-run statistics of the simulated Cell execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellRunStats {
    /// Modeled wall-clock seconds on the Cell system.
    pub modeled_seconds: f64,
    /// Kernel calls executed.
    pub kernel_calls: u64,
    /// DMA commands (each ≤ 16 KB) the modeled kernel calls issue.
    pub dma_commands: u64,
    /// Local-Store chunks the modeled kernel calls stream.
    pub chunks: u64,
}

/// A simulated Cell/BE system executing the PLF.
pub struct CellBackend {
    n_spes: usize,
    chips: usize,
    schedule: SimdSchedule,
    cal: CellCalibration,
    fsms: Vec<SpeFsm>,
    configured_patterns: Option<usize>,
    stats: CellRunStats,
    /// Optional fault source (DMA failures, output corruption).
    injector: Option<Arc<FaultInjector>>,
    /// Optional shared observability counters.
    metrics: Option<Arc<PlfCounters>>,
}

impl CellBackend {
    /// Generic constructor.
    pub fn new(n_spes: usize, chips: usize, schedule: SimdSchedule) -> CellBackend {
        assert!(n_spes >= 1);
        CellBackend {
            n_spes,
            chips,
            schedule,
            cal: CellCalibration::default(),
            fsms: vec![SpeFsm::new(); n_spes],
            configured_patterns: None,
            stats: CellRunStats::default(),
            injector: None,
            metrics: None,
        }
    }

    /// Attach a fault injector; SPE chunk transfers roll the DMA site
    /// and kernel outputs roll the corruption site.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> CellBackend {
        self.injector = Some(injector);
        self
    }

    /// Attach shared observability counters: kernel timings, rescale
    /// events, and each call's modeled DMA traffic from
    /// [`CellCalibration::call_cost`] (bytes, ≤16 KB commands, the
    /// slowest SPE's serialized DMA seconds, double-buffer savings).
    pub fn with_metrics(mut self, counters: Arc<PlfCounters>) -> CellBackend {
        self.metrics = Some(counters);
        self
    }

    /// Sony PS3: one Cell, 6 SPEs available, column-wise SIMD.
    pub fn ps3() -> CellBackend {
        CellBackend::new(6, 1, SimdSchedule::ColWise)
    }

    /// IBM QS20 blade: two Cells, 16 SPEs, column-wise SIMD.
    pub fn qs20() -> CellBackend {
        CellBackend::new(16, 2, SimdSchedule::ColWise)
    }

    /// Restrict to `n` SPEs (for scalability sweeps).
    pub fn with_spes(mut self, n: usize) -> CellBackend {
        assert!(n >= 1);
        self.n_spes = n;
        self.fsms = vec![SpeFsm::new(); n];
        self.configured_patterns = None;
        self
    }

    /// Number of active SPEs.
    pub fn n_spes(&self) -> usize {
        self.n_spes
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CellRunStats {
        self.stats
    }

    /// Reset statistics (e.g. between measured phases).
    pub fn reset_stats(&mut self) {
        self.stats = CellRunStats::default();
    }

    /// Send Finalize to every SPE (ends the FSM lifecycle).
    pub fn finalize(&mut self) {
        for fsm in &mut self.fsms {
            let _ = fsm.handle(PpeMessage::Finalize);
        }
    }

    fn ensure_configured(&mut self, m: usize, kind: KernelKind, r: usize) -> Result<(), PlfError> {
        if self.configured_patterns != Some(m) {
            let chunk = self.cal.chunk_patterns(kind, r);
            let ranges = first_level(m, self.n_spes);
            for (i, fsm) in self.fsms.iter_mut().enumerate() {
                let patterns = ranges.get(i).map_or(0, |r| r.len());
                fsm.handle(PpeMessage::Configure {
                    patterns,
                    chunk_patterns: chunk,
                })
                .map_err(|e| PlfError::Config(format!("SPE {i} configure: {e}")))?;
            }
            self.configured_patterns = Some(m);
        }
        Ok(())
    }

    /// Dispatch a run message to every SPE FSM.
    fn dispatch(&mut self, msg: PpeMessage) -> Result<(), PlfError> {
        for (i, fsm) in self.fsms.iter_mut().enumerate() {
            fsm.handle(msg)
                .map_err(|e| PlfError::Config(format!("SPE {i} dispatch: {e}")))?;
        }
        Ok(())
    }

    /// The DMA engine SPE threads roll per chunk transfer.
    fn dma_engine(&self) -> DmaEngine {
        let engine = DmaEngine::new();
        match &self.injector {
            Some(inj) => engine.with_fault_injector(Arc::clone(inj)),
            None => engine,
        }
    }

    /// Roll and apply kernel-output corruption after a parallel section.
    fn maybe_corrupt(&self, out: &mut [f32]) {
        if let Some(inj) = &self.injector {
            if let Some(kind) = inj.fire_corruption() {
                inj.corrupt(out, kind);
            }
        }
    }

    /// Bill one modeled kernel launch over `m` patterns: one
    /// [`CellCalibration::call_cost`] feeds the run stats and the
    /// shared counters.
    fn account_call(&mut self, kind: KernelKind, m: usize, r: usize) {
        let cost = self
            .cal
            .call_cost(kind, self.schedule, m, r, self.n_spes, self.chips);
        self.stats.kernel_calls += 1;
        self.stats.modeled_seconds += cost.seconds;
        self.stats.dma_commands += cost.dma_commands;
        self.stats.chunks += cost.chunks;
        if let Some(counters) = &self.metrics {
            counters.record_transfer(
                cost.bytes_in,
                cost.bytes_out,
                cost.dma_commands,
                cost.dma_seconds,
            );
            counters.record_overlap_saved(cost.hidden_seconds);
        }
    }

    /// Run `work` over each SPE's block in Local-Store-sized chunks,
    /// one scoped thread per SPE, and return the sum of what `work`
    /// returns.
    ///
    /// `out` is the whole call's output CLV. `scalers` is the scaler's
    /// ln-scaler vector (one slot per pattern), or empty for the other
    /// kernels; both are split along the first-level ranges, so each
    /// SPE owns disjoint sub-slices. `work(patterns, out_chunk,
    /// scaler_chunk)` executes one chunk. Each chunk rolls the DMA
    /// engine twice, operands in then results out; the first failure
    /// stops that SPE's block and surfaces as the call's error.
    fn run_on_spes<F>(
        &self,
        kind: KernelKind,
        r: usize,
        out: &mut [f32],
        scalers: &mut [f32],
        work: F,
    ) -> Result<u64, PlfError>
    where
        F: Fn(std::ops::Range<usize>, &mut [f32], &mut [f32]) -> u64 + Sync,
    {
        let stride = r * N_STATES;
        let scaler_stride = usize::from(!scalers.is_empty());
        let ranges = first_level(out.len() / stride, self.n_spes);
        let chunk_patterns = self.cal.chunk_patterns(kind, r);
        let dma = &self.dma_engine();
        let error: Mutex<Option<PlfError>> = Mutex::new(None);
        let (error_ref, work) = (&error, &work);
        let joined = crossbeam::thread::scope(|scope| {
            let (mut out_rest, mut sc_rest) = (out, scalers);
            let mut spes = Vec::with_capacity(ranges.len());
            for range in ranges {
                let (out_spe, tail) =
                    std::mem::take(&mut out_rest).split_at_mut(range.len() * stride);
                out_rest = tail;
                let (sc_spe, tail) =
                    std::mem::take(&mut sc_rest).split_at_mut(range.len() * scaler_stride);
                sc_rest = tail;
                spes.push(scope.spawn(move |_| {
                    let mut sum = 0;
                    let mut start = range.start;
                    while start < range.end {
                        let end = (start + chunk_patterns).min(range.end);
                        let bytes_in = (end - start) * kind.bytes_in_per_pattern(r);
                        let bytes_out = (end - start) * kind.bytes_out_per_pattern(r);
                        let moved = dma
                            .transfer(bytes_in as u64)
                            .and_then(|()| dma.transfer(bytes_out as u64));
                        if let Err(e) = moved {
                            error_ref.lock().get_or_insert(e);
                            break;
                        }
                        let (lo, hi) = (start - range.start, end - range.start);
                        sum += work(
                            start..end,
                            &mut out_spe[lo * stride..hi * stride],
                            &mut sc_spe[lo * scaler_stride..hi * scaler_stride],
                        );
                        start = end;
                    }
                    sum
                }));
            }
            spes.into_iter()
                .try_fold(0, |total, spe| spe.join().map(|sum| total + sum))
        })
        .and_then(|joined| joined);
        let total = joined.map_err(|payload| PlfError::WorkerPanic {
            backend: self.name(),
            detail: panic_message(payload.as_ref()),
        })?;
        match error.into_inner() {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }
}

impl PlfBackend for CellBackend {
    fn name(&self) -> String {
        let sys = if self.chips == 1 { "ps3" } else { "qs20" };
        format!("cellbe-{sys}-{}spe", self.n_spes)
    }

    fn begin_evaluation(&mut self) {
        // The PPE's chunk-size-calculation message round (§3.3).
        self.stats.modeled_seconds += self.cal.per_eval_overhead;
        if let Some(m) = &self.metrics {
            m.record_evaluation();
        }
    }

    fn preferred_batch_patterns(&self, n_rates: usize) -> usize {
        // One Local-Store-sized chunk per SPE: the largest fused unit
        // that fills every SPE's 256 KB LS exactly once per kernel call.
        // The per-chunk pattern count shrinks as the rate count grows
        // (more bytes per pattern in the same LS budget).
        self.cal
            .chunk_patterns(KernelKind::Down, n_rates.max(1))
            .max(1)
            * self.n_spes
    }

    fn cond_like_down(
        &mut self,
        left: &Clv,
        p_left: &TransitionMatrices,
        right: &Clv,
        p_right: &TransitionMatrices,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Down, out.n_patterns());
        let (m, r) = (out.n_patterns(), out.n_rates());
        self.ensure_configured(m, KernelKind::Down, r)?;
        self.dispatch(PpeMessage::RunDown)?;
        self.down_pass(left, p_left, right, p_right, out)?;
        self.maybe_corrupt(out.as_mut_slice());
        self.account_call(KernelKind::Down, m, r);
        Ok(())
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
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Root, out.n_patterns());
        let (m, r) = (out.n_patterns(), out.n_rates());
        let kind = if c.is_some() { KernelKind::Root3 } else { KernelKind::Root2 };
        self.ensure_configured(m, kind, r)?;
        self.dispatch(PpeMessage::RunRoot)?;
        self.root_pass(a, p_a, b, p_b, c, out)?;
        self.maybe_corrupt(out.as_mut_slice());
        self.account_call(kind, m, r);
        Ok(())
    }

    fn cond_like_scaler(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<(), PlfError> {
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Scale, clv.n_patterns());
        let (m, r) = (clv.n_patterns(), clv.n_rates());
        self.ensure_configured(m, KernelKind::Scale, r)?;
        self.dispatch(PpeMessage::RunScale)?;
        let rescaled = self.scaler_pass(clv, ln_scalers)?;
        self.maybe_corrupt(clv.as_mut_slice());
        self.account_call(KernelKind::Scale, m, r);
        self.record_rescaled(rescaled);
        Ok(())
    }

    // Fused overrides: one PPE message round and one modeled launch
    // (`account_call` over the concatenated pattern space) per tree
    // level for the whole batch — the paper's per-invocation overhead
    // paid once instead of once per job. Each op still runs through the
    // same SPE partitioning and chunk walk, so results are bitwise
    // identical to the per-op path.

    fn cond_like_down_fused(&mut self, ops: &mut [FusedDown<'_>]) -> Result<(), PlfError> {
        let Some(first) = ops.first() else { return Ok(()) };
        let (total_m, r) = (
            ops.iter().map(|op| op.out.n_patterns()).sum::<usize>(),
            first.out.n_rates(),
        );
        let first_m = first.out.n_patterns();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Down, total_m);
        self.ensure_configured(first_m, KernelKind::Down, r)?;
        self.dispatch(PpeMessage::RunDown)?;
        for op in ops.iter_mut() {
            self.down_pass(op.left, op.p_left, op.right, op.p_right, op.out)?;
            self.maybe_corrupt(op.out.as_mut_slice());
        }
        self.account_call(KernelKind::Down, total_m, r);
        Ok(())
    }

    fn cond_like_root_fused(&mut self, ops: &mut [FusedRoot<'_>]) -> Result<(), PlfError> {
        let Some(first) = ops.first() else { return Ok(()) };
        let kind = if first.c.is_some() { KernelKind::Root3 } else { KernelKind::Root2 };
        let (total_m, r) = (
            ops.iter().map(|op| op.out.n_patterns()).sum::<usize>(),
            first.out.n_rates(),
        );
        let first_m = first.out.n_patterns();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Root, total_m);
        self.ensure_configured(first_m, kind, r)?;
        self.dispatch(PpeMessage::RunRoot)?;
        for op in ops.iter_mut() {
            self.root_pass(op.a, op.p_a, op.b, op.p_b, op.c, op.out)?;
            self.maybe_corrupt(op.out.as_mut_slice());
        }
        self.account_call(kind, total_m, r);
        Ok(())
    }

    fn cond_like_scaler_fused(&mut self, ops: &mut [FusedScale<'_>]) -> Result<(), PlfError> {
        let Some(first) = ops.first() else { return Ok(()) };
        let (total_m, r) = (
            ops.iter().map(|op| op.clv.n_patterns()).sum::<usize>(),
            first.clv.n_rates(),
        );
        let first_m = first.clv.n_patterns();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Scale, total_m);
        self.ensure_configured(first_m, KernelKind::Scale, r)?;
        self.dispatch(PpeMessage::RunScale)?;
        let mut rescaled = 0;
        for op in ops.iter_mut() {
            rescaled += self.scaler_pass(op.clv, op.ln_scalers)?;
            self.maybe_corrupt(op.clv.as_mut_slice());
        }
        self.account_call(KernelKind::Scale, total_m, r);
        self.record_rescaled(rescaled);
        Ok(())
    }
}

impl CellBackend {
    /// One `CondLikeDown` over the SPEs, without dispatch/accounting
    /// (shared by the single-op and fused entry points).
    fn down_pass(
        &mut self,
        left: &Clv,
        p_left: &TransitionMatrices,
        right: &Clv,
        p_right: &TransitionMatrices,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let (m, r) = (out.n_patterns(), out.n_rates());
        let stride = r * N_STATES;
        self.ensure_configured(m, KernelKind::Down, r)?;
        let schedule = self.schedule;
        let (l, rt) = (left.as_slice(), right.as_slice());
        self.run_on_spes(KernelKind::Down, r, out.as_mut_slice(), &mut [], |pats, o, _| {
            let s = pats.start * stride;
            let e = pats.end * stride;
            simd4::cond_like_down_range(schedule, &l[s..e], p_left, &rt[s..e], p_right, o, r);
            0
        })?;
        Ok(())
    }

    /// One `CondLikeRoot` over the SPEs, without dispatch/accounting.
    fn root_pass(
        &mut self,
        a: &Clv,
        p_a: &TransitionMatrices,
        b: &Clv,
        p_b: &TransitionMatrices,
        c: Option<(&Clv, &TransitionMatrices)>,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let (m, r) = (out.n_patterns(), out.n_rates());
        let stride = r * N_STATES;
        let kind = if c.is_some() { KernelKind::Root3 } else { KernelKind::Root2 };
        self.ensure_configured(m, kind, r)?;
        let schedule = self.schedule;
        let (sa, sb) = (a.as_slice(), b.as_slice());
        let sc = c.map(|(clv, p)| (clv.as_slice(), p));
        self.run_on_spes(kind, r, out.as_mut_slice(), &mut [], |pats, o, _| {
            let s = pats.start * stride;
            let e = pats.end * stride;
            let cc = sc.map(|(slice, p)| (&slice[s..e], p));
            simd4::cond_like_root_range(schedule, &sa[s..e], p_a, &sb[s..e], p_b, cc, o, r);
            0
        })?;
        Ok(())
    }

    /// One `CondLikeScaler` over the SPEs, without dispatch/accounting;
    /// returns the number of patterns rescaled.
    fn scaler_pass(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<u64, PlfError> {
        let (m, r) = (clv.n_patterns(), clv.n_rates());
        self.ensure_configured(m, KernelKind::Scale, r)?;
        // The scaler rescales the CLV in place and writes one ln-scaler
        // slot per pattern; the SPE walk splits both.
        self.run_on_spes(KernelKind::Scale, r, clv.as_mut_slice(), ln_scalers, |_, c, sc| {
            simd4::cond_like_scaler_range(c, sc, r)
        })
    }

    /// Record one scaler call's rescaled patterns.
    fn record_rescaled(&self, rescaled: u64) {
        if let Some(counters) = &self.metrics {
            counters.record_rescaled(rescaled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::SpeState;
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
        let model = SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.6).unwrap();
        (tree, aln, model)
    }

    #[test]
    fn matches_scalar_bitwise() {
        let (tree, aln, model) = toy();
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        for mut backend in [CellBackend::ps3(), CellBackend::qs20(), CellBackend::ps3().with_spes(1)] {
            let mut eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
            let got = eval.log_likelihood(&tree, &mut backend).unwrap();
            assert_eq!(got, expect, "{}", backend.name());
        }
    }

    #[test]
    fn multi_chunk_spe_walks_match_scalar_bitwise() {
        // 3,000 random columns over one or two SPEs: every kernel's walk
        // (the scaler's ln-scaler split included) spans several
        // Local-Store chunks.
        let (tree, _, model) = toy();
        let mut x = 2009u64;
        let rows: Vec<(String, String)> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|name| {
                let seq = (0..3000)
                    .map(|_| {
                        x = plf_phylo::splitmix64(x);
                        ['A', 'C', 'G', 'T'][(x % 4) as usize]
                    })
                    .collect();
                (name.to_string(), seq)
            })
            .collect();
        let rows: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let aln = Alignment::from_strings(&rows).unwrap().compress();
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let scale_chunk = CellCalibration::default().chunk_patterns(KernelKind::Scale, 4);
        for n in [1usize, 2] {
            assert!(aln.n_patterns() / n > scale_chunk);
            let mut backend = CellBackend::ps3().with_spes(n);
            let mut eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
            assert_eq!(eval.log_likelihood(&tree, &mut backend).unwrap(), expect, "{n} SPEs");
        }
    }

    #[test]
    fn modeled_time_accumulates() {
        let (tree, aln, model) = toy();
        let mut backend = CellBackend::ps3();
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        eval.log_likelihood(&tree, &mut backend).unwrap();
        let s1 = backend.stats();
        assert!(s1.modeled_seconds > 0.0);
        assert!(s1.kernel_calls > 0);
        assert!(s1.dma_commands > 0);
        assert!(s1.chunks >= s1.kernel_calls);
        eval.log_likelihood(&tree, &mut backend).unwrap();
        let s2 = backend.stats();
        assert!((s2.modeled_seconds - 2.0 * s1.modeled_seconds).abs() < 1e-12);
    }

    #[test]
    fn fsm_lifecycle_enforced() {
        let (tree, aln, model) = toy();
        let mut backend = CellBackend::ps3();
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        eval.log_likelihood(&tree, &mut backend).unwrap();
        for fsm in &backend.fsms {
            assert_eq!(fsm.state(), SpeState::Ready);
            assert!(fsm.kernels_run() > 0);
        }
        backend.finalize();
        for fsm in &backend.fsms {
            assert_eq!(fsm.state(), SpeState::Done);
        }
    }

    #[test]
    fn rowwise_schedule_is_modeled_slower_but_close_numerically() {
        let (tree, aln, model) = toy();
        let mut col = CellBackend::new(6, 1, SimdSchedule::ColWise);
        let mut row = CellBackend::new(6, 1, SimdSchedule::RowWise);
        let mut e1 = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let mut e2 = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let l1 = e1.log_likelihood(&tree, &mut col).unwrap();
        let l2 = e2.log_likelihood(&tree, &mut row).unwrap();
        assert!((l1 - l2).abs() < 1e-3);
        assert!(row.stats().modeled_seconds > col.stats().modeled_seconds);
    }

    #[test]
    fn more_spes_lower_modeled_time() {
        let (tree, aln, model) = toy();
        let mut t_prev = f64::INFINITY;
        for n in [1usize, 2, 6] {
            let mut backend = CellBackend::ps3().with_spes(n);
            let mut eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
            eval.log_likelihood(&tree, &mut backend).unwrap();
            let t = backend.stats().modeled_seconds;
            assert!(t < t_prev, "{n} SPEs: {t} !< {t_prev}");
            t_prev = t;
        }
    }
}
