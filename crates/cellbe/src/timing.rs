//! Calibrated SPE timing model.
//!
//! Constants are calibrated against the paper's reported observations:
//!
//! * column-wise SIMD is ~2× faster than row-wise on the PLF (§3.3), so
//!   `rowwise_factor = 2`;
//! * 16-SPE runs on the QS20 peak near 12× vs 1 SPE (§4.1.2) — with the
//!   aggregate XDR bandwidth of 25.6 GB/s shared by all streaming SPEs
//!   this emerges from the DMA model once compute costs ≈ 72
//!   cycles/(pattern, rate) for the column-wise Down kernel;
//! * 6-SPE runs (PS3) are compute-bound near 92% efficiency (§4.1.2),
//!   which the mild `eff_exp` straggler exponent reproduces;
//! * PPE↔SPE control uses direct problem-state stores (~sub-µs);
//!   §3.3 chose them precisely because they are the cheapest mechanism.
//!
//! This module is the only place Cell cost is computed:
//! [`CellCalibration::call_cost`] prices a kernel call in one pass
//! over the same first-level split ([`first_level`]) and chunk walk
//! the backend's SPE threads execute, and everything the backend
//! reports — modeled seconds, DMA traffic, double-buffering savings —
//! comes from it.

use crate::dma::{double_buffered_time, ChunkCost};
use crate::ls::max_chunk_patterns;
use plf_phylo::constants::DMA_MAX_BYTES;
use plf_phylo::kernels::SimdSchedule;
use plf_simcore::workload::ENTRY_BYTES;
use plf_simcore::xfer::TransferModel;
use std::ops::Range;

/// Which PLF kernel a call runs (costs differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// CondLikeDown: two operand streams + one result stream.
    Down,
    /// CondLikeRoot with three children: three operands + one result.
    Root3,
    /// CondLikeRoot with two children (rooted anchor).
    Root2,
    /// CondLikeScaler: one stream read-modify-write.
    Scale,
}

impl KernelKind {
    /// Operand + result streams held in the Local Store.
    pub fn streams(self) -> usize {
        match self {
            KernelKind::Down | KernelKind::Root2 => 3,
            KernelKind::Root3 => 4,
            KernelKind::Scale => 1,
        }
    }

    /// Bytes DMA'd in per pattern (operands). The scaler is issued right
    /// after the kernel that produced its CLV, so its chunk is still
    /// Local-Store resident: it only writes back (in = 0).
    pub fn bytes_in_per_pattern(self, r: usize) -> usize {
        let clv = r * ENTRY_BYTES;
        match self {
            KernelKind::Down | KernelKind::Root2 => 2 * clv,
            KernelKind::Root3 => 3 * clv,
            KernelKind::Scale => 0,
        }
    }

    /// Bytes DMA'd out per pattern (results; the scaler also writes the
    /// 4-byte log-scaler slot).
    pub fn bytes_out_per_pattern(self, r: usize) -> usize {
        let clv = r * ENTRY_BYTES;
        match self {
            KernelKind::Scale => clv + 4,
            _ => clv,
        }
    }
}

/// First-level even split of `m` patterns over `n_spes` SPEs (§3.3).
/// Every range but the last holds the same even count (128-byte DMA
/// alignment at 64 B/pattern), so the first range is the slowest SPE's.
pub fn first_level(m: usize, n_spes: usize) -> Vec<Range<usize>> {
    let mut per = m.div_ceil(n_spes);
    if per % 2 == 1 {
        per += 1;
    }
    let mut out = Vec::with_capacity(n_spes);
    let mut start = 0;
    while start < m {
        let end = (start + per).min(m);
        out.push(start..end);
        start = end;
    }
    out
}

/// The whole modeled cost of one kernel call
/// ([`CellCalibration::call_cost`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallCost {
    /// Modeled wall-clock seconds of the call.
    pub seconds: f64,
    /// The slowest SPE's DMA seconds with every transfer serialized.
    pub dma_seconds: f64,
    /// Seconds of the call double buffering hides behind compute
    /// (0 when it is disabled); never more than `dma_seconds`.
    pub hidden_seconds: f64,
    /// Operand bytes DMA'd into the Local Stores, all SPEs.
    pub bytes_in: u64,
    /// Result bytes DMA'd back to main memory, all SPEs.
    pub bytes_out: u64,
    /// DMA commands (each ≤ 16 KB), all SPEs.
    pub dma_commands: u64,
    /// Local-Store chunks, all SPEs.
    pub chunks: u64,
}

/// Calibration constants for one Cell system.
#[derive(Debug, Clone)]
pub struct CellCalibration {
    /// SPU cycles per (pattern, rate) entry, column-wise Down kernel.
    pub cycles_down: f64,
    /// Cycles per entry, Root kernel (per additional child ×1.5).
    pub cycles_root: f64,
    /// Cycles per entry, Scaler kernel.
    pub cycles_scale: f64,
    /// Row-wise slowdown vs column-wise (§3.3: ≈2× on the PLF).
    pub rowwise_factor: f64,
    /// PPE→SPE message cost: base + per-SPE component (seconds).
    pub msg_base: f64,
    /// Per-SPE increment of the message fan-out.
    pub msg_per_spe: f64,
    /// End-of-call barrier: base + per-SPE (seconds).
    pub barrier_base: f64,
    /// Per-SPE increment of the barrier.
    pub barrier_per_spe: f64,
    /// Extra synchronization cost when the team spans two chips.
    pub cross_chip: f64,
    /// Per-evaluation PPE overhead (chunk-size calculation message).
    pub per_eval_overhead: f64,
    /// Straggler exponent (effective SPEs = n^eff).
    pub eff_exp: f64,
    /// SPU clock in Hz.
    pub freq_hz: f64,
    /// Bytes of transition-matrix constants resident in the LS.
    pub constants_bytes: usize,
    /// Aggregate memory bandwidth available to all streaming SPEs
    /// (one XDR interface; the QS20's inter-chip BIF does not add usable
    /// bandwidth for a shared data set).
    pub aggregate_bw: f64,
    /// Overlap DMA with compute via double buffering (§3.3 / Figure 7).
    /// Disabling it serializes every chunk's transfer and compute — the
    /// ablation showing why the technique matters.
    pub double_buffered: bool,
}

impl Default for CellCalibration {
    fn default() -> CellCalibration {
        CellCalibration {
            cycles_down: 72.0,
            cycles_root: 108.0,
            cycles_scale: 24.0,
            rowwise_factor: 2.0,
            msg_base: 0.3e-6,
            msg_per_spe: 0.05e-6,
            barrier_base: 0.3e-6,
            barrier_per_spe: 0.05e-6,
            cross_chip: 0.3e-6,
            per_eval_overhead: 30.0e-6,
            eff_exp: 0.95,
            freq_hz: 3.2e9,
            constants_bytes: 2048,
            aggregate_bw: 25.6e9,
            double_buffered: true,
        }
    }
}

impl CellCalibration {
    /// Cycles per (pattern, rate) for a kernel under a schedule.
    pub fn cycles(&self, kind: KernelKind, schedule: SimdSchedule) -> f64 {
        let base = match kind {
            KernelKind::Down | KernelKind::Root2 => self.cycles_down,
            KernelKind::Root3 => self.cycles_root,
            KernelKind::Scale => self.cycles_scale,
        };
        match schedule {
            SimdSchedule::ColWise => base,
            // The scaler's max-reduction gains nothing from the
            // column-wise trick; only the matrix-vector kernels differ.
            SimdSchedule::RowWise if kind == KernelKind::Scale => base,
            SimdSchedule::RowWise => base * self.rowwise_factor,
        }
    }

    /// Control (message + barrier) cost of one kernel call on `n` SPEs
    /// across `chips` chips.
    pub fn control_cost(&self, n: usize, chips: usize) -> f64 {
        let cross = if chips > 1 && n > 8 { self.cross_chip } else { 0.0 };
        self.msg_base
            + self.msg_per_spe * n as f64
            + self.barrier_base
            + self.barrier_per_spe * n as f64
            + cross
    }

    /// Chunk size (patterns) a kernel can double-buffer in the LS.
    pub fn chunk_patterns(&self, kind: KernelKind, r: usize) -> usize {
        max_chunk_patterns(kind.streams(), r * ENTRY_BYTES, self.constants_bytes)
    }

    /// Per-SPE chunk pipeline for `patterns` patterns, each transfer
    /// on the SPE's own (uncontended) DMA link.
    pub fn chunk_costs(
        &self,
        kind: KernelKind,
        schedule: SimdSchedule,
        patterns: usize,
        r: usize,
        n_spes: usize,
    ) -> Vec<ChunkCost> {
        if patterns == 0 {
            return Vec::new();
        }
        let link = TransferModel::cell_dma();
        let chunk = self.chunk_patterns(kind, r);
        let cyc = self.cycles(kind, schedule);
        // Straggler/imbalance inflation grows slowly with the team size.
        let imbalance = (n_spes as f64).powf(1.0 - self.eff_exp);
        let mut out = Vec::with_capacity(patterns.div_ceil(chunk));
        let mut left = patterns;
        let mut first = true;
        while left > 0 {
            let p = left.min(chunk);
            let mut bytes_in = (p * kind.bytes_in_per_pattern(r)) as u64;
            if first {
                bytes_in += self.constants_bytes as u64;
                first = false;
            }
            out.push(ChunkCost {
                dma_in: link.time(bytes_in),
                compute: p as f64 * r as f64 * cyc * imbalance / self.freq_hz,
                dma_out: link.time((p * kind.bytes_out_per_pattern(r)) as u64),
            });
            left -= p;
        }
        out
    }

    /// The whole modeled cost of one kernel call over `m` patterns on
    /// `n_spes` SPEs (`chips` chips).
    ///
    /// `seconds` is control plus the larger of (a) the slowest SPE's
    /// chunk pipeline — double-buffered, or serialized when that is
    /// disabled — and (b) the aggregate-memory-bandwidth floor: DMA
    /// traffic overlaps compute per SPE, but the XDR interface bounds
    /// the sum of all SPEs' streams. `hidden_seconds` is what the same
    /// call would cost serialized, minus `seconds` (the paper's overlap
    /// argument, §3.3). The traffic counts walk every SPE's range in
    /// the chunks the SPE threads use, charging the per-pattern bytes
    /// of [`KernelKind`].
    pub fn call_cost(
        &self,
        kind: KernelKind,
        schedule: SimdSchedule,
        m: usize,
        r: usize,
        n_spes: usize,
        chips: usize,
    ) -> CallCost {
        let ranges = first_level(m, n_spes);
        let chunk = self.chunk_patterns(kind, r);
        let mut cost = CallCost::default();
        for range in &ranges {
            let mut start = range.start;
            while start < range.end {
                let p = chunk.min(range.end - start);
                let bytes_in = p * kind.bytes_in_per_pattern(r);
                let bytes_out = p * kind.bytes_out_per_pattern(r);
                cost.chunks += 1;
                cost.bytes_in += bytes_in as u64;
                cost.bytes_out += bytes_out as u64;
                cost.dma_commands +=
                    (bytes_in.div_ceil(DMA_MAX_BYTES) + bytes_out.div_ceil(DMA_MAX_BYTES)) as u64;
                start += p;
            }
        }
        let slowest = ranges.first().map_or(0, |r| r.len());
        let chunks = self.chunk_costs(kind, schedule, slowest, r, n_spes);
        let mut serial = 0.0;
        for c in &chunks {
            cost.dma_seconds += c.dma_in + c.dma_out;
            serial += c.dma_in + c.compute + c.dma_out;
        }
        let pipeline = if self.double_buffered {
            double_buffered_time(&chunks)
        } else {
            serial
        };
        let bw_floor = (cost.bytes_in + cost.bytes_out) as f64 / self.aggregate_bw;
        let control = self.control_cost(n_spes, chips);
        cost.seconds = control + pipeline.max(bw_floor);
        cost.hidden_seconds = (control + serial.max(bw_floor) - cost.seconds).max(0.0);
        cost
    }

    /// Modeled seconds of one kernel call: [`CellCalibration::call_cost`]'s
    /// `seconds`.
    pub fn call_time(
        &self,
        kind: KernelKind,
        schedule: SimdSchedule,
        m: usize,
        r: usize,
        n_spes: usize,
        chips: usize,
    ) -> f64 {
        self.call_cost(kind, schedule, m, r, n_spes, chips).seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colwise_beats_rowwise_2x_on_matvec_kernels() {
        let c = CellCalibration::default();
        let col = c.call_time(KernelKind::Down, SimdSchedule::ColWise, 8543, 4, 6, 1);
        let row = c.call_time(KernelKind::Down, SimdSchedule::RowWise, 8543, 4, 6, 1);
        let ratio = row / col;
        assert!((1.6..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scaler_schedule_neutral() {
        let c = CellCalibration::default();
        let col = c.call_time(KernelKind::Scale, SimdSchedule::ColWise, 5000, 4, 6, 1);
        let row = c.call_time(KernelKind::Scale, SimdSchedule::RowWise, 5000, 4, 6, 1);
        assert_eq!(col, row);
    }

    #[test]
    fn six_spes_near_ideal_on_large_sets() {
        // PS3 compute-bound regime: efficiency ≥ 85% at 50K patterns.
        let c = CellCalibration::default();
        let t1 = c.call_time(KernelKind::Down, SimdSchedule::ColWise, 50_000, 4, 1, 1);
        let t6 = c.call_time(KernelKind::Down, SimdSchedule::ColWise, 50_000, 4, 6, 1);
        let speedup = t1 / t6;
        assert!((5.0..6.0).contains(&speedup), "6-SPE speedup {speedup}");
    }

    #[test]
    fn sixteen_spes_bandwidth_capped_near_12x() {
        // §4.1.2: "the speedup value ... is close to 12x" at 16 SPEs.
        let c = CellCalibration::default();
        let t1 = c.call_time(KernelKind::Down, SimdSchedule::ColWise, 50_000, 4, 1, 2);
        let t16 = c.call_time(KernelKind::Down, SimdSchedule::ColWise, 50_000, 4, 16, 2);
        let speedup = t1 / t16;
        assert!((10.0..14.0).contains(&speedup), "16-SPE speedup {speedup}");
    }

    #[test]
    fn small_sets_less_efficient() {
        let c = CellCalibration::default();
        let eff = |m: usize| {
            c.call_time(KernelKind::Down, SimdSchedule::ColWise, m, 4, 1, 1)
                / (6.0 * c.call_time(KernelKind::Down, SimdSchedule::ColWise, m, 4, 6, 1))
        };
        assert!(eff(1000) < eff(50_000));
    }

    #[test]
    fn control_cost_grows_with_team_and_chips() {
        let c = CellCalibration::default();
        assert!(c.control_cost(16, 2) > c.control_cost(6, 1));
        assert!(c.control_cost(16, 2) > c.control_cost(16, 1));
        // Sub-microsecond per §3.3's "most efficient mechanisms".
        assert!(c.control_cost(16, 2) < 5e-6);
    }

    #[test]
    fn chunks_fit_ls_and_cover_all_patterns() {
        let c = CellCalibration::default();
        for kind in [KernelKind::Down, KernelKind::Root3, KernelKind::Scale] {
            let chunks = c.chunk_costs(kind, SimdSchedule::ColWise, 8543, 4, 6);
            assert!(!chunks.is_empty());
            let chunk_pats = c.chunk_patterns(kind, 4);
            assert!(chunks.len() == 8543usize.div_ceil(chunk_pats));
        }
    }

    #[test]
    fn root3_costs_more_than_down() {
        let c = CellCalibration::default();
        let d = c.call_time(KernelKind::Down, SimdSchedule::ColWise, 20_000, 4, 6, 1);
        let r = c.call_time(KernelKind::Root3, SimdSchedule::ColWise, 20_000, 4, 6, 1);
        assert!(r > d);
    }

    #[test]
    fn first_level_split_covers_all_patterns_evenly() {
        for m in [7usize, 16, 100, 8543] {
            let ranges = first_level(m, 16);
            assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), m);
            assert!(ranges.len() <= 16);
            for r in &ranges[..ranges.len().saturating_sub(1)] {
                assert_eq!(r.len() % 2, 0, "m={m} range {r:?} not 128B-aligned");
            }
        }
    }

    #[test]
    fn call_cost_counts_every_spe_chunk_and_hides_at_most_the_dma() {
        let c = CellCalibration::default();
        for kind in [KernelKind::Down, KernelKind::Root3, KernelKind::Scale] {
            for (m, n) in [(8543usize, 6usize), (20_000, 16), (7, 16), (0, 6)] {
                let cost = c.call_cost(kind, SimdSchedule::ColWise, m, 4, n, 2);
                let chunk = c.chunk_patterns(kind, 4);
                let chunks: usize = first_level(m, n).iter().map(|r| r.len().div_ceil(chunk)).sum();
                assert_eq!(cost.chunks, chunks as u64, "{kind:?} m={m}");
                assert_eq!(cost.bytes_in, (m * kind.bytes_in_per_pattern(4)) as u64);
                assert_eq!(cost.bytes_out, (m * kind.bytes_out_per_pattern(4)) as u64);
                assert!(cost.dma_commands >= cost.chunks, "every chunk moves its results");
                assert!(cost.hidden_seconds <= cost.dma_seconds, "{kind:?} m={m}");
                assert_eq!(cost.seconds, c.call_time(kind, SimdSchedule::ColWise, m, 4, n, 2));
                let serial = CellCalibration { double_buffered: false, ..c.clone() };
                let t_serial = serial.call_time(kind, SimdSchedule::ColWise, m, 4, n, 2);
                assert_eq!(cost.hidden_seconds, (t_serial - cost.seconds).max(0.0));
                let off = serial.call_cost(kind, SimdSchedule::ColWise, m, 4, n, 2);
                assert_eq!(off.hidden_seconds, 0.0);
                assert_eq!((off.bytes_in, off.dma_commands), (cost.bytes_in, cost.dma_commands));
            }
        }
    }

    #[test]
    fn scaler_only_writes_back() {
        // The scaler's chunk is still Local-Store resident from the
        // kernel that produced it: nothing in, CLV plus one ln slot out.
        let c = CellCalibration::default();
        let cost = c.call_cost(KernelKind::Scale, SimdSchedule::ColWise, 1000, 4, 6, 1);
        assert_eq!(cost.bytes_in, 0);
        assert_eq!(cost.bytes_out, 1000 * (4 * ENTRY_BYTES as u64 + 4));
    }
}
