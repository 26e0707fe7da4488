//! SPE DMA: the fault-injectable transfer roll and the
//! double-buffering pipeline of Figure 7.
//!
//! Each SPE overlaps DMA with computation: while chunk *i* is being
//! computed, the results of chunk *i−1* stream out and the operands of
//! chunk *i+1* stream in. A step of the pipeline therefore advances by
//! `max(compute_i, dma_out_{i−1} + dma_in_{i+1})`, plus the initial fill
//! and the final drain — exactly the T/C/R schedule the paper draws.
//! What a transfer costs is [`crate::timing`]'s business; the SPE
//! threads only roll [`DmaEngine::transfer`] for injected faults.

use plf_phylo::resilience::{FaultInjector, FaultSite, PlfError};
use std::sync::Arc;

/// Per-chunk costs in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkCost {
    /// Time to DMA the chunk's operands into the Local Store.
    pub dma_in: f64,
    /// SPU compute time for the chunk.
    pub compute: f64,
    /// Time to DMA the chunk's results back to main memory.
    pub dma_out: f64,
}

/// The DMA engine SPE threads move chunks through: one fault roll per
/// transfer, nothing else.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    /// Optional fault source; each [`DmaEngine::transfer`] rolls it.
    injector: Option<Arc<FaultInjector>>,
}

impl DmaEngine {
    /// A fault-free engine.
    pub fn new() -> DmaEngine {
        DmaEngine::default()
    }

    /// Attach a fault injector; subsequent [`DmaEngine::transfer`] calls
    /// roll the [`FaultSite::DmaTransfer`] site.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> DmaEngine {
        self.injector = Some(injector);
        self
    }

    /// Perform a simulated transfer of `bytes`: one injector roll.
    pub fn transfer(&self, bytes: u64) -> Result<(), PlfError> {
        if let Some(inj) = &self.injector {
            if inj.fire(FaultSite::DmaTransfer) {
                return Err(PlfError::Transfer {
                    backend: "cellbe-dma".into(),
                    channel: "dma",
                    detail: format!("injected fault on {bytes}-byte DMA transfer"),
                });
            }
        }
        Ok(())
    }
}

/// Total time of a double-buffered chunk pipeline.
pub fn double_buffered_time(chunks: &[ChunkCost]) -> f64 {
    if chunks.is_empty() {
        return 0.0;
    }
    let n = chunks.len();
    // Fill: first chunk's operands must land before compute starts.
    let mut t = chunks[0].dma_in;
    for i in 0..n {
        let dma_during = (if i + 1 < n { chunks[i + 1].dma_in } else { 0.0 })
            + (if i > 0 { chunks[i - 1].dma_out } else { 0.0 });
        t += chunks[i].compute.max(dma_during);
    }
    // Drain: the last chunk's results.
    t + chunks[n - 1].dma_out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pipeline_is_free() {
        assert_eq!(double_buffered_time(&[]), 0.0);
    }

    #[test]
    fn single_chunk_is_fully_serial() {
        let c = ChunkCost { dma_in: 2.0, compute: 5.0, dma_out: 1.0 };
        assert_eq!(double_buffered_time(&[c]), 8.0);
    }

    #[test]
    fn compute_bound_pipeline_hides_dma() {
        // compute >> dma: total ≈ fill + Σ compute + drain.
        let c = ChunkCost { dma_in: 0.1, compute: 10.0, dma_out: 0.1 };
        let chunks = vec![c; 10];
        let t = double_buffered_time(&chunks);
        assert!((t - (0.1 + 100.0 + 0.1)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn dma_bound_pipeline_limited_by_transfers() {
        // dma >> compute: advance is gated by the DMA engine.
        let c = ChunkCost { dma_in: 5.0, compute: 0.5, dma_out: 3.0 };
        let chunks = vec![c; 4];
        let t = double_buffered_time(&chunks);
        // fill 5 + steps: max(.5, in+out pairs) ... strictly more than
        // compute-only and at least total dma-in time.
        assert!(t >= 4.0 * 5.0, "t = {t}");
        assert!(t > 4.0 * 0.5 + 5.0 + 3.0);
    }

    #[test]
    fn transfer_model_mirrors_shared_constants() {
        // plf-simcore sits below plf-phylo in the dependency graph, so
        // it cannot import phylo::constants; its independently written
        // hardware model carries `plf-lint: allow(L3)` suppressions
        // instead. This test is the other half of that bargain: the
        // two definitions of the 16 KB DMA command bound must agree.
        assert_eq!(
            plf_simcore::xfer::TransferModel::cell_dma().max_transfer,
            Some(plf_phylo::constants::DMA_MAX_BYTES)
        );
    }

    #[test]
    fn transfer_without_injector_never_fails() {
        let e = DmaEngine::new();
        for bytes in [0u64, 1, 16 * 1024, 1 << 20] {
            assert!(e.transfer(bytes).is_ok());
        }
    }

    #[test]
    fn scheduled_dma_fault_fails_once_then_recovers() {
        let inj = Arc::new(FaultInjector::new(5).schedule(FaultSite::DmaTransfer, 1));
        let e = DmaEngine::new().with_fault_injector(inj);
        assert!(e.transfer(1024).is_ok());
        assert!(matches!(
            e.transfer(1024),
            Err(PlfError::Transfer { channel: "dma", .. })
        ));
        assert!(e.transfer(1024).is_ok(), "one-shot fault must be consumed");
    }

    #[test]
    fn monotone_in_chunk_count() {
        let c = ChunkCost { dma_in: 1.0, compute: 2.0, dma_out: 1.0 };
        let t3 = double_buffered_time(&[c; 3]);
        let t6 = double_buffered_time(&[c; 6]);
        assert!(t6 > t3);
    }
}
