//! # plf-phylo — the Phylogenetic Likelihood Function core
//!
//! Domain library for the ICPP 2009 reproduction: DNA substitution
//! models (GTR+Γ), unrooted binary trees, pattern-compressed alignments,
//! conditional likelihood vectors in the MrBayes memory layout, and the
//! three PLF kernels (`CondLikeDown`, `CondLikeRoot`, `CondLikeScaler`)
//! in scalar and 4-wide SIMD form.
//!
//! Parallel and simulated-hardware execution engines implement
//! [`kernels::PlfBackend`] and live in the sibling crates `plf-multicore`,
//! `plf-cellbe`, and `plf-gpu`.
//!
//! ```
//! use plf_phylo::prelude::*;
//!
//! let tree = Tree::from_newick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);").unwrap();
//! let aln = Alignment::from_strings(&[
//!     ("a", "ACGTACGT"),
//!     ("b", "ACGTACGA"),
//!     ("c", "ACGAACGT"),
//!     ("d", "ACTTACGT"),
//! ]).unwrap().compress();
//! let model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap();
//! let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
//! let lnl = eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
//! assert!(lnl.is_finite() && lnl < 0.0);
//! ```

#![warn(missing_docs)]
// Fixed-size 4-state matrix math reads clearest with explicit indices;
// iterator adaptors would obscure the correspondence with the paper's
// formulas.
#![allow(clippy::needless_range_loop)]

pub mod alignment;
pub mod clv;
pub mod clv_cache;
pub mod constants;
pub mod dna;
pub mod fused;
pub mod incremental;
pub mod io;
pub mod kernels;
pub mod likelihood;
pub mod metrics;
pub mod model;
pub mod oracle;
pub mod partition;
pub mod resilience;
pub mod tree;

/// SplitMix64: the workspace's one cheap, stateless, deterministic
/// 64-bit mixer (fingerprints, fault rolls, jitter, seeded streams).
/// Advance a stream with `state = splitmix64(state)`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::alignment::{Alignment, PatternAlignment};
    pub use crate::clv::{Clv, TransitionMatrices};
    pub use crate::clv_cache::{
        model_fingerprint, subtree_fingerprints, CacheEntry, CacheStats, ClvCache,
    };
    pub use crate::constants::{CLV_ALIGN, DMA_MAX_BYTES, LS_BYTES, SIMD_WIDTH};
    pub use crate::dna::{Nucleotide, StateMask, N_STATES};
    pub use crate::fused::{evaluate_fused, FusedJob};
    pub use crate::kernels::plan::{PlfOp, PlfPlan};
    pub use crate::kernels::{
        FusedDown, FusedRoot, FusedScale, PlfBackend, ScalarBackend, Simd4Backend, SimdSchedule,
    };
    pub use crate::incremental::IncrementalLikelihood;
    pub use crate::likelihood::TreeLikelihood;
    pub use crate::metrics::{Kernel, KernelTimer, MetricsSnapshot, PlfCounters};
    pub use crate::model::{GtrParams, SiteModel};
    pub use crate::partition::{by_codon_position, by_gene_blocks, Partition, PartitionedLikelihood};
    pub use crate::resilience::{
        CorruptionKind, FaultEnvError, FaultInjector, FaultSite, PlfError, ResilienceReport,
        ResilientBackend, RetryPolicy,
    };
    pub use crate::tree::{Node, NodeId, Tree};
}
