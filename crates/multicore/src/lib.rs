//! # plf-multicore — general-purpose multi-core backend (OpenMP analogue)
//!
//! Implements §3.2 of the paper: outermost-loop parallelization of the
//! three PLF kernels, here with a resident rayon worker team instead of
//! an OpenMP one, under two chunk schedules (static per thread, and
//! §4.1.1's TFlux-style self-scheduling), plus the analytic timing
//! model of the three Figure 9 systems (2×Xeon(4), 4×Opteron(4),
//! 8×Opteron(2)). The pool's thread handoff lives in the vendored
//! `rayon`, so this crate is safe code only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod model;
pub mod persistent;

pub use backend::RayonBackend;
pub use model::MultiCoreModel;
pub use persistent::PersistentPoolBackend;
