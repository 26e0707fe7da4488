//! End-to-end checks of the PLF observability layer: the counters every
//! backend feeds must agree with hand-computed kernel schedules, grow
//! monotonically, and be identical across execution engines (the
//! backends run the same plan, so they must bill the same work).

use plf_repro::phylo::io;
use plf_repro::phylo::kernels::{PlfBackend, ScalarBackend};
use plf_repro::phylo::tree::Tree;
use plf_repro::prelude::*;
use plf_repro::seqgen;
use std::sync::Arc;
use std::time::Duration;

/// A quartet: one internal (a,b) node plus the trifurcating root, so
/// each evaluation under `scale_every = 1` issues exactly
/// 1 × CondLikeDown, 1 × CondLikeRoot, and 2 × CondLikeScaler.
fn quartet() -> (Tree, plf_repro::phylo::alignment::PatternAlignment) {
    let tree = Tree::from_newick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);").unwrap();
    let aln = io::parse_fasta(">a\nACGTACGTAC\n>b\nACGTACGAAC\n>c\nACGAACGTAC\n>d\nTCGTACGTAA\n")
        .unwrap();
    (tree, aln.compress())
}

fn model() -> SiteModel {
    SiteModel::gtr_gamma4(GtrParams::jc69(), 0.5).unwrap()
}

#[test]
fn quartet_counts_are_exact() {
    let (tree, data) = quartet();
    let m = data.n_patterns() as u64;
    let counters = PlfCounters::new();
    let mut backend = plf_repro::multicore::RayonBackend::new(2)
        .unwrap()
        .with_metrics(Arc::clone(&counters));
    let mut eval = TreeLikelihood::new(&tree, &data, model()).unwrap();
    let evals = 3u64;
    for _ in 0..evals {
        eval.log_likelihood(&tree, &mut backend).unwrap();
    }
    let s = counters.snapshot();
    assert_eq!(s.evaluations, evals);
    assert_eq!(s.down.invocations, evals);
    assert_eq!(s.root.invocations, evals);
    assert_eq!(s.scale.invocations, 2 * evals, "internal node + root are both rescaled");
    assert_eq!(s.down.patterns, evals * m);
    assert_eq!(s.root.patterns, evals * m);
    assert_eq!(s.scale.patterns, 2 * evals * m);
    // Every live pattern gets rescaled by each scaler call on this data.
    assert_eq!(s.rescaled_patterns, 2 * evals * m);
    // Host backend: no device bus to account.
    assert_eq!(s.transfer.total_bytes(), 0);
    assert_eq!(s.transfer.commands, 0);
}

#[test]
fn kernel_timers_are_monotonic() {
    let (tree, data) = quartet();
    let counters = PlfCounters::new();
    let mut backend = plf_repro::multicore::RayonBackend::new(2)
        .unwrap()
        .with_metrics(Arc::clone(&counters));
    let mut eval = TreeLikelihood::new(&tree, &data, model()).unwrap();
    eval.log_likelihood(&tree, &mut backend).unwrap();
    let first = counters.snapshot();
    eval.log_likelihood(&tree, &mut backend).unwrap();
    let second = counters.snapshot();
    for k in Kernel::ALL {
        assert!(first.kernel(k).seconds >= 0.0);
        assert!(
            second.kernel(k).seconds >= first.kernel(k).seconds,
            "{} time went backwards",
            k.label()
        );
        assert_eq!(second.kernel(k).invocations, 2 * first.kernel(k).invocations);
    }
    assert!(second.plf_seconds() >= first.plf_seconds());
    assert!(second.plf_seconds() > 0.0, "two evaluations must take measurable time");
}

#[test]
fn all_backends_bill_identical_work() {
    // Big enough that each of the QS20's 16 SPEs holds several
    // Local-Store chunks (~103 patterns each for CondLikeDown), so
    // double buffering actually overlaps DMA with compute.
    let ds = seqgen::generate(DatasetSpec::new(10, 2_400), 77);
    let evals = 2u64;
    let run = |backend: &mut dyn PlfBackend, counters: &Arc<PlfCounters>| -> MetricsSnapshot {
        let mut eval = TreeLikelihood::new(&ds.tree, &ds.data, model()).unwrap();
        for _ in 0..evals {
            eval.log_likelihood(&ds.tree, backend).unwrap();
        }
        counters.snapshot()
    };
    let mut snaps = Vec::new();
    let mut cell_modeled_seconds = 0.0;
    for which in ["rayon", "persistent", "ps3", "8800gt"] {
        let counters = PlfCounters::new();
        let snap = match which {
            "rayon" => run(
                &mut plf_repro::multicore::RayonBackend::new(3)
                    .unwrap()
                    .with_metrics(Arc::clone(&counters)),
                &counters,
            ),
            "persistent" => run(
                &mut plf_repro::multicore::PersistentPoolBackend::new(3)
                    .with_metrics(Arc::clone(&counters)),
                &counters,
            ),
            "ps3" => {
                let mut cell = CellBackend::ps3().with_metrics(Arc::clone(&counters));
                let snap = run(&mut cell, &counters);
                cell_modeled_seconds = cell.stats().modeled_seconds;
                snap
            }
            _ => run(
                &mut plf_repro::gpu::GpuBackend::gt8800().with_metrics(Arc::clone(&counters)),
                &counters,
            ),
        };
        snaps.push((which, snap));
    }
    let (_, reference) = &snaps[0];
    assert!(reference.invocations() > 0);
    for (name, s) in &snaps {
        assert_eq!(s.evaluations, evals, "{name}");
        for k in Kernel::ALL {
            assert_eq!(
                s.kernel(k).invocations,
                reference.kernel(k).invocations,
                "{name} {} invocations",
                k.label()
            );
            assert_eq!(
                s.kernel(k).patterns,
                reference.kernel(k).patterns,
                "{name} {} patterns",
                k.label()
            );
        }
        assert_eq!(s.rescaled_patterns, reference.rescaled_patterns, "{name} rescales");
    }
    // Only the device backends move bytes over a modeled bus.
    let by_name = |n: &str| &snaps.iter().find(|(name, _)| *name == n).unwrap().1;
    assert_eq!(by_name("rayon").transfer.total_bytes(), 0);
    assert_eq!(by_name("persistent").transfer.total_bytes(), 0);
    let cell = by_name("ps3");
    assert!(cell.transfer.total_bytes() > 0);
    assert!(cell.transfer.commands > 0, "DMA commands must be counted");
    assert!(cell.transfer.seconds > 0.0);
    assert!(
        cell.transfer.overlap_saved_seconds > 0.0,
        "the compute-bound PS3 double-buffers, so overlap must save modeled time"
    );
    // Transfer, overlap and modeled time come from one per-call cost,
    // so they are in the same units and nest.
    assert!(cell.transfer.exposed_seconds() <= cell_modeled_seconds);
    assert!(cell.transfer.overlap_saved_seconds <= cell.transfer.seconds);
    // ... and the saving is exactly the Figure 7 ablation's.
    let w = PlfWorkload {
        n_leaves: ds.tree.n_leaves(),
        n_patterns: ds.data.n_patterns(),
        n_rates: 4,
        n_down: cell.down.invocations,
        n_root: cell.root.invocations,
        n_scale: cell.scale.invocations,
    };
    let ablation = CellModel::ps3().without_double_buffering().plf_time(&w, 6)
        - CellModel::ps3().plf_time(&w, 6);
    let calls = cell.invocations() as f64;
    assert!(
        (cell.transfer.overlap_saved_seconds - ablation).abs() <= calls * 1e-9,
        "overlap saved {} s vs ablation {ablation} s",
        cell.transfer.overlap_saved_seconds
    );
    let gpu = by_name("8800gt");
    assert!(gpu.transfer.total_bytes() > 0);
    assert!(gpu.transfer.seconds > 0.0, "PCIe time must be modeled");
}

#[test]
fn resilient_wrapper_mirrors_recovery_into_counters() {
    /// Fails every down-call so the wrapper retries, then degrades.
    struct AlwaysDown;
    impl PlfBackend for AlwaysDown {
        fn name(&self) -> String {
            "always-down".into()
        }
        fn cond_like_down(
            &mut self,
            _l: &Clv,
            _pl: &TransitionMatrices,
            _r: &Clv,
            _pr: &TransitionMatrices,
            _out: &mut Clv,
        ) -> Result<(), PlfError> {
            Err(PlfError::Launch { backend: "always-down".into(), detail: "injected".into() })
        }
        fn cond_like_root(
            &mut self,
            a: &Clv,
            pa: &TransitionMatrices,
            b: &Clv,
            pb: &TransitionMatrices,
            c: Option<(&Clv, &TransitionMatrices)>,
            out: &mut Clv,
        ) -> Result<(), PlfError> {
            ScalarBackend.cond_like_root(a, pa, b, pb, c, out)
        }
        fn cond_like_scaler(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<(), PlfError> {
            ScalarBackend.cond_like_scaler(clv, ln_scalers)
        }
    }

    let (tree, data) = quartet();
    let counters = PlfCounters::new();
    let policy = RetryPolicy {
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        ..RetryPolicy::default()
    };
    let mut backend = ResilientBackend::new(Box::new(AlwaysDown))
        .with_fallback(Box::new(ScalarBackend))
        .with_policy(policy)
        .with_metrics(Arc::clone(&counters));
    let mut eval = TreeLikelihood::new(&tree, &data, model()).unwrap();
    eval.log_likelihood(&tree, &mut backend).unwrap();
    let s = counters.snapshot();
    // Default policy: 2 same-tier retries, then one degradation to the
    // scalar fallback, which serves all remaining calls.
    assert_eq!(s.retries, 2);
    assert_eq!(s.degradations, 1);
    assert_eq!(backend.report().retries, 2);
    assert_eq!(backend.report().degradations, 1);
    assert_eq!(backend.active_tier(), "scalar");
}
