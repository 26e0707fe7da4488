//! Statistical end-to-end validation: simulate data under known truth,
//! infer with the MCMC machinery, and check the truth is recovered.
//! This exercises the entire stack — Seq-Gen substitute, PLF kernels,
//! incremental updates, proposals, consensus summarization — as one
//! system, the way a biologist would use it.

use plf_repro::mcmc::consensus::{majority_consensus, robinson_foulds};
use plf_repro::mcmc::{Chain, ChainOptions, Priors};
use plf_repro::phylo::kernels::ScalarBackend;
use plf_repro::phylo::tree::Tree;
use plf_repro::prelude::*;
use plf_repro::seqgen;

#[test]
fn topology_recovery_from_strong_signal() {
    // Plenty of data on a 8-taxon tree: the true topology should
    // dominate the posterior sample.
    let ds = seqgen::generate(DatasetSpec::new(8, 400), 99);
    let mut chain = Chain::new(
        ds.tree.clone(),
        &ds.data,
        seqgen::default_model().params().clone(),
        0.5,
        Priors::default(),
        ChainOptions {
            generations: 1_500,
            seed: 7,
            sample_every: 50,
            record_trace: true,
            incremental: true,
            ..ChainOptions::default()
        },
    )
    .unwrap();
    let stats = chain.run(&mut ScalarBackend).unwrap();

    // Post-burn-in consensus.
    let trees: Vec<Tree> = stats
        .trace
        .iter()
        .skip(stats.trace.len() / 3)
        .map(|r| Tree::from_newick(&r.newick).unwrap())
        .collect();
    assert!(trees.len() >= 10);
    let consensus = majority_consensus(&trees, 0.5);

    // Strip support labels so the consensus parses as a plain tree; a
    // fully resolved 8-taxon unrooted tree has 5 non-trivial splits.
    assert!(
        !consensus.splits.is_empty(),
        "consensus collapsed to a star — no signal recovered"
    );
    // The sampled trees should be close to the generating topology.
    let mean_rf: f64 = trees
        .iter()
        .map(|t| robinson_foulds(t, &ds.tree) as f64)
        .sum::<f64>()
        / trees.len() as f64;
    // Max RF for 8 taxa is 2*(8-3) = 10.
    assert!(
        mean_rf < 5.0,
        "posterior wanders far from the truth: mean RF {mean_rf}"
    );
}

#[test]
fn branch_length_scale_recovery() {
    // Tree length posterior mean should land near the generating tree's
    // length (exponential prior pulls down slightly; allow slack).
    let ds = seqgen::generate(DatasetSpec::new(6, 500), 4);
    let truth = ds.tree.tree_length();
    let mut chain = Chain::new(
        ds.tree.clone(),
        &ds.data,
        seqgen::default_model().params().clone(),
        0.5,
        Priors::default(),
        ChainOptions {
            generations: 1_200,
            seed: 13,
            sample_every: 40,
            incremental: true,
            ..ChainOptions::default()
        },
    )
    .unwrap();
    let stats = chain.run(&mut ScalarBackend).unwrap();
    let skip = stats.samples.len() / 3;
    let kept = &stats.samples[skip..];
    let mean_tl: f64 = kept.iter().map(|s| s.tree_length).sum::<f64>() / kept.len() as f64;
    assert!(
        (mean_tl - truth).abs() < truth * 0.5,
        "tree length {mean_tl:.3} vs truth {truth:.3}"
    );
}

#[test]
fn frequency_recovery_with_model_moves() {
    // Generating frequencies are skewed; the chain starts at JC (equal)
    // and must move towards the truth.
    let ds = seqgen::generate(DatasetSpec::new(6, 600), 21);
    let true_freqs = seqgen::default_model().freqs();
    let mut chain = Chain::new(
        ds.tree.clone(),
        &ds.data,
        GtrParams::jc69(),
        0.5,
        Priors::default(),
        ChainOptions {
            generations: 1_500,
            seed: 3,
            sample_every: 0,
            incremental: true,
            ..ChainOptions::default()
        },
    )
    .unwrap();
    chain.run(&mut ScalarBackend).unwrap();
    let est = chain.state().params.freqs;
    for s in 0..4 {
        assert!(
            (est[s] - true_freqs[s]).abs() < 0.08,
            "freq {s}: estimated {:.3} vs true {:.3}",
            est[s],
            true_freqs[s]
        );
    }
}

// ---------------------------------------------------------------------------
// Fault matrix: every simulated architecture × every fault class must be
// survived by the resilient execution wrapper, and — because the
// canonical-order kernels are bitwise identical to the scalar reference —
// recovery must reproduce the fault-free log-likelihood exactly.
// ---------------------------------------------------------------------------

mod fault_matrix {
    use plf_repro::phylo::kernels::{PlfBackend, ScalarBackend};
    use plf_repro::phylo::likelihood::{LikelihoodError, TreeLikelihood};
    use plf_repro::phylo::resilience::{
        CorruptionKind, FaultInjector, FaultSite, PlfError, ResilientBackend, RetryPolicy,
    };
    use plf_repro::prelude::*;
    use plf_repro::seqgen::{self, Dataset};
    use std::sync::Arc;
    use std::time::Duration;

    fn dataset() -> Dataset {
        seqgen::generate(DatasetSpec::new(10, 80), 4242)
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    fn fault_free_scalar_lnl(ds: &Dataset) -> f64 {
        let mut eval =
            TreeLikelihood::new(&ds.tree, &ds.data, seqgen::default_model()).unwrap();
        eval.log_likelihood(&ds.tree, &mut ScalarBackend).unwrap()
    }

    /// Evaluate under the resilient wrapper (scalar fallback) and assert
    /// full recovery: the fault actually fired, the wrapper observed it,
    /// and the result is bitwise equal to the fault-free scalar run.
    fn assert_recovers(
        primary: Box<dyn PlfBackend>,
        injector: &Arc<FaultInjector>,
        policy: RetryPolicy,
        label: &str,
    ) {
        let ds = dataset();
        let expect = fault_free_scalar_lnl(&ds);
        let mut rb = ResilientBackend::new(primary)
            .with_fallback(Box::new(ScalarBackend))
            .with_policy(policy);
        let mut eval =
            TreeLikelihood::new(&ds.tree, &ds.data, seqgen::default_model()).unwrap();
        let lnl = eval
            .log_likelihood(&ds.tree, &mut rb)
            .unwrap_or_else(|e| panic!("{label}: resilient evaluation failed: {e}"));
        assert!(injector.fired() > 0, "{label}: no fault fired — test is vacuous");
        assert!(rb.report().any_faults(), "{label}: wrapper observed no fault");
        assert_eq!(lnl, expect, "{label}: lnL differs from fault-free scalar run");
    }

    fn rayon(inj: &Arc<FaultInjector>) -> Box<dyn PlfBackend> {
        Box::new(
            plf_repro::multicore::RayonBackend::new(3)
                .unwrap()
                .with_fault_injector(Arc::clone(inj)),
        )
    }

    fn cell(inj: &Arc<FaultInjector>) -> Box<dyn PlfBackend> {
        Box::new(plf_repro::cellbe::CellBackend::qs20().with_fault_injector(Arc::clone(inj)))
    }

    fn gpu(inj: &Arc<FaultInjector>) -> Box<dyn PlfBackend> {
        Box::new(plf_repro::gpu::GpuBackend::gtx285().with_fault_injector(Arc::clone(inj)))
    }

    // -- multi-core ---------------------------------------------------------

    #[test]
    fn rayon_survives_worker_panic() {
        let inj = Arc::new(FaultInjector::new(1).schedule(FaultSite::Worker, 0));
        assert_recovers(rayon(&inj), &inj, fast_policy(), "rayon/panic");
    }

    #[test]
    fn rayon_worker_panic_reaches_caller_and_same_backend_recovers() {
        // No resilient wrapper: the resident pool itself must re-raise
        // the injected chunk panic on the caller, and the same backend
        // (same pool, same resident workers) must then evaluate
        // bit-identically.
        let inj = Arc::new(FaultInjector::new(5).schedule(FaultSite::Worker, 0));
        let ds = dataset();
        let expect = fault_free_scalar_lnl(&ds);
        let mut backend = plf_repro::multicore::RayonBackend::new(2)
            .unwrap()
            .with_fault_injector(Arc::clone(&inj));
        let mut eval =
            TreeLikelihood::new(&ds.tree, &ds.data, seqgen::default_model()).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval.log_likelihood(&ds.tree, &mut backend)
        }));
        let payload = caught.expect_err("the injected worker panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected fault: rayon worker panic")
        );
        assert_eq!(inj.fired(), 1);
        for _ in 0..3 {
            let mut eval =
                TreeLikelihood::new(&ds.tree, &ds.data, seqgen::default_model()).unwrap();
            let lnl = eval.log_likelihood(&ds.tree, &mut backend).unwrap();
            assert_eq!(lnl.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn rayon_survives_nan_corruption() {
        let inj = Arc::new(FaultInjector::new(2).schedule_corruption(0, CorruptionKind::Nan));
        assert_recovers(rayon(&inj), &inj, fast_policy(), "rayon/nan");
    }

    #[test]
    fn rayon_survives_inf_corruption() {
        let inj = Arc::new(FaultInjector::new(3).schedule_corruption(1, CorruptionKind::Inf));
        assert_recovers(rayon(&inj), &inj, fast_policy(), "rayon/inf");
    }

    #[test]
    fn rayon_persistent_panics_degrade_to_scalar() {
        let inj = Arc::new(FaultInjector::new(4).with_rate(FaultSite::Worker, 1.0));
        let ds = dataset();
        let expect = fault_free_scalar_lnl(&ds);
        let mut rb = ResilientBackend::new(rayon(&inj))
            .with_fallback(Box::new(ScalarBackend))
            .with_policy(fast_policy());
        let mut eval =
            TreeLikelihood::new(&ds.tree, &ds.data, seqgen::default_model()).unwrap();
        let lnl = eval.log_likelihood(&ds.tree, &mut rb).unwrap();
        assert_eq!(lnl, expect);
        assert!(rb.report().degradations >= 1, "expected a tier switch");
        assert_eq!(rb.active_tier(), "scalar");
    }

    // -- Cell/BE ------------------------------------------------------------

    #[test]
    fn cell_survives_dma_failure() {
        let inj = Arc::new(FaultInjector::new(5).schedule(FaultSite::DmaTransfer, 2));
        assert_recovers(cell(&inj), &inj, fast_policy(), "cell/dma");
    }

    #[test]
    fn cell_survives_nan_corruption() {
        let inj = Arc::new(FaultInjector::new(6).schedule_corruption(0, CorruptionKind::Nan));
        assert_recovers(cell(&inj), &inj, fast_policy(), "cell/nan");
    }

    // -- GPU ----------------------------------------------------------------

    #[test]
    fn gpu_survives_pcie_failure() {
        let inj = Arc::new(FaultInjector::new(7).schedule(FaultSite::PcieTransfer, 1));
        assert_recovers(gpu(&inj), &inj, fast_policy(), "gpu/pcie");
    }

    #[test]
    fn gpu_survives_launch_failure() {
        let inj = Arc::new(FaultInjector::new(8).schedule(FaultSite::KernelLaunch, 0));
        assert_recovers(gpu(&inj), &inj, fast_policy(), "gpu/launch");
    }

    #[test]
    fn gpu_survives_inf_corruption() {
        let inj = Arc::new(FaultInjector::new(9).schedule_corruption(2, CorruptionKind::Inf));
        assert_recovers(gpu(&inj), &inj, fast_policy(), "gpu/inf");
    }

    // -- policy corners ------------------------------------------------------

    #[test]
    fn denormal_corruption_needs_strict_validation() {
        // Denormal corruption is the silent-precision-loss class: the
        // default policy lets it through; `reject_subnormals` catches it.
        let inj =
            Arc::new(FaultInjector::new(10).schedule_corruption(0, CorruptionKind::Denormal));
        let strict = RetryPolicy {
            reject_subnormals: true,
            ..fast_policy()
        };
        assert_recovers(gpu(&inj), &inj, strict, "gpu/denormal-strict");
    }

    #[test]
    fn exhaustion_without_fallback_surfaces_as_error() {
        let inj = Arc::new(FaultInjector::new(11).with_rate(FaultSite::Worker, 1.0));
        let ds = dataset();
        // Single tier, always failing, no fallback: the wrapper must give
        // up with `Exhausted` rather than loop or panic.
        let mut rb = ResilientBackend::new(rayon(&inj)).with_policy(fast_policy());
        let mut eval =
            TreeLikelihood::new(&ds.tree, &ds.data, seqgen::default_model()).unwrap();
        let err = eval.log_likelihood(&ds.tree, &mut rb).unwrap_err();
        assert!(
            matches!(
                err,
                LikelihoodError::Backend(PlfError::Exhausted { .. })
            ),
            "got {err:?}"
        );
    }

    // -- whole-application storm ---------------------------------------------

    #[test]
    fn mcmc_chain_survives_fault_storm_bitwise() {
        // A full MCMC run with random worker panics, corruption, and
        // transfer faults raining on the primary tier: the resilient
        // wrapper must keep the chain alive AND on the exact trajectory of
        // a fault-free scalar run (retry/fallback preserve bitwise
        // results for canonical-order kernels).
        use plf_repro::mcmc::{Chain, ChainOptions, Priors};
        let ds = seqgen::generate(DatasetSpec::new(8, 60), 77);
        let options = ChainOptions {
            generations: 120,
            seed: 13,
            sample_every: 20,
            ..ChainOptions::default()
        };
        let run = |backend: &mut dyn PlfBackend| {
            let mut chain = Chain::new(
                ds.tree.clone(),
                &ds.data,
                GtrParams::jc69(),
                0.5,
                Priors::default(),
                options.clone(),
            )
            .unwrap();
            chain.run(backend).unwrap()
        };
        let reference = run(&mut ScalarBackend);

        let inj = Arc::new(
            FaultInjector::new(12)
                .with_rate(FaultSite::Worker, 0.01)
                .with_rate(FaultSite::KernelOutput, 0.01),
        );
        let mut rb = ResilientBackend::new(rayon(&inj))
            .with_fallback(Box::new(ScalarBackend))
            .with_policy(fast_policy());
        let stormy = run(&mut rb);
        assert!(inj.fired() > 0, "storm too quiet — raise the rates");
        assert_eq!(
            stormy.final_ln_likelihood, reference.final_ln_likelihood,
            "trajectory diverged under faults"
        );
        assert_eq!(stormy.samples, reference.samples);
    }
}
