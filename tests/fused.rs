//! Cross-job fusion agreement: on every execution engine, evaluating a
//! batch of jobs through the fused driver (`evaluate_fused`) must be
//! *bitwise identical* to evaluating each job on its own through
//! `TreeLikelihood::log_likelihood` on the same backend. Fusion only
//! concatenates independent jobs' pattern spaces into shared kernel
//! invocations — it must never change what any single job computes,
//! on canonical-order and reordered-summation backends alike.

use plf_repro::phylo::fused::{evaluate_fused, FusedJob};
use plf_repro::prelude::*;
use plf_repro::{all_backends, seqgen};

/// A small family of related jobs: same dataset, same model, distinct
/// trees (each variant perturbs one branch), mimicking the proposals a
/// batched MCMC client submits.
fn job_family(n: usize) -> (Dataset, SiteModel, Vec<Tree>) {
    let ds = seqgen::generate(DatasetSpec::new(7, 48), 42);
    let model = SiteModel::gtr_gamma4(
        GtrParams::gtr([1.2, 3.9, 0.9, 1.1, 4.5, 1.0], [0.3, 0.21, 0.24, 0.25]),
        0.7,
    )
    .unwrap();
    let trees: Vec<Tree> = (0..n)
        .map(|i| {
            let mut tree = ds.tree.clone();
            let branches = tree.branches();
            let id = branches[i % branches.len()];
            tree.node_mut(id).branch *= 1.0 + 0.07 * (i as f64 + 1.0);
            tree
        })
        .collect();
    (ds, model, trees)
}

#[test]
fn fused_matches_per_job_bitwise_on_every_backend() {
    let (ds, model, trees) = job_family(5);
    for mut backend in all_backends().unwrap() {
        // Unfused reference: each job evaluated on its own.
        let per_job: Vec<f64> = trees
            .iter()
            .map(|tree| {
                let mut eval = TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap();
                eval.log_likelihood(tree, backend.as_mut()).unwrap()
            })
            .collect();
        // Fused: all jobs advance through shared kernel invocations.
        let mut evals: Vec<TreeLikelihood> = trees
            .iter()
            .map(|tree| TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap())
            .collect();
        let mut jobs: Vec<FusedJob<'_>> = evals
            .iter_mut()
            .zip(&trees)
            .map(|(eval, tree)| FusedJob {
                eval,
                tree,
                dataset_token: 1,
            })
            .collect();
        let fused = evaluate_fused(&mut jobs, backend.as_mut(), None).unwrap();
        let name = backend.name();
        assert_eq!(fused.len(), per_job.len());
        for (i, (f, p)) in fused.iter().zip(&per_job).enumerate() {
            assert!(p.is_finite() && *p < 0.0, "{name} job {i}: {p}");
            assert_eq!(
                f.to_bits(),
                p.to_bits(),
                "{name} job {i}: fused {f} != per-job {p}"
            );
        }
    }
}

#[test]
fn rebound_workspaces_match_fresh_bitwise_on_every_backend() {
    // The plfd workers keep their last shard's workspaces and rebind
    // them to the next shard's trees. Evaluate a different tree first
    // (other topology and leaf order) so every internal slot and most
    // tip slots hold stale values, then rebind and evaluate per job and
    // fused: both must match fresh workspaces bit for bit.
    let (ds, model, trees) = job_family(4);
    let stale_tree = seqgen::generate(DatasetSpec::new(7, 48), 43).tree;
    let stale_model = SiteModel::gtr_gamma4(GtrParams::jc69(), 0.4).unwrap();
    for mut backend in all_backends().unwrap() {
        let name = backend.name();
        let fresh: Vec<f64> = trees
            .iter()
            .map(|tree| {
                let mut eval = TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap();
                eval.log_likelihood(tree, backend.as_mut()).unwrap()
            })
            .collect();
        let mut evals: Vec<TreeLikelihood> = trees
            .iter()
            .map(|_| {
                let mut eval =
                    TreeLikelihood::new(&stale_tree, &ds.data, stale_model.clone()).unwrap();
                eval.log_likelihood(&stale_tree, backend.as_mut()).unwrap();
                eval
            })
            .collect();
        for (eval, tree) in evals.iter_mut().zip(&trees) {
            eval.rebind(tree, &ds.data, model.clone()).unwrap();
        }
        let mut got: Vec<f64> = evals
            .iter_mut()
            .zip(&trees)
            .map(|(eval, tree)| eval.log_likelihood(tree, backend.as_mut()).unwrap())
            .collect();
        for (eval, tree) in evals.iter_mut().zip(&trees) {
            eval.rebind(&stale_tree, &ds.data, stale_model.clone())
                .unwrap();
            eval.log_likelihood(&stale_tree, backend.as_mut()).unwrap();
            eval.rebind(tree, &ds.data, model.clone()).unwrap();
        }
        let mut jobs: Vec<FusedJob<'_>> = evals
            .iter_mut()
            .zip(&trees)
            .map(|(eval, tree)| FusedJob {
                eval,
                tree,
                dataset_token: 1,
            })
            .collect();
        got.extend(evaluate_fused(&mut jobs, backend.as_mut(), None).unwrap());
        for (i, (g, f)) in got.iter().zip(fresh.iter().cycle()).enumerate() {
            assert_eq!(
                g.to_bits(),
                f.to_bits(),
                "{name} eval {i}: rebound {g} != fresh {f}"
            );
        }
    }
}

#[test]
fn fused_with_cache_matches_per_job_bitwise_on_every_backend() {
    // Second pass over identical jobs hits the CLV cache; served
    // entries must be bit-identical to recomputation on every engine.
    let (ds, model, trees) = job_family(4);
    for mut backend in all_backends().unwrap() {
        let name = backend.name();
        let per_job: Vec<f64> = trees
            .iter()
            .map(|tree| {
                let mut eval = TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap();
                eval.log_likelihood(tree, backend.as_mut()).unwrap()
            })
            .collect();
        let mut cache = ClvCache::new(512);
        for pass in 0..2 {
            let mut evals: Vec<TreeLikelihood> = trees
                .iter()
                .map(|tree| TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap())
                .collect();
            let mut jobs: Vec<FusedJob<'_>> = evals
                .iter_mut()
                .zip(&trees)
                .map(|(eval, tree)| FusedJob {
                    eval,
                    tree,
                    dataset_token: 1,
                })
                .collect();
            let fused = evaluate_fused(&mut jobs, backend.as_mut(), Some(&mut cache)).unwrap();
            for (i, (f, p)) in fused.iter().zip(&per_job).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    p.to_bits(),
                    "{name} pass {pass} job {i}: {f} != {p}"
                );
            }
            let stats = cache.take_stats();
            if pass == 1 {
                assert!(stats.hits > 0, "{name}: warm pass never hit the cache");
            }
        }
    }
}

#[test]
fn fused_matches_per_job_bitwise_through_resilient_wrapper() {
    // The resilience wrapper must be parity-transparent: with a healthy
    // primary tier it forwards every kernel (fused and unfused) to that
    // tier, so fused evaluation through the wrapper must stay bitwise
    // identical to per-job evaluation on the bare backend.
    use plf_repro::phylo::kernels::{ScalarBackend, Simd4Backend};
    use plf_repro::phylo::resilience::ResilientBackend;

    let (ds, model, trees) = job_family(4);
    let mut bare = Simd4Backend::col_wise();
    let per_job: Vec<f64> = trees
        .iter()
        .map(|tree| {
            let mut eval = TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap();
            eval.log_likelihood(tree, &mut bare).unwrap()
        })
        .collect();

    let mut wrapped = ResilientBackend::new(Box::new(Simd4Backend::col_wise()))
        .with_fallback(Box::new(ScalarBackend));
    let mut evals: Vec<TreeLikelihood> = trees
        .iter()
        .map(|tree| TreeLikelihood::new(tree, &ds.data, model.clone()).unwrap())
        .collect();
    let mut jobs: Vec<FusedJob<'_>> = evals
        .iter_mut()
        .zip(&trees)
        .map(|(eval, tree)| FusedJob {
            eval,
            tree,
            dataset_token: 1,
        })
        .collect();
    let fused = evaluate_fused(&mut jobs, &mut wrapped, None).unwrap();
    assert_eq!(fused.len(), per_job.len());
    for (i, (f, p)) in fused.iter().zip(&per_job).enumerate() {
        assert_eq!(
            f.to_bits(),
            p.to_bits(),
            "ResilientBackend job {i}: fused {f} != bare per-job {p}"
        );
    }
    assert!(
        !wrapped.report().any_faults(),
        "healthy run must not record faults"
    );
}
