//! Contention stress for the executors that share state across calls.
//!
//! More threads than cores, each with its own backends, evaluate tiny
//! data sets back to back. Each round runs calls of different sizes one
//! after another (a small and a larger data set per call, then both as
//! one fused batch), while the oversubscribed host preempts workers
//! mid-job. A worker that acts on a job after its caller moved on, or a
//! caller that returns before its last chunk finished, shows up as an
//! lnL that differs from the scalar reference; every evaluation is
//! compared bit for bit.

use plf_repro::phylo::fused::{evaluate_fused, FusedJob};
use plf_repro::prelude::*;
use plf_repro::seqgen;

/// Contending evaluator threads: 6 threads x 2-thread pools on a
/// 2-core host keeps every core oversubscribed.
const THREADS: usize = 6;
/// Rounds per thread; each round makes 8 evaluations.
const ROUNDS: usize = 120;

/// Cell evaluator threads: each PS3 backend runs 6 SPE threads per
/// kernel call, so 4 of them put 24 SPE threads on the host.
const CELL_THREADS: usize = 4;
/// Rounds per Cell thread; each round makes 4 evaluations.
const CELL_ROUNDS: usize = 80;

/// The serial scalar lnL of each data set.
fn scalar_reference(data: &[Dataset], model: &SiteModel) -> Vec<f64> {
    data.iter()
        .map(|ds| {
            let mut eval = TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).unwrap();
            eval.log_likelihood(&ds.tree, &mut ScalarBackend).unwrap()
        })
        .collect()
}

/// Thread `t`'s share of the stress: `rounds` rounds of per-op then
/// fused evaluations of every data set on each backend, each lnL
/// compared bit for bit with `expect`. Returns one line per mismatch.
fn stress_rounds(
    t: usize,
    rounds: usize,
    data: &[Dataset],
    model: &SiteModel,
    expect: &[f64],
    backends: &mut [&mut dyn PlfBackend],
) -> Vec<String> {
    let mut evals: Vec<TreeLikelihood> = data
        .iter()
        .map(|ds| TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).unwrap())
        .collect();
    let mut failures = Vec::new();
    for round in 0..rounds {
        for backend in backends.iter_mut() {
            let name = backend.name();
            let mut got: Vec<f64> = evals
                .iter_mut()
                .zip(data)
                .map(|(eval, ds)| eval.log_likelihood(&ds.tree, &mut **backend).unwrap())
                .collect();
            let mut jobs: Vec<FusedJob<'_>> = evals
                .iter_mut()
                .zip(data)
                .zip(0..)
                .map(|((eval, ds), token)| FusedJob {
                    eval,
                    tree: &ds.tree,
                    dataset_token: token,
                })
                .collect();
            got.extend(evaluate_fused(&mut jobs, &mut **backend, None).unwrap());
            for (i, (g, e)) in got.iter().zip(expect.iter().cycle()).enumerate() {
                if g.to_bits() != e.to_bits() {
                    failures.push(format!(
                        "thread {t} round {round} {name} eval {i}: {g} != {e}"
                    ));
                }
            }
        }
    }
    failures
}

#[test]
fn multicore_pools_stay_bit_exact_under_contention() {
    // 40 patterns fit one 256-pattern chunk; 300 need two.
    let data = [
        seqgen::generate(DatasetSpec::new(6, 40), 7),
        seqgen::generate(DatasetSpec::new(6, 300), 8),
    ];
    let model = seqgen::default_model();
    let expect = scalar_reference(&data, &model);
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (data, model, expect) = (&data, &model, &expect);
                s.spawn(move || {
                    let mut rayon = RayonBackend::new(2).unwrap();
                    let mut persistent = PersistentPoolBackend::new(2);
                    let backends: &mut [&mut dyn PlfBackend] = &mut [&mut rayon, &mut persistent];
                    stress_rounds(t, ROUNDS, data, model, expect, backends)
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} evaluations differ from the scalar reference:\n{}",
        failures.len(),
        THREADS * ROUNDS * 8,
        failures.join("\n")
    );
}

#[test]
fn cell_spe_threads_stay_bit_exact_under_contention() {
    // 40 patterns give each of the PS3's 6 SPEs one Local-Store chunk;
    // 3,000 give each 500, two `CondLikeDown` chunks of at most 416.
    let data = [
        seqgen::generate(DatasetSpec::new(6, 40), 7),
        seqgen::generate(DatasetSpec::new(6, 3_000), 8),
    ];
    let model = seqgen::default_model();
    let expect = scalar_reference(&data, &model);
    let results: Vec<(Vec<String>, plf_repro::cellbe::CellRunStats)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CELL_THREADS)
            .map(|t| {
                let (data, model, expect) = (&data, &model, &expect);
                s.spawn(move || {
                    let mut cell = CellBackend::ps3();
                    let failures =
                        stress_rounds(t, CELL_ROUNDS, data, model, expect, &mut [&mut cell]);
                    (failures, cell.stats())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let failures: Vec<String> = results.iter().flat_map(|(f, _)| f.clone()).collect();
    assert!(
        failures.is_empty(),
        "{} of {} evaluations differ from the scalar reference:\n{}",
        failures.len(),
        CELL_THREADS * CELL_ROUNDS * 4,
        failures.join("\n")
    );
    // Modeled time and DMA counts come from the call sequence alone,
    // never from SPE-thread interleaving, so every thread bills the same.
    let stats = results[0].1;
    assert!(stats.kernel_calls > 0 && stats.chunks > 0);
    for (t, (_, s)) in results.iter().enumerate() {
        assert_eq!(*s, stats, "thread {t} billed different Cell work");
    }
}
