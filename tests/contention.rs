//! Contention stress for the multicore executors.
//!
//! More threads than cores, each with its own `rayon-2` and
//! `persistent-2` backend, evaluate tiny data sets back to back. Each
//! round runs pool jobs of different sizes one after another (a
//! one-chunk and a two-chunk data set per call, then both as one fused
//! batch), while the oversubscribed host preempts workers mid-job. A
//! worker that acts on a job after its caller moved on, or a caller
//! that returns before its last chunk finished, shows up as an lnL that
//! differs from the scalar reference; every evaluation is compared bit
//! for bit.

use plf_repro::phylo::fused::{evaluate_fused, FusedJob};
use plf_repro::prelude::*;
use plf_repro::seqgen;

/// Contending evaluator threads: 6 threads x 2-thread pools on a
/// 2-core host keeps every core oversubscribed.
const THREADS: usize = 6;
/// Rounds per thread; each round makes 8 evaluations.
const ROUNDS: usize = 120;

#[test]
fn multicore_pools_stay_bit_exact_under_contention() {
    // 40 patterns fit one 256-pattern chunk; 300 need two.
    let data = [
        seqgen::generate(DatasetSpec::new(6, 40), 7),
        seqgen::generate(DatasetSpec::new(6, 300), 8),
    ];
    let model = seqgen::default_model();
    let expect: Vec<f64> = data
        .iter()
        .map(|ds| {
            let mut eval = TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).unwrap();
            eval.log_likelihood(&ds.tree, &mut ScalarBackend).unwrap()
        })
        .collect();
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (data, model, expect) = (&data, &model, &expect);
                s.spawn(move || {
                    let mut backends: [Box<dyn PlfBackend>; 2] = [
                        Box::new(RayonBackend::new(2).unwrap()),
                        Box::new(PersistentPoolBackend::new(2)),
                    ];
                    let mut evals: Vec<TreeLikelihood> = data
                        .iter()
                        .map(|ds| TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).unwrap())
                        .collect();
                    let mut failures = Vec::new();
                    for round in 0..ROUNDS {
                        for backend in backends.iter_mut() {
                            let name = backend.name();
                            let mut got: Vec<f64> = evals
                                .iter_mut()
                                .zip(data)
                                .map(|(eval, ds)| {
                                    eval.log_likelihood(&ds.tree, backend.as_mut()).unwrap()
                                })
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
                            got.extend(evaluate_fused(&mut jobs, backend.as_mut(), None).unwrap());
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
