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
//!
//! The plfd service gets the same treatment from the client side: many
//! submitters, fused shards on resident workspaces that are rebound
//! from job to job, every result checked against the scalar reference.

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

/// Client threads submitting concurrently to one plfd service.
const SERVICE_CLIENTS: usize = 4;
/// Rounds per client; each round submits every (alignment, tree) job
/// twice, then waits for all of them.
const SERVICE_ROUNDS: usize = 30;

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

#[test]
fn plfd_fused_dispatch_stays_bit_exact_under_contention() {
    // Two alignments of the same taxa and pattern count, so a resident
    // workspace bound to one has the shape the other needs; trees with
    // different topologies and leaf orders, so each rebind moves tips
    // between slots. A workspace reused with stale tips, weights or
    // constant masks returns another job's lnL.
    let a = seqgen::generate(DatasetSpec::new(6, 300), 8);
    let b = seqgen::generate(DatasetSpec::new(6, 300), 9);
    assert_eq!(a.data.n_patterns(), b.data.n_patterns());
    // `a.tree` with its leaf names rotated: the same slots, other taxa.
    let mut rotated = a.tree.clone();
    let leaves = rotated.leaves();
    let names: Vec<Option<String>> = leaves
        .iter()
        .map(|&l| rotated.node(l).name.clone())
        .collect();
    for (k, &leaf) in leaves.iter().enumerate() {
        rotated.node_mut(leaf).name = names[(k + 1) % names.len()].clone();
    }
    let trees = [&a.tree, &rotated, &b.tree];
    let model = seqgen::default_model();
    let backends: Vec<Box<dyn PlfBackend>> = vec![
        Box::new(RayonBackend::new(2).unwrap()),
        Box::new(RayonBackend::new(2).unwrap()),
    ];
    let service = PlfService::new(ServiceConfig::default(), backends);
    let datasets = [
        (service.register_dataset(a.data.clone()), &a.data),
        (service.register_dataset(b.data.clone()), &b.data),
    ];
    let per_round = 2 * datasets.len() * trees.len();
    let failures: Vec<String> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|c| {
                let (service, datasets, model) = (&service, &datasets, &model);
                s.spawn(move || {
                    let mut failures = Vec::new();
                    for round in 0..SERVICE_ROUNDS {
                        // Every job gets its own branch lengths, so the
                        // CLV cache misses and each job reads its tips.
                        let jobs: Vec<_> = (0..per_round)
                            .map(|k| {
                                let i = k + c + round; // rotate how batches mix
                                let (dataset, data) = datasets[i % datasets.len()];
                                let mut tree = trees[i / datasets.len() % trees.len()].clone();
                                let scale = 1.0
                                    + 1e-3
                                        * ((c * SERVICE_ROUNDS + round) * per_round + k + 1) as f64;
                                for id in tree.branches() {
                                    tree.node_mut(id).branch *= scale;
                                }
                                let spec = JobSpec::new(
                                    format!("client-{c}"),
                                    dataset,
                                    tree.clone(),
                                    model.clone(),
                                );
                                (service.submit(spec).unwrap(), tree, data)
                            })
                            .collect();
                        for (k, (ticket, tree, data)) in jobs.into_iter().enumerate() {
                            let mut eval = TreeLikelihood::new(&tree, data, model.clone()).unwrap();
                            let want = eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
                            match ticket.wait().ln_likelihood() {
                                Some(got) if got.to_bits() == want.to_bits() => {}
                                got => failures.push(format!(
                                    "client {c} round {round} job {k}: {got:?} != {want}"
                                )),
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    let snap = service.snapshot();
    service.shutdown();
    let total = SERVICE_CLIENTS * SERVICE_ROUNDS * per_round;
    assert!(
        failures.is_empty(),
        "{} of {total} jobs differ from the scalar reference:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert_eq!(snap.completed, total as u64);
    assert!(
        snap.batch_jobs > snap.batches,
        "no multi-job batch formed ({} jobs in {} batches): the fused path went untested",
        snap.batch_jobs,
        snap.batches
    );
}
