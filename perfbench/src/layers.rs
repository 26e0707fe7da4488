//! Per-layer metrics shared by the workloads: kernel counters turned
//! into rates against the roofline, and the single-threaded baseline.

use crate::probe::bytes_per_pattern;
use crate::stats::ratio;
use crate::Metrics;
use plf_multicore::RayonBackend;
use plf_phylo::kernels::{PlfBackend, ScalarBackend};
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::metrics::{Kernel, MetricsSnapshot, PlfCounters};
use plf_phylo::tree::Tree;
use std::time::Instant;

fn kernel_names(k: Kernel) -> [&'static str; 7] {
    match k {
        Kernel::Down => [
            "multicore.down.calls",
            "multicore.down.busy_s",
            "multicore.down.ns_per_pattern",
            "multicore.down.gbps",
            "multicore.down.roofline_frac",
            "multicore.down.patterns_per_call",
            "kernels.down.ns_per_pattern_1t",
        ],
        Kernel::Root => [
            "multicore.root.calls",
            "multicore.root.busy_s",
            "multicore.root.ns_per_pattern",
            "multicore.root.gbps",
            "multicore.root.roofline_frac",
            "multicore.root.patterns_per_call",
            "kernels.root.ns_per_pattern_1t",
        ],
        Kernel::Scale => [
            "multicore.scale.calls",
            "multicore.scale.busy_s",
            "multicore.scale.ns_per_pattern",
            "multicore.scale.gbps",
            "multicore.scale.roofline_frac",
            "multicore.scale.patterns_per_call",
            "kernels.scale.ns_per_pattern_1t",
        ],
    }
}

/// Kernel-layer metrics from the counter delta `after − before`:
/// calls, busy seconds, ns per pattern, computed GB/s and its share of
/// `mem_gbps`, and patterns per call. Returns the total busy seconds.
pub fn kernel_metrics(
    m: &mut Metrics,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    mem_gbps: f64,
) -> f64 {
    let mut busy = 0.0;
    for k in Kernel::ALL {
        let [calls, busy_s, ns, gbps, roof, ppc, _] = kernel_names(k);
        let (a, b) = (after.kernel(k), before.kernel(k));
        let n_calls = (a.invocations - b.invocations) as f64;
        let patterns = (a.patterns - b.patterns) as f64;
        let secs = a.seconds - b.seconds;
        let rate = ratio(patterns * bytes_per_pattern(k) as f64, secs) / 1e9;
        m.insert(calls, n_calls);
        m.insert(busy_s, secs);
        m.insert(ns, ratio(secs * 1e9, patterns));
        m.insert(gbps, rate);
        m.insert(roof, ratio(rate, mem_gbps));
        m.insert(ppc, ratio(patterns, n_calls));
        busy += secs;
    }
    busy
}

/// Total kernel seconds recorded in a snapshot.
pub fn kernel_seconds(s: &MetricsSnapshot) -> f64 {
    Kernel::ALL.iter().map(|&k| s.kernel(k).seconds).sum()
}

/// The single-threaded baseline on the workload's own evaluation:
/// `evals` full evaluations of `tree` on the `plfr` default backend
/// (`threads` workers) and on `ScalarBackend`, which give
/// `multicore.parallel_eff`; and the same evaluations on a one-thread
/// `RayonBackend` with the scalar kernels, which runs
/// `ScalarBackend`'s range kernels inline on the calling thread and
/// carries the counters `ScalarBackend` lacks, for
/// `kernels.*.ns_per_pattern_1t`. Returns how many evaluations were not
/// bit-identical to `ScalarBackend`.
pub fn baseline(
    m: &mut Metrics,
    tl: &mut TreeLikelihood,
    tree: &Tree,
    evals: usize,
    threads: usize,
) -> Result<u64, String> {
    let cfg = |e: plf_phylo::resilience::PlfError| e.to_string();
    let mut parallel = RayonBackend::new(threads).map_err(cfg)?;
    let one = PlfCounters::new();
    let mut single = RayonBackend::with_kernel(1, None)
        .map_err(cfg)?
        .with_metrics(one.clone());
    let mut time = |backend: &mut dyn PlfBackend| -> Result<(f64, Vec<f64>), String> {
        let t0 = Instant::now();
        let lnls = (0..evals)
            .map(|_| tl.log_likelihood(tree, backend).map_err(|e| e.to_string()))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok((t0.elapsed().as_secs_f64(), lnls))
    };
    let (scalar_s, reference) = time(&mut ScalarBackend)?;
    let (parallel_s, par_lnls) = time(&mut parallel)?;
    let (_, one_lnls) = time(&mut single)?;
    let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
    let mismatches = reference
        .iter()
        .zip(&par_lnls)
        .zip(&one_lnls)
        .filter(|((r, p), o)| !same(r, p) || !same(r, o))
        .count() as u64;
    m.insert(
        "multicore.parallel_eff",
        ratio(scalar_s, threads as f64 * parallel_s),
    );
    let snap = one.snapshot();
    for k in Kernel::ALL {
        let ks = snap.kernel(k);
        m.insert(
            kernel_names(k)[6],
            ratio(ks.seconds * 1e9, ks.patterns as f64),
        );
    }
    Ok(mismatches)
}
