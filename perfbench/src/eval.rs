//! `eval-100x50k`: repeated full `TreeLikelihood::log_likelihood` of a
//! fixed tree on the paper's largest grid cell. The working set (198
//! CLVs × 50K patterns × 64 B ≈ 634 MB) is about twice the 300 MiB L3,
//! so kernel bytes moved decide the time; executor overhead is
//! negligible and the MCMC and service layers are absent.

use crate::layers::{baseline, kernel_metrics, kernel_seconds};
use crate::trace::Trace;
use crate::{
    finish_traced, host_threads, probe, repeat_setup, timed_loop, Metrics, Outcome, Params,
};
use plf_multicore::RayonBackend;
use plf_phylo::kernels::ScalarBackend;
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::metrics::PlfCounters;
use plf_seqgen::DatasetSpec;
use std::time::{Duration, Instant};

/// Run the workload.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let spec = DatasetSpec::new(p.size.pick(100, 8), p.size.pick(50_000, 500));
    // At least 100 evaluations, so p90 has 10 samples beyond it.
    let min_ops = p.size.pick(100, 20);
    let threads = host_threads();
    let mem_gbps = if p.trace {
        probe::mem_gbps(p.size.pick(probe::PROBE_MIB, 8))
    } else {
        0.0
    };

    let counters = PlfCounters::new();
    let mut generate_s = Vec::new();
    // Set-up ends with one evaluation, which faults the CLV pages in.
    let (setup_s, (ds, mut tl, mut backend)) = repeat_setup(
        || {
            let t0 = Instant::now();
            let ds = plf_seqgen::generate(spec, p.seed);
            generate_s.push(t0.elapsed().as_secs_f64());
            let mut backend = RayonBackend::new(threads)
                .map_err(|e| e.to_string())?
                .with_metrics(counters.clone());
            let mut tl = TreeLikelihood::new(&ds.tree, &ds.data, plf_seqgen::default_model())
                .map_err(|e| e.to_string())?;
            tl.log_likelihood(&ds.tree, &mut backend)
                .map_err(|e| e.to_string())?;
            Ok((ds, tl, backend))
        },
        |_| Ok(()),
    )?;

    let mut lnls = Vec::new();
    let mut m = Metrics::new();
    let mut notes = vec![format!(
        "data: {} taxa x {} patterns, rayon-{threads}",
        spec.taxa, spec.patterns
    )];
    let windows = if !p.trace {
        let w = timed_loop(p.seconds, min_ops, |_| {
            let lnl = tl.log_likelihood(&ds.tree, &mut backend);
            lnls.push(lnl.as_ref().ok().copied());
            Ok(lnl.is_ok())
        })?;
        m.insert("setup_s", setup_s);
        w.end_to_end(&mut m, &mut notes);
        vec![w]
    } else {
        let plain = timed_loop(p.seconds / 2.0, min_ops / 2, |_| {
            let lnl = tl.log_likelihood(&ds.tree, &mut backend);
            lnls.push(lnl.as_ref().ok().copied());
            Ok(lnl.is_ok())
        })?;
        let epoch = Instant::now();
        let mut trace = Trace::new(epoch);
        let root = trace.span("bench.window", 0, None, epoch, epoch);
        let k0 = counters.snapshot();
        let traced = timed_loop(p.seconds / 2.0, min_ops / 2, |i| {
            let busy0 = kernel_seconds(&counters.snapshot());
            let t0 = Instant::now();
            let lnl = tl.log_likelihood(&ds.tree, &mut backend);
            let s = trace.span("likelihood.eval", i as u64, Some(root), t0, Instant::now());
            let busy = kernel_seconds(&counters.snapshot()) - busy0;
            trace.anchored(
                "multicore.kernels",
                s,
                Duration::from_secs_f64(busy.max(0.0)),
            );
            lnls.push(lnl.as_ref().ok().copied());
            Ok(lnl.is_ok())
        })?;
        trace.close(root, Instant::now());
        let k1 = counters.snapshot();
        kernel_metrics(&mut m, &k0, &k1, mem_gbps);
        m.insert("likelihood.evals", (k1.evaluations - k0.evaluations) as f64);
        m.insert("likelihood.self_s", trace.self_s("likelihood.eval"));
        finish_traced(p, &mut m, &trace, (&plain, &traced), mem_gbps, &generate_s)?;
        vec![plain, traced]
    };

    // Correctness, outside the timed windows: every evaluation's lnL
    // against the scalar reference of the same tree, bit for bit.
    let reference = tl
        .log_likelihood(&ds.tree, &mut ScalarBackend)
        .map_err(|e| e.to_string())?;
    let mut failed = lnls
        .iter()
        .filter(|l| l.map(f64::to_bits) != Some(reference.to_bits()))
        .count() as u64;
    notes.push(format!(
        "checked: {} lnL values against ScalarBackend",
        lnls.len()
    ));
    if p.trace {
        failed += baseline(&mut m, &mut tl, &ds.tree, p.size.pick(4, 3), threads)?;
    }
    Ok(Outcome {
        attempted: windows.iter().map(|w| w.op_s.len() as u64).sum(),
        failed,
        metrics: m,
        notes,
    })
}
