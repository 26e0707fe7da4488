//! `mcmc-20x1k`: one MrBayes-style chain with full re-evaluation per
//! proposal on the 20-taxa × 1K-pattern grid cell. The CLVs (about
//! 2.5 MB) stay in cache and each generation makes about 36 kernel
//! calls of 1K patterns, so executor fork-join cost, likelihood
//! bookkeeping and proposal work decide the result; plfd and plf-net
//! are bypassed.

use crate::layers::{baseline, kernel_metrics, kernel_seconds};
use crate::trace::Trace;
use crate::{
    finish_traced, host_threads, probe, repeat_setup, stats, timed_loop, Metrics, Outcome, Params,
};
use plf_mcmc::{Chain, ChainOptions, Priors};
use plf_multicore::RayonBackend;
use plf_phylo::kernels::ScalarBackend;
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::metrics::PlfCounters;
use plf_phylo::model::{GtrParams, SiteModel};
use plf_seqgen::{Dataset, DatasetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Generations whose acceptance rate is reported: a fixed prefix of the
/// chain, so `mcmc.accept_ratio` repeats exactly for a seed.
const ACCEPT_WINDOW: usize = 500;

fn new_chain(ds: &Dataset, seed: u64) -> Result<Chain, String> {
    // The same start as `plfr mcmc` without `--tree`: a random tree.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_7065);
    let tree = plf_seqgen::random_tree_for_taxa(ds.data.taxa(), 0.1, &mut rng);
    let options = ChainOptions {
        seed,
        ..ChainOptions::default()
    };
    Chain::new(
        tree,
        &ds.data,
        GtrParams::jc69(),
        0.5,
        Priors::default(),
        options,
    )
    .map_err(|e| e.to_string())
}

/// Run the workload.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let spec = DatasetSpec::new(p.size.pick(20, 8), p.size.pick(1000, 200));
    let min_ops = p.size.pick(1000, 40);
    let threads = host_threads();
    let mem_gbps = if p.trace {
        probe::mem_gbps(p.size.pick(probe::PROBE_MIB, 8))
    } else {
        0.0
    };

    let counters = PlfCounters::new();
    let mut generate_s = Vec::new();
    let (setup_s, (ds, mut backend, mut chain)) = repeat_setup(
        || {
            let t0 = Instant::now();
            let ds = plf_seqgen::generate(spec, p.seed);
            generate_s.push(t0.elapsed().as_secs_f64());
            let mut backend = RayonBackend::new(threads)
                .map_err(|e| e.to_string())?
                .with_metrics(counters.clone());
            let mut chain = new_chain(&ds, p.seed)?;
            chain.initialize(&mut backend).map_err(|e| e.to_string())?;
            Ok((ds, backend, chain))
        },
        |_| Ok(()),
    )?;

    let mut accepted = Vec::new();
    let mut m = Metrics::new();
    let mut notes = vec![format!(
        "data: {} taxa x {} patterns, rayon-{threads}",
        spec.taxa, spec.patterns
    )];
    let on_step = |ok: Option<bool>, accepted: &mut Vec<bool>| {
        accepted.push(ok == Some(true));
        ok.is_some()
    };
    let windows = if !p.trace {
        let w = timed_loop(p.seconds, min_ops, |_| {
            Ok(on_step(chain.step(&mut backend).ok(), &mut accepted))
        })?;
        m.insert("setup_s", setup_s);
        w.end_to_end(&mut m, &mut notes);
        vec![w]
    } else {
        // Untraced half, then traced half of the same chain.
        let plain = timed_loop(p.seconds / 2.0, min_ops / 2, |_| {
            Ok(on_step(chain.step(&mut backend).ok(), &mut accepted))
        })?;
        let epoch = Instant::now();
        let mut trace = Trace::new(epoch);
        let root = trace.span("bench.window", 0, None, epoch, epoch);
        let (k0, a0) = (counters.snapshot(), chain.accum().clone());
        let base_gen = chain.generation() as u64;
        let traced = timed_loop(p.seconds / 2.0, min_ops / 2, |i| {
            let (plf0, busy0) = (chain.accum().plf_time, kernel_seconds(&counters.snapshot()));
            let t0 = Instant::now();
            let ok = chain.step(&mut backend).ok();
            let t1 = Instant::now();
            let s = trace.span("mcmc.step", base_gen + i as u64, Some(root), t0, t1);
            let e = trace.anchored("likelihood.eval", s, chain.accum().plf_time - plf0);
            let busy = kernel_seconds(&counters.snapshot()) - busy0;
            trace.anchored(
                "multicore.kernels",
                e,
                Duration::from_secs_f64(busy.max(0.0)),
            );
            Ok(on_step(ok, &mut accepted))
        })?;
        trace.close(root, Instant::now());
        let (k1, a1) = (counters.snapshot(), chain.accum().clone());
        kernel_metrics(&mut m, &k0, &k1, mem_gbps);
        m.insert(
            "likelihood.evals",
            (a1.n_evaluations - a0.n_evaluations) as f64,
        );
        m.insert("likelihood.self_s", trace.self_s("likelihood.eval"));
        m.insert("mcmc.steps", traced.op_s.len() as f64);
        m.insert("mcmc.self_s", trace.self_s("mcmc.step"));
        finish_traced(p, &mut m, &trace, (&plain, &traced), mem_gbps, &generate_s)?;
        vec![plain, traced]
    };
    let window = ACCEPT_WINDOW.min(accepted.len());
    let n_accepted = accepted[..window].iter().filter(|&&a| a).count();
    if p.trace {
        m.insert(
            "mcmc.accept_ratio",
            stats::ratio(n_accepted as f64, window as f64),
        );
    }

    // Correctness, outside the timed windows: replay the same number of
    // generations on the scalar reference and compare the sampled lnL
    // trace and the final lnL bit for bit.
    let gens = chain.generation();
    let mut reference = new_chain(&ds, p.seed)?;
    let mut scalar = ScalarBackend;
    reference
        .initialize(&mut scalar)
        .map_err(|e| e.to_string())?;
    for _ in 0..gens {
        reference.step(&mut scalar).map_err(|e| e.to_string())?;
    }
    let bits = |c: &Chain| -> Vec<u64> {
        c.samples()
            .iter()
            .map(|s| s.ln_likelihood.to_bits())
            .collect()
    };
    let (got, want) = (bits(&chain), bits(&reference));
    let mut failed: u64 = windows.iter().map(|w| w.failed).sum();
    failed += got.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;
    failed += got.len().abs_diff(want.len()) as u64;
    failed += u64::from(
        chain.state().ln_likelihood.to_bits() != reference.state().ln_likelihood.to_bits(),
    );
    notes.push(format!(
        "checked: {} sampled lnL + final lnL of {gens} generations against ScalarBackend",
        want.len()
    ));

    if p.trace {
        let st = chain.state();
        let model = SiteModel::new(st.params.clone(), st.shape, ChainOptions::default().n_rates)
            .and_then(|m| m.with_pinvar(st.pinvar))
            .map_err(|e| e.to_string())?;
        let mut tl = TreeLikelihood::new(&st.tree, &ds.data, model).map_err(|e| e.to_string())?;
        failed += baseline(&mut m, &mut tl, &st.tree, p.size.pick(200, 5), threads)?;
    }
    Ok(Outcome {
        attempted: windows.iter().map(|w| w.op_s.len() as u64).sum(),
        failed,
        metrics: m,
        notes,
    })
}
