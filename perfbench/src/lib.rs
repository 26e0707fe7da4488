//! The PLF stack's benchmark: three workloads, each measured end to end
//! with tracing off, plus a traced run that splits the same work into
//! per-layer numbers. See `README.md` for why each workload exists and
//! what every metric means.
//!
//! The benchmark reaches the repository only through public APIs:
//! `Chain::step`, `TreeLikelihood::log_likelihood`, `NetClient`, and
//! `seqgen::generate` are timed from outside, and the counters the
//! program already keeps (`PlfCounters`, `Chain::accum`,
//! `ServiceCounters`, `NetCounters`) are read as snapshot deltas.

pub mod eval;
pub mod layers;
pub mod mcmc;
pub mod probe;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed with tracing off on every workload:
/// `(name, unit)`. `ops` are MCMC generations, likelihood evaluations,
/// or served jobs, depending on the workload. Tail percentiles are
/// printed on the `# samples:` line but not gated: serve latency sits
/// on the reactor's 10 ms tick grid, so its p90 and p99 jump between
/// tick modes from run to run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms.p50", "ms")];

/// Per-layer metrics, printed by the traced run on every workload. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.mem_gbps", "GB/s"),
    ("multicore.down.calls", "count"),
    ("multicore.down.busy_s", "s"),
    ("multicore.down.ns_per_pattern", "ns"),
    ("multicore.down.gbps", "GB/s"),
    ("multicore.down.roofline_frac", "ratio"),
    ("multicore.down.patterns_per_call", "count"),
    ("multicore.root.calls", "count"),
    ("multicore.root.busy_s", "s"),
    ("multicore.root.ns_per_pattern", "ns"),
    ("multicore.root.gbps", "GB/s"),
    ("multicore.root.roofline_frac", "ratio"),
    ("multicore.root.patterns_per_call", "count"),
    ("multicore.scale.calls", "count"),
    ("multicore.scale.busy_s", "s"),
    ("multicore.scale.ns_per_pattern", "ns"),
    ("multicore.scale.gbps", "GB/s"),
    ("multicore.scale.roofline_frac", "ratio"),
    ("multicore.scale.patterns_per_call", "count"),
    ("multicore.busy_frac", "ratio"),
    ("multicore.parallel_eff", "ratio"),
    ("kernels.down.ns_per_pattern_1t", "ns"),
    ("kernels.root.ns_per_pattern_1t", "ns"),
    ("kernels.scale.ns_per_pattern_1t", "ns"),
    ("likelihood.evals", "count"),
    ("likelihood.self_s", "s"),
    ("mcmc.steps", "count"),
    ("mcmc.self_s", "s"),
    ("mcmc.accept_ratio", "ratio"),
    ("plfd.wait_ms_mean", "ms"),
    ("plfd.service_ms_mean", "ms"),
    ("plfd.jobs_per_batch", "count"),
    ("plfd.batch_occupancy", "ratio"),
    ("plfd.queue_depth_peak", "count"),
    ("plfd.rejected", "count"),
    ("clv_cache.hit_ratio", "ratio"),
    ("clv_cache.evictions", "count"),
    ("net.self_ms_mean", "ms"),
    ("net.bytes_per_job", "B"),
    ("net.protocol_errors", "count"),
    ("seqgen.generate_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// `ops_per_s` is the median rate over this many slices of a window.
pub const RATE_SLICES: usize = 10;

/// Set-up runs at least this many times per run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;
/// Set-up repeats beyond [`SETUP_REPS`] while the repetitions so far
/// took less than this, up to [`SETUP_MAX_REPS`], so that a set-up of a
/// few milliseconds still gets a steady median.
const SETUP_BUDGET_S: f64 = 1.0;
/// Most set-ups one run makes.
const SETUP_MAX_REPS: usize = 25;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One MCMC chain, full re-evaluation per proposal, 20 taxa × 1K.
    Mcmc,
    /// Repeated full evaluations of a fixed tree, 100 taxa × 50K.
    Eval,
    /// 16 proposal-shaped MCMC chains served over plf-net, 10 taxa × 1K.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Mcmc, Workload::Eval, Workload::Serve];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mcmc => "mcmc-20x1k",
            Workload::Eval => "eval-100x50k",
            Workload::Serve => "serve-chains-10x1k",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the real benchmark, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale inputs that exercise every code path.
    Tiny,
}

impl Size {
    /// `full` for [`Size::Full`], `tiny` otherwise.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Where a traced run writes its spans (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// Named metric values of one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that failed: errors, non-`Completed` jobs, lost
    /// responses, and results not bit-identical to `ScalarBackend`.
    pub failed: u64,
    /// End-to-end or per-layer metrics, depending on `Params::trace`.
    pub metrics: Metrics,
    /// Human-readable context (sample counts, sizes) printed before the
    /// result line.
    pub notes: Vec<String>,
}

/// Run one workload.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let mut outcome = match params.workload {
        Workload::Mcmc => mcmc::run(params)?,
        Workload::Eval => eval::run(params)?,
        Workload::Serve => serve::run(params)?,
    };
    let table = if params.trace { PER_LAYER } else { END_TO_END };
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "internal: metric {extra} is not in the published table"
        ));
    }
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("internal: metric {name} is {value}"));
    }
    for (name, _) in table {
        outcome.metrics.entry(name).or_insert(0.0);
    }
    Ok(outcome)
}

/// Unit of a published metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line the benchmark prints last.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Record the per-layer metrics every traced run shares (the roofline
/// probe, data generation, and how much of the window the spans explain
/// and cost) and write the spans to `p.trace_dir`.
pub fn finish_traced(
    p: &Params,
    m: &mut Metrics,
    trace: &trace::Trace,
    (plain, traced): (&Window, &Window),
    mem_gbps: f64,
    generate_s: &[f64],
) -> Result<(), String> {
    m.insert("host.mem_gbps", mem_gbps);
    m.insert("seqgen.generate_s", stats::median(generate_s));
    m.insert("trace.unattributed_frac", trace.unattributed_frac());
    m.insert(
        "trace.overhead_frac",
        traced.mean_op_s() / plain.mean_op_s() - 1.0,
    );
    if let Some(dir) = &p.trace_dir {
        let path = dir.join(format!("{}-seed{}.jsonl", p.workload.name(), p.seed));
        trace
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Worker threads the default `plfr` backend uses: one per available
/// core.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `make` [`SETUP_REPS`] or more times (see [`SETUP_BUDGET_S`]),
/// tearing each earlier result down before the next is built, so
/// repeated set-ups never hold two working sets at once. Returns the
/// median set-up seconds and the last result.
pub fn repeat_setup<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS)
    {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = Instant::now();
        last = Some(make()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let last = last.ok_or("internal: no set-up ran")?;
    Ok((stats::median(&times), last))
}

/// Run `op` until `seconds` have passed and at least `min_ops`
/// operations ran. `op(i)` returns whether operation `i` succeeded.
/// Returns each operation's seconds, the window's wall seconds, and the
/// failure count.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<bool, String>,
) -> Result<Window, String> {
    let start = Instant::now();
    let (mut op_s, mut done_s) = (Vec::new(), Vec::new());
    let mut failed = 0;
    while op_s.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let ok = op(op_s.len())?;
        op_s.push(t0.elapsed().as_secs_f64());
        done_s.push(start.elapsed().as_secs_f64());
        failed += u64::from(!ok);
    }
    Ok(Window {
        wall_s: start.elapsed().as_secs_f64(),
        op_s,
        done_s,
        failed,
        lost: 0,
    })
}

/// What one measured window saw.
#[derive(Debug)]
pub struct Window {
    /// Wall seconds from the first operation's start to the last's end.
    pub wall_s: f64,
    /// Seconds of each operation.
    pub op_s: Vec<f64>,
    /// When each operation finished, in seconds after the window
    /// started.
    pub done_s: Vec<f64>,
    /// Operations that failed (including `lost`).
    pub failed: u64,
    /// Operations that never answered, so have no duration in `op_s`.
    pub lost: u64,
}

impl Window {
    /// Fill the end-to-end metrics (all but `setup_s`) and the sample
    /// note from this window.
    pub fn end_to_end(&self, metrics: &mut Metrics, notes: &mut Vec<String>) {
        let ms: Vec<f64> = self.op_s.iter().map(|s| s * 1e3).collect();
        metrics.insert("ops_per_s", self.sliced_rate());
        metrics.insert("op_ms.p50", stats::quantile(&ms, 0.50));
        notes.push(format!(
            "samples: {} ops in {:.3} s; op_ms p50 {:.4}, p90 {:.4}, p99 {:.4}",
            ms.len(),
            self.wall_s,
            stats::quantile(&ms, 0.50),
            stats::quantile(&ms, 0.90),
            stats::quantile(&ms, 0.99),
        ));
    }

    /// Operations per second, as the median over [`RATE_SLICES`]
    /// consecutive slices of the completions (in time order) of each
    /// slice's count ÷ the time it spans, so a burst of interference
    /// from other tenants of the host that covers fewer than half the
    /// slices does not move it.
    fn sliced_rate(&self) -> f64 {
        let mut done = self.done_s.clone();
        done.sort_by(f64::total_cmp);
        let mut begin = 0.0;
        let rates: Vec<f64> = done
            .chunks(done.len().div_ceil(RATE_SLICES).max(1))
            .map(|slice| {
                let end = slice[slice.len() - 1];
                let rate = stats::ratio(slice.len() as f64, end - begin);
                begin = end;
                rate
            })
            .collect();
        stats::median(&rates)
    }

    /// Mean seconds per operation.
    pub fn mean_op_s(&self) -> f64 {
        stats::mean(&self.op_s)
    }
}
