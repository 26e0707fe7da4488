//! `plfr` — command-line front end for the PLF reproduction.
//!
//! ```text
//! plfr simulate   --taxa 10 --patterns 1000 --seed 42 --out data.fasta [--tree-out tree.nwk]
//! plfr likelihood --alignment data.fasta [--tree tree.nwk] [--backend rayon] [--shape 0.5] [--pinvar 0.1]
//! plfr mcmc       --alignment data.fasta [--tree tree.nwk] --generations 1000 [--backend qs20]
//!                 [--incremental] [--trace PREFIX] [--sample-every 100] [--seed 42]
//! plfr serve      --alignment data.fasta --listen ADDR [--backend rayon] [--workers 4]
//! plfr loadgen    --jobs 256 [--taxa 10] [--patterns 1000] [--backend rayon] [--workers 4] [--json]
//! plfr loadgen    --connect ADDR [--connections 10000] [--jobs 20000] [--pipeline 2] [--churn 8]
//! plfr chaos      [--jobs 200] [--seed 2009] [--kills 0@40] [--blackouts 1@80x6] [--json]
//! plfr backends
//! ```
//!
//! Alignment files are FASTA (`.fa`, `.fasta`) or PHYLIP (anything
//! else); trees are Newick. Without `--tree`, a random starting tree
//! over the alignment's taxa is generated from the seed.
//!
//! `serve` runs the `plfd` batched evaluation service on a socket
//! with `--listen ADDR` (the plf-net length-prefixed binary protocol,
//! per-tenant fair queuing, graceful drain);
//! `loadgen` drives an in-process service with a deterministic seeded
//! job stream and checks every completed result bit-for-bit against
//! the scalar reference, or — with `--connect ADDR` — floods a remote
//! `serve --listen` over thousands of concurrent connections;
//! `chaos` runs the self-healing soak — worker kills, backend
//! blackouts, and seeded kernel faults — and exits non-zero unless the
//! service recovered with zero lost jobs and bit-identical results.

use plf_repro::mcmc::consensus::consensus_from_newicks;
use plf_repro::mcmc::{p_file, summarize, t_file, Chain, ChainOptions, Mc3, Mc3Options, Priors};
use plf_repro::phylo::alignment::{Alignment, PatternAlignment};
use plf_repro::phylo::io;
use plf_repro::phylo::kernels::{PlfBackend, ScalarBackend, Simd4Backend};
use plf_repro::phylo::likelihood::TreeLikelihood;
use plf_repro::phylo::model::{GtrParams, SiteModel};
use plf_repro::phylo::resilience::{FaultInjector, ResilientBackend};
use plf_repro::phylo::tree::Tree;
use plf_repro::plfd::{
    run_chaos, ChaosBackendFactory, ChaosConfig, JournalConfig, LoadMode, LoadgenConfig,
    PlfService, ScheduledBlackout, ScheduledKill, ServiceConfig,
};
use plf_repro::seqgen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

/// Minimal `--key value` / `--flag` argument map.
#[derive(Debug, Default)]
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?} (expected --key)"))?;
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                out.values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                out.flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn backend_by_name(
    name: &str,
    injector: Option<&std::sync::Arc<FaultInjector>>,
) -> Result<Box<dyn PlfBackend>, String> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let inj = || injector.map(std::sync::Arc::clone);
    Ok(match name {
        "scalar" => Box::new(ScalarBackend),
        "simd" | "simd-colwise" => Box::new(Simd4Backend::col_wise()),
        "simd-rowwise" => Box::new(Simd4Backend::row_wise()),
        "rayon" => {
            let b = plf_repro::multicore::RayonBackend::new(threads).map_err(|e| e.to_string())?;
            match inj() {
                Some(i) => Box::new(b.with_fault_injector(i)),
                None => Box::new(b),
            }
        }
        // The persistent pool takes no injector: `rayon` runs the same
        // resident pool and covers its worker-panic site.
        "persistent" => Box::new(plf_repro::multicore::PersistentPoolBackend::new(threads)),
        "ps3" => {
            let b = plf_repro::cellbe::CellBackend::ps3();
            match inj() {
                Some(i) => Box::new(b.with_fault_injector(i)),
                None => Box::new(b),
            }
        }
        "qs20" => {
            let b = plf_repro::cellbe::CellBackend::qs20();
            match inj() {
                Some(i) => Box::new(b.with_fault_injector(i)),
                None => Box::new(b),
            }
        }
        "8800gt" => {
            let b = plf_repro::gpu::GpuBackend::gt8800();
            match inj() {
                Some(i) => Box::new(b.with_fault_injector(i)),
                None => Box::new(b),
            }
        }
        "gtx285" => {
            let b = plf_repro::gpu::GpuBackend::gtx285();
            match inj() {
                Some(i) => Box::new(b.with_fault_injector(i)),
                None => Box::new(b),
            }
        }
        other => return Err(format!("unknown backend {other:?}; see `plfr backends`")),
    })
}

/// Build the backend named on the command line. If any `PLF_FAULT_*`
/// environment knob is set, attach a deterministic fault injector to it
/// and wrap the result in a [`ResilientBackend`] that retries and falls
/// back to the scalar reference, so injected faults are survived rather
/// than fatal.
fn make_backend(name: &str) -> Result<Box<dyn PlfBackend>, String> {
    match FaultInjector::from_env().map_err(|e| e.to_string())? {
        None => backend_by_name(name, None),
        Some(injector) => {
            let injector = std::sync::Arc::new(injector);
            let primary = backend_by_name(name, Some(&injector))?;
            eprintln!(
                "fault injection enabled via PLF_FAULT_* env; running {name} under the resilient executor"
            );
            Ok(Box::new(
                ResilientBackend::new(primary).with_fallback(Box::new(ScalarBackend)),
            ))
        }
    }
}

const BACKEND_NAMES: &[&str] = &[
    "scalar",
    "simd",
    "simd-rowwise",
    "rayon",
    "persistent",
    "ps3",
    "qs20",
    "8800gt",
    "gtx285",
];

fn read_alignment(path: &str) -> Result<Alignment, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let is_fasta = path.ends_with(".fa") || path.ends_with(".fasta") || text.trim_start().starts_with('>');
    if is_fasta {
        io::parse_fasta(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        io::parse_phylip(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_or_make_tree(args: &Args, data: &PatternAlignment, seed: u64) -> Result<Tree, String> {
    match args.get("tree") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Tree::from_newick(text.trim()).map_err(|e| format!("{path}: {e}"))
        }
        None => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_7065);
            Ok(seqgen::random_tree_for_taxa(data.taxa(), 0.1, &mut rng))
        }
    }
}

fn build_model(args: &Args) -> Result<SiteModel, String> {
    let shape: f64 = args.parse_num("shape", 0.5)?;
    let pinvar: f64 = args.parse_num("pinvar", 0.0)?;
    let n_rates: usize = args.parse_num("rates", 4)?;
    SiteModel::new(GtrParams::jc69(), shape, n_rates)
        .and_then(|m| m.with_pinvar(pinvar))
        .map_err(|e| e.to_string())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let taxa: usize = args.parse_num("taxa", 10)?;
    let patterns: usize = args.parse_num("patterns", 1000)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let out = args.required("out")?;
    let ds = seqgen::generate(seqgen::DatasetSpec::new(taxa, patterns), seed);
    let aln = ds.data.decompress();
    let text = if out.ends_with(".phy") || out.ends_with(".phylip") {
        io::write_phylip(&aln)
    } else {
        io::write_fasta(&aln)
    };
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    if let Some(tree_out) = args.get("tree-out") {
        std::fs::write(tree_out, format!("{}\n", ds.tree.to_newick()))
            .map_err(|e| format!("{tree_out}: {e}"))?;
    }
    eprintln!(
        "wrote {} taxa x {} sites ({} distinct patterns) to {out}",
        aln.n_taxa(),
        aln.n_sites(),
        patterns
    );
    Ok(())
}

fn cmd_likelihood(args: &Args) -> Result<(), String> {
    let aln = read_alignment(args.required("alignment")?)?;
    let data = aln.compress();
    let seed: u64 = args.parse_num("seed", 42)?;
    let tree = load_or_make_tree(args, &data, seed)?;
    let model = build_model(args)?;
    let mut backend = make_backend(args.get("backend").unwrap_or("scalar"))?;
    let mut eval = TreeLikelihood::new(&tree, &data, model).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let lnl = eval
        .log_likelihood(&tree, backend.as_mut())
        .map_err(|e| e.to_string())?;
    let dt = t0.elapsed();
    println!("backend:  {}", backend.name());
    println!("patterns: {} (from {} sites)", data.n_patterns(), data.n_sites());
    println!("lnL:      {lnl:.6}");
    println!("time:     {:.3} ms", dt.as_secs_f64() * 1e3);
    Ok(())
}

fn cmd_mcmc(args: &Args) -> Result<(), String> {
    let aln = read_alignment(args.required("alignment")?)?;
    let data = aln.compress();
    let seed: u64 = args.parse_num("seed", 42)?;
    let tree = load_or_make_tree(args, &data, seed)?;
    let generations: usize = args.parse_num("generations", 1000)?;
    let sample_every: usize = args.parse_num("sample-every", 100)?;
    let trace_prefix = args.get("trace");
    let options = ChainOptions {
        generations,
        seed,
        sample_every,
        incremental: args.flag("incremental"),
        initial_pinvar: args.parse_num("pinvar", 0.0)?,
        record_trace: trace_prefix.is_some(),
        ..ChainOptions::default()
    };
    let n_chains: usize = args.parse_num("mc3", 1)?;
    if n_chains > 1 {
        return cmd_mc3(args, tree, &data, options, n_chains, trace_prefix);
    }
    let mut backend = make_backend(args.get("backend").unwrap_or("scalar"))?;
    let mut chain = Chain::new(tree, &data, GtrParams::jc69(), 0.5, Priors::default(), options)
        .map_err(|e| e.to_string())?;
    let stats = chain.run(backend.as_mut()).map_err(|e| e.to_string())?;
    println!("backend:            {}", backend.name());
    println!("generations:        {generations}");
    println!("final lnL:          {:.4}", stats.final_ln_likelihood);
    println!("PLF calls:          {}", stats.plf_calls);
    println!(
        "PLF / Remaining:    {:.3}s / {:.3}s ({:.1}% PLF)",
        stats.plf_time.as_secs_f64(),
        stats.remaining_time().as_secs_f64(),
        100.0 * stats.plf_fraction()
    );
    for (kind, ps) in &stats.proposals {
        println!(
            "  {:<16} {:>5.1}% accepted ({}/{})",
            kind.name(),
            100.0 * ps.acceptance_rate(),
            ps.accepted,
            ps.proposed
        );
    }
    if let Some(prefix) = trace_prefix {
        let pf = format!("{prefix}.p");
        let tf = format!("{prefix}.t");
        std::fs::write(&pf, p_file(&stats.trace)).map_err(|e| format!("{pf}: {e}"))?;
        std::fs::write(&tf, t_file(&stats.trace)).map_err(|e| format!("{tf}: {e}"))?;
        if let Some(s) = summarize(&stats.trace, 0.25) {
            println!(
                "trace:              {pf}, {tf} ({} samples; post-burn-in mean lnL {:.3})",
                s.n, s.mean_ln_likelihood
            );
        }
    }
    Ok(())
}

fn cmd_mc3(
    args: &Args,
    tree: Tree,
    data: &PatternAlignment,
    options: ChainOptions,
    n_chains: usize,
    trace_prefix: Option<&str>,
) -> Result<(), String> {
    let backend_name = args.get("backend").unwrap_or("scalar");
    let mut backends = Vec::with_capacity(n_chains);
    for _ in 0..n_chains {
        backends.push(make_backend(backend_name)?);
    }
    let mut mc3 = Mc3::new(
        tree,
        data,
        GtrParams::jc69(),
        0.5,
        Priors::default(),
        Mc3Options {
            n_chains,
            parallel: args.flag("parallel"),
            swap_every: args.parse_num("swap-every", 10)?,
            heat: args.parse_num("heat", 0.1)?,
            chain: options,
        },
    )
    .map_err(|e| e.to_string())?;
    let stats = mc3.run(&mut backends).map_err(|e| e.to_string())?;
    println!("chains:             {n_chains} (MC3, heat ladder)");
    println!("swap acceptance:    {:.1}%", 100.0 * stats.swap_acceptance());
    println!("final cold lnL:     {:.4}", stats.final_cold_ln_likelihood);
    println!("total PLF calls:    {}", stats.total_plf_calls());
    if let Some(prefix) = trace_prefix {
        let pf = format!("{prefix}.p");
        let tf = format!("{prefix}.t");
        std::fs::write(&pf, p_file(&stats.cold_trace)).map_err(|e| format!("{pf}: {e}"))?;
        std::fs::write(&tf, t_file(&stats.cold_trace)).map_err(|e| format!("{tf}: {e}"))?;
        println!("trace:              {pf}, {tf}");
    }
    Ok(())
}

fn cmd_consensus(args: &Args) -> Result<(), String> {
    let path = args.required("trees")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Accept either a NEXUS .t file or plain newick-per-line.
    let newicks: Vec<String> = text
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            if let Some(eq) = l.find('=') {
                if l.starts_with("tree ") || l.starts_with("  tree ") || l.contains(" tree ") {
                    return Some(l[eq + 1..].trim().to_string());
                }
            }
            if l.starts_with('(') {
                Some(l.to_string())
            } else {
                None
            }
        })
        .collect();
    if newicks.is_empty() {
        return Err(format!("{path}: no trees found"));
    }
    let burn_in: f64 = args.parse_num("burn-in", 0.25)?;
    let skip = (newicks.len() as f64 * burn_in) as usize;
    let threshold: f64 = args.parse_num("threshold", 0.5)?;
    let c = consensus_from_newicks(&newicks[skip..], threshold).map_err(|e| e.to_string())?;
    println!("{} trees ({} after burn-in)", newicks.len(), newicks.len() - skip);
    println!("consensus: {}", c.newick);
    for s in &c.splits {
        println!("  {:.2}  {{{}}}", s.support, s.taxa.join(","));
    }
    Ok(())
}

/// Shared service-shaping flags for `serve` and `loadgen`.
fn service_config(args: &Args) -> Result<ServiceConfig, String> {
    let mut cfg = ServiceConfig::default();
    cfg.queue_capacity = args.parse_num("queue-capacity", cfg.queue_capacity)?;
    cfg.batch.max_jobs = args.parse_num("batch-jobs", cfg.batch.max_jobs)?;
    cfg.batch.max_units = args.parse_num("batch-units", cfg.batch.max_units)?;
    let linger_ms: f64 =
        args.parse_num("linger-ms", cfg.batch.linger.as_secs_f64() * 1e3)?;
    if !(linger_ms.is_finite() && linger_ms >= 0.0) {
        return Err(format!("bad value for --linger-ms: {linger_ms}"));
    }
    cfg.batch.linger = Duration::from_secs_f64(linger_ms / 1e3);
    if let Some(dir) = args.get("journal-dir") {
        let mut journal = JournalConfig::in_dir(dir);
        let fsync_ms: f64 =
            args.parse_num("fsync-ms", journal.fsync_interval.as_secs_f64() * 1e3)?;
        if !(fsync_ms.is_finite() && fsync_ms >= 0.0) {
            return Err(format!("bad value for --fsync-ms: {fsync_ms}"));
        }
        journal.fsync_interval = Duration::from_secs_f64(fsync_ms / 1e3);
        cfg.journal = Some(journal);
    } else if args.get("fsync-ms").is_some() {
        return Err("--fsync-ms requires --journal-dir".into());
    }
    Ok(cfg)
}

/// One worker backend per `--workers`, cycling through the comma list
/// in `--backend`; honors `PLF_FAULT_*` via [`make_backend`].
fn service_backends(args: &Args) -> Result<Vec<Box<dyn PlfBackend>>, String> {
    let spec = args.get("backend").unwrap_or("rayon");
    let names: Vec<&str> = spec.split(',').filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        return Err("empty --backend list".into());
    }
    let workers: usize = args.parse_num("workers", names.len().max(4))?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    (0..workers)
        .map(|i| make_backend(names[i % names.len()]))
        .collect()
}

const SERVE_USAGE: &str = "plfr serve — run the plfd batched evaluation service

USAGE:
  plfr serve --alignment FILE --listen ADDR
             [--backend NAME[,NAME...]] [--workers N]
             [--queue-capacity K] [--batch-jobs N] [--batch-units N] [--linger-ms F]
             [--journal-dir DIR] [--fsync-ms F] [--drain-ms F]
             [--shape A] [--pinvar P] [--rates K]
  socket options (--listen, e.g. 127.0.0.1:7464 or 127.0.0.1:0):
             [--max-connections N] [--port-file FILE]
             [--tenant-policy NAME=WEIGHT[:RATE[:BURST[:PENDING]]][,NAME=...]]
             [--default-weight W] [--default-rate R] [--default-burst B]
             [--default-pending N]

SOCKET FRONT END (--listen ADDR):
  length-prefixed CRC-framed binary records
  ([magic u16][version u8][kind u8][len u32][payload][crc32 u32]);
  see the plf-net crate docs for the frame catalogue. Admission is
  weighted-fair across tenants (--tenant-policy / --default-*) with
  token-bucket rate limits; Reject frames carry retry_after and
  jobs_ahead verbatim so a remote RetryPolicy behaves exactly like an
  in-process one. --port-file writes the bound port (for --listen
  ADDR:0). At exit a combined JSON summary {service, net, reactor}
  is printed to stderr.

With --journal-dir, every acknowledged admission is written to a
crash-durable write-ahead journal before the response; on restart the
service replays admitted-but-unresolved jobs. --fsync-ms sets the
group-commit window (0 = fsync every append). SIGTERM/SIGINT trigger a
graceful drain (bounded by --drain-ms, default 10000) — the socket
server stops accepting, notifies clients with Draining frames,
resolves the backlog, flushes the journal, and exits 0.";

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.flag("help") {
        println!("{SERVE_USAGE}");
        return Ok(());
    }
    let addr = args.get("listen").ok_or(
        "serve needs --listen ADDR (binary socket protocol); see plfr serve --help",
    )?;
    let aln = read_alignment(args.required("alignment")?)?;
    let data = aln.compress();
    let model = build_model(args)?;
    let config = service_config(args)?;
    let drain_ms: f64 = args.parse_num("drain-ms", 10_000.0)?;
    if !(drain_ms.is_finite() && drain_ms >= 0.0) {
        return Err(format!("bad value for --drain-ms: {drain_ms}"));
    }
    let drain_deadline = Duration::from_secs_f64(drain_ms / 1e3);
    let journaled = config.journal.is_some();
    let service = PlfService::new(config, service_backends(args)?);
    let dataset = service.register_dataset(data);
    if journaled {
        let report = service.recover();
        eprintln!(
            "plfd: journal recovery — {} replayed ({} past deadline, {} unrecoverable), \
             {} journaled outcome(s) indexed, {} torn record(s) truncated",
            report.replayed,
            report.expired,
            report.unrecoverable,
            report.deduped_outcomes,
            report.truncated_records
        );
    }
    // The shutdown flag is wired to SIGINT/SIGTERM; the reactor polls
    // it instead of racing a signal against a blocking read.
    let shutdown = plf_net::ShutdownFlag::global();
    serve_listen(args, addr, service, dataset, model, drain_deadline, shutdown)
}

/// Parse `--tenant-policy NAME=WEIGHT[:RATE[:BURST[:PENDING]]],...` plus
/// the `--default-*` knobs into plf-net admission policies.
fn parse_tenant_policies(
    args: &Args,
) -> Result<(plf_net::TenantPolicy, Vec<(String, plf_net::TenantPolicy)>), String> {
    let mut default_policy = plf_net::TenantPolicy::default();
    default_policy.weight = args.parse_num("default-weight", default_policy.weight)?;
    default_policy.rate_per_sec = args.parse_num("default-rate", default_policy.rate_per_sec)?;
    default_policy.burst = args.parse_num("default-burst", default_policy.burst)?;
    default_policy.max_pending = args.parse_num("default-pending", default_policy.max_pending)?;
    let mut tenant_policies = Vec::new();
    if let Some(spec) = args.get("tenant-policy") {
        for entry in spec.split(',').filter(|s| !s.is_empty()) {
            let (name, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("bad --tenant-policy entry {entry:?} (want NAME=WEIGHT[:RATE[:BURST[:PENDING]]])"))?;
            let mut policy = default_policy;
            let mut fields = rest.split(':');
            let parse_f64 = |field: Option<&str>, what: &str, current: f64| -> Result<f64, String> {
                match field {
                    None => Ok(current),
                    Some(v) => v
                        .parse()
                        .map_err(|_| format!("bad {what} in --tenant-policy {entry:?}: {v}")),
                }
            };
            policy.weight = parse_f64(fields.next(), "weight", policy.weight)?;
            policy.rate_per_sec = parse_f64(fields.next(), "rate", policy.rate_per_sec)?;
            policy.burst = parse_f64(fields.next(), "burst", policy.burst)?;
            if let Some(v) = fields.next() {
                policy.max_pending = v
                    .parse()
                    .map_err(|_| format!("bad pending in --tenant-policy {entry:?}: {v}"))?;
            }
            if fields.next().is_some() {
                return Err(format!("too many fields in --tenant-policy {entry:?}"));
            }
            tenant_policies.push((name.to_string(), policy));
        }
    }
    Ok((default_policy, tenant_policies))
}

/// Socket front end: one epoll reactor multiplexing every connection
/// onto the batched service.
fn serve_listen(
    args: &Args,
    addr: &str,
    service: PlfService,
    dataset: plf_repro::plfd::DatasetId,
    model: SiteModel,
    drain_deadline: Duration,
    shutdown: plf_net::ShutdownFlag,
) -> Result<(), String> {
    let (default_policy, tenant_policies) = parse_tenant_policies(args)?;
    let mut net_cfg = plf_net::NetServerConfig::default();
    net_cfg.default_policy = default_policy;
    net_cfg.tenant_policies = tenant_policies;
    net_cfg.max_connections = args.parse_num("max-connections", net_cfg.max_connections)?;
    net_cfg.drain_timeout = drain_deadline;
    let counters = plf_repro::phylo::metrics::NetCounters::new();
    let journaled = service.journaled();
    let server = plf_net::NetServer::bind(
        addr,
        service,
        dataset,
        model,
        net_cfg,
        shutdown,
        std::sync::Arc::clone(&counters),
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let local = server.local_addr();
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, format!("{}\n", local.port())).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!(
        "plfd: listening on {local}{}",
        if journaled { " (journaled)" } else { "" }
    );
    let (mut service, report) = server.run().map_err(|e| format!("serve: {e}"))?;
    // The reactor already resolved or answered every staged job; this
    // drain flushes the journal and settles any service-side tail.
    let drain = service.drain(drain_deadline);
    eprintln!(
        "plfd: drained — {} resolved, {} pending at deadline, journal {} ({:.3} s); \
         {} conn(s) accepted, {} job(s) completed over the wire, {} unresolved at drain",
        drain.resolved,
        drain.pending_at_deadline,
        if drain.journal_flushed { "flushed" } else { "not flushed" },
        drain.elapsed.as_secs_f64(),
        report.accepted,
        report.completed,
        report.unresolved
    );
    let summary = serde_json::json!({
        "service": (service.snapshot()),
        "net": (counters.snapshot()),
        "reactor": (report)
    });
    drop(service);
    eprintln!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}

const LOADGEN_USAGE: &str = "plfr loadgen — drive a plfd service with a seeded job stream

USAGE (in-process, bit-checked against the scalar reference):
  plfr loadgen [--jobs 256] [--taxa 10] [--patterns 1000] [--seed 2009]
               [--backend NAME[,NAME...]] [--workers 4]
               [--concurrency N | --serial | --qps Q]   (submission discipline)
               [--tenants 4] [--high-frac 0.125] [--cancel-frac 0.0] [--deadline-ms D]
               [--duration SECONDS]                     (stop submitting after this long)
               [--queue-capacity K] [--batch-jobs N] [--batch-units N] [--linger-ms F]
               [--no-check]                             (skip bit-identity verification)
               [--strict-deadlines]                     (missed deadlines fail the run)
               [--json] [--out FILE]

USAGE (network, against `plfr serve --listen`):
  plfr loadgen --connect ADDR [--connections 64] [--jobs 512] [--tenants 4]
               [--pipeline 1]          (outstanding jobs per connection)
               [--churn N]             (reconnect as the next tenant every N jobs; 0 = off)
               [--high-every N]        (every Nth job is high priority)
               [--seed 2009] [--duration SECONDS]
               [--json] [--out FILE]

In-process mode: default is a closed loop with every job outstanding
at once (maximum batching pressure); --serial submits one job at a
time; --qps switches to an open loop at the target rate. Every
completed log-likelihood is recomputed on the serial scalar reference
and must match bit-for-bit.

Network mode: one event-driven reactor drives --connections concurrent
sockets (10k+ scales on one thread), retrying Reject frames with the
server's retry_after hints under pinned idempotency keys, and reports
end-to-end p50/p99/p999 latency. An acknowledged (Completed/Failed/
Cancelled/DeadlineMissed) job that the generator cannot account for is
a lost ack and fails the run.

EXIT CODE: 0 on success. Non-zero when any job is lost (resolved
without an outcome / acknowledged but unaccounted), when any completed
result is not bit-identical to the serial reference (in-process), or —
with --strict-deadlines — when any job misses its deadline. Rejections
and sheds are retried internally and never affect the exit code.";

/// Network load generator: `plfr loadgen --connect ADDR`.
fn cmd_loadgen_net(args: &Args, addr: &str) -> Result<(), String> {
    let mut cfg = plf_net::NetLoadConfig::default();
    cfg.connections = args.parse_num("connections", cfg.connections)?;
    cfg.jobs = args.parse_num("jobs", cfg.jobs)?;
    cfg.tenants = args.parse_num("tenants", cfg.tenants)?;
    cfg.pipeline = args.parse_num("pipeline", cfg.pipeline)?;
    cfg.churn_every = args.parse_num("churn", cfg.churn_every)?;
    cfg.high_every = args.parse_num("high-every", cfg.high_every)?;
    cfg.seed = args.parse_num("seed", cfg.seed)?;
    if cfg.connections == 0 || cfg.jobs == 0 {
        return Err("--connections and --jobs must be at least 1".into());
    }
    if let Some(v) = args.get("duration") {
        let secs: f64 = v
            .parse()
            .map_err(|_| format!("bad value for --duration: {v}"))?;
        if !(secs.is_finite() && secs > 0.0) {
            return Err(format!("bad value for --duration: {v}"));
        }
        cfg.deadline = Duration::from_secs_f64(secs);
    }
    let report = plf_net::loadgen::run(addr, &cfg).map_err(|e| format!("loadgen: {addr}: {e}"))?;

    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("out") {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.flag("json") {
        println!("{json}");
    } else {
        println!(
            "connections:      {} concurrent ({} opened, {} churn reconnects, {} failures)",
            report.connections, report.connections_opened, report.reconnects,
            report.connection_failures
        );
        println!(
            "resolved:         {} completed / {} failed / {} cancelled / {} deadline-missed / {} rejected-final / {} errors",
            report.completed, report.failed, report.cancelled, report.deadline_missed,
            report.rejected_final, report.errors
        );
        println!(
            "admission:        {} rejects seen, {} retries issued",
            report.rejects_seen, report.retries
        );
        println!(
            "throughput:       {:.1} jobs/s over {:.3} s",
            report.throughput_jobs_per_s,
            report.wall_ms / 1e3
        );
        println!(
            "latency:          p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms (max {:.2}, mean {:.2})",
            report.latency_ms.p50,
            report.latency_ms.p99,
            report.latency_ms.p999,
            report.latency_ms.max,
            report.latency_ms.mean
        );
        println!("lost acks:        {}", report.lost_acks);
    }
    if report.lost_acks > 0 {
        return Err(format!(
            "{} acknowledged job(s) lost over the wire",
            report.lost_acks
        ));
    }
    if report.completed == 0 {
        return Err("no job completed over the wire".into());
    }
    Ok(())
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    if args.flag("help") {
        println!("{LOADGEN_USAGE}");
        return Ok(());
    }
    if let Some(addr) = args.get("connect") {
        let addr = addr.to_string();
        return cmd_loadgen_net(args, &addr);
    }
    let jobs: usize = args.parse_num("jobs", 256)?;
    let taxa: usize = args.parse_num("taxa", 10)?;
    let patterns: usize = args.parse_num("patterns", 1000)?;
    let seed: u64 = args.parse_num("seed", 2009)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let mode = if args.flag("serial") {
        LoadMode::Closed { concurrency: 1 }
    } else if let Some(qps) = args.get("qps") {
        let qps: f64 = qps.parse().map_err(|_| format!("bad value for --qps: {qps}"))?;
        if !(qps.is_finite() && qps > 0.0) {
            return Err(format!("bad value for --qps: {qps}"));
        }
        LoadMode::Open { qps }
    } else {
        LoadMode::Closed {
            concurrency: args.parse_num("concurrency", jobs)?,
        }
    };
    let deadline = match args.get("deadline-ms") {
        None => None,
        Some(v) => {
            let ms: f64 = v.parse().map_err(|_| format!("bad value for --deadline-ms: {v}"))?;
            Some(Duration::from_secs_f64(ms.max(0.0) / 1e3))
        }
    };
    let cfg = LoadgenConfig {
        jobs,
        mode,
        tenants: args.parse_num("tenants", 4)?,
        high_fraction: args.parse_num("high-frac", 0.125)?,
        cancel_fraction: args.parse_num("cancel-frac", 0.0)?,
        deadline,
        seed,
        check: !args.flag("no-check"),
        max_duration: match args.get("duration") {
            None => None,
            Some(v) => {
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("bad value for --duration: {v}"))?;
                Some(Duration::from_secs_f64(secs.max(0.0)))
            }
        },
        ..LoadgenConfig::default()
    };

    let ds = seqgen::generate(seqgen::DatasetSpec::new(taxa, patterns), seed);
    let model = seqgen::default_model();
    let taxa_names = ds.data.taxa().to_vec();
    let service = PlfService::new(service_config(args)?, service_backends(args)?);
    let dataset = service.register_dataset(ds.data);
    let report = plf_repro::plfd::loadgen::run(&service, dataset, &taxa_names, &model, &cfg)
        .map_err(|e| format!("loadgen: {e}"))?;
    service.shutdown();

    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("out") {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.flag("json") {
        println!("{json}");
    } else {
        println!(
            "submitted:        {} jobs ({} tenants, seed {seed})",
            report.submitted, cfg.tenants
        );
        println!(
            "resolved:         {} completed / {} failed / {} cancelled / {} deadline-missed",
            report.completed, report.failed, report.cancelled, report.deadline_missed
        );
        println!(
            "admission:        {} rejections retried, {} sheds retried",
            report.rejections_retried, report.sheds_retried
        );
        println!(
            "throughput:       {:.1} jobs/s over {:.3} s",
            report.jobs_per_second, report.wall_seconds
        );
        println!(
            "latency:          p50 {:.2} ms, p95 {:.2} ms (wait {:.2} + service {:.2} mean)",
            report.p50_latency_ms, report.p95_latency_ms, report.mean_wait_ms, report.mean_service_ms
        );
        println!(
            "batches:          {} ({:.0}% occupancy)",
            report.service.batches,
            100.0 * report.service.batch_occupancy()
        );
        println!(
            "verification:     {} checked, {} bit mismatches, {} lost",
            report.checked, report.bit_mismatches, report.lost
        );
    }
    if report.lost > 0 {
        return Err(format!("{} job(s) resolved without an outcome", report.lost));
    }
    if report.bit_mismatches > 0 {
        return Err(format!(
            "{} completed result(s) were not bit-identical to the serial reference",
            report.bit_mismatches
        ));
    }
    if args.flag("strict-deadlines") && report.deadline_missed > 0 {
        return Err(format!(
            "{} job(s) missed their deadline (--strict-deadlines)",
            report.deadline_missed
        ));
    }
    Ok(())
}

const CHAOS_USAGE: &str = "plfr chaos — seeded self-healing soak against an in-process plfd service

USAGE:
  plfr chaos [--jobs 200] [--seed 2009] [--taxa 6] [--patterns 48]
             [--backend NAME[,NAME...]] [--workers 3] [--concurrency 64]
             [--corrupt-rate P] [--dma-rate P] [--pcie-rate P] [--launch-rate P]
             [--panic-rate P] [--kill-rate P] [--blackout-rate P]
             [--kills W@N[,W@N...] | --kills none]
             [--blackouts W@NxF[,W@NxF...] | --blackouts none]
             [--high-frac 0.125] [--cancel-frac 0.05]
             [--deadline-frac F] [--deadline-ms D]
             [--max-wall 60] [--recovery-bound 10]
             [--crash N] [--journal-dir DIR]
             [--json] [--out FILE]

Drives a seeded job stream while killing dispatch workers, blacking
out worker backends, and rolling the PLF_FAULT_* kernel fault sites,
then asserts the service healed itself: zero lost jobs, every
completed log-likelihood bit-identical to the serial scalar reference,
the blacked-out backend's circuit breaker observed open and re-closed
via half-open probes, and worker-pool capacity restored before exit.

--kills W@N kills dispatch worker W just before the N-th submission
(0-based); the watchdog must respawn it and re-queue its in-flight
jobs. --blackouts W@NxF makes worker W's backend refuse the next F
jobs and probes starting just before submission N; the breaker must
open, then re-close once the blackout lifts. Pass `none` to either to
disable the default schedule (one kill, one blackout). The --*-rate
knobs mirror the PLF_FAULT_* environment variables and add seeded
random faults on top of the schedule. A comma list in --backend cycles
names across worker slots (and respawns), so a mixed pool can exercise
the Cell DMA and GPU PCIe fault sites in one soak.

--crash N switches to the crash-durability drill instead of the soak:
the harness journals the job stream, hard-aborts the service after N
acknowledged admissions (journal frozen exactly as `kill -9` would
leave it, plus a deliberately torn tail record), restarts on the same
journal directory (--journal-dir, default a per-seed temp dir),
recovers, and resubmits every job under its original idempotency key.
It asserts zero lost acknowledged jobs, every resubmission deduped
(no duplicate execution), the torn tail truncated and counted, and
bit-identical results vs. the uncrashed same-seed reference.

EXIT CODE: 0 when every invariant held; 1 otherwise (the JSON
report's `failures` list names each violated invariant).";

/// Parse `W@N` items: kill worker `W` just before submission `N`.
fn parse_kills(spec: &str) -> Result<Vec<ScheduledKill>, String> {
    if spec == "none" {
        return Ok(Vec::new());
    }
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            let (w, n) = item
                .split_once('@')
                .ok_or_else(|| format!("bad --kills item {item:?} (expected W@N)"))?;
            Ok(ScheduledKill {
                worker: w.parse().map_err(|_| format!("bad worker in {item:?}"))?,
                after_jobs: n.parse().map_err(|_| format!("bad job index in {item:?}"))?,
            })
        })
        .collect()
}

/// Parse `W@N` or `W@NxF` items: black out worker `W`'s backend for
/// `F` jobs (default 6) starting just before submission `N`.
fn parse_blackouts(spec: &str) -> Result<Vec<ScheduledBlackout>, String> {
    if spec == "none" {
        return Ok(Vec::new());
    }
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            let (w, rest) = item
                .split_once('@')
                .ok_or_else(|| format!("bad --blackouts item {item:?} (expected W@N[xF])"))?;
            let (n, f) = match rest.split_once('x') {
                Some((n, f)) => (
                    n,
                    f.parse()
                        .map_err(|_| format!("bad failure count in {item:?}"))?,
                ),
                None => (rest, 6),
            };
            Ok(ScheduledBlackout {
                worker: w.parse().map_err(|_| format!("bad worker in {item:?}"))?,
                after_jobs: n.parse().map_err(|_| format!("bad job index in {item:?}"))?,
                failures: f,
            })
        })
        .collect()
}

fn parse_rate(args: &Args, key: &str, default: f64) -> Result<f64, String> {
    let v: f64 = args.parse_num(key, default)?;
    if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
        return Err(format!("bad value for --{key}: {v} (expected 0..=1)"));
    }
    Ok(v)
}

fn cmd_chaos(args: &Args) -> Result<(), String> {
    if args.flag("help") {
        println!("{CHAOS_USAGE}");
        return Ok(());
    }
    let mut cfg = ChaosConfig::default();
    cfg.jobs = args.parse_num("jobs", cfg.jobs)?;
    cfg.seed = args.parse_num("seed", cfg.seed)?;
    cfg.taxa = args.parse_num("taxa", cfg.taxa)?;
    cfg.patterns = args.parse_num("patterns", cfg.patterns)?;
    cfg.workers = args.parse_num("workers", cfg.workers)?;
    cfg.concurrency = args.parse_num("concurrency", cfg.concurrency)?;
    cfg.corrupt_rate = parse_rate(args, "corrupt-rate", cfg.corrupt_rate)?;
    cfg.dma_rate = parse_rate(args, "dma-rate", cfg.dma_rate)?;
    cfg.pcie_rate = parse_rate(args, "pcie-rate", cfg.pcie_rate)?;
    cfg.launch_rate = parse_rate(args, "launch-rate", cfg.launch_rate)?;
    cfg.panic_rate = parse_rate(args, "panic-rate", cfg.panic_rate)?;
    cfg.kill_rate = parse_rate(args, "kill-rate", cfg.kill_rate)?;
    cfg.blackout_rate = parse_rate(args, "blackout-rate", cfg.blackout_rate)?;
    cfg.high_fraction = parse_rate(args, "high-frac", cfg.high_fraction)?;
    cfg.cancel_fraction = parse_rate(args, "cancel-frac", cfg.cancel_fraction)?;
    cfg.deadline_fraction = parse_rate(args, "deadline-frac", cfg.deadline_fraction)?;
    if cfg.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if let Some(spec) = args.get("kills") {
        cfg.scheduled_kills = parse_kills(spec)?;
    }
    if let Some(spec) = args.get("blackouts") {
        cfg.scheduled_blackouts = parse_blackouts(spec)?;
    }
    for k in &cfg.scheduled_kills {
        if k.worker >= cfg.workers {
            return Err(format!("--kills worker {} out of range (workers {})", k.worker, cfg.workers));
        }
    }
    for b in &cfg.scheduled_blackouts {
        if b.worker >= cfg.workers {
            return Err(format!(
                "--blackouts worker {} out of range (workers {})",
                b.worker, cfg.workers
            ));
        }
    }
    if let Some(v) = args.get("deadline-ms") {
        let ms: f64 = v.parse().map_err(|_| format!("bad value for --deadline-ms: {v}"))?;
        if !(ms.is_finite() && ms > 0.0) {
            return Err(format!("bad value for --deadline-ms: {v}"));
        }
        cfg.deadline = Duration::from_secs_f64(ms / 1e3);
    }
    let max_wall: f64 = args.parse_num("max-wall", cfg.max_wall.as_secs_f64())?;
    if !(max_wall.is_finite() && max_wall > 0.0) {
        return Err(format!("bad value for --max-wall: {max_wall}"));
    }
    cfg.max_wall = Duration::from_secs_f64(max_wall);
    let recovery: f64 = args.parse_num("recovery-bound", cfg.recovery_bound.as_secs_f64())?;
    if !(recovery.is_finite() && recovery > 0.0) {
        return Err(format!("bad value for --recovery-bound: {recovery}"));
    }
    cfg.recovery_bound = Duration::from_secs_f64(recovery);
    if let Some(v) = args.get("crash") {
        let n: usize = v.parse().map_err(|_| format!("bad value for --crash: {v}"))?;
        if n == 0 {
            return Err("--crash must be at least 1".into());
        }
        if n > cfg.jobs {
            return Err(format!("--crash {n} exceeds --jobs {}", cfg.jobs));
        }
        cfg.crash_at = Some(n);
    }
    if let Some(dir) = args.get("journal-dir") {
        if cfg.crash_at.is_none() {
            return Err("--journal-dir requires --crash (the durability drill)".into());
        }
        cfg.journal_dir = Some(std::path::PathBuf::from(dir));
    }

    // Validate every backend name up front so the factory below cannot
    // fail; inside the soak a build failure silently degrading to
    // scalar would mask a misconfiguration. A comma list cycles names
    // across worker slots (and watchdog respawns) — bit-identity makes
    // the heterogeneous pool transparent to the result checks.
    let names: Vec<String> = args
        .get("backend")
        .unwrap_or("scalar")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err("empty --backend list".into());
    }
    for name in &names {
        backend_by_name(name, None)?;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let factory: ChaosBackendFactory = std::sync::Arc::new(move |inj| {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = &names[i % names.len()];
        let primary = backend_by_name(name, inj.as_ref())
            .unwrap_or_else(|_| Box::new(ScalarBackend));
        match inj {
            // Kernel-level faults (corruption, DMA/PCIe, launch) are
            // armed: run under the resilient executor so they surface
            // as retries/fallbacks, not bit-divergent results.
            Some(_) => Box::new(ResilientBackend::new(primary).with_fallback(Box::new(ScalarBackend))),
            None => primary,
        }
    });

    let report = run_chaos(&cfg, &factory);
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("out") {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.flag("json") {
        println!("{json}");
    } else {
        println!(
            "soak:             {} jobs, seed {}, {} workers ({backend})",
            report.submitted,
            report.seed,
            report.workers,
            backend = args.get("backend").unwrap_or("scalar")
        );
        println!(
            "resolved:         {} completed / {} failed / {} cancelled / {} deadline-missed / {} lost",
            report.completed, report.failed, report.cancelled, report.deadline_missed, report.lost
        );
        println!(
            "faults:           {} kill(s), {} blackout(s) scheduled; {} injector fault(s) fired",
            report.kills_scheduled, report.blackouts_scheduled, report.injector_faults_fired
        );
        println!(
            "self-healing:     {} respawn(s), {} requeued, breakers {} opened / {} re-closed, probes {} ok / {} failed",
            report.service.watchdog_respawns,
            report.service.requeued_jobs,
            report.service.breaker_opened,
            report.service.breaker_closed,
            report.service.probes_ok,
            report.service.probes_failed
        );
        println!(
            "recovery:         {} in {:.3} s — {} / {} workers alive, breakers [{}]",
            if report.recovered { "recovered" } else { "NOT RECOVERED" },
            report.recovery_seconds,
            report.alive_workers_at_exit,
            report.workers,
            report.breaker_states_at_exit.join(", ")
        );
        println!(
            "verification:     {} checked, {} bit mismatches ({:.3} s wall)",
            report.checked, report.bit_mismatches, report.wall_seconds
        );
        if let Some(d) = &report.durability {
            println!(
                "crash drill:      aborted after {} acknowledged job(s); {} replayed \
                 ({} past deadline, {} unrecoverable), {} torn record(s) truncated",
                d.crashed_after,
                d.recovery.replayed,
                d.recovery.expired,
                d.recovery.unrecoverable,
                d.recovery.truncated_records
            );
            println!(
                "durability:       {} resubmission(s) deduped (no duplicate execution), \
                 {} acknowledged job(s) lost",
                d.resubmits_deduped, d.lost_acknowledged
            );
        }
        for f in &report.failures {
            println!("FAILED INVARIANT: {f}");
        }
        println!("result:           {}", if report.pass { "PASS" } else { "FAIL" });
    }
    if !report.pass {
        return Err(format!(
            "chaos soak failed: {}",
            report.failures.join("; ")
        ));
    }
    Ok(())
}

fn usage() -> &'static str {
    "plfr — Phylogenetic Likelihood Function reproduction CLI

USAGE:
  plfr simulate   --taxa N --patterns M [--seed S] --out FILE [--tree-out FILE]
  plfr likelihood --alignment FILE [--tree FILE] [--backend NAME] [--shape A] [--pinvar P] [--rates K]
  plfr mcmc       --alignment FILE [--tree FILE] [--generations N] [--seed S]
                  [--backend NAME] [--incremental] [--sample-every K] [--trace PREFIX] [--pinvar P]
                  [--mc3 N --heat H --swap-every K --parallel]
  plfr consensus  --trees FILE.t [--burn-in F] [--threshold F]
  plfr serve      --alignment FILE [--backend NAME[,NAME...]] [--workers N] (see plfr serve --help)
  plfr loadgen    [--jobs 256] [--taxa 10] [--patterns 1000] [--json]      (see plfr loadgen --help)
  plfr chaos      [--jobs 200] [--seed 2009] [--kills 0@40] [--json]       (see plfr chaos --help)
  plfr backends

Formats: FASTA (.fa/.fasta) or PHYLIP; trees are Newick."
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "backends" => {
            for b in BACKEND_NAMES {
                println!("{b}");
            }
            Ok(())
        }
        "simulate" | "likelihood" | "mcmc" | "consensus" | "serve" | "loadgen" | "chaos" => {
            match Args::parse(rest) {
                Err(e) => Err(e),
                Ok(args) => match cmd.as_str() {
                    "simulate" => cmd_simulate(&args),
                    "likelihood" => cmd_likelihood(&args),
                    "consensus" => cmd_consensus(&args),
                    "serve" => cmd_serve(&args),
                    "loadgen" => cmd_loadgen(&args),
                    "chaos" => cmd_chaos(&args),
                    _ => cmd_mcmc(&args),
                },
            }
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn arg_parsing_values_and_flags() {
        let a = args(&["--taxa", "10", "--incremental", "--out", "x.fa"]);
        assert_eq!(a.get("taxa"), Some("10"));
        assert_eq!(a.get("out"), Some("x.fa"));
        assert!(a.flag("incremental"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.parse_num::<usize>("taxa", 0).unwrap(), 10);
        assert_eq!(a.parse_num::<usize>("patterns", 7).unwrap(), 7);
    }

    #[test]
    fn arg_parsing_rejects_positional() {
        assert!(Args::parse(&["oops".to_string()]).is_err());
    }

    #[test]
    fn bad_numbers_error() {
        let a = args(&["--taxa", "ten"]);
        assert!(a.parse_num::<usize>("taxa", 0).is_err());
    }

    #[test]
    fn all_backend_names_resolve() {
        for name in BACKEND_NAMES {
            assert!(backend_by_name(name, None).is_ok(), "{name}");
        }
        assert!(backend_by_name("quantum", None).is_err());
    }

    fn tmpfile(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("plfr-test-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn read_alignment_dispatches_on_content() {
        let fasta = tmpfile("a.txt", ">x\nACGT\n>y\nACGA\n");
        let aln = read_alignment(&fasta).unwrap();
        assert_eq!(aln.n_taxa(), 2);
        let phylip = tmpfile("b.txt", "2 4\nx ACGT\ny ACGA\n");
        let aln = read_alignment(&phylip).unwrap();
        assert_eq!(aln.n_sites(), 4);
        assert!(read_alignment("/nonexistent/path").is_err());
        std::fs::remove_file(fasta).ok();
        std::fs::remove_file(phylip).ok();
    }

    #[test]
    fn tree_loading_and_generation() {
        let fasta = tmpfile("c.fa", ">x\nACGT\n>y\nACGA\n>z\nACGT\n");
        let data = read_alignment(&fasta).unwrap().compress();
        // No --tree: a random tree over the taxa is generated.
        let a = args(&[]);
        let t = load_or_make_tree(&a, &data, 1).unwrap();
        assert_eq!(t.n_leaves(), 3);
        // Deterministic for the same seed.
        let t2 = load_or_make_tree(&a, &data, 1).unwrap();
        assert_eq!(t.to_newick(), t2.to_newick());
        // Explicit --tree wins.
        let nwk = tmpfile("d.nwk", "(x:0.1,y:0.1,z:0.1);\n");
        let a = args(&["--tree", &nwk]);
        let t3 = load_or_make_tree(&a, &data, 1).unwrap();
        assert!((t3.tree_length() - 0.3).abs() < 1e-12);
        std::fs::remove_file(fasta).ok();
        std::fs::remove_file(nwk).ok();
    }

    #[test]
    fn simulate_roundtrips_through_cli_paths() {
        let out = std::env::temp_dir().join(format!("plfr-sim-{}.fasta", std::process::id()));
        let tree_out = std::env::temp_dir().join(format!("plfr-sim-{}.nwk", std::process::id()));
        let a = args(&[
            "--taxa", "5",
            "--patterns", "40",
            "--seed", "3",
            "--out", out.to_str().unwrap(),
            "--tree-out", tree_out.to_str().unwrap(),
        ]);
        cmd_simulate(&a).unwrap();
        let aln = read_alignment(out.to_str().unwrap()).unwrap();
        assert_eq!(aln.n_taxa(), 5);
        assert_eq!(aln.compress().n_patterns(), 40);
        let tree_text = std::fs::read_to_string(&tree_out).unwrap();
        assert!(Tree::from_newick(tree_text.trim()).is_ok());
        std::fs::remove_file(out).ok();
        std::fs::remove_file(tree_out).ok();
    }

    #[test]
    fn chaos_schedule_parsing() {
        assert_eq!(parse_kills("none").unwrap(), vec![]);
        assert_eq!(
            parse_kills("0@40,2@120").unwrap(),
            vec![
                ScheduledKill { worker: 0, after_jobs: 40 },
                ScheduledKill { worker: 2, after_jobs: 120 },
            ]
        );
        assert!(parse_kills("0-40").is_err());
        assert_eq!(parse_blackouts("none").unwrap(), vec![]);
        assert_eq!(
            parse_blackouts("1@80x6,0@10").unwrap(),
            vec![
                ScheduledBlackout { worker: 1, after_jobs: 80, failures: 6 },
                ScheduledBlackout { worker: 0, after_jobs: 10, failures: 6 },
            ]
        );
        assert!(parse_blackouts("1@80xsix").is_err());
    }

    #[test]
    fn model_building_from_args() {
        let a = args(&["--shape", "1.5", "--pinvar", "0.2", "--rates", "8"]);
        let m = build_model(&a).unwrap();
        assert_eq!(m.n_rates(), 8);
        assert_eq!(m.pinvar(), 0.2);
        let bad = args(&["--pinvar", "1.5"]);
        assert!(build_model(&bad).is_err());
    }
}
