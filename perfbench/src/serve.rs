//! `serve-chains-10x1k`: a `PlfService` (default config, two workers of
//! `RayonBackend::new(1)`) behind a `NetServer` on loopback, driven by
//! 16 simulated MCMC chains multiplexed over 2 `NetClient` connections,
//! one tenant and one client thread each.
//!
//! The loop is closed: a chain submits its next job only after its
//! previous result arrives. Each job is the chain's current tree with
//! one branch-multiplier move, so the CLV cache and fused batching see
//! the subtree sharing real chains produce; each chain starts from a
//! fresh random tree, so misses occur too. Per-job kernel work is about
//! 1–2 ms, so queue, scheduler, fusion, cache, reactor and codec decide
//! the result. This is the only workload that runs those layers.
//!
//! The job stream is built here, from `seqgen` trees, `Tree::to_newick`
//! and `NetClient`, so that changes to the program's own load
//! generators cannot change the workload.

use crate::layers::{baseline, kernel_metrics, kernel_seconds};
use crate::trace::Trace;
use crate::{finish_traced, probe, repeat_setup, stats, Metrics, Outcome, Params, Window};
use plf_mcmc::proposals::{propose, ProposalKind, Tuning};
use plf_mcmc::{ChainState, Priors};
use plf_multicore::RayonBackend;
use plf_net::{NetClient, NetServer, NetServerConfig, Response, ShutdownFlag, SubmitParams};
use plf_phylo::alignment::PatternAlignment;
use plf_phylo::kernels::{PlfBackend, ScalarBackend};
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::metrics::{NetCounters, PlfCounters, ServiceCounters};
use plf_phylo::model::{GtrParams, SiteModel};
use plf_phylo::tree::Tree;
use plf_seqgen::DatasetSpec;
use plfd::{PlfService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service workers, each a one-thread `RayonBackend`.
const WORKERS: usize = 2;
/// Client connections, each with its own tenant and client thread.
const CONNECTIONS: usize = 2;
/// A job unanswered this long counts as a lost acknowledgement.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// A running server and the counters the benchmark reads.
struct Server {
    addr: std::net::SocketAddr,
    shutdown: ShutdownFlag,
    reactor: JoinHandle<std::io::Result<(PlfService, plf_net::NetServerReport)>>,
    kernels: Arc<PlfCounters>,
    service: Arc<ServiceCounters>,
    net: Arc<NetCounters>,
}

impl Server {
    fn start(data: &PatternAlignment, model: &SiteModel) -> Result<Server, String> {
        let kernels = PlfCounters::new();
        let mut backends: Vec<Box<dyn PlfBackend>> = Vec::new();
        for _ in 0..WORKERS {
            let b = RayonBackend::new(1).map_err(|e| e.to_string())?;
            backends.push(Box::new(b.with_metrics(kernels.clone())));
        }
        let service = PlfService::new(ServiceConfig::default(), backends);
        let dataset = service.register_dataset(data.clone());
        let service_counters = service.counters();
        let net = NetCounters::new();
        let shutdown = ShutdownFlag::local();
        let server = NetServer::bind(
            "127.0.0.1:0",
            service,
            dataset,
            model.clone(),
            NetServerConfig::default(),
            shutdown.clone(),
            net.clone(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        Ok(Server {
            addr,
            shutdown,
            reactor: std::thread::spawn(move || server.run()),
            kernels,
            service: service_counters,
            net,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.shutdown.request();
        let (service, _) = self
            .reactor
            .join()
            .map_err(|_| "net reactor panicked".to_string())?
            .map_err(|e| format!("net reactor: {e}"))?;
        service.shutdown();
        Ok(())
    }
}

/// One simulated chain: Metropolis–Hastings over branch lengths.
struct ChainSim {
    rng: StdRng,
    state: ChainState,
    ln_post: f64,
    /// The job in flight: proposed state, its log Hastings ratio, and
    /// when it was sent.
    pending: Option<(ChainState, f64, Instant)>,
}

/// A completed job kept for the correctness check.
struct Served {
    chain: usize,
    newick: String,
    ln_likelihood: f64,
}

/// One connection's client thread state.
struct Client {
    conn: NetClient,
    tenant: String,
    chains: Vec<ChainSim>,
    /// Chain index and Newick text of each in-flight `client_job`.
    in_flight: HashMap<u64, (usize, String)>,
    served: Vec<Served>,
    failed: u64,
    /// Jobs that never answered within [`RESPONSE_TIMEOUT`].
    lost: u64,
    first_chain: usize,
}

impl Client {
    /// Send chain `c`'s next job; returns when it was sent.
    fn submit(&mut self, c: usize, tuning: &Tuning) -> std::io::Result<Instant> {
        let chain = &mut self.chains[c];
        let mut next = chain.state.clone();
        let ln_hastings = if chain.ln_post == f64::NEG_INFINITY {
            0.0 // first job: score the starting tree itself
        } else {
            propose(
                ProposalKind::BranchMultiplier,
                &mut next,
                tuning,
                &mut chain.rng,
            )
            .map_or(0.0, |o| o.ln_hastings)
        };
        let newick = next.tree.to_newick();
        let sent_at = Instant::now();
        chain.pending = Some((next, ln_hastings, sent_at));
        let job = self.conn.submit(&SubmitParams {
            tenant: self.tenant.clone(),
            high_priority: false,
            deadline: None,
            idempotency_key: None,
            newick: newick.clone(),
        })?;
        self.in_flight.insert(job, (c, newick));
        Ok(sent_at)
    }

    /// Drive this connection's chains until `stop()` says so and every
    /// in-flight job has answered. Returns each job's latency and when
    /// its response arrived.
    fn drive(
        &mut self,
        stop: &dyn Fn() -> bool,
        done: &AtomicU64,
        mut trace: Option<&mut Trace>,
    ) -> Result<Vec<(f64, Instant)>, String> {
        let tuning = Tuning::default();
        let priors = Priors::default();
        let tenant = self.tenant.clone();
        let io = |e: std::io::Error| format!("client {tenant}: {e}");
        let start = Instant::now();
        let roots: Vec<usize> = match trace.as_deref_mut() {
            Some(t) => (0..self.chains.len())
                .map(|c| {
                    t.span(
                        "bench.chain",
                        (self.first_chain + c) as u64,
                        None,
                        start,
                        start,
                    )
                })
                .collect(),
            None => Vec::new(),
        };
        for c in 0..self.chains.len() {
            self.submit(c, &tuning).map_err(io)?;
        }
        let mut answered = Vec::new();
        while !self.in_flight.is_empty() {
            let response = match self.conn.recv() {
                Ok(r) => r,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Lost acknowledgements: count them and stop waiting.
                    self.lost += self.in_flight.len() as u64;
                    self.failed += self.in_flight.len() as u64;
                    self.in_flight.clear();
                    break;
                }
                Err(e) => return Err(io(e)),
            };
            let received = Instant::now();
            let Some(job) = response.client_job() else {
                continue;
            };
            let Some((c, newick)) = self.in_flight.remove(&job) else {
                self.failed += 1; // an answer to a job this client never sent
                continue;
            };
            let (proposal, ln_hastings, sent_at) = self.chains[c]
                .pending
                .take()
                .ok_or("internal: no pending job")?;
            answered.push((received.duration_since(sent_at).as_secs_f64(), received));
            let id = done.fetch_add(1, Ordering::Relaxed);
            let chain = &mut self.chains[c];
            if let Response::Completed {
                ln_likelihood,
                wait_ns,
                service_ns,
                ..
            } = response
            {
                let ln_post = ln_likelihood + priors.ln_prior(&proposal);
                let ln_ratio = ln_post - chain.ln_post + ln_hastings;
                if chain.ln_post == f64::NEG_INFINITY
                    || chain.rng.gen_range(0.0..1.0f64).ln() < ln_ratio
                {
                    chain.state = proposal;
                    chain.ln_post = ln_post;
                }
                self.served.push(Served {
                    chain: self.first_chain + c,
                    newick,
                    ln_likelihood,
                });
                if let Some(t) = trace.as_deref_mut() {
                    let s = t.span("net.job", id, Some(roots[c]), sent_at, received);
                    t.anchored("plfd.wait", s, Duration::from_nanos(wait_ns));
                    t.anchored("plfd.service", s, Duration::from_nanos(service_ns));
                }
            } else {
                self.failed += 1;
            }
            if !stop() {
                let sent_at = self.submit(c, &tuning).map_err(io)?;
                if let Some(t) = trace.as_deref_mut() {
                    t.span("client.propose", id, Some(roots[c]), received, sent_at);
                }
            }
        }
        if let Some(t) = trace {
            let end = Instant::now();
            roots.iter().for_each(|&r| t.close(r, end));
        }
        Ok(answered)
    }
}

/// One client thread's answered jobs (latency, arrival) and spans.
type ClientRun = Result<(Vec<(f64, Instant)>, Option<Trace>), String>;

/// Run every client on its own thread for one measured window.
fn window(
    clients: &mut [Client],
    seconds: f64,
    min_ops: u64,
    traced: bool,
) -> Result<(Window, Option<Trace>), String> {
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let stop =
        || start.elapsed().as_secs_f64() >= seconds && done.load(Ordering::Relaxed) >= min_ops;
    let (failed0, lost0) = failures(clients);
    let results: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (stop, done) = (&stop, &done);
                s.spawn(move || {
                    let mut trace = traced.then(|| Trace::new(start));
                    let lat = client.drive(stop, done, trace.as_mut())?;
                    Ok((lat, trace))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut op_s, mut done_s) = (Vec::new(), Vec::new());
    let mut merged: Option<Trace> = None;
    for r in results {
        let (answered, trace) = r?;
        for (latency, at) in answered {
            op_s.push(latency);
            done_s.push(at.duration_since(start).as_secs_f64());
        }
        if let Some(t) = trace {
            match merged.as_mut() {
                Some(m) => m.merge(t),
                None => merged = Some(t),
            }
        }
    }
    let (failed1, lost1) = failures(clients);
    let (failed, lost) = (failed1 - failed0, lost1 - lost0);
    Ok((
        Window {
            wall_s,
            op_s,
            done_s,
            failed,
            lost,
        },
        merged,
    ))
}

/// Failed and lost jobs so far, over all clients.
fn failures(clients: &[Client]) -> (u64, u64) {
    clients
        .iter()
        .fold((0, 0), |(f, l), c| (f + c.failed, l + c.lost))
}

/// Run the workload.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let spec = DatasetSpec::new(p.size.pick(10, 6), p.size.pick(1000, 200));
    let n_chains = p.size.pick(16, 4);
    let min_ops = p.size.pick(1000, 40);
    let model = plf_seqgen::default_model();
    let mem_gbps = if p.trace {
        probe::mem_gbps(p.size.pick(probe::PROBE_MIB, 8))
    } else {
        0.0
    };

    let mut generate_s = Vec::new();
    let (setup_s, (ds, server, mut clients)) = repeat_setup(
        || {
            let t0 = Instant::now();
            let ds = plf_seqgen::generate(spec, p.seed);
            generate_s.push(t0.elapsed().as_secs_f64());
            let server = Server::start(&ds.data, &model)?;
            let mut clients = Vec::new();
            let mut rng = StdRng::seed_from_u64(p.seed ^ 0x6368_6169_6e73);
            let per_conn = n_chains / CONNECTIONS;
            for k in 0..CONNECTIONS {
                let conn = NetClient::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
                conn.set_read_timeout(Some(RESPONSE_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                let chains = (0..per_conn)
                    .map(|_| {
                        let tree = plf_seqgen::random_tree_for_taxa(ds.data.taxa(), 0.1, &mut rng);
                        ChainSim {
                            rng: StdRng::seed_from_u64(rng.gen_range(0..u64::MAX)),
                            state: ChainState::new(tree, GtrParams::jc69(), 0.5),
                            ln_post: f64::NEG_INFINITY,
                            pending: None,
                        }
                    })
                    .collect();
                clients.push(Client {
                    conn,
                    tenant: format!("chains-{k}"),
                    chains,
                    in_flight: HashMap::new(),
                    served: Vec::new(),
                    failed: 0,
                    lost: 0,
                    first_chain: k * per_conn,
                });
            }
            Ok((ds, server, clients))
        },
        |(_, server, clients)| {
            drop(clients);
            server.stop()
        },
    )?;

    let mut m = Metrics::new();
    let mut notes = vec![format!(
        "data: {} taxa x {} patterns; {n_chains} chains over {CONNECTIONS} connections; \
         {WORKERS} workers of rayon-1",
        spec.taxa, spec.patterns
    )];
    let windows = if !p.trace {
        let (w, _) = window(&mut clients, p.seconds, min_ops as u64, false)?;
        m.insert("setup_s", setup_s);
        w.end_to_end(&mut m, &mut notes);
        vec![w]
    } else {
        let (plain, _) = window(&mut clients, p.seconds / 2.0, min_ops as u64 / 2, false)?;
        let (k0, s0, n0) = (
            server.kernels.snapshot(),
            server.service.snapshot(),
            server.net.snapshot(),
        );
        let (traced, trace) = window(&mut clients, p.seconds / 2.0, min_ops as u64 / 2, true)?;
        let trace = trace.ok_or("internal: traced window kept no trace")?;
        let (k1, s1, n1) = (
            server.kernels.snapshot(),
            server.service.snapshot(),
            server.net.snapshot(),
        );
        let busy = kernel_metrics(&mut m, &k0, &k1, mem_gbps);
        m.insert(
            "multicore.busy_frac",
            busy / (WORKERS as f64 * traced.wall_s),
        );
        let completed = (s1.completed - s0.completed) as f64;
        let wait_ms = stats::ratio(s1.wait_seconds - s0.wait_seconds, completed) * 1e3;
        let service_s = s1.service_seconds - s0.service_seconds;
        let service_ms = stats::ratio(service_s, completed) * 1e3;
        m.insert("likelihood.evals", (k1.evaluations - k0.evaluations) as f64);
        m.insert(
            "likelihood.self_s",
            service_s - (kernel_seconds(&k1) - kernel_seconds(&k0)),
        );
        m.insert("plfd.wait_ms_mean", wait_ms);
        m.insert("plfd.service_ms_mean", service_ms);
        let batch_jobs = (s1.batch_jobs - s0.batch_jobs) as f64;
        m.insert(
            "plfd.jobs_per_batch",
            stats::ratio(batch_jobs, (s1.batches - s0.batches) as f64),
        );
        m.insert(
            "plfd.batch_occupancy",
            stats::ratio(batch_jobs, (s1.batch_job_slots - s0.batch_job_slots) as f64),
        );
        m.insert("plfd.queue_depth_peak", s1.queue_depth_peak as f64);
        m.insert("plfd.rejected", (s1.rejected - s0.rejected) as f64);
        let hits = (s1.clv_cache_hits - s0.clv_cache_hits) as f64;
        let lookups = hits + (s1.clv_cache_misses - s0.clv_cache_misses) as f64;
        m.insert("clv_cache.hit_ratio", stats::ratio(hits, lookups));
        m.insert(
            "clv_cache.evictions",
            (s1.clv_cache_evictions - s0.clv_cache_evictions) as f64,
        );
        m.insert(
            "net.self_ms_mean",
            traced.mean_op_s() * 1e3 - wait_ms - service_ms,
        );
        let bytes = (n1.bytes_in + n1.bytes_out - n0.bytes_in - n0.bytes_out) as f64;
        m.insert(
            "net.bytes_per_job",
            stats::ratio(bytes, (n1.completed - n0.completed) as f64),
        );
        m.insert(
            "net.protocol_errors",
            (n1.protocol_errors - n0.protocol_errors) as f64,
        );
        finish_traced(p, &mut m, &trace, (&plain, &traced), mem_gbps, &generate_s)?;
        vec![plain, traced]
    };
    let net_protocol_errors = server.net.snapshot().protocol_errors;
    let served: Vec<Served> = clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.served))
        .collect();
    drop(clients);
    server.stop()?;

    // Correctness, outside the timed windows: every served job's lnL
    // against the scalar reference on the exact Newick text sent.
    let mut failed: u64 = windows.iter().map(|w| w.failed).sum::<u64>() + net_protocol_errors;
    let attempted: u64 = windows.iter().map(|w| w.op_s.len() as u64 + w.lost).sum();
    failed += check_served(&served, &ds.data, &model)?;
    notes.push(format!(
        "checked: {} served lnL values against ScalarBackend",
        served.len()
    ));
    if p.trace {
        let mut tl =
            TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).map_err(|e| e.to_string())?;
        failed += baseline(
            &mut m,
            &mut tl,
            &ds.tree,
            p.size.pick(200, 5),
            crate::host_threads(),
        )?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

/// Count served jobs whose lnL differs from `ScalarBackend` on the same
/// Newick text. Chains only move branch lengths, so each chain's trees
/// share one arena layout and one workspace; chains are split over two
/// threads.
fn check_served(
    served: &[Served],
    data: &PatternAlignment,
    model: &SiteModel,
) -> Result<u64, String> {
    let check = |parity: usize| -> Result<u64, String> {
        let mut workspaces: HashMap<usize, TreeLikelihood> = HashMap::new();
        let mut bad = 0;
        for s in served.iter().filter(|s| s.chain % 2 == parity) {
            let tree = Tree::from_newick(&s.newick).map_err(|e| e.to_string())?;
            let tl = match workspaces.entry(s.chain) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => e.insert(
                    TreeLikelihood::new(&tree, data, model.clone()).map_err(|e| e.to_string())?,
                ),
            };
            let want = tl
                .log_likelihood(&tree, &mut ScalarBackend)
                .map_err(|e| e.to_string())?;
            bad += u64::from(want.to_bits() != s.ln_likelihood.to_bits());
        }
        Ok(bad)
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| check(1));
        let mine = check(0)?;
        let theirs = other
            .join()
            .map_err(|_| "check thread panicked".to_string())??;
        Ok(mine + theirs)
    })
}
