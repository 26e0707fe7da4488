//! Multi-connection network load generator: the remote, 10k-connection
//! counterpart of `plfd::loadgen`.
//!
//! One epoll reactor drives every client connection from a single
//! thread — the same event-loop discipline as the server, which is
//! what makes four-digit connection counts practical under one
//! process's memory budget. Each connection performs the greeting
//! handshake, then runs an open loop: keep up to `pipeline` jobs
//! outstanding, draw the next job index from a shared counter, retry
//! retryable rejects with the server's own `retry_after` hint (without
//! ever blocking the reactor — retries are scheduled on the timeline,
//! not slept), and optionally *churn*: after `churn_every` jobs a
//! connection disconnects and reconnects under the next tenant, so a
//! long soak continuously exercises accept/close paths while tenants
//! migrate between connections.
//!
//! Determinism: all randomness (branch lengths, tenant assignment)
//! derives from `seed` via splitmix64. Latency percentiles
//! (p50/p99/p999) are client-observed submit→terminal times and feed
//! the `net_service` section of BENCH schema v6.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use plf_phylo::splitmix64;
use plfd::RetryPolicy;
use serde::Serialize;

use crate::poll::{Event, Interest, Poller};
use crate::proto::{Request, Response};
use crate::wire::FrameDecoder;

/// Compact a connection's output buffer once this many consumed bytes
/// sit at its front (mirrors the server's rule; see `server.rs`).
const OUT_COMPACT: usize = 64 * 1024;

/// Configuration for [`run`].
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Concurrent connections to hold open.
    pub connections: usize,
    /// Total jobs to complete across all connections.
    pub jobs: u64,
    /// Distinct tenant names (`t0`..`t{n-1}`) cycled across
    /// connections.
    pub tenants: usize,
    /// Outstanding jobs per connection (open-loop depth).
    pub pipeline: usize,
    /// After this many jobs a connection reconnects under the next
    /// tenant; `0` disables churn.
    pub churn_every: u64,
    /// Every `high_every`-th job goes on the high-priority lane;
    /// `0` disables.
    pub high_every: u64,
    /// Retry policy for retryable rejects (hints honored verbatim).
    pub retry: RetryPolicy,
    /// Master seed for branch lengths and tenant layout.
    pub seed: u64,
    /// Abort the run (counting unresolved jobs as lost) after this
    /// long.
    pub deadline: Duration,
}

impl Default for NetLoadConfig {
    fn default() -> NetLoadConfig {
        NetLoadConfig {
            connections: 64,
            jobs: 512,
            tenants: 4,
            pipeline: 1,
            churn_every: 0,
            high_every: 4,
            retry: RetryPolicy::default(),
            seed: 2009,
            deadline: Duration::from_secs(120),
        }
    }
}

/// Latency summary in milliseconds.
#[derive(Debug, Clone, Default, Serialize, PartialEq)]
pub struct LatencyMs {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Worst observed.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns.get(idx).copied().unwrap_or(0) as f64 / 1e6
}

/// What a load run observed; the `net_service` section of BENCH
/// schema v6.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NetLoadReport {
    /// Concurrent connections requested.
    pub connections: usize,
    /// Distinct tenants cycled across connections.
    pub tenants: usize,
    /// Jobs that reached a `Completed` frame.
    pub completed: u64,
    /// Jobs that ended `Failed`.
    pub failed: u64,
    /// Jobs that ended `Cancelled`.
    pub cancelled: u64,
    /// Jobs that ended `DeadlineMissed`.
    pub deadline_missed: u64,
    /// Jobs whose final state was a non-retryable (or retry-exhausted)
    /// reject.
    pub rejected_final: u64,
    /// Jobs answered with an `Error` frame.
    pub errors: u64,
    /// Individual reject frames observed (pre-retry).
    pub rejects_seen: u64,
    /// Resubmissions performed after retryable rejects.
    pub retries: u64,
    /// Jobs submitted (acknowledged by the submit write) that never
    /// reached a terminal frame before the run deadline. The
    /// zero-loss acceptance gate.
    pub lost_acks: u64,
    /// Connections opened over the run (initial + churn reconnects).
    pub connections_opened: u64,
    /// Churn-driven reconnects.
    pub reconnects: u64,
    /// Connections that dropped unexpectedly (reset / refused).
    pub connection_failures: u64,
    /// Wall-clock for the whole run, ms.
    pub wall_ms: f64,
    /// Completed jobs per second of wall-clock.
    pub throughput_jobs_per_s: f64,
    /// Client-observed submit→terminal latency.
    pub latency_ms: LatencyMs,
}

struct PendingJob {
    /// Global job index, so the job can be re-assigned to another
    /// connection if this one dies before a terminal frame.
    idx: u64,
    first_submit_ns: u64,
    attempt: u32,
    high: bool,
    newick: String,
    key: String,
}

enum ConnState {
    /// Waiting for the `ServerInfo` greeting.
    Greeting,
    /// Handshake done; submitting.
    Active,
}

struct LoadConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    state: ConnState,
    tenant_idx: usize,
    outstanding: HashMap<u64, PendingJob>,
    /// Jobs finished on this connection since (re)connect, for churn.
    finished_here: u64,
    next_client_job: u64,
    draining: bool,
    dead: bool,
}

impl LoadConn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Build a ladder (caterpillar) Newick over `taxa` with seeded branch
/// lengths — every taxon appears exactly once, as the service
/// requires.
pub fn ladder_newick(taxa: &[String], seed: u64) -> String {
    let mut bl_state = seed;
    let mut bl = move || {
        bl_state = splitmix64(bl_state);
        0.05 + (bl_state % 1000) as f64 / 4000.0
    };
    let mut iter = taxa.iter();
    let Some(first) = iter.next() else {
        return String::from(";");
    };
    let mut s = format!("{first}:{:.4}", bl());
    let mut wrapped = false;
    for t in iter {
        s = format!("({s},{t}:{:.4})", bl());
        wrapped = true;
        // Interior branch length except on the final (root) wrap —
        // added below only when another wrap follows.
        s.push_str(&format!(":{:.4}", bl()));
    }
    if wrapped {
        // Strip the root's trailing branch length: ");" terminated.
        if let Some(pos) = s.rfind(')') {
            s.truncate(pos + 1);
        }
        format!("{s};")
    } else {
        format!("({s});")
    }
}

/// The per-run engine state shared across connections.
struct Engine {
    cfg: NetLoadConfig,
    addr: SocketAddr,
    epoch: Instant,
    conns: HashMap<u64, LoadConn>,
    next_token: u64,
    /// Next global job index to hand out.
    next_job: u64,
    /// Jobs orphaned by a dead connection, awaiting re-assignment:
    /// (job idx, original first-submit timestamp). Served before fresh
    /// indices so a mid-run connection failure costs latency, not
    /// completions.
    requeue: Vec<(u64, u64)>,
    /// Terminal outcomes counted so far.
    done: u64,
    /// Retry timeline: (due_ns, token, client_job).
    retry_queue: Vec<(u64, u64, u64)>,
    latencies_ns: Vec<u64>,
    taxa: Option<Vec<String>>,
    report: NetLoadReport,
}

impl Engine {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_conn(&mut self, poller: &Poller, tenant_idx: usize) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        self.next_token += 1;
        {
            use std::os::fd::AsRawFd;
            poller.register(stream.as_raw_fd(), token, Interest::READ)?;
        }
        self.conns.insert(
            token,
            LoadConn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                out_pos: 0,
                want_write: false,
                state: ConnState::Greeting,
                tenant_idx,
                outstanding: HashMap::new(),
                finished_here: 0,
                next_client_job: 1,
                draining: false,
                dead: false,
            },
        );
        self.report.connections_opened += 1;
        Ok(())
    }

    /// Submit the next globally-assigned job on `token`, if any remain.
    /// Orphans from dead connections are served before fresh indices.
    fn submit_next(&mut self, token: u64) {
        let Some(taxa) = self.taxa.clone() else {
            return;
        };
        let (idx, first_submit_ns) = match self.requeue.pop() {
            Some(redo) => redo,
            None => {
                if self.next_job >= self.cfg.jobs {
                    return;
                }
                let idx = self.next_job;
                self.next_job += 1;
                (idx, self.now_ns())
            }
        };
        let high = self.cfg.high_every > 0 && idx.is_multiple_of(self.cfg.high_every);
        let newick = ladder_newick(&taxa, splitmix64(self.cfg.seed ^ idx));
        let key = format!("nlg-{}-{idx}", self.cfg.seed);
        let Some(conn) = self.conns.get_mut(&token) else {
            // Connection vanished between selection and submit: put
            // the job back.
            self.requeue.push((idx, first_submit_ns));
            return;
        };
        let client_job = conn.next_client_job;
        conn.next_client_job += 1;
        let tenant = format!("t{}", conn.tenant_idx % self.cfg.tenants.max(1));
        let frame = Request::Submit {
            client_job,
            tenant,
            priority: if high { 1 } else { 0 },
            deadline_ns: 0,
            idempotency_key: key.clone(),
            newick: newick.clone(),
        }
        .encode();
        conn.out.extend_from_slice(&frame);
        conn.outstanding.insert(
            client_job,
            PendingJob {
                idx,
                first_submit_ns,
                attempt: 0,
                high,
                newick,
                key,
            },
        );
    }

    /// Re-send a job already pending on `token` (same idempotency key,
    /// same client id — the server dedups if the original was
    /// admitted).
    fn resubmit(&mut self, token: u64, client_job: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let tenant = format!("t{}", conn.tenant_idx % self.cfg.tenants.max(1));
        let Some(job) = conn.outstanding.get(&client_job) else {
            return;
        };
        let frame = Request::Submit {
            client_job,
            tenant,
            priority: if job.high { 1 } else { 0 },
            deadline_ns: 0,
            idempotency_key: job.key.clone(),
            newick: job.newick.clone(),
        }
        .encode();
        conn.out.extend_from_slice(&frame);
        self.report.retries += 1;
    }

    /// Process one decoded response on `token`. Returns `true` if the
    /// engine's global accounting changed (a job reached a terminal
    /// state).
    fn handle_response(&mut self, token: u64, response: Response) {
        let now = self.now_ns();
        match response {
            Response::ServerInfo { taxa, .. } => {
                if self.taxa.is_none() {
                    self.taxa = Some(taxa);
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Active;
                }
            }
            Response::Draining => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.draining = true;
                }
            }
            Response::Completed { client_job, .. } => {
                if let Some(job) = self.take_job(token, client_job) {
                    self.latencies_ns
                        .push(now.saturating_sub(job.first_submit_ns));
                    self.report.completed += 1;
                    self.done += 1;
                }
            }
            Response::Failed { client_job, .. } => {
                if self.take_job(token, client_job).is_some() {
                    self.report.failed += 1;
                    self.done += 1;
                }
            }
            Response::Cancelled { client_job } => {
                if self.take_job(token, client_job).is_some() {
                    self.report.cancelled += 1;
                    self.done += 1;
                }
            }
            Response::DeadlineMissed { client_job } => {
                if self.take_job(token, client_job).is_some() {
                    self.report.deadline_missed += 1;
                    self.done += 1;
                }
            }
            Response::Error { client_job, .. } => {
                if self.take_job(token, client_job).is_some() {
                    self.report.errors += 1;
                    self.done += 1;
                }
            }
            Response::Reject {
                client_job,
                reason,
                retry_after_ns,
                ..
            } => {
                self.report.rejects_seen += 1;
                let attempt = self
                    .conns
                    .get(&token)
                    .and_then(|c| c.outstanding.get(&client_job))
                    .map(|j| j.attempt)
                    .unwrap_or(u32::MAX);
                if attempt != u32::MAX
                    && reason.is_retryable()
                    && self.cfg.retry.allows(attempt)
                {
                    let hint = if retry_after_ns > 0 {
                        Some(Duration::from_nanos(retry_after_ns))
                    } else {
                        None
                    };
                    let delay = self.cfg.retry.backoff(attempt, hint);
                    if let Some(job) = self
                        .conns
                        .get_mut(&token)
                        .and_then(|c| c.outstanding.get_mut(&client_job))
                    {
                        job.attempt += 1;
                    }
                    self.retry_queue
                        .push((now + delay.as_nanos() as u64, token, client_job));
                } else if self.take_job(token, client_job).is_some() {
                    self.report.rejected_final += 1;
                    self.done += 1;
                }
            }
        }
    }

    fn take_job(&mut self, token: u64, client_job: u64) -> Option<PendingJob> {
        let conn = self.conns.get_mut(&token)?;
        let job = conn.outstanding.remove(&client_job)?;
        conn.finished_here += 1;
        Some(job)
    }
}

/// Run the load profile against a server at `addr`. The function
/// returns when every assigned job reached a terminal state, or the
/// configured deadline lapsed (unresolved jobs count as `lost_acks`).
pub fn run(addr: impl ToSocketAddrs, cfg: &NetLoadConfig) -> io::Result<NetLoadReport> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut poller = Poller::new()?;
    let mut engine = Engine {
        cfg: cfg.clone(),
        addr,
        epoch: Instant::now(),
        conns: HashMap::new(),
        next_token: 1,
        next_job: 0,
        requeue: Vec::new(),
        done: 0,
        retry_queue: Vec::new(),
        latencies_ns: Vec::new(),
        taxa: None,
        report: NetLoadReport {
            connections: cfg.connections,
            tenants: cfg.tenants,
            ..NetLoadReport::default()
        },
    };

    // Ramp: open the initial fleet. Tenants cycle across connections.
    for i in 0..cfg.connections {
        if engine.open_conn(&poller, i).is_err() {
            engine.report.connection_failures += 1;
        }
    }

    let started = Instant::now();
    let mut events: Vec<Event> = Vec::new();
    let tick = Duration::from_millis(5);

    // Run until every job resolved AND no connection is still waiting
    // for its greeting — a tail churn reconnect must finish its
    // handshake (i.e. be accepted by the server) before the run ends,
    // so server-side connection counters agree with the report.
    while engine.done < cfg.jobs
        || engine
            .conns
            .values()
            .any(|c| matches!(c.state, ConnState::Greeting) && !c.dead)
    {
        if started.elapsed() >= cfg.deadline {
            break;
        }
        // Jobs can stall if every connection died (e.g. server gone).
        if engine.conns.is_empty() {
            break;
        }
        poller.wait(tick, &mut events)?;

        // 1. Socket readiness: read frames, note writables.
        let mut writable: Vec<u64> = Vec::new();
        for i in 0..events.len() {
            let ev = events.get(i).copied().unwrap_or(Event {
                token: 0,
                readable: false,
                writable: false,
                hangup: false,
            });
            if ev.writable {
                writable.push(ev.token);
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            let mut frames = Vec::new();
            let mut dead = false;
            if let Some(conn) = engine.conns.get_mut(&ev.token) {
                let mut chunk = [0u8; 16 * 1024]; // plf-lint: allow(L3) — socket read chunk, not DMA
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => conn.decoder.feed(chunk.get(..n).unwrap_or(&[])),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                loop {
                    match conn.decoder.next_frame() {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => break,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if dead {
                    conn.dead = true;
                }
            }
            for frame in frames {
                if let Ok(response) = Response::decode(&frame) {
                    engine.handle_response(ev.token, response);
                }
            }
        }

        // 2. Due retries rejoin their connection's output queue.
        let now = engine.now_ns();
        let due: Vec<(u64, u64, u64)> = {
            let (due, later): (Vec<_>, Vec<_>) =
                engine.retry_queue.drain(..).partition(|(t, _, _)| *t <= now);
            engine.retry_queue = later;
            due
        };
        for (_, token, client_job) in due {
            engine.resubmit(token, client_job);
        }

        // 3. Keep pipelines full on active, non-draining connections.
        // Churn-due connections are left to drain so the reap step can
        // actually reconnect them mid-run (otherwise the refill always
        // beats the churn check and churn degenerates to the tail).
        let churn_every = engine.cfg.churn_every;
        let fillable: Vec<u64> = engine
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.state, ConnState::Active)
                    && !c.draining
                    && !c.dead
                    && c.outstanding.len() < engine.cfg.pipeline
                    && !(churn_every > 0 && c.finished_here >= churn_every)
            })
            .map(|(t, _)| *t)
            .collect();
        for token in fillable {
            while engine
                .conns
                .get(&token)
                .map(|c| c.outstanding.len() < engine.cfg.pipeline)
                .unwrap_or(false)
                && (engine.next_job < engine.cfg.jobs || !engine.requeue.is_empty())
            {
                engine.submit_next(token);
            }
        }

        // 4. Flush pending output everywhere it's needed.
        let flush: Vec<u64> = engine
            .conns
            .iter()
            .filter(|(t, c)| c.pending_out() > 0 || writable.contains(t))
            .map(|(t, _)| *t)
            .collect();
        for token in flush {
            let Some(conn) = engine.conns.get_mut(&token) else {
                continue;
            };
            while conn.pending_out() > 0 {
                let chunk = conn.out.get(conn.out_pos..).unwrap_or(&[]);
                match conn.stream.write(chunk) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.pending_out() == 0 {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos >= OUT_COMPACT {
                // Same compaction rule as the server: a never-fully-
                // drained buffer must not keep its consumed prefix.
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            let want_write = conn.pending_out() > 0;
            if want_write != conn.want_write {
                conn.want_write = want_write;
                use std::os::fd::AsRawFd;
                let interest = if want_write {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                let _ = poller.modify(conn.stream.as_raw_fd(), token, interest);
            }
        }

        // 5. Reap: dead connections lose their outstanding jobs (they
        // count as lost unless re-assigned); churned connections
        // reconnect under the next tenant. Churn stops once the job
        // pool is exhausted: a tail reconnect would carry no work and
        // could still be sitting un-accepted in the listener backlog
        // when the run ends.
        let churn = engine.cfg.churn_every;
        let more_work = engine.next_job < engine.cfg.jobs || !engine.requeue.is_empty();
        let reap: Vec<(u64, bool)> = engine
            .conns
            .iter()
            .filter_map(|(t, c)| {
                if c.dead {
                    Some((*t, false))
                } else if churn > 0
                    && more_work
                    && c.finished_here >= churn
                    && c.outstanding.is_empty()
                {
                    Some((*t, true))
                } else if c.draining && c.outstanding.is_empty() {
                    Some((*t, false))
                } else {
                    None
                }
            })
            .collect();
        for (token, is_churn) in reap {
            let Some(conn) = engine.conns.remove(&token) else {
                continue;
            };
            {
                use std::os::fd::AsRawFd;
                let _ = poller.deregister(conn.stream.as_raw_fd());
            }
            // Unfinished jobs on a dead conn go back to the shared
            // pool for re-submission on whichever connection next has
            // pipeline room. The idempotency key IS reused (it derives
            // from the job index): if the original submit was admitted
            // before the connection died, the redo dedups onto the
            // journaled outcome instead of executing twice; if it
            // never arrived, the key is unseen and the job runs fresh.
            if !conn.outstanding.is_empty() {
                engine.report.connection_failures += 1;
                for job in conn.outstanding.values() {
                    engine.requeue.push((job.idx, job.first_submit_ns));
                }
            }
            let tenant_idx = conn.tenant_idx + 1;
            drop(conn);
            if is_churn {
                engine.report.reconnects += 1;
                if engine.open_conn(&poller, tenant_idx).is_err() {
                    engine.report.connection_failures += 1;
                }
            }
        }
    }

    // Anything still outstanding — or orphaned and never re-assigned —
    // at the deadline is a lost ack.
    for conn in engine.conns.values() {
        engine.report.lost_acks += conn.outstanding.len() as u64;
    }
    engine.report.lost_acks += engine.requeue.len() as u64;

    let wall = started.elapsed();
    engine.latencies_ns.sort_unstable();
    let lat = &engine.latencies_ns;
    let mean_ms = if lat.is_empty() {
        0.0
    } else {
        lat.iter().map(|&n| n as f64).sum::<f64>() / lat.len() as f64 / 1e6
    };
    engine.report.latency_ms = LatencyMs {
        p50: percentile_ms(lat, 0.50),
        p99: percentile_ms(lat, 0.99),
        p999: percentile_ms(lat, 0.999),
        max: lat.last().copied().unwrap_or(0) as f64 / 1e6,
        mean: mean_ms,
    };
    engine.report.wall_ms = wall.as_secs_f64() * 1e3;
    engine.report.throughput_jobs_per_s = if wall.as_secs_f64() > 0.0 {
        engine.report.completed as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    Ok(engine.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_newick_covers_all_taxa_once() {
        let taxa: Vec<String> = (0..8).map(|i| format!("tax{i}")).collect();
        let nwk = ladder_newick(&taxa, 42);
        assert!(nwk.ends_with(';'));
        for t in &taxa {
            assert_eq!(
                nwk.matches(t.as_str()).count(),
                1,
                "taxon {t} must appear exactly once in {nwk}"
            );
        }
        // Deterministic in the seed.
        assert_eq!(nwk, ladder_newick(&taxa, 42));
        assert_ne!(nwk, ladder_newick(&taxa, 43));
    }

    #[test]
    fn ladder_newick_parses_as_a_tree() {
        let taxa: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
        let nwk = ladder_newick(&taxa, 7);
        let tree = plf_phylo::tree::Tree::from_newick(&nwk).expect("valid newick");
        assert_eq!(tree.n_leaves(), 6);
        // Two-taxon edge case.
        let two: Vec<String> = vec!["a".into(), "b".into()];
        let nwk2 = ladder_newick(&two, 1);
        plf_phylo::tree::Tree::from_newick(&nwk2).expect("two-leaf tree");
    }

    #[test]
    fn percentiles_pick_expected_ranks() {
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        assert!((percentile_ms(&ns, 0.50) - 500.0).abs() <= 1.0);
        assert!((percentile_ms(&ns, 0.99) - 990.0).abs() <= 1.0);
        assert!((percentile_ms(&ns, 0.999) - 999.0).abs() <= 1.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }
}
