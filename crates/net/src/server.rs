//! The event-driven socket server: one epoll reactor multiplexing
//! every client connection onto a [`PlfService`].
//!
//! Data path (DESIGN.md §16):
//!
//! ```text
//!  accept ─▶ FrameDecoder ─▶ Request::decode ─▶ FairQueue (WFQ+tokens)
//!                                                   │ pop
//!                                                   ▼
//!  client ◀─ write flush ◀─ Response::encode ◀─ PlfService::submit
//!                                  ▲                 │ ticket
//!                                  └── try_wait ◀────┘
//! ```
//!
//! Everything runs on the reactor thread: reads, frame decode, fair
//! scheduling, admission, outcome polling, and writes. The plfd worker
//! pool behind [`PlfService`] supplies the parallelism; the reactor
//! only ever *admits* (nonblocking) and *polls tickets* (nonblocking),
//! so a slow evaluation never stalls the event loop.
//!
//! Completions wake the reactor: the service's completion hook writes
//! one byte to a socket pair in the epoll set, so a resolved ticket is
//! answered as soon as it resolves rather than at the next tick. The
//! tick only bounds the sleep for token refills and shutdown checks.
//!
//! Backpressure composes across three layers, each visible to the
//! remote client as a distinct [`RejectReason`]:
//!
//! 1. per-tenant staging caps / token buckets → `RateLimited`,
//! 2. the plfd bounded queue → `QueueFull` (verbatim `retry_after` +
//!    `jobs_ahead` from [`SubmitError`]),
//! 3. adaptive shedding → `Overloaded`.
//!
//! Drain: when the [`ShutdownFlag`] raises, the listener closes, every
//! connection receives a `Draining` frame, new submits are rejected as
//! `Draining`, already-staged work is forwarded unpaced, and in-flight
//! tickets are given `drain_timeout` to resolve before the reactor
//! returns the service to its caller (who owns journal-backed
//! [`PlfService::drain`]).

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plf_phylo::metrics::NetCounters;
use plf_phylo::model::SiteModel;
use plf_phylo::tree::Tree;
use plfd::{DatasetId, JobOutcome, JobSpec, JobTicket, PlfService, Priority, SubmitError};
use serde::Serialize;

use crate::poll::{Event, Interest, Poller};
use crate::proto::{RejectReason, Request, Response};
use crate::shutdown::ShutdownFlag;
use crate::tenant::{FairQueue, TenantPolicy};
use crate::wire::Frame;

/// Reactor token of the listening socket; connections count up from 1.
const LISTENER_TOKEN: u64 = 0;

/// Reactor token of the completion wake socket (connection tokens
/// count up from 1 and never reach it).
const WAKE_TOKEN: u64 = u64::MAX;

/// Read chunk size per `read()` call.
const READ_CHUNK: usize = 16 * 1024; // plf-lint: allow(L3) — socket read chunk, not DMA

/// A connection whose un-flushed output exceeds this is a slow
/// consumer; it is disconnected rather than allowed to balloon server
/// memory.
const MAX_OUTBUF: usize = 8 * 1024 * 1024;

/// Once this many already-written bytes sit at the front of an output
/// buffer, compact it. Waiting for a fully-drained buffer is not
/// enough: a steady slow-but-never-stalled consumer would otherwise
/// grow `out` by its whole response throughput for the connection's
/// lifetime, with `MAX_OUTBUF` bounding only the unwritten tail.
const OUT_COMPACT: usize = 64 * 1024;

/// Tuning for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Policy for tenants without an explicit entry.
    pub default_policy: TenantPolicy,
    /// Per-tenant overrides, applied at bind time.
    pub tenant_policies: Vec<(String, TenantPolicy)>,
    /// Hard cap on concurrently open connections; excess accepts are
    /// closed immediately.
    pub max_connections: usize,
    /// Reactor tick: upper bound on how long `epoll_wait` parks when
    /// nothing is ready. Job completions and socket traffic wake the
    /// reactor at once; the tick bounds only how late a token refill
    /// or a shutdown request is noticed.
    pub tick: Duration,
    /// Budget for in-flight jobs to resolve during drain before the
    /// reactor gives up and reports them unresolved.
    pub drain_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            default_policy: TenantPolicy::default(),
            tenant_policies: Vec::new(),
            max_connections: 16 * 1024, // plf-lint: allow(L3) — connection cap, not DMA
            tick: Duration::from_millis(10),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// What the reactor did over its lifetime; emitted alongside the
/// [`NetCounters`] snapshot when `plfr serve --listen` exits.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NetServerReport {
    /// Connections accepted (excludes over-cap immediate closes).
    pub accepted: u64,
    /// Jobs forwarded to the service and completed over the wire.
    pub completed: u64,
    /// Reject frames sent (all reasons).
    pub rejected: u64,
    /// Structurally bad frames / undecodable requests.
    pub protocol_errors: u64,
    /// In-flight jobs resolved during the drain window.
    pub drained_in_flight: u64,
    /// In-flight jobs still unresolved when the drain budget lapsed
    /// (each received an `Error` frame; the journal still owns them).
    pub unresolved: u64,
}

struct Conn {
    stream: TcpStream,
    decoder: crate::wire::FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    want_write: bool,
    /// Flush remaining output, then close.
    closing: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// A decoded Submit waiting in the fair queue for its turn at the
/// service.
struct StagedSubmit {
    token: u64,
    client_job: u64,
    tenant: String,
    priority: Priority,
    deadline_ns: u64,
    idempotency_key: String,
    tree: Tree,
}

struct Inflight {
    token: u64,
    client_job: u64,
    tenant: String,
    ticket: JobTicket,
}

/// The reactor's end of the completion wake: the service's completion
/// hook writes one byte to the other end of the socket pair, at most
/// one per drain of this end.
struct Wake {
    rx: UnixStream,
    /// Set by the hook when it writes a byte; cleared by the reactor
    /// once the byte is drained.
    pending: Arc<AtomicBool>,
}

impl Wake {
    /// A nonblocking socket pair: the reactor's reading end, and the
    /// completion hook that writes to the other end.
    fn new() -> io::Result<(Wake, impl Fn() + Send + Sync + 'static)> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let pending = Arc::new(AtomicBool::new(false));
        let hook_pending = Arc::clone(&pending);
        let hook = move || {
            // Coalesce: one byte in flight per reactor drain. A full
            // pipe (WouldBlock) already holds a wake, so the write
            // result carries no information.
            if !hook_pending.swap(true, Ordering::AcqRel) {
                let _ = (&tx).write(&[1]);
            }
        };
        Ok((Wake { rx, pending }, hook))
    }

    /// Install the completion hook on `service` and return the reading
    /// end for the reactor's epoll set.
    fn install(service: &PlfService) -> io::Result<Wake> {
        let (wake, hook) = Wake::new()?;
        if !service.set_completion_hook(hook) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "the service already has a completion hook",
            ));
        }
        Ok(wake)
    }

    /// Empty the socket, then re-arm the hook. The order is the
    /// invariant: re-arming first would let a completion's byte land
    /// between the two steps and be drained with the flag still set,
    /// after which no hook call writes again and the reactor falls back
    /// to the tick for good. Re-armed after the drain, a completion
    /// either wrote before the drain (its byte was consumed, and its
    /// ticket is visible to the `poll_inflight` that follows) or sees
    /// the cleared flag and writes a fresh byte.
    fn drain(&self) {
        self.drain_from(&self.rx);
    }

    /// [`Wake::drain`] reading from `rx` (the wake socket, or in tests a
    /// reader that lets a completion land mid-drain).
    fn drain_from(&self, mut rx: impl Read) {
        let mut buf = [0u8; 64];
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // AcqRel pairs with the hook's swap: a completion whose swap
        // this clear observes happened before the next ticket poll.
        self.pending.swap(false, Ordering::AcqRel);
    }
}

impl Drop for Wake {
    /// Disarm the hook: the service outlives its reactor (`run` hands
    /// it back for the drain), and its completions must not write to a
    /// socket nobody reads.
    fn drop(&mut self) {
        self.pending.store(true, Ordering::Release);
    }
}

/// The epoll-driven socket front end. Owns the listener, every
/// connection, the per-tenant fair queue, and the [`PlfService`] it
/// feeds; [`NetServer::run`] gives the service back when the reactor
/// exits so the caller can finish the journal-backed drain.
pub struct NetServer {
    listener: Option<TcpListener>,
    local_addr: SocketAddr,
    poller: Poller,
    service: PlfService,
    wake: Wake,
    dataset: DatasetId,
    model: SiteModel,
    server_info_frame: Vec<u8>,
    config: NetServerConfig,
    shutdown: ShutdownFlag,
    counters: Arc<NetCounters>,
    epoch: Instant,

    conns: HashMap<u64, Conn>,
    next_token: u64,
    fair: FairQueue<StagedSubmit>,
    /// Staged jobs cancelled before they reached the service.
    cancelled_staged: HashSet<(u64, u64)>,
    inflight: Vec<Inflight>,
    draining: bool,
    drain_started: Option<Instant>,
    report: NetServerReport,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and prepare the reactor.
    ///
    /// `dataset` must already be registered on `service`; its taxa
    /// names are advertised to every client in the `ServerInfo`
    /// greeting, so remote load generators need no local copy of the
    /// alignment.
    ///
    /// Installs `service`'s completion hook (one per service), so it
    /// fails with `AlreadyExists` on a service that already has one.
    pub fn bind(
        addr: &str,
        service: PlfService,
        dataset: DatasetId,
        model: SiteModel,
        config: NetServerConfig,
        shutdown: ShutdownFlag,
        counters: Arc<NetCounters>,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let wake = Wake::install(&service)?;
        poller.register(wake.rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
        let taxa = service
            .dataset(dataset)
            .map(|d| d.taxa().to_vec())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "dataset not registered")
            })?;
        let server_info_frame = Response::ServerInfo {
            queue_capacity: service.queue_capacity() as u64,
            workers: service.n_workers() as u64,
            unit_patterns: service.unit_patterns() as u64,
            taxa,
        }
        .encode();
        let mut fair = FairQueue::new(config.default_policy);
        for (tenant, policy) in &config.tenant_policies {
            fair.configure_tenant(tenant, *policy, 0);
        }
        Ok(NetServer {
            listener: Some(listener),
            local_addr,
            poller,
            service,
            wake,
            dataset,
            model,
            server_info_frame,
            config,
            shutdown,
            counters,
            epoch: Instant::now(),
            conns: HashMap::new(),
            next_token: 1,
            fair,
            cancelled_staged: HashSet::new(),
            inflight: Vec::new(),
            draining: false,
            drain_started: None,
            report: NetServerReport::default(),
        })
    }

    /// The bound address (port resolved when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run the reactor until shutdown is requested and the drain
    /// completes. Returns the service (for the journal-backed drain /
    /// snapshot the caller owns) and the lifetime report.
    pub fn run(mut self) -> io::Result<(PlfService, NetServerReport)> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shutdown.is_requested() && !self.draining {
                self.begin_drain();
            }
            // Checked before parking: an idle server that sees the
            // shutdown request must not sleep another tick first.
            if self.draining && self.drain_complete() {
                break;
            }

            let timeout = self.poll_timeout();
            self.poller.wait(timeout, &mut events)?;

            // `events` is a local scratch vector, so iterating it does
            // not alias the `&mut self` the handlers need.
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if ev.token == WAKE_TOKEN {
                    // Before `poll_inflight` below, never after it.
                    self.wake.drain();
                } else {
                    if ev.readable || ev.hangup {
                        self.read_ready(ev.token, ev.hangup);
                    }
                    if ev.writable {
                        self.flush_conn(ev.token);
                    }
                }
            }

            self.pump_fair_queue();
            self.poll_inflight();
            self.flush_all();
            self.reap_closed();
        }
        self.finish_drain();
        self.report.protocol_errors = self.counters.snapshot().protocol_errors;
        Ok((self.service, self.report))
    }

    fn poll_timeout(&mut self) -> Duration {
        let tick = self.config.tick;
        // When every staged job is token-starved, the earliest refill
        // bounds how soon waking is useful. Completions wake the
        // reactor themselves; the tick bounds how late a shutdown
        // request is noticed.
        let now = self.now_ns();
        match self.fair.next_ready_in(now) {
            Some(wait) if !wait.is_zero() => tick.min(wait),
            _ => tick,
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_started = Some(Instant::now());
        // Stop accepting: deregister and drop the listener so the
        // port closes immediately.
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let draining = Response::Draining.encode();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.queue_bytes(token, &draining);
        }
    }

    fn drain_complete(&self) -> bool {
        if self.fair.is_empty() && self.inflight.is_empty() {
            return true;
        }
        match self.drain_started {
            Some(t) => t.elapsed() >= self.config.drain_timeout,
            None => false,
        }
    }

    fn finish_drain(&mut self) {
        // Final read sweep: requests a client managed to write before
        // the drain won the race are answered (a buffered Submit gets
        // a Draining reject) instead of vanishing into a closed
        // socket. Draining rejects cannot grow the queue or the
        // in-flight set, so this terminates.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.read_ready(token, false);
        }
        // Anything still unresolved gets an explicit Error frame; the
        // journal owns the job from here (recovery replays it).
        let unresolved: Vec<(u64, u64)> = self
            .inflight
            .iter()
            .map(|f| (f.token, f.client_job))
            .collect();
        self.report.unresolved = unresolved.len() as u64;
        for (token, client_job) in unresolved {
            self.send_response(
                token,
                &Response::Error {
                    client_job,
                    message: "drain budget exhausted; job journaled for recovery".to_string(),
                },
            );
        }
        // Flush the response backlog with a short bounded budget (a
        // single best-effort pass can drop final frames behind a full
        // socket buffer), then close everything.
        let flush_deadline = Instant::now() + Duration::from_millis(250);
        loop {
            self.flush_all();
            let pending = self
                .conns
                .values()
                .any(|c| !c.closing && c.pending_out() > 0);
            if !pending || Instant::now() >= flush_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
            self.counters.record_drained_connection();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        // Over cap: close immediately (client sees EOF
                        // before ServerInfo and knows to back off).
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Pipelined responses go out as they resolve; Nagle
                    // would hold one behind another's unacknowledged
                    // segment. Best effort, as for the client.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            decoder: crate::wire::FrameDecoder::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            want_write: false,
                            closing: false,
                        },
                    );
                    self.counters.record_conn_open();
                    self.report.accepted += 1;
                    let greeting = self.server_info_frame.clone();
                    self.queue_bytes(token, &greeting);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn read_ready(&mut self, token: u64, hangup: bool) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = hangup;
        let mut frames: Vec<Frame> = Vec::new();
        let mut poisoned = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.feed(chunk.get(..n).unwrap_or(&[]));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            loop {
                match conn.decoder.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
        }
        for frame in frames {
            self.counters.record_frame_in(frame.wire_len as u64);
            self.handle_frame(token, &frame);
        }
        if poisoned {
            self.protocol_error(token, 0, "malformed frame");
        }
        if eof {
            if let Some(conn) = self.conns.get_mut(&token) {
                // Peer is gone: no point flushing a response backlog.
                conn.out.clear();
                conn.out_pos = 0;
                conn.closing = true;
            }
        }
    }

    fn protocol_error(&mut self, token: u64, client_job: u64, message: &str) {
        self.counters.record_protocol_error();
        self.send_response(
            token,
            &Response::Error {
                client_job,
                message: message.to_string(),
            },
        );
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
        }
    }

    fn handle_frame(&mut self, token: u64, frame: &Frame) {
        let request = match Request::decode(frame) {
            Ok(request) => request,
            Err(e) => {
                self.protocol_error(token, 0, &format!("bad request: {e}"));
                return;
            }
        };
        match request {
            Request::Submit {
                client_job,
                tenant,
                priority,
                deadline_ns,
                idempotency_key,
                newick,
            } => self.handle_submit(
                token,
                client_job,
                tenant,
                priority,
                deadline_ns,
                idempotency_key,
                newick,
            ),
            Request::Cancel { client_job } => self.handle_cancel(token, client_job),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_submit(
        &mut self,
        token: u64,
        client_job: u64,
        tenant: String,
        priority: u8,
        deadline_ns: u64,
        idempotency_key: String,
        newick: String,
    ) {
        if self.draining {
            self.send_reject(token, client_job, &tenant, RejectReason::Draining, None, 0);
            return;
        }
        let tree = match Tree::from_newick(&newick) {
            Ok(tree) => tree,
            Err(e) => {
                self.counters.record_protocol_error();
                self.send_response(
                    token,
                    &Response::Error {
                        client_job,
                        message: format!("bad newick: {e}"),
                    },
                );
                return;
            }
        };
        let priority = if priority == 1 {
            Priority::High
        } else {
            Priority::Normal
        };
        let staged = StagedSubmit {
            token,
            client_job,
            tenant: tenant.clone(),
            priority,
            deadline_ns,
            idempotency_key,
            tree,
        };
        let now = self.now_ns();
        match self.fair.push(&tenant, priority, staged, now) {
            Ok(()) => {
                self.counters.record_net_submitted(&tenant);
            }
            Err(reject) => {
                self.counters.record_net_rate_limited(&tenant);
                let jobs_ahead = self.fair.pending(&tenant) as u64;
                self.send_reject(
                    token,
                    client_job,
                    &tenant,
                    RejectReason::RateLimited,
                    Some(reject.retry_after()),
                    jobs_ahead,
                );
            }
        }
    }

    fn handle_cancel(&mut self, token: u64, client_job: u64) {
        if let Some(inflight) = self
            .inflight
            .iter()
            .find(|f| f.token == token && f.client_job == client_job)
        {
            // Outcome resolution will surface Cancelled (or a
            // completed result if evaluation already started).
            inflight.ticket.cancel();
            return;
        }
        // Not in flight: mark for skip only if actually staged.
        // Marking unknown ids would let a client grow the set without
        // bound and would silently swallow a later submit that reuses
        // the id; cancel stays idempotent either way because the
        // response below is unconditional.
        if self
            .fair
            .any_staged(|s| s.token == token && s.client_job == client_job)
        {
            self.cancelled_staged.insert((token, client_job));
        }
        self.send_response(token, &Response::Cancelled { client_job });
    }

    /// Forward staged jobs to the service in fair order. Stops early
    /// on service backpressure so remaining staged work keeps its
    /// position instead of converting into a reject storm.
    fn pump_fair_queue(&mut self) {
        loop {
            let now = self.now_ns();
            let popped = if self.draining {
                self.fair.pop_unpaced(now)
            } else {
                self.fair.pop(now)
            };
            let Some((_tenant, staged)) = popped else {
                return;
            };
            if self
                .cancelled_staged
                .remove(&(staged.token, staged.client_job))
            {
                // Cancelled while staged; the Cancelled response was
                // already sent by handle_cancel.
                continue;
            }
            if !self.conns.contains_key(&staged.token) {
                // Client disconnected while staged: drop silently.
                continue;
            }
            let mut spec = JobSpec::new(
                staged.tenant.clone(),
                self.dataset,
                staged.tree,
                self.model.clone(),
            )
            .with_priority(staged.priority);
            if staged.deadline_ns > 0 {
                spec = spec.with_deadline(Duration::from_nanos(staged.deadline_ns));
            }
            if !staged.idempotency_key.is_empty() {
                spec = spec.with_idempotency_key(staged.idempotency_key.clone());
            }
            match self.service.submit(spec) {
                Ok(ticket) => {
                    self.inflight.push(Inflight {
                        token: staged.token,
                        client_job: staged.client_job,
                        tenant: staged.tenant,
                        ticket,
                    });
                }
                Err(err) => {
                    let stop = self.reject_from_submit_error(
                        staged.token,
                        staged.client_job,
                        &staged.tenant,
                        &err,
                    );
                    if stop {
                        return;
                    }
                }
            }
        }
    }

    /// Map a [`SubmitError`] onto the wire and decide whether to stop
    /// pumping this tick (true = backpressure, let the queue breathe).
    fn reject_from_submit_error(
        &mut self,
        token: u64,
        client_job: u64,
        tenant: &str,
        err: &SubmitError,
    ) -> bool {
        match err {
            SubmitError::QueueFull { .. } => {
                self.counters.record_net_reject_queue_full(tenant);
                self.send_reject(
                    token,
                    client_job,
                    tenant,
                    RejectReason::QueueFull,
                    err.retry_after(),
                    err.jobs_ahead().unwrap_or(0) as u64,
                );
                true
            }
            SubmitError::Overloaded { .. } => {
                self.counters.record_net_reject_overloaded(tenant);
                self.send_reject(
                    token,
                    client_job,
                    tenant,
                    RejectReason::Overloaded,
                    err.retry_after(),
                    err.jobs_ahead().unwrap_or(0) as u64,
                );
                true
            }
            SubmitError::Closed => {
                self.send_reject(token, client_job, tenant, RejectReason::Closed, None, 0);
                false
            }
            SubmitError::UnknownDataset(_) | SubmitError::Journal { .. } => {
                self.send_response(
                    token,
                    &Response::Error {
                        client_job,
                        message: format!("submit failed: {err}"),
                    },
                );
                false
            }
        }
    }

    fn send_reject(
        &mut self,
        token: u64,
        client_job: u64,
        _tenant: &str,
        reason: RejectReason,
        retry_after: Option<Duration>,
        jobs_ahead: u64,
    ) {
        self.report.rejected += 1;
        let retry_after_ns = retry_after.map(|d| d.as_nanos() as u64).unwrap_or(0);
        self.send_response(
            token,
            &Response::Reject {
                client_job,
                reason,
                retry_after_ns,
                jobs_ahead,
            },
        );
    }

    /// Nonblocking sweep over in-flight tickets; resolved outcomes
    /// become response frames.
    fn poll_inflight(&mut self) {
        let mut resolved: Vec<(u64, u64, String, JobOutcome)> = Vec::new();
        self.inflight.retain(|f| match f.ticket.try_wait() {
            Some(outcome) => {
                resolved.push((f.token, f.client_job, f.tenant.clone(), outcome));
                false
            }
            None => true,
        });
        let draining = self.draining;
        for (token, client_job, tenant, outcome) in resolved {
            if draining {
                self.report.drained_in_flight += 1;
            }
            let response = match outcome {
                JobOutcome::Completed {
                    ln_likelihood,
                    wait,
                    service,
                    backend,
                } => {
                    self.counters.record_net_completed(&tenant);
                    self.report.completed += 1;
                    Response::Completed {
                        client_job,
                        ln_likelihood,
                        wait_ns: wait.as_nanos() as u64,
                        service_ns: service.as_nanos() as u64,
                        backend,
                    }
                }
                JobOutcome::Cancelled => Response::Cancelled { client_job },
                JobOutcome::DeadlineMissed => Response::DeadlineMissed { client_job },
                JobOutcome::Failed { error } => Response::Failed { client_job, error },
            };
            self.send_response(token, &response);
        }
    }

    fn send_response(&mut self, token: u64, response: &Response) {
        let bytes = response.encode();
        self.queue_bytes(token, &bytes);
    }

    fn queue_bytes(&mut self, token: u64, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.closing {
            return;
        }
        conn.out.extend_from_slice(bytes);
        self.counters.record_frame_out(bytes.len() as u64);
        if conn.pending_out() > MAX_OUTBUF {
            // Slow consumer: cut it loose rather than buffer without
            // bound. The journal still owns any in-flight work.
            conn.out.clear();
            conn.out_pos = 0;
            conn.closing = true;
        }
    }

    /// Write as much pending output as the socket accepts; keeps epoll
    /// write-interest in sync with whether a backlog remains.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.pending_out() > 0 {
            let chunk = conn.out.get(conn.out_pos..).unwrap_or(&[]);
            match conn.stream.write(chunk) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.out.clear();
                    conn.out_pos = 0;
                    conn.closing = true;
                    break;
                }
            }
        }
        if conn.pending_out() == 0 {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos >= OUT_COMPACT {
            // Backlog remains: shift it down so consumed bytes don't
            // accumulate at the front forever.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        let want_write = conn.pending_out() > 0;
        if want_write != conn.want_write {
            conn.want_write = want_write;
            let interest = if want_write {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
        }
    }

    fn flush_all(&mut self) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.pending_out() > 0)
            .map(|(t, _)| *t)
            .collect();
        for token in tokens {
            self.flush_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.counters.record_conn_close();
        }
        // Any jobs this connection still has in flight keep running
        // (results are journaled); their responses just have nowhere
        // to go. Drop the bookkeeping, including cancellation marks
        // whose staged job will now be dropped on pop anyway.
        self.inflight.retain(|f| f.token != token);
        self.cancelled_staged.retain(|(t, _)| *t != token);
    }

    fn reap_closed(&mut self) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.closing && c.pending_out() == 0)
            .map(|(t, _)| *t)
            .collect();
        for token in tokens {
            self.close_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wake socket, with one completion landing at the first read:
    /// inside `Wake::drain`, between its drain and its re-arm.
    struct CompletionMidDrain<'a, F: Fn()> {
        rx: &'a UnixStream,
        hook: Option<&'a F>,
    }

    impl<F: Fn()> Read for CompletionMidDrain<'_, F> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if let Some(hook) = self.hook.take() {
                hook();
            }
            self.rx.read(buf)
        }
    }

    fn readable(rx: &UnixStream) -> bool {
        let mut poller = Poller::new().expect("epoll");
        poller
            .register(rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        poller.wait(Duration::ZERO, &mut events).expect("wait");
        !events.is_empty()
    }

    #[test]
    fn a_completion_racing_the_drain_never_loses_the_next_wake() {
        let (wake, hook) = Wake::new().expect("socket pair");
        hook();
        assert!(readable(&wake.rx), "the first completion writes a wake");
        hook();
        // One completion lands while the reactor drains. Its ticket is
        // seen by the poll that follows the drain; what must survive is
        // the wake of the *next* completion.
        wake.drain_from(CompletionMidDrain {
            rx: &wake.rx,
            hook: Some(&hook),
        });
        assert!(!readable(&wake.rx), "the drain empties the socket");
        hook();
        assert!(
            readable(&wake.rx),
            "a completion after the drain must wake the reactor again"
        );
        wake.drain();
        assert!(!readable(&wake.rx));
    }
}
