//! The dispatcher: shards fused batches across a pool of supervised
//! backend worker threads and reassembles per-job outcomes.
//!
//! Each worker slot owns one `PlfBackend` and receives shards over a
//! rendezvous channel — bounded at one in-flight shard per worker,
//! which is the pool's own backpressure toward the scheduler. Jobs are
//! registered in the slot's *ledger* before they are sent and removed
//! as each resolves, so at any instant the ledger is exactly the
//! worker's in-flight set.
//!
//! **Supervision.** A watchdog thread polls the slots: a worker that
//! died (injected kill, escaped panic) is respawned from its slot's
//! [`BackendFactory`] and its ledger is re-dispatched to the fresh
//! worker; the at-most-once guard on `Job` keeps a duplicate execution
//! from double-publishing — safe because every backend produces
//! bit-identical results. A worker whose heartbeat goes stale while
//! jobs are in flight is surfaced as a hang detection (threads cannot
//! be preempted, so hung workers are counted, not force-killed).
//!
//! **Degradation routing.** Every slot carries a circuit breaker fed
//! by the `PlfError` taxonomy. Dispatch routes shards only to workers
//! with closed breakers (falling back to any live worker when every
//! breaker is open, so the service never stalls outright); a job that
//! faults on a tripped backend is redirected once to a healthy worker
//! before it is allowed to fail.
//!
//! **Fused execution.** A shard's jobs share a
//! [`BatchKey`](crate::job::BatchKey), so the
//! worker evaluates them through [`evaluate_fused`]: every job's
//! current tree level becomes *one* backend invocation over the
//! concatenated pattern space instead of one invocation per job, and a
//! per-worker [`ClvCache`] reuses subtree CLVs across calls. Per-job
//! fault containment is preserved two ways: terminal pre-states
//! (cancelled, expired, blacked-out) are peeled off individually
//! before fusing, and any fused-level failure falls back to per-job
//! evaluation so a poisoned job resolves alone while its batchmates
//! complete.
//!
//! **Resident workspaces.** Each worker keeps the likelihood workspaces
//! of its last shard and rebinds them
//! ([`TreeLikelihood::rebind`]) to the next shard's jobs, matched on
//! dataset, rate count and node count, so a steady-state shard
//! allocates no CLV. The retained set is exactly what the last shard
//! used.
//!
//! This file is in `plf-lint`'s L2 hot-path scope: no panicking calls.

use crate::health::{
    is_backend_fault, run_probe, AdmissionController, BackendFactory, BreakerPolicy,
    BreakerState, CircuitBreaker, WatchdogPolicy,
};
use crate::job::{DatasetId, Job, JobId, JobOutcome};
use crate::scheduler::Batch;
use plf_phylo::clv_cache::ClvCache;
use plf_phylo::fused::{evaluate_fused, FusedJob};
use plf_phylo::kernels::PlfBackend;
use plf_phylo::likelihood::{LikelihoodError, TreeLikelihood};
use plf_phylo::metrics::ServiceCounters;
use plf_phylo::resilience::{panic_message, FaultInjector, FaultSite, PlfError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One worker's slice of a fused batch. Jobs are shared with the
/// slot's ledger so the watchdog can recover them if the worker dies.
struct Shard {
    jobs: Vec<Arc<Job>>,
}

/// How long an idle worker waits for a shard before checking whether
/// its breaker owes a half-open probe.
const PROBE_TICK: Duration = Duration::from_millis(20);

/// Consecutive jobs darkened by one rate-triggered blackout roll.
const BLACKOUT_BURST: u64 = 4;

/// Dispatch retry rounds before a shard is declared unplaceable.
const MAX_PLACEMENT_ROUNDS: usize = 200;

/// Highest rate count with a precomputed fused-unit size; larger rate
/// counts clamp to this row.
const MAX_UNIT_RATES: usize = 16;

/// Default per-worker CLV reuse cache capacity, in subtree entries.
pub(crate) const DEFAULT_CLV_CACHE_ENTRIES: usize = 256;

/// Non-channel pool knobs.
#[derive(Debug, Clone)]
pub(crate) struct PoolConfig {
    pub breaker: BreakerPolicy,
    pub watchdog: WatchdogPolicy,
    /// Service-level fault injector consulted at the `WorkerKill` and
    /// `BackendBlackout` sites (one roll per job per site).
    pub injector: Option<Arc<FaultInjector>>,
    /// Per-worker CLV reuse cache capacity (0 disables caching).
    pub clv_cache_entries: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            breaker: BreakerPolicy::default(),
            watchdog: WatchdogPolicy::default(),
            injector: None,
            clv_cache_entries: DEFAULT_CLV_CACHE_ENTRIES,
        }
    }
}

/// What a resident workspace is matched on: with the same alignment,
/// rate count and node count, a rebind reuses every CLV buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkspaceKey {
    dataset: DatasetId,
    n_rates: usize,
    n_nodes: usize,
}

impl WorkspaceKey {
    fn of(job: &Job) -> WorkspaceKey {
        WorkspaceKey {
            dataset: job.dataset,
            n_rates: job.model.n_rates(),
            n_nodes: job.tree.n_nodes(),
        }
    }
}

type Workspace = (WorkspaceKey, TreeLikelihood);

/// One worker's resident likelihood workspaces. After each shard the
/// worker keeps exactly the workspaces that shard used, to be rebound
/// to the next shard's jobs.
#[derive(Default)]
struct Workspaces {
    /// The last shard's workspaces not yet taken by this shard.
    held: Vec<Workspace>,
    /// Workspaces this shard has used and released.
    used: Vec<Workspace>,
}

impl Workspaces {
    /// A workspace bound to `job`: a free one with the job's key,
    /// rebound, or a fresh one when none matches.
    fn acquire(&mut self, job: &Job) -> Result<Workspace, LikelihoodError> {
        let key = WorkspaceKey::of(job);
        let free = [&mut self.held, &mut self.used]
            .into_iter()
            .find_map(|pool| {
                let i = pool.iter().position(|(k, _)| *k == key)?;
                Some(pool.swap_remove(i).1)
            });
        match free {
            Some(mut eval) => {
                eval.rebind(&job.tree, &job.data, job.model.clone())?;
                Ok((key, eval))
            }
            None => Ok((key, TreeLikelihood::new(&job.tree, &job.data, job.model.clone())?)),
        }
    }

    /// Hand back a workspace this shard is done with.
    fn release(&mut self, workspace: Workspace) {
        self.used.push(workspace);
    }

    /// End of a shard: keep exactly what it used, drop the rest.
    fn end_shard(&mut self) {
        self.held = std::mem::take(&mut self.used);
    }
}

/// One supervised worker slot.
struct WorkerSlot {
    sender: Mutex<Option<SyncSender<Shard>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    /// Worker thread is running. Cleared by the worker's drop guard on
    /// any exit (clean, killed, or panicked).
    alive: AtomicBool,
    /// Worker exited cleanly at shutdown; the watchdog must not
    /// respawn it.
    retired: AtomicBool,
    /// Control-plane kill switch: the worker dies before its next job.
    kill_pending: AtomicBool,
    /// Jobs the backend will refuse before recovering (blackout).
    blackout_remaining: AtomicU64,
    /// Nanoseconds since the pool epoch at the last heartbeat.
    heartbeat: AtomicU64,
    /// In-flight jobs (registered before send, removed as resolved).
    ledger: Mutex<Vec<Arc<Job>>>,
    breaker: CircuitBreaker,
    factory: BackendFactory,
    /// The initial backend, consumed by the first spawn; respawns use
    /// the factory.
    initial: Mutex<Option<Box<dyn PlfBackend>>>,
}

impl std::fmt::Debug for WorkerSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSlot")
            .field("alive", &self.alive.load(Ordering::Relaxed))
            .field("breaker", &self.breaker.state().label())
            .finish_non_exhaustive()
    }
}

impl WorkerSlot {
    fn lock_ledger(&self) -> MutexGuard<'_, Vec<Arc<Job>>> {
        self.ledger.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn ledger_remove(&self, id: JobId) {
        let mut ledger = self.lock_ledger();
        if let Some(pos) = ledger.iter().position(|j| j.id == id) {
            ledger.swap_remove(pos);
        }
    }

    /// Consume one blackout charge; `true` means this job is darkened.
    fn consume_blackout(&self) -> bool {
        self.blackout_remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// Pool state shared between the scheduler-owned [`WorkerPool`], the
/// worker threads, the watchdog, and the service facade.
#[derive(Debug)]
pub(crate) struct PoolShared {
    slots: Vec<WorkerSlot>,
    counters: Arc<ServiceCounters>,
    controller: Arc<AdmissionController>,
    injector: Option<Arc<FaultInjector>>,
    epoch: Instant,
    shutting_down: AtomicBool,
    next_worker: AtomicUsize,
    /// Fused work-unit size per rate count: `unit_patterns_by_rates[r-1]`
    /// is the narrowest backend's preferred chunk for `r` rates.
    unit_patterns_by_rates: Vec<usize>,
    /// Per-worker CLV reuse cache capacity (0 disables caching).
    clv_cache_entries: usize,
    /// Faulted jobs awaiting a one-time redirect to a healthy worker.
    retry_parked: Mutex<Vec<Arc<Job>>>,
}

impl PoolShared {
    /// Worker count.
    pub(crate) fn n_workers(&self) -> usize {
        self.slots.len()
    }

    /// Workers whose threads are currently running.
    pub(crate) fn alive_workers(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.alive.load(Ordering::Acquire))
            .count()
    }

    /// Per-slot breaker states, in worker order.
    pub(crate) fn breaker_states(&self) -> Vec<BreakerState> {
        self.slots.iter().map(|s| s.breaker.state()).collect()
    }

    /// Arrange for worker `i` to die before its next job (exercises
    /// the watchdog respawn path). Out-of-range indices are ignored.
    pub(crate) fn kill_worker(&self, i: usize) {
        if let Some(slot) = self.slots.get(i) {
            slot.kill_pending.store(true, Ordering::Release);
        }
    }

    /// Make worker `i`'s backend refuse its next `n` jobs (exercises
    /// the circuit breaker). Out-of-range indices are ignored.
    pub(crate) fn blackout_worker(&self, i: usize, n: u64) {
        if let Some(slot) = self.slots.get(i) {
            slot.blackout_remaining.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn beat(&self, i: usize) {
        if let Some(slot) = self.slots.get(i) {
            slot.heartbeat.store(self.now_nanos(), Ordering::Release);
        }
    }

    fn roll(&self, site: FaultSite) -> bool {
        self.injector.as_ref().is_some_and(|inj| inj.fire(site))
    }

    /// Pick a target slot: round-robin over live workers with closed
    /// breakers; if none, any live worker (an all-open pool degrades to
    /// best-effort rather than stalling); if none at all, the nominal
    /// round-robin slot (the send will fail and the caller retries).
    fn pick_worker(&self) -> usize {
        let n = self.slots.len().max(1);
        let start = self.next_worker.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            if let Some(s) = self.slots.get(i) {
                if s.alive.load(Ordering::Acquire) && s.breaker.allows_dispatch() {
                    return i;
                }
            }
        }
        for k in 0..n {
            let i = (start + k) % n;
            if let Some(s) = self.slots.get(i) {
                if s.alive.load(Ordering::Acquire) {
                    return i;
                }
            }
        }
        start % n
    }

    /// Register `jobs` in slot `w`'s ledger and send them as one
    /// shard. On send failure (worker died between pick and send) the
    /// ledger entries are rolled back and `false` is returned.
    fn try_send(&self, w: usize, jobs: &[Arc<Job>]) -> bool {
        let Some(slot) = self.slots.get(w) else {
            return false;
        };
        slot.lock_ledger().extend(jobs.iter().map(Arc::clone));
        let sender = slot
            .sender
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        let sent = match sender {
            Some(tx) => tx
                .send(Shard {
                    jobs: jobs.to_vec(),
                })
                .is_ok(),
            None => false,
        };
        if !sent {
            let mut ledger = slot.lock_ledger();
            for job in jobs {
                if let Some(pos) = ledger.iter().position(|j| j.id == job.id) {
                    ledger.swap_remove(pos);
                }
            }
        }
        sent
    }

    /// Place one shard on some live worker, waiting out respawns if
    /// necessary. Jobs that cannot be placed at all resolve as failed.
    fn place_shard(&self, jobs: Vec<Arc<Job>>) {
        for round in 0..MAX_PLACEMENT_ROUNDS {
            let w = self.pick_worker();
            if self.try_send(w, &jobs) {
                return;
            }
            if self.shutting_down.load(Ordering::Acquire) {
                break;
            }
            // Give the watchdog a beat to respawn someone.
            if round >= self.slots.len() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for job in jobs {
            if job.try_claim() {
                self.counters.record_failed(&job.tenant);
                job.publish(JobOutcome::Failed {
                    error: format!("{}: no live worker available", job.id),
                });
            }
        }
    }

    /// Park a faulted job for a one-time redirect; the watchdog (or
    /// shutdown) flushes parked jobs to a healthy worker.
    fn park_for_redirect(&self, job: Arc<Job>) {
        self.retry_parked
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(job);
    }

    /// Re-dispatch every parked job.
    fn flush_parked(&self) {
        let parked: Vec<Arc<Job>> = std::mem::take(
            &mut *self.retry_parked.lock().unwrap_or_else(|p| p.into_inner()),
        );
        if !parked.is_empty() {
            self.place_shard(parked);
        }
    }

    /// The fused work-unit size (in patterns) for a job with `n_rates`
    /// rate categories: the narrowest backend's preferred chunk for
    /// that geometry. Rate counts past the precomputed table clamp to
    /// its widest row.
    pub(crate) fn unit_patterns_for(&self, n_rates: usize) -> usize {
        let i = n_rates.clamp(1, self.unit_patterns_by_rates.len().max(1)) - 1;
        self.unit_patterns_by_rates
            .get(i)
            .copied()
            .unwrap_or(plf_phylo::kernels::DEFAULT_BATCH_PATTERNS)
    }

    /// Is any *other* live worker's breaker closed (a redirect target)?
    fn redirect_target_exists(&self, not: usize) -> bool {
        self.slots.iter().enumerate().any(|(i, s)| {
            i != not && s.alive.load(Ordering::Acquire) && s.breaker.allows_dispatch()
        })
    }
}

/// A pool of supervised backend-owning worker threads.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    watchdog: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn one worker per backend plus the watchdog. `factories[i]`
    /// rebuilds worker `i`'s backend after a death. The fused work
    /// units the scheduler sizes batches with are precomputed per rate
    /// count: for each geometry, the *narrowest* backend's preferred
    /// chunk, so every device in a heterogeneous pool can take any
    /// unit. (A single canonical Γ4 table row used to stand in for
    /// every rate count, which mis-sized batches for 1- or 8-rate
    /// models on memory-bound backends.)
    pub(crate) fn new(
        backends: Vec<Box<dyn PlfBackend>>,
        factories: Vec<BackendFactory>,
        counters: Arc<ServiceCounters>,
        controller: Arc<AdmissionController>,
        config: PoolConfig,
    ) -> WorkerPool {
        let unit_patterns_by_rates: Vec<usize> = (1..=MAX_UNIT_RATES)
            .map(|r| {
                backends
                    .iter()
                    .map(|b| b.preferred_batch_patterns(r).max(1))
                    .min()
                    .unwrap_or(plf_phylo::kernels::DEFAULT_BATCH_PATTERNS)
            })
            .collect();
        let scalar_factory: BackendFactory =
            Arc::new(|| Box::new(plf_phylo::kernels::ScalarBackend));
        let slots: Vec<WorkerSlot> = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| WorkerSlot {
                sender: Mutex::new(None),
                handle: Mutex::new(None),
                alive: AtomicBool::new(false),
                retired: AtomicBool::new(false),
                kill_pending: AtomicBool::new(false),
                blackout_remaining: AtomicU64::new(0),
                heartbeat: AtomicU64::new(0),
                ledger: Mutex::new(Vec::new()),
                breaker: CircuitBreaker::new(config.breaker.clone(), Arc::clone(&counters)),
                factory: factories.get(i).cloned().unwrap_or_else(|| Arc::clone(&scalar_factory)),
                initial: Mutex::new(Some(backend)),
            })
            .collect();
        let shared = Arc::new(PoolShared {
            slots,
            counters,
            controller,
            injector: config.injector,
            epoch: Instant::now(),
            shutting_down: AtomicBool::new(false),
            next_worker: AtomicUsize::new(0),
            unit_patterns_by_rates,
            clv_cache_entries: config.clv_cache_entries,
            retry_parked: Mutex::new(Vec::new()),
        });
        for i in 0..shared.slots.len() {
            spawn_worker(&shared, i);
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            let policy = config.watchdog.clone();
            std::thread::spawn(move || watchdog_loop(&shared, &policy))
        };
        WorkerPool {
            shared,
            watchdog: Some(watchdog),
        }
    }

    /// The shared pool state (for the service facade's control and
    /// observability surface).
    pub(crate) fn shared(&self) -> Arc<PoolShared> {
        Arc::clone(&self.shared)
    }

    /// Worker count.
    pub(crate) fn n_workers(&self) -> usize {
        self.shared.n_workers()
    }

    /// The fused work-unit size at the canonical Γ4 rate count (the
    /// observability surface's single representative figure).
    pub(crate) fn unit_patterns(&self) -> usize {
        self.shared.unit_patterns_for(4)
    }

    /// The fused work-unit size for a job with `n_rates` categories.
    pub(crate) fn unit_patterns_for(&self, n_rates: usize) -> usize {
        self.shared.unit_patterns_for(n_rates)
    }

    /// Shard `batch` across the workers and hand each worker its
    /// slice. Blocks while every healthy worker already has a shard in
    /// flight — that rendezvous is the pool's backpressure.
    pub(crate) fn dispatch(&self, batch: Batch) {
        let n_workers = self.shared.slots.len().max(1);
        let n_shards = n_workers.min(batch.jobs.len()).max(1);
        let per_shard = batch.jobs.len().div_ceil(n_shards).max(1);
        let mut jobs: Vec<Arc<Job>> = batch.jobs.into_iter().map(Arc::new).collect();
        while !jobs.is_empty() {
            let rest = jobs.split_off(per_shard.min(jobs.len()));
            let shard = jobs;
            jobs = rest;
            self.shared.place_shard(shard);
        }
    }

    /// Stop the watchdog, close the shard channels, join every worker,
    /// and resolve anything left in the ledgers. In-flight shards
    /// finish first; every job they carry resolves.
    pub(crate) fn shutdown(mut self) {
        let shared = Arc::clone(&self.shared);
        shared.shutting_down.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        // One last redirect flush while the workers still run.
        shared.flush_parked();
        for slot in &shared.slots {
            slot.sender.lock().unwrap_or_else(|p| p.into_inner()).take();
        }
        for slot in &shared.slots {
            let handle = slot.handle.lock().unwrap_or_else(|p| p.into_inner()).take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
        // Anything still ledgered belonged to a dead worker that was
        // never respawned (or died after the watchdog stopped).
        let mut leftovers: Vec<Arc<Job>> = Vec::new();
        for slot in &shared.slots {
            leftovers.append(&mut slot.lock_ledger());
        }
        leftovers.append(
            &mut shared.retry_parked.lock().unwrap_or_else(|p| p.into_inner()),
        );
        for job in leftovers {
            if job.try_claim() {
                shared.counters.record_failed(&job.tenant);
                job.publish(JobOutcome::Failed {
                    error: format!("{}: worker unavailable during shutdown", job.id),
                });
            }
        }
    }
}

/// (Re)spawn the worker thread for slot `i`. The first spawn consumes
/// the slot's initial backend; respawns build one from the factory.
fn spawn_worker(shared: &Arc<PoolShared>, i: usize) {
    let Some(slot) = shared.slots.get(i) else {
        return;
    };
    let backend = slot
        .initial
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take()
        .unwrap_or_else(|| (slot.factory)());
    let (tx, rx) = sync_channel::<Shard>(1);
    slot.alive.store(true, Ordering::Release);
    slot.retired.store(false, Ordering::Release);
    shared.beat(i);
    *slot.sender.lock().unwrap_or_else(|p| p.into_inner()) = Some(tx);
    let thread_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_loop(&thread_shared, i, &rx, backend));
    *slot.handle.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
}

/// Clears the slot's `alive` flag on any exit from the worker loop —
/// clean shutdown, injected kill, or an unexpected unwind.
struct AliveGuard<'a> {
    slot: &'a WorkerSlot,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.slot.alive.store(false, Ordering::Release);
    }
}

fn worker_loop(
    shared: &Arc<PoolShared>,
    idx: usize,
    rx: &Receiver<Shard>,
    mut backend: Box<dyn PlfBackend>,
) {
    let Some(slot) = shared.slots.get(idx) else {
        return;
    };
    let _guard = AliveGuard { slot };
    // Per-worker CLV reuse cache, shared across every fused shard this
    // worker runs (hits materialize when later shards repeat subtrees).
    let mut cache =
        (shared.clv_cache_entries > 0).then(|| ClvCache::new(shared.clv_cache_entries));
    let mut workspaces = Workspaces::default();
    loop {
        match rx.recv_timeout(PROBE_TICK) {
            Ok(shard) => {
                // Pre-pass: peel off jobs that must not reach
                // evaluation — resolved elsewhere, cancelled, expired,
                // blacked out — each resolved individually, so one bad
                // job cannot take its batchmates down.
                let mut runnable: Vec<Arc<Job>> = Vec::with_capacity(shard.jobs.len());
                for job in shard.jobs {
                    shared.beat(idx);
                    if job.is_resolved() {
                        // Already resolved elsewhere (respawn race).
                        slot.ledger_remove(job.id);
                        continue;
                    }
                    if slot.kill_pending.swap(false, Ordering::AcqRel)
                        || shared.roll(FaultSite::WorkerKill)
                    {
                        // Die with the job (and the rest of the shard)
                        // still ledgered; the watchdog recovers them.
                        return;
                    }
                    if pre_resolve(shared, idx, slot, backend.as_mut(), &job) {
                        slot.ledger_remove(job.id);
                        continue;
                    }
                    runnable.push(job);
                }
                // Survivors run as one fused pass when there are at
                // least two; any fused-level failure falls back to the
                // per-job path for fault containment.
                let fused_done = runnable.len() >= 2
                    && run_shard_fused(
                        shared,
                        slot,
                        backend.as_mut(),
                        &runnable,
                        &mut cache,
                        &mut workspaces,
                    );
                if !fused_done {
                    for job in &runnable {
                        shared.beat(idx);
                        evaluate_one(shared, idx, slot, backend.as_mut(), job, &mut workspaces);
                    }
                }
                if !runnable.is_empty() {
                    workspaces.end_shard();
                }
                for job in &runnable {
                    slot.ledger_remove(job.id);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        shared.beat(idx);
        maybe_probe(shared, slot, backend.as_mut());
    }
    slot.retired.store(true, Ordering::Release);
}

/// Evaluate a shard's runnable jobs as one fused pass: each round,
/// every job's current tree-level operation joins a single backend
/// invocation over the concatenated pattern space, and subtree CLVs
/// are reused from the worker's cache. Per-job results are demuxed
/// into individual `Completed` outcomes. Returns `false` when the
/// fused pass could not complete (mixed batch keys, construction
/// failure, backend fault, panic) — the caller then falls back to
/// per-job evaluation, which re-establishes per-job containment and
/// feeds the breaker for the job that actually faults.
fn run_shard_fused(
    shared: &Arc<PoolShared>,
    slot: &WorkerSlot,
    backend: &mut dyn PlfBackend,
    jobs: &[Arc<Job>],
    cache: &mut Option<ClvCache>,
    workspaces: &mut Workspaces,
) -> bool {
    let Some(first) = jobs.first() else {
        return true;
    };
    let key = first.batch_key();
    if jobs.iter().any(|j| j.batch_key() != key) {
        // The scheduler only forms same-key batches; a mixed shard
        // (impossible today) would break the fused geometry, so take
        // the safe path.
        return false;
    }
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut evals = Vec::with_capacity(jobs.len());
        for job in jobs.iter() {
            evals.push(workspaces.acquire(job)?);
        }
        let mut fused: Vec<FusedJob<'_>> = evals
            .iter_mut()
            .zip(jobs.iter())
            .map(|((_, eval), job)| FusedJob {
                eval,
                tree: &job.tree,
                dataset_token: job.dataset.0,
            })
            .collect();
        let lnls = evaluate_fused(&mut fused, backend, cache.as_mut());
        // Released even after an error (the per-job fallback reuses
        // them): the next rebind overwrites whatever a failed pass left.
        for workspace in evals {
            workspaces.release(workspace);
        }
        lnls
    }));
    if let Some(c) = cache.as_mut() {
        let stats = c.take_stats();
        shared
            .counters
            .record_clv_cache(stats.hits, stats.misses, stats.evictions);
    }
    let elapsed = started.elapsed();
    match result {
        Ok(Ok(lnls)) if lnls.len() == jobs.len() => {
            // The fused pass served every job; attribute the shared
            // evaluation time evenly across them.
            let service = elapsed
                .checked_div(u32::try_from(jobs.len()).unwrap_or(u32::MAX))
                .unwrap_or(elapsed);
            for (job, lnl) in jobs.iter().zip(lnls) {
                slot.breaker.record_success();
                if job.try_claim() {
                    let wait = started.saturating_duration_since(job.submitted_at);
                    shared.counters.record_completed(&job.tenant, wait, service);
                    shared.controller.observe(service);
                    job.publish(JobOutcome::Completed {
                        ln_likelihood: lnl,
                        wait,
                        service,
                        backend: backend.name(),
                    });
                }
            }
            true
        }
        _ => false,
    }
}

/// Run one half-open probe if the slot's breaker owes one. Blackout
/// charges darken probes too, so a breaker stays open until its
/// blackout actually lifts.
fn maybe_probe(shared: &Arc<PoolShared>, slot: &WorkerSlot, backend: &mut dyn PlfBackend) {
    if shared.shutting_down.load(Ordering::Acquire) {
        return;
    }
    if let Some(seed) = slot.breaker.probe_due(Instant::now()) {
        let ok = if slot.consume_blackout() {
            false
        } else {
            run_probe(backend, seed)
        };
        slot.breaker.record_probe(ok, Instant::now());
    }
}

/// Resolve a job's pre-evaluation terminal states — cancellation,
/// missed deadline, backend blackout. Returns `true` when the job was
/// resolved (or parked for redirect) here and must not be evaluated.
/// Runs per job *before* batchmates fuse, so these outcomes stay
/// individually attributed under fused execution.
fn pre_resolve(
    shared: &Arc<PoolShared>,
    idx: usize,
    slot: &WorkerSlot,
    backend: &mut dyn PlfBackend,
    job: &Arc<Job>,
) -> bool {
    let now = Instant::now();
    if job.is_cancelled() {
        if job.try_claim() {
            shared.counters.record_cancelled(&job.tenant);
            job.publish(JobOutcome::Cancelled);
        }
        return true;
    }
    if job.past_deadline(now) {
        if job.try_claim() {
            shared.counters.record_deadline_missed(&job.tenant);
            job.publish(JobOutcome::DeadlineMissed);
        }
        return true;
    }
    // Blackout: the backend refuses the job before evaluation. A rate
    // roll darkens a burst of consecutive jobs; control-plane blackouts
    // arrive pre-charged.
    if shared.roll(FaultSite::BackendBlackout) {
        slot.blackout_remaining
            .fetch_add(BLACKOUT_BURST, Ordering::Relaxed);
    }
    if slot.consume_blackout() {
        let err = PlfError::Transfer {
            backend: backend.name(),
            channel: "blackout",
            detail: format!("{}: backend blacked out", job.id),
        };
        fault_outcome(shared, idx, slot, job, &err);
        return true;
    }
    false
}

/// Evaluate one job on `backend`, publish its terminal outcome (or
/// park it for a one-time redirect), and feed the slot's breaker.
/// Pre-evaluation states are assumed already handled by
/// [`pre_resolve`].
fn evaluate_one(
    shared: &Arc<PoolShared>,
    idx: usize,
    slot: &WorkerSlot,
    backend: &mut dyn PlfBackend,
    job: &Arc<Job>,
    workspaces: &mut Workspaces,
) {
    let started = Instant::now();
    let wait = started.saturating_duration_since(job.submitted_at);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (key, mut eval) = workspaces.acquire(job)?;
        let lnl = eval.log_likelihood(&job.tree, backend);
        workspaces.release((key, eval));
        lnl
    }));
    let service = started.elapsed();
    match result {
        Ok(Ok(ln_likelihood)) => {
            slot.breaker.record_success();
            if job.try_claim() {
                shared.counters.record_completed(&job.tenant, wait, service);
                shared.controller.observe(service);
                job.publish(JobOutcome::Completed {
                    ln_likelihood,
                    wait,
                    service,
                    backend: backend.name(),
                });
            }
        }
        Ok(Err(err)) => {
            // Only backend faults feed the breaker; taxon/tree problems
            // (and Config errors) are caller mistakes that would fail
            // identically on any worker.
            match err {
                plf_phylo::likelihood::LikelihoodError::Backend(plf)
                    if is_backend_fault(&plf) =>
                {
                    fault_outcome(shared, idx, slot, job, &plf);
                }
                other => {
                    if job.try_claim() {
                        shared.counters.record_failed(&job.tenant);
                        job.publish(JobOutcome::Failed {
                            error: format!("{}: {other}", job.id),
                        });
                    }
                }
            }
        }
        Err(payload) => {
            let err = PlfError::WorkerPanic {
                backend: backend.name(),
                detail: panic_message(payload.as_ref()),
            };
            fault_outcome(shared, idx, slot, job, &err);
        }
    }
}

/// A job hit a backend fault on slot `idx`: feed the breaker, then
/// either redirect the job once to a healthy worker or fail it.
fn fault_outcome(
    shared: &Arc<PoolShared>,
    idx: usize,
    slot: &WorkerSlot,
    job: &Arc<Job>,
    err: &PlfError,
) {
    slot.breaker.record_fault(Instant::now());
    let first_redirect = job
        .redirected
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok();
    if first_redirect
        && !shared.shutting_down.load(Ordering::Acquire)
        && shared.redirect_target_exists(idx)
    {
        shared.park_for_redirect(Arc::clone(job));
        return;
    }
    if job.try_claim() {
        shared.counters.record_failed(&job.tenant);
        job.publish(JobOutcome::Failed {
            error: format!("{}: {err}", job.id),
        });
    }
}

/// The watchdog: respawn dead workers (recovering their ledgers),
/// surface hung workers, and flush redirect-parked jobs.
fn watchdog_loop(shared: &Arc<PoolShared>, policy: &WatchdogPolicy) {
    let hang_nanos = u64::try_from(policy.hang_timeout.as_nanos()).unwrap_or(u64::MAX);
    let mut hang_reported: Vec<u64> = vec![u64::MAX; shared.slots.len()];
    while !shared.shutting_down.load(Ordering::Acquire) {
        std::thread::sleep(policy.interval);
        for i in 0..shared.slots.len() {
            if shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            let Some(slot) = shared.slots.get(i) else {
                continue;
            };
            if !slot.alive.load(Ordering::Acquire) {
                if !slot.retired.load(Ordering::Acquire) {
                    respawn(shared, i);
                }
                continue;
            }
            // Hang surfacing: a busy worker whose heartbeat went stale.
            let hb = slot.heartbeat.load(Ordering::Acquire);
            let busy = !slot.lock_ledger().is_empty();
            if busy
                && shared.now_nanos().saturating_sub(hb) > hang_nanos
                && hang_reported.get(i).copied() != Some(hb)
            {
                shared.counters.record_watchdog_hang();
                if let Some(r) = hang_reported.get_mut(i) {
                    *r = hb;
                }
            }
        }
        shared.flush_parked();
    }
}

/// Respawn dead slot `i` and re-dispatch its orphaned ledger to the
/// fresh worker.
fn respawn(shared: &Arc<PoolShared>, i: usize) {
    let Some(slot) = shared.slots.get(i) else {
        return;
    };
    let old = slot.handle.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(h) = old {
        let _ = h.join();
    }
    let orphans: Vec<Arc<Job>> = std::mem::take(&mut *slot.lock_ledger())
        .into_iter()
        .filter(|j| !j.is_resolved())
        .collect();
    shared.counters.record_watchdog_respawn();
    if !orphans.is_empty() {
        shared.counters.record_requeued(orphans.len() as u64);
    }
    spawn_worker(shared, i);
    if !orphans.is_empty() && !shared.try_send(i, &orphans) {
        // The fresh worker died before the hand-off; park the jobs
        // for the normal placement path instead of dropping them.
        for job in orphans {
            shared.park_for_redirect(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobCell, Priority};
    use plf_phylo::tree::NodeId;

    fn job_on(dataset: u64) -> Job {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 32), 5 + dataset);
        Job {
            id: JobId(dataset),
            tenant: "t".into(),
            priority: Priority::Normal,
            dataset: DatasetId(dataset),
            data: Arc::new(ds.data),
            tree: ds.tree,
            model: plf_phylo::model::SiteModel::jc69(),
            submitted_at: Instant::now(),
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            cell: JobCell::new(),
            resolved: AtomicBool::new(false),
            redirected: AtomicBool::new(false),
            journal: None,
        }
    }

    fn buffer(workspace: &Workspace) -> *const f32 {
        workspace.1.clv(NodeId(0)).as_slice().as_ptr()
    }

    #[test]
    fn workspaces_keep_exactly_the_last_shards_set() {
        let (a, b) = (job_on(0), job_on(1));
        let mut ws = Workspaces::default();
        // A fused shard of two jobs on dataset 0.
        let (first, second) = (ws.acquire(&a).unwrap(), ws.acquire(&a).unwrap());
        let kept = [buffer(&first), buffer(&second)];
        ws.release(first);
        ws.release(second);
        ws.end_shard();
        // The next shard on the same key rebinds them, no allocation.
        let again = ws.acquire(&a).unwrap();
        assert!(kept.contains(&buffer(&again)));
        ws.release(again);
        ws.end_shard();
        assert_eq!(ws.held.len(), 1, "only what the last shard used stays");
        // A per-job shard of three jobs on dataset 1 reuses one
        // workspace job after job; dataset 0's is dropped.
        for _ in 0..3 {
            let w = ws.acquire(&b).unwrap();
            ws.release(w);
        }
        ws.end_shard();
        assert_eq!(ws.held.len(), 1);
        assert!(ws.held.iter().all(|(k, _)| k.dataset == DatasetId(1)));
    }
}
