//! The service facade: dataset registry, admission, and lifecycle.
//!
//! ```
//! use plfd::{JobSpec, PlfService, ServiceConfig};
//! use plf_phylo::kernels::{PlfBackend, ScalarBackend};
//!
//! let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(8, 64), 42);
//! let model = plf_seqgen::default_model();
//! let backends: Vec<Box<dyn PlfBackend>> = vec![Box::new(ScalarBackend)];
//! let service = PlfService::new(ServiceConfig::default(), backends);
//! let dataset = service.register_dataset(ds.data);
//! let ticket = service
//!     .submit(JobSpec::new("tenant-a", dataset, ds.tree, model))
//!     .expect("admitted");
//! let lnl = ticket.wait().ln_likelihood().expect("completed");
//! assert!(lnl < 0.0);
//! service.shutdown();
//! ```

use crate::dispatch::{PoolConfig, PoolShared, WorkerPool};
use crate::health::{
    AdmissionController, BackendFactory, BreakerPolicy, BreakerState, ShedPolicy, WatchdogPolicy,
};
use crate::job::{CompletionHook, DatasetId, Job, JobCell, JobId, JobOutcome, JobSpec, JobTicket};
use crate::journal::{AdmittedRecord, Journal, JournalConfig, JournalError};
use crate::queue::{BoundedQueue, SubmitError};
use crate::recovery::{remaining_deadline, scan, unix_nanos_now, RecoveryReport};
use crate::scheduler::{run_scheduler, BatchPolicy, Gate};
use plf_phylo::alignment::PatternAlignment;
use plf_phylo::kernels::{PlfBackend, ScalarBackend};
use plf_phylo::metrics::{ServiceCounters, ServiceSnapshot};
use plf_phylo::resilience::{FaultInjector, ResilientBackend};
use plf_phylo::tree::Tree;
use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Reserved prefix for auto-generated journal keys of jobs submitted
/// without an idempotency key; caller keys must not start with it.
const AUTO_KEY_PREFIX: &str = "~job-";

/// Poll cadence while [`PlfService::drain`] waits for in-flight work.
const DRAIN_POLL: Duration = Duration::from_millis(2);

/// Wall-clock budget for re-admitting one replayed job through the
/// bounded queue before recovery resolves it `Failed` instead.
const REPLAY_ADMIT_WALL: Duration = Duration::from_secs(10);

/// Backoff between replay re-admission attempts when the queue pushes
/// back during recovery.
const REPLAY_RETRY_NAP: Duration = Duration::from_millis(2);

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission queue capacity (jobs); submissions past this are
    /// rejected with a retry-after hint.
    pub queue_capacity: usize,
    /// Batch formation policy.
    pub batch: BatchPolicy,
    /// Seed for the admission controller's per-job drain estimate;
    /// after the first completion the estimate tracks an EWMA of
    /// observed service times instead.
    pub drain_hint: Duration,
    /// Adaptive load-shedding policy (see [`ShedPolicy`]).
    pub shed: ShedPolicy,
    /// Per-worker circuit-breaker policy (see [`BreakerPolicy`]).
    pub breaker: BreakerPolicy,
    /// Watchdog supervision policy (see [`WatchdogPolicy`]).
    pub watchdog: WatchdogPolicy,
    /// Service-level fault injector consulted at the `WorkerKill` and
    /// `BackendBlackout` sites; `None` disables service-level chaos.
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Start with the scheduler gated shut: admitted jobs stay queued
    /// until [`PlfService::release`] — used by admission-control tests
    /// to observe a full queue deterministically.
    pub hold: bool,
    /// Write-ahead journal configuration. `Some` makes every
    /// acknowledged admission durable: a process crash replays
    /// admitted-but-unresolved jobs on the next start (after
    /// [`PlfService::recover`]) and dedups re-submissions by
    /// idempotency key. `None` (the default) keeps the service purely
    /// in-memory.
    pub journal: Option<JournalConfig>,
    /// Per-worker CLV reuse cache capacity, in cached subtree entries.
    /// Fused batches consult the cache before recomputing an internal
    /// node's conditional likelihoods; `0` disables caching. Hits,
    /// misses, and evictions surface as the `clv_cache_*` service
    /// counters.
    pub clv_cache_entries: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 256,
            batch: BatchPolicy::default(),
            drain_hint: Duration::from_micros(500),
            shed: ShedPolicy::default(),
            breaker: BreakerPolicy::default(),
            watchdog: WatchdogPolicy::default(),
            fault_injector: None,
            hold: false,
            journal: None,
            clv_cache_entries: crate::dispatch::DEFAULT_CLV_CACHE_ENTRIES,
        }
    }
}

/// What a graceful [`PlfService::drain`] accomplished before the
/// journal was flushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that reached a terminal state by the end of the drain.
    pub resolved: u64,
    /// Jobs still unresolved when the drain deadline hit (they stay
    /// journaled as admitted; a restart replays them).
    pub pending_at_deadline: u64,
    /// Whether every admitted job resolved within the deadline.
    pub within_deadline: bool,
    /// Whether the journal's final fsync succeeded (vacuously true
    /// without a journal).
    pub journal_flushed: bool,
    /// Wall time the drain took.
    pub elapsed: Duration,
}

/// A running PLF evaluation service; see the crate docs for the
/// queue → batcher → dispatcher pipeline it fronts.
#[derive(Debug)]
pub struct PlfService {
    queue: Arc<BoundedQueue>,
    counters: Arc<ServiceCounters>,
    registry: RwLock<HashMap<u64, Arc<PatternAlignment>>>,
    gate: Arc<Gate>,
    scheduler: Option<JoinHandle<()>>,
    pool_shared: Arc<PoolShared>,
    n_workers: usize,
    unit_patterns: usize,
    next_job: AtomicU64,
    next_dataset: AtomicU64,
    journal: Option<Arc<Journal>>,
    /// Idempotency index: key → the live (or pre-resolved) ticket a
    /// duplicate submission receives instead of a second execution.
    dedup: Mutex<HashMap<String, JobTicket>>,
    /// Admitted-but-unresolved records from the startup scan, waiting
    /// for [`PlfService::recover`] (datasets must be registered first).
    pending_replay: Mutex<Vec<AdmittedRecord>>,
    /// The startup scan's partial report, completed by `recover`.
    recovery: Mutex<Option<RecoveryReport>>,
    /// Called after every admitted job's outcome is published.
    completion: Arc<CompletionHook>,
}

impl PlfService {
    /// Start a service evaluating on `backends`, one worker thread per
    /// backend. `backends` must be non-empty.
    ///
    /// Backends are used as given — callers wanting retry/degrade
    /// semantics should pass resilient-wrapped backends or use
    /// [`PlfService::resilient`].
    ///
    /// # Panics
    /// Panics if `backends` is empty, or if a configured journal
    /// cannot be opened (use [`PlfService::try_new_with_factories`]
    /// to handle journal errors as values).
    pub fn new(config: ServiceConfig, backends: Vec<Box<dyn PlfBackend>>) -> PlfService {
        PlfService::new_with_factories(config, backends, Vec::new())
    }

    /// As [`PlfService::new`], but `factories[i]` rebuilds worker `i`'s
    /// backend when the watchdog respawns it after a death. Workers
    /// without a factory respawn on the scalar reference backend —
    /// correct for any worker because every backend produces
    /// bit-identical results.
    ///
    /// # Panics
    /// Panics if `backends` is empty, or if a configured journal
    /// cannot be opened.
    pub fn new_with_factories(
        config: ServiceConfig,
        backends: Vec<Box<dyn PlfBackend>>,
        factories: Vec<BackendFactory>,
    ) -> PlfService {
        match PlfService::try_new_with_factories(config, backends, factories) {
            Ok(service) => service,
            Err(err) => panic!("plfd journal could not be opened: {err}"),
        }
    }

    /// As [`PlfService::new_with_factories`], but journal scan/open
    /// failures are returned instead of panicking — the constructor
    /// embedders (and `plfr serve`) should use when a journal is
    /// configured.
    ///
    /// # Panics
    /// Panics if `backends` is empty.
    pub fn try_new_with_factories(
        config: ServiceConfig,
        backends: Vec<Box<dyn PlfBackend>>,
        factories: Vec<BackendFactory>,
    ) -> Result<PlfService, JournalError> {
        assert!(
            !backends.is_empty(),
            "PlfService needs at least one backend"
        );
        let counters = ServiceCounters::new();
        // Journal recovery scan happens before the pipeline spins up,
        // so replayed state is in place by the time workers could race
        // it.
        let mut journal = None;
        let mut dedup_map: HashMap<String, JobTicket> = HashMap::new();
        let mut pending_replay = Vec::new();
        let mut initial_report = None;
        let mut next_job_start = 0u64;
        if let Some(journal_cfg) = &config.journal {
            let scanned = scan(&journal_cfg.dir)?;
            counters.record_truncated(scanned.truncated);
            let handle = Arc::new(Journal::open(
                journal_cfg.clone(),
                Arc::clone(&counters),
                scanned.next_segment,
                scanned.seg_unresolved,
                scanned.key_seg,
            )?);
            let mut deduped_outcomes = 0u64;
            for (key, record) in &scanned.resolved {
                if key.starts_with(AUTO_KEY_PREFIX) {
                    // Unkeyed jobs cannot be resubmitted; no dedup row.
                    continue;
                }
                let cell = JobCell::new();
                cell.set(record.outcome.clone());
                dedup_map.insert(
                    key.clone(),
                    JobTicket::new(
                        JobId(record.id),
                        String::new(),
                        Arc::new(AtomicBool::new(false)),
                        cell,
                    ),
                );
                deduped_outcomes += 1;
            }
            next_job_start = scanned.max_job_id.map_or(0, |m| m + 1);
            pending_replay = scanned.pending;
            initial_report = Some(RecoveryReport {
                deduped_outcomes,
                truncated_records: scanned.truncated,
                segments_scanned: scanned.segments_scanned,
                ..RecoveryReport::default()
            });
            journal = Some(handle);
        }
        let controller = AdmissionController::new(config.drain_hint, config.shed.clone());
        controller.set_workers(backends.len());
        let queue = Arc::new(BoundedQueue::new(
            config.queue_capacity,
            Arc::clone(&controller),
            Arc::clone(&counters),
        ));
        let pool = WorkerPool::new(
            backends,
            factories,
            Arc::clone(&counters),
            controller,
            PoolConfig {
                breaker: config.breaker.clone(),
                watchdog: config.watchdog.clone(),
                injector: config.fault_injector.clone(),
                clv_cache_entries: config.clv_cache_entries,
            },
        );
        let pool_shared = pool.shared();
        let n_workers = pool.n_workers();
        let unit_patterns = pool.unit_patterns();
        let gate = Gate::new(!config.hold);
        let scheduler = {
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            let counters = Arc::clone(&counters);
            let policy = config.batch.clone();
            std::thread::spawn(move || run_scheduler(queue, pool, policy, gate, counters))
        };
        Ok(PlfService {
            queue,
            counters,
            registry: RwLock::new(HashMap::new()),
            gate,
            scheduler: Some(scheduler),
            pool_shared,
            n_workers,
            unit_patterns,
            next_job: AtomicU64::new(next_job_start),
            next_dataset: AtomicU64::new(0),
            journal,
            dedup: Mutex::new(dedup_map),
            pending_replay: Mutex::new(pending_replay),
            recovery: Mutex::new(initial_report),
            completion: Arc::new(CompletionHook::default()),
        })
    }

    /// As [`PlfService::new`], but every backend is wrapped in the
    /// retry/degrade [`ResilientBackend`] with a scalar-reference
    /// fallback tier, so a faulting device degrades instead of failing
    /// its jobs.
    pub fn resilient(config: ServiceConfig, backends: Vec<Box<dyn PlfBackend>>) -> PlfService {
        let wrapped = backends
            .into_iter()
            .map(|b| {
                Box::new(ResilientBackend::new(b).with_fallback(Box::new(ScalarBackend)))
                    as Box<dyn PlfBackend>
            })
            .collect();
        PlfService::new(config, wrapped)
    }

    /// Register an alignment and get the handle jobs reference it by.
    pub fn register_dataset(&self, data: PatternAlignment) -> DatasetId {
        self.register_dataset_arc(Arc::new(data))
    }

    /// Register an already-shared alignment.
    pub fn register_dataset_arc(&self, data: Arc<PatternAlignment>) -> DatasetId {
        let id = self.next_dataset.fetch_add(1, Ordering::Relaxed);
        self.registry
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, data);
        DatasetId(id)
    }

    /// The alignment behind a handle, if registered.
    pub fn dataset(&self, id: DatasetId) -> Option<Arc<PatternAlignment>> {
        self.registry
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id.0)
            .cloned()
    }

    /// Submit one job. Returns a ticket immediately on admission, or a
    /// [`SubmitError`] — `QueueFull` carries the retry-after hint of
    /// the backpressure contract. Every submission attempt (either
    /// way) is counted in the service metrics under the spec's tenant.
    ///
    /// With an idempotency key, a duplicate submission (racing or
    /// later, including after a crash-restart on a journaled service)
    /// returns the first admission's ticket — or its journaled outcome
    /// — instead of executing again; such dedup hits are counted but
    /// not re-admitted. On a journaled service the `Admitted` record is
    /// written before the ticket is returned, so an acknowledged job
    /// survives `kill -9`.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        // Hold the dedup index lock across admission when keyed, so a
        // racing duplicate waits and then finds this ticket instead of
        // admitting a second execution. The lock is ordered strictly
        // before the queue lock and is never taken by workers.
        let mut dedup_guard = match &spec.idempotency_key {
            Some(key) => {
                let guard = self.dedup.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(ticket) = guard.get(key) {
                    self.counters.record_deduped();
                    return Ok(ticket.clone());
                }
                Some(guard)
            }
            None => None,
        };
        let Some(data) = self.dataset(spec.dataset) else {
            return Err(SubmitError::UnknownDataset(spec.dataset));
        };
        self.counters.record_submitted(&spec.tenant);
        let id = JobId(self.next_job.fetch_add(1, Ordering::Relaxed));
        let cancelled = Arc::new(AtomicBool::new(false));
        let cell = JobCell::with_hook(&self.completion);
        let submitted_at = Instant::now();
        let ticket = JobTicket::new(
            id,
            spec.tenant.clone(),
            Arc::clone(&cancelled),
            Arc::clone(&cell),
        );
        let journal_key = spec
            .idempotency_key
            .clone()
            .unwrap_or_else(|| format!("{AUTO_KEY_PREFIX}{}", id.0));
        // The admitted record is assembled before the tree moves into
        // the job; Newick text round-trips branch lengths bit-exactly.
        let admitted = self.journal.as_ref().map(|_| AdmittedRecord {
            key: journal_key.clone(),
            id: id.0,
            tenant: spec.tenant.clone(),
            priority: spec.priority,
            dataset: spec.dataset.0,
            n_taxa: data.n_taxa() as u64,
            n_patterns: data.n_patterns() as u64,
            newick: spec.tree.to_newick(),
            model: spec.model.clone(),
            admitted_unix_nanos: unix_nanos_now(),
            deadline_nanos: spec.deadline.map(|d| d.as_nanos() as u64),
        });
        let job = Box::new(Job {
            id,
            tenant: spec.tenant,
            priority: spec.priority,
            dataset: spec.dataset,
            data,
            tree: spec.tree,
            model: spec.model,
            submitted_at,
            deadline: spec.deadline.map(|d| submitted_at + d),
            cancelled,
            cell,
            resolved: AtomicBool::new(false),
            redirected: AtomicBool::new(false),
            journal: self
                .journal
                .as_ref()
                .map(|j| (Arc::clone(j), journal_key)),
        });
        match self.queue.push(job) {
            Ok(()) => {
                if let (Some(journal), Some(record)) = (&self.journal, &admitted) {
                    // Deliberate: the dedup lock must cover the journal
                    // append, or a racing duplicate could admit a second
                    // execution before this admission is durable. The
                    // dedup lock is leaf-ordered (never taken by
                    // workers), so the fsync delays only racing keyed
                    // submits. plf-lint: allow(L5)
                    if let Err(err) = journal.append_admitted(record) {
                        // The job may already be executing, but the
                        // caller is told the truth: this admission was
                        // never made durable. Cancellation is
                        // best-effort; a completion that still lands
                        // journals as resolved-under-this-key, which
                        // recovery treats consistently.
                        ticket.cancel();
                        return Err(SubmitError::Journal {
                            detail: err.to_string(),
                        });
                    }
                }
                if let (Some(guard), Some(key)) =
                    (dedup_guard.as_mut(), spec.idempotency_key)
                {
                    guard.insert(key, ticket.clone());
                }
                Ok(ticket)
            }
            Err((job, err)) => {
                // Sheds and hard rejections are distinct overload
                // signals; keep their tenant accounting separate.
                if matches!(err, SubmitError::Overloaded { .. }) {
                    self.counters.record_shed(&job.tenant);
                } else {
                    self.counters.record_rejected(&job.tenant);
                }
                Err(err)
            }
        }
    }

    /// Install the service's completion hook. `hook` runs on whichever
    /// thread resolves a job (a worker, the scheduler, a submitter),
    /// once per admitted job, after the outcome is journaled and visible
    /// to [`JobTicket::try_wait`] and with no service lock held. It must
    /// not block: an event loop that multiplexes many tickets uses it to
    /// wake itself (plf-net's reactor writes one byte to a socket pair)
    /// instead of polling every ticket on a timer.
    ///
    /// A service has one hook; returns `false`, leaving the first hook
    /// in place, if one is already installed.
    pub fn set_completion_hook(&self, hook: impl Fn() + Send + Sync + 'static) -> bool {
        self.completion.install(Box::new(hook))
    }

    /// Open the scheduler gate (no-op unless constructed with
    /// `hold: true`).
    pub fn release(&self) {
        self.gate.open();
    }

    /// The shared service counter block.
    pub fn counters(&self) -> Arc<ServiceCounters> {
        Arc::clone(&self.counters)
    }

    /// Snapshot of the service metrics.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.counters.snapshot()
    }

    /// Live queue backlog.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Admission queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Backend worker threads.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// The fused work-unit size (patterns) batches are measured in.
    pub fn unit_patterns(&self) -> usize {
        self.unit_patterns
    }

    /// Worker threads currently running (the watchdog restores this to
    /// [`PlfService::n_workers`] after a death).
    pub fn alive_workers(&self) -> usize {
        self.pool_shared.alive_workers()
    }

    /// Per-worker circuit-breaker states, in worker order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.pool_shared.breaker_states()
    }

    /// Chaos/test control: arrange for worker `i` to die before its
    /// next job, exercising the watchdog respawn path. Out-of-range
    /// indices are ignored.
    pub fn kill_worker(&self, i: usize) {
        self.pool_shared.kill_worker(i);
    }

    /// Chaos/test control: make worker `i`'s backend refuse its next
    /// `n` jobs (and half-open probes), exercising the circuit breaker.
    /// Out-of-range indices are ignored.
    pub fn blackout_worker(&self, i: usize, n: u64) {
        self.pool_shared.blackout_worker(i, n);
    }

    /// Whether this service writes a crash-durable journal.
    pub fn journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// The recovery report from the last [`PlfService::recover`] call
    /// (or the partial startup report if recovery has not run yet).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Re-admit every journaled admitted-but-unresolved job found at
    /// startup. Call after registering the datasets those jobs
    /// referenced (dataset ids are assigned in registration order, so a
    /// deterministic restart sequence reproduces them).
    ///
    /// Replayed jobs whose wall-clock deadline already passed resolve
    /// `DeadlineMissed` honestly rather than executing stale work.
    /// Jobs whose dataset is missing or whose recorded shape no longer
    /// matches resolve `Failed` — recovery never guesses. Either way
    /// the outcome is journaled and, for caller-supplied keys, indexed
    /// for dedup so a client resubmission observes it.
    pub fn recover(&self) -> RecoveryReport {
        let pending = mem::take(
            &mut *self
                .pending_replay
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        let mut report = self
            .recovery
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .unwrap_or_default();
        let now = unix_nanos_now();
        for record in pending {
            report.replayed += 1;
            self.counters.record_replayed();
            self.counters.record_submitted(&record.tenant);
            match remaining_deadline(&record, now) {
                None => {
                    report.expired += 1;
                    self.resolve_replay(&record, JobOutcome::DeadlineMissed);
                }
                Some(remaining) => {
                    if let Err(error) = self.replay_job(&record, remaining) {
                        report.unrecoverable += 1;
                        self.resolve_replay(&record, JobOutcome::Failed { error });
                    }
                }
            }
        }
        *self.recovery.lock().unwrap_or_else(|p| p.into_inner()) = Some(report.clone());
        report
    }

    /// Journal a terminal outcome for a replayed job that will not
    /// execute, mirror it in the tenant counters, and index it for
    /// dedup under caller-supplied keys.
    fn resolve_replay(&self, record: &AdmittedRecord, outcome: JobOutcome) {
        if let Some(journal) = &self.journal {
            journal.append_resolved(&record.key, record.id, &outcome);
        }
        match &outcome {
            JobOutcome::DeadlineMissed => {
                self.counters.record_deadline_missed(&record.tenant);
            }
            JobOutcome::Failed { .. } => self.counters.record_failed(&record.tenant),
            _ => {}
        }
        if !record.key.starts_with(AUTO_KEY_PREFIX) {
            let cell = JobCell::new();
            cell.set(outcome);
            let ticket = JobTicket::new(
                JobId(record.id),
                record.tenant.clone(),
                Arc::new(AtomicBool::new(false)),
                cell,
            );
            self.dedup
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(record.key.clone(), ticket);
        }
    }

    /// Rebuild and re-admit one journaled job. Err(reason) means the
    /// job cannot be reconstructed and must resolve `Failed`.
    fn replay_job(
        &self,
        record: &AdmittedRecord,
        remaining: Option<Duration>,
    ) -> Result<(), String> {
        let dataset = DatasetId(record.dataset);
        let Some(data) = self.dataset(dataset) else {
            return Err(format!(
                "replay: dataset {} is not registered on this service",
                record.dataset
            ));
        };
        if data.n_taxa() as u64 != record.n_taxa
            || data.n_patterns() as u64 != record.n_patterns
        {
            return Err(format!(
                "replay: dataset {} shape {}x{} does not match journaled {}x{}",
                record.dataset,
                data.n_taxa(),
                data.n_patterns(),
                record.n_taxa,
                record.n_patterns
            ));
        }
        let tree = Tree::from_newick(&record.newick)
            .map_err(|err| format!("replay: journaled tree failed to parse: {err}"))?;
        let id = JobId(record.id);
        let cancelled = Arc::new(AtomicBool::new(false));
        let cell = JobCell::with_hook(&self.completion);
        let submitted_at = Instant::now();
        let ticket = JobTicket::new(
            id,
            record.tenant.clone(),
            Arc::clone(&cancelled),
            Arc::clone(&cell),
        );
        let mut job = Box::new(Job {
            id,
            tenant: record.tenant.clone(),
            priority: record.priority,
            dataset,
            data,
            tree,
            model: record.model.clone(),
            submitted_at,
            deadline: remaining.map(|d| submitted_at + d),
            cancelled,
            cell,
            resolved: AtomicBool::new(false),
            redirected: AtomicBool::new(false),
            journal: self
                .journal
                .as_ref()
                .map(|j| (Arc::clone(j), record.key.clone())),
        });
        // Replay must not be silently shed by a momentarily-full queue:
        // retry admission briefly, honouring backpressure hints, before
        // giving up. A closed queue is terminal.
        let wall = Instant::now() + REPLAY_ADMIT_WALL;
        loop {
            match self.queue.push(job) {
                Ok(()) => break,
                Err((_, SubmitError::Closed)) => {
                    return Err("replay: admission queue is closed".to_string());
                }
                Err((rejected, err)) => {
                    if Instant::now() >= wall {
                        return Err(format!("replay: admission kept failing: {err}"));
                    }
                    thread::sleep(err.retry_after().unwrap_or(REPLAY_RETRY_NAP));
                    job = rejected;
                }
            }
        }
        if !record.key.starts_with(AUTO_KEY_PREFIX) {
            self.dedup
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(record.key.clone(), ticket);
        }
        Ok(())
    }

    /// Graceful drain: stop admitting, open the gate, and wait (up to
    /// `deadline`) for every admitted job to resolve, then join the
    /// pipeline and flush the journal. This is the SIGTERM path — after
    /// it returns, the journal on disk records a terminal outcome for
    /// every acknowledged job that resolved, and a restart replays only
    /// the remainder.
    pub fn drain(&mut self, deadline: Duration) -> DrainReport {
        let started = Instant::now();
        self.queue.close();
        self.gate.open();
        let wall = started + deadline;
        let pending_at_deadline;
        loop {
            let snap = self.counters.snapshot();
            // Shed and rejected submissions were never admitted, so
            // they are not owed a resolution.
            let owed = snap
                .submitted
                .saturating_sub(snap.rejected)
                .saturating_sub(snap.shed);
            let outstanding = owed.saturating_sub(snap.resolved());
            if outstanding == 0 {
                pending_at_deadline = 0;
                break;
            }
            if Instant::now() >= wall {
                pending_at_deadline = outstanding;
                break;
            }
            thread::sleep(DRAIN_POLL);
        }
        let within_deadline = pending_at_deadline == 0;
        // Joining the scheduler flushes any stragglers (the closed
        // queue's drain path resolves them) even past the deadline.
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        let mut journal_flushed = true;
        if let Some(journal) = &self.journal {
            journal_flushed = journal.flush().is_ok();
        }
        let snap = self.counters.snapshot();
        DrainReport {
            resolved: snap.resolved(),
            pending_at_deadline,
            within_deadline,
            journal_flushed,
            elapsed: started.elapsed(),
        }
    }

    /// Chaos/test control: simulate `kill -9` at this instant. The
    /// journal is frozen — no further appends, no flush — so only
    /// records already written through to the OS survive, exactly as
    /// they would under a real hard kill. The in-memory pipeline is
    /// then torn down without graceful resolution bookkeeping reaching
    /// the journal.
    pub fn crash(self) {
        if let Some(journal) = &self.journal {
            journal.freeze();
        }
        // Drop runs shutdown_in_place; with the journal frozen none of
        // those resolutions are made durable.
    }

    /// Stop admitting, flush the backlog through the workers, and join
    /// every thread. Every admitted job resolves before this returns.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        self.gate.open();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PlfService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobOutcome, Priority};
    use plf_phylo::likelihood::TreeLikelihood;

    fn scalar_backends(n: usize) -> Vec<Box<dyn PlfBackend>> {
        (0..n)
            .map(|_| Box::new(ScalarBackend) as Box<dyn PlfBackend>)
            .collect()
    }

    #[test]
    fn completed_jobs_match_serial_scalar_evaluation() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(8, 96), 5);
        let model = plf_seqgen::default_model();
        let service = PlfService::new(ServiceConfig::default(), scalar_backends(2));
        let dataset = service.register_dataset(ds.data.clone());
        let tickets: Vec<JobTicket> = (0..8)
            .map(|i| {
                service
                    .submit(
                        JobSpec::new(format!("tenant-{}", i % 2), dataset, ds.tree.clone(), model.clone()),
                    )
                    .expect("admitted")
            })
            .collect();
        let mut serial = TreeLikelihood::new(&ds.tree, &ds.data, model).expect("workspace");
        let mut reference = ScalarBackend;
        let expected = serial
            .log_likelihood(&ds.tree, &mut reference)
            .expect("serial eval");
        for t in tickets {
            let outcome = t.wait();
            let lnl = outcome.ln_likelihood().expect("completed");
            assert_eq!(lnl.to_bits(), expected.to_bits(), "bit-identical to serial");
        }
        let snap = service.snapshot();
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.resolved(), 8);
        assert!(snap.batches >= 1);
        service.shutdown();
    }

    #[test]
    fn held_service_keeps_jobs_queued_until_release() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let config = ServiceConfig {
            queue_capacity: 4,
            hold: true,
            ..ServiceConfig::default()
        };
        let service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let tickets: Vec<JobTicket> = (0..4)
            .map(|_| {
                service
                    .submit(JobSpec::new("t", dataset, ds.tree.clone(), model.clone()))
                    .expect("admitted")
            })
            .collect();
        assert_eq!(service.queue_depth(), 4);
        // Job K+1 rejected with a retry-after while held at capacity.
        let err = service
            .submit(JobSpec::new("t", dataset, ds.tree.clone(), model.clone()))
            .expect_err("over capacity");
        assert!(
            matches!(err, SubmitError::QueueFull { retry_after, .. } if retry_after > Duration::ZERO)
        );
        service.release();
        for t in tickets {
            assert!(t.wait().is_completed());
        }
        let snap = service.snapshot();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth_peak, 4);
        service.shutdown();
    }

    #[test]
    fn cancellation_before_release_resolves_cancelled() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let config = ServiceConfig {
            hold: true,
            ..ServiceConfig::default()
        };
        let service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let ticket = service
            .submit(JobSpec::new("t", dataset, ds.tree.clone(), model))
            .expect("admitted");
        ticket.cancel();
        service.release();
        assert_eq!(ticket.wait(), JobOutcome::Cancelled);
        assert_eq!(service.snapshot().cancelled, 1);
        service.shutdown();
    }

    #[test]
    fn expired_deadline_resolves_deadline_missed() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let config = ServiceConfig {
            hold: true,
            ..ServiceConfig::default()
        };
        let service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let ticket = service
            .submit(
                JobSpec::new("t", dataset, ds.tree.clone(), model)
                    .with_deadline(Duration::from_millis(1)),
            )
            .expect("admitted");
        std::thread::sleep(Duration::from_millis(10));
        service.release();
        assert_eq!(ticket.wait(), JobOutcome::DeadlineMissed);
        assert_eq!(service.snapshot().deadline_missed, 1);
        service.shutdown();
    }

    #[test]
    fn high_priority_starts_before_normal_backlog() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let config = ServiceConfig {
            hold: true,
            batch: BatchPolicy {
                max_jobs: 1, // one job per batch => strict drain order
                ..BatchPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let normal = service
            .submit(JobSpec::new("n", dataset, ds.tree.clone(), model.clone()))
            .expect("admitted");
        let high = service
            .submit(
                JobSpec::new("h", dataset, ds.tree.clone(), model.clone())
                    .with_priority(Priority::High),
            )
            .expect("admitted");
        service.release();
        let (h, n) = (high.wait(), normal.wait());
        let wait_of = |o: &JobOutcome| match o {
            JobOutcome::Completed { wait, .. } => *wait,
            other => panic!("expected completion, got {other:?}"),
        };
        // The high job entered the queue second but started first.
        assert!(wait_of(&h) <= wait_of(&n));
        service.shutdown();
    }

    #[test]
    fn unknown_dataset_is_rejected() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let service = PlfService::new(ServiceConfig::default(), scalar_backends(1));
        let err = service
            .submit(JobSpec::new("t", DatasetId(99), ds.tree.clone(), model))
            .expect_err("unregistered");
        assert_eq!(err, SubmitError::UnknownDataset(DatasetId(99)));
        service.shutdown();
    }

    #[test]
    fn shutdown_resolves_queued_backlog() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let config = ServiceConfig {
            hold: true,
            ..ServiceConfig::default()
        };
        let service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let tickets: Vec<JobTicket> = (0..6)
            .map(|_| {
                service
                    .submit(JobSpec::new("t", dataset, ds.tree.clone(), model.clone()))
                    .expect("admitted")
            })
            .collect();
        // Shutdown with the gate still held: the flush path must still
        // resolve every admitted job.
        service.shutdown();
        for t in tickets {
            assert!(t.try_wait().is_some(), "job left unresolved by shutdown");
        }
    }

    #[test]
    fn drain_under_light_load_skips_linger() {
        // A closed queue can never produce batchmates, so a scheduler
        // mid-linger must dispatch immediately instead of napping out
        // the window — otherwise every drain pays the full linger as
        // tail latency on its last job.
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 9);
        let model = plf_seqgen::default_model();
        let linger = Duration::from_millis(500);
        let config = ServiceConfig {
            batch: BatchPolicy {
                linger,
                ..BatchPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let mut service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let ticket = service
            .submit(JobSpec::new("t", dataset, ds.tree.clone(), model))
            .expect("admitted");
        // Let the scheduler pop the job and settle into the linger.
        std::thread::sleep(Duration::from_millis(50));
        let closed_at = Instant::now();
        let report = service.drain(Duration::from_secs(5));
        assert!(ticket.wait().is_completed());
        assert!(report.within_deadline);
        assert!(
            closed_at.elapsed() < linger,
            "drain waited out the linger: {:?}",
            closed_at.elapsed()
        );
    }

    #[test]
    fn mid_batch_fault_resolves_alone_and_batchmates_complete() {
        // One blackout charge poisons exactly one job of a fused
        // batch; its batchmates must still complete, bit-identical to
        // the serial reference (per-job demux under a mid-batch
        // fault).
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(6, 64), 13);
        let model = plf_seqgen::default_model();
        let config = ServiceConfig {
            hold: true,
            ..ServiceConfig::default()
        };
        let service = PlfService::new(config, scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let tickets: Vec<JobTicket> = (0..4)
            .map(|_| {
                service
                    .submit(JobSpec::new("t", dataset, ds.tree.clone(), model.clone()))
                    .expect("admitted")
            })
            .collect();
        // Single worker, single charge: the first job of the (only)
        // shard blacks out; no redirect target exists, so it fails.
        service.blackout_worker(0, 1);
        service.release();
        let outcomes: Vec<JobOutcome> = tickets.iter().map(|t| t.wait()).collect();
        let failed = outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Failed { .. }))
            .count();
        assert_eq!(failed, 1, "exactly one job absorbs the fault: {outcomes:?}");
        let mut serial =
            TreeLikelihood::new(&ds.tree, &ds.data, model).expect("workspace");
        let expected = serial
            .log_likelihood(&ds.tree, &mut ScalarBackend)
            .expect("serial eval");
        let completed: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.ln_likelihood())
            .collect();
        assert_eq!(completed.len(), 3);
        for lnl in completed {
            assert_eq!(lnl.to_bits(), expected.to_bits(), "bit-identical demux");
        }
        let snap = service.snapshot();
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed, 1);
        // The survivors ran fused with the CLV cache consulted.
        assert!(snap.clv_cache_misses > 0, "fused path not exercised");
        service.shutdown();
    }

    fn temp_journal_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "plfd-service-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journaled_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            journal: Some(JournalConfig::in_dir(dir)),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn duplicate_idempotency_key_returns_one_outcome() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(6, 48), 11);
        let model = plf_seqgen::default_model();
        let dir = temp_journal_dir("dedup");
        let service = PlfService::new(journaled_config(&dir), scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let first = service
            .submit(
                JobSpec::new("t", dataset, ds.tree.clone(), model.clone())
                    .with_idempotency_key("job-a"),
            )
            .expect("admitted");
        let dup = service
            .submit(
                JobSpec::new("t", dataset, ds.tree.clone(), model.clone())
                    .with_idempotency_key("job-a"),
            )
            .expect("deduped, not rejected");
        let a = first.wait().ln_likelihood().expect("completed");
        let b = dup.wait().ln_likelihood().expect("completed");
        assert_eq!(a.to_bits(), b.to_bits(), "one execution, one result");
        let snap = service.snapshot();
        assert_eq!(snap.submitted, 1, "duplicate was not re-admitted");
        assert_eq!(snap.deduped_jobs, 1);
        assert!(snap.journal_appends >= 2, "admit + resolve journaled");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_then_recover_replays_unresolved_and_dedups_resubmission() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(6, 48), 13);
        let model = plf_seqgen::default_model();
        let dir = temp_journal_dir("crash");

        // Uncrashed reference for bit-identity.
        let mut serial =
            TreeLikelihood::new(&ds.tree, &ds.data, model.clone()).expect("workspace");
        let expected = serial
            .log_likelihood(&ds.tree, &mut ScalarBackend)
            .expect("serial eval");

        // Run 1: admit some jobs while the scheduler is held shut, so
        // they are journaled admitted but never resolve, then crash.
        {
            let config = ServiceConfig {
                hold: true,
                ..journaled_config(&dir)
            };
            let service = PlfService::new(config, scalar_backends(1));
            let dataset = service.register_dataset(ds.data.clone());
            for i in 0..3 {
                service
                    .submit(
                        JobSpec::new("t", dataset, ds.tree.clone(), model.clone())
                            .with_idempotency_key(format!("crash-{i}")),
                    )
                    .expect("admitted");
            }
            service.crash();
        }

        // Run 2: same journal dir. Recovery replays all three; a client
        // resubmission under the same key dedups onto the replay.
        let service = PlfService::new(journaled_config(&dir), scalar_backends(1));
        let dataset = service.register_dataset(ds.data.clone());
        let report = service.recover();
        assert_eq!(report.replayed, 3, "all admitted-unresolved jobs replayed");
        assert_eq!(report.expired, 0);
        assert_eq!(report.unrecoverable, 0);
        let resubmitted = service
            .submit(
                JobSpec::new("t", dataset, ds.tree.clone(), model.clone())
                    .with_idempotency_key("crash-1"),
            )
            .expect("deduped onto the replayed job");
        let lnl = resubmitted.wait().ln_likelihood().expect("completed");
        assert_eq!(lnl.to_bits(), expected.to_bits(), "bit-identical across crash");
        let snap = service.snapshot();
        assert_eq!(snap.replayed_jobs, 3);
        assert_eq!(snap.deduped_jobs, 1);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_resolves_expired_deadlines_as_missed() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 16), 17);
        let model = plf_seqgen::default_model();
        let dir = temp_journal_dir("expired");
        {
            let config = ServiceConfig {
                hold: true,
                ..journaled_config(&dir)
            };
            let service = PlfService::new(config, scalar_backends(1));
            let dataset = service.register_dataset(ds.data.clone());
            service
                .submit(
                    JobSpec::new("t", dataset, ds.tree.clone(), model.clone())
                        .with_deadline(Duration::from_nanos(1))
                        .with_idempotency_key("stale"),
                )
                .expect("admitted");
            service.crash();
        }
        let service = PlfService::new(journaled_config(&dir), scalar_backends(1));
        let _dataset = service.register_dataset(ds.data.clone());
        let report = service.recover();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.expired, 1, "past-deadline replay resolves honestly");
        // The journaled outcome is visible to a resubmission.
        let ticket = service
            .submit(
                JobSpec::new("t", DatasetId(0), ds.tree.clone(), model)
                    .with_idempotency_key("stale"),
            )
            .expect("deduped");
        assert!(matches!(ticket.wait(), JobOutcome::DeadlineMissed));
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_resolves_backlog_and_flushes_journal() {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(6, 48), 19);
        let model = plf_seqgen::default_model();
        let dir = temp_journal_dir("drain");
        let config = ServiceConfig {
            hold: true,
            ..journaled_config(&dir)
        };
        let mut service = PlfService::new(config, scalar_backends(2));
        let dataset = service.register_dataset(ds.data.clone());
        let tickets: Vec<JobTicket> = (0..6)
            .map(|_| {
                service
                    .submit(JobSpec::new("t", dataset, ds.tree.clone(), model.clone()))
                    .expect("admitted")
            })
            .collect();
        let report = service.drain(Duration::from_secs(30));
        assert!(report.within_deadline, "backlog drained in time");
        assert_eq!(report.pending_at_deadline, 0);
        assert!(report.journal_flushed);
        assert_eq!(report.resolved, 6);
        for t in tickets {
            assert!(t.try_wait().is_some(), "drain left a job unresolved");
        }
        // A drained journal has no admitted-but-unresolved jobs left:
        // a restart replays nothing.
        drop(service);
        let restarted = PlfService::new(journaled_config(&dir), scalar_backends(1));
        let _dataset = restarted.register_dataset(ds.data.clone());
        let report = restarted.recover();
        assert_eq!(report.replayed, 0, "nothing to replay after clean drain");
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
