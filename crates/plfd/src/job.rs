//! The job model: what a caller submits, what the service hands back,
//! and the internal queued representation the scheduler batches.
//!
//! A *job* is one likelihood evaluation request — a tree plus a site
//! model against a pre-registered alignment. The caller receives a
//! [`JobTicket`] immediately on admission and later collects exactly
//! one terminal [`JobOutcome`]; the service guarantees every admitted
//! job reaches a terminal state (no silent drops), even across
//! shutdown.

use plf_phylo::alignment::PatternAlignment;
use plf_phylo::model::SiteModel;
use plf_phylo::tree::Tree;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Opaque handle to an alignment registered with the service; jobs
/// reference datasets by handle so the (potentially large) pattern data
/// is shared rather than carried per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(pub(crate) u64);

/// Unique job identifier within one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling lane: the queue drains every `High` job before any
/// `Normal` job of the same age.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive lane, drained first.
    High,
    /// Default throughput lane.
    #[default]
    Normal,
}

impl Priority {
    /// Parse a CLI/protocol label.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            _ => None,
        }
    }
}

/// One evaluation request as submitted by a caller.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Accounting principal; drives the per-tenant metrics breakdown.
    pub tenant: String,
    /// Scheduling lane.
    pub priority: Priority,
    /// Which registered alignment to evaluate against.
    pub dataset: DatasetId,
    /// The tree to score (leaf names must match the alignment's taxa).
    pub tree: Tree,
    /// Site model (rate count is part of the batch-compatibility key).
    pub model: SiteModel,
    /// Relative deadline from submission. A job whose evaluation has
    /// not *started* by its deadline resolves as
    /// [`JobOutcome::DeadlineMissed`]; a started job always runs to its
    /// natural outcome.
    pub deadline: Option<Duration>,
    /// Caller-chosen idempotency key. On a journaled service, a second
    /// submission under the same key returns the first submission's
    /// ticket (or its journaled outcome after a restart) instead of
    /// executing again; keyed resubmission after a crash or a
    /// [`crate::SubmitError`] backoff is therefore always safe.
    pub idempotency_key: Option<String>,
}

impl JobSpec {
    /// A normal-priority spec with no deadline.
    pub fn new(
        tenant: impl Into<String>,
        dataset: DatasetId,
        tree: Tree,
        model: SiteModel,
    ) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            priority: Priority::Normal,
            dataset,
            tree,
            model,
            deadline: None,
            idempotency_key: None,
        }
    }

    /// Set the scheduling lane.
    pub fn with_priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Set a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Set the idempotency key for dedup across retries and restarts.
    pub fn with_idempotency_key(mut self, key: impl Into<String>) -> JobSpec {
        self.idempotency_key = Some(key.into());
        self
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Evaluation finished.
    Completed {
        /// The tree log-likelihood, bit-identical to a serial
        /// single-backend evaluation of the same job.
        ln_likelihood: f64,
        /// Time spent queued + batched before evaluation started.
        wait: Duration,
        /// Time spent under evaluation.
        service: Duration,
        /// Name of the backend that evaluated the job.
        backend: String,
    },
    /// The caller cancelled before evaluation started.
    Cancelled,
    /// The deadline passed before evaluation started.
    DeadlineMissed,
    /// Evaluation failed after the resilience layer exhausted retries
    /// and fallbacks.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
}

impl JobOutcome {
    /// The log-likelihood, if the job completed.
    pub fn ln_likelihood(&self) -> Option<f64> {
        match self {
            JobOutcome::Completed { ln_likelihood, .. } => Some(*ln_likelihood),
            _ => None,
        }
    }

    /// Whether the job completed with a result.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// The service's completion hook: one callback, installed at most once,
/// that every [`JobCell`] of the service calls after publishing its
/// outcome. A front end that multiplexes many tickets on one thread
/// (the plf-net reactor) uses it to sleep until a ticket resolves
/// instead of polling.
#[derive(Default)]
pub(crate) struct CompletionHook(OnceLock<Box<dyn Fn() + Send + Sync>>);

impl CompletionHook {
    /// Install `hook`; `false` if one is already installed.
    pub(crate) fn install(&self, hook: Box<dyn Fn() + Send + Sync>) -> bool {
        self.0.set(hook).is_ok()
    }

    fn fire(&self) {
        if let Some(hook) = self.0.get() {
            hook();
        }
    }
}

impl std::fmt::Debug for CompletionHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionHook")
            .field("installed", &self.0.get().is_some())
            .finish()
    }
}

/// One-shot completion cell shared between a [`JobTicket`] and the
/// dispatcher; the first writer wins and waiters are woken.
#[derive(Debug, Default)]
pub(crate) struct JobCell {
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
    /// Called once the outcome is published, with the slot unlocked.
    hook: Option<Arc<CompletionHook>>,
}

impl JobCell {
    pub(crate) fn new() -> Arc<JobCell> {
        Arc::new(JobCell::default())
    }

    /// A cell that calls `hook` when its outcome is published.
    pub(crate) fn with_hook(hook: &Arc<CompletionHook>) -> Arc<JobCell> {
        Arc::new(JobCell {
            hook: Some(Arc::clone(hook)),
            ..JobCell::default()
        })
    }

    /// Publish the outcome; later writers are ignored (a cancel racing
    /// a completion keeps whichever resolved first). The first writer
    /// then calls the completion hook, after the slot guard is dropped:
    /// the hook may write to a socket, which must not happen under a
    /// lock a ticket poller takes.
    pub(crate) fn set(&self, outcome: JobOutcome) {
        let first = {
            let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
            let first = slot.is_none();
            if first {
                *slot = Some(outcome);
                self.done.notify_all();
            }
            first
        };
        if first {
            if let Some(hook) = &self.hook {
                hook.fire();
            }
        }
    }

    /// Block until the outcome is published.
    pub(crate) fn wait(&self) -> JobOutcome {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Block up to `timeout`; `None` if the job is still unresolved.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .done
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            slot = guard;
        }
    }

    /// Non-blocking peek.
    pub(crate) fn try_get(&self) -> Option<JobOutcome> {
        self.slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// The caller's handle to one admitted job: poll or block for the
/// outcome, or request cancellation.
#[derive(Debug, Clone)]
pub struct JobTicket {
    id: JobId,
    tenant: String,
    cancelled: Arc<AtomicBool>,
    cell: Arc<JobCell>,
}

impl JobTicket {
    pub(crate) fn new(
        id: JobId,
        tenant: String,
        cancelled: Arc<AtomicBool>,
        cell: Arc<JobCell>,
    ) -> JobTicket {
        JobTicket {
            id,
            tenant,
            cancelled,
            cell,
        }
    }

    /// The job's service-wide identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The tenant the job was submitted under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Request cancellation. Best-effort: a job whose evaluation has
    /// already started still completes; one still queued or batched
    /// resolves as [`JobOutcome::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobOutcome {
        self.cell.wait()
    }

    /// Block up to `timeout`; `None` if still unresolved.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.cell.wait_timeout(timeout)
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<JobOutcome> {
        self.cell.try_get()
    }
}

/// Batch-compatibility key: jobs fuse into one batch only when they
/// share the alignment (same pattern data, taxa, and dimensions) and
/// the model rate count (same CLV stride, hence the same device unit
/// geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    pub dataset: DatasetId,
    pub n_rates: usize,
}

/// The internal, queued representation of an admitted job.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: JobId,
    pub tenant: String,
    pub priority: Priority,
    pub dataset: DatasetId,
    pub data: Arc<PatternAlignment>,
    pub tree: Tree,
    pub model: SiteModel,
    pub submitted_at: Instant,
    pub deadline: Option<Instant>,
    pub cancelled: Arc<AtomicBool>,
    pub cell: Arc<JobCell>,
    /// At-most-once resolution guard: set by the first successful
    /// [`Job::finish_once`]. The watchdog may re-dispatch a job whose
    /// worker died mid-shard, so a hung-but-alive worker finishing late
    /// must neither double-publish nor double-count — the claim on this
    /// flag decides which execution "owns" the terminal outcome.
    pub resolved: AtomicBool,
    /// Degradation-routing guard: a job that hits a backend fault is
    /// redirected to a healthy worker at most once; a second fault
    /// (anywhere) fails the job instead of bouncing it forever.
    pub redirected: AtomicBool,
    /// Durability sink: when the service journals, every terminal
    /// outcome appends a `Resolved` record under this idempotency key
    /// *before* the ticket's cell is woken, so an acknowledged-resolved
    /// job is durable by the time its waiter observes the outcome.
    pub journal: Option<(Arc<crate::journal::Journal>, String)>,
}

impl Job {
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub(crate) fn past_deadline(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }

    pub(crate) fn batch_key(&self) -> BatchKey {
        BatchKey {
            dataset: self.dataset,
            n_rates: self.model.n_rates(),
        }
    }

    /// Whether a terminal outcome was already claimed for this job.
    pub(crate) fn is_resolved(&self) -> bool {
        self.resolved.load(Ordering::Acquire)
    }

    /// Claim the right to resolve this job. Returns `true` for exactly
    /// one caller — only that caller may record the job in the service
    /// counters and must then [`Job::publish`] the outcome. Duplicate
    /// executions (kill/respawn races) are harmless because every
    /// backend produces bit-identical results, but they must not
    /// double-count.
    pub(crate) fn try_claim(&self) -> bool {
        self.resolved
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Publish the terminal outcome (wakes ticket waiters). Call only
    /// after winning [`Job::try_claim`], and only after recording the
    /// job in the counters — waiters may snapshot the counters the
    /// moment the cell resolves.
    ///
    /// Every terminal path in the service funnels through here (queue
    /// expiry, dispatch completion/failure, fault containment, pool
    /// shutdown), so journaling the `Resolved` record in this one spot
    /// covers them all.
    pub(crate) fn publish(&self, outcome: JobOutcome) {
        if let Some((journal, key)) = &self.journal {
            journal.append_resolved(key, self.id.0, &outcome);
        }
        self.cell.set(outcome);
    }

    /// [`Job::try_claim`] + [`Job::publish`] for paths with no counter
    /// to record.
    #[cfg(test)]
    pub(crate) fn finish_once(&self, outcome: JobOutcome) -> bool {
        if !self.try_claim() {
            return false;
        }
        self.publish(outcome);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn cell_first_writer_wins_and_wakes_waiters() {
        let cell = JobCell::new();
        let waiter = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.wait())
        };
        cell.set(JobOutcome::Cancelled);
        cell.set(JobOutcome::DeadlineMissed); // ignored: already resolved
        assert_eq!(waiter.join().expect("waiter"), JobOutcome::Cancelled);
        assert_eq!(cell.try_get(), Some(JobOutcome::Cancelled));
    }

    #[test]
    fn completion_hook_fires_once_per_cell_after_the_slot_is_released() {
        use std::sync::atomic::AtomicUsize;
        let hook = Arc::new(CompletionHook::default());
        let cell = JobCell::with_hook(&hook);
        cell.set(JobOutcome::Cancelled); // no hook installed yet: no call
        let calls = Arc::new(AtomicUsize::new(0));
        let cell = JobCell::with_hook(&hook);
        {
            let (calls, probe) = (Arc::clone(&calls), Arc::downgrade(&cell));
            assert!(hook.install(Box::new(move || {
                // The slot lock is free and the outcome visible.
                let probe = probe.upgrade().expect("cell alive");
                assert_eq!(probe.try_get(), Some(JobOutcome::Cancelled));
                calls.fetch_add(1, Ordering::SeqCst);
            })));
        }
        assert!(!hook.install(Box::new(|| {})), "one hook per service");
        cell.set(JobOutcome::Cancelled);
        cell.set(JobOutcome::DeadlineMissed); // ignored: no second call
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cell_wait_timeout_expires_and_then_resolves() {
        let cell = JobCell::new();
        assert_eq!(cell.wait_timeout(Duration::from_millis(5)), None);
        cell.set(JobOutcome::Cancelled);
        assert_eq!(
            cell.wait_timeout(Duration::from_millis(5)),
            Some(JobOutcome::Cancelled)
        );
    }

    #[test]
    fn finish_once_claims_exactly_once() {
        let job = Job {
            id: JobId(0),
            tenant: "t".into(),
            priority: Priority::Normal,
            dataset: DatasetId(0),
            data: Arc::new(
                plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 8), 3).data,
            ),
            tree: plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 8), 3).tree,
            model: plf_phylo::model::SiteModel::jc69(),
            submitted_at: Instant::now(),
            deadline: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            cell: JobCell::new(),
            resolved: AtomicBool::new(false),
            redirected: AtomicBool::new(false),
            journal: None,
        };
        assert!(!job.is_resolved());
        assert!(job.finish_once(JobOutcome::Cancelled));
        assert!(job.is_resolved());
        assert!(!job.finish_once(JobOutcome::DeadlineMissed));
        assert_eq!(job.cell.try_get(), Some(JobOutcome::Cancelled));
    }

    #[test]
    fn priority_parses_labels() {
        assert_eq!(Priority::parse("high"), Some(Priority::High));
        assert_eq!(Priority::parse("normal"), Some(Priority::Normal));
        assert_eq!(Priority::parse("urgent"), None);
    }
}
