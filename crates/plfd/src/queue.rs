//! Bounded two-lane submission queue with adaptive admission control.
//!
//! **Backpressure contract.** `push` never blocks and the queue never
//! grows past its capacity. Two admission gates apply, in order:
//!
//! 1. **Hard cap** — at capacity, submissions are rejected with
//!    [`SubmitError::QueueFull`] and a retry hint from the
//!    [`AdmissionController`]'s live drain estimate.
//! 2. **Adaptive shed** — below capacity, a submission whose estimated
//!    queue delay already exceeds the shed policy's target is refused
//!    with [`SubmitError::Overloaded`] rather than queued into a
//!    near-certain deadline miss.
//!
//! Both hints are *lane-aware*: a high-priority submission only waits
//! out the high-lane backlog (the high lane drains first), so its
//! `jobs_ahead` counts only that lane, while a normal-priority
//! submission counts the total depth. Callers back off for the hinted
//! duration and retry; the deterministic load generator does exactly
//! that.
//!
//! **In-queue deadline expiry.** A job whose deadline passes while it
//! is still queued resolves as `DeadlineMissed` at pop time — it is
//! never handed to the scheduler, so an expired job cannot consume a
//! batch slot nor be silently dispatched.
//!
//! This file is in `plf-lint`'s L2 hot-path scope: no panicking calls.
//! Lock poisoning is absorbed with `unwrap_or_else(|p| p.into_inner())`
//! — counter/queue state stays consistent because every critical
//! section leaves the lanes structurally valid before it can panic.

use crate::health::AdmissionController;
use crate::job::{DatasetId, Job, JobOutcome, Priority};
use plf_phylo::metrics::ServiceCounters;
use plf_phylo::splitmix64;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after the hinted backoff.
    QueueFull {
        /// Estimated time for enough backlog to drain.
        retry_after: Duration,
        /// Lane-aware backlog the submission would have waited behind
        /// (high-priority submissions count only the high lane).
        jobs_ahead: usize,
    },
    /// The queue has room, but the admission controller estimates the
    /// job would wait longer than the shed policy's target delay;
    /// retry after the hinted backoff.
    Overloaded {
        /// Estimated time for enough backlog to drain.
        retry_after: Duration,
        /// Lane-aware backlog the submission would have waited behind
        /// (high-priority submissions count only the high lane).
        jobs_ahead: usize,
    },
    /// The service is shutting down and accepts no new work.
    Closed,
    /// The spec referenced a dataset handle never registered with this
    /// service instance.
    UnknownDataset(DatasetId),
    /// The write-ahead journal could not make the admission durable;
    /// the job was cancelled rather than acknowledged without its
    /// durability guarantee.
    Journal {
        /// Description of the underlying I/O failure.
        detail: String,
    },
}

impl SubmitError {
    /// The backoff hint, for rejections that carry one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            SubmitError::QueueFull { retry_after, .. }
            | SubmitError::Overloaded { retry_after, .. } => Some(*retry_after),
            SubmitError::Closed
            | SubmitError::UnknownDataset(_)
            | SubmitError::Journal { .. } => None,
        }
    }

    /// The lane-aware backlog hint, for rejections that carry one: how
    /// many jobs the submission would have waited behind. Remote
    /// protocol frames forward this verbatim so a network client sees
    /// exactly what an in-process caller sees.
    pub fn jobs_ahead(&self) -> Option<usize> {
        match self {
            SubmitError::QueueFull { jobs_ahead, .. }
            | SubmitError::Overloaded { jobs_ahead, .. } => Some(*jobs_ahead),
            SubmitError::Closed
            | SubmitError::UnknownDataset(_)
            | SubmitError::Journal { .. } => None,
        }
    }

    /// Whether retrying the submission later can succeed (backpressure
    /// rejections are transient; the rest are terminal).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SubmitError::QueueFull { .. } | SubmitError::Overloaded { .. }
        )
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after, jobs_ahead } => write!(
                f,
                "queue full ({jobs_ahead} ahead); retry after {:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            SubmitError::Overloaded { retry_after, jobs_ahead } => write!(
                f,
                "service overloaded (shed, {jobs_ahead} ahead); retry after {:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            SubmitError::Closed => write!(f, "service is shut down"),
            SubmitError::UnknownDataset(id) => {
                write!(f, "dataset handle {} was never registered", id.0)
            }
            SubmitError::Journal { detail } => {
                write!(f, "journal append failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Client-side resubmission policy: exponential backoff with
/// deterministic jitter, floored by the service's `retry_after` hint.
/// Pair it with [`crate::JobSpec::with_idempotency_key`] — a keyed
/// resubmission dedups against the first admission, so retrying after
/// an ambiguous failure never executes a job twice.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Backoff before the first retry; doubles on each subsequent one.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Submission attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Fraction of each backoff randomized away, in `[0, 1]`: the
    /// sleep lands in `[backoff × (1 − jitter), backoff]`, decorrelating
    /// retry storms across clients.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_micros(500),
            cap: Duration::from_millis(100),
            max_attempts: 16,
            jitter: 0.5,
            seed: 2009,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based: the sleep
    /// after the first rejection), never below the service's
    /// `retry_after` hint. Deterministic in `(seed, attempt)`.
    pub fn backoff(&self, attempt: u32, hint: Option<Duration>) -> Duration {
        // Integer nanos throughout: float → Duration conversions can
        // panic on NaN/negative and this is called on the submit path.
        let base = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap = self.cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let doubled = base.saturating_mul(1u64 << attempt.min(32));
        let mut nanos = doubled.min(cap);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter > 0.0 && nanos > 0 {
            // 53-bit uniform fraction in [0, 1).
            let frac = (splitmix64(self.seed.wrapping_add(u64::from(attempt))) >> 11) as f64
                / (1u64 << 53) as f64;
            let cut = ((nanos as f64) * jitter * frac) as u64;
            nanos = nanos.saturating_sub(cut);
        }
        let floor = hint.map_or(0, |h| h.as_nanos().min(u128::from(u64::MAX)) as u64);
        Duration::from_nanos(nanos.max(floor))
    }

    /// Whether retry number `attempt` (0-based) is still within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt + 1 < self.max_attempts
    }
}

/// Result of a blocking pop. Jobs are boxed while queued — a `Job`
/// carries a whole tree plus model, and boxing keeps the queue's move
/// and rejection paths pointer-sized.
#[derive(Debug)]
pub(crate) enum PopResult {
    /// A job was available (high lane first).
    Job(Box<Job>),
    /// Timed out with the queue still open.
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

#[derive(Debug, Default)]
struct Lanes {
    high: VecDeque<Box<Job>>,
    normal: VecDeque<Box<Job>>,
    closed: bool,
}

impl Lanes {
    fn depth(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    fn pop_front(&mut self) -> Option<Box<Job>> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }
}

/// The bounded, priority-laned submission queue.
#[derive(Debug)]
pub(crate) struct BoundedQueue {
    state: Mutex<Lanes>,
    ready: Condvar,
    capacity: usize,
    controller: Arc<AdmissionController>,
    counters: Arc<ServiceCounters>,
}

impl BoundedQueue {
    pub(crate) fn new(
        capacity: usize,
        controller: Arc<AdmissionController>,
        counters: Arc<ServiceCounters>,
    ) -> BoundedQueue {
        BoundedQueue {
            state: Mutex::new(Lanes::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            controller,
            counters,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lanes> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admission capacity (jobs).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current backlog.
    pub(crate) fn depth(&self) -> usize {
        self.lock().depth()
    }

    /// Admit `job` or reject it without blocking. On rejection the job
    /// is handed back so the caller can surface or retry it.
    pub(crate) fn push(&self, job: Box<Job>) -> Result<(), (Box<Job>, SubmitError)> {
        let mut lanes = self.lock();
        if lanes.closed {
            return Err((job, SubmitError::Closed));
        }
        // Lane-aware backlog: the high lane drains first, so a High
        // submission only waits out the high lane; a Normal submission
        // waits out everything queued ahead of it.
        let jobs_ahead = match job.priority {
            Priority::High => lanes.high.len(),
            Priority::Normal => lanes.depth(),
        };
        if lanes.depth() >= self.capacity {
            let retry_after = self.controller.retry_hint(jobs_ahead);
            return Err((job, SubmitError::QueueFull { retry_after, jobs_ahead }));
        }
        if let Some(retry_after) = self.controller.shed_decision(jobs_ahead) {
            return Err((job, SubmitError::Overloaded { retry_after, jobs_ahead }));
        }
        match job.priority {
            Priority::High => lanes.high.push_back(job),
            Priority::Normal => lanes.normal.push_back(job),
        }
        drop(lanes);
        self.counters.record_enqueued();
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the next job that is still live, moving any job whose
    /// deadline expired while it sat in the queue into `expired`.
    /// Must be called with the lanes locked; dequeue accounting for
    /// expired jobs happens here, but the jobs are *not* resolved —
    /// publishing writes (and fsyncs) the journal, which must never
    /// happen under the queue lock. Callers resolve via
    /// [`BoundedQueue::resolve_expired`] after releasing the guard.
    fn pop_live(&self, lanes: &mut Lanes, expired: &mut Vec<Job>) -> Option<Box<Job>> {
        let now = Instant::now();
        let mut n_expired = 0u64;
        let job = loop {
            match lanes.pop_front() {
                None => break None,
                Some(job) => {
                    if job.past_deadline(now) && !job.is_cancelled() {
                        n_expired += 1;
                        expired.push(*job);
                        continue;
                    }
                    break Some(job);
                }
            }
        };
        if n_expired > 0 {
            self.counters.record_dequeued(n_expired);
        }
        job
    }

    /// Resolve jobs that expired in the queue as `DeadlineMissed`.
    /// Called with the lanes guard released: publishing journals the
    /// resolution, and the fsync must not stall submitters or other
    /// poppers.
    fn resolve_expired(&self, expired: Vec<Job>) {
        for job in expired {
            if job.try_claim() {
                self.counters.record_deadline_missed(&job.tenant);
                job.publish(JobOutcome::DeadlineMissed);
            }
        }
    }

    /// Block up to `timeout` for the next live job (high lane first).
    pub(crate) fn pop_wait(&self, timeout: Duration) -> PopResult {
        let mut lanes = self.lock();
        loop {
            let mut expired = Vec::new();
            let popped = self.pop_live(&mut lanes, &mut expired);
            if let Some(job) = popped {
                drop(lanes);
                self.resolve_expired(expired);
                self.counters.record_dequeued(1);
                return PopResult::Job(job);
            }
            if !expired.is_empty() {
                // Everything popped had expired: resolve outside the
                // lock, then re-acquire and re-check for new arrivals.
                drop(lanes);
                self.resolve_expired(expired);
                lanes = self.lock();
                continue;
            }
            if lanes.closed {
                return PopResult::Closed;
            }
            let (guard, result) = self
                .ready
                .wait_timeout(lanes, timeout)
                .unwrap_or_else(|p| p.into_inner());
            lanes = guard;
            if result.timed_out() && lanes.depth() == 0 {
                return if lanes.closed {
                    PopResult::Closed
                } else {
                    PopResult::Empty
                };
            }
        }
    }

    /// Drain up to `max` live jobs without blocking, high lane first.
    /// Jobs that expired in the queue resolve as `DeadlineMissed` and
    /// do not count against `max`.
    pub(crate) fn drain(&self, max: usize) -> Vec<Job> {
        let mut lanes = self.lock();
        let mut expired = Vec::new();
        let mut out = Vec::with_capacity(max.min(lanes.depth()));
        while out.len() < max {
            match self.pop_live(&mut lanes, &mut expired) {
                Some(job) => out.push(*job),
                None => break,
            }
        }
        drop(lanes);
        self.resolve_expired(expired);
        if !out.is_empty() {
            self.counters.record_dequeued(out.len() as u64);
        }
        out
    }

    /// Stop admitting; wake all waiters so drains can finish.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Whether [`close`](Self::close) has been called. The scheduler
    /// uses this to skip the batching linger during drain: no new
    /// batchmate can ever arrive once admission stops.
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::ShedPolicy;
    use crate::job::{JobCell, JobId, JobSpec};
    use plf_phylo::model::SiteModel;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn job_from_spec(id: u64, spec: JobSpec) -> Box<Job> {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 8), 7);
        let now = Instant::now();
        Box::new(Job {
            id: JobId(id),
            tenant: spec.tenant,
            priority: spec.priority,
            dataset: spec.dataset,
            data: Arc::new(ds.data),
            tree: spec.tree,
            model: spec.model,
            submitted_at: now,
            deadline: spec.deadline.map(|d| now + d),
            cancelled: Arc::new(AtomicBool::new(false)),
            cell: JobCell::new(),
            resolved: AtomicBool::new(false),
            redirected: AtomicBool::new(false),
            journal: None,
        })
    }

    fn test_job(id: u64, priority: Priority) -> Box<Job> {
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 8), 7);
        let spec = JobSpec::new("t", DatasetId(0), ds.tree, SiteModel::jc69())
            .with_priority(priority);
        job_from_spec(id, spec)
    }

    fn controller(per_job: Duration) -> Arc<AdmissionController> {
        AdmissionController::new(per_job, ShedPolicy::default())
    }

    fn queue(capacity: usize) -> BoundedQueue {
        BoundedQueue::new(
            capacity,
            controller(Duration::from_micros(500)),
            ServiceCounters::new(),
        )
    }

    #[test]
    fn rejects_job_k_plus_1_with_positive_retry_after() {
        let q = queue(3);
        for i in 0..3 {
            assert!(q.push(test_job(i, Priority::Normal)).is_ok());
        }
        let (_job, err) = q.push(test_job(3, Priority::Normal)).expect_err("full");
        match err {
            SubmitError::QueueFull { retry_after, jobs_ahead } => {
                assert!(retry_after > Duration::ZERO);
                assert!(retry_after <= Duration::from_secs(1));
                assert_eq!(jobs_ahead, 3, "three queued jobs ahead of the reject");
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn high_lane_drains_before_normal() {
        let q = queue(8);
        q.push(test_job(0, Priority::Normal)).expect("push");
        q.push(test_job(1, Priority::High)).expect("push");
        q.push(test_job(2, Priority::Normal)).expect("push");
        let order: Vec<u64> = q.drain(8).into_iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn pop_wait_times_out_empty_and_sees_close() {
        let q = queue(2);
        assert!(matches!(
            q.pop_wait(Duration::from_millis(2)),
            PopResult::Empty
        ));
        q.push(test_job(0, Priority::Normal)).expect("push");
        q.close();
        // Closed queues still drain their backlog...
        assert!(matches!(
            q.pop_wait(Duration::from_millis(2)),
            PopResult::Job(_)
        ));
        // ...then report Closed, and reject new work.
        assert!(matches!(
            q.pop_wait(Duration::from_millis(2)),
            PopResult::Closed
        ));
        let (_job, err) = q.push(test_job(1, Priority::Normal)).expect_err("closed");
        assert_eq!(err, SubmitError::Closed);
    }

    #[test]
    fn counters_track_depth() {
        let counters = ServiceCounters::new();
        let q = BoundedQueue::new(
            4,
            controller(Duration::from_micros(500)),
            Arc::clone(&counters),
        );
        q.push(test_job(0, Priority::Normal)).expect("push");
        q.push(test_job(1, Priority::Normal)).expect("push");
        assert_eq!(counters.queue_depth(), 2);
        let _ = q.drain(1);
        assert_eq!(counters.queue_depth(), 1);
        assert_eq!(counters.snapshot().queue_depth_peak, 2);
    }

    #[test]
    fn sheds_below_capacity_when_estimated_delay_exceeds_target() {
        // 200 ms per job, target 500 ms: the 4th Normal submission sees
        // 3 jobs ahead → 600 ms estimate → shed, though capacity is 64.
        let c = AdmissionController::new(
            Duration::from_millis(200),
            ShedPolicy {
                target_delay: Duration::from_millis(500),
                alpha: 0.2,
            },
        );
        let q = BoundedQueue::new(64, c, ServiceCounters::new());
        for i in 0..3 {
            assert!(q.push(test_job(i, Priority::Normal)).is_ok());
        }
        let (_job, err) = q.push(test_job(3, Priority::Normal)).expect_err("shed");
        match err {
            SubmitError::Overloaded { retry_after, jobs_ahead } => {
                assert!(retry_after > Duration::ZERO);
                assert!(retry_after <= Duration::from_secs(1));
                assert_eq!(jobs_ahead, 3, "shed decision saw the whole backlog");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(q.depth(), 3, "shed job was not queued");
    }

    #[test]
    fn retry_hints_are_lane_aware() {
        // Deep normal backlog, empty high lane, at capacity. The high
        // submission's hint must reflect only the (empty) high lane —
        // i.e. the clamp floor — while the normal submission's hint
        // reflects the whole backlog.
        let per_job = Duration::from_millis(10);
        let c = AdmissionController::new(per_job, ShedPolicy {
            target_delay: Duration::from_secs(60), // shedding off
            alpha: 0.2,
        });
        let q = BoundedQueue::new(8, c, ServiceCounters::new());
        for i in 0..8 {
            assert!(q.push(test_job(i, Priority::Normal)).is_ok());
        }
        let (_j, high_err) = q.push(test_job(100, Priority::High)).expect_err("full");
        let (_j, normal_err) = q.push(test_job(101, Priority::Normal)).expect_err("full");
        let high_hint = high_err.retry_after().expect("hint");
        let normal_hint = normal_err.retry_after().expect("hint");
        assert_eq!(
            high_hint,
            Duration::from_millis(10),
            "high lane empty: one-job floor, not the normal backlog"
        );
        assert_eq!(normal_hint, Duration::from_millis(80), "8 jobs ahead");
        assert!(high_hint < normal_hint);
    }

    #[test]
    fn close_wakes_all_blocked_waiters() {
        let q = Arc::new(queue(4));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop_wait(Duration::from_secs(30)))
            })
            .collect();
        // Give the waiters time to block.
        thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        q.close();
        for w in waiters {
            let result = w.join().expect("waiter thread");
            assert!(matches!(result, PopResult::Closed));
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "close must wake every blocked waiter promptly"
        );
    }

    #[test]
    fn queued_job_past_deadline_resolves_missed_not_dispatched() {
        let q = queue(4);
        let ds = plf_seqgen::generate(plf_seqgen::DatasetSpec::new(4, 8), 7);
        let spec = JobSpec::new("t", DatasetId(0), ds.tree, SiteModel::jc69())
            .with_deadline(Duration::from_millis(1));
        let expired = job_from_spec(0, spec);
        let cell = Arc::clone(&expired.cell);
        q.push(expired).expect("push");
        q.push(test_job(1, Priority::Normal)).expect("push");
        thread::sleep(Duration::from_millis(5));
        // The expired job must not come out of the queue; the live one
        // must.
        let drained = q.drain(8);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, JobId(1));
        assert_eq!(cell.try_get(), Some(JobOutcome::DeadlineMissed));
        assert_eq!(q.depth(), 0, "expired job left the depth gauge");
    }

    #[test]
    fn retry_policy_backoff_doubles_caps_and_honors_hints() {
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            max_attempts: 4,
            jitter: 0.0,
            seed: 1,
        };
        assert_eq!(p.backoff(0, None), Duration::from_millis(1));
        assert_eq!(p.backoff(1, None), Duration::from_millis(2));
        assert_eq!(p.backoff(2, None), Duration::from_millis(4));
        assert_eq!(p.backoff(3, None), Duration::from_millis(8));
        assert_eq!(p.backoff(10, None), Duration::from_millis(8), "capped");
        // The service hint is a floor, never shortened.
        assert_eq!(
            p.backoff(0, Some(Duration::from_millis(50))),
            Duration::from_millis(50)
        );
        assert!(p.allows(0) && p.allows(2) && !p.allows(3));
    }

    #[test]
    fn retry_policy_jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            base: Duration::from_millis(4),
            cap: Duration::from_secs(1),
            max_attempts: 8,
            jitter: 0.5,
            seed: 42,
        };
        for attempt in 0..6 {
            let a = p.backoff(attempt, None);
            let b = p.backoff(attempt, None);
            assert_eq!(a, b, "same (seed, attempt) → same backoff");
            let full = Duration::from_millis(4 << attempt.min(8)).min(Duration::from_secs(1));
            assert!(a <= full, "jitter only shortens");
            assert!(a >= full / 2, "jitter bounded by the jitter fraction");
        }
        let other = RetryPolicy { seed: 43, ..p.clone() };
        assert_ne!(
            (0..6).map(|i| p.backoff(i, None)).collect::<Vec<_>>(),
            (0..6).map(|i| other.backoff(i, None)).collect::<Vec<_>>(),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn cancel_after_drain_is_a_no_op() {
        let q = queue(4);
        let job = test_job(0, Priority::Normal);
        let cancelled = Arc::clone(&job.cancelled);
        q.push(job).expect("push");
        let drained = q.drain(1);
        assert_eq!(drained.len(), 1);
        let job = &drained[0];
        // The job was already handed to the caller; a late cancel flag
        // flips the bit but cannot claw the job back out of the drain.
        cancelled.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(q.depth(), 0);
        // Resolving the drained job still works and wins the cell.
        assert!(job.finish_once(JobOutcome::Completed {
            ln_likelihood: -1.0,
            wait: Duration::ZERO,
            service: Duration::ZERO,
            backend: "test".into(),
        }));
        assert!(job.cell.try_get().is_some_and(|o| o.is_completed()));
    }
}
