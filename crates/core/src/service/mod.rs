//! An admission-controlled request queue in front of [`Dtas`] — the
//! service layer between "library with caches" and "service".
//!
//! [`DtasService`] owns a pool of plain worker threads (tokio-free — the
//! engine's hit path is microseconds, so a thread pool beats an executor
//! here) fed by two priority lanes:
//!
//! * **admission control** — the waiting queue is bounded
//!   ([`ServiceConfig::queue_depth`], [`ServiceConfig::max_inflight`]);
//!   a submission that finds the service full is refused, blocked, or
//!   admitted by evicting the oldest waiting request, per
//!   [`Admission`];
//! * **priority lanes** — [`Priority::Interactive`] requests always
//!   dispatch before [`Priority::Bulk`] ones, and bulk is shed first;
//! * **tickets** — [`submit`](DtasService::submit) returns a [`Ticket`],
//!   a blocking-recv handle resolving to
//!   `Result<`[`SynthOutcome`]`, `[`ServiceError`]`>`. Outcomes carry the
//!   design set behind an [`Arc`] (no per-query deep clone on the hot
//!   path) plus queue-wait and execution timings;
//! * **deadlines** — a request may carry
//!   [`SynthRequest::with_deadline`](crate::SynthRequest::with_deadline)
//!   (or inherit [`ServiceConfig::default_deadline`]). A dedicated
//!   sweeper thread drops requests still *waiting* past their deadline
//!   with [`ServiceError::DeadlineExceeded`]; a request already
//!   dispatched resolves normally but counts as a
//!   [`late delivery`](ServiceStats::late_deliveries);
//! * **cancellation** — [`Ticket::cancel`] resolves the ticket to
//!   [`ServiceError::Cancelled`] immediately. It is idempotent and races
//!   cleanly with dispatch: whichever resolution reaches the one-shot
//!   slot first wins, and the loser is accounted, never lost;
//! * **rate-based admission** — [`Admission::Rate`] adds a per-lane
//!   token bucket beside the depth-based policies, composing with
//!   shed-oldest when workers stall below the configured rate;
//! * **background checkpointing** —
//!   [`ServiceConfig::checkpoint_interval`] flushes the engine's bound
//!   [`PersistentStore`](crate::store::PersistentStore) on a timer from a
//!   dedicated thread. The export only takes shared locks, so the
//!   zero-exclusive-lock hit path keeps serving while the snapshot
//!   writes;
//! * **graceful shutdown** — [`shutdown`](DtasService::shutdown) stops
//!   admissions, drains every already-admitted request (each ticket still
//!   resolves), joins the threads, and takes a final checkpoint.
//!
//! ```
//! use cells::lsi::lsi_logic_subset;
//! use dtas::{Dtas, DtasService, ServiceConfig, SynthRequest};
//! use genus::kind::ComponentKind;
//! use genus::op::{Op, OpSet};
//! use genus::spec::ComponentSpec;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), dtas::ServiceError> {
//! let service = DtasService::start(
//!     Arc::new(Dtas::new(lsi_logic_subset())),
//!     ServiceConfig::default(),
//! );
//! let spec = ComponentSpec::new(ComponentKind::AddSub, 16)
//!     .with_ops(OpSet::only(Op::Add))
//!     .with_carry_in(true)
//!     .with_carry_out(true);
//! let ticket = service.submit(SynthRequest::new(spec))?;
//! let outcome = ticket.recv()?;
//! assert!(!outcome.design.alternatives.is_empty());
//! let stats = service.shutdown();
//! assert_eq!((stats.admitted, stats.completed), (1, 1));
//! # Ok(())
//! # }
//! ```

#[cfg(feature = "chaos")]
pub mod chaos;
mod config;
mod stats;

pub use config::{Admission, Priority, ServiceConfig};
pub use stats::{percentile, LaneLatency, LatencyHistogram, ServiceStats, HISTOGRAM_BUCKETS};

use crate::engine::{Dtas, SynthError};
use crate::report::DesignSet;
use crate::request::SynthRequest;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors a service submission or ticket can resolve to.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Refused at admission: the waiting queue held
    /// [`queue_depth`](ServiceConfig::queue_depth) requests (or inflight
    /// work hit [`max_inflight`](ServiceConfig::max_inflight)) and the
    /// policy was [`Admission::Reject`] — or [`Admission::Block`] and the
    /// timeout elapsed first.
    Overloaded {
        /// The configured waiting-queue bound that was hit.
        queue_depth: usize,
    },
    /// Admitted, then evicted by [`Admission::ShedOldest`] before a
    /// worker picked the request up.
    Shed,
    /// The caller gave up first: [`Ticket::cancel`] resolved the ticket
    /// before any other resolution reached it.
    Cancelled,
    /// The request's queue deadline
    /// ([`SynthRequest::with_deadline`](crate::SynthRequest::with_deadline)
    /// or [`ServiceConfig::default_deadline`]) passed while it was still
    /// waiting in a lane. A request whose deadline passes *after*
    /// dispatch resolves normally instead and is counted in
    /// [`ServiceStats::late_deliveries`].
    DeadlineExceeded,
    /// Submitted after [`shutdown`](DtasService::shutdown) began.
    ShuttingDown,
    /// The engine executed the request and failed.
    Synth(SynthError),
    /// A worker panicked while executing this request (the engine's
    /// poison recovery rebuilds its own state; the ticket reports the
    /// panic instead of hanging).
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { queue_depth } => {
                write!(f, "service overloaded (queue depth {queue_depth})")
            }
            ServiceError::Shed => write!(f, "request shed under overload"),
            ServiceError::Cancelled => write!(f, "request cancelled by caller"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded while request was queued")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Synth(e) => write!(f, "{e}"),
            ServiceError::Internal(m) => write!(f, "service worker failed: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Synth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthError> for ServiceError {
    fn from(e: SynthError) -> Self {
        ServiceError::Synth(e)
    }
}

/// One completed service request: the design set (shared, not cloned —
/// results are immutable once memoized) plus queue-side timings.
#[derive(Clone, Debug)]
pub struct SynthOutcome {
    /// The synthesized alternatives.
    pub design: Arc<DesignSet>,
    /// Admission → worker pickup: time spent waiting in the lane.
    pub queued_for: Duration,
    /// Worker execution time (a memo hit is microseconds; a cold solve is
    /// the real solve).
    pub service_time: Duration,
    /// The lane this request waited in.
    pub priority: Priority,
    /// Global dispatch sequence number: request A was picked up before
    /// request B iff `A.dispatch_order < B.dispatch_order`. Pins the
    /// interactive-before-bulk guarantee in tests.
    pub dispatch_order: u64,
}

/// Counters shared between the service handle and every ticket it has
/// issued, so [`Ticket::cancel`] (which holds no service reference) and
/// ticket-drop accounting land in the same [`ServiceStats`].
#[derive(Default)]
struct SharedCounters {
    cancelled: AtomicU64,
    late_deliveries: AtomicU64,
}

/// The write side of a ticket: a one-shot slot plus the condvar its
/// receiver blocks on, and a live-receiver count so a result delivered
/// after every [`Ticket`] handle was dropped is *counted* (as a late
/// delivery) instead of silently vanishing.
struct TicketState {
    slot: Mutex<Option<Result<SynthOutcome, ServiceError>>>,
    ready: Condvar,
    /// Live [`Ticket`] handles (starts at 1 for the handle issued at
    /// admission; cloned tickets increment, drops decrement).
    receivers: AtomicU64,
    counters: Arc<SharedCounters>,
}

impl TicketState {
    fn new(counters: Arc<SharedCounters>) -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            receivers: AtomicU64::new(1),
            counters,
        })
    }

    /// First write wins (a shed, a cancel, a deadline drop, and a worker
    /// pickup all race here, and whoever arrives first decides the
    /// result); every write wakes all receivers. Returns whether *this*
    /// write won.
    fn resolve(&self, result: Result<SynthOutcome, ServiceError>) -> bool {
        let mut slot = lock_clean(&self.slot);
        let won = slot.is_none();
        if won {
            *slot = Some(result);
        }
        drop(slot);
        self.ready.notify_all();
        won
    }

    fn is_resolved(&self) -> bool {
        lock_clean(&self.slot).is_some()
    }
}

/// A blocking-recv handle for one submitted request. Resolves exactly
/// once — when a worker finishes the request, when admission control
/// sheds it, when its queue deadline passes, when [`cancel`](Self::cancel)
/// wins the race, or when a worker panic is converted to
/// [`ServiceError::Internal`]. Receiving does not consume the ticket
/// (outcomes are cheap clones: an `Arc` plus timings), so a ticket can be
/// polled and then waited on. Cloning yields another handle to the *same*
/// resolution.
///
/// Dropping every handle before the result lands does not leak or wedge
/// anything: the worker still resolves the slot and the service counts
/// the orphaned result in
/// [`ServiceStats::late_deliveries`].
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Clone for Ticket {
    fn clone(&self) -> Self {
        self.state.receivers.fetch_add(1, Ordering::Relaxed);
        Ticket {
            state: Arc::clone(&self.state),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.state.receivers.fetch_sub(1, Ordering::Release);
    }
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.try_recv().is_some())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn recv(&self) -> Result<SynthOutcome, ServiceError> {
        let mut slot = lock_clean(&self.state.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The result if the request already resolved, `None` otherwise.
    pub fn try_recv(&self) -> Option<Result<SynthOutcome, ServiceError>> {
        lock_clean(&self.state.slot).clone()
    }

    /// Blocks up to `timeout`; `None` when the request is still pending.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Result<SynthOutcome, ServiceError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_clean(&self.state.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            slot = self
                .state
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Cancels the request: resolves the ticket to
    /// [`ServiceError::Cancelled`] *now* and returns `true` when this
    /// call was the resolving one.
    ///
    /// Idempotent and race-free by construction — resolution is a
    /// first-write-wins one-shot slot, so cancelling an already-resolved
    /// ticket (including one already cancelled) is a no-op returning
    /// `false`, and a cancel racing a worker pickup never corrupts
    /// anything: either the cancel wins (the worker's later result is
    /// counted as a [late delivery](ServiceStats::late_deliveries)) or
    /// the worker wins (the cancel reports `false` and the result
    /// stands). A cancelled request still *waiting* in a lane is skipped
    /// — never executed — when a worker or the deadline sweeper reaches
    /// it, so cancellation can only shorten the queue, never wedge it.
    pub fn cancel(&self) -> bool {
        let won = self.state.resolve(Err(ServiceError::Cancelled));
        if won {
            self.state
                .counters
                .cancelled
                .fetch_add(1, Ordering::Relaxed);
        }
        won
    }

    /// `true` once the request has resolved — to a result, an error, a
    /// cancellation or a deadline. Cheap (one lock, no clone), so callers
    /// can prune bookkeeping without paying for [`Ticket::try_recv`].
    pub fn is_resolved(&self) -> bool {
        self.state.is_resolved()
    }
}

/// One admitted request waiting in a lane.
struct Entry {
    request: SynthRequest,
    priority: Priority,
    ticket: Arc<TicketState>,
    enqueued: Instant,
    /// Absolute queue deadline (admission instant + the request's or the
    /// config's relative deadline). `None`: waits forever.
    deadline: Option<Instant>,
}

/// One lane's token bucket for [`Admission::Rate`]. Lives behind the
/// queue mutex; refilled lazily on each admission attempt, so there is
/// no refill timer thread and zero cost for the other policies.
#[derive(Default)]
struct RateBucket {
    tokens: f64,
    /// `None` until the first attempt — the bucket starts full, so a
    /// burst right after startup is admitted up to `burst`.
    last_refill: Option<Instant>,
}

impl RateBucket {
    /// Refills for elapsed wall time and takes one token if available.
    fn try_take(&mut self, per_sec: u32, burst: u32) -> bool {
        let per_sec = f64::from(per_sec.max(1));
        let burst = f64::from(burst.max(1));
        let now = Instant::now();
        match self.last_refill {
            None => self.tokens = burst,
            Some(last) => {
                let refill = now.saturating_duration_since(last).as_secs_f64() * per_sec;
                self.tokens = (self.tokens + refill).min(burst);
            }
        }
        self.last_refill = Some(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Everything the queue mutex protects. Plain data — a panic while
/// holding the lock cannot leave it unsafe, so lock poison is cleared by
/// continuing ([`lock_clean`]).
#[derive(Default)]
struct QueueState {
    /// `lanes[0]` interactive, `lanes[1]` bulk.
    lanes: [VecDeque<Entry>; 2],
    /// Token buckets for [`Admission::Rate`], indexed like `lanes`.
    rate: [RateBucket; 2],
    running: usize,
    shutting_down: bool,
    queue_highwater: usize,
    inflight_highwater: usize,
    /// The deadline the sweeper last parked toward (`None`: parked with
    /// no deadline, or not parked yet). Only `deadline_loop` sets it,
    /// under this lock, so an admission must wake the sweeper only for an
    /// earlier deadline.
    sweeper_wake_at: Option<Instant>,
}

impl QueueState {
    fn waiting(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }

    fn lane_mut(&mut self, priority: Priority) -> &mut VecDeque<Entry> {
        match priority {
            Priority::Interactive => &mut self.lanes[0],
            Priority::Bulk => &mut self.lanes[1],
        }
    }

    /// Next request to dispatch: interactive strictly before bulk.
    fn pop(&mut self) -> Option<Entry> {
        self.lanes[0]
            .pop_front()
            .or_else(|| self.lanes[1].pop_front())
    }

    /// Oldest sheddable waiting request: bulk first, then interactive.
    fn shed_victim(&mut self) -> Option<Entry> {
        self.lanes[1]
            .pop_front()
            .or_else(|| self.lanes[0].pop_front())
    }

    /// Earliest queue deadline among waiting entries — the sweeper's
    /// next wakeup. `None` when nothing waiting carries one.
    fn earliest_deadline(&self) -> Option<Instant> {
        self.lanes.iter().flatten().filter_map(|e| e.deadline).min()
    }

    /// Removes and returns every waiting entry that is past its deadline
    /// (or already resolved, e.g. cancelled — those only need removal).
    fn take_expired(&mut self, now: Instant) -> Vec<Entry> {
        let mut expired = Vec::new();
        for lane in self.lanes.iter_mut() {
            let mut i = 0;
            while i < lane.len() {
                let dead =
                    lane[i].deadline.is_some_and(|d| now >= d) || lane[i].ticket.is_resolved();
                if dead {
                    expired.extend(lane.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        expired
    }
}

/// Most recent wait/service durations for one lane, kept in a bounded
/// ring so percentiles reflect current behaviour and memory stays flat
/// no matter how long the service lives.
struct LaneSamples {
    wait_us: Vec<u64>,
    service_us: Vec<u64>,
    next: usize,
    /// Cumulative (never windowed) distributions — see
    /// [`LatencyHistogram`].
    wait_hist: LatencyHistogram,
    service_hist: LatencyHistogram,
}

/// Ring capacity per lane; at service rates this is the last few seconds
/// to minutes of traffic — plenty for p99.
const LATENCY_WINDOW: usize = 4096;

impl LaneSamples {
    const fn new() -> Self {
        LaneSamples {
            wait_us: Vec::new(),
            service_us: Vec::new(),
            next: 0,
            wait_hist: LatencyHistogram {
                buckets: [0; HISTOGRAM_BUCKETS],
            },
            service_hist: LatencyHistogram {
                buckets: [0; HISTOGRAM_BUCKETS],
            },
        }
    }

    fn record(&mut self, wait_us: u64, service_us: u64) {
        self.wait_hist.record(wait_us);
        self.service_hist.record(service_us);
        if self.wait_us.len() < LATENCY_WINDOW {
            self.wait_us.push(wait_us);
            self.service_us.push(service_us);
        } else {
            self.wait_us[self.next] = wait_us;
            self.service_us[self.next] = service_us;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    fn summarize(&self) -> LaneLatency {
        let mut wait = self.wait_us.clone();
        let mut service = self.service_us.clone();
        wait.sort_unstable();
        service.sort_unstable();
        LaneLatency {
            samples: wait.len() as u64,
            wait_p50_us: percentile(&wait, 50.0),
            wait_p99_us: percentile(&wait, 99.0),
            service_p50_us: percentile(&service, 50.0),
            service_p99_us: percentile(&service, 99.0),
            wait_hist: self.wait_hist,
            service_hist: self.service_hist,
        }
    }
}

/// Shared between the handle, the workers and the checkpoint thread.
struct Inner {
    queue: Mutex<QueueState>,
    /// `[0]` interactive, `[1]` bulk — matching [`QueueState::lanes`].
    latency: Mutex<[LaneSamples; 2]>,
    /// Workers wait here for work.
    work_ready: Condvar,
    /// [`Admission::Block`] submitters wait here for queue room.
    space_ready: Condvar,
    /// Checkpoint thread: interval sleep + shutdown wakeup.
    stop_checkpointer: Mutex<bool>,
    checkpoint_wake: Condvar,
    /// The deadline sweeper waits here (paired with the queue mutex) for
    /// the earliest queued deadline; admissions that carry a deadline
    /// poke it so its timeout stays the true minimum.
    deadline_wake: Condvar,
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    dispatch_seq: AtomicU64,
    /// Shared with every issued [`Ticket`] (cancel + late-delivery
    /// accounting happens ticket-side).
    counters: Arc<SharedCounters>,
}

/// Locks a mutex, clearing poison: every structure behind these locks is
/// plain bookkeeping that stays consistent-enough on a panicking writer
/// (the engine's own state has its own, stricter recovery).
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// The admission-controlled synthesis service (see the [module
/// docs](self)).
pub struct DtasService {
    engine: Arc<Dtas>,
    config: ServiceConfig,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl DtasService {
    /// Spawns the worker pool (and the checkpoint thread when
    /// [`ServiceConfig::checkpoint_interval`] is set) over a shared
    /// engine and starts accepting submissions immediately.
    pub fn start(engine: Arc<Dtas>, config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState::default()),
            latency: Mutex::new([LaneSamples::new(), LaneSamples::new()]),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            stop_checkpointer: Mutex::new(false),
            checkpoint_wake: Condvar::new(),
            deadline_wake: Condvar::new(),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            dispatch_seq: AtomicU64::new(0),
            counters: Arc::new(SharedCounters::default()),
        });
        let workers = (0..config.worker_count())
            .map(|_| {
                let engine = Arc::clone(&engine);
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&engine, &inner))
            })
            .collect();
        let checkpointer = config.checkpoint_interval.map(|interval| {
            let engine = Arc::clone(&engine);
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || checkpoint_loop(&engine, &inner, interval))
        });
        // Spawned unconditionally: deadlines can arrive per-request at any
        // time, and an idle sweeper is one parked thread.
        let sweeper = {
            let inner = Arc::clone(&inner);
            Some(std::thread::spawn(move || deadline_loop(&inner)))
        };
        DtasService {
            engine,
            config,
            inner,
            workers,
            checkpointer,
            sweeper,
        }
    }

    /// The engine behind the service ([`Dtas::cache_stats`] and friends
    /// remain available while the service runs).
    pub fn engine(&self) -> &Arc<Dtas> {
        &self.engine
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Submits one interactive request under the configured
    /// [`Admission`] policy.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when admission refuses the request,
    /// [`ServiceError::ShuttingDown`] after shutdown began. A returned
    /// [`Ticket`] always resolves — to an outcome, a synthesis error, or
    /// [`ServiceError::Shed`].
    pub fn submit(&self, request: SynthRequest) -> Result<Ticket, ServiceError> {
        self.submit_with_priority(request, Priority::Interactive)
    }

    /// [`submit`](Self::submit) into an explicit lane.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn submit_with_priority(
        &self,
        request: SynthRequest,
        priority: Priority,
    ) -> Result<Ticket, ServiceError> {
        let guard = lock_clean(&self.inner.queue);
        let (_guard, result) = self.admit(guard, request, priority, self.config.admission);
        result
    }

    /// Submits without ever blocking the caller: a full queue refuses
    /// immediately, whatever the configured policy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn try_submit(&self, request: SynthRequest) -> Result<Ticket, ServiceError> {
        let guard = lock_clean(&self.inner.queue);
        let (_guard, result) = self.admit(guard, request, Priority::Interactive, Admission::Reject);
        result
    }

    /// Submits a whole batch into the bulk lane under one lock
    /// acquisition (admission is still per-request: each slot carries its
    /// own ticket-or-refusal, so a full queue part-way through refuses
    /// the tail without un-admitting the head).
    pub fn submit_batch(
        &self,
        requests: impl IntoIterator<Item = SynthRequest>,
    ) -> Vec<Result<Ticket, ServiceError>> {
        let mut guard = lock_clean(&self.inner.queue);
        let mut out = Vec::new();
        for request in requests {
            let (g, result) = self.admit(guard, request, Priority::Bulk, self.config.admission);
            guard = g;
            out.push(result);
        }
        drop(guard);
        out
    }

    /// The admission decision, entered with the queue lock held and
    /// returning it (possibly released and re-taken while a
    /// [`Admission::Block`] submitter waits).
    fn admit<'a>(
        &'a self,
        mut guard: MutexGuard<'a, QueueState>,
        request: SynthRequest,
        priority: Priority,
        policy: Admission,
    ) -> (MutexGuard<'a, QueueState>, Result<Ticket, ServiceError>) {
        let depth = self.config.effective_depth();
        let block_until = match policy {
            Admission::Block { timeout } => Some(Instant::now() + timeout),
            _ => None,
        };
        // Rate-based admission pays its token before the depth check: an
        // empty bucket refuses even a near-empty queue (the point is to
        // bound the *rate*), and a granted token that then finds the
        // depth bounds full composes with shed-oldest below.
        if let Admission::Rate { per_sec, burst } = policy {
            if guard.shutting_down {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return (guard, Err(ServiceError::ShuttingDown));
            }
            let lane = lane_index(priority);
            if !guard.rate[lane].try_take(per_sec, burst) {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return (guard, Err(ServiceError::Overloaded { queue_depth: depth }));
            }
        }
        loop {
            if guard.shutting_down {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return (guard, Err(ServiceError::ShuttingDown));
            }
            let full = guard.waiting() >= depth
                || guard.waiting() + guard.running >= self.config.max_inflight;
            if !full {
                let now = Instant::now();
                let queue_deadline = request
                    .deadline()
                    .or(self.config.default_deadline)
                    .map(|d| now + d);
                let ticket = TicketState::new(Arc::clone(&self.inner.counters));
                guard.lane_mut(priority).push_back(Entry {
                    request,
                    priority,
                    ticket: Arc::clone(&ticket),
                    enqueued: now,
                    deadline: queue_deadline,
                });
                guard.queue_highwater = guard.queue_highwater.max(guard.waiting());
                guard.inflight_highwater = guard
                    .inflight_highwater
                    .max(guard.waiting() + guard.running);
                self.inner.admitted.fetch_add(1, Ordering::Relaxed);
                self.inner.work_ready.notify_one();
                if queue_deadline.is_some_and(|d| guard.sweeper_wake_at.is_none_or(|at| d < at)) {
                    // Wake the sweeper so its timeout shrinks to the new
                    // minimum (it may currently be parked forever). A
                    // later deadline needs no wake: the sweeper rescans
                    // the lanes before it parks again.
                    self.inner.deadline_wake.notify_one();
                }
                return (guard, Ok(Ticket { state: ticket }));
            }
            match policy {
                Admission::Reject => {
                    self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                    return (guard, Err(ServiceError::Overloaded { queue_depth: depth }));
                }
                Admission::ShedOldest | Admission::Rate { .. } => match guard.shed_victim() {
                    Some(victim) => {
                        self.inner.shed.fetch_add(1, Ordering::Relaxed);
                        victim.ticket.resolve(Err(ServiceError::Shed));
                        // Loop: with the victim gone there is room (unless
                        // max_inflight binds with an empty queue, which
                        // falls through to the None arm next iteration).
                    }
                    None => {
                        // Nothing waiting to shed (max_inflight is the
                        // binding constraint): refuse like Reject.
                        self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                        return (guard, Err(ServiceError::Overloaded { queue_depth: depth }));
                    }
                },
                Admission::Block { .. } => {
                    let block_until = block_until.expect("Block admission carries a timeout");
                    let Some(left) = block_until.checked_duration_since(Instant::now()) else {
                        self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                        return (guard, Err(ServiceError::Overloaded { queue_depth: depth }));
                    };
                    guard = self
                        .inner
                        .space_ready
                        .wait_timeout(guard, left)
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
            }
        }
    }

    /// Current counters (see [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        let (queued_now, running_now, queue_depth_highwater, inflight_highwater) = {
            let state = lock_clean(&self.inner.queue);
            (
                state.waiting(),
                state.running,
                state.queue_highwater,
                state.inflight_highwater,
            )
        };
        let lanes = {
            let samples = lock_clean(&self.inner.latency);
            [samples[0].summarize(), samples[1].summarize()]
        };
        ServiceStats {
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            cancelled: self.inner.counters.cancelled.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            late_deliveries: self.inner.counters.late_deliveries.load(Ordering::Relaxed),
            checkpoints: self.inner.checkpoints.load(Ordering::Relaxed),
            checkpoint_failures: self.inner.checkpoint_failures.load(Ordering::Relaxed),
            queue_depth_highwater,
            inflight_highwater,
            queued_now,
            running_now,
            lanes,
        }
    }

    /// Graceful shutdown: stops admitting, drains every already-admitted
    /// request (their tickets resolve normally), joins the worker and
    /// checkpoint threads, takes a final checkpoint when the engine has a
    /// bound store, and returns the final counters. Also runs on drop.
    pub fn shutdown(mut self) -> ServiceStats {
        self.finish();
        self.stats()
    }

    fn finish(&mut self) {
        if self.workers.is_empty() {
            return; // already shut down
        }
        lock_clean(&self.inner.queue).shutting_down = true;
        self.inner.work_ready.notify_all();
        self.inner.space_ready.notify_all();
        self.inner.deadline_wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            // The workers have drained the lanes, so the sweeper's exit
            // condition (shutting down + empty queue) now holds; wake it
            // out of its park.
            self.inner.deadline_wake.notify_all();
            let _ = sweeper.join();
        }
        if let Some(checkpointer) = self.checkpointer.take() {
            *lock_clean(&self.inner.stop_checkpointer) = true;
            self.inner.checkpoint_wake.notify_all();
            let _ = checkpointer.join();
        }
        // Final checkpoint: everything solved during the service's
        // lifetime is on disk before the handle returns.
        run_checkpoint(&self.engine, &self.inner);
    }
}

impl Drop for DtasService {
    fn drop(&mut self) {
        self.finish();
    }
}

/// `lanes[...]` index of a priority.
fn lane_index(priority: Priority) -> usize {
    match priority {
        Priority::Interactive => 0,
        Priority::Bulk => 1,
    }
}

/// What a worker's pop found.
enum Dispatch {
    /// A live entry to execute, with its dispatch sequence number.
    Run(Entry, u64),
    /// Only dead entries (expired / cancelled) were popped; resolve them
    /// and come back.
    Housekeeping,
    /// Shutdown flagged and the lanes are drained.
    Quit,
}

/// Resolves an entry that left the queue without being executed. Wins
/// the slot only when the entry expired (a cancelled entry was resolved
/// by [`Ticket::cancel`] already, so the write loses and nothing is
/// double-counted).
fn resolve_queue_drop(entry: &Entry, inner: &Inner) {
    if entry.ticket.resolve(Err(ServiceError::DeadlineExceeded)) {
        inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }
    // A waiting slot freed either way.
    inner.space_ready.notify_one();
}

/// One worker: pop (interactive first), execute, resolve the ticket.
/// Exits when shutdown is flagged *and* the lanes are empty — that order
/// is what makes shutdown a drain.
///
/// Entries whose deadline already passed — checked at pop, so a zero
/// deadline expires deterministically even on an idle service — and
/// entries already resolved (cancelled while queued) are dropped without
/// execution; the drain property still holds because dropping *is*
/// resolution.
fn worker_loop(engine: &Arc<Dtas>, inner: &Arc<Inner>) {
    loop {
        let mut dead: Vec<Entry> = Vec::new();
        let dispatch = {
            let mut state = lock_clean(&inner.queue);
            'pop: loop {
                while let Some(entry) = state.pop() {
                    let expired = entry.deadline.is_some_and(|d| Instant::now() >= d);
                    if expired || entry.ticket.is_resolved() {
                        dead.push(entry);
                        continue;
                    }
                    state.running += 1;
                    // Stamped under the queue lock so the pop order and
                    // the sequence agree even across workers — the
                    // documented `dispatch_order` iff depends on it.
                    break 'pop Dispatch::Run(
                        entry,
                        inner.dispatch_seq.fetch_add(1, Ordering::Relaxed),
                    );
                }
                if state.shutting_down {
                    break 'pop Dispatch::Quit;
                }
                if !dead.is_empty() {
                    // Resolve what we collected before parking.
                    break 'pop Dispatch::Housekeeping;
                }
                state = inner
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        // Dead entries resolve outside the queue lock (resolution takes
        // the ticket lock and wakes receivers — no need to serialize that
        // behind the queue).
        for entry in &dead {
            resolve_queue_drop(entry, inner);
        }
        let (entry, dispatch_order) = match dispatch {
            Dispatch::Run(entry, order) => (entry, order),
            Dispatch::Housekeeping => continue,
            Dispatch::Quit => return,
        };
        // A waiting slot freed: wake one blocked submitter.
        inner.space_ready.notify_one();
        let queued_for = entry.enqueued.elapsed();
        let lane = lane_index(entry.priority);
        let t0 = Instant::now();
        // A panicking rule must not leave the ticket unresolved (the
        // receiver would hang) or the running count stuck: catch, report,
        // keep serving. The engine rebuilds its own poisoned state.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            chaos::on_dispatch();
            engine.run(&entry.request)
        }));
        let result = match executed {
            Ok(Ok(design)) => Ok(SynthOutcome {
                design,
                queued_for,
                service_time: t0.elapsed(),
                priority: entry.priority,
                dispatch_order,
            }),
            Ok(Err(e)) => Err(ServiceError::Synth(e)),
            Err(panic) => Err(ServiceError::Internal(panic_message(&panic))),
        };
        // Record server-side latency before resolving counters so a
        // stats() racing this completion can only under-report samples,
        // never report a completion without its sample window entry.
        lock_clean(&inner.latency)[lane].record(
            queued_for.as_micros() as u64,
            t0.elapsed().as_micros() as u64,
        );
        // Sample receivers BEFORE resolving: a receiver blocked in
        // `recv` is still registered here, while one that gave up
        // (`recv_timeout` + drop) has already unregistered. Loading
        // after `resolve` would race the woken receiver dropping its
        // ticket and miscount a clean delivery as abandoned.
        let abandoned = entry.ticket.receivers.load(Ordering::Acquire) == 0;
        let delivered = entry.ticket.resolve(result);
        // Work that completed but reached no one — the slot was already
        // resolved (cancel won the race), every ticket handle was
        // dropped, or the deadline blew mid-execution — is a late
        // delivery: accounted, never silently vanished.
        let blew_deadline = entry.deadline.is_some_and(|d| Instant::now() >= d);
        if !delivered || abandoned || blew_deadline {
            inner
                .counters
                .late_deliveries
                .fetch_add(1, Ordering::Relaxed);
        }
        inner.completed.fetch_add(1, Ordering::Relaxed);
        lock_clean(&inner.queue).running -= 1;
        // Inflight room freed (matters when max_inflight binds).
        inner.space_ready.notify_one();
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic during synthesis".to_string()
    }
}

/// One checkpoint attempt with failure accounting: a failed flush is
/// *counted* ([`ServiceStats::checkpoint_failures`]) and otherwise
/// swallowed — the next tick (or the shutdown checkpoint) retries, and
/// the service keeps serving throughout.
fn run_checkpoint(engine: &Arc<Dtas>, inner: &Arc<Inner>) {
    #[cfg(feature = "chaos")]
    if chaos::checkpoint_should_fail() {
        inner.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        return;
    }
    match engine.checkpoint() {
        Ok(Some(_)) => {
            inner.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(None) => {} // no bound store: nothing to flush
        Err(_) => {
            inner.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The background checkpoint thread: flush the engine's store every
/// `interval` until shutdown. The success count is reported via
/// [`ServiceStats::checkpoints`], failures via
/// [`ServiceStats::checkpoint_failures`].
fn checkpoint_loop(engine: &Arc<Dtas>, inner: &Arc<Inner>, interval: Duration) {
    let mut stop = lock_clean(&inner.stop_checkpointer);
    loop {
        if *stop {
            return;
        }
        stop = inner
            .checkpoint_wake
            .wait_timeout(stop, interval)
            .unwrap_or_else(|p| p.into_inner())
            .0;
        if *stop {
            return;
        }
        drop(stop);
        run_checkpoint(engine, inner);
        stop = lock_clean(&inner.stop_checkpointer);
    }
}

/// The deadline sweeper: parks on [`Inner::deadline_wake`] until the
/// earliest queued deadline (or forever when nothing waiting carries
/// one), then removes and resolves everything expired. Workers *also*
/// check deadlines at pop — the sweeper exists so an expired request
/// stuck behind a long backlog resolves on time instead of when a worker
/// finally reaches it.
fn deadline_loop(inner: &Arc<Inner>) {
    let mut state = lock_clean(&inner.queue);
    loop {
        let now = Instant::now();
        let expired = state.take_expired(now);
        if !expired.is_empty() {
            drop(state);
            for entry in &expired {
                resolve_queue_drop(entry, inner);
            }
            state = lock_clean(&inner.queue);
            continue;
        }
        if state.shutting_down && state.waiting() == 0 {
            // Workers drain the remaining entries (still honouring
            // deadlines at pop); nothing left for the sweeper.
            return;
        }
        let next = state.earliest_deadline();
        state.sweeper_wake_at = next;
        state = match next {
            Some(next) => {
                inner
                    .deadline_wake
                    .wait_timeout(state, next.saturating_duration_since(now))
                    .unwrap_or_else(|p| p.into_inner())
                    .0
            }
            None => inner
                .deadline_wake
                .wait(state)
                .unwrap_or_else(|p| p.into_inner()),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::lsi::lsi_logic_subset;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};
    use genus::spec::ComponentSpec;

    fn adder(width: usize) -> SynthRequest {
        SynthRequest::new(
            ComponentSpec::new(ComponentKind::AddSub, width)
                .with_ops(OpSet::only(Op::Add))
                .with_carry_in(true)
                .with_carry_out(true),
        )
    }

    fn service(config: ServiceConfig) -> DtasService {
        DtasService::start(Arc::new(Dtas::new(lsi_logic_subset())), config)
    }

    #[test]
    fn submit_and_recv_round_trips() {
        let service = service(ServiceConfig::default());
        let ticket = service.submit(adder(16)).expect("admits");
        let outcome = ticket.recv().expect("solves");
        assert!(!outcome.design.alternatives.is_empty());
        assert_eq!(outcome.priority, Priority::Interactive);
        // Re-receiving is allowed and identical.
        let again = ticket.recv().expect("still resolved");
        assert_eq!(
            again.design.alternatives.len(),
            outcome.design.alternatives.len()
        );
        let stats = service.shutdown();
        assert_eq!((stats.admitted, stats.completed), (1, 1));
        assert_eq!((stats.rejected, stats.shed), (0, 0));
        assert!(stats.queue_depth_highwater >= 1);
    }

    #[test]
    fn batch_goes_through_the_bulk_lane() {
        let service = service(ServiceConfig::default());
        let tickets = service.submit_batch([adder(8), adder(8), adder(16)]);
        assert_eq!(tickets.len(), 3);
        for ticket in &tickets {
            let outcome = ticket.as_ref().expect("admits").recv().expect("solves");
            assert_eq!(outcome.priority, Priority::Bulk);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn synthesis_failures_resolve_the_ticket() {
        let service = service(ServiceConfig::default());
        let unmappable = SynthRequest::new(
            ComponentSpec::new(ComponentKind::StackFifo, 8)
                .with_width2(4)
                .with_ops([Op::Push, Op::Pop].into_iter().collect())
                .with_style("STACK"),
        );
        let ticket = service.submit(unmappable).expect("admits");
        assert!(matches!(
            ticket.recv(),
            Err(ServiceError::Synth(SynthError::NoImplementation(_)))
        ));
        let stats = service.shutdown();
        // Executed-and-failed still counts as completed.
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn cancel_is_idempotent_and_typed() {
        let service = service(ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        });
        let ticket = service.submit(adder(16)).expect("admits");
        // Whatever the race outcome, the ticket resolves and a second
        // cancel is a no-op.
        let first = ticket.cancel();
        assert!(!ticket.cancel(), "second cancel never wins");
        let resolved = ticket.recv();
        if first {
            assert!(matches!(resolved, Err(ServiceError::Cancelled)));
        } else {
            assert!(resolved.is_ok(), "worker won the race cleanly");
        }
        let stats = service.shutdown();
        assert_eq!(stats.cancelled, u64::from(first));
    }

    #[test]
    fn zero_deadline_expires_deterministically() {
        let service = service(ServiceConfig::default());
        let ticket = service
            .submit(adder(16).with_deadline(Duration::ZERO))
            .expect("admitted — deadlines drop at dispatch, not admission");
        assert!(matches!(ticket.recv(), Err(ServiceError::DeadlineExceeded)));
        let stats = service.shutdown();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.completed, 0, "never executed");
    }

    #[test]
    fn rate_bucket_refuses_beyond_burst() {
        let service = service(ServiceConfig {
            workers: Some(1),
            admission: Admission::Rate {
                per_sec: 1,
                burst: 2,
            },
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = (0..5).map(|_| service.submit(adder(16))).collect();
        let admitted = tickets.iter().filter(|t| t.is_ok()).count();
        // The bucket starts full at `burst`; at 1 token/sec the refill
        // during this loop is negligible, so exactly 2 are admitted.
        assert_eq!(admitted, 2);
        for ticket in tickets.into_iter().flatten() {
            ticket.recv().expect("admitted requests resolve");
        }
        let stats = service.shutdown();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 3);
    }

    #[test]
    fn ticket_receiver_count_tracks_clones() {
        let counters = Arc::new(SharedCounters::default());
        let state = TicketState::new(Arc::clone(&counters));
        let ticket = Ticket {
            state: Arc::clone(&state),
        };
        assert_eq!(state.receivers.load(Ordering::Relaxed), 1);
        let clone = ticket.clone();
        assert_eq!(state.receivers.load(Ordering::Relaxed), 2);
        drop(ticket);
        drop(clone);
        assert_eq!(
            state.receivers.load(Ordering::Relaxed),
            0,
            "fully abandoned — a worker resolving now must count it late"
        );
        assert!(state.resolve(Err(ServiceError::Shed)), "first write wins");
        assert!(!state.resolve(Err(ServiceError::Shed)), "one-shot");
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let handle = service(ServiceConfig::default());
        let engine = Arc::clone(handle.engine());
        drop(handle);
        // A fresh service over the same engine still works (shutdown is
        // per-service, not per-engine)…
        let second = DtasService::start(engine, ServiceConfig::default());
        lock_clean(&second.inner.queue).shutting_down = true;
        // …but a shutting-down service refuses.
        assert!(matches!(
            second.submit(adder(8)),
            Err(ServiceError::ShuttingDown)
        ));
        assert_eq!(second.shutdown().rejected, 1);
    }
}
