//! Service configuration: worker pool sizing, queue bounds, and the
//! admission policy applied when those bounds are hit.

use std::time::Duration;

/// What [`DtasService::submit`](crate::service::DtasService::submit) does
/// when the service is at capacity (the waiting queue holds
/// [`queue_depth`](ServiceConfig::queue_depth) requests, or admitted and
/// unfinished work has reached
/// [`max_inflight`](ServiceConfig::max_inflight)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Refuse immediately with
    /// [`ServiceError::Overloaded`](crate::service::ServiceError::Overloaded) —
    /// the classic load-shedding front door: callers get instant
    /// backpressure and decide themselves whether to retry.
    Reject,
    /// Block the submitting thread until capacity frees or `timeout`
    /// elapses (then
    /// [`ServiceError::Overloaded`](crate::service::ServiceError::Overloaded)).
    /// Smooths bursts at the price of caller latency.
    Block {
        /// Longest a submitter may wait for queue room.
        timeout: Duration,
    },
    /// Always admit the new request, evicting the *oldest waiting* one to
    /// make room (bulk lane first, then interactive). The evicted ticket
    /// resolves to [`ServiceError::Shed`](crate::service::ServiceError::Shed).
    /// Keeps the queue fresh under sustained overload — stale work is the
    /// cheapest work to drop.
    ShedOldest,
    /// Rate-based admission: a token bucket **per lane** refilled at
    /// `per_sec` tokens per second with capacity `burst`. A submission
    /// that finds its lane's bucket empty is refused with
    /// [`ServiceError::Overloaded`](crate::service::ServiceError::Overloaded)
    /// — instant backpressure proportional to offered load rather than
    /// queue depth, so a burst above the sustained rate is absorbed (up
    /// to `burst`) instead of queueing behind the backlog.
    ///
    /// Composes with [`ShedOldest`](Self::ShedOldest): when a token *is*
    /// granted but the depth bounds are still full (workers stalled
    /// below the configured rate), the oldest waiting request is shed to
    /// make room, keeping admitted-and-current traffic flowing.
    Rate {
        /// Sustained admissions per second, per lane (clamped to ≥ 1).
        per_sec: u32,
        /// Bucket capacity: the largest burst admitted above the
        /// sustained rate (clamped to ≥ 1).
        burst: u32,
    },
}

/// Which lane a request waits in. Workers always drain the interactive
/// lane before touching bulk, so latency-sensitive queries overtake
/// best-effort batch traffic instead of queueing behind it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: dispatched before any bulk request.
    Interactive,
    /// Best-effort: dispatched only when the interactive lane is empty,
    /// and shed first under [`Admission::ShedOldest`].
    Bulk,
}

/// Configuration of a [`DtasService`](crate::service::DtasService).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing synthesis requests. `None` uses
    /// [`std::thread::available_parallelism`]; clamped to at least 1.
    pub workers: Option<usize>,
    /// Maximum requests *waiting* (across both priority lanes). Clamped
    /// to at least 1. Admission applies beyond it.
    pub queue_depth: usize,
    /// Maximum admitted-and-unfinished requests (waiting + executing).
    /// The default (`usize::MAX`) leaves `queue_depth` as the only bound.
    pub max_inflight: usize,
    /// What to do with a submission that finds the service at capacity.
    pub admission: Admission,
    /// Interval of the background checkpoint thread. `Some(d)` flushes
    /// the engine's [`PersistentStore`](crate::store::PersistentStore)
    /// every `d` while the service runs — without ever blocking the
    /// zero-exclusive-lock hit path (the export takes shared locks only).
    /// `None` (the default) checkpoints only at
    /// [`shutdown`](crate::service::DtasService::shutdown). No-op when
    /// the engine has no bound store.
    pub checkpoint_interval: Option<Duration>,
    /// Queue deadline applied to every request that does not carry its
    /// own [`SynthRequest::with_deadline`](crate::SynthRequest::with_deadline).
    /// A request still *waiting* when its deadline passes resolves to
    /// [`ServiceError::DeadlineExceeded`](crate::service::ServiceError::DeadlineExceeded);
    /// one already dispatched completes normally and is counted in
    /// [`ServiceStats::late_deliveries`](crate::service::ServiceStats::late_deliveries).
    /// `None` (the default): requests without their own deadline wait
    /// forever.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: None,
            queue_depth: 1024,
            max_inflight: usize::MAX,
            admission: Admission::Reject,
            checkpoint_interval: None,
            default_deadline: None,
        }
    }
}

impl ServiceConfig {
    /// The worker-thread count this configuration resolves to:
    /// [`workers`](Self::workers), defaulting to
    /// [`std::thread::available_parallelism`], clamped to at least 1.
    /// This is exactly how many threads
    /// [`DtasService::start`](crate::service::DtasService::start) spawns.
    pub fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// Queue depth with the at-least-1 clamp applied.
    pub(crate) fn effective_depth(&self) -> usize {
        self.queue_depth.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_unbounded_inflight_reject() {
        let c = ServiceConfig::default();
        assert_eq!(c.admission, Admission::Reject);
        assert_eq!(c.max_inflight, usize::MAX);
        assert!(c.checkpoint_interval.is_none());
        assert!(c.worker_count() >= 1);
    }

    #[test]
    fn zero_depth_is_clamped() {
        let c = ServiceConfig {
            queue_depth: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(c.effective_depth(), 1);
    }
}
