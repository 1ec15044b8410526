//! The admission layer: the gate between *enqueue* and *dispatch*.
//!
//! Every query is stamped at enqueue time with the pending-queue depth and
//! its client's count of queued queries (`Stamp`); when the dispatcher
//! dequeues the query it judges those stamped values against
//! [`AdmissionOptions`]:
//!
//! * past [`AdmissionOptions::hard_limit`] pending queries the request is
//!   rejected with [`ServeError::Overloaded`];
//! * past [`AdmissionOptions::client_quota`] queued queries *from the
//!   same client* it is rejected with [`ServeError::QuotaExceeded`];
//! * past [`AdmissionOptions::degrade_watermark`] pending queries a
//!   tier-dispatched query ([`crate::ServeHandle::submit_tiered`]) is
//!   **degraded**: its exact-capable tier is replaced with
//!   `Approximate` under the default [`kspr::ErrorBudget`], trading a
//!   guaranteed-error estimate for a bounded, dataset-size-independent cost.  Fixed-type submissions
//!   ([`crate::ServeHandle::submit`] / `submit_approx`) cannot change their
//!   answer type and pass through undegraded.
//!
//! Judging the *stamped* values — not the live counters at dispatch time —
//! keeps the policy deterministic: the verdict depends only on the state
//! the queue was in when the client submitted, never on how fast the
//! dispatcher drained behind it.  All three limits default to "off"
//! (`usize::MAX`); every verdict is counted in [`crate::ServeStats`].

use crate::error::ServeError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Admission-control thresholds (all default to "off").
#[derive(Debug, Clone, Copy)]
pub struct AdmissionOptions {
    /// Pending-queue depth beyond which tier-dispatched queries are
    /// downgraded to `Approximate` under the default [`kspr::ErrorBudget`].
    pub degrade_watermark: usize,
    /// Pending-queue depth beyond which queries are rejected with
    /// [`ServeError::Overloaded`].
    pub hard_limit: usize,
    /// Per-client cap on queued queries; beyond it the client's queries are
    /// rejected with [`ServeError::QuotaExceeded`].  A client is one
    /// [`crate::Server::handle`] call and its clones
    /// ([`crate::ServeHandle::fork_client`] starts a new one).
    ///
    /// Like the queue depth, the count covers only queries the dispatcher
    /// has not yet taken up: a query leaves it when the dispatcher routes
    /// it into a batch, before that batch runs, so a query that is being
    /// answered no longer counts.
    pub client_quota: usize,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        Self {
            degrade_watermark: usize::MAX,
            hard_limit: usize::MAX,
            client_quota: usize::MAX,
        }
    }
}

/// The dispatcher's verdict on one stamped query.
pub(crate) enum Verdict {
    /// Serve as requested.
    Accept,
    /// Serve, but downgrade an exact-capable tier to the approximate tier.
    Degrade,
    /// Turn the query away.
    Reject(ServeError),
}

impl AdmissionOptions {
    /// Judges one query by the queue state stamped at its enqueue.
    /// Ordered strictest first: a query past the hard limit is `Overloaded`
    /// even if its client is also over quota.
    pub(crate) fn admit(&self, stamp: &Stamp) -> Verdict {
        if stamp.depth > self.hard_limit {
            return Verdict::Reject(ServeError::Overloaded);
        }
        if stamp.queued > self.client_quota {
            return Verdict::Reject(ServeError::QuotaExceeded);
        }
        if stamp.depth > self.degrade_watermark {
            return Verdict::Degrade;
        }
        Verdict::Accept
    }
}

/// The admission stamp a query carries from enqueue to dispatch: the
/// pending-queue depth and the client's queued-query count, both *including*
/// this query, as they were the moment it was submitted.
///
/// The stamp owns its slot in both counters and releases it on drop, so
/// the accounting stays exact on every exit path — answered, rejected,
/// degraded, or drained at shutdown.
pub(crate) struct Stamp {
    depth: usize,
    queued: usize,
    queue: Arc<AtomicUsize>,
    client: Arc<AtomicUsize>,
}

impl Stamp {
    /// Claims a slot in the shared queue-depth counter and the client's
    /// queued-query counter, recording both post-increment values.
    pub(crate) fn acquire(queue: &Arc<AtomicUsize>, client: &Arc<AtomicUsize>) -> Self {
        Self {
            depth: queue.fetch_add(1, Ordering::AcqRel) + 1,
            queued: client.fetch_add(1, Ordering::AcqRel) + 1,
            queue: Arc::clone(queue),
            client: Arc::clone(client),
        }
    }
}

impl Drop for Stamp {
    fn drop(&mut self) {
        self.queue.fetch_sub(1, Ordering::AcqRel);
        self.client.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> (Arc<AtomicUsize>, Arc<AtomicUsize>) {
        (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)))
    }

    #[test]
    fn stamps_record_depth_including_themselves_and_release_on_drop() {
        let (queue, client) = counters();
        let a = Stamp::acquire(&queue, &client);
        let b = Stamp::acquire(&queue, &client);
        assert_eq!((a.depth, a.queued), (1, 1));
        assert_eq!((b.depth, b.queued), (2, 2));
        drop(a);
        drop(b);
        assert_eq!(queue.load(Ordering::Acquire), 0);
        assert_eq!(client.load(Ordering::Acquire), 0);
    }

    #[test]
    fn verdict_order_is_hard_limit_then_quota_then_watermark() {
        let (queue, client) = counters();
        let stamp = Stamp::acquire(&queue, &client); // depth = queued = 1
        let defaults = AdmissionOptions::default();
        assert!(matches!(defaults.admit(&stamp), Verdict::Accept));

        let overloaded = AdmissionOptions {
            hard_limit: 0,
            client_quota: 0,
            degrade_watermark: 0,
        };
        assert!(matches!(
            overloaded.admit(&stamp),
            Verdict::Reject(ServeError::Overloaded)
        ));

        let quota = AdmissionOptions {
            client_quota: 0,
            degrade_watermark: 0,
            ..defaults
        };
        assert!(matches!(
            quota.admit(&stamp),
            Verdict::Reject(ServeError::QuotaExceeded)
        ));

        let watermark = AdmissionOptions {
            degrade_watermark: 0,
            ..defaults
        };
        assert!(matches!(watermark.admit(&stamp), Verdict::Degrade));
    }
}
