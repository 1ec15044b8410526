//! Serving-side counters: per-variant rejection counts and the aggregate
//! [`ServeStats`] every layer of the stack reports into.

use crate::error::ServeError;
use kspr_monitor::MonitorStats;

/// Per-[`ServeError`]-variant rejection counters (see [`ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// Requests with `k == 0`.
    pub invalid_k: u64,
    /// Requests whose arity does not match the dataset.
    pub arity_mismatch: u64,
    /// Requests containing NaN / infinite values.
    pub non_finite: u64,
    /// Requests whose error budget is malformed or too fine to sample for.
    pub invalid_budget: u64,
    /// Requests for an algorithm the dataset (or the monitor) cannot serve.
    pub unsupported_algorithm: u64,
    /// Queries lost to an engine panic (the server kept serving).
    pub query_failed: u64,
    /// Updates lost to an engine panic or a failed WAL commit (the server
    /// stopped).
    pub update_failed: u64,
    /// Queries admission control turned away: the pending queue was past
    /// its hard depth limit (see [`crate::AdmissionOptions::hard_limit`]).
    pub overloaded: u64,
    /// Queries admission control turned away: the submitting client was
    /// past its quota of queued queries (see
    /// [`crate::AdmissionOptions::client_quota`]).
    pub quota_exceeded: u64,
    /// Requests still pending when the server shut down, drained and
    /// resolved with [`ServeError::Shutdown`] instead of left to observe a
    /// dead channel.
    pub shutdown: u64,
    /// Requests that raced the shutdown (normally unreachable: the
    /// dispatcher never *answers* with this variant, clients synthesize it
    /// when the channel is gone).
    pub server_closed: u64,
}

/// Number of [`ServeError`] variants (= entries of
/// [`RejectionStats::variants`]).
pub const REJECTION_VARIANTS: usize = 11;

impl RejectionStats {
    /// Every per-variant counter as `(name, count)`, in declaration order.
    ///
    /// The exhaustive destructure is the point: adding a `ServeError`
    /// variant without listing its counter here fails to compile, so
    /// [`RejectionStats::total`] (a sum over this listing) can never
    /// silently under-count.
    pub fn variants(&self) -> [(&'static str, u64); REJECTION_VARIANTS] {
        let Self {
            invalid_k,
            arity_mismatch,
            non_finite,
            invalid_budget,
            unsupported_algorithm,
            query_failed,
            update_failed,
            overloaded,
            quota_exceeded,
            shutdown,
            server_closed,
        } = *self;
        [
            ("invalid_k", invalid_k),
            ("arity_mismatch", arity_mismatch),
            ("non_finite", non_finite),
            ("invalid_budget", invalid_budget),
            ("unsupported_algorithm", unsupported_algorithm),
            ("query_failed", query_failed),
            ("update_failed", update_failed),
            ("overloaded", overloaded),
            ("quota_exceeded", quota_exceeded),
            ("shutdown", shutdown),
            ("server_closed", server_closed),
        ]
    }

    /// Total rejections across all variants.
    pub fn total(&self) -> u64 {
        self.variants().iter().map(|&(_, count)| count).sum()
    }

    /// Index of `err`'s counter in [`RejectionStats::variants`] order (the
    /// dispatcher's live counters are kept in this order).
    pub(crate) fn index_of(err: &ServeError) -> usize {
        match err {
            ServeError::InvalidK => 0,
            ServeError::ArityMismatch { .. } => 1,
            ServeError::NonFinite => 2,
            ServeError::InvalidBudget => 3,
            ServeError::UnsupportedAlgorithm => 4,
            ServeError::QueryFailed => 5,
            ServeError::UpdateFailed => 6,
            ServeError::Overloaded => 7,
            ServeError::QuotaExceeded => 8,
            ServeError::Shutdown => 9,
            ServeError::ServerClosed => 10,
        }
    }

    /// Rebuilds the per-variant counters from values listed in
    /// [`RejectionStats::variants`] order.
    pub(crate) fn from_counts(counts: [u64; REJECTION_VARIANTS]) -> Self {
        let [invalid_k, arity_mismatch, non_finite, invalid_budget, unsupported_algorithm, query_failed, update_failed, overloaded, quota_exceeded, shutdown, server_closed] =
            counts;
        Self {
            invalid_k,
            arity_mismatch,
            non_finite,
            invalid_budget,
            unsupported_algorithm,
            query_failed,
            update_failed,
            overloaded,
            quota_exceeded,
            shutdown,
            server_closed,
        }
    }
}

/// Serving-side counters, returned by [`crate::Server::shutdown`] and
/// readable live through [`crate::ServeHandle::stats_now`] — a typed view
/// of the registry series `kspr_<field>` (see
/// [`crate::ServeHandle::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered successfully.
    pub queries: u64,
    /// Queries answered by the exact engine (always:
    /// `exact_queries + approx_queries == queries`).
    pub exact_queries: u64,
    /// Queries answered by the approximate tier.
    pub approx_queries: u64,
    /// `Auto`-tier queries the cost estimate routed to the exact engine
    /// (a subset of `exact_queries`).
    pub auto_routed_exact: u64,
    /// `Auto`-tier queries the cost estimate routed to sampling (a subset
    /// of `approx_queries`).
    pub auto_routed_approx: u64,
    /// Tier-dispatched queries admission control downgraded from an
    /// exact-capable tier to `Approximate` because the pending queue was
    /// past the degradation watermark (a subset of `approx_queries`; see
    /// [`crate::AdmissionOptions::degrade_watermark`]).
    pub degraded_to_approx: u64,
    /// Requests rejected with a [`ServeError`] (total; always equals
    /// [`RejectionStats::total`] of `rejections`).
    pub rejected: u64,
    /// Rejections broken down by error variant.
    pub rejections: RejectionStats,
    /// `run_batch` invocations (every batch answers >= 1 query).
    pub batches: u64,
    /// Largest query batch executed at once.
    pub largest_batch: usize,
    /// Updates (inserts + deletes) applied — and, on a durable server,
    /// committed to the WAL before their tickets were acknowledged.
    pub updates: u64,
    /// Update-maintenance batches the dispatcher drained (each covers >= 1
    /// applied update; bounded by [`crate::MAINTENANCE_WINDOW`]).
    pub update_batches: u64,
    /// Largest number of updates drained into one maintenance batch.
    pub largest_update_batch: usize,
    /// WAL commits (group fsyncs) issued — at most one per update batch,
    /// plus one per subscribe/unsubscribe registry change; zero on a
    /// non-durable server.
    pub wal_commits: u64,
    /// Epoch snapshots installed while serving (after compactions and at
    /// clean shutdown; zero on a non-durable server).
    pub snapshots: u64,
    /// Tombstone compactions the dispatcher triggered (dead record slots
    /// exceeded half the id space after an update batch; see
    /// [`crate::ShardedEngine::compact`]).
    pub compactions: u64,
    /// Standing queries registered over the server's lifetime.
    pub subscriptions: u64,
    /// [`kspr_monitor::ResultDelta`] notifications delivered to subscribers.
    pub notifications: u64,
    /// Notifications merged into an already-pending delta because a slow
    /// subscriber let its queue reach [`crate::MAX_PENDING_DELTAS`] (a
    /// subset of `notifications`).
    pub deltas_coalesced: u64,
    /// Standing-query maintenance passes that panicked after a committed
    /// update.  Each one invalidated the registry (subscribers must
    /// re-subscribe); the update itself succeeded, so these are *not*
    /// rejections.
    pub maintenance_failures: u64,
    /// Standing-query classification counters (see `kspr-monitor`).
    pub monitor: MonitorStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_the_sum_over_variants() {
        // Distinct primes per field, so a swapped or dropped counter in
        // `variants()` cannot cancel out.
        let counts: [u64; REJECTION_VARIANTS] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];
        let stats = RejectionStats::from_counts(counts);
        let variants = stats.variants();
        assert_eq!(
            stats.total(),
            variants.iter().map(|&(_, count)| count).sum::<u64>()
        );
        assert_eq!(stats.total(), counts.iter().sum::<u64>());
        // The listing preserves declaration order and hits every field.
        assert_eq!(
            variants.map(|(_, count)| count),
            counts,
            "variants() must export the counters in declaration order"
        );
        let names: Vec<&str> = variants.iter().map(|&(name, _)| name).collect();
        assert_eq!(names.len(), REJECTION_VARIANTS);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "variant names must be distinct");
    }

    #[test]
    fn every_error_variant_maps_to_its_counter() {
        let errors = [
            ServeError::InvalidK,
            ServeError::ArityMismatch {
                expected: 3,
                got: 2,
            },
            ServeError::NonFinite,
            ServeError::InvalidBudget,
            ServeError::UnsupportedAlgorithm,
            ServeError::QueryFailed,
            ServeError::UpdateFailed,
            ServeError::Overloaded,
            ServeError::QuotaExceeded,
            ServeError::Shutdown,
            ServeError::ServerClosed,
        ];
        assert_eq!(errors.len(), REJECTION_VARIANTS);
        let mut counts = [0u64; REJECTION_VARIANTS];
        for err in &errors {
            counts[RejectionStats::index_of(err)] += 1;
        }
        let stats = RejectionStats::from_counts(counts);
        assert_eq!(stats.total(), errors.len() as u64);
        for (name, count) in stats.variants() {
            assert_eq!(count, 1, "variant {name} must count exactly once");
        }
    }
}
