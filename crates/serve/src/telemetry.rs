//! Serving-side telemetry: the one [`MetricsRegistry`] every counter,
//! gauge and latency histogram of the serving stack lives in, and the
//! flight recorder that retains span trees.
//!
//! [`LiveStats`] holds the [`ServeStats`] counters as handles into that
//! registry, each exported as `kspr_<field>`, so `stats_now()`,
//! `metrics()`, the `Metrics` opcode and the Prometheus scrape all read the
//! same atomics.  The dispatcher increments them *before* it sends each
//! answer: the mpsc channel's release/acquire edge then orders the
//! increment before the client's receive, so a snapshot taken after a
//! ticket resolved always includes that request.  The monitor's
//! classification stats are published the same way before a
//! (un)subscription is acknowledged; only an update's maintenance pass —
//! its notification counts and classification stats — lands after the
//! update's own acknowledgement.
//!
//! [`ServeMetrics`] owns the registry, the pre-resolved histogram handles
//! the hot path records into — per-[`Stage`] latency, per-tier and
//! per-algorithm totals, engine phases, WAL commit latency — the WAL
//! gauges, and the [`FlightRecorder`].

use crate::error::ServeError;
use crate::stats::{RejectionStats, ServeStats, REJECTION_VARIANTS};
use kspr::{Algorithm, QueryStats, QueryTier};
use kspr_monitor::MonitorStats;
use kspr_telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, RequestTrace,
    Stage, StageTimings, TraceId, TraceRecord,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn unpoisoned<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Declares [`LiveStats`] from one list of field names: each field is a
/// registry handle exported as `kspr_<field>`, and [`LiveStats::snapshot`]
/// copies it into the same-named [`ServeStats`] field (an exhaustive struct
/// literal, so the two cannot drift without a compile error).
macro_rules! live_stats {
    (counters: $($counter:ident),+; gauges: $($gauge:ident),+;) => {
        /// The [`ServeStats`] counters as handles into the serving
        /// registry.  The dispatcher thread is the only writer;
        /// [`LiveStats::snapshot`] can be read from any thread at any time.
        pub(crate) struct LiveStats {
            $(pub(crate) $counter: Arc<Counter>,)+
            $(pub(crate) $gauge: Arc<Gauge>,)+
            /// Per-variant rejection counters in [`RejectionStats::variants`]
            /// order, exported as `kspr_rejected_<variant>`.
            rejections: [Arc<Counter>; REJECTION_VARIANTS],
            /// The monitor's classification stats (the monitor itself lives
            /// on the dispatcher thread).
            monitor: Mutex<MonitorStats>,
        }

        impl LiveStats {
            fn register(registry: &MetricsRegistry) -> Self {
                Self {
                    $($counter: registry.counter(concat!("kspr_", stringify!($counter))),)+
                    $($gauge: registry.gauge(concat!("kspr_", stringify!($gauge))),)+
                    rejections: RejectionStats::default()
                        .variants()
                        .map(|(name, _)| registry.counter(&format!("kspr_rejected_{name}"))),
                    monitor: Mutex::default(),
                }
            }

            /// A plain-value copy of every counter.
            pub(crate) fn snapshot(&self) -> ServeStats {
                ServeStats {
                    $($counter: self.$counter.get(),)+
                    $($gauge: self.$gauge.get() as usize,)+
                    rejections: RejectionStats::from_counts(
                        self.rejections.each_ref().map(|counter| counter.get()),
                    ),
                    monitor: *unpoisoned(&self.monitor),
                }
            }
        }
    };
}

live_stats! {
    counters: queries, exact_queries, approx_queries, auto_routed_exact, auto_routed_approx,
        degraded_to_approx, rejected, batches, updates, update_batches,
        wal_commits, snapshots, compactions, subscriptions, notifications, deltas_coalesced,
        maintenance_failures;
    gauges: largest_batch, largest_update_batch;
}

impl LiveStats {
    /// Counts one rejection (total + per-variant).
    pub(crate) fn reject(&self, err: &ServeError) {
        self.rejected.inc();
        self.rejections[RejectionStats::index_of(err)].inc();
    }

    /// Publishes the monitor's classification stats.
    pub(crate) fn set_monitor(&self, stats: MonitorStats) {
        *unpoisoned(&self.monitor) = stats;
    }
}

/// The tier classes queries are bucketed under (by the tier they were
/// *submitted* with — an admission-degraded query still counts under the
/// class its client asked for).
pub(crate) const TIER_NAMES: [&str; 3] = ["exact", "approximate", "auto"];

/// Index into [`TIER_NAMES`] for a submitted tier.
pub(crate) fn tier_index(tier: &QueryTier) -> usize {
    match tier {
        QueryTier::Exact => 0,
        QueryTier::Approximate { .. } => 1,
        QueryTier::Auto { .. } => 2,
    }
}

/// Metric-name component per algorithm (indexed by `Algorithm as usize`).
const ALGORITHM_NAMES: [&str; 6] = ["cta", "pcta", "lp_cta", "k_skyband", "rtopk", "i_max_rank"];

/// How many complete span trees the flight recorder retains by default.
/// Configurable per server via `ServeOptions::flight_recorder_capacity`.
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// WAL size, in bytes, past which the server logs one warning per
/// snapshot epoch (the `kspr_wal_bytes` gauge crossing 64 MiB).
pub(crate) const WAL_WARN_BYTES: u64 = 64 << 20;

/// Trace ids the server assigns to requests that arrive without one.  They
/// start far above any plausible client-side counter so the two id spaces
/// don't collide in the flight recorder.
pub(crate) fn next_server_trace_id() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1 << 48);
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Everything the serving stack records: the registry (the
/// [`ServeStats`] counters, latency histograms and WAL gauges), the
/// slow-query threshold, and the flight recorder.
pub(crate) struct ServeMetrics {
    registry: MetricsRegistry,
    /// The [`ServeStats`] counters, as handles into `registry`.
    pub(crate) live: LiveStats,
    /// Per-pipeline-stage latency histograms, indexed by [`Stage::index`]
    /// (`kspr_stage_<stage>_ns`).
    stages: [Arc<Histogram>; Stage::COUNT],
    /// End-to-end latency by submitted tier class (`kspr_tier_<tier>_ns`).
    tiers: [Arc<Histogram>; TIER_NAMES.len()],
    /// End-to-end latency by algorithm (`kspr_algorithm_<name>_ns`).
    algorithms: [Arc<Histogram>; ALGORITHM_NAMES.len()],
    /// The exact engine's own wall time per query (`kspr_engine_wall_ns`,
    /// from [`QueryStats`] — excludes queueing and batching).
    engine_wall: Arc<Histogram>,
    /// Per-engine-phase wall time (`kspr_phase_<phase>_ns`, in
    /// [`kspr::Timing::iter`] order).
    phases: Vec<Arc<Histogram>>,
    /// Simplex pivots per exact query (`kspr_lp_pivots` — work, not time).
    lp_pivots: Arc<Histogram>,
    /// WAL commit (write + fsync) latency (`kspr_wal_commit_ns`).
    wal_commit: Arc<Histogram>,
    /// Fsyncs issued by the WAL writer (`kspr_wal_fsyncs`).
    wal_fsyncs: Arc<Counter>,
    /// Cumulative standing-query maintenance time (`kspr_maintenance_ns`).
    maintenance_ns: Arc<Counter>,
    /// Bytes in the WAL since the last snapshot (`kspr_wal_bytes`).
    wal_bytes: Arc<Gauge>,
    /// Snapshots installed since the store opened (`kspr_snapshot_epoch`).
    snapshot_epoch: Arc<Gauge>,
    /// Pending request-queue depth at snapshot time (`kspr_queue_depth`).
    queue_depth: Arc<Gauge>,
    /// Traced requests at least this slow (enqueue to ack) are retained in
    /// the flight recorder; `None` retains only client-pinned traces.
    slow_threshold_ns: Option<u64>,
    /// The bounded ring of retained span trees (client-pinned traces plus
    /// every trace that crossed the slow-query threshold).
    recorder: FlightRecorder,
    /// Set once the WAL crossed [`WAL_WARN_BYTES`] this epoch.
    wal_warned: AtomicBool,
}

impl ServeMetrics {
    pub(crate) fn new(
        slow_query_threshold: Option<Duration>,
        flight_recorder_capacity: usize,
    ) -> Self {
        let registry = MetricsRegistry::new();
        let live = LiveStats::register(&registry);
        let stages = Stage::ALL.map(|stage| {
            let name = format!("kspr_stage_{}_ns", stage.name());
            registry.describe(
                &name,
                &format!(
                    "Latency of the {} pipeline stage, in nanoseconds",
                    stage.name()
                ),
            );
            registry.histogram(&name)
        });
        let tiers = TIER_NAMES.map(|tier| {
            let name = format!("kspr_tier_{tier}_ns");
            registry.describe(
                &name,
                &format!(
                    "End-to-end latency of queries submitted under the {tier} tier, in nanoseconds"
                ),
            );
            registry.histogram(&name)
        });
        let algorithms = ALGORITHM_NAMES.map(|algorithm| {
            let name = format!("kspr_algorithm_{algorithm}_ns");
            registry.describe(
                &name,
                &format!("End-to-end latency of {algorithm} queries, in nanoseconds"),
            );
            registry.histogram(&name)
        });
        let phases = kspr::Timing::default()
            .iter()
            .map(|(phase, _)| {
                let name = format!("kspr_phase_{phase}_ns");
                registry.describe(
                    &name,
                    &format!(
                        "Engine wall time spent in the {phase} phase per exact query, in nanoseconds"
                    ),
                );
                registry.histogram(&name)
            })
            .collect();
        for (name, help) in [
            (
                "kspr_engine_wall_ns",
                "Exact engine wall time per query, excluding queueing and batching, in nanoseconds",
            ),
            (
                "kspr_lp_pivots",
                "Simplex pivots across the LP feasibility tests of one exact query",
            ),
            (
                "kspr_wal_commit_ns",
                "WAL commit (write + fsync) latency per update batch, in nanoseconds",
            ),
            ("kspr_wal_fsyncs", "Fsyncs issued by the WAL writer"),
            (
                "kspr_maintenance_ns",
                "Cumulative standing-query maintenance time, in nanoseconds",
            ),
            ("kspr_wal_bytes", "Bytes in the WAL since the last snapshot"),
            (
                "kspr_snapshot_epoch",
                "Snapshots installed since the store opened",
            ),
            (
                "kspr_queue_depth",
                "Pending request-queue depth at scrape time",
            ),
        ] {
            registry.describe(name, help);
        }
        let engine_wall = registry.histogram("kspr_engine_wall_ns");
        let lp_pivots = registry.histogram("kspr_lp_pivots");
        let wal_commit = registry.histogram("kspr_wal_commit_ns");
        let wal_fsyncs = registry.counter("kspr_wal_fsyncs");
        let maintenance_ns = registry.counter("kspr_maintenance_ns");
        let wal_bytes = registry.gauge("kspr_wal_bytes");
        let snapshot_epoch = registry.gauge("kspr_snapshot_epoch");
        let queue_depth = registry.gauge("kspr_queue_depth");
        Self {
            registry,
            live,
            stages,
            tiers,
            algorithms,
            engine_wall,
            phases,
            lp_pivots,
            wal_commit,
            wal_fsyncs,
            maintenance_ns,
            wal_bytes,
            snapshot_epoch,
            queue_depth,
            slow_threshold_ns: slow_query_threshold
                .map(|t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)),
            recorder: FlightRecorder::new(flight_recorder_capacity),
            wal_warned: AtomicBool::new(false),
        }
    }

    /// Records the listed stages of one finished request into the per-stage
    /// histograms.  Callers list exactly the stages their path stamped, so
    /// no histogram collects structural zeros from stages a path never
    /// visits (updates have no admission stage, queries no WAL stage).
    pub(crate) fn record_stages(&self, timings: &StageTimings, stages: &[Stage]) {
        for &stage in stages {
            self.stages[stage.index()].record(timings.stage_nanos(stage));
        }
    }

    /// Records one answered query's end-to-end latency under the tier
    /// class it was submitted with (an index into [`TIER_NAMES`]) and its
    /// algorithm.
    pub(crate) fn record_query(&self, tier: usize, algorithm: Algorithm, total_ns: u64) {
        self.tiers[tier].record(total_ns);
        self.algorithms[algorithm as usize].record(total_ns);
    }

    /// Records one exact answer's engine wall time, per-phase breakdown and
    /// LP pivot count.
    pub(crate) fn record_engine(&self, stats: &QueryStats) {
        self.engine_wall.record(stats.phases.wall_ns);
        for (histogram, (_, nanos)) in self.phases.iter().zip(stats.phases.iter()) {
            histogram.record(nanos);
        }
        self.lp_pivots.record(stats.lp_pivots as u64);
    }

    /// The trace an in-process submission starts under.  With a slow-query
    /// threshold set it collects spans under a server-assigned id, as every
    /// TCP request does, so a slow request reaches the flight recorder;
    /// otherwise it only times the stages.
    pub(crate) fn start_trace(&self) -> RequestTrace {
        match self.slow_threshold_ns {
            Some(_) => RequestTrace::traced(next_server_trace_id(), false),
            None => RequestTrace::start(),
        }
    }

    /// Closes a finished request's span tree and retains it in the flight
    /// recorder when it is worth keeping: the client pinned it (sent a
    /// trace id on the wire) or the request crossed the slow-query
    /// threshold.  Returns the trace id iff the tree was retained.
    pub(crate) fn finish_trace(&self, trace: RequestTrace, total_ns: u64) -> Option<TraceId> {
        let keep = trace.pinned() || self.slow_threshold_ns.is_some_and(|t| total_ns >= t);
        if !keep {
            return None;
        }
        let record = trace.finish()?;
        let trace_id = record.trace_id;
        self.recorder.record(record);
        Some(trace_id)
    }

    /// The flight recorder's retained span trees, oldest first.
    pub(crate) fn traces(&self) -> Vec<Arc<TraceRecord>> {
        self.recorder.snapshot()
    }

    /// The retained span tree of `trace_id`, if the recorder still holds it.
    pub(crate) fn trace(&self, trace_id: TraceId) -> Option<Arc<TraceRecord>> {
        self.recorder.find(trace_id)
    }

    /// Times one standing-query maintenance pass into the `Notify` stage
    /// histogram and the cumulative maintenance counter.
    pub(crate) fn record_maintenance(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.stages[Stage::Notify.index()].record(nanos);
        self.maintenance_ns.add(nanos);
    }

    /// Publishes the WAL's state after one committed batch: commit latency,
    /// fsync count, size gauge — and a (once-per-epoch) warning when the
    /// log outgrows the watermark without a compaction truncating it.
    pub(crate) fn wal_committed(&self, bytes: u64, commit_nanos: u64) {
        self.wal_commit.record(commit_nanos);
        self.wal_bytes.set(bytes);
        self.wal_fsyncs.inc();
        if bytes > WAL_WARN_BYTES && !self.wal_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "kspr-serve: WAL has grown to {bytes} bytes (watermark \
                 {WAL_WARN_BYTES}); recovery replay is getting long — the \
                 WAL is truncated by the next compaction (once more than \
                 half the record slots are deleted), by a clean \
                 Server::shutdown, or by Server::recover"
            );
        }
    }

    /// Publishes the WAL's state after a snapshot install truncated it.
    pub(crate) fn snapshot_installed(&self, wal_bytes: u64, epoch: u64) {
        self.wal_bytes.set(wal_bytes);
        self.snapshot_epoch.set(epoch);
        self.wal_warned.store(false, Ordering::Relaxed);
    }

    /// A [`MetricsSnapshot`] of every registered metric, with the queue
    /// depth gauge set to `queue_depth` first.
    pub(crate) fn snapshot(&self, queue_depth: u64) -> MetricsSnapshot {
        self.queue_depth.set(queue_depth);
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_stats_snapshot_mirrors_every_counter() {
        let live = LiveStats::register(&MetricsRegistry::new());
        live.queries.add(4);
        live.exact_queries.add(3);
        live.approx_queries.inc();
        live.reject(&ServeError::InvalidK);
        live.reject(&ServeError::Overloaded);
        live.reject(&ServeError::Overloaded);
        live.largest_batch.set_max(5);
        live.largest_batch.set_max(3); // high-water mark, not last-write
        live.updates.add(7);

        let snap = live.snapshot();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.exact_queries, 3);
        assert_eq!(snap.approx_queries, 1);
        assert_eq!(snap.rejected, 3);
        assert_eq!(snap.rejections.invalid_k, 1);
        assert_eq!(snap.rejections.overloaded, 2);
        assert_eq!(snap.rejections.total(), snap.rejected);
        assert_eq!(snap.largest_batch, 5);
        assert_eq!(snap.updates, 7);
    }

    #[test]
    fn live_counters_are_registry_series() {
        let metrics = ServeMetrics::new(None, 4);
        metrics.live.queries.add(9);
        metrics.live.reject(&ServeError::QuotaExceeded);
        metrics.live.reject(&ServeError::QuotaExceeded);
        metrics.live.largest_batch.set_max(4);
        let snap = metrics.snapshot(3);
        assert_eq!(snap.counter("kspr_queries"), Some(9));
        assert_eq!(snap.counter("kspr_rejected"), Some(2));
        assert_eq!(snap.counter("kspr_rejected_quota_exceeded"), Some(2));
        assert_eq!(snap.gauge("kspr_largest_batch"), Some(4));
        assert_eq!(snap.gauge("kspr_queue_depth"), Some(3));
        for (variant, _) in RejectionStats::default().variants() {
            let name = format!("kspr_rejected_{variant}");
            assert!(snap.counter(&name).is_some(), "{name} must be exported");
        }
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE kspr_queries counter\nkspr_queries 9\n"));
        assert!(text.contains("# TYPE kspr_largest_batch gauge\nkspr_largest_batch 4\n"));
        assert_eq!(
            text.matches("\nkspr_queries ").count(),
            1,
            "one series per counter"
        );
    }

    #[test]
    fn slow_traces_are_retained_up_to_capacity() {
        let metrics = ServeMetrics::new(Some(Duration::from_nanos(1_000)), 4);
        // With a threshold set, in-process submissions are traced under
        // server-assigned, unpinned ids.
        let trace = metrics.start_trace();
        assert!(trace.trace_id().is_some_and(|id| id.0 >= 1 << 48));
        assert!(!trace.pinned());
        assert_eq!(metrics.finish_trace(trace, 999), None, "below threshold");
        for id in 1..=6 {
            let trace = RequestTrace::traced(TraceId(id), false);
            assert_eq!(metrics.finish_trace(trace, 1_000 + id), Some(TraceId(id)));
        }
        let kept: Vec<TraceId> = metrics.traces().iter().map(|r| r.trace_id).collect();
        assert_eq!(
            kept,
            [3, 4, 5, 6].map(TraceId),
            "the recorder is bounded and evicts oldest-first"
        );
    }

    #[test]
    fn disabled_threshold_retains_nothing() {
        let metrics = ServeMetrics::new(None, 4);
        let trace = metrics.start_trace();
        assert_eq!(trace.trace_id(), None, "no threshold: stage timing only");
        assert_eq!(metrics.finish_trace(trace, u64::MAX), None);
        let unpinned = RequestTrace::traced(TraceId(1), false);
        assert_eq!(metrics.finish_trace(unpinned, u64::MAX), None);
        assert!(metrics.traces().is_empty());
    }

    #[test]
    fn flight_recorder_keeps_pinned_and_slow_traces() {
        let metrics = ServeMetrics::new(Some(Duration::from_nanos(1_000)), 4);
        // A client-pinned trace is kept regardless of latency.
        let pinned = RequestTrace::traced(TraceId(7), true);
        assert_eq!(metrics.finish_trace(pinned, 0), Some(TraceId(7)));
        // An unpinned fast trace is dropped ...
        let fast = RequestTrace::traced(TraceId(8), false);
        assert_eq!(metrics.finish_trace(fast, 0), None);
        // ... an unpinned slow one is kept ...
        let slow = RequestTrace::traced(TraceId(9), false);
        assert_eq!(metrics.finish_trace(slow, 5_000), Some(TraceId(9)));
        // ... and an untraced request never enters the recorder.
        assert_eq!(metrics.finish_trace(RequestTrace::start(), 5_000), None);
        assert!(metrics.trace(TraceId(7)).is_some());
        assert!(metrics.trace(TraceId(8)).is_none());
        assert_eq!(metrics.traces().len(), 2);
    }

    #[test]
    fn phase_histograms_record_engine_breakdowns() {
        let metrics = ServeMetrics::new(None, 4);
        let mut stats = QueryStats::new();
        stats.phases.prep_ns = 100;
        stats.phases.expansion_ns = 400;
        stats.phases.lp_ns = 250;
        stats.phases.dominance_ns = 30;
        stats.lp_pivots = 17;
        metrics.record_engine(&stats);
        let snap = metrics.snapshot(0);
        assert_eq!(snap.histogram("kspr_engine_wall_ns").unwrap().count(), 1);
        for (phase, _) in kspr::Timing::default().iter() {
            let histogram = snap.histogram(&format!("kspr_phase_{phase}_ns")).unwrap();
            assert_eq!(histogram.count(), 1, "{phase}");
        }
        assert_eq!(snap.histogram("kspr_lp_pivots").unwrap().sum(), 17);
    }

    #[test]
    fn server_trace_ids_are_unique_and_high() {
        let a = next_server_trace_id();
        let b = next_server_trace_id();
        assert_ne!(a, b);
        assert!(a.0 >= 1 << 48);
    }

    #[test]
    fn wal_watermark_warns_once_per_epoch() {
        let metrics = ServeMetrics::new(None, 4);
        // At the watermark, not past it: no warning yet.
        metrics.wal_committed(WAL_WARN_BYTES, 10);
        assert!(!metrics.wal_warned.load(Ordering::Relaxed));
        metrics.wal_committed(WAL_WARN_BYTES + 1, 10);
        assert!(metrics.wal_warned.load(Ordering::Relaxed));
        metrics.snapshot_installed(0, 1);
        assert!(
            !metrics.wal_warned.load(Ordering::Relaxed),
            "a snapshot truncates the WAL and re-arms the warning"
        );
        let snap = metrics.snapshot(0);
        assert_eq!(snap.counter("kspr_wal_fsyncs"), Some(2));
        assert_eq!(snap.gauge("kspr_wal_bytes"), Some(0));
        assert_eq!(snap.gauge("kspr_snapshot_epoch"), Some(1));
        assert_eq!(snap.histogram("kspr_wal_commit_ns").unwrap().count(), 2);
    }
}
