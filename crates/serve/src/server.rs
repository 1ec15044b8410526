//! The serving front-end: handles, server lifecycle, and the layered
//! service around the dispatch core.
//!
//! The serving stack is layered; this module is the orchestration shell
//! that wires the layers together:
//!
//! ```text
//!   kspr-wire (net)      TCP frames -> ServeHandle calls
//!        |
//!   admission            enqueue-time stamps, dispatch-time verdicts
//!        |
//!   dispatch (batch)     one thread: update order, query batching,
//!        |               standing-query maintenance
//!   persist (kspr-durable)  WAL commits before acks, epoch snapshots
//! ```
//!
//! [`Server::start`] moves a [`ShardedEngine`] onto a dispatcher thread and
//! returns a handle factory; [`Server::start_durable`] does the same with a
//! WAL/snapshot directory attached, and [`Server::recover`] rebuilds the
//! engine and the standing-query registry from such a directory after a
//! crash (bit-identical to a server that never went down — see the
//! `persist` module).  Clients talk to the engine exclusively through
//! cloneable [`ServeHandle`]s:
//!
//! * [`ServeHandle::submit`] enqueues one query and returns a [`Ticket`] —
//!   a future-like receiver resolved when the dispatcher answers;
//! * [`ServeHandle::submit_many`] enqueues a whole batch at once;
//! * [`ServeHandle::insert`] / [`ServeHandle::delete`] enqueue updates,
//!   serialized with the queries around them (a query submitted after an
//!   insert sees the inserted record).
//!
//! The dispatcher drains the queue greedily: consecutive pending queries are
//! grouped by `(algorithm, k)` and answered through one
//! [`ShardedEngine::run_batch`] call each — the batched-dequeue pattern —
//! while the shared candidate engine and the per-shard prep caches carry over
//! between batches.  Invalid requests (`k == 0`, arity mismatch, non-finite
//! focal values) are rejected with a [`ServeError`] instead of panicking the
//! serving thread; [`ServeStats`] counts every rejection per error variant.
//!
//! Every query is stamped at enqueue with the pending-queue depth and its
//! client's queued-query count; the dispatcher judges the stamp against
//! [`AdmissionOptions`] — past the degradation watermark tier-dispatched
//! queries are downgraded to the approximate tier, past the hard limit (or
//! the per-client quota) they are rejected outright (see the `admission`
//! module).  At shutdown ([`Server::shutdown`] or dropping the server)
//! every request still pending resolves with [`ServeError::Shutdown`]
//! instead of hanging on a dead channel.
//!
//! # Standing queries
//!
//! [`ServeHandle::subscribe`] registers a long-lived query with the
//! dispatcher's [`kspr_monitor::Monitor`] and returns a
//! [`Subscription`](crate::Subscription).
//! After every update batch the dispatcher classifies each standing query as
//! unaffected / patchable / must-rerun (see the `kspr-monitor` crate docs),
//! maintains it accordingly, and pushes a [`kspr_monitor::ResultDelta`] to
//! the subscription whenever its result actually changed.  Because the
//! monitor runs on the dispatcher thread, updates and notifications stay
//! serialized with the query stream: a notification always reflects exactly
//! the updates acknowledged before it.  Dropping a subscription
//! unregisters the standing query (no maintenance state leaks from a
//! long-lived server).  If a maintenance pass itself panics (after the
//! update was committed and acknowledged), the registry is invalidated
//! rather than served stale: every subscription's channel closes and
//! clients re-subscribe.
//!
//! Updates use the same batched-dequeue pattern as queries: the dispatcher
//! greedily drains further *already-queued* consecutive inserts/deletes —
//! up to [`crate::MAINTENANCE_WINDOW`], never waiting for more
//! to arrive — applies each one, commits the whole batch to the WAL (one
//! fsync — on a durable server), acknowledges each ticket, then runs
//! **one** standing-query maintenance pass
//! ([`kspr_monitor::Monitor::apply_batch`]) over the whole batch, so a burst
//! of updates shares its classification probes and coalesces per-query
//! engine re-runs.  A subscriber that stops draining its notifications does
//! not grow dispatcher memory without bound: each subscription holds at most
//! [`MAX_PENDING_DELTAS`](crate::MAX_PENDING_DELTAS) pending deltas, after
//! which newer deltas are merged into the newest pending one (deltas chain,
//! so the merged delta still spans exactly the missed updates).  After every update batch the
//! dispatcher also checks the pool's tombstone ratio and, past 50% dead
//! slots, compacts the shards in place ([`ShardedEngine::compact`]) —
//! global record ids survive, so clients and standing-query bookkeeping
//! never notice.  On a durable server a compaction also installs a fresh
//! epoch snapshot, truncating the WAL.

use crate::admission::{AdmissionOptions, Stamp};
use crate::batch::{QueryJob, Sink};
use crate::dispatch::{dispatch, reject_msg, DispatchConfig, Msg};
use crate::error::{ServeError, Ticket};
use crate::persist::{recover_state, snapshot_of, Persist, RecoverError};
use crate::sharded::ShardedEngine;
use crate::stats::ServeStats;
use crate::subscription::{DeltaQueue, SubscribeTicket};
use crate::telemetry::ServeMetrics;
use kspr::{Algorithm, ApproxImpact, ErrorBudget, KsprConfig, KsprResult, QueryTier, RecordId};
use kspr_approx::TieredResult;
use kspr_durable::DurableStore;
use kspr_monitor::{Monitor, QueryId};
use kspr_telemetry::{MetricsSnapshot, RequestTrace, TraceId, TraceRecord};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.  The rest of the serving setup is fixed: queries
/// without an explicit algorithm run LP-CTA (the paper's Section 6), a
/// queue drain merges at most 64 queries into one `run_batch` call, an
/// update drain applies at most [`crate::MAINTENANCE_WINDOW`] updates per
/// maintenance pass, and the WAL-size warning fires past 64 MiB.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Admission-control thresholds (all off by default; see the
    /// `admission` module).
    pub admission: AdmissionOptions,
    /// Requests whose end-to-end latency (enqueue to acknowledgement) meets
    /// this threshold have their span tree retained in the flight recorder
    /// (read through [`ServeHandle::traces`]).  While it is set,
    /// in-process submissions are traced under server-assigned ids, as TCP
    /// requests always are.  `None` (the default) retains only
    /// client-pinned traces; `Some(Duration::ZERO)` retains every request.
    pub slow_query_threshold: Option<Duration>,
    /// How many complete span trees the flight recorder retains (most
    /// recent wins).  Traced requests enter the recorder when the client
    /// pinned them with a wire trace id or when they crossed
    /// [`ServeOptions::slow_query_threshold`].  Default
    /// [`crate::FLIGHT_RECORDER_CAPACITY`].
    pub flight_recorder_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            admission: AdmissionOptions::default(),
            slow_query_threshold: None,
            flight_recorder_capacity: crate::FLIGHT_RECORDER_CAPACITY,
        }
    }
}

/// A cloneable client handle onto a running [`Server`].
///
/// Clones share one admission identity (they draw from the same per-client
/// quota); [`ServeHandle::fork_client`] starts a fresh one — the
/// TCP front-end forks per connection.
#[derive(Clone)]
pub struct ServeHandle {
    tx: mpsc::Sender<Msg>,
    queue: Arc<AtomicUsize>,
    client: Arc<AtomicUsize>,
    closing: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
}

impl ServeHandle {
    /// Enqueues `msg`, resolving it immediately when the server is shutting
    /// down (or gone) instead of letting the ticket observe a dead channel.
    fn enqueue(&self, msg: Msg) {
        if self.closing.load(Ordering::Acquire) {
            reject_msg(msg, &ServeError::Shutdown);
            return;
        }
        if let Err(mpsc::SendError(msg)) = self.tx.send(msg) {
            // The channel died: an orderly shutdown if the flag was raised
            // (raised *before* the dispatcher is told to stop, so this read
            // observes it), a crashed dispatcher otherwise.
            let err = if self.closing.load(Ordering::Acquire) {
                ServeError::Shutdown
            } else {
                ServeError::ServerClosed
            };
            reject_msg(msg, &err);
        }
    }

    /// Stamps one query with the current admission state.
    fn stamp(&self) -> Stamp {
        Stamp::acquire(&self.queue, &self.client)
    }

    /// A handle with a **fresh admission identity**: queries submitted
    /// through it count against their own per-client quota, not
    /// this handle's.  (Plain `clone` shares the identity.)
    pub fn fork_client(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            queue: Arc::clone(&self.queue),
            client: Arc::new(AtomicUsize::new(0)),
            closing: Arc::clone(&self.closing),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Enqueues one LP-CTA query.
    pub fn submit(&self, focal: Vec<f64>, k: usize) -> Ticket<KsprResult> {
        self.submit_with(Algorithm::LpCta, focal, k)
    }

    /// Enqueues one query with an explicit algorithm.
    pub fn submit_with(
        &self,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
    ) -> Ticket<KsprResult> {
        self.submit_with_trace(algorithm, focal, k, self.metrics.start_trace())
    }

    /// [`ServeHandle::submit_with`] under a caller-built [`RequestTrace`]
    /// (usually [`RequestTrace::traced`], so the request grows a span tree
    /// the flight recorder can retain).
    pub(crate) fn submit_with_trace(
        &self,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
        trace: RequestTrace,
    ) -> Ticket<KsprResult> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Query(QueryJob {
            algorithm,
            focal,
            k,
            tier: QueryTier::Exact,
            stamp: self.stamp(),
            sink: Sink::Exact(tx),
            trace,
        }));
        ticket
    }

    /// Enqueues one approximate query: the answer is a market-impact
    /// estimate meeting `budget` instead of exact regions.  Consecutive
    /// approximate submissions with the same `(k, budget)` are answered
    /// through one shared sampling sweep
    /// ([`ShardedEngine::run_approx_batch`]) — batched separately from the
    /// exact queries around them.
    pub fn submit_approx(
        &self,
        focal: Vec<f64>,
        k: usize,
        budget: ErrorBudget,
    ) -> Ticket<ApproxImpact> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Query(QueryJob {
            algorithm: Algorithm::LpCta,
            focal,
            k,
            tier: QueryTier::Approximate { budget },
            stamp: self.stamp(),
            sink: Sink::Approx(tx),
            trace: self.metrics.start_trace(),
        }));
        ticket
    }

    /// Enqueues one query under an explicit per-request [`QueryTier`]; the
    /// ticket resolves to whichever answer the tier produced (`Auto` is
    /// routed by the dispatcher's cost estimate at dispatch time, counted in
    /// [`ServeStats`]).  This is the only submission path admission control
    /// may **degrade**: past the watermark an exact-capable tier is answered
    /// approximately instead (see [`AdmissionOptions::degrade_watermark`]).
    pub fn submit_tiered(
        &self,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
        tier: QueryTier,
    ) -> Ticket<TieredResult> {
        self.submit_tiered_trace(algorithm, focal, k, tier, self.metrics.start_trace())
    }

    /// [`ServeHandle::submit_tiered`] under a caller-built [`RequestTrace`].
    pub(crate) fn submit_tiered_trace(
        &self,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
        tier: QueryTier,
        trace: RequestTrace,
    ) -> Ticket<TieredResult> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Query(QueryJob {
            algorithm,
            focal,
            k,
            tier,
            stamp: self.stamp(),
            sink: Sink::Tiered(tx),
            trace,
        }));
        ticket
    }

    /// Enqueues a whole batch of same-`k` LP-CTA queries at once; the
    /// dispatcher answers them through a single [`ShardedEngine::run_batch`]
    /// call, whatever its size.
    pub fn submit_many(&self, focals: Vec<Vec<f64>>, k: usize) -> Vec<Ticket<KsprResult>> {
        let mut jobs = Vec::with_capacity(focals.len());
        let mut tickets = Vec::with_capacity(focals.len());
        for focal in focals {
            let (tx, ticket) = Ticket::new();
            jobs.push(QueryJob {
                algorithm: Algorithm::LpCta,
                focal,
                k,
                tier: QueryTier::Exact,
                stamp: self.stamp(),
                sink: Sink::Exact(tx),
                trace: self.metrics.start_trace(),
            });
            tickets.push(ticket);
        }
        self.enqueue(Msg::Batch(jobs));
        tickets
    }

    /// Enqueues an insert; resolves to the new record's global id.
    pub fn insert(&self, values: Vec<f64>) -> Ticket<RecordId> {
        self.insert_trace(values, self.metrics.start_trace())
    }

    /// [`ServeHandle::insert`] under a caller-built [`RequestTrace`].
    pub(crate) fn insert_trace(&self, values: Vec<f64>, trace: RequestTrace) -> Ticket<RecordId> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Insert { values, tx, trace });
        ticket
    }

    /// Enqueues a delete; resolves to whether a live record was removed.
    pub fn delete(&self, id: RecordId) -> Ticket<bool> {
        self.delete_trace(id, self.metrics.start_trace())
    }

    /// [`ServeHandle::delete`] under a caller-built [`RequestTrace`].
    pub(crate) fn delete_trace(&self, id: RecordId, trace: RequestTrace) -> Ticket<bool> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Delete { id, tx, trace });
        ticket
    }

    /// Registers a standing LP-CTA query; resolves to a [`Subscription`](crate::Subscription) that yields a
    /// [`kspr_monitor::ResultDelta`] after every update that changed the
    /// query's result.
    pub fn subscribe(&self, focal: Vec<f64>, k: usize) -> SubscribeTicket {
        self.subscribe_with(Algorithm::LpCta, focal, k)
    }

    /// Registers a standing query with an explicit algorithm (CellTree
    /// policies only; the sweep baselines resolve to
    /// [`ServeError::UnsupportedAlgorithm`]).
    pub fn subscribe_with(
        &self,
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
    ) -> SubscribeTicket {
        let queue = DeltaQueue::new();
        let (tx, rx) = mpsc::channel();
        self.enqueue(Msg::Subscribe {
            algorithm,
            focal,
            k,
            deltas: Arc::clone(&queue),
            tx,
        });
        SubscribeTicket {
            rx,
            deltas: queue,
            control: self.tx.clone(),
        }
    }

    /// Unregisters a standing query by id; resolves to whether it was still
    /// registered.  (Dropping the [`Subscription`](crate::Subscription)
    /// unregisters implicitly.)
    pub fn unsubscribe(&self, id: QueryId) -> Ticket<bool> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Unsubscribe { id, tx: Some(tx) });
        ticket
    }

    /// Number of currently registered standing queries (registry telemetry;
    /// also the leak check for [`Subscription`](crate::Subscription) drops).
    pub fn subscriptions(&self) -> Ticket<usize> {
        let (tx, ticket) = Ticket::new();
        self.enqueue(Msg::Subscriptions { tx });
        ticket
    }

    /// A live snapshot of the serving counters, read straight from the
    /// metrics registry without queueing behind the dispatcher.  Every
    /// counter an acknowledged request contributed is visible (the
    /// dispatcher publishes counters before acknowledgements); requests
    /// still in flight may or may not be counted yet.  An update's
    /// standing-query maintenance (notifications, monitor classification
    /// stats) runs after its acknowledgement and shows up once the pass
    /// ends.
    pub fn stats_now(&self) -> ServeStats {
        self.metrics.live.snapshot()
    }

    /// A live [`MetricsSnapshot`] of every counter, gauge and latency
    /// histogram the server maintains — the [`ServeStats`] counters as
    /// `kspr_<field>` series, plus per-stage, per-tier and per-algorithm
    /// latency distributions.  Non-blocking, like
    /// [`ServeHandle::stats_now`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.queue.load(Ordering::Relaxed) as u64)
    }

    /// The flight recorder's retained span trees, oldest first: every
    /// client-pinned trace plus every traced request that crossed the
    /// slow-query threshold, most recent
    /// [`ServeOptions::flight_recorder_capacity`] wins.
    pub fn traces(&self) -> Vec<Arc<TraceRecord>> {
        self.metrics.traces()
    }

    /// The retained span tree of one request, if the flight recorder still
    /// holds it.
    pub fn trace(&self, trace_id: TraceId) -> Option<Arc<TraceRecord>> {
        self.metrics.trace(trace_id)
    }

    /// The flight recorder's contents as Chrome Trace Event Format JSON —
    /// open in `chrome://tracing` / Perfetto.  The same document the HTTP
    /// front-end serves at `/trace`.
    pub fn chrome_trace(&self) -> String {
        kspr_telemetry::chrome_trace_json(&self.metrics.traces())
    }
}

/// A running serving loop that owns a [`ShardedEngine`].
pub struct Server {
    tx: mpsc::Sender<Msg>,
    queue: Arc<AtomicUsize>,
    closing: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    join: Option<JoinHandle<(ShardedEngine, ServeStats)>>,
}

impl Server {
    /// Moves `engine` onto a dispatcher thread and starts serving
    /// (in-memory only — nothing survives the process; see
    /// [`Server::start_durable`]).
    pub fn start(engine: ShardedEngine, options: ServeOptions) -> Self {
        Self::launch(engine, options, None, Monitor::new())
    }

    /// Starts a **durable** server over the state directory `dir`: every
    /// applied update and registry change is WAL-committed before its
    /// ticket resolves, and epoch snapshots are installed after compactions
    /// and at clean shutdown.  The directory is created if needed and a
    /// snapshot of `engine`'s initial state is installed up front, so
    /// [`Server::recover`] works from the first update on.
    pub fn start_durable(
        engine: ShardedEngine,
        options: ServeOptions,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<Self> {
        let store = DurableStore::open(dir.as_ref())?;
        store.install_snapshot(&snapshot_of(&engine, &Monitor::new()))?;
        let persist = Persist::open(store)?;
        Ok(Self::launch(engine, options, Some(persist), Monitor::new()))
    }

    /// Rebuilds the engine and the standing-query registry from `dir`'s
    /// snapshot plus its committed WAL tail and resumes serving durably.
    ///
    /// The recovered server answers **bit-identically** to one that never
    /// went down: the engines are deterministic functions of the live
    /// record set, and standing queries are re-registered against the
    /// recovered dataset (the recovery proptest in `kspr-repro` asserts
    /// this against a never-crashed twin).  Exact standing queries come
    /// back with fresh registry state but their wire subscriptions do not —
    /// clients re-subscribe after a crash.
    pub fn recover(
        dir: impl AsRef<Path>,
        config: KsprConfig,
        options: ServeOptions,
    ) -> Result<Self, RecoverError> {
        let store = DurableStore::open(dir.as_ref()).map_err(RecoverError::from)?;
        let (engine, monitor) = recover_state(&store, config)?;
        // The recovered state becomes the new epoch: install it and replay
        // nothing on the next recovery.
        store
            .install_snapshot(&snapshot_of(&engine, &monitor))
            .map_err(RecoverError::from)?;
        let persist = Persist::open(store).map_err(RecoverError::from)?;
        Ok(Self::launch(engine, options, Some(persist), monitor))
    }

    fn launch(
        engine: ShardedEngine,
        options: ServeOptions,
        persist: Option<Persist>,
        monitor: Monitor,
    ) -> Self {
        let (tx, rx) = mpsc::channel();
        let metrics = Arc::new(ServeMetrics::new(
            options.slow_query_threshold,
            options.flight_recorder_capacity,
        ));
        let config = DispatchConfig {
            admission: options.admission,
            persist,
            monitor,
            metrics: Arc::clone(&metrics),
        };
        let join = std::thread::spawn(move || dispatch(engine, rx, config));
        Self {
            tx,
            queue: Arc::new(AtomicUsize::new(0)),
            closing: Arc::new(AtomicBool::new(false)),
            metrics,
            join: Some(join),
        }
    }

    /// A new client handle (its own admission identity; `clone` the handle
    /// to share it, [`ServeHandle::fork_client`] to split it).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            tx: self.tx.clone(),
            queue: Arc::clone(&self.queue),
            client: Arc::new(AtomicUsize::new(0)),
            closing: Arc::clone(&self.closing),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Stops the dispatcher and returns the engine with the serving
    /// counters.  Requests still pending resolve with
    /// [`ServeError::Shutdown`] (never left hanging), and on a durable
    /// server the final state is snapshotted so the next start replays
    /// nothing.
    pub fn shutdown(mut self) -> (ShardedEngine, ServeStats) {
        // Raise the flag *before* the dispatcher is told to stop: a handle
        // that observes the closed channel afterwards then reports an
        // orderly `Shutdown`, not a crash.
        self.closing.store(true, Ordering::Release);
        let _ = self.tx.send(Msg::Shutdown);
        self.join
            .take()
            .expect("shutdown consumes the only join handle")
            .join()
            .expect("the dispatcher thread panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.closing.store(true, Ordering::Release);
            let _ = self.tx.send(Msg::Shutdown);
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspr::KsprConfig;

    fn demo_engine(shards: usize) -> ShardedEngine {
        ShardedEngine::new(
            vec![
                vec![0.3, 0.8, 0.8],
                vec![0.9, 0.4, 0.4],
                vec![0.8, 0.3, 0.4],
                vec![0.4, 0.3, 0.6],
            ],
            KsprConfig::default().with_shards(shards),
        )
    }

    #[test]
    fn submit_answers_queries_and_counts_them() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let a = handle.submit(vec![0.5, 0.5, 0.7], 3);
        let b = handle.submit_with(Algorithm::Pcta, vec![0.6, 0.6, 0.5], 2);
        let ra = a.wait().expect("query a");
        let rb = b.wait().expect("query b");
        assert!(ra.num_regions() >= 1);
        assert!(rb.num_regions() >= 1);
        let (engine, stats) = server.shutdown();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.rejected, 0);
        assert_eq!(
            stats.batches, 2,
            "distinct (algorithm, k) pairs never merge"
        );
        assert_eq!(engine.len(), 4);
    }

    #[test]
    fn submit_many_runs_as_one_batch() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let focals: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.4 + 0.05 * i as f64, 0.5, 0.6])
            .collect();
        let tickets = handle.submit_many(focals.clone(), 3);
        let results: Vec<KsprResult> = tickets
            .into_iter()
            .map(|t| t.wait().expect("batched query"))
            .collect();
        // Batched answers equal direct engine answers, in order.
        let oracle = demo_engine(2);
        let expected = oracle.run_batch(Algorithm::LpCta, &focals, 3);
        for (got, want) in results.iter().zip(&expected) {
            assert_eq!(got.num_regions(), want.num_regions());
        }
        let (_, stats) = server.shutdown();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.largest_batch, 6, "one run_batch served all six");
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn invalid_requests_are_rejected_not_fatal() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        assert_eq!(
            handle.submit(vec![0.5, 0.5, 0.7], 0).wait().unwrap_err(),
            ServeError::InvalidK
        );
        assert_eq!(
            handle.submit(vec![0.5, 0.5], 2).wait().unwrap_err(),
            ServeError::ArityMismatch {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            handle
                .submit(vec![0.5, f64::NAN, 0.7], 2)
                .wait()
                .unwrap_err(),
            ServeError::NonFinite
        );
        assert_eq!(
            handle.insert(vec![0.5, f64::INFINITY, 0.7]).wait(),
            Err(ServeError::NonFinite)
        );
        assert_eq!(
            handle.insert(vec![0.5]).wait(),
            Err(ServeError::ArityMismatch {
                expected: 3,
                got: 1
            })
        );
        // RTOPK is 2-D only; on 3-D data it must be rejected up front, not
        // allowed to panic the dispatcher thread.
        assert_eq!(
            handle
                .submit_with(Algorithm::Rtopk, vec![0.5, 0.5, 0.7], 2)
                .wait()
                .unwrap_err(),
            ServeError::UnsupportedAlgorithm
        );
        // The server is still healthy afterwards.
        let ok = handle.submit(vec![0.5, 0.5, 0.7], 3).wait();
        assert!(ok.expect("server must survive rejections").num_regions() >= 1);
        let (_, stats) = server.shutdown();
        assert_eq!(stats.rejected, 6);
        assert_eq!(stats.queries, 1);
        // Rejections are attributed to their error variant.
        assert_eq!(stats.rejections.invalid_k, 1);
        assert_eq!(stats.rejections.arity_mismatch, 2, "query + insert");
        assert_eq!(stats.rejections.non_finite, 2, "query + insert");
        assert_eq!(stats.rejections.unsupported_algorithm, 1);
        assert_eq!(stats.rejections.query_failed, 0);
        assert_eq!(
            stats.rejections.total(),
            stats.rejected,
            "per-variant counters must add up to the total"
        );
    }

    #[test]
    fn updates_are_serialized_with_queries() {
        let server = Server::start(
            ShardedEngine::empty(2, KsprConfig::default().with_shards(2)),
            ServeOptions::default(),
        );
        let handle = server.handle();
        // Empty dataset: whole preference space.
        let empty = handle
            .submit(vec![0.5, 0.5], 1)
            .wait()
            .expect("empty query");
        assert_eq!(empty.num_regions(), 1);

        // Insert a dominator; a query submitted afterwards must see it.
        let id = handle.insert(vec![0.9, 0.9]).wait().expect("insert");
        let beaten = handle.submit(vec![0.5, 0.5], 1).wait().expect("query");
        assert_eq!(beaten.num_regions(), 0, "the dominator blocks top-1");

        // Delete it again (emptying the shard): back to whole space.
        assert_eq!(handle.delete(id).wait(), Ok(true));
        assert_eq!(handle.delete(id).wait(), Ok(false));
        let restored = handle.submit(vec![0.5, 0.5], 1).wait().expect("query");
        assert_eq!(restored.num_regions(), 1);

        let (engine, stats) = server.shutdown();
        assert!(engine.is_empty());
        assert_eq!(stats.updates, 3, "insert + two deletes (one a no-op)");
    }

    #[test]
    fn subscriptions_stream_deltas_serialized_with_updates() {
        use kspr_monitor::UpdateClass;
        let server = Server::start(
            ShardedEngine::empty(2, KsprConfig::default().with_shards(2)),
            ServeOptions::default(),
        );
        let handle = server.handle();
        let sub = handle
            .subscribe(vec![0.5, 0.5], 1)
            .wait()
            .expect("subscribe");
        assert_eq!(sub.initial().num_regions(), 1, "no competitor: whole space");

        // A dominator empties the standing result in place; the notification
        // reflects exactly the acknowledged update.
        let id = handle.insert(vec![0.9, 0.9]).wait().expect("insert");
        let delta = sub.recv().expect("dominator insert notifies");
        assert_eq!(delta.query, sub.id());
        assert_eq!(delta.class, UpdateClass::Patched);
        assert_eq!(delta.regions_before, 1);
        assert_eq!(delta.regions_after, 0);
        assert_eq!(delta.regions_removed(), 1);

        // Deleting it re-runs the standing query and restores the result.
        assert_eq!(handle.delete(id).wait(), Ok(true));
        let delta = sub.recv().expect("dominator delete notifies");
        assert_eq!(delta.class, UpdateClass::Rerun);
        assert_eq!(delta.regions_after, 1);

        // An invisible update (dominated by the focal record) is silent.
        let id = handle.insert(vec![0.1, 0.1]).wait().expect("insert");
        assert_eq!(handle.delete(id).wait(), Ok(true));
        // Serialize behind the updates before polling.
        assert_eq!(handle.subscriptions().wait(), Ok(1));
        assert!(sub.poll().is_empty(), "unchanged results must not notify");

        // Dropping the subscription unregisters the standing query: the
        // registry (and its maintenance state) returns to zero.
        drop(sub);
        assert_eq!(handle.subscriptions().wait(), Ok(0));

        let (_, stats) = server.shutdown();
        assert_eq!(stats.subscriptions, 1);
        assert_eq!(stats.notifications, 2);
        assert_eq!(stats.updates, 4);
        assert_eq!(
            stats.monitor.classified(),
            4,
            "one classification per update while subscribed"
        );
        assert_eq!(stats.monitor.patched, 1);
        assert_eq!(stats.monitor.reruns, 1);
        assert_eq!(stats.monitor.unaffected, 2);
    }

    #[test]
    fn unsubscribe_frees_the_registry() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let a = handle
            .subscribe(vec![0.5, 0.5, 0.7], 2)
            .wait()
            .expect("subscribe a");
        let b = handle
            .subscribe_with(Algorithm::Pcta, vec![0.6, 0.6, 0.5], 3)
            .wait()
            .expect("subscribe b");
        assert_ne!(a.id(), b.id());
        assert_eq!(handle.subscriptions().wait(), Ok(2));
        assert_eq!(handle.unsubscribe(a.id()).wait(), Ok(true));
        assert_eq!(
            handle.unsubscribe(a.id()).wait(),
            Ok(false),
            "double unsubscribe reports the query as gone"
        );
        assert_eq!(handle.subscriptions().wait(), Ok(1));
        drop(b);
        assert_eq!(handle.subscriptions().wait(), Ok(0), "drop unregisters");
        drop(a); // late drop after an explicit unsubscribe is harmless
        assert_eq!(handle.subscriptions().wait(), Ok(0));
        let (_, stats) = server.shutdown();
        assert_eq!(stats.subscriptions, 2);
    }

    #[test]
    fn invalid_subscriptions_are_rejected_and_counted() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        assert_eq!(
            handle.subscribe(vec![0.5, 0.5, 0.7], 0).wait().unwrap_err(),
            ServeError::InvalidK
        );
        assert_eq!(
            handle.subscribe(vec![0.5, 0.5], 2).wait().unwrap_err(),
            ServeError::ArityMismatch {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            handle
                .subscribe(vec![0.5, f64::NAN, 0.7], 2)
                .wait()
                .unwrap_err(),
            ServeError::NonFinite
        );
        // The sweep baselines have no maintenance hooks.
        assert_eq!(
            handle
                .subscribe_with(Algorithm::Rtopk, vec![0.5, 0.5, 0.7], 2)
                .wait()
                .unwrap_err(),
            ServeError::UnsupportedAlgorithm
        );
        let (_, stats) = server.shutdown();
        assert_eq!(stats.subscriptions, 0);
        assert_eq!(stats.rejected, 4);
        assert_eq!(stats.rejections.invalid_k, 1);
        assert_eq!(stats.rejections.arity_mismatch, 1);
        assert_eq!(stats.rejections.non_finite, 1);
        assert_eq!(stats.rejections.unsupported_algorithm, 1);
        assert_eq!(stats.rejections.total(), stats.rejected);
    }

    #[test]
    fn subscription_results_match_direct_queries_across_updates() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let sub = handle
            .subscribe_with(Algorithm::KSkyband, vec![0.5, 0.5, 0.7], 2)
            .wait()
            .expect("subscribe");
        let direct = handle
            .submit_with(Algorithm::KSkyband, vec![0.5, 0.5, 0.7], 2)
            .wait()
            .expect("query");
        assert_eq!(sub.initial().num_regions(), direct.num_regions());
        assert_eq!(sub.initial().rank_signature(), direct.rank_signature());

        // Stream a few updates; after each, the maintained result (initial +
        // applied deltas) must agree with a direct query on region count.
        // The direct query doubles as a serialization barrier: once it is
        // answered, every notification for the preceding update has been
        // delivered, so `poll` cannot race the dispatcher.
        let mut current = sub.initial().num_regions();
        for values in [vec![0.6, 0.6, 0.8], vec![0.2, 0.9, 0.6]] {
            let id = handle.insert(values).wait().expect("insert");
            let direct = handle
                .submit_with(Algorithm::KSkyband, vec![0.5, 0.5, 0.7], 2)
                .wait()
                .expect("query");
            for delta in sub.poll() {
                current = delta.regions_after;
            }
            assert_eq!(current, direct.num_regions(), "after insert");
            assert_eq!(handle.delete(id).wait(), Ok(true));
            let direct = handle
                .submit_with(Algorithm::KSkyband, vec![0.5, 0.5, 0.7], 2)
                .wait()
                .expect("query");
            for delta in sub.poll() {
                current = delta.regions_after;
            }
            assert_eq!(current, direct.num_regions(), "after delete");
        }
    }

    #[test]
    fn tier_counters_are_consistent_with_totals() {
        use kspr::ErrorBudget;
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let budget = ErrorBudget::new(0.1, 0.9);

        // Two exact queries (legacy + tiered), two approximate (dedicated +
        // tiered), and two Auto queries forced one to each side by extreme
        // thresholds.
        let focal = vec![0.5, 0.5, 0.7];
        handle.submit(focal.clone(), 2).wait().expect("exact");
        let tiered_exact = handle
            .submit_tiered(Algorithm::LpCta, focal.clone(), 2, QueryTier::Exact)
            .wait()
            .expect("tiered exact");
        assert!(tiered_exact.is_exact());
        let est = handle
            .submit_approx(focal.clone(), 2, budget)
            .wait()
            .expect("approx");
        assert!(est.half_width <= budget.epsilon + 1e-12);
        let tiered_approx = handle
            .submit_tiered(
                Algorithm::LpCta,
                focal.clone(),
                2,
                QueryTier::approximate(budget),
            )
            .wait()
            .expect("tiered approx");
        assert!(!tiered_approx.is_exact());
        for (threshold, expect_exact) in [(f64::INFINITY, true), (0.0, false)] {
            let routed = handle
                .submit_tiered(
                    Algorithm::LpCta,
                    focal.clone(),
                    2,
                    QueryTier::Auto {
                        budget,
                        cost_threshold: threshold,
                    },
                )
                .wait()
                .expect("auto");
            assert_eq!(routed.is_exact(), expect_exact);
        }

        let (_, stats) = server.shutdown();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.exact_queries, 3, "submit + tiered exact + auto-exact");
        assert_eq!(
            stats.approx_queries, 3,
            "submit_approx + tiered approx + auto-approx"
        );
        assert_eq!(
            stats.exact_queries + stats.approx_queries,
            stats.queries,
            "per-tier counters must add up to the total"
        );
        assert_eq!(stats.auto_routed_exact, 1);
        assert_eq!(stats.auto_routed_approx, 1);
        assert!(stats.auto_routed_exact <= stats.exact_queries);
        assert!(stats.auto_routed_approx <= stats.approx_queries);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn approx_submissions_batch_separately_from_exact_ones() {
        use kspr::ErrorBudget;
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let budget = ErrorBudget::new(0.1, 0.9);
        // Interleaved same-(k,budget) approximate and same-(algorithm,k)
        // exact submissions: the greedy drain groups them into one sweep and
        // one run_batch.  Submit everything before waiting so the dispatcher
        // sees the whole burst at once.
        let mut approx_tickets = Vec::new();
        let mut exact_tickets = Vec::new();
        for i in 0..4 {
            let focal = vec![0.4 + 0.05 * i as f64, 0.5, 0.6];
            approx_tickets.push(handle.submit_approx(focal.clone(), 3, budget));
            exact_tickets.push(handle.submit(focal, 3));
        }
        for t in approx_tickets {
            t.wait().expect("approx query");
        }
        for t in exact_tickets {
            t.wait().expect("exact query");
        }
        let (_, stats) = server.shutdown();
        assert_eq!(stats.queries, 8);
        assert_eq!(stats.exact_queries, 4);
        assert_eq!(stats.approx_queries, 4);
        assert!(
            stats.batches <= 4,
            "the burst must batch (got {} batches), not run one-by-one",
            stats.batches
        );
    }

    #[test]
    fn approx_estimates_match_direct_engine_estimates() {
        use kspr::ErrorBudget;
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let budget = ErrorBudget::new(0.08, 0.9);
        // The dispatcher's seed stream starts at a fixed constant, so the
        // first sweep is reproducible against a direct engine call.
        let est = handle
            .submit_approx(vec![0.5, 0.5, 0.7], 3, budget)
            .wait()
            .expect("approx");
        let direct = demo_engine(2)
            .run_approx_batch(&[vec![0.5, 0.5, 0.7]], 3, &budget, 0x5EED_AB5E)
            .pop()
            .unwrap();
        assert_eq!(est.impact, direct.impact);
        assert_eq!(est.samples, direct.samples);
        let (_, stats) = server.shutdown();
        assert_eq!(stats.approx_queries, 1);
    }

    #[test]
    fn invalid_approx_requests_are_rejected_not_fatal() {
        use kspr::ErrorBudget;
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        let budget = ErrorBudget::new(0.1, 0.9);
        assert_eq!(
            handle
                .submit_approx(vec![0.5, 0.5, 0.7], 0, budget)
                .wait()
                .unwrap_err(),
            ServeError::InvalidK
        );
        assert_eq!(
            handle
                .submit_approx(vec![0.5, 0.5], 2, budget)
                .wait()
                .unwrap_err(),
            ServeError::ArityMismatch {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            handle
                .submit_approx(vec![f64::NAN, 0.5, 0.7], 2, budget)
                .wait()
                .unwrap_err(),
            ServeError::NonFinite
        );
        // RTOPK on 3-D data: rejected for exact-capable tiers, but a purely
        // approximate request never consults the algorithm, so it passes.
        assert!(handle
            .submit_tiered(
                Algorithm::Rtopk,
                vec![0.5, 0.5, 0.7],
                2,
                QueryTier::approximate(budget)
            )
            .wait()
            .is_ok());
        assert_eq!(
            handle
                .submit_tiered(Algorithm::Rtopk, vec![0.5, 0.5, 0.7], 2, QueryTier::Exact)
                .wait()
                .unwrap_err(),
            ServeError::UnsupportedAlgorithm
        );
        let (_, stats) = server.shutdown();
        assert_eq!(stats.rejected, 4);
        assert_eq!(stats.rejections.total(), stats.rejected);
    }

    #[test]
    fn pathological_budgets_are_rejected_not_sampled() {
        use kspr::ErrorBudget;
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        // Too fine: the Hoeffding sample count would exceed the server cap
        // (and, unchecked, would try to materialize gigabytes of samples).
        let too_fine = ErrorBudget {
            epsilon: 1e-5,
            confidence: 0.95,
        };
        assert_eq!(
            handle
                .submit_approx(vec![0.5, 0.5, 0.7], 2, too_fine)
                .wait()
                .unwrap_err(),
            ServeError::InvalidBudget
        );
        // Malformed: the public fields bypass ErrorBudget::new's checks.
        for bad in [
            ErrorBudget {
                epsilon: -0.1,
                confidence: 0.9,
            },
            ErrorBudget {
                epsilon: f64::NAN,
                confidence: 0.9,
            },
            ErrorBudget {
                epsilon: 0.1,
                confidence: 1.0,
            },
        ] {
            assert_eq!(
                handle
                    .submit_tiered(
                        Algorithm::LpCta,
                        vec![0.5, 0.5, 0.7],
                        2,
                        QueryTier::approximate(bad)
                    )
                    .wait()
                    .unwrap_err(),
                ServeError::InvalidBudget
            );
        }
        // The Auto tier may route to the sampler, so its budget is checked
        // too, before any cost probe.
        assert_eq!(
            handle
                .submit_tiered(
                    Algorithm::LpCta,
                    vec![0.5, 0.5, 0.7],
                    2,
                    QueryTier::auto(too_fine)
                )
                .wait()
                .unwrap_err(),
            ServeError::InvalidBudget
        );
        // A sane budget still serves afterwards.
        let ok = handle
            .submit_approx(vec![0.5, 0.5, 0.7], 2, ErrorBudget::new(0.1, 0.9))
            .wait();
        assert!(ok.is_ok(), "the server must survive budget rejections");
        let (_, stats) = server.shutdown();
        assert_eq!(stats.rejected, 5);
        assert_eq!(stats.rejections.invalid_budget, 5);
        assert_eq!(stats.rejections.total(), stats.rejected);
        assert_eq!(stats.approx_queries, 1);
    }

    #[test]
    fn update_bursts_share_one_maintenance_pass_within_the_window() {
        use kspr::ErrorBudget;
        let server = Server::start(
            ShardedEngine::empty(2, KsprConfig::default().with_shards(2)),
            ServeOptions::default(),
        );
        let handle = server.handle();
        let sub = handle
            .subscribe(vec![0.9, 0.9], 1)
            .wait()
            .expect("subscribe");
        // A live competitor, so the approximate estimate below actually
        // samples (an empty pool short-circuits without work).
        handle.insert(vec![0.5, 0.5]).wait().expect("first insert");
        // Block the dispatcher on an expensive approximate estimate
        // (hundreds of thousands of samples) so the update burst below is
        // fully queued before the dispatcher sees its first insert.
        let blocker =
            handle
                .fork_client()
                .submit_approx(vec![0.95, 0.95], 1, ErrorBudget::new(0.002, 0.99));
        let burst = crate::MAINTENANCE_WINDOW + 8;
        let tickets: Vec<_> = (0..burst)
            .map(|i| handle.insert(vec![0.1 + 0.01 * i as f64, 0.2]))
            .collect();
        blocker.wait().expect("blocker estimate");
        for t in tickets {
            t.wait().expect("burst insert");
        }
        // Every burst insert is dominated by the standing focal point, so
        // the monitor classifies them away without result changes.
        assert_eq!(handle.subscriptions().wait(), Ok(1));
        assert!(
            sub.poll().is_empty(),
            "focal-dominated inserts never notify"
        );
        drop(sub);
        let (_, stats) = server.shutdown();
        let updates = 1 + burst as u64;
        assert_eq!(stats.updates, updates);
        assert_eq!(
            stats.update_batches, 3,
            "1 single + the queued burst drained as a full window and a rest of 8"
        );
        assert_eq!(
            stats.largest_update_batch,
            crate::MAINTENANCE_WINDOW,
            "the window caps the drain"
        );
        assert_eq!(stats.monitor.batches, 3);
        assert_eq!(stats.monitor.batched_updates, updates);
        assert_eq!(stats.monitor.classified(), updates);
        assert_eq!(stats.monitor.unaffected, updates);
        assert_eq!(stats.notifications, 0);
    }

    #[test]
    fn no_op_deletes_commit_nothing_to_the_wal() {
        let dir = std::env::temp_dir().join(format!("kspr-noop-delete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start_durable(demo_engine(1), ServeOptions::default(), &dir)
            .expect("durable server");
        let handle = server.handle();
        let fsyncs = |handle: &ServeHandle| handle.metrics().counter("kspr_wal_fsyncs");
        // An unknown id is acknowledged but never logged: nothing is written.
        assert_eq!(handle.delete(999).wait(), Ok(false));
        assert_eq!(handle.stats_now().wal_commits, 0);
        assert_eq!(fsyncs(&handle), Some(0));
        // A real delete still commits (and fsyncs) once.
        assert_eq!(handle.delete(0).wait(), Ok(true));
        assert_eq!(handle.stats_now().wal_commits, 1);
        assert_eq!(fsyncs(&handle), Some(1));
        let _ = server.shutdown();
        std::fs::remove_dir_all(&dir).expect("remove the state directory");
    }

    #[test]
    fn compaction_triggers_in_the_dispatcher_and_preserves_ids() {
        let server = Server::start(
            ShardedEngine::empty(2, KsprConfig::default().with_shards(2)),
            ServeOptions::default(),
        );
        let handle = server.handle();
        let ids: Vec<RecordId> = (0..8)
            .map(|i| {
                handle
                    .insert(vec![0.3 + 0.05 * i as f64, 0.8 - 0.05 * i as f64])
                    .wait()
                    .expect("insert")
            })
            .collect();
        let sub = handle
            .subscribe(vec![0.55, 0.55], 2)
            .wait()
            .expect("subscribe");
        // Five of eight slots die: past the 50% threshold the dispatcher
        // compacts, and the standing query stays maintained across the
        // rewrite.
        for &id in &ids[..5] {
            assert_eq!(handle.delete(id).wait(), Ok(true));
        }
        // A compacted-away id stays dead; a surviving one still routes.
        assert_eq!(handle.delete(ids[0]).wait(), Ok(false));
        assert_eq!(
            handle.delete(ids[5]).wait(),
            Ok(true),
            "a surviving id must outlive compaction"
        );
        let direct = handle
            .submit(vec![0.55, 0.55], 2)
            .wait()
            .expect("direct query");
        let mut regions = sub.initial().num_regions();
        for delta in sub.poll() {
            regions = delta.regions_after;
        }
        assert_eq!(
            regions,
            direct.num_regions(),
            "the standing result stays maintained across compaction"
        );
        let (engine, stats) = server.shutdown();
        assert_eq!(
            stats.compactions, 1,
            "exactly the fifth delete crossed the threshold"
        );
        assert_eq!(engine.len(), 2);
        assert_eq!(
            engine.tombstone_count(),
            1,
            "only the post-compaction delete leaves a tombstone"
        );
    }

    #[test]
    fn tickets_resolve_to_shutdown_after_shutdown() {
        let server = Server::start(demo_engine(1), ServeOptions::default());
        let handle = server.handle();
        drop(server); // Drop joins the dispatcher (an orderly shutdown).
        assert_eq!(
            handle.submit(vec![0.5, 0.5, 0.7], 2).wait().unwrap_err(),
            ServeError::Shutdown,
            "post-shutdown submissions resolve explicitly, they never hang"
        );
        assert_eq!(
            handle.insert(vec![0.5, 0.5, 0.7]).wait().unwrap_err(),
            ServeError::Shutdown
        );
        assert_eq!(
            handle.subscriptions().wait().unwrap_err(),
            ServeError::Shutdown
        );
        assert_eq!(
            handle.subscribe(vec![0.5, 0.5, 0.7], 2).wait().unwrap_err(),
            ServeError::Shutdown
        );
    }

    #[test]
    fn queued_requests_behind_a_shutdown_are_drained_not_hung() {
        use crate::error::Ticket as T;
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        // Hold the dispatcher busy on an expensive approximate estimate so
        // everything below is queued before it reads another message.
        let blocker = handle.fork_client().submit_approx(
            vec![0.95, 0.95, 0.95],
            1,
            kspr::ErrorBudget::new(0.002, 0.99),
        );
        // Reproduce the shutdown race the handle-side flag cannot close: a
        // request that slips into the channel *behind* the shutdown message
        // (the flag check and the send are not one atomic step).  The
        // dispatcher must drain and resolve it, never leave it hanging.
        server.tx.send(Msg::Shutdown).unwrap();
        let (tx, query) = T::new();
        server
            .tx
            .send(Msg::Query(QueryJob {
                algorithm: Algorithm::LpCta,
                focal: vec![0.5, 0.5, 0.7],
                k: 2,
                tier: QueryTier::Exact,
                stamp: handle.stamp(),
                sink: Sink::Exact(tx),
                trace: RequestTrace::start(),
            }))
            .unwrap();
        let (tx, insert) = T::new();
        server
            .tx
            .send(Msg::Insert {
                values: vec![0.5, 0.5, 0.7],
                tx,
                trace: RequestTrace::start(),
            })
            .unwrap();
        assert_eq!(query.wait().unwrap_err(), ServeError::Shutdown);
        assert_eq!(insert.wait().unwrap_err(), ServeError::Shutdown);
        drop(blocker);
        let (_, stats) = server.shutdown();
        assert_eq!(stats.rejections.shutdown, 2);
        assert_eq!(stats.rejections.total(), stats.rejected);
        assert_eq!(stats.updates, 0, "the drained insert was never applied");
    }

    #[test]
    fn admission_degrades_tiered_queries_past_the_watermark() {
        let mut options = ServeOptions::default();
        options.admission.degrade_watermark = 0; // every query is "past" it
        let server = Server::start(demo_engine(2), options);
        let handle = server.handle();
        // An exact-capable tiered query is answered approximately instead.
        let degraded = handle
            .submit_tiered(Algorithm::LpCta, vec![0.5, 0.5, 0.7], 2, QueryTier::Exact)
            .wait()
            .expect("degraded query");
        assert!(
            !degraded.is_exact(),
            "past the watermark, exact-capable tiers degrade to the sampler"
        );
        // A plain exact submission has no approximate sink to degrade into:
        // it still runs exactly (degradation never changes a result type).
        let exact = handle
            .submit(vec![0.5, 0.5, 0.7], 2)
            .wait()
            .expect("plain exact query");
        assert!(exact.num_regions() >= 1);
        // An already-approximate tier has nothing to degrade.
        let approx = handle
            .submit_tiered(
                Algorithm::LpCta,
                vec![0.5, 0.5, 0.7],
                2,
                QueryTier::approximate(kspr::ErrorBudget::new(0.1, 0.9)),
            )
            .wait()
            .expect("approx query");
        assert!(!approx.is_exact());
        let (_, stats) = server.shutdown();
        assert_eq!(stats.degraded_to_approx, 1, "only the tiered exact query");
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.exact_queries, 1);
        assert_eq!(stats.approx_queries, 2);
        assert_eq!(stats.rejected, 0, "degradation is not rejection");
    }

    #[test]
    fn admission_rejects_queries_past_the_hard_limit() {
        let mut options = ServeOptions::default();
        options.admission.hard_limit = 0; // every query is "past" it
        let server = Server::start(demo_engine(2), options);
        let handle = server.handle();
        assert_eq!(
            handle.submit(vec![0.5, 0.5, 0.7], 2).wait().unwrap_err(),
            ServeError::Overloaded
        );
        assert_eq!(
            handle
                .submit_tiered(Algorithm::LpCta, vec![0.5, 0.5, 0.7], 2, QueryTier::Exact)
                .wait()
                .unwrap_err(),
            ServeError::Overloaded
        );
        // Load shedding drops queries, never updates or registrations.
        let id = handle.insert(vec![0.6, 0.6, 0.6]).wait().expect("insert");
        assert_eq!(handle.delete(id).wait(), Ok(true));
        let sub = handle
            .subscribe(vec![0.5, 0.5, 0.7], 2)
            .wait()
            .expect("subscribe");
        drop(sub);
        let (_, stats) = server.shutdown();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.rejections.overloaded, 2);
        assert_eq!(stats.rejections.total(), stats.rejected);
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.subscriptions, 1);
    }

    #[test]
    fn admission_enforces_per_client_quotas_in_isolation() {
        let mut options = ServeOptions::default();
        options.admission.client_quota = 1;
        let server = Server::start(demo_engine(2), options);
        let handle = server.handle();
        // Hold the dispatcher busy so both submissions below are stamped
        // while queued: the second exceeds its client's quota.  The blocker
        // comes from its own client, so it does not count against that
        // quota.
        let blocker = handle.fork_client().submit_approx(
            vec![0.95, 0.95, 0.95],
            1,
            kspr::ErrorBudget::new(0.002, 0.99),
        );
        // A non-query request ends the dispatcher's drain of consecutive
        // queries, so the submissions below never join the blocker's batch
        // (routing the first there would release its stamp before the
        // second one is stamped).
        let barrier = handle.subscriptions();
        let first = handle.submit(vec![0.5, 0.5, 0.7], 2);
        let second = handle.submit(vec![0.5, 0.5, 0.7], 2);
        // A forked client has its own quota: its query is untouched by the
        // first client's backlog.
        let neighbour = handle.fork_client().submit(vec![0.5, 0.5, 0.7], 2);
        assert!(first.wait().is_ok(), "within quota");
        assert_eq!(second.wait().unwrap_err(), ServeError::QuotaExceeded);
        assert!(neighbour.wait().is_ok(), "quotas are per client");
        blocker.wait().expect("blocker estimate");
        assert_eq!(barrier.wait(), Ok(0));
        let (_, stats) = server.shutdown();
        assert_eq!(stats.rejections.quota_exceeded, 1);
        assert_eq!(stats.rejections.total(), stats.rejected);
        assert_eq!(stats.queries, 3, "the blocker and the two admitted queries");
    }

    #[test]
    fn live_stats_are_served_in_request_order() {
        let server = Server::start(demo_engine(2), ServeOptions::default());
        let handle = server.handle();
        handle.submit(vec![0.5, 0.5, 0.7], 2).wait().expect("query");
        assert_eq!(handle.stats_now().queries, 1);
        // The monitor's stats are published before a subscription is
        // acknowledged: no barrier request is needed to observe them.
        let sub = handle
            .subscribe(vec![0.5, 0.5, 0.7], 2)
            .wait()
            .expect("subscribe");
        let live = handle.stats_now();
        assert_eq!(live.subscriptions, 1);
        assert_eq!(live.monitor.registered, 1);
        assert_eq!(handle.unsubscribe(sub.id()).wait(), Ok(true));
        let (_, after) = server.shutdown();
        assert_eq!(after.queries, 1);
        assert_eq!(
            after.monitor.registered, 1,
            "registered counts ever-registered"
        );
    }
}
