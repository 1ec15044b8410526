//! The dispatch core: one thread owning the engine, draining the request
//! queue, and orchestrating the other layers.
//!
//! The loop itself stays small — it only decides *order*: updates apply in
//! arrival order, consecutive queries batch (see the `batch` module),
//! standing-query maintenance runs once per drained update batch, and the
//! durability hooks (see the `persist` module) commit every applied update
//! to the WAL *before* its ticket is acknowledged.  At shutdown every
//! request still queued is drained and resolved with
//! [`ServeError::Shutdown`] instead of left to observe a dead channel.

use crate::batch::{run_jobs, validate_insert, QueryJob};
use crate::error::{register_error, ServeError};
use crate::persist::{snapshot_of, Persist};
use crate::stats::ServeStats;
use crate::subscription::{DeltaPush, DeltaQueue};
use crate::telemetry::{LiveStats, ServeMetrics};
use crate::ShardedEngine;
use kspr::{Algorithm, KsprResult, RecordId};
use kspr_durable::WalRecord;
use kspr_monitor::{Monitor, QueryId, ResultDelta, UpdateKind};
use kspr_telemetry::{RequestTrace, Stage};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The request-queue protocol between [`crate::ServeHandle`]s and the
/// dispatcher.
pub(crate) enum Msg {
    Query(QueryJob),
    Batch(Vec<QueryJob>),
    Insert {
        values: Vec<f64>,
        tx: mpsc::Sender<Result<RecordId, ServeError>>,
        trace: RequestTrace,
    },
    Delete {
        id: RecordId,
        tx: mpsc::Sender<Result<bool, ServeError>>,
        trace: RequestTrace,
    },
    Subscribe {
        algorithm: Algorithm,
        focal: Vec<f64>,
        k: usize,
        deltas: Arc<DeltaQueue>,
        tx: mpsc::Sender<Result<(QueryId, KsprResult), ServeError>>,
    },
    Unsubscribe {
        id: QueryId,
        /// `None` for the fire-and-forget unsubscribe of `Subscription::drop`.
        tx: Option<mpsc::Sender<Result<bool, ServeError>>>,
    },
    Subscriptions {
        tx: mpsc::Sender<Result<usize, ServeError>>,
    },
    Shutdown,
}

/// Resolves every pending response channel of `msg` with `err` and returns
/// how many requests were rejected (a batch counts each of its queries).
/// Used by the shutdown drain and by handles whose enqueue raced the
/// shutdown.
pub(crate) fn reject_msg(msg: Msg, err: &ServeError) -> u64 {
    match msg {
        Msg::Query(job) => {
            job.sink.reject(err.clone());
            1
        }
        Msg::Batch(jobs) => {
            let n = jobs.len() as u64;
            for job in jobs {
                job.sink.reject(err.clone());
            }
            n
        }
        Msg::Insert { tx, .. } => {
            let _ = tx.send(Err(err.clone()));
            1
        }
        Msg::Delete { tx, .. } => {
            let _ = tx.send(Err(err.clone()));
            1
        }
        Msg::Subscribe { deltas, tx, .. } => {
            deltas.close();
            let _ = tx.send(Err(err.clone()));
            1
        }
        Msg::Unsubscribe { tx, .. } => match tx {
            Some(tx) => {
                let _ = tx.send(Err(err.clone()));
                1
            }
            None => 0,
        },
        Msg::Subscriptions { tx } => {
            let _ = tx.send(Err(err.clone()));
            1
        }
        Msg::Shutdown => 0,
    }
}

/// Most updates one drain applies before a single WAL commit and one
/// standing-query maintenance pass.  The dispatcher never waits to fill the
/// window: it takes only updates that are already queued.
pub const MAINTENANCE_WINDOW: usize = 32;

/// Most queries one drain merges into a single `run_batch` call.  (An
/// explicit [`crate::ServeHandle::submit_many`] batch is always answered
/// through one call, whatever its size.)
const QUERY_BATCH_LIMIT: usize = 64;

/// What [`crate::Server`] hands the dispatcher thread: the admission
/// thresholds, the (possibly recovered) standing-query registry, and the
/// durability hook.
pub(crate) struct DispatchConfig {
    pub(crate) admission: crate::admission::AdmissionOptions,
    pub(crate) persist: Option<Persist>,
    pub(crate) monitor: Monitor,
    /// The counters, latency histograms, WAL gauges and flight recorder
    /// shared with every [`crate::ServeHandle`].
    pub(crate) metrics: Arc<ServeMetrics>,
}

/// Delivers update notifications to their subscribers.  A queue at its
/// pending cap coalesces the notification instead of growing (see
/// [`crate::MAX_PENDING_DELTAS`]); a closed queue means the subscription was
/// dropped but its unsubscribe message is still in flight, and the
/// notification is simply discarded.
fn notify(
    subscribers: &HashMap<QueryId, Arc<DeltaQueue>>,
    deltas: Vec<ResultDelta>,
    live: &LiveStats,
) {
    for delta in deltas {
        if let Some(queue) = subscribers.get(&delta.query) {
            match queue.push(delta) {
                DeltaPush::Queued => live.notifications.inc(),
                DeltaPush::Coalesced => {
                    live.notifications.inc();
                    live.deltas_coalesced.inc();
                }
                DeltaPush::Closed => {}
            }
        }
    }
}

/// Runs the standing-query maintenance for one *already committed and
/// acknowledged* update and delivers the notifications.
///
/// A panic inside classification (a standing query's rerun tripping an
/// engine bug) is the query-panic class — the engine caches recover and the
/// update itself is fine — but the maintenance pass may have stopped half
/// way, leaving some standing queries with stale bookkeeping that would
/// silently misclassify every later update.  Rather than stopping the
/// server (the update succeeded) or serving stale standing results, the
/// whole registry is invalidated: every subscription's channel closes (its
/// next `recv`/`poll` reports the disconnect) and clients re-subscribe to
/// resume watching.
fn maintain_standing(
    monitor: &mut Monitor,
    subscribers: &mut HashMap<QueryId, Arc<DeltaQueue>>,
    live: &LiveStats,
    apply: impl FnOnce(&mut Monitor) -> Vec<ResultDelta>,
) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| apply(monitor))) {
        Ok(deltas) => notify(subscribers, deltas, live),
        Err(_) => {
            // Not a rejection — no client request failed; track separately.
            live.maintenance_failures.inc();
            monitor.clear();
            for queue in subscribers.values() {
                queue.close();
            }
            subscribers.clear();
        }
    }
}

/// An applied-but-unacknowledged update of the current batch: the ticket is
/// resolved only after the batch's WAL commit succeeds, so an acknowledged
/// update is always replayable.  (On a non-durable server the commit is a
/// no-op and the staging just defers the sends to the end of the batch.)
enum StagedAck {
    Insert(
        mpsc::Sender<Result<RecordId, ServeError>>,
        RecordId,
        RequestTrace,
    ),
    Delete(mpsc::Sender<Result<bool, ServeError>>, bool, RequestTrace),
}

/// The stages an update passes through (queries own the admission and
/// batch-assembly stages; the WAL stage only exists on a durable server).
const UPDATE_STAGES: [Stage; 3] = [Stage::Queue, Stage::Engine, Stage::Ack];
const DURABLE_UPDATE_STAGES: [Stage; 4] =
    [Stage::Queue, Stage::Engine, Stage::WalCommit, Stage::Ack];

/// Closes out an update's trace at acknowledgement time: everything between
/// the Engine stamp and now was the batch's WAL commit (durable servers),
/// then the ack itself.  Recorded — stage histograms and, for traced
/// updates, the flight recorder — *before* the ack is sent.
fn finish_update_trace(mut trace: RequestTrace, metrics: &ServeMetrics, durable: bool) {
    let recorded: &[Stage] = if durable {
        trace.stamp(Stage::WalCommit);
        &DURABLE_UPDATE_STAGES
    } else {
        &UPDATE_STAGES
    };
    trace.stamp(Stage::Ack);
    metrics.record_stages(&trace.timings(), recorded);
    let total_ns = trace.total_nanos();
    metrics.finish_trace(trace, total_ns);
}

impl StagedAck {
    /// Acknowledges the applied update.
    fn resolve(self, metrics: &ServeMetrics, durable: bool) {
        metrics.live.updates.inc();
        match self {
            StagedAck::Insert(tx, id, trace) => {
                finish_update_trace(trace, metrics, durable);
                drop(tx.send(Ok(id)));
            }
            StagedAck::Delete(tx, removed, trace) => {
                finish_update_trace(trace, metrics, durable);
                drop(tx.send(Ok(removed)));
            }
        }
    }

    /// Fails the applied-but-uncommitted update (its WAL commit failed; the
    /// server stops, so the in-memory application is never observable).
    fn fail(self, live: &LiveStats) {
        live.reject(&ServeError::UpdateFailed);
        match self {
            StagedAck::Insert(tx, _, _) => drop(tx.send(Err(ServeError::UpdateFailed))),
            StagedAck::Delete(tx, _, _) => drop(tx.send(Err(ServeError::UpdateFailed))),
        }
    }
}

/// The dispatcher loop: drain the queue, batch consecutive queries, apply
/// updates in arrival order (committing them to the WAL on a durable
/// server), and maintain the standing-query registry.
pub(crate) fn dispatch(
    mut engine: ShardedEngine,
    rx: mpsc::Receiver<Msg>,
    config: DispatchConfig,
) -> (ShardedEngine, ServeStats) {
    let DispatchConfig {
        admission,
        mut persist,
        mut monitor,
        metrics,
    } = config;
    let live = &metrics.live;
    let mut carry: VecDeque<Msg> = VecDeque::new();
    let mut subscribers: HashMap<QueryId, Arc<DeltaQueue>> = HashMap::new();
    // Seed stream of the sampling tier: one fresh seed per sweep, so
    // estimates are deterministic per server run without ever reusing a
    // sample stream.
    let mut approx_seed: u64 = 0x5EED_AB5E;
    // Set when the engine (or the WAL) is no longer trustworthy: the loop
    // stops *without* draining, so late requests observe the dead channel.
    let mut update_failed = false;
    // Set on an orderly stop: the loop drains the queue and resolves every
    // pending request with `ServeError::Shutdown`.
    let mut shutting_down = false;
    loop {
        let msg = match carry.pop_front() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => msg,
                // Every handle (and the Server) is gone: stop serving.
                Err(mpsc::RecvError) => break,
            },
        };
        match msg {
            Msg::Shutdown => {
                shutting_down = true;
                break;
            }
            update @ (Msg::Insert { .. } | Msg::Delete { .. }) => {
                // Batched update dequeue, mirroring the query batching
                // below: greedily pull further *already-queued* consecutive
                // updates — never waiting for more to arrive — up to
                // `MAINTENANCE_WINDOW`, so a burst of updates shares one
                // standing-query maintenance pass and **one WAL commit**
                // (the fsync batching of `kspr-durable`).
                let mut pending = vec![update];
                while pending.len() < MAINTENANCE_WINDOW {
                    match rx.try_recv() {
                        Ok(next @ (Msg::Insert { .. } | Msg::Delete { .. })) => {
                            pending.push(next);
                        }
                        Ok(other) => {
                            carry.push_back(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                // The monitor needs every update's values after the engine
                // consumed them; only pay the clones when someone watches.
                // (Only updates are processed until the maintenance pass
                // below, so the registry cannot change mid-batch.)
                let watched = !monitor.is_empty();
                let mut batch: Vec<(UpdateKind, Vec<f64>)> = Vec::new();
                let mut acks: Vec<StagedAck> = Vec::new();
                for msg in pending {
                    match msg {
                        Msg::Insert {
                            values,
                            tx,
                            mut trace,
                        } => match validate_insert(&engine, &values) {
                            Ok(()) => {
                                trace.stamp(Stage::Queue);
                                let kept = watched.then(|| values.clone());
                                let logged = persist.is_some().then(|| values.clone());
                                let outcome =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        engine.insert(values)
                                    }));
                                match outcome {
                                    Ok(id) => {
                                        trace.stamp(Stage::Engine);
                                        if let (Some(persist), Some(values)) =
                                            (persist.as_mut(), logged)
                                        {
                                            persist.append(&WalRecord::Insert { id, values });
                                        }
                                        acks.push(StagedAck::Insert(tx, id, trace));
                                        if let Some(values) = kept {
                                            batch.push((UpdateKind::Insert, values));
                                        }
                                    }
                                    Err(_) => {
                                        // A panic mid-update may have left
                                        // shard state half-applied; stop
                                        // serving cleanly instead of risking
                                        // corrupt answers (see UpdateFailed).
                                        live.reject(&ServeError::UpdateFailed);
                                        let _ = tx.send(Err(ServeError::UpdateFailed));
                                        update_failed = true;
                                    }
                                }
                            }
                            Err(err) => {
                                live.reject(&err);
                                let _ = tx.send(Err(err));
                            }
                        },
                        Msg::Delete { id, tx, mut trace } => {
                            trace.stamp(Stage::Queue);
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    engine.delete_returning(id)
                                }));
                            match outcome {
                                Ok(removed) => {
                                    trace.stamp(Stage::Engine);
                                    // A no-op delete changes no state, so it
                                    // is acknowledged but never logged.
                                    if removed.is_some() {
                                        if let Some(persist) = persist.as_mut() {
                                            persist.append(&WalRecord::Delete { id });
                                        }
                                    }
                                    acks.push(StagedAck::Delete(tx, removed.is_some(), trace));
                                    match removed {
                                        Some(values) if watched => {
                                            batch.push((UpdateKind::Delete, values));
                                        }
                                        _ => {}
                                    }
                                }
                                Err(_) => {
                                    live.reject(&ServeError::UpdateFailed);
                                    let _ = tx.send(Err(ServeError::UpdateFailed));
                                    update_failed = true;
                                }
                            }
                        }
                        _ => unreachable!("only updates are drained into an update batch"),
                    }
                    if update_failed {
                        break;
                    }
                }
                // One durable write for the whole drained batch, *before*
                // any ticket is acknowledged: an acknowledged update is
                // always replayable.  A failed commit fails the whole
                // batch's staged acks (their in-memory application is never
                // observable — the server stops) and stops serving.
                let applied = acks.len();
                let durable = persist.is_some();
                if let Some(persist) = persist.as_mut() {
                    if persist.commit(&metrics).is_err() {
                        for ack in acks.drain(..) {
                            ack.fail(live);
                        }
                        update_failed = true;
                    }
                }
                for ack in acks {
                    ack.resolve(&metrics, durable);
                }
                if update_failed {
                    break;
                }
                if applied > 0 {
                    live.update_batches.inc();
                    live.largest_update_batch.set_max(applied as u64);
                }
                if !batch.is_empty() {
                    // The monitor runs on the dispatcher thread, so the
                    // standing results it patches stay serialized with the
                    // update stream.  It is guarded separately from the
                    // engine updates: the batch is committed and
                    // acknowledged above, so a classification panic must
                    // not be reported as UpdateFailed (losing the ids) nor
                    // stop serving.  One maintenance pass covers the whole
                    // drained batch.
                    let pass = Instant::now();
                    maintain_standing(&mut monitor, &mut subscribers, live, |monitor| {
                        monitor.apply_batch(&engine, &batch)
                    });
                    // The pass is timed from outside (the Notify stage has
                    // no single request to trace), and the refreshed
                    // monitor stats are published for non-blocking reads.
                    metrics.record_maintenance(pass.elapsed());
                    live.set_monitor(monitor.stats());
                }
                // Background compaction: once dead record slots exceed half
                // the id space, rewrite the shards down to their live
                // records (global ids survive — see ShardedEngine::compact,
                // and live data is untouched, so maintained standing
                // results stay exact).  As an engine mutation it gets the
                // update panic contract: a half-compacted pool must not
                // keep serving.  On a durable server a compaction is an
                // epoch boundary: a fresh snapshot is installed and the WAL
                // truncated, bounding replay work.
                if engine.tombstone_ratio() > 0.5 {
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.compact()));
                    match outcome {
                        Ok(_) => {
                            live.compactions.inc();
                            if let Some(persist) = persist.as_mut() {
                                if persist
                                    .install(&snapshot_of(&engine, &monitor), &metrics)
                                    .is_err()
                                {
                                    // The durable directory is no longer
                                    // writable; refuse to keep acknowledging
                                    // updates that could not be replayed.
                                    live.reject(&ServeError::UpdateFailed);
                                    update_failed = true;
                                    break;
                                }
                            }
                        }
                        Err(_) => {
                            live.reject(&ServeError::UpdateFailed);
                            update_failed = true;
                            break;
                        }
                    }
                }
            }
            Msg::Subscribe {
                algorithm,
                focal,
                k,
                deltas,
                tx,
            } => {
                // Registration runs the initial query; guard it like any
                // other query (the caches recover, serving continues).
                let logged = persist.is_some().then(|| focal.clone());
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    monitor.register(&engine, algorithm, focal, k)
                }));
                match outcome {
                    Ok(Ok(id)) => {
                        // Registry changes are durable like updates: log,
                        // commit, only then acknowledge.
                        let committed = match (persist.as_mut(), logged) {
                            (Some(persist), Some(focal)) => {
                                persist.append(&WalRecord::Subscribe {
                                    id,
                                    algorithm,
                                    focal,
                                    k,
                                });
                                persist.commit(&metrics).is_ok()
                            }
                            _ => true,
                        };
                        if committed {
                            live.subscriptions.inc();
                            live.set_monitor(monitor.stats());
                            let initial = monitor
                                .result(id)
                                .expect("freshly registered query has a result")
                                .clone();
                            subscribers.insert(id, deltas);
                            let _ = tx.send(Ok((id, initial)));
                        } else {
                            monitor.unregister(id);
                            live.reject(&ServeError::UpdateFailed);
                            let _ = tx.send(Err(ServeError::UpdateFailed));
                            update_failed = true;
                            break;
                        }
                    }
                    Ok(Err(err)) => {
                        let err = register_error(err);
                        live.reject(&err);
                        let _ = tx.send(Err(err));
                    }
                    Err(_) => {
                        live.reject(&ServeError::QueryFailed);
                        let _ = tx.send(Err(ServeError::QueryFailed));
                    }
                }
            }
            Msg::Unsubscribe { id, tx } => {
                let removed = monitor.unregister(id);
                if let Some(queue) = subscribers.remove(&id) {
                    // Wake a receiver still blocked on the dead stream.
                    queue.close();
                }
                live.set_monitor(monitor.stats());
                let committed = match persist.as_mut() {
                    Some(persist) if removed => {
                        persist.append(&WalRecord::Unsubscribe { id });
                        persist.commit(&metrics).is_ok()
                    }
                    _ => true,
                };
                if committed {
                    if let Some(tx) = tx {
                        let _ = tx.send(Ok(removed));
                    }
                } else {
                    live.reject(&ServeError::UpdateFailed);
                    if let Some(tx) = tx {
                        let _ = tx.send(Err(ServeError::UpdateFailed));
                    }
                    update_failed = true;
                    break;
                }
            }
            Msg::Subscriptions { tx } => {
                let _ = tx.send(Ok(monitor.len()));
            }
            Msg::Query(job) => {
                // Batched dequeue: greedily pull further *consecutive*
                // queries (updates act as barriers, preserving FIFO
                // semantics between queries and updates).
                let mut batch = vec![job];
                while batch.len() < QUERY_BATCH_LIMIT {
                    match rx.try_recv() {
                        Ok(Msg::Query(next)) => batch.push(next),
                        Ok(other) => {
                            // A Batch keeps its own identity (absorbing it
                            // here could blow past `QUERY_BATCH_LIMIT`);
                            // updates act as barriers.  Either way FIFO
                            // between the drained queries and what follows
                            // is preserved.
                            carry.push_back(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                run_jobs(&engine, batch, &admission, &metrics, &mut approx_seed);
            }
            Msg::Batch(jobs) => run_jobs(&engine, jobs, &admission, &metrics, &mut approx_seed),
        }
    }
    if !update_failed {
        // Orderly stop: resolve everything still queued with an explicit
        // `Shutdown` instead of letting tickets observe a dead channel.
        // (The handles' closing flag was set before `Msg::Shutdown` was
        // sent, so nothing new is enqueued behind this drain; `carry` holds
        // messages already dequeued but deferred by the batching.)
        let mut drained = carry;
        while let Ok(msg) = rx.try_recv() {
            drained.push_back(msg);
        }
        for msg in drained {
            for _ in 0..reject_msg(msg, &ServeError::Shutdown) {
                live.reject(&ServeError::Shutdown);
            }
        }
        // A clean shutdown is an epoch boundary: persist the final state so
        // the next start replays nothing.  (Nothing is staged here — every
        // commit happens before its batch is acknowledged.)
        if shutting_down {
            if let Some(persist) = persist.as_mut() {
                let _ = persist
                    .commit(&metrics)
                    .and_then(|()| persist.install(&snapshot_of(&engine, &monitor), &metrics));
            }
        }
    }
    // Wake receivers still blocked on their delta streams before the
    // dispatcher state drops.
    for queue in subscribers.values() {
        queue.close();
    }
    live.set_monitor(monitor.stats());
    (engine, live.snapshot())
}
