//! Query validation and batched execution: the layer that turns a drained
//! run of [`QueryJob`]s into grouped engine calls.
//!
//! Admission verdicts are applied here, at dispatch time, against each
//! job's enqueue-time [`Stamp`] (see the `admission` module); surviving
//! jobs are validated, tier-resolved, and answered — **exact jobs**
//! grouped by `(algorithm, k)` through one
//! [`ShardedEngine::run_batch`] call each, **approximate jobs** grouped by
//! `(k, budget)` through one shared sampling sweep each.

use crate::admission::{AdmissionOptions, Stamp, Verdict};
use crate::error::{ingest_error, ServeError};
use crate::telemetry::{tier_index, ServeMetrics};
use crate::ShardedEngine;
use kspr::{Algorithm, ApproxImpact, ErrorBudget, KsprResult, QueryStats, QueryTier};
use kspr_approx::TieredResult;
use kspr_telemetry::{RequestTrace, SpanId, Stage};
use std::sync::mpsc;

/// Where a query's answer goes: the three client-facing ticket flavors.
/// Constructed so a sink can always carry the tier's answer — `Exact` sinks
/// only pair with [`QueryTier::Exact`], `Approx` sinks only with
/// [`QueryTier::Approximate`], and `Tiered` sinks carry either (which is
/// why only tier-dispatched queries are eligible for admission-control
/// degradation).
pub(crate) enum Sink {
    Exact(mpsc::Sender<Result<KsprResult, ServeError>>),
    Approx(mpsc::Sender<Result<ApproxImpact, ServeError>>),
    Tiered(mpsc::Sender<Result<TieredResult, ServeError>>),
}

impl Sink {
    /// Delivers a rejection.
    pub(crate) fn reject(&self, err: ServeError) {
        match self {
            Sink::Exact(tx) => drop(tx.send(Err(err))),
            Sink::Approx(tx) => drop(tx.send(Err(err))),
            Sink::Tiered(tx) => drop(tx.send(Err(err))),
        }
    }

    /// Delivers an exact result (never routed to an `Approx` sink).
    fn send_exact(self, result: KsprResult) {
        match self {
            Sink::Exact(tx) => drop(tx.send(Ok(result))),
            Sink::Tiered(tx) => drop(tx.send(Ok(TieredResult::Exact(result)))),
            Sink::Approx(_) => unreachable!("approximate jobs never run exactly"),
        }
    }

    /// Delivers an estimate (never routed to an `Exact` sink).
    fn send_approx(self, estimate: ApproxImpact) {
        match self {
            Sink::Approx(tx) => drop(tx.send(Ok(estimate))),
            Sink::Tiered(tx) => drop(tx.send(Ok(TieredResult::Approximate(estimate)))),
            Sink::Exact(_) => unreachable!("exact jobs never run approximately"),
        }
    }
}

/// One enqueued query, carrying its admission stamp from enqueue to
/// dispatch.
pub(crate) struct QueryJob {
    pub(crate) algorithm: Algorithm,
    pub(crate) focal: Vec<f64>,
    pub(crate) k: usize,
    pub(crate) tier: QueryTier,
    pub(crate) stamp: Stamp,
    pub(crate) sink: Sink,
    /// Stage clock started at enqueue (see `kspr_telemetry`).
    pub(crate) trace: RequestTrace,
}

/// Validates a query against the engine's arity rules (the focal record must
/// satisfy the same shape rules as ingested records).  The RTOPK
/// dimensionality rule only applies when the exact engine can run — a
/// purely approximate job never consults the algorithm.
fn validate_query(engine: &ShardedEngine, job: &QueryJob) -> Result<(), ServeError> {
    if job.k == 0 {
        return Err(ServeError::InvalidK);
    }
    let may_run_exact = !matches!(job.tier, QueryTier::Approximate { .. });
    if may_run_exact && job.algorithm == Algorithm::Rtopk && engine.dim() != 2 {
        return Err(ServeError::UnsupportedAlgorithm);
    }
    match job.tier {
        QueryTier::Exact => {}
        QueryTier::Approximate { budget } | QueryTier::Auto { budget, .. } => {
            validate_budget(&budget)?;
        }
    }
    kspr::check_record(&job.focal, Some(engine.dim())).map_err(ingest_error)
}

/// Largest Hoeffding sample count the server accepts per estimate.  The
/// budget is client-supplied and its sample count grows as `1/epsilon²`:
/// without a cap, one `submit_approx` with a pathological epsilon would
/// materialize gigabytes of sample points on the serialized dispatcher
/// thread (an allocation failure is not a catchable panic — it would take
/// the whole server down, defeating the reject-don't-crash ingest rules).
/// `2^20` samples (~1 M, epsilon ≈ 0.0013 at 95% confidence) is far below
/// any memory hazard and far finer than region-volume noise justifies.
pub const MAX_APPROX_SAMPLES: usize = 1 << 20;

/// Validates a client-supplied error budget: the fields must be genuine
/// probabilities (the `ErrorBudget` fields are public, so `new()`'s checks
/// can be bypassed) and the implied sample count must stay serveable.
pub(crate) fn validate_budget(budget: &ErrorBudget) -> Result<(), ServeError> {
    let in_unit = |v: f64| v.is_finite() && v > 0.0 && v < 1.0;
    if !in_unit(budget.epsilon) || !in_unit(budget.confidence) {
        return Err(ServeError::InvalidBudget);
    }
    if budget.samples() > MAX_APPROX_SAMPLES {
        return Err(ServeError::InvalidBudget);
    }
    Ok(())
}

/// Validates an insert payload.
pub(crate) fn validate_insert(engine: &ShardedEngine, values: &[f64]) -> Result<(), ServeError> {
    kspr::check_record(values, Some(engine.dim())).map_err(ingest_error)
}

/// Grouping key of an approximate batch: `k` plus the bit patterns of the
/// budget (estimates only share a sweep when they ask the same question to
/// the same accuracy).
type ApproxKey = (usize, u64, u64);

fn approx_key(k: usize, budget: &ErrorBudget) -> ApproxKey {
    (k, budget.epsilon.to_bits(), budget.confidence.to_bits())
}

/// The stages every answered query passes through, in pipeline order
/// (queries never touch the WAL, and notification work belongs to updates).
const QUERY_STAGES: [Stage; 5] = [
    Stage::Queue,
    Stage::Admission,
    Stage::Batch,
    Stage::Engine,
    Stage::Ack,
];

/// Lays the engine's per-phase breakdown under a traced query's `engine`
/// span as child spans: `prep` (with the `dominance` kernel nested inside)
/// followed by `expansion` (with the `lp` solves nested inside).  The
/// windows come from [`kspr::Timing`], anchored at the engine span's
/// start — prep runs first, expansion directly after; `child_span` clamps
/// each window into its parent, so a phase can never overhang the engine
/// span it decomposes.
fn add_engine_phase_spans(trace: &mut RequestTrace, engine: SpanId, stats: &QueryStats) {
    let Some((start, _)) = trace.span_bounds(engine) else {
        return;
    };
    let phases = &stats.phases;
    let prep_end = start.saturating_add(phases.prep_ns);
    if let Some(prep) = trace.child_span(engine, "prep", start, prep_end) {
        trace.child_span(
            prep,
            "dominance",
            start,
            start.saturating_add(phases.dominance_ns),
        );
    }
    if let Some(expansion) = trace.child_span(
        engine,
        "expansion",
        prep_end,
        prep_end.saturating_add(phases.expansion_ns),
    ) {
        trace.child_span(
            expansion,
            "lp",
            prep_end,
            prep_end.saturating_add(phases.lp_ns),
        );
    }
}

/// Executes a batch of dequeued queries: applies each job's admission
/// verdict (reject / degrade / accept — see the `admission` module),
/// rejects invalid jobs, resolves each survivor's tier (`Auto` routes by
/// the dispatcher's cost estimate, counted in [`crate::ServeStats`]), then
/// answers **exact jobs** grouped by `(algorithm, k)` through one
/// `run_batch` call each and **approximate jobs** — batched separately —
/// grouped by `(k, budget)` through one shared sampling sweep each.
/// Every answered query's stage timings are recorded into `metrics`
/// *before* its answer is sent, so a client that has its answer can always
/// see its own query in the histograms.
pub(crate) fn run_jobs(
    engine: &ShardedEngine,
    jobs: Vec<QueryJob>,
    admission: &AdmissionOptions,
    metrics: &ServeMetrics,
    approx_seed: &mut u64,
) {
    /// One validated, tier-resolved job.  `auto` marks jobs the `Auto` tier
    /// routed, so the routing counters can be committed only when the job is
    /// actually answered (a failed batch must not leave `auto_routed_*`
    /// claiming more routed queries than `exact_/approx_queries` served).
    struct Routed {
        focal: Vec<f64>,
        sink: Sink,
        auto: bool,
        trace: RequestTrace,
        /// The tier class the query was *submitted* with (degradation does
        /// not move a query between latency buckets).
        tier: usize,
        algorithm: Algorithm,
    }

    let live = &metrics.live;
    let mut exact_groups: Vec<((Algorithm, usize), Vec<Routed>)> = Vec::new();
    let mut approx_groups: Vec<((ApproxKey, ErrorBudget), Vec<Routed>)> = Vec::new();
    for mut job in jobs {
        // The job just left the dispatcher's queue: everything since
        // enqueue was queueing.  The submitted tier class is captured
        // before admission may degrade it.
        job.trace.stamp(Stage::Queue);
        let tier = tier_index(&job.tier);
        // Admission first: an overloaded server turns queries away before
        // spending anything on them.  The verdict reads the queue state
        // stamped at enqueue, so it is independent of drain timing.
        match admission.admit(&job.stamp) {
            Verdict::Accept => {}
            Verdict::Degrade => {
                // Only a tier-dispatched query can change its answer type;
                // an already-approximate tier has nothing to degrade to.
                if matches!(job.sink, Sink::Tiered(_))
                    && !matches!(job.tier, QueryTier::Approximate { .. })
                {
                    job.tier = QueryTier::Approximate {
                        budget: ErrorBudget::default(),
                    };
                    live.degraded_to_approx.inc();
                }
            }
            Verdict::Reject(err) => {
                live.reject(&err);
                job.sink.reject(err);
                continue;
            }
        }
        if let Err(err) = validate_query(engine, &job) {
            live.reject(&err);
            job.sink.reject(err);
            continue;
        }
        // Resolve the tier.  The Auto decision depends only on dataset
        // statistics and k, so it is made once per job at dispatch time and
        // the job then batches with its resolved tier.  The cost probe runs
        // the same engine machinery as a query (merged-engine build, shared
        // prep), so it gets the same panic guard.
        let auto = matches!(job.tier, QueryTier::Auto { .. });
        let budget = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.tier.resolve(|| engine.estimated_cost(job.k))
        })) {
            Ok(budget) => budget,
            Err(_) => {
                live.reject(&ServeError::QueryFailed);
                job.sink.reject(ServeError::QueryFailed);
                continue;
            }
        };
        job.trace.stamp(Stage::Admission);
        let routed = Routed {
            focal: job.focal,
            sink: job.sink,
            auto,
            trace: job.trace,
            tier,
            algorithm: job.algorithm,
        };
        match budget {
            None => {
                let key = (job.algorithm, job.k);
                match exact_groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, group)) => group.push(routed),
                    None => exact_groups.push((key, vec![routed])),
                }
            }
            Some(budget) => {
                let key = approx_key(job.k, &budget);
                match approx_groups.iter_mut().find(|((k, _), _)| *k == key) {
                    Some((_, group)) => group.push(routed),
                    None => approx_groups.push(((key, budget), vec![routed])),
                }
            }
        }
    }

    for ((algorithm, k), group) in exact_groups {
        let auto_routed = group.iter().filter(|j| j.auto).count() as u64;
        // Between the Admission and Batch stamps the job waited for its
        // group to assemble (and for earlier groups to run).
        let mut focals = Vec::with_capacity(group.len());
        let mut rest = Vec::with_capacity(group.len());
        for mut job in group {
            job.trace.stamp(Stage::Batch);
            focals.push(job.focal);
            rest.push((job.sink, job.trace, job.tier));
        }
        // Defense in depth: a panic inside the engine must not take the
        // dispatcher thread (and with it every pending ticket) down.  The
        // engine's caches recover from lock poisoning by rebuilding, so
        // serving continues after a failed batch.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_batch(algorithm, &focals, k)
        }));
        match outcome {
            Ok(results) => {
                // One Engine stamp per job as the group's run returns, so
                // the per-job ack work below lands in the Ack stage.  The
                // returned span ids anchor the per-phase child spans.
                let engine_spans: Vec<Option<SpanId>> = rest
                    .iter_mut()
                    .map(|(_, trace, _)| trace.stamp(Stage::Engine))
                    .collect();
                live.batches.inc();
                live.queries.add(focals.len() as u64);
                live.exact_queries.add(focals.len() as u64);
                live.auto_routed_exact.add(auto_routed);
                live.largest_batch.set_max(focals.len() as u64);
                for (((sink, mut trace, tier), result), engine_span) in
                    rest.into_iter().zip(results).zip(engine_spans)
                {
                    trace.stamp(Stage::Ack);
                    if let Some(engine_span) = engine_span {
                        add_engine_phase_spans(&mut trace, engine_span, &result.stats);
                    }
                    metrics.record_stages(&trace.timings(), &QUERY_STAGES);
                    metrics.record_engine(&result.stats);
                    let total_ns = trace.total_nanos();
                    metrics.finish_trace(trace, total_ns);
                    metrics.record_query(tier, algorithm, total_ns);
                    sink.send_exact(result);
                }
            }
            Err(_) => {
                for (sink, _, _) in rest {
                    live.reject(&ServeError::QueryFailed);
                    sink.reject(ServeError::QueryFailed);
                }
            }
        }
    }

    for (((k, _, _), budget), group) in approx_groups {
        let auto_routed = group.iter().filter(|j| j.auto).count() as u64;
        let mut focals = Vec::with_capacity(group.len());
        let mut rest = Vec::with_capacity(group.len());
        for mut job in group {
            job.trace.stamp(Stage::Batch);
            focals.push(job.focal);
            rest.push((job.sink, job.trace, job.tier, job.algorithm));
        }
        let seed = *approx_seed;
        *approx_seed = approx_seed.wrapping_add(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_approx_batch(&focals, k, &budget, seed)
        }));
        match outcome {
            Ok(estimates) => {
                for (_, trace, _, _) in &mut rest {
                    trace.stamp(Stage::Engine);
                }
                live.batches.inc();
                live.queries.add(focals.len() as u64);
                live.approx_queries.add(focals.len() as u64);
                live.auto_routed_approx.add(auto_routed);
                live.largest_batch.set_max(focals.len() as u64);
                for ((sink, mut trace, tier, algorithm), estimate) in
                    rest.into_iter().zip(estimates)
                {
                    trace.stamp(Stage::Ack);
                    metrics.record_stages(&trace.timings(), &QUERY_STAGES);
                    let total_ns = trace.total_nanos();
                    metrics.finish_trace(trace, total_ns);
                    metrics.record_query(tier, algorithm, total_ns);
                    sink.send_approx(estimate);
                }
            }
            Err(_) => {
                for (sink, _, _, _) in rest {
                    live.reject(&ServeError::QueryFailed);
                    sink.reject(ServeError::QueryFailed);
                }
            }
        }
    }
}
