//! The traced run: per-layer metrics.
//!
//! The same request streams run again with a client trace id on every
//! request and the flight recorder sized to keep every tree.  The benchmark
//! times its own encode / write / wait / decode spans around each exchange,
//! fetches each server span tree through `ServeHandle::trace`, and splits
//! every query's client-observed latency into client spans, server stages
//! and the residual (socket + framing time no server span covers).  The
//! engine, approximate-tier, monitor and WAL rows come from replaying the
//! same inputs through `ShardedEngine`, `Monitor::apply_batch` and
//! `WalWriter::commit` with each call timed.

use crate::harness::{self, ClientSpans, Kind, Live, Window};
use crate::report::Metric;
use kspr::{Algorithm, ErrorBudget, QueryTier};
use kspr_durable::{DurableStore, WalRecord};
use kspr_monitor::{Monitor, UpdateKind};
use kspr_serve::{ShardedEngine, TraceId, TraceRecord};
use kspr_telemetry::{chrome_trace_json, Span, SpanId};
use kspr_wire::{WireClient, WireRequest, WireResponse};
use perfbench::inputs::{Inputs, Op, CONFIDENCE, CONNECTIONS, EPSILON, K, WRITER};
use perfbench::stats::{mean, median, quantile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::time::Instant;

/// Traced requests per connection (the flight recorder keeps all of them).
pub const TRACED_OPS: usize = 2_000;
/// Flight-recorder capacity of a traced run.
pub const RECORDER_CAPACITY: usize = CONNECTIONS * TRACED_OPS + 64;
/// Where traced runs write their chrome-trace file.
const TRACE_DIR: &str = ".bench_out";
const PINGS: usize = 20;
const HANDLE_REPLAY: usize = 24;
const ENGINE_REPLAY: usize = 40;
const APPROX_REPLAY: usize = 32;
const UPDATE_REPLAY: usize = 60;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Measurements that need the live system: the traced window, its
/// attribution, the ping probe and the in-process handle replay.
/// `untraced_query_p50` is the untraced window's query median.
pub fn live_layers(
    inputs: &Inputs,
    live: &mut Live,
    seconds: f64,
    untraced_query_p50: f64,
    errors: &mut Vec<String>,
) -> (Vec<Metric>, usize, usize) {
    let handle = live.server.handle();
    let mut window = harness::closed_loop(inputs, live, seconds, true, TRACED_OPS);
    harness::check_window(inputs, &mut window);
    if let Err(err) = harness::drain(live, &window) {
        errors.push(err);
    }
    for conn in &window.conns {
        errors.extend(conn.errors.iter().cloned());
    }
    // Problems found below (lost trees, failed probes) count as failures.
    let checked_before = errors.len();

    // Split every traced query into client spans, server stages (the root
    // span's children plus its own self time) and the residual.
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::new();
    let mut records = Vec::new();
    let spans: Vec<&ClientSpans> = window.conns.iter().flat_map(|c| c.spans.iter()).collect();
    let traced_queries = spans.iter().filter(|s| s.kind == Kind::Query).count();
    for s in spans.iter().filter(|s| s.kind != Kind::Poll) {
        // Control-plane requests (PollDeltas) carry no server span tree.
        let Some(tree) = handle.trace(TraceId(s.trace_id)) else {
            errors.push(format!("trace {:#x} was not retained", s.trace_id));
            continue;
        };
        if !tree.is_well_formed() {
            errors.push(format!("trace {:#x} is malformed", s.trace_id));
        }
        records.push(merged_record(s, &tree));
        if s.kind != Kind::Query {
            continue;
        }
        let root = tree.root().duration_ns();
        let mut row: BTreeMap<&'static str, f64> = BTreeMap::new();
        row.insert("client.encode", ms(s.encode_ns));
        row.insert("client.decode", ms(s.decode_ns));
        let mut covered = 0;
        for child in tree.children(SpanId(0)) {
            *row.entry(child.name).or_default() += ms(child.duration_ns());
            covered += child.duration_ns();
        }
        row.insert("request", ms(root.saturating_sub(covered)));
        row.insert(
            "net.residual",
            (s.write_ns + s.wait_ns) as f64 / 1e6 - ms(root),
        );
        let q = totals.len();
        for (name, value) in row {
            let column = parts.entry(name).or_default();
            // Stages a request skipped count as zero for it.
            column.resize(q, 0.0);
            column.push(value);
        }
        totals.push(ms(s.total_ns()));
    }
    let n = totals.len();
    for column in parts.values_mut() {
        column.resize(n, 0.0);
    }
    let column = |name: &str| parts.get(name).cloned().unwrap_or_else(|| vec![0.0; n]);
    eprintln!("attribution of {n} traced queries (mean ms; parts add up to the client latency):");
    let mut sum = 0.0;
    for (name, values) in &parts {
        let m = mean(values);
        sum += m;
        eprintln!("  {name:<16} {m:>10.4}");
    }
    eprintln!(
        "  {:<16} {sum:>10.4}  vs client mean {:.4}",
        "sum",
        mean(&totals)
    );
    if n > 0 && (sum - mean(&totals)).abs() > 1e-6 * mean(&totals).max(1.0) {
        errors.push("stage attribution does not add up to the client latency".into());
    }
    if traced_queries != n {
        errors.push(format!(
            "{} traced queries lost their trees",
            traced_queries - n
        ));
    }
    write_chrome_trace(inputs, &records, errors);

    let residual = column("net.residual");
    let queue = column("queue");
    let all = |f: fn(&ClientSpans) -> f64| spans.iter().map(|s| f(s)).collect::<Vec<_>>();

    let mut pings = Vec::new();
    for _ in 0..PINGS {
        let start = Instant::now();
        match WireClient::new(&mut live.streams[0]).call(&WireRequest::Ping) {
            Ok(WireResponse::Pong) => pings.push(start.elapsed().as_secs_f64() * 1e3),
            other => errors.push(format!("ping: {other:?}")),
        }
    }

    // The same query requests through an in-process handle: no socket.
    let mut in_process = Vec::new();
    let budget = ErrorBudget::new(EPSILON, CONFIDENCE);
    for op in inputs.stream(0).take(4 * HANDLE_REPLAY) {
        let start = Instant::now();
        let answered = match op {
            Op::NegLookup(i) => handle
                .submit_with(Algorithm::LpCta, inputs.lookups[i].clone(), K)
                .wait()
                .is_ok(),
            Op::Exact(i) => handle
                .submit_with(Algorithm::LpCta, inputs.rotation[i].clone(), K)
                .wait()
                .is_ok(),
            Op::Approx(i) => handle
                .submit_tiered(
                    Algorithm::LpCta,
                    inputs.rotation[i].clone(),
                    K,
                    QueryTier::Approximate { budget },
                )
                .wait()
                .is_ok(),
            _ => continue,
        };
        if !answered {
            errors.push("in-process replay query failed".into());
        }
        in_process.push(start.elapsed().as_secs_f64() * 1e3);
        if in_process.len() == HANDLE_REPLAY {
            break;
        }
    }

    let stats = handle.stats_now();
    let fsyncs = handle.metrics().counter("kspr_wal_fsyncs").unwrap_or(0);
    let traced_p50 = median(&totals);
    let s = spans.len();
    let attempted = window.attempted() + PINGS + in_process.len();
    let failed = window.failed() + errors.len() - checked_before;
    let metrics = vec![
        Metric::new(
            "wire.encode_us",
            median(&all(|s| s.encode_ns as f64 / 1e3)),
            "us",
            s,
        ),
        Metric::new(
            "wire.decode_us",
            median(&all(|s| s.decode_ns as f64 / 1e3)),
            "us",
            s,
        ),
        Metric::new(
            "wire.request_bytes",
            mean(&all(|s| s.request_bytes as f64)),
            "bytes",
            s,
        ),
        Metric::new(
            "wire.response_bytes",
            mean(&all(|s| s.response_bytes as f64)),
            "bytes",
            s,
        ),
        Metric::new("net.ping_rtt_ms", median(&pings), "ms", pings.len()),
        Metric::new("net.residual_p50_ms", median(&residual), "ms", n),
        Metric::new("net.residual_p95_ms", quantile(&residual, 0.95), "ms", n),
        Metric::new(
            "net.residual_share",
            median(&residual) / traced_p50,
            "ratio",
            n,
        ),
        Metric::new("serve.queue_p50_ms", median(&queue), "ms", n),
        Metric::new("serve.queue_p95_ms", quantile(&queue, 0.95), "ms", n),
        Metric::new(
            "serve.admission_us",
            1e3 * median(&column("admission")),
            "us",
            n,
        ),
        Metric::new("serve.batch_us", 1e3 * median(&column("batch")), "us", n),
        Metric::new("serve.ack_us", 1e3 * median(&column("ack")), "us", n),
        Metric::new(
            "serve.batch_size",
            stats.queries as f64 / stats.batches.max(1) as f64,
            "count",
            stats.batches as usize,
        ),
        Metric::new(
            "serve.handle_ms",
            median(&in_process),
            "ms",
            in_process.len(),
        ),
        Metric::new(
            "durable.fsyncs_per_update",
            fsyncs as f64 / stats.updates.max(1) as f64,
            "ratio",
            stats.updates as usize,
        ),
        Metric::new(
            "telemetry.trace_overhead_ms",
            traced_p50 - untraced_query_p50,
            "ms",
            n,
        ),
    ];
    (metrics, attempted, failed)
}

/// One chrome-trace lane per request: the benchmark's client spans with the
/// server's tree grafted under `wait`, centred in it (the residual split
/// evenly before and after, since the two clocks share no origin).
fn merged_record(s: &ClientSpans, tree: &TraceRecord) -> TraceRecord {
    let span =
        |id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64| Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            start_ns,
            end_ns,
        };
    let (e, w, wait) = (s.encode_ns, s.write_ns, s.wait_ns);
    let mut spans = vec![
        span(0, None, "client", 0, s.total_ns()),
        span(1, Some(0), "encode", 0, e),
        span(2, Some(0), "write", e, e + w),
        span(3, Some(0), "wait", e + w, e + w + wait),
        span(4, Some(0), "decode", e + w + wait, s.total_ns()),
    ];
    let root = tree.root().duration_ns().min(wait);
    let offset = e + w + (wait - root) / 2;
    for server in &tree.spans {
        spans.push(span(
            server.id.0 + 5,
            Some(server.parent.map_or(3, |p| p.0 + 5)),
            server.name,
            offset + server.start_ns.min(root),
            offset + server.end_ns.min(root),
        ));
    }
    TraceRecord {
        trace_id: TraceId(s.trace_id),
        spans,
    }
}

fn write_chrome_trace(inputs: &Inputs, records: &[TraceRecord], errors: &mut Vec<String>) {
    let path = Path::new(TRACE_DIR).join(format!(
        "{}-seed{}.trace.json",
        inputs.workload.name(),
        inputs.seed
    ));
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(records)));
    match written {
        Ok(()) => eprintln!(
            "chrome trace of {} requests: {}",
            records.len(),
            path.display()
        ),
        Err(err) => errors.push(format!("write {}: {err}", path.display())),
    }
}

/// Offline replays of the untraced window's inputs through each crate's
/// public entry points, every call timed.
pub fn replay_layers(
    inputs: &Inputs,
    window: &Window,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();

    // sharded + engine: the window's exact focals.  A window that ran none
    // (negative lookups expand no CellTree) replays its standing focals.
    let exact: BTreeSet<usize> = window
        .conns
        .iter()
        .flat_map(|c| c.exact.iter().map(|&(_, i, _)| i))
        .collect();
    let focals: Vec<&Vec<f64>> = if exact.is_empty() {
        inputs.standing[..inputs.params.replay_standing]
            .iter()
            .collect()
    } else {
        exact
            .iter()
            .take(ENGINE_REPLAY)
            .map(|&i| &inputs.rotation[i])
            .collect()
    };
    let engine = ShardedEngine::new(inputs.raw.clone(), harness::config());
    engine.run(Algorithm::LpCta, focals[0], K); // builds the merged candidate engine
    let mut query_ms = Vec::new();
    let mut runs = Vec::new();
    for focal in &focals {
        let start = Instant::now();
        let result = engine.run(Algorithm::LpCta, focal, K);
        query_ms.push(start.elapsed().as_secs_f64() * 1e3);
        runs.push(result.stats);
    }
    let q = runs.len();
    let per_query = |f: fn(&kspr::QueryStats) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    metrics.extend([
        Metric::new("sharded.query_ms", median(&query_ms), "ms", q),
        Metric::new(
            "engine.prep_ms",
            per_query(|s| ms(s.phases.prep_ns)),
            "ms",
            q,
        ),
        Metric::new(
            "engine.dominance_ms",
            per_query(|s| ms(s.phases.dominance_ns)),
            "ms",
            q,
        ),
        Metric::new(
            "engine.expansion_ms",
            per_query(|s| ms(s.phases.expansion_ns)),
            "ms",
            q,
        ),
        Metric::new("engine.lp_ms", per_query(|s| ms(s.phases.lp_ns)), "ms", q),
        Metric::new(
            "engine.expansion_non_lp_ms",
            per_query(|s| ms(s.phases.expansion_ns.saturating_sub(s.phases.lp_ns))),
            "ms",
            q,
        ),
        Metric::new(
            "engine.celltree_nodes",
            per_query(|s| s.celltree_nodes as f64),
            "count",
            q,
        ),
        Metric::new(
            "engine.feasibility_tests",
            per_query(|s| s.feasibility_tests as f64),
            "count",
            q,
        ),
        Metric::new("lp.pivots", per_query(|s| s.lp_pivots as f64), "count", q),
    ]);

    // approx: one estimate per rotation focal.
    let budget = ErrorBudget::new(EPSILON, CONFIDENCE);
    let mut estimate_ms = Vec::new();
    let mut samples = Vec::new();
    for (j, focal) in inputs.rotation.iter().take(APPROX_REPLAY).enumerate() {
        let start = Instant::now();
        let estimate = engine.run_approx_batch(std::slice::from_ref(focal), K, &budget, j as u64);
        estimate_ms.push(start.elapsed().as_secs_f64() * 1e3);
        samples.extend(estimate.iter().map(|e| e.samples as f64));
    }
    metrics.extend([
        Metric::new(
            "approx.estimate_ms",
            median(&estimate_ms),
            "ms",
            estimate_ms.len(),
        ),
        Metric::new("approx.samples", mean(&samples), "count", samples.len()),
    ]);
    drop(engine);

    // monitor + durable: the writer's update stream against standing queries.
    let updates: Vec<&(UpdateKind, Vec<f64>)> = window.conns[WRITER]
        .updates
        .iter()
        .take(UPDATE_REPLAY)
        .collect();
    let mut engine = ShardedEngine::new(inputs.raw.clone(), harness::config());
    let mut monitor = Monitor::new();
    let mut register_s = Vec::new();
    for focal in &inputs.standing[..inputs.params.replay_standing] {
        let start = Instant::now();
        monitor
            .register(&engine, Algorithm::LpCta, focal.clone(), K)
            .map_err(|err| format!("monitor register: {err}"))?;
        register_s.push(start.elapsed().as_secs_f64());
    }
    let store = DurableStore::open(scratch.join("wal-replay"))
        .map_err(|err| format!("WAL replay: {err}"))?;
    let mut wal = store
        .wal_writer(true)
        .map_err(|err| format!("WAL replay: {err}"))?;
    let mut own = VecDeque::new();
    let mut maintenance_ms = Vec::new();
    let mut commit_ms = Vec::new();
    for (kind, values) in &updates {
        let record = match kind {
            UpdateKind::Insert => {
                let id = engine.insert(values.clone());
                own.push_back(id);
                WalRecord::Insert {
                    id,
                    values: values.clone(),
                }
            }
            UpdateKind::Delete => {
                let id = own.pop_front().ok_or("replayed delete before its insert")?;
                engine.delete(id);
                WalRecord::Delete { id }
            }
        };
        let start = Instant::now();
        monitor.apply_batch(&engine, &[(*kind, values.clone())]);
        maintenance_ms.push(start.elapsed().as_secs_f64() * 1e3);
        wal.append(&record);
        let start = Instant::now();
        wal.commit().map_err(|err| format!("WAL commit: {err}"))?;
        commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let u = updates.len();
    let stats = monitor.stats();
    metrics.extend([
        Metric::new(
            "monitor.maintenance_p50_ms",
            median(&maintenance_ms),
            "ms",
            u,
        ),
        Metric::new(
            "monitor.maintenance_p95_ms",
            quantile(&maintenance_ms, 0.95),
            "ms",
            u,
        ),
        Metric::new(
            "monitor.rerun_ratio",
            stats.reruns as f64 / stats.classified().max(1) as f64,
            "ratio",
            stats.classified() as usize,
        ),
        Metric::new(
            "monitor.engine_runs_per_update",
            stats.engine_runs as f64 / u.max(1) as f64,
            "ratio",
            u,
        ),
        Metric::new(
            "monitor.register_s",
            median(&register_s),
            "s",
            register_s.len(),
        ),
        Metric::new("durable.wal_commit_p50_ms", median(&commit_ms), "ms", u),
        Metric::new(
            "durable.wal_commit_p95_ms",
            quantile(&commit_ms, 0.95),
            "ms",
            u,
        ),
        Metric::new(
            "durable.wal_bytes_per_update",
            wal.bytes() as f64 / u.max(1) as f64,
            "bytes",
            u,
        ),
    ]);
    drop(wal);
    let _ = std::fs::remove_dir_all(store.dir());
    Ok(metrics)
}
