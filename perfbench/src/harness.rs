//! The measured system and the closed-loop client that drives it.
//!
//! Set-up builds the engine, starts a durable `Server`, binds a `NetServer`
//! on loopback and connects the client sockets (plus the workload's standing
//! subscriptions).  Each connection then runs its request stream in a
//! closed loop — one request in flight, the next sent when the reply lands —
//! through `kspr_wire::WireClient` over a default-option `TcpStream`.

use kspr::{Algorithm, KsprConfig};
use kspr_monitor::UpdateKind;
use kspr_serve::{NetServer, ServeHandle, ServeOptions, Server, ShardedEngine};
use kspr_wire::{
    read_frame, write_frame, FrameError, ResultSummary, TierSpec, WireClient, WireRequest,
    WireResponse,
};
use perfbench::inputs::{Inputs, Op, CONFIDENCE, CONNECTIONS, EPSILON, K, SHARDS};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The serving configuration of every workload.
pub fn config() -> KsprConfig {
    KsprConfig::default().with_shards(SHARDS)
}

/// The running system under test.
pub struct Live {
    pub server: Server,
    net: NetServer,
    pub streams: Vec<TcpStream>,
    /// Wire tokens of the standing subscriptions (connection 0).
    pub tokens: Vec<u64>,
    /// Initial results of the standing subscriptions.
    pub initial: Vec<ResultSummary>,
    pub dir: PathBuf,
}

/// Whether a repeated step (set-up, recovery) should run again after `done`
/// repetitions costing `spent_s` seconds: at least 3, then more while under
/// `budget_s` in total (at most 200), so cheap steps report a median of many.
pub fn repeat(done: usize, spent_s: f64, budget_s: f64) -> bool {
    done < 3 || (done < 200 && spent_s < budget_s)
}

/// Starts the system in `dir` (set-up: engine build, durable start, bind,
/// connects, standing subscriptions, warm-up) and returns it with its
/// set-up seconds.
pub fn set_up(inputs: &Inputs, options: ServeOptions, dir: &Path) -> Result<(Live, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let raw = inputs.raw.clone();
    let start = Instant::now();
    let engine = ShardedEngine::new(raw, config());
    let server = Server::start_durable(engine, options, dir)
        .map_err(|err| format!("start_durable: {err}"))?;
    let net = NetServer::bind(server.handle(), "127.0.0.1:0")
        .map_err(|err| format!("bind loopback: {err}"))?;
    let mut streams = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(net.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("connect: {err}"))?;
    let mut tokens = Vec::new();
    let mut initial = Vec::new();
    for focal in &inputs.standing[..inputs.params.standing] {
        let request = WireRequest::Subscribe {
            algorithm: Algorithm::LpCta,
            focal: focal.clone(),
            k: K as u64,
        };
        match WireClient::new(&mut streams[0]).call(&request) {
            Ok(WireResponse::Subscribed { token, initial: s }) => {
                tokens.push(token);
                initial.push(s);
            }
            other => return Err(format!("subscribe: {other:?}")),
        }
    }
    // Warm up: the first exact and approximate queries build the merged
    // candidate engine and sampler lazily; users pay that once per start.
    let warm_up = [
        WireRequest::Query {
            algorithm: Algorithm::LpCta,
            focal: inputs.lookups[0].clone(),
            k: K as u64,
        },
        WireRequest::Tiered {
            algorithm: Algorithm::LpCta,
            focal: inputs.rotation[0].clone(),
            k: K as u64,
            tier: TierSpec::Approximate {
                epsilon: EPSILON,
                confidence: CONFIDENCE,
            },
        },
    ];
    for request in &warm_up {
        match WireClient::new(&mut streams[0]).call(request) {
            Ok(WireResponse::Result(_) | WireResponse::Approx(_)) => {}
            other => return Err(format!("warm-up: {other:?}")),
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let live = Live {
        server,
        net,
        streams,
        tokens,
        initial,
        dir: dir.to_path_buf(),
    };
    Ok((live, secs))
}

impl Live {
    /// Hangs up the clients, stops the front-end and the dispatcher, and
    /// removes the state directory.
    pub fn shut_down(self) {
        let Live {
            server,
            net,
            streams,
            dir,
            ..
        } = self;
        drop(streams);
        net.stop();
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What kind of request a sample timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Update,
    Poll,
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub latency_ns: u64,
    pub ok: bool,
}

/// The benchmark's own spans around one traced exchange, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpans {
    pub trace_id: u64,
    pub kind: Kind,
    pub encode_ns: u64,
    pub write_ns: u64,
    pub wait_ns: u64,
    pub decode_ns: u64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl ClientSpans {
    pub fn total_ns(&self) -> u64 {
        self.encode_ns + self.write_ns + self.wait_ns + self.decode_ns
    }
}

/// What one connection's closed loop produced.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub samples: Vec<Sample>,
    /// Exact answers to check against the oracle:
    /// (sample index, rotation index, answer).
    pub exact: Vec<(usize, usize, ResultSummary)>,
    /// The updates this connection applied, in order.
    pub updates: Vec<(UpdateKind, Vec<f64>)>,
    /// Ids this connection inserted and had not deleted when it stopped.
    pub held: Vec<u64>,
    /// Traced exchanges (traced runs only).
    pub spans: Vec<ClientSpans>,
    pub errors: Vec<String>,
    pub end: Option<Instant>,
}

/// Both connections' outcomes plus the window's wall clock.
pub struct Window {
    pub conns: Vec<ConnOutcome>,
    pub wall_secs: f64,
}

impl Window {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.conns.iter().flat_map(|c| c.samples.iter())
    }

    /// Latencies in milliseconds of the successful samples of `kind`.
    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        self.samples()
            .filter(|s| s.kind == kind && s.ok)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    }

    pub fn attempted(&self) -> usize {
        self.samples().count()
    }

    pub fn failed(&self) -> usize {
        self.samples().filter(|s| !s.ok).count()
    }
}

/// Trace-id space of a traced window: connection in the high bits.
pub fn trace_id(conn: usize, seq: usize) -> u64 {
    (0x7000 + conn as u64) << 32 | seq as u64
}

/// One request/response exchange.  Untraced exchanges are exactly
/// `WireClient::call`; traced ones repeat `WireClient::call_traced` step by
/// step so the benchmark can time encode / write / wait / decode.
fn exchange(
    stream: &mut TcpStream,
    request: &WireRequest,
    traced: Option<(u64, Kind, &mut Vec<ClientSpans>)>,
) -> Result<WireResponse, FrameError> {
    let Some((id, kind, spans)) = traced else {
        return WireClient::new(stream).call(request);
    };
    let t0 = Instant::now();
    let payload = request.encode_traced(Some(id));
    let t1 = Instant::now();
    write_frame(&mut *stream, &payload)?;
    let t2 = Instant::now();
    let reply = read_frame(&mut *stream)?;
    let t3 = Instant::now();
    let (response, echo) = WireResponse::decode_traced(&reply).ok_or(FrameError::Malformed)?;
    let t4 = Instant::now();
    if echo != Some(id) {
        return Err(FrameError::Malformed);
    }
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    spans.push(ClientSpans {
        trace_id: id,
        kind,
        encode_ns: ns(t0, t1),
        write_ns: ns(t1, t2),
        wait_ns: ns(t2, t3),
        decode_ns: ns(t3, t4),
        request_bytes: payload.len() + 4,
        response_bytes: reply.len() + 4,
    });
    Ok(response)
}

/// Runs both connections' streams in a closed loop for `seconds` (and at
/// most `max_ops` requests per connection).
pub fn closed_loop(
    inputs: &Inputs,
    live: &mut Live,
    seconds: f64,
    traced: bool,
    max_ops: usize,
) -> Window {
    let barrier = Barrier::new(CONNECTIONS);
    let tokens = &live.tokens;
    let runs: Vec<(Instant, ConnOutcome)> = std::thread::scope(|scope| {
        let workers: Vec<_> = live
            .streams
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    (
                        start,
                        drive(inputs, conn, stream, tokens, deadline, traced, max_ops),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("a client thread panicked"))
            .collect()
    });
    let start = runs.iter().map(|(s, _)| *s).min().expect("two connections");
    let conns: Vec<ConnOutcome> = runs.into_iter().map(|(_, c)| c).collect();
    let end = conns.iter().filter_map(|c| c.end).max().unwrap_or(start);
    Window {
        conns,
        wall_secs: end.duration_since(start).as_secs_f64(),
    }
}

fn drive(
    inputs: &Inputs,
    conn: usize,
    stream: &mut TcpStream,
    tokens: &[u64],
    deadline: Instant,
    traced: bool,
    max_ops: usize,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut own: VecDeque<(u64, Vec<f64>)> = VecDeque::new();
    let required = kspr::ErrorBudget::new(EPSILON, CONFIDENCE).samples() as u64;
    for (seq, op) in inputs.stream(conn).enumerate() {
        if seq >= max_ops || Instant::now() >= deadline {
            break;
        }
        let (kind, request) = match &op {
            Op::NegLookup(i) => (
                Kind::Query,
                WireRequest::Query {
                    algorithm: Algorithm::LpCta,
                    focal: inputs.lookups[*i].clone(),
                    k: K as u64,
                },
            ),
            Op::Exact(i) => (
                Kind::Query,
                WireRequest::Query {
                    algorithm: Algorithm::LpCta,
                    focal: inputs.rotation[*i].clone(),
                    k: K as u64,
                },
            ),
            Op::Approx(i) => (
                Kind::Query,
                WireRequest::Tiered {
                    algorithm: Algorithm::LpCta,
                    focal: inputs.rotation[*i].clone(),
                    k: K as u64,
                    tier: TierSpec::Approximate {
                        epsilon: EPSILON,
                        confidence: CONFIDENCE,
                    },
                },
            ),
            Op::Poll(i) => (Kind::Poll, WireRequest::PollDeltas { token: tokens[*i] }),
            Op::Insert(values) => (
                Kind::Update,
                WireRequest::Insert {
                    values: values.clone(),
                },
            ),
            Op::DeleteOldest => match own.front() {
                Some(&(id, _)) => (Kind::Update, WireRequest::Delete { id }),
                None => {
                    out.errors.push("delete with no live own insert".into());
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let spans = traced.then(|| (trace_id(conn, seq), kind, &mut out.spans));
        let response = exchange(stream, &request, spans);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let ok = match (&op, response) {
            // Negative lookups have >= k dominators that no update removes.
            (Op::NegLookup(_), Ok(WireResponse::Result(s))) => s.num_regions == 0 && !s.whole_space,
            (Op::Exact(i), Ok(WireResponse::Result(s))) => {
                out.exact.push((out.samples.len(), *i, s));
                true
            }
            (Op::Approx(_), Ok(WireResponse::Approx(a))) => {
                a.half_width <= EPSILON + 1e-12 && a.samples >= required
            }
            (Op::Poll(_), Ok(WireResponse::Deltas { .. })) => true,
            (Op::Insert(values), Ok(WireResponse::Inserted { id })) => {
                own.push_back((id, values.clone()));
                out.updates.push((UpdateKind::Insert, values.clone()));
                true
            }
            (Op::DeleteOldest, Ok(WireResponse::Deleted { removed: true })) => {
                let (_, values) = own.pop_front().expect("checked before sending");
                out.updates.push((UpdateKind::Delete, values));
                true
            }
            _ => false,
        };
        if !ok {
            out.errors.push(format!(
                "request {seq} ({op:?}) got a wrong or failed answer"
            ));
        }
        out.samples.push(Sample {
            kind,
            latency_ns,
            ok,
        });
        out.end = Some(Instant::now());
    }
    out.held = own.into_iter().map(|(id, _)| id).collect();
    out
}

/// Deletes every record the window's writers still hold (untimed), so each
/// run's crash image holds exactly the original live records and recovery
/// re-runs the standing queries against the same data on every seed.
pub fn drain(live: &mut Live, window: &Window) -> Result<(), String> {
    for (conn, outcome) in window.conns.iter().enumerate() {
        for &id in &outcome.held {
            match WireClient::new(&mut live.streams[conn]).call(&WireRequest::Delete { id }) {
                Ok(WireResponse::Deleted { removed: true }) => {}
                other => return Err(format!("drain: delete {id}: {other:?}")),
            }
        }
    }
    Ok(())
}

/// The wire summary of an exact result (the same fields `NetServer` sends).
pub fn summarize(result: &kspr::KsprResult) -> ResultSummary {
    ResultSummary {
        num_regions: result.num_regions() as u64,
        whole_space: result.is_whole_space(),
        rank_signature: result
            .rank_signature()
            .into_iter()
            .map(|r| r as u64)
            .collect(),
    }
}

/// Checks every exact answer of the window against an in-process engine run
/// over the same records, marking each mismatched sample failed.  Tail
/// inserts never change an original focal's answer and negative lookups are
/// checked inline, so the original records are the oracle's whole input.
pub fn check_window(inputs: &Inputs, window: &mut Window) {
    let used: BTreeSet<usize> = window
        .conns
        .iter()
        .flat_map(|c| c.exact.iter().map(|&(_, i, _)| i))
        .collect();
    if used.is_empty() {
        return;
    }
    let focals: Vec<Vec<f64>> = used.iter().map(|&i| inputs.rotation[i].clone()).collect();
    let expected: BTreeMap<usize, ResultSummary> =
        used.iter().copied().zip(oracle(inputs, &focals)).collect();
    for conn in &mut window.conns {
        for (sample, i, answer) in &conn.exact {
            if expected[i] != *answer {
                conn.samples[*sample].ok = false;
                conn.errors.push(format!(
                    "exact answer on rotation focal {i} differs from the oracle"
                ));
            }
        }
    }
}

/// Exact LP-CTA summaries of `focals` over the workload's original records.
pub fn oracle(inputs: &Inputs, focals: &[Vec<f64>]) -> Vec<ResultSummary> {
    ShardedEngine::new(inputs.raw.clone(), config())
        .run_batch(Algorithm::LpCta, focals, K)
        .iter()
        .map(summarize)
        .collect()
}

/// The answers a probe set gets from `handle`: exact queries on two
/// negative-lookup and two standing focals, plus the standing count.
fn probe(inputs: &Inputs, handle: &ServeHandle) -> Result<(Vec<ResultSummary>, usize), String> {
    let focals = inputs
        .lookups
        .iter()
        .take(2)
        .chain(inputs.standing.iter().take(2));
    let answers = focals
        .map(|f| {
            handle
                .submit_with(Algorithm::LpCta, f.clone(), K)
                .wait()
                .map(|r| summarize(&r))
                .map_err(|err| format!("probe query: {err}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let standing = handle
        .subscriptions()
        .wait()
        .map_err(|err| format!("probe subscriptions: {err}"))?;
    Ok((answers, standing))
}

/// Recovery measurements on a crash image of the live system.
pub struct Recovery {
    pub recover_secs: Vec<f64>,
    pub load_secs: Vec<f64>,
    pub probes_match: bool,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Copies the live state directory as a crash image (the dispatcher idle,
/// every acknowledged update committed), then repeatedly (see [`repeat`])
/// restores a fresh copy through `Server::recover`, timing each.  The first
/// recovered server must answer the probe set exactly as the live one does.
pub fn recover(inputs: &Inputs, live: &Live, scratch: &Path) -> Result<Recovery, String> {
    let handle = live.server.handle();
    let (live_answers, live_standing) = probe(inputs, &handle)?;
    let crash = scratch.join("crash");
    copy_dir(&live.dir, &crash).map_err(|err| format!("crash image: {err}"))?;
    let mut recovery = Recovery {
        recover_secs: Vec::new(),
        load_secs: Vec::new(),
        probes_match: true,
    };
    for rep in 0.. {
        if !repeat(rep, recovery.recover_secs.iter().sum(), 5.0) {
            break;
        }
        let dir = scratch.join(format!("recover-{rep}"));
        copy_dir(&crash, &dir).map_err(|err| format!("copy crash image: {err}"))?;
        let start = Instant::now();
        let server = Server::recover(&dir, config(), ServeOptions::default())
            .map_err(|err| format!("recover: {err:?}"))?;
        recovery.recover_secs.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            let (answers, standing) = probe(inputs, &server.handle())?;
            recovery.probes_match = answers == live_answers && standing == live_standing;
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let start = Instant::now();
        let store = kspr_durable::DurableStore::open(&crash)
            .map_err(|err| format!("open crash image: {err}"))?;
        store
            .load()
            .map_err(|err| format!("load crash image: {err}"))?;
        recovery.load_secs.push(start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&crash);
    Ok(recovery)
}
