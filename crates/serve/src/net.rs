//! The wire front-end: a blocking TCP server translating `kspr-wire`
//! frames into [`ServeHandle`] calls.
//!
//! [`NetServer::bind`] spawns an accept loop; every connection gets its own
//! thread and — via [`ServeHandle::fork_client`] — its own admission
//! identity, so one greedy connection exhausts *its* quota, not its
//! neighbours'.  The protocol is strict request/response: one
//! [`kspr_wire::WireRequest`] frame in, one [`kspr_wire::WireResponse`]
//! frame out, in order.  Standing queries are connection-scoped: the
//! `Subscribed` token only means something on the connection that created
//! it, and dropping the connection unregisters everything it still holds
//! (the [`Subscription`] drop glue).
//!
//! Exact results cross the wire as summaries (region count, whole-space
//! flag, rank signature) — the quantities the repo's consistency suites
//! compare — not as region geometry.

use crate::error::ServeError;
use crate::server::ServeHandle;
use crate::subscription::Subscription;
use crate::telemetry::next_server_trace_id;
use kspr::Algorithm;
use kspr_approx::TieredResult;
use kspr_telemetry::{RequestTrace, TraceId};
use kspr_wire::{
    read_frame, read_frame_body, write_frame, ApproxSummary, ErrorCode, FrameError,
    HistogramSummary, MetricsReport, ResultSummary, WireRequest, WireResponse,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP front-end over a [`crate::Server`]'s handle.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` and starts accepting connections, each served on its
    /// own thread against a [`ServeHandle::fork_client`] of `handle`.
    /// Bind to port 0 to let the OS pick (see [`NetServer::local_addr`]).
    pub fn bind(handle: ServeHandle, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handle = handle.fork_client();
                    std::thread::spawn(move || serve_connection(handle, stream));
                }
            })
        };
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop.
    /// Connections already established keep running until their peers hang
    /// up (their handles outlive the front-end, not the [`crate::Server`]).
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks inside `incoming`; poke it awake with a
        // throwaway connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One connection's request/response loop.
///
/// The first four bytes decide the dialect: `b"GET "` means a plaintext
/// HTTP client (curl, a Prometheus scraper) asking for the text metrics
/// exposition, anything else is the little-endian length prefix of a
/// `kspr-wire` frame and starts the normal framed loop.
fn serve_connection(handle: ServeHandle, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut sniff = [0u8; 4];
    if reader.read_exact(&mut sniff).is_err() {
        return;
    }
    if &sniff == b"GET " {
        serve_scrape(&handle, reader, writer);
        return;
    }
    // Connection-scoped standing queries: token -> live subscription.
    // Dropping the map at connection end unregisters them all.
    let mut subs: HashMap<u64, Subscription> = HashMap::new();
    // The sniffed bytes were the first frame's length prefix.
    let mut first = Some(u32::from_le_bytes(sniff));
    loop {
        let frame = match first.take() {
            Some(len) => read_frame_body(&mut reader, len),
            None => read_frame(&mut reader),
        };
        let payload = match frame {
            Ok(payload) => payload,
            // Includes clean EOF — the peer hung up.
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Oversized(_)) | Err(FrameError::Malformed) => {
                // The stream is no longer frame-aligned; report and close.
                let resp = error_response(ErrorCode::Malformed, "oversized or malformed frame");
                let _ = write_frame(&mut writer, &resp.encode());
                return;
            }
        };
        let (response, echo) = match WireRequest::decode_traced(&payload) {
            None => (
                error_response(ErrorCode::Malformed, "payload decoded to no valid request"),
                None,
            ),
            Some((request, client_id)) => {
                // A client-supplied trace id pins the span tree into the
                // flight recorder; otherwise the request runs under a
                // server-assigned id and is only retained when slow.
                let mut trace = match client_id {
                    Some(id) => RequestTrace::traced(TraceId(id), true),
                    None => RequestTrace::traced(next_server_trace_id(), false),
                };
                trace.span("wire");
                (answer(&handle, &mut subs, request, trace), client_id)
            }
        };
        if write_frame(&mut writer, &response.encode_traced(echo)).is_err() {
            return;
        }
    }
}

/// Longest HTTP request head (request line plus headers) a scrape may
/// send; a peer that passes it is disconnected unanswered.
const MAX_SCRAPE_HEAD: u64 = 8 << 10;

/// Answers one HTTP GET and closes: `/trace` serves the flight recorder's
/// retained span trees as Chrome Trace Event Format JSON (load it in
/// `chrome://tracing` or Perfetto), every other path serves the Prometheus
/// text exposition.
///
/// Deliberately minimal: the request headers are drained and ignored and
/// the response closes the connection — exactly what a scrape loop or
/// `curl` needs, with no HTTP machinery the serving stack would otherwise
/// never use.  The head is read through a [`MAX_SCRAPE_HEAD`] cap, so a
/// peer that never sends a newline cannot grow the line buffer.
fn serve_scrape(handle: &ServeHandle, reader: BufReader<TcpStream>, mut writer: TcpStream) {
    let mut head = reader.take(MAX_SCRAPE_HEAD);
    // A line is complete only with its newline: a missing one means EOF or
    // the cap came first.
    let mut next_line = |line: &mut String| {
        line.clear();
        head.read_line(line).is_ok() && line.ends_with('\n')
    };
    let mut line = String::new();
    // The dialect sniff already consumed `GET `, so the first line read is
    // the rest of the request line: `<path> HTTP/1.1`.
    if !next_line(&mut line) {
        return;
    }
    let path = line.split_whitespace().next().unwrap_or("");
    let trace = path == "/trace" || path.starts_with("/trace?");
    // Drain the remaining headers up to the blank line.
    loop {
        if !next_line(&mut line) {
            return;
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let (content_type, body) = if trace {
        ("application/json", handle.chrome_trace())
    } else {
        (
            "text/plain; version=0.0.4",
            handle.metrics().render_prometheus(),
        )
    };
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer
        .write_all(header.as_bytes())
        .and_then(|()| writer.write_all(body.as_bytes()))
        .and_then(|()| writer.flush());
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> WireResponse {
    WireResponse::Error {
        code,
        message: message.into(),
    }
}

/// Maps a serving rejection onto its wire error class.
fn error_of(err: ServeError) -> WireResponse {
    let code = match &err {
        ServeError::InvalidK
        | ServeError::ArityMismatch { .. }
        | ServeError::NonFinite
        | ServeError::InvalidBudget
        | ServeError::UnsupportedAlgorithm => ErrorCode::Invalid,
        ServeError::Overloaded => ErrorCode::Overloaded,
        ServeError::QuotaExceeded => ErrorCode::QuotaExceeded,
        ServeError::Shutdown | ServeError::ServerClosed => ErrorCode::Shutdown,
        ServeError::QueryFailed | ServeError::UpdateFailed => ErrorCode::Internal,
    };
    error_response(code, err.to_string())
}

/// Summarizes an exact result for the wire.
fn summarize(result: &kspr::KsprResult) -> ResultSummary {
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

fn approx_summary(estimate: &kspr::ApproxImpact) -> ApproxSummary {
    ApproxSummary {
        impact: estimate.impact,
        half_width: estimate.half_width,
        samples: estimate.samples as u64,
    }
}

/// Serves one decoded request through the handle.  `trace` rides along
/// into the dispatcher on the submission paths (query / tiered / insert /
/// delete) so the whole request becomes one span tree; the control-plane
/// requests answer inline and drop it.
fn answer(
    handle: &ServeHandle,
    subs: &mut HashMap<u64, Subscription>,
    request: WireRequest,
    trace: RequestTrace,
) -> WireResponse {
    match request {
        WireRequest::Ping => WireResponse::Pong,
        WireRequest::Query {
            algorithm,
            focal,
            k,
        } => match handle
            .submit_with_trace(algorithm, focal, k as usize, trace)
            .wait()
        {
            Ok(result) => WireResponse::Result(summarize(&result)),
            Err(err) => error_of(err),
        },
        WireRequest::Tiered {
            algorithm,
            focal,
            k,
            tier,
        } => {
            let Some(tier) = tier.to_tier() else {
                return error_response(ErrorCode::Invalid, "the tier's budget is malformed");
            };
            match handle
                .submit_tiered_trace(algorithm, focal, k as usize, tier, trace)
                .wait()
            {
                Ok(TieredResult::Exact(result)) => WireResponse::Result(summarize(&result)),
                Ok(TieredResult::Approximate(estimate)) => {
                    WireResponse::Approx(approx_summary(&estimate))
                }
                Err(err) => error_of(err),
            }
        }
        WireRequest::Insert { values } => match handle.insert_trace(values, trace).wait() {
            Ok(id) => WireResponse::Inserted { id: id as u64 },
            Err(err) => error_of(err),
        },
        WireRequest::Delete { id } => match handle.delete_trace(id as usize, trace).wait() {
            Ok(removed) => WireResponse::Deleted { removed },
            Err(err) => error_of(err),
        },
        WireRequest::Subscribe {
            algorithm,
            focal,
            k,
        } => match subscribe(handle, algorithm, focal, k as usize) {
            Ok(sub) => {
                let token = sub.id();
                let initial = summarize(sub.initial());
                subs.insert(token, sub);
                WireResponse::Subscribed { token, initial }
            }
            Err(err) => error_of(err),
        },
        WireRequest::Unsubscribe { token } => match subs.remove(&token) {
            Some(sub) => {
                // Unregister synchronously so a Subscriptions probe right
                // after the response never sees the dying registration
                // (the drop glue alone is fire-and-forget).
                let removed = handle.unsubscribe(sub.id()).wait().unwrap_or(false);
                WireResponse::Unsubscribed { removed }
            }
            None => error_response(ErrorCode::UnknownToken, format!("unknown token {token}")),
        },
        WireRequest::PollDeltas { token } => match subs.get(&token) {
            Some(sub) => WireResponse::Deltas {
                summaries: sub
                    .poll()
                    .into_iter()
                    .map(|delta| ResultSummary {
                        num_regions: delta.regions_after as u64,
                        // Deltas carry counts and ranks, not geometry; the
                        // whole-space flag is not maintained across updates.
                        whole_space: false,
                        rank_signature: delta.ranks_after.into_iter().map(|r| r as u64).collect(),
                    })
                    .collect(),
                closed: false,
            },
            None => error_response(ErrorCode::UnknownToken, format!("unknown token {token}")),
        },
        WireRequest::Subscriptions => match handle.subscriptions().wait() {
            Ok(count) => WireResponse::Count {
                value: count as u64,
            },
            Err(err) => error_of(err),
        },
        WireRequest::Metrics => {
            let snap = handle.metrics();
            let histograms = snap
                .histograms
                .iter()
                .map(|(name, h)| HistogramSummary {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                    max: h.max(),
                })
                .collect();
            WireResponse::Metrics(MetricsReport {
                counters: snap.counters,
                gauges: snap.gauges,
                histograms,
            })
        }
    }
}

fn subscribe(
    handle: &ServeHandle,
    algorithm: Algorithm,
    focal: Vec<f64>,
    k: usize,
) -> Result<Subscription, ServeError> {
    handle.subscribe_with(algorithm, focal, k).wait()
}
