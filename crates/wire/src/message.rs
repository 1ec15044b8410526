//! The request/response message set and its byte codec.

use crate::codec::{
    get_f64, get_row, get_str, get_u32, get_u64, get_u8, put_f64, put_row, put_str, put_u64,
};
use crate::WIRE_VERSION;
use kspr::approximate::{ErrorBudget, QueryTier};
use kspr::Algorithm;

/// A tier request as it travels on the wire — plain numbers, no validation.
///
/// The serving side converts with [`TierSpec::to_tier`], which rejects
/// out-of-range budgets instead of panicking the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TierSpec {
    /// Run the exact engine.
    Exact,
    /// Run the sampler under an `(epsilon, confidence)` budget.
    Approximate {
        /// Maximum interval half-width, in `(0, 1)`.
        epsilon: f64,
        /// Two-sided confidence level, in `(0, 1)`.
        confidence: f64,
    },
    /// Cost-based routing between the two.
    Auto {
        /// Maximum interval half-width of the sampling fallback.
        epsilon: f64,
        /// Two-sided confidence level of the sampling fallback.
        confidence: f64,
        /// Largest estimated arrangement cost still routed exactly.
        cost_threshold: f64,
    },
}

impl TierSpec {
    /// Converts to the engine's [`QueryTier`], rejecting invalid budgets.
    pub fn to_tier(self) -> Option<QueryTier> {
        let budget = |epsilon: f64, confidence: f64| {
            (epsilon > 0.0 && epsilon < 1.0 && confidence > 0.0 && confidence < 1.0).then_some(
                ErrorBudget {
                    epsilon,
                    confidence,
                },
            )
        };
        Some(match self {
            TierSpec::Exact => QueryTier::Exact,
            TierSpec::Approximate {
                epsilon,
                confidence,
            } => QueryTier::Approximate {
                budget: budget(epsilon, confidence)?,
            },
            TierSpec::Auto {
                epsilon,
                confidence,
                cost_threshold,
            } => {
                if !cost_threshold.is_finite() || cost_threshold < 0.0 {
                    return None;
                }
                QueryTier::Auto {
                    budget: budget(epsilon, confidence)?,
                    cost_threshold,
                }
            }
        })
    }
}

impl From<QueryTier> for TierSpec {
    fn from(tier: QueryTier) -> Self {
        match tier {
            QueryTier::Exact => TierSpec::Exact,
            QueryTier::Approximate { budget } => TierSpec::Approximate {
                epsilon: budget.epsilon,
                confidence: budget.confidence,
            },
            QueryTier::Auto {
                budget,
                cost_threshold,
            } => TierSpec::Auto {
                epsilon: budget.epsilon,
                confidence: budget.confidence,
                cost_threshold,
            },
        }
    }
}

/// What a client can ask the serving stack to do.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// One exact query.
    Query {
        /// Algorithm to run.
        algorithm: Algorithm,
        /// The focal record.
        focal: Vec<f64>,
        /// The query's `k`.
        k: u64,
    },
    /// One tier-dispatched query (the path admission control may degrade).
    Tiered {
        /// Algorithm of the exact path.
        algorithm: Algorithm,
        /// The focal record.
        focal: Vec<f64>,
        /// The query's `k`.
        k: u64,
        /// Requested tier.
        tier: TierSpec,
    },
    /// Insert one record.
    Insert {
        /// The record's attribute values.
        values: Vec<f64>,
    },
    /// Delete a record by global id.
    Delete {
        /// The global record id.
        id: u64,
    },
    /// Register a standing query.
    Subscribe {
        /// Algorithm maintaining the standing result.
        algorithm: Algorithm,
        /// The focal record.
        focal: Vec<f64>,
        /// The query's `k`.
        k: u64,
    },
    /// Unregister a standing query by its wire token.
    Unsubscribe {
        /// Token returned by `Subscribed`.
        token: u64,
    },
    /// Drain the pending result deltas of a standing query.
    PollDeltas {
        /// Token returned by `Subscribed`.
        token: u64,
    },
    /// Admin: number of registered standing queries.
    Subscriptions,
    /// Admin: live telemetry snapshot (every serving counter and gauge,
    /// latency-histogram summaries).
    Metrics,
}

/// Exact-result summary crossing the wire: the quantities the repo's
/// consistency suites compare (region count, whole-space flag, sorted rank
/// signature), not the unbounded region geometry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSummary {
    /// Number of maximal kSPR regions.
    pub num_regions: u64,
    /// Whether the result covers the whole preference space.
    pub whole_space: bool,
    /// Sorted multiset of region ranks.
    pub rank_signature: Vec<u64>,
}

/// One latency histogram's wire summary: the quantile digest, not the
/// bucket array — enough for dashboards and the scrape demos, a fraction of
/// the bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// The histogram's registry name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values (nanoseconds for latency histograms).
    pub sum: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// The live telemetry snapshot crossing the wire: labelled counters and
/// gauges plus one [`HistogramSummary`] per latency histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// `(name, value)` counter pairs, order-stable per server build.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs.
    pub gauges: Vec<(String, u64)>,
    /// One summary per histogram.
    pub histograms: Vec<HistogramSummary>,
}

/// Approximate answer crossing the wire (this *is* the full answer).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxSummary {
    /// Point estimate of the market impact in `[0, 1]`.
    pub impact: f64,
    /// Half-width of the confidence interval.
    pub half_width: f64,
    /// Samples drawn.
    pub samples: u64,
}

/// Machine-readable failure class of a [`WireResponse::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame decoded to no valid request.
    Malformed = 1,
    /// The request was structurally valid but semantically rejected
    /// (dimension mismatch, `k = 0`, non-finite values, bad budget, ...).
    Invalid = 2,
    /// Admission control rejected the request: the queue is past its hard
    /// limit.
    Overloaded = 3,
    /// Admission control rejected the request: the client exhausted its
    /// quota of queued, undispatched queries.
    QuotaExceeded = 4,
    /// The server is shutting down.
    Shutdown = 5,
    /// The referenced subscription token is unknown on this connection.
    UnknownToken = 6,
    /// The dispatcher failed internally.
    Internal = 7,
}

impl ErrorCode {
    fn decode(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Invalid,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::QuotaExceeded,
            5 => ErrorCode::Shutdown,
            6 => ErrorCode::UnknownToken,
            7 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// What the serving stack answers.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// The request failed; `code` is machine-readable, `message` is for
    /// humans.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `Ping`.
    Pong,
    /// An exact result summary (answers `Query`, and `Tiered` when the
    /// exact engine ran).
    Result(ResultSummary),
    /// An approximate estimate (answers `Tiered` when the sampler ran —
    /// whether by request or by admission-control degradation).
    Approx(ApproxSummary),
    /// Answer to `Insert`: the new record's global id.
    Inserted {
        /// The assigned global id.
        id: u64,
    },
    /// Answer to `Delete`.
    Deleted {
        /// Whether a live record was removed.
        removed: bool,
    },
    /// Answer to `Subscribe`.
    Subscribed {
        /// Connection-scoped token for `PollDeltas` / `Unsubscribe`.
        token: u64,
        /// The standing query's initial result.
        initial: ResultSummary,
    },
    /// Answer to `Unsubscribe`.
    Unsubscribed {
        /// Whether the standing query was still registered.
        removed: bool,
    },
    /// Answer to `PollDeltas`: the drained result summaries, oldest first.
    Deltas {
        /// One summary per delta since the last poll.
        summaries: Vec<ResultSummary>,
        /// Whether the server closed the delta stream.
        closed: bool,
    },
    /// Answer to `Subscriptions`.
    Count {
        /// The requested count.
        value: u64,
    },
    /// Answer to `Metrics`: the live telemetry snapshot.
    Metrics(MetricsReport),
}

const REQ_PING: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_TIERED: u8 = 3;
const REQ_INSERT: u8 = 4;
const REQ_DELETE: u8 = 5;
const REQ_SUBSCRIBE: u8 = 6;
const REQ_UNSUBSCRIBE: u8 = 7;
const REQ_POLL_DELTAS: u8 = 8;
const REQ_SUBSCRIPTIONS: u8 = 9;
const REQ_METRICS: u8 = 11;

const RESP_ERROR: u8 = 0;
const RESP_PONG: u8 = 1;
const RESP_RESULT: u8 = 2;
const RESP_APPROX: u8 = 3;
const RESP_INSERTED: u8 = 4;
const RESP_DELETED: u8 = 5;
const RESP_SUBSCRIBED: u8 = 6;
const RESP_UNSUBSCRIBED: u8 = 7;
const RESP_DELTAS: u8 = 8;
const RESP_COUNT: u8 = 9;
const RESP_METRICS: u8 = 11;

const TIER_EXACT: u8 = 0;
const TIER_APPROX: u8 = 1;
const TIER_AUTO: u8 = 2;

fn put_algorithm(out: &mut Vec<u8>, algorithm: Algorithm) {
    out.push(match algorithm {
        Algorithm::Cta => 0,
        Algorithm::Pcta => 1,
        Algorithm::LpCta => 2,
        Algorithm::KSkyband => 3,
        Algorithm::Rtopk => 4,
        Algorithm::IMaxRank => 5,
    });
}

fn get_algorithm(bytes: &[u8], at: &mut usize) -> Option<Algorithm> {
    Some(match get_u8(bytes, at)? {
        0 => Algorithm::Cta,
        1 => Algorithm::Pcta,
        2 => Algorithm::LpCta,
        3 => Algorithm::KSkyband,
        4 => Algorithm::Rtopk,
        5 => Algorithm::IMaxRank,
        _ => return None,
    })
}

fn put_tier(out: &mut Vec<u8>, tier: TierSpec) {
    match tier {
        TierSpec::Exact => out.push(TIER_EXACT),
        TierSpec::Approximate {
            epsilon,
            confidence,
        } => {
            out.push(TIER_APPROX);
            put_f64(out, epsilon);
            put_f64(out, confidence);
        }
        TierSpec::Auto {
            epsilon,
            confidence,
            cost_threshold,
        } => {
            out.push(TIER_AUTO);
            put_f64(out, epsilon);
            put_f64(out, confidence);
            put_f64(out, cost_threshold);
        }
    }
}

fn get_tier(bytes: &[u8], at: &mut usize) -> Option<TierSpec> {
    Some(match get_u8(bytes, at)? {
        TIER_EXACT => TierSpec::Exact,
        TIER_APPROX => TierSpec::Approximate {
            epsilon: get_f64(bytes, at)?,
            confidence: get_f64(bytes, at)?,
        },
        TIER_AUTO => TierSpec::Auto {
            epsilon: get_f64(bytes, at)?,
            confidence: get_f64(bytes, at)?,
            cost_threshold: get_f64(bytes, at)?,
        },
        _ => return None,
    })
}

fn put_summary(out: &mut Vec<u8>, summary: &ResultSummary) {
    put_u64(out, summary.num_regions);
    out.push(summary.whole_space as u8);
    out.extend_from_slice(&(summary.rank_signature.len() as u32).to_le_bytes());
    for &rank in &summary.rank_signature {
        put_u64(out, rank);
    }
}

fn get_summary(bytes: &[u8], at: &mut usize) -> Option<ResultSummary> {
    let num_regions = get_u64(bytes, at)?;
    let whole_space = match get_u8(bytes, at)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let n = get_u32(bytes, at)? as usize;
    if n > bytes.len().saturating_sub(*at) / 8 {
        return None;
    }
    let mut rank_signature = Vec::with_capacity(n);
    for _ in 0..n {
        rank_signature.push(get_u64(bytes, at)?);
    }
    Some(ResultSummary {
        num_regions,
        whole_space,
        rank_signature,
    })
}

fn put_fields(out: &mut Vec<u8>, fields: &[(String, u64)]) {
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for (name, value) in fields {
        put_str(out, name);
        put_u64(out, *value);
    }
}

fn get_fields(bytes: &[u8], at: &mut usize) -> Option<Vec<(String, u64)>> {
    let n = get_u32(bytes, at)? as usize;
    if n > bytes.len().saturating_sub(*at) {
        return None;
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(bytes, at)?;
        let value = get_u64(bytes, at)?;
        fields.push((name, value));
    }
    Some(fields)
}

fn put_histogram_summary(out: &mut Vec<u8>, summary: &HistogramSummary) {
    put_str(out, &summary.name);
    put_u64(out, summary.count);
    put_u64(out, summary.sum);
    put_u64(out, summary.p50);
    put_u64(out, summary.p90);
    put_u64(out, summary.p99);
    put_u64(out, summary.max);
}

fn get_histogram_summary(bytes: &[u8], at: &mut usize) -> Option<HistogramSummary> {
    Some(HistogramSummary {
        name: get_str(bytes, at)?,
        count: get_u64(bytes, at)?,
        sum: get_u64(bytes, at)?,
        p50: get_u64(bytes, at)?,
        p90: get_u64(bytes, at)?,
        p99: get_u64(bytes, at)?,
        max: get_u64(bytes, at)?,
    })
}

fn header(opcode: u8) -> Vec<u8> {
    vec![WIRE_VERSION, opcode, 0]
}

/// Decodes the prefix `[version][opcode][trace flag][trace id?]`, yielding
/// the opcode, the field offset and the trace id (if any).
fn open(payload: &[u8]) -> Option<(u8, usize, Option<u64>)> {
    let mut at = 0;
    if get_u8(payload, &mut at)? != WIRE_VERSION {
        return None;
    }
    let opcode = get_u8(payload, &mut at)?;
    let trace_id = match get_u8(payload, &mut at)? {
        0 => None,
        1 => Some(get_u64(payload, &mut at)?),
        _ => return None,
    };
    Some((opcode, at, trace_id))
}

/// Rewrites an [`header`]-prefixed payload to carry `trace_id`.
fn with_trace(out: Vec<u8>, trace_id: Option<u64>) -> Vec<u8> {
    let Some(id) = trace_id else { return out };
    let mut spliced = Vec::with_capacity(out.len() + 8);
    spliced.extend_from_slice(&out[..2]);
    spliced.push(1);
    spliced.extend_from_slice(&id.to_le_bytes());
    spliced.extend_from_slice(&out[3..]);
    spliced
}

/// Requires the whole payload to have been consumed.
fn finish<T>(value: T, at: usize, payload: &[u8]) -> Option<T> {
    (at == payload.len()).then_some(value)
}

impl WireRequest {
    /// Encodes to one frame payload (version + opcode + fields).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireRequest::Ping => header(REQ_PING),
            WireRequest::Query {
                algorithm,
                focal,
                k,
            } => {
                let mut out = header(REQ_QUERY);
                put_algorithm(&mut out, *algorithm);
                put_u64(&mut out, *k);
                put_row(&mut out, focal);
                out
            }
            WireRequest::Tiered {
                algorithm,
                focal,
                k,
                tier,
            } => {
                let mut out = header(REQ_TIERED);
                put_algorithm(&mut out, *algorithm);
                put_u64(&mut out, *k);
                put_tier(&mut out, *tier);
                put_row(&mut out, focal);
                out
            }
            WireRequest::Insert { values } => {
                let mut out = header(REQ_INSERT);
                put_row(&mut out, values);
                out
            }
            WireRequest::Delete { id } => {
                let mut out = header(REQ_DELETE);
                put_u64(&mut out, *id);
                out
            }
            WireRequest::Subscribe {
                algorithm,
                focal,
                k,
            } => {
                let mut out = header(REQ_SUBSCRIBE);
                put_algorithm(&mut out, *algorithm);
                put_u64(&mut out, *k);
                put_row(&mut out, focal);
                out
            }
            WireRequest::Unsubscribe { token } => {
                let mut out = header(REQ_UNSUBSCRIBE);
                put_u64(&mut out, *token);
                out
            }
            WireRequest::PollDeltas { token } => {
                let mut out = header(REQ_POLL_DELTAS);
                put_u64(&mut out, *token);
                out
            }
            WireRequest::Subscriptions => header(REQ_SUBSCRIPTIONS),
            WireRequest::Metrics => header(REQ_METRICS),
        }
    }

    /// [`WireRequest::encode`] with an optional trace id in the trace
    /// slot.
    pub fn encode_traced(&self, trace_id: Option<u64>) -> Vec<u8> {
        with_trace(self.encode(), trace_id)
    }

    /// Decodes one frame payload; `None` on any structural problem.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        Self::decode_traced(payload).map(|(request, _)| request)
    }

    /// [`WireRequest::decode`] that also yields the trace id the frame
    /// carried, if any.
    pub fn decode_traced(payload: &[u8]) -> Option<(Self, Option<u64>)> {
        let (opcode, mut at, trace_id) = open(payload)?;
        let request = match opcode {
            REQ_PING => WireRequest::Ping,
            REQ_QUERY => WireRequest::Query {
                algorithm: get_algorithm(payload, &mut at)?,
                k: get_u64(payload, &mut at)?,
                focal: get_row(payload, &mut at)?,
            },
            REQ_TIERED => WireRequest::Tiered {
                algorithm: get_algorithm(payload, &mut at)?,
                k: get_u64(payload, &mut at)?,
                tier: get_tier(payload, &mut at)?,
                focal: get_row(payload, &mut at)?,
            },
            REQ_INSERT => WireRequest::Insert {
                values: get_row(payload, &mut at)?,
            },
            REQ_DELETE => WireRequest::Delete {
                id: get_u64(payload, &mut at)?,
            },
            REQ_SUBSCRIBE => WireRequest::Subscribe {
                algorithm: get_algorithm(payload, &mut at)?,
                k: get_u64(payload, &mut at)?,
                focal: get_row(payload, &mut at)?,
            },
            REQ_UNSUBSCRIBE => WireRequest::Unsubscribe {
                token: get_u64(payload, &mut at)?,
            },
            REQ_POLL_DELTAS => WireRequest::PollDeltas {
                token: get_u64(payload, &mut at)?,
            },
            REQ_SUBSCRIPTIONS => WireRequest::Subscriptions,
            REQ_METRICS => WireRequest::Metrics,
            _ => return None,
        };
        finish((request, trace_id), at, payload)
    }
}

impl WireResponse {
    /// Encodes to one frame payload (version + opcode + fields).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireResponse::Error { code, message } => {
                let mut out = header(RESP_ERROR);
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_str(&mut out, message);
                out
            }
            WireResponse::Pong => header(RESP_PONG),
            WireResponse::Result(summary) => {
                let mut out = header(RESP_RESULT);
                put_summary(&mut out, summary);
                out
            }
            WireResponse::Approx(summary) => {
                let mut out = header(RESP_APPROX);
                put_f64(&mut out, summary.impact);
                put_f64(&mut out, summary.half_width);
                put_u64(&mut out, summary.samples);
                out
            }
            WireResponse::Inserted { id } => {
                let mut out = header(RESP_INSERTED);
                put_u64(&mut out, *id);
                out
            }
            WireResponse::Deleted { removed } => {
                let mut out = header(RESP_DELETED);
                out.push(*removed as u8);
                out
            }
            WireResponse::Subscribed { token, initial } => {
                let mut out = header(RESP_SUBSCRIBED);
                put_u64(&mut out, *token);
                put_summary(&mut out, initial);
                out
            }
            WireResponse::Unsubscribed { removed } => {
                let mut out = header(RESP_UNSUBSCRIBED);
                out.push(*removed as u8);
                out
            }
            WireResponse::Deltas { summaries, closed } => {
                let mut out = header(RESP_DELTAS);
                out.push(*closed as u8);
                out.extend_from_slice(&(summaries.len() as u32).to_le_bytes());
                for summary in summaries {
                    put_summary(&mut out, summary);
                }
                out
            }
            WireResponse::Count { value } => {
                let mut out = header(RESP_COUNT);
                put_u64(&mut out, *value);
                out
            }
            WireResponse::Metrics(report) => {
                let mut out = header(RESP_METRICS);
                put_fields(&mut out, &report.counters);
                put_fields(&mut out, &report.gauges);
                out.extend_from_slice(&(report.histograms.len() as u32).to_le_bytes());
                for summary in &report.histograms {
                    put_histogram_summary(&mut out, summary);
                }
                out
            }
        }
    }

    /// [`WireResponse::encode`] with an optional trace id in the trace
    /// slot (servers echo the id the request carried).
    pub fn encode_traced(&self, trace_id: Option<u64>) -> Vec<u8> {
        with_trace(self.encode(), trace_id)
    }

    /// Decodes one frame payload; `None` on any structural problem.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        Self::decode_traced(payload).map(|(response, _)| response)
    }

    /// [`WireResponse::decode`] that also yields the trace id the frame
    /// carried, if any.
    pub fn decode_traced(payload: &[u8]) -> Option<(Self, Option<u64>)> {
        let (opcode, mut at, trace_id) = open(payload)?;
        let get_bool = |at: &mut usize| match get_u8(payload, at)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
        let response = match opcode {
            RESP_ERROR => {
                let end = at.checked_add(2)?;
                let raw = u16::from_le_bytes(payload.get(at..end)?.try_into().ok()?);
                at = end;
                WireResponse::Error {
                    code: ErrorCode::decode(raw)?,
                    message: get_str(payload, &mut at)?,
                }
            }
            RESP_PONG => WireResponse::Pong,
            RESP_RESULT => WireResponse::Result(get_summary(payload, &mut at)?),
            RESP_APPROX => WireResponse::Approx(ApproxSummary {
                impact: get_f64(payload, &mut at)?,
                half_width: get_f64(payload, &mut at)?,
                samples: get_u64(payload, &mut at)?,
            }),
            RESP_INSERTED => WireResponse::Inserted {
                id: get_u64(payload, &mut at)?,
            },
            RESP_DELETED => WireResponse::Deleted {
                removed: get_bool(&mut at)?,
            },
            RESP_SUBSCRIBED => WireResponse::Subscribed {
                token: get_u64(payload, &mut at)?,
                initial: get_summary(payload, &mut at)?,
            },
            RESP_UNSUBSCRIBED => WireResponse::Unsubscribed {
                removed: get_bool(&mut at)?,
            },
            RESP_DELTAS => {
                let closed = get_bool(&mut at)?;
                let n = get_u32(payload, &mut at)? as usize;
                if n > payload.len().saturating_sub(at) {
                    return None;
                }
                let mut summaries = Vec::with_capacity(n);
                for _ in 0..n {
                    summaries.push(get_summary(payload, &mut at)?);
                }
                WireResponse::Deltas { summaries, closed }
            }
            RESP_COUNT => WireResponse::Count {
                value: get_u64(payload, &mut at)?,
            },
            RESP_METRICS => {
                let counters = get_fields(payload, &mut at)?;
                let gauges = get_fields(payload, &mut at)?;
                let n = get_u32(payload, &mut at)? as usize;
                if n > payload.len().saturating_sub(at) {
                    return None;
                }
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    histograms.push(get_histogram_summary(payload, &mut at)?);
                }
                WireResponse::Metrics(MetricsReport {
                    counters,
                    gauges,
                    histograms,
                })
            }
            _ => return None,
        };
        finish((response, trace_id), at, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_request() -> Vec<WireRequest> {
        vec![
            WireRequest::Ping,
            WireRequest::Query {
                algorithm: Algorithm::LpCta,
                focal: vec![0.25, 0.5, 0.75],
                k: 4,
            },
            WireRequest::Tiered {
                algorithm: Algorithm::Cta,
                focal: vec![0.1, 0.9],
                k: 2,
                tier: TierSpec::Exact,
            },
            WireRequest::Tiered {
                algorithm: Algorithm::Pcta,
                focal: vec![0.3, 0.3],
                k: 1,
                tier: TierSpec::Approximate {
                    epsilon: 0.05,
                    confidence: 0.95,
                },
            },
            WireRequest::Tiered {
                algorithm: Algorithm::KSkyband,
                focal: vec![0.6],
                k: 7,
                tier: TierSpec::Auto {
                    epsilon: 0.02,
                    confidence: 0.9,
                    cost_threshold: 1e6,
                },
            },
            WireRequest::Insert {
                values: vec![0.2, 0.4, 0.6],
            },
            WireRequest::Delete { id: 42 },
            WireRequest::Subscribe {
                algorithm: Algorithm::LpCta,
                focal: vec![0.5, 0.5],
                k: 3,
            },
            WireRequest::Unsubscribe { token: 7 },
            WireRequest::PollDeltas { token: 7 },
            WireRequest::Subscriptions,
            WireRequest::Metrics,
        ]
    }

    fn every_response() -> Vec<WireResponse> {
        let summary = ResultSummary {
            num_regions: 3,
            whole_space: false,
            rank_signature: vec![1, 2, 2],
        };
        vec![
            WireResponse::Error {
                code: ErrorCode::Overloaded,
                message: "queue past hard limit".into(),
            },
            WireResponse::Pong,
            WireResponse::Result(summary.clone()),
            WireResponse::Approx(ApproxSummary {
                impact: 0.375,
                half_width: 0.05,
                samples: 738,
            }),
            WireResponse::Inserted { id: 9 },
            WireResponse::Deleted { removed: true },
            WireResponse::Subscribed {
                token: 3,
                initial: ResultSummary {
                    num_regions: 1,
                    whole_space: true,
                    rank_signature: vec![1],
                },
            },
            WireResponse::Unsubscribed { removed: false },
            WireResponse::Deltas {
                summaries: vec![summary.clone(), ResultSummary::default()],
                closed: true,
            },
            WireResponse::Count { value: 11 },
            WireResponse::Metrics(MetricsReport {
                counters: vec![("kspr_wal_fsyncs".into(), 12)],
                gauges: vec![
                    ("kspr_wal_bytes".into(), 4096),
                    ("kspr_queue_depth".into(), 0),
                ],
                histograms: vec![
                    HistogramSummary {
                        name: "kspr_stage_engine_ns".into(),
                        count: 100,
                        sum: 123_456,
                        p50: 900,
                        p90: 2_100,
                        p99: 4_800,
                        max: 5_000,
                    },
                    HistogramSummary::default(),
                ],
            }),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for request in every_request() {
            let bytes = request.encode();
            assert_eq!(
                WireRequest::decode(&bytes),
                Some(request.clone()),
                "{request:?}"
            );
        }
    }

    #[test]
    fn every_response_round_trips() {
        for response in every_response() {
            let bytes = response.encode();
            assert_eq!(
                WireResponse::decode(&bytes),
                Some(response.clone()),
                "{response:?}"
            );
        }
    }

    #[test]
    fn truncation_never_decodes() {
        for request in every_request() {
            let bytes = request.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireRequest::decode(&bytes[..cut]).is_none(),
                    "{request:?} cut at {cut}"
                );
            }
        }
        for response in every_response() {
            let bytes = response.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireResponse::decode(&bytes[..cut]).is_none(),
                    "{response:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_never_decode() {
        for request in every_request() {
            let mut bytes = request.encode();
            bytes.push(0);
            assert!(WireRequest::decode(&bytes).is_none(), "{request:?}");
        }
        for response in every_response() {
            let mut bytes = response.encode();
            bytes.push(0);
            assert!(WireResponse::decode(&bytes).is_none(), "{response:?}");
        }
    }

    #[test]
    fn unknown_versions_and_opcodes_are_rejected() {
        let mut bytes = WireRequest::Ping.encode();
        bytes[0] = WIRE_VERSION + 1;
        assert!(WireRequest::decode(&bytes).is_none());

        let bytes = vec![WIRE_VERSION, 200, 0];
        assert!(WireRequest::decode(&bytes).is_none());
        assert!(WireResponse::decode(&bytes).is_none());
    }

    #[test]
    fn trace_ids_round_trip() {
        for request in every_request() {
            let bytes = request.encode_traced(Some(0xDEAD_BEEF_u64));
            assert_eq!(
                WireRequest::decode_traced(&bytes),
                Some((request.clone(), Some(0xDEAD_BEEF_u64))),
                "{request:?}"
            );
            // Plain decode ignores (but tolerates) the trace id.
            assert_eq!(WireRequest::decode(&bytes), Some(request.clone()));
            // No id: encode_traced(None) is byte-identical to encode().
            assert_eq!(request.encode_traced(None), request.encode());
            assert_eq!(
                WireRequest::decode_traced(&request.encode()),
                Some((request.clone(), None))
            );
        }
        for response in every_response() {
            let bytes = response.encode_traced(Some(7));
            assert_eq!(
                WireResponse::decode_traced(&bytes),
                Some((response.clone(), Some(7))),
                "{response:?}"
            );
        }
    }

    #[test]
    fn legacy_frames_are_rejected() {
        // Version 1 framed the same messages as `[1][opcode][fields...]`,
        // without the trace slot.
        let legacy = |mut bytes: Vec<u8>| {
            bytes[0] = 1;
            bytes.remove(2);
            bytes
        };
        for request in every_request() {
            let bytes = legacy(request.encode());
            assert!(WireRequest::decode(&bytes).is_none(), "{request:?}");
        }
        for response in every_response() {
            let bytes = legacy(response.encode());
            assert!(WireResponse::decode(&bytes).is_none(), "{response:?}");
        }
    }

    #[test]
    fn bad_trace_flags_and_truncated_ids_are_rejected() {
        let mut bytes = WireRequest::Ping.encode();
        bytes[2] = 2; // flags are 0 or 1
        assert!(WireRequest::decode(&bytes).is_none());

        let traced = WireRequest::Delete { id: 42 }.encode_traced(Some(9));
        for cut in 0..traced.len() {
            assert!(WireRequest::decode(&traced[..cut]).is_none(), "cut {cut}");
        }
        let mut trailing = traced;
        trailing.push(0);
        assert!(WireRequest::decode(&trailing).is_none());
    }

    #[test]
    fn tier_specs_validate_on_conversion() {
        assert_eq!(TierSpec::Exact.to_tier(), Some(QueryTier::Exact));
        assert!(TierSpec::Approximate {
            epsilon: 0.05,
            confidence: 0.95
        }
        .to_tier()
        .is_some());
        for (epsilon, confidence) in [(0.0, 0.95), (1.0, 0.95), (0.05, 0.0), (0.05, 1.5)] {
            assert_eq!(
                TierSpec::Approximate {
                    epsilon,
                    confidence
                }
                .to_tier(),
                None,
                "({epsilon}, {confidence})"
            );
        }
        assert_eq!(
            TierSpec::Auto {
                epsilon: 0.05,
                confidence: 0.95,
                cost_threshold: f64::NAN
            }
            .to_tier(),
            None
        );
        let round = TierSpec::from(QueryTier::auto(ErrorBudget::default()))
            .to_tier()
            .unwrap();
        assert_eq!(round, QueryTier::auto(ErrorBudget::default()));
    }

    /// Both decoders must return (not panic) on `bytes`, and any message
    /// they accept must re-encode to exactly `bytes`: the encoding is
    /// canonical, so a decoder that accepts two spellings of one message is
    /// reading something the encoder never wrote.
    fn assert_decoders_total_and_canonical(bytes: &[u8]) {
        if let Some((request, id)) = WireRequest::decode_traced(bytes) {
            assert_eq!(request.encode_traced(id), bytes, "{request:?}");
        }
        if let Some((response, id)) = WireResponse::decode_traced(bytes) {
            assert_eq!(response.encode_traced(id), bytes, "{response:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(0u8..=255, 0..=256),
            opcode in 0u8..12,
        ) {
            assert_decoders_total_and_canonical(&bytes);
            // Behind a well-formed untraced header, so the field decoders
            // of every opcode see the arbitrary bytes.
            let mut framed = header(opcode);
            framed.extend_from_slice(&bytes);
            assert_decoders_total_and_canonical(&framed);
        }

        #[test]
        fn corrupted_valid_payloads_never_panic_the_decoders(
            (traced, trace_id) in (0u8..2, 0u64..u64::MAX),
            (mutation, at, byte) in (0u8..3, 0usize..4096, 0u8..=255),
        ) {
            let trace_id = (traced == 1).then_some(trace_id);
            let requests = every_request().into_iter().map(|r| r.encode_traced(trace_id));
            let responses = every_response().into_iter().map(|r| r.encode_traced(trace_id));
            for mut bytes in requests.chain(responses) {
                match mutation {
                    0 => {
                        let at = at % bytes.len();
                        bytes[at] = byte;
                    }
                    1 => bytes.truncate(at % bytes.len()),
                    _ => bytes.insert(at % (bytes.len() + 1), byte),
                }
                assert_decoders_total_and_canonical(&bytes);
            }
        }
    }

    #[test]
    fn client_round_trips_over_an_in_memory_stream() {
        use crate::{read_frame, write_frame};

        // A duplex pipe built from two cursors: the "server" reads the
        // request frame, answers, and the client decodes the response.
        let mut wire = Vec::new();
        write_frame(&mut wire, &WireRequest::Delete { id: 3 }.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let request = WireRequest::decode(&read_frame(&mut cursor).unwrap()).unwrap();
        assert_eq!(request, WireRequest::Delete { id: 3 });

        let mut reply = Vec::new();
        write_frame(
            &mut reply,
            &WireResponse::Deleted { removed: true }.encode(),
        )
        .unwrap();
        let mut cursor = std::io::Cursor::new(reply);
        let response = WireResponse::decode(&read_frame(&mut cursor).unwrap()).unwrap();
        assert_eq!(response, WireResponse::Deleted { removed: true });
    }
}
