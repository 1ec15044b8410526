//! # kspr-wire — the wire protocol of the kSPR serving stack
//!
//! A versioned, length-prefixed binary protocol between kSPR clients and
//! the `kspr-serve` network front-end.  Every message travels as one frame:
//!
//! ```text
//! [len: u32 LE][payload: len bytes]
//! payload = [2: u8][opcode: u8][trace flag: u8][trace id: u64 LE, iff flag = 1][fields...]
//! ```
//!
//! The optional **trace id** sits between the opcode and the fields: a
//! client that supplies one gets it echoed on the response and can later
//! fetch the server-side span tree for that request from the flight
//! recorder.  Only [`WIRE_VERSION`] is spoken; a frame of any other version
//! (including version 1, which had no trace slot) does not decode.
//!
//! The codec is hand-rolled (the workspace builds offline, so no serde):
//! every field is little-endian fixed-width or a `u32`-counted sequence, and
//! decoding is strict — unknown versions, unknown opcodes, bad trace flags,
//! truncated fields and trailing bytes all fail, never alias to another
//! message.
//!
//! Results cross the wire as **summaries** ([`ResultSummary`]): region
//! count, whole-space flag and the sorted rank signature — the quantities
//! every consistency proptest in this repo compares — rather than the full
//! region geometry, which is unbounded (a half-space list per region) and
//! which no remote consumer of the reproduction needs.  Approximate answers
//! cross as the full estimate triple ([`ApproxSummary`]), which *is* the
//! answer.
//!
//! [`WireClient`] wraps any `Read + Write` stream (typically a `TcpStream`)
//! in a blocking request/response exchange against the serve crate's
//! `NetServer`.

pub mod codec;
pub mod message;

pub use codec::{read_frame, read_frame_body, write_frame, FrameError, MAX_FRAME};
pub use message::{
    ApproxSummary, ErrorCode, HistogramSummary, MetricsReport, ResultSummary, TierSpec,
    WireRequest, WireResponse,
};

use std::io::{Read, Write};

/// Protocol version carried in every payload this crate encodes, and the
/// only one it decodes.
pub const WIRE_VERSION: u8 = 2;

/// A blocking request/response client over any framed byte stream.
///
/// ```no_run
/// use kspr_wire::{WireClient, WireRequest, WireResponse};
/// let stream = std::net::TcpStream::connect("127.0.0.1:7878").unwrap();
/// let mut client = WireClient::new(stream);
/// match client.call(&WireRequest::Ping).unwrap() {
///     WireResponse::Pong => {}
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct WireClient<S> {
    stream: S,
}

impl<S: Read + Write> WireClient<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        Self { stream }
    }

    /// Consumes the client, returning the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, request: &WireRequest) -> Result<WireResponse, FrameError> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream)?;
        WireResponse::decode(&payload).ok_or(FrameError::Malformed)
    }

    /// Sends one request carrying an optional client-chosen trace id and
    /// blocks for its response, returning the trace id the server echoed
    /// (the one sent).
    pub fn call_traced(
        &mut self,
        request: &WireRequest,
        trace_id: Option<u64>,
    ) -> Result<(WireResponse, Option<u64>), FrameError> {
        write_frame(&mut self.stream, &request.encode_traced(trace_id))?;
        let payload = read_frame(&mut self.stream)?;
        WireResponse::decode_traced(&payload).ok_or(FrameError::Malformed)
    }
}
