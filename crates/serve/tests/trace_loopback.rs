//! The tracing acceptance run: a client-supplied trace id rides a real TCP
//! loopback into a durable [`NetServer`], is echoed in the response, and
//! yields a retrievable span tree covering the whole pipeline — the wire
//! decode, every dispatcher stage, and the engine's phase breakdown — which
//! the `/trace` HTTP endpoint then serves as well-formed Chrome Trace
//! Event Format JSON.  A version-1 frame is answered with a protocol error
//! on a connection that keeps serving.

use kspr::{Algorithm, KsprConfig};
use kspr_serve::{NetServer, ServeOptions, Server, ShardedEngine, TraceId, TraceRecord};
use kspr_telemetry::parse_json;
use kspr_wire::{read_frame, write_frame, ErrorCode, WireClient, WireRequest, WireResponse};
use std::io::{Read, Write};
use std::net::TcpStream;

fn demo_engine() -> ShardedEngine {
    ShardedEngine::new(
        vec![
            vec![0.3, 0.8, 0.8],
            vec![0.9, 0.4, 0.4],
            vec![0.8, 0.3, 0.4],
            vec![0.4, 0.3, 0.6],
        ],
        KsprConfig::default().with_shards(2),
    )
}

/// Asserts `child` exists in `record` and sits under the span named
/// `parent`, returning it for further nesting checks.
fn assert_child<'a>(
    record: &'a TraceRecord,
    parent: &str,
    child: &str,
) -> &'a kspr_telemetry::Span {
    let parent_span = record
        .find(parent)
        .unwrap_or_else(|| panic!("span tree must contain `{parent}`"));
    let child_span = record
        .find(child)
        .unwrap_or_else(|| panic!("span tree must contain `{child}`"));
    assert_eq!(
        child_span.parent,
        Some(parent_span.id),
        "`{child}` must be a child of `{parent}`"
    );
    child_span
}

#[test]
fn client_trace_ids_round_trip_into_retrievable_span_trees() {
    let dir = std::env::temp_dir().join(format!("kspr-trace-loopback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Durable, so the update path exercises the WAL-commit span; no slow
    // threshold, so only the *pinned* (client-traced) requests are retained.
    let server = Server::start_durable(demo_engine(), ServeOptions::default(), &dir)
        .expect("durable server");
    let handle = server.handle();
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("bind loopback");
    let stream = TcpStream::connect(net.local_addr()).expect("loopback connect");
    let mut client = WireClient::new(stream);

    // --- a traced query ---------------------------------------------------
    let query = WireRequest::Query {
        algorithm: Algorithm::LpCta,
        focal: vec![0.5, 0.5, 0.7],
        k: 2,
    };
    let (response, echo) = client
        .call_traced(&query, Some(0xFEED))
        .expect("traced call");
    assert!(matches!(response, WireResponse::Result(_)));
    assert_eq!(echo, Some(0xFEED), "the trace id must be echoed back");

    let record = handle
        .trace(TraceId(0xFEED))
        .expect("a pinned trace must be retained by the flight recorder");
    assert!(
        record.is_well_formed(),
        "span ids/parents/windows must nest"
    );
    assert_eq!(record.root().name, "request");

    // The pipeline stages, each a child of the root request span.
    for stage in ["wire", "queue", "admission", "batch", "engine", "ack"] {
        assert_child(&record, "request", stage);
    }
    // The engine's phase breakdown: prep (with its dominance classification)
    // then CellTree expansion (with its LP solves).
    assert_child(&record, "engine", "prep");
    assert_child(&record, "prep", "dominance");
    assert_child(&record, "engine", "expansion");
    assert_child(&record, "expansion", "lp");

    // --- a traced durable update ------------------------------------------
    let insert = WireRequest::Insert {
        values: vec![0.7, 0.7, 0.7],
    };
    let (response, echo) = client
        .call_traced(&insert, Some(0xBEEF))
        .expect("traced insert");
    assert!(matches!(response, WireResponse::Inserted { .. }));
    assert_eq!(echo, Some(0xBEEF));
    let update = handle.trace(TraceId(0xBEEF)).expect("pinned update trace");
    assert!(update.is_well_formed());
    for stage in ["wire", "queue", "engine", "wal_commit", "ack"] {
        assert_child(&update, "request", stage);
    }

    // --- untraced requests stay untraced ----------------------------------
    let (response, echo) = client.call_traced(&query, None).expect("untraced call");
    assert!(matches!(response, WireResponse::Result(_)));
    assert_eq!(echo, None, "no client id means nothing to echo");
    assert_eq!(
        handle.traces().len(),
        2,
        "without a slow threshold only the two pinned traces are retained"
    );

    // --- a version-1 frame is rejected; the connection keeps serving -----
    let mut legacy = TcpStream::connect(net.local_addr()).expect("legacy connect");
    // Version 1 framed the query as `[1][opcode][fields...]` (no trace slot).
    let mut v1 = query.encode();
    v1[0] = 1;
    v1.remove(2);
    assert_eq!(WireRequest::decode(&v1), None, "v1 frames no longer decode");
    write_frame(&mut legacy, &v1).expect("send v1 frame");
    let payload = read_frame(&mut legacy).expect("error response frame");
    let response = WireResponse::decode(&payload).expect("a current-version response");
    assert!(
        matches!(
            response,
            WireResponse::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "got {response:?}"
    );
    let mut legacy = WireClient::new(legacy);
    assert_eq!(
        legacy
            .call(&WireRequest::Ping)
            .expect("ping after the v1 frame"),
        WireResponse::Pong
    );
    drop(legacy);

    // --- the /trace endpoint on the scrape port ---------------------------
    let mut scrape = TcpStream::connect(net.local_addr()).expect("trace connect");
    scrape
        .write_all(b"GET /trace HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send trace request");
    let mut text = String::new();
    scrape.read_to_string(&mut text).expect("read trace");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    assert!(text.contains("Content-Type: application/json"));
    let body = text
        .split("\r\n\r\n")
        .nth(1)
        .expect("an HTTP body after the headers");
    let json = parse_json(body).expect("/trace must serve valid JSON");
    assert_eq!(
        json.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );
    let events = json
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("a traceEvents array");
    assert!(!events.is_empty(), "both pinned traces must be exported");
    let named = |name: &str| {
        events.iter().any(|event| {
            event.get("name").and_then(|v| v.as_str()) == Some(name)
                && event.get("ph").and_then(|v| v.as_str()) == Some("X")
        })
    };
    for name in ["request", "wire", "engine", "prep", "lp", "wal_commit"] {
        assert!(named(name), "/trace must export an `{name}` slice");
    }

    // The Prometheus exposition still answers on every other path.
    let mut metrics = TcpStream::connect(net.local_addr()).expect("metrics connect");
    metrics
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send metrics request");
    let mut text = String::new();
    metrics.read_to_string(&mut text).expect("read metrics");
    assert!(text.contains("Content-Type: text/plain"));
    assert!(text.contains("kspr_phase_prep_ns_count"));
    assert!(text.contains("# HELP kspr_queries"));

    net.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
