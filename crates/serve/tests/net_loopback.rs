//! Loopback round-trips through the full layered stack: a real TCP
//! connection speaking the `kspr-wire` protocol against a [`NetServer`]
//! front-end, exercising queries, updates, standing queries, the `Metrics`
//! counters, protocol errors, and an oversized scrape head end to end.

use kspr::{Algorithm, KsprConfig};
use kspr_serve::{NetServer, ServeOptions, Server, ShardedEngine};
use kspr_wire::{read_frame, write_frame, ErrorCode, TierSpec, WireRequest, WireResponse};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &NetServer) -> Self {
        let writer = TcpStream::connect(server.local_addr()).expect("loopback connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Self { reader, writer }
    }

    fn call(&mut self, request: WireRequest) -> WireResponse {
        write_frame(&mut self.writer, &request.encode()).expect("send frame");
        let payload = read_frame(&mut self.reader).expect("receive frame");
        WireResponse::decode(&payload).expect("decode response")
    }
}

#[test]
fn a_connection_round_trips_the_whole_protocol() {
    let server = Server::start(demo_engine(), ServeOptions::default());
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(&net);

    assert_eq!(client.call(WireRequest::Ping), WireResponse::Pong);

    // An exact query over the wire equals a direct engine call.
    let focal = vec![0.5, 0.5, 0.7];
    let direct = demo_engine().run_batch(Algorithm::LpCta, std::slice::from_ref(&focal), 2);
    let response = client.call(WireRequest::Query {
        algorithm: Algorithm::LpCta,
        focal: focal.clone(),
        k: 2,
    });
    let WireResponse::Result(summary) = response else {
        panic!("expected a result summary, got {response:?}");
    };
    assert_eq!(summary.num_regions as usize, direct[0].num_regions());
    assert_eq!(
        summary.rank_signature,
        direct[0]
            .rank_signature()
            .into_iter()
            .map(|r| r as u64)
            .collect::<Vec<u64>>()
    );

    // Updates apply and serialize with the requests around them.
    let response = client.call(WireRequest::Insert {
        values: vec![0.7, 0.7, 0.7],
    });
    let WireResponse::Inserted { id } = response else {
        panic!("expected an insert ack, got {response:?}");
    };
    assert_eq!(id, 4, "global ids are dense");
    assert_eq!(
        client.call(WireRequest::Delete { id }),
        WireResponse::Deleted { removed: true }
    );
    assert_eq!(
        client.call(WireRequest::Delete { id }),
        WireResponse::Deleted { removed: false },
        "double delete reports the record as gone"
    );

    // Standing queries: subscribe, see an update's delta, unsubscribe.
    let response = client.call(WireRequest::Subscribe {
        algorithm: Algorithm::LpCta,
        focal: vec![0.5, 0.5, 0.7],
        k: 1,
    });
    let WireResponse::Subscribed { token, initial } = response else {
        panic!("expected a subscription, got {response:?}");
    };
    let response = client.call(WireRequest::Insert {
        values: vec![0.95, 0.95, 0.95],
    });
    assert!(matches!(response, WireResponse::Inserted { .. }));
    // Serialize behind the update's maintenance pass before polling: a
    // request answered by the dispatcher guarantees every notification for
    // the acknowledged insert has been pushed.
    assert_eq!(
        client.call(WireRequest::Subscriptions),
        WireResponse::Count { value: 1 }
    );
    let response = client.call(WireRequest::PollDeltas { token });
    let WireResponse::Deltas { summaries, closed } = response else {
        panic!("expected deltas, got {response:?}");
    };
    assert!(!closed);
    assert_eq!(summaries.len(), 1, "the dominator insert must notify");
    assert!(
        summaries[0].num_regions < initial.num_regions,
        "a dominator shrinks the standing top-1 result"
    );
    assert_eq!(
        client.call(WireRequest::Unsubscribe { token }),
        WireResponse::Unsubscribed { removed: true }
    );
    assert_eq!(
        client.call(WireRequest::Subscriptions),
        WireResponse::Count { value: 0 }
    );
    let response = client.call(WireRequest::Unsubscribe { token });
    let WireResponse::Error { code, .. } = response else {
        panic!("expected an unknown-token error, got {response:?}");
    };
    assert_eq!(code, ErrorCode::UnknownToken);

    // The approximate tier crosses the wire as an estimate summary.
    let response = client.call(WireRequest::Tiered {
        algorithm: Algorithm::LpCta,
        focal: vec![0.5, 0.5, 0.7],
        k: 2,
        tier: TierSpec::Approximate {
            epsilon: 0.1,
            confidence: 0.9,
        },
    });
    let WireResponse::Approx(estimate) = response else {
        panic!("expected an approximate summary, got {response:?}");
    };
    assert!(estimate.half_width <= 0.1 + 1e-12);
    assert!((0.0..=1.0).contains(&estimate.impact));

    // Invalid requests come back as typed errors, not closed connections.
    let response = client.call(WireRequest::Query {
        algorithm: Algorithm::LpCta,
        focal: vec![0.5, 0.5, 0.7],
        k: 0,
    });
    let WireResponse::Error { code, .. } = response else {
        panic!("expected an invalid-request error, got {response:?}");
    };
    assert_eq!(code, ErrorCode::Invalid);
    assert_eq!(client.call(WireRequest::Ping), WireResponse::Pong);

    // The serving counters are visible over the wire.
    let response = client.call(WireRequest::Metrics);
    let WireResponse::Metrics(report) = response else {
        panic!("expected metrics, got {response:?}");
    };
    let get = |name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    assert_eq!(
        get("kspr_queries"),
        2,
        "the exact and the tiered query; the k=0 reject never ran"
    );
    assert_eq!(get("kspr_updates"), 4, "three applied + one no-op delete");
    assert_eq!(get("kspr_subscriptions"), 1);
    assert_eq!(get("kspr_rejected"), 1);

    drop(client);
    net.stop();
    let (engine, _) = server.shutdown();
    assert_eq!(engine.len(), 5);
}

#[test]
fn a_malformed_payload_is_reported_then_the_connection_closes() {
    let server = Server::start(demo_engine(), ServeOptions::default());
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(&net);

    // A well-framed but undecodable payload: the server answers with a
    // protocol error (the stream is still frame-aligned, but the server
    // cannot trust the peer).
    write_frame(&mut client.writer, &[0xFF, 0xFF, 0xFF]).expect("send junk");
    let payload = read_frame(&mut client.reader).expect("receive error frame");
    let response = WireResponse::decode(&payload).expect("decode error response");
    let WireResponse::Error { code, .. } = response else {
        panic!("expected a malformed-payload error, got {response:?}");
    };
    assert_eq!(code, ErrorCode::Malformed);

    drop(client);
    net.stop();
    server.shutdown();
}

#[test]
fn dropping_a_connection_unregisters_its_standing_queries() {
    let server = Server::start(demo_engine(), ServeOptions::default());
    let handle = server.handle();
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(&net);
    let response = client.call(WireRequest::Subscribe {
        algorithm: Algorithm::LpCta,
        focal: vec![0.5, 0.5, 0.7],
        k: 2,
    });
    assert!(matches!(response, WireResponse::Subscribed { .. }));
    assert_eq!(handle.subscriptions().wait(), Ok(1));

    drop(client); // hang up without unsubscribing
                  // The connection thread notices EOF and drops its subscription map;
                  // the drop glue unregisters asynchronously.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if handle.subscriptions().wait() == Ok(0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the dropped connection's standing query was never unregistered"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    net.stop();
    server.shutdown();
}

#[test]
fn an_unterminated_scrape_head_is_cut_off() {
    let server = Server::start(demo_engine(), ServeOptions::default());
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("bind loopback");

    // `GET ` then 64 KiB without a newline: the server stops reading at its
    // head cap and hangs up instead of buffering the line.
    let mut scrape = TcpStream::connect(net.local_addr()).expect("scrape connect");
    let mut request = b"GET ".to_vec();
    request.resize(4 + (64 << 10), b'a');
    // The server may reset the connection mid-write; that is the point.
    let _ = scrape.write_all(&request);
    scrape
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut answer = Vec::new();
    // EOF or a reset both mean the server hung up; a timeout means it is
    // still waiting for the rest of the line.
    if let Err(err) = scrape.read_to_end(&mut answer) {
        assert!(
            !matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the server must hang up once the head passes its cap"
        );
    }
    assert!(
        !String::from_utf8_lossy(&answer).contains("200"),
        "an oversized head must not be answered"
    );

    // The front-end keeps serving other connections.
    let mut client = Client::connect(&net);
    assert_eq!(client.call(WireRequest::Ping), WireResponse::Pong);

    drop(client);
    net.stop();
    server.shutdown();
}
