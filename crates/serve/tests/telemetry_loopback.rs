//! The observability acceptance run: a real TCP loopback against a durable
//! [`NetServer`], a mixed workload (exact / tiered / auto queries, updates,
//! a standing query, a rejection), then the full telemetry read-back —
//! the `Metrics` opcode, the Prometheus text scrape, `stats_now`, and the
//! flight recorder — with every pipeline-stage and engine-phase histogram
//! asserted live and consistent with the delivered answers.

use kspr::{Algorithm, KsprConfig};
use kspr_serve::{NetServer, ServeOptions, Server, ShardedEngine, Stage};
use kspr_wire::{read_frame, write_frame, MetricsReport, TierSpec, WireRequest, WireResponse};
use std::io::{BufReader, Read, Write};
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

/// One histogram summary out of a wire report, by registry name.
fn summary<'a>(report: &'a MetricsReport, name: &str) -> &'a kspr_wire::HistogramSummary {
    report
        .histograms
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("missing histogram {name}"))
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing counter {name}"))
        .1
}

#[test]
fn every_pipeline_stage_is_measured_and_served_live() {
    let dir = std::env::temp_dir().join(format!("kspr-telemetry-loopback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = ServeOptions {
        // Threshold zero: the flight recorder retains every traced request.
        slow_query_threshold: Some(Duration::ZERO),
        ..ServeOptions::default()
    };
    // Durable, so the WAL-commit stage is actually on the request path.
    let server = Server::start_durable(demo_engine(), options, &dir).expect("durable server");
    let handle = server.handle();
    let net = NetServer::bind(server.handle(), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(&net);

    // --- the mixed workload ------------------------------------------------
    // A standing query, so update maintenance has real work to notify.
    let response = client.call(WireRequest::Subscribe {
        algorithm: Algorithm::LpCta,
        focal: vec![0.5, 0.5, 0.7],
        k: 1,
    });
    assert!(matches!(response, WireResponse::Subscribed { .. }));

    // Updates: two inserts (the dominator changes the standing result) and
    // one delete, each WAL-committed before its ack.
    let WireResponse::Inserted { id } = client.call(WireRequest::Insert {
        values: vec![0.95, 0.95, 0.95],
    }) else {
        panic!("expected an insert ack");
    };
    assert!(matches!(
        client.call(WireRequest::Insert {
            values: vec![0.2, 0.6, 0.5],
        }),
        WireResponse::Inserted { .. }
    ));
    assert_eq!(
        client.call(WireRequest::Delete { id }),
        WireResponse::Deleted { removed: true }
    );

    // Queries across all three tier classes.
    assert!(matches!(
        client.call(WireRequest::Query {
            algorithm: Algorithm::LpCta,
            focal: vec![0.5, 0.5, 0.7],
            k: 2,
        }),
        WireResponse::Result(_)
    ));
    assert!(matches!(
        client.call(WireRequest::Tiered {
            algorithm: Algorithm::LpCta,
            focal: vec![0.5, 0.5, 0.7],
            k: 2,
            tier: TierSpec::Approximate {
                epsilon: 0.1,
                confidence: 0.9,
            },
        }),
        WireResponse::Approx(_)
    ));
    assert!(matches!(
        client.call(WireRequest::Tiered {
            algorithm: Algorithm::LpCta,
            focal: vec![0.5, 0.5, 0.7],
            k: 2,
            tier: TierSpec::Auto {
                epsilon: 0.1,
                confidence: 0.9,
                // Every finite cost estimate routes exact below this.
                cost_threshold: 1e18,
            },
        }),
        WireResponse::Result(_)
    ));
    // One rejection, so the per-variant counters are live too.
    assert!(matches!(
        client.call(WireRequest::Query {
            algorithm: Algorithm::LpCta,
            focal: vec![0.5, 0.5, 0.7],
            k: 0,
        }),
        WireResponse::Error { .. }
    ));

    // Serialize behind the dispatcher: once this count comes back, every
    // maintenance pass for the acknowledged updates has finished, so the
    // Notify stage has been timed.
    assert_eq!(
        client.call(WireRequest::Subscriptions),
        WireResponse::Count { value: 1 }
    );

    // --- the Metrics opcode ------------------------------------------------
    let WireResponse::Metrics(report) = client.call(WireRequest::Metrics) else {
        panic!("expected a metrics report");
    };

    let delivered = counter(&report, "kspr_queries");
    assert_eq!(delivered, 3, "exact + tiered approx + auto");
    assert_eq!(counter(&report, "kspr_updates"), 3);
    assert_eq!(counter(&report, "kspr_rejected"), 1);
    assert_eq!(counter(&report, "kspr_rejected_invalid_k"), 1);
    assert!(
        counter(&report, "kspr_wal_commits") >= 4,
        "3 updates + subscribe"
    );
    assert!(counter(&report, "kspr_wal_fsyncs") >= 1);

    // Every pipeline stage recorded at least one observation...
    for stage in Stage::ALL {
        let name = format!("kspr_stage_{}_ns", stage.name());
        let h = summary(&report, &name);
        assert!(h.count >= 1, "stage histogram {name} must be live");
        assert!(h.max >= h.p50, "{name}: quantiles must be ordered");
    }
    // ...and the query-path stages saw at least every delivered query.
    for stage in [
        Stage::Queue,
        Stage::Admission,
        Stage::Batch,
        Stage::Engine,
        Stage::Ack,
    ] {
        let name = format!("kspr_stage_{}_ns", stage.name());
        assert!(
            summary(&report, &name).count >= delivered,
            "{name} must cover all {delivered} delivered queries"
        );
    }
    // Per-tier and per-algorithm latency, bucketed by the submitted tier.
    assert_eq!(summary(&report, "kspr_tier_exact_ns").count, 1);
    assert_eq!(summary(&report, "kspr_tier_approximate_ns").count, 1);
    assert_eq!(summary(&report, "kspr_tier_auto_ns").count, 1);
    assert_eq!(
        summary(&report, "kspr_algorithm_lp_cta_ns").count,
        delivered
    );
    // The exact engine reported its own wall time for the exact answers.
    assert_eq!(summary(&report, "kspr_engine_wall_ns").count, 2);
    // ...and its per-phase breakdown, one observation per exact answer in
    // every phase a `Timing` block reports.
    for (phase, _) in kspr::Timing::default().iter() {
        let name = format!("kspr_phase_{phase}_ns");
        assert_eq!(summary(&report, &name).count, 2, "{name}");
    }
    assert!(summary(&report, "kspr_wal_commit_ns").count >= 4);

    // The WAL gauges reflect the committed (not yet snapshotted) tail.
    assert!(
        report
            .gauges
            .iter()
            .any(|(n, v)| n == "kspr_wal_bytes" && *v > 0),
        "committed updates must show up in the WAL size gauge"
    );
    assert!(report
        .gauges
        .iter()
        .any(|(n, _)| n == "kspr_snapshot_epoch"));

    // --- the Prometheus text scrape on the same port -----------------------
    let mut scrape = TcpStream::connect(net.local_addr()).expect("scrape connect");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send scrape");
    let mut text = String::new();
    scrape.read_to_string(&mut text).expect("read scrape");
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    assert!(text.contains("Content-Type: text/plain"));
    for series in [
        "kspr_queries 3",
        "kspr_updates 3",
        "kspr_stage_engine_ns_count",
        "kspr_stage_wal_commit_ns_count",
        "kspr_stage_notify_ns_count",
        "# TYPE kspr_stage_queue_ns summary",
    ] {
        assert!(
            text.contains(series),
            "scrape must expose {series}:\n{text}"
        );
    }

    // --- stats_now and the flight recorder ---------------------------------
    let stats = handle.stats_now();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.updates, 3);
    assert_eq!(stats.rejections.total(), stats.rejected);

    let traces = handle.traces();
    assert!(traces.iter().all(|record| record.is_well_formed()));
    // Query trees are the ones with an admission stage (updates have none).
    let queries: Vec<_> = traces
        .iter()
        .filter(|record| record.find("admission").is_some())
        .collect();
    assert_eq!(
        queries.len(),
        delivered as usize,
        "threshold zero retains every delivered query"
    );
    let with_phases = queries
        .iter()
        .filter(|record| {
            let engine = record.find("engine").expect("an engine stage span").id;
            ["prep", "expansion"]
                .iter()
                .all(|phase| record.find(phase).is_some_and(|s| s.parent == Some(engine)))
        })
        .count();
    assert_eq!(
        with_phases as u64,
        counter(&report, "kspr_exact_queries"),
        "exact answers carry the engine's phase spans"
    );

    drop(client);
    net.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
