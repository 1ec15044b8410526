//! A registry of named metrics and its consistent snapshot.
//!
//! The registry hands out `Arc` handles so hot paths record through a
//! pre-resolved pointer (no name lookup per observation); the name → handle
//! map is only locked at registration and snapshot time.  A
//! [`MetricsSnapshot`] is the plain-value export: sorted name/value pairs
//! plus full histogram snapshots, renderable as a Prometheus-style text
//! exposition with [`MetricsSnapshot::render_prometheus`].

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value — for counters mirrored from an authoritative
    /// source (e.g. a WAL writer's own fsync count).
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the value to `value` if it is higher — a high-water mark.
    pub fn set_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    help: Mutex<BTreeMap<String, String>>,
}

fn unpoisoned<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            unpoisoned(&self.counters)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            unpoisoned(&self.gauges)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            unpoisoned(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Attaches a human-readable description to the metric named `name`,
    /// emitted as its `# HELP` line in the Prometheus exposition.
    pub fn describe(&self, name: &str, help: &str) {
        unpoisoned(&self.help).insert(name.to_string(), help.to_string());
    }

    /// A plain-value export of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: unpoisoned(&self.counters)
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: unpoisoned(&self.gauges)
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: unpoisoned(&self.histograms)
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            help: unpoisoned(&self.help)
                .iter()
                .map(|(name, h)| (name.clone(), h.clone()))
                .collect(),
        }
    }
}

/// A consistent plain-value view of a [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Full histogram states as `(name, snapshot)`.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `# HELP` descriptions as `(name, text)` (metrics without one fall
    /// back to their own name in the exposition).
    pub help: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The `# HELP` text for `name`: its registered description, or the
    /// name itself when none was registered.
    fn help_text<'a>(&'a self, name: &'a str) -> &'a str {
        self.help
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.as_str())
            .unwrap_or(name)
    }

    /// Renders the snapshot as a Prometheus-style text exposition: every
    /// series led by its `# HELP` and `# TYPE` lines, counters and gauges
    /// as plain samples, histograms as summaries with `quantile` labels
    /// plus `_sum` and `_count` series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# HELP {name} {}", self.help_text(name));
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# HELP {name} {}", self.help_text(name));
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# HELP {name} {}", self.help_text(name));
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_snapshots_are_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter("b_requests").add(2);
        registry.counter("a_requests").inc();
        registry.counter("b_requests").inc();
        registry.gauge("depth").set(7);
        registry.gauge("peak").set_max(5);
        registry.gauge("peak").set_max(3);
        registry.histogram("lat").record(1000);

        let snap = registry.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_requests".into(), 1), ("b_requests".into(), 3)]
        );
        assert_eq!(snap.gauge("depth"), Some(7));
        assert_eq!(
            snap.gauge("peak"),
            Some(5),
            "a high-water mark, not last-write"
        );
        assert_eq!(snap.histogram("lat").unwrap().count(), 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn prometheus_exposition_has_every_series() {
        let registry = MetricsRegistry::new();
        registry.counter("kspr_queries").add(5);
        registry.gauge("kspr_queue_depth").set(3);
        let h = registry.histogram("kspr_stage_engine_ns");
        h.record(100);
        h.record(200);
        registry.describe("kspr_queries", "Queries answered since start.");
        registry.describe("kspr_stage_engine_ns", "Engine-stage latency, ns.");

        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# HELP kspr_queries Queries answered since start."));
        assert!(text.contains("# TYPE kspr_queries counter"));
        assert!(text.contains("kspr_queries 5"));
        assert!(
            text.contains("# HELP kspr_queue_depth kspr_queue_depth"),
            "an undescribed metric falls back to its name as help text"
        );
        assert!(text.contains("# TYPE kspr_queue_depth gauge"));
        assert!(text.contains("kspr_queue_depth 3"));
        assert!(text.contains("# HELP kspr_stage_engine_ns Engine-stage latency, ns."));
        assert!(text.contains("# TYPE kspr_stage_engine_ns summary"));
        assert!(text.contains("kspr_stage_engine_ns{quantile=\"0.5\"}"));
        assert!(text.contains("kspr_stage_engine_ns_sum 300"));
        assert!(text.contains("kspr_stage_engine_ns_count 2"));
        // Every series carries a HELP line: one per counter/gauge/histogram.
        assert_eq!(text.matches("# HELP ").count(), 3);
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                assert!(!rest.trim().is_empty(), "HELP lines are never empty");
            }
        }
    }
}
