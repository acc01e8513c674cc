//! Metric registry: named counters, gauges and histograms with a
//! consistent snapshot rendered as a human table or Prometheus-style
//! text exposition.
//!
//! Metrics are keyed by `(subsystem, name, label)` — e.g.
//! `("serve", "latency_ns", "cardio")` — and handed out as `Arc`
//! handles, so hot paths hold the handle and never touch the registry
//! lock again. The registry itself is only locked on registration and
//! snapshot, both cold paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::histogram::{Histogram, HistogramSnapshot};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Up/down gauge that saturates at zero: a decrement past zero clamps
/// instead of wrapping, so double-drain races degrade a reading rather
/// than corrupting it to ~2^64.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the gauge.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero, and returns the value before
    /// the decrement. The saturation hides an underflow from readers;
    /// a caller whose decrements always pair with earlier adds should
    /// debug-assert that the returned value covers `n`.
    pub fn sub(&self, n: u64) -> u64 {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return current,
                Err(observed) => current = observed,
            }
        }
    }

    /// Overwrites the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric instrument.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Registry of metrics keyed by `(subsystem, name, label)`.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<(String, String, String), Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter at `(subsystem, name, label)`.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different kind.
    pub fn counter(&self, subsystem: &str, name: &str, label: &str) -> Arc<Counter> {
        let metric = self
            .get_or_insert(subsystem, name, label, || Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => c,
            _ => panic!("metric {subsystem}/{name}/{label} is not a counter"),
        }
    }

    /// Gets or creates the gauge at `(subsystem, name, label)`.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different kind.
    pub fn gauge(&self, subsystem: &str, name: &str, label: &str) -> Arc<Gauge> {
        let metric =
            self.get_or_insert(subsystem, name, label, || Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => g,
            _ => panic!("metric {subsystem}/{name}/{label} is not a gauge"),
        }
    }

    /// Gets or creates the histogram at `(subsystem, name, label)`.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different kind.
    pub fn histogram(&self, subsystem: &str, name: &str, label: &str) -> Arc<Histogram> {
        let metric = self.get_or_insert(subsystem, name, label, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        });
        match metric {
            Metric::Histogram(h) => h,
            _ => panic!("metric {subsystem}/{name}/{label} is not a histogram"),
        }
    }

    /// Drops every metric labelled `label` (all subsystems/names) — used
    /// when a serving model is unregistered. Outstanding `Arc` handles
    /// stay valid but stop appearing in snapshots.
    pub fn unregister_label(&self, label: &str) {
        self.metrics.write().retain(|(_, _, l), _| l != label);
    }

    fn get_or_insert(
        &self,
        subsystem: &str,
        name: &str,
        label: &str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = (subsystem.to_owned(), name.to_owned(), label.to_owned());
        if let Some(metric) = self.metrics.read().get(&key) {
            return metric.clone();
        }
        self.metrics.write().entry(key).or_insert_with(make).clone()
    }

    /// Consistent point-in-time view of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let samples = self
            .metrics
            .read()
            .iter()
            .map(|((subsystem, name, label), metric)| MetricSample {
                subsystem: subsystem.clone(),
                name: name.clone(),
                label: label.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { samples }
    }
}

/// The recorded value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// One metric's identity and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Subsystem the metric belongs to (e.g. `serve`, `explore`).
    pub subsystem: String,
    /// Metric name within the subsystem (e.g. `latency_ns`).
    pub name: String,
    /// Instance label (e.g. the model or study name).
    pub label: String,
    /// The reading.
    pub value: SampleValue,
}

/// Point-in-time view of a [`Registry`], renderable as a human table
/// ([`Snapshot::to_table`]) or Prometheus-style text exposition
/// ([`Snapshot::to_prometheus`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All samples, sorted by `(subsystem, name, label)`.
    pub samples: Vec<MetricSample>,
}

/// Keeps only `[a-zA-Z0-9_]`, mapping everything else to `_` — the
/// Prometheus metric-name alphabet.
fn sanitize(s: &str) -> String {
    s.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

impl Snapshot {
    /// Appends a derived sample (e.g. a per-shard reading computed
    /// outside the registry) keeping the snapshot sorted.
    pub fn push(&mut self, sample: MetricSample) {
        let key = (sample.subsystem.clone(), sample.name.clone(), sample.label.clone());
        let at = self.samples.partition_point(|s| {
            (s.subsystem.as_str(), s.name.as_str(), s.label.as_str())
                <= (key.0.as_str(), key.1.as_str(), key.2.as_str())
        });
        self.samples.insert(at, sample);
    }

    /// Looks up one sample by key.
    pub fn get(&self, subsystem: &str, name: &str, label: &str) -> Option<&SampleValue> {
        self.samples
            .iter()
            .find(|s| s.subsystem == subsystem && s.name == name && s.label == label)
            .map(|s| &s.value)
    }

    /// Renders an aligned human-readable table, one metric per row.
    /// Histograms show count, mean and the standard quantiles.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10} {:<24} {:<16} {}\n", "subsystem", "name", "label", "value"));
        for s in &self.samples {
            let value = match &s.value {
                SampleValue::Counter(v) => format!("{v}"),
                SampleValue::Gauge(v) => format!("{v} (gauge)"),
                SampleValue::Histogram(h) => format!(
                    "n={} mean={:.0} p50={} p90={} p99={} p999={} max={}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999(),
                    h.max,
                ),
            };
            out.push_str(&format!(
                "{:<10} {:<24} {:<16} {}\n",
                s.subsystem, s.name, s.label, value
            ));
        }
        out
    }

    /// Renders a Prometheus-style text exposition: counters and gauges
    /// as `pax_<subsystem>_<name>{label="..."} <value>`, histograms as
    /// summaries with `quantile` labels plus `_count` and `_sum` lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let metric = format!("pax_{}_{}", sanitize(&s.subsystem), sanitize(&s.name));
            let label = s.label.replace('\\', "\\\\").replace('"', "\\\"");
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{metric}{{label=\"{label}\"}} {v}\n"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{metric}{{label=\"{label}\"}} {v}\n"));
                }
                SampleValue::Histogram(h) => {
                    for (q, v) in
                        [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99()), ("0.999", h.p999())]
                    {
                        out.push_str(&format!(
                            "{metric}{{label=\"{label}\",quantile=\"{q}\"}} {v}\n"
                        ));
                    }
                    out.push_str(&format!("{metric}_count{{label=\"{label}\"}} {}\n", h.count));
                    out.push_str(&format!("{metric}_sum{{label=\"{label}\"}} {}\n", h.sum));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.add(3);
        assert_eq!(g.sub(5), 3, "sub reports the value it found");
        assert_eq!(g.get(), 0, "gauge must clamp instead of wrapping");
        g.add(2);
        assert_eq!(g.sub(1), 2);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let r = Registry::new();
        let a = r.counter("serve", "submitted", "cardio");
        let b = r.counter("serve", "submitted", "cardio");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles must hit the same counter");
        assert_eq!(r.snapshot().samples.len(), 1);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("serve", "x", "m");
        r.gauge("serve", "x", "m");
    }

    #[test]
    fn unregister_label_drops_all_its_metrics() {
        let r = Registry::new();
        r.counter("serve", "submitted", "a").inc();
        r.gauge("serve", "queue_depth", "a").add(4);
        r.counter("serve", "submitted", "b").inc();
        r.unregister_label("a");
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.samples[0].label, "b");
    }

    #[test]
    fn snapshot_renders_table_and_prometheus() {
        let r = Registry::new();
        r.counter("serve", "submitted", "cardio").add(10);
        r.gauge("serve", "queue_depth", "cardio").add(4);
        let h = r.histogram("serve", "latency_ns", "cardio");
        for v in [100u64, 200, 300, 40_000] {
            h.record(v);
        }
        let snap = r.snapshot();

        let table = snap.to_table();
        assert!(table.contains("submitted"), "{table}");
        assert!(table.contains("n=4"), "{table}");

        let prom = snap.to_prometheus();
        assert!(prom.contains("pax_serve_submitted{label=\"cardio\"} 10"), "{prom}");
        assert!(prom.contains("pax_serve_queue_depth{label=\"cardio\"} 4"), "{prom}");
        assert!(prom.contains("pax_serve_latency_ns_count{label=\"cardio\"} 4"), "{prom}");
        assert!(prom.contains("quantile=\"0.5\""), "{prom}");
        for line in prom.lines() {
            assert!(line.contains(' '), "every exposition line is `name value`: {line}");
        }
    }

    #[test]
    fn push_keeps_snapshot_sorted() {
        let r = Registry::new();
        r.counter("serve", "z", "m").inc();
        let mut snap = r.snapshot();
        snap.push(MetricSample {
            subsystem: "serve".into(),
            name: "a".into(),
            label: "m".into(),
            value: SampleValue::Gauge(7),
        });
        assert_eq!(snap.samples[0].name, "a");
        assert_eq!(snap.get("serve", "a", "m"), Some(&SampleValue::Gauge(7)));
    }
}
