//! Per-model serving metrics.
//!
//! Lock-free atomic counters updated by submitters and workers, read as
//! a consistent-enough [`MetricsSnapshot`] for dashboards. Occupancy is
//! the fraction of 64-bit simulation lanes actually carrying requests —
//! the direct measure of how well batching amortizes netlist passes.
//!
//! Latency is recorded per request into a [`pax_obs::Histogram`], so the
//! snapshot carries real tail quantiles (p50/p99) next to the historic
//! mean; the queue gauge is a saturating [`pax_obs::Gauge`], so a
//! double-drain race clamps at zero instead of wrapping to ~2^64.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use pax_obs::{Gauge, Histogram, MetricSample, SampleValue};

use crate::batch::LANES;

/// Shortest interval over which [`ModelMetrics::snapshot`] re-measures
/// throughput. Snapshots closer together than this reuse the previous
/// window's rate instead of dividing a tiny delta by a tiny dt.
const THROUGHPUT_WINDOW_SECS: f64 = 0.05;

/// Windowed-throughput state: where the last measurement window ended
/// and what it measured.
#[derive(Debug)]
struct ThroughputWindow {
    at: Instant,
    completed: u64,
    rate: f64,
}

/// Live counters for one registered model.
#[derive(Debug)]
pub struct ModelMetrics {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    lanes_used: AtomicU64,
    /// Per-request submit→response latency in nanoseconds.
    latency: Histogram,
    queue_depth: Gauge,
    audited_batches: AtomicU64,
    audited_samples: AtomicU64,
    divergent_samples: AtomicU64,
    failed_batches: AtomicU64,
    last_failure: Mutex<Option<String>>,
    window: Mutex<ThroughputWindow>,
}

impl ModelMetrics {
    pub(crate) fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            lanes_used: AtomicU64::new(0),
            latency: Histogram::new(),
            queue_depth: Gauge::new(),
            audited_batches: AtomicU64::new(0),
            audited_samples: AtomicU64::new(0),
            divergent_samples: AtomicU64::new(0),
            failed_batches: AtomicU64::new(0),
            last_failure: Mutex::new(None),
            window: Mutex::new(ThroughputWindow { at: Instant::now(), completed: 0, rate: 0.0 }),
        }
    }

    pub(crate) fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.add(1);
    }

    pub(crate) fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A batch executed; `latencies_ns` holds one submit→response
    /// latency per answered request.
    pub(crate) fn on_batch_done(&self, latencies_ns: &[u64]) {
        let n = latencies_ns.len() as u64;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.lanes_used.fetch_add(n, Ordering::Relaxed);
        self.completed.fetch_add(n, Ordering::Relaxed);
        for &ns in latencies_ns {
            self.latency.record(ns);
        }
        drain(&self.queue_depth, n);
    }

    /// Cancels decrement without the underflow check:
    /// `queue_depth_saturates_instead_of_wrapping` pins that a cancel
    /// after a failed batch of the same requests clamps at zero.
    pub(crate) fn on_cancel(&self, n: usize) {
        self.queue_depth.sub(n as u64);
    }

    /// A whole batch was rejected by the serving backend. The error
    /// text is retained so a persistently broken model is diagnosable
    /// from a metrics dashboard, not just from client-side retries.
    pub(crate) fn on_batch_failed(&self, batch_size: usize, error: &str) {
        self.failed_batches.fetch_add(1, Ordering::Relaxed);
        drain(&self.queue_depth, batch_size as u64);
        *self.last_failure.lock() = Some(error.to_owned());
    }

    pub(crate) fn on_audit(&self, samples: usize, divergent: usize) {
        self.audited_batches.fetch_add(1, Ordering::Relaxed);
        self.audited_samples.fetch_add(samples as u64, Ordering::Relaxed);
        self.divergent_samples.fetch_add(divergent as u64, Ordering::Relaxed);
    }

    /// Current queued-or-in-flight request count.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.get()
    }

    /// Samples for the workspace telemetry snapshot, all labelled with
    /// the model name: lifetime counters, the queue gauge and the full
    /// latency histogram.
    pub(crate) fn samples(&self, label: &str) -> Vec<MetricSample> {
        let sample = |name: &str, value: SampleValue| MetricSample {
            subsystem: "serve".to_owned(),
            name: name.to_owned(),
            label: label.to_owned(),
            value,
        };
        vec![
            sample("submitted", SampleValue::Counter(self.submitted.load(Ordering::Relaxed))),
            sample("rejected", SampleValue::Counter(self.rejected.load(Ordering::Relaxed))),
            sample("completed", SampleValue::Counter(self.completed.load(Ordering::Relaxed))),
            sample("batches", SampleValue::Counter(self.batches.load(Ordering::Relaxed))),
            sample(
                "failed_batches",
                SampleValue::Counter(self.failed_batches.load(Ordering::Relaxed)),
            ),
            sample(
                "divergent_samples",
                SampleValue::Counter(self.divergent_samples.load(Ordering::Relaxed)),
            ),
            sample("queue_depth", SampleValue::Gauge(self.queue_depth.get())),
            sample("latency_ns", SampleValue::Histogram(self.latency.snapshot())),
        ]
    }

    /// Consistent-enough point-in-time view of the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let lanes_used = self.lanes_used.load(Ordering::Relaxed);
        let audited = self.audited_samples.load(Ordering::Relaxed);
        let divergent = self.divergent_samples.load(Ordering::Relaxed);
        let latency = self.latency.snapshot();
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            batches,
            queue_depth: usize::try_from(self.queue_depth.get()).unwrap_or(usize::MAX),
            mean_batch: if batches == 0 { 0.0 } else { lanes_used as f64 / batches as f64 },
            occupancy: if batches == 0 {
                0.0
            } else {
                lanes_used as f64 / (batches * LANES as u64) as f64
            },
            mean_latency_ms: if latency.count == 0 {
                0.0
            } else {
                latency.sum as f64 / latency.count as f64 / 1e6
            },
            p50_latency_ms: latency.p50() as f64 / 1e6,
            p99_latency_ms: latency.p99() as f64 / 1e6,
            throughput: {
                // Windowed: completions since the last window divided by
                // the window length. A lifetime completed/elapsed ratio
                // would decay asymptotically instead of reading zero for
                // an idle model and would understate a recent burst.
                let mut window = self.window.lock();
                let dt = window.at.elapsed().as_secs_f64();
                if dt >= THROUGHPUT_WINDOW_SECS {
                    let delta = completed.saturating_sub(window.completed);
                    window.rate = delta as f64 / dt;
                    window.at = Instant::now();
                    window.completed = completed;
                }
                window.rate
            },
            audited_batches: self.audited_batches.load(Ordering::Relaxed),
            audited_samples: audited,
            divergence: if audited == 0 { 0.0 } else { divergent as f64 / audited as f64 },
            failed_batches: self.failed_batches.load(Ordering::Relaxed),
            last_failure: self.last_failure.lock().clone(),
        }
    }
}

/// Takes `n` finished items off a queue gauge. Enqueue meters each item
/// before a worker can take it, so the gauge must cover them; a
/// shortfall is a metering race, which the gauge's saturation would
/// otherwise hide.
pub(crate) fn drain(gauge: &Gauge, n: u64) {
    let before = gauge.sub(n);
    debug_assert!(before >= n, "queue gauge underflow: draining {n} from {before}");
}

/// Point-in-time metrics for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Netlist/MAC passes executed.
    pub batches: u64,
    /// Requests currently queued or in flight.
    pub queue_depth: usize,
    /// Mean requests per executed batch.
    pub mean_batch: f64,
    /// Fraction of the 64 simulation lanes used, averaged over batches.
    pub occupancy: f64,
    /// Mean submit→response latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median submit→response latency in milliseconds (histogram
    /// estimate, ≲3% relative error).
    pub p50_latency_ms: f64,
    /// 99th-percentile submit→response latency in milliseconds
    /// (histogram estimate, ≲3% relative error).
    pub p99_latency_ms: f64,
    /// Completed requests per second over the most recent measurement
    /// window (zero while idle).
    pub throughput: f64,
    /// Batches cross-checked by the auditor.
    pub audited_batches: u64,
    /// Samples cross-checked by the auditor.
    pub audited_samples: u64,
    /// Fraction of audited samples where the backends disagreed — the
    /// live accuracy cost of serving the approximate circuit.
    pub divergence: f64,
    /// Batches rejected by the serving backend (their requests resolve
    /// as cancelled). Nonzero means the deployed artifact and its model
    /// disagree on the interface — a deploy-time bug, not load.
    pub failed_batches: u64,
    /// The most recent backend rejection, verbatim.
    pub last_failure: Option<String>,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} req/s | {} done / {} queued / {} rejected | batch {:.1} ({:.0}% occupancy) | \
             {:.2} ms latency (p50 {:.2} / p99 {:.2}) | divergence {:.2}% over {} audited",
            self.throughput,
            self.completed,
            self.queue_depth,
            self.rejected,
            self.mean_batch,
            self.occupancy * 100.0,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p99_latency_ms,
            self.divergence * 100.0,
            self.audited_samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_aggregate() {
        let m = ModelMetrics::new();
        for _ in 0..10 {
            m.on_submit();
        }
        m.on_reject();
        m.on_batch_done(&[1_000_000; 6]);
        m.on_batch_done(&[500_000; 4]);
        m.on_audit(6, 3);
        let s = m.snapshot();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 10);
        assert_eq!(s.batches, 2);
        assert_eq!(s.queue_depth, 0);
        assert!((s.mean_batch - 5.0).abs() < 1e-12);
        assert!((s.occupancy - 10.0 / (2.0 * LANES as f64)).abs() < 1e-12);
        assert!((s.mean_latency_ms - 0.8).abs() < 1e-12);
        // Rank 5 and rank 10 of [0.5ms ×4, 1ms ×6] both land on 1ms;
        // the histogram answers within its ~3% bucket resolution.
        assert!((s.p50_latency_ms - 1.0).abs() < 0.05, "p50 {}", s.p50_latency_ms);
        assert!((s.p99_latency_ms - 1.0).abs() < 0.05, "p99 {}", s.p99_latency_ms);
        assert!(s.p50_latency_ms <= s.p99_latency_ms);
        assert!((s.divergence - 0.5).abs() < 1e-12);
        assert_eq!(s.audited_batches, 1);
        let line = s.to_string();
        assert!(line.contains("divergence 50.00%"), "{line}");
        assert!(line.contains("p50"), "{line}");
    }

    #[test]
    fn empty_metrics_are_all_zero() {
        let s = ModelMetrics::new().snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.occupancy, 0.0);
        assert_eq!(s.mean_latency_ms, 0.0);
        assert_eq!(s.p50_latency_ms, 0.0);
        assert_eq!(s.p99_latency_ms, 0.0);
        assert_eq!(s.throughput, 0.0);
        assert_eq!(s.divergence, 0.0);
        assert_eq!(s.failed_batches, 0);
        assert_eq!(s.last_failure, None);
    }

    #[test]
    fn batch_failures_are_metered_with_the_error() {
        let m = ModelMetrics::new();
        for _ in 0..5 {
            m.on_submit();
        }
        m.on_batch_failed(5, "simulation rejected batch: empty stimulus");
        let s = m.snapshot();
        assert_eq!(s.failed_batches, 1);
        assert_eq!(s.queue_depth, 0, "failed batches must drain the queue gauge");
        assert_eq!(s.last_failure.as_deref(), Some("simulation rejected batch: empty stimulus"));
    }

    #[test]
    fn queue_depth_saturates_instead_of_wrapping() {
        // Unregister racing a failed batch can drain the same requests
        // twice; the gauge must clamp at zero, not wrap to ~2^64.
        let m = ModelMetrics::new();
        m.on_submit();
        m.on_submit();
        m.on_batch_failed(2, "boom");
        m.on_cancel(2);
        assert_eq!(m.snapshot().queue_depth, 0, "double drain must saturate at zero");
    }

    #[test]
    fn throughput_is_windowed_and_reads_zero_when_idle() {
        let m = ModelMetrics::new();
        for _ in 0..8 {
            m.on_submit();
        }
        m.on_batch_done(&[1_000; 8]);
        std::thread::sleep(Duration::from_millis(60));
        let busy = m.snapshot();
        assert!(busy.throughput > 0.0, "completions in the window must register");
        std::thread::sleep(Duration::from_millis(60));
        let idle = m.snapshot();
        assert_eq!(idle.throughput, 0.0, "an idle window must read zero, not decay");
    }

    #[test]
    fn samples_cover_counters_gauge_and_histogram() {
        let m = ModelMetrics::new();
        m.on_submit();
        m.on_submit();
        m.on_batch_done(&[2_000_000, 3_000_000]);
        let samples = m.samples("demo");
        assert!(samples.iter().all(|s| s.subsystem == "serve" && s.label == "demo"));
        let by_name = |name: &str| {
            samples.iter().find(|s| s.name == name).map(|s| &s.value).unwrap_or_else(|| {
                panic!("missing sample {name}");
            })
        };
        assert_eq!(by_name("submitted"), &SampleValue::Counter(2));
        assert_eq!(by_name("completed"), &SampleValue::Counter(2));
        assert_eq!(by_name("queue_depth"), &SampleValue::Gauge(0));
        match by_name("latency_ns") {
            SampleValue::Histogram(h) => assert_eq!(h.count, 2),
            other => panic!("latency_ns must be a histogram, got {other:?}"),
        }
    }
}
