//! The serving engine: worker pool, batching, backpressure, auditing —
//! and the evaluation fabric riding the same pool.
//!
//! [`ServeEngine`] owns a pool of worker threads over the sharded
//! [`Registry`](crate::registry). Submitting a sample parks it in its
//! model's bounded queue and returns a [`Ticket`]; workers drain queues
//! in up-to-[`LANES`](crate::LANES)-request batches, answer each batch
//! with one backend pass, and cross-check a sampled fraction of batches
//! against the *other* backend — so the measured accuracy cost of the
//! deployed approximation is a live metric, not a one-off study number.
//!
//! The same workers execute tenant *jobs*: a design-space study
//! registers as a tenant ([`ServeEngine::register_tenant`]), gets a
//! [`TenantHandle`] implementing `pax_core::explore::EvalFabric`, and
//! every candidate evaluation its evaluator ships lands in the tenant's
//! bounded queue beside the model queues — one pool, two kinds of work,
//! with classification requests taking scan priority (they are
//! latency-bound; evaluations are throughput-bound).
//!
//! Each worker treats `worker_index % SHARDS` as its home shard and
//! scans the remaining shards only when home is idle (work stealing),
//! which keeps hot models from monopolizing the pool while idle workers
//! still drain any backlog they can find.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pax_core::artifact::Artifact;
use pax_core::explore::{EvalFabric, FabricError, FabricJob};

use crate::backend::{NetlistBackend, QuantBackend};
use crate::batch::{CancelReason, Outcome, Request, Ticket};
use crate::job::{
    EnqueueRefusal, JobTicket, QueuedJob, TenantEntry, TenantOptions, TenantSnapshot,
};
use crate::metrics::MetricsSnapshot;
use crate::registry::{ModelEntry, Primary, Registry, Work, SHARDS};

/// Jobs a worker drains from one tenant per work-scan. Small enough
/// that a study with a deep backlog cannot monopolize a worker between
/// scans (each scan may instead find latency-sensitive model work).
const JOB_CHUNK: usize = 8;

/// Engine-wide defaults; per-model knobs live in [`ModelOptions`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` means one per available core, capped at 8.
    pub workers: usize,
    /// Default bound on each model's request queue.
    pub queue_capacity: usize,
    /// Default fraction of batches the auditor cross-checks (clamped to
    /// `0.0..=1.0`; `0.0` disables auditing).
    pub audit_fraction: f64,
    /// Default backend for live traffic.
    pub primary: Primary,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { workers: 0, queue_capacity: 1024, audit_fraction: 0.05, primary: Primary::Netlist }
    }
}

/// Per-model overrides for [`ServeEngine::register_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelOptions {
    /// Queue bound; `None` inherits [`EngineConfig::queue_capacity`].
    pub queue_capacity: Option<usize>,
    /// Audit fraction; `None` inherits [`EngineConfig::audit_fraction`].
    pub audit_fraction: Option<f64>,
    /// Serving backend; `None` inherits [`EngineConfig::primary`].
    pub primary: Option<Primary>,
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// A model with this name is already registered.
    Duplicate(String),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Duplicate(name) => write!(f, "model `{name}` already registered"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why a submission was refused or a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No model registered under this name.
    UnknownModel(String),
    /// The model's queue is full — backpressure; retry later.
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The row's arity does not match the model's input count.
    Arity {
        /// Inputs the model expects.
        expected: usize,
        /// Values the row carried.
        got: usize,
    },
    /// An input value is outside the model's unsigned quantized range.
    OutOfRange {
        /// The offending value.
        value: i64,
        /// The inclusive maximum (minimum is 0).
        max: i64,
    },
    /// The request was cancelled (model unregistered, batch failed)
    /// before it executed.
    Cancelled,
    /// The engine shut down while the request was queued. Distinct from
    /// [`ServeError::Cancelled`] so callers holding handles to several
    /// engines know this one is gone for good, not just this model.
    Shutdown,
    /// The simulator rejected the packed batch (see
    /// [`pax_sim::SimError`]). Submission validates rows, so reaching
    /// this from the engine indicates an artifact/model mismatch.
    Sim(pax_sim::SimError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity}); backpressure")
            }
            ServeError::Arity { expected, got } => {
                write!(f, "row has {got} values, model expects {expected}")
            }
            ServeError::OutOfRange { value, max } => {
                write!(f, "input {value} outside quantized range 0..={max}")
            }
            ServeError::Cancelled => write!(f, "request cancelled before execution"),
            ServeError::Shutdown => write!(f, "engine shut down before the request executed"),
            ServeError::Sim(e) => write!(f, "simulation rejected batch: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Wakeup channel between submitters and workers.
#[derive(Default)]
struct WorkSignal {
    lock: Mutex<()>,
    cond: Condvar,
}

struct Shared {
    registry: Registry,
    signal: WorkSignal,
    stop: AtomicBool,
}

/// Multi-threaded, multi-model serving engine. See the module docs.
pub struct ServeEngine {
    shared: Arc<Shared>,
    config: EngineConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Spawns the worker pool and returns the (initially empty) engine.
    pub fn new(config: EngineConfig) -> Self {
        let shared = Arc::new(Shared {
            registry: Registry::new(),
            signal: WorkSignal::default(),
            stop: AtomicBool::new(false),
        });
        let n = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, |t| t.get()).min(8)
        } else {
            config.workers
        };
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pax-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, config, workers }
    }

    /// Engine with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// Worker threads in the pool (after resolving a `workers: 0`
    /// configuration to the core count).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Registers a servable artifact under its model name, with the
    /// engine's default options.
    ///
    /// # Errors
    ///
    /// Fails if the name is already registered.
    pub fn register(&self, artifact: Artifact) -> Result<(), RegisterError> {
        self.register_with(artifact, ModelOptions::default())
    }

    /// Registers a servable artifact with per-model overrides.
    ///
    /// # Errors
    ///
    /// Fails if the name is already registered.
    pub fn register_with(
        &self,
        artifact: Artifact,
        opts: ModelOptions,
    ) -> Result<(), RegisterError> {
        let Artifact { model, netlist, .. } = artifact;
        let name = model.name.clone();
        let fraction = opts.audit_fraction.unwrap_or(self.config.audit_fraction).clamp(0.0, 1.0);
        let entry = ModelEntry::new(
            name.clone(),
            NetlistBackend::new(netlist, model.clone()),
            QuantBackend::new(model),
            opts.primary.unwrap_or(self.config.primary),
            opts.queue_capacity.unwrap_or(self.config.queue_capacity).max(1),
            audit_stride(fraction),
        );
        if self.shared.registry.insert(entry) {
            Ok(())
        } else {
            Err(RegisterError::Duplicate(name))
        }
    }

    /// Unregisters a model, cancelling its queued requests (their
    /// tickets resolve as [`Outcome::Cancelled`] with
    /// [`CancelReason::Unregistered`]). Returns `false` if no such
    /// model exists.
    pub fn unregister(&self, name: &str) -> bool {
        match self.shared.registry.remove(name) {
            Some(entry) => {
                entry.cancel_pending(CancelReason::Unregistered);
                true
            }
            None => false,
        }
    }

    /// Registered model names.
    pub fn models(&self) -> Vec<String> {
        self.shared.registry.names()
    }

    /// Submits one quantized input row; the returned [`Ticket`] resolves
    /// when the batch it rides in executes.
    ///
    /// # Errors
    ///
    /// Rejects unknown models, arity/range mismatches and — the
    /// backpressure path — full queues.
    pub fn submit(&self, model: &str, row: Vec<i64>) -> Result<Ticket, ServeError> {
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()))?;
        validate_row(&entry, &row)?;
        let (request, ticket) = Request::new(row);
        if !entry.enqueue(request) {
            return Err(ServeError::QueueFull { capacity: entry.capacity });
        }
        // If the model was unregistered (or the engine shut down)
        // between the lookup and the enqueue, its cancel sweep may have
        // already run — nobody would drain this queue again. Re-check
        // and sweep here so the ticket always resolves.
        let stopped = self.shared.stop.load(Ordering::SeqCst);
        let orphaned = stopped
            || self.shared.registry.get(model).is_none_or(|current| !Arc::ptr_eq(&current, &entry));
        if orphaned {
            entry.cancel_pending(if stopped {
                CancelReason::Shutdown
            } else {
                CancelReason::Unregistered
            });
        }
        self.shared.signal.cond.notify_one();
        Ok(ticket)
    }

    /// Convenience: submits every row and blocks for all predictions.
    ///
    /// # Errors
    ///
    /// Propagates the first submission error; a request cancelled in
    /// flight surfaces as [`ServeError::Shutdown`] when the engine tore
    /// down underneath it, [`ServeError::Cancelled`] otherwise.
    pub fn classify(&self, model: &str, rows: &[Vec<i64>]) -> Result<Vec<usize>, ServeError> {
        let tickets: Vec<Ticket> =
            rows.iter().map(|row| self.submit(model, row.clone())).collect::<Result<_, _>>()?;
        tickets
            .into_iter()
            .map(|t| match t.wait() {
                Outcome::Class(c) => Ok(c),
                Outcome::Cancelled(CancelReason::Shutdown) => Err(ServeError::Shutdown),
                Outcome::Cancelled(_) => Err(ServeError::Cancelled),
            })
            .collect()
    }

    /// Registers a tenant — a named consumer of the engine's job lane,
    /// typically one design-space study — and returns the handle its
    /// evaluator attaches as an
    /// [`EvalFabric`](pax_core::explore::EvalFabric). The tenant gets
    /// its own bounded queue, optional job budget and metrics; its jobs
    /// share the worker pool with classification traffic.
    ///
    /// # Errors
    ///
    /// Fails if a tenant with this name is already registered (the
    /// tenant namespace is separate from the model namespace).
    pub fn register_tenant(
        &self,
        name: &str,
        opts: TenantOptions,
    ) -> Result<TenantHandle, RegisterError> {
        match self.shared.registry.insert_tenant(TenantEntry::new(name.to_owned(), opts)) {
            Some(entry) => Ok(TenantHandle { entry, shared: Arc::clone(&self.shared) }),
            None => Err(RegisterError::Duplicate(name.to_owned())),
        }
    }

    /// Unregisters a tenant, cancelling its queued jobs (their tickets
    /// resolve as cancelled, and any completion channels the job
    /// closures captured close — which is how an attached evaluator
    /// observes the teardown as a typed error instead of hanging). Jobs
    /// already in flight on a worker run to completion. Returns `false`
    /// if no such tenant exists.
    pub fn unregister_tenant(&self, name: &str) -> bool {
        match self.shared.registry.remove_tenant(name) {
            Some(entry) => {
                entry.cancel_pending(CancelReason::Unregistered);
                true
            }
            None => false,
        }
    }

    /// Registered tenant names.
    pub fn tenants(&self) -> Vec<String> {
        self.shared.registry.tenant_names()
    }

    /// Point-in-time metrics for one tenant.
    pub fn tenant_metrics(&self, name: &str) -> Option<TenantSnapshot> {
        self.shared.registry.get_tenant(name).map(|e| e.snapshot())
    }

    /// Point-in-time metrics for one model.
    pub fn metrics(&self, model: &str) -> Option<MetricsSnapshot> {
        self.shared.registry.get(model).map(|e| e.metrics.snapshot())
    }

    /// Metrics for every registered model.
    pub fn all_metrics(&self) -> Vec<(String, MetricsSnapshot)> {
        self.shared
            .registry
            .entries()
            .iter()
            .map(|e| (e.name.clone(), e.metrics.snapshot()))
            .collect()
    }

    /// Workspace telemetry snapshot: per-model counters, queue gauges
    /// and latency histograms (subsystem `serve`, labelled by model
    /// name), per-tenant job counters, budget spend and latency
    /// (subsystem `fabric`, labelled by tenant name), plus one derived
    /// queue-depth gauge per registry shard (labelled `shard-NN`) — the
    /// load-balance view the work-stealing scan acts on. Render with
    /// [`pax_obs::Snapshot::to_table`] or
    /// [`pax_obs::Snapshot::to_prometheus`].
    pub fn telemetry(&self) -> pax_obs::Snapshot {
        let mut snap = pax_obs::Snapshot::default();
        for entry in self.shared.registry.entries() {
            for sample in entry.metrics.samples(&entry.name) {
                snap.push(sample);
            }
        }
        for tenant in self.shared.registry.tenant_entries() {
            for sample in tenant.samples() {
                snap.push(sample);
            }
        }
        for (shard, depth) in self.shared.registry.shard_queue_depths().into_iter().enumerate() {
            snap.push(pax_obs::MetricSample {
                subsystem: "serve".to_owned(),
                name: "shard_queue_depth".to_owned(),
                label: format!("shard-{shard:02}"),
                value: pax_obs::SampleValue::Gauge(depth),
            });
        }
        snap
    }

    /// Stops the workers, cancels queued requests and joins the pool.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.signal.cond.notify_all();
        // Workers drain every queue before exiting, so joined workers
        // mean the sweeps below only catch entries that slipped in
        // after the stop flag (the submit paths re-check and self-sweep
        // for exactly that race).
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for entry in self.shared.registry.entries() {
            entry.cancel_pending(CancelReason::Shutdown);
        }
        for tenant in self.shared.registry.tenant_entries() {
            tenant.cancel_pending(CancelReason::Shutdown);
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.teardown();
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.workers.len())
            .field("models", &self.shared.registry.names())
            .field("tenants", &self.shared.registry.tenant_names())
            .finish()
    }
}

/// One tenant's door into the engine's job lane. Cloneable, cheap, and
/// an [`EvalFabric`] — hand `Arc::new(handle)` to
/// `Evaluator::with_fabric` and the study's candidate evaluations run
/// on the serve workers under this tenant's queue, budget and metrics.
///
/// The handle stays valid (but refuses submissions with typed errors)
/// after its tenant is unregistered or the engine shuts down.
#[derive(Clone)]
pub struct TenantHandle {
    entry: Arc<TenantEntry>,
    shared: Arc<Shared>,
}

impl TenantHandle {
    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.entry.name
    }

    /// Point-in-time metrics for this tenant.
    pub fn snapshot(&self) -> TenantSnapshot {
        self.entry.snapshot()
    }

    /// Submits one job, blocking on backpressure while the queue is
    /// full, and returns a ticket that observes its lifecycle.
    ///
    /// # Errors
    ///
    /// [`FabricError::Shutdown`] when the engine is tearing down,
    /// [`FabricError::Cancelled`] when this tenant was unregistered,
    /// [`FabricError::BudgetExhausted`] when the tenant's lifetime job
    /// budget is spent.
    pub fn submit_job(&self, job: crate::job::Job) -> Result<JobTicket, FabricError> {
        let (mut queued, ticket) = QueuedJob::new(job);
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return Err(FabricError::Shutdown);
            }
            if self.unregistered() {
                return Err(FabricError::Cancelled);
            }
            match self.entry.enqueue(queued) {
                Ok(()) => break,
                Err((job, EnqueueRefusal::Budget)) => {
                    // Dropping the refused job resolves its ticket.
                    drop(job);
                    return Err(FabricError::BudgetExhausted {
                        budget: self.entry.budget.unwrap_or(0),
                    });
                }
                Err((job, EnqueueRefusal::Full)) => {
                    // Backpressure: wait for the workers to drain a
                    // slot, re-checking the stop flag each lap.
                    queued = job;
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
        // Same orphan re-check as request submission: if the tenant
        // was unregistered (or the engine stopped) between the check
        // and the enqueue, its cancel sweep may have already run —
        // self-sweep so the job never sits in a queue nobody drains.
        let stopped = self.shared.stop.load(Ordering::SeqCst);
        if stopped || self.unregistered() {
            self.entry.cancel_pending(if stopped {
                CancelReason::Shutdown
            } else {
                CancelReason::Unregistered
            });
        }
        self.shared.signal.cond.notify_one();
        Ok(ticket)
    }

    /// Whether this handle's tenant is no longer the registered entry
    /// under its name (unregistered, or replaced by a re-registration).
    fn unregistered(&self) -> bool {
        self.shared
            .registry
            .get_tenant(&self.entry.name)
            .is_none_or(|current| !Arc::ptr_eq(&current, &self.entry))
    }
}

impl EvalFabric for TenantHandle {
    fn submit(&self, job: FabricJob) -> Result<(), FabricError> {
        // Fire-and-forget for the evaluator: its jobs signal completion
        // over their own channels, so the lifecycle ticket is dropped.
        self.submit_job(job).map(|_ticket| ())
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("tenant", &self.entry.name)
            .field("budget", &self.entry.budget)
            .finish()
    }
}

/// Batch-sampling stride for an audit fraction: every batch at 1.0,
/// every `round(1/f)`-th batch below, never at 0.0.
fn audit_stride(fraction: f64) -> u64 {
    if fraction <= 0.0 {
        0
    } else {
        (1.0 / fraction).round().max(1.0) as u64
    }
}

fn validate_row(entry: &ModelEntry, row: &[i64]) -> Result<(), ServeError> {
    if row.len() != entry.arity() {
        return Err(ServeError::Arity { expected: entry.arity(), got: row.len() });
    }
    let max = entry.input_max();
    for &value in row {
        if value < 0 || value > max {
            return Err(ServeError::OutOfRange { value, max });
        }
    }
    Ok(())
}

fn worker_loop(shared: &Shared, index: usize) {
    let home = index % SHARDS;
    loop {
        match shared.registry.find_work(home) {
            Some(Work::Batch(entry)) => {
                let batch = entry.take_batch();
                if !batch.is_empty() {
                    execute(&entry, batch);
                }
                continue;
            }
            Some(Work::Jobs(tenant)) => {
                let jobs = tenant.take_jobs(JOB_CHUNK);
                if !jobs.is_empty() {
                    tenant.run_jobs(jobs);
                }
                continue;
            }
            None => {}
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Park briefly; submit() notifies, and the timeout covers the
        // race where work arrived between the scan and the wait.
        let mut guard = shared.signal.lock.lock();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = shared.signal.cond.wait_for(&mut guard, Duration::from_millis(2));
    }
}

/// Answers one batch: a single primary-backend pass, slot fills, metrics
/// and — for sampled batches — the cross-backend audit.
///
/// A backend rejection (malformed batch that slipped past submit-side
/// validation) cancels the batch's tickets instead of panicking: a bad
/// batch must never poison the worker thread.
fn execute(entry: &ModelEntry, batch: Vec<Request>) {
    let rows: Vec<Vec<i64>> = batch.iter().map(|r| r.row.clone()).collect();
    let predictions = match entry.primary_backend().try_classify(&rows) {
        Ok(predictions) => predictions,
        Err(e) => {
            // Keep the queue gauge honest and retain the error text so
            // a broken artifact is diagnosable from the metrics, then
            // resolve every ticket.
            entry.metrics.on_batch_failed(batch.len(), &e.to_string());
            for request in &batch {
                request.slot.fill(Outcome::Cancelled(CancelReason::Failed));
            }
            return;
        }
    };
    if predictions.len() != batch.len() {
        // A backend answering the wrong number of predictions used to
        // strand the zip-truncated tail of the batch: their slots were
        // never filled and their tickets blocked forever. Treat it as a
        // failed batch so every ticket resolves with a typed outcome.
        debug_assert_eq!(predictions.len(), batch.len(), "backend must answer every request");
        entry
            .metrics
            .on_batch_failed(batch.len(), "backend answered a different number of predictions");
        for request in &batch {
            request.slot.fill(Outcome::Cancelled(CancelReason::Failed));
        }
        return;
    }

    let done = Instant::now();
    let latencies_ns: Vec<u64> = batch
        .iter()
        .map(|r| u64::try_from(done.duration_since(r.enqueued).as_nanos()).unwrap_or(u64::MAX))
        .collect();
    // Meter before answering: once a caller's ticket resolves, the
    // batch it rode in is already visible in the snapshot counters.
    entry.metrics.on_batch_done(&latencies_ns);
    for (request, &class) in batch.iter().zip(&predictions) {
        request.slot.fill(Outcome::Class(class));
    }

    // Audit after answering: divergence measurement must not add
    // latency to the sampled requests. An audit-side rejection is
    // skipped — the primary already answered.
    if entry.should_audit() {
        if let Ok(reference) = entry.audit_backend().try_classify(&rows) {
            let divergent = predictions.iter().zip(&reference).filter(|(a, b)| a != b).count();
            entry.metrics.on_audit(rows.len(), divergent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::{DesignPoint, Technique};
    use pax_ml::model::LinearClassifier;
    use pax_ml::quant::{QuantSpec, QuantizedModel};

    fn demo_artifact(name: &str) -> Artifact {
        let svc = LinearClassifier::new(
            vec![vec![0.8, -0.2, 0.3], vec![-0.4, 0.9, -0.1], vec![0.1, 0.2, -0.6]],
            vec![0.0, 0.05, -0.1],
        );
        let model = QuantizedModel::from_linear_classifier(name, &svc, QuantSpec::default());
        let netlist = pax_bespoke::BespokeCircuit::generate(&model).netlist;
        let point = DesignPoint {
            technique: Technique::Exact,
            tau_c: None,
            phi_c: None,
            coeff: None,
            accuracy: 1.0,
            area_mm2: 0.0,
            power_mw: 0.0,
            gate_count: netlist.gate_count(),
            critical_ms: 0.0,
        };
        Artifact { model, netlist, point }
    }

    fn rows(n: usize) -> Vec<Vec<i64>> {
        (0..n)
            .map(|i| vec![(i % 16) as i64, ((i * 7) % 16) as i64, ((i * 3) % 16) as i64])
            .collect()
    }

    #[test]
    fn serves_and_matches_golden_model() {
        let engine = ServeEngine::new(EngineConfig { workers: 3, ..Default::default() });
        let artifact = demo_artifact("serve-test");
        let golden = QuantBackend::new(artifact.model.clone());
        engine.register(artifact).unwrap();

        let inputs = rows(300);
        let got = engine.classify("serve-test", &inputs).unwrap();
        let expected: Vec<usize> = inputs.iter().map(|r| golden.model().predict_q(r)).collect();
        assert_eq!(got, expected);

        let snap = engine.metrics("serve-test").unwrap();
        assert_eq!(snap.completed, 300);
        assert_eq!(snap.queue_depth, 0);
        assert!(snap.batches >= 2, "300 requests need ≥2 batches of ≤256");
        engine.shutdown();
    }

    #[test]
    fn every_gauge_reads_zero_once_all_tickets_resolve() {
        // Eight submitters, each sending one row at a time to its own
        // model beside jobs for two tenants, race four workers. Each
        // model gauge idles at 0, so a drain that overtook its enqueue's
        // increment would underflow: debug builds assert on every drain
        // that the gauge covered it, and once every ticket has resolved
        // every model, tenant and shard gauge must read 0.
        let engine = ServeEngine::new(EngineConfig { workers: 4, ..Default::default() });
        let models: Vec<String> = (0..8).map(|i| format!("gauge-{i}")).collect();
        for m in &models {
            engine.register(demo_artifact(m)).unwrap();
        }
        let tenants: Vec<TenantHandle> = (0..2)
            .map(|i| {
                engine.register_tenant(&format!("gauge-t{i}"), crate::TenantOptions::default())
            })
            .collect::<Result<_, _>>()
            .unwrap();
        std::thread::scope(|s| {
            for model in &models {
                let (engine, tenants) = (&engine, &tenants);
                s.spawn(move || {
                    for row in rows(2000) {
                        let ticket = engine.submit(model, row).unwrap();
                        let jobs: Vec<_> = tenants
                            .iter()
                            .map(|t| t.submit_job(Box::new(|| {})).unwrap())
                            .collect();
                        assert!(matches!(ticket.wait(), Outcome::Class(_)));
                        for job in jobs {
                            assert_eq!(job.wait(), crate::JobOutcome::Done);
                        }
                    }
                });
            }
        });
        for m in &models {
            assert_eq!(engine.metrics(m).unwrap().queue_depth, 0, "model {m}");
        }
        for t in &tenants {
            assert_eq!(t.snapshot().queue_depth, 0, "tenant {}", t.name());
        }
        for (shard, depth) in engine.shared.registry.shard_queue_depths().into_iter().enumerate() {
            assert_eq!(depth, 0, "shard {shard}");
        }
        engine.shutdown();
    }

    #[test]
    fn audit_on_exact_artifact_never_diverges() {
        let engine = ServeEngine::new(EngineConfig {
            workers: 2,
            audit_fraction: 1.0,
            ..Default::default()
        });
        engine.register(demo_artifact("audited")).unwrap();
        engine.classify("audited", &rows(200)).unwrap();
        // Audits run after responses; poll briefly for the counters.
        let mut snap = engine.metrics("audited").unwrap();
        for _ in 0..200 {
            if snap.audited_samples >= 200 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            snap = engine.metrics("audited").unwrap();
        }
        assert!(snap.audited_samples >= 200, "fraction 1.0 audits every batch");
        assert_eq!(snap.divergence, 0.0, "exact circuit must agree with golden model");
    }

    #[test]
    fn submit_validation_and_unknown_model() {
        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        engine.register(demo_artifact("valid")).unwrap();
        assert!(matches!(engine.submit("nope", vec![0, 0, 0]), Err(ServeError::UnknownModel(_))));
        assert_eq!(
            engine.submit("valid", vec![0, 0]).unwrap_err(),
            ServeError::Arity { expected: 3, got: 2 }
        );
        assert_eq!(
            engine.submit("valid", vec![0, 99, 0]).unwrap_err(),
            ServeError::OutOfRange { value: 99, max: 15 }
        );
        assert_eq!(
            engine.submit("valid", vec![0, -1, 0]).unwrap_err(),
            ServeError::OutOfRange { value: -1, max: 15 }
        );
    }

    #[test]
    fn backpressure_rejects_when_queue_full() {
        // No workers draining: the queue fills and stays full.
        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        engine
            .register_with(
                demo_artifact("tiny-queue"),
                ModelOptions { queue_capacity: Some(1), ..Default::default() },
            )
            .unwrap();
        // A capacity-1 queue under a tight submit storm must reject at
        // least once: submits are faster than single-row netlist passes.
        let first = engine.submit("tiny-queue", vec![0, 0, 0]);
        assert!(first.is_ok());
        let mut saw_backpressure = false;
        for _ in 0..10_000 {
            match engine.submit("tiny-queue", vec![1, 1, 1]) {
                Err(ServeError::QueueFull { capacity: 1 }) => {
                    saw_backpressure = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
                Ok(_) => {}
            }
        }
        assert!(saw_backpressure, "capacity-1 queue under a submit storm must reject");
        let snap = engine.metrics("tiny-queue").unwrap();
        assert!(snap.rejected >= 1);
    }

    #[test]
    fn unregister_cancels_pending() {
        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        engine.register(demo_artifact("gone")).unwrap();
        let tickets: Vec<Ticket> =
            (0..50).filter_map(|_| engine.submit("gone", vec![1, 2, 3]).ok()).collect();
        assert!(engine.unregister("gone"));
        assert!(!engine.unregister("gone"), "second unregister is a no-op");
        assert!(matches!(engine.submit("gone", vec![1, 2, 3]), Err(ServeError::UnknownModel(_))));
        // Every ticket resolved — answered before removal or cancelled.
        for t in tickets {
            let _ = t.wait();
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        engine.register(demo_artifact("dup")).unwrap();
        assert_eq!(
            engine.register(demo_artifact("dup")),
            Err(RegisterError::Duplicate("dup".into()))
        );
    }

    #[test]
    fn quant_primary_serves_identically() {
        let engine = ServeEngine::new(EngineConfig {
            workers: 2,
            primary: Primary::Quant,
            audit_fraction: 1.0,
            ..Default::default()
        });
        let artifact = demo_artifact("quant-primary");
        let golden = QuantBackend::new(artifact.model.clone());
        engine.register(artifact).unwrap();
        let inputs = rows(128);
        let got = engine.classify("quant-primary", &inputs).unwrap();
        let expected: Vec<usize> = inputs.iter().map(|r| golden.model().predict_q(r)).collect();
        assert_eq!(got, expected);
        assert_eq!(engine.metrics("quant-primary").unwrap().divergence, 0.0);
    }

    #[test]
    fn shutdown_with_queued_work_strands_no_ticket() {
        // A submit storm racing shutdown: every ticket must resolve —
        // answered, or cancelled with a typed reason — never hang.
        let engine = ServeEngine::new(EngineConfig { workers: 2, ..Default::default() });
        engine.register(demo_artifact("stormy")).unwrap();
        let engine = Arc::new(engine);
        let submitter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut tickets = Vec::new();
                loop {
                    match engine.submit("stormy", vec![1, 2, 3]) {
                        Ok(t) => tickets.push(t),
                        Err(ServeError::QueueFull { .. }) => continue,
                        Err(_) => break, // engine gone — stop submitting
                    }
                    if tickets.len() >= 2_000 {
                        break;
                    }
                }
                tickets
            })
        };
        std::thread::sleep(Duration::from_millis(3));
        Arc::try_unwrap(engine).map(ServeEngine::shutdown).ok();
        let tickets = submitter.join().unwrap();
        // Arc::try_unwrap fails while the submitter holds its clone; in
        // that case the drop at the end of this scope tears down. Either
        // way, every ticket must already resolve (or resolve below)
        // without hanging the test.
        for t in tickets {
            match t.wait() {
                Outcome::Class(_) | Outcome::Cancelled(CancelReason::Shutdown) => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn tenant_jobs_run_on_the_shared_pool() {
        use std::sync::atomic::AtomicUsize;

        let engine = ServeEngine::new(EngineConfig { workers: 2, ..Default::default() });
        let tenant = engine.register_tenant("study", crate::TenantOptions::default()).unwrap();
        assert_eq!(engine.tenants(), vec!["study".to_owned()]);
        assert!(
            engine.register_tenant("study", crate::TenantOptions::default()).is_err(),
            "duplicate tenant name rejected"
        );

        let ran = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<crate::JobTicket> = (0..64)
            .map(|_| {
                let ran = Arc::clone(&ran);
                tenant
                    .submit_job(Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait(), crate::JobOutcome::Done);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 64);
        let snap = engine.tenant_metrics("study").unwrap();
        assert_eq!(snap.completed, 64);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.budget_spent, 64);
    }

    #[test]
    fn tenant_budget_refuses_with_typed_error() {
        use pax_core::explore::{EvalFabric, FabricError};

        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        let tenant = engine
            .register_tenant(
                "frugal",
                crate::TenantOptions { budget: Some(3), ..Default::default() },
            )
            .unwrap();
        for _ in 0..3 {
            EvalFabric::submit(&tenant, Box::new(|| {})).unwrap();
        }
        assert_eq!(
            EvalFabric::submit(&tenant, Box::new(|| {})),
            Err(FabricError::BudgetExhausted { budget: 3 })
        );
        let snap = tenant.snapshot();
        assert_eq!(snap.budget_spent, 3);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn unregister_while_inflight_cancels_queued_jobs_only() {
        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        let tenant = engine.register_tenant("doomed", crate::TenantOptions::default()).unwrap();
        // Slow jobs so some are still queued at unregister time.
        let tickets: Vec<crate::JobTicket> = (0..32)
            .map(|_| {
                tenant
                    .submit_job(Box::new(|| std::thread::sleep(Duration::from_millis(2))))
                    .unwrap()
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        assert!(engine.unregister_tenant("doomed"));
        assert!(!engine.unregister_tenant("doomed"), "second unregister is a no-op");

        let mut done = 0;
        let mut cancelled = 0;
        for t in tickets {
            match t.wait() {
                crate::JobOutcome::Done => done += 1,
                crate::JobOutcome::Cancelled(CancelReason::Unregistered) => cancelled += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(done + cancelled, 32, "every job resolves, none strand");
        assert!(done >= 1, "in-flight work completes");
        assert!(cancelled >= 1, "queued work cancels with the reason");

        // The handle outlives the registration but refuses new work.
        assert!(matches!(
            tenant.submit_job(Box::new(|| {})),
            Err(pax_core::explore::FabricError::Cancelled)
        ));
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        engine.register(demo_artifact("resilient")).unwrap();
        let tenant = engine.register_tenant("chaotic", crate::TenantOptions::default()).unwrap();
        let bad = tenant.submit_job(Box::new(|| panic!("job bug"))).unwrap();
        assert_eq!(bad.wait(), crate::JobOutcome::Panicked);
        let good = tenant.submit_job(Box::new(|| {})).unwrap();
        assert_eq!(good.wait(), crate::JobOutcome::Done);
        // The same worker still answers classification traffic.
        assert_eq!(engine.classify("resilient", &rows(8)).unwrap().len(), 8);
        assert_eq!(engine.tenant_metrics("chaotic").unwrap().panicked, 1);
    }

    #[test]
    fn shutdown_cancels_tenant_jobs_with_shutdown_reason() {
        use pax_core::explore::{EvalFabric, FabricError};

        let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
        let tenant = engine.register_tenant("late", crate::TenantOptions::default()).unwrap();
        engine.shutdown();
        // Submitting into a stopped engine refuses, typed.
        assert_eq!(EvalFabric::submit(&tenant, Box::new(|| {})), Err(FabricError::Shutdown));
    }

    #[test]
    fn audit_stride_mapping() {
        assert_eq!(audit_stride(0.0), 0);
        assert_eq!(audit_stride(-1.0), 0);
        assert_eq!(audit_stride(1.0), 1);
        assert_eq!(audit_stride(0.5), 2);
        assert_eq!(audit_stride(0.05), 20);
    }

    #[test]
    fn multi_model_isolation() {
        let engine = ServeEngine::new(EngineConfig { workers: 4, ..Default::default() });
        for i in 0..6 {
            engine.register(demo_artifact(&format!("m{i}"))).unwrap();
        }
        assert_eq!(engine.models().len(), 6);
        let inputs = rows(64);
        for i in 0..6 {
            let name = format!("m{i}");
            let got = engine.classify(&name, &inputs).unwrap();
            assert_eq!(got.len(), 64);
            assert_eq!(engine.metrics(&name).unwrap().completed, 64);
        }
        let all = engine.all_metrics();
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|(_, s)| s.completed == 64));
    }

    #[test]
    fn telemetry_snapshot_has_per_model_and_per_shard_samples() {
        let engine = ServeEngine::new(EngineConfig { workers: 2, ..Default::default() });
        engine.register(demo_artifact("telemetry")).unwrap();
        engine.classify("telemetry", &rows(100)).unwrap();

        let snap = engine.telemetry();
        assert_eq!(
            snap.get("serve", "completed", "telemetry"),
            Some(&pax_obs::SampleValue::Counter(100))
        );
        match snap.get("serve", "latency_ns", "telemetry") {
            Some(pax_obs::SampleValue::Histogram(h)) => {
                assert_eq!(h.count, 100);
                assert!(h.p50() > 0, "served requests must have nonzero latency");
                assert!(h.p50() <= h.p99());
            }
            other => panic!("latency_ns must be a histogram sample, got {other:?}"),
        }
        let shard_gauges = snap
            .samples
            .iter()
            .filter(|s| s.name == "shard_queue_depth" && s.label.starts_with("shard-"))
            .count();
        assert_eq!(shard_gauges, SHARDS, "one derived queue gauge per registry shard");

        let prom = engine.telemetry().to_prometheus();
        assert!(prom.contains("pax_serve_completed{label=\"telemetry\"} 100"), "{prom}");
        assert!(
            prom.contains("pax_serve_latency_ns{label=\"telemetry\",quantile=\"0.5\"}"),
            "{prom}"
        );
        assert!(prom.contains("pax_serve_shard_queue_depth{label=\"shard-00\"} 0"), "{prom}");
        engine.shutdown();
    }
}
