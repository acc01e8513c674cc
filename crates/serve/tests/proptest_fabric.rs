//! Differential pinning of fabric-routed evaluation against in-process
//! evaluation.
//!
//! An evaluator with a fabric attached submits each candidate's job to
//! a [`ServeEngine`] tenant, where it runs on the shared serve worker
//! pool instead of the evaluator's scoped workers. The jobs are the
//! same either way — a pooled delta session over the same owned
//! context — so the admission ticket is **bit-for-bit equality on
//! every measured axis** — accuracy, area, power, critical-path delay
//! (and gate counts) — plus identical cache accounting, on random
//! circuits × random candidate batches.
//!
//! Covered here:
//!
//! * random `(τc, φc)` batches → bit-equal `DesignPoint`s and equal
//!   `EvalCache` hit/len counters between in-process and fabric;
//! * a fabric grid resumes folds from pooled sessions (delta reuse)
//!   and stays bit-identical to in-process;
//! * warmed-cache re-runs are pure hits in both modes and still agree;
//! * worker-count invariance: engines with different pool sizes answer
//!   identically (job chunking and scan order must not leak);
//! * tenancy failure surfaces: a budget-exhausted or shut-down fabric
//!   returns a typed `StudyError::Fabric`, never a hang or a panic.
//!
//! Run with a fixed seed (`PAX_PROPTEST_SEED=<n>`) for reproducible
//! case streams — CI pins one in the `fabric-differential` job.

use std::sync::Arc;

use pax_bespoke::BespokeCircuit;
use pax_core::explore::{Candidate, CoeffGene, EvalCache, EvalContext, Evaluator, FabricError};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::prune::{analyze, enumerate_grid, PruneAnalysis, PruneConfig};
use pax_core::{DesignPoint, StudyError};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::Dataset;
use pax_serve::{EngineConfig, ServeEngine, TenantOptions};
use proptest::prelude::*;

struct Fixture {
    circuit: BespokeCircuit,
    analysis: PruneAnalysis,
    test: Dataset,
}

fn fixture(seed: u64) -> Fixture {
    let data = blobs("fab", 240, 3, 3, 0.09, 40 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        3,
    );
    let q = QuantizedModel::from_linear_classifier("fab", &m, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let circuit = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    Fixture { circuit, analysis, test }
}

fn contexts(f: &Fixture) -> Vec<EvalContext<'_>> {
    vec![EvalContext {
        coeff: CoeffGene::exact(),
        netlist: &f.circuit.netlist,
        model: &f.circuit.model,
        analysis: f.analysis.clone(),
    }]
}

fn candidates_of(raw: &[(f64, i64)]) -> Vec<Candidate> {
    raw.iter()
        .map(|&(tau_c, phi_c)| Candidate { coeff: CoeffGene::exact(), tau_c, phi_c })
        .collect()
}

fn assert_points_equal(a: &[(Candidate, DesignPoint)], b: &[(Candidate, DesignPoint)], what: &str) {
    prop_assert_eq!(a.len(), b.len(), "{}: result cardinality", what);
    for ((ca, pa), (cb, pb)) in a.iter().zip(b) {
        prop_assert_eq!(ca, cb, "{}: candidate order", what);
        prop_assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "{}: accuracy", what);
        prop_assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits(), "{}: area", what);
        prop_assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits(), "{}: power", what);
        prop_assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits(), "{}: delay", what);
        prop_assert_eq!(pa.gate_count, pb.gate_count, "{}: gate count", what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random circuits × candidate batches: evaluation routed through a
    /// serve-engine tenant is bit-identical to in-process evaluation,
    /// including `EvalCache` hit/len accounting, and a warmed cache
    /// answers the repeat batch without fresh work.
    #[test]
    fn fabric_equals_overlay_bit_for_bit(
        seed in any::<u64>(),
        raw in proptest::collection::vec((0.5f64..1.0, -1i64..12), 1..8),
        workers in 1usize..4,
    ) {
        let f = fixture(seed);
        let fw = Framework::new(FrameworkConfig::default());
        let tech = fw.config().tech.clone();
        let candidates = candidates_of(&raw);

        let overlay = Evaluator::new(fw.library(), &tech, &f.test, contexts(&f));
        let mut cache_o = EvalCache::new();
        let (a, fresh_a) = overlay.evaluate_batch(&candidates, &mut cache_o, None).unwrap();

        let engine = ServeEngine::new(EngineConfig { workers, ..Default::default() });
        let tenant = engine.register_tenant("prop-fabric", TenantOptions::default()).unwrap();
        let fabric = Evaluator::new(fw.library(), &tech, &f.test, contexts(&f))
            .with_fabric(Arc::new(tenant));
        let mut cache_f = EvalCache::new();
        let (b, fresh_b) = fabric.evaluate_batch(&candidates, &mut cache_f, None).unwrap();

        prop_assert_eq!(fresh_a, fresh_b, "fresh-evaluation counts");
        prop_assert_eq!(cache_o.hits(), cache_f.hits(), "cache hits");
        prop_assert_eq!(cache_o.len(), cache_f.len(), "cache entries");
        assert_points_equal(&a, &b, "overlay vs fabric");

        // A warmed cache answers the repeat batch without fresh work —
        // the cache-hit path must be deterministic in both modes.
        let (a2, fresh_a2) = overlay.evaluate_batch(&candidates, &mut cache_o, None).unwrap();
        let (b2, fresh_b2) = fabric.evaluate_batch(&candidates, &mut cache_f, None).unwrap();
        prop_assert_eq!(fresh_a2, 0, "overlay repeat must be pure hits");
        prop_assert_eq!(fresh_b2, 0, "fabric repeat must be pure hits");
        prop_assert_eq!(cache_o.hits(), cache_f.hits(), "cache hits after repeat");
        assert_points_equal(&a2, &b2, "warmed repeat");
        assert_points_equal(&a, &a2, "overlay run-to-run");

        // `submitted` ticks at enqueue (synchronous with the caller);
        // `completed` ticks after the job closure returns, which can
        // trail the result landing on the evaluator's channel — poll.
        let submitted = engine.tenant_metrics("prop-fabric").expect("tenant registered").submitted;
        prop_assert_eq!(submitted, (fresh_b + fresh_b2) as u64, "tenant job accounting");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let snap = engine.tenant_metrics("prop-fabric").expect("tenant registered");
            if snap.completed == submitted {
                break;
            }
            prop_assert!(
                std::time::Instant::now() < deadline,
                "completed ({}) never reconciled with submitted ({})", snap.completed, submitted
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        engine.shutdown();
    }

    /// The pool size is an operational knob, not a semantic one:
    /// engines with different worker counts answer the same batch
    /// bit-identically.
    #[test]
    fn fabric_results_are_worker_count_invariant(
        seed in any::<u64>(),
        raw in proptest::collection::vec((0.5f64..1.0, -1i64..12), 1..6),
    ) {
        let f = fixture(seed);
        let fw = Framework::new(FrameworkConfig::default());
        let tech = fw.config().tech.clone();
        let candidates = candidates_of(&raw);

        let mut runs = Vec::new();
        for workers in [1usize, 4] {
            let engine = ServeEngine::new(EngineConfig { workers, ..Default::default() });
            let tenant = engine.register_tenant("prop-inv", TenantOptions::default()).unwrap();
            let eval = Evaluator::new(fw.library(), &tech, &f.test, contexts(&f))
                .with_fabric(Arc::new(tenant));
            let (points, _) =
                eval.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
            engine.shutdown();
            runs.push(points);
        }
        assert_points_equal(&runs[0], &runs[1], "1 worker vs 4 workers");
    }
}

/// A tenant budget smaller than the batch's fresh work surfaces as a
/// typed error from `evaluate_batch` — not a hang, not a panic.
#[test]
fn fabric_budget_exhaustion_is_a_typed_study_error() {
    let f = fixture(11);
    let fw = Framework::new(FrameworkConfig::default());
    let tech = fw.config().tech.clone();
    // Four distinct gate sets, budget for one job.
    let candidates = candidates_of(&[(0.6, 1), (0.8, 3), (0.9, 6), (0.95, 9)]);

    let engine = ServeEngine::new(EngineConfig { workers: 2, ..Default::default() });
    let tenant = engine
        .register_tenant("prop-budget", TenantOptions { budget: Some(1), ..Default::default() })
        .unwrap();
    let eval =
        Evaluator::new(fw.library(), &tech, &f.test, contexts(&f)).with_fabric(Arc::new(tenant));
    let err = eval
        .evaluate_batch(&candidates, &mut EvalCache::new(), None)
        .expect_err("budget 1 cannot cover 4 fresh evaluations");
    assert!(
        matches!(err, StudyError::Fabric(FabricError::BudgetExhausted { budget: 1 })),
        "got {err}"
    );
    engine.shutdown();
}

/// Evaluating against a shut-down engine reports `FabricError::Shutdown`
/// through `StudyError` instead of stranding the batch.
#[test]
fn fabric_after_shutdown_is_a_typed_study_error() {
    let f = fixture(12);
    let fw = Framework::new(FrameworkConfig::default());
    let tech = fw.config().tech.clone();
    let candidates = candidates_of(&[(0.8, 3)]);

    let engine = ServeEngine::new(EngineConfig { workers: 1, ..Default::default() });
    let tenant = engine.register_tenant("prop-down", TenantOptions::default()).unwrap();
    let eval =
        Evaluator::new(fw.library(), &tech, &f.test, contexts(&f)).with_fabric(Arc::new(tenant));
    engine.shutdown();
    let err = eval
        .evaluate_batch(&candidates, &mut EvalCache::new(), None)
        .expect_err("a stopped pool must refuse work");
    assert!(matches!(err, StudyError::Fabric(FabricError::Shutdown)), "got {err}");
}

/// A fabric grid runs every candidate through a pooled delta session:
/// lattice-ordered jobs resume folds from the session their neighbour
/// returned, and the results stay bit-identical to in-process.
#[test]
fn fabric_grid_takes_the_delta_path() {
    let f = fixture(13);
    let fw = Framework::new(FrameworkConfig::default());
    let tech = fw.config().tech.clone();
    let grid = enumerate_grid(&f.analysis, &PruneConfig::default());
    let candidates: Vec<Candidate> = grid
        .combos
        .iter()
        .map(|c| Candidate { coeff: CoeffGene::exact(), tau_c: c.tau_c, phi_c: c.phi_c })
        .collect();
    let in_process = Evaluator::new(fw.library(), &tech, &f.test, contexts(&f));
    let (a, _) = in_process.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();

    let engine = ServeEngine::new(EngineConfig { workers: 2, ..Default::default() });
    let tenant = engine.register_tenant("prop-grid", TenantOptions::default()).unwrap();
    let fabric =
        Evaluator::new(fw.library(), &tech, &f.test, contexts(&f)).with_fabric(Arc::new(tenant));
    let (b, fresh) = fabric.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
    engine.shutdown();

    assert_eq!(fresh, grid.n_unique());
    assert!(fresh > 2, "the fixture's grid is too small to chain");
    let stats = fabric.delta_stats();
    assert!(stats.delta_folds > 0, "the fabric grid never resumed a fold: {stats:?}");
    assert_eq!(stats.delta_folds + stats.full_folds, fresh as u64);
    assert_points_equal(&a, &b, "in-process vs fabric grid");
}
