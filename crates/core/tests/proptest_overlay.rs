//! Differential pinning of overlay evaluation against the rebuild
//! pipeline.
//!
//! Overlay evaluation (`OverlayContext` through a `DeltaSession`:
//! rolling masked simulation + resumed symbolic fold + incremental
//! re-timing) replaces the per-candidate re-synthesize/recompile/
//! re-simulate pipeline everywhere. Its admission ticket is
//! **bit-for-bit equality on every measured axis** — accuracy, area,
//! power, critical-path delay (and gate counts) — against the rebuild
//! pipeline, which is kept as `try_evaluate_set_rebuild` /
//! `Evaluator::evaluate_rebuild` to serve as this suite's oracle.
//!
//! Covered here, on real bespoke circuits (classifier *and* regressor,
//! so both score-decoding paths run):
//!
//! * random `(τc, φc)` candidates on a new session → bit-equal
//!   `PruneEval`s;
//! * one session chained across random candidates and across the whole
//!   grid → bit-equal at every link;
//! * the public `Evaluator` path producing the same `DesignPoint`s as
//!   its rebuild oracle, with and without the coefficient axis;
//! * library gaps surfacing as `StudyError` instead of panicking.
//!
//! Run with a fixed seed (`PAX_PROPTEST_SEED=<n>`) for reproducible
//! case streams — CI pins one in the `overlay-differential` job.

use std::sync::Arc;

use egt_pdk::{Library, TechParams};
use pax_bespoke::BespokeCircuit;
use pax_core::explore::{Candidate, CoeffAxis, CoeffGene, EvalCache, EvalContext, Evaluator};
use pax_core::mult_cache::MultCache;
use pax_core::prune::{
    analyze, enumerate_grid, try_evaluate_set_rebuild, OverlayContext, PruneAnalysis, PruneConfig,
    PruneEval,
};
use pax_core::{DesignPoint, StudyError};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::Dataset;
use proptest::prelude::*;

struct Fixture {
    circuit: BespokeCircuit,
    analysis: PruneAnalysis,
    test: Dataset,
}

fn classifier_fixture(seed: u64) -> Fixture {
    let data = blobs("ovc", 260, 3, 3, 0.09, 40 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        3,
    );
    let q = QuantizedModel::from_linear_classifier("ovc", &m, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let circuit = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    Fixture { circuit, analysis, test }
}

fn regressor_fixture(seed: u64) -> Fixture {
    let data = blobs("ovr", 240, 3, 3, 0.1, 90 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svr::train_svr(
        &train,
        &pax_ml::train::svr::SvrParams { epochs: 60, ..Default::default() },
        7,
    );
    let q = QuantizedModel::from_svr("ovr", &m, train.n_classes, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let circuit = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    Fixture { circuit, analysis, test }
}

fn overlay(f: &Fixture, lib: &Library, tech: &TechParams) -> OverlayContext {
    OverlayContext::new(
        f.circuit.netlist.clone(),
        f.circuit.model.clone(),
        Arc::new(f.test.clone()),
        lib,
        tech.clone(),
    )
    .expect("context over the EGT library")
}

fn rebuild(f: &Fixture, lib: &Library, tech: &TechParams, set: &[pax_netlist::NetId]) -> PruneEval {
    try_evaluate_set_rebuild(
        &f.circuit.netlist,
        &f.circuit.model,
        &f.test,
        lib,
        tech,
        &f.analysis,
        set,
    )
    .expect("rebuild evaluation")
}

fn assert_bit_equal(overlay: &PruneEval, rebuild: &PruneEval, what: &str) {
    assert_eq!(overlay.accuracy.to_bits(), rebuild.accuracy.to_bits(), "{what}: accuracy");
    assert_eq!(overlay.area_mm2.to_bits(), rebuild.area_mm2.to_bits(), "{what}: area");
    assert_eq!(overlay.power_mw.to_bits(), rebuild.power_mw.to_bits(), "{what}: power");
    assert_eq!(overlay.critical_ms.to_bits(), rebuild.critical_ms.to_bits(), "{what}: delay");
    assert_eq!(overlay.gate_count, rebuild.gate_count, "{what}: gate count");
    assert_eq!(overlay.n_pruned, rebuild.n_pruned, "{what}: n_pruned");
}

fn assert_points_equal(a: &[(Candidate, DesignPoint)], b: &[(Candidate, DesignPoint)]) {
    assert_eq!(a.len(), b.len());
    for ((ca, pa), (cb, pb)) in a.iter().zip(b) {
        assert_eq!(ca, cb);
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "{ca:?}: accuracy");
        assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits(), "{ca:?}: area");
        assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits(), "{ca:?}: power");
        assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits(), "{ca:?}: delay");
        assert_eq!(pa.gate_count, pb.gate_count, "{ca:?}: gate count");
    }
}

/// One candidate on a new session (the fresh-evaluation shape) against
/// the rebuild oracle.
fn check_fixture(f: &Fixture, tau_c: f64, phi_c: i64) {
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let set = f.analysis.select(tau_c, phi_c);
    let ctx = overlay(f, &lib, &tech);
    let got = ctx.evaluate(&f.analysis, &set, &mut ctx.delta_session()).expect("overlay");
    assert_bit_equal(
        &got,
        &rebuild(f, &lib, &tech, &set),
        &format!("τc={tau_c} φc={phi_c} |set|={}", set.len()),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Classifier circuits: overlay == rebuild on all four axes, for
    /// random threshold pairs.
    #[test]
    fn classifier_overlay_equals_rebuild(
        seed in any::<u64>(),
        tau_c in 0.5f64..1.0,
        phi_raw in -1i64..12,
    ) {
        let f = classifier_fixture(seed);
        check_fixture(&f, tau_c, phi_raw);
    }

    /// Regressor circuits exercise the `score0` dequantization path.
    #[test]
    fn regressor_overlay_equals_rebuild(
        seed in any::<u64>(),
        tau_c in 0.5f64..1.0,
        phi_raw in -1i64..12,
    ) {
        let f = regressor_fixture(seed);
        check_fixture(&f, tau_c, phi_raw);
    }

    /// One `DeltaSession` reused across a random `(τc, φc)` chain —
    /// neighbour steps and arbitrary jumps alike — must stay bit-equal
    /// to the rebuild oracle at every link. This is the property the
    /// evaluator's pooled sessions rely on.
    #[test]
    fn delta_session_chain_equals_fresh_evaluate(
        seed in any::<u64>(),
        chain in proptest::collection::vec((0.5f64..1.0, -1i64..12), 2..7),
    ) {
        let f = classifier_fixture(seed);
        let lib = egt_pdk::egt_library();
        let tech = TechParams::egt();
        let ctx = overlay(&f, &lib, &tech);
        let mut session = ctx.delta_session();
        for (i, &(tau_c, phi_c)) in chain.iter().enumerate() {
            let set = f.analysis.select(tau_c, phi_c);
            let delta = ctx.evaluate(&f.analysis, &set, &mut session).expect("session evaluation");
            let want = rebuild(&f, &lib, &tech, &set);
            assert_bit_equal(&delta, &want, &format!("chain step {i} |set|={}", set.len()));
        }
    }
}

/// Every distinct set of the paper's grid against the rebuild oracle:
/// through one chained session in grid order, and through the
/// evaluator's pooled sessions at one and at several workers (which
/// session a job draws must not leak into any measured figure).
#[test]
fn grid_sweep_is_thread_invariant_and_bit_identical() {
    let f = classifier_fixture(1);
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let grid = enumerate_grid(&f.analysis, &PruneConfig::default());
    let want: Vec<PruneEval> = grid.sets.iter().map(|s| rebuild(&f, &lib, &tech, s)).collect();
    let ctx = overlay(&f, &lib, &tech);
    let mut session = ctx.delta_session();
    for (s, want) in grid.sets.iter().zip(&want) {
        let got = ctx.evaluate(&f.analysis, s, &mut session).unwrap();
        assert_bit_equal(&got, want, &format!("chain |set|={}", s.len()));
    }
    assert!(ctx.delta_stats().delta_folds > 0, "the grid chain never resumed a fold");

    let candidates: Vec<Candidate> = grid
        .combos
        .iter()
        .map(|c| Candidate { coeff: CoeffGene::exact(), tau_c: c.tau_c, phi_c: c.phi_c })
        .collect();
    for threads in [1usize, 4] {
        let eval = Evaluator::new(
            &lib,
            &tech,
            &f.test,
            vec![EvalContext {
                coeff: CoeffGene::exact(),
                netlist: &f.circuit.netlist,
                model: &f.circuit.model,
                analysis: f.analysis.clone(),
            }],
        )
        .with_threads(threads);
        let (points, fresh) =
            eval.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
        assert_eq!(fresh, grid.n_unique());
        for ((_, p), combo) in points.iter().zip(&grid.combos) {
            let e = &want[combo.set];
            let what = format!("threads={threads} τc={} φc={}", combo.tau_c, combo.phi_c);
            assert_eq!(p.accuracy.to_bits(), e.accuracy.to_bits(), "{what}: accuracy");
            assert_eq!(p.area_mm2.to_bits(), e.area_mm2.to_bits(), "{what}: area");
            assert_eq!(p.power_mw.to_bits(), e.power_mw.to_bits(), "{what}: power");
            assert_eq!(p.critical_ms.to_bits(), e.critical_ms.to_bits(), "{what}: delay");
            assert_eq!(p.gate_count, e.gate_count, "{what}: gate count");
        }
    }
}

/// The public engine path: `Evaluator::evaluate_batch` (pooled
/// sessions over scoped workers) produces `DesignPoint`s identical to
/// its rebuild oracle, at one and at several workers.
#[test]
fn evaluator_modes_agree_bit_for_bit() {
    let f = classifier_fixture(2);
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let contexts = || {
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &f.circuit.netlist,
            model: &f.circuit.model,
            analysis: f.analysis.clone(),
        }]
    };
    let candidates: Vec<Candidate> = [(0.8, 3), (0.9, 0), (0.95, -1), (0.99, 8), (0.85, 5)]
        .iter()
        .map(|&(tau_c, phi_c)| Candidate { coeff: CoeffGene::exact(), tau_c, phi_c })
        .collect();
    let oracle =
        Evaluator::new(&lib, &tech, &f.test, contexts()).evaluate_rebuild(&candidates).unwrap();
    for threads in [1, 3] {
        let eval = Evaluator::new(&lib, &tech, &f.test, contexts()).with_threads(threads);
        let (got, _) = eval.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
        assert_points_equal(&got, &oracle);
    }
}

/// Library gaps surface from grid evaluation as `StudyError` instead
/// of panicking mid-pool — from the production path and the oracle
/// alike.
#[test]
fn grid_evaluation_surfaces_library_errors() {
    let f = classifier_fixture(3);
    let empty = Library::new("empty", 1.0);
    let tech = TechParams::egt();
    let grid = enumerate_grid(&f.analysis, &PruneConfig::default());
    let candidates: Vec<Candidate> = grid
        .combos
        .iter()
        .map(|c| Candidate { coeff: CoeffGene::exact(), tau_c: c.tau_c, phi_c: c.phi_c })
        .collect();
    let eval = Evaluator::new(
        &empty,
        &tech,
        &f.test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &f.circuit.netlist,
            model: &f.circuit.model,
            analysis: f.analysis.clone(),
        }],
    );
    let err = eval
        .evaluate_batch(&candidates, &mut EvalCache::new(), None)
        .expect_err("empty library must fail, not panic");
    assert!(matches!(err, StudyError::Library(_)), "got {err}");
    let err = eval.evaluate_rebuild(&candidates).expect_err("the oracle fails too");
    assert!(matches!(err, StudyError::Library(_)), "got {err}");
}

/// A training-set-carrying fixture for the coefficient-axis
/// differential: the axis materializes per-gene base circuits itself,
/// so it needs the train split the given context was analyzed with.
struct AxisFixture {
    model: QuantizedModel,
    netlist: pax_netlist::Netlist,
    analysis: PruneAnalysis,
    train: Dataset,
    test: Dataset,
}

fn axis_fixture(seed: u64) -> AxisFixture {
    let data = blobs("ovx", 240, 3, 3, 0.09, 40 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        3,
    );
    let model = QuantizedModel::from_linear_classifier("ovx", &m, QuantSpec::default());
    let netlist = pax_synth::opt::optimize(&BespokeCircuit::generate(&model).netlist);
    let analysis = analyze(&netlist, &model, &train);
    AxisFixture { model, netlist, analysis, train, test }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The graded coefficient axis: an evaluator whose space holds the
    /// exact base plus lazily-materialized per-gene contexts must
    /// return the same `DesignPoint`s as its rebuild oracle for
    /// candidates on *every* gene — the stacked coeff+prune admission
    /// ticket on all four measured axes.
    #[test]
    fn coeff_axis_overlay_equals_rebuild(
        seed in any::<u64>(),
        tau_c in 0.5f64..1.0,
        phi_raw in -1i64..12,
    ) {
        let f = axis_fixture(seed);
        let lib = egt_pdk::egt_library();
        let tech = TechParams::egt();
        let cache = MultCache::new(lib.clone());
        cache.build_range(f.model.spec.input_bits, f.model.spec.coef_bits);
        let contexts = || {
            vec![EvalContext {
                coeff: CoeffGene::exact(),
                netlist: &f.netlist,
                model: &f.model,
                analysis: f.analysis.clone(),
            }]
        };
        let axis = || CoeffAxis {
            model: &f.model,
            train: &f.train,
            cache: &cache,
            levels: vec![2, 4],
        };
        let eval = Evaluator::new(&lib, &tech, &f.test, contexts()).with_coeff_axis(axis());
        // One candidate per gene: exact plus both graded levels.
        let candidates: Vec<Candidate> = eval
            .genes()
            .into_iter()
            .map(|coeff| Candidate { coeff, tau_c, phi_c: phi_raw })
            .collect();
        prop_assert!(candidates.len() >= 3, "axis must open graded contexts");
        let (a, fresh) = eval.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
        // A second evaluator keeps the oracle clear of any state the
        // production path built.
        let b = Evaluator::new(&lib, &tech, &f.test, contexts())
            .with_coeff_axis(axis())
            .evaluate_rebuild(&candidates)
            .unwrap();
        prop_assert_eq!(fresh, candidates.len());
        prop_assert_eq!(a.len(), b.len());
        for ((ca, pa), (cb, pb)) in a.iter().zip(&b) {
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits());
            prop_assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits());
            prop_assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits());
            prop_assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits());
            prop_assert_eq!(pa.gate_count, pb.gate_count);
        }
    }
}
