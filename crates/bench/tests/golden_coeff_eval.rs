//! Golden pin of one cardio svm-r design point on the *joint*
//! coefficient × pruning grid under stacked-overlay evaluation.
//!
//! The differential property suite (`pax-core`'s
//! `coeff_axis_overlay_equals_rebuild`) establishes overlay == rebuild
//! on random candidates across the graded coefficient axis; this test
//! nails one *fixed* paper-catalog design point — the most aggressive
//! gated pruning of the deepest coefficient gene — to exact bit
//! patterns, so a regression in either pipeline, in the graded
//! approximation, or in anything upstream that is supposed to be
//! deterministic (training, quantization, bespoke synthesis,
//! simulation) trips immediately and visibly.
//!
//! The pinned values were produced by this very flow when the graded
//! axis landed; overlay and rebuild agreed bit-for-bit then, and both
//! are asserted against the same constants now.

use egt_pdk::TechParams;
use pax_bench::catalog::{train_entry, DatasetId, Entry};
use pax_core::explore::{
    Candidate, CoeffAxis, CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid,
};
use pax_core::mult_cache::MultCache;
use pax_core::prune::{analyze, PruneConfig};
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::Netlist;

/// The graded widths pinned here (gene level k → `LEVELS[k - 1]`).
const LEVELS: [i64; 2] = [2, 4];

fn joint_evaluator<'a>(
    entry: &'a Entry,
    base: &'a Netlist,
    cache: &'a MultCache,
    tech: &'a TechParams,
) -> Evaluator<'a> {
    let analysis = analyze(base, &entry.model, &entry.train);
    Evaluator::new(
        cache.library(),
        tech,
        &entry.test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: base,
            model: &entry.model,
            analysis,
        }],
    )
    .with_coeff_axis(CoeffAxis {
        model: &entry.model,
        train: &entry.train,
        cache,
        levels: LEVELS.to_vec(),
    })
}

#[test]
fn cardio_svm_r_joint_design_point_is_pinned() {
    let cfg = SynthConfig::small();
    let entry = train_entry(DatasetId::Cardio, ModelKind::SvmR, &cfg);
    let base =
        pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
    let cache = MultCache::new(egt_pdk::egt_library());
    let tech = TechParams::egt();

    let overlay =
        Engine::new(&joint_evaluator(&entry, &base, &cache, &tech), &PruneConfig::default())
            .run(&mut ExhaustiveGrid::new())
            .expect("joint grid evaluation");
    // The rebuild oracle on a second evaluator, over the same genomes.
    let genomes: Vec<Candidate> = overlay.points.iter().map(|(c, _)| *c).collect();
    let rebuild = joint_evaluator(&entry, &base, &cache, &tech)
        .evaluate_rebuild(&genomes)
        .expect("joint grid rebuild");

    // Stacked overlay and rebuild agree bitwise on every axis of every
    // joint-grid point…
    assert_eq!(overlay.points.len(), rebuild.len());
    for ((ca, pa), (cb, pb)) in overlay.points.iter().zip(&rebuild) {
        assert_eq!(ca, cb);
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "accuracy diverged at {ca:?}");
        assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits(), "area diverged at {ca:?}");
        assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits(), "power diverged at {ca:?}");
        assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits(), "delay diverged at {ca:?}");
        assert_eq!(pa.gate_count, pb.gate_count, "gate count diverged at {ca:?}");
    }

    // …and one fully deterministic pick — the most aggressive gated
    // pruning of the deepest gene (grid enumeration is seeded end to
    // end) — matches the recorded golden values.
    let deepest = overlay.points.iter().map(|(c, _)| c.coeff).max().expect("non-empty grid");
    assert!(!deepest.is_exact(), "the joint grid must reach a graded gene");
    let (cand, point) = overlay
        .points
        .iter()
        .filter(|(c, _)| c.coeff == deepest && c.phi_c >= 0)
        .max_by_key(|(c, _)| (c.phi_c, c.tau_c.to_bits()))
        .expect("a gated point on the deepest gene");

    let golden = std::env::var("PAX_PRINT_GOLDEN").is_ok();
    if golden {
        eprintln!(
            "GOLDEN points={} gene={} phi={} tau={:#x} gate_count={} accuracy={:#x} area={:#x} power={:#x} delay={:#x}",
            overlay.points.len(),
            deepest,
            cand.phi_c,
            cand.tau_c.to_bits(),
            point.gate_count,
            point.accuracy.to_bits(),
            point.area_mm2.to_bits(),
            point.power_mw.to_bits(),
            point.critical_ms.to_bits(),
        );
        return;
    }
    assert_eq!(overlay.points.len(), GOLDEN_POINTS);
    assert_eq!(cand.phi_c, GOLDEN_PHI);
    assert_eq!(cand.tau_c.to_bits(), GOLDEN_TAU_BITS);
    assert_eq!(point.gate_count, GOLDEN_GATE_COUNT);
    assert_eq!(point.accuracy.to_bits(), GOLDEN_ACCURACY_BITS);
    assert_eq!(point.area_mm2.to_bits(), GOLDEN_AREA_BITS);
    assert_eq!(point.power_mw.to_bits(), GOLDEN_POWER_BITS);
    assert_eq!(point.critical_ms.to_bits(), GOLDEN_DELAY_BITS);
}

// Regenerate with:
//   PAX_PRINT_GOLDEN=1 cargo test -p pax-bench --test golden_coeff_eval -- --nocapture
const GOLDEN_POINTS: usize = 60;
const GOLDEN_PHI: i64 = 14;
const GOLDEN_TAU_BITS: u64 = 0x3fefae147ae147ae; // τc ≈ 0.99
const GOLDEN_GATE_COUNT: usize = 761;
const GOLDEN_ACCURACY_BITS: u64 = 0x3fe9f656f1826a44; // ≈ 0.8113
const GOLDEN_AREA_BITS: u64 = 0x407b4e6666666676; // ≈ 436.90 mm²
const GOLDEN_POWER_BITS: u64 = 0x402fcb1e31c8a204; // ≈ 15.90 mW
const GOLDEN_DELAY_BITS: u64 = 0x403b0cccccccccd2; // ≈ 27.05 ms
