use std::collections::{BTreeMap, HashMap};

use egt_pdk::{Library, TechParams};
use pax_bespoke::try_evaluate_compiled;
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::{NetId, Netlist};
use pax_synth::{area, opt};

use super::{PruneAnalysis, PruneConfig};
use crate::error::StudyError;

/// Content hash of a sorted pruned-gate set (FNV-1a over the net
/// indices, salted with the set length). Buckets the grid dedup map and
/// the exploration engine's evaluation cache; both compare the stored
/// set on a hit.
pub(crate) fn gate_set_hash(set: &[NetId]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (set.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &g in set {
        let mut v = g.index() as u64;
        for _ in 0..8 {
            h ^= v & 0xFF;
            h = h.wrapping_mul(PRIME);
            v >>= 8;
        }
    }
    h
}

/// One explored `(τc, φc)` grid combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCombo {
    /// The τ threshold (fraction, e.g. 0.93).
    pub tau_c: f64,
    /// The φ threshold (score-bit significance; −1 allows only
    /// observation-blind gates).
    pub phi_c: i64,
    /// Index into [`PruneGrid::sets`] of the pruned-gate set this combo
    /// produces.
    pub set: usize,
}

/// The full exploration grid: all combos plus the deduplicated pruned
/// sets they map to.
#[derive(Debug, Clone)]
pub struct PruneGrid {
    /// Every explored `(τc, φc)` pair in exploration order.
    pub combos: Vec<GridCombo>,
    /// Distinct pruned-gate sets (each a sorted gate list).
    pub sets: Vec<Vec<NetId>>,
}

impl PruneGrid {
    /// Number of explored designs (the paper counts combos; > 4300 in
    /// total across its 28 explorations).
    pub fn n_designs(&self) -> usize {
        self.combos.len()
    }

    /// Number of distinct prunings that actually need evaluation.
    pub fn n_unique(&self) -> usize {
        self.sets.len()
    }
}

/// Enumerates the paper's full search: every τc step, and per τc every
/// relevant φc from the qualified gates' distinct φ values.
pub fn enumerate_grid(analysis: &PruneAnalysis, cfg: &PruneConfig) -> PruneGrid {
    let mut combos = Vec::new();
    let mut sets: Vec<Vec<NetId>> = Vec::new();
    // Large grids repeat the same pruning hundreds of times. Sets are
    // bucketed by their 64-bit content hash and a hit compares the
    // stored set, so a hash collision cannot merge two prunings.
    let mut dedup: HashMap<u64, Vec<usize>> = HashMap::new();

    for tau_c in cfg.tau_values() {
        // Φτ: the relevant φc values for this τc — the distinct φ of
        // the gates whose dominant-value fraction meets the threshold
        // (see DESIGN.md on the τ ≥ τc reading).
        let mut phis: Vec<i64> =
            analysis.select(tau_c, i64::MAX).iter().map(|&g| analysis.phi_of(g)).collect();
        phis.sort_unstable();
        phis.dedup();

        for phi_c in phis {
            let set = analysis.select(tau_c, phi_c);
            let bucket = dedup.entry(gate_set_hash(&set)).or_default();
            let idx = match bucket.iter().find(|&&i| sets[i] == set) {
                Some(&i) => i,
                None => {
                    sets.push(set);
                    bucket.push(sets.len() - 1);
                    sets.len() - 1
                }
            };
            combos.push(GridCombo { tau_c, phi_c, set: idx });
        }
    }
    PruneGrid { combos, sets }
}

/// Metrics of one evaluated pruned design.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneEval {
    /// Printed area in mm² after re-synthesis.
    pub area_mm2: f64,
    /// Total power in mW on the test-set activity.
    pub power_mw: f64,
    /// Test-set accuracy.
    pub accuracy: f64,
    /// Remaining gate count.
    pub gate_count: usize,
    /// Critical path in ms.
    pub critical_ms: f64,
    /// Number of gates pruned (before re-synthesis side effects).
    pub n_pruned: usize,
}

/// Applies one pruned set to the base netlist: constants substituted,
/// then constant propagation + dead-cone sweep (paper steps 4–5).
pub fn apply_set(base: &Netlist, analysis: &PruneAnalysis, set: &[NetId]) -> Netlist {
    let subst: BTreeMap<NetId, bool> = set.iter().map(|&g| (g, analysis.dominant(g))).collect();
    opt::apply_constants(base, &subst)
}

/// The rebuild pipeline for one set: prune, re-synthesize, recompile,
/// re-simulate and walk area/power/timing on the rebuilt netlist.
///
/// Production evaluation runs on the overlay
/// ([`OverlayContext::evaluate`](super::OverlayContext::evaluate));
/// this path is kept as the **differential oracle** —
/// `tests/proptest_overlay.rs` pins the overlay bit-for-bit against it
/// on every axis — and as the benchmark baseline
/// ([`Evaluator::evaluate_rebuild`](crate::explore::Evaluator::evaluate_rebuild)).
pub fn try_evaluate_set_rebuild(
    base: &Netlist,
    model: &QuantizedModel,
    test: &Dataset,
    lib: &Library,
    tech: &TechParams,
    analysis: &PruneAnalysis,
    set: &[NetId],
) -> Result<PruneEval, StudyError> {
    let pruned = apply_set(base, analysis, set);
    // Compile the candidate's tape single-threaded: this function runs
    // inside an already-saturated worker pool, so nested
    // word-parallelism would only oversubscribe the cores.
    let tape = pax_sim::CompiledNetlist::compile(&pruned).with_threads(1);
    let outcome = try_evaluate_compiled(&tape, model, test)?;
    let area = area::area_mm2(&pruned, lib)?;
    let power = pax_sim::power::power(&pruned, lib, tech, &outcome.sim.activity)?;
    let timing = pax_sta::analyze(&pruned, lib, tech)?;
    Ok(PruneEval {
        area_mm2: area,
        power_mw: power.total_mw(),
        accuracy: outcome.accuracy,
        gate_count: pruned.gate_count(),
        critical_ms: timing.critical_path_ms,
        n_pruned: set.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::analyze;
    use pax_bespoke::BespokeCircuit;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;

    fn setup() -> (BespokeCircuit, Dataset, Dataset) {
        let data = blobs("b", 300, 3, 3, 0.09, 77);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = pax_ml::train::svm::train_svm_classifier(
            &train,
            &pax_ml::train::svm::SvmParams { epochs: 60, ..Default::default() },
            3,
        );
        let q =
            pax_ml::quant::QuantizedModel::from_linear_classifier("b", &m, QuantSpec::default());
        let c = BespokeCircuit::generate(&q);
        let c = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
        (c, train, test)
    }

    #[test]
    fn grid_enumeration_dedupes_and_orders() {
        let (c, train, _) = setup();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        assert!(grid.n_designs() >= grid.n_unique());
        assert!(grid.n_unique() >= 1);
        for combo in &grid.combos {
            assert!(combo.set < grid.sets.len());
            assert!((0.8..=0.99 + 1e-9).contains(&combo.tau_c));
        }
        // Larger τc prunes fewer gates: for a fixed φc, the set size is
        // monotone non-increasing in τc.
        let mut by_phi: std::collections::HashMap<i64, Vec<(f64, usize)>> = Default::default();
        for combo in &grid.combos {
            by_phi.entry(combo.phi_c).or_default().push((combo.tau_c, grid.sets[combo.set].len()));
        }
        for (_, mut v) in by_phi {
            v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in v.windows(2) {
                assert!(pair[1].1 <= pair[0].1, "τc monotonicity violated");
            }
        }
    }

    #[test]
    fn evaluation_reduces_area_and_bounds_accuracy() {
        let (c, train, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let ctx = crate::prune::OverlayContext::new(
            c.netlist.clone(),
            c.model.clone(),
            std::sync::Arc::new(test),
            &lib,
            tech,
        )
        .unwrap();
        let mut session = ctx.delta_session();
        let evals: Vec<PruneEval> =
            grid.sets.iter().map(|s| ctx.evaluate(&a, s, &mut session).unwrap()).collect();
        assert_eq!(evals.len(), grid.n_unique());
        let base_area = area::area_mm2(&c.netlist, &lib).unwrap();
        for e in &evals {
            assert!(e.area_mm2 <= base_area + 1e-9, "pruning may not add area");
            assert!((0.0..=1.0).contains(&e.accuracy));
        }
        // At least one non-trivial pruning should exist for a circuit of
        // this size.
        assert!(evals.iter().any(|e| e.n_pruned > 0));
    }

    #[test]
    fn pruned_netlists_stay_valid_and_smaller() {
        let (c, train, _) = setup();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let set = grid.sets.iter().max_by_key(|s| s.len()).expect("non-empty grid");
        let pruned = apply_set(&c.netlist, &a, set);
        pax_netlist::validate::assert_valid(&pruned);
        assert!(pruned.gate_count() <= c.netlist.gate_count());
        // Interface is preserved.
        assert_eq!(pruned.input_ports().len(), c.netlist.input_ports().len());
        assert_eq!(pruned.output_ports().len(), c.netlist.output_ports().len());
    }
}
