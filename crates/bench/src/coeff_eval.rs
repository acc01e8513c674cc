//! Stacked coefficient+pruning evaluation throughput study
//! (`BENCH_coeff_eval.json`).
//!
//! The graded coefficient axis ([`Evaluator::with_coeff_axis`]) opens
//! per-gene base circuits next to the exact baseline; candidates then
//! stack a pruning mask on whichever base their gene selects. This
//! study drives the *same* joint exhaustive grid in both
//! [`EvalMode`]s: `Rebuild` re-synthesizes, recompiles and
//! re-simulates every candidate (the differential oracle), `Overlay`
//! evaluates candidates as prune masks on each gene's shared compiled
//! tape. Lazy context materialization (per-gene approximation +
//! synthesis + τ/φ analysis) is byte-for-byte identical work in both
//! modes and happens once per joint study, so it is warmed *outside*
//! the timed region (its cost is recorded separately per row); the
//! timed region is the full ask/evaluate/tell loop, i.e. the
//! candidate-evaluation throughput the two modes actually differ on.
//!
//! Acceptance bar (recorded in the JSON): on the cardio svm-r joint
//! grid, the stacked overlay returns **bit-identical** design points
//! to the rebuild pipeline on all four measured axes and reaches at
//! least 2× its candidate-evaluation throughput.

use std::fmt::Write as _;
use std::time::Instant;

use pax_core::explore::{
    Candidate, CoeffAxis, CoeffGene, Engine, EvalCache, EvalContext, EvalMode, Evaluator,
    ExhaustiveGrid, SearchOutcome,
};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::prune::PruneAnalysis;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::Netlist;

use crate::catalog::{train_entry, DatasetId, Entry};
use crate::table1::tech_for;

/// The graded widths the study's coefficient axis opens (gene level
/// `k` → `LEVELS[k - 1]`; level 0 is always exact).
pub const LEVELS: [i64; 2] = [2, 4];

/// One circuit's stacked coeff+prune rebuild-vs-overlay measurement.
#[derive(Debug)]
pub struct CoeffEvalRow {
    /// Circuit label (`cardio svm-r`, …).
    pub circuit: String,
    /// Coefficient genes in the joint space (exact + graded levels).
    pub genes: usize,
    /// Distinct candidates the joint exhaustive grid evaluated (per
    /// mode).
    pub candidates: usize,
    /// One-time per-gene base materialization (approximation +
    /// synthesis + τ/φ analysis), identical in both modes, in ms.
    pub materialize_ms: f64,
    /// Joint grid wall-clock, rebuild pipeline, in ms.
    pub rebuild_ms: f64,
    /// Joint grid wall-clock, stacked overlay, in ms.
    pub overlay_ms: f64,
    /// Whether both modes returned bit-identical design points
    /// (speedups are meaningless otherwise).
    pub identical: bool,
}

impl CoeffEvalRow {
    /// Candidate-evaluation throughput ratio (overlay ÷ rebuild).
    pub fn speedup(&self) -> f64 {
        self.rebuild_ms / self.overlay_ms.max(1e-9)
    }

    /// Candidates per second, rebuild pipeline.
    pub fn rebuild_cps(&self) -> f64 {
        self.candidates as f64 / (self.rebuild_ms / 1e3).max(1e-9)
    }

    /// Candidates per second, stacked overlay.
    pub fn overlay_cps(&self) -> f64 {
        self.candidates as f64 / (self.overlay_ms / 1e3).max(1e-9)
    }
}

/// Timing repetitions per measurement; the minimum wall-clock is
/// reported (standard best-of-N to shed scheduler noise — both modes
/// get the same treatment).
const REPEATS: usize = 3;

/// Runs the joint exhaustive grid in the given mode, timing the full
/// ask/evaluate/tell loop on a cold engine. The evaluator is built —
/// and every gene's base circuit materialized — *before* the clock
/// starts: that work is identical in both modes, so keeping it out of
/// the timed region isolates the per-candidate cost the modes differ
/// on. Returns the outcome, the best-of-N loop wall-clock, the
/// one-time materialization wall-clock and the gene count.
fn timed_run(
    entry: &Entry,
    base: &Netlist,
    analysis: &PruneAnalysis,
    fw: &Framework,
    mode: EvalMode,
) -> (SearchOutcome, f64, f64, usize) {
    let evaluator = Evaluator::new(
        fw.library(),
        &fw.config().tech,
        &entry.test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: base,
            model: &entry.model,
            analysis: analysis.clone(),
        }],
    )
    .with_coeff_axis(CoeffAxis {
        model: &entry.model,
        train: &entry.train,
        cache: fw.cache(),
        levels: LEVELS.to_vec(),
    })
    .with_mode(mode);
    let genes: Vec<CoeffGene> = evaluator.genes().to_vec();

    // Force every lazy context to materialize by evaluating one
    // ungated probe per gene (throwaway cache — nothing leaks into
    // the timed runs).
    let t = Instant::now();
    let probes: Vec<Candidate> =
        genes.iter().map(|&g| Candidate { coeff: g, tau_c: 1.0, phi_c: -1 }).collect();
    evaluator.evaluate_batch(&probes, &mut EvalCache::new(), None).expect("materialization probes");
    let materialize_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut best: Option<(SearchOutcome, f64)> = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let mut engine = Engine::new(&evaluator, &fw.config().prune);
        let outcome = engine.run(&mut ExhaustiveGrid::new()).expect("joint grid evaluation");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((outcome, ms));
        }
    }
    let (outcome, ms) = best.expect("at least one repetition");
    (outcome, ms, materialize_ms, genes.len())
}

/// Whether two outcomes carry bit-identical design points in the same
/// order.
fn bit_identical(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|((ca, pa), (cb, pb))| {
            ca == cb
                && pa.accuracy.to_bits() == pb.accuracy.to_bits()
                && pa.area_mm2.to_bits() == pb.area_mm2.to_bits()
                && pa.power_mw.to_bits() == pb.power_mw.to_bits()
                && pa.critical_ms.to_bits() == pb.critical_ms.to_bits()
                && pa.gate_count == pb.gate_count
        })
}

/// Runs the comparison on one catalog entry.
pub fn run_entry(entry: &Entry) -> CoeffEvalRow {
    let cfg = FrameworkConfig { tech: tech_for(entry.dataset, entry.kind), ..Default::default() };
    let fw = Framework::new(cfg);
    let base =
        pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
    let analysis = pax_core::prune::analyze(&base, &entry.model, &entry.train);

    let (rebuild, rebuild_ms, materialize_ms, genes) =
        timed_run(entry, &base, &analysis, &fw, EvalMode::Rebuild);
    let (overlay, overlay_ms, _, _) = timed_run(entry, &base, &analysis, &fw, EvalMode::Overlay);

    CoeffEvalRow {
        circuit: entry.label(),
        genes,
        candidates: rebuild.stats.evaluated,
        materialize_ms,
        rebuild_ms,
        overlay_ms,
        identical: bit_identical(&rebuild, &overlay),
    }
}

/// The study's circuit selection: the acceptance row (cardio svm-r)
/// plus a second family for breadth.
pub fn default_entries(cfg: &SynthConfig) -> Vec<Entry> {
    vec![
        train_entry(DatasetId::Cardio, ModelKind::SvmR, cfg),
        train_entry(DatasetId::RedWine, ModelKind::SvmC, cfg),
    ]
}

/// Runs the full study over the default circuits.
pub fn run(cfg: &SynthConfig) -> Vec<CoeffEvalRow> {
    default_entries(cfg).iter().map(run_entry).collect()
}

/// Markdown rendering of the comparison.
pub fn render(rows: &[CoeffEvalRow]) -> String {
    let mut out = String::from(
        "| Circuit | Genes | Candidates | Materialize ms | Rebuild ms | Overlay ms | Speedup | Rebuild c/s | Overlay c/s | Identical |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {:.0} | {:.0} | {:.2}× | {:.0} | {:.0} | {} |",
            r.circuit,
            r.genes,
            r.candidates,
            r.materialize_ms,
            r.rebuild_ms,
            r.overlay_ms,
            r.speedup(),
            r.rebuild_cps(),
            r.overlay_cps(),
            if r.identical { "yes" } else { "NO" },
        );
    }
    out
}

/// JSON rendering (the `BENCH_coeff_eval.json` payload).
pub fn to_json(rows: &[CoeffEvalRow], cfg: &SynthConfig) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"stacked coeff+prune overlay vs rebuild (cargo run -p pax-bench --release --bin paper -- coeff_eval)\",\n",
    );
    let _ = writeln!(out, "  \"levels\": [{}],", LEVELS.map(|e| e.to_string()).join(", "));
    let _ = writeln!(
        out,
        "  \"synth_config\": {{ \"seed\": {}, \"size_factor\": {} }},",
        cfg.seed, cfg.size_factor
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"circuit\": \"{}\", \"genes\": {}, \"candidates\": {}, \"materialize_ms\": {:.1}, \"rebuild_ms\": {:.1}, \"overlay_ms\": {:.1}, \"speedup\": {:.3}, \"rebuild_cps\": {:.1}, \"overlay_cps\": {:.1}, \"identical\": {} }}{}",
            r.circuit,
            r.genes,
            r.candidates,
            r.materialize_ms,
            r.rebuild_ms,
            r.overlay_ms,
            r.speedup(),
            r.rebuild_cps(),
            r.overlay_cps(),
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    let acceptance_row = rows.iter().find(|r| r.circuit.contains("cardio"));
    let pass = acceptance_row.is_some_and(|r| r.identical && r.speedup() >= 2.0);
    out.push_str("  \"acceptance\": {\n");
    out.push_str(
        "    \"bar\": \"stacked coeff+prune overlay bit-identical to rebuild on the cardio svm-r joint grid, at >= 2x candidate-evaluation throughput\",\n",
    );
    let _ = writeln!(out, "    \"pass\": {pass}");
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_modes_agree() {
        let cfg = SynthConfig { size_factor: 0.12, ..SynthConfig::small() };
        let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let row = run_entry(&entry);
        assert_eq!(row.genes, 3, "exact + two graded levels on a one-layer model");
        assert!(row.candidates > 0);
        assert!(row.identical, "stacked overlay and rebuild diverged");
        assert!(row.rebuild_ms > 0.0 && row.overlay_ms > 0.0);
        let md = render(std::slice::from_ref(&row));
        assert!(md.contains("redwine"));
        let json = to_json(&[row], &cfg);
        assert!(json.contains("\"acceptance\""));
        assert!(json.ends_with("}\n"));
    }
}
