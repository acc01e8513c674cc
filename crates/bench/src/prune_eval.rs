//! Candidate-evaluation throughput study: rebuild pipeline versus
//! overlay evaluation (`BENCH_prune_eval.json`).
//!
//! The production side drives the exploration engine on each circuit
//! — first the paper-faithful exhaustive `(τc, φc)` grid, then a
//! budgeted NSGA-II pass — evaluating candidates as prune masks on the
//! shared compiled tape through pooled delta sessions. The baseline
//! side re-measures the very designs that run evaluated with the
//! rebuild oracle ([`Evaluator::evaluate_rebuild`]): re-synthesize,
//! recompile and re-simulate every candidate. Both sides run on one
//! thread, so the ratio is per-core throughput. The study verifies the
//! two returned **bit-identical** design points before reporting any
//! speedup; because they do, the NSGA-II pass selects the same genomes
//! either way.
//!
//! Acceptance bar (recorded in the JSON): overlay reaches ≥ 3× the
//! rebuild pipeline's candidate-evaluation throughput on the paper's
//! exhaustive grid sweep of the cardio svm-r circuit.

use std::fmt::Write as _;
use std::time::Instant;

use pax_core::explore::{
    Candidate, CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config,
    SearchOutcome,
};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::prune::PruneAnalysis;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::Netlist;

use crate::catalog::{train_entry, DatasetId, Entry};
use crate::paired::{bit_identical, distinct};
use crate::table1::tech_for;

/// One circuit's rebuild-vs-overlay measurement.
#[derive(Debug)]
pub struct PruneEvalRow {
    /// Circuit label (`cardio svm-r`, …).
    pub circuit: String,
    /// Distinct prunings the exhaustive grid evaluated.
    pub grid_candidates: usize,
    /// Grid sweep wall-clock, rebuild pipeline, in ms.
    pub grid_rebuild_ms: f64,
    /// Grid sweep wall-clock, overlay evaluation, in ms.
    pub grid_overlay_ms: f64,
    /// Fresh evaluations the NSGA-II pass spent.
    pub nsga_candidates: usize,
    /// NSGA-II wall-clock, rebuild pipeline, in ms.
    pub nsga_rebuild_ms: f64,
    /// NSGA-II wall-clock, overlay evaluation, in ms.
    pub nsga_overlay_ms: f64,
    /// Whether both sides returned bit-identical design points on both
    /// studies (speedups are meaningless otherwise).
    pub identical: bool,
}

impl PruneEvalRow {
    /// Grid candidate-evaluation throughput ratio (overlay ÷ rebuild).
    pub fn grid_speedup(&self) -> f64 {
        self.grid_rebuild_ms / self.grid_overlay_ms.max(1e-9)
    }

    /// NSGA-II candidate-evaluation throughput ratio.
    pub fn nsga_speedup(&self) -> f64 {
        self.nsga_rebuild_ms / self.nsga_overlay_ms.max(1e-9)
    }

    /// Grid candidates per second, rebuild pipeline.
    pub fn grid_rebuild_cps(&self) -> f64 {
        self.grid_candidates as f64 / (self.grid_rebuild_ms / 1e3).max(1e-9)
    }

    /// Grid candidates per second, overlay evaluation.
    pub fn grid_overlay_cps(&self) -> f64 {
        self.grid_candidates as f64 / (self.grid_overlay_ms / 1e3).max(1e-9)
    }
}

/// Timing repetitions per measurement; the minimum wall-clock is
/// reported (standard best-of-N to shed scheduler noise — both sides
/// get the same treatment).
const REPEATS: usize = 3;

/// One study's measurement on both sides.
struct Timed {
    candidates: usize,
    overlay_ms: f64,
    rebuild_ms: f64,
    identical: bool,
    outcome: SearchOutcome,
}

fn evaluator<'a>(
    entry: &'a Entry,
    base: &'a Netlist,
    analysis: &PruneAnalysis,
    fw: &'a Framework,
) -> Evaluator<'a> {
    Evaluator::new(
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
    .with_threads(1)
}

/// Times one engine-driven study (grid or NSGA-II): the production
/// run — evaluator construction plus the full ask/evaluate/tell loop,
/// on a fresh evaluator and cold engine per repetition — and then the
/// rebuild oracle over the distinct designs that run evaluated.
fn timed_run(
    entry: &Entry,
    base: &Netlist,
    analysis: &PruneAnalysis,
    fw: &Framework,
    nsga: Option<&Nsga2Config>,
) -> Timed {
    let mut best: Option<(SearchOutcome, f64)> = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let evaluator = evaluator(entry, base, analysis, fw);
        let mut engine = Engine::new(&evaluator, &fw.config().prune);
        let outcome = match nsga {
            None => engine.run(&mut ExhaustiveGrid::new()),
            Some(cfg) => engine.run(&mut Nsga2::new(cfg.clone())),
        }
        .expect("study evaluation");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((outcome, ms));
        }
    }
    let (outcome, overlay_ms) = best.expect("at least one repetition");

    let oracle = evaluator(entry, base, analysis, fw);
    let designs = distinct(&oracle, &outcome.points);
    let genomes: Vec<Candidate> = designs.iter().map(|(c, _)| *c).collect();
    let mut rebuild_ms = f64::INFINITY;
    let mut rebuilt = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        rebuilt = oracle.evaluate_rebuild(&genomes).expect("rebuild evaluation");
        rebuild_ms = rebuild_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    Timed {
        candidates: designs.len(),
        overlay_ms,
        rebuild_ms,
        identical: bit_identical(&designs, &rebuilt),
        outcome,
    }
}

/// Runs the comparison on one catalog entry.
pub fn run_entry(entry: &Entry, seed: u64) -> PruneEvalRow {
    let cfg = FrameworkConfig { tech: tech_for(entry.dataset, entry.kind), ..Default::default() };
    let fw = Framework::new(cfg);
    let base =
        pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
    let analysis = pax_core::prune::analyze(&base, &entry.model, &entry.train);

    let grid = timed_run(entry, &base, &analysis, &fw, None);
    // A budgeted evolutionary pass (fixed seed).
    let budget = (grid.outcome.stats.evaluated / 4).max(8);
    let nsga = Nsga2Config {
        population: (budget / 3).clamp(6, 16),
        generations: 64,
        max_evals: budget,
        seed,
        ..Default::default()
    };
    let nsga = timed_run(entry, &base, &analysis, &fw, Some(&nsga));

    PruneEvalRow {
        circuit: entry.label(),
        grid_candidates: grid.candidates,
        grid_rebuild_ms: grid.rebuild_ms,
        grid_overlay_ms: grid.overlay_ms,
        nsga_candidates: nsga.candidates,
        nsga_rebuild_ms: nsga.rebuild_ms,
        nsga_overlay_ms: nsga.overlay_ms,
        identical: grid.identical && nsga.identical,
    }
}

/// The study's circuit selection: the paper's grid-sweep headline
/// (cardio svm-r, the acceptance row) plus a second family for breadth.
pub fn default_entries(cfg: &SynthConfig) -> Vec<Entry> {
    vec![
        train_entry(DatasetId::Cardio, ModelKind::SvmR, cfg),
        train_entry(DatasetId::RedWine, ModelKind::SvmC, cfg),
    ]
}

/// Runs the full study over the default circuits.
pub fn run(cfg: &SynthConfig, seed: u64) -> Vec<PruneEvalRow> {
    default_entries(cfg).iter().map(|e| run_entry(e, seed)).collect()
}

/// Markdown rendering of the comparison.
pub fn render(rows: &[PruneEvalRow]) -> String {
    let mut out = String::from(
        "| Circuit | Grid cands | Rebuild ms | Overlay ms | Speedup | Rebuild c/s | Overlay c/s | NSGA speedup | Identical |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.0} | {:.0} | {:.2}× | {:.0} | {:.0} | {:.2}× | {} |",
            r.circuit,
            r.grid_candidates,
            r.grid_rebuild_ms,
            r.grid_overlay_ms,
            r.grid_speedup(),
            r.grid_rebuild_cps(),
            r.grid_overlay_cps(),
            r.nsga_speedup(),
            if r.identical { "yes" } else { "NO" },
        );
    }
    out
}

/// JSON rendering (the `BENCH_prune_eval.json` payload).
pub fn to_json(rows: &[PruneEvalRow], cfg: &SynthConfig, seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"rebuild vs overlay candidate evaluation, one thread each (cargo run -p pax-bench --release --bin paper -- prune_eval)\",\n",
    );
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"synth_config\": {{ \"seed\": {}, \"size_factor\": {} }},",
        cfg.seed, cfg.size_factor
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"circuit\": \"{}\", \"grid_candidates\": {}, \"grid_rebuild_ms\": {:.1}, \"grid_overlay_ms\": {:.1}, \"grid_speedup\": {:.3}, \"grid_rebuild_cps\": {:.1}, \"grid_overlay_cps\": {:.1}, \"nsga_candidates\": {}, \"nsga_rebuild_ms\": {:.1}, \"nsga_overlay_ms\": {:.1}, \"nsga_speedup\": {:.3}, \"identical\": {} }}{}",
            r.circuit,
            r.grid_candidates,
            r.grid_rebuild_ms,
            r.grid_overlay_ms,
            r.grid_speedup(),
            r.grid_rebuild_cps(),
            r.grid_overlay_cps(),
            r.nsga_candidates,
            r.nsga_rebuild_ms,
            r.nsga_overlay_ms,
            r.nsga_speedup(),
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    let acceptance_row = rows.iter().find(|r| r.circuit.contains("cardio"));
    let pass = acceptance_row.is_some_and(|r| r.identical && r.grid_speedup() >= 3.0);
    out.push_str("  \"acceptance\": {\n");
    out.push_str(
        "    \"bar\": \"overlay >= 3x rebuild candidate-evaluation throughput on the cardio svm-r exhaustive grid, with bit-identical results\",\n",
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
        let row = run_entry(&entry, 11);
        assert!(row.grid_candidates > 0);
        assert!(row.identical, "overlay and rebuild diverged");
        assert!(row.nsga_candidates > 0);
        assert!(row.grid_rebuild_ms > 0.0 && row.grid_overlay_ms > 0.0);
        let md = render(std::slice::from_ref(&row));
        assert!(md.contains("redwine"));
        let json = to_json(&[row], &cfg, 11);
        assert!(json.contains("\"acceptance\""));
        assert!(json.ends_with("}\n"));
    }
}
