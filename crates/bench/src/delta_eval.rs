//! Steady-state candidate-evaluation throughput: one chained delta
//! session versus a new session per candidate
//! (`BENCH_delta_eval.json`).
//!
//! Both sides evaluate every distinct gate set of the paper's
//! exhaustive `(τc, φc)` grid, in lattice order, on one prebuilt
//! [`OverlayContext`] (shared compiled tape and base trace), repeated
//! for several sweeps so the measurement is the per-candidate steady
//! state rather than context construction. The chained side threads
//! one [`DeltaSession`](pax_core::prune::DeltaSession) through every
//! candidate, so each fold resumes from its neighbour's replay and the
//! simulation re-executes only the changed cone; the fresh side gives
//! every candidate a new session — a from-scratch fold and a full-cone
//! simulation. The study verifies the two returned **bit-identical**
//! evaluations (accuracy/area/power/delay and gate counts, set by set)
//! before reporting any speedup.
//!
//! Timing runs in [`PAIRS`] pairs that alternate which side goes
//! first; the verdict reads the median per-pair speedup, and the JSON
//! records its interquartile range next to it.
//!
//! Acceptance bar (recorded in the JSON): the chained session reaches
//! ≥ 1.5× the fresh sessions' grid-sweep throughput on the cardio
//! svm-r circuit.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::prune::{
    analyze, enumerate_grid, DeltaFoldStats, OverlayContext, PruneAnalysis, PruneEval,
};
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::NetId;

use crate::catalog::{train_entry, DatasetId, Entry};
use crate::paired::Paired;
use crate::table1::tech_for;

/// One circuit's chained-vs-fresh measurement.
#[derive(Debug)]
pub struct DeltaEvalRow {
    /// Circuit label (`cardio svm-r`, …).
    pub circuit: String,
    /// Distinct prunings per sweep (the paper's exhaustive grid).
    pub grid_candidates: usize,
    /// Grid sweeps per timed run.
    pub sweeps: usize,
    /// Median wall-clock of the timed sweeps, new session per
    /// candidate, in ms.
    pub baseline_ms: f64,
    /// Median wall-clock of the timed sweeps, one chained session, in
    /// ms.
    pub delta_ms: f64,
    /// Median per-pair throughput ratio (chained ÷ fresh).
    pub speedup: f64,
    /// Interquartile range of the per-pair ratio.
    pub speedup_iqr: f64,
    /// Delta-fold counters of the chained side's timed sweeps.
    pub stats: DeltaFoldStats,
    /// Whether both sides returned bit-identical evaluations for every
    /// set (speedups are meaningless otherwise).
    pub identical: bool,
}

impl DeltaEvalRow {
    /// Candidates per second, new session per candidate (median run).
    pub fn baseline_cps(&self) -> f64 {
        (self.grid_candidates * self.sweeps) as f64 / (self.baseline_ms / 1e3).max(1e-9)
    }

    /// Candidates per second, one chained session (median run).
    pub fn delta_cps(&self) -> f64 {
        (self.grid_candidates * self.sweeps) as f64 / (self.delta_ms / 1e3).max(1e-9)
    }
}

/// Timed pairs per measurement.
pub const PAIRS: usize = 5;

/// Grid sweeps per timed run, so the figure is per-candidate
/// evaluation cost rather than session setup.
const SWEEPS: usize = 8;

/// [`SWEEPS`] sweeps over `sets`, through one session (`chained`) or a
/// new session per candidate; returns the last sweep's evaluations.
fn sweeps(
    ctx: &OverlayContext,
    analysis: &PruneAnalysis,
    sets: &[Vec<NetId>],
    chained: bool,
) -> Vec<PruneEval> {
    let mut session = ctx.delta_session();
    let mut out = Vec::with_capacity(sets.len());
    for _ in 0..SWEEPS {
        out.clear();
        for set in sets {
            if !chained {
                session = ctx.delta_session();
            }
            out.push(ctx.evaluate(analysis, set, &mut session).expect("grid evaluation"));
        }
    }
    out
}

/// Whether two evaluation lists agree bit for bit on every field.
fn bit_identical(a: &[PruneEval], b: &[PruneEval]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.accuracy.to_bits() == y.accuracy.to_bits()
                && x.area_mm2.to_bits() == y.area_mm2.to_bits()
                && x.power_mw.to_bits() == y.power_mw.to_bits()
                && x.critical_ms.to_bits() == y.critical_ms.to_bits()
                && x.gate_count == y.gate_count
                && x.n_pruned == y.n_pruned
        })
}

/// Runs the comparison on one catalog entry.
pub fn run_entry(entry: &Entry) -> DeltaEvalRow {
    let cfg = FrameworkConfig { tech: tech_for(entry.dataset, entry.kind), ..Default::default() };
    let fw = Framework::new(cfg);
    let base =
        pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
    let analysis = analyze(&base, &entry.model, &entry.train);
    // Lattice order: the order a DFS of the set-prefix trie visits.
    let mut sets = enumerate_grid(&analysis, &fw.config().prune).sets;
    sets.sort_unstable();
    let ctx = OverlayContext::new(
        base,
        entry.model.clone(),
        Arc::new(entry.test.clone()),
        fw.library(),
        fw.config().tech.clone(),
    )
    .expect("overlay context");

    // Warm both paths before timing.
    sweeps(&ctx, &analysis, &sets, true);
    sweeps(&ctx, &analysis, &sets, false);
    let mut stats = DeltaFoldStats::default();
    let (mut chained, mut fresh) = (Vec::new(), Vec::new());
    let timing = Paired::run(
        PAIRS,
        || {
            let before = ctx.delta_stats();
            let t = Instant::now();
            chained = sweeps(&ctx, &analysis, &sets, true);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            stats.merge(&ctx.delta_stats().since(&before));
            ms
        },
        || {
            let t = Instant::now();
            fresh = sweeps(&ctx, &analysis, &sets, false);
            t.elapsed().as_secs_f64() * 1e3
        },
    );
    let (speedup, speedup_iqr) = timing.ratio();

    DeltaEvalRow {
        circuit: entry.label(),
        grid_candidates: sets.len(),
        sweeps: SWEEPS,
        baseline_ms: timing.b_median(),
        delta_ms: timing.a_median(),
        speedup,
        speedup_iqr,
        stats,
        identical: bit_identical(&chained, &fresh),
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
pub fn run(cfg: &SynthConfig) -> Vec<DeltaEvalRow> {
    default_entries(cfg).iter().map(run_entry).collect()
}

/// Markdown rendering of the comparison.
pub fn render(rows: &[DeltaEvalRow]) -> String {
    let mut out = String::from(
        "| Circuit | Grid cands | Sweeps | Fresh ms | Chained ms | Speedup | IQR | Fresh c/s | Chained c/s | Delta folds | Mean delta | Identical |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {:.0} | {:.2}× | {:.2} | {:.0} | {:.0} | {}/{} | {} | {} |",
            r.circuit,
            r.grid_candidates,
            r.sweeps,
            r.baseline_ms,
            r.delta_ms,
            r.speedup,
            r.speedup_iqr,
            r.baseline_cps(),
            r.delta_cps(),
            r.stats.delta_folds,
            r.stats.delta_folds + r.stats.full_folds,
            r.stats.mean_delta().map_or_else(|| "—".into(), |m| format!("{m:.1} nets")),
            if r.identical { "yes" } else { "NO" },
        );
    }
    out
}

/// JSON rendering (the `BENCH_delta_eval.json` payload).
pub fn to_json(rows: &[DeltaEvalRow], cfg: &SynthConfig) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"one chained delta session vs a new session per candidate (cargo run -p pax-bench --release --bin paper -- delta_eval)\",\n",
    );
    let _ = writeln!(
        out,
        "  \"synth_config\": {{ \"seed\": {}, \"size_factor\": {} }},",
        cfg.seed, cfg.size_factor
    );
    let _ = writeln!(out, "  \"pairs\": {PAIRS},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"circuit\": \"{}\", \"grid_candidates\": {}, \"sweeps\": {}, \"baseline_ms\": {:.1}, \"delta_ms\": {:.1}, \"speedup\": {:.3}, \"speedup_iqr\": {:.3}, \"baseline_cps\": {:.1}, \"delta_cps\": {:.1}, \"delta_folds\": {}, \"full_folds\": {}, \"delta_hit_rate\": {:.3}, \"mean_delta_nets\": {:.2}, \"identical\": {} }}{}",
            r.circuit,
            r.grid_candidates,
            r.sweeps,
            r.baseline_ms,
            r.delta_ms,
            r.speedup,
            r.speedup_iqr,
            r.baseline_cps(),
            r.delta_cps(),
            r.stats.delta_folds,
            r.stats.full_folds,
            r.stats.hit_rate().unwrap_or(0.0),
            r.stats.mean_delta().unwrap_or(0.0),
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    let acceptance_row = rows.iter().find(|r| r.circuit.contains("cardio"));
    let pass = acceptance_row.is_some_and(|r| r.identical && r.speedup >= 1.5);
    out.push_str("  \"acceptance\": {\n");
    out.push_str(
        "    \"bar\": \"median per-pair speedup of one chained session >= 1.5x a new session per candidate on the cardio svm-r grid, with bit-identical results\",\n",
    );
    let _ = writeln!(out, "    \"pass\": {pass}");
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_paths_agree() {
        let cfg = SynthConfig { size_factor: 0.12, ..SynthConfig::small() };
        let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let row = run_entry(&entry);
        assert!(row.grid_candidates > 0);
        assert!(row.identical, "chained and fresh sessions diverged");
        assert!(row.baseline_ms > 0.0 && row.delta_ms > 0.0);
        assert!(row.stats.delta_folds > 0, "the lattice-ordered sweeps never took the delta path");
        assert!(row.speedup > 0.0 && row.speedup_iqr >= 0.0);
        let md = render(std::slice::from_ref(&row));
        assert!(md.contains("redwine"));
        let json = to_json(std::slice::from_ref(&row), &cfg);
        assert!(json.contains("\"acceptance\""));
        assert!(json.ends_with("}\n"));
    }
}
