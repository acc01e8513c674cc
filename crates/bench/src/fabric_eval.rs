//! Evaluation-fabric throughput study: in-process evaluation versus
//! the same batches routed through a [`ServeEngine`] tenant
//! (`BENCH_fabric_eval.json`).
//!
//! Both sides drive the *same* exploration engine on the same circuits
//! — the paper-faithful exhaustive `(τc, φc)` grid, then a budgeted
//! NSGA-II pass — and build the same per-candidate jobs (a pooled delta
//! session over one owned context); they differ only in where the jobs
//! run: on the evaluator's scoped workers, or on the serve engine's
//! shared worker pool (the pool that also answers live classification
//! traffic). The study verifies the two returned **bit-identical**
//! design points before reporting any ratio.
//!
//! Timing runs in [`PAIRS`] pairs that alternate which side goes
//! first; the verdict reads the median per-pair retention, and the
//! JSON records its interquartile range next to it.
//!
//! Acceptance bar (recorded in the JSON): fabric-routed evaluation
//! keeps ≥ 0.9× the in-process candidate-evaluation throughput on the
//! cardio svm-r exhaustive grid — the unified pool may tax the search a
//! little for sharing, but not more than that.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pax_core::explore::{
    CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config, SearchOutcome,
};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::prune::PruneAnalysis;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::Netlist;
use pax_serve::{EngineConfig, ServeEngine, TenantOptions};

use crate::catalog::{train_entry, DatasetId, Entry};
use crate::paired::{bit_identical, Paired};
use crate::table1::tech_for;

/// One circuit's in-process-vs-fabric measurement.
#[derive(Debug)]
pub struct FabricEvalRow {
    /// Circuit label (`cardio svm-r`, …).
    pub circuit: String,
    /// Serve-engine worker threads executing the fabric jobs.
    pub workers: usize,
    /// Distinct prunings the exhaustive grid evaluated (per side).
    pub grid_candidates: usize,
    /// Median grid sweep wall-clock, in-process, in ms.
    pub grid_overlay_ms: f64,
    /// Median grid sweep wall-clock, fabric-routed, in ms.
    pub grid_fabric_ms: f64,
    /// Median per-pair grid throughput retention (fabric ÷ in-process;
    /// 1.0 = no tax).
    pub grid_retention: f64,
    /// Interquartile range of the per-pair grid retention.
    pub grid_retention_iqr: f64,
    /// Fresh evaluations the NSGA-II pass spent (per side).
    pub nsga_candidates: usize,
    /// Median NSGA-II wall-clock, in-process, in ms.
    pub nsga_overlay_ms: f64,
    /// Median NSGA-II wall-clock, fabric-routed, in ms.
    pub nsga_fabric_ms: f64,
    /// Median per-pair NSGA-II throughput retention.
    pub nsga_retention: f64,
    /// Interquartile range of the per-pair NSGA-II retention.
    pub nsga_retention_iqr: f64,
    /// Whether both sides returned bit-identical design points on both
    /// studies (ratios are meaningless otherwise).
    pub identical: bool,
}

impl FabricEvalRow {
    /// Grid candidates per second, in-process (median run).
    pub fn grid_overlay_cps(&self) -> f64 {
        self.grid_candidates as f64 / (self.grid_overlay_ms / 1e3).max(1e-9)
    }

    /// Grid candidates per second, fabric-routed (median run).
    pub fn grid_fabric_cps(&self) -> f64 {
        self.grid_candidates as f64 / (self.grid_fabric_ms / 1e3).max(1e-9)
    }
}

/// Timed pairs per study.
pub const PAIRS: usize = 5;

/// Runs one engine-driven study (grid or NSGA-II), timing evaluator
/// construction + the full ask/evaluate/tell loop on a fresh evaluator
/// and cold engine. With a serve engine the evaluator routes through a
/// fresh tenant; without one it stays in-process.
fn timed_run(
    entry: &Entry,
    base: &Netlist,
    analysis: &PruneAnalysis,
    fw: &Framework,
    serve: Option<&ServeEngine>,
    nsga: Option<&Nsga2Config>,
) -> (SearchOutcome, f64) {
    let tenant_name = format!("bench-{}", entry.label());
    let t = Instant::now();
    let mut evaluator = Evaluator::new(
        fw.library(),
        &fw.config().tech,
        &entry.test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: base,
            model: &entry.model,
            analysis: analysis.clone(),
        }],
    );
    if let Some(serve) = serve {
        let tenant = serve
            .register_tenant(&tenant_name, TenantOptions::default())
            .expect("fresh tenant per run");
        evaluator = evaluator.with_fabric(Arc::new(tenant));
    }
    let mut engine = Engine::new(&evaluator, &fw.config().prune);
    let outcome = match nsga {
        None => engine.run(&mut ExhaustiveGrid::new()),
        Some(cfg) => engine.run(&mut Nsga2::new(cfg.clone())),
    }
    .expect("study evaluation");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(serve) = serve {
        serve.unregister_tenant(&tenant_name);
    }
    (outcome, ms)
}

/// One study timed in alternating pairs: in-process as side A, fabric
/// as side B. Returns the timings, the last outcome of each side, and
/// whether the two agree bit for bit.
fn paired_study(
    entry: &Entry,
    base: &Netlist,
    analysis: &PruneAnalysis,
    fw: &Framework,
    serve: &ServeEngine,
    nsga: Option<&Nsga2Config>,
) -> (Paired, SearchOutcome, bool) {
    let (mut local, mut fabric) = (None, None);
    let timing = Paired::run(
        PAIRS,
        || {
            let (outcome, ms) = timed_run(entry, base, analysis, fw, None, nsga);
            local = Some(outcome);
            ms
        },
        || {
            let (outcome, ms) = timed_run(entry, base, analysis, fw, Some(serve), nsga);
            fabric = Some(outcome);
            ms
        },
    );
    let (local, fabric) = (local.expect("timed pairs"), fabric.expect("timed pairs"));
    let identical = bit_identical(&local.points, &fabric.points);
    (timing, local, identical)
}

/// Runs the comparison on one catalog entry.
pub fn run_entry(entry: &Entry, seed: u64) -> FabricEvalRow {
    let cfg = FrameworkConfig { tech: tech_for(entry.dataset, entry.kind), ..Default::default() };
    let fw = Framework::new(cfg);
    let base =
        pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
    let analysis = pax_core::prune::analyze(&base, &entry.model, &entry.train);

    let serve = ServeEngine::new(EngineConfig::default());
    let workers = serve.workers();

    // The paper's exhaustive grid, both sides on cold engines.
    let (grid, grid_outcome, grid_identical) =
        paired_study(entry, &base, &analysis, &fw, &serve, None);

    // A budgeted evolutionary pass (fixed seed; identical genomes on
    // both sides because evaluation results — and therefore selection —
    // are bit-identical).
    let budget = (grid_outcome.stats.evaluated / 4).max(8);
    let nsga = Nsga2Config {
        population: (budget / 3).clamp(6, 16),
        generations: 64,
        max_evals: budget,
        seed,
        ..Default::default()
    };
    let (evo, evo_outcome, evo_identical) =
        paired_study(entry, &base, &analysis, &fw, &serve, Some(&nsga));
    serve.shutdown();

    // Side A is in-process, so `ratio` is in-process ms ÷ fabric ms.
    let (grid_retention, grid_retention_iqr) = grid.ratio();
    let (nsga_retention, nsga_retention_iqr) = evo.ratio();
    FabricEvalRow {
        circuit: entry.label(),
        workers,
        grid_candidates: grid_outcome.stats.evaluated,
        grid_overlay_ms: grid.a_median(),
        grid_fabric_ms: grid.b_median(),
        grid_retention,
        grid_retention_iqr,
        nsga_candidates: evo_outcome.stats.evaluated,
        nsga_overlay_ms: evo.a_median(),
        nsga_fabric_ms: evo.b_median(),
        nsga_retention,
        nsga_retention_iqr,
        identical: grid_identical && evo_identical,
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
pub fn run(cfg: &SynthConfig, seed: u64) -> Vec<FabricEvalRow> {
    default_entries(cfg).iter().map(|e| run_entry(e, seed)).collect()
}

/// Markdown rendering of the comparison.
pub fn render(rows: &[FabricEvalRow]) -> String {
    let mut out = String::from(
        "| Circuit | Workers | Grid cands | In-proc ms | Fabric ms | Retention | IQR | In-proc c/s | Fabric c/s | NSGA retention | Identical |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {:.0} | {:.2}× | {:.2} | {:.0} | {:.0} | {:.2}× | {} |",
            r.circuit,
            r.workers,
            r.grid_candidates,
            r.grid_overlay_ms,
            r.grid_fabric_ms,
            r.grid_retention,
            r.grid_retention_iqr,
            r.grid_overlay_cps(),
            r.grid_fabric_cps(),
            r.nsga_retention,
            if r.identical { "yes" } else { "NO" },
        );
    }
    out
}

/// JSON rendering (the `BENCH_fabric_eval.json` payload).
pub fn to_json(rows: &[FabricEvalRow], cfg: &SynthConfig, seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"in-process vs serve-fabric candidate evaluation (cargo run -p pax-bench --release --bin paper -- fabric_eval)\",\n",
    );
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"pairs\": {PAIRS},");
    let _ = writeln!(
        out,
        "  \"synth_config\": {{ \"seed\": {}, \"size_factor\": {} }},",
        cfg.seed, cfg.size_factor
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"circuit\": \"{}\", \"workers\": {}, \"grid_candidates\": {}, \"grid_overlay_ms\": {:.1}, \"grid_fabric_ms\": {:.1}, \"grid_retention\": {:.3}, \"grid_retention_iqr\": {:.3}, \"grid_overlay_cps\": {:.1}, \"grid_fabric_cps\": {:.1}, \"nsga_candidates\": {}, \"nsga_overlay_ms\": {:.1}, \"nsga_fabric_ms\": {:.1}, \"nsga_retention\": {:.3}, \"nsga_retention_iqr\": {:.3}, \"identical\": {} }}{}",
            r.circuit,
            r.workers,
            r.grid_candidates,
            r.grid_overlay_ms,
            r.grid_fabric_ms,
            r.grid_retention,
            r.grid_retention_iqr,
            r.grid_overlay_cps(),
            r.grid_fabric_cps(),
            r.nsga_candidates,
            r.nsga_overlay_ms,
            r.nsga_fabric_ms,
            r.nsga_retention,
            r.nsga_retention_iqr,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    let acceptance_row = rows.iter().find(|r| r.circuit.contains("cardio"));
    let pass = acceptance_row.is_some_and(|r| r.identical && r.grid_retention >= 0.9);
    out.push_str("  \"acceptance\": {\n");
    out.push_str(
        "    \"bar\": \"median per-pair fabric throughput >= 0.9x in-process on the cardio svm-r exhaustive grid, with bit-identical results\",\n",
    );
    let _ = writeln!(out, "    \"pass\": {pass}");
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_substrates_agree() {
        let cfg = SynthConfig { size_factor: 0.12, ..SynthConfig::small() };
        let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let row = run_entry(&entry, 11);
        assert!(row.grid_candidates > 0);
        assert!(row.workers > 0);
        assert!(row.identical, "fabric and in-process evaluation diverged");
        assert!(row.grid_overlay_ms > 0.0 && row.grid_fabric_ms > 0.0);
        let md = render(std::slice::from_ref(&row));
        assert!(md.contains("redwine"));
        let json = to_json(&[row], &cfg, 11);
        assert!(json.contains("\"acceptance\""));
        assert!(json.ends_with("}\n"));
    }
}
