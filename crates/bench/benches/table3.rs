//! Table III bench: regenerates the execution-time table on a reduced
//! dataset (printed once), then measures the pruning exploration — the
//! dominant cost of the framework (the paper's bottleneck too).

use criterion::{criterion_group, criterion_main, Criterion};
use pax_bench::catalog::{train_entry, DatasetId};
use pax_bench::{studies, table3};
use pax_core::explore::{CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid};
use pax_core::prune::{analyze, PruneConfig};
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_synth::opt;

fn bench(c: &mut Criterion) {
    let quick = SynthConfig { size_factor: 0.15, ..SynthConfig::default() };
    let runs = studies::run_all(&quick);
    println!("{}", table3::render(&table3::build(&runs)));

    // Isolate the exploration kernel on a small circuit.
    let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &quick);
    let circuit = pax_bespoke::BespokeCircuit::generate(&entry.model);
    let netlist = opt::optimize(&circuit.netlist);
    let lib = egt_pdk::egt_library();
    let tech = egt_pdk::TechParams::egt();
    let analysis = analyze(&netlist, &entry.model, &entry.train);
    c.bench_function("table3/prune_full_search_redwine_svm_r", |b| {
        b.iter(|| {
            let evaluator = Evaluator::new(
                &lib,
                &tech,
                &entry.test,
                vec![EvalContext {
                    coeff: CoeffGene::exact(),
                    netlist: &netlist,
                    model: &entry.model,
                    analysis: analysis.clone(),
                }],
            );
            let mut engine = Engine::new(&evaluator, &PruneConfig::default());
            std::hint::black_box(engine.run(&mut ExhaustiveGrid::new()).expect("grid sweep"))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
