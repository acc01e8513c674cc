//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **CSD vs. plain binary recoding** of bespoke multipliers — how
//!    much of Fig. 1's area advantage comes from the signed-digit form;
//! 2. **re-synthesis after pruning** — how much of the pruning gain is
//!    constant propagation + dead-cone sweeping rather than the pruned
//!    gates themselves;
//! 3. **exact error balancing** in the coefficient approximation — the
//!    proxy gain it buys and what the exact search costs.

use criterion::{criterion_group, criterion_main, Criterion};
use pax_bench::catalog::{train_entry, DatasetId};
use pax_core::coeff_approx::{approximate_model, CoeffApproxConfig};
use pax_core::mult_cache::MultCache;
use pax_core::prune::{analyze, enumerate_grid, PruneConfig};
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::NetlistBuilder;
use pax_synth::{area, bits, constmul, opt};

fn csd_vs_binary(c: &mut Criterion) {
    let lib = egt_pdk::egt_library();
    let measure = |binary: bool| -> f64 {
        (-128i64..=127)
            .map(|w| {
                let mut b = NetlistBuilder::new("bm");
                let x = b.input_port("x", 4);
                let width = bits::product_width(4, w);
                let p = if binary {
                    constmul::bespoke_mul_binary(&mut b, &x, w, width)
                } else {
                    constmul::bespoke_mul(&mut b, &x, w, width)
                };
                b.output_port("p", p);
                area::area_mm2(&opt::optimize(&b.finish()), &lib).unwrap()
            })
            .sum()
    };
    let csd = measure(false);
    let binary = measure(true);
    println!(
        "# Ablation 1 — CSD recoding: total 4×8 multiplier area {:.0} mm² (CSD) vs {:.0} mm² \
         (binary): CSD saves {:.1}%",
        csd,
        binary,
        (binary - csd) / binary * 100.0
    );

    c.bench_function("ablation/csd_multiplier_sweep", |b| {
        b.iter(|| std::hint::black_box(measure(false)))
    });
}

fn resynthesis_gain(c: &mut Criterion) {
    let quick = SynthConfig { size_factor: 0.15, ..SynthConfig::default() };
    let entry = train_entry(DatasetId::RedWine, ModelKind::SvmC, &quick);
    let circuit = pax_bespoke::BespokeCircuit::generate(&entry.model);
    let netlist = opt::optimize(&circuit.netlist);
    let lib = egt_pdk::egt_library();
    let analysis = analyze(&netlist, &entry.model, &entry.train);
    let grid = enumerate_grid(&analysis, &PruneConfig::default());
    let set = grid.sets.iter().max_by_key(|s| s.len()).expect("non-empty grid");

    let base_area = area::area_mm2(&netlist, &lib).unwrap();
    // Without re-synthesis the gain is only the pruned gates themselves.
    let direct_gain: f64 = set
        .iter()
        .map(|&g| {
            let gate = netlist.gate(g).expect("candidates are gates");
            lib.cell(gate.kind.mnemonic()).map_or(0.0, |cell| cell.area_mm2)
        })
        .sum();
    let pruned = pax_core::prune::apply_set(&netlist, &analysis, set);
    let resynth_area = area::area_mm2(&pruned, &lib).unwrap();
    println!(
        "# Ablation 2 — re-synthesis after pruning ({} gates pruned): direct gate removal \
         would save {:.1}% of area; constant propagation + sweep deliver {:.1}%",
        set.len(),
        direct_gain / base_area * 100.0,
        (base_area - resynth_area) / base_area * 100.0
    );

    c.bench_function("ablation/prune_apply_and_resynth", |b| {
        b.iter(|| std::hint::black_box(pax_core::prune::apply_set(&netlist, &analysis, set)))
    });
}

fn balance_objectives(c: &mut Criterion) {
    let quick = SynthConfig { size_factor: 0.15, ..SynthConfig::default() };
    let entry = train_entry(DatasetId::Cardio, ModelKind::SvmC, &quick);
    let cache = MultCache::new(egt_pdk::egt_library());
    let cfg = CoeffApproxConfig::default();

    let (model, report) = approximate_model(&entry.model, &cache, &cfg);
    println!(
        "# Ablation 3 — balance search: exact proxy -{:.1}% (accuracy {:.3})",
        report.proxy_reduction_pct(),
        model.accuracy_on(&entry.test)
    );

    c.bench_function("ablation/coeff_approx_exact", |b| {
        b.iter(|| std::hint::black_box(approximate_model(&entry.model, &cache, &cfg)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = csd_vs_binary, resynthesis_gain, balance_objectives
}
criterion_main!(benches);
