//! `flow`: the paper's Table III flow, closed loop with one client.
//!
//! Each pass runs a default study of every hardware-feasible catalog
//! circuit through `pax_bench::studies::run_one`, in a seeded order.
//! Search (`Engine::run`) and coefficient approximation with the
//! multiplier-cache fill take nearly all of its CPU, in that order. The
//! traced run replays `try_run_study` stage by stage through the public
//! functions, checks the replay against `run_one`, and attributes each
//! stage.
//!
//! `run_one` builds its evaluators at the default pool width, so flow
//! ignores `--threads`: the replay uses the same default, and that is
//! the width recorded as `bench.eval_threads`.

use std::time::Instant;

use pax_bench::catalog::Entry;
use pax_bench::studies::run_one;
use pax_bench::table1::tech_for;
use pax_bespoke::BespokeCircuit;
use pax_core::coeff_approx::approximate_model;
use pax_core::explore::{CoeffGene, Engine, EvalContext, Evaluator, MAX_COEFF_LAYERS};
use pax_core::framework::{CircuitStudy, ExecStats, Framework, FrameworkConfig};
use pax_core::prune::analyze_compiled;
use pax_core::{DesignPoint, StudyError, Technique};
use pax_sim::CompiledNetlist;
use pax_synth::opt;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{median, quantile, ratio, Report};
use crate::trace::Tracer;
use crate::{catalog_pairs, sys, train_entries, Counts, Opts, Outcome, Setup, Stages};

/// Everything a study's self-check compares, bit for bit: every
/// measured point, the Table II picks and the design counts.
fn fingerprint(study: &CircuitStudy) -> String {
    let picks: Vec<DesignPoint> =
        [Technique::Exact, Technique::CoeffApprox, Technique::PruneOnly, Technique::Cross]
            .into_iter()
            .map(|t| study.best_within_loss(t, 0.01))
            .collect();
    // `{:?}` prints every f64 in its shortest round-trip form, so equal
    // strings mean bit-identical values.
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
        study.baseline,
        study.coeff,
        study.prune_only,
        study.cross,
        picks,
        study.stats.designs_explored,
        study.stats.designs_unique
    )
}

/// One study's self-check: bit-identical to pass 0, and the exact
/// baseline's accuracy equals the quantized model's.
fn check(entry: &Entry, study: &CircuitStudy, reference: &str) -> bool {
    let ok = fingerprint(study) == reference
        && study.baseline.accuracy.to_bits() == entry.quantized_accuracy().to_bits();
    if !ok {
        eprintln!("flow: self-check failed for {}", entry.label());
    }
    ok
}

pub fn run(opts: &Opts, mut setup: Setup) -> Outcome {
    let mut rep = Report::default();
    let pairs = catalog_pairs(opts, "flow");
    let (entries, train_ms) = setup.repeat(opts.setup_reps(), || train_entries(opts, &pairs));
    rep.metric("ml.train_ms", train_ms);
    // Warm-up pass 0: untimed, and the reference every later pass must
    // reproduce bit for bit.
    let reference: Vec<String> =
        entries.iter().map(|e| fingerprint(&run_one(e.clone()).study)).collect();
    let setup_s = setup.finish();
    rep.metric("setup_s", setup_s);

    let mut tracer = Tracer::default();
    let window = Instant::now();
    let cpu0 = sys::process_cpu();
    let (mut pass_cpu, mut traced_cpu) = (Vec::new(), Vec::new());
    // Study CPU ms per circuit, over the untraced passes.
    let mut study_cpu: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let mut cands = 0usize;
    let mut stages = Stages::default();
    let mut counts = Counts::default();
    let (mut covered_ns, mut study_ns) = (0u64, 0u64);
    let mut pass = 0u64;
    while pass < 2 || window.elapsed().as_secs_f64() < opts.seconds {
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(opts.seed ^ pass.wrapping_mul(0x9E37_79B9)));
        // Traced runs alternate untraced passes (the overhead baseline)
        // with traced replays.
        let traced = opts.trace && pass % 2 == 1;
        let mark = tracer.mark();
        let (mut explorations, mut pass_counts) = (Vec::new(), Counts::default());
        let p0 = sys::process_cpu();
        for &i in &order {
            let entry = &entries[i];
            let c0 = sys::process_cpu();
            let study = if traced {
                match replay(entry, &mut tracer) {
                    Ok(study) => {
                        pass_counts.gates +=
                            (study.baseline.gate_count + study.coeff.gate_count) as u64;
                        study.stats.search.iter().for_each(|s| pass_counts.add_search(s));
                        explorations.extend(study.stats.search.iter().cloned());
                        study
                    }
                    Err(e) => {
                        eprintln!("flow: replay of {} failed: {e}", entry.label());
                        rep.check(false);
                        continue;
                    }
                }
            } else {
                run_one(entry.clone()).study
            };
            let cpu = (sys::process_cpu() - c0).as_secs_f64();
            rep.check(check(entry, &study, &reference[i]));
            if !traced {
                study_cpu[i].push(cpu * 1e3);
                cands += study.stats.designs_unique;
            }
        }
        let cpu = (sys::process_cpu() - p0).as_secs_f64();
        if traced {
            traced_cpu.push(cpu);
            let totals = tracer.totals_since(mark);
            if let Some(t) = totals.get("flow.study") {
                covered_ns += t.total_ns - t.self_ns;
                study_ns += t.total_ns;
            }
            stages.push(&totals, &explorations);
            counts = pass_counts;
        } else {
            pass_cpu.push(cpu);
        }
        pass += 1;
    }
    let window_cpu = (sys::process_cpu() - cpu0).as_secs_f64();
    let window_wall = window.elapsed().as_secs_f64();

    rep.metric("pass_cpu_s", median(&pass_cpu));
    // Quantiles over the circuits of each circuit's median study CPU:
    // the catalog mixes 10-300 ms studies, and a quantile over the raw
    // mix falls in the gap between two circuits' clusters.
    let per_circuit: Vec<f64> = study_cpu.iter().map(|v| median(v)).collect();
    rep.metric("op_p50_ms", median(&per_circuit));
    rep.metric("op_tail_ms", quantile(&per_circuit, 0.9));
    rep.metric("cands_per_cpu_s", ratio(cands as f64, pass_cpu.iter().sum()));
    rep.metric("ok_frac", ratio((rep.attempted - rep.failed) as f64, rep.attempted as f64));
    rep.metric("bench.parallelism", ratio(window_cpu, window_wall));
    // `Evaluator::new`'s default width: available parallelism, capped
    // at 16.
    rep.metric("bench.eval_threads", sys::nproc().min(16) as f64);
    if opts.trace {
        stages.record(&mut rep);
        rep.metric("bench.flow_coverage_frac", ratio(covered_ns as f64, study_ns as f64));
        let pass_ms = median(&traced_cpu) * 1e3;
        let share =
            |names: &[&str]| 100.0 * ratio(names.iter().filter_map(|n| rep.get(n)).sum(), pass_ms);
        eprintln!(
            "flow: CPU share of a traced pass: explore {:.1}%, coeff_approx + mult_cache {:.1}%, \
             generate + optimize + compile {:.1}%, measure {:.1}%, prune_analyze {:.1}%",
            share(&["core.explore_ms"]),
            share(&["core.coeff_approx_ms", "core.mult_cache_ms"]),
            share(&["bespoke.generate_ms", "synth.optimize_ms", "sim.compile_ms"]),
            share(&["core.measure_ms"]),
            share(&["core.prune_analyze_ms"])
        );
        rep.metric("bench.trace_overhead_frac", median(&traced_cpu) / median(&pass_cpu) - 1.0);
        counts.record(&mut rep);
    }
    eprintln!(
        "flow: {} passes, {} studies, setup {:.2}s, pass cpu {:.3}s",
        pass,
        rep.attempted,
        setup_s,
        median(&pass_cpu)
    );
    Outcome { report: rep, tracer }
}

/// `try_run_study` replayed stage by stage through the public
/// functions, with a span around each stage. Must reproduce `run_one`
/// bit for bit; the caller checks that.
fn replay(entry: &Entry, tr: &mut Tracer) -> Result<CircuitStudy, StudyError> {
    let (model, train, test) = (&entry.model, &entry.train, &entry.test);
    tr.span("flow.study", |tr| {
        let fw = Framework::new(FrameworkConfig {
            tech: tech_for(entry.dataset, entry.kind),
            ..Default::default()
        });
        let cfg = fw.config();
        let circuit = |tr: &mut Tracer, m: &pax_ml::quant::QuantizedModel| {
            let c = tr.span("bespoke.generate", |_| BespokeCircuit::generate(m));
            let c = c.with_netlist(tr.span("synth.optimize", |_| opt::optimize(&c.netlist)));
            let tape = tr.span("sim.compile", |_| CompiledNetlist::compile(&c.netlist));
            (c, tape)
        };
        let (base, base_tape) = circuit(tr, model);
        let baseline = tr.span("core.measure", |_| {
            fw.try_measure_compiled(&base_tape, &base.netlist, model, test, Technique::Exact)
        })?;
        tr.span("core.mult_cache", |_| {
            fw.cache().build_range(model.spec.input_bits, model.spec.coef_bits);
            if model.kind.is_mlp() && model.hidden_width > 0 {
                fw.cache().build_range(model.hidden_width, model.spec.coef_bits);
            }
        });
        let (approx_model, coeff_report) =
            tr.span("core.coeff_approx", |_| approximate_model(model, fw.cache(), &cfg.coeff));
        let (approx, approx_tape) = circuit(tr, &approx_model);
        let coeff = tr.span("core.measure", |_| {
            fw.try_measure_compiled(
                &approx_tape,
                &approx.netlist,
                &approx_model,
                test,
                Technique::CoeffApprox,
            )
        })?;

        let layers = model
            .sum_shapes()
            .iter()
            .map(|&(layer, _, _)| layer + 1)
            .max()
            .unwrap_or(1)
            .min(MAX_COEFF_LAYERS);
        let mut series = Vec::new();
        let mut stats = Vec::new();
        for (c, tape, m, gene) in [
            (&base, &base_tape, model, CoeffGene::exact()),
            (&approx, &approx_tape, &approx_model, CoeffGene::per_layer(&vec![1; layers])),
        ] {
            let analysis =
                tr.span("core.prune_analyze", |_| analyze_compiled(tape, &c.netlist, m, train));
            let evaluator = Evaluator::new(
                fw.library(),
                &cfg.tech,
                test,
                vec![EvalContext { coeff: gene, netlist: &c.netlist, model: m, analysis }],
            );
            let mut engine =
                Engine::with_objectives(&evaluator, &cfg.prune, cfg.search.objectives.clone());
            let mut strategy = cfg.search.build();
            let outcome = tr.span("core.explore", |_| engine.run(strategy.as_mut()))?;
            series.push(outcome.points.into_iter().map(|(_, p)| p).collect::<Vec<_>>());
            stats.push(outcome.stats);
        }
        let cross = series.pop().expect("two series");
        let prune_only = series.pop().expect("two series");
        Ok(CircuitStudy {
            name: model.name.clone(),
            kind: model.kind,
            baseline,
            coeff,
            prune_only,
            cross,
            coeff_report,
            stats: ExecStats {
                designs_explored: stats.iter().map(|s| s.asked).sum(),
                designs_unique: stats.iter().map(|s| s.evaluated).sum(),
                search: stats,
                ..Default::default()
            },
        })
    })
}
