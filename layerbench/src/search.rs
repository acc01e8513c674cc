//! `search`: the candidate loop alone, closed loop with one client.
//!
//! Each round runs four explorations, each on a fresh `Evaluator` +
//! `Engine` with a cold cache: an exhaustive grid and a seeded
//! default-config NSGA-II (the next of four seeds) on each of two
//! circuits — cardio mlp-c, where fold dominates, and pendigits mlp-c,
//! where masked simulation dominates. Training, coefficient
//! approximation and circuit generation all happen in set-up, so the
//! timed window holds only strategy, fold, delta simulation, re-timing
//! and archive work. The traced run drives ask / `evaluate_batch` /
//! tell itself and checks the result against `Engine::run`.

use std::time::Instant;

use egt_pdk::{Library, TechParams};
use pax_bench::catalog::Entry;
use pax_bench::table1::tech_for;
use pax_bespoke::BespokeCircuit;
use pax_core::explore::{
    CoeffGene, Engine, EvalCache, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config,
    ObjectiveSet, ParetoArchive, SearchOutcome, SearchStats, SearchStrategy,
};
use pax_core::prune::{analyze_compiled, PruneAnalysis, PruneConfig};
use pax_core::{DesignPoint, StudyError};
use pax_netlist::Netlist;
use pax_sim::CompiledNetlist;
use pax_synth::opt;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::report::{median, quantile, ratio, Report};
use crate::trace::Tracer;
use crate::{catalog_pairs, sys, train_entries, Counts, Opts, Outcome, Setup, Stages};

/// NSGA-II seeds per circuit; rounds take them in turn. One
/// trajectory's cost moves about 12% from seed to seed, so the run
/// reports the mean over its seeds of each seed's median.
const NSGA_SEEDS: usize = 4;

/// The mean over seeds of each seed's median value, from
/// `(seed index, value)` samples.
fn seed_mean(samples: &[(usize, f64)]) -> f64 {
    let per_seed: Vec<f64> = (0..NSGA_SEEDS)
        .map(|k| samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect::<Vec<_>>())
        .filter(|v| !v.is_empty())
        .map(|v| median(&v))
        .collect();
    ratio(per_seed.iter().sum(), per_seed.len() as f64)
}

/// A base circuit ready for exploration: built once in set-up.
pub struct Fixture {
    pub entry: Entry,
    pub lib: Library,
    pub tech: TechParams,
    pub netlist: Netlist,
    pub analysis: PruneAnalysis,
}

impl Fixture {
    /// Generates, optimizes, compiles and analyzes the exact bespoke
    /// circuit of `entry` — the base the study's baseline pruning
    /// explores.
    pub fn new(entry: Entry) -> Self {
        let netlist = opt::optimize(&BespokeCircuit::generate(&entry.model).netlist);
        let tape = CompiledNetlist::compile(&netlist);
        let analysis = analyze_compiled(&tape, &netlist, &entry.model, &entry.train);
        let tech = tech_for(entry.dataset, entry.kind);
        Self { entry, lib: egt_pdk::egt_library(), tech, netlist, analysis }
    }

    /// A fresh evaluator (cold overlay, no cache) over this circuit.
    pub fn evaluator(&self, threads: usize) -> Evaluator<'_> {
        Evaluator::new(
            &self.lib,
            &self.tech,
            &self.entry.test,
            vec![EvalContext {
                coeff: CoeffGene::exact(),
                netlist: &self.netlist,
                model: &self.entry.model,
                analysis: self.analysis.clone(),
            }],
        )
        .with_threads(threads)
    }
}

/// The two strategies a round runs on each circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Grid,
    Nsga2,
}

impl Kind {
    fn strategy(self, seed: u64) -> Box<dyn SearchStrategy> {
        match self {
            Kind::Grid => Box::new(ExhaustiveGrid::new()),
            Kind::Nsga2 => Box::new(Nsga2::new(Nsga2Config { seed, ..Default::default() })),
        }
    }
}

/// Everything an exploration's self-check compares, bit for bit.
fn fingerprint(
    points: &[(pax_core::explore::Candidate, DesignPoint)],
    front: &[DesignPoint],
    s: &SearchStats,
) -> String {
    format!(
        "{points:?}|{front:?}|{}|{}|{}|{}|{:?}|{:?}",
        s.asked, s.evaluated, s.cache_hits, s.generations, s.hypervolume, s.hv_ref
    )
}

pub fn outcome_fingerprint(o: &SearchOutcome) -> String {
    fingerprint(&o.points, o.archive.front(), &o.stats)
}

/// The hypervolume reference point `Engine::run` fixes from the first
/// measured batch: 0 on maximized axes, twice the batch's worst value
/// (1 when that is not positive) on minimized ones.
fn reference_point(
    objectives: &ObjectiveSet,
    points: &[(pax_core::explore::Candidate, DesignPoint)],
) -> Vec<f64> {
    objectives
        .enabled()
        .map(|axis| {
            if axis.objective.maximize() {
                0.0
            } else {
                let worst = points
                    .iter()
                    .map(|(_, p)| axis.objective.value(p))
                    .fold(f64::NEG_INFINITY, f64::max);
                if worst > 0.0 {
                    2.0 * worst
                } else {
                    1.0
                }
            }
        })
        .collect()
}

/// Archive inserts and hypervolume calls timed in a traced round.
#[derive(Debug, Default)]
struct ArchiveTiming {
    inserts: u64,
    insert_ns: u64,
    hv_calls: u64,
    hv_ns: u64,
}

/// `Engine::run` replayed through the public ask / `evaluate_batch` /
/// tell calls, with spans around each; returns the fingerprint the
/// caller compares with `Engine::run`'s, plus the stats.
fn replay(
    fx: &Fixture,
    kind: Kind,
    seed: u64,
    threads: usize,
    tr: &mut Tracer,
    timing: &mut ArchiveTiming,
) -> Result<(String, SearchStats), StudyError> {
    let (ask, tell) = match kind {
        Kind::Grid => ("core.ask.grid", "core.tell.grid"),
        Kind::Nsga2 => ("core.ask.nsga2", "core.tell.nsga2"),
    };
    tr.span("core.explore", |tr| {
        let evaluator = fx.evaluator(threads);
        let space = evaluator.space(&PruneConfig::default());
        let objectives = ObjectiveSet::default();
        let mut strategy = kind.strategy(seed);
        let mut cache = EvalCache::new();
        let mut archive = ParetoArchive::with_objectives(objectives.clone());
        let mut stats = SearchStats { strategy: strategy.name().to_owned(), ..Default::default() };
        let budget = strategy.budget();
        let (mut spent, mut points, mut ref_point) = (0usize, Vec::new(), None);
        loop {
            let batch = tr.span(ask, |_| strategy.ask(&space));
            if batch.is_empty() {
                break;
            }
            stats.generations += 1;
            stats.asked += batch.len();
            let remaining = budget.map(|b| b.saturating_sub(spent));
            let (results, fresh) = tr.span("core.eval_batch", |_| {
                evaluator.evaluate_batch(&batch, &mut cache, remaining)
            })?;
            spent += fresh;
            stats.evaluated += fresh;
            stats.cache_hits += results.len() - fresh;
            stats.asked -= batch.len() - results.len();
            let t = Instant::now();
            archive.extend(results.iter().map(|(_, p)| p.clone()));
            timing.insert_ns += t.elapsed().as_nanos() as u64;
            timing.inserts += results.len() as u64;
            tr.span(tell, |_| strategy.tell(&results, &objectives));
            if ref_point.is_none() && !results.is_empty() {
                ref_point = Some(reference_point(&objectives, &results));
            }
            points.extend(results);
            if remaining.is_some_and(|r| fresh >= r) {
                break;
            }
        }
        stats.front_size = archive.len();
        if let Some(r) = ref_point.as_ref().filter(|_| !archive.is_empty()) {
            let t = Instant::now();
            stats.hypervolume = Some(archive.hypervolume(r));
            timing.hv_ns += t.elapsed().as_nanos() as u64;
            timing.hv_calls += 1;
        }
        stats.hv_ref = ref_point.unwrap_or_default();
        stats.telemetry.phases = evaluator.telemetry();
        stats.telemetry.delta = evaluator.delta_stats();
        Ok((fingerprint(&points, archive.front(), &stats), stats))
    })
}

/// One exhaustive-grid exploration through `Engine::run` on the
/// evaluator's own thread pool.
pub fn explore_grid(fx: &Fixture, threads: usize) -> Result<SearchOutcome, StudyError> {
    explore(fx, Kind::Grid, 0, threads)
}

/// One exploration through `Engine::run`.
fn explore(
    fx: &Fixture,
    kind: Kind,
    seed: u64,
    threads: usize,
) -> Result<SearchOutcome, StudyError> {
    let evaluator = fx.evaluator(threads);
    let mut engine = Engine::new(&evaluator, &PruneConfig::default());
    engine.run(kind.strategy(seed).as_mut())
}

pub fn run(opts: &Opts, mut setup: Setup) -> Outcome {
    let mut rep = Report::default();
    let pairs = catalog_pairs(opts, "search");
    let (fixtures, train_ms) = setup.repeat(opts.setup_reps(), || {
        let (entries, train_ms) = train_entries(opts, &pairs);
        (entries.into_iter().map(Fixture::new).collect::<Vec<_>>(), train_ms)
    });
    rep.metric("ml.train_ms", train_ms);
    // Per circuit: one grid, run every round, and NSGA_SEEDS seeded
    // NSGA-II explorations, one per round in turn: `(circuit, kind,
    // NSGA-II seed, seed index)`.
    let jobs: Vec<(usize, Kind, u64, usize)> = (0..fixtures.len())
        .flat_map(|c| {
            let nsga = (0..NSGA_SEEDS).map(move |k| {
                let seed =
                    opts.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (c * NSGA_SEEDS + k) as u64;
                (c, Kind::Nsga2, seed, k)
            });
            std::iter::once((c, Kind::Grid, 0, 0)).chain(nsga)
        })
        .collect();
    // Warm-up: round 0's explorations (both grids, the first NSGA-II
    // seed), untimed. Each exploration's first run — here, or in the
    // window for the other seeds — is the reference every later run
    // (and every traced replay) must reproduce bit for bit.
    let mut reference: Vec<Option<String>> = jobs
        .iter()
        .map(|&(c, kind, seed, k)| {
            (kind == Kind::Grid || k == 0).then(|| {
                match explore(&fixtures[c], kind, seed, opts.threads) {
                    Ok(o) => outcome_fingerprint(&o),
                    Err(e) => format!("error: {e}"),
                }
            })
        })
        .collect();
    let setup_s = setup.finish();
    rep.metric("setup_s", setup_s);

    let mut tracer = Tracer::default();
    let window = Instant::now();
    let cpu0 = sys::process_cpu();
    let (mut round_cpu, mut evolve_cpu, mut grid_rate, mut evolve_rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced_cpu = Vec::new();
    let mut stages = Stages::default();
    let mut counts = None;
    let mut timing = ArchiveTiming::default();
    let mut round = 0u64;
    while round < 2 || window.elapsed().as_secs_f64() < opts.seconds {
        // Traced runs take each seed twice in a row, untraced then
        // traced, so the overhead compares like with like.
        let traced = opts.trace && round % 2 == 1;
        let k = (round / if opts.trace { 2 } else { 1 }) as usize % NSGA_SEEDS;
        let mut order: Vec<usize> =
            (0..jobs.len()).filter(|&j| jobs[j].1 == Kind::Grid || jobs[j].3 == k).collect();
        order.shuffle(&mut StdRng::seed_from_u64(opts.seed ^ round.wrapping_mul(0x9E37_79B9)));
        let mark = tracer.mark();
        let (mut explorations, mut round_counts) = (Vec::new(), Counts::default());
        let (mut grid, mut evolve) = ([0.0f64; 2], [0.0f64; 2]); // [fresh, cpu s]
        let r0 = sys::process_cpu();
        for &j in &order {
            let (c, kind, seed, _) = jobs[j];
            let c0 = sys::process_cpu();
            let result = if traced {
                replay(&fixtures[c], kind, seed, opts.threads, &mut tracer, &mut timing)
            } else {
                explore(&fixtures[c], kind, seed, opts.threads)
                    .map(|o| (outcome_fingerprint(&o), o.stats))
            };
            let cpu = (sys::process_cpu() - c0).as_secs_f64();
            let ok = match &result {
                Ok((fp, stats)) => {
                    round_counts.add_search(stats);
                    if traced {
                        explorations.push(stats.clone());
                    }
                    let acc = if kind == Kind::Grid { &mut grid } else { &mut evolve };
                    acc[0] += stats.evaluated as f64;
                    acc[1] += cpu;
                    fp == reference[j].get_or_insert_with(|| fp.clone())
                }
                Err(e) => {
                    eprintln!("search: exploration failed: {e}");
                    false
                }
            };
            if !ok {
                eprintln!("search: self-check failed for {} {kind:?}", fixtures[c].entry.label());
            }
            rep.check(ok);
        }
        let cpu = (sys::process_cpu() - r0).as_secs_f64();
        if traced {
            traced_cpu.push(cpu);
            stages.push(&tracer.totals_since(mark), &explorations);
            counts.get_or_insert(round_counts);
        } else {
            round_cpu.push((k, cpu));
            evolve_cpu.push((k, evolve[1] * 1e3));
            grid_rate.push(ratio(grid[0], grid[1]));
            evolve_rate.push(ratio(evolve[0], evolve[1]));
        }
        round += 1;
    }
    let window_cpu = (sys::process_cpu() - cpu0).as_secs_f64();
    let window_wall = window.elapsed().as_secs_f64();

    rep.metric("pass_cpu_s", seed_mean(&round_cpu));
    rep.metric("op_p50_ms", seed_mean(&evolve_cpu));
    let evolve_all: Vec<f64> = evolve_cpu.iter().map(|s| s.1).collect();
    rep.metric("op_tail_ms", quantile(&evolve_all, 0.9));
    rep.metric("cands_per_cpu_s", median(&grid_rate));
    rep.metric("ok_frac", ratio((rep.attempted - rep.failed) as f64, rep.attempted as f64));
    rep.metric("bench.parallelism", ratio(window_cpu, window_wall));
    if opts.trace {
        stages.record(&mut rep);
        rep.metric(
            "core.archive_insert_us",
            ratio(timing.insert_ns as f64 / 1e3, timing.inserts as f64),
        );
        rep.metric("core.hypervolume_us", ratio(timing.hv_ns as f64 / 1e3, timing.hv_calls as f64));
        let untraced: Vec<f64> = round_cpu.iter().map(|s| s.1).collect();
        rep.metric("bench.trace_overhead_frac", median(&traced_cpu) / median(&untraced) - 1.0);
        counts.unwrap_or_default().record(&mut rep);
    }
    eprintln!(
        "search: {round} rounds, setup {setup_s:.2}s, round cpu {:.3}s, \
         grid_cands_per_cpu_s {:.1}, evolve_cands_per_cpu_s {:.1}",
        seed_mean(&round_cpu),
        median(&grid_rate),
        median(&evolve_rate)
    );
    Outcome { report: rep, tracer }
}
