//! End-to-end exploration-engine invariants: the engine-driven default
//! study reproduces the legacy grid sweep exactly, the 2-D objective
//! set reproduces the historical archive front and hypervolume
//! bit-for-bit, N-D objective spaces drive dominance and selection,
//! evolutionary search is deterministic and budgeted, strategies share
//! one engine's cache, and malformed inputs surface typed errors
//! instead of panics.

use pax_bespoke::BespokeCircuit;
use pax_core::explore::{
    CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config, ObjectiveSet,
    ParetoArchive,
};
use pax_core::framework::{Framework, FrameworkConfig, SearchConfig};
use pax_core::prune::{analyze, enumerate_grid, try_evaluate_set_rebuild};
use pax_core::{DesignPoint, StudyError, Technique};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::Dataset;

fn model_and_data(seed: u64) -> (QuantizedModel, Dataset, Dataset) {
    let data = blobs("ex", 320, 4, 3, 0.09, seed);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        4,
    );
    (QuantizedModel::from_linear_classifier("ex", &m, QuantSpec::default()), train, test)
}

/// The paper's pruning flow, reconstructed from the public grid APIs
/// and the rebuild oracle: analyze → enumerate_grid → rebuild each
/// distinct set → points.
fn legacy_prune_series(
    fw: &Framework,
    model: &QuantizedModel,
    train: &Dataset,
    test: &Dataset,
    technique: Technique,
) -> Vec<DesignPoint> {
    let circuit = {
        let c = BespokeCircuit::generate(model);
        c.with_netlist(pax_synth::opt::optimize(&c.netlist))
    };
    let analysis = analyze(&circuit.netlist, model, train);
    let grid = enumerate_grid(&analysis, &fw.config().prune);
    let evals: Vec<_> = grid
        .sets
        .iter()
        .map(|set| {
            try_evaluate_set_rebuild(
                &circuit.netlist,
                model,
                test,
                fw.library(),
                &fw.config().tech,
                &analysis,
                set,
            )
            .unwrap()
        })
        .collect();
    grid.combos
        .iter()
        .map(|combo| {
            let e = &evals[combo.set];
            DesignPoint {
                technique,
                tau_c: Some(combo.tau_c),
                phi_c: Some(combo.phi_c),
                coeff: None,
                accuracy: e.accuracy,
                area_mm2: e.area_mm2,
                power_mw: e.power_mw,
                gate_count: e.gate_count,
                critical_ms: e.critical_ms,
            }
        })
        .collect()
}

#[test]
fn engine_reproduces_legacy_pareto_front_exactly() {
    let (q, train, test) = model_and_data(71);
    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.run_study(&q, &train, &test);

    // The baseline pruning series is bit-for-bit the legacy sweep.
    let legacy = legacy_prune_series(&fw, &q, &train, &test, Technique::PruneOnly);
    assert_eq!(study.prune_only, legacy);

    // And so is the resulting Pareto front.
    let mut legacy_archive = ParetoArchive::new();
    legacy_archive.extend(legacy.iter().cloned());
    let study_prune_front: Vec<DesignPoint> = {
        let mut a = ParetoArchive::new();
        a.extend(study.prune_only.iter().cloned());
        a.into_front()
    };
    assert_eq!(study_prune_front, legacy_archive.into_front());
}

#[test]
fn strategies_share_one_engines_cache() {
    let (q, train, test) = model_and_data(17);
    let fw = Framework::new(FrameworkConfig::default());
    let circuit = {
        let c = BespokeCircuit::generate(&q);
        c.with_netlist(pax_synth::opt::optimize(&c.netlist))
    };
    let analysis = analyze(&circuit.netlist, &q, &train);
    let evaluator = Evaluator::new(
        fw.library(),
        &fw.config().tech,
        &test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &circuit.netlist,
            model: &q,
            analysis,
        }],
    );
    let mut engine = Engine::new(&evaluator, &fw.config().prune);

    let grid = engine.run(&mut ExhaustiveGrid::new()).expect("grid runs");
    assert!(grid.stats.evaluated > 0);
    assert_eq!(grid.stats.generations, 1);

    // The evolutionary pass afterwards re-measures nothing the grid
    // already paid for: every grid-covered genome is a cache hit.
    let mut evo = Nsga2::new(Nsga2Config {
        population: 8,
        generations: 3,
        max_evals: 0, // unlimited; the cache does the limiting
        seed: 5,
        ..Default::default()
    });
    let before = engine.cache().len();
    let evo_outcome = engine.run(&mut evo).expect("evolution runs");
    assert!(evo_outcome.stats.cache_hits > 0, "shared engine must serve repeat designs from cache");
    assert!(engine.cache().len() >= before);

    // The cache's own ledger reconciles exactly with the per-run search
    // stats: every fresh evaluation is stored once, and every repeat —
    // whether a duplicate within one batch or a revisit across runs —
    // is counted as exactly one hit.
    assert_eq!(
        engine.cache().len(),
        grid.stats.evaluated + evo_outcome.stats.evaluated,
        "cache entries == total fresh evaluations"
    );
    assert_eq!(
        engine.cache().hits(),
        grid.stats.cache_hits + evo_outcome.stats.cache_hits,
        "cache hit counter == summed per-run hits"
    );

    // Both archives agree with the batch front over their own points.
    for outcome in [&grid, &evo_outcome] {
        let pts: Vec<DesignPoint> = outcome.points.iter().map(|(_, p)| p.clone()).collect();
        let batch: Vec<(f64, f64)> = pax_core::pareto::pareto_front(&pts)
            .into_iter()
            .map(|i| (pts[i].accuracy, pts[i].area_mm2))
            .collect();
        let incr: Vec<(f64, f64)> =
            outcome.archive.front().iter().map(|p| (p.accuracy, p.area_mm2)).collect();
        assert_eq!(incr, batch);
    }
}

#[test]
fn evolutionary_studies_reproduce_for_a_fixed_seed() {
    let (q, train, test) = model_and_data(29);
    let fw = Framework::new(FrameworkConfig::default());
    let search = SearchConfig::nsga2(Nsga2Config {
        population: 8,
        generations: 3,
        max_evals: 16,
        seed: 1234,
        ..Default::default()
    });
    let a = fw.run_study_with(&q, &train, &test, &search);
    let b = fw.run_study_with(&q, &train, &test, &search);
    assert_eq!(a.prune_only, b.prune_only);
    assert_eq!(a.cross, b.cross);
    assert_eq!(a.pareto_front(), b.pareto_front());
    // Cache accounting is part of the reproducibility contract: the
    // same seed must walk the same hit/miss sequence, not just land on
    // the same front.
    let ledger = |s: &pax_core::framework::CircuitStudy| -> Vec<(String, usize, usize, usize)> {
        s.stats
            .search
            .iter()
            .map(|st| (st.strategy.clone(), st.asked, st.evaluated, st.cache_hits))
            .collect()
    };
    assert_eq!(ledger(&a), ledger(&b), "repeated runs must replay identical cache ledgers");
    // Different seeds explore different genome streams (they may still
    // converge to the same front, but the visited τc genes differ).
    // `PAX_SEARCH_SEED` overrides every configured seed, so the
    // divergence assertion only holds when it is unset (the pinned-seed
    // CI job runs this suite with it exported).
    if std::env::var("PAX_SEARCH_SEED").is_err() {
        let other = SearchConfig::nsga2(Nsga2Config {
            population: 8,
            generations: 3,
            max_evals: 16,
            seed: 4321,
            ..Default::default()
        });
        let c = fw.run_study_with(&q, &train, &test, &other);
        let taus = |s: &pax_core::framework::CircuitStudy| -> Vec<f64> {
            s.cross.iter().filter_map(|p| p.tau_c).collect()
        };
        assert_ne!(taus(&a), taus(&c), "seeds must steer the search");
    }
}

/// The pre-N-D 2-D archive, reimplemented verbatim from the original
/// source as a golden oracle: sorted (area, -accuracy) insertion with
/// eviction, and the skip-based hypervolume sweep. The generalized
/// [`ParetoArchive`] under the default (accuracy, area) objectives
/// must reproduce both bit-for-bit, or every recorded
/// `BENCH_explore.json` number silently stops being comparable.
struct LegacyArchive {
    points: Vec<DesignPoint>,
}

impl LegacyArchive {
    fn new() -> Self {
        Self { points: Vec::new() }
    }

    fn insert(&mut self, p: DesignPoint) {
        let pos =
            self.points.partition_point(|q| (q.area_mm2, -q.accuracy) < (p.area_mm2, -p.accuracy));
        if self.points[..pos].last().is_some_and(|q| q.accuracy >= p.accuracy)
            || self.points[pos..]
                .first()
                .is_some_and(|q| q.area_mm2 <= p.area_mm2 && q.accuracy >= p.accuracy)
        {
            return;
        }
        let evict_end = pos
            + self.points[pos..]
                .iter()
                .take_while(|q| q.accuracy <= p.accuracy && q.area_mm2 >= p.area_mm2)
                .count();
        self.points.splice(pos..evict_end, std::iter::once(p));
    }

    fn hypervolume(&self, ref_area: f64, ref_accuracy: f64) -> f64 {
        let mut hv = 0.0;
        let mut prev_acc = ref_accuracy;
        for p in &self.points {
            if p.area_mm2 >= ref_area || p.accuracy <= prev_acc {
                continue;
            }
            hv += (ref_area - p.area_mm2) * (p.accuracy - prev_acc);
            prev_acc = p.accuracy;
        }
        hv
    }
}

#[test]
fn golden_2d_objective_set_reproduces_the_legacy_archive_bit_for_bit() {
    let (q, train, test) = model_and_data(83);
    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.run_study(&q, &train, &test);
    // Every measured design of the study, in study order — the same
    // stream the engine's archive consumed.
    let all: Vec<DesignPoint> = study.all_points().into_iter().cloned().collect();

    let mut legacy = LegacyArchive::new();
    let mut current = ParetoArchive::new();
    let mut explicit = ParetoArchive::with_objectives(ObjectiveSet::accuracy_area());
    for p in &all {
        legacy.insert(p.clone());
        current.insert(p.clone());
        explicit.insert(p.clone());
    }
    let pairs = |pts: &[DesignPoint]| -> Vec<(u64, u64)> {
        pts.iter().map(|p| (p.accuracy.to_bits(), p.area_mm2.to_bits())).collect()
    };
    assert_eq!(pairs(current.front()), pairs(&legacy.points), "front must be bit-identical");
    assert_eq!(pairs(explicit.front()), pairs(&legacy.points));

    let ref_area = all.iter().map(|p| p.area_mm2).fold(0.0, f64::max) * 1.01;
    for ref_acc in [0.0, 0.5, study.baseline.accuracy] {
        let golden = legacy.hypervolume(ref_area, ref_acc);
        assert_eq!(
            current.hypervolume(&[ref_acc, ref_area]).to_bits(),
            golden.to_bits(),
            "hypervolume must be bit-identical at ref_acc {ref_acc}"
        );
        assert_eq!(explicit.hypervolume(&[ref_acc, ref_area]).to_bits(), golden.to_bits());
    }
}

#[test]
fn masked_4d_nsga2_matches_the_native_2d_run() {
    let (q, train, test) = model_and_data(59);
    let fw = Framework::new(FrameworkConfig::default());
    let evo = Nsga2Config {
        population: 8,
        generations: 3,
        max_evals: 16,
        seed: 97,
        ..Default::default()
    };
    // A 4-D objective set restricted by weights to (accuracy, area)
    // must behave exactly like the native 2-D set: same dominance,
    // same crowding, same genome stream under one seed.
    let native = fw.run_study_with(&q, &train, &test, &SearchConfig::nsga2(evo.clone()));
    let masked = fw.run_study_with(
        &q,
        &train,
        &test,
        &SearchConfig::nsga2(evo)
            .with_objectives(ObjectiveSet::all().with_weights(&[1.0, 1.0, 0.0, 0.0])),
    );
    assert_eq!(native.prune_only, masked.prune_only);
    assert_eq!(native.cross, masked.cross);
    assert_eq!(native.pareto_front(), masked.pareto_front());
    // Dominated-equal both ways: no native front point dominates a
    // masked front point, and vice versa (trivially true given
    // equality, but this is the contract the equality pins down).
    let objectives = ObjectiveSet::accuracy_area();
    for a in native.pareto_front() {
        for b in masked.pareto_front() {
            assert!(
                !objectives.dominates(&a, &b) || native.pareto_front() != masked.pareto_front()
            );
        }
    }
    // Only the axis bookkeeping may differ: the masked run reports the
    // same enabled labels as the native one.
    for (sa, sb) in native.stats.search.iter().zip(&masked.stats.search) {
        assert_eq!(sa.objectives, sb.objectives);
        assert_eq!(sa.axes, sb.axes);
    }
}

#[test]
fn nd_objective_sets_drive_engine_and_evolutionary_search() {
    let (q, train, test) = model_and_data(37);
    let fw = Framework::new(FrameworkConfig::default());
    let circuit = {
        let c = BespokeCircuit::generate(&q);
        c.with_netlist(pax_synth::opt::optimize(&c.netlist))
    };
    let analysis = analyze(&circuit.netlist, &q, &train);
    let evaluator = Evaluator::new(
        fw.library(),
        &fw.config().tech,
        &test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &circuit.netlist,
            model: &q,
            analysis,
        }],
    );
    for objectives in [ObjectiveSet::accuracy_area_power(), ObjectiveSet::all()] {
        let mut engine =
            Engine::with_objectives(&evaluator, &fw.config().prune, objectives.clone());
        let grid = engine.run(&mut ExhaustiveGrid::new()).expect("grid runs");
        let pts: Vec<DesignPoint> = grid.points.iter().map(|(_, p)| p.clone()).collect();

        // The incremental N-D archive equals the batch N-D filter.
        let batch = pax_core::pareto::pareto_front_with(&pts, &objectives);
        let mut batch_keys: Vec<Vec<f64>> =
            batch.iter().map(|&i| objectives.keys(&pts[i])).collect();
        batch_keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        let mut front_keys: Vec<Vec<f64>> =
            grid.archive.front().iter().map(|p| objectives.keys(p)).collect();
        front_keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        assert_eq!(front_keys, batch_keys);

        // Per-axis stats cover exactly the enabled axes.
        assert_eq!(grid.stats.objectives.len(), objectives.dim());
        assert_eq!(grid.stats.axes.len(), objectives.dim());

        // An N-D front is never smaller than the 2-D front over the
        // same points (extra axes only add trade-offs).
        let mut two = ParetoArchive::new();
        two.extend(pts.iter().cloned());
        assert!(grid.archive.len() >= two.len());

        // The evolutionary pass ranks on the same N-D space and reuses
        // the engine cache; its front must also be mutually
        // non-dominated under these objectives.
        let mut evo = Nsga2::new(Nsga2Config {
            population: 8,
            generations: 3,
            max_evals: 0,
            seed: 11,
            ..Default::default()
        });
        let evo_outcome = engine.run(&mut evo).expect("evolution runs");
        assert!(evo_outcome.stats.cache_hits > 0, "grid measurements are shared");
        let front = evo_outcome.archive.front();
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                assert!(i == j || !objectives.dominates(a, b), "front self-dominates");
            }
        }

        // Hypervolume over a box derived from the observed worsts is
        // positive, and an over-tight reference box is a typed error.
        let mut reference: Vec<f64> = Vec::new();
        for (k, axis) in objectives.labels().iter().enumerate() {
            let worst = match *axis {
                "accuracy" => 0.0,
                _ => pts.iter().map(|p| objectives.values(p)[k]).fold(0.0, f64::max) * 1.01,
            };
            reference.push(worst);
        }
        assert!(grid.archive.hypervolume(&reference) > 0.0);
        assert!(matches!(
            grid.archive.try_hypervolume(&vec![0.0; objectives.dim() + 1]),
            Err(pax_core::explore::HypervolumeError::DimensionMismatch { .. })
        ));
    }
}

#[test]
fn warm_started_search_revisits_the_seeded_front() {
    let (q, train, test) = model_and_data(61);
    let fw = Framework::new(FrameworkConfig::default());
    let circuit = {
        let c = BespokeCircuit::generate(&q);
        c.with_netlist(pax_synth::opt::optimize(&c.netlist))
    };
    let analysis = analyze(&circuit.netlist, &q, &train);
    let evaluator = Evaluator::new(
        fw.library(),
        &fw.config().tech,
        &test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &circuit.netlist,
            model: &q,
            analysis,
        }],
    );

    // A cold grid sweep supplies the front to warm-start from.
    let mut engine = Engine::new(&evaluator, &fw.config().prune);
    let grid = engine.run(&mut ExhaustiveGrid::new()).expect("grid runs");
    let front = grid.archive.front();
    assert!(!front.is_empty());
    // Keep the seed set below the population so `initial_population`'s
    // closing truncation can never drop one.
    let cfg =
        Nsga2Config { population: 8, generations: 2, max_evals: 0, seed: 7, ..Default::default() };
    let seeds: Vec<DesignPoint> = front.iter().take(cfg.population / 2).cloned().collect();

    // A fresh engine, so the warm start's evaluations are its own, not
    // cache replays of the sweep above.
    let mut warm_engine = Engine::new(&evaluator, &fw.config().prune);
    let outcome =
        warm_engine.run(&mut Nsga2::new(cfg.clone()).with_seed_front(&seeds)).expect("warm run");
    for p in &seeds {
        assert!(
            outcome.points.iter().any(|(_, q)| q.tau_c == p.tau_c && q.phi_c == p.phi_c),
            "seeded design (tau={:?}, phi={:?}) must be measured in generation 0",
            p.tau_c,
            p.phi_c
        );
    }

    // Warm starting is part of the deterministic-study contract: the
    // framework-level builder replays bit-for-bit.
    let search = SearchConfig::nsga2(cfg).seed_front(&seeds);
    let a = fw.run_study_with(&q, &train, &test, &search);
    let b = fw.run_study_with(&q, &train, &test, &search);
    assert_eq!(a.prune_only, b.prune_only);
    assert_eq!(a.cross, b.cross);
    assert_eq!(a.pareto_front(), b.pareto_front());
}

#[test]
fn uncovered_library_surfaces_a_typed_error() {
    let (q, train, test) = model_and_data(43);
    // A library without the bespoke cells used to abort the whole study
    // through `expect("library covers cells")`; it must now surface as
    // a typed error through the fallible study entry points.
    let sparse =
        Framework::with_library(egt_pdk::Library::new("sparse", 1.0), FrameworkConfig::default());
    match sparse.try_run_study(&q, &train, &test) {
        Err(StudyError::Library(_)) => {}
        other => panic!("expected StudyError::Library, got {other:?}"),
    }
    // The healthy path still works through the fallible API.
    let fw = Framework::new(FrameworkConfig::default());
    let ok = fw.try_run_study(&q, &train, &test).expect("valid study");
    assert!(!ok.cross.is_empty());
}
