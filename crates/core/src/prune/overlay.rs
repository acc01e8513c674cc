//! Overlay-based incremental candidate evaluation.
//!
//! The rebuild pipeline rebuilds every pruning candidate from scratch:
//! `apply_set` re-synthesizes the netlist, `CompiledNetlist::compile`
//! builds a fresh tape, the full test set is re-quantized, re-packed
//! and re-simulated, and area/power/STA walk the new netlist. For the
//! paper's grid (thousands of `(τc, φc)` designs per circuit) that
//! per-candidate setup dominates the exploration wall-clock.
//!
//! [`OverlayContext`] amortizes everything that does not actually
//! depend on the candidate, and a [`DeltaSession`] carries what the
//! previous candidate left behind:
//!
//! * the **base tape** is compiled once, and one unfused run of the
//!   test stimulus is recorded as a [`BaseTrace`](pax_sim::BaseTrace).
//!   Each session rolls a [`DeltaSim`] over that trace: pruned gates
//!   pin to their dominant constant via two reserved constant slots,
//!   and only the slots downstream of the change since the session's
//!   last mask re-execute. Outputs and switching activity are
//!   bit-identical to a full masked run of the rebuilt netlist;
//! * the candidate's **surviving structure** comes from the symbolic
//!   fold ([`FoldedCircuit`]) — node-for-node the netlist `apply_set`
//!   would have built, without building it — replayed by the session's
//!   [`Refolder`] from the first substitution that differs from its
//!   last fold. The area/power walks add the very same cell figures in
//!   the very same order;
//! * switching activity maps from masked base slots onto surviving
//!   gates through the fold's [`Provenance`] (inversion preserves
//!   toggle counts exactly);
//! * timing is **re-timed incrementally**: only the affected cone (the
//!   pruned set's transitive fanout) is recomputed through
//!   [`pax_sta::DelayTable`]; every other gate reuses the base
//!   circuit's arrival time.
//!
//! A new session has no history, so its first evaluation is a fresh
//! fold and a full cone re-execution.
//! The result is **bit-for-bit identical** to the rebuild pipeline on
//! all four measured axes (accuracy, area, power, delay), whatever the
//! session evaluated before — pinned by the differential property
//! suite in `crates/core/tests/proptest_overlay.rs` and by the golden
//! cardio svm-r design point. The rebuild pipeline itself stays in
//! `search.rs` as that suite's oracle
//! ([`try_evaluate_set_rebuild`](super::try_evaluate_set_rebuild)).
//!
//! [`Provenance`]: pax_netlist::fold::Provenance

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use egt_pdk::{Library, PdkError, TechParams};
use pax_bespoke::{score_outputs, stimulus_for};
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::fold::{FoldedCircuit, Refolder};
use pax_netlist::traverse::Fanout;
use pax_netlist::{GateKind, NetId, Netlist};
use pax_obs::Phases;
use pax_sim::power::PowerReport;
use pax_sim::{Activity, BaseTrace, CompiledNetlist, DeltaSim};
use pax_sta::DelayTable;

use super::{PruneAnalysis, PruneEval};
use crate::error::StudyError;

/// The phases one candidate evaluation splits into, in reporting
/// order. `resolve` (genome → gate set) is accounted by the
/// [`Evaluator`](crate::explore::Evaluator); the remaining four are
/// accounted here per [`OverlayContext::evaluate`] call. The timers are
/// relaxed atomics around unchanged code paths, so instrumentation
/// cannot perturb any measured value — the overlay-vs-rebuild
/// differential suite pins that.
pub const EVAL_PHASES: &[&str] = &["resolve", "fold", "masked-sim", "score", "re-time"];

/// [`EVAL_PHASES`] indices, kept adjacent to the list they index.
pub(crate) mod phase {
    /// Genome → sorted gate set (evaluator-side).
    pub const RESOLVE: usize = 0;
    /// Symbolic fold of the surviving structure.
    pub const FOLD: usize = 1;
    /// Masked execution of the shared tape.
    pub const MASKED_SIM: usize = 2;
    /// Output scoring against the golden model.
    pub const SCORE: usize = 3;
    /// Affected-cone walk: area/power sums + incremental re-timing.
    pub const RE_TIME: usize = 4;
}

/// Copied per-kind area/power cell figures (delay lives in
/// [`DelayTable`]). Copies of the library's `f64`s produce the same
/// sums as fresh `require` lookups, so caching them is observationally
/// free.
#[derive(Debug, Clone, Copy)]
struct CellFigures {
    area_mm2: f64,
    static_uw: f64,
    sw_energy_nj: f64,
}

/// Per-kind cell figures resolved once per base circuit. Missing cells
/// surface as [`PdkError::UnknownCell`] only when a candidate actually
/// uses the kind — the same contract as `Library::require`.
#[derive(Debug, Clone)]
struct CellTable {
    cells: [Option<CellFigures>; GateKind::COUNT],
}

impl CellTable {
    fn new(lib: &Library) -> Self {
        let mut cells = [None; GateKind::COUNT];
        for &kind in GateKind::all() {
            if kind.is_free() {
                continue;
            }
            cells[kind as usize] = lib.cell(kind.mnemonic()).map(|c| CellFigures {
                area_mm2: c.area_mm2,
                static_uw: c.static_uw,
                sw_energy_nj: c.sw_energy_nj,
            });
        }
        Self { cells }
    }

    fn require(&self, kind: GateKind) -> Result<CellFigures, PdkError> {
        self.cells[kind as usize].ok_or_else(|| PdkError::UnknownCell(kind.mnemonic().to_owned()))
    }
}

/// Everything candidate evaluation shares across one base circuit:
/// the base netlist and model, the compiled tape with its recorded base
/// run, resolved cell figures, the base timing profile and the fanout
/// table the affected-cone analysis walks. Build once per
/// `(base circuit, test set)` pair; then [`evaluate`](Self::evaluate)
/// any number of pruned-gate sets through [`DeltaSession`]s without
/// re-synthesis or recompilation.
///
/// The context owns all of its inputs (the test set behind an `Arc`,
/// so many contexts share one copy) and is `'static`: evaluation jobs
/// can hold it on worker threads that outlive the caller's stack.
#[derive(Debug)]
pub struct OverlayContext {
    base: Netlist,
    model: QuantizedModel,
    test: Arc<Dataset>,
    tech: TechParams,
    tape: CompiledNetlist,
    /// One recorded unfused run of the base tape on the packed test
    /// set: per-word slot values plus base activity. Every session's
    /// rolling simulation starts from it.
    trace: BaseTrace,
    cells: CellTable,
    delays: DelayTable,
    /// Base-circuit arrival times (`pax_sta` on the unpruned netlist) —
    /// reused verbatim outside the affected cone.
    base_arrival: Vec<f64>,
    fanout: Fanout,
    /// Per-phase wall-time accounting across every `evaluate` call on
    /// this context (lock-free; workers record concurrently).
    phases: Phases,
    /// Folds that resumed a session's cached parent replay.
    delta_folds: AtomicU64,
    /// Folds that ran from scratch (new sessions and profitability
    /// fallbacks).
    full_folds: AtomicU64,
    /// Total substitution-delta nets across the delta folds (mean delta
    /// size = `delta_nets / delta_folds`).
    delta_nets: AtomicU64,
}

/// Cumulative delta-evaluation counters of one [`OverlayContext`],
/// for telemetry reporting. Unlike phase call counts, the delta/full
/// split depends on how candidates were chunked across workers, so
/// these never participate in determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaFoldStats {
    /// Evaluations that reused a cached parent fold.
    pub delta_folds: u64,
    /// Evaluations folded from scratch.
    pub full_folds: u64,
    /// Total symmetric-difference nets across the delta evaluations.
    pub delta_nets: u64,
}

impl DeltaFoldStats {
    /// The counter growth since an earlier snapshot of the same
    /// counters (saturating, so a stale snapshot cannot underflow).
    #[must_use]
    pub fn since(&self, start: &DeltaFoldStats) -> DeltaFoldStats {
        DeltaFoldStats {
            delta_folds: self.delta_folds.saturating_sub(start.delta_folds),
            full_folds: self.full_folds.saturating_sub(start.full_folds),
            delta_nets: self.delta_nets.saturating_sub(start.delta_nets),
        }
    }

    /// Merges another context's counters into this one.
    pub fn merge(&mut self, other: &DeltaFoldStats) {
        self.delta_folds += other.delta_folds;
        self.full_folds += other.full_folds;
        self.delta_nets += other.delta_nets;
    }

    /// Delta folds as a share of all folds (`None` before any fold).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.delta_folds + self.full_folds;
        (total > 0).then(|| self.delta_folds as f64 / total as f64)
    }

    /// Mean substitution-delta size across the delta folds.
    pub fn mean_delta(&self) -> Option<f64> {
        (self.delta_folds > 0).then(|| self.delta_nets as f64 / self.delta_folds as f64)
    }
}

/// One worker's rolling evaluation state against a single
/// [`OverlayContext`]: a rewindable fold replay ([`Refolder`]) plus a
/// rolling masked simulation ([`DeltaSim`]), both keyed to the last
/// evaluated mask. Create via [`OverlayContext::delta_session`], feed
/// to [`OverlayContext::evaluate`]; results are bit-identical to the
/// rebuild pipeline regardless of the session's history.
#[derive(Debug)]
pub struct DeltaSession {
    refolder: Refolder,
    sim: DeltaSim,
    /// The mask of the last evaluation (id-sorted), for sizing the
    /// delta before committing to a rewind.
    last_mask: Vec<(NetId, bool)>,
}

impl OverlayContext {
    /// Compiles the shared tape, records the base run of the test
    /// stimulus and profiles the base circuit's timing.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Sim`] when the stimulus cannot be packed
    /// against the base circuit's ports and [`StudyError::Library`]
    /// when the library does not cover the base circuit's cells.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature count differs from the model's
    /// (a caller bug, exactly like the rebuild path).
    pub fn new(
        base: Netlist,
        model: QuantizedModel,
        test: Arc<Dataset>,
        lib: &Library,
        tech: TechParams,
    ) -> Result<Self, StudyError> {
        let tape = CompiledNetlist::compile(&base);
        let trace = tape.trace(&tape.pack(&stimulus_for(&model, &test))?);
        let base_arrival = pax_sta::analyze(&base, lib, &tech)?.arrival_ms;
        let fanout = Fanout::build(&base);
        Ok(Self {
            base,
            model,
            test,
            tech,
            tape,
            trace,
            cells: CellTable::new(lib),
            delays: DelayTable::new(lib),
            base_arrival,
            fanout,
            phases: Phases::new(EVAL_PHASES),
            delta_folds: AtomicU64::new(0),
            full_folds: AtomicU64::new(0),
            delta_nets: AtomicU64::new(0),
        })
    }

    /// The base netlist this context evaluates prunings of.
    pub fn base(&self) -> &Netlist {
        &self.base
    }

    /// The model the base netlist hardwires.
    pub fn model(&self) -> &QuantizedModel {
        &self.model
    }

    /// The per-phase timing accumulators this context has gathered
    /// ([`EVAL_PHASES`] order; the `resolve` slot stays zero here).
    pub fn phases(&self) -> &Phases {
        &self.phases
    }

    /// Evaluates one sorted pruned-gate set through `session`: the
    /// rolling simulation re-executes only the slots downstream of the
    /// mask's symmetric difference to the session's last mask (giving
    /// accuracy and switching activity), the fold resumes the
    /// session's cached replay from the first divergent substitution
    /// (giving the surviving structure), and the critical path is
    /// re-timed in the affected cone only. Bit-identical to the rebuild
    /// pipeline (`try_evaluate_set_rebuild`) on every [`PruneEval`]
    /// field, regardless of what the session evaluated before (pinned
    /// by the session-chain differential tests). A new session is a
    /// fresh evaluation.
    ///
    /// When the symmetric difference exceeds `|set| + 2` a rewound
    /// replay would re-do more work than a fresh fold, so the refolder
    /// falls back to folding from scratch (the rolling simulation's
    /// worst case already matches the full masked pass and keeps its
    /// state either way).
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Library`] when the library lacks a cell a
    /// surviving gate needs — the same condition the rebuild path
    /// reports.
    pub fn evaluate(
        &self,
        analysis: &PruneAnalysis,
        set: &[NetId],
        session: &mut DeltaSession,
    ) -> Result<PruneEval, StudyError> {
        // `set` is sorted, so the (net, dominant) pairs are too.
        let mask: Vec<(NetId, bool)> = set.iter().map(|&g| (g, analysis.dominant(g))).collect();
        let symdiff = symdiff_len(&session.last_mask, &mask);
        if symdiff > set.len() + 2 {
            session.refolder.reset();
        }
        let affected = self.affected_cone(set);

        let (sim, activity) =
            self.phases.time(phase::MASKED_SIM, || session.sim.step(&self.tape, &mask));
        let (accuracy, _) =
            self.phases.time(phase::SCORE, || score_outputs(&self.model, &self.test, &sim));

        let folded = self.phases.time(phase::FOLD, || session.refolder.refold(&self.base, &mask));
        if session.refolder.last_resume().is_some() {
            self.delta_folds.fetch_add(1, Ordering::Relaxed);
            self.delta_nets.fetch_add(symdiff as u64, Ordering::Relaxed);
        } else {
            self.full_folds.fetch_add(1, Ordering::Relaxed);
        }
        session.last_mask = mask;

        self.survivor_walk(set.len(), &affected, accuracy, &activity, &folded)
    }

    /// Snapshots the cumulative delta/full fold counters.
    pub fn delta_stats(&self) -> DeltaFoldStats {
        DeltaFoldStats {
            delta_folds: self.delta_folds.load(Ordering::Relaxed),
            full_folds: self.full_folds.load(Ordering::Relaxed),
            delta_nets: self.delta_nets.load(Ordering::Relaxed),
        }
    }

    /// Creates a new evaluation session against this context (one per
    /// concurrent evaluation; sessions are not `Sync`).
    pub fn delta_session(&self) -> DeltaSession {
        DeltaSession {
            refolder: Refolder::new(),
            sim: DeltaSim::new(&self.tape, &self.trace),
            last_mask: Vec::new(),
        }
    }

    /// Affected cone: the pruned set's transitive fanout in the base
    /// circuit. Gates outside it hold values word-for-word identical
    /// to the base run (the activity delta merges their counts) and
    /// are isomorphic images of their base counterparts (re-timing
    /// reuses their base arrival times verbatim).
    fn affected_cone(&self, set: &[NetId]) -> Vec<bool> {
        let mut affected = vec![false; self.base.len()];
        let mut stack: Vec<NetId> = set.to_vec();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut affected[n.index()], true) {
                continue;
            }
            for &t in self.fanout.of(n) {
                if !affected[t.index()] {
                    stack.push(t);
                }
            }
        }
        affected
    }

    /// One walk over the fold's survivors in construction order: area
    /// and power sums plus incremental re-timing, assembled into the
    /// final [`PruneEval`], in the same f64 summation order as the
    /// rebuild path's separate area/power/STA walks.
    fn survivor_walk(
        &self,
        n_pruned: usize,
        affected: &[bool],
        accuracy: f64,
        activity: &Activity,
        folded: &FoldedCircuit,
    ) -> Result<PruneEval, StudyError> {
        let retime_start = std::time::Instant::now();
        let f_hz = self.tech.clock_hz();
        let mut area_mm2 = 0.0;
        let mut static_uw = 0.0;
        let mut dynamic_uw = 0.0;
        let mut arrival = vec![0.0f64; folded.len()];
        for (i, node) in folded.nodes().iter().enumerate() {
            let Some((kind, ins)) = node.gate() else { continue };
            if kind.is_free() {
                continue; // constants: no area, no power, no delay
            }
            let cell = self.cells.require(kind)?;
            area_mm2 += cell.area_mm2;
            static_uw += cell.static_uw;
            let prov = folded.provenance(i).expect("non-constant folded nodes carry provenance");
            // Toggle counts survive inversion, so the masked base slot
            // stands in for the surviving gate's output exactly.
            dynamic_uw += cell.sw_energy_nj * activity.toggle_rate(prov.source) * f_hz * 1e-3;
            if !prov.inverted && !affected[prov.source.index()] {
                arrival[i] = self.base_arrival[prov.source.index()];
            } else {
                let delay = self.delays.delay_ms(kind)?;
                let mut worst = 0.0;
                for &inp in ins {
                    if arrival[inp as usize] >= worst {
                        worst = arrival[inp as usize];
                    }
                }
                arrival[i] = worst + delay;
            }
        }
        let mut critical_ms = 0.0;
        for &bit in folded.output_bits() {
            if arrival[bit as usize] >= critical_ms {
                critical_ms = arrival[bit as usize];
            }
        }
        // The survivor walk carries a `?`, so it times via an explicit
        // start rather than a closure.
        self.phases.add(
            phase::RE_TIME,
            u64::try_from(retime_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );

        let power = PowerReport {
            static_mw: static_uw * 1e-3,
            dynamic_mw: dynamic_uw * 1e-3,
            io_floor_mw: self.tech.io_floor_mw,
        };
        Ok(PruneEval {
            area_mm2,
            power_mw: power.total_mw(),
            accuracy,
            gate_count: folded.gate_count(),
            critical_ms,
            n_pruned,
        })
    }
}

/// The number of `(net, value)` substitutions present in exactly one
/// of two id-sorted masks (a net re-valued on both sides counts once) —
/// the same measure [`DeltaSim`] reports as its delta size.
fn symdiff_len(old: &[(NetId, bool)], new: &[(NetId, bool)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < old.len() && j < new.len() {
        match old[i].0.cmp(&new[j].0) {
            std::cmp::Ordering::Less => {
                n += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                n += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                n += usize::from(old[i].1 != new[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    n + (old.len() - i) + (new.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{analyze, enumerate_grid, try_evaluate_set_rebuild, PruneConfig};
    use pax_bespoke::BespokeCircuit;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;

    fn setup() -> (BespokeCircuit, Dataset, Dataset) {
        let data = blobs("ov", 280, 3, 3, 0.09, 53);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = pax_ml::train::svm::train_svm_classifier(
            &train,
            &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
            3,
        );
        let q =
            pax_ml::quant::QuantizedModel::from_linear_classifier("ov", &m, QuantSpec::default());
        let c = BespokeCircuit::generate(&q);
        let c = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
        (c, train, test)
    }

    fn context(c: &BespokeCircuit, test: &Dataset, lib: &Library) -> OverlayContext {
        let tech = egt_pdk::TechParams::egt();
        OverlayContext::new(c.netlist.clone(), c.model.clone(), Arc::new(test.clone()), lib, tech)
            .unwrap()
    }

    fn assert_bit_equal(got: &PruneEval, want: &PruneEval, what: &str) {
        assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits(), "{what}: accuracy");
        assert_eq!(got.area_mm2.to_bits(), want.area_mm2.to_bits(), "{what}: area");
        assert_eq!(got.power_mw.to_bits(), want.power_mw.to_bits(), "{what}: power");
        assert_eq!(got.critical_ms.to_bits(), want.critical_ms.to_bits(), "{what}: delay");
        assert_eq!(got.gate_count, want.gate_count, "{what}: gate count");
        assert_eq!(got.n_pruned, want.n_pruned, "{what}: n_pruned");
    }

    #[test]
    fn overlay_is_bit_identical_to_rebuild_across_the_grid() {
        let (c, train, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let ctx = context(&c, &test, &lib);
        for set in &grid.sets {
            // A new session per set: the fresh-evaluation shape.
            let overlay = ctx.evaluate(&a, set, &mut ctx.delta_session()).unwrap();
            let rebuild =
                try_evaluate_set_rebuild(&c.netlist, &c.model, &test, &lib, &tech, &a, set)
                    .unwrap();
            assert_bit_equal(&overlay, &rebuild, &format!("|set| = {}", set.len()));
        }
        assert!(!grid.sets.is_empty());
        let stats = ctx.delta_stats();
        assert_eq!(stats.delta_folds, 0, "new sessions have nothing to resume");
        assert_eq!(stats.full_folds, grid.sets.len() as u64);
    }

    #[test]
    fn session_chain_is_bit_identical_to_fresh_evaluate() {
        let (c, train, test) = setup();
        let lib = egt_pdk::egt_library();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let ctx = context(&c, &test, &lib);
        let mut session = ctx.delta_session();
        // Forward then reverse: the forward leg resumes neighbouring
        // sets with small deltas, the reverse leg jumps between mostly
        // disjoint sets and exercises the profitability fallback.
        for set in grid.sets.iter().chain(grid.sets.iter().rev()) {
            let fresh = ctx.evaluate(&a, set, &mut ctx.delta_session()).unwrap();
            let delta = ctx.evaluate(&a, set, &mut session).unwrap();
            assert_bit_equal(&delta, &fresh, &format!("|set| = {}", set.len()));
        }
        let stats = ctx.delta_stats();
        assert!(stats.delta_folds > 0, "the chain should resume at least one fold");
        assert_eq!(
            stats.delta_folds + stats.full_folds,
            4 * grid.sets.len() as u64,
            "every fold (new-session oracle + chain) lands in exactly one counter"
        );
        assert!(stats.hit_rate().unwrap() > 0.0);
        assert!(stats.mean_delta().unwrap() > 0.0);
    }

    #[test]
    fn missing_library_cells_error_instead_of_panicking() {
        let (c, _, test) = setup();
        let empty = Library::new("empty", 1.0);
        // The base timing profile already needs the library.
        let err = OverlayContext::new(
            c.netlist.clone(),
            c.model.clone(),
            Arc::new(test),
            &empty,
            egt_pdk::TechParams::egt(),
        )
        .expect_err("empty library cannot profile the base circuit");
        assert!(matches!(err, StudyError::Library(PdkError::UnknownCell(_))));
    }
}
