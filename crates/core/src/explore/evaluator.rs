//! Candidate evaluation: genome → pruned gate set → measured
//! [`DesignPoint`], deduplicated by content and parallel across a
//! worker pool.
//!
//! Every evaluation measures all four quality axes — accuracy, area,
//! power and critical-path delay — regardless of which
//! [`ObjectiveSet`](super::ObjectiveSet) the engine ranks by. That is
//! what makes objective spaces swappable after the fact: re-ranking
//! cached designs under a different axis selection
//! ([`Engine::set_objectives`](super::Engine::set_objectives)) costs
//! no fresh synthesis or simulation.
//!
//! There is one production path. Each base circuit lives in one shared,
//! owned context: its netlist and model inside an [`OverlayContext`],
//! its pruning analysis, and a last-in-first-out pool of
//! [`DeltaSession`]s. Fresh work is sorted in lattice order and turned
//! into one `'static` job per candidate; a job pops a session,
//! evaluates, and pushes the session back, so the next job — the
//! candidate's lattice neighbour — resumes from it. The jobs run on
//! the evaluator's scoped workers, or on an attached [`EvalFabric`].
//! The rebuild pipeline is the oracle
//! ([`Evaluator::evaluate_rebuild`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use egt_pdk::{Library, TechParams};
use parking_lot::Mutex;
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::{NetId, Netlist};

use pax_obs::{Phases, PhasesSnapshot};

use super::fabric::{EvalFabric, FabricError, FabricJob};
use super::{Candidate, CoeffGene, ContextSpace, SearchSpace, MAX_COEFF_LAYERS};
use crate::coeff_approx::approximate_model_layers;
use crate::error::StudyError;
use crate::mult_cache::MultCache;
use crate::prune::{
    phase, try_evaluate_set_rebuild, DeltaFoldStats, DeltaSession, OverlayContext, PruneAnalysis,
    PruneConfig, PruneEval, EVAL_PHASES,
};
use crate::{DesignPoint, Technique};

/// One caller-provided base circuit a candidate can be pruned from —
/// e.g. the exact bespoke baseline ([`CoeffGene::exact`]) or a
/// pre-approximated circuit (conventionally [`CoeffGene::uniform`]`(1)`
/// in two-context setups) — with its pruning analysis computed once up
/// front. Further coefficient levels need no `EvalContext` at all:
/// [`Evaluator::with_coeff_axis`] materializes them lazily per gene.
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// The coefficient gene selecting this context.
    pub coeff: CoeffGene,
    /// The (optimized) base netlist candidates prune.
    pub netlist: &'a Netlist,
    /// The model the netlist hardwires (the approximated model for
    /// non-exact contexts).
    pub model: &'a QuantizedModel,
    /// τ/φ metrics of the base netlist (training-set simulation).
    pub analysis: PruneAnalysis,
}

/// The graded coefficient-approximation axis: everything the evaluator
/// needs to materialize a base circuit for any [`CoeffGene`] on demand.
/// Attached via [`Evaluator::with_coeff_axis`], which enumerates one
/// lazy context per per-layer level combination.
#[derive(Debug)]
pub struct CoeffAxis<'a> {
    /// The *exact* base model every per-level approximation derives
    /// from.
    pub model: &'a QuantizedModel,
    /// Training set driving each materialized circuit's τ/φ analysis
    /// (the same set the caller analyzed its given contexts with).
    pub train: &'a Dataset,
    /// Shared bespoke-multiplier area cache (thread-safe; concurrent
    /// materializations share it).
    pub cache: &'a MultCache,
    /// Neighbourhood half-width of each graded level: `levels[k - 1]`
    /// is the `e` gene level `k` applies (level 0 is always exact).
    /// Must be non-empty, strictly positive and ascending.
    pub levels: Vec<i64>,
}

/// One base circuit's shared evaluation state, owned and `'static` so
/// evaluation jobs can carry it to any worker: the overlay (which owns
/// the base netlist and model), the pruning analysis, and a pool of
/// evaluation sessions. A failed overlay build (a library gap, a
/// malformed stimulus) is kept and reported by every evaluation on the
/// context.
#[derive(Debug)]
struct SharedContext {
    overlay: Result<OverlayContext, StudyError>,
    analysis: PruneAnalysis,
    /// Idle sessions, last in first out: the session a job pops is the
    /// one that evaluated the most recently finished candidate, which
    /// in lattice order is the closest neighbour available.
    sessions: Mutex<Vec<DeltaSession>>,
}

impl SharedContext {
    fn new(
        netlist: Netlist,
        model: QuantizedModel,
        analysis: PruneAnalysis,
        test: &Arc<Dataset>,
        lib: &Library,
        tech: &TechParams,
    ) -> Self {
        let overlay = OverlayContext::new(netlist, model, Arc::clone(test), lib, tech.clone());
        Self { overlay, analysis, sessions: Mutex::new(Vec::new()) }
    }

    fn overlay(&self) -> Result<&OverlayContext, StudyError> {
        self.overlay.as_ref().map_err(Clone::clone)
    }

    /// Evaluates one sorted gate set on a pooled session (a new one
    /// when every pooled session is busy).
    fn evaluate(&self, set: &[NetId]) -> Result<PruneEval, StudyError> {
        let overlay = self.overlay()?;
        let mut session = self.sessions.lock().pop().unwrap_or_else(|| overlay.delta_session());
        let result = overlay.evaluate(&self.analysis, set, &mut session);
        self.sessions.lock().push(session);
        result
    }
}

/// One slot of the evaluator's context table. Caller-provided contexts
/// are filled at construction; coefficient-axis contexts are
/// materialized on first access (the `OnceLock` keeps concurrent
/// workers from racing the synthesis).
#[derive(Debug)]
struct ContextSlot {
    gene: CoeffGene,
    shared: OnceLock<Arc<SharedContext>>,
}

/// Memoized evaluations of `(context, sorted pruned-gate set)`:
/// different `(τc, φc)` pairs — and different strategies sharing one
/// [`Engine`](super::Engine) — often select the same gates, which are
/// measured once. Entries are bucketed by a 64-bit content hash, and a
/// hit compares the stored context and set, so a hash collision can
/// never answer with another design's metrics.
///
/// Concurrency contract: the cache is only ever touched by the thread
/// driving [`Evaluator::evaluate_batch`] (it is `&mut` there). Workers
/// — in-process and fabric alike — never see it; they return
/// evaluations over a channel and the driving thread inserts them.
/// Hit/len accounting is therefore free of lost updates by
/// construction: duplicate keys inside one batch are collapsed *before*
/// any parallel work starts, so two workers never race an insert of
/// the same design, and `hits`/`len` are deterministic for a
/// deterministic candidate stream regardless of worker count or
/// fabric — the repeated-run equality suite asserts exactly that.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: HashMap<u64, Vec<CacheEntry>>,
    len: usize,
    hits: usize,
}

/// One stored evaluation with the exact design it measured.
#[derive(Debug)]
struct CacheEntry {
    ctx: usize,
    set: Vec<NetId>,
    eval: PruneEval,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of evaluations served from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored evaluation of `(ctx, set)` under content hash `key`.
    /// Hit accounting happens in the dedup walk of
    /// [`Evaluator::evaluate_batch`] — the one place that knows whether
    /// a design was already paid for — not here, so that
    /// post-evaluation result assembly cannot skew the counters.
    fn get(&self, key: u64, ctx: usize, set: &[NetId]) -> Option<&PruneEval> {
        let bucket = self.map.get(&key)?;
        bucket.iter().find(|e| e.ctx == ctx && e.set == set).map(|e| &e.eval)
    }

    fn insert(&mut self, key: u64, ctx: usize, set: Vec<NetId>, eval: PruneEval) {
        self.map.entry(key).or_default().push(CacheEntry { ctx, set, eval });
        self.len += 1;
    }
}

/// Maps [`Candidate`] genomes to measured [`DesignPoint`]s over N
/// gene-keyed base circuits — caller-provided ([`EvalContext`]) or
/// lazily materialized from a [`CoeffAxis`] — evaluating distinct
/// prunings in parallel and memoizing them in an [`EvalCache`].
#[derive(Debug)]
pub struct Evaluator<'a> {
    lib: &'a Library,
    tech: &'a TechParams,
    test: Arc<Dataset>,
    contexts: Vec<ContextSlot>,
    /// The graded coefficient axis backing the lazy slots; `None` for
    /// purely caller-provided evaluators.
    axis: Option<CoeffAxis<'a>>,
    /// The external pool fresh evaluations run on; `None` runs them on
    /// `threads` scoped workers.
    fabric: Option<Arc<dyn EvalFabric>>,
    threads: usize,
    /// Evaluator-side phase accounting (the `resolve` slot; the
    /// per-candidate measurement phases accumulate inside each
    /// context's overlay and merge in [`Evaluator::telemetry`]).
    phases: Phases,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over the given base circuits, building each
    /// one's shared overlay from owned copies of its netlist and model.
    /// `contexts` must be non-empty and hold at most one context per
    /// coefficient gene. Overlay construction failures (library gaps,
    /// malformed stimuli) surface per evaluation.
    pub fn new(
        lib: &'a Library,
        tech: &'a TechParams,
        test: &'a Dataset,
        contexts: Vec<EvalContext<'a>>,
    ) -> Self {
        assert!(!contexts.is_empty(), "evaluator needs at least one base circuit");
        for i in 1..contexts.len() {
            assert!(
                contexts[..i].iter().all(|c| c.coeff != contexts[i].coeff),
                "one context per coefficient gene"
            );
        }
        let test = Arc::new(test.clone());
        let contexts = contexts
            .into_iter()
            .map(|c| {
                let shared = SharedContext::new(
                    c.netlist.clone(),
                    c.model.clone(),
                    c.analysis,
                    &test,
                    lib,
                    tech,
                );
                ContextSlot { gene: c.coeff, shared: OnceLock::from(Arc::new(shared)) }
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(4, |t| t.get()).min(16);
        Self {
            lib,
            tech,
            test,
            contexts,
            axis: None,
            fabric: None,
            threads,
            phases: Phases::new(EVAL_PHASES),
        }
    }

    /// Opens the graded coefficient-approximation axis: one lazy
    /// context per per-layer level combination of `axis.levels` (for a
    /// two-layer model, the full `(level₀, level₁)` cross product; for
    /// a single-layer model, one context per level). Gene combinations
    /// a caller-provided context already covers are skipped, so the
    /// conventional exact [`EvalContext`] keeps serving the
    /// [`CoeffGene::exact`] corner. Each lazy context synthesizes,
    /// analyzes and builds the overlay of its base circuit only when a
    /// candidate (or the search space) first touches it.
    #[must_use]
    pub fn with_coeff_axis(mut self, axis: CoeffAxis<'a>) -> Self {
        assert!(!axis.levels.is_empty(), "coeff axis needs at least one graded level");
        assert!(
            axis.levels.iter().all(|&e| e > 0),
            "graded levels are positive widths (level 0 is always exact)"
        );
        assert!(axis.levels.windows(2).all(|w| w[0] < w[1]), "graded levels must ascend");
        assert!(axis.levels.len() <= usize::from(u8::MAX), "too many graded levels");
        let per_layer = axis.levels.len() as u8;
        let layers =
            axis.model.sum_shapes().iter().map(|&(layer, _, _)| layer + 1).max().unwrap_or(1);
        let mut genes = Vec::new();
        for l0 in 0..=per_layer {
            if layers >= 2 {
                for l1 in 0..=per_layer {
                    genes.push(CoeffGene::per_layer(&[l0, l1]));
                }
            } else {
                genes.push(CoeffGene::per_layer(&[l0]));
            }
        }
        for gene in genes {
            if self.contexts.iter().any(|c| c.gene == gene) {
                continue;
            }
            self.contexts.push(ContextSlot { gene, shared: OnceLock::new() });
        }
        self.axis = Some(axis);
        self
    }

    /// Merged per-phase telemetry: the evaluator's own `resolve`
    /// accounting plus every built overlay's fold/masked-sim/score/
    /// re-time totals. Pair two snapshots with
    /// [`PhasesSnapshot::since`] for per-run deltas — the
    /// [`Engine`](super::Engine) does exactly that.
    pub fn telemetry(&self) -> PhasesSnapshot {
        let merged = Phases::new(EVAL_PHASES);
        merged.merge(&self.phases);
        for overlay in self.built_overlays() {
            merged.merge(overlay.phases());
        }
        merged.snapshot()
    }

    /// Cumulative delta/full fold counters summed over every built
    /// overlay. The split depends on which pooled session each job
    /// drew, so it is telemetry — never part of determinism
    /// comparisons.
    pub fn delta_stats(&self) -> DeltaFoldStats {
        let mut stats = DeltaFoldStats::default();
        for overlay in self.built_overlays() {
            stats.merge(&overlay.delta_stats());
        }
        stats
    }

    fn built_overlays(&self) -> impl Iterator<Item = &OverlayContext> {
        self.contexts.iter().filter_map(|slot| slot.shared.get()?.overlay.as_ref().ok())
    }

    /// The shared context of slot `ctx_idx`, materializing a lazy
    /// context on first access.
    fn context(&self, ctx_idx: usize) -> &Arc<SharedContext> {
        let slot = &self.contexts[ctx_idx];
        slot.shared.get_or_init(|| Arc::new(self.materialize(slot.gene)))
    }

    /// Builds the base circuit of `gene` from the coefficient axis:
    /// per-layer `±e` approximation, bespoke synthesis + optimization,
    /// τ/φ analysis — the same pipeline callers run for their given
    /// contexts, which is what keeps the lazy path bit-identical to
    /// handing the circuit in up front.
    fn materialize(&self, gene: CoeffGene) -> SharedContext {
        let axis = self.axis.as_ref().expect("lazy contexts always carry a coeff axis");
        let widths: Vec<i64> = (0..MAX_COEFF_LAYERS)
            .map(|layer| match gene.level(layer) {
                0 => 0,
                level => axis.levels[usize::from(level) - 1],
            })
            .collect();
        let (model, _) = approximate_model_layers(axis.model, axis.cache, &widths);
        let netlist =
            pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&model).netlist);
        let analysis = crate::prune::analyze(&netlist, &model, axis.train);
        SharedContext::new(netlist, model, analysis, &self.test, self.lib, self.tech)
    }

    /// Attaches an external worker pool: every fresh evaluation ships
    /// to `fabric` as an owned job instead of running on the
    /// evaluator's scoped workers. In production the fabric is a
    /// `pax-serve` tenant handle, which multiplexes study evaluations
    /// with live inference traffic under that study's queue, budget and
    /// metrics.
    #[must_use]
    pub fn with_fabric(mut self, fabric: Arc<dyn EvalFabric>) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Pins the in-process worker count (defaults to the machine's
    /// available parallelism, capped at 16); zero is clamped to one.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The searchable space: τc bounds from the pruning configuration
    /// plus each context's per-gate (τ, φ) metrics, which strategies
    /// use to enumerate or sample thresholds. Strategies need every
    /// context's gate metrics to search it, so this materializes any
    /// still-lazy coefficient contexts.
    pub fn space(&self, cfg: &PruneConfig) -> SearchSpace {
        SearchSpace {
            tau_values: cfg.tau_values(),
            contexts: (0..self.contexts.len())
                .map(|i| {
                    let analysis = &self.context(i).analysis;
                    ContextSpace {
                        gene: self.contexts[i].gene,
                        gates: analysis
                            .candidates
                            .iter()
                            .map(|&g| (analysis.tau_of(g), analysis.phi_of(g)))
                            .collect(),
                    }
                })
                .collect(),
        }
    }

    /// The coefficient genes the evaluator can serve, in context order.
    pub fn genes(&self) -> Vec<CoeffGene> {
        self.contexts.iter().map(|c| c.gene).collect()
    }

    fn context_index(&self, gene: CoeffGene) -> Result<usize, StudyError> {
        self.contexts.iter().position(|c| c.gene == gene).ok_or(StudyError::MissingContext { gene })
    }

    /// The sorted pruned-gate set a candidate selects (the paper's
    /// step-3 filter, [`PruneAnalysis::select`]).
    pub fn gate_set(&self, c: &Candidate) -> Result<Vec<NetId>, StudyError> {
        let ctx = self.context(self.context_index(c.coeff)?);
        Ok(ctx.analysis.select(c.tau_c, c.phi_c))
    }

    /// Evaluates a batch of candidates, measuring each distinct
    /// `(context, gate set)` at most once (across the whole lifetime of
    /// `cache`) and in parallel. When `max_new_evals` is given, the
    /// batch is truncated to the longest prefix needing at most that
    /// many fresh evaluations — the engine's budget enforcement.
    ///
    /// Returns the evaluated `(candidate, point)` prefix and the number
    /// of fresh (non-cached) evaluations it cost.
    pub fn evaluate_batch(
        &self,
        batch: &[Candidate],
        cache: &mut EvalCache,
        max_new_evals: Option<usize>,
    ) -> Result<(Vec<(Candidate, DesignPoint)>, usize), StudyError> {
        // Resolve genomes to gate sets, then collect the fresh work
        // while honouring the budget. The dedup/budget walk stays
        // sequential: its prefix semantics are order-dependent.
        let resolved = self.phases.time(phase::RESOLVE, || self.resolve_sets(batch))?;
        let keys: Vec<u64> =
            resolved.iter().map(|(ctx, set)| context_set_hash(*ctx, set)).collect();
        let budget = max_new_evals.unwrap_or(usize::MAX);
        // Fresh work as indices into `resolved`, bucketed by key for the
        // in-batch duplicate check.
        let mut fresh: Vec<usize> = Vec::new();
        let mut pending: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut taken = 0;
        for (i, (ctx, set)) in resolved.iter().enumerate() {
            let key = keys[i];
            let seen = cache.get(key, *ctx, set).is_some()
                || pending.get(&key).is_some_and(|b| b.iter().any(|&j| resolved[j] == resolved[i]));
            if seen {
                // Already stored, or a duplicate of fresh work earlier
                // in this batch — either way the evaluation is shared.
                cache.hits += 1;
            } else if fresh.len() >= budget {
                break; // budget exhausted: evaluate the prefix only
            } else {
                pending.entry(key).or_default().push(i);
                fresh.push(i);
            }
            taken += 1;
        }
        let new_evals = fresh.len();
        for (i, eval) in self.run_fresh(&resolved, fresh)? {
            let (ctx, set) = &resolved[i];
            cache.insert(keys[i], *ctx, set.clone(), eval);
        }
        let results = (0..taken)
            .map(|i| {
                let (ctx, set) = &resolved[i];
                let e = cache.get(keys[i], *ctx, set).expect("every batch design evaluated");
                (batch[i], point_for(&batch[i], e))
            })
            .collect();
        Ok((results, new_evals))
    }

    /// The rebuild oracle over a batch: every candidate re-synthesized,
    /// recompiled and re-simulated from scratch
    /// ([`try_evaluate_set_rebuild`]), in order, on the calling thread,
    /// with no cache. Bit-identical to [`Evaluator::evaluate_batch`];
    /// the differential suites and the benchmark baselines use it. A
    /// context whose overlay failed to build reports that error here
    /// too.
    pub fn evaluate_rebuild(
        &self,
        batch: &[Candidate],
    ) -> Result<Vec<(Candidate, DesignPoint)>, StudyError> {
        batch
            .iter()
            .map(|c| {
                let ctx = self.context(self.context_index(c.coeff)?);
                let overlay = ctx.overlay()?;
                let set = ctx.analysis.select(c.tau_c, c.phi_c);
                let e = try_evaluate_set_rebuild(
                    overlay.base(),
                    overlay.model(),
                    &self.test,
                    self.lib,
                    self.tech,
                    &ctx.analysis,
                    &set,
                )?;
                Ok((*c, point_for(c, &e)))
            })
            .collect()
    }

    /// Resolves every genome's `(context index, sorted gate set)` —
    /// across the worker pool when the batch is large enough to
    /// amortize the spawns, sequentially otherwise. Resolution is pure,
    /// so parallelism cannot change the result.
    fn resolve_sets(&self, batch: &[Candidate]) -> Result<Vec<ResolvedSet>, StudyError> {
        /// Below this batch size thread spawns cost more than they save.
        const MIN_PARALLEL_BATCH: usize = 64;
        let resolve = |c: &Candidate| Ok((self.context_index(c.coeff)?, self.gate_set(c)?));
        if batch.len() < MIN_PARALLEL_BATCH || self.threads <= 1 {
            return batch.iter().map(resolve).collect();
        }
        let per = batch.len().div_ceil(self.threads.min(batch.len()));
        let chunks: Vec<Result<Vec<ResolvedSet>, StudyError>> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .chunks(per)
                .map(|chunk| s.spawn(move || chunk.iter().map(resolve).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("resolver worker")).collect()
        });
        let mut resolved = Vec::with_capacity(batch.len());
        for chunk in chunks {
            resolved.extend(chunk?);
        }
        Ok(resolved)
    }

    /// Evaluates the `fresh` entries of `resolved`, returning
    /// `(index, evaluation)` pairs in completion order.
    ///
    /// The work is sorted along the gate-set lattice — by context, then
    /// lexicographically by sorted gate set: the order a DFS of the set
    /// prefix trie visits, so adjacent items share long substitution
    /// prefixes — and becomes one `'static` job per candidate, which
    /// runs on a pooled [`DeltaSession`] of its context. Without a
    /// fabric the jobs run on `threads` scoped workers; with one they
    /// are submitted to it. After the first error a shared flag makes
    /// every job still queued skip its work. A job dropped unrun (its
    /// tenant unregistered, or the pool torn down mid-batch) never
    /// sends, so the channel closes short and the batch fails with
    /// [`FabricError::Cancelled`] instead of hanging. Results are
    /// keyed, so neither the reordering nor the scheduling can change
    /// the assembled batch.
    fn run_fresh(
        &self,
        resolved: &[ResolvedSet],
        mut fresh: Vec<usize>,
    ) -> Result<Vec<(usize, PruneEval)>, StudyError> {
        if fresh.is_empty() {
            return Ok(Vec::new());
        }
        fresh.sort_unstable_by(|&x, &y| resolved[x].cmp(&resolved[y]));
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<Result<(usize, PruneEval), StudyError>>();
        let jobs: Vec<FabricJob> = fresh
            .iter()
            .map(|&i| {
                let (ctx_idx, set) = &resolved[i];
                let ctx = Arc::clone(self.context(*ctx_idx));
                let (set, tx, abort) = (set.clone(), tx.clone(), Arc::clone(&abort));
                Box::new(move || {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    let r = ctx.evaluate(&set);
                    if r.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    // The receiver is gone when the driving thread already
                    // bailed on an earlier error; nothing left to report.
                    let _ = tx.send(r.map(|e| (i, e)));
                }) as FabricJob
            })
            .collect();
        drop(tx);
        match &self.fabric {
            Some(fabric) => {
                for job in jobs {
                    if let Err(e) = fabric.submit(job) {
                        abort.store(true, Ordering::Relaxed);
                        return Err(StudyError::Fabric(e));
                    }
                }
            }
            None => {
                // Workers take short runs of consecutive jobs, so the
                // session a worker pops is mostly the one it just pushed,
                // one lattice step back.
                let run = (jobs.len() / (self.threads * 4)).clamp(1, 32);
                let queue = Mutex::new(jobs.into_iter());
                std::thread::scope(|s| {
                    for _ in 0..self.threads.min(fresh.len()) {
                        s.spawn(|| loop {
                            let jobs: Vec<FabricJob> = queue.lock().by_ref().take(run).collect();
                            if jobs.is_empty() {
                                break;
                            }
                            jobs.into_iter().for_each(|job| job());
                        });
                    }
                });
            }
        }
        let mut out = Vec::with_capacity(fresh.len());
        for r in rx {
            out.push(r?);
        }
        if out.len() < fresh.len() {
            return Err(StudyError::Fabric(FabricError::Cancelled));
        }
        Ok(out)
    }
}

fn point_for(c: &Candidate, e: &PruneEval) -> DesignPoint {
    DesignPoint {
        technique: if c.coeff.is_exact() { Technique::PruneOnly } else { Technique::Cross },
        tau_c: Some(c.tau_c),
        phi_c: Some(c.phi_c),
        coeff: (!c.coeff.is_exact()).then_some(c.coeff),
        accuracy: e.accuracy,
        area_mm2: e.area_mm2,
        power_mw: e.power_mw,
        gate_count: e.gate_count,
        critical_ms: e.critical_ms,
    }
}

/// One resolved genome: `(context index, sorted pruned-gate set)`.
type ResolvedSet = (usize, Vec<NetId>);

/// Cache key: the gate-set content hash salted with the context index.
fn context_set_hash(ctx: usize, set: &[NetId]) -> u64 {
    crate::prune::gate_set_hash(set) ^ (ctx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(accuracy: f64) -> PruneEval {
        PruneEval {
            area_mm2: 1.0,
            power_mw: 1.0,
            accuracy,
            gate_count: 1,
            critical_ms: 1.0,
            n_pruned: 1,
        }
    }

    #[test]
    fn cache_tells_colliding_designs_apart() {
        let a = vec![NetId::from_index(3)];
        let b = vec![NetId::from_index(5), NetId::from_index(7)];
        let mut cache = EvalCache::new();
        // Two different designs forced under one content hash.
        cache.insert(42, 0, a.clone(), eval(0.25));
        assert!(cache.get(42, 0, &b).is_none(), "a colliding key must not answer for b");
        cache.insert(42, 0, b.clone(), eval(0.75));
        cache.insert(42, 1, a.clone(), eval(0.5));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(42, 0, &a).map(|e| e.accuracy), Some(0.25));
        assert_eq!(cache.get(42, 0, &b).map(|e| e.accuracy), Some(0.75));
        assert_eq!(cache.get(42, 1, &a).map(|e| e.accuracy), Some(0.5));
        assert!(cache.get(7, 0, &a).is_none());
    }
}
