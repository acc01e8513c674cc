//! Candidate evaluation: genome → pruned netlist → measured
//! [`DesignPoint`], deduplicated by content hash and parallel across a
//! worker pool.
//!
//! Every evaluation measures all four quality axes — accuracy, area,
//! power and critical-path delay — regardless of which
//! [`ObjectiveSet`](super::ObjectiveSet) the engine ranks by. That is
//! what makes objective spaces swappable after the fact: re-ranking
//! cached designs under a different axis selection
//! ([`Engine::set_objectives`](super::Engine::set_objectives)) costs
//! no fresh synthesis or simulation.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use egt_pdk::{Library, TechParams};
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::{NetId, Netlist};

use pax_obs::{Phases, PhasesSnapshot};

use super::fabric::{EvalFabric, FabricError};
use super::{Candidate, CoeffGene, ContextSpace, SearchSpace, MAX_COEFF_LAYERS};
use crate::coeff_approx::approximate_model_layers;
use crate::error::StudyError;
use crate::mult_cache::MultCache;
use crate::prune::{
    phase, DeltaFoldStats, DeltaSession, OverlayContext, PruneAnalysis, PruneConfig, PruneEval,
    EVAL_PHASES,
};
use crate::{DesignPoint, Technique};

/// How the evaluator measures a candidate.
///
/// [`EvalMode::Overlay`] (the default) evaluates prunings as masks on
/// the base circuit's shared compiled tape: no per-candidate
/// re-synthesis, recompilation or stimulus re-packing, timing re-timed
/// only in the affected cone. [`EvalMode::Rebuild`] keeps the legacy
/// pipeline — re-synthesize, recompile, re-simulate per candidate. The
/// two are bit-identical on every measured axis (the differential
/// suite pins it); `Rebuild` exists as that suite's oracle and as the
/// `pax-bench prune_eval` baseline.
///
/// [`EvalMode::Fabric`] is overlay evaluation *routed through an
/// external worker pool* ([`EvalFabric`]) instead of the evaluator's
/// private scoped threads: each fresh candidate ships as an owned batch
/// job (an `Arc`'d owned overlay context + the gate set) to — in
/// production — the `pax-serve` engine, which multiplexes it with live
/// inference traffic under per-study queues and budgets. Fabric results
/// are bit-identical to `Overlay` (same `OverlayContext::evaluate` code
/// path over clones of the same inputs; the fabric differential suite
/// pins it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Prune-as-mask on the shared compiled tape (fast path, default).
    #[default]
    Overlay,
    /// Per-candidate re-synthesis + recompilation (legacy oracle).
    Rebuild,
    /// Overlay evaluation shipped to an attached [`EvalFabric`].
    Fabric,
}

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

/// One base circuit materialized from the coefficient axis: the
/// per-layer-approximated model, its optimized bespoke netlist and the
/// pruning analysis — exactly what a caller-provided [`EvalContext`]
/// carries, but built inside the evaluator on first use.
#[derive(Debug)]
struct MaterializedBase {
    model: QuantizedModel,
    netlist: Netlist,
    analysis: PruneAnalysis,
}

/// One slot of the evaluator's context table.
#[derive(Debug)]
enum ContextSlot<'a> {
    /// Caller-provided (borrowed) base circuit.
    Given(EvalContext<'a>),
    /// Materialized from the [`CoeffAxis`] on first access; the
    /// `OnceLock` keeps concurrent workers from racing the synthesis.
    Lazy { gene: CoeffGene, cell: OnceLock<MaterializedBase> },
}

impl ContextSlot<'_> {
    fn gene(&self) -> CoeffGene {
        match self {
            ContextSlot::Given(c) => c.coeff,
            ContextSlot::Lazy { gene, .. } => *gene,
        }
    }
}

/// Memoized evaluations keyed by the 64-bit content hash of
/// `(context, sorted pruned-gate set)`: different `(τc, φc)` pairs — and
/// different strategies sharing one [`Engine`](super::Engine) — often
/// select the same gates, which are synthesized and simulated once.
/// Debug builds keep the full sets and assert on hash collisions.
///
/// Concurrency contract: the cache is only ever touched by the thread
/// driving [`Evaluator::evaluate_batch`] (it is `&mut` there). Workers
/// — the in-process pool and fabric jobs alike — never see it; they
/// return evaluations over a channel and the driving thread inserts
/// them. Hit/len accounting is therefore free of lost updates by
/// construction: duplicate keys inside one batch are collapsed *before*
/// any parallel work starts (`fresh` holds each key once), so two
/// workers can never race an insert of the same content hash, and
/// `hits`/`len` are deterministic for a deterministic candidate stream
/// regardless of worker count or evaluation mode — the repeated-run
/// equality suite asserts exactly that.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: HashMap<u64, PruneEval>,
    #[cfg(debug_assertions)]
    shadow: HashMap<u64, (usize, Vec<NetId>)>,
    hits: usize,
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
        self.map.len()
    }

    /// `true` when nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A plain lookup. Hit accounting happens in the dedup walk of
    /// [`Evaluator::evaluate_batch`] — the one place that knows whether
    /// a key was already paid for — not here, so that post-evaluation
    /// result assembly cannot skew the counters.
    fn get(&self, key: u64) -> Option<&PruneEval> {
        self.map.get(&key)
    }

    #[cfg(debug_assertions)]
    fn check_collision(&mut self, key: u64, ctx: usize, set: &[NetId]) {
        match self.shadow.get(&key) {
            Some(seen) => debug_assert!(
                seen.0 == ctx && seen.1 == set,
                "evaluation-cache hash collision on key {key:#x}"
            ),
            None => {
                self.shadow.insert(key, (ctx, set.to_vec()));
            }
        }
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
    test: &'a Dataset,
    contexts: Vec<ContextSlot<'a>>,
    /// The graded coefficient axis backing the lazy slots; `None` for
    /// purely caller-provided evaluators.
    axis: Option<CoeffAxis<'a>>,
    /// One shared overlay (tape + packed stimulus + cell/delay tables +
    /// base timing) per context, built lazily on the first overlay-mode
    /// evaluation — an evaluator pinned to [`EvalMode::Rebuild`] (the
    /// benchmark baseline) never pays for overlay setup. Construction
    /// failures (library gaps, malformed stimuli) surface per
    /// evaluation, mirroring the rebuild path's timing.
    overlays: Vec<OnceLock<Result<OverlayContext<'a>, StudyError>>>,
    /// The external pool candidate evaluation rides in
    /// [`EvalMode::Fabric`]; `None` until [`Evaluator::with_fabric`].
    fabric: Option<Arc<dyn EvalFabric>>,
    /// One *owned* (`'static`) overlay per context for fabric jobs,
    /// separate from `overlays`: jobs run on worker threads that
    /// outlive `'a`, so they cannot borrow the study's inputs. Built
    /// lazily on the first fabric-mode evaluation that touches the
    /// context, then shared by every job through the `Arc`.
    fabric_contexts: Vec<OnceLock<Result<Arc<FabricContext>, StudyError>>>,
    mode: EvalMode,
    /// Whether overlay-mode workers evaluate through rolling
    /// [`DeltaSession`]s over lattice-ordered work (the default) or
    /// fold every candidate from scratch ([`Evaluator::with_delta`]).
    delta: bool,
    threads: usize,
    /// Evaluator-side phase accounting (the `resolve` slot; the
    /// per-candidate measurement phases accumulate inside each
    /// context's overlay and merge in [`Evaluator::telemetry`]).
    phases: Phases,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over the given base circuits. `contexts`
    /// must be non-empty and hold at most one context per coefficient
    /// gene.
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
        let overlays = contexts.iter().map(|_| OnceLock::new()).collect();
        let fabric_contexts = contexts.iter().map(|_| OnceLock::new()).collect();
        let threads = std::thread::available_parallelism().map_or(4, |t| t.get()).min(16);
        Self {
            lib,
            tech,
            test,
            contexts: contexts.into_iter().map(ContextSlot::Given).collect(),
            axis: None,
            overlays,
            fabric: None,
            fabric_contexts,
            mode: EvalMode::default(),
            delta: true,
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
    /// [`CoeffGene::exact`] corner. Each lazy context synthesizes and
    /// analyzes its base circuit only when a candidate (or the search
    /// space) first touches it; its shared overlay tape is built even
    /// later, on the first overlay-mode evaluation.
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
            if self.contexts.iter().any(|c| c.gene() == gene) {
                continue;
            }
            self.contexts.push(ContextSlot::Lazy { gene, cell: OnceLock::new() });
            self.overlays.push(OnceLock::new());
            self.fabric_contexts.push(OnceLock::new());
        }
        self.axis = Some(axis);
        self
    }

    /// Merged per-phase telemetry: the evaluator's own `resolve`
    /// accounting plus every built overlay's fold/masked-sim/score/
    /// re-time totals. Rebuild-mode evaluations time nothing beyond
    /// `resolve` (the legacy oracle stays untouched). Pair two
    /// snapshots with [`PhasesSnapshot::since`] for per-run deltas —
    /// the [`Engine`](super::Engine) does exactly that.
    pub fn telemetry(&self) -> PhasesSnapshot {
        let merged = Phases::new(EVAL_PHASES);
        merged.merge(&self.phases);
        for overlay in &self.overlays {
            if let Some(Ok(ctx)) = overlay.get() {
                merged.merge(ctx.phases());
            }
        }
        for fabric_ctx in &self.fabric_contexts {
            if let Some(Ok(ctx)) = fabric_ctx.get() {
                merged.merge(ctx.overlay.phases());
            }
        }
        merged.snapshot()
    }

    /// The shared overlay for context `ctx_idx`, built on first use
    /// (`OnceLock` keeps concurrent workers from racing the setup).
    /// Given contexts borrow their base circuit; lazy contexts hand the
    /// overlay an owned clone of the materialized one (the evaluator
    /// keeps the original for gate-set resolution and the rebuild
    /// oracle).
    fn overlay(&self, ctx_idx: usize) -> &Result<OverlayContext<'a>, StudyError> {
        self.overlays[ctx_idx].get_or_init(|| match &self.contexts[ctx_idx] {
            ContextSlot::Given(ctx) => {
                OverlayContext::new(ctx.netlist, ctx.model, self.test, self.lib, self.tech)
            }
            ContextSlot::Lazy { .. } => {
                let (netlist, model, _) = self.parts(ctx_idx);
                OverlayContext::new_owned(
                    netlist.clone(),
                    model.clone(),
                    self.test,
                    self.lib,
                    self.tech,
                )
            }
        })
    }

    /// The owned fabric overlay for context `ctx_idx`, built on first
    /// use from clones of the same inputs [`Evaluator::overlay`] uses.
    /// `OverlayContext` construction is deterministic (compile the
    /// tape, pack the stimulus, analyze base timing — no ordering or
    /// randomness), so evaluating a gate set here is bit-identical to
    /// evaluating it on the borrowed overlay; the fabric differential
    /// suite pins that.
    fn fabric_context(&self, ctx_idx: usize) -> Result<&Arc<FabricContext>, StudyError> {
        self.fabric_contexts[ctx_idx]
            .get_or_init(|| {
                let (netlist, model, analysis) = self.parts(ctx_idx);
                OverlayContext::new_static(
                    netlist.clone(),
                    model.clone(),
                    self.test.clone(),
                    self.lib,
                    self.tech.clone(),
                )
                .map(|overlay| Arc::new(FabricContext { overlay, analysis: analysis.clone() }))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// `(netlist, model, analysis)` of context `ctx_idx`, materializing
    /// a lazy context on first access.
    fn parts(&self, ctx_idx: usize) -> (&Netlist, &QuantizedModel, &PruneAnalysis) {
        match &self.contexts[ctx_idx] {
            ContextSlot::Given(c) => (c.netlist, c.model, &c.analysis),
            ContextSlot::Lazy { gene, cell } => {
                let m = cell.get_or_init(|| self.materialize(*gene));
                (&m.netlist, &m.model, &m.analysis)
            }
        }
    }

    /// Builds the base circuit of `gene` from the coefficient axis:
    /// per-layer `±e` approximation, bespoke synthesis + optimization,
    /// τ/φ analysis — the same pipeline callers run for their given
    /// contexts, which is what keeps the lazy path bit-identical to
    /// handing the circuit in up front.
    fn materialize(&self, gene: CoeffGene) -> MaterializedBase {
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
        MaterializedBase { model, netlist, analysis }
    }

    /// Selects how candidates are measured (overlay by default). See
    /// [`EvalMode`].
    #[must_use]
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an external worker pool and switches to
    /// [`EvalMode::Fabric`]: every fresh evaluation ships to `fabric`
    /// as an owned job instead of running on the evaluator's private
    /// scoped threads. In production the fabric is a `pax-serve` tenant
    /// handle, which multiplexes study evaluations with live inference
    /// traffic under that study's queue, budget and metrics.
    #[must_use]
    pub fn with_fabric(mut self, fabric: Arc<dyn EvalFabric>) -> Self {
        self.fabric = Some(fabric);
        self.mode = EvalMode::Fabric;
        self
    }

    /// Pins the worker-pool width (defaults to the machine's available
    /// parallelism, capped at 16). Benchmarks pin this so delta and
    /// baseline paths are compared at one thread count; zero is
    /// clamped to one.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables delta evaluation in overlay mode (on by
    /// default). With delta on, fresh work is sorted along the gate-set
    /// lattice and each worker evaluates through a rolling
    /// [`DeltaSession`], so consecutive candidates reuse the previous
    /// fold and simulation instead of starting over. With delta off,
    /// every candidate folds and simulates from scratch — the PR 9
    /// baseline, kept as the benchmark reference and differential
    /// oracle. Results are bit-identical either way.
    #[must_use]
    pub fn with_delta(mut self, delta: bool) -> Self {
        self.delta = delta;
        self
    }

    /// The active evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Cumulative delta/full fold counters summed over every built
    /// overlay (fabric contexts included). The split depends on how
    /// workers chunked the batch, so it is telemetry — never part of
    /// determinism comparisons.
    pub fn delta_stats(&self) -> DeltaFoldStats {
        let mut stats = DeltaFoldStats::default();
        for overlay in &self.overlays {
            if let Some(Ok(ctx)) = overlay.get() {
                stats.merge(&ctx.delta_stats());
            }
        }
        for fabric_ctx in &self.fabric_contexts {
            if let Some(Ok(ctx)) = fabric_ctx.get() {
                stats.merge(&ctx.overlay.delta_stats());
            }
        }
        stats
    }

    /// The searchable space: τc bounds from the pruning configuration
    /// plus each context's per-gate (τ, φ) metrics, which strategies
    /// use to enumerate or sample thresholds. Strategies need every
    /// context's gate metrics to search it, so this materializes any
    /// still-lazy coefficient contexts (their overlay tapes stay lazy —
    /// those are only built when an overlay-mode evaluation lands).
    pub fn space(&self, cfg: &PruneConfig) -> SearchSpace {
        SearchSpace {
            tau_values: cfg.tau_values(),
            contexts: (0..self.contexts.len())
                .map(|i| {
                    let (_, _, analysis) = self.parts(i);
                    ContextSpace {
                        gene: self.contexts[i].gene(),
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
        self.contexts.iter().map(ContextSlot::gene).collect()
    }

    fn context_index(&self, gene: CoeffGene) -> Result<usize, StudyError> {
        self.contexts
            .iter()
            .position(|c| c.gene() == gene)
            .ok_or(StudyError::MissingContext { gene })
    }

    /// The sorted pruned-gate set a candidate selects (the paper's
    /// step-3 filter: τ-qualified gates whose φ is at most φc).
    pub fn gate_set(&self, c: &Candidate) -> Result<Vec<NetId>, StudyError> {
        let (_, _, a) = self.parts(self.context_index(c.coeff)?);
        let mut set: Vec<NetId> = a
            .candidates
            .iter()
            .copied()
            .filter(|&g| a.tau_of(g) >= c.tau_c - 1e-12 && a.phi_of(g) <= c.phi_c)
            .collect();
        set.sort_unstable();
        Ok(set)
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
        // Resolve genomes to hashed gate sets, collecting the fresh
        // work while honouring the budget. The per-genome resolution
        // (τ/φ filter over every prunable gate + content hash) is
        // independent work, so large batches — the exhaustive grid asks
        // for thousands of combos at once — resolve across the worker
        // pool first; the dedup/budget walk below stays sequential
        // (its prefix semantics are order-dependent).
        let resolved = self.phases.time(phase::RESOLVE, || self.resolve_sets(batch))?;
        let mut keys = Vec::with_capacity(batch.len());
        let mut fresh: Vec<(u64, usize, Vec<NetId>)> = Vec::new();
        let mut fresh_keys: HashMap<u64, usize> = HashMap::new();
        let budget = max_new_evals.unwrap_or(usize::MAX);
        for (ctx, set) in resolved {
            let key = context_set_hash(ctx, &set);
            #[cfg(debug_assertions)]
            cache.check_collision(key, ctx, &set);
            if cache.map.contains_key(&key) || fresh_keys.contains_key(&key) {
                // Already stored, or a duplicate of fresh work earlier
                // in this batch — either way the evaluation is shared.
                cache.hits += 1;
                keys.push(key);
                continue;
            }
            if fresh.len() >= budget {
                break; // budget exhausted: evaluate the prefix only
            }
            fresh_keys.insert(key, fresh.len());
            fresh.push((key, ctx, set));
            keys.push(key);
        }
        let new_evals = fresh.len();
        for (key, eval) in self.run_parallel(&fresh)? {
            cache.map.insert(key, eval);
        }
        let results = batch[..keys.len()]
            .iter()
            .zip(&keys)
            .map(|(c, key)| {
                let e = cache.get(*key).expect("every batch key evaluated");
                (*c, self.point_for(c, e))
            })
            .collect();
        Ok((results, new_evals))
    }

    /// Resolves every genome's `(context index, sorted gate set)` —
    /// across the worker pool when the batch is large enough to
    /// amortize the spawns, sequentially otherwise. Resolution is pure,
    /// so parallelism cannot change the result.
    fn resolve_sets(&self, batch: &[Candidate]) -> Result<Vec<ResolvedSet>, StudyError> {
        /// Below this batch size thread spawns cost more than they save.
        const MIN_PARALLEL_BATCH: usize = 64;
        if batch.len() < MIN_PARALLEL_BATCH || self.threads <= 1 {
            return batch
                .iter()
                .map(|c| Ok((self.context_index(c.coeff)?, self.gate_set(c)?)))
                .collect();
        }
        let threads = self.threads.min(batch.len());
        let per = batch.len().div_ceil(threads);
        let chunks: Vec<Result<Vec<ResolvedSet>, StudyError>> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .chunks(per)
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|c| Ok((self.context_index(c.coeff)?, self.gate_set(c)?)))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("resolver worker")).collect()
        });
        let mut resolved = Vec::with_capacity(batch.len());
        for chunk in chunks {
            resolved.extend(chunk?);
        }
        Ok(resolved)
    }

    /// Runs the fresh evaluations over a work-stealing worker pool
    /// (set sizes — and thus re-synthesis costs — vary wildly, so
    /// static chunking would leave threads idle). In overlay mode with
    /// delta evaluation on, the work is first sorted along the gate-set
    /// lattice — by context, then lexicographically by sorted gate set:
    /// the order a DFS of the set prefix trie visits, so adjacent items
    /// share long substitution prefixes — and stolen in small
    /// contiguous chunks that each worker's rolling [`DeltaSession`]
    /// evaluates in sequence. Results are keyed, so the reordering
    /// cannot change the assembled batch.
    fn run_parallel(
        &self,
        fresh: &[(u64, usize, Vec<NetId>)],
    ) -> Result<Vec<(u64, PruneEval)>, StudyError> {
        if fresh.is_empty() {
            return Ok(Vec::new());
        }
        if self.mode == EvalMode::Fabric {
            return self.run_fabric(fresh);
        }
        let use_delta = self.delta && self.mode == EvalMode::Overlay;
        let mut order: Vec<usize> = (0..fresh.len()).collect();
        let chunk = if use_delta {
            order.sort_unstable_by(|&x, &y| {
                (fresh[x].1, &fresh[x].2).cmp(&(fresh[y].1, &fresh[y].2))
            });
            // Contiguous chunks big enough that a session amortizes
            // across lattice neighbours, small enough that the pool
            // stays balanced on modest batches.
            (fresh.len() / (self.threads * 4)).clamp(1, 32)
        } else {
            1
        };
        let n_chunks = order.len().div_ceil(chunk);
        let next = std::sync::atomic::AtomicUsize::new(0);
        // First error aborts the whole batch: without the shared flag,
        // the other workers would drain every remaining (expensive)
        // evaluation before the error could propagate.
        let abort = std::sync::atomic::AtomicBool::new(false);
        let threads = self.threads.min(n_chunks);
        let (tx, rx) = std::sync::mpsc::channel::<Result<(u64, PruneEval), StudyError>>();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let next = &next;
                let abort = &abort;
                let order = &order;
                let tx = tx.clone();
                s.spawn(move || {
                    // context → rolling session, most recent first.
                    let mut sessions: Vec<(usize, DeltaSession)> = Vec::new();
                    'steal: loop {
                        let c = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if c >= n_chunks || abort.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                        for &i in &order[c * chunk..((c + 1) * chunk).min(order.len())] {
                            if abort.load(std::sync::atomic::Ordering::Relaxed) {
                                break 'steal;
                            }
                            let (key, ctx_idx, set) = &fresh[i];
                            let (netlist, model, analysis) = self.parts(*ctx_idx);
                            let r = match self.mode {
                                EvalMode::Overlay => match self.overlay(*ctx_idx) {
                                    Ok(overlay) if use_delta => {
                                        let session = session_for(&mut sessions, *ctx_idx, overlay);
                                        overlay.evaluate_with_session(analysis, set, session)
                                    }
                                    Ok(overlay) => overlay.evaluate(analysis, set),
                                    Err(e) => Err(e.clone()),
                                },
                                EvalMode::Rebuild => crate::prune::try_evaluate_set_rebuild(
                                    netlist, model, self.test, self.lib, self.tech, analysis, set,
                                ),
                                EvalMode::Fabric => {
                                    unreachable!("fabric batches run in run_fabric")
                                }
                            };
                            let stop = r.is_err();
                            if stop {
                                abort.store(true, std::sync::atomic::Ordering::Relaxed);
                            }
                            tx.send(r.map(|e| (*key, e))).expect("receiver outlives workers");
                            if stop {
                                break 'steal;
                            }
                        }
                    }
                });
            }
            drop(tx);
            rx.iter().collect()
        })
    }

    /// Ships the fresh evaluations to the attached [`EvalFabric`] as
    /// owned jobs — one per distinct `(context, gate set)` — and
    /// collects their results over a channel. A job dropped unrun (its
    /// tenant unregistered, or the pool torn down mid-batch) never
    /// sends, so the channel closes short and the batch fails with
    /// [`FabricError::Cancelled`] instead of hanging.
    fn run_fabric(
        &self,
        fresh: &[(u64, usize, Vec<NetId>)],
    ) -> Result<Vec<(u64, PruneEval)>, StudyError> {
        let fabric = self.fabric.as_ref().ok_or(StudyError::Fabric(FabricError::NotAttached))?;
        let (tx, rx) = std::sync::mpsc::channel::<Result<(u64, PruneEval), StudyError>>();
        for (key, ctx_idx, set) in fresh {
            let shared = Arc::clone(self.fabric_context(*ctx_idx)?);
            let (key, set, tx) = (*key, set.clone(), tx.clone());
            let job = Box::new(move || {
                let r = shared.overlay.evaluate(&shared.analysis, &set).map(|e| (key, e));
                // The receiver is gone when the driving thread already
                // bailed on an earlier error; nothing left to report.
                let _ = tx.send(r);
            });
            fabric.submit(job).map_err(StudyError::Fabric)?;
        }
        drop(tx);
        let mut out = Vec::with_capacity(fresh.len());
        for r in rx {
            out.push(r?);
        }
        if out.len() < fresh.len() {
            return Err(StudyError::Fabric(FabricError::Cancelled));
        }
        Ok(out)
    }

    fn point_for(&self, c: &Candidate, e: &PruneEval) -> DesignPoint {
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
}

/// The owned evaluation state one context ships to fabric workers: a
/// `'static` overlay (owned clones of the base netlist, model, test
/// set and technology parameters) plus the pruning analysis the τ/φ
/// mask resolution reads. Everything a job touches lives behind one
/// `Arc`, so jobs are `'static` and the pool can run them on threads
/// that outlive the study's stack frame.
#[derive(Debug)]
struct FabricContext {
    overlay: OverlayContext<'static>,
    analysis: PruneAnalysis,
}

/// One resolved genome: `(context index, sorted pruned-gate set)`.
type ResolvedSet = (usize, Vec<NetId>);

/// The worker's rolling session for `ctx_idx`, moved to the front of a
/// two-slot LRU — created fresh from `overlay` on a miss, evicting the
/// colder slot. Two slots suffice: the lattice sort keeps each chunk
/// within one context, so a worker interleaves at most the chunk
/// boundary's pair.
fn session_for<'s>(
    sessions: &'s mut Vec<(usize, DeltaSession)>,
    ctx_idx: usize,
    overlay: &OverlayContext<'_>,
) -> &'s mut DeltaSession {
    if let Some(p) = sessions.iter().position(|(c, _)| *c == ctx_idx) {
        let hot = sessions.remove(p);
        sessions.insert(0, hot);
    } else {
        sessions.insert(0, (ctx_idx, overlay.delta_session()));
        sessions.truncate(2);
    }
    &mut sessions[0].1
}

/// Cache key: the gate-set content hash salted with the context index.
fn context_set_hash(ctx: usize, set: &[NetId]) -> u64 {
    crate::prune::gate_set_hash(set) ^ (ctx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}
