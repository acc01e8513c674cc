//! Compile-once/execute-many netlist evaluation.
//!
//! [`simulate`](crate::simulate) walks the [`Netlist`] node list on
//! every word: per gate it matches on the node enum, probes the operand
//! `Option`s and dispatches on the gate kind. That is fine for a study
//! that evaluates each netlist once, but the serving engine and the
//! pruning search evaluate the *same* netlist thousands of times — the
//! dispatch overhead becomes the hot path.
//!
//! [`CompiledNetlist`] removes it by compiling the netlist once into a
//! flat instruction tape:
//!
//! * **levelized, kind-grouped runs** — gates are sorted by logic level
//!   (preserving topological validity) and grouped into runs of one
//!   [`GateKind`], so the kind dispatch is hoisted out of the inner
//!   loop: one `match` per run, then a tight loop over dense operand
//!   slots;
//! * **LUT-cone fusion** — at compile time the tape is greedily covered
//!   with k-input cones (k ≤ 6, single-fanout internals only; see the
//!   invariants in the `fuse` module docs). Each profitable cone
//!   becomes one table-lookup instruction, so a whole run of decoded
//!   gates collapses into a handful of register-resident word ops. The
//!   activity-off entry points ([`run`](CompiledNetlist::run),
//!   [`run_packed`](CompiledNetlist::run_packed)) execute the fused
//!   tape;
//! * **width-generic words** — the kernel is generic over
//!   [`Word`](crate::Word): 64 lanes (`u64`) or 256 lanes
//!   ([`W256`](crate::W256)). [`run`](CompiledNetlist::run) picks the
//!   wide word automatically for large stimuli; outputs flatten back to
//!   `u64` planes losslessly, so callers never see the width;
//! * **optional activity accounting** — the activity-on entry points
//!   ([`run_with_activity`](CompiledNetlist::run_with_activity),
//!   [`run_packed_with_activity`](CompiledNetlist::run_packed_with_activity),
//!   [`run_masked_with_activity`](CompiledNetlist::run_masked_with_activity))
//!   produce an [`Activity`] record bit-identical to the interpreter's.
//!   They execute the **unfused** tape at 64 lanes: exact per-net toggle
//!   accounting must observe every internal net, and fused cones elide
//!   theirs. The unfused tape doubles as the differential oracle the
//!   fused tape is pinned against, and as the tape
//!   [`DeltaSim`](crate::DeltaSim) re-executes masked cones of;
//! * **multi-threaded word execution** — words are independent, so
//!   large stimuli are chunked across threads; toggle counting stays
//!   exact because each chunk re-derives the boundary sample from the
//!   preceding word before it starts counting.
//!
//! All entry points are pinned bit-for-bit (ports, ones, toggles) to
//! [`simulate`](crate::simulate) and to the scalar
//! [`eval_ports`](pax_netlist::eval::eval_ports) reference by the
//! differential property suite in `tests/proptest_engine.rs` — fused ==
//! unfused == interpreted, at both word widths.
//!
//! # Examples
//!
//! ```
//! use pax_netlist::NetlistBuilder;
//! use pax_sim::{CompiledNetlist, Stimulus};
//!
//! let mut b = NetlistBuilder::new("xor");
//! let x = b.input_port("x", 1);
//! let y = b.input_port("y", 1);
//! let g = b.xor2(x[0], y[0]);
//! b.output_port("z", vec![g].into());
//! let compiled = CompiledNetlist::compile(&b.finish());
//!
//! let mut stim = Stimulus::new();
//! stim.port("x", vec![0, 0, 1, 1]);
//! stim.port("y", vec![0, 1, 0, 1]);
//! // Compile once, run on as many stimuli as you like.
//! let out = compiled.run(&stim).unwrap();
//! assert_eq!(out.port_values("z"), vec![0, 1, 1, 0]);
//! ```

use std::collections::BTreeMap;

use pax_netlist::{GateKind, Netlist, Node, Port};

use crate::engine::{pack_inputs, PackedInputs, SimOutputs, SimResult};
use crate::fuse::{eval_lut, FusedTape, Instr, LutInstr, Run, Step, MAX_K};
use crate::word::{Word, W256};
use crate::{Activity, SimError, Stimulus};

/// Stimuli longer than this execute over 256-lane words: four 64-bit
/// limbs per instruction decode. Below it the wide word would waste
/// lanes (a 256-lane word holds at least two full `u64` words of
/// samples before it pays off).
const WIDE_WORD_THRESHOLD: usize = 128;

/// A netlist compiled to a flat, kind-grouped instruction tape plus a
/// LUT-fused execution plan. See the module docs in `compiled.rs` for
/// the design and when to prefer this over
/// [`simulate`](crate::simulate).
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    name: String,
    pub(crate) n_slots: usize,
    /// The unfused tape: every gate, levelized and kind-grouped. This
    /// is the activity oracle.
    pub(crate) instrs: Vec<Instr>,
    runs: Vec<Run>,
    /// Gate kind at each unfused tape position (run lookup, hoisted).
    pub(crate) kinds: Vec<GateKind>,
    /// The fused execution plan the activity-off paths run.
    fused: FusedTape,
    input_ports: Vec<Port>,
    pub(crate) output_ports: Vec<Port>,
    /// Value slot of every output-port bit, ports in declaration order,
    /// bits LSB-first — the flat order chunk output planes use.
    pub(crate) output_slots: Vec<u32>,
    /// Unfused tape position of the instruction writing each slot
    /// (`u32::MAX` for input/non-gate slots) — the lookup masked
    /// execution rewrites through.
    pub(crate) instr_of: Vec<u32>,
    threads: usize,
}

/// A [`Stimulus`] packed once against a tape's input ports, reusable
/// across many [`CompiledNetlist::run_packed`] /
/// [`CompiledNetlist::run_masked_with_activity`] calls. Packing validates coverage,
/// sample counts and port widths — exactly what
/// [`CompiledNetlist::run`] does per call — so sharing one
/// `PackedStimulus` removes that per-evaluation cost when thousands of
/// pruning candidates are scored on the same test set.
///
/// Generic over the executing [`Word`]: [`CompiledNetlist::pack`]
/// produces 64-lane words, [`CompiledNetlist::pack_wide`] 256-lane
/// words. Execution results are bit-identical either way.
#[derive(Debug)]
pub struct PackedStimulus<W: Word = u64> {
    inner: PackedInputs<W>,
}

impl<W: Word> PackedStimulus<W> {
    /// Number of packed samples.
    pub fn n_samples(&self) -> usize {
        self.inner.n_samples
    }
}

/// One full recording of an unfused, unmasked run: per-word values of
/// every slot plus the base activity counts. [`CompiledNetlist::trace`]
/// produces it once per (tape, stimulus) pair; a
/// [`DeltaSim`](crate::DeltaSim) seeded from it then derives any masked
/// variant by re-executing only the instructions downstream of the
/// mask — every other slot's values (and therefore counts) are
/// word-for-word identical to the base run.
#[derive(Debug, Clone)]
pub struct BaseTrace {
    pub(crate) n_samples: usize,
    pub(crate) n_words: usize,
    /// `rows[w][slot]`: the value word of `slot` at word `w`.
    pub(crate) rows: Vec<Vec<u64>>,
    pub(crate) ones: Vec<u64>,
    pub(crate) toggles: Vec<u64>,
}

impl BaseTrace {
    /// Number of traced samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The base (unmasked) activity this trace recorded.
    pub fn base_activity(&self) -> Activity {
        Activity::new(self.n_samples, self.ones.clone(), self.toggles.clone())
    }
}

impl CompiledNetlist {
    /// Compiles `nl` into an instruction tape and covers it with fused
    /// LUT cones.
    ///
    /// Gates are stable-sorted by logic level (so the tape stays a valid
    /// topological order) and, within a level, by kind — maximizing the
    /// length of single-kind runs.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` nodes.
    pub fn compile(nl: &Netlist) -> Self {
        assert!(nl.len() <= u32::MAX as usize, "netlist too large to compile");
        let levels = pax_netlist::topo::levels(nl);
        let mut gates: Vec<usize> = nl
            .iter()
            .filter(|(_, node)| matches!(node, Node::Gate(_)))
            .map(|(id, _)| id.index())
            .collect();
        gates.sort_by_key(|&i| {
            let Node::Gate(g) = nl.nodes()[i] else { unreachable!("filtered to gates") };
            (levels[i], g.kind, i)
        });

        let mut instrs = Vec::with_capacity(gates.len());
        let mut kinds = Vec::with_capacity(gates.len());
        let mut runs: Vec<Run> = Vec::new();
        for &i in &gates {
            let Node::Gate(g) = nl.nodes()[i] else { unreachable!("filtered to gates") };
            let ins = g.inputs();
            let operand = |k: usize| ins.get(k).map_or(0, |n| n.index() as u32);
            let at = instrs.len() as u32;
            instrs.push(Instr { a: operand(0), b: operand(1), c: operand(2), dst: i as u32 });
            kinds.push(g.kind);
            match runs.last_mut() {
                Some(run) if run.op == g.kind => run.end = at + 1,
                _ => runs.push(Run { op: g.kind, start: at, end: at + 1 }),
            }
        }

        let output_slots: Vec<u32> = nl
            .output_ports()
            .iter()
            .flat_map(|p| p.bits.iter().map(|n| n.index() as u32))
            .collect();

        let mut instr_of = vec![u32::MAX; nl.len()];
        for (at, i) in instrs.iter().enumerate() {
            instr_of[i.dst as usize] = at as u32;
        }

        let fused = FusedTape::build(&instrs, &kinds, nl.len(), &output_slots);

        Self {
            name: nl.name().to_owned(),
            n_slots: nl.len(),
            instrs,
            runs,
            kinds,
            fused,
            input_ports: nl.input_ports().to_vec(),
            output_ports: nl.output_ports().to_vec(),
            output_slots,
            instr_of,
            threads: 0,
        }
    }

    /// Pins the worker-thread count for [`run`](Self::run) /
    /// [`run_with_activity`](Self::run_with_activity). `0` (the default)
    /// sizes the pool from the available parallelism; `1` forces
    /// sequential execution. Results are bit-identical regardless.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The compiled netlist's module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of value slots (nodes of the source netlist).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Number of unfused tape instructions (gates, constants included).
    pub fn n_instructions(&self) -> usize {
        self.instrs.len()
    }

    /// Number of single-kind runs the unfused tape was grouped into —
    /// the number of kind dispatches per activity-tracked word.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of fused LUT cones in the activity-off execution plan.
    pub fn n_luts(&self) -> usize {
        self.fused.luts.len()
    }

    /// Instructions per word on the fused (activity-off) plan: residual
    /// gates plus LUTs. The gap to [`n_instructions`](Self::n_instructions)
    /// is what fusion removed.
    pub fn n_fused_instructions(&self) -> usize {
        self.fused.instrs.len() + self.fused.luts.len()
    }

    /// Executes the fused tape on `stim` — functional outputs only, no
    /// activity accounting. This is the serving path: it never pays for
    /// toggle counters nobody reads. Stimuli above ~2 `u64` words of
    /// samples execute over 256-lane words; results are bit-identical
    /// across widths.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn run(&self, stim: &Stimulus) -> Result<SimOutputs, SimError> {
        if stim.try_n_samples().unwrap_or(0) > WIDE_WORD_THRESHOLD {
            let packed = self.pack_wide(stim)?;
            Ok(self.run_packed(&packed))
        } else {
            let packed = self.pack(stim)?;
            Ok(self.run_packed(&packed))
        }
    }

    /// Packs `stim` against this tape's input ports for repeated
    /// execution via [`run_packed`](Self::run_packed) and the
    /// activity-tracking entry points, at 64 lanes per word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn pack(&self, stim: &Stimulus) -> Result<PackedStimulus, SimError> {
        Ok(PackedStimulus { inner: pack_inputs(&self.input_ports, stim)? })
    }

    /// Packs `stim` at 256 lanes per word — the width
    /// [`run`](Self::run) picks automatically for large stimuli. Use
    /// with [`run_packed`](Self::run_packed); the activity-tracking
    /// entry points require 64-lane packing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn pack_wide(&self, stim: &Stimulus) -> Result<PackedStimulus<W256>, SimError> {
        Ok(PackedStimulus { inner: pack_inputs(&self.input_ports, stim)? })
    }

    /// Executes the fused tape on an already-packed stimulus —
    /// functional outputs only. Validation happened at
    /// [`pack`](Self::pack) time, so this path is infallible.
    pub fn run_packed<W: Word>(&self, packed: &PackedStimulus<W>) -> SimOutputs {
        self.execute_fused(&self.fused.instrs, &self.fused.luts, self.n_slots, &packed.inner)
    }

    /// Executes the unfused tape on an already-packed stimulus with full
    /// activity accounting.
    pub fn run_packed_with_activity(&self, packed: &PackedStimulus) -> SimResult {
        let (outputs, activity) = self.execute_tracked(&self.instrs, self.n_slots, &packed.inner);
        SimResult::new(activity, outputs)
    }

    /// Executes the **unfused** tape with the `mask`ed gates pinned to
    /// constants, with full per-net activity accounting: each
    /// `(net, value)` pair rewrites that gate's operands onto two
    /// reserved constant slots, so its output — and everything
    /// downstream — behaves exactly as if the net had been substituted
    /// with the constant and the netlist re-synthesized. Run structure,
    /// kinds and instruction positions are untouched; per-call cost is
    /// one instruction-vector clone.
    ///
    /// Exact toggle accounting must observe every internal net, so this
    /// path never fuses; it is the differential oracle
    /// [`DeltaSim`](crate::DeltaSim) is pinned against. Per-slot
    /// activity is reported in *base-netlist* slot space — a fold
    /// provenance maps surviving rebuilt gates back onto these slots.
    /// Results are bit-identical across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if a masked net is not driven by a (non-constant) gate
    /// instruction of this tape — masking inputs or tie cells is a
    /// caller bug.
    pub fn run_masked_with_activity(
        &self,
        packed: &PackedStimulus,
        mask: &[(pax_netlist::NetId, bool)],
    ) -> SimResult {
        let mut instrs = self.instrs.clone();
        let zero = self.n_slots as u32;
        let one = zero + 1;
        for &(net, value) in mask {
            let at = self.instr_of[net.index()];
            assert!(at != u32::MAX, "masked net {net} is not a gate instruction");
            let kind = self.kinds[at as usize];
            assert!(!kind.is_free(), "masked net {net} is a constant tie");
            let (a, b, c) = const_operands(kind, value, zero, one);
            let i = &mut instrs[at as usize];
            (i.a, i.b, i.c) = (a, b, c);
        }
        let (outputs, activity) = self.execute_tracked(&instrs, self.n_slots + 2, &packed.inner);
        SimResult::new(activity, outputs)
    }

    /// Records one unfused, unmasked run of `packed`: every slot's value
    /// word per stimulus word, plus the base activity. The trace seeds
    /// [`DeltaSim`](crate::DeltaSim), which derives masked runs
    /// incrementally instead of re-executing the whole tape.
    pub fn trace(&self, packed: &PackedStimulus) -> BaseTrace {
        let p = &packed.inner;
        let mut vals = vec![0u64; self.n_slots];
        let mut rows = Vec::with_capacity(p.n_words);
        let mut ones = vec![0u64; self.n_slots];
        let mut toggles = vec![0u64; self.n_slots];
        let mut prev_msb = vec![0u64; self.n_slots];
        for w in 0..p.n_words {
            load_inputs(p, w, &mut vals);
            exec_runs(&self.runs, &self.instrs, &mut vals);
            let valid = (p.n_samples - w * 64).min(64);
            let mask = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            for (idx, &v) in vals.iter().enumerate() {
                ones[idx] += (v & mask).count_ones() as u64;
                let shifted = (v << 1) | prev_msb[idx];
                let mut diff = (v ^ shifted) & mask;
                if w == 0 {
                    diff &= !1;
                }
                toggles[idx] += diff.count_ones() as u64;
                prev_msb[idx] = v >> (valid - 1) & 1;
            }
            rows.push(vals.clone());
        }
        BaseTrace { n_samples: p.n_samples, n_words: p.n_words, rows, ones, toggles }
    }

    /// Executes the unfused tape on `stim` with full per-net activity
    /// accounting, producing a [`SimResult`] bit-identical to
    /// [`simulate`](crate::simulate)'s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn run_with_activity(&self, stim: &Stimulus) -> Result<SimResult, SimError> {
        let packed = self.pack(stim)?;
        Ok(self.run_packed_with_activity(&packed))
    }

    /// Runs the fused plan (base or masked views of its instruction and
    /// LUT vectors) over all words, in parallel chunks when the stimulus
    /// is large enough, and flattens the `W`-wide output planes back to
    /// `u64` words.
    fn execute_fused<W: Word>(
        &self,
        instrs: &[Instr],
        luts: &[LutInstr],
        n_vals: usize,
        packed: &PackedInputs<W>,
    ) -> SimOutputs {
        let n_words = packed.n_words;
        let ops_per_word = (instrs.len() + luts.len()).max(1) * W::LIMBS;
        let chunks = self.plan_chunks(n_words, ops_per_word);
        let outs: Vec<Vec<Vec<W>>> = if chunks.len() <= 1 {
            vec![self.eval_chunk_fused(instrs, luts, n_vals, packed, 0, n_words)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&(w0, w1)| {
                        s.spawn(move || self.eval_chunk_fused(instrs, luts, n_vals, packed, w0, w1))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("chunk worker")).collect()
            })
        };

        // Flatten W-wide planes to u64 words: lane l of wide word w is
        // bit l % 64 of limb l / 64, so limbs are consecutive u64 words
        // of the same plane. The tail word is masked to valid samples.
        let n_samples = packed.n_samples;
        let n_words64 = n_samples.div_ceil(64);
        let mut flat: Vec<Vec<u64>> = vec![vec![0u64; n_words64]; self.output_slots.len()];
        for (chunk, &(w0, _)) in outs.iter().zip(&chunks) {
            for (full, part) in flat.iter_mut().zip(chunk) {
                for (off, wv) in part.iter().enumerate() {
                    let w = w0 + off;
                    for l in 0..W::LIMBS {
                        let g = w * W::LIMBS + l;
                        if g >= n_words64 {
                            break;
                        }
                        let valid = (n_samples - g * 64).min(64);
                        let m = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
                        full[g] = wv.limb(l) & m;
                    }
                }
            }
        }
        let mut port_words: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
        let mut cursor = flat.into_iter();
        for p in &self.output_ports {
            let planes: Vec<Vec<u64>> = cursor.by_ref().take(p.width()).collect();
            port_words.insert(p.name.clone(), planes);
        }
        SimOutputs::new(n_samples, port_words)
    }

    /// Evaluates words `[w0, w1)` of the fused plan — functional planes
    /// only, no activity.
    fn eval_chunk_fused<W: Word>(
        &self,
        instrs: &[Instr],
        luts: &[LutInstr],
        n_vals: usize,
        packed: &PackedInputs<W>,
        w0: usize,
        w1: usize,
    ) -> Vec<Vec<W>> {
        let mut vals = vec![W::zero(); n_vals];
        if n_vals > self.n_slots {
            vals[self.n_slots + 1] = W::ones(); // the reserved all-ones slot
        }
        let mut planes = vec![vec![W::zero(); w1 - w0]; self.output_slots.len()];
        for w in w0..w1 {
            load_inputs(packed, w, &mut vals);
            for step in &self.fused.steps {
                match *step {
                    Step::Gates(r) => {
                        let run = self.fused.runs[r as usize];
                        exec_run(run.op, &instrs[run.start as usize..run.end as usize], &mut vals);
                    }
                    Step::Luts { start, end } => {
                        for lut in &luts[start as usize..end as usize] {
                            let mut xs = [W::zero(); MAX_K];
                            for (x, &slot) in xs.iter_mut().zip(&lut.ins[..lut.k as usize]) {
                                *x = vals[slot as usize];
                            }
                            vals[lut.dst as usize] = eval_lut(lut.table, lut.k, &xs);
                        }
                    }
                }
            }
            for (plane, &slot) in planes.iter_mut().zip(&self.output_slots) {
                plane[w - w0] = vals[slot as usize];
            }
        }
        planes
    }

    /// Runs an unfused tape view (the base instruction vector, or a
    /// masked rewrite of it over `n_vals` slots) over all words with
    /// activity tracking, in parallel chunks when the stimulus is large
    /// enough, and stitches the per-chunk results. Activity vectors are
    /// truncated to the netlist's slot count, so reserved mask slots
    /// never leak out.
    fn execute_tracked(
        &self,
        instrs: &[Instr],
        n_vals: usize,
        packed: &PackedInputs,
    ) -> (SimOutputs, Activity) {
        let n_words = packed.n_words;
        let chunks = self.plan_chunks(n_words, instrs.len().max(1));
        let outs: Vec<ChunkOut> = if chunks.len() <= 1 {
            vec![self.eval_chunk_tracked(instrs, n_vals, packed, 0, n_words)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&(w0, w1)| {
                        s.spawn(move || self.eval_chunk_tracked(instrs, n_vals, packed, w0, w1))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("chunk worker")).collect()
            })
        };

        // Stitch output planes back into per-port word vectors.
        let mut flat: Vec<Vec<u64>> = vec![vec![0u64; n_words]; self.output_slots.len()];
        for (chunk, &(w0, w1)) in outs.iter().zip(&chunks) {
            for (full, part) in flat.iter_mut().zip(&chunk.planes) {
                full[w0..w1].copy_from_slice(part);
            }
        }
        let mut port_words: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
        let mut cursor = flat.into_iter();
        for p in &self.output_ports {
            let planes: Vec<Vec<u64>> = cursor.by_ref().take(p.width()).collect();
            port_words.insert(p.name.clone(), planes);
        }

        let mut ones = vec![0u64; self.n_slots];
        let mut toggles = vec![0u64; self.n_slots];
        for chunk in &outs {
            // The chunk vectors may carry reserved mask slots past
            // `n_slots`; zip stops at the netlist's own nets.
            for (acc, v) in ones.iter_mut().zip(&chunk.ones) {
                *acc += v;
            }
            for (acc, v) in toggles.iter_mut().zip(&chunk.toggles) {
                *acc += v;
            }
        }
        let activity = Activity::new(packed.n_samples, ones, toggles);
        (SimOutputs::new(packed.n_samples, port_words), activity)
    }

    /// Splits `n_words` into per-thread word ranges. Sequential (one
    /// chunk) unless multiple threads are warranted: spawning a scoped
    /// thread costs tens of microseconds, so each chunk must carry
    /// enough tape work (`ops_per_word` × words, normalized to 64-lane
    /// units) to amortize it.
    fn plan_chunks(&self, n_words: usize, ops_per_word: usize) -> Vec<(usize, usize)> {
        /// Minimum tape operations per chunk. Study-sized tapes (a few
        /// thousand instructions × tens of words) must stay sequential:
        /// below this bar the spawn/stitch overhead reliably loses to a
        /// single thread (`BENCH_compiled_eval.json`'s auto-vs-1-thread
        /// rows), so the bar sits well above that workload.
        const MIN_OPS_PER_CHUNK: usize = 1 << 20;
        let threads = if self.threads == 0 {
            let auto =
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8);
            let by_work = (n_words * ops_per_word) / MIN_OPS_PER_CHUNK;
            auto.min(by_work)
        } else {
            self.threads // explicit pin: the caller decided
        };
        let threads = threads.min(n_words).max(1);
        let per = n_words.div_ceil(threads);
        (0..threads)
            .map(|t| (t * per, ((t + 1) * per).min(n_words)))
            .filter(|(w0, w1)| w0 < w1)
            .collect()
    }

    /// Worker threads auto-threading would use for an unfused
    /// activity-tracked run over `n_words` 64-lane words (`1` means
    /// sequential). Exposed so benchmarks can assert the planning
    /// policy — study-sized workloads must plan a single thread.
    pub fn planned_threads(&self, n_words: usize) -> usize {
        if self.threads != 0 {
            return self.threads.min(n_words).max(1);
        }
        self.plan_chunks(n_words, self.instrs.len().max(1)).len()
    }

    /// Evaluates words `[w0, w1)` of an unfused tape view with activity
    /// tracking. A chunk that does not start at word 0 first replays
    /// word `w0 - 1` functionally to seed the previous-sample bit, so
    /// cross-chunk toggle counts are exact. When `n_vals` exceeds the
    /// slot count, the two extra slots are the masked-execution
    /// constants (all-zero and all-one lanes).
    fn eval_chunk_tracked(
        &self,
        instrs: &[Instr],
        n_vals: usize,
        packed: &PackedInputs,
        w0: usize,
        w1: usize,
    ) -> ChunkOut {
        let n_samples = packed.n_samples;
        let mut vals = vec![0u64; n_vals];
        if n_vals > self.n_slots {
            vals[self.n_slots + 1] = u64::MAX; // the reserved all-ones slot
        }
        let mut planes = vec![vec![0u64; w1 - w0]; self.output_slots.len()];
        let mut ones = vec![0u64; n_vals];
        let mut toggles = vec![0u64; n_vals];
        let mut prev_msb = vec![0u64; n_vals];

        if w0 > 0 {
            // Replay the word before the chunk, counting nothing: only
            // its last sample (always lane 63 — every non-final word is
            // full) seeds the toggle boundary.
            load_inputs(packed, w0 - 1, &mut vals);
            exec_runs(&self.runs, instrs, &mut vals);
            for (msb, &v) in prev_msb.iter_mut().zip(&vals) {
                *msb = v >> 63 & 1;
            }
        }

        for w in w0..w1 {
            load_inputs(packed, w, &mut vals);
            exec_runs(&self.runs, instrs, &mut vals);
            let valid = (n_samples - w * 64).min(64);
            let mask = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            for (idx, &v) in vals.iter().enumerate() {
                ones[idx] += (v & mask).count_ones() as u64;
                let shifted = (v << 1) | prev_msb[idx];
                let mut diff = (v ^ shifted) & mask;
                if w == 0 {
                    diff &= !1; // the very first sample has no predecessor
                }
                toggles[idx] += diff.count_ones() as u64;
                prev_msb[idx] = v >> (valid - 1) & 1;
            }
            for (plane, &slot) in planes.iter_mut().zip(&self.output_slots) {
                plane[w - w0] = vals[slot as usize] & mask;
            }
        }
        ChunkOut { planes, ones, toggles }
    }
}

#[inline]
fn load_inputs<W: Word>(packed: &PackedInputs<W>, w: usize, vals: &mut [W]) {
    for (plane, &node) in packed.planes.iter().zip(&packed.nodes) {
        vals[node] = plane[w];
    }
}

/// Evaluates every run of an unfused tape view on one word of lane
/// values (the run table fixes each stretch's kind).
#[inline]
fn exec_runs<W: Word>(runs: &[Run], instrs: &[Instr], vals: &mut [W]) {
    for run in runs {
        exec_run(run.op, &instrs[run.start as usize..run.end as usize], vals);
    }
}

/// Evaluates one single-kind instruction stretch on one word of lane
/// values: one kind dispatch, then a branch-free loop.
///
/// The per-kind expressions mirror [`GateKind::eval_word`] — the
/// differential suite pins them against the scalar reference, at both
/// word widths.
fn exec_run<W: Word>(op: GateKind, instrs: &[Instr], vals: &mut [W]) {
    macro_rules! unary {
        ($instrs:expr, |$a:ident| $e:expr) => {
            for i in $instrs {
                let $a = vals[i.a as usize];
                vals[i.dst as usize] = $e;
            }
        };
    }
    macro_rules! binary {
        ($instrs:expr, |$a:ident, $b:ident| $e:expr) => {
            for i in $instrs {
                let $a = vals[i.a as usize];
                let $b = vals[i.b as usize];
                vals[i.dst as usize] = $e;
            }
        };
    }
    macro_rules! ternary {
        ($instrs:expr, |$a:ident, $b:ident, $c:ident| $e:expr) => {
            for i in $instrs {
                let $a = vals[i.a as usize];
                let $b = vals[i.b as usize];
                let $c = vals[i.c as usize];
                vals[i.dst as usize] = $e;
            }
        };
    }
    match op {
        GateKind::Const0 => {
            for i in instrs {
                vals[i.dst as usize] = W::zero();
            }
        }
        GateKind::Const1 => {
            for i in instrs {
                vals[i.dst as usize] = W::ones();
            }
        }
        GateKind::Buf => unary!(instrs, |a| a),
        GateKind::Not => unary!(instrs, |a| !a),
        GateKind::And2 => binary!(instrs, |a, b| a & b),
        GateKind::Nand2 => binary!(instrs, |a, b| !(a & b)),
        GateKind::Or2 => binary!(instrs, |a, b| a | b),
        GateKind::Nor2 => binary!(instrs, |a, b| !(a | b)),
        GateKind::And3 => ternary!(instrs, |a, b, c| a & b & c),
        GateKind::Or3 => ternary!(instrs, |a, b, c| a | b | c),
        GateKind::Nand3 => ternary!(instrs, |a, b, c| !(a & b & c)),
        GateKind::Nor3 => ternary!(instrs, |a, b, c| !(a | b | c)),
        GateKind::Xor2 => binary!(instrs, |a, b| a ^ b),
        GateKind::Xnor2 => binary!(instrs, |a, b| !(a ^ b)),
        // ins = (sel, a, b): sel ? a : b
        GateKind::Mux2 => ternary!(instrs, |a, b, c| (a & b) | (!a & c)),
    }
}

/// One chunk's worth of tracked results, stitched by `execute_tracked`.
struct ChunkOut {
    planes: Vec<Vec<u64>>,
    ones: Vec<u64>,
    toggles: Vec<u64>,
}

/// Operand rewrite pinning a gate of `kind` to the constant `value`,
/// given the reserved all-`zero` and all-`one` slots. Every non-free
/// kind can produce both constants from those two streams, so masked
/// execution never has to alter run grouping or instruction kinds.
pub(crate) fn const_operands(kind: GateKind, value: bool, zero: u32, one: u32) -> (u32, u32, u32) {
    use GateKind::*;
    // `t`: fill that makes the gate output `value` for monotone kinds;
    // `f`: the inverted fill for the negated kinds.
    let t = if value { one } else { zero };
    let f = if value { zero } else { one };
    match kind {
        Buf => (t, zero, zero),
        Not => (f, zero, zero),
        And2 | And3 | Or2 | Or3 => (t, t, t),
        Nand2 | Nand3 | Nor2 | Nor3 => (f, f, f),
        Xor2 => (if value { one } else { zero }, zero, zero),
        Xnor2 => (if value { zero } else { one }, zero, zero),
        // (sel, a, b): sel = 1 selects the `a` operand.
        Mux2 => (one, t, zero),
        Const0 | Const1 => unreachable!("constant ties are never masked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use pax_netlist::{NetId, NetlistBuilder};

    /// A netlist exercising every gate kind on shared inputs.
    fn all_kinds_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("kinds");
        let x = b.input_port("x", 3);
        let (a, c, s) = (x[0], x[1], x[2]);
        let k0 = b.const0();
        let k1 = b.const1();
        let outs = vec![
            b.buf_cell(a),
            b.not(a),
            b.and2(a, c),
            b.nand2(a, c),
            b.or2(a, c),
            b.nor2(a, c),
            b.and3(a, c, s),
            b.or3(a, c, s),
            b.nand3(a, c, s),
            b.nor3(a, c, s),
            b.xor2(a, c),
            b.xnor2(a, c),
            b.mux(s, a, c),
            k0,
            k1,
        ];
        b.output_port("y", outs.into());
        b.finish()
    }

    /// A netlist with a deep single-fanout cone — the fusion pass must
    /// collapse it. Returns the netlist plus the internal cone nets (in
    /// topological order) and the cone output.
    fn cone_netlist() -> (Netlist, Vec<NetId>, NetId) {
        let mut b = NetlistBuilder::new("cone");
        let x = b.input_port("x", 6);
        let t1 = b.and2(x[0], x[1]);
        let t2 = b.and2(t1, x[2]);
        let t3 = b.or2(t2, x[3]);
        let t4 = b.and2(t3, x[4]);
        let out = b.xor2(t4, x[5]);
        b.output_port("y", vec![out].into());
        (b.finish(), vec![t1, t2, t3, t4], out)
    }

    fn exhaustive_stim(width: usize, repeats: usize) -> Stimulus {
        let n = 1usize << width;
        let samples: Vec<u64> = (0..n * repeats).map(|i| (i % n) as u64).collect();
        let mut stim = Stimulus::new();
        stim.port("x", samples);
        stim
    }

    #[test]
    fn compiled_matches_interpreter_on_all_gate_kinds() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        // 40 repeats → 320 samples → 5 words; exercises word boundaries.
        let stim = exhaustive_stim(3, 40);
        let reference = simulate(&nl, &stim);
        let got = compiled.run_with_activity(&stim).unwrap();
        assert_eq!(got.port_values("y"), reference.port_values("y"));
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(got.activity.ones(net), reference.activity.ones(net), "ones of net {i}");
            assert_eq!(
                got.activity.toggles(net),
                reference.activity.toggles(net),
                "toggles of net {i}"
            );
        }
        // The functional-only (fused, wide-word) path agrees too.
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
    }

    #[test]
    fn fused_cone_matches_unfused_on_all_paths() {
        let (nl, _, _) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        assert!(compiled.n_luts() >= 1, "the cone must fuse");
        assert!(
            compiled.n_fused_instructions() < compiled.n_instructions(),
            "fusion must shorten the tape: {} vs {}",
            compiled.n_fused_instructions(),
            compiled.n_instructions()
        );
        // 5 repeats → 320 samples: exercises both word widths.
        let stim = exhaustive_stim(6, 5);
        let reference = simulate(&nl, &stim);
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        let packed = compiled.pack(&stim).unwrap();
        assert_eq!(compiled.run_packed(&packed).port_values("y"), reference.port_values("y"));
        let unfused = compiled.run_packed_with_activity(&packed);
        assert_eq!(unfused.port_values("y"), reference.port_values("y"));
    }

    #[test]
    fn wide_words_match_u64_exactly() {
        let (nl, _, _) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        for n in [1usize, 63, 64, 65, 127, 128, 129, 255, 256, 257, 320] {
            let samples: Vec<u64> = (0..n).map(|i| (i % 64) as u64).collect();
            let mut stim = Stimulus::new();
            stim.port("x", samples);
            let narrow = {
                let packed = compiled.pack(&stim).unwrap();
                compiled.run_packed(&packed)
            };
            let wide = {
                let packed = compiled.pack_wide(&stim).unwrap();
                compiled.run_packed(&packed)
            };
            assert_eq!(wide.port_values("y"), narrow.port_values("y"), "n={n}");
            // `run` picks the width itself; it must agree with both.
            assert_eq!(compiled.run(&stim).unwrap().port_values("y"), narrow.port_values("y"));
        }
    }

    #[test]
    fn masked_activity_is_bit_identical_to_full_masked_run() {
        let (nl, internals, out) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let stim = exhaustive_stim(6, 3); // 192 samples, 3 words
        let packed = compiled.pack(&stim).unwrap();
        let trace = compiled.trace(&packed);
        // Base activity from the trace matches a full tracked run.
        let full = compiled.run_packed_with_activity(&packed);
        let base = trace.base_activity();
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(base.ones(net), full.activity.ones(net), "base ones {i}");
            assert_eq!(base.toggles(net), full.activity.toggles(net), "base toggles {i}");
        }
        // A delta simulation seeded from the trace re-executes only the
        // masked net's fanout; its activity equals the full masked
        // tracked run, for masks on internal cone nets and on the cone
        // output alike.
        let mut nets = internals.clone();
        nets.push(out);
        for &net in &nets {
            for value in [false, true] {
                let (_, delta) =
                    crate::DeltaSim::new(&compiled, &trace).step(&compiled, &[(net, value)]);
                let oracle = compiled.run_masked_with_activity(&packed, &[(net, value)]);
                for i in 0..nl.len() {
                    let n = NetId::from_index(i);
                    assert_eq!(
                        delta.ones(n),
                        oracle.activity.ones(n),
                        "ones net {i} mask {net}={value}"
                    );
                    assert_eq!(
                        delta.toggles(n),
                        oracle.activity.toggles(n),
                        "toggles net {i} mask {net}={value}"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let nl = all_kinds_netlist();
        let stim = exhaustive_stim(3, 100); // 800 samples, 13 words
        let reference = simulate(&nl, &stim);
        for threads in [1, 2, 3, 8] {
            let compiled = CompiledNetlist::compile(&nl).with_threads(threads);
            let got = compiled.run_with_activity(&stim).unwrap();
            assert_eq!(got.port_values("y"), reference.port_values("y"), "threads={threads}");
            for i in 0..nl.len() {
                let net = NetId::from_index(i);
                assert_eq!(got.activity.ones(net), reference.activity.ones(net));
                assert_eq!(
                    got.activity.toggles(net),
                    reference.activity.toggles(net),
                    "threads={threads} net={i}"
                );
            }
            // The fused functional path is thread-invariant too.
            assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        }
    }

    #[test]
    fn runs_group_gate_kinds() {
        let mut b = NetlistBuilder::new("grp");
        let x = b.input_port("x", 4);
        // Four independent AND2 gates at level 1: one run.
        let ands: Vec<_> = (0..4).map(|i| b.and2(x[i], x[(i + 1) % 4])).collect();
        let or = b.or2(ands[0], ands[1]);
        let or2 = b.or2(ands[2], ands[3]);
        let top = b.xor2(or, or2);
        b.output_port("y", vec![top].into());
        let nl = b.finish();
        let compiled = CompiledNetlist::compile(&nl);
        assert_eq!(
            compiled.n_instructions(),
            nl.iter().filter(|(_, n)| matches!(n, Node::Gate(_))).count()
        );
        // 4 ANDs + 2 ORs + 1 XOR collapse into exactly three runs.
        assert_eq!(compiled.n_runs(), 3);
        assert_eq!(compiled.n_slots(), nl.len());
        assert_eq!(compiled.name(), "grp");
    }

    #[test]
    fn planned_threads_stay_sequential_on_small_workloads() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        // A study-sized workload (tens of words × a small tape) must
        // never be split: the spawn overhead loses to one thread.
        assert_eq!(compiled.planned_threads(64), 1);
        // Explicit pins are honored verbatim.
        assert_eq!(compiled.clone().with_threads(3).planned_threads(64), 3);
    }

    #[test]
    fn reports_typed_errors_like_the_interpreter() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        assert_eq!(compiled.run(&Stimulus::new()).unwrap_err(), SimError::EmptyStimulus);
        let mut oversized = Stimulus::new();
        oversized.port("x", vec![8]);
        assert!(matches!(
            compiled.run(&oversized),
            Err(SimError::OversizedSample { value: 8, width: 3, .. })
        ));
        let empty_named = {
            let mut b = NetlistBuilder::new("two");
            let x = b.input_port("x", 1);
            let y = b.input_port("y", 1);
            let g = b.and2(x[0], y[0]);
            b.output_port("z", vec![g].into());
            CompiledNetlist::compile(&b.finish())
        };
        let mut missing = Stimulus::new();
        missing.port("x", vec![1]);
        assert!(matches!(
            empty_named.run(&missing),
            Err(SimError::MissingPort { port }) if port == "y"
        ));
    }

    #[test]
    fn masked_run_pins_gates_to_their_constants() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let stim = exhaustive_stim(3, 40);
        let packed = compiled.pack(&stim).unwrap();
        // Mask every non-free gate in turn, to both constants: the
        // masked slot must stream exactly that constant, and every
        // other gate must behave as if it read it.
        let gates: Vec<NetId> = nl
            .iter()
            .filter_map(|(id, n)| match n {
                Node::Gate(g) if !g.kind.is_free() => Some(id),
                _ => None,
            })
            .collect();
        for &g in &gates {
            for value in [false, true] {
                let got = compiled.run_masked_with_activity(&packed, &[(g, value)]);
                let n = got.n_samples as u64;
                assert_eq!(got.activity.ones(g), if value { n } else { 0 }, "gate {g}");
                assert_eq!(got.activity.toggles(g), 0, "gate {g}");
                // Reference: rebuild the netlist with the gate's output
                // bit replaced by a constant in the output port.
                let y = nl.output_ports()[0].clone();
                let scalar: Vec<u64> = (0..got.n_samples)
                    .map(|s| {
                        let x = stim.samples("x").unwrap()[s];
                        let mut vals = vec![false; nl.len()];
                        for (id, node) in nl.iter() {
                            vals[id.index()] = match node {
                                Node::Input { bit, .. } => x >> bit & 1 == 1,
                                Node::Gate(gg) => {
                                    let ins: Vec<bool> =
                                        gg.inputs().iter().map(|i| vals[i.index()]).collect();
                                    gg.kind.eval_bool(&ins)
                                }
                            };
                            if id == g {
                                vals[id.index()] = value;
                            }
                        }
                        y.bits
                            .iter()
                            .enumerate()
                            .fold(0u64, |acc, (i, b)| acc | (vals[b.index()] as u64) << i)
                    })
                    .collect();
                assert_eq!(got.port_values("y"), scalar, "gate {g} value {value}");
            }
        }
    }

    #[test]
    fn masked_run_is_thread_invariant_and_packed_paths_agree() {
        let nl = all_kinds_netlist();
        let stim = exhaustive_stim(3, 100); // 800 samples, 13 words
        let mask_net = nl
            .iter()
            .find_map(|(id, n)| match n {
                Node::Gate(g) if g.kind == GateKind::And3 => Some(id),
                _ => None,
            })
            .expect("AND3 present");
        let reference = {
            let c = CompiledNetlist::compile(&nl).with_threads(1);
            let packed = c.pack(&stim).unwrap();
            c.run_masked_with_activity(&packed, &[(mask_net, true)])
        };
        for threads in [2, 3, 8] {
            let c = CompiledNetlist::compile(&nl).with_threads(threads);
            let packed = c.pack(&stim).unwrap();
            let got = c.run_masked_with_activity(&packed, &[(mask_net, true)]);
            assert_eq!(got.port_values("y"), reference.port_values("y"), "threads={threads}");
            for i in 0..nl.len() {
                let net = NetId::from_index(i);
                assert_eq!(got.activity.ones(net), reference.activity.ones(net));
                assert_eq!(
                    got.activity.toggles(net),
                    reference.activity.toggles(net),
                    "threads={threads} net={i}"
                );
            }
        }
        // The packed entry points agree with the stimulus-taking ones.
        let c = CompiledNetlist::compile(&nl);
        let packed = c.pack(&stim).unwrap();
        assert_eq!(packed.n_samples(), 800);
        let a = c.run_packed_with_activity(&packed);
        let b = c.run_with_activity(&stim).unwrap();
        assert_eq!(a.port_values("y"), b.port_values("y"));
        assert_eq!(c.run_packed(&packed).port_values("y"), b.port_values("y"));
        // An empty mask degenerates to the unmasked run.
        let ma = c.run_masked_with_activity(&packed, &[]);
        assert_eq!(ma.port_values("y"), b.port_values("y"));
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(ma.activity.toggles(net), b.activity.toggles(net));
        }
    }

    #[test]
    #[should_panic(expected = "not a gate instruction")]
    fn masking_an_input_panics_with_activity() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let packed = compiled.pack(&exhaustive_stim(3, 2)).unwrap();
        let input_net = nl.input_ports()[0].bits[0];
        let _ = compiled.run_masked_with_activity(&packed, &[(input_net, true)]);
    }

    #[test]
    fn single_sample_and_exact_word_boundaries() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        for n in [1usize, 63, 64, 65, 128, 129] {
            let samples: Vec<u64> = (0..n).map(|i| (i % 8) as u64).collect();
            let mut stim = Stimulus::new();
            stim.port("x", samples);
            let reference = simulate(&nl, &stim);
            let got = compiled.run_with_activity(&stim).unwrap();
            assert_eq!(got.port_values("y"), reference.port_values("y"), "n={n}");
            for i in 0..nl.len() {
                let net = NetId::from_index(i);
                assert_eq!(got.activity.toggles(net), reference.activity.toggles(net), "n={n}");
            }
            // The fused path (either width) agrees at every boundary.
            assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        }
    }
}
