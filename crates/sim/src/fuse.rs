//! LUT-cone fusion: collapsing single-fanout gate cones into k-input
//! table lookups at compile time.
//!
//! The compiled tape executes one 2–3-input gate per instruction; most
//! of the per-instruction cost is *not* the logic op but the decode —
//! operand index loads, value loads/stores, loop control. Fusion
//! removes whole runs of that overhead: a cone of gates whose internal
//! nets feed nothing else collapses into one [`LutInstr`] — `k ≤ 6`
//! external inputs, a 64-bit truth table, one destination slot.
//!
//! # Cone-cover invariants
//!
//! The greedy cover maintains, for every fused cone:
//!
//! * **single-fanout internals** — every member gate except the cone
//!   output drives exactly one consumer, and that consumer is inside
//!   the cone. Nothing outside the cone can observe an internal net,
//!   so eliding internal slots is invisible to outputs;
//! * **no output ports inside** — a net feeding an output port is never
//!   fused into a cone's interior (it may only be the cone output);
//! * **k ≤ 6 external inputs** — the truth table of any member subset
//!   fits one `u64` (64 rows);
//! * **members stay in tape order** — member positions are ascending in
//!   the unfused tape, so replaying them in that order is a valid
//!   topological evaluation. The cone output is always the
//!   highest-position member;
//! * **profitability** — a cone is only fused when the estimated
//!   word-op cost of its pruned-Shannon table evaluation beats the
//!   decoded-gate cost it replaces. Dense tables (XOR trees) stay
//!   unfused; sparse/monotone cones (AND/OR networks, comparators)
//!   fuse.
//!
//! Activity accounting cannot see inside a fused cone (internal nets
//! are never materialized), which is why every activity-tracking and
//! masked path executes the unfused tape.

use pax_netlist::GateKind;

use crate::word::Word;

/// One tape instruction (shared with the unfused tape): dense operand
/// slots plus the destination slot. Unused operands point at slot 0 and
/// are never read by the executing run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub dst: u32,
}

/// A maximal consecutive stretch of instructions sharing one gate kind.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub op: GateKind,
    pub start: u32,
    pub end: u32,
}

/// Maximum external inputs per fused cone: the truth table must fit a
/// `u64` (2^6 = 64 rows).
pub(crate) const MAX_K: usize = 6;

/// Maximum gates absorbed into one cone — bounds the compile-time cost
/// of deriving its table.
const MAX_MEMBERS: usize = 24;

/// Input-pattern words for table derivation: bit (row) `r` of `PAT[j]`
/// is input `j`'s value in row `r`, i.e. `(r >> j) & 1`. Evaluating the
/// cone's gates over these 64-row words yields the truth table in one
/// bit-parallel pass.
const PAT: [u64; MAX_K] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// All-rows mask for a `k`-input table (the low `2^k` bits).
#[inline]
pub(crate) fn table_mask(k: u8) -> u64 {
    if k >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << k)) - 1
    }
}

/// One fused cone: `k` input slots, a `2^k`-row truth table (normalized
/// to [`table_mask`]), one destination slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LutInstr {
    pub table: u64,
    pub dst: u32,
    pub k: u8,
    pub ins: [u32; MAX_K],
}

/// Fused-tape step stream: gate runs and LUT batches interleaved in
/// topological order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Execute run `runs[i]` of the residual gate instructions.
    Gates(u32),
    /// Execute `luts[start..end]`.
    Luts { start: u32, end: u32 },
}

/// The fused execution plan derived from an unfused tape: residual gate
/// instructions (kind-grouped), LUT instructions, and the interleaved
/// step stream.
#[derive(Debug, Clone)]
pub(crate) struct FusedTape {
    /// Residual (unfused) gate instructions, original tape order.
    pub instrs: Vec<Instr>,
    /// Kind-grouped runs over `instrs`.
    pub runs: Vec<Run>,
    /// Fused cones, in cone-output tape order.
    pub luts: Vec<LutInstr>,
    /// Interleaving of `runs` and `luts` ranges, topological.
    pub steps: Vec<Step>,
}

impl FusedTape {
    /// Covers the unfused tape (`instrs` + per-position `kinds`) with
    /// profitable LUT cones and builds the fused execution plan.
    /// `output_slots` are the netlist's output-port nets — never fused
    /// into a cone interior.
    pub fn build(
        instrs: &[Instr],
        kinds: &[GateKind],
        n_slots: usize,
        output_slots: &[u32],
    ) -> Self {
        let mut instr_at = vec![u32::MAX; n_slots];
        let mut const_of: Vec<Option<bool>> = vec![None; n_slots];
        for (at, i) in instrs.iter().enumerate() {
            instr_at[i.dst as usize] = at as u32;
            match kinds[at] {
                GateKind::Const0 => const_of[i.dst as usize] = Some(false),
                GateKind::Const1 => const_of[i.dst as usize] = Some(true),
                _ => {}
            }
        }
        let mut fanout = vec![0u32; n_slots];
        for (at, i) in instrs.iter().enumerate() {
            let (ops, arity) = operand_list(i, kinds[at]);
            for &op in &ops[..arity] {
                fanout[op as usize] += 1;
            }
        }
        let mut is_output = vec![false; n_slots];
        for &s in output_slots {
            is_output[s as usize] = true;
        }

        // Greedy cover, outputs-first: processing positions in reverse
        // tape order roots cones as close to the outputs as possible,
        // so deep fan-in logic is absorbed upward.
        let mut covered = vec![false; instrs.len()];
        let mut lut_at: Vec<Option<LutInstr>> = vec![None; instrs.len()];
        for root in (0..instrs.len()).rev() {
            if covered[root] || kinds[root].is_free() {
                continue;
            }
            let Some((members, inputs)) =
                grow_cone(root, instrs, kinds, &instr_at, &const_of, &fanout, &is_output, &covered)
            else {
                continue;
            };
            let k = inputs.len() as u8;
            let table = cone_table(instrs, kinds, &members, &inputs, &const_of);
            // Profitability: a decoded gate instruction costs ~4 units
            // (index loads, value loads, op, store); a LUT costs its
            // gather (k), its pruned-Shannon op count, and ~2 units of
            // decode. Dense tables (XOR trees) fail this test and stay
            // as gates.
            let gate_units = 4 * members.len() as u32;
            let lut_units = u32::from(k) + lut_cost(table, k) + 2;
            if lut_units > gate_units {
                continue;
            }
            for &m in &members {
                covered[m as usize] = true;
            }
            let mut ins = [0u32; MAX_K];
            ins[..inputs.len()].copy_from_slice(&inputs);
            let dst = instrs[root].dst;
            lut_at[root] = Some(LutInstr { table, dst, k, ins });
        }

        // Assemble the fused stream in original tape order: uncovered
        // instructions stay as gates; cone roots become LUTs; interior
        // members vanish.
        let mut fused_instrs: Vec<Instr> = Vec::new();
        let mut runs: Vec<Run> = Vec::new();
        let mut luts: Vec<LutInstr> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        for (at, i) in instrs.iter().enumerate() {
            if let Some(lut) = lut_at[at] {
                let idx = luts.len() as u32;
                match steps.last_mut() {
                    Some(Step::Luts { end, .. }) if *end == idx => *end = idx + 1,
                    _ => steps.push(Step::Luts { start: idx, end: idx + 1 }),
                }
                luts.push(lut);
            } else if !covered[at] {
                let pos = fused_instrs.len() as u32;
                fused_instrs.push(*i);
                let kind = kinds[at];
                let last_run = runs.len().wrapping_sub(1) as u32;
                match (steps.last(), runs.last_mut()) {
                    (Some(&Step::Gates(r)), Some(run)) if r == last_run && run.op == kind => {
                        run.end = pos + 1;
                    }
                    _ => {
                        steps.push(Step::Gates(runs.len() as u32));
                        runs.push(Run { op: kind, start: pos, end: pos + 1 });
                    }
                }
            }
        }

        Self { instrs: fused_instrs, runs, luts, steps }
    }
}

/// The real (arity-limited) operand slots of one instruction.
#[inline]
fn operand_list(i: &Instr, kind: GateKind) -> ([u32; 3], usize) {
    ([i.a, i.b, i.c], kind.arity())
}

/// Grows a cone rooted at `root`: greedily absorbs single-fanout,
/// non-output, uncovered gate drivers of the current input frontier
/// while the external input count stays ≤ [`MAX_K`]. Returns ascending
/// member positions and sorted input slots, or `None` when the cone
/// stays a single gate (nothing to fuse).
#[allow(clippy::too_many_arguments)]
fn grow_cone(
    root: usize,
    instrs: &[Instr],
    kinds: &[GateKind],
    instr_at: &[u32],
    const_of: &[Option<bool>],
    fanout: &[u32],
    is_output: &[bool],
    covered: &[bool],
) -> Option<(Vec<u32>, Vec<u32>)> {
    use std::collections::BTreeSet;
    let mut members: BTreeSet<u32> = BTreeSet::new();
    let mut member_dsts: BTreeSet<u32> = BTreeSet::new();
    let mut inputs: BTreeSet<u32> = BTreeSet::new();
    members.insert(root as u32);
    member_dsts.insert(instrs[root].dst);
    let (ops, arity) = operand_list(&instrs[root], kinds[root]);
    for &op in &ops[..arity] {
        if const_of[op as usize].is_none() {
            inputs.insert(op);
        }
    }

    loop {
        let mut absorbed = None;
        // Descending slot order: consumers sit later in the tape than
        // producers, so this tends to absorb shallow nets first and is
        // fully deterministic.
        for &s in inputs.iter().rev() {
            let at = instr_at[s as usize];
            if at == u32::MAX
                || covered[at as usize]
                || kinds[at as usize].is_free()
                || is_output[s as usize]
                || fanout[s as usize] != 1
                || members.len() >= MAX_MEMBERS
            {
                continue;
            }
            let (ops, arity) = operand_list(&instrs[at as usize], kinds[at as usize]);
            let mut fresh: BTreeSet<u32> = BTreeSet::new();
            for &op in &ops[..arity] {
                if const_of[op as usize].is_none()
                    && !inputs.contains(&op)
                    && !member_dsts.contains(&op)
                {
                    fresh.insert(op);
                }
            }
            if inputs.len() - 1 + fresh.len() <= MAX_K {
                absorbed = Some((s, at, fresh));
                break;
            }
        }
        let Some((s, at, fresh)) = absorbed else { break };
        inputs.remove(&s);
        inputs.extend(fresh);
        members.insert(at);
        member_dsts.insert(s);
    }

    if members.len() < 2 {
        return None;
    }
    Some((members.into_iter().collect(), inputs.into_iter().collect()))
}

/// Evaluates a cone's members over the 64 input-pattern rows and
/// returns the truth table normalized to `2^k` rows.
fn cone_table(
    instrs: &[Instr],
    kinds: &[GateKind],
    members: &[u32],
    inputs: &[u32],
    const_of: &[Option<bool>],
) -> u64 {
    use std::collections::BTreeMap;
    let mut scratch: BTreeMap<u32, u64> =
        inputs.iter().enumerate().map(|(j, &s)| (s, PAT[j])).collect();
    let mut out = 0u64;
    for &m in members {
        let i = &instrs[m as usize];
        let kind = kinds[m as usize];
        let get = |s: u32| -> u64 {
            if let Some(&v) = scratch.get(&s) {
                v
            } else if let Some(c) = const_of[s as usize] {
                if c {
                    u64::MAX
                } else {
                    0
                }
            } else {
                unreachable!("cone operand {s} is neither input, member nor constant")
            }
        };
        let (ops, arity) = operand_list(i, kind);
        let a = if arity > 0 { get(ops[0]) } else { 0 };
        let b = if arity > 1 { get(ops[1]) } else { 0 };
        let c = if arity > 2 { get(ops[2]) } else { 0 };
        let v = kind.eval_word(a, b, c);
        scratch.insert(i.dst, v);
        out = v; // the last member is the cone output
    }
    out & table_mask(inputs.len() as u8)
}

/// Estimated word-op count of [`eval_lut`] on this table — the same
/// pruned-Shannon recursion, counting instead of computing.
fn lut_cost(table: u64, k: u8) -> u32 {
    let full = table_mask(k);
    if table == 0 || table == full {
        return 0;
    }
    debug_assert!(k >= 1);
    let half = 1usize << (k - 1);
    let lo_mask = table_mask(k - 1);
    let lo = table & lo_mask;
    let hi = (table >> half) & lo_mask;
    if lo == hi {
        return lut_cost(lo, k - 1);
    }
    match (lo == 0, hi == 0, lo == lo_mask, hi == lo_mask) {
        (true, _, _, _) => 1 + lut_cost(hi, k - 1),
        (_, true, _, _) => 2 + lut_cost(lo, k - 1),
        (_, _, true, _) => 2 + lut_cost(hi, k - 1),
        (_, _, _, true) => 1 + lut_cost(lo, k - 1),
        _ => 3 + lut_cost(lo, k - 1) + lut_cost(hi, k - 1),
    }
}

/// Evaluates one LUT on lane-parallel input words via pruned Shannon
/// cofactoring: constant and equal cofactors short-circuit, so the op
/// count matches [`lut_cost`]'s estimate.
#[inline]
pub(crate) fn eval_lut<W: Word>(table: u64, k: u8, xs: &[W; MAX_K]) -> W {
    let full = table_mask(k);
    if table == 0 {
        return W::zero();
    }
    if table == full {
        return W::ones();
    }
    debug_assert!(k >= 1, "constant tables are handled above");
    let half = 1usize << (k - 1);
    let lo_mask = table_mask(k - 1);
    let lo = table & lo_mask;
    let hi = (table >> half) & lo_mask;
    if lo == hi {
        return eval_lut(lo, k - 1, xs);
    }
    let x = xs[(k - 1) as usize];
    if lo == 0 {
        return x & eval_lut(hi, k - 1, xs);
    }
    if hi == 0 {
        return !x & eval_lut(lo, k - 1, xs);
    }
    if lo == lo_mask {
        return !x | eval_lut(hi, k - 1, xs);
    }
    if hi == lo_mask {
        return x | eval_lut(lo, k - 1, xs);
    }
    (x & eval_lut(hi, k - 1, xs)) | (!x & eval_lut(lo, k - 1, xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_lut_matches_table_indexing() {
        // Deterministic pseudo-random tables at every k.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for k in 0u8..=6 {
            for _ in 0..50 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let table = state & table_mask(k);
                for row in 0..(1usize << k) {
                    let bits: Vec<bool> = (0..k).map(|j| row >> j & 1 == 1).collect();
                    let mut xs = [0u64; MAX_K];
                    for (j, &b) in bits.iter().enumerate() {
                        xs[j] = if b { u64::MAX } else { 0 };
                    }
                    let got = eval_lut(table, k, &xs) & 1;
                    let want = table >> row & 1;
                    assert_eq!(got, want, "k={k} table={table:#x} row={row}");
                    let _ = bits;
                }
            }
        }
    }

    #[test]
    fn eval_lut_is_lane_parallel() {
        // AND2 table (row 3 only): lanes evaluate independently.
        let table = 0b1000u64;
        let mut xs = [0u64; MAX_K];
        xs[0] = 0b1100;
        xs[1] = 0b1010;
        assert_eq!(eval_lut(table, 2, &xs), 0b1000);
    }

    #[test]
    fn lut_cost_prunes_sparse_tables() {
        // AND6: one set row → chain of k pruned levels.
        let and6 = 1u64 << 63;
        assert!(lut_cost(and6, 6) <= 6, "AND6 cost {}", lut_cost(and6, 6));
        // XOR6: fully dense table, no pruning anywhere.
        let mut xor6 = 0u64;
        for row in 0..64u64 {
            if (row.count_ones() & 1) == 1 {
                xor6 |= 1 << row;
            }
        }
        assert!(lut_cost(xor6, 6) > 60, "XOR6 cost {}", lut_cost(xor6, 6));
        // Constants cost nothing.
        assert_eq!(lut_cost(0, 4), 0);
        assert_eq!(lut_cost(table_mask(4), 4), 0);
    }
}
