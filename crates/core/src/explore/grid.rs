//! The paper-faithful exhaustive `(τc, φc)` sweep as a
//! [`SearchStrategy`].

use super::{Candidate, ObjectiveSet, SearchSpace, SearchStrategy};
use crate::DesignPoint;

/// Exhaustive grid search: every configured τc step and, per τc, every
/// relevant φc from the τ-qualified gates' distinct φ values (the
/// paper's Φτ acceleration) — for each base circuit in the space.
///
/// Through the engine this reproduces `enumerate_grid` +
/// the rebuild oracle exactly: same candidates, same order, one
/// evaluation per distinct pruned-gate set (the engine's cache takes
/// the role of the grid's dedup map).
#[derive(Debug, Default)]
pub struct ExhaustiveGrid {
    emitted: bool,
}

impl ExhaustiveGrid {
    /// A fresh sweep.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SearchStrategy for ExhaustiveGrid {
    fn name(&self) -> &str {
        "exhaustive-grid"
    }

    fn ask(&mut self, space: &SearchSpace) -> Vec<Candidate> {
        if self.emitted {
            return Vec::new();
        }
        self.emitted = true;
        let mut batch = Vec::new();
        for ctx in &space.contexts {
            let before = batch.len();
            for &tau_c in &space.tau_values {
                for phi_c in ctx.phis_at(tau_c) {
                    batch.push(Candidate { coeff: ctx.gene, tau_c, phi_c });
                }
            }
            if batch.len() == before {
                // No τc qualified a single gate (Φτ empty everywhere):
                // without this the context vanished from the sweep
                // silently. Emit its unpruned baseline at the weakest
                // τc so the front still carries the base circuit.
                if let Some(&tau_c) = space.tau_values.first() {
                    batch.push(Candidate { coeff: ctx.gene, tau_c, phi_c: -1 });
                }
            }
        }
        batch
    }

    // The sweep is one-shot and unconditional, so feedback — under any
    // objective set — never changes what it asks next.
    fn tell(&mut self, _results: &[(Candidate, DesignPoint)], _objectives: &ObjectiveSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{CoeffGene, ContextSpace};

    #[test]
    fn sweep_emits_once_in_grid_order() {
        let space = SearchSpace {
            tau_values: vec![0.8, 0.9],
            contexts: vec![ContextSpace {
                gene: CoeffGene::exact(),
                gates: vec![(0.85, 2), (0.95, 0), (0.95, 2)],
            }],
        };
        let mut g = ExhaustiveGrid::new();
        let batch = g.ask(&space);
        // τc=0.8 qualifies all gates (φ ∈ {0, 2}); τc=0.9 the two φ∈{0,2}.
        let got: Vec<(f64, i64)> = batch.iter().map(|c| (c.tau_c, c.phi_c)).collect();
        assert_eq!(got, vec![(0.8, 0), (0.8, 2), (0.9, 0), (0.9, 2)]);
        assert!(g.ask(&space).is_empty(), "one-shot strategy");
    }

    #[test]
    fn sweep_covers_every_context() {
        let space = SearchSpace {
            tau_values: vec![0.8],
            contexts: vec![
                ContextSpace { gene: CoeffGene::exact(), gates: vec![(0.9, 1)] },
                ContextSpace { gene: CoeffGene::uniform(1), gates: vec![(0.9, 4)] },
            ],
        };
        let batch = ExhaustiveGrid::new().ask(&space);
        assert_eq!(batch.len(), 2);
        assert!(batch[0].coeff.is_exact() && !batch[1].coeff.is_exact());
    }

    #[test]
    fn gate_free_context_still_emits_its_baseline() {
        // Regression: a context whose Φτ was empty at every τc (all
        // gates below the weakest threshold, or no gates at all)
        // produced zero candidates — the base circuit silently dropped
        // out of the study. It now contributes one unpruned baseline
        // point at the weakest τc.
        let space = SearchSpace {
            tau_values: vec![0.8, 0.9],
            contexts: vec![
                ContextSpace { gene: CoeffGene::exact(), gates: vec![(0.85, 2)] },
                // Every gate sits below τc=0.8, so no τc qualifies any.
                ContextSpace { gene: CoeffGene::uniform(1), gates: vec![(0.5, 1), (0.7, 3)] },
                ContextSpace { gene: CoeffGene::uniform(2), gates: Vec::new() },
            ],
        };
        let batch = ExhaustiveGrid::new().ask(&space);
        let approx: Vec<&Candidate> =
            batch.iter().filter(|c| c.coeff == CoeffGene::uniform(1)).collect();
        assert_eq!(approx.len(), 1, "exactly one baseline point");
        assert_eq!((approx[0].tau_c, approx[0].phi_c), (0.8, -1));
        let empty: Vec<&Candidate> =
            batch.iter().filter(|c| c.coeff == CoeffGene::uniform(2)).collect();
        assert_eq!(empty.len(), 1);
        assert_eq!((empty[0].tau_c, empty[0].phi_c), (0.8, -1));
    }
}
