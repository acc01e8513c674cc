//! Shared pieces of the `*_eval` comparison studies: the bit-identity
//! check every speedup is gated on, the distinct designs a production
//! run paid for (what the rebuild baselines re-measure), and paired
//! timing summarized by a median ratio and its interquartile range.

use std::collections::HashSet;

use pax_core::explore::{Candidate, Evaluator};
use pax_core::DesignPoint;

/// Whether two result lists carry bit-identical design points for the
/// same genomes in the same order, on all four measured axes.
pub fn bit_identical(a: &[(Candidate, DesignPoint)], b: &[(Candidate, DesignPoint)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ca, pa), (cb, pb))| {
            ca == cb
                && pa.accuracy.to_bits() == pb.accuracy.to_bits()
                && pa.area_mm2.to_bits() == pb.area_mm2.to_bits()
                && pa.power_mw.to_bits() == pb.power_mw.to_bits()
                && pa.critical_ms.to_bits() == pb.critical_ms.to_bits()
                && pa.gate_count == pb.gate_count
        })
}

/// The first `(candidate, point)` of every distinct design in `points`
/// — the fresh evaluations a production run paid for; later repeats of
/// the same `(gene, gate set)` were cache hits.
pub fn distinct(
    evaluator: &Evaluator<'_>,
    points: &[(Candidate, DesignPoint)],
) -> Vec<(Candidate, DesignPoint)> {
    let mut seen = HashSet::new();
    points
        .iter()
        .filter(|(c, _)| seen.insert((c.coeff, evaluator.gate_set(c).expect("evaluated genome"))))
        .cloned()
        .collect()
}

/// Wall-clock of two competing runs, timed in pairs that alternate
/// which side goes first, so drift in machine load hits both sides
/// alike.
#[derive(Debug, Clone, Default)]
pub struct Paired {
    /// Side A's wall-clock per pair, in ms.
    pub a_ms: Vec<f64>,
    /// Side B's wall-clock per pair, in ms.
    pub b_ms: Vec<f64>,
}

impl Paired {
    /// Runs `pairs` pairs of `a` and `b` (each returns its own timed
    /// wall-clock in ms), `a` first in even pairs and `b` first in odd
    /// ones.
    pub fn run(pairs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Self {
        let mut out = Paired::default();
        for i in 0..pairs {
            if i % 2 == 0 {
                out.a_ms.push(a());
                out.b_ms.push(b());
            } else {
                out.b_ms.push(b());
                out.a_ms.push(a());
            }
        }
        out
    }

    /// Median and interquartile range of the per-pair ratio `b / a` —
    /// side A's throughput relative to side B's.
    pub fn ratio(&self) -> (f64, f64) {
        let ratios: Vec<f64> =
            self.a_ms.iter().zip(&self.b_ms).map(|(a, b)| b / a.max(1e-9)).collect();
        median_iqr(&ratios)
    }

    /// Median wall-clock of side A, in ms.
    pub fn a_median(&self) -> f64 {
        median_iqr(&self.a_ms).0
    }

    /// Median wall-clock of side B, in ms.
    pub fn b_median(&self) -> f64 {
        median_iqr(&self.b_ms).0
    }
}

/// Median and interquartile range (linear-interpolated quartiles) of
/// `xs`; `(0, 0)` when empty.
pub fn median_iqr(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    (q(0.5), q(0.75) - q(0.25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(median_iqr(&[]), (0.0, 0.0));
        assert_eq!(median_iqr(&[3.0]), (3.0, 0.0));
        assert_eq!(median_iqr(&[5.0, 1.0, 3.0, 2.0, 4.0]), (3.0, 2.0));
        assert_eq!(median_iqr(&[1.0, 2.0, 3.0, 4.0]), (2.5, 1.5));
    }

    #[test]
    fn pairs_alternate_and_ratio_is_a_over_b_throughput() {
        let order = std::cell::RefCell::new(Vec::new());
        let p = Paired::run(
            4,
            || {
                order.borrow_mut().push('a');
                1.0
            },
            || {
                order.borrow_mut().push('b');
                2.0
            },
        );
        assert_eq!(order.into_inner(), vec!['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        assert_eq!(p.ratio(), (2.0, 0.0));
        assert_eq!((p.a_median(), p.b_median()), (1.0, 2.0));
    }
}
