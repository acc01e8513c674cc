//! Hardware-driven coefficient approximation (paper §III-B).
//!
//! For each weighted sum of the model, every coefficient `wᵢ` gets a
//! two-element candidate set `Rᵢ = {w̃ᵢ⁻, w̃ᵢ⁺}`:
//!
//! * `w̃ᵢ⁻ ∈ [wᵢ, wᵢ+e]` — the cheapest-area value *above* `wᵢ`
//!   (replacing `wᵢ` with it makes the term error `xᵢ·(wᵢ−w̃ᵢ)` negative,
//!   since inputs are unsigned);
//! * `w̃ᵢ⁺ ∈ [wᵢ−e, wᵢ]` — the cheapest value below (positive error);
//!
//! both clipped at the representable coefficient range. The paper then
//! searches `∏ Rᵢ` exhaustively for the configuration minimizing
//! `|Σ (wᵢ − w̃ᵢ)|` — balancing positive against negative errors — with
//! ties broken towards minimal `Σ AREA(BM_w̃ᵢ)`. [`balance`] finds that
//! optimum with a dynamic program over the few reachable error values
//! instead of enumerating all `2ⁿ` configurations. The multiplier-area
//! sum is the proxy for the weighted-sum area (validated at r ≈ 0.9 by
//! the `proxy` benchmark, as in the paper).

use pax_ml::quant::QuantizedModel;

use crate::mult_cache::MultCache;

/// Configuration of the coefficient approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffApproxConfig {
    /// Neighbourhood half-width `e`. The paper fixes `e = 4`: area gains
    /// saturate beyond it (Fig. 2).
    pub e: i64,
}

impl Default for CoeffApproxConfig {
    fn default() -> Self {
        Self { e: 4 }
    }
}

/// Per-sum outcome of the approximation.
#[derive(Debug, Clone)]
pub struct SumApproxReport {
    /// Layer index (0 = hidden/class sums, 1 = MLP output sums).
    pub layer: usize,
    /// Sum index within its layer.
    pub index: usize,
    /// Residual weight error `Σ (wᵢ − w̃ᵢ)` of the chosen configuration.
    pub residual_error: i64,
    /// Area proxy before, in mm².
    pub proxy_before: f64,
    /// Area proxy after, in mm².
    pub proxy_after: f64,
}

/// Whole-model report.
#[derive(Debug, Clone)]
pub struct CoeffApproxReport {
    /// Per-sum details.
    pub sums: Vec<SumApproxReport>,
}

impl CoeffApproxReport {
    /// Total area proxy before approximation.
    pub fn proxy_before(&self) -> f64 {
        self.sums.iter().map(|s| s.proxy_before).sum()
    }

    /// Total area proxy after approximation.
    pub fn proxy_after(&self) -> f64 {
        self.sums.iter().map(|s| s.proxy_after).sum()
    }

    /// Relative proxy reduction in percent.
    pub fn proxy_reduction_pct(&self) -> f64 {
        let before = self.proxy_before();
        if before <= 0.0 {
            0.0
        } else {
            (before - self.proxy_after()) / before * 100.0
        }
    }
}

/// Applies the approximation, returning the rewritten model and a
/// report. The input model is not modified.
pub fn approximate_model(
    model: &QuantizedModel,
    cache: &MultCache,
    cfg: &CoeffApproxConfig,
) -> (QuantizedModel, CoeffApproxReport) {
    approximate_model_layers(model, cache, &[cfg.e, cfg.e])
}

/// Per-layer variant of [`approximate_model`]: `layer_e[l]` is the
/// neighbourhood half-width for layer `l`'s sums. `e = 0` leaves a
/// layer exact (a width-0 neighbourhood is the identity — the
/// `e_zero_is_identity` test pins this — so those sums are skipped
/// wholesale rather than balanced over single-value candidate sets).
/// Layers beyond the slice stay exact. This is the primitive behind
/// the graded [`CoeffGene`](crate::explore::CoeffGene) axis, where each
/// gene level maps to one `e` per layer.
pub fn approximate_model_layers(
    model: &QuantizedModel,
    cache: &MultCache,
    layer_e: &[i64],
) -> (QuantizedModel, CoeffApproxReport) {
    assert!(layer_e.iter().all(|&e| e >= 0), "negative neighbourhood width");
    let mut out = model.clone();
    let mut sums = Vec::new();
    for (layer, index, in_bits) in model.sum_shapes() {
        let e = layer_e.get(layer).copied().unwrap_or(0);
        let weights = &model.sum(layer, index).weights;
        let in_bits = in_bits.max(1);
        if e == 0 {
            // Identity layer: unchanged weights, zero residual, proxy
            // before == after.
            let proxy: f64 = weights.iter().map(|&w| cache.area(in_bits, w)).sum();
            sums.push(SumApproxReport {
                layer,
                index,
                residual_error: 0,
                proxy_before: proxy,
                proxy_after: proxy,
            });
            continue;
        }
        let (chosen, report) =
            approximate_sum(weights, in_bits, model.spec.coef_range(), cache, e, layer, index);
        out.sum_mut(layer, index).weights = chosen;
        sums.push(report);
    }
    (out, CoeffApproxReport { sums })
}

/// Approximates one weighted sum; returns the new weights and a report.
fn approximate_sum(
    weights: &[i64],
    in_bits: u32,
    (coef_lo, coef_hi): (i64, i64),
    cache: &MultCache,
    e: i64,
    layer: usize,
    index: usize,
) -> (Vec<i64>, SumApproxReport) {
    let proxy_before: f64 = weights.iter().map(|&w| cache.area(in_bits, w)).sum();

    // Candidate sets Ri = [down (positive error), up (negative error)].
    let candidates: Vec<[i64; 2]> = weights
        .iter()
        .map(|&w| {
            [
                best_in_segment((w - e).max(coef_lo), w, in_bits, cache),
                best_in_segment(w, (w + e).min(coef_hi), in_bits, cache),
            ]
        })
        .collect();
    let options: Vec<[(i64, f64); 2]> = weights
        .iter()
        .zip(&candidates)
        .map(|(&w, pair)| pair.map(|c| (w - c, cache.area(in_bits, c))))
        .collect();
    let chosen: Vec<i64> = balance(&options)
        .into_iter()
        .zip(&candidates)
        .map(|(up, pair)| pair[usize::from(up)])
        .collect();

    let residual_error: i64 = weights.iter().zip(&chosen).map(|(w, c)| w - c).sum();
    let proxy_after: f64 = chosen.iter().map(|&w| cache.area(in_bits, w)).sum();
    (chosen, SumApproxReport { layer, index, residual_error, proxy_before, proxy_after })
}

/// The cheapest-area value in `[lo, hi]`. The scan runs upward with a
/// strict `<`, so among equal-area values the lowest wins: for the up
/// segment `[w, w+e]` that is the value nearest `w`, for the down
/// segment `[w−e, w]` the one farthest from it.
fn best_in_segment(lo: i64, hi: i64, in_bits: u32, cache: &MultCache) -> i64 {
    debug_assert!(lo <= hi);
    let mut best = lo;
    let mut best_area = f64::INFINITY;
    for cand in lo..=hi {
        let a = cache.area(in_bits, cand);
        if a < best_area {
            best_area = a;
            best = cand;
        }
    }
    best
}

/// The balance search over one weighted sum. `options[i]` holds the
/// `(error, area)` of position `i`'s two candidates, down first; areas
/// must be finite. Returns one pick per position (`true` = the second
/// option) that minimizes `|Σ error|`, then the area summed in index
/// order. Among equal optima it returns the picks that read smallest as
/// a binary number with position `n − 1` most significant — the first
/// configuration an exhaustive count over all `2ⁿ` masks meets.
///
/// A dynamic program over the reachable error sums: time and memory
/// are O(n · W), where `W` is the width of the error range (at most
/// `2·n·e + 1` for the candidate sets above), plus an O(n²) walk back.
///
/// Exactness, including every f64 bit of the tie-break: `d[i][s]` is
/// the least index-order prefix area over positions `0..i` with error
/// `s`. Float addition is monotone, so extending the least prefix gives
/// the least extension — the forward pass keeps exact minima, and a
/// fixed suffix re-added onto `d[i][s]` reaches the optimum area `A*`
/// exactly when some prefix with error `s` does. The walk back decides
/// position `n − 1` first and keeps the down pick whenever a completion
/// of it still reaches `|Σ error| = E*` with area `A*`.
pub fn balance(options: &[[(i64, f64); 2]]) -> Vec<bool> {
    debug_assert!(options.iter().flatten().all(|&(_, a)| a.is_finite()), "areas must be finite");
    let n = options.len();
    // Every prefix error sum lies in [lo, hi]; unreachable states hold
    // +∞.
    let lo: i64 = options.iter().map(|o| o[0].0.min(o[1].0).min(0)).sum();
    let hi: i64 = options.iter().map(|o| o[0].0.max(o[1].0).max(0)).sum();
    let width = usize::try_from(hi - lo + 1).expect("error range fits in memory");
    let slot = |s: i64| usize::try_from(s - lo).ok().filter(|&k| k < width);
    let mut d = vec![f64::INFINITY; (n + 1) * width];
    d[slot(0).expect("0 lies in the range")] = 0.0;
    for (i, o) in options.iter().enumerate() {
        let (cur, next) = d[i * width..(i + 2) * width].split_at_mut(width);
        for (k, &prefix) in cur.iter().enumerate() {
            if prefix == f64::INFINITY {
                continue;
            }
            for &(err, area) in o {
                let t = &mut next[(k as i64 + err) as usize];
                *t = t.min(prefix + area);
            }
        }
    }

    let last = &d[n * width..];
    let e_star = (lo..=hi)
        .filter(|&s| last[slot(s).expect("in range")] < f64::INFINITY)
        .map(i64::abs)
        .min()
        .expect("every configuration has a reachable error");
    let targets = if e_star == 0 { vec![0] } else { vec![-e_star, e_star] };
    let a_star =
        targets.iter().filter_map(|&t| slot(t)).map(|k| last[k]).fold(f64::INFINITY, f64::min);

    let mut picks = vec![false; n];
    let mut suffix_err = 0i64;
    for pos in (0..n).rev() {
        // Whether picking `up` at `pos`, after the picks already made
        // above it, still completes to (E*, A*).
        let completes = |up: bool| {
            let (err, area) = options[pos][usize::from(up)];
            targets.iter().any(|&t| {
                let Some(k) = slot(t - suffix_err - err) else { return false };
                let prefix = d[pos * width + k];
                if prefix == f64::INFINITY {
                    return false;
                }
                let mut total = prefix + area;
                for (o, &p) in options[pos + 1..].iter().zip(&picks[pos + 1..]) {
                    total += o[usize::from(p)].1;
                }
                total == a_star
            })
        };
        let up = !completes(false);
        debug_assert!(!up || completes(true), "the optimum is reachable");
        picks[pos] = up;
        suffix_err += options[pos][usize::from(up)].0;
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_ml::model::LinearClassifier;
    use pax_ml::quant::{QuantSpec, QuantizedModel};

    fn cache() -> MultCache {
        MultCache::new(egt_pdk::egt_library())
    }

    fn model_with_weights(rows: Vec<Vec<f64>>) -> QuantizedModel {
        let k = rows.len();
        QuantizedModel::from_linear_classifier(
            "t",
            &LinearClassifier::new(rows, vec![0.0; k]),
            QuantSpec::default(),
        )
    }

    #[test]
    fn approximation_reduces_area_proxy() {
        // Dense coefficients near powers of two: big wins available.
        let m =
            model_with_weights(vec![vec![0.49, -0.26, 0.99, 0.13], vec![-0.52, 0.27, -0.95, 0.24]]);
        let c = cache();
        let (approx, report) = approximate_model(&m, &c, &CoeffApproxConfig::default());
        assert!(report.proxy_after() < report.proxy_before());
        assert!(report.proxy_reduction_pct() > 0.0);
        // Weights moved by at most e.
        for (before, after) in m.layer1.iter().zip(&approx.layer1) {
            for (&w, &wa) in before.weights.iter().zip(&after.weights) {
                assert!((w - wa).abs() <= 4, "{w} -> {wa}");
            }
        }
    }

    #[test]
    fn errors_are_balanced() {
        let m = model_with_weights(vec![vec![0.37, -0.81, 0.22, 0.66, -0.14]]);
        let c = cache();
        let (_, report) = approximate_model(&m, &c, &CoeffApproxConfig::default());
        // Exhaustive balancing keeps the residual error tiny relative to
        // the worst case (5 coefficients × e=4 = 20).
        assert!(
            report.sums[0].residual_error.abs() <= 4,
            "residual {}",
            report.sums[0].residual_error
        );
    }

    #[test]
    fn e_zero_is_identity() {
        let m = model_with_weights(vec![vec![0.5, -0.3, 0.8]]);
        let c = cache();
        let cfg = CoeffApproxConfig { e: 0 };
        let (approx, report) = approximate_model(&m, &c, &cfg);
        assert_eq!(approx.layer1, m.layer1);
        assert_eq!(report.proxy_before(), report.proxy_after());
    }

    #[test]
    fn per_layer_widths_match_uniform_and_identity() {
        let m =
            model_with_weights(vec![vec![0.49, -0.26, 0.99, 0.13], vec![-0.52, 0.27, -0.95, 0.24]]);
        let c = cache();
        let cfg = CoeffApproxConfig::default();
        // Uniform per-layer widths reproduce the whole-model path
        // exactly (the legacy entry point now delegates here).
        let (uniform, _) = approximate_model(&m, &c, &cfg);
        let (layered, rep) = approximate_model_layers(&m, &c, &[cfg.e, cfg.e]);
        assert_eq!(uniform.layer1, layered.layer1);
        assert!(rep.proxy_after() < rep.proxy_before());
        // A zero width leaves the layer exact, with an identity report.
        let (exact, rep0) = approximate_model_layers(&m, &c, &[0]);
        assert_eq!(exact.layer1, m.layer1);
        assert_eq!(rep0.proxy_before(), rep0.proxy_after());
        assert!(rep0.sums.iter().all(|s| s.residual_error == 0));
    }

    #[test]
    fn clipping_at_range_borders() {
        // Weight quantized to exactly +127: the up-segment must clip at
        // 127 and never propose 128.
        let m = model_with_weights(vec![vec![1.0, -1.0, 0.01]]);
        let c = cache();
        let (approx, _) = approximate_model(&m, &c, &CoeffApproxConfig::default());
        for sum in &approx.layer1 {
            for &w in &sum.weights {
                assert!((-128..=127).contains(&w), "{w} out of range");
            }
        }
    }

    #[test]
    fn wide_sums_reach_the_least_residual() {
        // 40 coefficients, far past any 2^n enumeration: the residual
        // must still be the least |Σ error| the candidate sets can
        // reach, here computed as an explicit reachable set.
        let m = model_with_weights(vec![(0..40)
            .map(|i| ((i * 17 + 3) % 200) as f64 / 100.0 - 1.0)
            .collect()]);
        let c = cache();
        let e = 4;
        let (_, report) = approximate_model(&m, &c, &CoeffApproxConfig { e });
        let (lo, hi) = m.spec.coef_range();
        let in_bits = m.spec.input_bits;
        let mut reachable = std::collections::BTreeSet::from([0i64]);
        for &w in &m.layer1[0].weights {
            let down = best_in_segment((w - e).max(lo), w, in_bits, &c);
            let up = best_in_segment(w, (w + e).min(hi), in_bits, &c);
            reachable = reachable.iter().flat_map(|&s| [s + w - down, s + w - up]).collect();
        }
        let least = reachable.iter().map(|s| s.abs()).min().expect("non-empty");
        assert_eq!(report.sums[0].residual_error.abs(), least);
        assert!(report.proxy_after() <= report.proxy_before());
    }

    #[test]
    fn best_in_segment_keeps_the_lowest_of_equal_areas() {
        // Powers of two are free. On w = 8's down segment [4, 8], 4 and 8
        // tie at zero area and the upward strict-< scan keeps 4, the
        // value farthest from w; on w = 2's up segment [2, 4] the same
        // rule keeps w itself.
        let c = cache();
        assert_eq!((c.area(4, 4), c.area(4, 8)), (0.0, 0.0));
        assert_eq!(best_in_segment(4, 8, 4, &c), 4);
        assert_eq!(best_in_segment(2, 4, 4, &c), 2);
    }

    #[test]
    fn balance_breaks_ties_in_counting_order() {
        // Fully tied positions keep the first option.
        assert_eq!(balance(&[[(0, 0.0), (0, 0.0)]; 3]), vec![false; 3]);
        // Two positions, either one flipped up balances the error at
        // equal area: mask 0b01 comes before 0b10.
        let pair = [(1, 1.0), (-1, 1.0)];
        assert_eq!(balance(&[pair, pair]), vec![true, false]);
        // |+1| and |−1| tie on error; the area decides.
        assert_eq!(balance(&[[(1, 0.0), (-1, 5.0)]]), vec![false]);
        assert_eq!(balance(&[[(1, 5.0), (-1, 0.0)]]), vec![true]);
        assert!(balance(&[]).is_empty());
    }

    #[test]
    fn balance_compares_areas_as_index_order_f64_sums() {
        // Both balanced configurations cost 0.6 in exact arithmetic, but
        // (0.1 + 0.2) + 0.3 rounds above (0.3 + 0.2) + 0.1: the second,
        // later-counted configuration is strictly cheaper as summed.
        let options = [[(1, 0.1), (-1, 0.3)], [(0, 0.2), (0, 0.2)], [(-1, 0.3), (1, 0.1)]];
        let area = |picks: [usize; 3]| options.iter().zip(picks).fold(0.0, |a, (o, p)| a + o[p].1);
        assert!(area([0, 0, 0]) > area([1, 0, 1]));
        assert_eq!(balance(&options), vec![true, false, true]);
    }

    #[test]
    fn approximation_never_increases_the_proxy() {
        // Both candidates of every coefficient are minimum-area values of
        // segments that contain the original coefficient, so whatever the
        // balance search picks, the proxy cannot grow. (Note the *chosen*
        // configuration is not monotone in e — balancing may prefer a
        // pricier candidate — only this upper bound is guaranteed.)
        let m = model_with_weights(vec![vec![0.43, -0.61, 0.29, 0.87, -0.33, 0.11]]);
        let c = cache();
        for e in [1, 2, 4, 6, 10] {
            let (_, r) = approximate_model(&m, &c, &CoeffApproxConfig { e });
            assert!(r.proxy_after() <= r.proxy_before() + 1e-9, "e={e}");
        }
    }

    #[test]
    fn candidate_floor_improves_with_e() {
        // The per-coefficient best reachable area is monotone in e even
        // though the balanced choice is not.
        let c = cache();
        for w in [-93i64, -37, 29, 77, 121] {
            let floor = |e: i64| {
                ((w - e).max(-128)..=(w + e).min(127))
                    .map(|cand| c.area(4, cand))
                    .fold(f64::INFINITY, f64::min)
            };
            assert!(floor(6) <= floor(2) + 1e-12, "w={w}");
            assert!(floor(2) <= floor(1) + 1e-12, "w={w}");
        }
    }
}
