//! Property tests over the framework's two approximation layers.

use pax_core::coeff_approx::{approximate_model, balance, CoeffApproxConfig};
use pax_core::mult_cache::MultCache;
use pax_core::{pareto, DesignPoint, Technique};
use pax_ml::model::LinearClassifier;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = QuantizedModel> {
    (2usize..5, 2usize..7).prop_flat_map(|(k, n)| {
        proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, n), k)
            .prop_filter("weights must not be all-zero", |rows| {
                rows.iter().flatten().any(|w| w.abs() > 1e-3)
            })
            .prop_map(move |rows| {
                let biases = vec![0.0; rows.len()];
                QuantizedModel::from_linear_classifier(
                    "prop",
                    &LinearClassifier::new(rows, biases),
                    QuantSpec::default(),
                )
            })
    })
}

/// The balance search as the paper states it: count through all 2ⁿ
/// masks (bit i picks position i's second option) and keep the first
/// with the least `|Σ error|`, then the least index-order area sum.
fn brute_force_balance(options: &[[(i64, f64); 2]]) -> Vec<bool> {
    let (mut best_mask, mut best_err, mut best_area) = (0u64, i64::MAX, f64::INFINITY);
    for mask in 0u64..(1 << options.len()) {
        let (mut err, mut area) = (0i64, 0.0f64);
        for (i, o) in options.iter().enumerate() {
            let (e, a) = o[(mask >> i & 1) as usize];
            err += e;
            area += a;
        }
        let err = err.abs();
        if err < best_err || (err == best_err && area < best_area) {
            (best_mask, best_err, best_area) = (mask, err, area);
        }
    }
    (0..options.len()).map(|i| best_mask >> i & 1 == 1).collect()
}

/// One weighted sum's candidate pairs: per coefficient a weight within
/// ±3 of a signed power of two and a down/up candidate drawn from its
/// `[w−e, w]` / `[w, w+e]` segments, so zero-area and other equal-area
/// ties are common. Returns `(in_bits, e, [(w, down, up)])`.
fn arb_balance_sum() -> impl Strategy<Value = (u32, i64, Vec<(i64, i64, i64)>)> {
    (1i64..8).prop_flat_map(|e| {
        let coeff = (0u32..8, any::<bool>(), -3i64..=3, 0..=e, 0..=e).prop_map(
            move |(k, neg, off, dn, up)| {
                let w = ((1i64 << k) * if neg { -1 } else { 1 } + off).clamp(-128, 127);
                (w, (w - dn).max(-128), (w + up).min(127))
            },
        );
        (prop_oneof![Just(4u32), Just(8u32)], Just(e), proptest::collection::vec(coeff, 0..17))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dynamic-programming balance search picks exactly what the
    /// 2ⁿ enumeration picks, ties included.
    #[test]
    fn coeff_balance_matches_brute_force(case in arb_balance_sum()) {
        let (in_bits, e, sum) = case;
        let cache = MultCache::egt();
        let options: Vec<[(i64, f64); 2]> = sum
            .iter()
            .map(|&(w, down, up)| [down, up].map(|c| (w - c, cache.area(in_bits, c))))
            .collect();
        prop_assert!(options.iter().flatten().all(|&(err, _)| err.abs() <= e));
        prop_assert_eq!(balance(&options), brute_force_balance(&options));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coefficient approximation invariants for arbitrary linear models:
    /// weights move at most e, stay in the representable range, the area
    /// proxy never grows, and biases are untouched.
    #[test]
    fn coeff_approx_invariants(model in arb_model(), e in 0i64..6) {
        let cache = MultCache::new(egt_pdk::egt_library());
        let cfg = CoeffApproxConfig { e };
        let (approx, report) = approximate_model(&model, &cache, &cfg);
        let (lo, hi) = model.spec.coef_range();
        for (before, after) in model.layer1.iter().zip(&approx.layer1) {
            prop_assert_eq!(before.bias, after.bias, "biases must not move");
            for (&w, &wa) in before.weights.iter().zip(&after.weights) {
                prop_assert!((w - wa).abs() <= e, "{} -> {} exceeds e={}", w, wa, e);
                prop_assert!((lo..=hi).contains(&wa));
            }
        }
        prop_assert!(report.proxy_after() <= report.proxy_before() + 1e-9);
        // Residual error is bounded by the worst one-sided drift.
        for sum in &report.sums {
            let n = model.layer1[sum.index].weights.len() as i64;
            prop_assert!(sum.residual_error.abs() <= n * e);
        }
    }

    /// Pareto front extraction is correct for arbitrary point clouds.
    #[test]
    fn pareto_front_correct(
        points in proptest::collection::vec((0.0f64..1.0, 1.0f64..1000.0), 1..40)
    ) {
        let pts: Vec<DesignPoint> = points
            .iter()
            .map(|&(acc, area)| DesignPoint {
                technique: Technique::Cross,
                tau_c: None,
                phi_c: None,
                coeff: None,
                accuracy: acc,
                area_mm2: area,
                power_mw: 0.0,
                gate_count: 0,
                critical_ms: 0.0,
            })
            .collect();
        let front = pareto::pareto_front(&pts);
        prop_assert!(!front.is_empty());
        // Nothing on the front is dominated by anything.
        for &f in &front {
            for p in &pts {
                prop_assert!(!p.dominates(&pts[f]), "front point dominated");
            }
        }
        // Everything off the front is dominated or duplicated.
        for (i, p) in pts.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            let covered = front.iter().any(|&f| {
                pts[f].dominates(p)
                    || (pts[f].accuracy == p.accuracy && pts[f].area_mm2 == p.area_mm2)
            });
            prop_assert!(covered, "point {} escaped the front", i);
        }
    }

    /// The quantized golden model and its generated circuit agree on
    /// random inputs for arbitrary linear models (end-to-end hardware
    /// equivalence as a property).
    #[test]
    fn circuit_equals_golden(model in arb_model(), seed in any::<u64>()) {
        let circuit = pax_bespoke::BespokeCircuit::generate(&model);
        let mut state = seed | 1;
        for _ in 0..20 {
            let x: Vec<i64> = (0..model.n_inputs())
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as i64) % (model.spec.input_max() + 1)
                })
                .collect();
            prop_assert_eq!(circuit.predict_one(&x), model.predict_q(&x));
        }
    }
}
