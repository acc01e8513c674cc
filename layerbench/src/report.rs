//! The result line and the order statistics behind it.

use std::fmt::Write as _;

/// Linear-interpolated quantile (`q` in `0..=1`) of `values`; `0.0`
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Ratio that reads `0.0` instead of NaN/∞ when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One run's outcome: the self-check tally plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (studies, explorations, requests).
    pub attempted: u64,
    /// Operations whose self-check failed.
    pub failed: u64,
    metrics: Vec<(String, f64)>,
    selected: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one operation and whether its self-check passed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds (or replaces) a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Picks the metrics the result line prints, in the given order and
    /// with the given units, filling any the workload does not
    /// exercise with `0.0`.
    pub fn select(&mut self, names: &[(&str, &'static str)]) {
        self.selected = names
            .iter()
            .map(|&(name, unit)| (name.to_owned(), self.get(name).unwrap_or(0.0), unit))
            .collect();
    }

    /// The single JSON result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.selected.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_lists_metrics_in_selected_order() {
        let mut r = Report::default();
        r.check(true);
        r.metric("b", 2.0);
        r.metric("a", 1.5);
        r.select(&[("a", "ms"), ("b", "s"), ("c", "count")]);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
