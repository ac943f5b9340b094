//! Sample accumulation and percentiles.

use std::collections::BTreeMap;

/// Linear-interpolated percentile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when the denominator is 0 (the layer did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer observations gathered during traced reps: distributions
/// (`samples`) and additive counter deltas (`sums`), keyed by metric stem.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub sums: BTreeMap<&'static str, f64>,
}

impl Acc {
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn pct(&self, key: &str, q: f64) -> f64 {
        self.samples.get(key).map_or(0.0, |v| percentile(v, q))
    }

    pub fn count(&self, key: &str) -> usize {
        self.samples.get(key).map_or(0, Vec::len)
    }

    pub fn merge(&mut self, other: Acc) {
        for (k, mut v) in other.samples {
            self.samples.entry(k).or_default().append(&mut v);
        }
        for (k, v) in other.sums {
            self.add(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
