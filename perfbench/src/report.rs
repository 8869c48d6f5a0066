//! The result of one benchmark run and the statistics behind it.

use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// What one run reports: the output checks, the operation counts behind
/// `error_rate`, the metrics, and human-readable lines printed before the
/// final JSON object.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every output check and workload-identity guard passed.
    pub correct: bool,
    /// Operations attempted: farm queries, grid simulations or classify passes.
    pub attempted: u64,
    /// Operations that failed or disagreed with the reference.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// A fresh outcome whose checks have not failed yet.
    pub fn new() -> Self {
        Outcome { correct: true, ..Outcome::default() }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Records a failed check: the run is no longer correct.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {}", what.into()));
    }

    /// Failed operations per attempted operation.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The single-line JSON object the benchmark prints last. A non-finite
    /// value cannot be written as JSON, so it marks the run incorrect and is
    /// written as 0.
    pub fn to_json(&self) -> String {
        let correct = self.correct && self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the same rule as Python's `statistics.quantiles(method="inclusive")`).
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// 64-bit FNV-1a, the digest the output checks pin.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.metric("bad", f64::NAN, "s");
        assert!(o.to_json().starts_with("{\"correct\": false"));
        o.attempted = 0;
        assert!(o.to_json().contains("\"attempted\": 0,"), "a run that attempted nothing must say so");
    }
}
