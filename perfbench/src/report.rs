//! The result line every run prints last on standard output.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (whole rounds of the workload's operations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Description of every output check that did not hold (empty when the
    /// program's outputs were correct).
    pub faults: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check.
    pub fn fault(&mut self, what: impl Into<String>) {
        self.faults.push(what.into());
    }

    /// The one-line JSON object the benchmark contract asks for. A metric
    /// that is not finite (nothing was measured) makes the run incorrect
    /// and is reported as 0.
    pub fn json_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.faults.is_empty() && finite && self.attempted > 0;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that reads back
            // to the same f64, always with a decimal point or exponent.
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome { attempted: 10, failed: 1, ..Default::default() };
        o.metric("lat_p50_us", 43.25, "us");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"lat_p50_us\": {\"value\": 43.25, \"unit\": \"us\"}}}"
        );
        o.fault("lost mark 3");
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn non_finite_metric_is_incorrect() {
        let mut o = Outcome { attempted: 1, ..Default::default() };
        o.metric("x", f64::NAN, "s");
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }
}
