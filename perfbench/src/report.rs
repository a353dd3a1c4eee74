//! The result line every run ends with, and the per-op split of the
//! traced runs.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Every output matched its reference and pinned digest.
    pub correct: bool,
    /// Operations attempted (request lines, or sweep passes).
    pub attempted: u64,
    /// Operations that failed: `err`/`shed` responses, responses that
    /// differ from the reference, sweep passes whose digest drifted.
    pub failed: u64,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result. A value that is not finite is reported
    /// as 0 and makes the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
                m.name, m.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct && finite && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// An end-to-end per-op time split into layer self times and a residual.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// End-to-end nanoseconds per op.
    pub total_ns: f64,
    /// Each layer's self nanoseconds per end-to-end op.
    pub layers: Vec<(&'static str, f64)>,
}

impl Split {
    /// What the layers leave unexplained (negative when their isolated
    /// timings overcount).
    pub fn residual_ns(&self) -> f64 {
        self.total_ns - self.layers.iter().map(|(_, ns)| ns).sum::<f64>()
    }

    /// The residual as a share of the end-to-end time.
    pub fn residual_share(&self) -> f64 {
        self.residual_ns() / self.total_ns
    }

    /// Human-readable lines for stderr.
    pub fn describe(&self, what: &str) -> String {
        let mut out = format!("{what}: {:.1} ns/op =", self.total_ns);
        for (name, ns) in &self.layers {
            let _ = write!(out, " {name} {ns:.1} +");
        }
        let _ = write!(out, " residual {:.1}", self.residual_ns());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("setup_s", 0.5, "s");
        o.push("requests_per_s", 1234.5678, "1/s");
        assert_eq!(
            o.to_json(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "requests_per_s": {"value": 1234.5678, "unit": "1/s"}}}"#
        );
        o.push("bad", f64::NAN, "s");
        assert!(o.to_json().starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn layers_plus_residual_make_the_total() {
        let split = Split {
            total_ns: 100.0,
            layers: vec![("a", 30.0), ("b", 50.0)],
        };
        assert_eq!(split.residual_ns(), 20.0);
        assert_eq!(split.residual_share(), 0.2);
    }
}
