//! What one run reports: named metrics, per-phase request counts and
//! failed output checks, printed as the single JSON result line.

use holo_serve::Json;

/// Sent / succeeded / failed requests (or calls) of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub sent: usize,
    pub failed: usize,
}

/// A run's result.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub phases: Vec<Phase>,
    /// Failed output checks; the run is correct when this is empty.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Record a phase's counts.
    pub fn phase(&mut self, name: &'static str, sent: usize, failed: usize) {
        self.phases.push(Phase { name, sent, failed });
    }

    /// Record a failed output check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Fail with `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// The metric names recorded, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.0).collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let attempted: usize = self.phases.iter().map(|p| p.sent).sum();
        let failed: usize = self.phases.iter().map(|p| p.failed).sum();
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(*value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".to_string(),
                Json::Bool(self.failures.is_empty() && failed == 0),
            ),
            ("attempted".to_string(), Json::Num(attempted.max(1) as f64)),
            ("failed".to_string(), Json::Num(failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// A human-readable summary for stderr.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for p in &self.phases {
            s.push_str(&format!(
                "phase {:<14} sent {:>6}  succeeded {:>6}  failed {:>4}\n",
                p.name,
                p.sent,
                p.sent - p.failed,
                p.failed
            ));
        }
        for (name, value, unit) in &self.metrics {
            s.push_str(&format!("{name:<40} {value:>14.6} {unit}\n"));
        }
        for f in &self.failures {
            s.push_str(&format!("CHECK FAILED: {f}\n"));
        }
        s
    }
}
