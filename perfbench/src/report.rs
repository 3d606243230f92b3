//! What one run reports: the result line the driver reads (last line of
//! standard output), the table a person reads (standard error), and the
//! record lines `--compare` reads back.

use crate::json::{self, Value};
use crate::spec::{Workload, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every checked answer was right.
    pub correct: bool,
    /// Operations run in the timed part.
    pub attempted: u64,
    /// Of those: non-zero exit, time-out, non-`ok` reply or wrong flow.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Self {
        Self {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets an end-to-end metric; the unit comes from the table.
    pub fn end_to_end(&mut self, name: &str, value: f64) {
        let spec = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.metrics.push((spec.name, value, spec.unit));
    }

    /// Fills in every per-layer metric, in table order; layers that did
    /// no work on this workload (absent from `values`) report 0.
    pub fn per_layer(&mut self, values: &std::collections::BTreeMap<&'static str, f64>) {
        for name in values.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a per-layer metric"
            );
        }
        for spec in PER_LAYER {
            let value = values.get(spec.name).copied().unwrap_or(0.0);
            self.metrics.push((spec.name, value, spec.unit));
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// The one-line JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The table for people: every metric by name with its unit, its
    /// direction and, for end-to-end metrics, its regression bound.
    pub fn render(&self, workload: &Workload, seed: u64, traced: bool) -> String {
        let mut text = format!(
            "== {} (seed {seed}, {}) — {} attempted, {} failed, answers {}\n   {}\n",
            workload.name,
            if traced {
                "traced run: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            },
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "WRONG" },
            workload.why
        );
        for (name, value, unit) in &self.metrics {
            let about = match END_TO_END.iter().find(|m| m.name == *name) {
                Some(m) => format!(
                    "{} is better, may worsen by {:.0} %: {}",
                    m.better.as_str(),
                    m.bound_on(&workload.kind) * 100.0,
                    m.what
                ),
                None => PER_LAYER
                    .iter()
                    .find(|m| m.name == *name)
                    .map_or_else(String::new, |m| format!("{} is better", m.better.as_str())),
            };
            text.push_str(&format!("  {name:<38} {value:>16.4} {unit:<6} ({about})\n"));
        }
        for note in &self.notes {
            text.push_str(&format!("  note: {note}\n"));
        }
        text
    }

    /// One line of a record file: the result line plus which run made
    /// it and how long it measured.
    pub fn to_record(&self, workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"result\": {}}}",
            json::quote(workload),
            u8::from(traced),
            self.to_json()
        )
    }
}

/// A finite number with all the digits it was measured with.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value}")
}

/// `(name, value)` of every metric in a parsed result line.
pub fn metrics_of(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .map(|members| {
            members
                .iter()
                .filter_map(|(name, m)| {
                    Some((name.clone(), m.get("value").and_then(Value::as_f64)?))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back_with_exactly_the_contract_keys() {
        let mut out = Outcome::new(true, 1000, 0);
        out.end_to_end("op_p50_ms", 1.203_456_789);
        out.end_to_end("setup_s", 0.8127);
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
        let m = doc.get("metrics").unwrap();
        let p50 = m.get("op_p50_ms").unwrap();
        assert_eq!(
            p50.get("value").and_then(Value::as_f64),
            Some(1.203_456_789)
        );
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(
            metrics_of(&doc),
            vec![
                ("op_p50_ms".to_string(), 1.203_456_789),
                ("setup_s".to_string(), 0.8127)
            ]
        );
    }

    #[test]
    fn traced_result_lists_every_per_layer_metric() {
        let mut out = Outcome::new(true, 1, 0);
        out.per_layer(&[("core.rounds", 9.0)].into_iter().collect());
        let doc = json::parse(&out.to_json()).unwrap();
        let metrics = metrics_of(&doc);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.contains(&("core.rounds".to_string(), 9.0)));
        assert!(metrics.contains(&("service.shed".to_string(), 0.0)));
    }

    #[test]
    fn record_line_carries_the_run_identity() {
        let out = Outcome::new(true, 5, 0);
        let doc = json::parse(&out.to_record("serve-cold", 7, 20, false)).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Value::as_str),
            Some("serve-cold")
        );
        assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
        assert_eq!(doc.get("seconds").and_then(Value::as_f64), Some(20.0));
        assert_eq!(doc.get("trace").and_then(Value::as_f64), Some(0.0));
        assert!(doc.get("result").unwrap().get("metrics").is_some());
    }
}
