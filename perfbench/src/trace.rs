//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the public
//! calls into each crate (in-program spans are a later change). They
//! stay in memory during a traced run and are written out as JSON
//! lines at its end. A span's name starts with the crate it measures
//! (`core.run`, `mapreduce.job`, …); the harness's own root spans are
//! named `perf.*`, so whatever no crate span covers is reported as
//! unattributed instead of vanishing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Shared by every span of one operation (one job, one request).
    pub op_id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span whose window is already known (a clock the program
    /// exposes, such as a query profile's stage timings).
    pub fn add(
        &self,
        name: &str,
        op_id: u64,
        parent: Option<SpanId>,
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name: name.to_string(),
            op_id,
            parent,
            start_us,
            end_us,
        });
        spans.len() - 1
    }

    /// Records a span around `f`, which receives the span's id so the
    /// calls it makes can name it as their parent.
    pub fn time<R>(
        &self,
        name: &str,
        op_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start = self.now_us();
        let id = self.add(name, op_id, parent, start, start);
        let result = f(id);
        let end = self.now_us();
        self.spans.lock().expect("span recorder poisoned")[id].end_us = end;
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// Self time of every span: its duration minus the part of its window
/// that its child spans cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let window = (span.start_us.max(p.start_us), span.end_us.min(p.end_us));
            if window.0 < window.1 {
                children[parent].push(window);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut windows)| {
            windows.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_us;
            for (start, end) in windows {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_us() - covered
        })
        .collect()
}

/// Total self time per layer, the layer being the span name up to its
/// first dot.
pub fn layer_self_us(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        let layer = span.name.split('.').next().unwrap_or(&span.name);
        *totals.entry(layer.to_string()).or_insert(0) += self_us;
    }
    totals
}

/// Sum of the durations of the spans without a parent.
fn root_total_us(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_us)
        .sum()
}

/// Writes the spans of a traced run to `<scratch>/trace-<workload>.jsonl`
/// and returns the note that says so, with each layer's self time.
pub fn save(scratch: &Path, workload: &str, spans: &[Span]) -> Result<String, String> {
    let path = scratch.join(format!("trace-{workload}.jsonl"));
    std::fs::File::create(&path)
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            write_jsonl(&mut out, spans)?;
            out.flush()
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let layers: Vec<String> = layer_self_us(spans)
        .iter()
        .map(|(layer, us)| format!("{layer} {:.3}", *us as f64 / 1e6))
        .collect();
    Ok(format!(
        "{} spans in {}; layer self times (s): {}",
        spans.len(),
        path.display(),
        layers.join(", ")
    ))
}

/// Share of the root spans' time that no layer's span covers (the self
/// time of the harness's own `perf.*` spans), in percent.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let harness = layer_self_us(spans).get("perf").copied().unwrap_or(0);
    harness as f64 / root_total_us(spans).max(1) as f64 * 100.0
}

/// Writes one `{id, name, op_id, parent, start_us, end_us}` line per span.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{id},\"name\":{},\"op_id\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
            crate::json::quote(&span.name),
            span.op_id,
            span.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            span.start_us,
            span.end_us
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_us: u64, end_us: u64) -> Span {
        Span {
            name: name.to_string(),
            op_id: 1,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("perf.job", None, 0, 100), // 0: children cover 10..40 and 50..90
            span("swgraph.parse", Some(0), 10, 40), // 1: leaf
            span("core.run", Some(0), 50, 90), // 2: children cover 55..85
            span("mapreduce.job", Some(2), 55, 70), // 3
            span("mapreduce.job", Some(2), 70, 85), // 4
        ];
        assert_eq!(self_times_us(&spans), vec![30, 30, 10, 15, 15]);
        let layers = layer_self_us(&spans);
        assert_eq!(layers["perf"], 30);
        assert_eq!(layers["swgraph"], 30);
        assert_eq!(layers["core"], 10);
        assert_eq!(layers["mapreduce"], 30);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(layers.values().sum::<u64>(), root_total_us(&spans));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("service.execute", None, 100, 200),
            span("maxflow.solve", Some(0), 110, 160),
            span("maxflow.solve", Some(0), 150, 180), // overlaps the first by 10
            span("maxflow.solve", Some(0), 190, 250), // overhangs the parent by 50
            span("maxflow.solve", Some(0), 120, 130), // inside the first
        ];
        // Covered: 110..180 (70) + 190..200 (10).
        assert_eq!(self_times_us(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let rec = Recorder::new();
        let inner = rec.time("perf.job", 7, None, |root| {
            rec.time("core.run", 7, Some(root), |id| id)
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);

        let mut text = Vec::new();
        write_jsonl(&mut text, &spans).unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("core.run"));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[0].get("op_id").unwrap().as_f64(), Some(7.0));
    }
}
