//! The metrics registry: counters, gauges, log-bucketed histograms.
//!
//! Hot-path cost model: registering (or re-looking-up) a metric takes a
//! read-mostly `RwLock` over a `BTreeMap`; **recording** on a held
//! handle is a handful of relaxed atomic operations and never blocks.
//! Snapshots and renderings walk the maps under the read lock and read
//! each atomic individually — values recorded mid-walk may or may not be
//! included, which is the usual (and harmless) scrape semantics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log₂ buckets a [`Histogram`] maintains: bucket 0 holds the
/// value 0, bucket `k ≥ 1` holds values in `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (queue depths, pool sizes, ages).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free latency/size histogram with log₂ buckets.
///
/// Recording touches five relaxed atomics (count, sum, min, max, one
/// bucket); quantiles are estimated from the bucket the rank falls in
/// and reported as that bucket's upper bound clamped to the observed
/// maximum — at most a 2× relative overestimate, which is plenty for
/// latency dashboards and far cheaper than exact reservoirs.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Values recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A snapshot of the raw bucket counters, index 0 first.
    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Folds pre-aggregated deltas from another histogram (a worker's
    /// shipped snapshot) into this one.
    fn merge_raw(&self, count: u64, sum: u64, min: u64, max: u64, buckets: &[(usize, u64)]) {
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.min.fetch_min(min, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
        for &(index, n) in buckets {
            self.buckets[index.min(HISTOGRAM_BUCKETS - 1)].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time digest with estimated p50/p90/p99.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSummary::default();
        }
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed).min(max);
        // The bucket counters may lag `count` by in-flight records; use
        // their own total so ranks stay inside the distribution.
        let total: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return max;
            }
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut cumulative = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                cumulative += n;
                if cumulative >= rank {
                    return Self::bucket_upper(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// One metric's identity: a base name plus sorted `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (sanitize_name(k), sanitize_label(v)))
            .collect();
        labels.sort();
        Self {
            name: sanitize_name(name),
            labels,
        }
    }

    /// `name{k="v",...}` — doubles as the Prometheus series id and the
    /// wire-protocol field key (no spaces or newlines by construction:
    /// spaces are sanitized at registration, `"`/`\`/newline are
    /// escaped here at render time).
    fn rendered(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        format!("{}{{{}}}", self.name, self.render_labels(None))
    }

    fn render_labels(&self, extra: Option<(&str, &str)>) -> String {
        let mut out = String::new();
        for (k, v) in self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra)
        {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            push_escaped_label(&mut out, v);
            out.push('"');
        }
        out
    }
}

/// Escapes a label value per the Prometheus text-format spec: `\` as
/// `\\`, `"` as `\"`, and newline as `\n`. Stored values are escaped
/// only here, at render time, so lookups see the original text.
fn push_escaped_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Metric names keep `[A-Za-z0-9_:]`; anything else becomes `_`.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Label values drop only the characters that would break the wire
/// protocol's one-line `key value` fields (space, carriage return) or
/// its `{...}` series ids (braces). `"`, `\` and newline are *kept* in
/// the stored value and escaped per the Prometheus text-format spec at
/// render time ([`push_escaped_label`]); their escaped forms contain
/// no whitespace, so rendered ids stay wire-safe.
fn sanitize_label(value: &str) -> String {
    value
        .chars()
        .map(|c| match c {
            '\r' | ' ' | '{' | '}' => '_',
            other => other,
        })
        .collect()
}

/// A snapshot value of one registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram digest.
    Histogram(HistogramSummary),
}

/// A named collection of metrics (usually the process-wide
/// [`global()`](crate::global) instance).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<MetricId, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<MetricId, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<MetricId, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers a counter.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_insert(
            &self.counters,
            MetricId::new(name, labels),
            Counter::default,
        )
    }

    /// Gets or registers a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_insert(&self.gauges, MetricId::new(name, labels), Gauge::default)
    }

    /// Gets or registers a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        get_or_insert(
            &self.histograms,
            MetricId::new(name, labels),
            Histogram::new,
        )
    }

    /// Value of a counter series by its rendered id (`name` or
    /// `name{k="v"}`), if registered. Meant for tests and assertions.
    #[must_use]
    pub fn counter_value(&self, rendered: &str) -> Option<u64> {
        read(&self.counters)
            .iter()
            .find(|(id, _)| id.rendered() == rendered)
            .map(|(_, c)| c.get())
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// series id.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out = Vec::new();
        for (id, c) in read(&self.counters).iter() {
            out.push((id.rendered(), MetricValue::Counter(c.get())));
        }
        for (id, g) in read(&self.gauges).iter() {
            out.push((id.rendered(), MetricValue::Gauge(g.get())));
        }
        for (id, h) in read(&self.histograms).iter() {
            out.push((id.rendered(), MetricValue::Histogram(h.summary())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Flat `(key, value)` pairs for the wire protocol's `stats` verb:
    /// counters and gauges render their value, histograms a
    /// `count=… sum=… min=… max=… p50=… p90=… p99=…` digest. Keys
    /// contain no spaces or newlines.
    #[must_use]
    pub fn render_fields(&self) -> Vec<(String, String)> {
        self.snapshot()
            .into_iter()
            .map(|(id, value)| {
                let rendered = match value {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => v.to_string(),
                    MetricValue::Histogram(s) => format!(
                        "count={} sum={} min={} max={} p50={} p90={} p99={}",
                        s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
                    ),
                };
                (id, rendered)
            })
            .collect()
    }

    /// The Prometheus text exposition (version 0.0.4): `# TYPE` comments
    /// per metric family, counters and gauges as plain samples, and
    /// histograms as cumulative `_bucket{le="…"}` series (one per log₂
    /// bucket up to the last occupied one, then `le="+Inf"`) plus
    /// `_sum` and `_count`. The `le` bounds are each bucket's inclusive
    /// integer upper bound; `+Inf` and `_count` both report the bucket
    /// total so the exposition is internally consistent even while
    /// records are in flight.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, family: &str, kind: &str| {
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.to_string();
            }
        };
        for (id, c) in read(&self.counters).iter() {
            type_line(&mut out, &id.name, "counter");
            out.push_str(&format!("{} {}\n", id.rendered(), c.get()));
        }
        for (id, g) in read(&self.gauges).iter() {
            type_line(&mut out, &id.name, "gauge");
            out.push_str(&format!("{} {}\n", id.rendered(), g.get()));
        }
        for (id, h) in read(&self.histograms).iter() {
            type_line(&mut out, &id.name, "histogram");
            let counts: Vec<u64> = h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let total: u64 = counts.iter().sum();
            let mut cumulative = 0u64;
            if let Some(last) = counts.iter().rposition(|&n| n > 0) {
                for (i, n) in counts.iter().enumerate().take(last + 1) {
                    cumulative += n;
                    let le = Histogram::bucket_upper(i).to_string();
                    out.push_str(&format!(
                        "{}_bucket{{{}}} {cumulative}\n",
                        id.name,
                        id.render_labels(Some(("le", &le))),
                    ));
                }
            }
            out.push_str(&format!(
                "{}_bucket{{{}}} {total}\n",
                id.name,
                id.render_labels(Some(("le", "+Inf"))),
            ));
            let labels = if id.labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", id.render_labels(None))
            };
            let sum = h.sum.load(Ordering::Relaxed);
            out.push_str(&format!("{}_sum{labels} {sum}\n", id.name));
            out.push_str(&format!("{}_count{labels} {total}\n", id.name));
        }
        out
    }

    /// Serializes every non-empty metric as one tab-separated line, for
    /// shipping a worker process's registry to the coordinator:
    ///
    /// ```text
    /// c\t<value>\t<name>[\t<k>\t<v>]...
    /// g\t<value>\t<name>[\t<k>\t<v>]...
    /// h\t<count>\t<sum>\t<min>\t<max>\t<i>:<n>,...\t<name>[\t<k>\t<v>]...
    /// ```
    ///
    /// Values are cumulative since process start; the receiving side
    /// ([`Registry::merge_snapshot`]) turns them into deltas, so the
    /// shipper needs no bookkeeping between snapshots. Names and label
    /// values never contain tabs (sanitized at registration).
    #[must_use]
    pub fn encode_snapshot(&self) -> String {
        self.encode_snapshot_prefixed("")
    }

    /// Like [`Registry::encode_snapshot`] but restricted to series whose
    /// name starts with `prefix`. A worker ships its own plane
    /// (`ffmr_worker_*`) without dragging along driver-side series when
    /// it shares the process registry (in-thread fleets).
    #[must_use]
    pub fn encode_snapshot_prefixed(&self, prefix: &str) -> String {
        let mut out = String::new();
        let push_id = |out: &mut String, id: &MetricId| {
            out.push('\t');
            out.push_str(&id.name);
            for (k, v) in &id.labels {
                out.push('\t');
                out.push_str(k);
                out.push('\t');
                out.push_str(v);
            }
            out.push('\n');
        };
        for (id, c) in read(&self.counters).iter() {
            let v = c.get();
            if v > 0 && id.name.starts_with(prefix) {
                out.push_str(&format!("c\t{v}"));
                push_id(&mut out, id);
            }
        }
        for (id, g) in read(&self.gauges).iter() {
            if !id.name.starts_with(prefix) {
                continue;
            }
            out.push_str(&format!("g\t{}", g.get()));
            push_id(&mut out, id);
        }
        for (id, h) in read(&self.histograms).iter() {
            let count = h.count();
            if count == 0 || !id.name.starts_with(prefix) {
                continue;
            }
            let buckets = h
                .bucket_counts()
                .into_iter()
                .enumerate()
                .filter(|&(_, n)| n > 0)
                .map(|(i, n)| format!("{i}:{n}"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "h\t{count}\t{}\t{}\t{}\t{buckets}",
                h.sum.load(Ordering::Relaxed),
                h.min
                    .load(Ordering::Relaxed)
                    .min(h.max.load(Ordering::Relaxed)),
                h.max.load(Ordering::Relaxed),
            ));
            push_id(&mut out, id);
        }
        out
    }

    /// Merges an [`Registry::encode_snapshot`] payload into this
    /// registry, attaching `extra` (e.g. `("worker", "3")`) as an
    /// additional label on every series. Counter and histogram values
    /// in the payload are cumulative; because exactly one shipper feeds
    /// each `(series, extra-label)` pair, the delta against the current
    /// local value is applied, so repeated snapshots never double-count.
    /// Gauges are set to the shipped value. Malformed lines are skipped
    /// — telemetry must never take a job down.
    pub fn merge_snapshot(&self, encoded: &str, extra: (&str, &str)) {
        for line in encoded.lines() {
            let mut parts = line.split('\t');
            let Some(kind) = parts.next() else { continue };
            let fixed = match kind {
                "c" | "g" => 1,
                "h" => 5,
                _ => continue,
            };
            let values: Vec<&str> = parts.by_ref().take(fixed).collect();
            if values.len() < fixed {
                continue;
            }
            let Some(name) = parts.next() else { continue };
            let mut labels: Vec<(&str, &str)> = Vec::new();
            loop {
                match (parts.next(), parts.next()) {
                    (Some(k), Some(v)) => labels.push((k, v)),
                    (None, _) => break,
                    (Some(_), None) => break,
                }
            }
            // A series already carrying the attribution key was merged
            // from somewhere else (an in-process worker snapshots the
            // registry its own merges land in); re-labeling it would
            // mint `{worker=a, worker=b}` series without bound.
            if labels.iter().any(|&(k, _)| k == extra.0) {
                continue;
            }
            labels.push(extra);
            match kind {
                "c" => {
                    let Ok(value) = values[0].parse::<u64>() else {
                        continue;
                    };
                    let counter = self.counter(name, &labels);
                    let delta = value.saturating_sub(counter.get());
                    if delta > 0 {
                        counter.add(delta);
                    }
                }
                "g" => {
                    let Ok(value) = values[0].parse::<i64>() else {
                        continue;
                    };
                    self.gauge(name, &labels).set(value);
                }
                "h" => {
                    let parsed: Option<[u64; 4]> = values[..4]
                        .iter()
                        .map(|v| v.parse::<u64>().ok())
                        .collect::<Option<Vec<_>>>()
                        .and_then(|v| v.try_into().ok());
                    let Some([count, sum, min, max]) = parsed else {
                        continue;
                    };
                    let histogram = self.histogram(name, &labels);
                    let current = histogram.bucket_counts();
                    let mut deltas = Vec::new();
                    for pair in values[4].split(',').filter(|p| !p.is_empty()) {
                        let Some((i, n)) = pair.split_once(':') else {
                            continue;
                        };
                        let (Ok(i), Ok(n)) = (i.parse::<usize>(), n.parse::<u64>()) else {
                            continue;
                        };
                        let have = current.get(i).copied().unwrap_or(0);
                        if n > have {
                            deltas.push((i, n - have));
                        }
                    }
                    histogram.merge_raw(
                        count.saturating_sub(histogram.count()),
                        sum.saturating_sub(histogram.sum.load(Ordering::Relaxed)),
                        min,
                        max,
                        &deltas,
                    );
                }
                _ => {}
            }
        }
    }
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn get_or_insert<M>(
    map: &RwLock<BTreeMap<MetricId, Arc<M>>>,
    id: MetricId,
    build: impl FnOnce() -> M,
) -> Arc<M> {
    if let Some(existing) = read(map).get(&id) {
        return Arc::clone(existing);
    }
    let mut map = map
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(map.entry(id).or_insert_with(|| Arc::new(build())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("ffmr_test_total", &[("verb", "maxflow")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(
            reg.counter_value("ffmr_test_total{verb=\"maxflow\"}"),
            Some(5)
        );
        // Same name+labels resolve to the same underlying atomic.
        reg.counter("ffmr_test_total", &[("verb", "maxflow")]).inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("ffmr_depth", &[]);
        g.set(7);
        g.sub(2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let reg = Registry::new();
        let h = reg.histogram("ffmr_lat_us", &[]);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Log-bucket estimates overshoot by at most 2×.
        assert!((500..=1000).contains(&s.p50), "p50={}", s.p50);
        assert!((900..=1000).contains(&s.p90), "p90={}", s.p90);
        assert!((990..=1000).contains(&s.p99), "p99={}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn histogram_handles_zero_and_extremes() {
        let reg = Registry::new();
        let h = reg.histogram("ffmr_extremes", &[]);
        let empty = h.summary();
        assert_eq!(empty, HistogramSummary::default());
        h.record(0);
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (2, 0, u64::MAX));
    }

    #[test]
    fn label_order_is_canonical_and_values_sanitized() {
        let reg = Registry::new();
        let a = reg.counter("t_total", &[("b", "2"), ("a", "1")]);
        let b = reg.counter("t_total", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "label order must not split the series");
        let c = reg.counter("bad name", &[("k", "has \"quotes\" and\nnewlines")]);
        c.inc();
        let ids: Vec<String> = reg.snapshot().into_iter().map(|(id, _)| id).collect();
        assert!(
            ids.iter()
                .any(|id| id.starts_with("bad_name") && !id.contains(' ') && !id.contains('\n')),
            "{ids:?}"
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = Registry::new();
        reg.counter("ffmr_q_total", &[("verb", "maxflow")]).add(3);
        reg.gauge("ffmr_depth", &[]).set(2);
        let h = reg.histogram("ffmr_lat_us", &[("verb", "maxflow")]);
        h.record(100);
        h.record(200);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ffmr_q_total counter"));
        assert!(text.contains("ffmr_q_total{verb=\"maxflow\"} 3"));
        assert!(text.contains("# TYPE ffmr_depth gauge"));
        assert!(text.contains("# TYPE ffmr_lat_us histogram"));
        assert!(text.contains("ffmr_lat_us_bucket{verb=\"maxflow\",le=\"+Inf\"} 2"));
        assert!(text.contains("ffmr_lat_us_count{verb=\"maxflow\"} 2"));
        assert!(text.contains("ffmr_lat_us_sum{verb=\"maxflow\"} 300"));
        // Every non-comment line is `series value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_conformant() {
        let reg = Registry::new();
        let h = reg.histogram("ffmr_lat_us", &[("verb", "maxflow")]);
        for v in [1u64, 2, 3, 200] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        // Inclusive integer upper bounds: 1 lands in le="1", 2 and 3 in
        // le="3", 200 in le="255".
        assert!(text.contains("ffmr_lat_us_bucket{verb=\"maxflow\",le=\"1\"} 1"));
        assert!(text.contains("ffmr_lat_us_bucket{verb=\"maxflow\",le=\"3\"} 3"));
        assert!(text.contains("ffmr_lat_us_bucket{verb=\"maxflow\",le=\"255\"} 4"));
        assert!(text.contains("ffmr_lat_us_bucket{verb=\"maxflow\",le=\"+Inf\"} 4"));
        assert!(text.contains("ffmr_lat_us_count{verb=\"maxflow\"} 4"));
        assert!(text.contains("ffmr_lat_us_sum{verb=\"maxflow\"} 206"));
        // Bucket counts are cumulative, hence non-decreasing, and the
        // +Inf bucket equals _count.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ffmr_lat_us_bucket{"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(buckets.len() >= 2);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    }

    #[test]
    fn label_values_are_escaped_at_render_time() {
        let reg = Registry::new();
        let c = reg.counter("ffmr_esc_total", &[("path", "a\\b\"c\nd")]);
        c.inc();
        let text = reg.render_prometheus();
        // Spec escaping: backslash, quote, newline.
        assert!(
            text.contains("path=\"a\\\\b\\\"c\\nd\""),
            "escaped label missing in:\n{text}"
        );
        // The escaped forms keep every series id one-line and wire-safe.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, _) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.contains(' ') && !series.contains('\n'), "{series}");
        }
        for (k, _) in reg.render_fields() {
            assert!(!k.contains(' ') && !k.contains('\n'), "key: {k}");
        }
    }

    #[test]
    fn render_fields_keys_are_wire_safe() {
        let reg = Registry::new();
        reg.counter("ffmr_a_total", &[("k", "v")]).inc();
        reg.histogram("ffmr_h_us", &[]).record(5);
        for (k, v) in reg.render_fields() {
            assert!(!k.contains(' ') && !k.contains('\n'), "key: {k}");
            assert!(!v.contains('\n'), "value: {v}");
        }
    }

    #[test]
    fn snapshot_merge_applies_deltas_with_the_extra_label() {
        let worker = Registry::new();
        worker
            .counter("ffmr_mr_records_total", &[("phase", "map")])
            .add(10);
        worker.gauge("ffmr_w_depth", &[]).set(3);
        let h = worker.histogram("ffmr_w_lat_us", &[]);
        h.record(5);
        h.record(300);

        let driver = Registry::new();
        driver.merge_snapshot(&worker.encode_snapshot(), ("worker", "2"));
        assert_eq!(
            driver.counter_value("ffmr_mr_records_total{phase=\"map\",worker=\"2\"}"),
            Some(10)
        );
        assert_eq!(driver.gauge("ffmr_w_depth", &[("worker", "2")]).get(), 3);
        let merged = driver
            .histogram("ffmr_w_lat_us", &[("worker", "2")])
            .summary();
        assert_eq!(
            (merged.count, merged.sum, merged.min, merged.max),
            (2, 305, 5, 300)
        );

        // A second snapshot with more data only applies the delta.
        worker
            .counter("ffmr_mr_records_total", &[("phase", "map")])
            .add(7);
        h.record(80);
        driver.merge_snapshot(&worker.encode_snapshot(), ("worker", "2"));
        driver.merge_snapshot(&worker.encode_snapshot(), ("worker", "2"));
        assert_eq!(
            driver.counter_value("ffmr_mr_records_total{phase=\"map\",worker=\"2\"}"),
            Some(17)
        );
        let merged = driver
            .histogram("ffmr_w_lat_us", &[("worker", "2")])
            .summary();
        assert_eq!((merged.count, merged.sum), (3, 385));

        // Malformed lines and unknown kinds are skipped, not fatal.
        driver.merge_snapshot(
            "x\t1\tbogus\nc\tnot-a-number\tz_total\nc\t5",
            ("worker", "2"),
        );
        assert_eq!(driver.counter_value("z_total{worker=\"2\"}"), None);
    }

    #[test]
    fn concurrent_recording_is_exact_for_counters() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("ffmr_conc_total", &[]);
        let h = reg.histogram("ffmr_conc_us", &[]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i & 1023);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.summary().count, 80_000);
    }
}
