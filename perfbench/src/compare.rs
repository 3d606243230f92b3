//! `perf --compare A.jsonl B.jsonl`: two record files (written with
//! `--record`, any number of runs per workload) side by side. For every
//! workload and end-to-end metric it prints both medians, the change,
//! the bound and a verdict — the A/A check of the benchmark itself and
//! what a later change quotes against its parent. Runs of one workload
//! that measured for different lengths are refused, not compared.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::report::metrics_of;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs of one side spread wider than the bound, and B's runs do
    /// not all read better than A's: the bound cannot be judged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two runs.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(metric: &EndToEnd, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(metric, x, y) < 0.0));
    if spread(a).max(spread(b)) > bound {
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(metric, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Runs of one record file: workload → metric → one value per untraced
/// run, plus the failed operations and the run lengths per workload.
#[derive(Debug, Default)]
struct Records {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, f64>,
    /// `--seconds` of every run, in file order.
    seconds: BTreeMap<String, Vec<f64>>,
}

fn read_records(path: &Path) -> Result<Records, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Records::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc =
            json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        let (Some(workload), Some(seconds), Some(result)) = (
            doc.get("workload").and_then(Value::as_str),
            doc.get("seconds").and_then(Value::as_f64),
            doc.get("result"),
        ) else {
            return Err(format!("{} line {}: not a record", path.display(), i + 1));
        };
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue; // per-layer metrics carry no bound
        }
        records
            .seconds
            .entry(workload.to_string())
            .or_default()
            .push(seconds);
        *records.failed.entry(workload.to_string()).or_insert(0.0) +=
            result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let by_metric = records.values.entry(workload.to_string()).or_default();
        for (name, value) in metrics_of(result) {
            by_metric.entry(name).or_default().push(value);
        }
    }
    Ok(records)
}

/// A time-boxed window of another length holds another number of
/// operations, so its percentiles and set-up share do not compare.
fn one_run_length(a: &[f64], b: &[f64]) -> Result<(), String> {
    match a.iter().chain(b).find(|&&s| s != a[0]) {
        None => Ok(()),
        Some(other) => Err(format!(
            "runs measured for {} s and for {other} s; compare runs of one --seconds",
            a[0]
        )),
    }
}

/// Prints the comparison; `Ok(true)` when every pairing is `ok` and no
/// operation failed on either side.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    let mut clean = true;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>8} {:>7}  {:<10} runs",
        "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict"
    );
    for workload in &WORKLOADS {
        let (Some(a_runs), Some(b_runs)) =
            (a.values.get(workload.name), b.values.get(workload.name))
        else {
            continue;
        };
        let lengths = one_run_length(&a.seconds[workload.name], &b.seconds[workload.name]);
        if let Err(message) = lengths {
            return Err(format!("{}: {message}", workload.name));
        }
        for metric in &END_TO_END {
            let (Some(av), Some(bv)) = (a_runs.get(metric.name), b_runs.get(metric.name)) else {
                continue;
            };
            let bound = metric.bound_on(&workload.kind);
            let verdict = judge(metric, bound, av, bv);
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<14} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {:<10} {}+{}",
                workload.name,
                metric.name,
                median(av),
                median(bv),
                worsening(metric, median(av), median(bv)) * 100.0,
                spread(av).max(spread(bv)) * 100.0,
                bound * 100.0,
                verdict.as_str(),
                av.len(),
                bv.len()
            );
        }
        let failed = a.failed[workload.name] + b.failed[workload.name];
        if failed > 0.0 {
            clean = false;
            println!("{:<14} {failed} operations failed", workload.name);
        }
    }
    println!(
        "change: how much worse B's median is than A's (negative: better); \
         spread: quartile distance over median, the wider side"
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            better,
            ..END_TO_END[0]
        }
    }

    /// Judged against a 10 % bound, whatever the table's bounds are.
    fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
        super::judge(metric, 0.10, a, b)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = &metric(Better::Lower);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(p50, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(p50, &steady, &slower), Verdict::Regressed);
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(p50, &steady, &faster), Verdict::Ok);
        // Within the bound: 5 % worse is not a regression.
        let bit_slower: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(p50, &steady, &bit_slower), Verdict::Ok);

        // A side that cannot repeat within the bound resolves nothing…
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(judge(p50, &steady, &noisy), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let noisy_but_fast = [40.0, 50.0, 60.0, 45.0, 65.0];
        assert_eq!(judge(p50, &steady, &noisy_but_fast), Verdict::Ok);

        let rate = &metric(Better::Higher);
        assert_eq!(judge(rate, &steady, &slower), Verdict::Ok);
        assert_eq!(judge(rate, &steady, &faster), Verdict::Regressed);
    }

    #[test]
    fn runs_of_different_lengths_are_refused() {
        assert!(one_run_length(&[20.0, 20.0], &[20.0]).is_ok());
        assert!(one_run_length(&[20.0], &[20.0, 5.0]).is_err());
        assert!(one_run_length(&[20.0, 5.0], &[20.0]).is_err());
    }

    #[test]
    fn single_runs_compare_by_value_alone() {
        let p50 = &metric(Better::Lower);
        assert_eq!(judge(p50, &[100.0], &[105.0]), Verdict::Ok);
        assert_eq!(judge(p50, &[100.0], &[115.0]), Verdict::Regressed);
    }
}
