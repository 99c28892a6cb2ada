//! `run.sh compare A/ B/`: judge result set B (the change) against A (the
//! parent) with the bounds `BENCHMARK.json` fixes, one row per workload and
//! end-to-end metric.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::ledger::Better;
use crate::stats::quartiles;

/// File of a results directory that holds one JSON line per run.
pub const RUNS_FILE: &str = "runs.jsonl";

/// How B's runs of one metric stand against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's own quartile spread,
    /// or every run of B beats every run of A.
    Improved,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side has fewer than two runs, or its quartile spread is wider than
    /// the bound, so the bound cannot be resolved.
    Unresolved,
}

impl Verdict {
    /// The word printed in the verdict column.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of one side, or `None` with fewer than two runs.
pub type Quartiles = Option<[f64; 3]>;

/// Judge one metric. `bound` is the share of A's median by which B's median
/// may be worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Quartiles, Quartiles, Verdict) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let (Some([a1, a_med, a3]), Some([b1, b_med, b3])) = (qa, qb) else {
        return (qa, qb, Verdict::Unresolved);
    };
    // Positive = B is worse, as a share of A's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (b_med - a_med) / a_med.abs();
    let is_better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let b_beats_every_a = b.iter().all(|&x| a.iter().all(|&y| is_better(x, y)));
    let spread = ((a3 - a1) / a_med.abs()).max((b3 - b1) / b_med.abs());
    let verdict = if b_beats_every_a {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by * a_med.abs() > a3 - a1 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (qa, qb, verdict)
}

/// Untraced runs of a results directory: workload → metric → one value per run.
pub fn load_runs(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let path = dir.join(RUNS_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let run = Json::parse(line).map_err(|e| bad(&e))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?;
        let of_workload = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            of_workload.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// End-to-end metrics of `BENCHMARK.json`: `(name, unit, better, bound)`.
pub fn load_bounds(benchmark_json: &Path) -> Result<Vec<(String, String, Better, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("BENCHMARK.json: metric without {k}"))
            };
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: metric without bound")?;
            Ok((
                text("name")?.to_string(),
                text("unit")?.to_string(),
                better,
                bound,
            ))
        })
        .collect()
}

fn cell(q: Quartiles) -> String {
    match q {
        Some([q1, med, q3]) => format!("{med:.4} [{q1:.4}, {q3:.4}]"),
        None => "too few runs".into(),
    }
}

/// Print the comparison table; returns how many rows regressed.
pub fn compare(a_dir: &Path, b_dir: &Path, benchmark_json: &Path) -> Result<usize, String> {
    let bounds = load_bounds(benchmark_json)?;
    let (a, b) = (load_runs(a_dir)?, load_runs(b_dir)?);
    println!(
        "{:<16} {:<12} {:<7} {:>6}  {:<34} {:<34} verdict",
        "workload", "metric", "unit", "bound", "A median [q1, q3]", "B median [q1, q3]"
    );
    let none = Vec::new();
    let mut regressed = 0;
    for (workload, a_metrics) in &a {
        for (name, unit, better, bound) in &bounds {
            let a_runs = a_metrics.get(name).unwrap_or(&none);
            let b_runs = b.get(workload).and_then(|m| m.get(name)).unwrap_or(&none);
            let (qa, qb, verdict) = judge(a_runs, b_runs, *better, *bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{workload:<16} {name:<12} {unit:<7} {:>5.0}%  {:<34} {:<34} {} (n={}/{})",
                bound * 100.0,
                cell(qa),
                cell(qb),
                verdict.as_str(),
                a_runs.len(),
                b_runs.len()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
        judge(a, b, better, bound).2
    }

    #[test]
    fn steady_runs_within_the_bound_pass() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let b = [10.3, 10.2, 10.4, 10.3];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::WithinBound);
        // the same numbers as a throughput: B is higher, clear of A's spread
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Improved);
    }

    #[test]
    fn a_median_past_the_bound_regresses_in_the_metrics_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let slow = [11.5, 11.6, 11.4, 11.5];
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.10), Verdict::Regressed);
        let fewer_ops = [8.5, 8.6, 8.4, 8.5];
        assert_eq!(
            verdict(&a, &fewer_ops, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &fewer_ops, Better::Lower, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = [10.0, 14.0, 8.0, 12.0, 9.0];
        let b = [10.5, 13.0, 8.5, 12.5, 9.5];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        // unless every run of B beats every run of A
        let b_all_better = [7.0, 7.5, 6.0, 7.9, 6.5];
        assert_eq!(
            verdict(&a, &b_all_better, Better::Lower, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(
            verdict(&[10.0], &[10.0, 10.1], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[], &[], Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn loads_untraced_runs_and_skips_traced_ones() {
        let dir = std::env::temp_dir().join(format!("fge2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(RUNS_FILE),
            "{\"workload\":\"w\",\"trace\":0,\"metrics\":{\"m\":{\"value\":1.5,\"unit\":\"ms\"}}}\n\
             {\"workload\":\"w\",\"trace\":1,\"metrics\":{\"x\":{\"value\":9,\"unit\":\"ms\"}}}\n\
             {\"workload\":\"w\",\"trace\":0,\"metrics\":{\"m\":{\"value\":2.5,\"unit\":\"ms\"}}}\n",
        )
        .unwrap();
        let runs = load_runs(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(runs["w"]["m"], vec![1.5, 2.5]);
        assert!(!runs["w"].contains_key("x"));
    }
}
