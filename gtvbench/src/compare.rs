//! `--compare A.json B.json`: reads two result files of full runs and
//! applies each end-to-end metric's direction and bound from
//! `BENCHMARK.json`, one row per (workload, metric). This is how "two sets
//! of runs agree" is checked and how a later change is read against its
//! parent.

use crate::json::Json;
use crate::spec::Bench;

/// Counts made by the program: with the same seed they repeat exactly, so
/// any difference between two runs of the same seed is a breach.
const EXACT_AT_EQUAL_SEED: [&str; 1] = ["train_bytes_per_round"];

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative when better).
    pub worse_by: f64,
    pub allowed: f64,
    pub breach: bool,
}

fn metric_value(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn failure_share(run: &Json, workload: &str) -> Option<f64> {
    let w = run.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Rows for every workload of `a`, and failures: a metric or workload
/// missing from `b`, or a failed-operation share that rose.
pub fn compare(bench: &Bench, a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let workloads = a.get("workloads").and_then(Json::as_obj);
    if workloads.is_none_or(|w| w.is_empty()) {
        problems.push("the first file holds no workloads".to_string());
    }
    for workload in workloads.into_iter().flat_map(|w| w.keys()) {
        for m in &bench.end_to_end {
            let (Some(va), Some(vb)) =
                (metric_value(a, workload, &m.name), metric_value(b, workload, &m.name))
            else {
                problems.push(format!("{workload}/{}: missing from one of the files", m.name));
                continue;
            };
            let exact = same_seed && EXACT_AT_EQUAL_SEED.contains(&m.name.as_str());
            let worse_by = if m.higher_is_better { (va - vb) / va } else { (vb - va) / va };
            let allowed = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            let breach = if exact { va != vb } else { worse_by.is_nan() || worse_by > allowed };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                worse_by,
                allowed,
                breach,
            });
        }
        match (failure_share(a, workload), failure_share(b, workload)) {
            (Some(fa), Some(fb)) if fb <= fa => {}
            (Some(fa), Some(fb)) => {
                problems.push(format!(
                    "{workload}: failed operations rose from {fa:.6} to {fb:.6} of attempted"
                ));
            }
            _ => problems.push(format!("{workload}: no operation counts in one of the files")),
        }
    }
    (rows, problems)
}

/// Prints the table and returns whether `b` is within bounds of `a`.
pub fn report(bench: &Bench, a: &Json, b: &Json) -> bool {
    let (rows, problems) = compare(bench, a, b);
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>10} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "allowed"
    );
    for r in &rows {
        println!(
            "{:<14} {:<22} {:>16.6} {:>16.6} {:>9.2}% {:>7.2}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.allowed * 100.0,
            if r.breach { "BREACH" } else { "ok" }
        );
    }
    // Not gated: a change of arithmetic is allowed, but must be seen.
    for workload in a.get("workloads").and_then(Json::as_obj).into_iter().flat_map(|w| w.keys()) {
        let fp = |run: &Json| {
            run.get("workloads")?
                .get(workload)?
                .get("fingerprints")?
                .get("weights_fnv64")?
                .as_str()
                .map(str::to_string)
        };
        if let (Some(fa), Some(fb)) = (fp(a), fp(b)) {
            let verdict = if fa == fb { "same arithmetic" } else { "weights differ" };
            println!("{workload:<14} weights_fnv64 {fa} vs {fb}: {verdict}");
        }
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    let breaches = rows.iter().filter(|r| r.breach).count();
    println!("{} rows, {breaches} breaches, {} other failures", rows.len(), problems.len());
    breaches == 0 && problems.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"run_seconds": 1, "workloads": [],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "train_rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "train_bytes_per_round", "unit": "bytes", "better": "lower", "bound": 0.02}],
        "per_layer": []}"#;

    fn run(seed: u64, setup: f64, rps: f64, bytes: f64, failed: u64) -> Json {
        let text = format!(
            r#"{{"seed": {seed}, "workloads": {{"w": {{"attempted": 100, "failed": {failed}, "metrics": {{
                "setup_s": {{"value": {setup}, "unit": "s"}},
                "train_rounds_per_s": {{"value": {rps}, "unit": "1/s"}},
                "train_bytes_per_round": {{"value": {bytes}, "unit": "bytes"}}}}}}}}}}"#
        );
        Json::parse(&text).expect("test json")
    }

    fn breaches(a: &Json, b: &Json) -> (Vec<String>, usize) {
        let bench = Bench::parse(BENCH).expect("bench");
        let (rows, problems) = compare(&bench, a, b);
        (rows.iter().filter(|r| r.breach).map(|r| r.metric.clone()).collect(), problems.len())
    }

    #[test]
    fn within_bounds_passes_in_both_directions() {
        let a = run(1, 1.0, 10.0, 500.0, 0);
        assert_eq!(breaches(&a, &run(1, 1.2, 9.5, 500.0, 0)), (vec![], 0));
        // Better than the reference is never a breach.
        assert_eq!(breaches(&a, &run(1, 0.1, 99.0, 500.0, 0)), (vec![], 0));
    }

    #[test]
    fn direction_and_bound_are_applied_per_metric() {
        let a = run(1, 1.0, 10.0, 500.0, 0);
        assert_eq!(breaches(&a, &run(1, 1.3, 10.0, 500.0, 0)).0, vec!["setup_s"]);
        assert_eq!(breaches(&a, &run(1, 1.0, 8.9, 500.0, 0)).0, vec!["train_rounds_per_s"]);
        assert_eq!(breaches(&a, &run(1, 1.0, 11.5, 500.0, 0)).0, Vec::<String>::new());
    }

    #[test]
    fn byte_counts_are_exact_at_equal_seeds_and_bounded_across_seeds() {
        let a = run(1, 1.0, 10.0, 500.0, 0);
        assert_eq!(breaches(&a, &run(1, 1.0, 10.0, 501.0, 0)).0, vec!["train_bytes_per_round"]);
        assert_eq!(breaches(&a, &run(1, 1.0, 10.0, 499.0, 0)).0, vec!["train_bytes_per_round"]);
        assert_eq!(breaches(&a, &run(2, 1.0, 10.0, 505.0, 0)).0, Vec::<String>::new());
        assert_eq!(breaches(&a, &run(2, 1.0, 10.0, 520.0, 0)).0, vec!["train_bytes_per_round"]);
    }

    #[test]
    fn a_rise_in_failed_operations_or_a_missing_metric_fails() {
        let a = run(1, 1.0, 10.0, 500.0, 1);
        assert_eq!(breaches(&a, &run(1, 1.0, 10.0, 500.0, 1)).1, 0);
        assert_eq!(breaches(&a, &run(1, 1.0, 10.0, 500.0, 2)).1, 1);
        let empty = Json::parse(r#"{"seed": 1, "workloads": {}}"#).expect("json");
        assert!(breaches(&a, &empty).1 >= 3);
        assert_eq!(breaches(&empty, &a).1, 1);
    }
}
