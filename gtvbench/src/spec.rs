//! `BENCHMARK.json`, compiled in: the one place that names the workloads
//! and every metric with its unit, direction and bound. The code produces
//! values by name; what is printed, and how two runs are compared, is read
//! from here.

use crate::json::Json;
use crate::workload::valid_name;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Bench {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Bench {
    pub fn load() -> Result<Bench, String> {
        Self::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Bench, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let text_of = |v: &Json, key: &str| {
            let text =
                v.get(key).and_then(Json::as_str).ok_or(format!("BENCHMARK.json: no '{key}'"))?;
            if key == "name" && !valid_name(text) {
                return Err(format!("BENCHMARK.json: '{text}' is not a valid name"));
            }
            Ok(text.to_string())
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            root.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Bench {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: root
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The limits the benchmark contract puts on the file.
    #[test]
    fn benchmark_json_is_within_its_contract() {
        let bench = Bench::load().expect("BENCHMARK.json parses");
        assert!((1.0..=60.0).contains(&bench.run_seconds) && bench.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&bench.workloads.len()));
        assert!((1..=16).contains(&bench.end_to_end.len()));
        assert!((1..=128).contains(&bench.per_layer.len()));
        let mut names: Vec<&str> = bench.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(bench.end_to_end.iter().chain(&bench.per_layer).map(|m| m.name.as_str()));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in &bench.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in bench.end_to_end.iter().chain(&bench.per_layer) {
            assert!(unit_ok(&m.unit), "unit of {}", m.name);
        }
        for m in &bench.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", m.name);
        }
        assert!(bench.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = bench.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = bench.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up time takes the largest bound");
    }

    #[test]
    fn invalid_names_are_refused_at_load() {
        let text = r#"{"run_seconds": 1, "workloads": [{"name": "a b", "why": "x"}]}"#;
        assert!(Bench::parse(text).is_err_and(|e| e.contains("not a valid name")));
    }

    #[test]
    fn the_file_and_the_code_name_the_same_workloads() {
        let bench = Bench::load().expect("BENCHMARK.json parses");
        let listed: Vec<&str> = bench.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, coded);
    }
}
