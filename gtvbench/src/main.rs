//! `gtvbench` — the repository's one benchmark. See `README.md` beside the
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! gtvbench --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result
//! gtvbench [--seed N] [--seconds S] [--out FILE]              every workload, both passes
//! gtvbench --compare A.json B.json                            read run B against run A
//! gtvbench --smoke                                            every check at a fiftieth of the size
//! ```

mod compare;
mod json;
mod pipeline;
mod probes;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Json;
use pipeline::{Options, Outcome};
use spec::{Bench, Metric};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 12;
/// Prefix of the line a single run prints before its result, read back by
/// the run of all workloads.
const FINGERPRINTS: &str = "fingerprints ";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn options(args: &Args, bench: &Bench, trace: bool) -> Options {
    Options {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(bench.run_seconds),
        trace,
        trace_out: args.trace_out.clone(),
        smoke: args.smoke,
        run_dir: PathBuf::from(format!(".gtvbench_run/{}", std::process::id())),
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for every listed metric; an
/// unmeasured one is an error, never a silent gap.
fn metrics_json(listed: &[Metric], outcome: &Outcome) -> Result<Json, String> {
    let entries = listed.iter().map(|m| {
        let value = outcome.values.get(&m.name).copied().filter(|v| v.is_finite());
        let value = value.ok_or(format!("metric {} was not measured", m.name))?;
        let cell = [("value", Json::Num(value)), ("unit", Json::Str(m.unit.clone()))];
        Ok((m.name.clone(), Json::obj(cell)))
    });
    entries.collect::<Result<Vec<_>, String>>().map(Json::obj)
}

fn print_metrics(title: &str, listed: &[Metric], outcome: &Outcome) {
    println!("{title}:");
    for m in listed {
        if let Some(v) = outcome.values.get(&m.name) {
            println!("  {:<36} {v:>18.6} {}", m.name, m.unit);
        }
    }
}

/// One run of one workload, as the benchmark contract calls it.
fn run_one(w: &Workload, args: &Args, bench: &Bench) -> Result<bool, String> {
    let opts = options(args, bench, args.trace);
    let outcome = pipeline::run(w, &opts)?;
    let listed = if opts.trace { &bench.per_layer } else { &bench.end_to_end };
    print_metrics(
        if opts.trace { "per-layer metrics" } else { "end-to-end metrics" },
        listed,
        &outcome,
    );
    println!("ops_attempted = {}, ops_failed = {}", outcome.attempted, outcome.failed);
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    let prints = outcome.fingerprints.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone())));
    println!("{FINGERPRINTS}{}", Json::obj(prints).render());
    let correct = outcome.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(listed, &outcome)?),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// Every check of every workload, small and quick; prints no metrics.
fn run_smoke(args: &Args, bench: &Bench) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let outcome = pipeline::run(&w.smoke(), &options(args, bench, trace))?;
            // The probes behind most per-layer metrics are skipped at this
            // size, so only the end-to-end list must be complete.
            if !trace {
                metrics_json(&bench.end_to_end, &outcome)?;
            }
            println!(
                "smoke {} trace={}: {} ops, {} failed",
                w.name,
                u8::from(trace),
                outcome.attempted,
                outcome.failed
            );
            for failure in &outcome.failures {
                println!("FAILED {failure}");
            }
            ok &= outcome.failed == 0;
        }
    }
    Ok(ok)
}

/// Runs this program again for one workload and one pass, so that peak
/// memory is the workload's own; echoes its output and returns the
/// fingerprints and the result line.
fn child_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&PathBuf>,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let (true, Some(prefix)) = (trace, trace_out) {
        cmd.arg("--trace-out").arg(format!("{}.{}.jsonl", prefix.display(), w.name));
    }
    let mut child = cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let (mut prints, mut last) = (None, String::new());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        match line.strip_prefix(FINGERPRINTS) {
            Some(rest) => prints = Some(rest.to_string()),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
    let result = Json::parse(&last)
        .map_err(|e| format!("{} ended without a result ({status}): {e}", w.name))?;
    let prints =
        Json::parse(prints.as_deref().unwrap_or("{}")).map_err(|e| format!("fingerprints: {e}"))?;
    Ok((prints, result))
}

/// The one command: every workload, untraced then traced, each in a fresh
/// process; writes everything to `--out`.
fn run_all(args: &Args, bench: &Bench) -> Result<bool, String> {
    let opts = options(args, bench, false);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let degraded = cores < 2;
    println!("gtvbench: seed {}, {} s per run, host_parallelism {cores}", opts.seed, opts.seconds);
    if degraded {
        println!(
            "DEGRADED: fewer than two cores. Party nodes and the server work beside the orchestrator, and two \
             probes ask for two threads; their figures below are not measurements of parallel speed."
        );
    }
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let why =
            bench.workloads.iter().find(|(name, _)| name == w.name).map_or("", |(_, why)| why);
        println!("== {}: {why}", w.name);
        let (prints, plain) = child_run(&w, opts.seed, opts.seconds, false, None)?;
        let (traced_prints, traced) =
            child_run(&w, opts.seed, opts.seconds, true, args.trace_out.as_ref())?;
        let value = |run: &Json, name: &str| run.get("metrics")?.get(name)?.get("value")?.as_f64();
        let overhead = match (
            value(&plain, "train_rounds_per_s"),
            value(&traced, "core.train_rounds_per_s"),
        ) {
            (Some(p), Some(t)) => 1.0 - t / p,
            _ => f64::NAN,
        };
        println!(
            "[{}] trace_overhead_share = {overhead:.4} (1 - traced rounds/s / untraced rounds/s)",
            w.name
        );
        let same_weights = prints.get("weights_fnv64") == traced_prints.get("weights_fnv64");
        if !same_weights {
            println!(
                "FAILED [{}] the traced pass trained different weights: tracing is not invisible",
                w.name
            );
        }
        let count = |key: &str| {
            plain.get(key).and_then(Json::as_f64).unwrap_or(0.0)
                + traced.get(key).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let correct = same_weights
            && [&plain, &traced].iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
        ok &= correct;
        workloads.push((
            w.name.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(count("attempted"))),
                ("failed", Json::Num(count("failed") + f64::from(u8::from(!same_weights)))),
                ("metrics", plain.get("metrics").cloned().unwrap_or(Json::Null)),
                ("layers", traced.get("metrics").cloned().unwrap_or(Json::Null)),
                ("fingerprints", prints),
                ("trace_overhead_share", Json::Num(overhead)),
            ]),
        ));
    }
    let report = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("host_parallelism", Json::Num(cores as f64)),
        ("degraded", Json::Bool(degraded)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, report.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

fn run_compare(a: &PathBuf, b: &PathBuf, bench: &Bench) -> Result<bool, String> {
    let read = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(compare::report(bench, &read(a)?, &read(b)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let bench = Bench::load()?;
        if let Some((a, b)) = &args.compare {
            run_compare(a, b, &bench)
        } else if args.smoke {
            run_smoke(&args, &bench)
        } else if let Some(name) = &args.workload {
            let w = Workload::by_name(name).ok_or(format!("unknown workload '{name}'"))?;
            run_one(&w, &args, &bench)
        } else {
            run_all(&args, &bench)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gtvbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let args = parse_args(&argv(&[
            "--workload",
            "smoke_tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(args.workload.as_deref(), Some("smoke_tcp"));
        assert_eq!((args.seed, args.seconds, args.trace), (Some(7), Some(10.0), true));
        for bad in [&["--trace", "2"][..], &["--seconds", "0"], &["--seed"], &["--frobnicate"]] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_gap() {
        let listed = vec![Metric {
            name: "x".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: None,
        }];
        let mut outcome = Outcome::default();
        assert!(metrics_json(&listed, &outcome).is_err());
        outcome.set("x", f64::NAN);
        assert!(metrics_json(&listed, &outcome).is_err());
        outcome.set("x", 1.5);
        let json = metrics_json(&listed, &outcome).expect("measured");
        assert_eq!(json.render(), r#"{"x":{"unit":"s","value":1.5}}"#);
    }

    /// Every workload end to end at a fiftieth of the size, untraced and
    /// traced: the harness runs, every end-to-end metric is produced and
    /// every output check passes.
    #[test]
    fn smoke_pass_runs_every_workload_and_check() {
        let bench = Bench::load().expect("BENCHMARK.json");
        let args = Args { smoke: true, seed: Some(3), seconds: Some(0.2), ..Args::default() };
        assert_eq!(run_smoke(&args, &bench), Ok(true));
    }
}
