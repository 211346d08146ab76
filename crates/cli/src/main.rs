//! `gtv-cli` — train GTV on CSV files, synthesize joint tables, evaluate
//! synthetic data quality, and run the privacy analysis, from the shell.
//!
//! ```sh
//! gtv-cli demo     --dataset loan --rows 1000 --out loan.csv
//! gtv-cli synth    --input loan.csv --target personal_loan --clients 2 \
//!                  --rounds 300 --out synth.csv
//! gtv-cli evaluate --real loan.csv --synth synth.csv --target personal_loan
//! gtv-cli privacy  --input loan.csv --rounds 100
//! ```

mod args;

use args::Args;
use gtv::{GtvConfig, GtvTrainer, NetPartition};
use gtv_data::{from_csv_string, infer_schema, to_csv_string, Dataset, Table};
use gtv_metrics::similarity;
use gtv_ml::utility_difference;
use gtv_serve::{ModelRegistry, ServeConfig, SynthServer, SynthService};
use gtv_vfl::{Endpoint, PartitionPlan, PartyId, PartyNode, SocketTransport, Transport};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
gtv-cli — tabular data synthesis via vertical federated learning

USAGE:
  gtv-cli demo     --dataset <loan|adult|covtype|intrusion|credit> [--rows N] [--seed S] --out FILE
  gtv-cli synth    --input FILE [--target COL] [--clients N] [--rounds R] [--batch B]
                   [--width W] [--partition d2g0|d2g2] [--seed S] [--threads T] --out FILE
                   [--save-weights FILE] [--load-weights FILE] [--alloc-stats true]
                   [--pipelined true|false] [--sparse-wire true] [--comms-stats true]
  gtv-cli evaluate --real FILE --synth FILE --target COL [--seed S]
  gtv-cli privacy  --input FILE [--rounds R] [--clients N]
  gtv-cli serve-party  --party <server|public|CLIENT_IDX> --listen <host:port|unix:PATH>
  gtv-cli serve-server --input FILE --parties IDX=ENDPOINT[,IDX=ENDPOINT…] --out FILE
                       [--target COL] [--clients N] [--rounds R] [--batch B] [--width W]
                       [--partition d2g0|d2g2] [--seed S] [--sparse-wire true]
  gtv-cli serve-synth  --input FILE --listen <host:port|unix:PATH> [--model NAME]
                       [--load-weights FILE] [--target COL] [--clients N] [--rounds R]
                       [--batch B] [--width W] [--partition d2g0|d2g2] [--seed S]
                       [--queue-cap N] [--max-batch-rows N] [--max-replies N]
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv).map_err(|e| e.to_string())?;
    match args.command() {
        "demo" => demo(&args),
        "synth" => synth(&args),
        "evaluate" => evaluate(&args),
        "privacy" => privacy(&args),
        "serve-party" => serve_party(&args),
        "serve-server" => serve_server(&args),
        "serve-synth" => serve_synth(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn load_table(path: &str, target: Option<&str>) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let schema = infer_schema(&text, target).map_err(|e| e.to_string())?;
    from_csv_string(&text, &schema).map_err(|e| e.to_string())
}

fn dataset_by_name(name: &str) -> Result<Dataset, String> {
    Dataset::all()
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| format!("unknown dataset '{name}'"))
}

fn demo(args: &Args) -> Result<(), String> {
    let ds = dataset_by_name(args.required("dataset").map_err(|e| e.to_string())?)?;
    let rows = args.parsed_or("rows", 1_000usize).map_err(|e| e.to_string())?;
    let seed = args.parsed_or("seed", 0u64).map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let table = ds.generate(rows, seed);
    std::fs::write(out, to_csv_string(&table)).map_err(|e| e.to_string())?;
    println!("wrote {} rows × {} cols of the {} stand-in to {}", rows, table.n_cols(), ds, out);
    Ok(())
}

fn build_config(args: &Args) -> Result<GtvConfig, String> {
    let partition = match args.optional("partition").unwrap_or("d2g0") {
        "d2g0" => NetPartition::d2g0(),
        "d2g2" => NetPartition::d2g2(),
        other => return Err(format!("unknown partition '{other}' (use d2g0 or d2g2)")),
    };
    Ok(GtvConfig {
        partition,
        rounds: args.parsed_or("rounds", 300usize).map_err(|e| e.to_string())?,
        batch: args.parsed_or("batch", 128usize).map_err(|e| e.to_string())?,
        block_width: args.parsed_or("width", 256usize).map_err(|e| e.to_string())?,
        seed: args.parsed_or("seed", 0u64).map_err(|e| e.to_string())?,
        threads: args.parsed_or("threads", 0usize).map_err(|e| e.to_string())?,
        alloc_stats: args.parsed_or("alloc-stats", false).map_err(|e| e.to_string())?,
        pipelined_rounds: args.parsed_or("pipelined", true).map_err(|e| e.to_string())?,
        sparse_wire: args.parsed_or("sparse-wire", false).map_err(|e| e.to_string())?,
        ..GtvConfig::default()
    })
}

/// Prints the per-step allocation counters recorded during training
/// (`--alloc-stats true`): warm-up step, steady-state allocator misses per
/// step and the overall pool hit rate (DESIGN.md §9).
fn print_alloc_stats(stats: &[gtv::StepAllocStats]) {
    let Some(last) = stats.last() else {
        println!("alloc stats: no steps recorded");
        return;
    };
    let steps = stats.len() as u64;
    let requests = last.pool_hits + last.pool_misses;
    let hit_rate = if requests == 0 { 0.0 } else { last.pool_hits as f64 / requests as f64 };
    // Steady state excludes the cold first step, which must populate the
    // pool before anything can be recycled.
    let warm_misses = if stats.len() > 1 {
        (last.pool_misses - stats[0].pool_misses) as f64 / (steps - 1) as f64
    } else {
        last.pool_misses as f64
    };
    println!(
        "alloc stats: {} steps | {} live graph nodes/step | cold-step misses {} | \
         warm misses/step {:.1} | pool hit rate {:.3} | {:.1} MiB requested",
        steps,
        last.live_nodes,
        stats[0].pool_misses,
        warm_misses,
        hit_rate,
        last.bytes_requested as f64 / (1024.0 * 1024.0)
    );
}

/// Prints the per-round, per-party traffic windows recorded during training
/// (`--comms-stats true`): round totals for the first few measured rounds,
/// then per-party averages over all of them (DESIGN.md §10).
fn print_comms_stats(stats: &gtv_vfl::NetStats, n_clients: usize) {
    use gtv_vfl::PartyId;
    if stats.rounds.is_empty() {
        println!("comms stats: no rounds recorded");
        return;
    }
    let shown = stats.rounds.len().min(8);
    println!("comms stats ({} measured rounds, warm-up excluded):", stats.rounds.len());
    for r in &stats.rounds[..shown] {
        print!("  round {:>4}: {} msgs / {} B |", r.round, r.messages, r.bytes);
        let (sm, sb) = r.sent_by(PartyId::Server);
        print!(" server sent {sm}/{sb} B |");
        for i in 0..n_clients {
            let (cm, cb) = r.sent_by(PartyId::Client(i));
            print!(" client{i} sent {cm}/{cb} B |");
        }
        println!();
    }
    if stats.rounds.len() > shown {
        println!("  … {} more rounds", stats.rounds.len() - shown);
    }
    let rounds = stats.rounds.len() as f64;
    let mut parties = vec![PartyId::Server];
    parties.extend((0..n_clients).map(PartyId::Client));
    println!("  per-round averages:");
    for p in parties {
        let (sm, sb) = stats
            .rounds
            .iter()
            .map(|r| r.sent_by(p))
            .fold((0u64, 0u64), |(m, b), (dm, db)| (m + dm, b + db));
        let (rm, rb) = stats
            .rounds
            .iter()
            .map(|r| r.received_by(p))
            .fold((0u64, 0u64), |(m, b), (dm, db)| (m + dm, b + db));
        println!(
            "    {p}: sent {:.1} msgs / {:.0} B, received {:.1} msgs / {:.0} B",
            sm as f64 / rounds,
            sb as f64 / rounds,
            rm as f64 / rounds,
            rb as f64 / rounds
        );
    }
}

fn synth(args: &Args) -> Result<(), String> {
    let input = args.required("input").map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let table = load_table(input, args.optional("target"))?;
    let n_clients = args.parsed_or("clients", 2usize).map_err(|e| e.to_string())?;
    let comms_stats = args.parsed_or("comms-stats", false).map_err(|e| e.to_string())?;
    let config = build_config(args)?;
    let groups = PartitionPlan::Even { n_clients }
        .column_groups(table.n_cols(), None, None)
        .map_err(|e| e.to_string())?;
    let shards = table.vertical_split(&groups);
    println!(
        "training GTV ({} clients, partition {}, {} rounds) on {} rows × {} cols…",
        n_clients,
        config.partition,
        config.rounds,
        table.n_rows(),
        table.n_cols()
    );
    let mut trainer = GtvTrainer::new(shards, config);
    if let Some(path) = args.optional("load-weights") {
        let dict = gtv_nn::StateDict::load(path).map_err(|e| e.to_string())?;
        trainer.load_weights(&dict).map_err(|e| e.to_string())?;
        println!("loaded weights from {path} — skipping training");
    } else {
        if comms_stats && trainer.config().rounds > 1 {
            // One warm-up round, then reset the counters so the per-round
            // report covers only steady-state rounds.
            trainer.train_round().map_err(|e| e.to_string())?;
            trainer.network().reset_stats();
            for _ in 1..trainer.config().rounds {
                trainer.train_round().map_err(|e| e.to_string())?;
            }
        } else {
            trainer.train().map_err(|e| e.to_string())?;
        }
        if trainer.config().alloc_stats {
            print_alloc_stats(trainer.alloc_stats());
        }
        if comms_stats {
            print_comms_stats(&trainer.network_stats(), n_clients);
        }
    }
    if let Some(path) = args.optional("save-weights") {
        trainer.save_weights().save(path).map_err(|e| e.to_string())?;
        println!("saved weights to {path}");
    }
    let synthetic = trainer.synthesize(table.n_rows(), 1).map_err(|e| e.to_string())?;
    // Restore the input column order before writing.
    let order: Vec<usize> = groups.iter().flatten().copied().collect();
    let mut inverse = vec![0usize; order.len()];
    for (pos, &col) in order.iter().enumerate() {
        inverse[col] = pos;
    }
    let synthetic = synthetic.select_columns(&inverse);
    std::fs::write(out, to_csv_string(&synthetic)).map_err(|e| e.to_string())?;
    let report = similarity(&table, &synthetic);
    let stats = trainer.network_stats();
    println!("wrote {} synthetic rows to {out}", synthetic.n_rows());
    println!(
        "avg JSD {:.4} | avg WD {:.4} | diff corr {:.3}",
        report.avg_jsd, report.avg_wd, report.diff_corr
    );
    println!(
        "protocol traffic: {} messages, {:.1} MiB",
        stats.messages,
        stats.bytes as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), String> {
    let target = args.required("target").map_err(|e| e.to_string())?;
    let real = load_table(args.required("real").map_err(|e| e.to_string())?, Some(target))?;
    // Parse the synthetic file against the *real* schema: inferring it
    // independently would order categories by first occurrence (and pick
    // Mixed vs Continuous from the data), making the two schemas unequal.
    let synth_path = args.required("synth").map_err(|e| e.to_string())?;
    let synth_text =
        std::fs::read_to_string(synth_path).map_err(|e| format!("reading {synth_path}: {e}"))?;
    let synth = from_csv_string(&synth_text, real.schema()).map_err(|e| e.to_string())?;
    let seed = args.parsed_or("seed", 0u64).map_err(|e| e.to_string())?;
    let report = similarity(&real, &synth);
    println!("avg JSD   {:.4}", report.avg_jsd);
    println!("avg WD    {:.4}", report.avg_wd);
    println!("diff corr {:.3}", report.diff_corr);
    let (train, test) = real.train_test_split(0.2, seed);
    let diff = utility_difference(&train, &synth, &test, seed);
    println!("ML-utility difference vs real-trained models (lower is better):");
    println!("  Δaccuracy {:.3} | ΔF1 {:.3} | ΔAUC {:.3}", diff.accuracy, diff.f1, diff.auc);
    Ok(())
}

fn privacy(args: &Args) -> Result<(), String> {
    let table =
        load_table(args.required("input").map_err(|e| e.to_string())?, args.optional("target"))?;
    let n_clients = args.parsed_or("clients", 2usize).map_err(|e| e.to_string())?;
    let rounds = args.parsed_or("rounds", 100usize).map_err(|e| e.to_string())?;
    let groups = PartitionPlan::Even { n_clients }
        .column_groups(table.n_cols(), None, None)
        .map_err(|e| e.to_string())?;
    for shuffling in [false, true] {
        let config =
            GtvConfig { rounds, block_width: 64, embedding_dim: 32, ..GtvConfig::default() };
        let mut trainer = GtvTrainer::new(table.vertical_split(&groups), config);
        trainer.set_shuffling(shuffling);
        trainer.train().map_err(|e| e.to_string())?;
        let report = trainer.observer().reconstruction_accuracy(&trainer.column_truths());
        println!(
            "{} shuffling: server reconstruction accuracy {:.1}% over {} observed cells",
            if shuffling { "WITH   " } else { "WITHOUT" },
            report.accuracy * 100.0,
            report.observed_cells
        );
    }
    Ok(())
}

fn parse_party(spec: &str) -> Result<PartyId, String> {
    match spec {
        "server" => Ok(PartyId::Server),
        "public" => Ok(PartyId::Public),
        n => n
            .parse::<usize>()
            .map(PartyId::Client)
            .map_err(|_| format!("invalid party '{spec}' (use server, public, or a client index)")),
    }
}

/// Parses `--parties 0=127.0.0.1:7000,1=unix:/tmp/p1.sock` into a roster of
/// remote endpoints for [`SocketTransport::connect`].
fn parse_parties(spec: &str) -> Result<HashMap<PartyId, Endpoint>, String> {
    let mut endpoints = HashMap::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let (party, endpoint) = entry
            .split_once('=')
            .ok_or_else(|| format!("invalid --parties entry '{entry}' (use PARTY=ENDPOINT)"))?;
        if endpoints.insert(parse_party(party)?, Endpoint::parse(endpoint)).is_some() {
            return Err(format!("party '{party}' listed twice in --parties"));
        }
    }
    if endpoints.is_empty() {
        return Err("--parties must name at least one PARTY=ENDPOINT pair".to_string());
    }
    Ok(endpoints)
}

/// Runs one party's inbox daemon until the process is killed: the
/// distributed deployment's per-organization process.
fn serve_party(args: &Args) -> Result<(), String> {
    let party = parse_party(args.required("party").map_err(|e| e.to_string())?)?;
    let listen = Endpoint::parse(args.required("listen").map_err(|e| e.to_string())?);
    let node = PartyNode::bind(party, &listen).map_err(|e| e.to_string())?;
    println!("party {party} listening on {} (Ctrl-C to stop)", node.endpoint());
    node.serve().map_err(|e| e.to_string())
}

/// Orchestrates a training run whose parties are separate OS processes
/// (started with `serve-party`), reached over TCP or Unix-domain sockets.
fn serve_server(args: &Args) -> Result<(), String> {
    let input = args.required("input").map_err(|e| e.to_string())?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let endpoints = parse_parties(args.required("parties").map_err(|e| e.to_string())?)?;
    let table = load_table(input, args.optional("target"))?;
    let n_clients = args.parsed_or("clients", 2usize).map_err(|e| e.to_string())?;
    let config = build_config(args)?;
    let groups = PartitionPlan::Even { n_clients }
        .column_groups(table.n_cols(), None, None)
        .map_err(|e| e.to_string())?;
    let shards = table.vertical_split(&groups);
    println!("connecting to {} remote parties ({} clients total)…", endpoints.len(), n_clients);
    let transport = SocketTransport::connect(n_clients, endpoints).map_err(|e| e.to_string())?;
    println!(
        "training GTV over sockets (partition {}, {} rounds) on {} rows × {} cols…",
        config.partition,
        config.rounds,
        table.n_rows(),
        table.n_cols()
    );
    let mut trainer =
        GtvTrainer::with_transport(shards, config, transport).map_err(|e| e.to_string())?;
    trainer.train().map_err(|e| e.to_string())?;
    let synthetic = trainer.synthesize(table.n_rows(), 1).map_err(|e| e.to_string())?;
    let order: Vec<usize> = groups.iter().flatten().copied().collect();
    let mut inverse = vec![0usize; order.len()];
    for (pos, &col) in order.iter().enumerate() {
        inverse[col] = pos;
    }
    let synthetic = synthetic.select_columns(&inverse);
    std::fs::write(out, to_csv_string(&synthetic)).map_err(|e| e.to_string())?;
    let stats = trainer.network_stats();
    println!("wrote {} synthetic rows to {out}", synthetic.n_rows());
    println!(
        "protocol traffic: {} messages, {:.1} MiB",
        stats.messages,
        stats.bytes as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

/// Long-lived synthesis service: train (or load) a model once, warm its
/// buffer pool, then serve batched sampling requests over the serving wire
/// protocol (`ServeFrame` on length-delimited framing, DESIGN.md §14).
fn serve_synth(args: &Args) -> Result<(), String> {
    let input = args.required("input").map_err(|e| e.to_string())?;
    let listen = Endpoint::parse(args.required("listen").map_err(|e| e.to_string())?);
    let model = args.optional("model").unwrap_or("default").to_string();
    let table = load_table(input, args.optional("target"))?;
    let n_clients = args.parsed_or("clients", 2usize).map_err(|e| e.to_string())?;
    let config = build_config(args)?;
    let groups = PartitionPlan::Even { n_clients }
        .column_groups(table.n_cols(), None, None)
        .map_err(|e| e.to_string())?;
    let shards = table.vertical_split(&groups);
    let mut trainer = GtvTrainer::new(shards, config);
    if let Some(path) = args.optional("load-weights") {
        let dict = gtv_nn::StateDict::load(path).map_err(|e| e.to_string())?;
        trainer.load_weights(&dict).map_err(|e| e.to_string())?;
        println!("loaded weights from {path} — skipping training");
    } else {
        println!(
            "training GTV ({} clients, {} rounds) before serving…",
            n_clients,
            trainer.config().rounds
        );
        trainer.train().map_err(|e| e.to_string())?;
    }
    let synth = trainer.synthesizer().map_err(|e| e.to_string())?;

    // Steady-state serving runs entirely from recycled buffers; warming the
    // registry parks the first request's allocations up front.
    gtv_tensor::pool_mem::set_enabled(true);
    let mut registry = ModelRegistry::new();
    let parked = registry.insert_warm(&model, synth).map_err(|e| e.to_string())?;
    let serve_config = ServeConfig {
        queue_cap: args.parsed_or("queue-cap", 256usize).map_err(|e| e.to_string())?,
        max_batch_rows: args.parsed_or("max-batch-rows", 4096usize).map_err(|e| e.to_string())?,
        ..ServeConfig::default()
    };
    let service = std::sync::Arc::new(SynthService::new(registry, serve_config));
    let server = SynthServer::bind(service, &listen).map_err(|e| e.to_string())?;
    println!(
        "model '{model}' registered ({parked} buffers pre-warmed); serving on {} (Ctrl-C to stop)",
        server.endpoint()
    );
    let max_replies = match args.optional("max-replies") {
        Some(n) => Some(n.parse::<u64>().map_err(|e| format!("--max-replies: {e}"))?),
        None => None,
    };
    let replies = server.serve(max_replies).map_err(|e| e.to_string())?;
    let stats = server.service().stats();
    println!(
        "served {replies} replies: {} completed, {} busy-rejected, mean batch {:.1}, pool hit rate {:.3}",
        stats.completed,
        stats.rejected_busy,
        stats.mean_batch(),
        stats.pool_hit_rate()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_and_roster_specs_parse() {
        assert_eq!(parse_party("server").unwrap(), PartyId::Server);
        assert_eq!(parse_party("public").unwrap(), PartyId::Public);
        assert_eq!(parse_party("3").unwrap(), PartyId::Client(3));
        assert!(parse_party("client-3").is_err());
        let roster = parse_parties("0=127.0.0.1:7000,1=unix:/tmp/p1.sock").unwrap();
        assert_eq!(roster[&PartyId::Client(0)], Endpoint::Tcp("127.0.0.1:7000".to_string()));
        assert_eq!(
            roster[&PartyId::Client(1)],
            Endpoint::Unix(std::path::PathBuf::from("/tmp/p1.sock"))
        );
        assert!(parse_parties("").is_err());
        assert!(parse_parties("0=a:1,0=b:2").is_err());
        assert!(parse_parties("nope").is_err());
    }

    #[test]
    fn dataset_lookup() {
        assert!(dataset_by_name("loan").is_ok());
        assert!(dataset_by_name("nope").is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let argv: Vec<String> = vec!["frobnicate".into()];
        assert!(run(&argv).is_err());
    }

    #[test]
    fn demo_and_synth_roundtrip() {
        let dir = std::env::temp_dir().join("gtv_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let demo_path = dir.join("demo.csv");
        let synth_path = dir.join("synth.csv");
        let argv: Vec<String> =
            format!("demo --dataset loan --rows 120 --out {}", demo_path.display())
                .split_whitespace()
                .map(String::from)
                .collect();
        run(&argv).unwrap();
        let argv: Vec<String> = format!(
            "synth --input {} --target personal_loan --rounds 2 --batch 16 --width 32 \
             --alloc-stats true --sparse-wire true --comms-stats true --out {}",
            demo_path.display(),
            synth_path.display()
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        run(&argv).unwrap();
        let text = std::fs::read_to_string(&synth_path).unwrap();
        assert!(text.lines().count() > 100);
        // Header preserved in original column order.
        assert!(text.starts_with("age,experience,income"));
    }

    #[test]
    fn non_finite_input_cell_is_reported_not_trained_on() {
        // `NaN` parses as a number: before the CSV layer rejected it, this
        // input trained to the end on a NaN encoder without any error.
        let dir = std::env::temp_dir().join("gtv_cli_test_non_finite");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("input.csv");
        let mut text = String::from("x,label\n");
        for i in 0..40 {
            let x = if i == 7 { "NaN".to_string() } else { format!("{}.5", i % 9) };
            text.push_str(&format!("{x},{}\n", if i % 2 == 0 { "yes" } else { "no" }));
        }
        std::fs::write(&input, text).unwrap();
        for command in ["synth", "privacy"] {
            let argv: Vec<String> = format!(
                "{command} --input {} --target label --rounds 1 --out {}",
                input.display(),
                dir.join("out.csv").display()
            )
            .split_whitespace()
            .map(String::from)
            .collect();
            let err = run(&argv).unwrap_err();
            assert!(err.contains("line 9") && err.contains("non-finite"), "{command}: {err}");
        }
    }
}
