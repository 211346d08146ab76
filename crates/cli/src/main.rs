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
                   [--save-weights FILE] [--load-weights FILE] [--comms-stats true]
  gtv-cli evaluate --real FILE --synth FILE --target COL [--seed S]
  gtv-cli privacy  --input FILE [--target COL] [--rounds R] [--clients N]
  gtv-cli serve-party  --party <server|public|CLIENT_IDX> --listen <host:port|unix:PATH>
  gtv-cli serve-server --input FILE --parties IDX=ENDPOINT[,IDX=ENDPOINT…] --out FILE
                       [--target COL] [--clients N] [--rounds R] [--batch B] [--width W]
                       [--partition d2g0|d2g2] [--seed S] [--threads T]
  gtv-cli serve-synth  --input FILE --listen <host:port|unix:PATH> [--model NAME]
                       [--load-weights FILE] [--target COL] [--clients N] [--rounds R]
                       [--batch B] [--width W] [--partition d2g0|d2g2] [--seed S]
                       [--threads T] [--queue-cap N] [--max-batch-rows N] [--max-replies N]
";

/// The flags [`build_config`] reads, accepted by every subcommand that trains.
const CONFIG_FLAGS: &[&str] = &["rounds", "batch", "width", "partition", "seed", "threads"];

type Command = fn(&Args) -> Result<(), String>;

/// A subcommand's handler and the flags it reads — exactly those `USAGE`
/// lists for it.
fn command(name: &str) -> Option<(Command, &'static [&'static [&'static str]])> {
    let found: (Command, &[&[&str]]) = match name {
        "demo" => (demo, &[&["dataset", "rows", "seed", "out"]]),
        "synth" => (
            synth,
            &[
                CONFIG_FLAGS,
                &["input", "out", "target", "clients", "save-weights", "load-weights"],
                &["comms-stats"],
            ],
        ),
        "evaluate" => (evaluate, &[&["real", "synth", "target", "seed"]]),
        "privacy" => (privacy, &[&["input", "target", "rounds", "clients"]]),
        "serve-party" => (serve_party, &[&["party", "listen"]]),
        "serve-server" => {
            (serve_server, &[CONFIG_FLAGS, &["input", "parties", "out", "target", "clients"]])
        }
        "serve-synth" => (
            serve_synth,
            &[
                CONFIG_FLAGS,
                &["input", "listen", "model", "load-weights", "target", "clients"],
                &["queue-cap", "max-batch-rows", "max-replies"],
            ],
        ),
        _ => return None,
    };
    Some(found)
}

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
    let (handler, accepted) = command(args.command())
        .ok_or_else(|| format!("unknown subcommand '{}'", args.command()))?;
    args.reject_unknown(accepted).map_err(|e| e.to_string())?;
    handler(&args)
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
        ..GtvConfig::default()
    })
}

/// The buffer pools' behaviour in the last training round (DESIGN.md §9):
/// graph nodes of its last step, allocator misses per step after its first
/// step, and the hit rate and bytes requested since the process started,
/// then the byte pool's (wire frames' and matmul row flags') hits and misses
/// since the start.
fn pool_line(stats: &[gtv::StepAllocStats]) -> String {
    let (Some(first), Some(last)) = (stats.first(), stats.last()) else {
        return "pool: no training steps".to_string();
    };
    let requests = last.pool_hits + last.pool_misses;
    let hit_rate = if requests == 0 { 0.0 } else { last.pool_hits as f64 / requests as f64 };
    let warm_steps = (stats.len() - 1).max(1) as f64;
    format!(
        "pool: last round {} steps, {} graph nodes at its end, {:.1} allocator misses/step \
         after its first | since start: hit rate {:.3}, {:.1} MiB requested | byte pool: {} hits, \
         {} misses",
        stats.len(),
        last.live_nodes,
        (last.pool_misses - first.pool_misses) as f64 / warm_steps,
        hit_rate,
        last.bytes_requested as f64 / (1024.0 * 1024.0),
        last.byte_hits,
        last.byte_misses
    )
}

/// The per-round, per-party traffic windows recorded during training
/// (`--comms-stats true`): round totals for the first few measured rounds,
/// then per-party averages over all of them (DESIGN.md §10).
fn comms_stats_text(stats: &gtv_vfl::NetStats, n_clients: usize, warm_up_excluded: bool) -> String {
    use std::fmt::Write;
    if stats.rounds.is_empty() {
        return "comms stats: no rounds recorded\n".to_string();
    }
    let mut out = String::new();
    let shown = stats.rounds.len().min(8);
    let warm_up = if warm_up_excluded { "excluded" } else { "included" };
    let _ =
        writeln!(out, "comms stats ({} measured rounds, warm-up {warm_up}):", stats.rounds.len());
    for r in &stats.rounds[..shown] {
        let _ = write!(out, "  round {:>4}: {} msgs / {} B |", r.round, r.messages, r.bytes);
        let (sm, sb) = r.sent_by(PartyId::Server);
        let _ = write!(out, " server sent {sm}/{sb} B |");
        for i in 0..n_clients {
            let (cm, cb) = r.sent_by(PartyId::Client(i));
            let _ = write!(out, " client{i} sent {cm}/{cb} B |");
        }
        out.push('\n');
    }
    if stats.rounds.len() > shown {
        let _ = writeln!(out, "  … {} more rounds", stats.rounds.len() - shown);
    }
    let rounds = stats.rounds.len() as f64;
    let mut parties = vec![PartyId::Server];
    parties.extend((0..n_clients).map(PartyId::Client));
    out.push_str("  per-round averages:\n");
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
        let _ = writeln!(
            out,
            "    {p}: sent {:.1} msgs / {:.0} B, received {:.1} msgs / {:.0} B",
            sm as f64 / rounds,
            sb as f64 / rounds,
            rm as f64 / rounds,
            rb as f64 / rounds
        );
    }
    out
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
        let warm_up_excluded = comms_stats && trainer.config().rounds > 1;
        if warm_up_excluded {
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
        println!("{}", pool_line(trainer.alloc_stats()));
        if comms_stats {
            print!("{}", comms_stats_text(&trainer.network_stats(), n_clients, warm_up_excluded));
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

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&argv("frobnicate")).is_err());
    }

    #[test]
    fn unknown_and_repeated_flags_are_errors() {
        // Flags are checked before the subcommand reads any file.
        for (line, expected) in [
            ("synth --pipelined false", "unknown flag --pipelined for 'synth'"),
            ("synth --alloc-stats true", "unknown flag --alloc-stats for 'synth'"),
            ("synth --sparse-wire true", "unknown flag --sparse-wire for 'synth'"),
            ("serve-server --sparse-wire true", "unknown flag --sparse-wire for 'serve-server'"),
            ("synth --round 5 --out y.csv", "unknown flag --round for 'synth'"),
            ("privacy --input x.csv --out y.csv", "unknown flag --out for 'privacy'"),
            ("synth --input x.csv --rounds 2 --rounds 3", "flag --rounds given more than once"),
        ] {
            assert_eq!(run(&argv(line)).unwrap_err(), expected, "{line}");
        }
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        // Each `gtv-cli <command>` line of USAGE with its continuation lines.
        let mut listed: Vec<(&str, std::collections::BTreeSet<&str>)> = Vec::new();
        for line in USAGE.lines().skip_while(|l| !l.starts_with("USAGE:")).skip(1) {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"gtv-cli") {
                let name = words.nth(1).expect("a subcommand follows gtv-cli");
                listed.push((name, Default::default()));
            }
            let flags = &mut listed.last_mut().expect("USAGE opens with a command").1;
            for word in line.split_whitespace() {
                if let Some(flag) = word.trim_start_matches('[').strip_prefix("--") {
                    flags.insert(flag.trim_end_matches(']'));
                }
            }
        }
        assert_eq!(listed.len(), 7);
        for (name, flags) in listed {
            let (_, accepted) = command(name).expect("USAGE names a known subcommand");
            let accepted: std::collections::BTreeSet<&str> =
                accepted.iter().flat_map(|group| group.iter().copied()).collect();
            assert_eq!(flags, accepted, "{name}");
            // So every listed flag gets past the check.
            let line: String = flags.iter().map(|f| format!(" --{f} x")).collect();
            let args = Args::parse(&argv(&format!("{name}{line}"))).unwrap();
            assert!(args.reject_unknown(command(name).unwrap().1).is_ok(), "{name}");
        }
    }

    #[test]
    fn comms_stats_header_says_whether_the_warm_up_was_excluded() {
        let table = Dataset::Loan.generate(60, 0);
        let n = table.n_cols();
        let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer.train_round().unwrap();
        let stats = trainer.network_stats();
        let included = comms_stats_text(&stats, 2, false);
        assert!(included.starts_with("comms stats (1 measured rounds, warm-up included):\n"));
        let excluded = comms_stats_text(&stats, 2, true);
        assert!(excluded.starts_with("comms stats (1 measured rounds, warm-up excluded):\n"));
    }

    #[test]
    fn demo_and_synth_roundtrip() {
        let dir = std::env::temp_dir().join("gtv_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let demo_path = dir.join("demo.csv");
        run(&argv(&format!("demo --dataset loan --rows 120 --out {}", demo_path.display())))
            .unwrap();
        let synth_path = dir.join("synth.csv");
        run(&argv(&format!(
            "synth --input {} --target personal_loan --rounds 2 --batch 16 --width 32 \
             --comms-stats true --out {}",
            demo_path.display(),
            synth_path.display()
        )))
        .unwrap();
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
        let out = format!("--out {}", dir.join("out.csv").display());
        for (command, out) in [("synth", out.as_str()), ("privacy", "")] {
            let line =
                format!("{command} --input {} --target label --rounds 1 {out}", input.display());
            let err = run(&argv(&line)).unwrap_err();
            assert!(err.contains("line 9") && err.contains("non-finite"), "{command}: {err}");
        }
    }
}
