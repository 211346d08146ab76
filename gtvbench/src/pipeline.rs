//! One run of one workload: set-up, then for `--seconds` cycles of timed
//! training rounds, requests against the socket server and publications of
//! a synthetic table, then its evaluation — with every output checked.
//! Every layer is reached through its public functions only; nothing in the
//! repository is edited to measure it.

use crate::probes;
use crate::stats;
use crate::trace::{self, maybe_span, TracedTransport, Tracer};
use crate::workload::{Link, Workload};
use gtv::{CondSpec, Synthesizer, Transport, TransportError};
use gtv::{Endpoint, GtvTrainer, InProcTransport, PartyNode, SocketTransport, SynthSpec};
use gtv_data::{to_csv_string, ColumnData, Table};
use gtv_serve::WireCond;
use gtv_serve::{
    ModelRegistry, RowsRequest, ServeConfig, ServeConn, ServeError, SynthServer, SynthService,
};
use gtv_tensor::pool_mem;
use gtv_vfl::{PartitionPlan, PartyId, RoundStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry name of the served model.
pub const MODEL: &str = "bench";
/// The trained weights are fingerprinted after this many timed rounds, in
/// the traced and the untraced pass alike, so the two can be compared
/// although each runs as many rounds as its time allows.
const FINGERPRINT_AFTER: usize = 3;
/// At least this many rounds are timed, and bytes per round are averaged
/// over exactly the first this many. On the faithful real path a round's
/// bytes depend on which party was selected, so the average only repeats
/// for a seed over a fixed set of rounds, not over however many the time
/// allowed.
const MIN_TIMED_ROUNDS: usize = 20;
const SERVE_WARMUP_REQUESTS: usize = 50;
/// A publish-and-serve slice of a measured cycle is this many requests and
/// this many publications.
const REQUESTS_PER_CYCLE: usize = 25;
const PUBLICATIONS_PER_CYCLE: usize = 5;
const MIN_CYCLES: usize = 5;
/// How often the traced pass evaluates the published table, for the
/// evaluation's time; the untraced pass evaluates it once, as a check.
const EVALUATIONS: usize = 3;
/// In-process replays compared byte for byte with socket replies.
const REPLAYED_REPLIES: usize = 20;
/// Upper limit of the average Jensen–Shannon divergence between real and
/// synthetic categorical columns; an untrained generator sits above it.
const MAX_AVG_JSD: f64 = 0.35;
/// One-shot set-ups are repeated: at least this often, and cheap ones more
/// often, until the time below is spent. (A cheap set-up is mostly waiting
/// for the accept-loop poll ticks of the nodes it dials, up to 20 ms each,
/// so it takes many to settle.)
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_REPEAT_BUDGET: Duration = Duration::from_millis(2500);
/// Share of requests per class, and the rows each asks for.
const REQUEST_MIX: [(&str, usize, f64); 3] =
    [("n256", 256, 0.7), ("n16", 16, 0.2), ("n2048", 2048, 0.1)];

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Checks only, at a fiftieth of the size and the fewest operations.
    pub smoke: bool,
    /// Directory for Unix sockets; short and relative, because a socket
    /// path holds about a hundred bytes.
    pub run_dir: PathBuf,
}

impl Options {
    /// The least number of operations a section runs: `full` when
    /// measuring, `smoke` when only the checks are wanted.
    fn at_least(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What a run produced: metric values by name, operations attempted and
/// failed, and fingerprints that are printed but not gated.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprints: BTreeMap<String, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets an end-to-end metric and prints it with what it was read from.
    fn headline(&mut self, name: &str, value: f64, unit: &str, from: &str) {
        self.set(name, value);
        println!("  {name} = {value:.4} {unit} ({from})");
    }

    /// Counts one attempted operation or output check.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A failure that ends the run without a result.
pub type Fatal = String;

fn fatal(what: &str, e: impl std::fmt::Display) -> Fatal {
    format!("{what}: {e}")
}

fn enough_setups(done: usize, began: Instant) -> bool {
    done >= MIN_SETUPS && (done >= MAX_SETUPS || began.elapsed() >= SETUP_REPEAT_BUDGET)
}

pub struct Data {
    pub train: Table,
    pub test: Table,
    pub shards: Vec<Table>,
}

fn make_data(w: &Workload, seed: u64) -> Result<Data, Fatal> {
    let table = w.dataset.generate(w.train_rows * 5 / 4, seed);
    let (train, test) = table.train_test_split(0.2, seed);
    let groups = PartitionPlan::Even { n_clients: w.clients }
        .column_groups(train.n_cols(), None, None)
        .map_err(|e| fatal("column partition", e))?;
    // Even groups are contiguous, so the shards side by side are the table
    // again; the publication check and the evaluation rely on it.
    let shards = train.vertical_split(&groups);
    Ok(Data { train, test, shards })
}

/// The client parties of a socket workload, each a `PartyNode` on a thread
/// of its own. A node only runs while the orchestrator waits for its
/// answer, so the runnable threads stay within the two cores.
pub struct Fleet {
    nodes: Vec<Arc<PartyNode>>,
    handles: Vec<JoinHandle<Result<(), TransportError>>>,
}

impl Fleet {
    fn spawn(w: &Workload, dir: &Path) -> Result<(Self, HashMap<PartyId, Endpoint>), Fatal> {
        let mut fleet = Fleet { nodes: Vec::new(), handles: Vec::new() };
        let mut endpoints = HashMap::new();
        for i in 0..w.clients {
            let endpoint = match w.link {
                Link::Tcp => Endpoint::parse("127.0.0.1:0"),
                _ => Endpoint::Unix(dir.join(format!("party{i}.sock"))),
            };
            let node = PartyNode::bind(PartyId::Client(i), &endpoint)
                .map_err(|e| fatal("bind party node", e))?;
            let node = Arc::new(node);
            endpoints.insert(PartyId::Client(i), node.endpoint());
            let serving = Arc::clone(&node);
            fleet.handles.push(std::thread::spawn(move || serving.serve()));
            fleet.nodes.push(node);
        }
        Ok((fleet, endpoints))
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for node in &self.nodes {
            node.request_stop();
        }
        for handle in self.handles.drain(..) {
            if !matches!(handle.join(), Ok(Ok(()))) {
                eprintln!("gtvbench: a party node ended with an error");
            }
        }
    }
}

/// Binds and serves the party nodes of a socket workload and connects to
/// them (dial, version handshake).
pub fn open_sockets(w: &Workload, dir: &Path) -> Result<(Fleet, SocketTransport), Fatal> {
    let (fleet, endpoints) = Fleet::spawn(w, dir)?;
    let transport = SocketTransport::connect(w.clients, endpoints)
        .map_err(|e| fatal("connect to the party nodes", e))?;
    Ok((fleet, transport))
}

/// Runs `w` and returns its metrics, or the failure that stopped it.
pub fn run(w: &Workload, opts: &Options) -> Result<Outcome, Fatal> {
    std::fs::create_dir_all(&opts.run_dir).map_err(|e| fatal("create run directory", e))?;
    let tracer = opts.trace.then(Tracer::new);
    let result = maybe_span(tracer.as_ref(), "workload", w.name, || match w.link {
        Link::InProc => traced_or_plain(w, opts, tracer.as_ref(), || {
            Ok((None, InProcTransport::new(w.clients)))
        }),
        Link::Uds | Link::Tcp => traced_or_plain(w, opts, tracer.as_ref(), || {
            open_sockets(w, &opts.run_dir).map(|(fleet, transport)| (Some(fleet), transport))
        }),
    });
    if let (Some(tracer), Some(path)) = (&tracer, &opts.trace_out) {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| fatal("write trace", e))?;
    }
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    // The parent goes too, unless another run is using it.
    let _ = opts.run_dir.parent().map(std::fs::remove_dir);
    result
}

/// End-to-end figures come from the plain backend; the traced pass wraps
/// it, which is the only difference between the two.
fn traced_or_plain<T: Transport>(
    w: &Workload,
    opts: &Options,
    tracer: Option<&Rc<Tracer>>,
    open: impl Fn() -> Result<(Option<Fleet>, T), Fatal>,
) -> Result<Outcome, Fatal> {
    match tracer {
        None => phases(w, opts, None, open),
        Some(tracer) => phases(w, opts, Some(tracer), || {
            open().map(|(fleet, t)| (fleet, TracedTransport::new(t, Rc::clone(tracer))))
        }),
    }
}

fn phases<T: Transport>(
    w: &Workload,
    opts: &Options,
    tracer: Option<&Rc<Tracer>>,
    open: impl Fn() -> Result<(Option<Fleet>, T), Fatal>,
) -> Result<Outcome, Fatal> {
    let mut out = Outcome::default();
    let config = w.config(opts.seed);

    // ---- set-up: data, parties, connections, encoders, seed negotiation.
    println!("[{}] set-up", w.name);
    let repeat_setups = !opts.trace && !opts.smoke;
    let (mut total_s, mut generate_s, mut connect_s, mut new_s) = (vec![], vec![], vec![], vec![]);
    let began = Instant::now();
    let (data, mut trainer, _fleet) = loop {
        let built = maybe_span(tracer, "setup", "", || -> Result<_, Fatal> {
            let t0 = Instant::now();
            let data = maybe_span(tracer, "data.generate", "", || make_data(w, opts.seed))?;
            let t1 = Instant::now();
            let (fleet, transport) = maybe_span(tracer, "vfl.connect", "", &open)?;
            let t2 = Instant::now();
            let trainer = maybe_span(tracer, "core.trainer_new", "", || {
                GtvTrainer::with_transport(data.shards.clone(), config.clone(), transport)
            })
            .map_err(|e| fatal("seed negotiation", e))?;
            let t3 = Instant::now();
            generate_s.push((t1 - t0).as_secs_f64());
            connect_s.push((t2 - t1).as_secs_f64());
            new_s.push((t3 - t2).as_secs_f64());
            total_s.push((t3 - t0).as_secs_f64());
            Ok((data, trainer, fleet))
        });
        out.op(built.is_ok(), || "set-up failed".to_string());
        let built = built?;
        if !repeat_setups || enough_setups(total_s.len(), began) {
            break built;
        }
        // Connections close before the nodes they reach are stopped.
        let (_, trainer, fleet) = built;
        drop(trainer);
        drop(fleet);
    };
    let train_setup_s = stats::quantile(&total_s, stats::SETUP);
    out.set("data.generate_s", stats::median(&generate_s));
    out.set("vfl.connect_s", stats::median(&connect_s));
    out.set("core.trainer_new_s", stats::median(&new_s));

    // ---- warm-up: rounds, the server, a publication and requests.
    warm_up_rounds(w, &mut trainer, &mut out)?;
    // The served generator is the one of this moment. What a request costs
    // does not depend on how far the weights have come.
    let synth = trainer.synthesizer().map_err(|e| fatal("synthesizer", e))?;
    let (mut served, serve_setup_s) = stand_up_server(opts, &trainer, &mut out)?;
    let setups = format!(
        "lower quartile of {} train set-ups {train_setup_s:.4} + of the serve set-ups {serve_setup_s:.4}",
        total_s.len()
    );
    out.headline("setup_s", train_setup_s + serve_setup_s, "s", &setups);
    let mut stream = RequestStream::new(opts.seed, &synth, &data.shards);
    for _ in 0..opts.at_least(SERVE_WARMUP_REQUESTS, 2) {
        let reply = ask(&mut served, &stream.next());
        out.op(reply.is_ok(), || format!("warm-up request failed: {:?}", reply.as_ref().err()));
    }
    served.service.reset_stats();
    let cx = Ctx { w, opts, tracer };
    publish(Ctx { tracer: None, ..cx }, &trainer, &mut Taken::default(), &mut out)?;

    // ---- the measured cycles, then what they say.
    let columns = data.train.n_cols();
    let taken = measure(cx, columns, &mut trainer, &mut served, &mut stream, &mut out)?;
    report_training(w, tracer, &trainer, &taken, &mut out);
    report_serving(w, &taken, &served, &mut out);
    let synthetic = taken.published.as_ref().ok_or("nothing was published")?;
    evaluate(cx, &data, synthetic, &mut out)?;

    if opts.trace && !opts.smoke {
        println!("[{}] layer probes", w.name);
        let engine_p50 =
            probes::serve_engine(&served.service, opts.seed, &synth, &data.shards, &mut out);
        out.set("serve.wire.overhead_p50_ms", out.values["serve.conn.p50_ms.n256"] - engine_p50);
        let weights = trainer.save_weights().to_bytes().len() / 4;
        probes::run(w, &config, &data, &synth, weights, &opts.run_dir, &mut out)?;
    }
    served.shutdown();
    out.headline("peak_rss_mib", peak_rss_mib()?, "MiB", "VmHWM at exit");
    Ok(out)
}

/// What every part of a run is told: the workload, the options, and where
/// to record spans when tracing.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    w: &'a Workload,
    opts: &'a Options,
    tracer: Option<&'a Rc<Tracer>>,
}

/// The rounds run before the timed ones.
fn warm_up_rounds<T: Transport>(
    w: &Workload,
    trainer: &mut GtvTrainer<T>,
    out: &mut Outcome,
) -> Result<(), Fatal> {
    for _ in 0..w.warmup_rounds {
        let round = trainer.train_round();
        out.op(round.is_ok(), || "warm-up round failed".to_string());
        round.map_err(|e| fatal("warm-up round", e))?;
    }
    Ok(())
}

/// What the measured cycles gathered: one time per operation, the traffic
/// windows of the first rounds and the allocator counts of the training
/// slices.
#[derive(Default)]
struct Taken {
    round_s: Vec<f64>,
    /// Traffic window of each of the first [`MIN_TIMED_ROUNDS`] timed rounds,
    /// read as the round returned: a window stays open until the next round
    /// begins, so later it also holds the publications in between.
    windows: Vec<RoundStats>,
    /// Time spent in training slices and in publish-and-serve slices.
    train_s: f64,
    serve_s: f64,
    pool_hits: u64,
    pool_misses: u64,
    pool_bytes: u64,
    synth_s: Vec<f64>,
    latency_ms: BTreeMap<&'static str, Vec<f64>>,
    requests: usize,
    /// Replies kept for the in-process replay.
    kept: Vec<(Request, Vec<u8>)>,
    /// The latest published table; after the last cycle, the one that all
    /// the training went into.
    published: Option<Table>,
}

/// The measured part of a run, `--seconds` long: cycles of a training slice
/// and a publish-and-serve slice. Every kind of operation is so sampled
/// across the whole run, and a stretch in which the host is busy with a
/// neighbour covers a part of each kind's samples, not all of one kind's.
fn measure<T: Transport>(
    cx: Ctx,
    columns: usize,
    trainer: &mut GtvTrainer<T>,
    served: &mut Served,
    stream: &mut RequestStream,
    out: &mut Outcome,
) -> Result<Taken, Fatal> {
    let Ctx { w, opts, .. } = cx;
    println!("[{}] train, publish and serve in cycles for {:.1} s", w.name, opts.seconds);
    let mut taken = Taken::default();
    let (min_cycles, min_rounds) =
        (opts.at_least(MIN_CYCLES, 1), opts.at_least(MIN_TIMED_ROUNDS, FINGERPRINT_AFTER));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut cycles = 0;
    while cycles < min_cycles
        || taken.round_s.len() < min_rounds
        || (!opts.smoke && Instant::now() < deadline)
    {
        train_slice(cx, trainer, &mut taken, out)?;
        serve_slice(cx, columns, trainer, served, stream, &mut taken, out)?;
        cycles += 1;
    }
    println!(
        "  {cycles} cycles: {:.2} s in {} rounds, {:.2} s in {} requests and {} publications",
        taken.train_s,
        taken.round_s.len(),
        taken.serve_s,
        taken.requests,
        taken.synth_s.len()
    );
    Ok(taken)
}

/// At least one timed round, then as many as bring training up to the
/// workload's share of the measured time so far.
fn train_slice<T: Transport>(
    cx: Ctx,
    trainer: &mut GtvTrainer<T>,
    taken: &mut Taken,
    out: &mut Outcome,
) -> Result<(), Fatal> {
    let Ctx { w, tracer, .. } = cx;
    let began = Instant::now();
    let pool_before = pool_mem::stats();
    let mut rounds = 0;
    while rounds == 0
        || (taken.train_s + began.elapsed().as_secs_f64()) * (1.0 - w.train_share)
            < taken.serve_s * w.train_share
    {
        let t0 = Instant::now();
        let round = maybe_span(tracer, trace::ROUND, "", || trainer.train_round());
        taken.round_s.push(t0.elapsed().as_secs_f64());
        out.op(round.is_ok(), || format!("round {} failed", taken.round_s.len()));
        round.map_err(|e| fatal("training round", e))?;
        rounds += 1;
        if taken.windows.len() < MIN_TIMED_ROUNDS {
            taken.windows.extend(trainer.network_stats().rounds.pop());
        }
        if taken.round_s.len() == FINGERPRINT_AFTER {
            let fp = fnv64(&trainer.save_weights().to_bytes());
            out.fingerprints.insert("weights_fnv64".to_string(), format!("{fp:016x}"));
        }
    }
    let pool_after = pool_mem::stats();
    taken.pool_hits += pool_after.hits - pool_before.hits;
    taken.pool_misses += pool_after.misses - pool_before.misses;
    taken.pool_bytes += pool_after.bytes_requested - pool_before.bytes_requested;
    taken.train_s += began.elapsed().as_secs_f64();
    Ok(())
}

/// One publication of `w.synth_rows` rows through the parties; returns its
/// time and keeps the table.
fn publish<T: Transport>(
    cx: Ctx,
    trainer: &GtvTrainer<T>,
    taken: &mut Taken,
    out: &mut Outcome,
) -> Result<f64, Fatal> {
    let Ctx { w, opts, tracer } = cx;
    let seed = opts.seed.wrapping_add(1 + taken.synth_s.len() as u64);
    let t0 = Instant::now();
    let table =
        maybe_span(tracer, "core.synthesize", "", || trainer.synthesize(w.synth_rows, seed));
    let took = t0.elapsed().as_secs_f64();
    let rows = table.as_ref().map_or(0, Table::n_rows);
    out.op(rows == w.synth_rows, || format!("a publication has {rows} rows"));
    taken.published = Some(table.map_err(|e| fatal("synthesize", e))?);
    Ok(took)
}

fn ask(served: &mut Served, req: &Request) -> Result<Vec<u8>, ServeError> {
    let cond = req.cond.map(|c| WireCond {
        client: c.client as u64,
        column: c.column as u64,
        category: c.category as u64,
    });
    served.conn.synth(MODEL, req.n as u64, req.seed, cond, None)
}

/// [`REQUESTS_PER_CYCLE`] closed-loop requests over the socket, every reply
/// checked, then [`PUBLICATIONS_PER_CYCLE`] publications.
fn serve_slice<T: Transport>(
    cx: Ctx,
    columns: usize,
    trainer: &GtvTrainer<T>,
    served: &mut Served,
    stream: &mut RequestStream,
    taken: &mut Taken,
    out: &mut Outcome,
) -> Result<(), Fatal> {
    let Ctx { opts, tracer, .. } = cx;
    let began = Instant::now();
    for _ in 0..opts.at_least(REQUESTS_PER_CYCLE, 12) {
        let req = stream.next();
        let t0 = Instant::now();
        let reply = maybe_span(tracer, "serve.conn.synth", req.class(), || ask(served, &req));
        taken.latency_ms.entry(req.class()).or_default().push(t0.elapsed().as_secs_f64() * 1e3);
        let problem = match &reply {
            Ok(csv) => csv_problem(csv, req.n, columns),
            Err(e) => Some(e.to_string()),
        };
        out.op(problem.is_none(), || {
            format!("request {}: {}", req.seed, problem.unwrap_or_default())
        });
        if out.failed > 10 {
            return Err("more than ten failed operations; giving up".to_string());
        }
        taken.requests += 1;
        let keep = taken.requests % 7 == 1 && taken.kept.len() < REPLAYED_REPLIES;
        if let (Ok(csv), true) = (reply, keep) {
            taken.kept.push((req, csv));
        }
    }
    for _ in 0..opts.at_least(PUBLICATIONS_PER_CYCLE, 1) {
        let took = publish(cx, trainer, taken, out)?;
        taken.synth_s.push(took);
    }
    taken.serve_s += began.elapsed().as_secs_f64();
    Ok(())
}

/// `min / p05 / p25 / p50 / p90` of `values`, for the reader of a run.
fn quantile_line(values: &[f64], scale: f64) -> String {
    let q = |q: f64| stats::quantile(values, q) * scale;
    format!(
        "min {:.4}, p05 {:.4}, p25 {:.4}, p50 {:.4}, p90 {:.4}",
        q(0.0),
        q(0.05),
        q(0.25),
        q(0.50),
        q(0.90)
    )
}

/// Training figures of the measured cycles, and the checks on the rounds.
fn report_training<T: Transport>(
    w: &Workload,
    tracer: Option<&Rc<Tracer>>,
    trainer: &GtvTrainer<T>,
    taken: &Taken,
    out: &mut Outcome,
) {
    let timed = taken.round_s.len();
    let net = trainer.network_stats();
    let history = trainer.history();
    let end_fp = fnv64(&trainer.save_weights().to_bytes());
    out.fingerprints.insert("weights_fnv64_end".to_string(), format!("{end_fp:016x}@{timed}"));
    out.fingerprints.insert("d_loss_last".to_string(), format!("{:?}", history.d_loss.last()));
    out.fingerprints.insert("g_loss_last".to_string(), format!("{:?}", history.g_loss.last()));
    out.op(history.d_loss.iter().chain(&history.g_loss).all(|l| l.is_finite()), || {
        "a training loss is not finite".to_string()
    });
    out.op(net.rounds.len() == w.warmup_rounds + timed, || {
        format!("{} round windows for {} rounds", net.rounds.len(), w.warmup_rounds + timed)
    });
    let windows = &taken.windows;
    let per_round = |f: &dyn Fn(&RoundStats) -> u64| {
        windows.iter().map(f).sum::<u64>() as f64 / windows.len().max(1) as f64
    };
    println!("  round ms: {}", quantile_line(&taken.round_s, 1e3));
    let rounds_per_s = 1.0 / stats::quantile(&taken.round_s, stats::FAST);
    out.headline(
        "train_rounds_per_s",
        rounds_per_s,
        "rounds/s",
        &format!("fast quantile of {timed} rounds"),
    );
    out.set("core.train_rounds_per_s", rounds_per_s);
    out.headline(
        "train_bytes_per_round",
        per_round(&|r| r.bytes),
        "bytes",
        &format!("{} rounds", windows.len()),
    );

    // Counts over the training slices, taken where the work happens.
    let n = timed as f64;
    let (hits, misses) = (taken.pool_hits, taken.pool_misses);
    out.set("tensor.pool_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    out.set("tensor.pool_misses_per_round", misses as f64 / n);
    out.set("tensor.pool_bytes_per_round", taken.pool_bytes as f64 / n);
    out.set("vfl.transport.msgs_per_round", per_round(&|r| r.messages));
    out.set(
        "vfl.transport.server_bytes_per_round",
        per_round(&|r| {
            r.per_link
                .iter()
                .filter(|((from, to), _)| *from == PartyId::Server || *to == PartyId::Server)
                .map(|(_, &(_, bytes))| bytes)
                .sum()
        }),
    );
    out.set("core.train_round.p50_ms", stats::quantile(&taken.round_s, 0.50) * 1e3);
    out.set("core.train_round.p90_ms", stats::quantile(&taken.round_s, 0.90) * 1e3);
    if let Some(tracer) = tracer {
        round_table(&tracer.spans(), out);
    }
}

/// Per-round split from the traced pass: d-step / g-step / tail against
/// compute / send / recv. Both splits must sum to the round's wall.
fn round_table(spans: &[trace::Span], out: &mut Outcome) {
    let splits = trace::round_splits(spans);
    let ms = |f: fn(&trace::RoundSplit) -> u64| trace::median_ms(&splits, f);
    out.set("vfl.transport.send_ms_per_round", ms(|s| s.send));
    out.set("vfl.transport.recv_ms_per_round", ms(|s| s.recv));
    out.set("core.compute_ms_per_round", ms(|s| s.compute));
    out.set("core.d_step_ms", ms(|s| s.d_step));
    out.set("core.g_step_ms", ms(|s| s.g_step));
    out.set("core.round_tail_ms", ms(|s| s.tail));
    let (wall, transport) =
        splits.iter().fold((0u64, 0u64), |(w, t), s| (w + s.wall, t + s.send + s.recv));
    out.set("vfl.transport.share", transport as f64 / wall.max(1) as f64);
    let exact = splits
        .iter()
        .all(|s| s.d_step + s.g_step + s.tail == s.wall && s.compute + s.send + s.recv == s.wall);
    out.op(exact, || "a traced round's parts do not sum to its wall".to_string());
    println!(
        "  round split, median ms over {} rounds (rows sum to the step, columns to the kind):",
        splits.len()
    );
    println!("    {:<8}{:>12}{:>12}{:>12}{:>12}", "", "compute", "send", "recv", "wall");
    for (step, label) in ["d-step", "g-step", "tail"].iter().enumerate() {
        let cell = |kind: usize| {
            stats::median(
                &splits.iter().map(|s| s.table[step][kind] as f64 / 1e6).collect::<Vec<_>>(),
            )
        };
        let wall = [ms(|s| s.d_step), ms(|s| s.g_step), ms(|s| s.tail)][step];
        println!("    {label:<8}{:>12.4}{:>12.4}{:>12.4}{wall:>12.4}", cell(0), cell(1), cell(2));
    }
    println!(
        "    {:<8}{:>12.4}{:>12.4}{:>12.4}{:>12.4}",
        "round",
        ms(|s| s.compute),
        ms(|s| s.send),
        ms(|s| s.recv),
        ms(|s| s.wall)
    );
}

/// Why `synthetic` is not a publishable table of `rows` rows with the real
/// schema, every category code in range and every number finite.
fn table_problem(synthetic: &Table, real: &Table, rows: usize) -> Option<String> {
    if synthetic.n_rows() != rows {
        return Some(format!("{} rows, {rows} requested", synthetic.n_rows()));
    }
    if synthetic.schema() != real.schema() {
        return Some("schema differs from the real table's".to_string());
    }
    for (i, meta) in synthetic.schema().columns().iter().enumerate() {
        let ok = match (synthetic.column(i), meta.kind.n_categories()) {
            (ColumnData::Cat(codes), Some(n)) => codes.iter().all(|&c| (c as usize) < n),
            (ColumnData::Float(values), None) => values.iter().all(|v| v.is_finite()),
            _ => false,
        };
        if !ok {
            return Some(format!("column '{}' holds a value outside its kind", meta.name));
        }
    }
    None
}

/// The socket server on a thread of its own, as `serve-synth` runs it: the
/// warmed registry, the engine and the listener all live on that thread.
struct Served {
    conn: ServeConn,
    service: Arc<SynthService>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    insert_warm_s: f64,
}

impl Served {
    fn start(synth: Synthesizer, path: PathBuf) -> Result<Self, Fatal> {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let ready = (|| {
                let mut registry = ModelRegistry::new();
                let began = Instant::now();
                registry.insert_warm(MODEL, synth).map_err(|e| fatal("insert_warm", e))?;
                let insert_warm_s = began.elapsed().as_secs_f64();
                let service = Arc::new(SynthService::new(registry, ServeConfig::default()));
                let server = SynthServer::bind(Arc::clone(&service), &Endpoint::Unix(path))
                    .map_err(|e| fatal("bind serve socket", e))?;
                Ok::<_, Fatal>((server, service, insert_warm_s))
            })();
            match ready {
                Ok((server, service, insert_warm_s)) => {
                    let _ = tx.send(Ok((
                        server.endpoint(),
                        service,
                        server.stop_flag(),
                        insert_warm_s,
                    )));
                    if let Err(e) = server.serve(None) {
                        eprintln!("gtvbench: synthesis server stopped: {e}");
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                }
            }
        });
        let (endpoint, service, stop, insert_warm_s) =
            rx.recv().map_err(|e| fatal("synthesis server thread", e))??;
        let conn = ServeConn::connect(&endpoint).map_err(|e| fatal("connect to the server", e))?;
        Ok(Self { conn, service, stop, handle, insert_warm_s })
    }

    fn shutdown(self) {
        drop(self.conn);
        self.stop.store(true, Ordering::SeqCst);
        if self.handle.join().is_err() {
            eprintln!("gtvbench: the synthesis server thread panicked");
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub n: usize,
    pub seed: u64,
    pub cond: Option<CondSpec>,
}

impl Request {
    pub fn class(&self) -> &'static str {
        match self.n {
            16 => "n16",
            256 => "n256",
            _ => "n2048",
        }
    }

    pub fn rows_request(&self) -> RowsRequest {
        RowsRequest {
            model: MODEL.to_string(),
            spec: SynthSpec { n: self.n, seed: self.seed, cond: self.cond },
            deadline_ticks: None,
        }
    }
}

/// The request mix, a function of the seed alone: 70% ask for 256 rows,
/// 20% for 16 and 10% for 2048; two in five pin a category of the first
/// categorical column; every request has a seed of its own.
pub struct RequestStream {
    rng: StdRng,
    next_seed: u64,
    cond_column: Option<(usize, usize, usize)>,
}

impl RequestStream {
    pub fn new(seed: u64, synth: &Synthesizer, shards: &[Table]) -> Self {
        let cond_column = synth.first_categorical().and_then(|(client, column)| {
            let kind = &shards[client].schema().column(column).kind;
            kind.n_categories().map(|n| (client, column, n))
        });
        Self { rng: StdRng::seed_from_u64(seed ^ 0x5e7e_5e7e), next_seed: seed << 20, cond_column }
    }

    pub fn next(&mut self) -> Request {
        let n = match self.rng.gen_range(0..10) {
            0..=6 => 256,
            7..=8 => 16,
            _ => 2048,
        };
        let cond = match self.cond_column {
            Some((client, column, categories)) if self.rng.gen_range(0..5) < 2 => {
                Some(CondSpec { client, column, category: self.rng.gen_range(0..categories) })
            }
            _ => None,
        };
        self.next_seed += 1;
        Request { n, seed: self.next_seed, cond }
    }
}

/// Stands the socket server up as `serve-synth` runs it, several times for
/// the set-up figure, and returns the last one with the set-up time. One
/// closed-loop connection is the load it can take: it drains one connection
/// at a time. The client waits while the server works, so one thread is
/// runnable.
fn stand_up_server<T: Transport>(
    opts: &Options,
    trainer: &GtvTrainer<T>,
    out: &mut Outcome,
) -> Result<(Served, f64), Fatal> {
    let socket = opts.run_dir.join("serve.sock");
    let mut setup_s = Vec::new();
    let began = Instant::now();
    let served = loop {
        let t0 = Instant::now();
        let fresh = trainer.synthesizer().map_err(|e| fatal("synthesizer", e))?;
        let served = Served::start(fresh, socket.clone())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        if opts.trace || opts.smoke || enough_setups(setup_s.len(), began) {
            break served;
        }
        served.shutdown();
    };
    out.set("serve.registry.insert_warm_s", served.insert_warm_s);
    Ok((served, stats::quantile(&setup_s, stats::SETUP)))
}

/// Publication and serving figures of the measured cycles.
fn report_serving(w: &Workload, taken: &Taken, served: &Served, out: &mut Outcome) {
    let fast = |v: &[f64]| stats::quantile(v, stats::FAST);
    println!("  publication ms: {}", quantile_line(&taken.synth_s, 1e3));
    out.headline(
        "synth_rows_per_s",
        w.synth_rows as f64 / fast(&taken.synth_s),
        "rows/s",
        &format!("fast quantile of {} publications", taken.synth_s.len()),
    );

    // Rows per second of the nominal request mix at each class's fast
    // latency, so that neither a disturbed stretch nor the classes a short
    // run happened to draw move it. (A class can only go unseen in the
    // few requests of a smoke pass.)
    let class_ms = |class: &str| taken.latency_ms.get(class).map_or(&[][..], Vec::as_slice);
    let (mut mix_rows, mut mix_ms) = (0.0, 0.0);
    for (class, n, share) in REQUEST_MIX {
        if !class_ms(class).is_empty() {
            mix_rows += share * n as f64;
            mix_ms += share * fast(class_ms(class));
            out.set(&format!("serve.conn.p50_ms.{class}"), stats::quantile(class_ms(class), 0.50));
        }
    }
    let from = format!("{} requests, request mix at each class's fast quantile", taken.requests);
    out.headline("serve_rows_per_s", mix_rows / (mix_ms / 1e3), "rows/s", &from);
    let n256 = class_ms("n256");
    println!("  256-row request ms: {}", quantile_line(n256, 1.0));
    out.headline("serve_p05_ms", fast(n256), "ms", &format!("{} requests of 256 rows", n256.len()));
    for (name, q) in [("serve.conn.p90_ms", 0.90), ("serve.conn.p99_ms", 0.99)] {
        out.set(name, stats::quantile(n256, q));
        let beyond = (n256.len() as f64 * (1.0 - q)).floor();
        let verdict = if stats::tail_supported(n256.len(), q) {
            "supported"
        } else {
            "too few: not a percentile yet"
        };
        println!(
            "  {name} = {:.4} ms ({} samples, {beyond} beyond; {verdict})",
            out.values[name],
            n256.len()
        );
    }
    let engine = served.service.stats();
    out.set("serve.engine.mean_batch", engine.mean_batch());
    out.set("serve.engine.pool_hit_rate", engine.pool_hit_rate());
    out.set("serve.engine.busy_rejects", engine.rejected_busy as f64);

    // A reply is a function of (model, cond, n, seed) alone: the same spec
    // through the in-process engine must give the same bytes.
    for (req, csv) in &taken.kept {
        let replay = served.service.request(&req.rows_request());
        let same = replay.as_ref().is_ok_and(|t| to_csv_string(t).as_bytes() == csv.as_slice());
        out.op(same, || format!("reply to seed {} differs from the in-process engine's", req.seed));
    }
}

/// Checks the last published table, the one all the training went into, and
/// evaluates it: `similarity` + `utility_difference` on real-train /
/// synthetic / real-test. The time is a per-layer figure only, so one
/// evaluation does unless tracing.
fn evaluate(cx: Ctx, data: &Data, synthetic: &Table, out: &mut Outcome) -> Result<(), Fatal> {
    let Ctx { w, opts, tracer } = cx;
    let problem = table_problem(synthetic, &data.train, w.synth_rows);
    out.op(problem.is_none(), || format!("synthetic table: {}", problem.unwrap_or_default()));
    let head = |t: &Table, n: usize| t.select_rows(&(0..n.min(t.n_rows())).collect::<Vec<_>>());
    let (real, fake) = (head(&data.train, w.eval_rows), head(synthetic, w.eval_rows));
    let test = head(&data.test, w.eval_rows / 4);
    let (mut sim_s, mut util_s) = (vec![], vec![]);
    let mut quality = None;
    for _ in 0..if opts.trace && !opts.smoke { EVALUATIONS } else { 1 } {
        let t0 = Instant::now();
        let (sim, t1, util) = maybe_span(tracer, "evaluate", "", || {
            let sim = maybe_span(tracer, "metrics.similarity", "", || {
                gtv_metrics::similarity(&real, &fake)
            });
            let t1 = Instant::now();
            let util = maybe_span(tracer, "ml.utility_difference", "", || {
                gtv_ml::utility_difference(&real, &fake, &test, opts.seed)
            });
            (sim, t1, util)
        });
        sim_s.push((t1 - t0).as_secs_f64());
        util_s.push(t1.elapsed().as_secs_f64());
        out.attempted += 1;
        quality = Some((sim, util));
    }
    let fast = |v: &[f64]| stats::quantile(v, stats::FAST);
    out.set("metrics.similarity_s", fast(&sim_s));
    out.set("ml.utility_difference_s", fast(&util_s));
    println!("  evaluation: fastest of {} took {:.4} s", sim_s.len(), fast(&sim_s) + fast(&util_s));
    let (sim, util) = quality.ok_or("no evaluation")?;
    out.op(sim.avg_jsd <= MAX_AVG_JSD, || format!("avg_jsd {} above {MAX_AVG_JSD}", sim.avg_jsd));
    for (name, value) in [
        ("avg_jsd", sim.avg_jsd),
        ("avg_wd", sim.avg_wd),
        ("diff_corr", sim.diff_corr),
        ("utility_f1_diff", util.f1),
    ] {
        out.fingerprints.insert(name.to_string(), format!("{value}"));
    }
    Ok(())
}

/// Why `csv` is not a header plus `rows` lines of `columns` cells.
fn csv_problem(csv: &[u8], rows: usize, columns: usize) -> Option<String> {
    let mut lines = 0;
    for line in csv.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let cells = 1 + line.iter().filter(|&&b| b == b',').count();
        if cells != columns {
            return Some(format!(
                "line {} has {cells} cells, the model {columns} columns",
                lines + 1
            ));
        }
        lines += 1;
    }
    (lines != rows + 1).then(|| format!("{} data lines for {rows} rows", lines.max(1) - 1))
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `VmHWM`, the most memory this process ever held.
fn peak_rss_mib() -> Result<f64, Fatal> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| fatal("/proc/self/status", e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_reference_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn csv_check_counts_lines_and_cells() {
        assert_eq!(csv_problem(b"a,b\n1,2\n3,4\n", 2, 2), None);
        assert!(csv_problem(b"a,b\n1,2\n", 2, 2).is_some());
        assert!(csv_problem(b"a,b\n1,2,3\n3,4\n", 2, 2).is_some());
        assert!(csv_problem(b"", 1, 2).is_some());
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().expect("linux procfs") > 1.0);
    }
}
