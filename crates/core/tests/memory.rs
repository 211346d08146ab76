//! Step-scoped memory regression tests (DESIGN.md §9): a long training run
//! must not leak graph nodes or pool bytes — a warm round gives back exactly
//! what it takes — and a warm recycling pool must cut per-step allocator
//! traffic by well over five-fold; a whole-table upload of the faithful real
//! path must be written once, into a frame that cycles through the pool.
//!
//! The first three tests use continuous-only tables so every training step
//! builds a structurally identical graph (no conditional-vector subgraphs
//! whose shape depends on sampled categories); the fourth compares the two
//! real paths on the same categorical data, whose sampled conditions are the
//! same on both. All run single-threaded so the thread-local pool counters
//! are exact, and serialize on a mutex so they cannot observe each other's
//! pool configuration. The trainer keeps only its latest round's step
//! snapshots, so the tests collect them after every round.

use gtv::{GtvConfig, GtvTrainer, StepAllocStats};
use gtv_data::{ColumnData, ColumnKind, ColumnMeta, Schema, Table};
use gtv_tensor::pool_mem;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Two row-aligned continuous-only client tables.
fn continuous_shards(rows: usize) -> Vec<Table> {
    let make = |names: &[&str], phase: f64| {
        let metas = names.iter().map(|n| ColumnMeta::new(*n, ColumnKind::Continuous)).collect();
        let cols = names
            .iter()
            .enumerate()
            .map(|(i, _)| {
                ColumnData::Float(
                    (0..rows).map(|r| ((r as f64) * 0.37 + i as f64 + phase).sin()).collect(),
                )
            })
            .collect();
        Table::new(Schema::new(metas, None), cols)
    };
    vec![make(&["a1", "a2", "a3"], 0.0), make(&["b1", "b2"], 1.0)]
}

fn tiny_config() -> GtvConfig {
    GtvConfig { threads: 1, ..GtvConfig::smoke() }
}

/// Trains `rounds` rounds and returns every step's snapshot, in order.
fn train_and_record(trainer: &mut GtvTrainer, rounds: usize) -> Vec<StepAllocStats> {
    let mut stats = Vec::new();
    for _ in 0..rounds {
        trainer.train_round().unwrap();
        stats.extend_from_slice(trainer.alloc_stats());
    }
    stats
}

#[test]
fn fifty_steps_of_training_plateau_in_nodes_and_pool_bytes() {
    let _guard = SERIAL.lock().unwrap();
    pool_mem::clear();
    pool_mem::reset_stats();

    // smoke() runs 1 d-step + 1 g-step per round: 26 rounds = 52 steps.
    let mut trainer = GtvTrainer::new(continuous_shards(64), tiny_config());
    let mut held_per_round = Vec::new();
    let mut stats: Vec<StepAllocStats> = Vec::new();
    for _ in 0..26 {
        stats.extend(train_and_record(&mut trainer, 1));
        held_per_round.push(pool_mem::stats().bytes_held);
    }
    assert_eq!(trainer.alloc_stats().len(), 2, "the trainer keeps one round's steps");

    assert!(stats.len() >= 50, "expected at least 50 recorded steps, got {}", stats.len());

    // Steps alternate d, g, d, g, … — with continuous-only data both graph
    // shapes are fixed, so from step 2 on every step's live node count must
    // equal its parity sibling from the first round. Growth here is a leak.
    for (i, s) in stats.iter().enumerate().skip(2) {
        assert_eq!(
            s.live_nodes,
            stats[i % 2].live_nodes,
            "live graph nodes grew at step {i} — storage is leaking into the arena"
        );
    }

    // The pool's parked bytes must plateau once every step shape has been
    // seen (the next test holds them exactly level): a genuine leak (parking
    // duplicates every step) would grow linearly, ~25× over this run, not
    // within 2×.
    let steady = held_per_round[2];
    assert!(steady > 0, "a warm pool must retain recycled step storage");
    for (round, &held) in held_per_round.iter().enumerate().skip(2) {
        assert!(
            held <= steady * 2,
            "pool bytes kept growing at round {round}: {held} vs steady {steady} \
             ({held_per_round:?})"
        );
    }
    pool_mem::clear();
}

/// The pool holds exactly what it held: every buffer a warm round takes —
/// parameter and data bindings, gradient-penalty temporaries, the CV — it
/// gives back, so `bytes_held` after 2N rounds equals `bytes_held` after N.
/// (While leaves were pinned, what a reset dropped was made up by fresh
/// allocations whose capacities drifted, and the pool grew.)
#[test]
fn pool_bytes_after_twice_the_rounds_equal_those_after_the_first_half() {
    let _guard = SERIAL.lock().unwrap();
    pool_mem::clear();
    let mut trainer = GtvTrainer::new(continuous_shards(64), tiny_config());
    let rounds = 20;
    for _ in 0..rounds {
        trainer.train_round().unwrap();
    }
    let after_n = pool_mem::stats();
    for _ in 0..rounds {
        trainer.train_round().unwrap();
    }
    let after_2n = pool_mem::stats();
    assert_eq!(after_2n.bytes_held, after_n.bytes_held);
    assert_eq!(after_2n.misses, after_n.misses, "a warm round allocates nothing fresh");
    pool_mem::clear();
}

#[test]
fn recycling_cuts_per_step_allocations_at_least_five_fold() {
    let _guard = SERIAL.lock().unwrap();

    // Returns the mean allocator misses per step over the post-warmup tail;
    // `set_enabled(false)` is the fresh-allocation reference.
    let misses_per_step = |recycling: bool| -> f64 {
        pool_mem::set_enabled(recycling);
        pool_mem::clear();
        pool_mem::reset_stats();
        let mut trainer = GtvTrainer::new(continuous_shards(64), tiny_config());
        let stats = train_and_record(&mut trainer, 8);
        let tail = &stats[stats.len() - 9..];
        let steps = (tail.len() - 1) as f64;
        (tail[tail.len() - 1].pool_misses - tail[0].pool_misses) as f64 / steps
    };

    let with_pool = misses_per_step(true);
    let without_pool = misses_per_step(false);
    assert!(
        without_pool >= 5.0 * with_pool,
        "recycling must cut allocations per step at least 5×: \
         {without_pool:.1}/step pool-off vs {with_pool:.1}/step pool-on"
    );
    // And recycling-off really does allocate every buffer fresh.
    assert!(without_pool > 50.0, "a training step allocates many buffers: {without_pool}");
    pool_mem::set_enabled(true);
    pool_mem::clear();
}

/// Pool counters and wire bytes of rounds 2–4 of a two-client Loan smoke run
/// started from a cold pool; rounds 0 and 1 warm it up, as `gtvbench` runs
/// two rounds before it measures.
struct WarmRounds {
    misses: u64,
    requested: u64,
    byte_misses: u64,
    wire: u64,
}

fn warm_round_traffic(faithful_real_path: bool, rows: usize) -> WarmRounds {
    pool_mem::clear();
    pool_mem::reset_stats();
    let table = gtv_data::Dataset::Loan.generate(rows, 0);
    let n = table.n_cols();
    let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
    let mut trainer = GtvTrainer::new(shards, GtvConfig { faithful_real_path, ..tiny_config() });
    for _ in 0..2 {
        trainer.train_round().unwrap();
    }
    let (pool, wire) = (pool_mem::stats(), trainer.network_stats().bytes);
    for _ in 0..3 {
        trainer.train_round().unwrap();
    }
    let (after, wire_after) = (pool_mem::stats(), trainer.network_stats().bytes);
    let last = *trainer.alloc_stats().last().unwrap();
    assert_eq!((last.byte_hits, last.byte_misses), (after.byte_hits, after.byte_misses));
    pool_mem::clear();
    WarmRounds {
        misses: after.misses - pool.misses,
        requested: after.bytes_requested - pool.bytes_requested,
        byte_misses: after.byte_misses - pool.byte_misses,
        wire: wire_after - wire,
    }
}

#[test]
fn whole_table_uploads_cycle_through_the_pool() {
    let _guard = SERIAL.lock().unwrap();
    // The table (2 000 rows) dwarfs every batch-sized buffer of the smoke
    // shape, so a table-sized allocation cannot hide in slack.
    let default = warm_round_traffic(false, 2000);
    let faithful = warm_round_traffic(true, 2000);
    // Three rounds, one whole-table upload each.
    let extra_wire = faithful.wire - default.wire;
    assert!(extra_wire > 0, "non-selected clients upload whole tables");
    let table_bytes = extra_wire / 3;
    // The upload is written once, straight into its frame, and the server
    // parses only its idx_p rows: no table of `f32` storage is gathered or
    // decoded beside it ...
    assert!(
        faithful.requested < default.requested + table_bytes,
        "a whole-table upload takes f32 storage: {} vs {} bytes requested, {table_bytes} a table",
        faithful.requested,
        default.requested
    );
    // ... and its frame cycles through the byte pool: written into a
    // recycled buffer, parked again once the server has read it.
    assert_eq!(faithful.byte_misses, 0, "a warm round allocates a frame fresh");
    assert!(
        faithful.misses <= default.misses,
        "faithful rounds allocate fresh: {} misses vs {} on the default path",
        faithful.misses,
        default.misses
    );
}

/// Five Loan clients on the faithful real path: four whole-table uploads a
/// D-step, written at once on threads of their own. Each frame is still
/// taken from the calling thread's byte pool and parked there again once
/// the server has read it, and each whole-table noise goes back to the
/// calling thread's pool: a warm round allocates nothing and parks nothing
/// more. (A frame taken on a party thread would come from that thread's
/// empty pool, be allocated fresh every round, and pile up parked in the
/// caller's.)
#[test]
fn concurrent_whole_table_uploads_cycle_through_the_callers_pool() {
    let _guard = SERIAL.lock().unwrap();
    pool_mem::clear();
    pool_mem::reset_stats();
    let table = gtv_data::Dataset::Loan.generate(2000, 0);
    let n = table.n_cols();
    let groups: Vec<Vec<usize>> =
        (0..5).map(|p| (p * 2..if p == 4 { n } else { (p + 1) * 2 }).collect()).collect();
    let config = GtvConfig { faithful_real_path: true, dp_noise_sigma: 0.1, ..tiny_config() };
    let mut trainer = GtvTrainer::new(table.vertical_split(&groups), config);
    for _ in 0..3 {
        trainer.train_round().unwrap();
    }
    let warm = pool_mem::stats();
    for _ in 3..9 {
        trainer.train_round().unwrap();
    }
    let after = pool_mem::stats();
    pool_mem::clear();
    assert_eq!(after.misses, warm.misses, "a warm round allocates f32 storage fresh");
    assert_eq!(after.byte_misses, warm.byte_misses, "a warm round allocates a frame fresh");
    assert_eq!(after.bytes_held, warm.bytes_held, "the caller's f32 pool grew");
    assert_eq!(after.byte_bytes_held, warm.byte_bytes_held, "the caller's byte pool grew");
}
