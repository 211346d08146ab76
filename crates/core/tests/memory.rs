//! Step-scoped memory regression tests (DESIGN.md §9): a long training run
//! must not leak graph nodes or pool bytes, and a warm recycling pool must
//! cut per-step allocator traffic by well over the 5× the issue demands.
//!
//! Both tests use continuous-only tables so every training step builds a
//! structurally identical graph (no conditional-vector subgraphs whose shape
//! depends on sampled categories), run single-threaded so the thread-local
//! pool counters are exact, and serialize on a mutex so they cannot observe
//! each other's pool configuration. The trainer keeps only its latest
//! round's step snapshots, so the tests collect them after every round.

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
    // seen. The balance is not bit-exact round to round — leaf and optimizer
    // tensors take from the pool but are dropped (pinned) rather than
    // parked, so slack matching lets capacities migrate between buckets —
    // but it must stay bounded: a genuine leak (parking duplicates every
    // step) would grow linearly, ~25× over this run, not within 2×.
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
