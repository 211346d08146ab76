//! Zero-allocation proof for steady-state serving: once the buffer pool
//! is warm, repeated same-shape requests are served entirely from
//! recycled buffers — `PoolStats.misses` stays at zero across the
//! measurement window.

mod common;

use gtv::SynthSpec;
use gtv_serve::{ModelRegistry, RowsRequest, ServeConfig, SynthService};
use gtv_tensor::pool_mem;

fn req(seed: u64) -> RowsRequest {
    RowsRequest {
        model: "loan".to_string(),
        spec: SynthSpec { n: 16, seed, cond: None },
        deadline_ticks: None,
    }
}

#[test]
fn steady_state_requests_allocate_nothing_fresh() {
    pool_mem::set_enabled(true);
    let mut registry = ModelRegistry::new();
    let parked = registry.insert_warm("loan", common::trained_synth()).expect("warm insert");
    assert!(parked > 0, "insert_warm must pin at least the staging buffer");
    let service = SynthService::new(registry, ServeConfig::default());

    // Warm-up window: the first requests of this shape may still park
    // fresh buffers (the warm pass used the model's own chunk size).
    for seed in 0..4 {
        service.request(&req(seed)).expect("warm-up request");
    }

    pool_mem::reset_stats();
    service.reset_stats();
    for seed in 4..16 {
        service.request(&req(seed)).expect("steady-state request");
    }

    let pool = pool_mem::stats();
    assert_eq!(pool.misses, 0, "steady-state serving must recycle every pooled buffer: {pool:?}");
    assert!(pool.hits > 0, "the steady-state window must actually exercise the pool: {pool:?}");

    // The engine's own counters see the same hit-rate through its
    // per-batch deltas.
    let stats = service.stats();
    assert_eq!(stats.pool_misses, 0, "engine-observed misses: {stats:?}");
    assert!(stats.pool_hit_rate() > 0.999, "hit rate {}", stats.pool_hit_rate());
    assert_eq!(stats.completed, 12);
}

/// The pool holds exactly what it held: a warm request gives back every
/// buffer it takes — parameter clones included — so `bytes_held` after 2N
/// requests equals `bytes_held` after N. (While inference graphs parked
/// parameter copies made outside the pool, it grew by every request's.)
#[test]
fn pool_bytes_after_twice_the_requests_equal_those_after_the_first_half() {
    pool_mem::set_enabled(true);
    let mut registry = ModelRegistry::new();
    registry.insert_warm("loan", common::trained_synth()).expect("warm insert");
    let service = SynthService::new(registry, ServeConfig::default());
    let requests = 24;
    for seed in 0..requests {
        service.request(&req(seed)).expect("request");
    }
    let after_n = pool_mem::stats().bytes_held;
    for seed in requests..2 * requests {
        service.request(&req(seed)).expect("request");
    }
    assert_eq!(pool_mem::stats().bytes_held, after_n);
}
