//! Bit-reproducibility across batching decisions: the same
//! `(model, cond, n, seed)` request returns byte-identical CSV whether it
//! runs solo or coalesced, and under every worker-thread count — the
//! serve-side mirror of `pipeline_equivalence.rs`. Cases are generated
//! proptest-style from a seeded RNG.

#![expect(clippy::disallowed_methods, reason = "the case generator is seeded with a literal")]

mod common;

use gtv::{CondSpec, SynthSpec};
use gtv_data::to_csv_string;
use gtv_serve::{ModelRegistry, RowsRequest, ServeConfig, SynthService};
use gtv_tensor::pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn request_for(spec: SynthSpec) -> RowsRequest {
    RowsRequest { model: "loan".to_string(), spec, deadline_ticks: None }
}

#[test]
fn solo_coalesced_and_thread_counts_agree_bit_for_bit() {
    let mut registry = ModelRegistry::new();
    registry.insert("loan", common::trained_synth());
    let service = SynthService::new(registry, ServeConfig::default());
    let synth = service.registry().get("loan").expect("registered");

    // Drawn cases: varied row counts, seeds, and an occasional fixed
    // condition on the first categorical slot of client 0.
    let mut rng = StdRng::seed_from_u64(0xC0A1E5CE);
    let cond_col = synth.first_categorical();
    let specs: Vec<SynthSpec> = (0..6)
        .map(|_| {
            let cond = match (rng.gen_range(0..3usize), cond_col) {
                (0, Some((client, column))) => Some(CondSpec { client, column, category: 0 }),
                _ => None,
            };
            SynthSpec { n: rng.gen_range(1..24usize), seed: rng.gen(), cond }
        })
        .collect();

    // Reference: every request solo, single-threaded kernels
    // (GTV_THREADS=1 equivalent).
    pool::set_threads(1);
    let reference: Vec<String> =
        specs.iter().map(|s| to_csv_string(&synth.synth_one(s).expect("solo"))).collect();

    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);

        // Solo through the engine at this thread count.
        for (spec, want) in specs.iter().zip(&reference) {
            let got = service.request(&request_for(*spec)).expect("solo request");
            assert_eq!(&to_csv_string(&got), want, "solo, threads={threads}");
        }

        // Coalesced: submit everything, then let one leader batch it.
        let tickets: Vec<u64> =
            specs.iter().map(|s| service.submit(&request_for(*s)).expect("submit")).collect();
        while service.pump() > 0 {}
        for ((ticket, spec), want) in tickets.iter().zip(&specs).zip(&reference) {
            let got =
                service.try_take(*ticket).expect("resolved").expect("coalesced request succeeds");
            assert_eq!(&to_csv_string(&got), want, "coalesced, threads={threads}, spec={spec:?}");
        }
    }
    pool::set_threads(1);

    // The coalesced passes really did batch: at least one group held all
    // six requests (log2 bucket 2 covers sizes 4..=7).
    let stats = service.stats();
    assert!(stats.batch_hist[2] >= 3, "expected 6-request groups: {:?}", stats.batch_hist);
}
