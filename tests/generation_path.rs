//! One generation path: a publication (`GtvTrainer::synthesize`) carries the
//! rows a `Synthesizer` serves for the same `(n, seed)` with no fixed
//! condition, in the order of the publication shuffle. The served bits
//! themselves are pinned, so a change to the generation forward shows here
//! at every build level (`tools/ci.sh` runs this file again at baseline
//! x86-64).

use gtv::{CondSpec, GtvConfig, GtvTrainer, NetPartition, SynthSpec};
use gtv_data::{to_csv_string, ColumnData, ColumnKind, ColumnMeta, Dataset, Schema, Table};

fn split(table: &Table, parties: usize) -> Vec<Table> {
    let n = table.n_cols();
    let per = n / parties;
    let groups: Vec<Vec<usize>> = (0..parties)
        .map(|p| (p * per..if p + 1 == parties { n } else { (p + 1) * per }).collect())
        .collect();
    table.vertical_split(&groups)
}

/// Two 60-row shards with no categorical column: no conditional vector.
fn continuous_shards() -> Vec<Table> {
    let make = |names: &[&str], phase: f64| {
        let metas = names.iter().map(|n| ColumnMeta::new(*n, ColumnKind::Continuous)).collect();
        let cols = (0..names.len())
            .map(|c| {
                ColumnData::Float(
                    (0..60).map(|r| (r as f64 * 0.1 + c as f64 + phase).sin()).collect(),
                )
            })
            .collect();
        Table::new(Schema::new(metas, None), cols)
    };
    vec![make(&["x1", "x2"], 0.0), make(&["y1", "y2", "y3"], 1.0)]
}

/// The data rows of a CSV rendering, sorted: what a publication and a
/// served request share once the publication shuffle is taken out.
fn sorted_rows(table: &Table) -> Vec<String> {
    let csv = to_csv_string(table);
    let mut rows: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
    rows.sort();
    rows
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn trained(shards: Vec<Table>, partition: NetPartition) -> GtvTrainer {
    let mut trainer = GtvTrainer::new(shards, GtvConfig { partition, ..GtvConfig::smoke() });
    trainer.train_round().expect("transport is healthy");
    trainer
}

#[test]
fn a_publication_carries_the_rows_the_synthesizer_serves() {
    let loan = Dataset::Loan.generate(96, 3);
    let cases = [
        ("2 parties, d2g0", split(&loan, 2), NetPartition::d2g0()),
        ("3 parties, d2g0", split(&loan, 3), NetPartition::d2g0()),
        ("2 parties, d2g2", split(&loan, 2), NetPartition::d2g2()),
        ("2 parties, d0g2 bottoms", split(&loan, 2), NetPartition::new(0, 2, 0, 2)),
        ("continuous only", continuous_shards(), NetPartition::d2g0()),
    ];
    for (name, shards, partition) in cases {
        let trainer = trained(shards, partition);
        let synth = trainer.synthesizer().expect("synthesizer");
        // 45 rows cross the smoke batch of 32, so a chunk boundary is inside.
        for (n, seed) in [(45, 7), (1, 0)] {
            let published = trainer.synthesize(n, seed).expect("transport is healthy");
            let served = synth.synth_one(&SynthSpec { n, seed, cond: None }).expect("served");
            assert_eq!(published.schema(), served.schema(), "{name}: schema");
            assert!(
                sorted_rows(&published) == sorted_rows(&served),
                "{name}: n={n} seed={seed}: the publication's rows are not the served rows"
            );
        }
    }
}

/// FNV-1a of the served CSV of one smoke model, unconditioned and with a
/// fixed condition. The literals are the bits this generator served before
/// the trainer's publication was routed through it, re-taken once when the
/// matmul fused its terms (which moves the trained weights and every row
/// generated from them), and once when the stochastic layer moved to lane
/// kernels (the lane `ln` in the Gumbel noise and the normal draws, the
/// lane sine and cosine, one uniform draw per output head in training;
/// they were `0x720b_7ace_ce4e_b59c` and `0xce56_a523_aab2_6cad`); nothing
/// else may move them.
#[test]
fn the_served_bits_are_pinned() {
    let trainer = trained(split(&Dataset::Loan.generate(96, 3), 2), NetPartition::d2g0());
    let synth = trainer.synthesizer().expect("synthesizer");
    let (client, column) = synth.first_categorical().expect("loan has a categorical column");
    let specs = [
        SynthSpec { n: 40, seed: 17, cond: None },
        SynthSpec { n: 40, seed: 17, cond: Some(CondSpec { client, column, category: 1 }) },
    ];
    let got: Vec<u64> = specs
        .iter()
        .map(|s| fnv64(to_csv_string(&synth.synth_one(s).expect("served")).as_bytes()))
        .collect();
    assert_eq!(got, [0x655b_33ca_91f8_b9a8, 0x5cde_66f1_bd64_d239], "{got:x?}");
}

#[test]
fn synthesizing_zero_rows_is_an_empty_table_with_the_joint_schema() {
    let loan = Dataset::Loan.generate(96, 3);
    let trainer = trained(split(&loan, 2), NetPartition::d2g0());
    let empty = trainer.synthesize(0, 5).expect("transport is healthy");
    assert_eq!(empty.n_rows(), 0);
    let names: Vec<&str> = empty.schema().columns().iter().map(|c| c.name.as_str()).collect();
    let joint: Vec<&str> = loan.schema().columns().iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, joint);
}
