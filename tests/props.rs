//! Cross-crate property tests: invariants that must hold for arbitrary
//! (small) tables and partitions.

#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their fixtures with literals and generated seeds"
)]

use gtv_data::{ColumnData, ColumnKind, ColumnMeta, Dataset, Schema, Table};
use gtv_encoders::TableTransformer;
use gtv_vfl::{ratio_vector, split_widths, PartitionPlan, SharedShuffler};
use proptest::prelude::*;

/// Strategy: a small random table with continuous + categorical columns.
fn table_strategy() -> impl Strategy<Value = Table> {
    (2usize..5, 10usize..40, any::<u64>()).prop_map(|(n_cat, rows, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut metas = vec![ColumnMeta::new("x", ColumnKind::Continuous)];
        let mut cols =
            vec![ColumnData::Float((0..rows).map(|_| rng.gen_range(-5.0..5.0)).collect())];
        for c in 0..n_cat {
            let k = rng.gen_range(2..5usize);
            metas.push(ColumnMeta::new(
                format!("c{c}"),
                ColumnKind::categorical((0..k).map(|i| format!("v{i}"))),
            ));
            cols.push(ColumnData::Cat((0..rows).map(|_| rng.gen_range(0..k) as u32).collect()));
        }
        Table::new(Schema::new(metas, None), cols)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encoding then decoding preserves categorical columns exactly.
    #[test]
    fn encode_decode_preserves_categoricals(t in table_strategy()) {
        let tf = TableTransformer::fit(&t, 3, 0);
        let dec = tf.decode(&tf.encode(&t, 1));
        for (i, meta) in t.schema().columns().iter().enumerate() {
            if meta.kind.is_categorical() {
                prop_assert_eq!(dec.column(i), t.column(i));
            }
        }
    }

    /// Vertical split + hconcat is the identity for any partition plan.
    #[test]
    fn split_concat_roundtrip(t in table_strategy(), n_clients in 1usize..4, seed in any::<u64>()) {
        let n_clients = n_clients.min(t.n_cols());
        let groups = PartitionPlan::RandomEven { n_clients, seed }.column_groups(t.n_cols(), None, None).expect("valid partition");
        let shards = t.vertical_split(&groups);
        let refs: Vec<&Table> = shards.iter().collect();
        let joined = Table::hconcat(&refs);
        // Same multiset of columns (order may differ).
        for meta in t.schema().columns() {
            let orig = t.column_by_name(&meta.name).unwrap();
            let back = joined.column_by_name(&meta.name).unwrap();
            prop_assert_eq!(orig, back);
        }
    }

    /// Shared shuffling of vertical shards equals shuffling the join.
    #[test]
    fn shared_shuffle_alignment(t in table_strategy(), seed in any::<u64>(), round in 0u64..100) {
        let n = t.n_cols();
        if n < 2 { return Ok(()); }
        let shards = t.vertical_split(&[(0..1).collect(), (1..n).collect()]);
        let sh = SharedShuffler::new(seed);
        let a = sh.shuffle(&shards[0], round);
        let b = sh.shuffle(&shards[1], round);
        let joined = Table::hconcat(&[&a, &b]);
        prop_assert_eq!(joined, sh.shuffle(&t, round));
    }

    /// Ratio vectors always sum to 1 and width splits are exact.
    #[test]
    fn ratios_and_widths(n_cols in 2usize..40, n_clients in 1usize..6, total in 8usize..512) {
        let n_clients = n_clients.min(n_cols);
        let groups = PartitionPlan::Even { n_clients }.column_groups(n_cols, None, None).expect("valid partition");
        let r = ratio_vector(&groups);
        prop_assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        if total >= n_clients {
            let w = split_widths(total, &r);
            prop_assert_eq!(w.iter().sum::<usize>(), total);
            prop_assert!(w.iter().all(|&x| x >= 1));
        }
    }

    /// Stratified splits keep every class represented on both sides when
    /// each class has at least 4 members.
    #[test]
    fn stratified_split_class_coverage(seed in any::<u64>()) {
        let t = Dataset::Loan.generate(200, seed % 1000);
        let (train, test) = t.train_test_split(0.3, seed);
        prop_assert_eq!(train.n_rows() + test.n_rows(), 200);
        let classes = |tt: &Table| {
            let mut seen = [false; 2];
            for &l in tt.target_labels().unwrap() { seen[l as usize] = true; }
            seen
        };
        prop_assert_eq!(classes(&train), [true, true]);
        prop_assert_eq!(classes(&test), [true, true]);
    }
}
