//! Demand-driven backward contract: asking [`Graph::grad`] for fewer vars
//! prunes work, never bits. For random small graphs — every op kind, shared
//! sub-expressions, and the WGAN-GP shape (an `affine_act` tower, a row
//! gather, a first `grad`, `row_norm_eps` of it, a second `grad`) — the
//! gradient with respect to any subset of the inputs equals the matching
//! entries of the gradient with respect to all of them, bit for bit.

use gtv_tensor::{FusedAct, Graph, Layout, Tensor, Var};
use proptest::prelude::*;

const ROWS: usize = 5;
const DIM: usize = 4;
const TABLE_ROWS: usize = 9;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_tensor(rows: usize, cols: usize, state: &mut u64) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
}

fn bits(g: &Graph, v: Var) -> Vec<u32> {
    g.with_value(v, |t| t.as_slice().iter().map(|x| x.to_bits()).collect())
}

/// The inputs of one random graph, the vars a gradient may be asked for
/// (every leaf, then a few interior nodes) and the scalar loss.
struct Built {
    wrt: Vec<Var>,
    loss: Var,
}

/// Builds the graph `seed` describes. `wide_first` asks the inner
/// (gradient-penalty) `grad` for every leaf instead of the two it uses, so
/// a pruned first-order pass can be compared with an unpruned one.
fn build(g: &Graph, seed: u64, wide_first: bool) -> Built {
    let mut state = seed;
    let x = g.leaf(random_tensor(ROWS, DIM, &mut state));
    let z = g.leaf(random_tensor(ROWS, DIM, &mut state));
    let table = g.leaf(random_tensor(TABLE_ROWS, DIM, &mut state));
    let w1 = g.leaf(random_tensor(DIM, DIM, &mut state));
    let w2 = g.leaf(random_tensor(DIM, DIM, &mut state));
    let bias = g.leaf(random_tensor(1, DIM, &mut state));
    let leaves = vec![x, z, table, w1, w2, bias];

    let idx: Vec<usize> =
        (0..ROWS).map(|_| (splitmix(&mut state) % TABLE_ROWS as u64) as usize).collect();
    let mut pool = vec![x, z, g.select_rows(table, &idx)];
    let mut interior = Vec::new();
    let steps = 6 + splitmix(&mut state) % 8;
    for _ in 0..steps {
        let pick =
            |state: &mut u64, pool: &[Var]| pool[(splitmix(state) % pool.len() as u64) as usize];
        let a = pick(&mut state, &pool);
        let b = pick(&mut state, &pool);
        let w = if splitmix(&mut state) & 1 == 0 { w1 } else { w2 };
        let next = match splitmix(&mut state) % 16 {
            0 => g.add(a, b),
            1 => g.sub(a, b),
            2 => g.mul(a, b),
            3 => g.div(a, g.add_scalar(g.square(b), 1.0)),
            4 => g.matmul(a, w),
            5 => g.affine_act(a, w, bias, FusedAct::LeakyRelu(0.2)),
            6 => g.affine_act(a, w, bias, FusedAct::Tanh),
            7 => g.tanh(g.add(a, bias)),
            8 => g.sigmoid(g.neg(a)),
            9 => g.leaky_relu(g.relu(g.add_scalar(a, 0.5)), 0.2),
            10 => g.slice_cols(g.concat_cols(&[a, b, a]), 2, DIM),
            11 => g.mul(a, g.sum_cols(b)),
            12 => g.sqrt(g.add_scalar(g.exp(g.mul_scalar(a, 0.3)), 1.0)),
            13 => g.ln(g.add_scalar(g.pow_scalar(g.square(a), 1.5), 1.0)),
            14 => g.matmul_layout(a, g.matmul_layout(b, a, Layout::TransA), Layout::TransB),
            _ => g.pad_cols(g.slice_cols(g.softmax_rows(a), 1, 2), 1, DIM),
        };
        if splitmix(&mut state) & 3 == 0 {
            interior.push(next);
        }
        pool.push(next);
    }
    let h = pool[pool.len() - 1];

    // WGAN-GP shape: penalise the row norm of a first-order input gradient.
    let score = g.sum_all(g.affine_act(g.add(h, x), w1, bias, FusedAct::LeakyRelu(0.2)));
    let first = if wide_first { g.grad(score, &leaves) } else { g.grad(score, &[x, z]) };
    let norm = g.row_norm_eps(g.concat_cols(&first[..2]), 1e-12);
    let penalty = g.mean_all(g.square(g.add_scalar(norm, -1.0)));
    let loss = g.add(g.mean_all(h), g.mul_scalar(penalty, 10.0));

    let mut wrt = leaves;
    wrt.extend(interior);
    Built { wrt, loss }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn subset_gradients_equal_the_all_inputs_gradient(seed in any::<u64>(), mask in any::<u64>()) {
        let g = Graph::new();
        let built = build(&g, seed, false);
        let all = g.grad(built.loss, &built.wrt);
        let all_bits: Vec<Vec<u32>> = all.iter().map(|&v| bits(&g, v)).collect();

        let chosen: Vec<usize> = (0..built.wrt.len()).filter(|i| mask >> i & 1 == 1).collect();
        let subset: Vec<Var> = chosen.iter().map(|&i| built.wrt[i]).collect();
        let before = g.len();
        let some = g.grad(built.loss, &subset);
        let subset_nodes = g.len() - before;
        for (&i, &v) in chosen.iter().zip(&some) {
            prop_assert_eq!(&bits(&g, v), &all_bits[i], "input {} of seed {}", i, seed);
        }
        // One var at a time, too — the sparsest demand.
        let mut widest_single = 0;
        for (i, &v) in built.wrt.iter().enumerate() {
            let before = g.len();
            let one = g.grad(built.loss, &[v])[0];
            widest_single = widest_single.max(g.len() - before);
            prop_assert_eq!(&bits(&g, one), &all_bits[i], "input {} alone, seed {}", i, seed);
        }

        // Asking for less never builds more.
        let before = g.len();
        let _ = g.grad(built.loss, &built.wrt);
        let all_nodes = g.len() - before;
        prop_assert!(subset_nodes <= all_nodes, "{} nodes for a subset, {} for all", subset_nodes, all_nodes);
        prop_assert!(widest_single <= all_nodes);
    }

    #[test]
    fn pruned_first_order_pass_feeds_the_same_second_order_bits(seed in any::<u64>()) {
        let narrow = Graph::new();
        let a = build(&narrow, seed, false);
        let wide = Graph::new();
        let b = build(&wide, seed, true);
        prop_assert!(narrow.len() <= wide.len());
        let ga = narrow.grad(a.loss, &a.wrt);
        let gb = wide.grad(b.loss, &b.wrt);
        for (i, (&va, &vb)) in ga.iter().zip(&gb).enumerate() {
            prop_assert_eq!(bits(&narrow, va), bits(&wide, vb), "input {} of seed {}", i, seed);
        }
    }
}
