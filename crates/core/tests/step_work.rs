//! Deterministic work pin for the demand-driven backward pass (DESIGN.md
//! §4): the number of autograd nodes one D-step and one G-step build. A
//! wall-clock figure on a shared host cannot tell a wasted product from a
//! noisy neighbour; a node count can. The constants fall when a step stops
//! differentiating something nobody reads and rise when wasted backward
//! nodes come back — either way the change has to be looked at and the pin
//! moved on purpose. The pins fell by 48 nodes a D-step and 140 a G-step
//! when each generator residual block's bias, batch norm, ReLU and skip
//! concat became one fused `bn_tail` node (DESIGN.md §9): 12 forward nodes
//! fewer per block in either step (14 became a statistics leaf and the
//! tail), and 23 backward nodes fewer per block in the G-step, whose tail
//! adjoints are now a handful of first-order nodes. The weights did not
//! move: the fusion keeps every bit.

use gtv::{GtvConfig, GtvTrainer, NetPartition};
use gtv_data::Dataset;

/// Nodes of the D-step and of the G-step of the first round (smoke shape,
/// Loan, two clients, seed of `GtvConfig::smoke`). Before the backward
/// pass was demand-driven the same two steps built 464 and 710. The
/// faithful real path builds the same graph: with identity bottoms the
/// server's node for a whole-table upload is a leaf of its `idx_p` rows,
/// as on the default path (it was 416, a table-sized leaf and a gather).
/// With identity bottoms no client owns a critic parameter, so the D-step
/// builds no gradient of the clients' logits (it was 415 while it sent
/// them back as `GradLogits`). Since the backward products read their
/// transposed operand in place, neither step builds a transpose node (they
/// were 411 and 658 with them), and since the residual blocks' tails are
/// fused, 48 and 140 fewer (they were 382 and 643).
const D_STEP_NODES: usize = 334;
const G_STEP_NODES: usize = 503;

/// Trains `rounds` rounds of the shape above under `config` (one worker
/// thread) and returns the first round's `[D-step, G-step]` live nodes and
/// the FNV-1a of the weights at the end.
fn train(config: GtvConfig, rounds: usize) -> (Vec<usize>, u64) {
    let table = Dataset::Loan.generate(200, 0);
    let n = table.n_cols();
    let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
    let mut trainer = GtvTrainer::new(shards, GtvConfig { threads: 1, ..config });
    let mut nodes = Vec::new();
    for round in 0..rounds {
        trainer.train_round().expect("in-process transport is healthy");
        if round == 0 {
            nodes = trainer.alloc_stats().iter().map(|s| s.live_nodes).collect();
        }
    }
    (nodes, fnv64(&trainer.save_weights().to_bytes()))
}

#[test]
fn a_round_builds_exactly_the_pinned_number_of_nodes() {
    for faithful_real_path in [false, true] {
        let (nodes, _) = train(GtvConfig { faithful_real_path, ..GtvConfig::smoke() }, 1);
        assert_eq!(
            nodes,
            [D_STEP_NODES, G_STEP_NODES],
            "faithful_real_path = {faithful_real_path}: [D-step, G-step] live nodes"
        );
    }
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a of `save_weights().to_bytes()` after three rounds of the shape
/// above, as commit cc9bbec trained them — the last commit whose shuffle
/// re-ordered the tables themselves — with the matmul's terms fused (one
/// rounding per multiply-add), and re-taken when the CV sampler stopped
/// following the shuffle: a draw names a row as loaded, announced at its
/// current position, so the same RNG draw names another row from the
/// second round on (it was `0x4598_2003_b06e_49ad`). Three rounds take two
/// shuffles into account. The faithful real path sends whole tables and
/// lets the server select, the default path selects first: the same rows
/// reach the same arithmetic, so one constant serves both. A later change
/// of arithmetic, draw order or row order lands here.
const WEIGHTS_AFTER_3_ROUNDS: u64 = 0xe983_790f_0a68_6f15;

#[test]
fn three_rounds_train_exactly_the_pinned_weights() {
    for faithful_real_path in [false, true] {
        let (_, fingerprint) = train(GtvConfig { faithful_real_path, ..GtvConfig::smoke() }, 3);
        assert_eq!(
            fingerprint, WEIGHTS_AFTER_3_ROUNDS,
            "faithful_real_path = {faithful_real_path}: {fingerprint:#018x}"
        );
    }
}

/// The faithful real path where the whole-table upload is not the table
/// itself: one `D_i^b` block per client (`D_1^1 G_2^0`), so every client
/// runs its entire table through its bottom block and the server gathers
/// the `idx_p` rows of those logits. Weights as the trainer of commit
/// 39eaeda built them, with the matmul's terms fused and draws of rows as
/// loaded (`0x9b96_66fe_160c_e0c7` before); nodes since the backward pass
/// builds no transpose (451 and 758 before) and the residual blocks' tails
/// are fused (418 and 742 before).
#[test]
fn faithful_path_with_a_bottom_block_trains_the_pinned_weights() {
    let config = GtvConfig {
        faithful_real_path: true,
        partition: NetPartition::new(1, 1, 0, 2),
        ..GtvConfig::smoke()
    };
    let (nodes, fingerprint) = train(config, 3);
    assert_eq!(nodes, [370, 602], "[D-step, G-step] live nodes");
    assert_eq!(fingerprint, 0xcb07_2443_a8fe_65d1, "{fingerprint:#018x}");
}

/// The faithful real path with DP noise on the uploads: the noise for a
/// whole-table upload is drawn at the table's shape in the same client
/// order, and the server's rows are the `idx_p` rows of the noisy table.
/// Weights as commit 39eaeda trained them, with the matmul's terms fused and
/// draws of rows as loaded (`0xba59_6a68_205d_9a63` before); its D-step
/// built 424 nodes (a table-sized leaf, a noise leaf, their sum and a
/// gather per uploading client), then 421 (a single batch-sized leaf per
/// uploading client), 417 once it built no `GradLogits`, 388 since it
/// builds no transpose (the G-step 752 → 737), and 340 since the residual
/// blocks' tails are fused (the G-step 737 → 597).
#[test]
fn faithful_path_with_dp_noise_trains_the_pinned_weights() {
    let config = GtvConfig { faithful_real_path: true, dp_noise_sigma: 0.5, ..GtvConfig::smoke() };
    let (nodes, fingerprint) = train(config, 3);
    assert_eq!(nodes, [340, 597], "[D-step, G-step] live nodes");
    assert_eq!(fingerprint, 0x448b_3c70_994e_4d6a, "{fingerprint:#018x}");
}
