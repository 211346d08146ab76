//! Clean fixture: a pipelined fan-out that parallelizes through the
//! deterministic worker pool — no nondeterminism reaches the payloads.

/// Encodes every payload concurrently on the pool; results come back in
/// input order regardless of worker count.
pub fn encode_all(payloads: Vec<u64>) -> Vec<u64> {
    gtv_tensor::pool::run_ordered(payloads.len(), move |i| payloads[i].wrapping_mul(3))
}
