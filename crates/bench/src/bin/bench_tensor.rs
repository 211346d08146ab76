//! Tensor hot-loop benchmark: matmul, elementwise, reductions and a
//! backward pass, swept over worker-pool sizes.
//!
//! Emits `BENCH_tensor.json` (path overridable as the first CLI argument)
//! with wall times, GFLOP/s and per-op speedups versus the single-threaded
//! run. The host's available parallelism is recorded alongside: on a
//! single-core machine the sweep still *validates* the pool (results stay
//! bit-identical) but cannot show wall-clock speedups — read the numbers
//! with the `host_parallelism` field in hand.
//!
//! A roofline summary rides along: a compute-peak probe (the repo's own
//! matmul register tile on an L1-resident panel — mul+add throughput, no
//! FMA, matching the determinism contract), per-case nominal bytes moved,
//! arithmetic intensity (FLOP/byte) and single-thread percent-of-peak,
//! plus a scalar-libm reference for the elementwise and reduction cases so
//! the SIMD delta is measured, not asserted.
//!
//! `GTV_BENCH_REPS` controls repetitions per measurement (default 3; the
//! minimum over reps is reported).

use gtv_tensor::{pool, simd, Graph, Tensor, UnaryOp};
use std::hint::black_box;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// SplitMix64 — deterministic fill without ambient randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn filled(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed;
    let data: Vec<f32> =
        (0..rows * cols).map(|_| (splitmix(&mut state) % 2000) as f32 / 1000.0 - 1.0).collect();
    Tensor::from_vec(rows, cols, data)
}

struct Case {
    name: &'static str,
    /// Floating-point operations per run (for GFLOP/s).
    flops: f64,
    /// Nominal bytes moved per run (operands read once + result written
    /// once, cache-ignorant) — the denominator of arithmetic intensity.
    bytes: f64,
    run: Box<dyn Fn() -> f32>,
    /// Scalar-libm reference doing the same arithmetic without the f32x8
    /// kernels, for the SIMD-delta column. `None` where no meaningful
    /// scalar twin exists (matmul shares its inner kernel either way).
    scalar_run: Option<Box<dyn Fn() -> f32>>,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for n in [128usize, 256, 512] {
        let a = filled(n, n, 1);
        let b = filled(n, n, 2);
        out.push(Case {
            name: match n {
                128 => "matmul_128",
                256 => "matmul_256",
                _ => "matmul_512",
            },
            flops: 2.0 * (n * n * n) as f64,
            bytes: (3 * n * n * 4) as f64,
            run: Box::new(move || a.matmul(&b).at(0, 0)),
            scalar_run: None,
        });
    }
    let big = filled(1024, 1024, 3);
    let elem = big.clone();
    let elem_scalar = big.clone();
    out.push(Case {
        name: "elementwise_tanh_1m",
        flops: (1024 * 1024) as f64,
        bytes: (2 * 1024 * 1024 * 4) as f64,
        run: Box::new(move || elem.apply(UnaryOp::Tanh).at(0, 0)),
        scalar_run: Some(Box::new(move || {
            elem_scalar.as_slice().iter().map(|&v| v.tanh()).fold(0.0f32, f32::max)
        })),
    });
    let red = big.clone();
    let red_scalar = big.clone();
    out.push(Case {
        name: "reduction_sum_1m",
        flops: (1024 * 1024) as f64,
        bytes: (1024 * 1024 * 4) as f64,
        run: Box::new(move || red.sum_all().item()),
        scalar_run: Some(Box::new(move || red_scalar.as_slice().iter().sum::<f32>())),
    });
    let x0 = filled(256, 128, 4);
    let w0 = filled(128, 64, 5);
    out.push(Case {
        name: "backward_tanh_matmul",
        // Forward matmul + backward's two matmuls, elementwise terms omitted.
        flops: 3.0 * 2.0 * (256 * 128 * 64) as f64,
        bytes: (3 * (256 * 128 + 128 * 64 + 256 * 64) * 4) as f64,
        run: Box::new(move || {
            let g = Graph::new();
            let x = g.leaf(x0.clone());
            let w = g.leaf(w0.clone());
            let h = g.tanh(g.matmul(x, w));
            let y = g.mean_all(g.mul(h, h));
            let dw = g.grad(y, &[w])[0];
            g.value(dw).at(0, 0)
        }),
        scalar_run: None,
    });
    out
}

/// Single-thread compute ceiling in GFLOP/s: the repo's own matmul register
/// tile ([`simd::tile`], `MR×NR` outputs) over one L1-resident packed panel
/// of depth 256 — 2 FLOPs per multiply-add, no FMA (the determinism
/// contract forbids it, so this *is* the relevant peak for every kernel in
/// the crate, not a theoretical FMA number). A whole matmul adds packing,
/// cache misses and ragged edges on top, so it reads below 100% of this.
fn measure_peak(reps: usize) -> f64 {
    const DEPTH: usize = 256;
    const ITERS: usize = 40_000;
    let mut state = 7u64;
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len).map(|_| (splitmix(&mut state) % 2000) as f32 / 1000.0 - 1.0).collect()
    };
    let a = fill(simd::MR * DEPTH);
    let mut panel = Vec::new();
    simd::pack_panels(&fill(DEPTH * simd::NR), DEPTH, simd::NR, &mut panel);
    let mut out = vec![0.0f32; simd::MR * simd::NR];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let mut sink = 0.0f64;
        for _ in 0..ITERS {
            simd::tile(simd::MR, black_box(&a), DEPTH, &panel, &mut out, simd::NR, simd::NR);
            sink += f64::from(out[0]);
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(sink.is_finite(), "peak probe must produce finite values");
        best = best.min(elapsed);
    }
    2.0 * (simd::MR * simd::NR * DEPTH * ITERS) as f64 / best / 1e9
}

fn measure(case: &Case, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let sink = (case.run)();
        let elapsed = start.elapsed().as_secs_f64();
        assert!(sink.is_finite(), "benchmark kernels must produce finite values");
        best = best.min(elapsed);
    }
    best
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_tensor.json".to_string());
    let reps = std::env::var("GTV_BENCH_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let host = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    eprintln!("bench_tensor: host parallelism {host}, {reps} reps, threads {THREAD_COUNTS:?}");

    let peak_gflops = measure_peak(reps);
    eprintln!("  compute peak (matmul register tile, L1-resident panel): {peak_gflops:.2} GFLOP/s");

    let cases = cases();
    // times[case][thread-count index]
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    for &threads in &THREAD_COUNTS {
        pool::set_threads(threads);
        for (i, case) in cases.iter().enumerate() {
            let t = measure(case, reps);
            times[i].push(t);
            eprintln!("  {:>2} threads  {:<22} {:>9.3} ms", threads, case.name, t * 1e3);
        }
    }
    pool::set_threads(1);

    let mut entries = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let base = times[i][0];
        let per_threads: Vec<String> = THREAD_COUNTS
            .iter()
            .zip(&times[i])
            .map(|(&threads, &t)| {
                format!(
                    "{{\"threads\":{threads},\"seconds\":{},\"gflops\":{},\"speedup_vs_1\":{}}}",
                    json_f(t),
                    json_f(case.flops / t / 1e9),
                    json_f(base / t)
                )
            })
            .collect();
        // Roofline columns: single-thread numbers against the probe's
        // single-thread peak, plus the scalar-libm delta where it exists.
        let mut roofline = format!(
            "\"bytes\":{},\"arithmetic_intensity\":{},\"pct_of_peak_1t\":{}",
            case.bytes,
            json_f(case.flops / case.bytes),
            json_f(case.flops / base / 1e9 / peak_gflops * 100.0)
        );
        if let Some(scalar) = &case.scalar_run {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let start = Instant::now();
                let sink = scalar();
                let elapsed = start.elapsed().as_secs_f64();
                assert!(sink.is_finite(), "scalar reference must produce finite values");
                best = best.min(elapsed);
            }
            let scalar_gflops = case.flops / best / 1e9;
            eprintln!(
                "  scalar ref  {:<22} {:>9.3} ms  (SIMD 1t is {:.2}x)",
                case.name,
                best * 1e3,
                best / base
            );
            roofline.push_str(&format!(
                ",\"scalar_gflops\":{},\"simd_speedup_vs_scalar\":{}",
                json_f(scalar_gflops),
                json_f(best / base)
            ));
        }
        entries.push(format!(
            "{{\"op\":\"{}\",\"flops\":{},{},\"runs\":[{}]}}",
            case.name,
            case.flops,
            roofline,
            per_threads.join(",")
        ));
    }
    let json = format!(
        "{{\"host_parallelism\":{host},\"reps\":{reps},\"thread_counts\":{:?},\
         \"roofline_peak_gflops\":{},\"roofline_probe\":\"matmul_tile_l1_panel_k256\",\"cases\":[{}]}}\n",
        THREAD_COUNTS,
        json_f(peak_gflops),
        entries.join(",")
    );
    std::fs::write(&out_path, &json).expect("writing the benchmark report");
    println!("wrote {out_path}");
}
