//! Layer probes: timed direct calls into one public function of a layer, at
//! the shapes of the workload, run after the timed sections of the traced
//! pass. A probe says how fast a layer is on its own; the spans say how much
//! of a round or a request it is.

use crate::pipeline::{self, Data, Fatal, Outcome, Request, RequestStream};
use crate::stats;
use crate::workload::{Link, Workload};
use gtv::{GtvConfig, InProcTransport, SynthSpec, Synthesizer, Transport};
use gtv_cond::{ClientCondSampler, CondLayout};
use gtv_data::{to_csv_string, Table};
use gtv_encoders::TableTransformer;
use gtv_nn::{Adam, Param};
use gtv_serve::{decode_serve_body, encode_serve_frame, ServeFrame, SynthService};
use gtv_tensor::{pool, FusedAct, Graph, Tensor};
use gtv_vfl::{MatrixPayload, Message, PartyId, SharedShuffler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIN_CALLS: usize = 10;
const MAX_CALLS: usize = 2_000;
/// A probe stops once it has its ten calls and this much time.
const ENOUGH: Duration = Duration::from_millis(150);
/// A probe whose single call takes seconds (encoder fitting on 50 000
/// rows) stops at two calls past this much time, short of ten.
const SLOW_PROBE: Duration = Duration::from_secs(4);

/// Warms `f` once, then times calls of it; returns the median seconds.
fn probe(name: &str, mut f: impl FnMut()) -> f64 {
    f();
    let began = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
        let spent = began.elapsed();
        let (n, slow) = (secs.len(), spent >= SLOW_PROBE);
        if n >= MAX_CALLS || (n >= MIN_CALLS && spent >= ENOUGH) || (n >= 2 && slow) {
            break;
        }
    }
    let median = stats::median(&secs);
    println!("  probe {name}: median {:.6} ms over {} calls", median * 1e3, secs.len());
    median
}

pub fn run(
    w: &Workload,
    config: &GtvConfig,
    data: &Data,
    synth: &Synthesizer,
    weights: usize,
    run_dir: &Path,
    out: &mut Outcome,
) -> Result<(), Fatal> {
    let rows = data.train.n_rows();
    let (batch, width) = (config.batch, config.block_width);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // gtv-encoders, at every party's shard, as the trainer's constructor does.
    let fit = |shards: &[Table]| -> Vec<TableTransformer> {
        shards
            .iter()
            .enumerate()
            .map(|(i, t)| {
                TableTransformer::fit(t, config.max_modes, config.seed.wrapping_add(i as u64))
            })
            .collect()
    };
    out.set("encoders.fit_s", probe("encoders.fit", || drop(black_box(fit(&data.shards)))));
    let transformers = fit(&data.shards);
    let encode = || -> Vec<Tensor> {
        transformers.iter().zip(&data.shards).map(|(tf, t)| tf.encode(t, config.seed)).collect()
    };
    out.set(
        "encoders.encode_rows_per_s",
        rows as f64 / probe("encoders.encode", || drop(black_box(encode()))),
    );
    let encoded = encode();
    let head: Vec<usize> = (0..w.synth_rows.min(rows)).collect();
    let heads: Vec<Tensor> = encoded.iter().map(|m| m.select_rows(&head)).collect();
    let decode_s = probe("encoders.decode", || {
        for (tf, m) in transformers.iter().zip(&heads) {
            black_box(tf.decode(m));
        }
    });
    out.set("encoders.decode_rows_per_s", head.len() as f64 / decode_s);

    // gtv-data: the end-of-round shuffle of one party, and CSV publication.
    let permutation = SharedShuffler::new(config.seed).permutation(rows, 1);
    let select_s = probe("data.select_rows", || {
        black_box(data.shards[0].select_rows(&permutation));
        black_box(encoded[0].select_rows(&permutation));
    });
    out.set("data.select_rows_ms", select_s * 1e3);
    let reply = synth
        .synth_one(&SynthSpec { n: 2048, seed: config.seed, cond: None })
        .map_err(|e| format!("probe request: {e}"))?;
    out.set(
        "data.to_csv_rows_per_s",
        2048.0 / probe("data.to_csv", || drop(black_box(to_csv_string(&reply)))),
    );

    // gtv-cond: rebuilt for every party after each shuffle; sampled per step.
    let build_s = probe("cond.sampler_build", || {
        for shard in &data.shards {
            black_box(ClientCondSampler::from_table(shard));
        }
    });
    out.set("cond.sampler_build_ms", build_s * 1e3);
    let samplers: Vec<Option<ClientCondSampler>> =
        data.shards.iter().map(ClientCondSampler::from_table).collect();
    let layout =
        CondLayout::new(samplers.iter().map(|s| s.as_ref().map_or(0, |s| s.width())).collect());
    let (p, sampler) = samplers
        .iter()
        .enumerate()
        .find_map(|(i, s)| s.as_ref().map(|s| (i, s)))
        .ok_or("no party holds a categorical column")?;
    let sample_s = probe("cond.sample_materialize", || {
        let cond = sampler.sample_batch(batch, &mut rng);
        black_box(sampler.materialize(&cond.choices, layout.offset(p), layout.total_width()));
    });
    out.set("cond.sample_materialize_us", sample_s * 1e6);

    // gtv-tensor: the kernels and the graph at the workload's batch and width.
    let mut randn = |r: usize, c: usize| Tensor::randn(r, c, &mut rng).mul_scalar(0.05);
    let (x, w1, w2, head_w) =
        (randn(batch, width), randn(width, width), randn(width, width), randn(width, 1));
    let matmul_s = probe("tensor.matmul", || drop(black_box(x.matmul(&w1))));
    out.set("tensor.matmul_gflops", 2.0 * (batch * width * width) as f64 / matmul_s / 1e9);
    // The same product on a two-worker pool. The runs keep to one kernel
    // thread, so this ratio is where the pool and its dispatch show.
    pool::set_threads(2);
    let pooled_s = probe("tensor.matmul, two workers", || drop(black_box(x.matmul(&w1))));
    pool::set_threads(config.threads);
    out.set("tensor.matmul_2t_speedup", matmul_s / pooled_s);
    let g = Graph::new();
    let tanh_s = probe("tensor.elementwise", || {
        let y = g.tanh(g.leaf(x.clone()));
        black_box(g.tanh_grad(y));
        g.reset();
    });
    out.set("tensor.elementwise_gelems_per_s", 2.0 * (batch * width) as f64 / tanh_s / 1e9);
    let bias = Tensor::zeros(1, width);
    let step_s = probe("tensor.graph_step", || {
        // A critic of two fused blocks and a head: forward, the gradient
        // penalty's double backward, then the parameter gradients.
        let leaf = |t: &Tensor| g.leaf(t.clone());
        let (xv, params) =
            (leaf(&x), [leaf(&w1), leaf(&bias), leaf(&w2), leaf(&bias), leaf(&head_w)]);
        let h = g.affine_act(xv, params[0], params[1], FusedAct::LeakyRelu(0.2));
        let h = g.affine_act(h, params[2], params[3], FusedAct::LeakyRelu(0.2));
        let y = g.matmul(h, params[4]);
        let dx = g.grad(g.sum_all(y), &[xv]);
        let norm = g.l2_norm_rows(dx[0], 1e-12);
        let penalty = g.mean_all(g.square(g.add_scalar(norm, -1.0)));
        let loss = g.add(g.mean_all(y), g.mul_scalar(penalty, 10.0));
        black_box(g.grad(loss, &params));
        g.reset();
    });
    out.set("tensor.graph_step_ms", step_s * 1e3);

    // gtv-nn: one optimizer step over as many weights as the model has.
    let params: Vec<Param> = (0..weights.div_ceil(width * width).max(1))
        .map(|i| Param::new(format!("p{i}"), randn(width, width)))
        .collect();
    for p in &params {
        p.accumulate_grad(&randn(width, width));
    }
    let mut adam = Adam::new(params, config.adam);
    out.set("nn.adam_step_ms", probe("nn.adam_step", || adam.step()) * 1e3);

    // gtv-vfl: the codec on the largest payload of a round (a party's whole
    // encoded table on the faithful real path, one batch of it otherwise).
    let widest = encoded.iter().max_by_key(|m| m.cols()).ok_or("no shards")?;
    let payload_rows = if config.faithful_real_path { rows } else { batch.min(rows) };
    let body = widest.select_rows(&(0..payload_rows).collect::<Vec<_>>());
    let msg = Message::RealLogits(MatrixPayload::new(
        payload_rows as u32,
        body.cols() as u32,
        body.as_slice().to_vec(),
    ));
    let codec = gtv_vfl::WireCodec::Dense;
    let bytes = msg.encode_with(codec);
    let mb = bytes.len() as f64 / 1e6;
    out.set(
        "vfl.wire.encode_mb_per_s",
        mb / probe("vfl.wire.encode", || drop(black_box(msg.encode_with(codec)))),
    );
    let decode_s = probe("vfl.wire.decode", || drop(black_box(Message::decode(bytes.clone()))));
    out.set("vfl.wire.decode_mb_per_s", mb / decode_s);
    out.set(
        "vfl.shuffle.permutation_ms",
        probe("vfl.shuffle.permutation", || {
            drop(black_box(SharedShuffler::new(config.seed).permutation(rows, 7)));
        }) * 1e3,
    );
    let roundtrip = |t: &dyn Transport| -> Result<f64, Fatal> {
        let mut failed = None;
        let secs = probe("vfl.transport.roundtrip", || {
            let sent = t.send(
                PartyId::Server,
                PartyId::Client(0),
                Message::RoundStart { round: 0, selected: 0 },
            );
            if let Err(e) = sent.and_then(|()| t.recv_expect(PartyId::Client(0), "RoundStart")) {
                failed = Some(e.to_string());
            }
        });
        failed.map_or(Ok(secs * 1e6), |e| Err(format!("round-trip probe: {e}")))
    };
    let roundtrip_us = match w.link {
        Link::InProc => roundtrip(&InProcTransport::new(w.clients))?,
        Link::Uds | Link::Tcp => {
            let (_fleet, transport) = pipeline::open_sockets(w, run_dir)?;
            roundtrip(&transport)?
        }
    };
    out.set("vfl.transport.roundtrip_us", roundtrip_us);

    // gtv (core): generation and decode without transport or publication.
    let spec = SynthSpec { n: 2048, seed: config.seed, cond: None };
    let batch_s = probe("core.synth_batch", || drop(black_box(synth.synth_batch(&[spec]))));
    out.set("core.synth_batch_rows_per_s", 2048.0 / batch_s);

    // gtv-serve: the reply frame of a 2048-row request.
    let frame = ServeFrame::SynthRows { id: 1, csv: to_csv_string(&reply).into_bytes() };
    let body = encode_serve_frame(&frame).map_err(|e| format!("frame probe: {e}"))?;
    let frame_s = probe("serve.wire.rows_frame", || {
        let body = encode_serve_frame(&frame);
        black_box(body.as_deref().map(decode_serve_body).ok());
    });
    out.set("serve.wire.rows_frame_mb_per_s", body.len() as f64 / 1e6 / frame_s);
    Ok(())
}

/// Engine-side serve probes, run while the service of the request stream
/// is still up: the 256-row class through `SynthService::request` without
/// the wire, and two callers at once, which the engine coalesces. Returns
/// the in-process median latency in milliseconds.
pub fn serve_engine(
    service: &Arc<SynthService>,
    seed: u64,
    synth: &Synthesizer,
    shards: &[Table],
    out: &mut Outcome,
) -> f64 {
    let mut stream = RequestStream::new(seed, synth, shards);
    let mut next_256 = move || loop {
        let req = stream.next();
        if req.n == 256 {
            return req.rows_request();
        }
    };
    let mut failed = 0u64;
    let p50_ms = probe("serve.engine.request", || {
        failed += u64::from(service.request(&next_256()).is_err());
    }) * 1e3;
    out.set("serve.engine.request_p50_ms", p50_ms);

    const PER_CALLER: usize = 100;
    let began = Instant::now();
    let errors: u64 = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2u64)
            .map(|c| {
                scope.spawn(move || {
                    (0..PER_CALLER as u64)
                        .filter(|i| {
                            let seed = (seed << 24) + c * 1_000_003 + i;
                            let req = Request { n: 256, seed, cond: None };
                            service.request(&req.rows_request()).is_err()
                        })
                        .count() as u64
                })
            })
            .collect();
        callers.into_iter().map(|h| h.join().unwrap_or(PER_CALLER as u64)).sum()
    });
    out.set(
        "serve.engine.coalesced_rows_per_s",
        (2 * PER_CALLER * 256) as f64 / began.elapsed().as_secs_f64(),
    );
    out.attempted += 1;
    if failed + errors > 0 {
        out.failed += 1;
        out.failures.push(format!("{} in-process probe requests failed", failed + errors));
    }
    p50_ms
}
