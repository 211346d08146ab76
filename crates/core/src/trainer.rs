//! The GTV training orchestration (Algorithm 1).
//!
//! Every training step builds one autograd graph spanning the simulated
//! parties, while every tensor that crosses a party boundary is also routed
//! through the byte-metered [`Network`] as a wire message — so the training
//! math is exactly the WGAN-GP objective of the paper *and* the message
//! trace (what each party can observe) is the protocol's. The server-side
//! [`ServerObserver`] accumulates precisely the `(CV, idx_p)` pairs a
//! semi-honest server sees, powering the Fig. 5/6 reconstruction analysis.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::config::{GtvConfig, IndexSharing};
use crate::discriminator::SplitDiscriminator;
use crate::generator::SplitGenerator;
use crate::privacy::{column_truths, ClientIndexObserver, ColumnTruth, ServerObserver};
use crate::synth::{draw_constructor, Generation};
use crate::SynthSpec;
use gtv_cond::{ClientCondSampler, CondChoice, CondLayout};
use gtv_data::Table;
use gtv_encoders::TableTransformer;
use gtv_nn::{Adam, Ctx};
use gtv_tensor::{Graph, Tensor, Var};
use gtv_vfl::{
    negotiate_seed, DenseFrame, MatrixPayload, Message, NetStats, Network, PartyId, SharedShuffler,
    Transport, TransportError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-step loss history.
#[derive(Debug, Clone, Default)]
pub struct TrainHistory {
    /// Discriminator (critic) loss per `D` step.
    pub d_loss: Vec<f32>,
    /// Generator loss per `G` step.
    pub g_loss: Vec<f32>,
}

/// End-of-step allocation snapshot, recorded at the end of every training
/// step; [`GtvTrainer::alloc_stats`] holds those of the most recent round.
/// Pool counters are *cumulative* for the calling thread; per-step deltas
/// are differences between consecutive entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepAllocStats {
    /// Autograd nodes alive at the end of the step, released by
    /// [`Graph::reset`]. A growing value across identical steps is a leak.
    pub live_nodes: usize,
    /// Cumulative buffer-pool hits (requests served from recycled storage).
    pub pool_hits: u64,
    /// Cumulative buffer-pool misses (requests that hit the allocator).
    pub pool_misses: u64,
    /// Cumulative bytes requested from the pool.
    pub bytes_requested: u64,
    /// Cumulative byte-pool hits (wire frames, encode targets and matmul
    /// row flags served from recycled storage).
    pub byte_hits: u64,
    /// Cumulative byte-pool misses.
    pub byte_misses: u64,
}

struct ClientState {
    /// The raw local table as it was handed in — initial row order, the
    /// only copy. The end-of-round shuffle never moves it.
    table: Table,
    transformer: TableTransformer,
    /// The encoded table — initial row order too, the only copy. A step
    /// gathers the rows `current_to_initial[idx_p]` from it, or all of
    /// `current_to_initial` where the whole table is uploaded.
    encoded: Tensor,
    rng: StdRng,
}

struct CondRound {
    p: usize,
    choices: Vec<CondChoice>,
    indices: Vec<usize>,
    cv: Tensor,
}

/// The GTV trainer: a trusted-third-party server, `N` clients holding
/// vertically-partitioned columns, and the split GAN of the paper.
///
/// # Examples
///
/// ```no_run
/// use gtv::{GtvConfig, GtvTrainer};
/// use gtv_data::Dataset;
///
/// let table = Dataset::Loan.generate(500, 0);
/// let n = table.n_cols();
/// let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
/// let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
/// trainer.train().expect("transport is healthy");
/// let synthetic = trainer.synthesize(200, 1).expect("transport is healthy");
/// assert_eq!(synthetic.n_rows(), 200);
/// ```
///
/// The trainer is generic over its [`Transport`]: [`GtvTrainer::new`] runs
/// over a [`Network`] whose every party is local, while
/// [`GtvTrainer::with_transport`] accepts any transport — e.g. a
/// [`Network::connect`]ed one whose client parties are separate OS
/// processes. The protocol choreography (and therefore the byte trace) is
/// identical either way.
pub struct GtvTrainer<T: Transport = Network> {
    config: GtvConfig,
    clients: Vec<ClientState>,
    generator: SplitGenerator,
    discriminator: SplitDiscriminator,
    g_opt: Adam,
    d_opt: Adam,
    network: T,
    shuffler: SharedShuffler,
    /// Each client's conditional sampler (`None` without a categorical
    /// column), built once from the client's table as loaded: it draws
    /// rows as loaded, whatever the shuffles since.
    samplers: Vec<Option<ClientCondSampler>>,
    layout: CondLayout,
    ratios: Vec<f64>,
    observer: ServerObserver,
    client_observers: Vec<ClientIndexObserver>,
    /// Maps current row positions to initial row ids (tracks the shared
    /// shuffle, which every client knows).
    current_to_initial: Vec<usize>,
    /// The inverse of `current_to_initial`: the current position of each
    /// row as loaded. Client `p` announces a drawn row at this position.
    initial_to_current: Vec<usize>,
    /// The buffer the next `current_to_initial` is composed in; it holds
    /// the previous order between rounds.
    next_order: Vec<usize>,
    shuffling_enabled: bool,
    history: TrainHistory,
    alloc_history: Vec<StepAllocStats>,
    n_rows: usize,
    round: u64,
    step: u64,
    rng: StdRng,
}

impl<T: Transport> std::fmt::Debug for GtvTrainer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GtvTrainer({} clients, partition {}, round {}/{})",
            self.clients.len(),
            self.config.partition,
            self.round,
            self.config.rounds
        )
    }
}

/// The wire payload of a tensor, copied once into pooled storage: the
/// transport parks it again once the message is encoded (DESIGN.md §9).
fn payload_of(t: &Tensor) -> MatrixPayload {
    let mut data = gtv_tensor::pool_mem::take(t.len());
    data.extend_from_slice(t.as_slice());
    MatrixPayload::new(t.rows() as u32, t.cols() as u32, data)
}

/// The wire payload of a graph node's value, copied once (straight from the
/// node, not through a clone of it).
fn payload_of_var(g: &Graph, v: Var) -> MatrixPayload {
    g.with_value(v, payload_of)
}

impl GtvTrainer {
    /// Creates an in-process trainer from the clients' (row-aligned) local
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, row counts differ, or any table is
    /// empty.
    #[expect(
        clippy::expect_used,
        reason = "fresh in-process network, all inboxes open, no faults armed yet"
    )]
    pub fn new(tables: Vec<Table>, config: GtvConfig) -> Self {
        let network = Network::new(tables.len());
        Self::with_transport(tables, config, network).expect("seed negotiation on a fresh network")
    }
}

impl<T: Transport> GtvTrainer<T> {
    /// Creates a trainer over an arbitrary [`Transport`] — the distributed
    /// entry point. With a [`Network::connect`]ed network, the client
    /// parties' inboxes live in other OS processes and every protocol
    /// message to or from them genuinely crosses a socket.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransportError`] from the construction-time
    /// shuffle-seed negotiation (e.g. a party that is unreachable or
    /// disconnects during the exchange).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, row counts differ, or any table is
    /// empty.
    pub fn with_transport(
        tables: Vec<Table>,
        config: GtvConfig,
        network: T,
    ) -> Result<Self, TransportError> {
        assert!(!tables.is_empty(), "need at least one client table");
        // Size the tensor worker pool before any hot-loop work; results are
        // bit-identical for every thread count (DESIGN.md §8).
        gtv_tensor::pool::set_threads(gtv_tensor::pool::resolve_threads(config.threads));
        let n_rows = tables[0].n_rows();
        assert!(n_rows > 0, "client tables must be non-empty");
        assert!(
            tables.iter().all(|t| t.n_rows() == n_rows),
            "client tables must be row-aligned (same row count)"
        );
        let n_clients = tables.len();
        #[expect(clippy::disallowed_methods, reason = "`config.seed`")]
        let mut rng = StdRng::seed_from_u64(config.seed);
        let total_cols: usize = tables.iter().map(Table::n_cols).sum();
        let ratios: Vec<f64> =
            tables.iter().map(|t| t.n_cols() as f64 / total_cols as f64).collect();

        // Clients encode their local columns (Algorithm 1, step 1), each on
        // a thread of its own: a fit, an encode and a sampler are functions
        // of the client's table and seed only (DESIGN.md §8).
        let fitted = gtv_tensor::pool::run_per_party(tables, |i, table| {
            let transformer =
                TableTransformer::fit(&table, config.max_modes, config.seed.wrapping_add(i as u64));
            let encoded = transformer.encode(&table, config.seed.wrapping_add(1000 + i as u64));
            let sampler = ClientCondSampler::from_table(&table);
            (table, transformer, encoded, sampler)
        });
        let mut clients = Vec::with_capacity(n_clients);
        let mut samplers = Vec::with_capacity(n_clients);
        for (i, (table, transformer, encoded, sampler)) in fitted.into_iter().enumerate() {
            samplers.push(sampler);
            clients.push(ClientState {
                table,
                transformer,
                encoded,
                #[expect(clippy::disallowed_methods, reason = "`config.seed`, offset per client")]
                rng: StdRng::seed_from_u64(config.seed.wrapping_add(2000 + i as u64)),
            });
        }

        let layout = CondLayout::new(
            samplers.iter().map(|s| s.as_ref().map_or(0, ClientCondSampler::width)).collect(),
        );
        let client_widths: Vec<usize> = clients.iter().map(|c| c.transformer.width()).collect();
        let client_spans: Vec<Vec<gtv_encoders::Span>> =
            clients.iter().map(|c| c.transformer.spans()).collect();

        let g_input = config.embedding_dim + layout.total_width();
        let generator =
            SplitGenerator::new(&config, g_input, &ratios, &client_widths, client_spans, &mut rng);
        let discriminator = SplitDiscriminator::new(
            &config,
            &client_widths,
            &ratios,
            layout.total_width(),
            &mut rng,
        );

        let g_opt = Adam::new(gtv_nn::Module::params(&generator), config.adam);
        let d_opt = Adam::new(gtv_nn::Module::params(&discriminator), config.adam);

        // Clients negotiate the shared shuffle seed peer-to-peer; the server
        // never observes it (§3.1.5).
        let shuffler = negotiate_seed(&network, n_clients, config.seed.wrapping_add(7))?[0];

        let observer = ServerObserver::new(n_rows, layout.total_width());
        let client_observers = (0..n_clients).map(|_| ClientIndexObserver::new(n_rows)).collect();
        Ok(Self {
            config,
            clients,
            generator,
            discriminator,
            g_opt,
            d_opt,
            network,
            shuffler,
            samplers,
            layout,
            ratios,
            observer,
            client_observers,
            current_to_initial: (0..n_rows).collect(),
            initial_to_current: (0..n_rows).collect(),
            next_order: Vec::with_capacity(n_rows),
            shuffling_enabled: true,
            history: TrainHistory::default(),
            alloc_history: Vec::new(),
            n_rows,
            round: 0,
            step: 0,
            rng,
        })
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// The run configuration.
    pub fn config(&self) -> &GtvConfig {
        &self.config
    }

    /// The metered transport (inspect traffic with [`Transport::stats`]).
    pub fn network(&self) -> &T {
        &self.network
    }

    /// Traffic counters so far.
    pub fn network_stats(&self) -> NetStats {
        self.network.stats()
    }

    /// The server's accumulated `(CV, idx)` observations.
    pub fn observer(&self) -> &ServerObserver {
        &self.observer
    }

    /// What each curious client accumulated from the peer-to-peer index
    /// stream (§3.1.6; empty counts under the default server-side sharing).
    pub fn client_index_observers(&self) -> &[ClientIndexObserver] {
        &self.client_observers
    }

    /// Per-step loss history.
    pub fn history(&self) -> &TrainHistory {
        &self.history
    }

    /// Allocation snapshots of the most recent round's steps: its
    /// `d_steps` D-steps, then its G-step (empty before the first round).
    pub fn alloc_stats(&self) -> &[StepAllocStats] {
        &self.alloc_history
    }

    /// End-of-step bookkeeping: snapshot the allocation counters, then
    /// return the step's graph storage — leaves included — and its
    /// conditional vector, the decoded upload at the server, to the
    /// recycling pool (DESIGN.md §9).
    fn finish_step(&mut self, g: &Graph, cond: Option<CondRound>) {
        let s = gtv_tensor::pool_mem::stats();
        self.alloc_history.push(StepAllocStats {
            live_nodes: g.len(),
            pool_hits: s.hits,
            pool_misses: s.misses,
            bytes_requested: s.bytes_requested,
            byte_hits: s.byte_hits,
            byte_misses: s.byte_misses,
        });
        g.reset();
        if let Some(c) = cond {
            c.cv.recycle();
        }
    }

    /// The global conditional-vector layout.
    pub fn cond_layout(&self) -> &CondLayout {
        &self.layout
    }

    /// Ground truth (in initial row order) for the reconstruction analysis.
    pub fn column_truths(&self) -> Vec<ColumnTruth> {
        column_truths(self.clients.iter().map(|c| &c.table), &self.layout)
    }

    /// Enables/disables *training-with-shuffling* (enabled by default;
    /// disabling reproduces the Fig. 5 vulnerability).
    pub fn set_shuffling(&mut self, enabled: bool) {
        self.shuffling_enabled = enabled;
    }

    /// Sends one message and pops it at the recipient, checking the popped
    /// variant matches what was sent — a stray message in the inbox surfaces
    /// as [`TransportError::ProtocolViolation`] instead of being consumed as
    /// an ack.
    fn route(&self, from: PartyId, to: PartyId, msg: Message) -> Result<Message, TransportError> {
        let expected = msg.kind();
        self.network.send(from, to, msg)?;
        Ok(self.network.recv_expect(to, expected)?.1)
    }

    /// One server→clients fan-out phase (DESIGN.md §10): every message is
    /// sent first ([`Transport::send_all`]; [`Network`] encodes the payloads
    /// concurrently on the tensor worker pool, then delivers them to local
    /// channels or remote nodes alike), then every recipient pops its
    /// delivery ([`Transport::recv_each`]; [`Network`] has the remote pops in
    /// flight together) and its payload goes back to the tensor pool.
    /// Takes the network rather than `self`, so a caller can keep borrowing
    /// one client's state across the fan-out.
    fn dispatch(network: &T, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        let expects: Vec<(PartyId, &'static str)> =
            msgs.iter().map(|&(_, to, ref m)| (to, m.kind())).collect();
        network.send_all(msgs)?;
        for (_, msg) in network.recv_each(&expects)? {
            msg.recycle();
        }
        Ok(())
    }

    /// One clients→server fan-in phase (DESIGN.md §10): every upload is sent
    /// first, then the receiver gathers the replies in fixed sender order
    /// regardless of arrival order.
    fn fan_in(
        &self,
        msgs: Vec<(PartyId, PartyId, Message)>,
        expected: &'static str,
    ) -> Result<Vec<Message>, TransportError> {
        let senders: Vec<PartyId> = msgs.iter().map(|&(from, _, _)| from).collect();
        let at = msgs.first().map_or(PartyId::Server, |&(_, to, _)| to);
        self.network.send_all(msgs)?;
        self.network.gather(at, &senders, expected)
    }

    /// Steps 4/18 of Algorithm 1: CV construction by the selected client,
    /// upload of `(CV_p, idx_p)` to the server.
    ///
    /// Client `p`'s sampler draws rows as loaded; `idx_p` announces each at
    /// its current position (`initial_to_current`), the position the server
    /// and the other clients index the shuffled tables by.
    fn sample_condition(&mut self) -> Result<Option<CondRound>, TransportError> {
        let n_clients = self.clients.len();
        // Server-side selection of `p` among clients that own categorical
        // columns; the chosen client's sampler and stream come with it.
        let eligible =
            self.samplers.iter().zip(&mut self.clients).zip(&self.ratios).enumerate().filter_map(
                |(i, ((sampler, client), &ratio))| {
                    sampler.as_ref().map(|s| (ratio, (i, s, &mut client.rng)))
                },
            );
        let Some((p, sampler, client_rng)) = draw_constructor(eligible.collect(), &mut self.rng)
        else {
            return Ok(None);
        };
        // Server notifies every client of the round and the selected
        // constructor (one fan-out phase).
        let round_start: Vec<(PartyId, PartyId, Message)> = (0..n_clients)
            .map(|i| {
                (
                    PartyId::Server,
                    PartyId::Client(i),
                    Message::RoundStart { round: self.step, selected: p as u32 },
                )
            })
            .collect();
        Self::dispatch(&self.network, round_start)?;
        let cond = sampler.sample_batch(self.config.batch, client_rng);
        let cv =
            sampler.materialize(&cond.choices, self.layout.offset(p), self.layout.total_width());
        let indices_u32: Vec<u32> =
            cond.row_indices.iter().map(|&row| self.initial_to_current[row] as u32).collect();
        match self.config.index_sharing {
            IndexSharing::Server => {
                // idx_p is shared only between client p and the server
                // (§3.1.4).
                let upload = Message::CondUpload { cv: payload_of(&cv), indices: indices_u32 };
                cv.recycle();
                let delivered = self.route(PartyId::Client(p), PartyId::Server, upload)?;
                let (cv_recv, indices) = match delivered {
                    Message::CondUpload { cv, indices } => (cv, indices),
                    got => {
                        return Err(TransportError::UnexpectedMessage {
                            from: PartyId::Client(p),
                            context: "conditional-vector upload",
                            got,
                        })
                    }
                };
                // The server records what it just observed (the attack
                // surface of Fig. 5).
                let (rows, cols) = (cv_recv.rows as usize, cv_recv.cols as usize);
                let cv = Tensor::from_vec(rows, cols, cv_recv.into_values());
                #[expect(
                    clippy::expect_used,
                    reason = "materialize() writes exactly one 1.0 per row, and f32 values round-trip bit-exactly through the wire"
                )]
                let bits: Vec<usize> = (0..cv.rows())
                    .map(|r| {
                        cv.row_slice(r)
                            .iter()
                            .position(|&v| v == 1.0)
                            .expect("conditional vector row must have a hot bit")
                    })
                    .collect();
                self.observer.record(&indices, &bits);
                Ok(Some(CondRound {
                    p,
                    choices: cond.choices,
                    indices: indices.iter().map(|&i| i as usize).collect(),
                    cv,
                }))
            }
            IndexSharing::PeerToPeer => {
                // The rejected alternative (§3.1.6): the CV still goes to
                // the server (it feeds D^s), but the indices go peer-to-peer
                // so clients can select rows locally.
                self.route(
                    PartyId::Client(p),
                    PartyId::Server,
                    Message::CondUpload { cv: payload_of(&cv), indices: Vec::new() },
                )?
                .recycle();
                for j in 0..self.clients.len() {
                    if j == p {
                        continue;
                    }
                    let delivered = self.route(
                        PartyId::Client(p),
                        PartyId::Client(j),
                        Message::IndexShare { indices: indices_u32.clone() },
                    )?;
                    let indices = match delivered {
                        Message::IndexShare { indices } => indices,
                        got => {
                            return Err(TransportError::UnexpectedMessage {
                                from: PartyId::Client(p),
                                context: "peer-to-peer index sharing",
                                got,
                            })
                        }
                    };
                    // A curious client maps the indices back to individuals
                    // (it knows every shared shuffle) and mines frequencies.
                    let initial: Vec<usize> =
                        indices.iter().map(|&i| self.current_to_initial[i as usize]).collect();
                    self.client_observers[j].record(&initial);
                }
                let indices = indices_u32.iter().map(|&i| i as usize).collect();
                Ok(Some(CondRound { p, choices: cond.choices, indices, cv }))
            }
        }
    }

    /// Synthetic forward pass shared by both phases: noise + CV through
    /// `G^t`, `Split`, per-client `G_i^b` and `D_i^b`. Returns
    /// `(slices, head_logits, activations, synth_d_logits)`.
    #[expect(
        clippy::type_complexity,
        reason = "the 4-tuple mirrors Algorithm 1's named intermediates; a struct would be used once"
    )]
    fn synthetic_path(
        &mut self,
        g: &Graph,
        ctx: &Ctx<'_>,
        cv: Option<&Tensor>,
        batch: usize,
        detach_for_d: bool,
    ) -> Result<(Vec<Var>, Vec<Var>, Vec<Var>, Vec<Var>), TransportError> {
        let z = Tensor::randn(batch, self.config.embedding_dim, &mut self.rng);
        let g_in = match cv {
            Some(cv) => {
                let g_in = Tensor::concat_cols(&[&z, cv]);
                z.recycle();
                g_in
            }
            None => z,
        };
        let g_in = g.leaf(g_in);
        let slices = self.generator.top_forward(ctx, g_in);
        // Phase 1: the server fans out every client's `G^t` slice before any
        // client replies (DESIGN.md §10).
        let gen_slices: Vec<(PartyId, PartyId, Message)> = (0..self.clients.len())
            .map(|i| {
                (
                    PartyId::Server,
                    PartyId::Client(i),
                    Message::GenSlice(payload_of_var(g, slices[i])),
                )
            })
            .collect();
        Self::dispatch(&self.network, gen_slices)?;
        // Phase 2: clients run `G_i^b` and `D_i^b` in fixed party order and
        // upload their logits; the server consumes the uploads in that same
        // order.
        let mut head_logits = Vec::with_capacity(self.clients.len());
        let mut activations = Vec::with_capacity(self.clients.len());
        let mut d_logits = Vec::with_capacity(self.clients.len());
        let mut uploads: Vec<(PartyId, PartyId, Message)> = Vec::with_capacity(self.clients.len());
        #[expect(clippy::needless_range_loop, reason = "i is the client/protocol id")]
        for i in 0..self.clients.len() {
            let (logits, act) = self.generator.client_forward(ctx, i, slices[i]);
            let act_for_d = if detach_for_d { g.detach(act) } else { act };
            let dl = self.discriminator.client_forward(ctx, i, act_for_d);
            let dl = self.apply_dp_noise(g, dl);
            uploads.push((
                PartyId::Client(i),
                PartyId::Server,
                Message::SynthLogits(payload_of_var(g, dl)),
            ));
            head_logits.push(logits);
            activations.push(act_for_d);
            d_logits.push(dl);
        }
        // The server works on the graph nodes; the popped copies go back to
        // the pool.
        self.fan_in(uploads, "SynthLogits")?.into_iter().for_each(Message::recycle);
        Ok((slices, head_logits, activations, d_logits))
    }

    /// §3.3 protection knob: the Gaussian noise for a `rows × cols` upload,
    /// `None` when it is off.
    fn dp_noise(&mut self, rows: usize, cols: usize) -> Option<Tensor> {
        let sigma = self.config.dp_noise_sigma;
        (sigma > 0.0).then(|| {
            let unit = Tensor::randn(rows, cols, &mut self.rng);
            let noise = unit.mul_scalar(sigma);
            unit.recycle();
            noise
        })
    }

    /// [`Self::dp_noise`] added to an uploaded logit matrix in the graph.
    fn apply_dp_noise(&mut self, g: &Graph, logits: Var) -> Var {
        let (rows, cols) = g.shape(logits);
        match self.dp_noise(rows, cols) {
            Some(noise) => g.add(logits, g.leaf(noise)),
            None => logits,
        }
    }

    /// One discriminator step (Algorithm 1 steps 3–16).
    fn d_step(&mut self) -> Result<(), TransportError> {
        let g = Graph::new();
        let ctx = Ctx::train(&g, self.config.seed.wrapping_add(self.step * 3 + 1));
        self.step += 1;
        let batch = self.config.batch;
        let cond = self.sample_condition()?;
        let cv_t = cond.as_ref().map(|c| &c.cv);

        let (_, _, fake_acts, synth_logits) = self.synthetic_path(&g, &ctx, cv_t, batch, true)?;
        let cv_fake = cv_t.map(|t| g.leaf(t.clone()));
        let y_fake = self.discriminator.server_forward(&ctx, &synth_logits, cv_fake);

        // Real path: all clients contribute rows idx_p (steps 9–14).
        let indices: Vec<usize> = match &cond {
            Some(c) => c.indices.clone(),
            None => (0..batch).map(|_| self.rng.gen_range(0..self.n_rows)).collect(),
        };
        // `idx_p` names current (shuffled) positions; the rows behind them
        // are found through the composed shuffle, not in a re-ordered copy.
        let stored: Vec<usize> = indices.iter().map(|&i| self.current_to_initial[i]).collect();
        let mut real_rows: Vec<Tensor> = Vec::with_capacity(self.clients.len());
        // A client's real-path node, or `None` where the server reads it out
        // of the client's upload.
        let mut real_nodes: Vec<Option<Var>> = Vec::with_capacity(self.clients.len());
        let mut uploads: Vec<(PartyId, PartyId, Message)> = Vec::with_capacity(self.clients.len());
        // The whole-table uploads still to be written: each client's frame
        // and its noise.
        let mut whole_tables: Vec<(usize, DenseFrame, Option<Tensor>)> = Vec::new();
        for i in 0..self.clients.len() {
            let selected_rows = self.clients[i].encoded.select_rows(&stored);
            let is_p = cond.as_ref().is_none_or(|c| c.p == i);
            // In the peer-to-peer variant clients know idx_p and always
            // select locally; the full-table upload is the privacy price of
            // the server-side design only.
            let full_upload = self.config.faithful_real_path
                && !is_p
                && self.config.index_sharing == IndexSharing::Server;
            if full_upload && self.config.partition.d_bottom == 0 {
                // The client passes its *entire* table through D_i^b, in the
                // shared shuffled order, and the server selects the idx_p
                // rows. With no bottom blocks D_i^b is the identity, so the
                // upload is the table itself: its rows are written once,
                // straight into the message's wire frame, below. With DP
                // noise the noise is drawn here, for the whole table, as the
                // uploading client draws it, and each value is written noisy.
                // The frame is taken here too: the byte pool is the calling
                // thread's, and it is where the server parks the frame again.
                let width = self.clients[i].encoded.cols();
                let noise = self.dp_noise(self.n_rows, width);
                let frame = DenseFrame::new(Message::RealLogits, self.n_rows as u32, width as u32);
                whole_tables.push((i, frame, noise));
                real_nodes.push(None);
            } else if full_upload {
                // With bottom blocks the whole table goes through them —
                // dropout makes that forward differ from a forward of the
                // selected rows alone — and the server's node gathers the
                // idx_p rows of the table's logits node.
                let full = g.leaf(self.clients[i].encoded.select_rows(&self.current_to_initial));
                let logits_full = self.discriminator.client_forward(&ctx, i, full);
                let logits_full = self.apply_dp_noise(&g, logits_full);
                uploads.push((
                    PartyId::Client(i),
                    PartyId::Server,
                    Message::RealLogits(payload_of_var(&g, logits_full)),
                ));
                real_nodes.push(Some(g.select_rows(logits_full, &indices)));
            } else {
                let leaf = g.leaf(selected_rows.clone());
                let logits = self.discriminator.client_forward(&ctx, i, leaf);
                let logits = self.apply_dp_noise(&g, logits);
                uploads.push((
                    PartyId::Client(i),
                    PartyId::Server,
                    Message::RealLogits(payload_of_var(&g, logits)),
                ));
                real_nodes.push(Some(logits));
            }
            real_rows.push(selected_rows);
        }
        // Every uploading client writes its rows at once, each on a thread
        // of its own, as each would on its own machine; a client writes
        // only its own frame. The messages join the others in client order.
        let (clients, order) = (&self.clients, &self.current_to_initial);
        let written = gtv_tensor::pool::run_per_party(whole_tables, |_, (i, mut frame, noise)| {
            let encoded = &clients[i].encoded;
            match &noise {
                Some(noise) => {
                    for (r, &row) in order.iter().enumerate() {
                        frame.push_row_sum(encoded.row_slice(row), noise.row_slice(r));
                    }
                }
                None => {
                    for &row in order {
                        frame.push_row(encoded.row_slice(row));
                    }
                }
            }
            (i, frame, noise)
        });
        // On the caller, so the noise goes back to its pool. `written` is
        // in client order and `uploads` holds the other clients' messages
        // in client order, so each insert lands where the client's slot is.
        for (i, frame, noise) in written {
            if let Some(noise) = noise {
                noise.recycle();
            }
            uploads.insert(i, (PartyId::Client(i), PartyId::Server, frame.finish()));
        }
        // The server's node for a whole-table upload is a batch-sized leaf
        // of the idx_p rows it reads out of what it received — only those
        // rows are parsed. Every other upload it pops is parked unread: the
        // server works on the graph nodes.
        let delivered = self.fan_in(uploads, "RealLogits")?;
        let mut real_logits: Vec<Var> = Vec::with_capacity(self.clients.len());
        for (i, (node, msg)) in real_nodes.into_iter().zip(delivered).enumerate() {
            match (node, msg) {
                (Some(node), msg) => {
                    msg.recycle();
                    real_logits.push(node);
                }
                (None, Message::RealLogits(upload))
                    if upload.cols as usize == self.clients[i].encoded.cols() =>
                {
                    let rows = upload.gather_rows(&indices).map_err(TransportError::Decode)?;
                    let cols = upload.cols as usize;
                    upload.recycle();
                    real_logits.push(g.leaf(Tensor::from_vec(indices.len(), cols, rows)));
                }
                (None, got) => {
                    return Err(TransportError::UnexpectedMessage {
                        from: PartyId::Client(i),
                        context: "whole-table upload",
                        got,
                    })
                }
            }
        }
        let cv_real = cv_t.map(|t| g.leaf(t.clone()));
        let y_real = self.discriminator.server_forward(&ctx, &real_logits, cv_real);

        // WGAN-GP gradient penalty on interpolates (per client slice + CV).
        let eps = Tensor::rand_uniform(batch, 1, 0.0, 1.0, &mut self.rng);
        let one_minus = eps.map(|v| 1.0 - v);
        let mut hat_vars: Vec<Var> = Vec::with_capacity(self.clients.len());
        let mut hat_logits: Vec<Var> = Vec::with_capacity(self.clients.len());
        for i in 0..self.clients.len() {
            let hat = g.with_value(fake_acts[i], |fake| {
                let (real, fake) = (real_rows[i].mul(&eps), fake.mul(&one_minus));
                let hat = real.add(&fake);
                real.recycle();
                fake.recycle();
                hat
            });
            let hat_var = g.leaf(hat);
            hat_vars.push(hat_var);
            hat_logits.push(self.discriminator.client_forward(&ctx, i, hat_var));
        }
        let cv_hat = cv_t.map(|t| g.leaf(t.clone()));
        let y_hat = self.discriminator.server_forward(&ctx, &hat_logits, cv_hat);
        let mut gp_wrt = hat_vars.clone();
        if let Some(cvh) = cv_hat {
            gp_wrt.push(cvh);
        }
        let grads = g.grad(g.sum_all(y_hat), &gp_wrt);
        let gcat = g.concat_cols(&grads);
        let norm = g.l2_norm_rows(gcat, 1e-12);
        let penalty = g.mean_all(g.square(g.add_scalar(norm, -1.0)));

        let d_loss = {
            let mf = g.mean_all(y_fake);
            let mr = g.mean_all(y_real);
            let wass = g.sub(mf, mr);
            g.add(wass, g.mul_scalar(penalty, self.config.gp_lambda))
        };

        self.d_opt.zero_grad();
        // One backward pass over the critic's parameters only (the generator
        // is detached here and `g_opt` does not step): parameter grads + the
        // gradient messages that cross the server→client boundary. With no
        // bottom blocks (`d_bottom = 0`) no client owns a critic parameter,
        // so no boundary gradient is built or sent.
        let mut extras = Vec::new();
        if self.config.partition.d_bottom > 0 {
            extras.extend(synth_logits.iter().chain(&real_logits).copied());
        }
        let boundary_grads =
            ctx.binder().backprop_params(&g, d_loss, &self.d_opt.params(), &extras);
        if !boundary_grads.is_empty() {
            let grad_msgs: Vec<(PartyId, PartyId, Message)> = boundary_grads
                .iter()
                .enumerate()
                .map(|(i, gv)| {
                    (
                        PartyId::Server,
                        PartyId::Client(i % self.clients.len()),
                        Message::GradLogits(payload_of_var(&g, *gv)),
                    )
                })
                .collect();
            Self::dispatch(&self.network, grad_msgs)?;
        }
        self.d_opt.step();
        self.history.d_loss.push(g.value(d_loss).item());
        // The step's pooled tensors outside the graph go back with it.
        real_rows.into_iter().chain([eps, one_minus]).for_each(Tensor::recycle);
        self.finish_step(&g, cond);
        Ok(())
    }

    /// One generator step (Algorithm 1 steps 18–22).
    fn g_step(&mut self) -> Result<(), TransportError> {
        let g = Graph::new();
        let ctx = Ctx::train(&g, self.config.seed.wrapping_add(self.step * 3 + 2));
        self.step += 1;
        let batch = self.config.batch;
        let cond = self.sample_condition()?;
        let cv_t = cond.as_ref().map(|c| &c.cv);

        let (slices, head_logits, _, synth_logits) =
            self.synthetic_path(&g, &ctx, cv_t, batch, false)?;
        let cv_var = cv_t.map(|t| g.leaf(t.clone()));
        let y_fake = self.discriminator.server_forward(&ctx, &synth_logits, cv_var);
        let mut g_loss = g.neg(g.mean_all(y_fake));

        // CTGAN generator conditional loss: cross-entropy between the
        // conditioned one-hot span and the sampled category, on client p.
        if let Some(c) = &cond {
            let info = self.clients[c.p].transformer.categorical_info().to_vec();
            for col in &info {
                let mut mask = Tensor::zeros(batch, col.n_categories);
                let mut any = false;
                for (r, ch) in c.choices.iter().enumerate() {
                    if ch.column == col.column {
                        mask.set(r, ch.category, 1.0);
                        any = true;
                    }
                }
                if !any {
                    continue;
                }
                let span = g.slice_cols(head_logits[c.p], col.onehot_start, col.n_categories);
                let sm = g.softmax_rows(span);
                let lp = g.ln(g.add_scalar(sm, 1e-9));
                let ce = g.neg(g.sum_all(g.mul(g.leaf(mask), lp)));
                g_loss = g.add(g_loss, g.mul_scalar(ce, 1.0 / batch as f32));
            }
        }

        self.g_opt.zero_grad();
        // The loss reaches the generator *through* the critic, whose weights
        // `d_opt` does not step here: they are not differentiated.
        let boundary_grads =
            ctx.binder().backprop_params(&g, g_loss, &self.g_opt.params(), &slices);
        let grad_msgs: Vec<(PartyId, PartyId, Message)> = boundary_grads
            .iter()
            .enumerate()
            .map(|(i, gv)| {
                (
                    PartyId::Server,
                    PartyId::Client(i),
                    Message::GradGenSlice(payload_of_var(&g, *gv)),
                )
            })
            .collect();
        Self::dispatch(&self.network, grad_msgs)?;
        self.g_opt.step();
        self.history.g_loss.push(g.value(g_loss).item());
        self.finish_step(&g, cond);
        Ok(())
    }

    /// Step 23: every client shuffles its local data with the shared,
    /// server-hidden seed.
    ///
    /// The shuffle is an index, not a copy: nothing table-sized moves here,
    /// and nothing per column. The round's permutation is composed into
    /// `current_to_initial` (every client can track it — it applies it; the
    /// server cannot) and `initial_to_current` is rebuilt as its inverse,
    /// both in buffers the trainer keeps. The raw and the encoded tables
    /// stay in initial order, and so do the samplers: a draw is of a row as
    /// loaded, announced at its current position (`sample_condition`). The
    /// next round's steps read the encoded rows through the composed order
    /// (`d_step`): the `idx_p` rows, or — where a whole table is uploaded —
    /// all of them, gathered straight into the buffer that is uploaded.
    fn end_of_round_shuffle(&mut self) {
        if !self.shuffling_enabled {
            return;
        }
        let next = &mut self.next_order;
        self.shuffler.permutation_into(self.n_rows, self.round, next);
        for (position, row) in next.iter_mut().enumerate() {
            *row = self.current_to_initial[*row];
            self.initial_to_current[*row] = position;
        }
        std::mem::swap(&mut self.current_to_initial, next);
    }

    /// Runs one full round: `e` discriminator steps, one generator step and
    /// the end-of-round shuffle. The round's [`StepAllocStats`] replace the
    /// previous round's.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransportError`] hit by any protocol exchange
    /// (e.g. a dropped message under fault injection).
    pub fn train_round(&mut self) -> Result<(), TransportError> {
        self.network.begin_round(self.round);
        self.alloc_history.clear();
        for _ in 0..self.config.d_steps {
            self.d_step()?;
        }
        self.g_step()?;
        self.end_of_round_shuffle();
        self.round += 1;
        Ok(())
    }

    /// Runs `config.rounds` rounds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GtvTrainer::train_round`].
    pub fn train(&mut self) -> Result<(), TransportError> {
        for _ in 0..self.config.rounds {
            self.train_round()?;
        }
        Ok(())
    }

    /// Secure synthetic-data publication (§3.1.7): generates `n` rows
    /// through the one generation forward (the rows a [`crate::Synthesizer`]
    /// serves for `(n, seed)` with no fixed condition, and no serving row
    /// cap), decodes each client's share locally, applies the shared
    /// publication shuffle and publishes the shares. Returns one table per
    /// client (all row-aligned); `n == 0` publishes zero-row shares.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] if publishing a share to the public
    /// board fails.
    pub fn synthesize_shares(&self, n: usize, seed: u64) -> Result<Vec<Table>, TransportError> {
        let generation = Generation {
            generator: &self.generator,
            samplers: &self.samplers,
            layout: &self.layout,
            ratios: &self.ratios,
            embedding_dim: self.config.embedding_dim,
            chunk_rows: self.config.batch.max(1),
        };
        let outputs = generation.forward(&[SynthSpec { n, seed, cond: None }]);
        // Publication shuffle: shared among clients, unknown to the server.
        let perm = self.shuffler.permutation(n, u64::MAX ^ seed);
        let mut shares = Vec::with_capacity(self.clients.len());
        let mut publications: Vec<(PartyId, PartyId, Message)> =
            Vec::with_capacity(self.clients.len());
        for (i, joined) in outputs.into_iter().enumerate() {
            let matrix = joined.select_rows(&perm);
            joined.recycle();
            shares.push(self.clients[i].transformer.decode(&matrix));
            // The share moves into its message; the transport parks it.
            let (rows, cols) = matrix.shape();
            let payload = MatrixPayload::new(rows as u32, cols as u32, matrix.into_vec());
            publications.push((
                PartyId::Client(i),
                PartyId::Public,
                Message::SyntheticShare(payload),
            ));
        }
        Self::dispatch(&self.network, publications)?;
        Ok(shares)
    }

    /// Convenience: the horizontal concatenation of all published shares.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GtvTrainer::synthesize_shares`].
    pub fn synthesize(&self, n: usize, seed: u64) -> Result<Table, TransportError> {
        let shares = self.synthesize_shares(n, seed)?;
        let refs: Vec<&Table> = shares.iter().collect();
        Ok(Table::hconcat(&refs))
    }

    /// Exports every network weight (incl. batch-norm running statistics)
    /// as a named dictionary. Restoring requires a trainer built with the
    /// same tables, partition and config seed (the data-derived encoders are
    /// re-fit deterministically at construction).
    pub fn save_weights(&self) -> gtv_nn::StateDict {
        use gtv_nn::Stateful;
        let mut dict = gtv_nn::StateDict::new();
        self.generator.save_state(&mut dict);
        self.discriminator.save_state(&mut dict);
        dict
    }

    /// Extracts a transport-free [`crate::Synthesizer`] snapshot of the
    /// current generator: the serving unit the model registry caches. The
    /// generator weights are copied (via a state dict round-trip), so the
    /// trainer can keep training afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SynthError::Weights`] only if the rebuild disagrees
    /// with the saved state — impossible unless the architecture config
    /// mutated since construction.
    pub fn synthesizer(&self) -> Result<crate::Synthesizer, crate::SynthError> {
        use gtv_nn::Stateful;
        let mut dict = gtv_nn::StateDict::new();
        self.generator.save_state(&mut dict);
        let transformers = self.clients.iter().map(|c| c.transformer.clone()).collect();
        crate::Synthesizer::from_parts(
            &self.config,
            transformers,
            self.samplers.clone(),
            self.ratios.clone(),
            &dict,
        )
    }

    /// Restores weights exported by [`GtvTrainer::save_weights`].
    ///
    /// # Errors
    ///
    /// Returns an error if an entry is missing or shaped differently —
    /// typically a partition/width/client mismatch with the saving run.
    pub fn load_weights(&mut self, dict: &gtv_nn::StateDict) -> Result<(), gtv_nn::LoadStateError> {
        use gtv_nn::Stateful;
        self.generator.load_state(dict)?;
        self.discriminator.load_state(dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv_data::Dataset;
    use gtv_vfl::{Edge, RoundState, SeedShare};

    fn two_client_shards(rows: usize) -> Vec<Table> {
        let t = Dataset::Loan.generate(rows, 0);
        let n = t.n_cols();
        t.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()])
    }

    /// Two 50-row shards with no categorical column anywhere: no CV, no
    /// `D^s`, no conditional loss.
    fn continuous_shards() -> Vec<Table> {
        use gtv_data::{ColumnData, ColumnKind, ColumnMeta, Schema};
        let make = |names: &[&str], seed: u64| {
            let metas = names.iter().map(|n| ColumnMeta::new(*n, ColumnKind::Continuous)).collect();
            let cols = names
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    ColumnData::Float(
                        (0..50)
                            .map(|r| ((r as f64) * 0.1 + i as f64 + seed as f64).sin())
                            .collect(),
                    )
                })
                .collect();
            Table::new(Schema::new(metas, None), cols)
        };
        vec![make(&["x1", "x2"], 0), make(&["y1", "y2", "y3"], 1)]
    }

    #[test]
    fn trainer_runs_a_round_and_synthesizes() {
        let shards = two_client_shards(120);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer.train_round().unwrap();
        assert_eq!(trainer.history().d_loss.len(), 1);
        assert_eq!(trainer.history().g_loss.len(), 1);
        let synth = trainer.synthesize(50, 9).unwrap();
        assert_eq!(synth.n_rows(), 50);
        assert_eq!(synth.n_cols(), 13);
    }

    #[test]
    fn all_nine_partitions_train() {
        for partition in crate::NetPartition::all_nine() {
            let shards = two_client_shards(60);
            let config = GtvConfig { partition, ..GtvConfig::smoke() };
            let mut trainer = GtvTrainer::new(shards, config);
            trainer.train_round().unwrap();
            let shares = trainer.synthesize_shares(10, 0).unwrap();
            assert_eq!(shares.len(), 2, "{partition}");
            assert_eq!(shares[0].n_rows(), 10, "{partition}");
        }
    }

    #[test]
    fn traffic_is_metered_and_server_never_sees_seed() {
        let shards = two_client_shards(80);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        let before = trainer.network_stats();
        // Seed negotiation happened at construction, peer-to-peer only.
        assert_eq!(before.server_bytes(), 0);
        trainer.train_round().unwrap();
        let after = trainer.network_stats();
        assert!(after.server_bytes() > 0, "protocol traffic must be metered");
        assert!(after.messages > before.messages);
    }

    #[test]
    fn observer_accumulates_cv_index_pairs() {
        let shards = two_client_shards(80);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer.train_round().unwrap();
        // smoke config: 1 d_step + 1 g_step, each samples a condition batch.
        assert_eq!(trainer.observer().observations(), 2 * 32);
    }

    #[test]
    fn faithful_real_path_adds_exactly_the_unselected_rows_to_the_wire() {
        let (rows, batch) = (200, GtvConfig::smoke().batch);
        for (d_steps, rounds) in [(1, 3), (2, 1)] {
            let config = |faithful_real_path| GtvConfig {
                threads: 1,
                faithful_real_path,
                d_steps,
                ..GtvConfig::smoke()
            };
            let mut default = GtvTrainer::new(two_client_shards(rows), config(false));
            let network = Capturing::new(2);
            let mut faithful =
                GtvTrainer::with_transport(two_client_shards(rows), config(true), network).unwrap();
            for _ in 0..rounds {
                default.train_round().unwrap();
                faithful.train_round().unwrap();
            }
            // Every D-step, each client but the CV constructor uploads its
            // whole table where the default path uploads the batch:
            // (rows − batch) × width × 4 bytes more, everything else equal.
            let sent = faithful.network().real_logits.take();
            let steps = d_steps * rounds;
            assert_eq!(sent.len(), 2 * steps, "one upload per client and D-step");
            let mut whole_uploads = 0;
            let mut expected = 0;
            for (from, upload) in &sent {
                let PartyId::Client(j) = *from else { panic!("{from:?} uploaded real logits") };
                if upload.rows as usize == rows {
                    whole_uploads += 1;
                    expected += (rows - batch) * faithful.clients[j].transformer.width() * 4;
                }
            }
            assert_eq!(whole_uploads, steps, "one uploading client per D-step");
            let extra = faithful.network_stats().bytes - default.network_stats().bytes;
            assert_eq!(extra, expected as u64, "d_steps = {d_steps}");
            if d_steps == 1 {
                // The three rounds of `tests/step_work.rs`: 171 786 − 114 666.
                assert_eq!(extra, 57_120);
            }
        }
    }

    #[test]
    fn three_clients_supported() {
        let t = Dataset::Loan.generate(90, 0);
        let shards =
            t.vertical_split(&[(0..4).collect(), (4..8).collect(), (8..t.n_cols()).collect()]);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer.train_round().unwrap();
        let synth = trainer.synthesize(20, 0).unwrap();
        assert_eq!(synth.n_cols(), 13);
    }

    #[test]
    fn dp_noise_changes_training_but_runs() {
        let shards = two_client_shards(80);
        let mut clean = GtvTrainer::new(shards.clone(), GtvConfig::smoke());
        clean.train_round().unwrap();
        let mut noisy =
            GtvTrainer::new(shards, GtvConfig { dp_noise_sigma: 0.5, ..GtvConfig::smoke() });
        noisy.train_round().unwrap();
        assert_ne!(
            clean.history().d_loss,
            noisy.history().d_loss,
            "DP noise must perturb the loss trajectory"
        );
    }

    #[test]
    fn p2p_mode_keeps_indices_from_server_but_leaks_to_clients() {
        let shards = two_client_shards(100);
        let config = GtvConfig {
            index_sharing: crate::IndexSharing::PeerToPeer,
            rounds: 10,
            ..GtvConfig::smoke()
        };
        let mut t = GtvTrainer::new(shards, config);
        t.train().unwrap();
        // Server saw CVs but no indices → its reconstruction has nothing.
        assert_eq!(t.observer().observations(), 0);
        // At least one client accumulated the index stream.
        let total: u64 = t.client_index_observers().iter().map(|o| o.observations()).sum();
        assert!(total > 0, "peer-to-peer sharing must feed client observers");
    }

    #[test]
    fn client_width_multipliers_change_model_shape() {
        let shards = two_client_shards(60);
        let config = GtvConfig { client_width_multipliers: vec![1.0, 3.0], ..GtvConfig::smoke() };
        let mut boosted = GtvTrainer::new(shards, config);
        boosted.train_round().unwrap();
        let synth = boosted.synthesize(10, 0).unwrap();
        assert_eq!(synth.n_cols(), 13);
    }

    #[test]
    #[should_panic(expected = "one width multiplier per client")]
    fn width_multipliers_must_match_client_count() {
        let shards = two_client_shards(40);
        let config = GtvConfig { client_width_multipliers: vec![2.0], ..GtvConfig::smoke() };
        let _ = GtvTrainer::new(shards, config);
    }

    #[test]
    fn pure_continuous_tables_train_unconditioned() {
        let mut t = GtvTrainer::new(continuous_shards(), GtvConfig::smoke());
        t.train().unwrap();
        assert_eq!(t.observer().observations(), 0, "no conditions can be observed");
        let synth = t.synthesize(20, 0).unwrap();
        assert_eq!(synth.n_cols(), 5);
        assert_eq!(synth.n_rows(), 20);
    }

    #[test]
    fn weights_roundtrip_reproduces_synthesis() {
        let shards = two_client_shards(80);
        let mut a = GtvTrainer::new(shards.clone(), GtvConfig::smoke());
        a.train().unwrap();
        let dict = a.save_weights();
        assert!(dict.len() > 10, "dict should hold every layer");
        // A fresh trainer with the same construction seed but untrained
        // weights produces different output until the weights are loaded.
        let mut b = GtvTrainer::new(shards, GtvConfig::smoke());
        assert_ne!(a.synthesize(20, 5).unwrap(), b.synthesize(20, 5).unwrap());
        b.load_weights(&dict).unwrap();
        assert_eq!(a.synthesize(20, 5).unwrap(), b.synthesize(20, 5).unwrap());
    }

    #[test]
    fn load_weights_rejects_mismatched_partition() {
        let shards = two_client_shards(60);
        let a = GtvTrainer::new(shards.clone(), GtvConfig::smoke());
        let dict = a.save_weights();
        let mut b = GtvTrainer::new(
            shards,
            GtvConfig { partition: crate::NetPartition::d2g2(), ..GtvConfig::smoke() },
        );
        assert!(b.load_weights(&dict).is_err());
    }

    #[test]
    fn stray_inbox_message_surfaces_as_protocol_violation() {
        // Regression: acks used to be consumed blind (`let _ = recv(..)`),
        // so a desynchronized peer's stray message silently vanished. It
        // must now fail the protocol step that noticed it.
        let shards = two_client_shards(60);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        trainer
            .network()
            .send(
                PartyId::Client(1),
                PartyId::Client(0),
                Message::ShuffleSeedShare { share: SeedShare::from(99) },
            )
            .unwrap();
        let err = trainer.train_round().unwrap_err();
        match err {
            TransportError::ProtocolViolation { expected, got, .. } => {
                assert_eq!(expected, "RoundStart");
                assert_eq!(got, Message::ShuffleSeedShare { share: SeedShare::from(99) });
            }
            other => panic!("expected ProtocolViolation, got {other:?}"),
        }
    }

    #[test]
    fn each_step_differentiates_only_the_network_it_trains() {
        use gtv_nn::Module;
        let all_zero = |params: Vec<gtv_nn::Param>| {
            params.iter().all(|p| p.grad().as_slice().iter().all(|&v| v == 0.0))
        };
        let touched = |params: Vec<gtv_nn::Param>| {
            params.iter().any(|p| p.grad().as_slice().iter().any(|&v| v != 0.0))
        };
        // A G-step reaches the generator through the critic and must leave
        // no gradient on the critic's weights …
        let mut t = GtvTrainer::new(two_client_shards(80), GtvConfig::smoke());
        t.g_step().unwrap();
        assert!(touched(t.generator.params()));
        assert!(all_zero(t.discriminator.params()), "G-step wrote a critic gradient");
        // … and a D-step, which detaches the generator, none on its.
        let mut t = GtvTrainer::new(two_client_shards(80), GtvConfig::smoke());
        t.d_step().unwrap();
        assert!(touched(t.discriminator.params()));
        assert!(all_zero(t.generator.params()), "D-step wrote a generator gradient");
    }

    #[test]
    fn composed_index_is_the_table_shuffled_round_by_round() {
        for faithful_real_path in [false, true] {
            let shards = two_client_shards(90);
            let config = GtvConfig { faithful_real_path, ..GtvConfig::smoke() };
            let mut t = GtvTrainer::new(shards.clone(), config);
            let encoded: Vec<Tensor> = t.clients.iter().map(|c| c.encoded.clone()).collect();
            // What each client would hold had it moved its table every round.
            let mut moved = shards.clone();
            for round in 0..3 {
                t.train_round().unwrap();
                let perm = t.shuffler.permutation(90, round);
                for table in &mut moved {
                    *table = table.select_rows(&perm);
                }
                for (i, client) in t.clients.iter().enumerate() {
                    assert_eq!(client.table, shards[i], "the raw table stays as loaded");
                    assert_eq!(shards[i].select_rows(&t.current_to_initial), moved[i]);
                    assert_eq!(t.samplers[i], ClientCondSampler::from_table(&shards[i]));
                    assert_eq!(client.encoded, encoded[i], "so does the encoded one");
                }
                for (position, &row) in t.current_to_initial.iter().enumerate() {
                    assert_eq!(t.initial_to_current[row], position, "round {round}");
                }
            }
            assert_ne!(t.current_to_initial, (0..90).collect::<Vec<_>>(), "rounds do shuffle");
        }
    }

    /// The client, local column and category behind a hot CV bit.
    fn hot_category<T: Transport>(t: &GtvTrainer<T>, bit: usize) -> (usize, usize, usize) {
        for (i, sampler) in t.samplers.iter().enumerate() {
            let Some(s) = sampler else { continue };
            for slot in 0..s.n_columns() {
                let first = t.layout.offset(i) + s.local_bit(slot, 0);
                if (first..first + s.categories_of_slot(slot)).contains(&bit) {
                    return (i, s.column_of_slot(slot), bit - first);
                }
            }
        }
        panic!("bit {bit} is no client's")
    }

    #[test]
    fn every_announced_index_names_a_row_of_its_category() {
        // Read through the order its round trains in, each `idx_p` must name
        // a row whose cell is the CV's hot category: on both real paths, and
        // whether the indices go to the server or to the other clients.
        for (faithful_real_path, index_sharing) in [
            (false, IndexSharing::Server),
            (true, IndexSharing::Server),
            (false, IndexSharing::PeerToPeer),
            (true, IndexSharing::PeerToPeer),
        ] {
            let what = format!("faithful_real_path = {faithful_real_path}, {index_sharing:?}");
            let shards = two_client_shards(90);
            let config = GtvConfig { faithful_real_path, index_sharing, ..GtvConfig::smoke() };
            let mut t =
                GtvTrainer::with_transport(shards.clone(), config, Capturing::new(2)).unwrap();
            for round in 0..6 {
                let order = t.current_to_initial.clone();
                t.train_round().unwrap();
                let conds = t.network().conds.take();
                assert_eq!(conds.len(), 2, "{what}: one CV per step");
                for (bits, indices) in conds {
                    assert_eq!(bits.len(), indices.len(), "{what}: one index per CV row");
                    for (&bit, &idx) in bits.iter().zip(&indices) {
                        let (client, column, category) = hot_category(&t, bit);
                        let cell = shards[client].column(column).as_cat()[order[idx as usize]];
                        assert_eq!(cell as usize, category, "{what}, round {round}: idx_p {idx}");
                    }
                }
            }
            assert_ne!(t.current_to_initial, (0..90).collect::<Vec<_>>(), "rounds do shuffle");
        }
    }

    /// One sent message as the round machine sees it: sender, recipient,
    /// kind and edge.
    type Sent = (PartyId, PartyId, &'static str, Edge);

    /// An in-process network that records every message it sends
    /// ([`Sent`]), keeps a copy of every `RealLogits` payload handed to it,
    /// with its sender, and each step's CV hot bits with the `idx_p` that
    /// went with them, to the server or to a peer — and, for
    /// `flip_rows: Some(n)`, flips one value of every `n`-row upload on its
    /// way: the first value of the row the step's first `idx_p` names.
    struct Capturing {
        inner: Network,
        trace: std::cell::RefCell<Vec<Sent>>,
        real_logits: std::cell::RefCell<Vec<(PartyId, MatrixPayload)>>,
        conds: std::cell::RefCell<Vec<(Vec<usize>, Vec<u32>)>>,
        flip_rows: Option<u32>,
        first_index: std::cell::Cell<usize>,
    }

    impl Capturing {
        fn new(n_clients: usize) -> Self {
            Self::flipping(n_clients, None)
        }

        fn flipping(n_clients: usize, flip_rows: Option<u32>) -> Self {
            Self {
                inner: Network::new(n_clients),
                trace: Default::default(),
                real_logits: Default::default(),
                conds: Default::default(),
                flip_rows,
                first_index: Default::default(),
            }
        }
    }

    impl Transport for Capturing {
        fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
            let msg = match msg {
                Message::CondUpload { ref cv, ref indices } => {
                    // Peer-to-peer, the upload carries no indices.
                    if let Some(&first) = indices.first() {
                        self.first_index.set(first as usize);
                    }
                    let values = cv.values();
                    let bits = values
                        .chunks_exact(cv.cols as usize)
                        .map(|row| row.iter().position(|&v| v == 1.0).unwrap())
                        .collect();
                    self.conds.borrow_mut().push((bits, indices.clone()));
                    msg
                }
                Message::IndexShare { ref indices } => {
                    // Every peer gets the same indices; keep the first copy.
                    if let Some((_, kept)) = self.conds.borrow_mut().last_mut() {
                        if kept.is_empty() {
                            kept.clone_from(indices);
                        }
                    }
                    msg
                }
                Message::RealLogits(m) if Some(m.rows) == self.flip_rows => {
                    let mut values = m.values().into_owned();
                    values[self.first_index.get() * m.cols as usize] += 1.0;
                    Message::RealLogits(MatrixPayload::new(m.rows, m.cols, values))
                }
                msg => msg,
            };
            if let Message::RealLogits(m) = &msg {
                self.real_logits.borrow_mut().push((from, m.clone()));
            }
            let (kind, edge) = (msg.kind(), msg.edge());
            self.inner.send(from, to, msg)?;
            self.trace.borrow_mut().push((from, to, kind, edge));
            Ok(())
        }
        fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
            self.inner.try_recv(party)
        }
        fn recv_timeout(
            &self,
            party: PartyId,
            timeout: std::time::Duration,
        ) -> Result<(PartyId, Message), TransportError> {
            self.inner.recv_timeout(party, timeout)
        }
        fn recv_timeout_bound(&self) -> std::time::Duration {
            self.inner.recv_timeout_bound()
        }
        fn set_recv_timeout(&self, timeout: std::time::Duration) {
            self.inner.set_recv_timeout(timeout);
        }
        fn begin_round(&self, round: u64) {
            self.inner.begin_round(round);
        }
        fn stats(&self) -> NetStats {
            self.inner.stats()
        }
        fn reset_stats(&self) {
            self.inner.reset_stats();
        }
    }

    /// Walks `trace` through the round machine from `Idle` and returns the
    /// state it ends in. A message of the kind just sent belongs to the same
    /// fan-out (or fan-in) and does not advance the state.
    fn walk(trace: &[Sent], what: &str) -> RoundState {
        let mut state = RoundState::Idle;
        let mut prev = None;
        for (i, &(from, to, kind, edge)) in trace.iter().enumerate() {
            if prev == Some(kind) {
                continue;
            }
            state = edge.next(state).unwrap_or_else(|| {
                panic!(
                    "{what}: message {i}, {kind} from {from} to {to}, cannot be sent in {state:?}"
                )
            });
            prev = Some(kind);
        }
        state
    }

    #[test]
    fn the_trainers_traffic_is_a_path_through_the_round_machine() {
        let mut kinds = std::collections::BTreeSet::new();
        let configs = [
            ("default", two_client_shards(90), GtvConfig::smoke()),
            (
                "faithful real path",
                two_client_shards(90),
                GtvConfig { faithful_real_path: true, ..GtvConfig::smoke() },
            ),
            (
                "peer-to-peer indices",
                two_client_shards(90),
                GtvConfig { index_sharing: IndexSharing::PeerToPeer, ..GtvConfig::smoke() },
            ),
            ("two D-steps", two_client_shards(90), GtvConfig { d_steps: 2, ..GtvConfig::smoke() }),
            ("pure continuous", continuous_shards(), GtvConfig::smoke()),
            // The others give no client a critic parameter, so only this
            // one sends `GradLogits`.
            (
                "critic bottom blocks",
                two_client_shards(90),
                GtvConfig { partition: crate::NetPartition::new(1, 1, 0, 2), ..GtvConfig::smoke() },
            ),
        ];
        for (name, shards, config) in configs {
            let mut t = GtvTrainer::with_transport(shards, config, Capturing::new(2)).unwrap();
            let mut check = |t: &GtvTrainer<Capturing>, phase: &str| {
                let trace = t.network().trace.take();
                let what = format!("{name}, {phase}");
                assert!(!trace.is_empty(), "{what}: nothing was sent");
                let end = walk(&trace, &what);
                assert!(end.closes_step(), "{what} ends mid-step, in {end:?}");
                kinds.extend(trace.iter().map(|&(_, _, kind, _)| kind));
            };
            check(&t, "seed negotiation");
            for _ in 0..2 {
                t.train_round().unwrap();
            }
            check(&t, "two rounds");
            t.synthesize_shares(10, 0).unwrap();
            check(&t, "publication");
        }
        let all = [
            "CondUpload",
            "GenSlice",
            "GradGenSlice",
            "GradLogits",
            "IndexShare",
            "RealLogits",
            "RoundStart",
            "ShuffleSeedShare",
            "SynthLogits",
            "SyntheticShare",
        ];
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), all, "every message kind is sent");
    }

    #[test]
    fn whole_table_uploads_carry_the_rows_in_current_order() {
        let config = GtvConfig { faithful_real_path: true, ..GtvConfig::smoke() };
        // `D_i^b` has no blocks in this partition, so the logits a client
        // uploads are its encoded rows themselves.
        assert_eq!(config.partition.d_bottom, 0);
        let network = Capturing::new(2);
        let mut t = GtvTrainer::with_transport(two_client_shards(90), config, network).unwrap();
        let encoded: Vec<Tensor> = t.clients.iter().map(|c| c.encoded.clone()).collect();
        for round in 0..3 {
            // The order the round trains in; its own shuffle comes last.
            let order = t.current_to_initial.clone();
            t.train_round().unwrap();
            let sent = t.network().real_logits.take();
            // One D-step, two clients: the selected one sends its batch, the
            // other its whole table.
            let whole: Vec<_> = sent.iter().filter(|(_, m)| m.rows == 90).collect();
            assert_eq!((sent.len(), whole.len()), (2, 1), "round {round}");
            let (from, upload) = whole[0];
            let PartyId::Client(i) = *from else { panic!("{from:?} uploaded real logits") };
            let width = upload.cols as usize;
            for (r, row) in upload.values().chunks_exact(width).enumerate() {
                assert_eq!(row, encoded[i].row_slice(order[r]), "round {round}, row {r}");
            }
        }
    }

    #[test]
    fn the_server_reads_its_rows_out_of_the_whole_table_upload() {
        // One value of an idx_p row, changed in the upload on the wire,
        // must reach the server's real-path rows and with them the loss.
        let rows = 90;
        let config = GtvConfig { faithful_real_path: true, ..GtvConfig::smoke() };
        let train = |flip_rows| {
            let network = Capturing::flipping(2, flip_rows);
            let mut t =
                GtvTrainer::with_transport(two_client_shards(rows), config.clone(), network)
                    .unwrap();
            t.train_round().unwrap();
            t.history().d_loss.clone()
        };
        let mut default = GtvTrainer::new(two_client_shards(rows), GtvConfig::smoke());
        default.train_round().unwrap();
        assert_eq!(train(None), default.history().d_loss, "an intact upload trains as the default");
        assert_ne!(train(Some(rows as u32)), train(None), "the server ignored the upload");
    }

    #[test]
    fn per_round_windows_cover_all_training_traffic() {
        let shards = two_client_shards(60);
        let mut trainer = GtvTrainer::new(shards, GtvConfig::smoke());
        let pre_round = trainer.network_stats().bytes;
        trainer.train_round().unwrap();
        trainer.train_round().unwrap();
        let stats = trainer.network_stats();
        assert_eq!(stats.rounds.len(), 2);
        assert_eq!(stats.rounds[0].round, 0);
        assert_eq!(stats.rounds[1].round, 1);
        let windowed: u64 = stats.rounds.iter().map(|r| r.bytes).sum();
        // Everything after construction-time seed negotiation is in-round.
        assert_eq!(windowed + pre_round, stats.bytes);
        // The server both sends and receives inside a round.
        assert!(stats.rounds[0].sent_by(PartyId::Server).1 > 0);
        assert!(stats.rounds[0].received_by(PartyId::Server).1 > 0);
    }

    #[test]
    #[should_panic(expected = "row-aligned")]
    fn rejects_misaligned_tables() {
        let a = Dataset::Loan.generate(50, 0).select_columns(&[0, 1]);
        let b = Dataset::Loan.generate(60, 0).select_columns(&[2, 3]);
        let _ = GtvTrainer::new(vec![a, b], GtvConfig::smoke());
    }
}
