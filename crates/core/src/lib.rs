//! # gtv
//!
//! Reproduction of **"GTV: Generating Tabular Data via Vertical Federated
//! Learning"** (DSN 2025): training a conditional tabular GAN whose
//! generator and discriminator are split between a trusted-third-party
//! server and clients that each own a disjoint subset of *columns* for the
//! same individuals.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`NetPartition`] — the `D_{n4}^{n3} G_{n2}^{n1}` block partitions of
//!   Fig. 7;
//! * [`SplitGenerator`] / [`SplitDiscriminator`] — `G^t`/`G_i^b`,
//!   `D^t`/`D^s`/`D_i^b`;
//! * [`GtvTrainer`] — Algorithm 1 with WGAN-GP, CTGAN conditional vectors,
//!   *training-with-shuffling*, secure publication, and a byte-metered
//!   message trace;
//! * [`CentralizedTrainer`] — the paper's centralized baseline;
//! * [`ServerObserver`] — the Fig. 5/6 server reconstruction analysis.
//!
//! # Examples
//!
//! ```no_run
//! use gtv::{GtvConfig, GtvTrainer};
//! use gtv_data::Dataset;
//!
//! // Two organizations hold different columns of the same customers.
//! let table = Dataset::Adult.generate(1_000, 0);
//! let n = table.n_cols();
//! let shards = table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()]);
//!
//! let mut trainer = GtvTrainer::new(shards, GtvConfig::default());
//! trainer.train().expect("transport is healthy");
//! let synthetic = trainer.synthesize(1_000, 42).expect("transport is healthy");
//! assert_eq!(synthetic.n_cols(), n);
//! ```

mod baseline;
mod config;
mod discriminator;
mod generator;
mod privacy;
mod synth;
mod trainer;

pub use baseline::CentralizedTrainer;
pub use config::{GtvConfig, IndexSharing, NetPartition};
pub use discriminator::SplitDiscriminator;
pub use generator::SplitGenerator;
pub use privacy::{
    column_truths, ClientIndexObserver, ColumnTruth, ReconstructionReport, ServerObserver,
};
pub use synth::{CondSpec, SynthError, SynthSpec, Synthesizer, MAX_ROWS_PER_REQUEST};
pub use trainer::{GtvTrainer, StepAllocStats, TrainHistory};
// The transport seam and protocol error surface, re-exported so downstream
// users of the trainer can build distributed deployments and match on
// protocol errors without depending on gtv-vfl directly.
pub use gtv_vfl::{
    Endpoint, InProcTransport, Network, PartitionError, PartyNode, SocketTransport, Transport,
    TransportError,
};
