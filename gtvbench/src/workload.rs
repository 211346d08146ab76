//! The four workloads. Each is one whole deployment — set up the parties,
//! train over the transport, publish a synthetic table, evaluate it, serve
//! rows over a socket — at a shape that makes a different layer the limit.
//! Names and reasons are in `BENCHMARK.json`; sizes are fixed here.

use gtv::GtvConfig;
use gtv_data::Dataset;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Channels inside the process.
    InProc,
    /// One `PartyNode` per client behind a Unix-domain socket.
    Uds,
    /// One `PartyNode` per client behind loopback TCP.
    Tcp,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// Rows held by the parties; a quarter as many again are generated and
    /// held out as the real test set of the evaluation.
    pub train_rows: usize,
    pub clients: usize,
    pub faithful_real_path: bool,
    pub block_width: usize,
    pub batch: usize,
    pub embedding_dim: usize,
    pub link: Link,
    /// Rounds run before the timed ones (first-touch allocation, lazy pool
    /// threads, socket buffers).
    pub warmup_rounds: usize,
    /// Share of `--seconds` spent in timed training rounds; the rest goes
    /// to requests and publications.
    pub train_share: f64,
    /// Rows of one published synthetic table.
    pub synth_rows: usize,
    /// Rows of real-train and of synthetic data the evaluation reads (the
    /// real test set is a quarter of it).
    pub eval_rows: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_inproc",
        dataset: Dataset::Covtype,
        train_rows: 50_000,
        clients: 2,
        faithful_real_path: false,
        block_width: 256,
        batch: 500,
        embedding_dim: 64,
        link: Link::InProc,
        warmup_rounds: 2,
        train_share: 0.5,
        synth_rows: 1_000,
        eval_rows: 1_000,
    },
    Workload {
        name: "faithful_uds",
        dataset: Dataset::Intrusion,
        train_rows: 50_000,
        clients: 5,
        faithful_real_path: true,
        block_width: 64,
        batch: 64,
        embedding_dim: 64,
        link: Link::Uds,
        warmup_rounds: 2,
        train_share: 0.6,
        synth_rows: 1_000,
        eval_rows: 1_000,
    },
    Workload {
        name: "smoke_tcp",
        dataset: Dataset::Loan,
        train_rows: 5_000,
        clients: 3,
        faithful_real_path: false,
        block_width: 64,
        batch: 32,
        embedding_dim: 16,
        link: Link::Tcp,
        warmup_rounds: 20,
        train_share: 0.5,
        synth_rows: 1_000,
        eval_rows: 1_000,
    },
    Workload {
        name: "serve_uds",
        dataset: Dataset::Adult,
        train_rows: 5_000,
        clients: 2,
        faithful_real_path: false,
        block_width: 256,
        batch: 500,
        embedding_dim: 64,
        link: Link::InProc,
        warmup_rounds: 2,
        train_share: 0.3,
        synth_rows: 1_000,
        eval_rows: 1_000,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same deployment at about a fiftieth of the size: proves that the
    /// harness and every output check run, measures nothing.
    pub fn smoke(self) -> Workload {
        Workload {
            train_rows: (self.train_rows / 50).clamp(200, 400),
            block_width: self.block_width.min(64),
            batch: self.batch.min(32),
            embedding_dim: self.embedding_dim.min(16),
            warmup_rounds: 1,
            synth_rows: 200,
            eval_rows: 120,
            ..self
        }
    }

    /// Everything not named here is `GtvConfig::default()`, so the knobs
    /// the roadmap wants to judge (pipelining, pool recycling, sparse wire)
    /// can go without touching the benchmark. One kernel thread: on a
    /// two-core shared host two pool workers wait for whichever of them the
    /// host serves last, and runs of one seed then differ by a quarter.
    pub fn config(&self, seed: u64) -> GtvConfig {
        GtvConfig {
            d_steps: 1,
            threads: 1,
            batch: self.batch,
            block_width: self.block_width,
            embedding_dim: self.embedding_dim,
            faithful_real_path: self.faithful_real_path,
            seed,
            ..GtvConfig::default()
        }
    }
}

/// Names of metrics and workloads: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        for good in ["setup_s", "serve.conn.p50_ms.n16", "a-b", "9x"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(WORKLOADS.iter().all(|w| valid_name(w.name)));
    }

    #[test]
    fn smoke_keeps_the_deployment_and_shrinks_the_size() {
        for w in WORKLOADS {
            let s = w.smoke();
            assert_eq!((s.name, s.clients, s.link), (w.name, w.clients, w.link));
            assert_eq!(s.faithful_real_path, w.faithful_real_path);
            assert!(s.train_rows * 10 <= w.train_rows.max(4_000));
        }
    }
}
