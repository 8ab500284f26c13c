//! The in-process serving stack a client talks to: three
//! `ShardServer`s on loopback behind a `GatewayServer` front.

use std::path::PathBuf;
use std::time::Duration;

use swsimd_core::EngineKind;
use swsimd_matrices::Alphabet;
use swsimd_net::{Gateway, GatewayConfig, GatewayServer, NetClient, ShardConfig, ShardServer};
use swsimd_runner::FaultPlan;
use swsimd_seq::Database;

use crate::inputs::builder;

pub const SHARDS: u32 = 3;
const DRAIN: Duration = Duration::from_millis(500);
/// Connect and read timeout of every benchmark client.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How the shards are configured.
#[derive(Clone)]
pub struct ShardOpts {
    pub engine: EngineKind,
    /// Journal directory (the durable path) and its pool threads.
    pub journal: Option<(PathBuf, usize)>,
    /// Extra delay before every shard reply (sensitivity checks only).
    pub reply_delay: Option<Duration>,
}

impl ShardOpts {
    /// Start shard `index` of `count` over `db`.
    pub fn start(&self, db: &Database, index: u32, count: u32) -> std::io::Result<ShardServer> {
        let mut fault = FaultPlan::new();
        if let Some(d) = self.reply_delay {
            fault = fault.delay_reply_at(index as usize, d);
        }
        let (journal_dir, threads) = match &self.journal {
            Some((dir, threads)) => (Some(dir.clone()), *threads),
            None => (None, 1),
        };
        let engine = self.engine;
        ShardServer::start(
            db,
            &Alphabet::protein(),
            ShardConfig {
                shard_index: index,
                shard_count: count,
                journal_dir,
                threads,
                fault,
                drain_timeout: DRAIN,
                ..ShardConfig::default()
            },
            move || builder(engine),
        )
    }
}

pub struct Cluster {
    shards: Vec<ShardServer>,
    front: GatewayServer,
    pub front_addr: String,
    pub shard_addrs: Vec<String>,
}

impl Cluster {
    pub fn start(db: &Database, opts: &ShardOpts) -> std::io::Result<Cluster> {
        let shards = (0..SHARDS)
            .map(|i| opts.start(db, i, SHARDS))
            .collect::<std::io::Result<Vec<_>>>()?;
        let shard_addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let front = GatewayServer::start(gateway(&shard_addrs), "127.0.0.1:0", DRAIN)?;
        let front_addr = front.local_addr().to_string();
        Ok(Cluster {
            shards,
            front,
            front_addr,
            shard_addrs,
        })
    }

    pub fn connect(&self) -> std::io::Result<NetClient> {
        NetClient::connect(&self.front_addr, CLIENT_TIMEOUT)
    }

    pub fn shutdown(self) {
        self.front.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// A scatter-gather gateway over one replica per slice.
pub fn gateway(shard_addrs: &[String]) -> Gateway {
    Gateway::new(GatewayConfig {
        shards: shard_addrs.iter().map(|a| vec![a.clone()]).collect(),
        ..GatewayConfig::default()
    })
}
