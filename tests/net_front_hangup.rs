//! A one-shot client that hangs up at the gateway front door cancels
//! the shard work its query started. This test has its own binary: its
//! signal is the process-global
//! `swsimd_server_cancelled_total{reason="client_drop"}` family, which
//! only a shard's batch server books into (the front has none), and no
//! other test may move it meanwhile.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::net::wire::{write_msg, Msg};
use swsimd::net::{Gateway, GatewayConfig, GatewayServer, ShardConfig, ShardServer};
use swsimd::runner::ServerConfig;
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{Aligner, FaultPlan};

fn server_client_drops() -> u64 {
    swsimd::obs::global()
        .prometheus_text()
        .lines()
        .filter(|l| l.starts_with("swsimd_server_cancelled_total") && l.contains("client_drop"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[test]
fn one_shot_hang_up_at_the_front_cancels_shard_work() {
    let db = generate_database(&SynthConfig {
        n_seqs: 24,
        seed: 441,
        median_len: 50.0,
        max_len: 120,
        ..Default::default()
    });
    let q = Alphabet::protein().encode(&generate_exact(40, 442).seq);
    // Hold the shard's batch so the query is still computing when the
    // client vanishes.
    let shard = ShardServer::start(
        &db,
        &Alphabet::protein(),
        ShardConfig {
            server: ServerConfig {
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(1500)),
                ..Default::default()
            },
            ..Default::default()
        },
        || Aligner::builder().matrix(blosum62()),
    )
    .expect("shard start");
    let gw = Gateway::new(GatewayConfig {
        shards: vec![vec![shard.local_addr().to_string()]],
        ..Default::default()
    });
    let front = GatewayServer::start(gw, "127.0.0.1:0", Duration::from_secs(2)).expect("front");
    let before = server_client_drops();

    // Raw connection: send a one-shot query, wait until the shard is
    // computing it, then hang up.
    {
        let mut stream = TcpStream::connect(front.local_addr()).unwrap();
        write_msg(
            &mut stream,
            &Msg::Query {
                id: 1,
                top_k: 5,
                deadline_ms: 0,
                slice_index: 0,
                slice_count: 0,
                query: q,
                trace: Default::default(),
                tenant: String::new(),
            },
        )
        .unwrap();
        let started = Instant::now() + Duration::from_secs(5);
        while shard.in_flight() == 0 {
            assert!(
                Instant::now() < started,
                "the query never reached the shard"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // The shard's batch server must cancel the job as a client drop
    // rather than compute it for nobody.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server_client_drops() <= before {
        assert!(
            Instant::now() < deadline,
            "the shard computed the abandoned query to completion"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(front.shutdown());
    assert!(shard.shutdown());
}
