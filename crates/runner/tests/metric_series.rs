//! Server lifecycle against the process-global metric registry: a
//! process that starts and stops many batch servers must not grow its
//! registry. This file is its own test binary, so no concurrent test
//! shares the registry while the counts are compared.

use std::sync::Arc;

use swsimd_core::Aligner;
use swsimd_matrices::{blosum62, Alphabet};
use swsimd_runner::{BatchServer, ServerConfig};
use swsimd_seq::{generate_database, generate_exact, SynthConfig};

/// Start a server, answer one query for `tenant` (which mints the
/// per-tenant QoS families too), and stop it.
fn cycle(db: &Arc<swsimd_seq::Database>, tenant: &str) -> usize {
    let server = BatchServer::start(db.clone(), ServerConfig::default(), || {
        Aligner::builder().matrix(blosum62())
    });
    let q = Alphabet::protein().encode(&generate_exact(20, 7).seq);
    let hits = server.client().query_for(tenant, q, 1).expect("served");
    assert_eq!(hits.len(), 1);
    let live = swsimd_obs::global().series_count();
    server.shutdown();
    live
}

#[test]
fn stopped_servers_leave_no_metric_series_behind() {
    let db = Arc::new(generate_database(&SynthConfig {
        n_seqs: 16,
        max_len: 80,
        median_len: 40.0,
        ..Default::default()
    }));
    // The first cycle also makes process-wide, once-only registrations
    // (boot self-test, trust ladder); count from after it.
    cycle(&db, "warmup");
    let baseline = swsimd_obs::global().series_count();
    for i in 0..40 {
        let live = cycle(&db, &format!("tenant-{i}"));
        assert!(live > baseline, "a live server registers its series");
    }
    assert_eq!(swsimd_obs::global().series_count(), baseline);
}
