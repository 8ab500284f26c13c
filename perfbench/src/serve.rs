//! The three serving workloads. Every query goes through the front:
//! `NetClient` → `GatewayServer` → `Gateway` → 3 `ShardServer`s on
//! loopback, from at most `nproc` connections in this one process.
//!
//! - `serve-light`: open loop, seeded arrivals at about 20 queries/s,
//!   short queries on the quick database.
//! - `serve-heavy`: closed loop, `nproc` connections, all ten lengths on
//!   the medium database.
//! - `stream-durable`: as `serve-heavy`, but every query streams
//!   (`NetClient::stream_query`, small credit window) from shards that
//!   journal every chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swsimd_net::{NetClient, StreamEvent};
use swsimd_seq::Database;

use crate::cluster::{Cluster, ShardOpts, CLIENT_TIMEOUT};
use crate::inputs::{
    arrival_schedule, build_db, more_setups, pairs, query_sequence, standard_encoded, Oracle,
    Workload, TOP_K,
};
use crate::util::{gcups, median, ms_since, peak_rss_mb, percentile, Metrics, Report, Tally};
use crate::Opts;

/// Chunks a streaming client lets the server push ahead of it.
pub const CREDIT: u32 = 2;
/// Deadline sent with every query; missing it is a failure.
const DEADLINE_MS: u32 = 30_000;

/// One verified (or failed) answer.
pub struct Answer {
    pub ok: bool,
    /// Send → first hits in hand (first chunk for streams, the whole
    /// reply otherwise), ms.
    pub first_ms: f64,
    /// Send → complete, verified answer, ms.
    pub total_ms: f64,
    pub trace_id: u64,
    pub chunks: u64,
    pub error: Option<String>,
}

impl Answer {
    fn failed(t: Instant, error: String) -> Answer {
        let ms = ms_since(t);
        Answer {
            ok: false,
            first_ms: ms,
            total_ms: ms,
            trace_id: 0,
            chunks: 0,
            error: Some(error),
        }
    }
}

/// Send query `k` through `client` (streamed on `stream-durable`) and
/// check the answer against the oracle. A typed error, a degraded
/// reply or a `Fin` digest mismatch is a failure.
///
/// A stream grants one credit per chunk as chunks arrive. The grant
/// for the last chunk can cross the `Fin` on the wire, and the front
/// closes a connection whose next frame is a stray `Credit`, so a
/// connection carries one stream and the caller dials a fresh one.
pub fn ask(client: &mut NetClient, stream: bool, q: &[u8], want: &[(usize, i32)]) -> Answer {
    let t = Instant::now();
    if !stream {
        return match client.query(q, TOP_K, DEADLINE_MS) {
            Ok(r) => {
                let ms = ms_since(t);
                let ok = !r.degraded && pairs(&r.hits) == want;
                Answer {
                    ok,
                    first_ms: ms,
                    total_ms: ms,
                    trace_id: r.trace_id,
                    chunks: 0,
                    error: (!ok).then(|| format!("wrong answer (degraded={})", r.degraded)),
                }
            }
            Err(e) => Answer::failed(t, e.to_string()),
        };
    }
    let mut h = match client.stream_query(q, TOP_K, DEADLINE_MS, CREDIT) {
        Ok(h) => h,
        Err(e) => return Answer::failed(t, e.to_string()),
    };
    let mut first_ms = None;
    let mut chunks = 0;
    loop {
        match h.next() {
            Ok(StreamEvent::Chunk { .. }) => {
                first_ms.get_or_insert_with(|| ms_since(t));
                chunks += 1;
                if let Err(e) = h.grant(1) {
                    return Answer::failed(t, e.to_string());
                }
            }
            Ok(StreamEvent::Progress { .. }) => {}
            Ok(StreamEvent::Fin(fin)) => {
                let total_ms = ms_since(t);
                let ok = !fin.degraded && fin.digest == h.digest() && pairs(h.ranking()) == want;
                return Answer {
                    ok,
                    first_ms: first_ms.unwrap_or(total_ms),
                    total_ms,
                    trace_id: fin.trace_id,
                    chunks,
                    error: (!ok).then(|| {
                        format!(
                            "wrong stream (degraded={}, digest match={})",
                            fin.degraded,
                            fin.digest == h.digest()
                        )
                    }),
                };
            }
            Err(e) => return Answer::failed(t, e.to_string()),
        }
    }
}

/// Whether the connection `a` came back on must be replaced: it
/// carried a stream (one per connection, see `ask`), or it failed and
/// may hold a half-read frame.
pub fn spent(stream: bool, a: &Answer) -> bool {
    stream || !a.ok
}

/// A booted, verified serving stack plus its clients.
pub struct ServeSetup {
    pub db: Database,
    pub oracle: Oracle,
    pub cluster: Cluster,
    pub clients: Vec<NetClient>,
    pub shard_opts: ShardOpts,
    /// Wall time of each timed setup, and of its DB build, s.
    pub setups: Vec<f64>,
    pub builds: Vec<f64>,
}

/// Shard configuration for a workload.
pub fn shard_opts(w: Workload, opts: &Opts, tag: &str) -> ShardOpts {
    let journal = (w == Workload::StreamDurable).then(|| {
        let dir = opts
            .out_dir
            .join(format!("journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir, opts.host.nproc)
    });
    ShardOpts {
        engine: opts.engine,
        journal,
        reply_delay: opts.shard_delay,
    }
}

/// A running stack: its database, the cluster and `nproc` clients.
type Stack = (Database, Cluster, Vec<NetClient>);

/// One timed setup: DB build, shard boot (batch server, self-test,
/// bind), gateway and front, client connections, and the first
/// verified answer. The first answer is always the shortest query, so
/// setup time does not depend on which length the seed draws first.
/// Returns the stack, the setup's wall time and its DB build's, s.
fn boot(
    w: Workload,
    opts: &Opts,
    shard_opts: &ShardOpts,
    oracle: &Oracle,
    tally: &mut Tally,
) -> Result<(Stack, f64, f64), String> {
    let first = 0;
    let want = oracle.top[first]
        .as_deref()
        .expect("oracle covers the pool");
    let stream = w == Workload::StreamDurable;
    let query = &standard_encoded()[first];
    let t = Instant::now();
    let db = build_db(w, opts.seed).db;
    let build_s = t.elapsed().as_secs_f64();
    let cluster = Cluster::start(&db, shard_opts).map_err(|e| format!("cluster: {e}"))?;
    let mut clients = (0..opts.host.nproc)
        .map(|_| cluster.connect())
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let a = ask(&mut clients[0], stream, query, want);
    tally.record(a.ok);
    if spent(stream, &a) {
        clients[0] = cluster.connect().map_err(|e| format!("connect: {e}"))?;
    }
    Ok(((db, cluster, clients), t.elapsed().as_secs_f64(), build_s))
}

/// Compute the oracle (untimed), then set up repeatedly (see `boot`
/// and `more_setups`). The last stack stays up.
pub fn setup(w: Workload, opts: &Opts, report: &mut Report) -> Result<ServeSetup, String> {
    let oracle_db = build_db(w, opts.seed).db;
    let oracle = Oracle::new(w, &oracle_db, opts.engine);
    drop(oracle_db);
    let shard_opts = shard_opts(w, opts, "e2e");

    let mut tally = Tally::default();
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut last: Option<Stack> = None;
    let start = Instant::now();
    while more_setups(setups.len(), start) {
        if let Some((_, cluster, _)) = last.take() {
            cluster.shutdown();
        }
        let (stack, setup_s, build_s) = boot(w, opts, &shard_opts, &oracle, &mut tally)?;
        setups.push(setup_s);
        builds.push(build_s);
        last = Some(stack);
    }
    report.phase("setup", tally);
    let (db, cluster, clients) = last.expect("at least one setup");
    Ok(ServeSetup {
        db,
        oracle,
        cluster,
        clients,
        shard_opts,
        setups,
        builds,
    })
}

/// What a load phase measured.
#[derive(Default)]
pub struct Load {
    pub tally: Tally,
    pub total_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    /// Open loop only: how late each send left after its due time.
    pub late_ms: Vec<f64>,
    pub cells: u64,
    pub wall_s: f64,
    pub errors: Vec<String>,
}

/// Closed loops keep going past `--seconds` until they hold this many
/// verified answers (or three times the run length has passed), so the
/// 95th percentile always has ten samples beyond it.
pub const MIN_SAMPLES: usize = 200;

/// Drive the workload's load for `secs` through the stack's clients
/// (one thread per client). Open loop on `serve-light`, closed loop
/// otherwise; a closed loop also runs until it has `min_samples`
/// verified answers.
pub fn load(w: Workload, seed: u64, secs: f64, min_samples: usize, s: &mut ServeSetup) -> Load {
    let (front, oracle) = (s.cluster.front_addr.as_str(), &s.oracle);
    let residues = s.db.total_residues();
    let queries = standard_encoded();
    let open = w == Workload::ServeLight;
    let stream = w == Workload::StreamDurable;
    let within = Duration::from_secs_f64(secs);
    let schedule = if open {
        arrival_schedule(seed, within)
    } else {
        Vec::new()
    };
    let order = query_sequence(w, seed, if open { schedule.len() } else { 1 << 16 });
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let out = Mutex::new(Load::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in s.clients.iter_mut() {
            let (queries, schedule, order, next, done, out) =
                (&queries, &schedule, &order, &next, &done, &out);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let enough = start.elapsed() >= within
                    && (done.load(Ordering::Relaxed) >= min_samples
                        || start.elapsed() >= within * 3);
                if i >= order.len() || (!open && enough) {
                    return;
                }
                let k = order[i];
                let due = if open {
                    let due = start + schedule[i];
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    Some(due)
                } else {
                    None
                };
                let want = oracle.top[k].as_deref().expect("oracle covers the pool");
                let a = ask(client, stream, &queries[k], want);
                let fresh = spent(stream, &a).then(|| NetClient::connect(front, CLIENT_TIMEOUT));
                // Open loop: time from when the query was due, so a
                // stall also charges the queries queued behind it.
                let behind = due.map_or(0.0, |d| d.elapsed().as_secs_f64() * 1e3 - a.total_ms);
                let mut o = out.lock().expect("load results lock");
                o.tally.record(a.ok);
                if a.ok {
                    done.fetch_add(1, Ordering::Relaxed);
                    o.total_ms.push(a.total_ms + behind);
                    o.first_ms.push(a.first_ms + behind);
                    o.cells += (queries[k].len() * residues) as u64;
                } else {
                    o.errors.extend(a.error);
                }
                if open {
                    o.late_ms.push(behind);
                }
                match fresh {
                    Some(Ok(c)) => *client = c,
                    Some(Err(e)) => {
                        o.errors.push(format!("reconnect: {e}"));
                        return;
                    }
                    None => {}
                }
            });
        }
    });
    let mut o = out.into_inner().expect("load results lock");
    o.wall_s = start.elapsed().as_secs_f64();
    o
}

pub fn run(w: Workload, opts: &Opts, report: &mut Report) -> Result<Metrics, String> {
    let mut s = setup(w, opts, report)?;

    // Warm every connection with two verified queries first.
    let mut warm = Tally::default();
    let queries = standard_encoded();
    let stream = w == Workload::StreamDurable;
    for i in 0..s.clients.len() {
        for k in query_sequence(w, opts.seed ^ i as u64, 2) {
            let want = s.oracle.top[k].as_deref().expect("oracle covers the pool");
            let a = ask(&mut s.clients[i], stream, &queries[k], want);
            warm.record(a.ok);
            if spent(stream, &a) {
                s.clients[i] = s.cluster.connect().map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    report.phase("warmup", warm);

    let l = load(w, opts.seed, opts.seconds as f64, MIN_SAMPLES, &mut s);
    report.phase("measure", l.tally);
    describe(report, w, &l, s.oracle.promotions, s.db.len());
    drop(s.clients);
    s.cluster.shutdown();
    // Single-thread passes and setups at the end too: a slow spell of
    // the host rarely covers both windows. Each query's fastest search
    // counts, and `setup_s` is the median of the setups on both sides.
    s.oracle
        .time_passes(w, &s.db, opts.engine, Duration::from_secs(2));
    let (mut again, before) = (Tally::default(), s.setups.len());
    let start = Instant::now();
    while more_setups(s.setups.len() - before, start) {
        let ((_, cluster, _), setup_s, _) = boot(w, opts, &s.shard_opts, &s.oracle, &mut again)?;
        cluster.shutdown();
        s.setups.push(setup_s);
    }
    report.phase("setup after load", again);
    report.note(format!(
        "setups timed {} (before and after the load)",
        s.setups.len()
    ));
    if let Some((dir, _)) = &s.shard_opts.journal {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&s.setups), "s");
    m.set("gcups", gcups(l.cells, l.wall_s), "GCUPS");
    m.set("gcups_1t", s.oracle.gcups_1t(w, &s.db), "GCUPS");
    m.set("qps", l.total_ms.len() as f64 / l.wall_s, "queries/s");
    m.set("latency_p50_ms", percentile(&l.total_ms, 0.5), "ms");
    m.set("latency_p95_ms", percentile(&l.total_ms, 0.95), "ms");
    m.set("first_chunk_p50_ms", percentile(&l.first_ms, 0.5), "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(m)
}

/// Report lines: sample counts, tail depth, generator lateness, errors.
fn describe(report: &mut Report, w: Workload, l: &Load, promotions: u64, seqs: usize) {
    let n = l.total_ms.len();
    let beyond_p95 = n - (0.95 * n as f64).ceil() as usize;
    report.note(format!(
        "latency samples {n} ({beyond_p95} beyond p95) over {:.2} s",
        l.wall_s
    ));
    if w == Workload::ServeLight {
        report.note(format!(
            "open-loop generator lateness: p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
            median(&l.late_ms),
            percentile(&l.late_ms, 0.95),
            percentile(&l.late_ms, 1.0)
        ));
    }
    report.note(format!(
        "promotions {promotions} | promotion share {:.6} of sequences scored (one oracle pass)",
        promotions as f64 / (seqs * w.query_pool().len()) as f64
    ));
    for e in l.errors.iter().take(5) {
        report.note(format!("error: {e}"));
    }
}
