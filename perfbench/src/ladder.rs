//! The traced run: replay the workload's seeded queries one at a time
//! through each layer's public entry point, from the kernel up to the
//! front, timing every call from the benchmark's own code.
//!
//! Each call is a span (layer, query, part, start, end) under the
//! query's root; spans stay in memory and are written to
//! `.perfbench_out/spans-<workload>-seed<n>.jsonl` when the run ends.
//! A layer's self time is its span minus its child layer's span for
//! the same query:
//!
//! ```text
//! core.batch ⊂ core.api ⊂ runner.pool ⊂ runner.journal      (in-process)
//! runner.server ⊂ net.shard ⊂ net.gateway ⊂ net.front        (serving)
//! runner.journal.shard ⊂ net.shard                           (journaling shards)
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_core::batch::{batch_score, LaneScore};
use swsimd_core::{diag_score, Hit, KernelStats, Precision};
use swsimd_net::NetClient;
use swsimd_obs::trace::TraceCtx;
use swsimd_obs::{AuditRecord, Stage};
use swsimd_runner::journal::JournalWriter;
use swsimd_runner::{
    checkpointed_search, parallel_search, rank_hits, BatchServer, PoolConfig, ServerConfig,
};
use swsimd_seq::{BatchedDatabase, Database};

use crate::cluster::{self, Cluster, CLIENT_TIMEOUT};
use crate::inputs::{builder, pairs, query_sequence, standard_encoded, Workload, TOP_K};
use crate::serve::{self, ask, CREDIT};
use crate::util::{gcups, median, ratio, Metrics, Report, Tally};
use crate::{scan, Opts};

/// Ladder queries per serving workload: the first this many of its
/// seeded query order (one full round on the ten-length pool).
const LIGHT_QUERIES: usize = 24;
const HEAVY_QUERIES: usize = 12;
/// The serving rungs replay the ladder queries that fit together in
/// this many DP cells (at least one query), so `scan`'s full-scale
/// database does not make the traced run take minutes.
const SERVING_CELLS: u64 = 4_000_000_000;
/// Serving rungs replay their queries until they hold this many
/// replays (at most `MAX_REPS` each), so medians of per-replay
/// differences are not left to two or three samples.
const SERVING_REPLAYS: usize = 12;
const MAX_REPS: usize = 3;
/// Length of the untraced load window a serving workload's traced run
/// ends with: the reference for how much of the end-to-end latency the
/// ladder's self times account for.
const UNTRACED_WINDOW_S: f64 = 3.0;

/// One replay of a ladder query: (query position, repetition).
type Key = (usize, u32);

struct Span {
    layer: &'static str,
    key: Key,
    part: u32,
    start_us: f64,
    end_us: f64,
}

/// In-memory span log.
struct Spans {
    origin: Instant,
    list: Mutex<Vec<Span>>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, layer: &'static str, key: Key, part: u32, start: Instant, end: Instant) {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.list.lock().expect("span log lock").push(Span {
            layer,
            key,
            part,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Time `f` as one span.
    fn time<T>(&self, layer: &'static str, key: Key, part: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(layer, key, part, start, Instant::now());
        out
    }

    /// Per-replay duration (ms) of `layer`, the largest part when a
    /// layer has several (the slowest shard of a scatter).
    fn ms(&self, layer: &str) -> BTreeMap<Key, f64> {
        let mut out = BTreeMap::new();
        for s in self.list.lock().expect("span log lock").iter() {
            if s.layer == layer {
                let ms = (s.end_us - s.start_us) / 1e3;
                let e = out.entry(s.key).or_insert(ms);
                *e = f64::max(*e, ms);
            }
        }
        out
    }

    fn p50(&self, layer: &str) -> f64 {
        median(&self.ms(layer).into_values().collect::<Vec<_>>())
    }

    /// Median over replays of `layer` minus `child` on the same replay.
    fn self_p50(&self, layer: &str, child: &str) -> f64 {
        let c = self.ms(child);
        let diffs: Vec<f64> = self
            .ms(layer)
            .into_iter()
            .filter_map(|(q, ms)| c.get(&q).map(|cm| ms - cm))
            .collect();
        median(&diffs)
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.list.lock().expect("span log lock").iter() {
            writeln!(
                f,
                "{{\"layer\": \"{}\", \"query\": {}, \"rep\": {}, \"part\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.layer,
                s.key.0,
                s.key.1,
                s.part,
                s.start_us,
                s.end_us
            )?;
        }
        f.flush()
    }
}

/// What the ladder replays: the database, its batches, the queries
/// (standard indices) and their exact answers.
struct Subject<'a> {
    db: &'a Database,
    batched: &'a BatchedDatabase,
    order: Vec<usize>,
    /// Top-k answer per standard query index.
    want: BTreeMap<usize, Vec<(usize, i32)>>,
    /// Planted-homolog reference scores (`scan` only).
    expected: Vec<(usize, usize, i32)>,
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<Metrics, String> {
    let w = opts.workload;
    let spans = Spans::new();
    let mut m = Metrics::default();
    let result = match w {
        Workload::Scan => {
            let s = scan::setup(opts, report);
            m.set("seq.build_s", median(&s.builds), "s");
            let subject = Subject {
                db: &s.db.db,
                batched: &s.batched,
                order: (0..10).collect(),
                want: BTreeMap::new(),
                expected: s.expected.clone(),
            };
            let cluster = Cluster::start(&s.db.db, &serve::shard_opts(w, opts, "ladder"))
                .map_err(|e| e.to_string())?;
            let r = ladder(opts, subject, &cluster, &spans, &mut m, report);
            cluster.shutdown();
            r.map(|_| ())
        }
        _ => {
            let mut s = serve::setup(w, opts, report)?;
            m.set("seq.build_s", median(&s.builds), "s");
            let batched = crate::inputs::batch(&s.db, opts.engine);
            let n = if w == Workload::ServeLight {
                LIGHT_QUERIES
            } else {
                HEAVY_QUERIES
            };
            let order = query_sequence(w, opts.seed, n);
            let want = order
                .iter()
                .map(|&k| (k, s.oracle.top[k].clone().expect("oracle covers the pool")))
                .collect();
            let subject = Subject {
                db: &s.db,
                batched: &batched,
                order,
                want,
                expected: Vec::new(),
            };
            let r = ladder(opts, subject, &s.cluster, &spans, &mut m, report);
            // The untraced workload itself, for the ladder's account of
            // the end-to-end latency.
            let plain = serve::load(w, opts.seed, UNTRACED_WINDOW_S, 0, &mut s);
            report.phase("untraced", plain.tally);
            let p50 = median(&plain.total_ms);
            let accounted = *r.as_ref().unwrap_or(&0.0);
            report.note(format!(
                "ladder self times sum to {accounted:.3} ms against an untraced latency p50 of {p50:.3} ms ({:.1}%)",
                100.0 * ratio(accounted, p50)
            ));
            drop(s.clients);
            s.cluster.shutdown();
            if let Some((dir, _)) = &s.shard_opts.journal {
                let _ = std::fs::remove_dir_all(dir);
            }
            r.map(|_| ())
        }
    };
    let path = opts
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name(), opts.seed));
    spans
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.note(format!("spans written to {}", path.display()));
    result?;
    Ok(m)
}

fn check(tally: &mut Tally, ok: bool, what: &str, report: &mut Report) {
    tally.record(ok);
    if !ok {
        report.note(format!("error: {what} answer differs from the oracle"));
    }
}

fn top(hits: Vec<Hit>) -> Vec<(usize, i32)> {
    pairs(&rank_hits(hits, TOP_K))
}

fn ladder(
    opts: &Opts,
    mut s: Subject<'_>,
    cluster: &Cluster,
    spans: &Spans,
    m: &mut Metrics,
    report: &mut Report,
) -> Result<f64, String> {
    let queries = standard_encoded();
    let engine = opts.engine;
    let residues = s.db.total_residues() as u64;
    let cells = |k: usize| queries[k].len() as u64 * residues;
    let mut aligner = builder(engine).build();
    let scoring = aligner.scoring().clone();
    let gaps = aligner.gap_model();
    let pool_cfg = PoolConfig {
        threads: opts.host.nproc,
        ..PoolConfig::default()
    };
    let mut tally = Tally::default();
    // Fault in the database and the kernels before the first timed rung.
    std::hint::black_box(aligner.search_batched(&queries[s.order[0]], s.db, s.batched));

    // core.batch and core.api, back to back per query so that drift in
    // the host's speed does not land on one of them: the 8-bit
    // inter-sequence kernel over every batch, then
    // Aligner::search_batched (the same kernel plus promotions).
    let mut stats = KernelStats::default();
    let mut promotions = 0;
    let mut api_cells = 0;
    for (j, &k) in s.order.iter().enumerate() {
        let mut out: Vec<LaneScore> = Vec::with_capacity(s.db.len());
        spans.time("core.batch", (j, 0), 0, || {
            for b in s.batched.batches() {
                batch_score(engine, &queries[k], b, &scoring, gaps, &mut stats, &mut out);
            }
        });
        aligner.reset_stats();
        let hits = spans.time("core.api", (j, 0), 0, || {
            aligner.search_batched(&queries[k], s.db, s.batched)
        });
        promotions += aligner.stats().promotions;
        api_cells += cells(k);
        if s.want.contains_key(&k) {
            let ok = top(hits) == s.want[&k];
            check(&mut tally, ok, "core.api", report);
        } else {
            // scan: planted homologs against the scalar reference.
            let ok = scan::planted_ok(&s.expected, k, &hits);
            check(&mut tally, ok, "core.api", report);
            s.want.insert(k, top(hits));
        }
    }
    let batch_ms: f64 = spans.ms("core.batch").values().sum();
    m.set(
        "core.batch.gcups",
        gcups(api_cells, batch_ms / 1e3),
        "GCUPS",
    );
    m.set("core.batch.lane_util", stats.lane_utilization(), "fraction");

    // core.diag: the paper's per-pair diagonal kernel, 8- and 16-bit,
    // over a fixed sample of database sequences.
    let sample: Vec<&[u8]> =
        s.db.iter_encoded()
            .filter(|e| !e.is_empty() && e.len() <= 1_000)
            .take(24)
            .map(|e| e.idx.as_slice())
            .collect();
    let sample_res: u64 = sample.iter().map(|t| t.len() as u64).sum();
    for (prec, name) in [
        (Precision::I8, "core.diag.gcups_i8"),
        (Precision::I16, "core.diag.gcups_i16"),
    ] {
        let mut st = KernelStats::default();
        let (mut c, t) = (0u64, Instant::now());
        for &k in &s.order {
            for target in &sample {
                let r = diag_score(
                    engine,
                    prec,
                    &queries[k],
                    target,
                    &scoring,
                    gaps,
                    16,
                    &mut st,
                );
                std::hint::black_box(r.score);
            }
            c += queries[k].len() as u64 * sample_res;
        }
        m.set(name, gcups(c, t.elapsed().as_secs_f64()), "GCUPS");
    }

    let api_ms: Vec<f64> = spans.ms("core.api").into_values().collect();
    let api_total: f64 = api_ms.iter().sum();
    m.set("core.api.search_ms", median(&api_ms), "ms");
    m.set("core.api.promotions", promotions as f64, "count");
    m.set(
        "core.api.promotion_frac",
        1.0 - ratio(batch_ms, api_total),
        "fraction",
    );
    let gcups_1t = gcups(api_cells, api_total / 1e3);

    // runner.pool: parallel_search at nproc threads.
    for (j, &k) in s.order.iter().enumerate() {
        let out = spans.time("runner.pool", (j, 0), 0, || {
            parallel_search(&queries[k], s.db, &pool_cfg, || builder(engine))
        });
        check(
            &mut tally,
            top(out.hits) == s.want[&k],
            "runner.pool",
            report,
        );
    }
    let pool_total: f64 = spans.ms("runner.pool").values().sum();
    let pool_gcups = gcups(api_cells, pool_total / 1e3);
    m.set("runner.pool.gcups", pool_gcups, "GCUPS");
    m.set(
        "runner.pool.scaling_eff",
        ratio(pool_gcups, opts.host.nproc as f64 * gcups_1t),
        "fraction",
    );

    // runner.journal: the same search, every chunk fsync'd to a journal.
    let jpath = opts
        .out_dir
        .join(format!("ladder-{}.swjl", std::process::id()));
    let mut appends = 0;
    for (j, &k) in s.order.iter().enumerate() {
        let out = spans.time("runner.journal", (j, 0), 0, || -> std::io::Result<_> {
            let mut writer = JournalWriter::create(&jpath)?;
            let out = checkpointed_search(
                &queries[k],
                s.db,
                &pool_cfg,
                || builder(engine),
                &mut writer,
            )?;
            Ok((out, writer.chunks()))
        });
        let (out, chunks) = out.map_err(|e| format!("journal {}: {e}", jpath.display()))?;
        appends += chunks;
        check(
            &mut tally,
            top(out.hits) == s.want[&k],
            "runner.journal",
            report,
        );
    }
    let _ = std::fs::remove_file(&jpath);
    let journal_total: f64 = spans.ms("runner.journal").values().sum();
    m.set(
        "runner.journal.overhead_frac",
        ratio(journal_total, pool_total) - 1.0,
        "fraction",
    );
    m.set(
        "runner.journal.appends_per_query",
        appends as f64 / s.order.len() as f64,
        "count",
    );

    // The serving rungs replay the ladder queries, in order, that fit
    // the cell budget together (at least one), each repeated until
    // there are `SERVING_REPLAYS` replays.
    let mut budget = 0;
    let prefix: Vec<(usize, usize)> = s
        .order
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, k)| {
            let fits = budget == 0 || budget + cells(k) <= SERVING_CELLS;
            if fits {
                budget += cells(k);
            }
            fits
        })
        .collect();
    let reps = SERVING_REPLAYS.div_ceil(prefix.len()).clamp(1, MAX_REPS) as u32;
    let serving: Vec<(Key, usize)> = (0..reps)
        .flat_map(|r| prefix.iter().map(move |&(j, k)| ((j, r), k)))
        .collect();
    report.note(format!(
        "ladder queries {} (serving rungs: {} of them x {reps})",
        s.order.len(),
        prefix.len()
    ));

    // The shard under net.shard runs as the workload's shards do. A
    // journaling shard (stream-durable) answers a one-shot query with a
    // checkpointed pool search of its own, not through its batch server,
    // so that search, replayed here with the shard's pool settings, is
    // net.shard's child there; runner.server is its child elsewhere.
    let shard_opts = serve::shard_opts(opts.workload, opts, "ladder-shard");
    let shard_child = match &shard_opts.journal {
        Some((_, threads)) => {
            let cfg = PoolConfig {
                threads: *threads,
                sort_batches: true,
                ..PoolConfig::default()
            };
            for &(key, k) in &serving {
                let out = spans.time("runner.journal.shard", key, 0, || -> std::io::Result<_> {
                    let mut writer = JournalWriter::create(&jpath)?;
                    checkpointed_search(&queries[k], s.db, &cfg, || builder(engine), &mut writer)
                });
                let _ = std::fs::remove_file(&jpath);
                let out = out.map_err(|e| format!("journal {}: {e}", jpath.display()))?;
                check(
                    &mut tally,
                    top(out.hits) == s.want[&k],
                    "runner.journal.shard",
                    report,
                );
            }
            "runner.journal.shard"
        }
        None => "runner.server",
    };

    // runner.server: BatchServer over the whole database.
    let server =
        BatchServer::try_start(Arc::new(s.db.clone()), ServerConfig::default(), move || {
            builder(engine)
        })
        .map_err(|e| format!("batch server: {e}"))?;
    let client = server.client();
    let (mut queue_ms, mut compute_ms) = (Vec::new(), Vec::new());
    for &(key, k) in &serving {
        let r = spans.time("runner.server", key, 0, || {
            let pending =
                client.submit_traced(queries[k].clone(), TOP_K, None, TraceCtx::default())?;
            loop {
                if let Some(r) = pending.poll(CLIENT_TIMEOUT) {
                    return r;
                }
            }
        });
        match r {
            Ok(o) => {
                queue_ms.push(o.queue_ns as f64 / 1e6);
                compute_ms.push(o.compute_ns as f64 / 1e6);
                check(
                    &mut tally,
                    pairs(&o.hits) == s.want[&k],
                    "runner.server",
                    report,
                );
            }
            Err(e) => check(&mut tally, false, &format!("runner.server ({e})"), report),
        }
    }
    drop(client);
    let st = server.shutdown();
    m.set(
        "runner.server.latency_p50_ms",
        spans.p50("runner.server"),
        "ms",
    );
    m.set("runner.server.queue_p50_ms", median(&queue_ms), "ms");
    m.set("runner.server.compute_p50_ms", median(&compute_ms), "ms");
    m.set(
        "runner.server.batch_fill",
        ratio(st.queries as f64, st.batches as f64),
        "queries/batch",
    );
    m.set("runner.server.shed", st.shed as f64, "count");

    // net.shard: one ShardServer holding the whole database, queried
    // directly over loopback.
    let shard = shard_opts
        .start(s.db, 0, 1)
        .map_err(|e| format!("shard: {e}"))?;
    let mut c = NetClient::connect(&shard.local_addr().to_string(), CLIENT_TIMEOUT)
        .map_err(|e| format!("connect shard: {e}"))?;
    for &(key, k) in &serving {
        let a = spans.time("net.shard", key, 0, || {
            ask(&mut c, false, &queries[k], &s.want[&k])
        });
        check(&mut tally, a.ok, "net.shard", report);
    }
    drop(c);
    shard.shutdown();
    if let Some((dir, _)) = &shard_opts.journal {
        let _ = std::fs::remove_dir_all(dir);
    }
    m.set("net.shard.latency_p50_ms", spans.p50("net.shard"), "ms");
    m.set(
        "net.shard.self_p50_ms",
        spans.self_p50("net.shard", shard_child),
        "ms",
    );

    // net.gateway: in-process Gateway over the workload's three shards;
    // each query also goes straight to every shard, so the gateway's
    // self time is measured against its slowest slice.
    let mut direct = cluster
        .shard_addrs
        .iter()
        .map(|a| NetClient::connect(a, CLIENT_TIMEOUT))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect shards: {e}"))?;
    let gateway = cluster::gateway(&cluster.shard_addrs);
    let (mut retries, mut hedges, mut used) = (0u64, 0u64, 0u64);
    for &(key, k) in &serving {
        for (p, dc) in direct.iter_mut().enumerate() {
            let r = spans.time("net.shard.direct", key, p as u32, || {
                dc.query(&queries[k], TOP_K, 0)
            });
            check(&mut tally, r.is_ok(), "net.shard.direct", report);
        }
        let r = spans.time("net.gateway", key, 0, || {
            gateway.query(&queries[k], TOP_K, Some(CLIENT_TIMEOUT))
        });
        match r {
            Ok(resp) => {
                let ok = !resp.degraded && pairs(&resp.hits) == s.want[&k];
                check(&mut tally, ok, "net.gateway", report);
                if let Some(rec) = swsimd_obs::flight::global().lookup(resp.trace_id) {
                    retries += rec.retries as u64;
                    hedges += rec.hedges as u64;
                }
                used += cluster::SHARDS as u64 - resp.missing_shards.len() as u64;
            }
            Err(e) => check(&mut tally, false, &format!("net.gateway ({e})"), report),
        }
    }
    drop(gateway);
    drop(direct);
    let sent = serving.len() as u64 * cluster::SHARDS as u64 + retries + hedges;
    m.set("net.gateway.latency_p50_ms", spans.p50("net.gateway"), "ms");
    m.set(
        "net.gateway.self_p50_ms",
        spans.self_p50("net.gateway", "net.shard.direct"),
        "ms",
    );
    m.set("net.gateway.retries", retries as f64, "count");
    m.set("net.gateway.hedges", hedges as f64, "count");
    m.set(
        "net.gateway.useful_frac",
        ratio(used as f64, sent as f64),
        "fraction",
    );

    // net.front: the GatewayServer front door, then the flight
    // recorder's stage breakdown of the same query (obs.flight). Each
    // query is also sent once untraced (no span, no trace lookup), on
    // alternate sides of the traced one, for trace.overhead_frac.
    let mut c = cluster
        .connect()
        .map_err(|e| format!("connect front: {e}"))?;
    let mut stage_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut untraced_ms = Vec::new();
    for (i, &(key, k)) in serving.iter().enumerate() {
        for traced in [i % 2 == 0, i % 2 != 0] {
            if !traced {
                let a = ask(&mut c, false, &queries[k], &s.want[&k]);
                check(&mut tally, a.ok, "net.front (untraced)", report);
                untraced_ms.push(a.total_ms);
                continue;
            }
            let a = spans.time("net.front", key, 0, || {
                ask(&mut c, false, &queries[k], &s.want[&k])
            });
            check(&mut tally, a.ok, "net.front", report);
            match c.trace(a.trace_id) {
                Ok(Some(rec)) => {
                    for (name, ms) in stages(&rec, a.total_ms) {
                        stage_ms.entry(name).or_default().push(ms);
                    }
                }
                Ok(None) => report.note(format!("flight recorder has no trace {:#x}", a.trace_id)),
                Err(e) => return Err(format!("trace lookup: {e}")),
            }
        }
    }
    m.set(
        "trace.overhead_frac",
        ratio(spans.p50("net.front"), median(&untraced_ms)) - 1.0,
        "fraction",
    );
    m.set("net.front.latency_p50_ms", spans.p50("net.front"), "ms");
    m.set(
        "net.front.self_p50_ms",
        spans.self_p50("net.front", "net.gateway"),
        "ms",
    );
    for name in STAGE_METRICS {
        m.set(
            name,
            median(stage_ms.get(name).map_or(&[][..], |v| v)),
            "ms",
        );
    }

    // net.stream: streamed through the front with a small credit
    // window; stall and buffer counters scraped around the rung.
    let before = scrape(&mut c)?;
    let (mut first, mut chunks) = (Vec::new(), 0);
    for &(key, k) in &serving {
        let start = Instant::now();
        let a = ask(&mut c, true, &queries[k], &s.want[&k]);
        c = cluster
            .connect()
            .map_err(|e| format!("connect front: {e}"))?;
        spans.push(
            "net.stream",
            key,
            0,
            start,
            start + Duration::from_secs_f64(a.total_ms / 1e3),
        );
        first.push(a.first_ms);
        chunks += a.chunks;
        check(&mut tally, a.ok, "net.stream", report);
    }
    let after = scrape(&mut c)?;
    m.set("net.stream.first_chunk_p50_ms", median(&first), "ms");
    m.set(
        "net.stream.chunks_per_query",
        chunks as f64 / serving.len() as f64,
        "count",
    );
    m.set(
        "net.stream.credit_stalls",
        metric(&after, "swsimd_stream_credit_stalls_total")
            - metric(&before, "swsimd_stream_credit_stalls_total"),
        "count",
    );
    m.set(
        "net.stream.buffered_peak_bytes",
        metric(&after, "swsimd_stream_buffered_peak_bytes"),
        "bytes",
    );
    report.note(format!("stream credit window {CREDIT}"));

    // The serving self times telescope to the front's latency.
    let accounted = spans.p50(shard_child)
        + m.get("net.shard.self_p50_ms").unwrap_or(0.0)
        + m.get("net.gateway.self_p50_ms").unwrap_or(0.0)
        + m.get("net.front.self_p50_ms").unwrap_or(0.0);
    m.set(
        "ladder.accounted_frac",
        ratio(accounted, m.get("net.front.latency_p50_ms").unwrap_or(0.0)),
        "fraction",
    );

    report.phase("ladder", tally);
    Ok(accounted)
}

const STAGE_METRICS: [&str; 7] = [
    "stage.admission_p50_ms",
    "stage.queue_p50_ms",
    "stage.dispatch_p50_ms",
    "stage.kernel_p50_ms",
    "stage.net_rtt_p50_ms",
    "stage.merge_p50_ms",
    "stage.unattributed_p50_ms",
];

/// One front query's stage breakdown (ms). The gateway's record holds
/// admission, dispatch, net_rtt and merge; queue and kernel come from
/// the slowest shard's summary and sit inside net_rtt. Unattributed is
/// the client-observed total minus the time a stage claims as work
/// (admission + dispatch + queue + kernel + merge): wire, polling and
/// idle waits.
fn stages(rec: &AuditRecord, total_ms: f64) -> Vec<(&'static str, f64)> {
    let ms = |stages: &[swsimd_obs::StageTiming], stage: Stage| -> f64 {
        stages
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.ns as f64 / 1e6)
            .sum()
    };
    let slowest = rec.shards.iter().max_by_key(|s| s.rtt_ns);
    let shard = |stage| slowest.map_or(0.0, |s| ms(&s.stages, stage));
    let admission = ms(&rec.stages, Stage::Admission);
    let dispatch = ms(&rec.stages, Stage::Dispatch);
    let merge = ms(&rec.stages, Stage::Merge);
    let queue = shard(Stage::Queue);
    let kernel = shard(Stage::Kernel);
    vec![
        ("stage.admission_p50_ms", admission),
        ("stage.queue_p50_ms", queue),
        ("stage.dispatch_p50_ms", dispatch),
        ("stage.kernel_p50_ms", kernel),
        ("stage.net_rtt_p50_ms", ms(&rec.stages, Stage::NetRtt)),
        ("stage.merge_p50_ms", merge),
        (
            "stage.unattributed_p50_ms",
            total_ms - (admission + dispatch + queue + kernel + merge),
        ),
    ]
}

fn scrape(c: &mut NetClient) -> Result<String, String> {
    c.metrics().map_err(|e| format!("metrics scrape: {e}"))
}

/// Sum of every series of a Prometheus family in a text scrape.
fn metric(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
