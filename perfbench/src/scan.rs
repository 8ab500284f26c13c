//! `scan`: offline in-process search of the full-scale database with
//! planted homologs — single-threaded `Aligner::search_batched`, then
//! `runner::pool::parallel_search` at `nproc` threads, per pass.

use std::time::Instant;

use swsimd_core::{sw_scalar, Aligner, Hit};
use swsimd_runner::{parallel_search, PoolConfig};
use swsimd_seq::BatchedDatabase;

use crate::inputs::{batch, build_db, builder, more_setups, standard_encoded, Db, Workload};
use crate::util::{gcups, median, peak_rss_mb, percentile, Metrics, Report, Tally};
use crate::Opts;

/// A built, verified scan database ready to search.
pub struct ScanSetup {
    pub db: Db,
    pub batched: BatchedDatabase,
    pub aligner: Aligner,
    /// Each planted homolog's `(db_index, query, scalar reference score)`.
    pub expected: Vec<(usize, usize, i32)>,
    /// Wall time of each timed setup, and of its DB build + batching, s.
    pub setups: Vec<f64>,
    pub builds: Vec<f64>,
}

/// Every planted homolog of query `k` scored exactly as the scalar
/// reference scores it.
pub fn planted_ok(expected: &[(usize, usize, i32)], k: usize, hits: &[Hit]) -> bool {
    let mut score = vec![None; hits.len()];
    for h in hits {
        if let Some(s) = score.get_mut(h.db_index) {
            *s = Some(h.score);
        }
    }
    expected
        .iter()
        .filter(|e| e.1 == k)
        .all(|&(i, _, want)| score.get(i).copied().flatten() == Some(want))
}

/// One timed setup: DB build, batching, aligner build and the first
/// verified answer (q47). Returns the setup's wall time and its DB
/// build + batching's, s.
fn boot(
    opts: &Opts,
    expected: &[(usize, usize, i32)],
    tally: &mut Tally,
) -> ((Db, BatchedDatabase, Aligner), f64, f64) {
    let query = &standard_encoded()[0];
    let t = Instant::now();
    let db = build_db(Workload::Scan, opts.seed);
    let batched = batch(&db.db, opts.engine);
    let build_s = t.elapsed().as_secs_f64();
    let mut aligner = builder(opts.engine).build();
    let hits = aligner.search_batched(query, &db.db, &batched);
    tally.record(planted_ok(expected, 0, &hits));
    ((db, batched, aligner), t.elapsed().as_secs_f64(), build_s)
}

/// Score the planted homologs with the scalar reference (untimed),
/// then set up repeatedly (see `boot` and `more_setups`), keeping the
/// last.
pub fn setup(opts: &Opts, report: &mut Report) -> ScanSetup {
    let queries = standard_encoded();
    let reference = builder(opts.engine).build();
    let oracle_db = build_db(Workload::Scan, opts.seed);
    let expected: Vec<(usize, usize, i32)> = oracle_db
        .planted
        .iter()
        .map(|&(i, k)| {
            let target = &oracle_db.db.encoded(i).idx;
            let r = sw_scalar(
                &queries[k],
                target,
                reference.scoring(),
                reference.gap_model(),
            );
            (i, k, r.score)
        })
        .collect();
    drop(oracle_db);

    let mut tally = Tally::default();
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while more_setups(setups.len(), start) {
        drop(last.take()); // free the previous build before timing the next
        let (built, setup_s, build_s) = boot(opts, &expected, &mut tally);
        setups.push(setup_s);
        builds.push(build_s);
        last = Some(built);
    }
    report.phase("setup", tally);
    let (db, batched, aligner) = last.expect("at least one setup");
    ScanSetup {
        db,
        batched,
        aligner,
        expected,
        setups,
        builds,
    }
}

fn by_index(hits: &[Hit]) -> Vec<(usize, i32)> {
    let mut v: Vec<(usize, i32)> = hits.iter().map(|h| (h.db_index, h.score)).collect();
    v.sort_unstable();
    v
}

pub fn run(opts: &Opts, report: &mut Report) -> Metrics {
    let mut s = setup(opts, report);
    let queries = standard_encoded();
    let db = &s.db.db;
    let residues = db.total_residues() as u64;
    let pool_cfg = PoolConfig {
        threads: opts.host.nproc,
        ..PoolConfig::default()
    };
    let engine = opts.engine;

    let (mut t1, mut tp) = (Tally::default(), Tally::default());
    // Each query's fastest single-thread and pool search over the
    // passes, s: a slow spell of the host rarely covers both passes.
    let mut best1 = vec![f64::INFINITY; queries.len()];
    let mut best_pool = vec![f64::INFINITY; queries.len()];
    let mut passes = 0;
    let mut promotions = 0u64;
    // Whole passes only, at least two; stop before a pass that would
    // overrun.
    let start = Instant::now();
    let mut pass_s = 0.0;
    while passes < 2 || start.elapsed().as_secs_f64() + pass_s <= opts.seconds as f64 {
        let pass = Instant::now();
        let mut single = Vec::with_capacity(queries.len());
        for (k, q) in queries.iter().enumerate() {
            s.aligner.reset_stats();
            let t = Instant::now();
            let hits = s.aligner.search_batched(q, db, &s.batched);
            best1[k] = best1[k].min(t.elapsed().as_secs_f64());
            promotions += s.aligner.stats().promotions;
            t1.record(hits.len() == db.len() && planted_ok(&s.expected, k, &hits));
            single.push(by_index(&hits));
        }

        for (k, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let out = parallel_search(q, db, &pool_cfg, || builder(engine));
            best_pool[k] = best_pool[k].min(t.elapsed().as_secs_f64());
            tp.record(by_index(&out.hits) == single[k]);
        }
        pass_s = pass.elapsed().as_secs_f64();
        passes += 1;
    }
    let cells = queries.iter().map(|q| q.len() as u64).sum::<u64>() * residues;
    let n_seqs = db.len();
    report.phase("single-thread", t1);
    report.phase("pool", tp);
    // Setups after the passes too, so a slow spell of the host rarely
    // covers all of them; `setup_s` is the median of both sides. The
    // searched database goes first, as between the first setups.
    drop((s.db, s.batched, s.aligner));
    let (mut again, before) = (Tally::default(), s.setups.len());
    let start = Instant::now();
    while more_setups(s.setups.len() - before, start) {
        let setup_s = boot(opts, &s.expected, &mut again).1;
        s.setups.push(setup_s);
    }
    report.phase("setup after passes", again);
    report.note(format!(
        "setups timed {} (before and after the passes)",
        s.setups.len()
    ));
    report.note(format!(
        "passes {} | promotions {} | promotion share {:.6} of sequences scored | planted homologs {}",
        passes,
        promotions,
        promotions as f64 / (n_seqs * queries.len() * passes) as f64,
        s.expected.len()
    ));

    let mut m = Metrics::default();
    m.set("setup_s", median(&s.setups), "s");
    let pool_s: f64 = best_pool.iter().sum();
    m.set("gcups", gcups(cells, pool_s), "GCUPS");
    m.set("gcups_1t", gcups(cells, best1.iter().sum()), "GCUPS");
    m.set("qps", queries.len() as f64 / pool_s, "queries/s");
    // Over the ten queries' fastest pool searches.
    let lat_ms: Vec<f64> = best_pool.iter().map(|s| s * 1e3).collect();
    let p50 = percentile(&lat_ms, 0.5);
    m.set("latency_p50_ms", p50, "ms");
    m.set("latency_p95_ms", percentile(&lat_ms, 0.95), "ms");
    // Offline search hands its caller the whole answer at once, so the
    // first hits arrive with the full result.
    m.set("first_chunk_p50_ms", p50, "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}
