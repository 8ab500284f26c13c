//! Seeded workload inputs: databases, query sequences, arrival
//! schedules, and the exact answers every reply is checked against.

use std::time::{Duration, Instant};

use swsimd_core::batch::lanes_for;
use swsimd_core::{Aligner, AlignerBuilder, EngineKind, Hit};
use swsimd_matrices::{blosum62, Alphabet};
use swsimd_runner::rank_hits;
use swsimd_seq::{
    generate, generate_exact, plant_homologs, standard_queries, BatchedDatabase, Database,
    SynthConfig,
};

use crate::util::{derive, gcups, Rng};

/// Hits requested per query and compared against the oracle.
pub const TOP_K: usize = 10;

/// Setups are timed before the measured load and again after it, each
/// time at least `MIN_SETUPS` of them and for at least `SETUP_BUDGET`;
/// `setup_s` is the median of all of them.
pub const MIN_SETUPS: usize = 5;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Whether another setup is due, `n` of them having been timed since
/// `start`.
pub fn more_setups(n: usize, start: Instant) -> bool {
    n < MIN_SETUPS || start.elapsed() < SETUP_BUDGET
}

/// Planted homologs per standard query on `scan` (10 × 4 = 40 of
/// 16 384 sequences, about 0.25%).
const HOMOLOGS_PER_QUERY: usize = 4;
const HOMOLOG_DIVERGENCE: f64 = 0.2;

/// Mean gap between `serve-light` arrivals (20 queries/s) and the
/// largest jitter applied to each due time.
const LIGHT_GAP: Duration = Duration::from_millis(50);
const LIGHT_JITTER: f64 = 0.4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Scan,
    ServeLight,
    ServeHeavy,
    StreamDurable,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "scan" => Workload::Scan,
            "serve-light" => Workload::ServeLight,
            "serve-heavy" => Workload::ServeHeavy,
            "stream-durable" => Workload::StreamDurable,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::ServeLight => "serve-light",
            Workload::ServeHeavy => "serve-heavy",
            Workload::StreamDurable => "stream-durable",
        }
    }

    /// `(sequences, longest sequence)` of the synthetic database.
    fn db_shape(self) -> (usize, usize) {
        match self {
            Workload::Scan => (1 << 14, 8_000),
            Workload::ServeLight => (192, 400),
            Workload::ServeHeavy | Workload::StreamDurable => (4_096, 8_000),
        }
    }

    /// Indices into the ten standard queries this workload draws from.
    pub fn query_pool(self) -> Vec<usize> {
        match self {
            Workload::ServeLight => (0..4).collect(), // q47..q290
            _ => (0..10).collect(),
        }
    }
}

/// The aligner every layer is built from: BLOSUM62, default gaps, and
/// the selected engine.
pub fn builder(engine: EngineKind) -> AlignerBuilder {
    Aligner::builder().matrix(blosum62()).engine(engine)
}

/// The ten standard queries (47–5012 aa), encoded.
pub fn standard_encoded() -> Vec<Vec<u8>> {
    let alphabet = Alphabet::protein();
    standard_queries()
        .iter()
        .map(|r| alphabet.encode(&r.seq))
        .collect()
}

/// A workload's database plus, on `scan`, where its planted homologs
/// are: `(db_index, standard query index)`.
pub struct Db {
    pub db: Database,
    pub planted: Vec<(usize, usize)>,
}

/// Build the workload's database from the seed (deterministic).
///
/// Sequence lengths follow the repository's standard synthetic profile
/// (`SynthConfig`'s default seed), and the residues are drawn from the
/// run's seed. The batch kernel's cost depends on the length profile:
/// one 8000-residue outlier pads its whole 64-lane batch, which moved
/// single-thread GCUPS by 30% between seeds. A fixed profile keeps that
/// out of the run-to-run spread; `core.batch.lane_util` reports it.
pub fn build_db(w: Workload, seed: u64) -> Db {
    let (n_seqs, max_len) = w.db_shape();
    let mut records = generate(&SynthConfig {
        n_seqs,
        max_len,
        ..SynthConfig::default()
    });
    let residues = derive(seed, "db");
    for (i, r) in records.iter_mut().enumerate() {
        r.seq = generate_exact(r.seq.len(), residues ^ i as u64).seq;
    }
    if w == Workload::Scan {
        for (k, q) in standard_queries().iter().enumerate() {
            plant_homologs(
                &mut records,
                &q.seq,
                HOMOLOGS_PER_QUERY,
                HOMOLOG_DIVERGENCE,
                derive(seed, "plant") ^ k as u64,
            );
            // Tag this query's homologs so they can be found again
            // after later insertions shift positions.
            for r in records.iter_mut() {
                if let Some(rest) = r.id.strip_prefix("planted|") {
                    r.id = format!("homolog|q{k}|{rest}");
                }
            }
        }
    }
    let db = Database::from_records(records, &Alphabet::protein());
    let planted = (0..db.len())
        .filter_map(|i| {
            let id = &db.record(i).id;
            let rest = id.strip_prefix("homolog|q")?;
            let k = rest.split('|').next()?.parse().ok()?;
            Some((i, k))
        })
        .collect();
    Db { db, planted }
}

/// Batch a database for `engine`'s lane count, as `Aligner::search`
/// does.
pub fn batch(db: &Database, engine: EngineKind) -> BatchedDatabase {
    BatchedDatabase::build(db, lanes_for(engine), true)
}

/// The seeded order in which a serving workload sends its queries:
/// shuffled rounds. Each round holds every pool query once; on the
/// ten-length pool the middle length (q464) appears three times, so the
/// median and the 95th percentile each fall inside one length's group
/// rather than on the boundary between two.
pub fn query_sequence(w: Workload, seed: u64, len: usize) -> Vec<usize> {
    let mut round = w.query_pool();
    if round.len() == 10 {
        round.extend([4, 4]);
    }
    let mut rng = Rng::new(derive(seed, "order"));
    let mut out = Vec::with_capacity(len + round.len());
    while out.len() < len {
        let mut r = round.clone();
        rng.shuffle(&mut r);
        out.extend(r);
    }
    out.truncate(len);
    out
}

/// Open-loop due times (offsets from the start of the measured phase):
/// one arrival per `LIGHT_GAP` on average, each jittered by up to
/// ±40% of the gap.
pub fn arrival_schedule(seed: u64, within: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(derive(seed, "arrivals"));
    let gap = LIGHT_GAP.as_secs_f64();
    let mut out = Vec::new();
    let mut i = 1u64;
    loop {
        let jitter = (rng.next_f64() * 2.0 - 1.0) * LIGHT_JITTER * gap;
        let due = Duration::from_secs_f64(i as f64 * gap + jitter);
        if due >= within {
            return out;
        }
        out.push(due);
        i += 1;
    }
}

/// Exact `(db_index, score)` top-k answers for each standard query the
/// workload uses, computed in-process and unsharded exactly as
/// `Aligner::search` does, plus the single-thread GCUPS of computing
/// them. Each query's fastest search counts, so a burst of interference
/// from the host does not decide the figure.
pub struct Oracle {
    pub top: Vec<Option<Vec<(usize, i32)>>>,
    /// Fastest single-thread search of each pool query so far, s.
    best: Vec<f64>,
    /// Saturated 8-bit lanes promoted in one pass over the pool.
    pub promotions: u64,
    passes: usize,
}

impl Oracle {
    /// Passes over the pool for 2 s: the answers, the promotion count
    /// and the first timings.
    pub fn new(w: Workload, db: &Database, engine: EngineKind) -> Oracle {
        let mut o = Oracle {
            top: vec![None; 10],
            best: vec![f64::INFINITY; w.query_pool().len()],
            promotions: 0,
            passes: 0,
        };
        o.time_passes(w, db, engine, Duration::from_secs(2));
        o
    }

    /// Search the pool again, at least once and until `budget` has
    /// gone, keeping each query's fastest time.
    pub fn time_passes(
        &mut self,
        w: Workload,
        db: &Database,
        engine: EngineKind,
        budget: Duration,
    ) {
        let queries = standard_encoded();
        let batched = batch(db, engine);
        let mut aligner = builder(engine).build();
        let start = Instant::now();
        loop {
            for (i, &k) in w.query_pool().iter().enumerate() {
                aligner.reset_stats();
                let t = Instant::now();
                let hits = aligner.search_batched(&queries[k], db, &batched);
                self.best[i] = self.best[i].min(t.elapsed().as_secs_f64());
                if self.passes == 0 {
                    self.promotions += aligner.stats().promotions;
                }
                self.top[k] = Some(pairs(&rank_hits(hits, TOP_K)));
            }
            self.passes += 1;
            if start.elapsed() >= budget {
                return;
            }
        }
    }

    pub fn gcups_1t(&self, w: Workload, db: &Database) -> f64 {
        let queries = standard_encoded();
        let residues: usize = w.query_pool().iter().map(|&k| queries[k].len()).sum();
        gcups(
            (residues * db.total_residues()) as u64,
            self.best.iter().sum(),
        )
    }
}

pub fn pairs(hits: &[Hit]) -> Vec<(usize, i32)> {
    hits.iter().map(|h| (h.db_index, h.score)).collect()
}
