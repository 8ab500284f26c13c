//! Shard worker: one process owning one database slice.
//!
//! A shard loads the *full* database, deterministically computes its
//! own slice with [`Database::partition`] (so every shard in a
//! topology agrees on the split without coordination), and serves
//! wire-protocol queries against that slice through the in-process
//! [`BatchServer`]. Hits leave with **global** database indices, so
//! the gateway's merge needs no per-shard translation table.
//!
//! Robustness wiring:
//! - a real TCP disconnect while a query is computing cancels the job
//!   with [`CancelReason::ClientDrop`] the moment the connection's
//!   reader sees the hang-up (see [`crate::conn`]) and charges
//!   `swsimd_net_cancelled_total{reason="client_drop"}`;
//! - with a journal directory configured, every query checkpoints
//!   through [`swsimd_runner::journal`]; a drain or crash mid-query
//!   leaves the fsynced journal on disk and the restarted shard
//!   resumes it instead of recomputing finished chunks;
//! - [`FaultPlan`] reply faults (torn frame, bit flip, delay) fire on
//!   the reply write path, so every client-side defense is testable
//!   against this real server.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_core::{AlignerBuilder, CancelReason, CancelToken, Hit};
use swsimd_matrices::Alphabet;
use swsimd_obs::flight::{ShardTiming, Stage, StageTiming};
use swsimd_obs::trace::TraceCtx;
use swsimd_runner::{
    checkpointed_search_observed, rank_hits, read_journal_file,
    resume_checkpointed_search_observed, BatchServer, FaultPlan, Fidelity, JournalError,
    JournalWriter, PoolConfig, QueryOutcome, ServeError, ServerClient, ServerConfig,
};
use swsimd_seq::{integrity::crc32, Database};

use crate::conn::{
    lock_ok, observability_reply, Acceptor, Conn, Event, InFlight, STREAM_HEARTBEAT,
};
use crate::metrics::{AbandonReason, NetCancelled, StreamMetrics};
use crate::wire::{ranking_digest, Msg, RemoteError};

/// Configuration for one shard worker.
pub struct ShardConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral test port).
    pub listen: String,
    /// This shard's slice index.
    pub shard_index: u32,
    /// Total slices in the topology.
    pub shard_count: u32,
    /// Batch-server tuning for the slice.
    pub server: ServerConfig,
    /// Checkpoint queries into `<dir>/q<crc>-s<shard>.swjl` journals;
    /// unfinished journals are resumed on the next identical query.
    pub journal_dir: Option<PathBuf>,
    /// How long a drain waits for in-flight queries before cancelling
    /// the stragglers with [`CancelReason::Shutdown`].
    pub drain_timeout: Duration,
    /// Worker threads for journaled (durable) queries.
    pub threads: usize,
    /// Deterministic network faults (reply tears/flips/delays).
    pub fault: FaultPlan,
    /// Start as a warm standby: the slice is loaded and the batch
    /// server is hot, but pongs advertise `draining` and queries are
    /// refused with [`RemoteError::Draining`] until a supervisor sends
    /// [`Msg::Activate`] to promote this replica to live duty.
    pub standby: bool,
    /// Read-timeout backstop on accepted connections: how long a
    /// frame may stall mid-read before the peer is declared wedged.
    /// Idle time between frames never trips it, and streams heartbeat
    /// well inside it, so a slow query cannot either.
    pub idle_timeout: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            shard_index: 0,
            shard_count: 1,
            server: ServerConfig::default(),
            journal_dir: None,
            drain_timeout: Duration::from_secs(5),
            threads: 1,
            fault: FaultPlan::default(),
            standby: false,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

type AlignerFactory = Arc<dyn Fn() -> AlignerBuilder + Send + Sync>;

struct ShardShared {
    client: ServerClient,
    shard_index: u32,
    shard_count: u32,
    /// First global index of this shard's slice.
    offset: usize,
    slice_db: Arc<Database>,
    make_aligner: AlignerFactory,
    journal_dir: Option<PathBuf>,
    threads: usize,
    fault: FaultPlan,
    draining: AtomicBool,
    standby: AtomicBool,
    stopping: AtomicBool,
    in_flight: InFlight,
    cancelled: NetCancelled,
    stream: StreamMetrics,
    idle_timeout: Duration,
    /// Parent token for journaled queries (the batch server governs
    /// its own jobs).
    shard_cancel: CancelToken,
    server: Mutex<Option<BatchServer>>,
}

/// A running shard worker; dropping it without [`ShardServer::shutdown`]
/// aborts connections without draining.
pub struct ShardServer {
    shared: Arc<ShardShared>,
    acceptor: Acceptor,
    drain_timeout: Duration,
}

impl ShardServer {
    /// Load the slice, start the batch server, and begin accepting.
    ///
    /// `db` is the **full** database; the served slice is
    /// `db.partition(shard_count)[shard_index]` (empty when the
    /// partitioner produced fewer ranges than shards).
    pub fn start<F>(
        db: &Database,
        alphabet: &Alphabet,
        cfg: ShardConfig,
        make_aligner: F,
    ) -> std::io::Result<ShardServer>
    where
        F: Fn() -> AlignerBuilder + Send + Sync + 'static,
    {
        let ranges = db.partition(cfg.shard_count.max(1) as usize);
        let range = ranges
            .get(cfg.shard_index as usize)
            .cloned()
            .unwrap_or(0..0);
        let offset = range.start;
        let records = range.clone().map(|i| db.record(i).clone()).collect();
        let slice_db = Arc::new(Database::from_records(records, alphabet));

        let make_aligner: AlignerFactory = Arc::new(make_aligner);
        let factory = Arc::clone(&make_aligner);
        let server = BatchServer::try_start(Arc::clone(&slice_db), cfg.server, move || factory())
            .map_err(std::io::Error::other)?;
        if let Some(dir) = &cfg.journal_dir {
            std::fs::create_dir_all(dir)?;
        }

        let shared = Arc::new(ShardShared {
            client: server.client(),
            shard_index: cfg.shard_index,
            shard_count: cfg.shard_count,
            offset,
            slice_db,
            make_aligner,
            journal_dir: cfg.journal_dir,
            threads: cfg.threads.max(1),
            fault: cfg.fault,
            draining: AtomicBool::new(false),
            standby: AtomicBool::new(cfg.standby),
            stopping: AtomicBool::new(false),
            in_flight: InFlight::default(),
            cancelled: NetCancelled::new(),
            stream: StreamMetrics::new(),
            idle_timeout: cfg.idle_timeout,
            shard_cancel: CancelToken::new(),
            server: Mutex::new(Some(server)),
        });

        // SO_REUSEADDR: a supervised respawn must rebind this exact
        // port even while the dead process's socket sits in TIME_WAIT.
        let listener = crate::listen::bind_reuse(&cfg.listen)?;
        let conn_shared = Arc::clone(&shared);
        let acceptor = Acceptor::start(listener, move |stream| {
            serve_conn(stream, &conn_shared);
        })?;

        Ok(ShardServer {
            shared,
            acceptor,
            drain_timeout: cfg.drain_timeout,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// True once a drain has been requested (locally or by a
    /// [`Msg::Drain`] frame).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// True while this replica is a warm standby awaiting promotion.
    pub fn is_standby(&self) -> bool {
        self.shared.standby.load(Ordering::Acquire)
    }

    /// Promote a warm standby to live duty (the in-process equivalent
    /// of a [`Msg::Activate`] frame). Returns true when this call did
    /// the promotion.
    pub fn activate(&self) -> bool {
        self.shared.standby.swap(false, Ordering::AcqRel)
    }

    /// Queries currently computing.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.get()
    }

    /// Begin refusing new queries (health probes still answer).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Drain, wait up to the configured drain timeout for in-flight
    /// queries, cancel stragglers with [`CancelReason::Shutdown`], and
    /// stop. Journals of cancelled queries stay on disk for resume.
    /// Returns true when every in-flight query finished in time.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        self.drain();
        let clean = self.shared.in_flight.wait_idle(self.drain_timeout);
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.shard_cancel.cancel(CancelReason::Shutdown);
        self.acceptor.stop();
        if let Some(server) = lock_ok(&self.shared.server).take() {
            server.shutdown();
        }
        clean
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if self.acceptor.is_running() {
            self.shutdown_inner();
        }
    }
}

/// Write `msg`, applying any armed reply faults. Returns false when
/// the connection must close (tear injected or write failed).
fn write_reply(stream: &mut TcpStream, shared: &ShardShared, msg: &Msg) -> bool {
    if let Some(d) = shared.fault.reply_delay(shared.shard_index as usize) {
        std::thread::sleep(d);
    }
    let mut framed = crate::wire::frame(&msg.encode());
    match shared.fault.reply_fault(shared.shard_index as usize) {
        swsimd_runner::ReplyFault::Torn => {
            let keep = framed.len() / 2;
            let _ = stream.write_all(&framed[..keep]);
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return false;
        }
        swsimd_runner::ReplyFault::BitFlip => {
            // Flip a payload byte: the length prefix stays honest, so
            // the client reads a whole frame and the CRC catches it.
            let idx = 4 + (framed.len() - 8) / 2;
            framed[idx] ^= 0x20;
        }
        swsimd_runner::ReplyFault::None => {}
    }
    stream
        .write_all(&framed)
        .and_then(|_| stream.flush())
        .is_ok()
}

/// Worker → connection events for one query. The durable worker sends
/// every chunk before `Done` on the same channel, so the connection has
/// every chunk once it sees `Done`.
enum StreamEv {
    /// `(cursor, globalized top-k hits)` for one journal chunk.
    Chunk(u64, Vec<Hit>),
    Done(Result<QueryOutcome, ServeError>),
}

/// A shard connection: its work reports journal chunks and outcomes.
type ShardConn = Conn<StreamEv>;

fn pong(shared: &ShardShared, nonce: u64, draining: bool) -> Msg {
    Msg::Pong {
        nonce,
        shard: shared.shard_index,
        draining,
    }
}

fn serve_conn(stream: TcpStream, shared: &Arc<ShardShared>) {
    // The idle timeout is a backstop so a peer wedged mid-frame cannot
    // pin this connection forever; streams heartbeat well inside it.
    let Some(mut conn) = ShardConn::open(stream, shared.idle_timeout, "shard") else {
        return;
    };
    while let Some(msg) = conn.next_request() {
        let reply = match msg {
            // A standby advertises `draining` so gateways keep it
            // unrouted until the supervisor promotes it.
            Msg::Ping { nonce } => pong(
                shared,
                nonce,
                shared.draining.load(Ordering::Acquire) || shared.standby.load(Ordering::Acquire),
            ),
            Msg::Activate => {
                if shared.standby.swap(false, Ordering::AcqRel) {
                    swsimd_obs::event!("standby_activated", "shard" => shared.shard_index);
                }
                pong(shared, 0, shared.draining.load(Ordering::Acquire))
            }
            Msg::Drain => {
                shared.draining.store(true, Ordering::Release);
                pong(shared, 0, true)
            }
            Msg::Query {
                id,
                top_k,
                deadline_ms,
                slice_index,
                slice_count,
                query,
                trace,
                tenant,
            } => {
                let req = Req {
                    id,
                    top_k,
                    deadline_ms,
                    slice_index,
                    slice_count,
                    query,
                    trace,
                    tenant,
                };
                if !serve_query(&mut conn, shared, req, Answer::Hits) {
                    return;
                }
                continue;
            }
            Msg::StreamQuery {
                id,
                top_k,
                deadline_ms,
                slice_index,
                slice_count,
                credit,
                cursor,
                query,
                trace,
                tenant,
            } => {
                let req = Req {
                    id,
                    top_k,
                    deadline_ms,
                    slice_index,
                    slice_count,
                    query,
                    trace,
                    tenant,
                };
                let answer = Answer::Stream {
                    credit,
                    resume: cursor,
                };
                if !serve_query(&mut conn, shared, req, answer) {
                    return;
                }
                conn.finish_stream(id);
                continue;
            }
            // Observability requests answer as on every server. Reply
            // kinds have no meaning as requests, a stray Credit has no
            // stream to feed, and Resume is a gateway-only request
            // (shards reconnect with a StreamQuery cursor): close.
            other => match observability_reply(&other) {
                Some(reply) => reply,
                None => return,
            },
        };
        if !write_reply(&mut conn.stream, shared, &reply) {
            return;
        }
    }
}

/// A [`Msg::Query`]'s or [`Msg::StreamQuery`]'s common fields, bundled
/// so the handler signatures stay readable.
struct Req {
    id: u64,
    top_k: u32,
    deadline_ms: u32,
    slice_index: u32,
    slice_count: u32,
    query: Vec<u8>,
    trace: TraceCtx,
    tenant: String,
}

impl Req {
    /// The typed refusal for a query this shard must not run: draining
    /// or standby, or addressed to another slice. `slice_count` 0 is a
    /// direct whole-slice query (tests, single-shard clients).
    fn refusal(&self, shared: &ShardShared) -> Option<Msg> {
        let err = if shared.draining.load(Ordering::Acquire)
            || shared.standby.load(Ordering::Acquire)
        {
            RemoteError::Draining
        } else if self.slice_count != 0
            && (self.slice_count != shared.shard_count || self.slice_index != shared.shard_index)
        {
            RemoteError::WrongShard {
                got: self.slice_index,
                want: shared.shard_index,
            }
        } else {
            return None;
        };
        Some(Msg::Error { id: self.id, err })
    }

    /// Absolute deadline from the wire budget (0 = none).
    fn deadline(&self) -> Option<Instant> {
        (self.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(self.deadline_ms)))
    }
}

/// The trace context for work under `span`: the span itself when
/// tracing is live, else the caller's span.
fn child_ctx(trace: TraceCtx, span: &swsimd_obs::Span) -> TraceCtx {
    TraceCtx {
        trace_id: trace.trace_id,
        span_id: if span.id() != 0 {
            span.id()
        } else {
            trace.span_id
        },
    }
}

/// Globalize slice-local hits and rank them.
fn globalize(shared: &ShardShared, mut hits: Vec<Hit>, top_k: usize) -> Vec<Hit> {
    for h in &mut hits {
        h.db_index += shared.offset;
    }
    rank_hits(hits, top_k)
}

/// How a query's answer goes back to the peer.
#[derive(Clone, Copy)]
enum Answer {
    /// A [`Msg::StreamQuery`]: chunks `credit` ahead of the client's
    /// grants, skipping chunks at or below `resume` (delivered before an
    /// interruption), `Progress` heartbeats, then `Fin`.
    Stream { credit: u32, resume: u64 },
    /// A plain [`Msg::Query`]: the same run with unbounded credit and no
    /// heartbeats, rendered as one `Hits` frame.
    Hits,
}

/// The timing summary a shard sends with its answer; `rtt_ns` is filled
/// in by the gateway, the only side that can observe it.
fn shard_timing(
    shared: &ShardShared,
    span: &swsimd_obs::Span,
    outcome: &QueryOutcome,
) -> ShardTiming {
    ShardTiming {
        shard: shared.shard_index,
        root_span: span.id(),
        engine: outcome.engine.to_string(),
        rtt_ns: 0,
        stages: vec![
            StageTiming {
                stage: Stage::Queue,
                ns: outcome.queue_ns,
            },
            StageTiming {
                stage: Stage::Kernel,
                ns: outcome.compute_ns,
            },
        ],
    }
}

/// Serve one query on this connection and answer it as `answer` asks.
/// Returns true when the connection may serve its next request, false
/// when it must close (peer gone, protocol violation, or an injected
/// tear).
fn serve_query(conn: &mut ShardConn, shared: &Arc<ShardShared>, req: Req, answer: Answer) -> bool {
    if let Some(refusal) = req.refusal(shared) {
        return write_reply(&mut conn.stream, shared, &refusal);
    }
    let (stream, credit, resume_cursor) = match answer {
        Answer::Stream { credit, resume } => (true, u64::from(credit), resume),
        Answer::Hits => (false, u64::MAX, 0),
    };
    let _guard = shared.in_flight.enter();
    // Adopt the trace context that crossed the wire: the shard-side
    // span tree (this root, then the batch server's kernel spans)
    // parents under the gateway's request span, stitching one
    // distributed tree keyed by the shared trace id.
    let _adopt = swsimd_obs::adopt(req.trace);
    let mut span = swsimd_obs::span!(
        "shard_query",
        "shard" => shared.shard_index,
        "id" => req.id,
        "cursor" => resume_cursor
    );
    let ctx = child_ctx(req.trace, &span);
    if resume_cursor > 0 {
        // A non-zero cursor is a reconnect continuing from durable
        // state — the stream-resume event the soak test asserts on.
        shared.stream.resumes.inc();
        swsimd_obs::event!("stream_resume", "shard" => shared.shard_index, "cursor" => resume_cursor);
    }
    let (id, top_k, trace_id) = (req.id, req.top_k as usize, req.trace.trace_id);
    let deadline = req.deadline();

    // Cost accounting for Progress frames: exact per-chunk cell counts
    // from the same deterministic partition the journal uses.
    let query_len = req.query.len() as u64;
    let cells_total = shared.slice_db.total_residues() as u64 * query_len;
    let chunk_cells: Vec<u64> = shared
        .slice_db
        .partition(shared.threads)
        .iter()
        .map(|r| {
            r.clone()
                .map(|i| shared.slice_db.record(i).len() as u64)
                .sum::<u64>()
                * query_len
        })
        .collect();

    let durable = shared.journal_dir.is_some();
    let token = match submit(
        conn,
        shared,
        &req.tenant,
        req.query,
        top_k,
        deadline,
        ctx,
        stream,
    ) {
        Ok(token) => token,
        Err(e) => {
            let err = RemoteError::Serve(e);
            return write_reply(&mut conn.stream, shared, &Msg::Error { id, err });
        }
    };

    let mut queued: std::collections::VecDeque<(u64, Vec<Hit>)> = std::collections::VecDeque::new();
    let mut done: Option<Result<QueryOutcome, ServeError>> = None;
    let mut credit_left = credit;
    let mut stall_counted = false;
    let mut cells_done: u64 = 0;
    let mut next_beat = Instant::now() + STREAM_HEARTBEAT;
    let mut sent_chunks: u64 = 0;
    let abandon = |reason: AbandonReason, cancel: CancelReason| {
        token.cancel(cancel);
        shared.cancelled.record(cancel);
        if stream {
            shared.stream.abandon(reason);
        }
        swsimd_obs::event!("query_abandoned", "id" => id, "reason" => reason.as_str());
    };

    loop {
        // 1. Deliver ready chunks while the credit window allows.
        while let Some((c, _)) = queued.front() {
            if *c <= resume_cursor {
                // Already delivered before the interruption.
                queued.pop_front();
                continue;
            }
            if credit_left == 0 {
                if !stall_counted {
                    shared.stream.credit_stalls.inc();
                    stall_counted = true;
                }
                break;
            }
            let (c, hits) = queued.pop_front().expect("front checked");
            let chunk = Msg::StreamChunk {
                id,
                shard: shared.shard_index,
                cursor: c,
                hits,
            };
            if !write_reply(&mut conn.stream, shared, &chunk) {
                abandon(AbandonReason::ClientDrop, CancelReason::ClientDrop);
                return false;
            }
            shared.stream.chunks.inc();
            sent_chunks += 1;
            credit_left -= 1;
            if durable {
                cells_done += chunk_cells.get((c - 1) as usize).copied().unwrap_or(0);
            }
            next_beat = Instant::now() + STREAM_HEARTBEAT;
        }

        // 2. Everything delivered and the worker is done: finish.
        if queued.is_empty() {
            if let Some(result) = done.take() {
                let last = match result {
                    Ok(outcome) => {
                        let timing = Some(shard_timing(shared, &span, &outcome));
                        let hits = globalize(shared, outcome.hits, top_k);
                        span.record("engine", outcome.engine);
                        span.record("retries", outcome.retries as u64);
                        span.record("chunks", sent_chunks);
                        if stream {
                            Msg::Fin {
                                id,
                                digest: ranking_digest(&hits),
                                degraded: false,
                                missing_shards: Vec::new(),
                                trace_id,
                                timing,
                                fidelity: outcome.fidelity,
                            }
                        } else {
                            Msg::Hits {
                                id,
                                degraded: false,
                                missing_shards: Vec::new(),
                                hits,
                                trace_id,
                                timing,
                                fidelity: outcome.fidelity,
                            }
                        }
                    }
                    Err(e) => {
                        if e == ServeError::DeadlineExceeded {
                            shared.cancelled.record(CancelReason::Deadline);
                        }
                        if stream {
                            shared.stream.abandon(AbandonReason::Error);
                        }
                        Msg::Error {
                            id,
                            err: RemoteError::Serve(e),
                        }
                    }
                };
                return write_reply(&mut conn.stream, shared, &last);
            }
        }

        // 3. Heartbeat a stream when nothing else proved liveness
        //    recently.
        if Instant::now() >= next_beat {
            let beat = Msg::Progress {
                id,
                cells_done,
                cells_total,
            };
            if stream && !write_reply(&mut conn.stream, shared, &beat) {
                abandon(AbandonReason::ClientDrop, CancelReason::ClientDrop);
                return false;
            }
            next_beat = Instant::now() + STREAM_HEARTBEAT;
        }

        // 4. Block for the next event — a chunk or the outcome, a
        //    credit grant, the peer's hang-up — until the next
        //    heartbeat is due.
        match conn.recv_until(next_beat) {
            Some(Event::Work(StreamEv::Chunk(c, hits))) => queued.push_back((c, hits)),
            Some(Event::Work(StreamEv::Done(result))) => {
                // Without a journal there are no checkpoint boundaries
                // to align to: stream degenerately as one chunk + Fin.
                if let (true, false, Ok(outcome)) = (stream, durable, &result) {
                    queued.push_back((1, globalize(shared, outcome.hits.clone(), top_k)));
                    cells_done = cells_total;
                }
                done = Some(result);
            }
            // Credit grants are the only frames a stream client
            // legally sends mid-stream.
            Some(Event::Frame(Msg::Credit { id: cid, credits })) if stream && cid == id => {
                credit_left += u64::from(credits);
                stall_counted = false;
            }
            // Protocol violation or torn frame mid-query (a one-shot
            // client may send nothing before its reply): the
            // connection state is unrecoverable.
            Some(Event::Frame(_)) => {
                abandon(AbandonReason::Error, CancelReason::ClientDrop);
                return false;
            }
            Some(Event::Closed) if shared.stopping.load(Ordering::Acquire) => {
                abandon(AbandonReason::Shutdown, CancelReason::Shutdown);
                let err = RemoteError::Serve(ServeError::ShutDown);
                let _ = write_reply(&mut conn.stream, shared, &Msg::Error { id, err });
                return false;
            }
            // The real socket disconnect IS the cancellation signal; a
            // durable job's journal stays on disk, so it is resumable.
            Some(Event::Closed) => {
                abandon(AbandonReason::ClientDrop, CancelReason::ClientDrop);
                return false;
            }
            None => {}
        }
    }
}

/// Start `query` on this shard's compute path; its outcome (and, with
/// `stream` set on the durable path, every checkpoint chunk,
/// globalized and top-k ranked) arrives on `conn` as work events.
/// Returns the job's cancel token.
///
/// With a journal directory the query runs under
/// [`checkpointed_search_observed`] on a worker thread, resuming an
/// existing journal for the same query first; the journal file is
/// deleted only after the result is computed, so any interruption
/// leaves a resumable checkpoint. Otherwise it goes through the batch
/// server.
#[allow(clippy::too_many_arguments)] // query context travels together
fn submit(
    conn: &ShardConn,
    shared: &Arc<ShardShared>,
    tenant: &str,
    query: Vec<u8>,
    top_k: usize,
    deadline: Option<Instant>,
    trace: TraceCtx,
    stream: bool,
) -> Result<CancelToken, ServeError> {
    let panicked = StreamEv::Done(Err(ServeError::WorkerPanicked));
    if shared.journal_dir.is_none() {
        let pending = shared
            .client
            .submit_traced_for(tenant, query, top_k, deadline, trace)?;
        let token = pending.token().clone();
        conn.spawn_work(move || StreamEv::Done(pending.wait()), panicked);
        return Ok(token);
    }
    let token = shared.shard_cancel.child_with_deadline(deadline);
    let worker_token = token.clone();
    let post_chunk = conn.work_tx();
    let shared = Arc::clone(shared);
    conn.spawn_work(
        move || {
            // Adopt on the worker thread: pool spans parent under the
            // shard's request span even across this thread hop.
            let _adopt = swsimd_obs::adopt(trace);
            let started = Instant::now();
            let result = durable_compute(&shared, &query, worker_token, &mut |chunk, hits| {
                // Rank inside the observer so only `top_k` hits per
                // chunk cross the channel: the full per-chunk hit list
                // is journal state, not stream payload.
                if stream {
                    let hits = globalize(&shared, hits.to_vec(), top_k);
                    post_chunk(StreamEv::Chunk(chunk as u64 + 1, hits));
                }
            });
            StreamEv::Done(result.map(|hits| QueryOutcome {
                hits,
                queue_ns: 0,
                compute_ns: started.elapsed().as_nanos() as u64,
                engine: "pool",
                retries: 0,
                fidelity: Fidelity::Full,
            }))
        },
        panicked,
    );
    Ok(token)
}

fn durable_compute(
    shared: &ShardShared,
    query: &[u8],
    token: CancelToken,
    on_chunk: &mut dyn FnMut(usize, &[Hit]),
) -> Result<Vec<Hit>, ServeError> {
    swsimd_core::validate_encoded(query).map_err(ServeError::InvalidQuery)?;
    let dir = shared.journal_dir.as_ref().expect("durable path");
    let path = dir.join(format!(
        "q{:08x}-s{}.swjl",
        crc32(query),
        shared.shard_index
    ));
    let cfg = PoolConfig {
        threads: shared.threads,
        sort_batches: true,
        cancel: Some(token.clone()),
        fault_plan: shared.fault.clone(),
        ..PoolConfig::default()
    };
    let factory = &shared.make_aligner;

    if path.exists() {
        if let Ok(journal) = read_journal_file(&path) {
            match resume_checkpointed_search_observed(
                &journal,
                query,
                &shared.slice_db,
                &cfg,
                || factory(),
                &path,
                on_chunk,
            ) {
                Ok((out, _stats)) => {
                    if let Some(server) = lock_ok(&shared.server).as_ref() {
                        server.note_journal_replay();
                    }
                    let _ = std::fs::remove_file(&path);
                    return Ok(out.hits);
                }
                // Interrupted mid-resume (cancel, crash fault, real
                // I/O): the durable resume already checkpointed its
                // progress, so keep the journal — a crash-looping
                // shard makes monotone progress across respawns.
                Err(JournalError::Io(_)) => {
                    return Err(match token.reason() {
                        Some(CancelReason::Deadline) => ServeError::DeadlineExceeded,
                        Some(_) => ServeError::ShutDown,
                        None => ServeError::WorkerPanicked,
                    });
                }
                // Journal/database mismatch or corruption: start over
                // from scratch below.
                Err(_) => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        } else {
            let _ = std::fs::remove_file(&path);
        }
    }

    let mut writer = JournalWriter::create(&path).map_err(|_| ServeError::ShutDown)?;
    match checkpointed_search_observed(
        query,
        &shared.slice_db,
        &cfg,
        || factory(),
        &mut writer,
        on_chunk,
    ) {
        Ok(out) => {
            drop(writer);
            let _ = std::fs::remove_file(&path);
            Ok(out.hits)
        }
        Err(_) => {
            // Interrupted (cancel, crash fault, or real I/O error):
            // keep the journal for resume and surface the typed cause.
            Err(match token.reason() {
                Some(CancelReason::Deadline) => ServeError::DeadlineExceeded,
                Some(_) => ServeError::ShutDown,
                None => ServeError::WorkerPanicked,
            })
        }
    }
}
