//! Scatter-gather gateway with shard-level fault tolerance.
//!
//! The gateway fans a query out to every shard group, merges the
//! slice results with the same [`rank_hits`] ranking the in-process
//! server uses (so sharded and unsharded answers are bit-identical),
//! and absorbs shard failures instead of propagating them:
//!
//! - **Retries.** Transient failures (connect errors, torn or
//!   bit-flipped frames, per-attempt timeouts, `QueueFull`, a
//!   draining or mis-addressed shard) retry under a bounded
//!   [`RetryPolicy`] budget with seeded-jitter exponential backoff,
//!   rotating across the group's replicas. Fatal errors (invalid
//!   query, admission rejections, blown deadline) propagate
//!   immediately — retrying cannot fix the query.
//! - **Circuit breakers.** Each replica has a [`ShardBreaker`]
//!   mirroring the kernel trust ladder: consecutive failures open the
//!   breaker (`swsimd_shard_down_total`, `swsimd_shard_up` → 0) and
//!   the replica stops receiving traffic until consecutive health
//!   probes re-admit it.
//! - **Hedging.** When a group has a spare replica and the primary
//!   has delivered nothing (no chunk, no `Fin`) after the observed p99
//!   of its round-trips (never below the configured floor), the same
//!   conversation opens on the sibling; the first replica to deliver
//!   carries the slice and the other is hung up on
//!   (`swsimd_hedged_requests_total`).
//! - **One engine.** Every query is a [`Msg::StreamQuery`]
//!   conversation per slice. A one-shot query is a stream with
//!   unbounded credit whose chunks are folded but not forwarded; its
//!   only item is the final merged ranking.
//! - **Graceful degradation.** A group that exhausts its budget is
//!   reported in `missing_shards` and the response is marked
//!   `degraded` (`swsimd_degraded_responses_total`) instead of
//!   failing the whole query; only a fully-missing topology errors.
//! - **Tenant admission.** Each query bills to a tenant (the wire's
//!   `EXT_TENANT` extension; absent = the default tenant). Per-tenant
//!   concurrency caps and token buckets ([`GatewayQos`]) reject
//!   excess load at the edge with typed overload errors carrying a
//!   `retry_after_ms` hint, before any shard sees a frame. Overload
//!   rejections from shards honor the same hints in the retry
//!   schedule ([`RetryPolicy::delay_with_hint`]), and shard-reported
//!   [`Fidelity`] reductions merge conservatively into the response.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_core::Hit;
use swsimd_obs::flight::{AuditRecord, ShardTiming, Stage, StageTiming};
use swsimd_obs::trace::TraceCtx;
use swsimd_obs::Gauge;
use swsimd_runner::{
    rank_hits, tenant_label, FaultPlan, Fidelity, RateConfig, ServeError, TokenBucket,
};

use crate::backoff::RetryPolicy;
use crate::breaker::{BreakerState, ShardBreaker};
use crate::conn::lock_ok;
use crate::metrics::{GatewayMetrics, ReplicaMetrics, StreamMetrics, TenantEdgeMetrics};
use crate::wire::{ranking_digest, read_msg, write_msg, Msg, RemoteError, WireError};

/// Per-tenant admission controls enforced at the gateway edge, before
/// any shard sees a frame. The cost unit here is *query bytes* (the
/// gateway does not know the sharded database size; shard-side
/// buckets meter in DP cells).
#[derive(Clone, Default)]
pub struct GatewayQos {
    /// Max scatter-gather requests concurrently in flight per tenant
    /// (0 = uncapped). Excess requests are shed with
    /// [`ServeError::QueueFull`] and a backoff hint.
    pub max_inflight: usize,
    /// Per-tenant token buckets keyed by tenant name (use
    /// `"default"` for anonymous traffic). Tenants without an entry
    /// are not rate-limited at the gateway.
    pub rates: HashMap<String, RateConfig>,
}

/// Gateway configuration.
pub struct GatewayConfig {
    /// Replica addresses per slice: `shards[slice]` lists equivalent
    /// replicas serving that slice.
    pub shards: Vec<Vec<String>>,
    /// Retry schedule per shard group.
    pub retry: RetryPolicy,
    /// Dial timeout per attempt.
    pub connect_timeout: Duration,
    /// Read timeout per attempt (also capped by the query deadline).
    pub request_timeout: Duration,
    /// Hedge-delay floor; `None` disables hedging. The effective
    /// delay is `max(floor, observed p99 rtt of the primary)`.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that open a replica's breaker.
    pub strike_threshold: u32,
    /// Consecutive probe passes that re-admit it.
    pub readmit_after: u32,
    /// Deterministic network faults (connect refusals).
    pub fault: FaultPlan,
    /// Per-tenant edge admission (concurrency caps, token buckets).
    pub qos: GatewayQos,
    /// Encoded canary query for re-admission probes. When non-empty, a
    /// replica must answer this tiny real alignment — not just a ping —
    /// before its breaker closes, so a shard that accepts TCP but
    /// panics on work is never re-admitted. Empty = ping-only probes.
    pub canary: Vec<u8>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            shards: Vec::new(),
            retry: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            hedge_after: Some(Duration::from_millis(50)),
            strike_threshold: 3,
            readmit_after: 2,
            fault: FaultPlan::default(),
            qos: GatewayQos::default(),
            canary: Vec::new(),
        }
    }
}

/// A merged scatter-gather result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayResponse {
    /// Globally-indexed hits, ranked exactly like an unsharded search.
    pub hits: Vec<Hit>,
    /// True when `missing_shards` is non-empty.
    pub degraded: bool,
    /// Slice indices that could not contribute within their budgets.
    pub missing_shards: Vec<u32>,
    /// Distributed trace id this request was filed under in the
    /// gateway's flight recorder (`swsimd trace <id>` looks it up).
    pub trace_id: u64,
    /// Worst (most-degraded) fidelity any contributing shard reported
    /// — a brownout-era shard answers with exact scores but may skip
    /// shadow verification or traceback detail; the reduction is
    /// typed here, never silent.
    pub fidelity: Fidelity,
}

struct Replica {
    addr: String,
    slice: u32,
    breaker: Mutex<ShardBreaker>,
    metrics: ReplicaMetrics,
}

/// Per-tenant edge-admission state, created lazily on first sight.
struct TenantGate {
    inflight: AtomicUsize,
    bucket: Option<Mutex<TokenBucket>>,
    metrics: TenantEdgeMetrics,
}

struct GatewayInner {
    cfg: GatewayConfig,
    replicas: Vec<Replica>,
    /// slice → flat replica ordinals.
    groups: Vec<Vec<usize>>,
    metrics: GatewayMetrics,
    stream: StreamMetrics,
    next_id: AtomicU64,
    /// Tenant label → edge-admission state.
    tenants: Mutex<HashMap<String, Arc<TenantGate>>>,
}

impl GatewayInner {
    fn tenant_gate(&self, tenant: &str) -> Arc<TenantGate> {
        let label = tenant_label(tenant);
        let mut map = lock_ok(&self.tenants);
        if let Some(gate) = map.get(label) {
            return Arc::clone(gate);
        }
        let gate = Arc::new(TenantGate {
            inflight: AtomicUsize::new(0),
            bucket: self
                .cfg
                .qos
                .rates
                .get(label)
                .map(|rate| Mutex::new(TokenBucket::new(*rate))),
            metrics: TenantEdgeMetrics::new(label),
        });
        map.insert(label.to_string(), Arc::clone(&gate));
        gate
    }
}

/// Decrements a tenant's in-flight count (and gauge) on every exit
/// path of a scatter-gather request.
struct InflightGuard(Arc<TenantGate>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
        self.0.metrics.inflight.dec();
    }
}

/// The scatter-gather client half of the serving tier. Cheap to
/// clone; clones share breakers and metrics.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<GatewayInner>,
}

impl Gateway {
    /// Build a gateway over `cfg.shards`. No connections are opened
    /// until the first query or probe.
    pub fn new(cfg: GatewayConfig) -> Gateway {
        let mut replicas = Vec::new();
        let mut groups = Vec::new();
        for (slice, group) in cfg.shards.iter().enumerate() {
            let mut ordinals = Vec::new();
            for addr in group {
                let ordinal = replicas.len();
                replicas.push(Replica {
                    addr: addr.clone(),
                    slice: slice as u32,
                    breaker: Mutex::new(ShardBreaker::new(cfg.strike_threshold, cfg.readmit_after)),
                    metrics: ReplicaMetrics::new(ordinal),
                });
                ordinals.push(ordinal);
            }
            groups.push(ordinals);
        }
        Gateway {
            inner: Arc::new(GatewayInner {
                cfg,
                replicas,
                groups,
                metrics: GatewayMetrics::new(),
                stream: StreamMetrics::new(),
                next_id: AtomicU64::new(1),
                tenants: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Slice count in the configured topology.
    pub fn slice_count(&self) -> usize {
        self.inner.groups.len()
    }

    /// Breaker states per replica ordinal (ops/test introspection).
    pub fn replica_states(&self) -> Vec<BreakerState> {
        self.inner
            .replicas
            .iter()
            .map(|r| lock_ok(&r.breaker).state())
            .collect()
    }

    /// Scatter an encoded query to every shard group and gather the
    /// merged ranking. `deadline` bounds the whole operation.
    pub fn query(
        &self,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
    ) -> Result<GatewayResponse, RemoteError> {
        self.query_traced(query, top_k, deadline, TraceCtx::default())
    }

    /// [`Gateway::query`] billed to `tenant` (empty = the default
    /// tenant). The tenant's gateway-edge concurrency cap and token
    /// bucket are enforced before any shard is contacted, and the
    /// tenant rides every shard frame so shard-side fair-share
    /// scheduling sees the same identity.
    pub fn query_for(
        &self,
        tenant: &str,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
    ) -> Result<GatewayResponse, RemoteError> {
        self.query_traced_for(tenant, query, top_k, deadline, TraceCtx::default())
    }

    /// [`Gateway::query`] under a client-supplied trace context. The
    /// request gets one trace id (the client's, or freshly minted), a
    /// `gateway_request` root span, and the same context rides every
    /// shard frame — so shard-side span trees parent under this span
    /// and the whole request stitches into one distributed tree. The
    /// completed request is filed in the process-global flight
    /// recorder with its stage breakdown (admission → dispatch →
    /// net_rtt → merge partition the gateway's wall time by
    /// construction) plus the per-shard timing summaries that came
    /// back on the replies.
    pub fn query_traced(
        &self,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
        client: TraceCtx,
    ) -> Result<GatewayResponse, RemoteError> {
        self.query_traced_for("", query, top_k, deadline, client)
    }

    /// [`Gateway::query_traced`] billed to `tenant` — see
    /// [`Gateway::query_for`] for the admission rules.
    pub fn query_traced_for(
        &self,
        tenant: &str,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
        client: TraceCtx,
    ) -> Result<GatewayResponse, RemoteError> {
        self.open(tenant, query, top_k, deadline, client, None)?
            .finish()
    }

    /// Streamed [`Gateway::query`]: chunks of ranked hits arrive
    /// incrementally as shards clear their checkpoint boundaries. See
    /// [`Gateway::stream_query_traced_for`].
    pub fn stream_query(
        &self,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
        client_credit: u32,
    ) -> Result<GatewayStream, RemoteError> {
        self.stream_query_traced_for(
            "",
            query,
            top_k,
            deadline,
            TraceCtx::default(),
            client_credit,
        )
    }

    /// Open a streaming scatter-gather query. Chunks are relayed into a
    /// bounded buffer of at most `client_credit` chunks — the gateway
    /// never holds more than `credit × chunk` bytes per client;
    /// backpressure propagates to the shards through their own credit
    /// windows. A replica that dies mid-stream is replaced by a sibling
    /// and the conversation resumes from the last delivered cursor (the
    /// shard replays its durable journal); chunks are deduplicated by
    /// `(slice, cursor)` so replays and replica switches never
    /// double-deliver.
    ///
    /// The returned handle yields [`StreamItem`]s; the terminal
    /// [`StreamItem::Fin`] carries the merged [`GatewayResponse`] (the
    /// gateway folds every chunk incrementally, so the final ranking is
    /// byte-identical to an unsharded search).
    pub fn stream_query_traced_for(
        &self,
        tenant: &str,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
        client: TraceCtx,
        client_credit: u32,
    ) -> Result<GatewayStream, RemoteError> {
        self.open(tenant, query, top_k, deadline, client, Some(client_credit))
    }

    /// The one query engine. Admits the query at the edge, gives it one
    /// trace id (the client's, or freshly minted) and a
    /// `gateway_request` span whose context rides every shard frame, so
    /// shard-side span trees stitch into one distributed tree. One
    /// thread per slice holds a [`Msg::StreamQuery`] conversation with
    /// a replica (breaker-aware pick, bounded retries with the shared
    /// backoff schedule, hedging); a slice that exhausts its budget
    /// folds into `degraded` / `missing_shards`. The finished query is
    /// filed in the process-global flight recorder with its stage
    /// breakdown (admission → dispatch → net_rtt → merge partition the
    /// gateway's wall time) and the per-shard timing summaries the
    /// `Fin` frames carried.
    ///
    /// `client_credit` is a stream's window. `None` runs a one-shot
    /// query: its slices fold chunks without forwarding them, so the
    /// handle yields only the terminal [`StreamItem::Fin`].
    pub(crate) fn open(
        &self,
        tenant: &str,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
        client: TraceCtx,
        client_credit: Option<u32>,
    ) -> Result<GatewayStream, RemoteError> {
        let inner = &self.inner;
        inner.metrics.requests.inc();
        let t0 = Instant::now();
        let guard = edge_admit(inner, tenant, query.len() as u64)?;
        let trace_id = if client.is_traced() {
            client.trace_id
        } else {
            swsimd_obs::mint_id()
        };
        let mut job = Scatter {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            ctx: TraceCtx {
                trace_id,
                span_id: client.span_id,
            },
            tenant: tenant.to_string(),
            query: query.to_vec(),
            top_k,
            deadline_at: deadline.map(|d| Instant::now() + d),
            forward: client_credit.is_some(),
            t0,
            retries: AtomicU32::new(0),
            hedges: AtomicU32::new(0),
        };
        let slices = inner.groups.len();
        if slices == 0 {
            let marks = vec![(Stage::Admission, t0.elapsed())];
            job.record_flight(marks, Vec::new(), false, "unavailable");
            return Err(RemoteError::Unavailable);
        }
        // The client's credit window sizes the only gateway-side chunk
        // buffer; a zero or absurd window is clamped, not trusted. A
        // one-shot query forwards no chunks: its buffer holds the Fin.
        let bound = client_credit.map_or(1, |c| (c.max(1) as usize).min(MAX_BUFFERED_CHUNKS));
        let (tx, rx) = mpsc::sync_channel::<StreamItem>(bound);
        let progress = Arc::new(StreamProgress::new(slices));
        let admitted = Instant::now();
        let coordinator = Arc::clone(inner);
        let slice_progress = Arc::clone(&progress);
        std::thread::spawn(move || {
            // Holds the tenant's in-flight slot for the query's whole
            // lifetime, not just the `open` call.
            let _guard = guard;
            // The request span lives here, so it closes after the merge.
            let _adopt = swsimd_obs::adopt(job.ctx);
            let mut span = swsimd_obs::span!("gateway_request", "shards" => slices);
            if span.id() != 0 {
                job.ctx.span_id = span.id();
            }
            let job = Arc::new(job);
            let (end_tx, end_rx) = mpsc::channel();
            for slice in 0..slices {
                let inner = Arc::clone(&coordinator);
                let job = Arc::clone(&job);
                let tx = tx.clone();
                let progress = Arc::clone(&slice_progress);
                let end_tx = end_tx.clone();
                std::thread::spawn(move || {
                    let end = drive_slice(&inner, slice, &job, &tx, &progress);
                    let _ = end_tx.send((slice, end));
                });
            }
            drop(end_tx);
            let dispatched = Instant::now();
            let result = gather(&coordinator, &job, end_rx, admitted, dispatched);
            if let Some(Ok(resp)) = &result {
                span.record("hits", resp.hits.len() as u64);
                span.record("degraded", resp.degraded);
            }
            drop(span);
            if let Some(result) = result {
                let _ = tx.send(StreamItem::Fin(result));
            }
        });
        Ok(GatewayStream {
            rx,
            progress,
            metrics: inner.stream.clone(),
            trace_id,
            finished: false,
        })
    }

    /// One-line human-readable health summary: per-replica breaker
    /// state, observed RTT p99, and attempts currently in flight.
    pub fn health_line(&self) -> String {
        let inner = &self.inner;
        let mut line = format!("gateway slices={}", inner.groups.len());
        for (ordinal, replica) in inner.replicas.iter().enumerate() {
            let snap = replica.metrics.rtt.snapshot();
            line.push_str(&format!(
                " | shard={ordinal} slice={} state={:?} rtt_p99={:.2}ms inflight={}",
                replica.slice,
                lock_ok(&replica.breaker).state(),
                snap.p99 as f64 / 1e6,
                replica.metrics.inflight.get(),
            ));
        }
        line.push_str(&format!(
            " | stream chunks={} resumes={} credit_stalls={} buffered={}B peak={}B",
            inner.stream.chunks.get(),
            inner.stream.resumes.get(),
            inner.stream.credit_stalls.get(),
            inner.stream.buffered_bytes.get(),
            inner.stream.buffered_peak.get(),
        ));
        line
    }

    /// Probe every non-healthy replica once; returns how many were
    /// re-admitted. Deterministic (no sleeps) so tests drive the
    /// re-admission state machine directly; production uses
    /// [`Gateway::start_prober`].
    pub fn probe_now(&self) -> usize {
        let inner = &self.inner;
        let mut readmitted = 0;
        for replica in &inner.replicas {
            if lock_ok(&replica.breaker).state() == BreakerState::Healthy {
                continue;
            }
            let pass = probe_replica(inner, replica);
            let mut breaker = lock_ok(&replica.breaker);
            if pass {
                if breaker.probe_success() {
                    replica.metrics.up.set(1);
                    readmitted += 1;
                    swsimd_obs::event!("shard_readmitted", "replica" => replica.slice);
                }
            } else {
                breaker.probe_failure();
            }
        }
        readmitted
    }

    /// Spawn a background prober calling [`Gateway::probe_now`] every
    /// `interval` until the handle is stopped or dropped.
    pub fn start_prober(&self, interval: Duration) -> ProberHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let gw = self.clone();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                if flag.load(Ordering::Acquire) {
                    break;
                }
                gw.probe_now();
            }
        });
        ProberHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Stops the background prober when dropped.
pub struct ProberHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProberHandle {
    /// Stop the prober and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Edge admission, before anything else a query does: token bucket
/// first (cheapest to explain to the caller), then the
/// concurrency cap. Both reject with a typed error carrying a backoff
/// hint; neither touches a shard. On success the returned guard holds
/// the tenant's in-flight slot until dropped.
fn edge_admit(inner: &GatewayInner, tenant: &str, cost: u64) -> Result<InflightGuard, RemoteError> {
    let gate = inner.tenant_gate(tenant);
    if let Some(bucket) = &gate.bucket {
        if let Err(retry_after_ms) = lock_ok(bucket).try_take(cost, Instant::now()) {
            gate.metrics.rate_limited.inc();
            swsimd_obs::event!(
                "gateway_rate_limited",
                "tenant" => tenant_label(tenant).to_string(),
                "retry_after_ms" => retry_after_ms
            );
            return Err(RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms,
            }));
        }
    }
    let cap = inner.cfg.qos.max_inflight;
    let admitted = gate
        .inflight
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (cap == 0 || n < cap).then_some(n + 1)
        });
    if admitted.is_err() {
        gate.metrics.shed.inc();
        let retry_after_ms = inner.cfg.retry.base.as_millis().max(1) as u64;
        swsimd_obs::event!(
            "gateway_load_shed",
            "tenant" => tenant_label(tenant).to_string(),
            "retry_after_ms" => retry_after_ms
        );
        return Err(RemoteError::Serve(ServeError::QueueFull { retry_after_ms }));
    }
    gate.metrics.inflight.inc();
    Ok(InflightGuard(gate))
}

/// One query's scatter: what every slice thread needs, plus the
/// bookkeeping its flight record is filed from.
struct Scatter {
    id: u64,
    /// Trace context for the shard frames (child of the request span).
    ctx: TraceCtx,
    tenant: String,
    query: Vec<u8>,
    top_k: usize,
    deadline_at: Option<Instant>,
    /// A stream forwards every new chunk to its client; a one-shot
    /// query only folds them.
    forward: bool,
    /// When the query arrived, before edge admission.
    t0: Instant,
    retries: AtomicU32,
    hedges: AtomicU32,
}

impl Scatter {
    /// File this query into the process-global flight recorder; an
    /// empty `cancel` label means it succeeded.
    fn record_flight(
        &self,
        marks: Vec<(Stage, Duration)>,
        shards: Vec<ShardTiming>,
        degraded: bool,
        cancel: &str,
    ) {
        let recorder = swsimd_obs::flight::global();
        if !recorder.enabled() {
            return;
        }
        // Engine attribution: unanimous across shards, or "mixed".
        let engine = match shards.first() {
            Some(first) if shards.iter().all(|t| t.engine == first.engine) => first.engine.clone(),
            Some(_) => "mixed".to_string(),
            None => String::new(),
        };
        recorder.record(AuditRecord {
            trace_id: self.ctx.trace_id,
            query_id: self.id,
            total_ns: self.t0.elapsed().as_nanos() as u64,
            stages: marks
                .iter()
                .map(|(stage, d)| StageTiming {
                    stage: *stage,
                    ns: d.as_nanos() as u64,
                })
                .collect(),
            shards,
            engine,
            retries: self.retries.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            degraded,
            cost: self.query.len() as u64,
            cancel: cancel.to_string(),
            ok: cancel.is_empty(),
            tenant: tenant_label(&self.tenant).to_string(),
        });
    }
}

/// Flight-recorder cancel label for a fatal gateway error.
fn cancel_label(err: &RemoteError) -> &'static str {
    match err {
        RemoteError::Serve(ServeError::DeadlineExceeded) => "deadline",
        RemoteError::Serve(ServeError::ShutDown) => "shutdown",
        RemoteError::Serve(ServeError::WorkerPanicked) => "panic",
        RemoteError::Serve(ServeError::RateLimited { .. }) => "rate_limited",
        RemoteError::Unavailable => "unavailable",
        _ => "error",
    }
}

fn probe_replica(inner: &GatewayInner, replica: &Replica) -> bool {
    let Ok(addr) = resolve(&replica.addr) else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(inner.cfg.connect_timeout));
    if write_msg(&mut stream, &Msg::Ping { nonce: 0x5157 }).is_err() {
        return false;
    }
    let pong_ok = matches!(
        read_msg(&mut stream),
        Ok(Msg::Pong {
            nonce: 0x5157,
            draining: false,
            ..
        })
    );
    if !pong_ok || inner.cfg.canary.is_empty() {
        return pong_ok;
    }
    // Ping passed; now prove the replica can do *work*. A shard whose
    // workers panic still answers pings, and re-admitting it would
    // just bounce it open again on the next real query.
    let canary = Msg::Query {
        id: 0,
        top_k: 1,
        deadline_ms: inner.cfg.request_timeout.as_millis().min(u32::MAX as u128) as u32,
        // slice_count 0 = whole-slice direct query; valid on any shard
        // regardless of its coordinates.
        slice_index: 0,
        slice_count: 0,
        query: inner.cfg.canary.clone(),
        trace: TraceCtx::default(),
        tenant: String::new(),
    };
    let _ = stream.set_read_timeout(Some(inner.cfg.request_timeout));
    if write_msg(&mut stream, &canary).is_err() {
        inner.metrics.canary_failures.inc();
        return false;
    }
    match read_msg(&mut stream) {
        Ok(Msg::Hits { .. }) => true,
        _ => {
            inner.metrics.canary_failures.inc();
            swsimd_obs::event!("canary_failed", "replica" => replica.slice);
            false
        }
    }
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("address resolved to nothing"))
}

/// Part of the remaining time a shard's budget leaves for its reply to
/// travel back: a shard that spends its whole budget still lands its
/// typed `DeadlineExceeded` before the gateway's own read gives up.
const REPLY_MARGIN: Duration = Duration::from_millis(5);

/// Milliseconds a shard may spend before `deadline_at`, less the reply
/// margin (at least 1; 0 on the wire = no deadline); `None` when
/// already expired.
fn budget_ms(deadline_at: Option<Instant>) -> Option<u32> {
    match deadline_at {
        None => Some(0),
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now());
            if left.is_zero() {
                None
            } else {
                let budget = left.saturating_sub(REPLY_MARGIN).as_millis().max(1);
                Some(budget.min(u128::from(u32::MAX)) as u32)
            }
        }
    }
}

/// Per-shard credit window the gateway's slice readers extend: the
/// shard may have this many chunks in flight toward the gateway
/// before it must wait for a grant. Small enough to bound shard-side
/// buffering, large enough to keep the pipe full across one RTT.
const SHARD_CREDIT: u32 = 4;

/// Ceiling on the client-credit-sized gateway chunk buffer; a client
/// asking for a million credits does not get a million-chunk buffer.
const MAX_BUFFERED_CHUNKS: usize = 64;

/// One increment of a streaming scatter-gather query.
#[derive(Debug)]
pub enum StreamItem {
    /// The next undelivered chunk from one slice: globally-indexed,
    /// per-chunk-ranked hits with the slice's monotone cursor.
    Chunk {
        /// Slice the chunk came from.
        slice: u32,
        /// 1-based checkpoint cursor within that slice's stream.
        cursor: u64,
        /// Ranked hits for the chunk's database range.
        hits: Vec<Hit>,
    },
    /// Terminal item: the merged ranking (byte-identical to an
    /// unsharded search) or the fatal error that ended the stream.
    Fin(Result<GatewayResponse, RemoteError>),
}

/// Per-slice progress cells shared between the slice threads (which
/// write what shards report) and the stream handle (which sums them
/// for heartbeats), plus the flag the handle raises when dropped.
struct StreamProgress {
    done: Vec<AtomicU64>,
    total: Vec<AtomicU64>,
    abandoned: AtomicBool,
}

impl StreamProgress {
    fn new(slices: usize) -> Self {
        Self {
            done: (0..slices).map(|_| AtomicU64::new(0)).collect(),
            total: (0..slices).map(|_| AtomicU64::new(0)).collect(),
            abandoned: AtomicBool::new(false),
        }
    }

    /// True once the client let go of the stream handle.
    fn abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }

    fn set(&self, slice: usize, done: u64, total: u64) {
        self.done[slice].store(done, Ordering::Relaxed);
        self.total[slice].store(total, Ordering::Relaxed);
    }

    /// A finished slice counts as fully done even if its last
    /// `Progress` frame never arrived.
    fn finish(&self, slice: usize) {
        let t = self.total[slice].load(Ordering::Relaxed);
        self.done[slice].store(t, Ordering::Relaxed);
    }

    fn sum(&self) -> (u64, u64) {
        let done = self.done.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let total = self.total.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        (done, total)
    }
}

/// Client half of one scatter-gather query. Dropping the handle
/// abandons the query: each slice thread notices at its next shard
/// frame (heartbeats included) and hangs up, so the shards cancel the
/// work and keep their journals for a later resume.
pub struct GatewayStream {
    rx: mpsc::Receiver<StreamItem>,
    progress: Arc<StreamProgress>,
    metrics: StreamMetrics,
    trace_id: u64,
    finished: bool,
}

impl GatewayStream {
    /// Trace id the stream's shard conversations ride under.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Aggregate `(cells_done, cells_total)` across every slice, as
    /// last reported by shard `Progress` heartbeats.
    pub fn progress(&self) -> (u64, u64) {
        self.progress.sum()
    }

    /// Next item, or `None` if nothing arrived within `timeout`.
    /// After [`StreamItem::Fin`] every call returns `None`.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<StreamItem> {
        if self.finished {
            return None;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(StreamItem::Chunk {
                slice,
                cursor,
                hits,
            }) => {
                buffered_sub(&self.metrics, chunk_bytes(&hits));
                Some(StreamItem::Chunk {
                    slice,
                    cursor,
                    hits,
                })
            }
            Ok(item @ StreamItem::Fin(_)) => {
                self.finished = true;
                Some(item)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            // Every sender died without a Fin: only possible if the
            // coordinator panicked; surface it as an outage rather
            // than hanging the caller.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.finished = true;
                Some(StreamItem::Fin(Err(RemoteError::Unavailable)))
            }
        }
    }

    /// Wait for the terminal result, skipping any chunks.
    fn finish(mut self) -> Result<GatewayResponse, RemoteError> {
        loop {
            if let Some(StreamItem::Fin(result)) = self.next_timeout(Duration::MAX) {
                return result;
            }
        }
    }
}

impl Drop for GatewayStream {
    fn drop(&mut self) {
        self.progress.abandoned.store(true, Ordering::Release);
        // Undelivered chunks stop being "buffered for a client" the
        // moment the client lets go of the handle.
        while let Ok(item) = self.rx.try_recv() {
            if let StreamItem::Chunk { hits, .. } = item {
                buffered_sub(&self.metrics, chunk_bytes(&hits));
            }
        }
    }
}

/// Wire-shaped size estimate for one chunk held in the gateway
/// buffer: frame overhead plus 16 bytes per hit.
fn chunk_bytes(hits: &[Hit]) -> usize {
    24 + hits.len() * 16
}

/// Process-wide buffered-bytes ledger behind the
/// `swsimd_stream_buffered_bytes` gauge (gauges have no fetch-add, so
/// the true value lives here and the gauge mirrors it).
static BUFFERED_BYTES: AtomicI64 = AtomicI64::new(0);

fn buffered_add(metrics: &StreamMetrics, bytes: usize) {
    let now = BUFFERED_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    metrics.buffered_bytes.set(now);
    if now > metrics.buffered_peak.get() {
        metrics.buffered_peak.set(now);
    }
}

fn buffered_sub(metrics: &StreamMetrics, bytes: usize) {
    let now = BUFFERED_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed) - bytes as i64;
    metrics.buffered_bytes.set(now);
}

/// How one slice ended, after retries.
enum SliceEnd {
    /// Every chunk taken and folded: the slice's contribution to the
    /// final merge, the fidelity its shard served at, and the shard's
    /// timing summary (its `rtt_ns` stamped here).
    Ok(Vec<Hit>, Fidelity, Option<ShardTiming>),
    /// Retry budget exhausted or no replica available: degrade.
    Missing,
    /// The query's deadline passed before the slice was answered:
    /// degrade, or fail the query if no slice answered.
    Deadline,
    Fatal(RemoteError),
    /// The client dropped the stream handle; stop without a verdict.
    Abandoned,
}

/// Merge the slices' ends into the query's answer and file its flight
/// record. `None` when the client abandoned the query: nobody is left
/// to answer.
fn gather(
    inner: &GatewayInner,
    job: &Scatter,
    ends: mpsc::Receiver<(usize, SliceEnd)>,
    admitted: Instant,
    dispatched: Instant,
) -> Option<Result<GatewayResponse, RemoteError>> {
    let mut hits = Vec::new();
    let mut missing = Vec::new();
    let mut timings = Vec::new();
    let mut fidelity = Fidelity::Full;
    let (mut fatal, mut expired, mut abandoned) = (None, false, false);
    for (slice, end) in ends {
        match end {
            SliceEnd::Ok(slice_hits, f, timing) => {
                hits.extend(slice_hits);
                timings.extend(timing);
                // Conservative merge: the response is only as faithful
                // as its least-faithful contributor.
                fidelity = fidelity.max(f);
            }
            SliceEnd::Missing => missing.push(slice as u32),
            SliceEnd::Deadline => {
                missing.push(slice as u32);
                expired = true;
            }
            SliceEnd::Fatal(e) => fatal = Some(e),
            SliceEnd::Abandoned => abandoned = true,
        }
    }
    let gathered = Instant::now();
    timings.sort_by_key(|t| t.shard);
    missing.sort_unstable();
    let degraded = !missing.is_empty();
    let mut marks = vec![
        (Stage::Admission, admitted.duration_since(job.t0)),
        (Stage::Dispatch, dispatched.duration_since(admitted)),
        (Stage::NetRtt, gathered.duration_since(dispatched)),
    ];
    let err = match fatal {
        Some(e) => Some(e),
        // Nothing answered: after the deadline passed, that is the
        // deadline's doing, not an outage.
        None if missing.len() == inner.groups.len() && expired => {
            Some(RemoteError::Serve(ServeError::DeadlineExceeded))
        }
        None if missing.len() == inner.groups.len() => Some(RemoteError::Unavailable),
        None => None,
    };
    if abandoned {
        job.record_flight(marks, timings, degraded, "client_drop");
        return None;
    }
    if let Some(e) = err {
        job.record_flight(marks, timings, degraded, cancel_label(&e));
        return Some(Err(e));
    }
    if degraded {
        inner.metrics.degraded.inc();
    }
    let hits = rank_hits(hits, job.top_k);
    let merged = Instant::now();
    inner
        .metrics
        .latency
        .record_duration(merged.duration_since(job.t0));
    marks.push((Stage::Merge, merged.duration_since(gathered)));
    job.record_flight(marks, timings, degraded, "");
    Some(Ok(GatewayResponse {
        hits,
        degraded,
        missing_shards: missing,
        trace_id: job.ctx.trace_id,
        fidelity,
    }))
}

/// What one slice has taken from its replicas, across attempts.
#[derive(Default)]
struct Fold {
    /// Highest cursor taken; a reconnect asks the next replica to skip
    /// everything at or below it.
    delivered: u64,
    /// Incremental fold of every chunk: per-chunk top-k capping
    /// preserves the global top-k, so this stays bounded by `top_k`.
    merged: Vec<Hit>,
}

/// Run one slice to its end: breaker-aware replica picks, bounded
/// retries under the shared backoff schedule, and reconnects that
/// resume from the last delivered cursor.
fn drive_slice(
    inner: &Arc<GatewayInner>,
    slice: usize,
    job: &Scatter,
    out: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
) -> SliceEnd {
    let group = &inner.groups[slice];
    let mut fold = Fold::default();
    let mut attempt = 0u32;
    // Backoff hint from the previous attempt's overload rejection, if
    // any; it overrides the exponential schedule for the next sleep.
    let mut hint_ms: Option<u64> = None;
    loop {
        if !inner.cfg.retry.allows(attempt) {
            return SliceEnd::Missing;
        }
        if attempt > 0 {
            inner.metrics.retries.inc();
            job.retries.fetch_add(1, Ordering::Relaxed);
            let delay = inner.cfg.retry.delay_with_hint(attempt, hint_ms);
            if job.deadline_at.is_some_and(|d| Instant::now() + delay >= d) {
                return SliceEnd::Deadline;
            }
            std::thread::sleep(delay);
        }
        let available: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&ord| lock_ok(&inner.replicas[ord].breaker).is_available())
            .collect();
        if available.is_empty() {
            // Breaker open on every replica: degrade now; the prober
            // re-admits recovered shards out of band.
            return SliceEnd::Missing;
        }
        let primary = available[attempt as usize % available.len()];
        let sibling =
            (available.len() > 1).then(|| available[(attempt as usize + 1) % available.len()]);
        if attempt > 0 && fold.delivered > 0 {
            // This attempt continues a partially-delivered stream from
            // durable shard state rather than starting over.
            inner.stream.resumes.inc();
            swsimd_obs::event!(
                "stream_shard_reconnect",
                "slice" => slice,
                "cursor" => fold.delivered
            );
        }
        match run_attempt(
            inner, slice, job, primary, sibling, &mut fold, out, progress,
        ) {
            AttemptEnd::Done(fidelity, timing) => {
                return SliceEnd::Ok(fold.merged, fidelity, timing)
            }
            AttemptEnd::Abandoned => return SliceEnd::Abandoned,
            AttemptEnd::Failed(Failure::Fatal(e)) => return SliceEnd::Fatal(e),
            AttemptEnd::Failed(Failure::Deadline) => return SliceEnd::Deadline,
            AttemptEnd::Failed(Failure::Retryable(hint)) => hint_ms = hint,
            // The draining replica's breaker is already force-open: the
            // next pass picks a live sibling.
            AttemptEnd::Failed(Failure::Draining) => hint_ms = None,
        }
        attempt += 1;
    }
}

/// How one replica's conversation ended short of its `Fin`.
enum Failure {
    /// Retrying (a sibling, or this replica later) may help; an
    /// overloaded shard attaches its `retry_after_ms` backoff hint.
    Retryable(Option<u64>),
    /// The replica announced it is draining (SIGTERM'd or a passive
    /// standby): its breaker is forced open so no further attempts or
    /// hedges burn budget discovering the same thing.
    Draining,
    /// The replica stayed silent until the query's deadline passed.
    Deadline,
    /// Retrying cannot change the outcome; fail the query.
    Fatal(RemoteError),
}

impl Failure {
    fn hint(&self) -> Option<u64> {
        match self {
            Failure::Retryable(hint) => *hint,
            _ => None,
        }
    }
}

/// How one attempt at a slice ended.
enum AttemptEnd {
    /// The replica's `Fin`: the fidelity it served at and its timing.
    Done(Fidelity, Option<ShardTiming>),
    Failed(Failure),
    Abandoned,
}

/// One conversation with one replica. Dropping it hangs up: the reader
/// thread wakes, and the shard cancels the job as a client drop.
struct Leg {
    ordinal: usize,
    socket: TcpStream,
    /// When the `StreamQuery` went out: the replica's round trip runs
    /// from here to its `Fin`.
    opened: Instant,
    /// When the replica's silence ends the conversation:
    /// `request_timeout` after the `StreamQuery` for a one-shot query
    /// (heartbeats do not extend it), after its latest frame for a
    /// stream.
    expires: Instant,
    /// Whether the replica has sent any frame, heartbeats included.
    heard: bool,
    inflight: Arc<Gauge>,
}

impl Drop for Leg {
    fn drop(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Both);
        self.inflight.dec();
    }
}

/// A frame (or the read error that ended the conversation), tagged
/// with the index of the leg that read it.
type LegFrame = (usize, Result<Msg, WireError>);

/// Dial replica `ordinal`, send it the slice's `StreamQuery` with
/// `deadline_ms` of budget, resuming after `cursor`, and start a reader
/// thread that forwards every frame into `frames`.
#[allow(clippy::too_many_arguments)] // leg context travels together
fn open_leg(
    inner: &GatewayInner,
    job: &Scatter,
    ordinal: usize,
    deadline_ms: u32,
    cursor: u64,
    index: usize,
    frames: &mpsc::Sender<LegFrame>,
) -> Result<Leg, Failure> {
    let replica = &inner.replicas[ordinal];
    let retryable = |_| Failure::Retryable(None);
    inner.cfg.fault.before_connect(ordinal).map_err(retryable)?;
    let addr = resolve(&replica.addr).map_err(retryable)?;
    let mut socket =
        TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout).map_err(retryable)?;
    // No read timeout: the attempt's wait on `frames` bounds silence and
    // the deadline, and dropping the leg ends the read.
    crate::listen::apply_socket_opts(&socket, None, "gateway_stream");
    let mut reader = socket.try_clone().map_err(retryable)?;
    let msg = Msg::StreamQuery {
        id: job.id,
        top_k: job.top_k as u32,
        deadline_ms,
        slice_index: replica.slice,
        slice_count: inner.groups.len() as u32,
        credit: SHARD_CREDIT,
        cursor,
        query: job.query.clone(),
        trace: job.ctx,
        tenant: job.tenant.clone(),
    };
    let opened = Instant::now();
    write_msg(&mut socket, &msg).map_err(retryable)?;
    let frames = frames.clone();
    std::thread::spawn(move || loop {
        let frame = read_msg(&mut reader);
        let ended = frame.is_err();
        if frames.send((index, frame)).is_err() || ended {
            return;
        }
    });
    replica.metrics.inflight.inc();
    Ok(Leg {
        ordinal,
        socket,
        opened,
        expires: opened + inner.cfg.request_timeout,
        heard: false,
        inflight: Arc::clone(&replica.metrics.inflight),
    })
}

/// One attempt at a slice (see [`converse`]). A replica that has not
/// sent a single frame, heartbeats included, when the attempt ends (a
/// sibling won the hedge race, or the query ended) stays on a watcher
/// thread until it speaks or its `request_timeout` runs out; silence is
/// struck against its breaker as a stall. Every other replica is hung
/// up on at once.
#[allow(clippy::too_many_arguments)] // slice context travels together
fn run_attempt(
    inner: &Arc<GatewayInner>,
    slice: usize,
    job: &Scatter,
    primary: usize,
    sibling: Option<usize>,
    fold: &mut Fold,
    out: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
) -> AttemptEnd {
    let (frames_tx, frames) = mpsc::channel();
    let mut legs = Vec::with_capacity(2);
    let end = converse(
        inner, slice, job, primary, sibling, fold, out, progress, &mut legs, &frames_tx, &frames,
    );
    for slot in &mut legs {
        if slot.as_ref().is_some_and(|leg| leg.heard) {
            *slot = None;
        }
    }
    if legs.iter().any(Option::is_some) {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            while let Some(until) = legs.iter().flatten().map(|leg| leg.expires).min() {
                match frames.recv_timeout(until.saturating_duration_since(Instant::now())) {
                    Ok((index, frame)) => settle_loser(&inner, &mut legs, index, frame),
                    Err(mpsc::RecvTimeoutError::Timeout) => expire(&inner, &mut legs),
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        });
    }
    end
}

/// The conversation of one attempt. The primary's opens first; when it
/// has delivered neither a chunk nor a `Fin` within the hedge delay,
/// the same conversation opens on `sibling`. The first replica to
/// deliver carries the slice from then on; a loser that has spoken is
/// hung up on, a silent one is left open for [`run_attempt`] to watch.
/// Each replica's failure is booked against its own breaker. Waits are
/// capped by each replica's `expires` and by the deadline, and every
/// frame, heartbeats included, checks for a client that let go.
#[allow(clippy::too_many_arguments)] // slice context travels together
fn converse(
    inner: &GatewayInner,
    slice: usize,
    job: &Scatter,
    primary: usize,
    sibling: Option<usize>,
    fold: &mut Fold,
    out: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
    legs: &mut Vec<Option<Leg>>,
    frames_tx: &mpsc::Sender<LegFrame>,
    frames: &mpsc::Receiver<LegFrame>,
) -> AttemptEnd {
    // A query whose deadline already passed dials nobody.
    let Some(budget) = budget_ms(job.deadline_at) else {
        return AttemptEnd::Failed(Failure::Deadline);
    };
    match open_leg(inner, job, primary, budget, fold.delivered, 0, frames_tx) {
        Ok(leg) => legs.push(Some(leg)),
        Err(failure) => {
            book(inner, primary, &failure);
            return AttemptEnd::Failed(failure);
        }
    }
    let mut hedge_at = sibling
        .and(effective_hedge_delay(inner, primary))
        .map(|d| Instant::now() + d);
    let mut winner = None;
    let mut failed: Option<Failure> = None;
    // Whether a replica may still carry the slice: once one has
    // delivered, only it.
    let carrying = |legs: &[Option<Leg>], winner: Option<usize>| match winner {
        Some(w) => legs[w].is_some(),
        None => legs.iter().any(Option::is_some),
    };
    // Back off by the most pessimistic hint any replica sent.
    let verdict = |failed: Option<Failure>, failure: Failure| match failed {
        Some(earlier) if !matches!(failure, Failure::Fatal(_)) => {
            Failure::Retryable(earlier.hint().max(failure.hint()))
        }
        _ => failure,
    };
    loop {
        let now = Instant::now();
        let until = legs
            .iter()
            .flatten()
            .map(|leg| leg.expires)
            .chain(job.deadline_at)
            .chain(hedge_at)
            .min()
            .unwrap_or(now);
        let (index, frame) = match frames.recv_timeout(until.saturating_duration_since(now)) {
            Ok(tagged) => tagged,
            Err(_) => {
                let now = Instant::now();
                if let (Some(at), Some(sibling)) = (hedge_at, sibling) {
                    if now >= at {
                        hedge_at = None;
                        if let Some(budget) = budget_ms(job.deadline_at) {
                            inner.metrics.hedges.inc();
                            job.hedges.fetch_add(1, Ordering::Relaxed);
                            swsimd_obs::event!("hedged_request", "primary" => primary, "sibling" => sibling);
                            let index = legs.len();
                            match open_leg(
                                inner,
                                job,
                                sibling,
                                budget,
                                fold.delivered,
                                index,
                                frames_tx,
                            ) {
                                Ok(leg) => legs.push(Some(leg)),
                                Err(failure) => book(inner, sibling, &failure),
                            }
                        }
                        continue;
                    }
                }
                if job.deadline_at.is_some_and(|d| now >= d) {
                    // Every replica still open stalled until the deadline.
                    for leg in legs.iter_mut().filter_map(Option::take) {
                        book(inner, leg.ordinal, &Failure::Deadline);
                    }
                    return AttemptEnd::Failed(Failure::Deadline);
                }
                expire(inner, legs);
                if carrying(legs, winner) {
                    continue;
                }
                return AttemptEnd::Failed(verdict(failed, Failure::Retryable(None)));
            }
        };
        let Some(leg) = legs[index].as_mut() else {
            // A hung-up leg's last frames.
            continue;
        };
        if progress.abandoned() {
            return AttemptEnd::Abandoned;
        }
        if winner.is_some_and(|w| w != index) {
            settle_loser(inner, legs, index, frame);
            continue;
        }
        leg.heard = true;
        if job.forward {
            leg.expires = Instant::now() + inner.cfg.request_timeout;
        }
        let (ordinal, opened) = (leg.ordinal, leg.opened);
        let failure = match frame {
            Ok(Msg::Progress {
                cells_done,
                cells_total,
                ..
            }) => {
                progress.set(slice, cells_done, cells_total);
                continue;
            }
            Ok(Msg::StreamChunk { cursor, hits, .. }) => {
                if cursor > fold.delivered {
                    fold.merged.extend(hits.iter().cloned());
                    fold.merged = rank_hits(std::mem::take(&mut fold.merged), job.top_k);
                    if job.forward {
                        let bytes = chunk_bytes(&hits);
                        buffered_add(&inner.stream, bytes);
                        let slice = slice as u32;
                        if out
                            .send(StreamItem::Chunk {
                                slice,
                                cursor,
                                hits,
                            })
                            .is_err()
                        {
                            // Client buffer gone; the chunk was never
                            // delivered, so it no longer counts as
                            // buffered either.
                            buffered_sub(&inner.stream, bytes);
                            return AttemptEnd::Abandoned;
                        }
                        inner.stream.chunks.inc();
                    }
                    fold.delivered = cursor;
                }
                // Grant one credit per chunk consumed — a deduplicated
                // replay still spent shard credit to arrive.
                let leg = legs[index].as_mut().expect("live leg");
                let granted = write_msg(
                    &mut leg.socket,
                    &Msg::Credit {
                        id: job.id,
                        credits: 1,
                    },
                );
                if winner.is_none() {
                    // First delivery: this replica carries the slice.
                    winner = Some(index);
                    hedge_at = None;
                    for (i, other) in legs.iter_mut().enumerate() {
                        if i != index && other.as_ref().is_some_and(|leg| leg.heard) {
                            *other = None;
                        }
                    }
                }
                if granted.is_ok() {
                    continue;
                }
                Failure::Retryable(None)
            }
            Ok(Msg::Fin {
                digest,
                fidelity,
                mut timing,
                ..
            }) => {
                progress.finish(slice);
                if digest != ranking_digest(&fold.merged) {
                    // The fold should always agree with the shard's own
                    // final ranking; a mismatch is a bug worth an
                    // alertable breadcrumb, not a query failure.
                    swsimd_obs::event!(
                        "stream_digest_mismatch",
                        "slice" => slice,
                        "shard_digest" => digest,
                        "fold_digest" => ranking_digest(&fold.merged)
                    );
                }
                // Only the gateway can observe the round trip; stamp it
                // onto the shard's timing summary.
                let rtt = opened.elapsed();
                if let Some(t) = &mut timing {
                    t.rtt_ns = rtt.as_nanos() as u64;
                }
                let replica = &inner.replicas[ordinal];
                // The hedge delay is read off this histogram, so it
                // takes one-shot round trips only: a stream's also
                // holds its client's credit stalls.
                if !job.forward {
                    replica.metrics.rtt.record_duration(rtt);
                }
                lock_ok(&replica.breaker).record_success();
                return AttemptEnd::Done(fidelity, timing);
            }
            frame => failure_of(frame),
        };
        book(inner, ordinal, &failure);
        legs[index] = None;
        if matches!(failure, Failure::Fatal(_)) || !carrying(legs, winner) {
            return AttemptEnd::Failed(verdict(failed, failure));
        }
        failed = Some(failure);
    }
}

/// The failure a replica's frame reports when it is neither a
/// heartbeat, a chunk nor a `Fin`.
fn failure_of(frame: Result<Msg, WireError>) -> Failure {
    match frame {
        Ok(Msg::Error { err, .. }) => classify(err),
        // A non-stream kind is a confused peer: don't trust it again
        // this attempt.
        Ok(_) => Failure::Retryable(None),
        // Torn frames, bit flips, resets: all retryable.
        Err(WireError::BadCrc { want, got }) => {
            swsimd_obs::event!("reply_crc_mismatch", "want" => want, "got" => got);
            Failure::Retryable(None)
        }
        Err(_) => Failure::Retryable(None),
    }
}

/// A replica that lost the race spoke up: it is alive, so it is hung
/// up on without a strike, unless what it said is a failure.
fn settle_loser(
    inner: &GatewayInner,
    legs: &mut [Option<Leg>],
    index: usize,
    frame: Result<Msg, WireError>,
) {
    let Some(leg) = legs[index].take() else {
        return;
    };
    if !matches!(
        frame,
        Ok(Msg::Progress { .. } | Msg::StreamChunk { .. } | Msg::Fin { .. })
    ) {
        book(inner, leg.ordinal, &failure_of(frame));
    }
}

/// Strike and hang up on every replica silent past its `expires`.
fn expire(inner: &GatewayInner, legs: &mut [Option<Leg>]) {
    let now = Instant::now();
    for slot in legs {
        if slot.as_ref().is_some_and(|leg| leg.expires <= now) {
            let leg = slot.take().expect("checked above");
            book(inner, leg.ordinal, &Failure::Retryable(None));
        }
    }
}

/// Breaker bookkeeping for one replica's failed conversation. A fatal
/// error is the query's fault, not the replica's: no strike. A replica
/// that said it is leaving stops receiving traffic right away rather
/// than strike by strike.
fn book(inner: &GatewayInner, ordinal: usize, failure: &Failure) {
    let replica = &inner.replicas[ordinal];
    let opened = match failure {
        Failure::Fatal(_) => return,
        Failure::Draining => {
            inner.metrics.draining_replies.inc();
            lock_ok(&replica.breaker).force_open()
        }
        Failure::Retryable(_) | Failure::Deadline => lock_ok(&replica.breaker).record_failure(),
    };
    if opened {
        replica.metrics.down_total.inc();
        replica.metrics.up.set(0);
        let draining = matches!(failure, Failure::Draining);
        swsimd_obs::event!("shard_breaker_open", "replica" => ordinal, "draining" => draining);
    }
}

/// The hedge delay: observed p99 of the primary's round-trips once
/// enough samples exist, floored by the configured delay.
fn effective_hedge_delay(inner: &GatewayInner, primary: usize) -> Option<Duration> {
    let floor = inner.cfg.hedge_after?;
    let snap = inner.replicas[primary].metrics.rtt.snapshot();
    if snap.count >= 16 {
        Some(floor.max(Duration::from_nanos(snap.p99)))
    } else {
        Some(floor)
    }
}

/// Fatal errors fail the query; everything else earns a retry. A
/// shard-side overload rejection (shed or rate-limited) attaches its
/// `retry_after_ms` hint so the retry sleeps what the shard asked
/// for, not the generic schedule.
fn classify(err: RemoteError) -> Failure {
    use ServeError as S;
    match &err {
        RemoteError::Serve(S::InvalidQuery(_))
        | RemoteError::Serve(S::QueryTooLarge { .. })
        | RemoteError::Serve(S::CostTooHigh { .. })
        | RemoteError::Serve(S::BudgetExceeded { .. })
        | RemoteError::Serve(S::EngineUnavailable { .. })
        | RemoteError::Serve(S::DeadlineExceeded)
        // A rejected resume token means the caller's cursor state does
        // not describe this query; replaying the same token elsewhere
        // cannot succeed either.
        | RemoteError::BadResumeToken => Failure::Fatal(err),
        RemoteError::Serve(S::QueueFull { .. }) | RemoteError::Serve(S::RateLimited { .. }) => {
            Failure::Retryable(err.retry_after_ms())
        }
        // A draining peer *announced* its departure: force the breaker
        // open instead of burning strikes (and retries) discovering it.
        RemoteError::Draining => Failure::Draining,
        RemoteError::Serve(S::ShutDown)
        | RemoteError::Serve(S::WorkerPanicked)
        | RemoteError::WrongShard { .. }
        | RemoteError::Unavailable => Failure::Retryable(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_splits_fatal_from_retryable() {
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::DeadlineExceeded)),
            Failure::Fatal(_)
        ));
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::QueryTooLarge {
                len: 2,
                limit: 1
            })),
            Failure::Fatal(_)
        ));
        assert!(
            matches!(classify(RemoteError::BadResumeToken), Failure::Fatal(_)),
            "a rejected resume token cannot be fixed by retrying"
        );
        for retryable in [
            RemoteError::Serve(ServeError::ShutDown),
            RemoteError::Serve(ServeError::WorkerPanicked),
            RemoteError::WrongShard { got: 0, want: 1 },
            RemoteError::Unavailable,
        ] {
            assert!(matches!(classify(retryable), Failure::Retryable(None)));
        }
        // An announced departure is its own class: the breaker is
        // force-opened instead of accumulating strikes.
        assert!(matches!(classify(RemoteError::Draining), Failure::Draining));
    }

    /// Overload rejections retry with the shard's own backoff hint.
    #[test]
    fn classify_carries_overload_hints() {
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 40
            })),
            Failure::Retryable(Some(40))
        ));
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms: 900
            })),
            Failure::Retryable(Some(900))
        ));
        // A hint-less shed from an old peer still retries.
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 0
            })),
            Failure::Retryable(Some(0))
        ));
    }

    /// The edge concurrency cap sheds without touching any shard and
    /// releases its slot on every exit path.
    #[test]
    fn tenant_inflight_cap_sheds_at_the_edge() {
        let gw = Gateway::new(GatewayConfig {
            qos: GatewayQos {
                max_inflight: 1,
                rates: HashMap::new(),
            },
            ..GatewayConfig::default()
        });
        // Hold the only slot by hand, then watch a query bounce.
        let gate = gw.inner.tenant_gate("acme");
        gate.inflight.fetch_add(1, Ordering::Relaxed);
        match gw.query_for("acme", &[1, 2, 3], 5, None) {
            Err(RemoteError::Serve(ServeError::QueueFull { retry_after_ms })) => {
                assert!(retry_after_ms >= 1, "edge shed must carry a hint");
            }
            other => panic!("expected edge shed, got {other:?}"),
        }
        gate.inflight.fetch_sub(1, Ordering::Relaxed);
        // Slot free again: admission passes and the (empty) topology
        // reports Unavailable — past the QoS gate.
        assert!(matches!(
            gw.query_for("acme", &[1, 2, 3], 5, None),
            Err(RemoteError::Unavailable)
        ));
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0, "slot released");
        // A different tenant is not affected by acme's slot usage.
        assert!(matches!(
            gw.query_for("other", &[1, 2, 3], 5, None),
            Err(RemoteError::Unavailable)
        ));
    }

    /// The edge token bucket meters per tenant in query-byte units.
    #[test]
    fn tenant_bucket_rate_limits_at_the_edge() {
        let mut rates = HashMap::new();
        rates.insert("metered".to_string(), RateConfig { rate: 1, burst: 4 });
        let gw = Gateway::new(GatewayConfig {
            qos: GatewayQos {
                max_inflight: 0,
                rates,
            },
            ..GatewayConfig::default()
        });
        // Burst of 4 bytes: one 3-byte query passes the bucket (then
        // fails on the empty topology), the next is rate-limited.
        assert!(matches!(
            gw.query_for("metered", &[1, 2, 3], 5, None),
            Err(RemoteError::Unavailable)
        ));
        match gw.query_for("metered", &[1, 2, 3], 5, None) {
            Err(RemoteError::Serve(ServeError::RateLimited { retry_after_ms })) => {
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // An unmetered tenant is untouched.
        assert!(matches!(
            gw.query_for("free", &[1, 2, 3], 5, None),
            Err(RemoteError::Unavailable)
        ));
    }

    #[test]
    fn empty_topology_is_unavailable() {
        let gw = Gateway::new(GatewayConfig::default());
        assert!(matches!(
            gw.query(&[1, 2, 3], 5, None),
            Err(RemoteError::Unavailable)
        ));
    }

    #[test]
    fn budget_ms_zero_means_no_deadline() {
        assert_eq!(budget_ms(None), Some(0));
        assert_eq!(
            budget_ms(Some(Instant::now() - Duration::from_millis(1))),
            None
        );
        let ms = budget_ms(Some(Instant::now() + Duration::from_secs(2))).unwrap();
        assert!(ms > 1500 && ms <= 2000, "{ms}");
    }
}
