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
//! - **Hedging.** When a group has a spare replica, a duplicate
//!   request launches after the observed p99 of the primary's
//!   round-trips (never below the configured floor); first reply
//!   wins (`swsimd_hedged_requests_total`).
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
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_core::Hit;
use swsimd_obs::flight::{AuditRecord, ShardTiming, Stage, StageTiming};
use swsimd_obs::trace::TraceCtx;
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

/// How one attempt against one replica ended.
enum Attempt {
    /// Hits plus the shard's timing summary (when the peer sent one;
    /// `rtt_ns` is filled gateway-side by the attempt thread) and the
    /// fidelity the shard served at.
    Ok(Vec<Hit>, Option<ShardTiming>, Fidelity),
    /// Retrying another replica (or the same one later) may help; an
    /// overloaded shard attaches its `retry_after_ms` backoff hint.
    Retryable(Option<u64>),
    /// The replica announced it is draining (SIGTERM'd or a passive
    /// standby): force its breaker open so no further attempts or
    /// hedges burn budget discovering the same thing, then retry the
    /// siblings.
    Draining,
    /// Retrying cannot change the outcome; fail the query.
    Fatal(RemoteError),
}

/// How one shard group ended.
enum GroupOutcome {
    Ok(Vec<Hit>, Option<ShardTiming>, Fidelity),
    /// Budget exhausted or no replica available: degrade.
    Missing,
    Fatal(RemoteError),
}

/// Per-query bookkeeping shared by the scatter threads, feeding the
/// request's flight-recorder audit record.
#[derive(Default)]
struct QueryFlight {
    retries: AtomicU32,
    hedges: AtomicU32,
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
        let inner = &self.inner;
        inner.metrics.requests.inc();
        let t0 = Instant::now();

        let _inflight = edge_admit(inner, tenant, query.len() as u64)?;
        // One trace id for the whole distributed request.
        let trace_id = if client.is_traced() {
            client.trace_id
        } else {
            swsimd_obs::mint_id()
        };
        let _adopt = swsimd_obs::adopt(TraceCtx {
            trace_id,
            span_id: client.span_id,
        });
        let mut span = swsimd_obs::span!("gateway_request", "shards" => inner.groups.len());
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceCtx {
            trace_id,
            span_id: if span.id() != 0 {
                span.id()
            } else {
                client.span_id
            },
        };
        if inner.groups.is_empty() {
            record_gateway_flight(&FlightInput {
                trace_id,
                id,
                query_len: query.len(),
                t0,
                marks: vec![(Stage::Admission, t0.elapsed())],
                shards: Vec::new(),
                flight: &QueryFlight::default(),
                degraded: false,
                ok: false,
                cancel: "unavailable",
                tenant,
            });
            return Err(RemoteError::Unavailable);
        }
        let deadline_at = deadline.map(|d| Instant::now() + d);
        let flight = Arc::new(QueryFlight::default());
        let admitted = Instant::now();

        let (tx, rx) = mpsc::channel();
        for slice in 0..inner.groups.len() {
            let tx = tx.clone();
            let this = self.clone();
            let query = query.to_vec();
            let tenant = tenant.to_string();
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || {
                let outcome = query_group(
                    &this.inner,
                    slice,
                    id,
                    &tenant,
                    &query,
                    top_k,
                    deadline_at,
                    ctx,
                    &flight,
                );
                let _ = tx.send((slice, outcome));
            });
        }
        drop(tx);
        let dispatched = Instant::now();

        let mut all_hits = Vec::new();
        let mut missing = Vec::new();
        let mut fatal = None;
        let mut timings = Vec::new();
        let mut fidelity = Fidelity::Full;
        for (slice, outcome) in rx {
            match outcome {
                GroupOutcome::Ok(hits, timing, f) => {
                    all_hits.extend(hits);
                    timings.extend(timing);
                    // Conservative merge: the response is only as
                    // faithful as its least-faithful contributor.
                    fidelity = fidelity.max(f);
                }
                GroupOutcome::Missing => missing.push(slice as u32),
                GroupOutcome::Fatal(e) => fatal = Some(e),
            }
        }
        let gathered = Instant::now();
        timings.sort_by_key(|t| t.shard);
        let marks = |merged: Option<Instant>| {
            let mut m = vec![
                (Stage::Admission, admitted.duration_since(t0)),
                (Stage::Dispatch, dispatched.duration_since(admitted)),
                (Stage::NetRtt, gathered.duration_since(dispatched)),
            ];
            if let Some(at) = merged {
                m.push((Stage::Merge, at.duration_since(gathered)));
            }
            m
        };

        if let Some(e) = fatal {
            record_gateway_flight(&FlightInput {
                trace_id,
                id,
                query_len: query.len(),
                t0,
                marks: marks(None),
                shards: timings,
                flight: &flight,
                degraded: false,
                ok: false,
                cancel: cancel_label(&e),
                tenant,
            });
            return Err(e);
        }
        if missing.len() == inner.groups.len() {
            record_gateway_flight(&FlightInput {
                trace_id,
                id,
                query_len: query.len(),
                t0,
                marks: marks(None),
                shards: timings,
                flight: &flight,
                degraded: true,
                ok: false,
                cancel: "unavailable",
                tenant,
            });
            return Err(RemoteError::Unavailable);
        }
        missing.sort_unstable();
        let degraded = !missing.is_empty();
        if degraded {
            inner.metrics.degraded.inc();
        }
        let hits = rank_hits(all_hits, top_k);
        let merged = Instant::now();
        inner
            .metrics
            .latency
            .record_duration(merged.duration_since(t0));
        span.record("hits", hits.len() as u64);
        span.record("degraded", degraded);
        record_gateway_flight(&FlightInput {
            trace_id,
            id,
            query_len: query.len(),
            t0,
            marks: marks(Some(merged)),
            shards: timings,
            flight: &flight,
            degraded,
            ok: true,
            cancel: "",
            tenant,
        });
        Ok(GatewayResponse {
            hits,
            degraded,
            missing_shards: missing,
            trace_id,
            fidelity,
        })
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

    /// Open a streaming scatter-gather query. One reader thread per
    /// slice holds a [`Msg::StreamQuery`] conversation with a replica
    /// (breaker-aware pick, bounded retries with the shared backoff
    /// schedule), relaying chunks into a bounded buffer of at most
    /// `client_credit` chunks — the gateway never holds more than
    /// `credit × chunk` bytes per client; backpressure propagates to
    /// the shards through their own credit windows. A replica that
    /// dies mid-stream is replaced by a sibling and the conversation
    /// resumes from the last delivered cursor (the shard replays its
    /// durable journal); chunks are deduplicated by `(slice, cursor)`
    /// so replays and replica switches never double-deliver. A slice
    /// that exhausts its retry budget folds into the `degraded` /
    /// `missing_shards` machinery exactly like the one-shot path.
    ///
    /// The returned handle yields [`StreamItem`]s; the terminal
    /// [`StreamItem::Fin`] carries the same merged
    /// [`GatewayResponse`] the one-shot path would have produced (the
    /// gateway folds every chunk incrementally, so the final ranking
    /// is byte-identical to an unsharded search).
    pub fn stream_query_traced_for(
        &self,
        tenant: &str,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
        client: TraceCtx,
        client_credit: u32,
    ) -> Result<GatewayStream, RemoteError> {
        let inner = &self.inner;
        inner.metrics.requests.inc();
        let guard = edge_admit(inner, tenant, query.len() as u64)?;
        if inner.groups.is_empty() {
            return Err(RemoteError::Unavailable);
        }
        let trace_id = if client.is_traced() {
            client.trace_id
        } else {
            swsimd_obs::mint_id()
        };
        let _adopt = swsimd_obs::adopt(TraceCtx {
            trace_id,
            span_id: client.span_id,
        });
        let span = swsimd_obs::span!("gateway_stream", "shards" => inner.groups.len());
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceCtx {
            trace_id,
            span_id: if span.id() != 0 {
                span.id()
            } else {
                client.span_id
            },
        };
        let deadline_at = deadline.map(|d| Instant::now() + d);
        // The client's credit window sizes the only gateway-side chunk
        // buffer; a zero or absurd window is clamped, not trusted.
        let bound = (client_credit.max(1) as usize).min(MAX_BUFFERED_CHUNKS);
        let (tx, rx) = mpsc::sync_channel::<StreamItem>(bound);
        let progress = Arc::new(StreamProgress::new(inner.groups.len()));
        let (end_tx, end_rx) = mpsc::channel();
        for slice in 0..inner.groups.len() {
            let this = self.clone();
            let query = query.to_vec();
            let tenant = tenant.to_string();
            let tx = tx.clone();
            let end_tx = end_tx.clone();
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let end = stream_group(
                    &this.inner,
                    slice,
                    id,
                    &tenant,
                    &query,
                    top_k,
                    deadline_at,
                    ctx,
                    &tx,
                    &progress,
                );
                let _ = end_tx.send((slice, end));
            });
        }
        drop(end_tx);
        let this = self.clone();
        let slices = inner.groups.len();
        std::thread::spawn(move || {
            // Holds the tenant's in-flight slot for the stream's whole
            // lifetime, not just the setup call.
            let _guard = guard;
            let inner = &this.inner;
            let mut merged = Vec::new();
            let mut missing = Vec::new();
            let mut fatal = None;
            let mut fidelity = Fidelity::Full;
            let mut abandoned = false;
            for (slice, end) in end_rx {
                match end {
                    StreamGroupEnd::Ok(hits, f) => {
                        merged.extend(hits);
                        fidelity = fidelity.max(f);
                    }
                    StreamGroupEnd::Missing => missing.push(slice as u32),
                    StreamGroupEnd::Fatal(e) => fatal = Some(e),
                    StreamGroupEnd::Abandoned => abandoned = true,
                }
            }
            if abandoned {
                // The client side of the buffer is gone; there is
                // nobody left to tell.
                return;
            }
            let result = if let Some(e) = fatal {
                Err(e)
            } else if missing.len() == slices {
                Err(RemoteError::Unavailable)
            } else {
                missing.sort_unstable();
                let degraded = !missing.is_empty();
                if degraded {
                    inner.metrics.degraded.inc();
                }
                Ok(GatewayResponse {
                    hits: rank_hits(merged, top_k),
                    degraded,
                    missing_shards: missing,
                    trace_id,
                    fidelity,
                })
            };
            let _ = tx.send(StreamItem::Fin(result));
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

/// Edge admission shared by the one-shot and streaming paths: token
/// bucket first (cheapest to explain to the caller), then the
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

/// Everything one gateway audit record needs, gathered at an exit
/// point of [`Gateway::query_traced`].
struct FlightInput<'a> {
    trace_id: u64,
    id: u64,
    query_len: usize,
    t0: Instant,
    marks: Vec<(Stage, Duration)>,
    shards: Vec<ShardTiming>,
    flight: &'a QueryFlight,
    degraded: bool,
    ok: bool,
    cancel: &'a str,
    tenant: &'a str,
}

/// File one gateway request into the process-global flight recorder.
fn record_gateway_flight(input: &FlightInput<'_>) {
    let recorder = swsimd_obs::flight::global();
    if !recorder.enabled() {
        return;
    }
    // Engine attribution: unanimous across shards, or "mixed".
    let engine = match input.shards.first() {
        Some(first) if input.shards.iter().all(|t| t.engine == first.engine) => {
            first.engine.clone()
        }
        Some(_) => "mixed".to_string(),
        None => String::new(),
    };
    recorder.record(AuditRecord {
        trace_id: input.trace_id,
        query_id: input.id,
        total_ns: input.t0.elapsed().as_nanos() as u64,
        stages: input
            .marks
            .iter()
            .map(|(stage, d)| StageTiming {
                stage: *stage,
                ns: d.as_nanos() as u64,
            })
            .collect(),
        shards: input.shards.clone(),
        engine,
        retries: input.flight.retries.load(Ordering::Relaxed),
        hedges: input.flight.hedges.load(Ordering::Relaxed),
        degraded: input.degraded,
        cost: input.query_len as u64,
        cancel: input.cancel.to_string(),
        ok: input.ok,
        tenant: tenant_label(input.tenant).to_string(),
    });
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

/// Run one shard group to completion: retries, breaker bookkeeping,
/// and hedging happen here.
#[allow(clippy::too_many_arguments)] // group context travels together
fn query_group(
    inner: &Arc<GatewayInner>,
    slice: usize,
    id: u64,
    tenant: &str,
    query: &[u8],
    top_k: usize,
    deadline_at: Option<Instant>,
    ctx: TraceCtx,
    flight: &QueryFlight,
) -> GroupOutcome {
    let group = &inner.groups[slice];
    let mut attempt = 0u32;
    // Backoff hint from the previous attempt's overload rejection, if
    // any; it overrides the exponential schedule for the next sleep.
    let mut hint_ms: Option<u64> = None;
    loop {
        if !inner.cfg.retry.allows(attempt) {
            return GroupOutcome::Missing;
        }
        if attempt > 0 {
            inner.metrics.retries.inc();
            flight.retries.fetch_add(1, Ordering::Relaxed);
            let delay = inner.cfg.retry.delay_with_hint(attempt, hint_ms);
            if let Some(d) = deadline_at {
                if Instant::now() + delay >= d {
                    return GroupOutcome::Missing;
                }
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
            return GroupOutcome::Missing;
        }
        let primary = available[attempt as usize % available.len()];
        let hedge = (available.len() > 1 && inner.cfg.hedge_after.is_some())
            .then(|| available[(attempt as usize + 1) % available.len()]);

        match attempt_with_hedge(
            inner,
            primary,
            hedge,
            id,
            tenant,
            query,
            top_k,
            deadline_at,
            ctx,
            flight,
        ) {
            Attempt::Ok(hits, timing, fidelity) => return GroupOutcome::Ok(hits, timing, fidelity),
            Attempt::Fatal(e) => return GroupOutcome::Fatal(e),
            Attempt::Retryable(hint) => {
                hint_ms = hint;
                attempt += 1;
            }
            // Draining folds into Retryable before reaching here; the
            // next pass simply skips the force-opened replica.
            Attempt::Draining => {
                hint_ms = None;
                attempt += 1;
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
    /// Terminal item: the merged ranking (byte-identical to the
    /// one-shot path) or the fatal error that ended the stream.
    Fin(Result<GatewayResponse, RemoteError>),
}

/// Per-slice progress cells shared between the reader threads (which
/// write what shards report) and the stream handle (which sums them
/// for heartbeats).
struct StreamProgress {
    done: Vec<AtomicU64>,
    total: Vec<AtomicU64>,
}

impl StreamProgress {
    fn new(slices: usize) -> Self {
        Self {
            done: (0..slices).map(|_| AtomicU64::new(0)).collect(),
            total: (0..slices).map(|_| AtomicU64::new(0)).collect(),
        }
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

/// Client half of one streaming scatter-gather query. Dropping the
/// handle abandons the stream: reader threads notice their buffer is
/// gone, close their shard sockets, and the shards keep their
/// journals for a later resume.
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
}

impl Drop for GatewayStream {
    fn drop(&mut self) {
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

/// How one slice's streaming conversation ended, after retries.
enum StreamGroupEnd {
    /// Every chunk delivered and folded; the slice's contribution to
    /// the final merge plus the fidelity its shard served at.
    Ok(Vec<Hit>, Fidelity),
    /// Retry budget exhausted or no replica available: degrade.
    Missing,
    Fatal(RemoteError),
    /// The client dropped the stream handle; stop without a verdict.
    Abandoned,
}

/// How one streaming attempt against one replica ended.
enum StreamAttemptEnd {
    Done(Fidelity),
    Retryable(Option<u64>),
    Draining,
    Fatal(RemoteError),
    Abandoned,
}

/// Run one slice's stream to completion: breaker-aware replica picks,
/// bounded retries, and mid-stream reconnects that resume from the
/// last delivered cursor.
#[allow(clippy::too_many_arguments)] // stream context travels together
fn stream_group(
    inner: &Arc<GatewayInner>,
    slice: usize,
    id: u64,
    tenant: &str,
    query: &[u8],
    top_k: usize,
    deadline_at: Option<Instant>,
    ctx: TraceCtx,
    tx: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
) -> StreamGroupEnd {
    let group = &inner.groups[slice];
    let mut attempt = 0u32;
    let mut hint_ms: Option<u64> = None;
    // Highest cursor forwarded into the client buffer; reconnects ask
    // the next replica to skip everything at or below it.
    let mut delivered = 0u64;
    // Incremental fold of every chunk: per-chunk top-k capping
    // preserves the global top-k, so this stays bounded by `top_k`.
    let mut merged: Vec<Hit> = Vec::new();
    loop {
        if !inner.cfg.retry.allows(attempt) {
            return StreamGroupEnd::Missing;
        }
        if attempt > 0 {
            inner.metrics.retries.inc();
            let delay = inner.cfg.retry.delay_with_hint(attempt, hint_ms);
            if let Some(d) = deadline_at {
                if Instant::now() + delay >= d {
                    return StreamGroupEnd::Missing;
                }
            }
            std::thread::sleep(delay);
        }
        let available: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&ord| lock_ok(&inner.replicas[ord].breaker).is_available())
            .collect();
        if available.is_empty() {
            return StreamGroupEnd::Missing;
        }
        let ordinal = available[attempt as usize % available.len()];
        if attempt > 0 && delivered > 0 {
            // This attempt continues a partially-delivered stream from
            // durable shard state rather than starting over.
            inner.stream.resumes.inc();
            swsimd_obs::event!(
                "stream_shard_reconnect",
                "slice" => slice,
                "cursor" => delivered
            );
        }
        let replica = &inner.replicas[ordinal];
        replica.metrics.inflight.inc();
        let end = stream_attempt(
            inner,
            ordinal,
            id,
            tenant,
            query,
            top_k,
            deadline_at,
            ctx,
            &mut delivered,
            &mut merged,
            tx,
            progress,
        );
        replica.metrics.inflight.dec();
        match end {
            StreamAttemptEnd::Done(fidelity) => {
                lock_ok(&replica.breaker).record_success();
                return StreamGroupEnd::Ok(merged, fidelity);
            }
            StreamAttemptEnd::Fatal(e) => return StreamGroupEnd::Fatal(e),
            StreamAttemptEnd::Abandoned => return StreamGroupEnd::Abandoned,
            StreamAttemptEnd::Draining => {
                inner.metrics.draining_replies.inc();
                let opened = lock_ok(&replica.breaker).force_open();
                if opened {
                    replica.metrics.down_total.inc();
                    replica.metrics.up.set(0);
                    swsimd_obs::event!("shard_draining_unrouted", "replica" => ordinal);
                }
                hint_ms = None;
                attempt += 1;
            }
            StreamAttemptEnd::Retryable(hint) => {
                let opened = lock_ok(&replica.breaker).record_failure();
                if opened {
                    replica.metrics.down_total.inc();
                    replica.metrics.up.set(0);
                    swsimd_obs::event!("shard_breaker_open", "replica" => ordinal);
                }
                hint_ms = hint;
                attempt += 1;
            }
        }
    }
}

/// One streaming conversation with one replica: relay chunks into the
/// client buffer (deduplicated by cursor), grant the shard one credit
/// per chunk consumed, track progress heartbeats, and fold every new
/// chunk into the slice's running merge.
#[allow(clippy::too_many_arguments)] // stream context travels together
fn stream_attempt(
    inner: &GatewayInner,
    ordinal: usize,
    id: u64,
    tenant: &str,
    query: &[u8],
    top_k: usize,
    deadline_at: Option<Instant>,
    ctx: TraceCtx,
    delivered: &mut u64,
    merged: &mut Vec<Hit>,
    tx: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
) -> StreamAttemptEnd {
    let replica = &inner.replicas[ordinal];
    let slice = replica.slice;
    let Some(deadline_ms) = budget_ms(deadline_at) else {
        return StreamAttemptEnd::Fatal(RemoteError::Serve(ServeError::DeadlineExceeded));
    };
    if inner.cfg.fault.before_connect(ordinal).is_err() {
        return StreamAttemptEnd::Retryable(None);
    }
    let Ok(addr) = resolve(&replica.addr) else {
        return StreamAttemptEnd::Retryable(None);
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout) else {
        return StreamAttemptEnd::Retryable(None);
    };
    // The read timeout bounds *silence*, not the stream: the shard
    // proves liveness with sub-second Progress heartbeats, so a long
    // stream never trips it while a dead peer still does.
    crate::listen::apply_socket_opts(&stream, Some(inner.cfg.request_timeout), "gateway_stream");
    let msg = Msg::StreamQuery {
        id,
        top_k: top_k as u32,
        deadline_ms,
        slice_index: slice,
        slice_count: inner.groups.len() as u32,
        credit: SHARD_CREDIT,
        cursor: *delivered,
        query: query.to_vec(),
        trace: ctx,
        tenant: tenant.to_string(),
    };
    if write_msg(&mut stream, &msg).is_err() {
        return StreamAttemptEnd::Retryable(None);
    }
    loop {
        match read_msg(&mut stream) {
            Ok(Msg::StreamChunk { cursor, hits, .. }) => {
                if cursor > *delivered {
                    merged.extend(hits.iter().cloned());
                    *merged = rank_hits(std::mem::take(merged), top_k);
                    let bytes = chunk_bytes(&hits);
                    buffered_add(&inner.stream, bytes);
                    if tx
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
                        return StreamAttemptEnd::Abandoned;
                    }
                    inner.stream.chunks.inc();
                    *delivered = cursor;
                }
                // Grant one credit per chunk consumed — a deduplicated
                // replay still spent shard credit to arrive.
                if write_msg(&mut stream, &Msg::Credit { id, credits: 1 }).is_err() {
                    return StreamAttemptEnd::Retryable(None);
                }
            }
            Ok(Msg::Progress {
                cells_done,
                cells_total,
                ..
            }) => progress.set(slice as usize, cells_done, cells_total),
            Ok(Msg::Fin {
                digest, fidelity, ..
            }) => {
                progress.finish(slice as usize);
                if digest != ranking_digest(merged) {
                    // The fold should always agree with the shard's
                    // own final ranking; a mismatch is a bug worth an
                    // alertable breadcrumb, not a query failure.
                    swsimd_obs::event!(
                        "stream_digest_mismatch",
                        "slice" => slice,
                        "shard_digest" => digest,
                        "fold_digest" => ranking_digest(merged)
                    );
                }
                return StreamAttemptEnd::Done(fidelity);
            }
            Ok(Msg::Error { err, .. }) => {
                return match classify(err) {
                    Attempt::Fatal(e) => StreamAttemptEnd::Fatal(e),
                    Attempt::Draining => StreamAttemptEnd::Draining,
                    Attempt::Retryable(hint) => StreamAttemptEnd::Retryable(hint),
                    Attempt::Ok(..) => StreamAttemptEnd::Retryable(None),
                }
            }
            // A non-stream kind is a confused peer: reconnect.
            Ok(_) => return StreamAttemptEnd::Retryable(None),
            Err(WireError::BadCrc { want, got }) => {
                swsimd_obs::event!("reply_crc_mismatch", "want" => want, "got" => got);
                return StreamAttemptEnd::Retryable(None);
            }
            Err(_) => return StreamAttemptEnd::Retryable(None),
        }
    }
}

/// Launch the primary attempt; if no reply lands within the hedge
/// delay and a sibling exists, launch a duplicate and take the first
/// answer. Each attempt thread does its own breaker/metric
/// bookkeeping, so the loser's late result still updates state.
#[allow(clippy::too_many_arguments)] // attempt context travels together
fn attempt_with_hedge(
    inner: &Arc<GatewayInner>,
    primary: usize,
    hedge: Option<usize>,
    id: u64,
    tenant: &str,
    query: &[u8],
    top_k: usize,
    deadline_at: Option<Instant>,
    ctx: TraceCtx,
    flight: &QueryFlight,
) -> Attempt {
    let (tx, rx) = mpsc::channel();
    spawn_attempt(
        inner,
        primary,
        id,
        tenant,
        query,
        top_k,
        deadline_at,
        ctx,
        tx.clone(),
    );

    let hedge_delay = hedge.and_then(|_| effective_hedge_delay(inner, primary));
    let mut launched = 1;
    let first = match hedge_delay {
        Some(delay) => match rx.recv_timeout(delay) {
            Ok(outcome) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let sibling = hedge.expect("hedge_delay implies sibling");
                inner.metrics.hedges.inc();
                flight.hedges.fetch_add(1, Ordering::Relaxed);
                swsimd_obs::event!(
                    "hedged_request",
                    "primary" => primary,
                    "sibling" => sibling
                );
                spawn_attempt(
                    inner,
                    sibling,
                    id,
                    tenant,
                    query,
                    top_k,
                    deadline_at,
                    ctx,
                    tx.clone(),
                );
                launched = 2;
                None
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        },
        None => None,
    };
    drop(tx);

    let mut results = Vec::new();
    if let Some(outcome) = first {
        results.push(outcome);
    }
    // Take the first success; otherwise drain what was launched.
    while results
        .iter()
        .filter(|r| !matches!(r, Attempt::Ok(..)))
        .count()
        == results.len()
        && results.len() < launched
    {
        match rx.recv() {
            Ok(outcome) => results.push(outcome),
            Err(_) => break,
        }
    }
    // Prefer success, then fatal (definitive), then retryable. A
    // draining reply folds into retryable here — its breaker is
    // already force-open, so the next attempt picks a live sibling.
    let mut hint_ms: Option<u64> = None;
    let mut fatal = None;
    for outcome in results {
        match outcome {
            Attempt::Ok(hits, timing, fidelity) => return Attempt::Ok(hits, timing, fidelity),
            Attempt::Fatal(e) => fatal = Some(e),
            Attempt::Draining => {}
            Attempt::Retryable(hint) => {
                // Back off by the most pessimistic hint any replica
                // attached.
                hint_ms = hint_ms.max(hint);
            }
        }
    }
    match fatal {
        Some(e) => Attempt::Fatal(e),
        None => Attempt::Retryable(hint_ms),
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

#[allow(clippy::too_many_arguments)] // attempt context travels together
fn spawn_attempt(
    inner: &Arc<GatewayInner>,
    ordinal: usize,
    id: u64,
    tenant: &str,
    query: &[u8],
    top_k: usize,
    deadline_at: Option<Instant>,
    ctx: TraceCtx,
    tx: mpsc::Sender<Attempt>,
) {
    let inner = Arc::clone(inner);
    let query = query.to_vec();
    let tenant = tenant.to_string();
    std::thread::spawn(move || {
        let started = Instant::now();
        inner.replicas[ordinal].metrics.inflight.inc();
        let mut outcome = attempt_once(
            &inner,
            ordinal,
            id,
            &tenant,
            &query,
            top_k,
            deadline_at,
            ctx,
        );
        let rtt = started.elapsed();
        let replica = &inner.replicas[ordinal];
        replica.metrics.inflight.dec();
        // Only the gateway can observe the round trip; stamp it onto
        // the shard's timing summary for the stitched breakdown.
        if let Attempt::Ok(_, Some(timing), _) = &mut outcome {
            timing.rtt_ns = rtt.as_nanos() as u64;
        }
        match &outcome {
            Attempt::Ok(..) => {
                replica.metrics.rtt.record_duration(rtt);
                lock_ok(&replica.breaker).record_success();
            }
            // Fatal outcomes are the *query's* fault, not the
            // replica's — no strike.
            Attempt::Fatal(_) => {}
            // The replica said it is leaving: stop routing to it right
            // now rather than strike-by-strike.
            Attempt::Draining => {
                inner.metrics.draining_replies.inc();
                let opened = lock_ok(&replica.breaker).force_open();
                if opened {
                    replica.metrics.down_total.inc();
                    replica.metrics.up.set(0);
                    swsimd_obs::event!("shard_draining_unrouted", "replica" => ordinal);
                }
            }
            Attempt::Retryable(_) => {
                let opened = lock_ok(&replica.breaker).record_failure();
                if opened {
                    replica.metrics.down_total.inc();
                    replica.metrics.up.set(0);
                    swsimd_obs::event!("shard_breaker_open", "replica" => ordinal);
                }
            }
        }
        let _ = tx.send(outcome);
    });
}

#[allow(clippy::too_many_arguments)] // attempt context travels together
fn attempt_once(
    inner: &GatewayInner,
    ordinal: usize,
    id: u64,
    tenant: &str,
    query: &[u8],
    top_k: usize,
    deadline_at: Option<Instant>,
    ctx: TraceCtx,
) -> Attempt {
    let replica = &inner.replicas[ordinal];
    let Some(deadline_ms) = budget_ms(deadline_at) else {
        return Attempt::Fatal(RemoteError::Serve(ServeError::DeadlineExceeded));
    };
    if inner.cfg.fault.before_connect(ordinal).is_err() {
        return Attempt::Retryable(None);
    }
    let Ok(addr) = resolve(&replica.addr) else {
        return Attempt::Retryable(None);
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout) else {
        return Attempt::Retryable(None);
    };
    let _ = stream.set_nodelay(true);
    let mut read_timeout = inner.cfg.request_timeout;
    if let Some(d) = deadline_at {
        read_timeout = read_timeout.min(d.saturating_duration_since(Instant::now()));
    }
    if read_timeout.is_zero() {
        return Attempt::Fatal(RemoteError::Serve(ServeError::DeadlineExceeded));
    }
    let _ = stream.set_read_timeout(Some(read_timeout));
    let msg = Msg::Query {
        id,
        top_k: top_k as u32,
        deadline_ms,
        slice_index: replica.slice,
        slice_count: inner.groups.len() as u32,
        query: query.to_vec(),
        trace: ctx,
        tenant: tenant.to_string(),
    };
    if write_msg(&mut stream, &msg).is_err() {
        return Attempt::Retryable(None);
    }
    match read_msg(&mut stream) {
        Ok(Msg::Hits {
            hits,
            timing,
            fidelity,
            ..
        }) => Attempt::Ok(hits, timing, fidelity),
        Ok(Msg::Error { err, .. }) => classify(err),
        // A non-answer kind is a confused peer: don't trust it again
        // this attempt.
        Ok(_) => Attempt::Retryable(None),
        // Torn frames, bit flips, timeouts, resets: all retryable.
        Err(WireError::BadCrc { want, got }) => {
            swsimd_obs::event!("reply_crc_mismatch", "want" => want, "got" => got);
            Attempt::Retryable(None)
        }
        Err(_) => Attempt::Retryable(None),
    }
}

/// Fatal errors fail the query; everything else earns a retry. A
/// shard-side overload rejection (shed or rate-limited) attaches its
/// `retry_after_ms` hint so the retry sleeps what the shard asked
/// for, not the generic schedule.
fn classify(err: RemoteError) -> Attempt {
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
        | RemoteError::BadResumeToken => Attempt::Fatal(err),
        RemoteError::Serve(S::QueueFull { .. }) | RemoteError::Serve(S::RateLimited { .. }) => {
            Attempt::Retryable(err.retry_after_ms())
        }
        // A draining peer *announced* its departure: force the breaker
        // open instead of burning strikes (and retries) discovering it.
        RemoteError::Draining => Attempt::Draining,
        RemoteError::Serve(S::ShutDown)
        | RemoteError::Serve(S::WorkerPanicked)
        | RemoteError::WrongShard { .. }
        | RemoteError::Unavailable => Attempt::Retryable(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_splits_fatal_from_retryable() {
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::DeadlineExceeded)),
            Attempt::Fatal(_)
        ));
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::QueryTooLarge {
                len: 2,
                limit: 1
            })),
            Attempt::Fatal(_)
        ));
        assert!(
            matches!(classify(RemoteError::BadResumeToken), Attempt::Fatal(_)),
            "a rejected resume token cannot be fixed by retrying"
        );
        for retryable in [
            RemoteError::Serve(ServeError::ShutDown),
            RemoteError::Serve(ServeError::WorkerPanicked),
            RemoteError::WrongShard { got: 0, want: 1 },
            RemoteError::Unavailable,
        ] {
            assert!(matches!(classify(retryable), Attempt::Retryable(None)));
        }
        // An announced departure is its own class: the breaker is
        // force-opened instead of accumulating strikes.
        assert!(matches!(classify(RemoteError::Draining), Attempt::Draining));
    }

    /// Overload rejections retry with the shard's own backoff hint.
    #[test]
    fn classify_carries_overload_hints() {
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 40
            })),
            Attempt::Retryable(Some(40))
        ));
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms: 900
            })),
            Attempt::Retryable(Some(900))
        ));
        // A hint-less shed from an old peer still retries.
        assert!(matches!(
            classify(RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 0
            })),
            Attempt::Retryable(Some(0))
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
