//! Gateway front door: a TCP listener speaking the shard protocol,
//! backed by a scatter-gather [`Gateway`].
//!
//! Clients talk to one address; the front door fans each query out
//! across the shard topology and returns the merged (possibly
//! `degraded`) ranking. It answers [`Msg::Ping`] with shard id
//! `u32::MAX` so probes can tell a gateway from a worker, serves the
//! process-global Prometheus scrape over [`Msg::MetricsRequest`], and
//! supports the same drain protocol as shards: once draining, new
//! queries get [`RemoteError::Draining`] while health and metrics
//! frames still answer.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swsimd_core::{CancelReason, Hit};
use swsimd_obs::trace::TraceCtx;
use swsimd_seq::integrity::crc32;

use crate::conn::{observability_reply, Acceptor, Conn, Event, InFlight, STREAM_HEARTBEAT};
use crate::gateway::{Gateway, StreamItem};
use crate::metrics::{AbandonReason, NetCancelled, StreamMetrics};
use crate::wire::{ranking_digest, write_msg, Msg, RemoteError};

/// Default idle cutoff for a silent peer when none is configured.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shard id a gateway reports in [`Msg::Pong`].
pub const GATEWAY_SHARD_ID: u32 = u32::MAX;

struct FrontShared {
    gateway: Gateway,
    draining: AtomicBool,
    stopping: AtomicBool,
    in_flight: InFlight,
    cancelled: NetCancelled,
    stream: StreamMetrics,
    /// Per-connection read timeout: the cutoff for a peer that stalls
    /// mid-frame — streams stay alive under it via heartbeats.
    idle_timeout: Duration,
}

/// A front-door connection. Its queries run on gateway streams, so no
/// work reports into its inbox.
type FrontConn = Conn<()>;

/// A running gateway front door.
pub struct GatewayServer {
    shared: Arc<FrontShared>,
    acceptor: Acceptor,
    drain_timeout: Duration,
}

impl GatewayServer {
    /// Bind `listen` and serve `gateway` until shutdown, with the
    /// default idle timeout.
    pub fn start(
        gateway: Gateway,
        listen: &str,
        drain_timeout: Duration,
    ) -> std::io::Result<GatewayServer> {
        Self::start_with_idle_timeout(gateway, listen, drain_timeout, DEFAULT_IDLE_TIMEOUT)
    }

    /// [`GatewayServer::start`] with an explicit idle timeout — the
    /// read cutoff for a peer that stalls mid-frame. Streams outlive
    /// it through [`Msg::Progress`] heartbeats; only a dead connection
    /// trips it.
    pub fn start_with_idle_timeout(
        gateway: Gateway,
        listen: &str,
        drain_timeout: Duration,
        idle_timeout: Duration,
    ) -> std::io::Result<GatewayServer> {
        let shared = Arc::new(FrontShared {
            gateway,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            in_flight: InFlight::default(),
            cancelled: NetCancelled::new(),
            stream: StreamMetrics::new(),
            idle_timeout,
        });
        // SO_REUSEADDR so a supervisor-respawned gateway rebinds its
        // published port straight through TIME_WAIT.
        let listener = crate::listen::bind_reuse(listen)?;
        let conn_shared = Arc::clone(&shared);
        let acceptor = Acceptor::start(listener, move |stream| {
            serve_conn(stream, &conn_shared);
        })?;
        Ok(GatewayServer {
            shared,
            acceptor,
            drain_timeout,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// True once a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.get()
    }

    /// Begin refusing new queries.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Drain, wait up to the drain timeout for in-flight queries,
    /// then stop. Returns true when every query finished in time.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        self.drain();
        let clean = self.shared.in_flight.wait_idle(self.drain_timeout);
        self.shared.stopping.store(true, Ordering::Release);
        self.acceptor.stop();
        clean
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        if self.acceptor.is_running() {
            self.shutdown_inner();
        }
    }
}

fn pong(shared: &FrontShared, nonce: u64) -> Msg {
    Msg::Pong {
        nonce,
        shard: GATEWAY_SHARD_ID,
        draining: shared.draining.load(Ordering::Acquire),
    }
}

fn serve_conn(stream: TcpStream, shared: &Arc<FrontShared>) {
    let Some(mut conn) = FrontConn::open(stream, shared.idle_timeout, "gateway_front") else {
        return;
    };
    while let Some(msg) = conn.next_request() {
        let reply = match msg {
            Msg::Ping { nonce } => pong(shared, nonce),
            Msg::Drain => {
                shared.draining.store(true, Ordering::Release);
                pong(shared, 0)
            }
            // Gateways have no standby state; acknowledge so a
            // supervisor can treat the frame uniformly.
            Msg::Activate => pong(shared, 0),
            Msg::Query {
                id,
                top_k,
                deadline_ms,
                query,
                trace,
                tenant,
                ..
            } => {
                let req = QueryReq {
                    id,
                    top_k,
                    deadline_ms,
                    credit: None,
                    query,
                    trace,
                    tenant,
                    filter: HashMap::new(),
                };
                if !handle_stream(shared, &mut conn, req) {
                    return;
                }
                continue;
            }
            Msg::StreamQuery {
                id,
                top_k,
                deadline_ms,
                credit,
                query,
                trace,
                tenant,
                ..
            } => {
                let req = QueryReq {
                    id,
                    top_k,
                    deadline_ms,
                    credit: Some(credit),
                    query,
                    trace,
                    tenant,
                    filter: HashMap::new(),
                };
                if !handle_stream(shared, &mut conn, req) {
                    return;
                }
                conn.finish_stream(id);
                continue;
            }
            Msg::Resume {
                id,
                deadline_ms,
                credit,
                token,
                query,
                trace,
                tenant,
            } => {
                if token.query_crc != crc32(&query) {
                    // The token binds the query by hash; these bytes
                    // are not the query it claims to continue.
                    Msg::Error {
                        id,
                        err: RemoteError::BadResumeToken,
                    }
                } else {
                    shared.stream.resumes.inc();
                    swsimd_obs::event!(
                        "stream_resume",
                        "id" => id,
                        "trace_id" => token.trace_id,
                        "slices" => token.cursors.len()
                    );
                    let req = QueryReq {
                        id,
                        // The resumed merge must run at the original
                        // depth or the Fin digest would describe a
                        // different ranking than the one the client
                        // assembled.
                        top_k: token.top_k,
                        deadline_ms,
                        credit: Some(credit),
                        query,
                        trace,
                        tenant,
                        filter: token.cursors.iter().copied().collect(),
                    };
                    if !handle_stream(shared, &mut conn, req) {
                        return;
                    }
                    conn.finish_stream(id);
                    continue;
                }
            }
            // Observability requests answer as on every server. Reply
            // kinds (and mid-stream frames outside a stream) on a fresh
            // request slot are a protocol violation: close.
            other => match observability_reply(&other) {
                Some(reply) => reply,
                None => return,
            },
        };
        if write_msg(&mut conn.stream, &reply).is_err() {
            return;
        }
    }
}

/// One client query (one-shot, or a fresh or resumed stream) as the
/// front door sees it.
struct QueryReq {
    id: u64,
    top_k: u32,
    deadline_ms: u32,
    /// The stream's initial credit window; `None` for a plain
    /// [`Msg::Query`], answered with one `Hits` frame.
    credit: Option<u32>,
    query: Vec<u8>,
    trace: TraceCtx,
    tenant: String,
    /// Per-slice cursors already delivered to *this client* (from a
    /// resume token); chunks at or below them are folded into the
    /// final digest but not re-sent.
    filter: HashMap<u32, u64>,
}

/// Serve one query on `conn`: a stream relays chunks as its client's
/// credit allows and heartbeats while none go out; a one-shot query is
/// the same run with unbounded credit, answered with one `Hits` frame
/// and no heartbeats. Either way the connection waits at most one
/// heartbeat between checks for its client hanging up, and a hang-up
/// drops the gateway stream, whose slice readers then hang up on their
/// shards. Returns false when the connection should close (client gone
/// or protocol violation); true keeps it open for the next request.
fn handle_stream(shared: &Arc<FrontShared>, conn: &mut FrontConn, req: QueryReq) -> bool {
    let id = req.id;
    if shared.draining.load(Ordering::Acquire) {
        let err = RemoteError::Draining;
        return write_msg(&mut conn.stream, &Msg::Error { id, err }).is_ok();
    }
    let _guard = shared.in_flight.enter();
    let deadline = (req.deadline_ms > 0).then(|| Duration::from_millis(u64::from(req.deadline_ms)));
    // The gateway always re-pulls every slice from cursor 0 — a
    // resume replays cheap durable journal state — so the final merge
    // and Fin digest always cover the whole ranking; `delivered`
    // (seeded from the resume token) only gates what is re-sent.
    let mut gs = match shared.gateway.open(
        &req.tenant,
        &req.query,
        req.top_k as usize,
        deadline,
        req.trace,
        req.credit,
    ) {
        Ok(gs) => gs,
        Err(err) => return write_msg(&mut conn.stream, &Msg::Error { id, err }).is_ok(),
    };
    let streaming = req.credit.is_some();
    let mut delivered = req.filter;
    let mut client_credit = req.credit.unwrap_or(u32::MAX);
    let mut stall_counted = false;
    let mut next_beat = Instant::now() + STREAM_HEARTBEAT;
    let mut held: Option<(u32, u64, Vec<Hit>)> = None;
    let abandon = |reason: AbandonReason| {
        if streaming {
            shared.stream.abandon(reason);
        }
        swsimd_obs::event!(
            "query_abandoned",
            "id" => id,
            "at" => "gateway",
            "reason" => reason.as_str()
        );
    };
    loop {
        // 1. Wait for what can move the stream forward, at most until
        //    the next heartbeat: the next merge item while no chunk is
        //    held, else a credit grant from the client. Holding at most
        //    one chunk here keeps the rest in the gateway's bounded
        //    buffer, so backpressure reaches the shards through their
        //    own credit windows — and `Fin` (which needs no credit) can
        //    still surface once the last chunk drains.
        let mut event = if held.is_none() {
            match gs.next_timeout(next_beat.saturating_duration_since(Instant::now())) {
                // A chunk the resume token already covers is folded
                // upstream but not re-sent — and spends no client
                // credit.
                Some(StreamItem::Chunk {
                    slice,
                    cursor,
                    hits,
                }) if cursor > delivered.get(&slice).copied().unwrap_or(0) => {
                    held = Some((slice, cursor, hits));
                }
                Some(StreamItem::Fin(result)) => {
                    let last = match result {
                        Ok(resp) if streaming => Msg::Fin {
                            id,
                            digest: ranking_digest(&resp.hits),
                            degraded: resp.degraded,
                            missing_shards: resp.missing_shards,
                            trace_id: resp.trace_id,
                            timing: None,
                            fidelity: resp.fidelity,
                        },
                        Ok(resp) => Msg::Hits {
                            id,
                            degraded: resp.degraded,
                            missing_shards: resp.missing_shards,
                            hits: resp.hits,
                            // Hand the trace id back so the client can
                            // pull this request's flight record with
                            // `swsimd trace <id>`.
                            trace_id: resp.trace_id,
                            timing: None,
                            fidelity: resp.fidelity,
                        },
                        Err(err) => Msg::Error { id, err },
                    };
                    return write_msg(&mut conn.stream, &last).is_ok();
                }
                Some(StreamItem::Chunk { .. }) | None => {}
            }
            conn.try_recv()
        } else {
            if !stall_counted {
                shared.stream.credit_stalls.inc();
                stall_counted = true;
            }
            conn.recv_until(next_beat)
        };
        // 2. Absorb client events: credit grants are the only frames
        //    legal mid-stream, and none are legal before a one-shot
        //    reply.
        while let Some(ev) = event {
            match ev {
                Event::Frame(Msg::Credit { id: cid, credits }) if streaming && cid == id => {
                    client_credit = client_credit.saturating_add(credits);
                    stall_counted = false;
                }
                Event::Closed if shared.stopping.load(Ordering::Acquire) => {
                    shared.cancelled.record(CancelReason::Shutdown);
                    abandon(AbandonReason::Shutdown);
                    let err = RemoteError::Serve(swsimd_runner::ServeError::ShutDown);
                    let _ = write_msg(&mut conn.stream, &Msg::Error { id, err });
                    return false;
                }
                Event::Closed => {
                    shared.cancelled.record(CancelReason::ClientDrop);
                    abandon(AbandonReason::ClientDrop);
                    return false;
                }
                Event::Frame(_) => {
                    abandon(AbandonReason::Error);
                    return false;
                }
                Event::Work(()) => {}
            }
            event = conn.try_recv();
        }
        // 3. Deliver the held chunk once credit allows.
        if client_credit > 0 {
            if let Some((slice, cursor, hits)) = held.take() {
                let chunk = Msg::StreamChunk {
                    id,
                    shard: slice,
                    cursor,
                    hits,
                };
                if write_msg(&mut conn.stream, &chunk).is_err() {
                    shared.cancelled.record(CancelReason::ClientDrop);
                    abandon(AbandonReason::ClientDrop);
                    return false;
                }
                shared.stream.chunks.inc();
                client_credit -= 1;
                delivered.insert(slice, cursor);
                next_beat = Instant::now() + STREAM_HEARTBEAT;
            }
        }
        // 4. Heartbeat: prove a stream's liveness (and carry cost
        //    accounting) whenever no chunk went out recently.
        if Instant::now() >= next_beat {
            if streaming {
                let (cells_done, cells_total) = gs.progress();
                let beat = Msg::Progress {
                    id,
                    cells_done,
                    cells_total,
                };
                if write_msg(&mut conn.stream, &beat).is_err() {
                    shared.cancelled.record(CancelReason::ClientDrop);
                    abandon(AbandonReason::ClientDrop);
                    return false;
                }
            }
            next_beat = Instant::now() + STREAM_HEARTBEAT;
        }
    }
}
