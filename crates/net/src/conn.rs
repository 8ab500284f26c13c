//! Connection plumbing shared by the shard worker and the gateway
//! front door: the accept loop, one thread pair per connection, the
//! in-flight ledger a drain waits on, and the observability frames
//! both servers answer the same way.
//!
//! Nothing on the request path waits on a timer. Each wait blocks on
//! something that wakes it:
//!
//! - the accept thread blocks in `accept`; [`Acceptor::stop`] wakes it
//!   by connecting to the listener itself;
//! - a reader thread per connection blocks on the socket and forwards
//!   every whole frame, then the peer's hang-up, into the connection's
//!   single inbox. Completions of work the connection started (a
//!   finished query, a journal chunk) arrive on the same inbox, so the
//!   connection thread blocks on one channel and reacts to whichever
//!   event comes first: the client dropping cancels the job at once;
//!   a computed reply goes out at once;
//! - stopping shuts the read half of every live socket, so each reader
//!   sees end-of-stream and its connection thread wakes to finish up;
//! - a drain blocks on the in-flight count's condition variable.
//!
//! The only timers left are protocol ones: stream heartbeats (a wait
//! bounded by the next heartbeat) and the socket read timeout, which
//! cuts a peer that stalls *inside* a frame. A silent peer between
//! frames keeps its connection.

use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::wire::{read_msg, Msg};

/// How often a stream proves liveness with a [`Msg::Progress`] frame
/// when no chunk went out. Receivers treat any stream frame as
/// activity, so their idle timeout only fires after several missed
/// heartbeats — "slow but alive" stays alive.
pub(crate) const STREAM_HEARTBEAT: Duration = Duration::from_millis(250);

/// Events a connection's inbox holds before its senders block. The
/// bound is the backpressure that keeps a client which floods frames
/// without reading replies from growing the server's memory: its
/// reader stops reading, and TCP pushes back on the client.
const INBOX_DEPTH: usize = 32;

/// Pause after a failed `accept` (aborted handshake, descriptor
/// exhaustion) before retrying, so a persistent error cannot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Mutex lock that shrugs off poisoning (connection threads may panic
/// on injected faults without wedging shutdown).
pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Requests currently being served; a drain blocks until it reaches
/// zero.
#[derive(Default)]
pub(crate) struct InFlight {
    count: Mutex<usize>,
    idle: Condvar,
}

impl InFlight {
    /// Count one request until the guard drops.
    pub(crate) fn enter(&self) -> InFlightGuard<'_> {
        *lock_ok(&self.count) += 1;
        InFlightGuard(self)
    }

    pub(crate) fn get(&self) -> usize {
        *lock_ok(&self.count)
    }

    /// Block until nothing is in flight or `timeout` passes; true when
    /// the count reached zero.
    pub(crate) fn wait_idle(&self, timeout: Duration) -> bool {
        let count = lock_ok(&self.count);
        let (count, _) = self
            .idle
            .wait_timeout_while(count, timeout, |n| *n > 0)
            .unwrap_or_else(|e| e.into_inner());
        *count == 0
    }
}

pub(crate) struct InFlightGuard<'a>(&'a InFlight);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut count = lock_ok(&self.0.count);
        *count -= 1;
        if *count == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// A listener's accept thread plus the connection threads it spawned.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    live: Arc<Mutex<Vec<Live>>>,
}

/// One connection thread and a handle on its socket, kept so stopping
/// can wake the thread.
struct Live {
    thread: JoinHandle<()>,
    socket: Arc<TcpStream>,
}

impl Acceptor {
    /// Accept on `listener`, serving each connection on its own thread
    /// with `serve`.
    pub(crate) fn start<F>(listener: TcpListener, serve: F) -> std::io::Result<Acceptor>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<Vec<Live>>> = Arc::default();
        let serve = Arc::new(serve);
        let thread = {
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match conn {
                        Ok(stream) => stream,
                        Err(_) => {
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        }
                    };
                    let Ok(socket) = stream.try_clone().map(Arc::new) else {
                        continue;
                    };
                    let serve = Arc::clone(&serve);
                    let closer = Arc::clone(&socket);
                    let thread = std::thread::spawn(move || {
                        serve(stream);
                        // The wake handle below keeps the descriptor
                        // open; end the connection for the peer now.
                        let _ = closer.shutdown(Shutdown::Both);
                    });
                    let mut live = lock_ok(&live);
                    // Reap finished connections as new ones arrive, so
                    // a long-lived server retains only live threads.
                    live.retain(|c| !c.thread.is_finished());
                    live.push(Live { thread, socket });
                }
            })
        };
        Ok(Acceptor {
            addr,
            stop,
            thread: Some(thread),
            live,
        })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True until [`Acceptor::stop`] has run.
    pub(crate) fn is_running(&self) -> bool {
        self.thread.is_some()
    }

    /// Connection threads still retained: running, or finished since
    /// the last accept reaped them.
    #[cfg(test)]
    fn retained(&self) -> usize {
        lock_ok(&self.live).len()
    }

    /// Stop accepting, wake every live connection (its reader sees the
    /// socket's read half closed) and join them all. Callers set their
    /// own stopping flag first, so a connection thread can tell this
    /// wake from a client hang-up.
    pub(crate) fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without the wake-up connection the accept thread stays
        // blocked; leave it detached rather than hang the caller.
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = thread.join();
        }
        let live = std::mem::take(&mut *lock_ok(&self.live));
        for conn in &live {
            let _ = conn.socket.shutdown(Shutdown::Read);
        }
        for conn in live {
            let _ = conn.thread.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What a connection thread waits for, all on one inbox.
pub(crate) enum Event<W> {
    /// A whole frame from the peer.
    Frame(Msg),
    /// The peer hung up, sent a torn or corrupt frame, or stalled
    /// mid-frame past the idle timeout — or the server is stopping.
    /// Every later receive reports `Closed` again.
    Closed,
    /// A completion of work this connection started.
    Work(W),
}

/// One accepted connection: the socket for writes, and the inbox its
/// reader thread and its work feed.
pub(crate) struct Conn<W> {
    /// Write half (replies, chunks, heartbeats).
    pub(crate) stream: TcpStream,
    tx: SyncSender<Event<W>>,
    rx: Receiver<Event<W>>,
    reader: Option<JoinHandle<()>>,
    closed: bool,
    /// The last stream this connection finished: a credit grant for it
    /// can cross its `Fin` on the wire and is dropped, not treated as
    /// a new request.
    finished_stream: Option<u64>,
}

impl<W: Send + 'static> Conn<W> {
    /// Apply the socket options and start the reader thread. `None`
    /// when the socket cannot be shared with a reader.
    pub(crate) fn open(
        stream: TcpStream,
        idle_timeout: Duration,
        site: &'static str,
    ) -> Option<Self> {
        crate::listen::apply_socket_opts(&stream, Some(idle_timeout), site);
        let socket = stream.try_clone().ok()?;
        let (tx, rx) = mpsc::sync_channel(INBOX_DEPTH);
        let frames = tx.clone();
        let reader = std::thread::spawn(move || read_frames(socket, frames));
        Some(Conn {
            stream,
            tx,
            rx,
            reader: Some(reader),
            closed: false,
            finished_stream: None,
        })
    }

    /// Block for the next event.
    pub(crate) fn recv(&mut self) -> Event<W> {
        if self.closed {
            return Event::Closed;
        }
        let event = self.rx.recv().unwrap_or(Event::Closed);
        self.note(event)
    }

    /// Block for the next event until `at`; `None` when `at` came first.
    pub(crate) fn recv_until(&mut self, at: Instant) -> Option<Event<W>> {
        if self.closed {
            return Some(Event::Closed);
        }
        let event = match self
            .rx
            .recv_timeout(at.saturating_duration_since(Instant::now()))
        {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => return None,
            Err(RecvTimeoutError::Disconnected) => Event::Closed,
        };
        Some(self.note(event))
    }

    /// The next event if one is already waiting.
    pub(crate) fn try_recv(&mut self) -> Option<Event<W>> {
        self.recv_until(Instant::now())
    }

    fn note(&mut self, event: Event<W>) -> Event<W> {
        if matches!(event, Event::Closed) {
            self.closed = true;
        }
        event
    }

    /// The next request, or `None` once the connection is closed.
    pub(crate) fn next_request(&mut self) -> Option<Msg> {
        loop {
            match self.recv() {
                Event::Frame(Msg::Credit { id, .. }) if Some(id) == self.finished_stream => {}
                Event::Frame(msg) => return Some(msg),
                Event::Closed => return None,
                // A late completion of work whose request already ended.
                Event::Work(_) => {}
            }
        }
    }

    /// Record that stream `id` ended on this connection.
    pub(crate) fn finish_stream(&mut self, id: u64) {
        self.finished_stream = Some(id);
    }

    /// Posts work completions into the inbox, for work that reports
    /// more than once (stream chunks); false once the connection is
    /// gone.
    pub(crate) fn work_tx(&self) -> impl Fn(W) -> bool + Send + 'static {
        let tx = self.tx.clone();
        move |work| tx.send(Event::Work(work)).is_ok()
    }

    /// Run `work` on its own thread and deliver its result into the
    /// inbox — `if_panicked` if it panics, so the connection is never
    /// left waiting for a completion that cannot come.
    pub(crate) fn spawn_work<F>(&self, work: F, if_panicked: W)
    where
        F: FnOnce() -> W + Send + 'static,
    {
        let post = self.work_tx();
        std::thread::spawn(move || {
            post(catch_unwind(AssertUnwindSafe(work)).unwrap_or(if_panicked));
        });
    }
}

impl<W> Drop for Conn<W> {
    fn drop(&mut self) {
        // Ends the reader's blocking read as well as the connection;
        // closing the inbox frees a reader blocked on a full one.
        let _ = self.stream.shutdown(Shutdown::Both);
        drop(std::mem::replace(&mut self.rx, mpsc::sync_channel(0).1));
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Reader thread: forward whole frames into the inbox until the peer
/// hangs up or sends something unreadable.
fn read_frames<W>(mut socket: TcpStream, inbox: SyncSender<Event<W>>) {
    loop {
        // Between frames a silent peer is fine: the read timeout only
        // bounds a frame that stalls once started.
        match socket.peek(&mut [0u8; 1]) {
            Ok(0) => break,
            Ok(_) => match read_msg(&mut socket) {
                Ok(msg) => {
                    if inbox.send(Event::Frame(msg)).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            },
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    let _ = inbox.send(Event::Closed);
}

/// Flight-recorder list limit: 0 on the wire means "server default".
fn flight_limit(limit: u32) -> usize {
    if limit == 0 {
        32
    } else {
        limit as usize
    }
}

/// Render a [`Msg::FlightJsonRequest`] against the process-global
/// flight recorder: one record (or `null`) in single-trace mode, a
/// JSON array in list mode.
fn flight_json(trace_id: u64, limit: u32, slow_only: bool) -> String {
    let recorder = swsimd_obs::flight::global();
    if trace_id != 0 {
        return match recorder.lookup(trace_id) {
            Some(rec) => rec.to_json(),
            None => "null".into(),
        };
    }
    let n = flight_limit(limit);
    if slow_only {
        recorder.slowlog_json(n)
    } else {
        recorder.recent_json(n)
    }
}

/// The reply to an observability request (metrics scrape, trace,
/// slowlog, flight JSON), which every server answers the same way;
/// `None` for any other frame.
pub(crate) fn observability_reply(msg: &Msg) -> Option<Msg> {
    let recorder = swsimd_obs::flight::global();
    Some(match *msg {
        Msg::MetricsRequest => Msg::MetricsText {
            text: swsimd_obs::global().prometheus_text().into_bytes(),
        },
        Msg::TraceRequest { trace_id } => Msg::FlightRecords {
            records: recorder.lookup(trace_id).into_iter().collect(),
        },
        Msg::SlowlogRequest { limit } => Msg::FlightRecords {
            records: recorder.slowlog(flight_limit(limit)),
        },
        Msg::FlightJsonRequest {
            trace_id,
            limit,
            slow_only,
        } => Msg::FlightJson {
            text: flight_json(trace_id, limit, slow_only).into_bytes(),
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut acceptor = Acceptor::start(listener, |mut s: TcpStream| {
            // Serve until the client hangs up.
            let _ = s.read(&mut [0u8; 1]);
        })
        .unwrap();
        let addr = acceptor.local_addr();
        for _ in 0..300 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.shutdown(Shutdown::Write).unwrap();
            // The server closing its end means its thread is done.
            let _ = c.read(&mut [0u8; 1]);
        }
        assert!(
            acceptor.retained() <= 4,
            "{} connection threads retained after 300 short connections",
            acceptor.retained()
        );
        acceptor.stop();
        assert_eq!(acceptor.retained(), 0);
    }

    #[test]
    fn stop_wakes_a_blocked_accept_and_idle_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (opened_tx, opened_rx) = mpsc::channel();
        let mut acceptor = Acceptor::start(listener, move |s: TcpStream| {
            let mut conn = Conn::<()>::open(s, Duration::from_secs(30), "test").unwrap();
            opened_tx.send(()).unwrap();
            while conn.next_request().is_some() {}
        })
        .unwrap();
        // An idle client that never sends or hangs up.
        let _idle = TcpStream::connect(acceptor.local_addr()).unwrap();
        opened_rx.recv().unwrap();
        let started = Instant::now();
        acceptor.stop();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn drain_wait_wakes_when_the_last_request_leaves() {
        let in_flight = Arc::new(InFlight::default());
        let worker = {
            let in_flight = Arc::clone(&in_flight);
            let (entered_tx, entered_rx) = mpsc::channel();
            let t = std::thread::spawn(move || {
                let _guard = in_flight.enter();
                entered_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
            });
            entered_rx.recv().unwrap();
            t
        };
        assert_eq!(in_flight.get(), 1);
        assert!(in_flight.wait_idle(Duration::from_secs(5)));
        assert_eq!(in_flight.get(), 0);
        worker.join().unwrap();
        let _held = in_flight.enter();
        assert!(!in_flight.wait_idle(Duration::from_millis(10)));
    }
}
