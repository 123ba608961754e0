//! `papd`: the selection daemon, and every fleet shard.
//!
//! One std-only TCP server speaks newline-delimited JSON frames
//! ([`crate::proto`]) from a single level-triggered epoll loop. The loop
//! answers what costs no computation itself: L1/L2 hits, `Ping`, `Stats`,
//! `Metrics`, `Replicate`, `Shutdown`. Cold misses, lazy fault evidence
//! and `Calibrate` go to a [`pap_parallel::Pool`] of
//! [`pap_parallel::threads`] workers, which hand replies back and wake the
//! loop through a `UnixStream` pair, so slow work never stalls another
//! connection. While a connection has a frame on the pool the loop neither
//! reads nor dispatches its next frame: replies keep request order without
//! a reorder buffer, and the pool holds at most one frame per connection.
//! The loop also stops reading a connection while its output is unflushed,
//! so a client that never reads stalls in its own send buffer. Pool workers
//! carry `pap-parallel`'s worker marker, so a cold sweep's `par_map` stays
//! sequential. Background sim refinements run on a second pool of
//! `refine_threads` workers; a full refinement queue cancels the ticket.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pap_core::{tune_machine, TunePlan};
use pap_microbench::{Backend, BenchConfig};
use pap_parallel::Pool;
use pap_sim::{MachineId, Platform};
use pap_sysio::{Epoll, Event, Interest};

use crate::proto::{
    decode_request, encode_frame, error_reply, CalibrateRequest, ErrorCode, QueryAnswer,
    QueryRequest, Reply, ReplicaDump, ReplyEnvelope, Request, MAX_FRAME_BYTES, PROTO_VERSION,
};
use crate::snapshot::Snapshot;
use crate::stats::Stats;
use crate::store::{CellKey, DefaultPolicy, TierStore};

/// How to start the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; `"127.0.0.1:0"` picks an ephemeral loopback port.
    pub addr: String,
    /// Warm-restart snapshot to load into L2. When set, no startup tuning
    /// sweep runs.
    pub snapshot: Option<PathBuf>,
    /// Machine preset to pre-tune at startup (ignored with a snapshot).
    pub machine: String,
    /// Rank count to pre-tune at startup.
    pub ranks: usize,
    /// Backend for startup tuning and inline cold-cell computation.
    pub backend: Backend,
    /// Background refinement workers (`0` disables L3 refinement).
    pub refine_threads: usize,
    /// L1 answer-cache capacity (`0` disables L1).
    pub l1_capacity: usize,
    /// Policy for queries without arrival samples.
    pub default_policy: DefaultPolicy,
    /// Whether to run the startup tuning sweep when no snapshot is given.
    pub tune_at_startup: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot: None,
            machine: "simcluster".to_string(),
            ranks: 16,
            backend: Backend::Model,
            refine_threads: 1,
            l1_capacity: 1024,
            default_policy: DefaultPolicy::Robust,
            tune_at_startup: true,
        }
    }
}

/// Poll interval of the event loop: the bound on noticing a signal that
/// did not interrupt its wait.
const POLL: Duration = Duration::from_millis(100);

/// Largest [`Request::Replicate`] page the server will return: 16 cells
/// per frame keeps a page (matrix plus fault evidence per cell) well under
/// [`MAX_FRAME_BYTES`].
pub const REPLICA_PAGE_MAX: usize = 16;

/// Build and seed the stats + store pair a daemon serves from, per the
/// config's snapshot/tuning directives. A fleet replica builds its store
/// here too, fills it over the wire, then hands it to [`Server::serve`].
pub fn build_store(cfg: &ServeConfig) -> Result<(Arc<Stats>, Arc<TierStore>), String> {
    let stats = Arc::new(Stats::new());
    let store = Arc::new(TierStore::new(
        Arc::clone(&stats),
        cfg.l1_capacity,
        cfg.default_policy,
        cfg.backend,
        cfg.refine_threads > 0,
    ));
    if let Some(path) = &cfg.snapshot {
        let snap = Snapshot::load(path)?;
        store.ingest_snapshot(&snap);
        stats.snapshot_loaded.store(true, Ordering::Relaxed);
    } else if cfg.tune_at_startup {
        let machine_id: MachineId = cfg.machine.parse()?;
        let platform = Platform::preset(machine_id, cfg.ranks);
        let bench = BenchConfig::simulation().with_backend(cfg.backend);
        let (_, records) = tune_machine(&platform, &TunePlan::default(), &bench)?;
        store.ingest_records(machine_id.name(), &records, &cfg.backend.to_string());
        stats.tuned_at_startup.store(true, Ordering::Relaxed);
    }
    Ok((stats, store))
}

/// The transport-independent request engine: decodes one frame, serves it,
/// and yields the reply. Protocol semantics (error taxonomy, stats
/// accounting, refinement scheduling, panic isolation) live here, apart
/// from the socket handling in [`Server`].
pub struct Dispatcher {
    shutdown: Arc<AtomicBool>,
    stats: Arc<Stats>,
    store: Arc<TierStore>,
    refine_pool: Option<Arc<Pool>>,
}

/// A decoded frame whose answer needs computation — a cold query, a query
/// needing lazy fault evidence, or a `Calibrate` fit — as handed back by
/// [`Dispatcher::serve_inline`]. [`Dispatcher::serve_deferred`] answers it.
pub struct Deferred {
    id: u64,
    work: Work,
    start: Instant,
}

enum Work {
    Query(QueryRequest),
    Calibrate(Box<CalibrateRequest>),
}

impl Dispatcher {
    /// Assemble a dispatcher over a seeded store.
    pub fn new(
        shutdown: Arc<AtomicBool>,
        stats: Arc<Stats>,
        store: Arc<TierStore>,
        refine_pool: Option<Arc<Pool>>,
    ) -> Dispatcher {
        Dispatcher { shutdown, stats, store, refine_pool }
    }

    /// Count and build the reply for an oversized frame (no newline within
    /// [`MAX_FRAME_BYTES`]); the connection must close after sending it —
    /// there is no way to find the next frame boundary.
    fn oversized_frame_reply(&self) -> ReplyEnvelope {
        self.error(0, ErrorCode::BadFrame, format!("frame exceeds {MAX_FRAME_BYTES} bytes"))
    }

    /// Decode and serve one frame (without its trailing newline), computing
    /// whatever it needs on the calling thread; always yields a reply, never
    /// panics out. Counts the frame and records handling latency.
    pub fn serve_frame(&self, line: &[u8]) -> ReplyEnvelope {
        self.serve_inline(line).unwrap_or_else(|work| self.serve_deferred(work))
    }

    /// Decode one frame and answer it if that costs no computation;
    /// otherwise hand the decoded work back for [`Dispatcher::serve_deferred`].
    /// Counts the frame either way, and its endpoint exactly once.
    pub fn serve_inline(&self, line: &[u8]) -> Result<ReplyEnvelope, Deferred> {
        self.stats.frame();
        let start = Instant::now();
        let step = catch_unwind(AssertUnwindSafe(|| self.step(line, start)))
            .unwrap_or_else(|_| Ok(self.internal_error()));
        if step.is_ok() {
            self.stats.record_latency(start.elapsed());
        }
        step
    }

    /// Answer work [`Dispatcher::serve_inline`] deferred; its latency is
    /// recorded from when the frame was decoded.
    pub fn serve_deferred(&self, deferred: Deferred) -> ReplyEnvelope {
        let Deferred { id, work, start } = deferred;
        let reply = catch_unwind(AssertUnwindSafe(|| match work {
            Work::Query(q) => self.answer_query(id, self.store.resolve(&q)),
            Work::Calibrate(c) => match self.store.calibrate(&c) {
                Ok((answer, tickets)) => {
                    // Same ownership contract as the query path: the store
                    // scheduled the tickets, the dispatcher's pool runs them.
                    for key in tickets {
                        self.schedule_refine(key);
                    }
                    reply(id, Reply::Calibrated(answer))
                }
                Err(msg) => self.error(id, ErrorCode::BadRequest, msg),
            },
        }))
        .unwrap_or_else(|_| self.internal_error());
        self.stats.record_latency(start.elapsed());
        reply
    }

    fn step(&self, line: &[u8], start: Instant) -> Result<ReplyEnvelope, Deferred> {
        let Ok(text) = std::str::from_utf8(line) else {
            return Ok(self.error(0, ErrorCode::BadFrame, "frame is not valid UTF-8"));
        };
        let env = match decode_request(text.trim_end_matches('\r')) {
            Ok(env) => env,
            Err(e) => return Ok(self.error(e.id, e.code, e.message)),
        };
        let id = env.id;
        Ok(match env.req {
            Request::Query(q) => {
                self.stats.endpoint_query();
                match self.store.resolve_cached(&q).transpose() {
                    Some(resolved) => self.answer_query(id, resolved),
                    None => return Err(Deferred { id, work: Work::Query(q), start }),
                }
            }
            Request::Calibrate(c) => {
                self.stats.endpoint_calibrate();
                return Err(Deferred { id, work: Work::Calibrate(Box::new(c)), start });
            }
            Request::Stats => {
                self.stats.endpoint_stats();
                reply(id, Reply::Stats(self.stats.report()))
            }
            Request::Metrics => {
                // Counted as a stats-endpoint hit: the legacy StatsReport
                // shape has no dedicated field, and adding one would break
                // its pinned wire layout.
                self.stats.endpoint_stats();
                reply(id, Reply::Metrics(self.stats.metrics_snapshot()))
            }
            Request::Ping => {
                self.stats.endpoint_ping();
                reply(id, Reply::Pong)
            }
            Request::Replicate { offset, limit } => {
                // Also a stats-endpoint hit (pinned report shape, see above).
                self.stats.endpoint_stats();
                let (total, cells) = self.store.export_cells(offset, limit.clamp(1, REPLICA_PAGE_MAX));
                reply(id, Reply::Replica(ReplicaDump { total, offset, cells }))
            }
            Request::Shutdown => {
                self.stats.endpoint_shutdown();
                self.shutdown.store(true, Ordering::SeqCst);
                reply(id, Reply::Bye)
            }
        })
    }

    fn answer_query(
        &self,
        id: u64,
        resolved: Result<(QueryAnswer, Option<CellKey>), String>,
    ) -> ReplyEnvelope {
        match resolved {
            Ok((answer, ticket)) => {
                if let Some(key) = ticket {
                    self.schedule_refine(key);
                }
                reply(id, Reply::Answer(answer))
            }
            Err(msg) => self.error(id, ErrorCode::BadRequest, msg),
        }
    }

    /// Hand a refinement ticket the store issued to the refine pool, or
    /// cancel it when there is no pool or its queue is full.
    fn schedule_refine(&self, key: CellKey) {
        let submitted = self.refine_pool.as_ref().is_some_and(|pool| {
            let store = Arc::clone(&self.store);
            let k = key.clone();
            pool.submit(move || store.refine(&k))
        });
        if !submitted {
            self.store.cancel_refine(&key);
        }
    }

    fn error(&self, id: u64, code: ErrorCode, message: impl Into<String>) -> ReplyEnvelope {
        self.stats.endpoint_error();
        error_reply(id, code, message)
    }

    fn internal_error(&self) -> ReplyEnvelope {
        self.error(0, ErrorCode::Internal, "internal error while serving request")
    }
}

fn reply(id: u64, reply: Reply) -> ReplyEnvelope {
    ReplyEnvelope { v: PROTO_VERSION, id, reply }
}

/// Wake the event loop. A full wake socket already holds a pending wake-up,
/// so a failed write loses nothing.
fn wake(waker: &UnixStream) {
    let _ = (&*waker).write(&[1]);
}

/// Wire SIGTERM/SIGINT to a server's graceful drain: installs the
/// process-wide flag handler ([`pap_sysio::install_shutdown_flag`]), and
/// the server's loop then treats a delivered signal exactly like a
/// `Shutdown` frame.
pub fn install_signal_shutdown(server: &Server) -> Result<(), String> {
    pap_sysio::install_shutdown_flag().map_err(|e| format!("install signal handler: {e}"))?;
    server.on_signal.store(true, Ordering::SeqCst);
    Ok(())
}

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Whether the loop drains on SIGTERM/SIGINT ([`install_signal_shutdown`]).
    on_signal: Arc<AtomicBool>,
    waker: Arc<UnixStream>,
    thread: std::thread::JoinHandle<()>,
    stats: Arc<Stats>,
}

impl Server {
    /// Bind, seed the L2 store (snapshot or startup tuning), and start
    /// serving.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let (stats, store) = build_store(&cfg)?;
        Server::serve(&cfg, stats, store)
    }

    /// Start serving an externally seeded store — the fleet's warm
    /// replication path: build the store, drain a peer's L2 into it, and
    /// only then expose the shard. `cfg`'s snapshot and tuning directives
    /// are not applied again.
    pub fn serve(
        cfg: &ServeConfig,
        stats: Arc<Stats>,
        store: Arc<TierStore>,
    ) -> Result<Server, String> {
        // Best effort: a server holds one fd per client.
        let _ = pap_sysio::raise_nofile_limit(WANT_NOFILE);
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        listener.set_nonblocking(true).map_err(|e| format!("nonblocking listener: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let io = |e: std::io::Error| format!("event loop setup: {e}");
        let (wake_rx, wake_tx) = UnixStream::pair().map_err(io)?;
        wake_rx.set_nonblocking(true).map_err(io)?;
        wake_tx.set_nonblocking(true).map_err(io)?;
        let epoll = Epoll::new().map_err(io)?;
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ).map_err(io)?;
        epoll.add(wake_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ).map_err(io)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let on_signal = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(wake_tx);
        let refine_pool = (cfg.refine_threads > 0)
            .then(|| Arc::new(Pool::new(cfg.refine_threads, 4 * cfg.refine_threads)));
        let dispatcher = Arc::new(Dispatcher::new(
            Arc::clone(&shutdown),
            Arc::clone(&stats),
            store,
            refine_pool.clone(),
        ));
        let event_loop = EventLoop {
            epoll,
            listener,
            wake_rx,
            dispatcher,
            on_signal: Arc::clone(&on_signal),
            offload: Offload::new(Arc::clone(&waker)),
            conns: Vec::new(),
            free: Vec::new(),
            released: Vec::new(),
            next_serial: 0,
        };
        let thread = {
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                // Once the loop has drained, this thread holds the last
                // dispatcher (and hence refine-pool) handle: drop the queued
                // refinements and wait for running ones.
                event_loop.run();
                if let Some(pool) = refine_pool.and_then(|p| Arc::try_unwrap(p).ok()) {
                    for _ in 0..pool.abort() {
                        stats.refine_dropped();
                    }
                }
            })
        };
        Ok(Server { addr, shutdown, on_signal, waker, thread, stats })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's stats block.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from outside (equivalent to a `Shutdown` frame).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(&self.waker);
    }

    /// Block until shutdown is requested (by [`Server::stop`], a signal, or
    /// a client `Shutdown` frame) and the drain completes: frames already
    /// received are answered, pending replies flushed, running refinements
    /// finished and queued ones dropped.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Read chunk size, and chunks one connection may take per wake-up before
/// the loop turns to the others (level-triggered: it is reported again).
const CHUNK: usize = 16 * 1024;
const CHUNKS_PER_WAKE: usize = 8;

/// `RLIMIT_NOFILE` the server asks for at start (best effort).
const WANT_NOFILE: u64 = 32 * 1024;

/// Epoll tokens: listener, wake socket, then connection slot `s` as
/// `s + FIRST_CONN_TOKEN`.
const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// One connection's state in the slab.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this connection from later occupants of its slot, so a
    /// reply for a connection that has since closed is dropped.
    serial: u64,
    /// Bytes read but not yet framed.
    rbuf: Vec<u8>,
    /// Encoded replies not yet (fully) written.
    wbuf: Vec<u8>,
    /// How much of `wbuf` is already written.
    wpos: usize,
    /// A frame of this connection is on the offload pool.
    busy: bool,
    /// Bye sent or frame boundary lost: serve nothing more, close once
    /// flushed.
    closing: bool,
    /// Peer sent EOF: close once everything owed is flushed.
    read_closed: bool,
    /// The interest currently registered with epoll.
    interest: Interest,
}

impl Conn {
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Read only while nothing is owed: no frame on the pool, no unflushed
    /// output.
    fn reading(&self) -> bool {
        !self.busy && !self.wants_write() && !self.read_closed && !self.closing
    }

    fn finished(&self) -> bool {
        !self.busy && !self.wants_write() && (self.closing || self.read_closed)
    }

    fn push(&mut self, reply: &ReplyEnvelope) {
        self.wbuf.extend_from_slice(encode_frame(reply).as_bytes());
    }
}

/// A reply an offload worker produced for the connection in `slot`.
struct Completion {
    slot: usize,
    serial: u64,
    frame: String,
}

/// The offload pool and the list its workers hand replies back through.
struct Offload {
    pool: Pool,
    done: Arc<Mutex<Vec<Completion>>>,
}

impl Offload {
    fn new(waker: Arc<UnixStream>) -> Offload {
        // Waking the loop only once the worker is idle again sends the next
        // frame a reply provokes to the same worker, so one connection's
        // cold frames share one thread and allocator arena. The queue needs
        // no bound: it holds at most one frame per connection.
        let pool =
            Pool::with_after_task(pap_parallel::threads(), usize::MAX, move || wake(&waker));
        Offload { pool, done: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Queue deferred work for the connection in `slot`; false if the pool
    /// refused it.
    fn submit(
        &self,
        dispatcher: &Arc<Dispatcher>,
        slot: usize,
        serial: u64,
        work: Deferred,
    ) -> bool {
        let dispatcher = Arc::clone(dispatcher);
        let done = Arc::clone(&self.done);
        self.pool.submit(move || {
            let frame = encode_frame(&dispatcher.serve_deferred(work));
            done.lock().expect("completion list").push(Completion { slot, serial, frame });
        })
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    dispatcher: Arc<Dispatcher>,
    on_signal: Arc<AtomicBool>,
    offload: Offload,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots torn down in the current batch of events: reused only after
    /// it, so a stale event never reaches a new connection.
    released: Vec<usize>,
    next_serial: u64,
}

impl EventLoop {
    /// Serve until shutdown is requested, then drain.
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let shutdown = Arc::clone(&self.dispatcher.shutdown);
        loop {
            if self.on_signal.load(Ordering::SeqCst) && pap_sysio::shutdown_requested() {
                shutdown.store(true, Ordering::SeqCst);
            }
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Err(e) = self.epoll.wait(&mut events, 64, Some(POLL)) {
                // Only a broken epoll fd fails here: drain rather than
                // serve nothing silently.
                eprintln!("papd event loop failed: {e}");
                shutdown.store(true, Ordering::SeqCst);
                break;
            }
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.complete(),
                    token => self.conn_ready((token - FIRST_CONN_TOKEN) as usize, ev),
                }
            }
            self.free.append(&mut self.released);
        }
        self.drain();
    }

    /// Accept every pending connection (level-triggered: stop on
    /// WouldBlock or any error).
    fn accept_ready(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let token = slot as u64 + FIRST_CONN_TOKEN;
            if self.epoll.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
                self.free.push(slot);
                continue; // fd table exhausted or similar; drop the connection
            }
            self.dispatcher.stats.connection();
            self.next_serial += 1;
            self.conns[slot] = Some(Conn {
                stream,
                serial: self.next_serial,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                busy: false,
                closing: false,
                read_closed: false,
                interest: Interest::READ,
            });
        }
    }

    fn conn_ready(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for a slot torn down this batch
        };
        let dead = if conn.reading() && ev.readable {
            read_ready(conn, slot, &self.dispatcher, &self.offload)
        } else {
            // Not reading: flush what is owed, unless the peer is gone and
            // nothing owed can reach it.
            ev.closed || flush(conn)
        };
        self.settle(slot, dead);
    }

    /// Deliver the offload pool's replies and resume their connections.
    fn complete(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        let done = std::mem::take(&mut *self.offload.done.lock().expect("completion list"));
        for c in done {
            let Some(conn) = self.conns.get_mut(c.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.serial != c.serial {
                continue; // the connection closed while its frame was out
            }
            conn.busy = false;
            conn.wbuf.extend_from_slice(c.frame.as_bytes());
            serve_buffered(conn, c.slot, &self.dispatcher, Some(&self.offload));
            let dead = flush(conn);
            self.settle(c.slot, dead);
        }
    }

    /// Tear the connection down, or re-register the interest its state
    /// calls for: read while nothing is owed, write while output is
    /// unflushed, neither while a frame is on the pool.
    fn settle(&mut self, slot: usize, dead: bool) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if dead || conn.finished() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.conns[slot] = None; // dropping the stream closes the fd
            self.released.push(slot);
            return;
        }
        let want = Interest { readable: conn.reading(), writable: conn.wants_write() };
        let token = slot as u64 + FIRST_CONN_TOKEN;
        if want != conn.interest && self.epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
    }

    /// The shutdown drain: requests written before the shutdown landed
    /// still complete, with (briefly) blocking writes; bytes arriving later
    /// are refused.
    fn drain(mut self) {
        // Connections still in the accept backlog carry such requests too.
        self.accept_ready();
        let mut chunk = [0u8; CHUNK];
        for conn in self.conns.iter_mut().flatten() {
            while !conn.read_closed && conn.rbuf.len() <= MAX_FRAME_BYTES {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => conn.read_closed = true,
                    Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        // Let the frames on the pool finish, then answer the rest here.
        let Offload { pool, done } = self.offload;
        pool.join();
        for c in std::mem::take(&mut *done.lock().expect("completion list")) {
            if let Some(conn) = self.conns[c.slot].as_mut().filter(|conn| conn.serial == c.serial) {
                conn.busy = false;
                conn.wbuf.extend_from_slice(c.frame.as_bytes());
            }
        }
        for (slot, conn) in self.conns.iter_mut().enumerate() {
            let Some(conn) = conn else { continue };
            serve_buffered(conn, slot, &self.dispatcher, None);
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = conn.stream.write_all(&conn.wbuf[conn.wpos..]);
        }
    }
}

/// Read, serve and flush chunk by chunk while the connection is reading.
/// Returns true when the connection is dead (hard error).
fn read_ready(
    conn: &mut Conn,
    slot: usize,
    dispatcher: &Arc<Dispatcher>,
    offload: &Offload,
) -> bool {
    let mut chunk = [0u8; CHUNK];
    for _ in 0..CHUNKS_PER_WAKE {
        if !conn.reading() {
            break;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.read_closed = true,
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                serve_buffered(conn, slot, dispatcher, Some(offload));
                if flush(conn) {
                    return true;
                }
                if n < CHUNK {
                    break; // drained: skip the read that would block
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

/// Serve the complete frames in `rbuf` in order until one goes to the
/// offload pool or the connection starts closing. Without an offload pool
/// (the shutdown drain) every frame is answered on this thread.
fn serve_buffered(
    conn: &mut Conn,
    slot: usize,
    dispatcher: &Arc<Dispatcher>,
    offload: Option<&Offload>,
) {
    let mut start = 0;
    while !conn.busy && !conn.closing {
        let Some(len) = conn.rbuf[start..].iter().position(|&b| b == b'\n') else {
            if conn.rbuf.len() - start > MAX_FRAME_BYTES {
                // No newline within the frame budget: there is no way to
                // find the next frame boundary. Reply, then close.
                conn.push(&dispatcher.oversized_frame_reply());
                conn.closing = true;
            }
            break;
        };
        let line = &conn.rbuf[start..start + len];
        start += len + 1;
        let reply = match offload {
            Some(_) => dispatcher.serve_inline(line),
            None => Ok(dispatcher.serve_frame(line)),
        };
        match reply {
            Ok(reply) => {
                conn.closing = matches!(reply.reply, Reply::Bye);
                conn.push(&reply);
            }
            Err(work) => {
                let queued = offload.is_some_and(|o| o.submit(dispatcher, slot, conn.serial, work));
                // The pool refuses work only once it is shutting down.
                conn.busy = queued;
                conn.closing = !queued;
            }
        }
    }
    conn.rbuf.drain(..start);
}

/// Write as much of `wbuf` as the socket accepts. Returns true when the
/// connection is dead.
fn flush(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return true,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    false
}
