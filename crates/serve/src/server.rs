//! Socket ingress: TCP and Unix-domain listeners that translate the
//! [wire protocols](crate::wire) into ingress submissions.
//!
//! Each accepted connection registers its own ingress source (so the
//! admission funnel is attributable per peer) and is served by a thread
//! that *sniffs* the first byte to pick a protocol face:
//!
//! * [`MAGIC_SENTINEL`](crate::wire::framed::MAGIC_SENTINEL) (`0xD7`)
//!   opens the v1 framed handshake — typed requests, one reply frame
//!   per request frame;
//! * anything else falls back to the v0 line protocol; the sniff only
//!   peeks, so old peers' bytes reach the line reader unmodified.
//!
//! The transport adds no timer waits: accepted TCP streams set
//! `TCP_NODELAY`, both faces buffer their reads and writes and flush
//! before any read that could block (so a pipelined batch is answered
//! in one write), and the accept loop blocks in `accept()` until
//! [`SocketServer::shutdown`] (or drop) dials in to wake it. Both faces
//! preserve the funnel identity `submitted == admitted + shed +
//! rejected_* + backlog`: every malformed line or frame — including a
//! truncated final line at peer disconnect — is accounted as exactly
//! one `rejected_invalid`.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dream_models::{CascadeProbability, Scenario};

use crate::engine::ServeHandle;
use crate::ingress::{ChannelClient, SubmitError};
use crate::wire::framed::{
    self, is_poll_timeout, put_frame, read_exact_with, read_frame_with, write_hello, ExactRead,
    FrameRead, CLIENT_MAGIC, MAGIC_SENTINEL, SERVER_MAGIC,
};
use crate::wire::{
    de::DecodeError, parse_line, parse_scenario_kind, CellOutcome, CellSpec, ErrorCode, Reply,
    Request, WireCommand, WireError, WireSnapshot, MAX_LINE_BYTES, PROTOCOL_VERSION,
};

const ACCEPT_POLL: Duration = Duration::from_millis(50);
const READ_POLL: Duration = Duration::from_millis(100);

/// Transient `accept()` failures (EMFILE, ECONNABORTED, EINTR, …) are
/// retried with exponential backoff; only this many *consecutive*
/// failures tear the listener down. Any successful accept resets the
/// count.
const ACCEPT_MAX_CONSECUTIVE_FAILURES: u32 = 16;

/// Backoff after the `n`-th consecutive accept failure: doubles from
/// [`ACCEPT_POLL`], capped at ~1.6 s, so a transient EMFILE storm is
/// ridden out without spinning and without giving up the listener.
fn accept_backoff(consecutive_failures: u32) -> Duration {
    ACCEPT_POLL * 2u32.pow(consecutive_failures.min(5))
}

/// Executes wire-shipped experiment-grid cells on behalf of a
/// [`Request::RunCells`] batch. Implemented by `dream-bench`'s grid
/// runner; servers without one answer `RunCells` with
/// [`ErrorCode::Unsupported`].
pub trait CellRunner: Send + Sync {
    /// Runs every cell and returns their outcomes in the same order.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the batch cannot run (unknown
    /// scenario/preset name, invalid parameters, …).
    fn run_cells(
        &self,
        cells: &[CellSpec],
        record_traces: bool,
    ) -> Result<Vec<CellOutcome>, String>;
}

/// Where [`SocketServer`] dials to wake its blocked accept loop.
enum WakeAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

/// A running socket listener; dropping it stops the accept loop (open
/// connections drain on their own once the peer closes or the session
/// ends).
pub struct SocketServer {
    stop: Arc<AtomicBool>,
    wake: WakeAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// Stops accepting new connections and joins the accept loop.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the loop blocked in accept(); it sees `stop` and drops
        // this connection unserved.
        let woke = match &self.wake {
            WakeAddr::Tcp(addr) => TcpStream::connect(addr).is_ok(),
            WakeAddr::Unix(path) => UnixStream::connect(path).is_ok(),
        };
        // A loop nothing can reach (its socket file was removed) stays
        // parked in accept() rather than hanging the caller.
        if woke || thread.is_finished() {
            let _ = thread.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// Starts a TCP listener feeding `handle`. Binds `addr` (use port 0 for
/// an ephemeral port) and returns the bound address plus the server
/// guard.
///
/// # Errors
///
/// Propagates bind errors.
pub fn listen_tcp(
    handle: &ServeHandle,
    addr: impl ToSocketAddrs,
) -> std::io::Result<(SocketAddr, SocketServer)> {
    listen_tcp_with_runner(handle, addr, None)
}

/// [`listen_tcp`] with a [`CellRunner`] so the node can execute
/// wire-shipped experiment-grid cells (a *worker* node).
///
/// # Errors
///
/// Propagates bind errors.
pub fn listen_tcp_with_runner(
    handle: &ServeHandle,
    addr: impl ToSocketAddrs,
    runner: Option<Arc<dyn CellRunner>>,
) -> std::io::Result<(SocketAddr, SocketServer)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    // A wildcard bind is reachable on loopback of the same family.
    let wake: SocketAddr = match local.ip() {
        ip if !ip.is_unspecified() => local,
        IpAddr::V4(_) => (Ipv4Addr::LOCALHOST, local.port()).into(),
        IpAddr::V6(_) => (Ipv6Addr::LOCALHOST, local.port()).into(),
    };
    let server = spawn_accept_loop(handle, runner, WakeAddr::Tcp(wake), move || {
        let (stream, peer) = listener.accept()?;
        Ok((stream, format!("tcp:{peer}")))
    });
    Ok((local, server))
}

/// Starts a Unix-domain-socket listener feeding `handle` at `path`
/// (removed first if it exists).
///
/// # Errors
///
/// Propagates bind errors.
pub fn listen_unix(handle: &ServeHandle, path: impl AsRef<Path>) -> std::io::Result<SocketServer> {
    listen_unix_with_runner(handle, path, None)
}

/// [`listen_unix`] with a [`CellRunner`] so the node can execute
/// wire-shipped experiment-grid cells (a *worker* node).
///
/// # Errors
///
/// Propagates bind errors.
pub fn listen_unix_with_runner(
    handle: &ServeHandle,
    path: impl AsRef<Path>,
    runner: Option<Arc<dyn CellRunner>>,
) -> std::io::Result<SocketServer> {
    let path = path.as_ref();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let label_base = path.display().to_string();
    let wake = WakeAddr::Unix(path.to_path_buf());
    let mut conn = 0usize;
    Ok(spawn_accept_loop(handle, runner, wake, move || {
        let (stream, _) = listener.accept()?;
        conn += 1;
        Ok((stream, format!("unix:{label_base}#{conn}")))
    }))
}

/// Runs the blocking accept loop shared by both listener kinds on its
/// own thread: `accept` blocks for the next connection and labels it,
/// and each connection is served on a thread of its own.
fn spawn_accept_loop<T: Transport>(
    handle: &ServeHandle,
    runner: Option<Arc<dyn CellRunner>>,
    wake: WakeAddr,
    mut accept: impl FnMut() -> io::Result<(T, String)> + Send + 'static,
) -> SocketServer {
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let handle = handle.clone();
    let accept_thread = std::thread::spawn(move || {
        let mut failures = 0u32;
        loop {
            let accepted = accept();
            // Shutdown's wake connection (and anything racing it) is
            // dropped here, before it could register an ingress source.
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((transport, label)) => {
                    failures = 0;
                    let handle = handle.clone();
                    let stop = Arc::clone(&accept_stop);
                    let runner = runner.clone();
                    std::thread::spawn(move || {
                        serve_connection(transport, &handle, label, &stop, runner);
                    });
                }
                Err(_) => {
                    failures += 1;
                    if failures >= ACCEPT_MAX_CONSECUTIVE_FAILURES {
                        break;
                    }
                    std::thread::sleep(accept_backoff(failures));
                }
            }
        }
    });
    SocketServer {
        stop,
        wake,
        accept_thread: Some(accept_thread),
    }
}

/// The two stream flavors, unified just enough for one connection loop:
/// `open` arms the [`READ_POLL`] timeout and splits the stream.
trait Transport: Send + 'static {
    fn open(self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
}

impl Transport for TcpStream {
    fn open(self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        // Replies are coalesced by the writer's buffer, never by Nagle.
        self.set_nodelay(true)?;
        self.set_read_timeout(Some(READ_POLL))?;
        Ok((Box::new(self.try_clone()?), Box::new(self)))
    }
}

impl Transport for UnixStream {
    fn open(self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        self.set_read_timeout(Some(READ_POLL))?;
        Ok((Box::new(self.try_clone()?), Box::new(self)))
    }
}

type ConnReader = BufReader<Box<dyn Read + Send>>;
type ConnWriter = BufWriter<Box<dyn Write + Send>>;

/// The coalescing rule both faces follow: replies stay buffered while
/// more of the peer's requests are already buffered, and are flushed
/// before any read that could block.
fn flush_before_blocking_read(reader: &ConnReader, writer: &mut ConnWriter) -> io::Result<()> {
    if reader.buffer().is_empty() {
        writer.flush()?;
    }
    Ok(())
}

/// Peeks at the classifying first byte without consuming it,
/// tolerating read-timeout polls. `None` when the peer closed without
/// sending anything or the server is stopping.
fn sniff(reader: &mut ConnReader, stop: &AtomicBool) -> io::Result<Option<u8>> {
    loop {
        match reader.fill_buf() {
            Ok(buf) => return Ok(buf.first().copied()),
            Err(e) if is_poll_timeout(&e) && !stop.load(Ordering::SeqCst) => {}
            Err(e) if is_poll_timeout(&e) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
}

fn serve_connection<T: Transport>(
    transport: T,
    handle: &ServeHandle,
    label: String,
    stop: &AtomicBool,
    runner: Option<Arc<dyn CellRunner>>,
) {
    let Ok((reader, writer)) = transport.open() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(writer);
    let client = handle.client(label);
    // Past this point every exit records exactly one disconnect against
    // the connection's source.
    match sniff(&mut reader, stop) {
        Ok(Some(MAGIC_SENTINEL)) => {
            reader.consume(1);
            serve_framed(&mut reader, &mut writer, handle, &client, stop, runner);
        }
        Ok(Some(_)) => serve_lines(&mut reader, &mut writer, handle, &client, stop),
        Ok(None) | Err(_) => {}
    }
    // A face may exit with its last reply still buffered (the error it
    // sends before hanging up included).
    let _ = writer.flush();
    client.ingress.record_disconnect(client.source);
}

/// The v0 line-protocol loop. Replies go into the buffered writer and
/// leave at the next flush; each reply line is one write.
fn serve_lines(
    reader: &mut ConnReader,
    writer: &mut ConnWriter,
    handle: &ServeHandle,
    client: &ChannelClient,
    stop: &AtomicBool,
) {
    let mut line = String::new();
    loop {
        if stop.load(Ordering::SeqCst) || flush_before_blocking_read(reader, writer).is_err() {
            break;
        }
        // `read_line` appends any bytes it consumed *before* a timeout
        // fires, so the buffer must survive timeout retries — clearing it
        // there would silently drop the first fragment of any command
        // whose bytes straddle a read-timeout window.
        let eof = match reader.read_line(&mut line) {
            Ok(0) => true,
            // A line is complete only at its `\n`; Ok without one means
            // the stream ended mid-line — a truncated tail.
            Ok(_) => !line.ends_with('\n'),
            Err(e) if is_poll_timeout(&e) => {
                // A peer trickling a terminator-free line through timeout
                // windows must not balloon the buffer: over-length kills
                // the connection (checked below too, for one-read blasts).
                if line.len() > MAX_LINE_BYTES {
                    client.ingress.record_wire_invalid(client.source);
                    let _ = writeln!(writer, "err line too long");
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Non-UTF-8 bytes: the offending line was consumed off the
                // stream, so reject it and keep serving the connection.
                client.ingress.record_wire_invalid(client.source);
                if writeln!(writer, "err invalid utf-8").is_err() {
                    break;
                }
                line.clear();
                continue;
            }
            Err(_) => {
                // Hard transport error with residue buffered: those bytes
                // were submitted by the peer but will never execute, so
                // they must still enter the funnel.
                if !line.is_empty() {
                    client.ingress.record_wire_invalid(client.source);
                }
                break;
            }
        };
        if line.len() > MAX_LINE_BYTES {
            client.ingress.record_wire_invalid(client.source);
            let _ = writeln!(writer, "err line too long");
            break;
        }
        if eof {
            // A final partial line (no terminator before EOF) is a
            // truncated command: never execute it — the peer cannot know
            // whether its tail arrived — but account it, so the funnel
            // identity holds for truncated-tail peers too.
            if !line
                .trim_matches(|c: char| c.is_whitespace() || c == '\0')
                .is_empty()
            {
                client.ingress.record_wire_invalid(client.source);
                let _ = writeln!(writer, "err {}", WireError::TruncatedLine);
            }
            break;
        }
        let reply: Option<String> = match parse_line(&line) {
            Ok(WireCommand::Empty) => None,
            Ok(WireCommand::Ping) => Some("ok".into()),
            Ok(WireCommand::Drain) => {
                handle.drain();
                Some("ok draining".into())
            }
            Ok(WireCommand::Swap(scenario)) => {
                let name = scenario.name();
                handle.swap(scenario);
                Some(format!("ok swapping to {name}"))
            }
            Ok(WireCommand::Fault { acc, kind, at }) => {
                match at {
                    Some(at) => handle.fault_at(acc, kind, at),
                    None => handle.fault(acc, kind),
                }
                Some("ok fault ordered".into())
            }
            Ok(WireCommand::Request { pipeline, node, at }) => {
                // Requests are fire-and-forget; only failures answer.
                let result = match at {
                    Some(at) => client.submit_at(pipeline, node, at),
                    None => client.submit(pipeline, node),
                };
                match result {
                    Ok(()) => None,
                    Err(SubmitError::Full) => Some("err queue full".into()),
                    Err(SubmitError::Closed) => Some("err session closed".into()),
                }
            }
            Err(reason) => {
                // A parse failure enters the funnel as exactly one
                // `rejected_invalid` (with its matching `submitted`).
                client.ingress.record_wire_invalid(client.source);
                Some(format!("err {reason}"))
            }
        };
        if let Some(reply) = reply {
            if writeln!(writer, "{reply}").is_err() {
                break;
            }
        }
        line.clear();
    }
}

/// The v1 framed-protocol loop: handshake, then one reply frame per
/// request frame, in order (pipelining-safe). Replies to a pipelined
/// batch accumulate in the writer and leave together.
fn serve_framed(
    reader: &mut ConnReader,
    writer: &mut ConnWriter,
    handle: &ServeHandle,
    client: &ChannelClient,
    stop: &AtomicBool,
    runner: Option<Arc<dyn CellRunner>>,
) {
    // Finish the client hello (the sentinel byte is already consumed),
    // answer with ours, and negotiate.
    let mut rest = [0u8; 5];
    let mut keep_going = || !stop.load(Ordering::SeqCst);
    match read_exact_with(reader, &mut rest, false, &mut keep_going) {
        Ok(ExactRead::Done) => {}
        _ => {
            // A lone sentinel byte with no hello behind it is a malformed
            // opener from an otherwise-unknown peer.
            client.ingress.record_wire_invalid(client.source);
            return;
        }
    }
    if rest[..3] != CLIENT_MAGIC[1..] {
        client.ingress.record_wire_invalid(client.source);
        return;
    }
    let theirs = u16::from_le_bytes([rest[3], rest[4]]);
    if write_hello(writer, SERVER_MAGIC, PROTOCOL_VERSION).is_err() {
        return;
    }
    // Replies are shaped for the negotiated generation: a v1 peer gets
    // byte-exact v1 frames, a v2 peer the extended snapshot.
    let version = match framed::negotiate(PROTOCOL_VERSION, theirs) {
        Ok(version) => version,
        Err(_) => {
            // The peer sees our version in the hello and draws the same
            // conclusion; nothing more to say.
            return;
        }
    };
    let mut snapshots = handle.snapshots();
    loop {
        if flush_before_blocking_read(reader, writer).is_err() {
            break;
        }
        let payload = match read_frame_with(reader, &mut keep_going) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof | FrameRead::Stopped) => break,
            Err(e) => {
                // Framing violations (oversize/zero frames, truncation
                // mid-frame) are malformed input from the peer: account
                // one rejected_invalid, try to say why, and hang up.
                if matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ) {
                    client.ingress.record_wire_invalid(client.source);
                    let reply = Reply::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    };
                    let _ = put_frame(writer, &reply.encode_versioned(version));
                }
                break;
            }
        };
        let reply = match Request::decode(&payload) {
            Ok(request) => execute(request, handle, client, &mut snapshots, runner.as_deref()),
            Err(DecodeError::Fault(err)) => {
                // Structurally fine, semantically degenerate fault
                // parameters: same funnel treatment as the line parser.
                client.ingress.record_wire_invalid(client.source);
                Reply::Error {
                    code: ErrorCode::Invalid,
                    message: err.to_string(),
                }
            }
            Err(err) => {
                client.ingress.record_wire_invalid(client.source);
                Reply::Error {
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                }
            }
        };
        if put_frame(writer, &reply.encode_versioned(version)).is_err() {
            break;
        }
    }
}

/// Executes one decoded v1 request against the engine.
fn execute(
    request: Request,
    handle: &ServeHandle,
    client: &ChannelClient,
    snapshots: &mut crate::watch::WatchReceiver<crate::engine::MetricsSnapshot>,
    runner: Option<&dyn CellRunner>,
) -> Reply {
    match request {
        Request::Ping => Reply::Ok,
        Request::Submit { pipeline, node, at } => {
            let result = match at {
                Some(at) => client.submit_at(pipeline, node, at),
                None => client.submit(pipeline, node),
            };
            match result {
                Ok(()) => Reply::Ok,
                Err(SubmitError::Full) => Reply::Error {
                    code: ErrorCode::Full,
                    message: "queue full".into(),
                },
                Err(SubmitError::Closed) => Reply::Error {
                    code: ErrorCode::Closed,
                    message: "session closed".into(),
                },
            }
        }
        Request::Swap { scenario, cascade } => {
            let Some(kind) = parse_scenario_kind(&scenario) else {
                client.ingress.record_wire_invalid(client.source);
                return Reply::Error {
                    code: ErrorCode::Invalid,
                    message: WireError::UnknownScenario(scenario).to_string(),
                };
            };
            let cascade = match CascadeProbability::new(cascade) {
                Ok(c) => c,
                Err(e) => {
                    client.ingress.record_wire_invalid(client.source);
                    return Reply::Error {
                        code: ErrorCode::Invalid,
                        message: WireError::InvalidCascade(e.to_string()).to_string(),
                    };
                }
            };
            handle.swap(Scenario::new(kind, cascade));
            Reply::Ok
        }
        Request::Fault { acc, kind, at } => {
            // Degenerate parameters were already rejected at decode time.
            match at {
                Some(at) => handle.fault_at(acc, kind, at),
                None => handle.fault(acc, kind),
            }
            Reply::Ok
        }
        Request::Drain => {
            handle.drain();
            Reply::Ok
        }
        Request::Snapshot => match snapshots.latest() {
            Some(snap) => Reply::Snapshot(WireSnapshot {
                tick: snap.tick,
                now_ns: snap.now.as_ns(),
                frontier_ns: snap.frontier.as_ns(),
                phase: snap.phase as u64,
                draining: snap.draining,
                ingress_backlog: snap.ingress_backlog as u64,
                event_backlog: snap.event_backlog as u64,
                admitted: snap.admitted,
                shed: snap.shed,
                rejected: snap.rejected,
                fingerprint: snap.metrics.fingerprint(),
                faults_injected: snap.metrics.faults_injected,
                fault_requeues: snap.metrics.fault_requeues,
                deadline_miss_under_faults: snap.metrics.deadline_miss_under_faults,
                sojourn_hist: snap.sojourn_hist.sparse(),
            }),
            None => Reply::Error {
                code: ErrorCode::Unavailable,
                message: "no snapshot published yet".into(),
            },
        },
        Request::RunCells {
            record_traces,
            cells,
        } => match runner {
            None => Reply::Error {
                code: ErrorCode::Unsupported,
                message: "this node has no cell runner".into(),
            },
            Some(runner) => match runner.run_cells(&cells, record_traces) {
                Ok(outcomes) => Reply::CellsDone { outcomes },
                Err(message) => Reply::Error {
                    code: ErrorCode::Invalid,
                    message,
                },
            },
        },
    }
}
