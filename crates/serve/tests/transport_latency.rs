//! Transport latency and listener lifecycle over loopback: framed and
//! line round trips carry no timer waits (no Nagle/delayed-ACK stall,
//! no accept poll), shutdown wakes a blocked accept loop promptly, and
//! the wake connection never reaches the admission funnel.
//!
//! The latency bounds are wide (a few ms against round trips that are
//! tens of µs on loopback) so they hold on a loaded 2-vCPU machine,
//! yet sit far below the ~40–90 ms a Nagle/delayed-ACK or accept-poll
//! stall costs.

// Round-trip timing reads the wall clock; exempt from the workspace
// determinism lint (no simulated result depends on it).
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dream_baselines::FcfsScheduler;
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{
    listen_tcp, listen_unix, ManualClock, ServeConfig, ServeEngine, ServeHandle, SessionReport,
    SocketServer, SourceStats, WireClient, PROTOCOL_VERSION,
};
use dream_sim::{LiveError, SimTime};

/// Median bound for one sequential round trip.
const RTT_MEDIAN_BOUND: Duration = Duration::from_millis(5);

/// Bound for `SocketServer::shutdown` to return.
const SHUTDOWN_BOUND: Duration = Duration::from_millis(500);

type Engine = JoinHandle<Result<SessionReport, LiveError>>;

fn spawn_engine(seed: u64) -> (Engine, ServeHandle) {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = seed;
    config.clock = Arc::new(ManualClock::new());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    // The transport is under test, not the scheduler: FCFS keeps the
    // drain of a thousand-request batch cheap.
    let (engine, handle) = ServeEngine::new(config, Box::new(FcfsScheduler::new())).unwrap();
    (std::thread::spawn(move || engine.run()), handle)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Waits until the session has recorded `n` disconnects in total.
fn wait_for_disconnects(handle: &ServeHandle, n: u64) -> Vec<SourceStats> {
    let mut rx = handle.snapshots();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(snap) = rx.wait_for_update(Duration::from_millis(50)) {
            if snap.sources.iter().map(|s| s.disconnects).sum::<u64>() >= n {
                return snap.sources.to_vec();
            }
        }
        assert!(Instant::now() < deadline, "{n} disconnects never recorded");
    }
}

fn drain(engine: Engine, handle: &ServeHandle) -> SessionReport {
    handle.drain();
    engine.join().unwrap().unwrap()
}

fn assert_funnel_identity(report: &SessionReport) {
    for source in &report.sources {
        assert_eq!(
            source.submitted,
            source.funnel_total(),
            "funnel identity must hold for {}",
            source.label
        );
    }
}

/// Shuts `server` down on a helper thread, failing (instead of hanging)
/// when that takes [`SHUTDOWN_BOUND`] or longer.
fn assert_prompt_shutdown(server: SocketServer, what: &str) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    if finished.recv_timeout(SHUTDOWN_BOUND).is_err() {
        panic!("{what} shutdown took longer than {SHUTDOWN_BOUND:?}");
    }
}

fn socket_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dream-serve-transport-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("serve.sock")
}

#[test]
fn framed_and_line_round_trips_carry_no_timer_waits() {
    let (engine, handle) = spawn_engine(21);
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();

    let mut client = WireClient::connect_tcp(addr).unwrap();
    let pings: Vec<Duration> = (0..200)
        .map(|_| {
            let (result, rtt) = timed(|| client.ping());
            result.unwrap();
            rtt
        })
        .collect();
    let submits: Vec<Duration> = (0..200u64)
        .map(|i| {
            let at = SimTime::from_ns(i * 100_000);
            let (result, rtt) = timed(|| client.submit_at(PipelineId(0), NodeId(0), at));
            result.unwrap();
            rtt
        })
        .collect();
    let (ping_p50, submit_p50) = (median(pings), median(submits));
    assert!(
        ping_p50 < RTT_MEDIAN_BOUND,
        "framed ping median {ping_p50:?}"
    );
    assert!(
        submit_p50 < RTT_MEDIAN_BOUND,
        "framed submit median {submit_p50:?}"
    );

    // A pipelined batch goes out in a few writes and its replies come
    // back coalesced: far below a per-frame stall of any size.
    let batch: Vec<_> = (0..1000u64)
        .map(|i| {
            let at = SimTime::from_ns(20_000_000 + i * 10_000);
            (PipelineId(1), NodeId(0), Some(at))
        })
        .collect();
    let (results, batch_wall) = timed(|| client.submit_batch(&batch));
    let results = results.unwrap();
    assert_eq!(results.len(), batch.len());
    assert!(results.iter().all(Result::is_ok), "batch refused requests");
    assert!(
        batch_wall < Duration::from_millis(500),
        "1000-request batch took {batch_wall:?}"
    );

    // v0 lines: each reply line is one write.
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    let lines: Vec<Duration> = (0..50)
        .map(|_| {
            let (_, rtt) = timed(|| {
                writer.write_all(b"ping\n").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
            });
            assert_eq!(line, "ok\n");
            rtt
        })
        .collect();
    let line_p50 = median(lines);
    assert!(
        line_p50 < RTT_MEDIAN_BOUND,
        "v0 ping line median {line_p50:?}"
    );

    drop((client, reader, writer));
    wait_for_disconnects(&handle, 2);
    let report = drain(engine, &handle);
    socket_server.shutdown();
    assert_funnel_identity(&report);
    let submitted: u64 = report.sources.iter().map(|s| s.submitted).sum();
    assert_eq!(submitted, 1200, "200 stamped + 1000 batched submissions");
}

#[test]
fn connect_right_after_listen_is_served_without_an_accept_poll() {
    let (engine, handle) = spawn_engine(22);
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let mut handshakes = Vec::new();
    let mut clients = Vec::new();
    for round in 0..5 {
        // After the first round the accept loop has gone back to wait;
        // a poll-based loop would be mid-sleep by now.
        if round > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (client, rtt) = timed(|| WireClient::connect_tcp(addr).unwrap());
        assert_eq!(client.version(), PROTOCOL_VERSION);
        handshakes.push(rtt);
        clients.push(client);
    }
    let p50 = median(handshakes.clone());
    assert!(
        p50 < Duration::from_millis(20),
        "connect + v2 handshake took {handshakes:?}"
    );
    for client in &mut clients {
        client.ping().unwrap();
    }
    drop(clients);
    wait_for_disconnects(&handle, 5);
    socket_server.shutdown();
    let report = drain(engine, &handle);
    assert_funnel_identity(&report);
}

#[test]
fn shutdown_wakes_the_accept_loop_promptly() {
    let (engine, handle) = spawn_engine(23);
    let path = socket_path("shutdown");

    // Idle listeners.
    let (_, tcp) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    assert_prompt_shutdown(tcp, "idle TCP");
    let unix = listen_unix(&handle, &path).unwrap();
    assert_prompt_shutdown(unix, "idle Unix");

    // Listeners with an open, idle connection (accepted, never spoken).
    let (addr, tcp) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let tcp_peer = TcpStream::connect(addr).unwrap();
    let unix = listen_unix(&handle, &path).unwrap();
    let unix_peer = UnixStream::connect(&path).unwrap();
    // Both connections are accepted once their sources exist.
    let mut rx = handle.snapshots();
    let deadline = Instant::now() + Duration::from_secs(30);
    while rx
        .wait_for_update(Duration::from_millis(50))
        .is_none_or(|s| s.sources.len() < 2)
    {
        assert!(Instant::now() < deadline, "connections never accepted");
    }
    assert_prompt_shutdown(tcp, "busy TCP");
    assert_prompt_shutdown(unix, "busy Unix");

    // A dropped server stops too (Drop runs the same wake).
    let (_, dropped) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let (_, took) = timed(|| drop(dropped));
    assert!(took < SHUTDOWN_BOUND, "drop took {took:?}");

    drop((tcp_peer, unix_peer));
    let before = wait_for_disconnects(&handle, 2);
    let report = drain(engine, &handle);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(path.parent().unwrap());

    // The five wake connections registered nothing: the only sources
    // are the two real peers, each disconnected exactly once.
    let labels = |sources: &[SourceStats]| -> Vec<(String, u64)> {
        sources
            .iter()
            .map(|s| (s.label.clone(), s.disconnects))
            .collect()
    };
    assert_eq!(labels(&report.sources), labels(&before));
    assert_eq!(report.sources.len(), 2, "{:?}", labels(&report.sources));
    assert!(report.sources.iter().all(|s| s.disconnects == 1));
    assert_funnel_identity(&report);
}
