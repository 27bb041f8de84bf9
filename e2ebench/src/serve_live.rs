//! `serve_live`: live serving over loopback TCP.
//!
//! One in-process `ServeEngine` (VR_Gaming, hot-swapped to AR_Social
//! mid-run, DREAM-Full) on an accelerated `WallClock`, reached by two
//! peers. Peer 1 speaks the framed protocol (v2) through the shipped
//! `WireClient`: stamped `Submit`s on the scenario's root-pipeline
//! schedule, sent open loop (every request that is due goes out in one
//! pipelined `submit_batch`), with a `Snapshot` request at a fixed wall
//! cadence. Peer 2 speaks v0 lines: fire-and-forget stamped `r` lines for
//! one pipeline plus `ping`, `swap` and `fault` stall/slow commands. The
//! clients set no `TCP_NODELAY` and coalesce nothing by hand: the
//! framed round trip is measured as shipped.
//!
//! A rate ladder sets the clock scale to nominal × {4, 16, 64}; the
//! simulated load stays nominal, only wall time shrinks. ×16 is the
//! reference rung.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dream_core::{DreamConfig, DreamScheduler, UxCostReport};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{
    listen_tcp, MetricsSnapshot, Reply, Request, ServeClock as _, ServeConfig, ServeEngine,
    ServeHandle, SessionReport, SocketServer, WallClock, WatchReceiver, WireClient,
    PROTOCOL_VERSION,
};
use dream_sim::{DeterministicCoin, LiveSessionBuilder, Scheduler, SimTime};

use crate::layers::{CallStats, Timed};
use crate::stats::{median, quantile, ratio};
use crate::{spans, Args, Outcome};

const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;
const FIRST: ScenarioKind = ScenarioKind::VrGaming;
const SECOND: ScenarioKind = ScenarioKind::ArSocial;
/// Clock scales of the rate ladder, and the reference rung.
const SCALES: [f64; 3] = [4.0, 16.0, 64.0];
const REFERENCE: f64 = 16.0;
/// Latency limit on `reply_p99_ms` for `max_rate_rps`: about 1/8 of a
/// 60 fps frame budget.
const P99_LIMIT_MS: f64 = 2.0;
/// A rung keeps up when its ingress empties within this long after the
/// last request was sent (no growing backlog).
const CATCH_UP_LIMIT_MS: f64 = 20.0;
/// Wall period of peer 1's `Snapshot` and peer 2's `ping`.
const CONTROL_PERIOD_S: f64 = 0.25;
/// Virtual length of peer 2's stall and slowdown fault windows.
const FAULT_WINDOW_NS: u64 = 20_000_000;
/// Per-tick admission budget (1 ms ticks): 16k req/s, about twice the
/// top rung. Without a budget one late burst is admitted into a single
/// instant and the engine's per-decision cost grows with the ready queue.
const MAX_ADMISSIONS_PER_TICK: usize = 16;
/// Ingress capacity: deep enough that an overloaded rung shows a growing
/// backlog (and late, clamped stamps) instead of shed requests.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Pause between starting a listener and dialing it.
pub const ACCEPT_SETTLE: Duration = Duration::from_millis(2);
/// Extra set-ups (engine, bind, connect, torn down unused) so the
/// set-up median has enough samples.
const EXTRA_SETUPS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Submit { pipeline: usize, phase: usize },
    Snapshot,
    Ping,
    Swap,
    Stall,
    Slow,
}

/// One scheduled action; `stamp` is its virtual due time (ns since the
/// session clock started).
#[derive(Clone, Copy, Debug)]
struct Item {
    stamp: u64,
    kind: Kind,
}

fn scenario(kind: ScenarioKind) -> Scenario {
    Scenario::new(kind, CascadeProbability::default_paper())
}

/// Nominal root-frame rate of a scenario (requests per simulated second).
fn nominal_rps(kind: ScenarioKind) -> f64 {
    scenario(kind)
        .pipelines()
        .iter()
        .flat_map(|p| p.roots().map(|(_, n)| n.rate.as_fps()))
        .sum()
}

/// The two peers' schedules for one rung: `start` is the virtual instant
/// traffic begins, `wall_s` the rung's traffic length in wall seconds.
/// Frames of each scenario's last pipeline go to peer 2 as `r` lines.
fn schedule(seed: u64, scale: f64, start: u64, wall_s: f64) -> (Vec<Item>, Vec<Item>) {
    let span = (wall_s * scale * 1e9) as u64;
    let swap_at = start + span / 2;
    let end = start + span;
    let coin = DeterministicCoin::new(seed);
    let mut peer1 = Vec::new();
    let mut peer2 = Vec::new();
    for (phase, kind, from, to) in [(0, FIRST, start, swap_at), (1, SECOND, swap_at, end)] {
        let sc = scenario(kind);
        let last = sc.pipelines().len() - 1;
        for (p, pipe) in sc.pipelines().iter().enumerate() {
            for (node, spec) in pipe.roots() {
                assert_eq!(
                    node,
                    NodeId(0),
                    "benchmark scenarios have one root per pipeline"
                );
                let period = spec.rate.period_ns();
                let offset = (coin.uniform(p, 0, phase as u64, 0) * period as f64) as u64;
                let mut t = from + offset;
                while t < to {
                    let item = Item {
                        stamp: t,
                        kind: Kind::Submit { pipeline: p, phase },
                    };
                    if p == last {
                        peer2.push(item);
                    } else {
                        peer1.push(item);
                    }
                    t += period;
                }
            }
        }
    }
    let control = (CONTROL_PERIOD_S * scale * 1e9) as u64;
    let mut t = start + control;
    while t < end {
        peer1.push(Item {
            stamp: t,
            kind: Kind::Snapshot,
        });
        peer2.push(Item {
            stamp: t + control / 2,
            kind: Kind::Ping,
        });
        t += control;
    }
    for (at, kind) in [
        (span / 4, Kind::Stall),
        (span / 2, Kind::Swap),
        (3 * span / 4, Kind::Slow),
    ] {
        peer2.push(Item {
            stamp: start + at,
            kind,
        });
    }
    // A closing ping: its reply shows the listener has read every line
    // before it, so the drain cannot overtake a request still in flight.
    peer2.push(Item {
        stamp: end,
        kind: Kind::Ping,
    });
    // At equal stamps a control goes first: the swap must precede the
    // second scenario's requests that wait for it.
    let order = |i: &Item| (i.stamp, matches!(i.kind, Kind::Submit { .. }));
    peer1.sort_by_key(order);
    peer2.sort_by_key(order);
    (peer1, peer2)
}

/// What both peers share: the session clock and the engine handle.
#[derive(Clone)]
struct Session {
    clock: Arc<WallClock>,
    /// Wall instant of virtual time zero (taken right after the clock).
    t0: Instant,
    scale: f64,
    handle: ServeHandle,
}

/// A live session with both peers connected.
struct Live {
    session: Session,
    engine: std::thread::JoinHandle<(Result<SessionReport, dream_sim::LiveError>, f64)>,
    socket: SocketServer,
    framed: WireClient,
    lines: TcpStream,
    setup_s: f64,
}

fn setup(seed: u64, scale: f64, core: Option<Arc<CallStats>>, session_span: u64) -> Live {
    let t_setup = Instant::now();
    let clock = Arc::new(WallClock::accelerated(scale));
    let t0 = Instant::now();
    let mut config = ServeConfig::new(Platform::preset(PRESET), scenario(FIRST));
    config.seed = seed;
    config.clock = clock.clone();
    config.max_admissions_per_tick = MAX_ADMISSIONS_PER_TICK;
    config.queue_capacity = QUEUE_CAPACITY;
    let dream = Box::new(DreamScheduler::new(DreamConfig::full()));
    let scheduler: Box<dyn Scheduler> = match core {
        Some(stats) => Box::new(Timed {
            inner: dream,
            span_name: "core.schedule",
            stats,
        }),
        None => dream,
    };
    let (engine, handle) = ServeEngine::new(config, scheduler).expect("the served scenario builds");
    let engine = std::thread::spawn(move || {
        let t = Instant::now();
        let _s = spans::span_under(session_span, "serve.run", 0);
        let report = engine.run();
        (report, t.elapsed().as_secs_f64())
    });
    let (addr, socket) = listen_tcp(&handle, "127.0.0.1:0").expect("bind loopback");
    let setup_s = t_setup.elapsed().as_secs_f64();
    // Connect once the listener's accept loop is polling, as a client
    // arriving after start-up would: whether a connect races the loop's
    // first poll would otherwise decide whether set-up pays its poll
    // interval. The pause itself is not timed.
    std::thread::sleep(ACCEPT_SETTLE);
    let t_connect = Instant::now();
    let framed = WireClient::connect_tcp(addr).expect("framed peer connects");
    assert_eq!(framed.version(), PROTOCOL_VERSION, "peer 1 negotiates v2");
    let lines = TcpStream::connect(addr).expect("line peer connects");
    lines
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    Live {
        session: Session {
            clock,
            t0,
            scale,
            handle,
        },
        engine,
        socket,
        framed,
        lines,
        setup_s: setup_s + t_connect.elapsed().as_secs_f64(),
    }
}

/// Drains the session; returns its report, its wall time and how long
/// the ingress took to empty after the last request was sent (ms).
fn teardown(mut live: Live) -> (SessionReport, f64, f64) {
    let t_catch_up = Instant::now();
    // Drain only once every submitted request left the ingress: a drain
    // closes the ingress and would refuse what is still queued.
    let mut rx = live.session.handle.snapshots();
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        let done = rx
            .wait_for_update(Duration::from_millis(50))
            .is_some_and(|s| {
                s.ingress_backlog == 0
                    && s.sources.iter().map(|x| x.submitted).sum::<u64>()
                        == s.sources.iter().map(|x| x.funnel_total()).sum::<u64>()
            });
        if done {
            break;
        }
    }
    let catch_up_ms = t_catch_up.elapsed().as_secs_f64() * 1e3;
    live.framed.drain().expect("drain is acknowledged");
    drop(live.framed);
    drop(live.lines);
    let (report, wall) = live.engine.join().expect("engine thread");
    live.socket.shutdown();
    (report.expect("the session drains"), wall, catch_up_ms)
}

/// What one peer measured.
#[derive(Default)]
struct PeerLog {
    /// (reply latency from due, ms) of every reply-bearing request.
    replies_ms: Vec<f64>,
    /// How late each send went out after its due time, ms.
    late_ms: Vec<f64>,
    submit_rtt_ms: Vec<f64>,
    snapshot_rtt_ms: Vec<f64>,
    ctl_rtt_ms: Vec<f64>,
    sent: u64,
    frames: u64,
    bytes: u64,
    failed: u64,
    funnel_violations: u64,
    funnel_checks: u64,
}

impl Session {
    fn due(&self, stamp: u64) -> Instant {
        self.t0 + Duration::from_secs_f64(stamp as f64 / 1e9 / self.scale)
    }

    /// Sleeps until `stamp` is due on the session clock.
    fn wait_until(&self, stamp: u64) {
        let due = self.due(stamp);
        let now = Instant::now();
        if due > now {
            let _s = spans::span("idle.wait", 0);
            std::thread::sleep(due - now);
        }
    }
}

fn swapped(rx: &mut WatchReceiver<MetricsSnapshot>) -> bool {
    rx.latest().is_some_and(|s| s.phase >= 1)
}

/// Peer 1: framed `Submit`s and `Snapshot`s through `WireClient`.
fn peer1(session: &Session, client: &mut WireClient, items: &[Item], parent: u64) -> PeerLog {
    let _root = spans::span_under(parent, "gen.peer1", 1);
    let mut log = PeerLog::default();
    let mut rx = session.handle.snapshots();
    let mut i = 0;
    while i < items.len() {
        session.wait_until(items[i].stamp);
        if items[i].kind == Kind::Snapshot {
            let due = session.due(items[i].stamp);
            log.late_ms.push(ms_since(due));
            let t = Instant::now();
            let snap = {
                let _s = spans::span("wire.snapshot", i as u64);
                client.snapshot()
            };
            log.snapshot_rtt_ms.push(ms_since(t));
            log.replies_ms.push(ms_since(due));
            log.sent += 1;
            log.frames += 2;
            log.bytes += frame_bytes(&Request::Snapshot);
            match snap {
                Ok(s) => time_decode(&Reply::Snapshot(s)),
                Err(_) => log.failed += 1,
            }
            funnel_check(&mut rx, &mut log);
            i += 1;
            continue;
        }
        // Everything due now goes out in one pipelined batch; requests
        // of the second scenario wait until the swap is visible.
        let now = session.clock.now().as_ns();
        let mut batch = Vec::new();
        let mut dues = Vec::new();
        while i < items.len() && items[i].stamp <= now {
            let Kind::Submit { pipeline, phase } = items[i].kind else {
                break;
            };
            if phase == 1 && !swapped(&mut rx) {
                break;
            }
            let req = (
                PipelineId(pipeline),
                NodeId(0),
                Some(SimTime::from_ns(items[i].stamp)),
            );
            log.bytes += frame_bytes(&Request::Submit {
                pipeline: req.0,
                node: req.1,
                at: req.2,
            });
            batch.push(req);
            dues.push(session.due(items[i].stamp));
            i += 1;
        }
        if batch.is_empty() {
            let _s = spans::span("idle.wait", 0);
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        for d in &dues {
            log.late_ms.push(ms_since(*d));
        }
        let t = Instant::now();
        let result = {
            let _s = spans::span("wire.submit_batch", batch.len() as u64);
            client.submit_batch(&batch)
        };
        log.submit_rtt_ms.push(ms_since(t));
        log.sent += batch.len() as u64;
        log.frames += 2 * batch.len() as u64;
        match result {
            Ok(results) => {
                // A refused submit is counted by the ingress funnel.
                for (r, d) in results.iter().zip(&dues) {
                    log.replies_ms.push(ms_since(*d));
                    if r.is_ok() {
                        time_decode(&Reply::Ok);
                    }
                }
            }
            Err(_) => log.failed += batch.len() as u64,
        }
    }
    log
}

/// Peer 2: v0 lines on a plain `TcpStream`, one write per line.
fn peer2(
    session: &Session,
    mut stream: TcpStream,
    items: &[Item],
    seed: u64,
    parent: u64,
) -> PeerLog {
    let _root = spans::span_under(parent, "gen.peer2", 2);
    let mut log = PeerLog::default();
    let mut rx = session.handle.snapshots();
    let mut reader = BufReader::new(stream.try_clone().expect("clone line stream"));
    let acc = seed % 3;
    for item in items {
        session.wait_until(item.stamp);
        let line = match item.kind {
            Kind::Submit { pipeline, phase } => {
                if phase == 1 {
                    while !swapped(&mut rx) {
                        let _s = spans::span("idle.wait", 0);
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                format!("r {pipeline} 0 {}\n", item.stamp)
            }
            Kind::Ping => "ping\n".into(),
            Kind::Swap => format!("swap {}\n", SECOND.name()),
            Kind::Stall => format!("fault {acc} stall {FAULT_WINDOW_NS}\n"),
            Kind::Slow => format!("fault {acc} slow {FAULT_WINDOW_NS} 1.5\n"),
            Kind::Snapshot => unreachable!("snapshots go over the framed peer"),
        };
        let due = session.due(item.stamp);
        log.late_ms.push(ms_since(due));
        log.sent += 1;
        log.bytes += line.len() as u64;
        let t = Instant::now();
        if matches!(item.kind, Kind::Submit { .. }) {
            let _s = spans::span("wire.line_write", 0);
            if stream.write_all(line.as_bytes()).is_err() {
                log.failed += 1;
            }
            continue;
        }
        let _s = spans::span("wire.line_ctl", 0);
        if stream.write_all(line.as_bytes()).is_err() {
            log.failed += 1;
            continue;
        }
        // Requests answer only on failure, so `err` lines (refusals, which
        // the ingress funnel counts) can precede the control's `ok`.
        loop {
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(n) if n > 0 && reply.starts_with("ok") => break,
                Ok(n) if n > 0 => {}
                _ => {
                    log.failed += 1;
                    break;
                }
            }
        }
        log.ctl_rtt_ms.push(ms_since(t));
        log.replies_ms.push(ms_since(due));
    }
    log
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

static ENCODE_NS: AtomicU64 = AtomicU64::new(0);
static ENCODES: AtomicU64 = AtomicU64::new(0);
static DECODE_NS: AtomicU64 = AtomicU64::new(0);
static DECODES: AtomicU64 = AtomicU64::new(0);

/// Length on the wire of a request frame, timing its `encode` (the
/// client encodes the same request once more internally).
fn frame_bytes(req: &Request) -> u64 {
    if !spans::enabled() {
        return 4 + req.encode().len() as u64;
    }
    let t = Instant::now();
    let bytes = std::hint::black_box(req.encode());
    let ns = t.elapsed().as_nanos() as u64;
    spans::leaf("wire.encode", ns);
    ENCODE_NS.fetch_add(ns, Ordering::Relaxed);
    ENCODES.fetch_add(1, Ordering::Relaxed);
    4 + bytes.len() as u64
}

/// Times `Reply::decode_versioned` on the encoding of a reply the client
/// received.
fn time_decode(reply: &Reply) {
    if !spans::enabled() {
        return;
    }
    let payload = reply.encode_versioned(PROTOCOL_VERSION);
    let t = Instant::now();
    let back = Reply::decode_versioned(std::hint::black_box(&payload), PROTOCOL_VERSION);
    let ns = t.elapsed().as_nanos() as u64;
    assert!(back.is_ok(), "a received reply re-decodes");
    spans::leaf("wire.decode", ns);
    DECODE_NS.fetch_add(ns, Ordering::Relaxed);
    DECODES.fetch_add(1, Ordering::Relaxed);
}

/// The funnel identity `submitted == admitted + shed + rejected_* +
/// backlog` on the latest published snapshot.
fn funnel_check(rx: &mut WatchReceiver<MetricsSnapshot>, log: &mut PeerLog) {
    let _s = spans::span("bench.funnel_check", 0);
    if let Some(s) = rx.latest() {
        let submitted: u64 = s.sources.iter().map(|x| x.submitted).sum();
        let accounted: u64 = s.sources.iter().map(|x| x.funnel_total()).sum();
        log.funnel_checks += 1;
        if submitted != accounted + s.ingress_backlog as u64 {
            log.funnel_violations += 1;
        }
    }
}

/// Everything one rung measured.
struct Rung {
    scale: f64,
    setup_s: f64,
    p1: PeerLog,
    p2: PeerLog,
    report: SessionReport,
    session_wall_s: f64,
    /// Time the ingress needed to empty after traffic ended, ms.
    catch_up_ms: f64,
    rss_growth_bytes: f64,
}

impl Rung {
    fn replies(&self) -> Vec<f64> {
        [self.p1.replies_ms.clone(), self.p2.replies_ms.clone()].concat()
    }

    fn late(&self) -> Vec<f64> {
        [self.p1.late_ms.clone(), self.p2.late_ms.clone()].concat()
    }

    /// Refused, shed, rejected (from the ingress funnel) and
    /// transport-failed (seen by the peers) requests.
    fn failed(&self) -> u64 {
        let lost: u64 = self
            .report
            .sources
            .iter()
            .map(|s| s.shed + s.rejected_capacity + s.rejected_invalid + s.rejected_closed)
            .sum();
        self.p1.failed + self.p2.failed + lost
    }

    fn admitted(&self) -> u64 {
        self.report.sources.iter().map(|s| s.admitted).sum()
    }

    fn clamped(&self) -> u64 {
        self.report.sources.iter().map(|s| s.clamped).sum()
    }
}

fn run_rung(seed: u64, scale: f64, wall_s: f64, core: Option<Arc<CallStats>>) -> Rung {
    let session = spans::span("idle.session", scale as u64);
    let rss0 = crate::status_kb("VmRSS") * 1024.0;
    let mut live = setup(seed, scale, core, session.id());
    // Traffic starts 20 ms of wall time after set-up, on the session clock.
    let start = live.session.clock.now().as_ns() + (0.02 * scale * 1e9) as u64;
    let (items1, items2) = schedule(seed, scale, start, wall_s);
    let lines = live.lines.try_clone().expect("clone line stream");
    let parent = session.id();
    let shared = live.session.clone();
    let p2_thread = std::thread::spawn(move || peer2(&shared, lines, &items2, seed, parent));
    let p1 = peer1(&live.session, &mut live.framed, &items1, parent);
    let p2 = p2_thread.join().expect("peer 2 thread");
    let rss_growth_bytes = (crate::status_kb("VmRSS") * 1024.0 - rss0).max(0.0);
    let setup_s = live.setup_s;
    let (report, session_wall_s, catch_up_ms) = teardown(live);
    drop(session);
    Rung {
        scale,
        setup_s,
        p1,
        p2,
        report,
        session_wall_s,
        catch_up_ms,
        rss_growth_bytes,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Set-up samples: engine construction, bind, both connects.
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let live = setup(args.seed, REFERENCE, None, 0);
        setups.push(live.setup_s);
        teardown(live);
    }
    // The ladder: the reference rung gets half the time.
    let mut rungs = Vec::new();
    for scale in SCALES {
        let share = if scale == REFERENCE { 0.5 } else { 0.25 };
        let rung = run_rung(args.seed, scale, budget * share - 0.05, None);
        setups.push(rung.setup_s);
        rungs.push(rung);
    }
    out.set("setup_s", median(&setups));
    let reference = rungs
        .iter()
        .find(|r| r.scale == REFERENCE)
        .expect("the ladder has the reference rung");
    let replies = reference.replies();
    out.set("reply_p50_ms", quantile(&replies, 0.50));
    out.set("reply_p99_ms", quantile(&replies, 0.99));
    out.set(
        "sim_speed",
        reference.report.outcome.final_time().as_ns() as f64 / 1e9 / reference.session_wall_s,
    );
    let ux: Vec<f64> = rungs
        .iter()
        .map(|r| UxCostReport::from_metrics(r.report.outcome.metrics()).uxcost())
        .collect();
    out.set("uxcost_geomean", dream_bench::geomean(&ux));
    out.set(
        "violation_rate",
        rungs
            .iter()
            .map(|r| r.report.outcome.metrics().mean_violation_rate())
            .sum::<f64>()
            / rungs.len() as f64,
    );
    let mut max_rate = 0.0;
    for r in &rungs {
        let p99 = quantile(&r.replies(), 0.99);
        let late = quantile(&r.late(), 0.99);
        let rate = nominal_rps(FIRST) * r.scale;
        out.note(format!(
            "rung x{:<3} ~{:>5.0} req/s: reply p50 {:>8.3} ms  p99 {:>8.3} ms ({} samples)  gen late p99 {:>8.3} ms  ingress catch-up {:>8.3} ms  admitted {}  clamped {}  failed {}",
            r.scale,
            rate,
            quantile(&r.replies(), 0.5),
            p99,
            r.replies().len(),
            late,
            r.catch_up_ms,
            r.admitted(),
            r.clamped(),
            r.failed()
        ));
        let no_backlog = r.catch_up_ms <= CATCH_UP_LIMIT_MS;
        if p99 <= P99_LIMIT_MS && late <= P99_LIMIT_MS && no_backlog && r.failed() == 0 {
            max_rate = f64::max(max_rate, rate);
        }
    }
    out.set("serve.max_rate_rps", max_rate);
    let admitted: u64 = rungs.iter().map(Rung::admitted).sum();
    let clamped: u64 = rungs.iter().map(Rung::clamped).sum();
    out.set(
        "serve.clamped_ratio",
        ratio(clamped as f64, admitted as f64),
    );
    out.note(format!(
        "max_rate_rps {max_rate} (highest rung with reply p99 <= {P99_LIMIT_MS} ms, generator late p99 <= {P99_LIMIT_MS} ms, ingress catch-up <= {CATCH_UP_LIMIT_MS} ms, no failures; 0 = none)  clamped_ratio {:.4}",
        ratio(clamped as f64, admitted as f64)
    ));
    for r in &rungs {
        account(r, "", &mut out);
    }
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if args.trace {
        traced(args, reference, &mut out);
    }
    out
}

/// Counts a rung's requests and runs its correctness checks.
fn account(r: &Rung, label: &str, out: &mut Outcome) {
    out.attempted += r.p1.sent + r.p2.sent;
    out.failed += r.failed();
    let submitted: u64 = r.report.sources.iter().map(|s| s.submitted).sum();
    let accounted: u64 = r.report.sources.iter().map(|s| s.funnel_total()).sum();
    let checks = r.p1.funnel_checks + r.p2.funnel_checks;
    let violations = r.p1.funnel_violations + r.p2.funnel_violations;
    out.check(
        format!(
            "serve_live x{}{label}: funnel identity on every polled snapshot",
            r.scale
        ),
        violations == 0 && checks > 0 && submitted == accounted,
        format!("{checks} snapshots, final {submitted} submitted == {accounted} accounted"),
    );
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let replay_ok = r
        .report
        .record
        .replay(&mut fresh)
        .is_ok_and(|b| b.metrics().fingerprint() == r.report.outcome.metrics().fingerprint());
    out.check(
        format!(
            "serve_live x{}{label}: drained record replays bit-identically",
            r.scale
        ),
        replay_ok,
        format!("{} arrivals", r.report.record.trace().len()),
    );
}

/// The traced rung: the reference rung again with spans on and DREAM
/// wrapped in a timer.
fn traced(args: &Args, untraced: &Rung, out: &mut Outcome) {
    let core = Arc::new(CallStats::default());
    spans::reset();
    spans::set_enabled(true);
    let rung = run_rung(
        args.seed,
        REFERENCE,
        args.seconds / 2.0 - 0.05,
        Some(Arc::clone(&core)),
    );
    spans::set_enabled(false);
    account(&rung, " traced", out);
    let mut split = spans::split();
    let profile = rung.report.profile;
    let m = rung.report.outcome.metrics();
    // `ServeEngine::run` is one span; its self time (wall minus DREAM's
    // calls) splits by the stage profile: engine stepping is the step
    // stage minus DREAM, the serve layer is admit + control + publish,
    // and the rest is the sleep between ticks.
    let stepping = profile.step_ns.saturating_sub(core.ns());
    let serving = profile.admit_ns + profile.control_ns + profile.publish_ns;
    let run_self = split.self_ns("serve");
    let serve_ns = serving.min(run_self);
    let sim_ns = stepping.min(run_self - serve_ns);
    split.layers.entry("serve".into()).or_default().0 = serve_ns;
    split.layers.entry("sim".into()).or_default().0 += sim_ns;
    split.layers.entry("idle".into()).or_default().0 += run_self - serve_ns - sim_ns;

    let builds: Vec<f64> = [FIRST, SECOND]
        .into_iter()
        .map(|kind| {
            let t = Instant::now();
            let ws =
                LiveSessionBuilder::new(Platform::preset(PRESET), scenario(kind)).build_workload();
            assert!(ws.is_ok(), "served scenarios build");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("setup.workload_build_ms", median(&builds));
    out.set("setup.workloads_built", builds.len() as f64);
    let ticks = profile.ticks.max(1) as f64;
    out.set("serve.ticks", profile.ticks as f64);
    out.set("serve.admit_ns_per_tick", profile.admit_ns as f64 / ticks);
    out.set(
        "serve.control_ns_per_tick",
        profile.control_ns as f64 / ticks,
    );
    out.set("serve.step_ns_per_tick", profile.step_ns as f64 / ticks);
    out.set(
        "serve.publish_ns_per_tick",
        profile.publish_ns as f64 / ticks,
    );
    out.set(
        "serve.tick_busy_share",
        profile.total_ns() as f64 / (rung.session_wall_s * 1e9),
    );
    let sum = |f: fn(&dream_serve::SourceStats) -> u64| -> f64 {
        rung.report.sources.iter().map(f).sum::<u64>() as f64
    };
    out.set("serve.admitted", sum(|s| s.admitted));
    out.set("serve.shed", sum(|s| s.shed));
    out.set(
        "serve.rejected",
        sum(|s| s.rejected_capacity + s.rejected_invalid + s.rejected_closed),
    );
    out.set("serve.clamped", sum(|s| s.clamped));
    out.set(
        "serve.rss_bytes_per_admitted",
        ratio(rung.rss_growth_bytes, rung.admitted() as f64),
    );
    out.set("sim.events", m.events_processed as f64);
    out.set("sim.decisions", m.scheduler_invocations as f64);
    out.set(
        "sim.engine_ns_per_event",
        ratio(stepping as f64, m.events_processed as f64),
    );
    out.set("core.calls", core.calls() as f64);
    out.set("core.assignments", core.items() as f64);
    out.set("core.schedule_ns_per_call", core.ns_per_call());
    out.set(
        "core.share",
        split.self_ns("core") as f64 / split.busy_ns().max(1) as f64,
    );
    out.set("wire.submit_rtt_p50_ms", median(&rung.p1.submit_rtt_ms));
    out.set(
        "wire.submit_rtt_p99_ms",
        quantile(&rung.p1.submit_rtt_ms, 0.99),
    );
    out.set("wire.snapshot_rtt_p50_ms", median(&rung.p1.snapshot_rtt_ms));
    out.set("wire.line_ctl_rtt_p50_ms", median(&rung.p2.ctl_rtt_ms));
    out.set(
        "wire.encode_ns_per_frame",
        ratio(
            ENCODE_NS.load(Ordering::Relaxed) as f64,
            ENCODES.load(Ordering::Relaxed) as f64,
        ),
    );
    out.set(
        "wire.decode_ns_per_frame",
        ratio(
            DECODE_NS.load(Ordering::Relaxed) as f64,
            DECODES.load(Ordering::Relaxed) as f64,
        ),
    );
    out.set("wire.frames", (rung.p1.frames + 2) as f64);
    out.set("wire.bytes", (rung.p1.bytes + rung.p2.bytes) as f64);
    out.set("gen.sent", (rung.p1.sent + rung.p2.sent) as f64);
    out.set("gen.late_p99_ms", quantile(&rung.late(), 0.99));
    let untraced_p50 = quantile(&untraced.replies(), 0.5);
    out.note(format!(
        "traced x{REFERENCE} rung: reply p50 {:.3} ms vs untraced {:.3} ms; submit_batch round trip p50 {:.3} ms over {} calls (framed WireClient as shipped)",
        quantile(&rung.replies(), 0.5),
        untraced_p50,
        median(&rung.p1.submit_rtt_ms),
        rung.p1.submit_rtt_ms.len()
    ));
    // Overhead on the serving path: busy serve time per tick, traced vs
    // untraced (the wall time of a rung is fixed by its schedule).
    let untraced_busy =
        untraced.report.profile.total_ns() as f64 / untraced.report.profile.ticks.max(1) as f64;
    let traced_busy = profile.total_ns() as f64 / ticks;
    out.record_split(&split, (traced_busy / untraced_busy - 1.0) * 100.0);
}
