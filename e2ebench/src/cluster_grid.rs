//! `cluster_grid`: a `Coordinator` over two in-process worker nodes.
//!
//! Each worker is a `dream-serve` engine listening on loopback TCP with
//! a cell runner (`listen_tcp_with_runner`); the coordinator shards a
//! Figure-7 scheduler mix (FCFS, Veltair, Planaria, DREAM-Full) × the
//! five scenarios through `RunCells` and merges the outcomes. Baselines
//! and the engine do most of the work, DREAM about a quarter; a few large
//! frames use the wire. The loop is closed: a pass starts when the
//! previous grid result is back.
//!
//! Besides the passes, the same cells run in process three more ways,
//! each checked against the reference fingerprints: through a 1-thread
//! `ExperimentGrid`, and through the instrumented cell path with the
//! engine's flight recorder off and on (whose wall-time difference is
//! the recorder's cost).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dream_bench::{
    from_cell_spec, geomean, parallel_map_threads, to_cell_spec, ExperimentGrid, GridCellRunner,
    RunSpec, SchedulerKind,
};
use dream_coordinator::Coordinator;
use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_serve::{
    listen_tcp_with_runner, CellOutcome, CellRunner, ManualClock, Reply, Request, ServeConfig,
    ServeEngine, ServeHandle, SessionReport, SocketServer, PROTOCOL_VERSION,
};
use dream_sim::{DeterministicCoin, LiveError};

use crate::cells::{self, CellResult, SchedStats};
use crate::layers::TimedRunner;
use crate::stats::{block_quantile, median, quantile, ratio};
use crate::{spans, Args, Outcome};

const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;
const WORKERS: usize = 2;
const SEEDS_PER_CELL: u64 = 2;
const DURATION_MS: u64 = 1_000;
const SETUP_REPS: usize = 5;
/// In-process grid workers: one per core of the 2-vCPU reference machine.
const GRID_THREADS: usize = 2;
/// The listener's accept poll interval (`dream_serve::server`).
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// The grid's cells for `seed`, in grid order, run in process on
/// `threads` workers.
fn grid(seed: u64, threads: usize) -> ExperimentGrid {
    let mut grid = ExperimentGrid::new().with_threads(threads);
    for scheduler in [
        SchedulerKind::Fcfs,
        SchedulerKind::Veltair,
        SchedulerKind::Planaria,
        cells::dream_full(),
    ] {
        for scenario in ScenarioKind::all() {
            for k in 0..SEEDS_PER_CELL {
                grid.push(
                    RunSpec::new(scheduler, scenario, PRESET)
                        .with_duration_ms(DURATION_MS)
                        .with_seed(seed.wrapping_mul(1_000).wrapping_add(k)),
                );
            }
        }
    }
    grid
}

/// What the workers' runners share with the benchmark.
#[derive(Default)]
struct RunnerState {
    traced: AtomicBool,
    parent: Arc<AtomicU64>,
    sched: SchedStats,
    batches_ms: Arc<Mutex<Vec<f64>>>,
}

impl RunnerState {
    /// Runs one shipped batch: through the shipped `GridCellRunner`, or
    /// cell by cell through the instrumented path when tracing.
    fn run(&self, cells: &[dream_serve::CellSpec]) -> Result<Vec<CellOutcome>, String> {
        if !self.traced.load(Ordering::SeqCst) {
            return GridCellRunner.run_cells(cells, false);
        }
        cells
            .iter()
            .map(|cell| {
                let spec = from_cell_spec(cell)?;
                let _s = spans::span("bench.cell", cell.index);
                Ok(cells::instrumented_cell(&spec, &self.sched, false).outcome(cell.index))
            })
            .collect()
    }
}

struct Worker {
    handle: ServeHandle,
    socket: SocketServer,
    engine: std::thread::JoinHandle<Result<SessionReport, LiveError>>,
}

/// Starts one worker node as `dream_coordinator::spawn_local_worker`
/// does, with the benchmark's timed runner wrapped around the grid's.
fn spawn_worker(seed: u64, state: &Arc<RunnerState>) -> (String, Worker) {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = seed;
    config.clock = Arc::new(ManualClock::new());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full())))
            .expect("worker engine builds");
    let engine = std::thread::spawn(move || engine.run());
    let shared = Arc::clone(state);
    let runner = TimedRunner {
        run: Box::new(move |cells| shared.run(cells)),
        parent: Arc::clone(&state.parent),
        batches_ms: Arc::clone(&state.batches_ms),
    };
    let (addr, socket) = listen_tcp_with_runner(&handle, "127.0.0.1:0", Some(Arc::new(runner)))
        .expect("bind loopback");
    (
        addr.to_string(),
        Worker {
            handle,
            socket,
            engine,
        },
    )
}

fn shutdown(workers: Vec<Worker>) {
    for w in workers {
        w.handle.drain();
        w.engine
            .join()
            .expect("worker engine thread")
            .expect("worker session drains");
        w.socket.shutdown();
    }
}

/// Set-up: the grid's workloads built uncached, both workers started,
/// the coordinator connected (handshake + ping each). Returns the set-up
/// time and the part of it spent building workloads, in seconds.
fn setup(
    seed: u64,
    specs: &[RunSpec],
    state: &Arc<RunnerState>,
) -> (f64, f64, Coordinator, Vec<Worker>) {
    let t0 = Instant::now();
    cells::build_workloads_uncached(specs);
    let build_s = t0.elapsed().as_secs_f64();
    let (addrs, workers): (Vec<String>, Vec<Worker>) = (0..WORKERS)
        .map(|i| spawn_worker(seed + i as u64, state))
        .unzip();
    let started = t0.elapsed().as_secs_f64();
    std::thread::sleep(crate::serve_live::ACCEPT_SETTLE);
    let t1 = Instant::now();
    let coordinator = Coordinator::connect(addrs).expect("coordinator connects");
    (
        started + t1.elapsed().as_secs_f64(),
        build_s,
        coordinator,
        workers,
    )
}

/// The untimed offset before pass `i`: uniform over the accept poll.
fn jitter(coin: &DeterministicCoin, i: usize) -> Duration {
    ACCEPT_POLL.mul_f64(coin.uniform(i, 0, 0, 0))
}

/// One coordinator pass over the grid.
struct Pass {
    wall_ms: f64,
    /// The longest worker batch of the pass (the critical path), ms.
    runner_ms: f64,
    fingerprint: u64,
    outcomes: Vec<CellOutcome>,
}

fn pass(
    coordinator: &Coordinator,
    grid: &ExperimentGrid,
    state: &RunnerState,
    start: Duration,
) -> Pass {
    // `run_grid` dials every worker anew, and a dial waits for the
    // worker's accept loop, which polls every 50 ms. Passes start at a
    // seeded random offset within that interval, so the wait is sampled
    // across its whole range instead of locking onto one phase. The
    // offset is not timed.
    {
        let _s = spans::span("idle.pass_start", 0);
        std::thread::sleep(start);
    }
    let span = spans::span("coord.run_grid", 0);
    state.parent.store(span.id(), Ordering::SeqCst);
    let t0 = Instant::now();
    let result = coordinator
        .run_grid(grid, false)
        .expect("the cluster runs the grid");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(span);
    let batches: Vec<f64> = std::mem::take(&mut *state.batches_ms.lock().expect("batch log"));
    Pass {
        wall_ms,
        runner_ms: batches.iter().copied().fold(0.0, f64::max),
        fingerprint: result.fingerprint(),
        outcomes: result.outcomes().to_vec(),
    }
}

pub fn run(args: &Args) -> Outcome {
    cells::assert_dream_is_full();
    let mut out = Outcome::default();
    let grid = grid(args.seed, GRID_THREADS);
    let specs = grid.specs().to_vec();
    let n_cells = specs.len() as u64;
    let sim_s: f64 = specs.iter().map(|s| s.duration_ms as f64 / 1e3).sum();
    let state = Arc::new(RunnerState::default());
    let coin = DeterministicCoin::new(args.seed);

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut started = None;
    for _ in 0..SETUP_REPS {
        if let Some((_coordinator, workers)) = started.take() {
            shutdown(workers);
        }
        let (setup_s, build_s, coordinator, workers) = setup(args.seed, &specs, &state);
        setups.push(setup_s);
        builds.push(build_s);
        started = Some((coordinator, workers));
    }
    let (coordinator, workers) = started.expect("at least one set-up");
    let built = cells::fill_cache(&specs);
    out.set("setup_s", median(&setups));
    out.set(
        "setup.workload_build_ms",
        median(&builds) * 1e3 / built as f64,
    );
    out.set("setup.workloads_built", built as f64);

    // The reference: the same cells in process.
    let local = grid.run();
    let reference = local.fingerprint();
    let events: u64 = local
        .runs()
        .iter()
        .map(|r| r.metrics.events_processed)
        .sum();
    let decisions: u64 = local
        .runs()
        .iter()
        .map(|r| r.metrics.scheduler_invocations)
        .sum();
    out.set("sim.events", events as f64);
    out.set("sim.decisions", decisions as f64);

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut passes = Vec::new();
    let t_all = Instant::now();
    while passes.len() < 3 || t_all.elapsed().as_secs_f64() < budget {
        passes.push(pass(
            &coordinator,
            &grid,
            &state,
            jitter(&coin, passes.len()),
        ));
    }
    let mismatched = passes.iter().filter(|p| p.fingerprint != reference).count() as u64;
    out.attempted += n_cells * passes.len() as u64;
    out.failed += mismatched * n_cells;
    out.check(
        "cluster_grid: merged fingerprint == in-process ExperimentGrid",
        mismatched == 0,
        format!(
            "{} passes x {n_cells} cells over {WORKERS} workers",
            passes.len()
        ),
    );

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    // Every cell's result reaches the user with the merged grid, so each
    // quantile of a pass's replies is the pass wall time: reply p50 and
    // p99 are both the median pass, taken per fifth of the run and then
    // the median of the five (see `block_quantile`), like `sim_speed`. A
    // quantile over the passes of a run would be set by its slowest
    // passes, i.e. by contention episodes of a shared machine; it is
    // printed, not gated.
    let reply_ms = block_quantile(&walls, 0.50);
    out.set("reply_p50_ms", reply_ms);
    out.set("reply_p99_ms", reply_ms);
    out.note(format!(
        "pass wall over {} passes: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
        walls.len(),
        quantile(&walls, 0.50),
        quantile(&walls, 0.90),
        quantile(&walls, 0.99)
    ));
    out.set(
        "sim_speed",
        block_quantile(
            &walls.iter().map(|w| sim_s / (w / 1e3)).collect::<Vec<_>>(),
            0.50,
        ),
    );
    let outcomes = &passes[0].outcomes;
    out.set(
        "uxcost_geomean",
        geomean(&outcomes.iter().map(|o| o.uxcost).collect::<Vec<_>>()),
    );
    out.set(
        "violation_rate",
        outcomes.iter().map(|o| o.mean_violation_rate).sum::<f64>() / outcomes.len() as f64,
    );
    let rpc = median(&walls);
    let runner = median(&passes.iter().map(|p| p.runner_ms).collect::<Vec<_>>());
    out.set("coord.cells", n_cells as f64);
    out.set("coord.rpc_ms", rpc);
    out.set("coord.runner_ms", runner);
    out.set("coord.overhead_ms", rpc - runner);
    wire_counts(&specs, outcomes, &mut out);
    out.note(format!(
        "grid: {n_cells} cells (FCFS, Veltair, Planaria, DREAM-Full x 5 scenarios x {SEEDS_PER_CELL} seeds, {DURATION_MS} ms simulated each) over {WORKERS} workers, {} passes; RPC {rpc:.3} ms = runner {runner:.3} ms + coordinator/wire {:.3} ms",
        passes.len(),
        rpc - runner
    ));
    // Read before the in-process checks: their recorder runs hold
    // flight-recorder rings on two threads, which is the benchmark's
    // memory, not the workload's.
    out.set("peak_rss_mb", crate::peak_rss_mb());
    let per_cell: Vec<u64> = local
        .runs()
        .iter()
        .map(|r| r.metrics.fingerprint())
        .collect();
    in_process_checks(args.seed, &specs, &per_cell, &mut out);

    if args.trace {
        spans::reset();
        spans::set_enabled(true);
        state.traced.store(true, Ordering::SeqCst);
        let mut traced = Vec::new();
        let t_all = Instant::now();
        while traced.is_empty() || t_all.elapsed().as_secs_f64() < args.seconds / 2.0 {
            traced.push(pass(
                &coordinator,
                &grid,
                &state,
                jitter(&coin, 1_000 + traced.len()),
            ));
        }
        state.traced.store(false, Ordering::SeqCst);
        spans::set_enabled(false);
        let bad = traced.iter().filter(|p| p.fingerprint != reference).count() as u64;
        out.attempted += n_cells * traced.len() as u64;
        out.failed += bad * n_cells;
        out.check(
            "cluster_grid: traced merged fingerprint == in-process ExperimentGrid",
            bad == 0,
            format!("{} traced passes", traced.len()),
        );
        let n = traced.len() as u64;
        let split = spans::split();
        let busy = split.busy_ns().max(1) as f64;
        let s = &state.sched;
        out.set("core.calls", (s.dream.calls() / n) as f64);
        out.set("core.assignments", (s.dream.items() / n) as f64);
        out.set("core.schedule_ns_per_call", s.dream.ns_per_call());
        out.set("core.share", split.self_ns("core") as f64 / busy);
        out.set("baselines.fcfs_ns_per_call", s.fcfs.ns_per_call());
        out.set("baselines.veltair_ns_per_call", s.veltair.ns_per_call());
        out.set("baselines.planaria_ns_per_call", s.planaria.ns_per_call());
        out.set(
            "sim.engine_ns_per_event",
            split.self_ns("sim") as f64 / (events * n) as f64,
        );
        let traced_wall = median(&traced.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
        out.record_split(&split, (traced_wall / rpc - 1.0) * 100.0);
    }
    drop(coordinator);
    shutdown(workers);
    out
}

/// Recorder runs per side; the overhead compares the medians.
const RECORDER_REPS: usize = 5;

/// The grid's cells in process through a 1-thread `ExperimentGrid`, and
/// through the instrumented cell path with the flight recorder off and
/// on (alternating, `RECORDER_REPS` each): every per-cell fingerprint
/// must equal the reference grid's.
fn in_process_checks(seed: u64, specs: &[RunSpec], reference: &[u64], out: &mut Outcome) {
    let fingerprints = |cells: &[CellResult]| -> Vec<u64> {
        cells.iter().map(|r| r.metrics.fingerprint()).collect()
    };
    let serial: Vec<u64> = grid(seed, 1)
        .run()
        .runs()
        .iter()
        .map(|r| r.metrics.fingerprint())
        .collect();
    let throwaway = SchedStats::default();
    let mut walls = [Vec::new(), Vec::new()];
    let mut last = [Vec::new(), Vec::new()];
    for _ in 0..RECORDER_REPS {
        for recorder in [false, true] {
            let t0 = Instant::now();
            let cells = parallel_map_threads(specs.to_vec(), GRID_THREADS, |s| {
                cells::instrumented_cell(s, &throwaway, recorder)
            });
            walls[usize::from(recorder)].push(t0.elapsed().as_secs_f64());
            last[usize::from(recorder)] = cells;
        }
    }
    let [off, on] = last;
    for (path, got) in [
        ("1-thread ExperimentGrid", serial),
        ("flight recorder off", fingerprints(&off)),
        ("flight recorder on", fingerprints(&on)),
    ] {
        let ok = got == reference;
        out.attempted += specs.len() as u64;
        out.failed += u64::from(!ok) * specs.len() as u64;
        out.check(
            format!("cluster_grid: {path} == in-process ExperimentGrid fingerprints"),
            ok,
            "",
        );
    }
    out.set(
        "trace.recorder_overhead_pct",
        (median(&walls[1]) / median(&walls[0]) - 1.0) * 100.0,
    );
    out.set(
        "trace.records",
        on.iter().map(|r| r.trace_records).sum::<u64>() as f64,
    );
}

/// Frame and byte counts of one pass (one `RunCells` request and one
/// `CellsDone` reply per worker), and the encode/decode cost per frame.
fn wire_counts(specs: &[RunSpec], outcomes: &[CellOutcome], out: &mut Outcome) {
    let mut shards: Vec<Vec<dream_serve::CellSpec>> = vec![Vec::new(); WORKERS];
    for (i, spec) in specs.iter().enumerate() {
        shards[i % WORKERS].push(to_cell_spec(i as u64, spec).expect("benchmark cells ship"));
    }
    let mut bytes = 0u64;
    let mut encode_ns = 0u64;
    let mut decode_ns = 0u64;
    for (w, cells) in shards.into_iter().enumerate() {
        let request = Request::RunCells {
            record_traces: false,
            cells,
        };
        let t = Instant::now();
        let payload = std::hint::black_box(request.encode());
        encode_ns += t.elapsed().as_nanos() as u64;
        bytes += 4 + payload.len() as u64;
        let reply = Reply::CellsDone {
            outcomes: outcomes
                .iter()
                .filter(|o| o.index as usize % WORKERS == w)
                .cloned()
                .collect(),
        }
        .encode_versioned(PROTOCOL_VERSION);
        let t = Instant::now();
        let back = Reply::decode_versioned(std::hint::black_box(&reply), PROTOCOL_VERSION);
        decode_ns += t.elapsed().as_nanos() as u64;
        assert!(back.is_ok(), "a CellsDone reply decodes");
        bytes += 4 + reply.len() as u64;
    }
    let frames = 2 * WORKERS as u64;
    out.set("wire.frames", frames as f64);
    out.set("wire.bytes", bytes as f64);
    out.set(
        "wire.encode_ns_per_frame",
        ratio(encode_ns as f64, WORKERS as f64),
    );
    out.set(
        "wire.decode_ns_per_frame",
        ratio(decode_ns as f64, WORKERS as f64),
    );
}
