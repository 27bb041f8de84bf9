//! Grid cells of `cluster_grid`: the instrumented cell path of the
//! traced run and the flight-recorder check, and the workload set-up.

use std::sync::Arc;

use dream_baselines::{FcfsScheduler, PlanariaScheduler, VeltairScheduler};
use dream_bench::{shared_workload, DreamVariant, RunSpec, SchedulerKind};
use dream_core::{DreamConfig, DreamScheduler, ScoreParams, UxCostReport};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_serve::CellOutcome;
use dream_sim::{Metrics, Millis, Scheduler, SimulationBuilder, TraceConfig};

use crate::layers::{CallStats, Timed};
use crate::spans;

/// DREAM as every workload runs it: `DreamConfig::full()` with the
/// default (α, β), no offline tuning.
pub fn dream_full() -> SchedulerKind {
    SchedulerKind::DreamFixed(DreamVariant::Full, ScoreParams::default())
}

/// Call statistics of every scheduler a grid can run, one per layer.
#[derive(Default)]
pub struct SchedStats {
    pub dream: Arc<CallStats>,
    pub fcfs: Arc<CallStats>,
    pub veltair: Arc<CallStats>,
    pub planaria: Arc<CallStats>,
}

/// What one instrumented cell produced.
pub struct CellResult {
    pub metrics: Metrics,
    pub uxcost: f64,
    pub trace_records: u64,
}

impl CellResult {
    pub fn outcome(&self, index: u64) -> CellOutcome {
        CellOutcome {
            index,
            fingerprint: self.metrics.fingerprint(),
            uxcost: self.uxcost,
            mean_violation_rate: self.metrics.mean_violation_rate(),
            mean_norm_energy: self.metrics.mean_normalized_energy(),
            trace_csv: String::new(),
        }
    }
}

/// Runs one periodic-arrival, analytical-cost cell the way
/// `dream_bench::run_spec` does, but with the scheduler wrapped in a
/// timer and each layer call inside a span. With `recorder` set the
/// engine's flight recorder is attached too.
pub fn instrumented_cell(spec: &RunSpec, stats: &SchedStats, recorder: bool) -> CellResult {
    assert!(
        matches!(spec.arrival, dream_bench::ArrivalConfig::Periodic),
        "benchmark cells use periodic arrivals"
    );
    let backend = spec.cost.backend();
    let ws = {
        let _s = spans::span("setup.shared_workload", 0);
        shared_workload(
            spec.scenario,
            spec.preset,
            spec.cascade,
            spec.duration_ms,
            Arc::clone(&backend),
        )
    };
    let cascade = CascadeProbability::new(spec.cascade).expect("benchmark cascades are valid");
    let mut builder = SimulationBuilder::new(
        Platform::preset(spec.preset),
        Scenario::new(spec.scenario, cascade),
    )
    .duration(Millis::new(spec.duration_ms))
    .seed(spec.seed)
    .cost_backend(backend)
    .prebuilt_workload(ws);
    if recorder {
        builder = builder.trace(TraceConfig::default());
    }
    let timed = |inner: Box<dyn Scheduler>, span_name, stats: &Arc<CallStats>| Timed {
        inner,
        span_name,
        stats: Arc::clone(stats),
    };
    let mut scheduler = match &spec.scheduler {
        SchedulerKind::Fcfs => timed(
            Box::new(FcfsScheduler::new()),
            "baselines.fcfs",
            &stats.fcfs,
        ),
        SchedulerKind::Veltair => timed(
            Box::new(VeltairScheduler::new()),
            "baselines.veltair",
            &stats.veltair,
        ),
        SchedulerKind::Planaria => timed(
            Box::new(PlanariaScheduler::new()),
            "baselines.planaria",
            &stats.planaria,
        ),
        SchedulerKind::DreamFixed(variant, params) => timed(
            Box::new(DreamScheduler::new(variant.config().with_params(*params))),
            "core.schedule",
            &stats.dream,
        ),
        other => panic!("scheduler {} is not part of the benchmark", other.name()),
    };
    let outcome = {
        let _s = spans::span("sim.run", 0);
        builder
            .run(&mut scheduler)
            .expect("benchmark cells are valid simulations")
    };
    let trace_records = outcome.trace().map_or(0, |t| t.len() as u64 + t.dropped());
    let metrics = outcome.into_metrics();
    let uxcost = UxCostReport::from_metrics(&metrics).uxcost();
    CellResult {
        metrics,
        uxcost,
        trace_records,
    }
}

type WorkloadKey = (ScenarioKind, PlatformPreset, u64, u64);

/// The distinct (scenario, preset, cascade, duration) workloads of `specs`.
fn workload_keys(specs: &[RunSpec]) -> Vec<WorkloadKey> {
    let mut keys: Vec<WorkloadKey> = specs
        .iter()
        .map(|s| (s.scenario, s.preset, s.cascade.to_bits(), s.duration_ms))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// Builds the offline tables of every distinct workload of `specs`
/// without the process-wide cache — the set-up work a fresh process
/// pays.
pub fn build_workloads_uncached(specs: &[RunSpec]) {
    for (scenario, preset, cascade, duration_ms) in workload_keys(specs) {
        let ws = SimulationBuilder::new(
            Platform::preset(preset),
            Scenario::new(
                scenario,
                CascadeProbability::new(f64::from_bits(cascade)).expect("valid cascade"),
            ),
        )
        .duration(Millis::new(duration_ms))
        .build_workload()
        .expect("benchmark workloads are buildable");
        std::hint::black_box(ws);
    }
}

/// Fills the process-wide workload cache the timed runs share and
/// returns how many distinct workloads the grid has.
pub fn fill_cache(specs: &[RunSpec]) -> u64 {
    for s in specs {
        shared_workload(
            s.scenario,
            s.preset,
            s.cascade,
            s.duration_ms,
            s.cost.backend(),
        );
    }
    workload_keys(specs).len() as u64
}

/// A DREAM-Full config check: the fixed default-parameter variant is
/// exactly `DreamConfig::full()`.
pub fn assert_dream_is_full() {
    assert_eq!(
        DreamVariant::Full
            .config()
            .with_params(ScoreParams::default()),
        DreamConfig::full()
    );
}
