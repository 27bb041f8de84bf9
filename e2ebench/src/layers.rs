//! Wrappers that time calls into the program's layers from outside.
//!
//! [`Timed`] wraps a scheduler (`DreamScheduler` or a baseline) and times
//! every `schedule` call; [`TimedRunner`] wraps the grid's
//! [`GridCellRunner`] on a worker node. Both forward every other trait
//! method unchanged, so a wrapped run is the same simulation (the
//! correctness checks compare fingerprints to prove it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dream_serve::{CellOutcome, CellRunner, CellSpec};
use dream_sim::{
    Decision, DecisionRecord, Scheduler, SchedulerCapabilities, SystemView, TaskEvent,
};

use crate::spans;

/// Exact call counts and summed call time of one wrapped layer.
#[derive(Debug, Default)]
pub struct CallStats {
    pub calls: AtomicU64,
    pub items: AtomicU64,
    pub ns: AtomicU64,
}

impl CallStats {
    pub fn add(&self, items: u64, ns: u64) {
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn ns_per_call(&self) -> f64 {
        crate::stats::ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// A scheduler whose `schedule` calls are timed into `stats` and folded
/// into the current span as leaf `span_name`.
pub struct Timed {
    pub inner: Box<dyn Scheduler>,
    pub span_name: &'static str,
    pub stats: Arc<CallStats>,
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> SchedulerCapabilities {
        self.inner.capabilities()
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.schedule(view);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.add(decision.assignments.len() as u64, ns);
        spans::leaf(self.span_name, ns);
        decision
    }

    fn on_task_event(&mut self, event: &TaskEvent) {
        self.inner.on_task_event(event);
    }

    fn on_phase_start(&mut self, phase: usize, model_names: &[&'static str]) {
        self.inner.on_phase_start(phase, model_names);
    }

    fn take_decision_records(&mut self) -> Vec<DecisionRecord> {
        self.inner.take_decision_records()
    }
}

/// What a worker node's cell runner does with a shipped batch.
pub type BatchFn = dyn Fn(&[CellSpec]) -> Result<Vec<CellOutcome>, String> + Send + Sync;

/// The worker-side [`CellRunner`]: times each `RunCells` batch as a
/// `coord.runner` span (a child of the coordinator's call, which runs on
/// another thread) and hands the cells to `run` — the shipped
/// [`dream_bench::GridCellRunner`] in untraced runs, the benchmark's
/// instrumented cell path in traced runs.
pub struct TimedRunner {
    pub run: Box<BatchFn>,
    pub parent: Arc<AtomicU64>,
    /// Wall time of every batch, ms.
    pub batches_ms: Arc<Mutex<Vec<f64>>>,
}

impl CellRunner for TimedRunner {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        record_traces: bool,
    ) -> Result<Vec<CellOutcome>, String> {
        if record_traces {
            return Err("the benchmark ships cells without traces".into());
        }
        let t0 = Instant::now();
        let span = spans::span_under(self.parent.load(Ordering::SeqCst), "coord.runner", 0);
        let out = (self.run)(cells);
        drop(span);
        self.batches_ms
            .lock()
            .expect("batch log poisoned")
            .push(t0.elapsed().as_secs_f64() * 1e3);
        out
    }
}
