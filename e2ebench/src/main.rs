//! End-to-end benchmark of the DREAM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_live|cluster_grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, checks the program's
//! outputs, and ends with one JSON line: the end-to-end metrics of the
//! untraced run (`--trace 0`) or the per-layer metrics of the traced run
//! (`--trace 1`). See `e2ebench/README.md` for the workloads, the
//! metric → layer → workload table and how each number is measured.

// The benchmark measures wall time and reads the clock by design.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod cells;
mod cluster_grid;
mod layers;
mod serve_live;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every metric the benchmark reports: (name, unit). The first block is
/// the end-to-end set the untraced run emits; the rest is the per-layer
/// set of the traced run. `BENCHMARK.json` lists the same names.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_speed", "sim_s/s"),
    ("uxcost_geomean", "uxcost"),
    ("violation_rate", "ratio"),
    ("reply_p50_ms", "ms"),
    ("reply_p99_ms", "ms"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("setup.workload_build_ms", "ms"),
    ("setup.workloads_built", "count"),
    ("sim.events", "count"),
    ("sim.decisions", "count"),
    ("sim.engine_ns_per_event", "ns"),
    ("core.calls", "count"),
    ("core.assignments", "count"),
    ("core.schedule_ns_per_call", "ns"),
    ("core.share", "ratio"),
    ("baselines.fcfs_ns_per_call", "ns"),
    ("baselines.veltair_ns_per_call", "ns"),
    ("baselines.planaria_ns_per_call", "ns"),
    ("serve.ticks", "count"),
    ("serve.admit_ns_per_tick", "ns"),
    ("serve.control_ns_per_tick", "ns"),
    ("serve.step_ns_per_tick", "ns"),
    ("serve.publish_ns_per_tick", "ns"),
    ("serve.tick_busy_share", "ratio"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.clamped", "count"),
    ("serve.clamped_ratio", "ratio"),
    ("serve.rss_bytes_per_admitted", "B"),
    ("serve.max_rate_rps", "1/s"),
    ("wire.submit_rtt_p50_ms", "ms"),
    ("wire.submit_rtt_p99_ms", "ms"),
    ("wire.snapshot_rtt_p50_ms", "ms"),
    ("wire.line_ctl_rtt_p50_ms", "ms"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("coord.cells", "count"),
    ("coord.rpc_ms", "ms"),
    ("coord.runner_ms", "ms"),
    ("coord.overhead_ms", "ms"),
    ("trace.recorder_overhead_pct", "%"),
    ("trace.records", "count"),
    ("gen.sent", "count"),
    ("gen.late_p99_ms", "ms"),
    ("bench.failed_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_share", "ratio"),
    ("split.bench_ms", "ms"),
    ("split.setup_ms", "ms"),
    ("split.sim_ms", "ms"),
    ("split.core_ms", "ms"),
    ("split.baselines_ms", "ms"),
    ("split.serve_ms", "ms"),
    ("split.wire_ms", "ms"),
    ("split.coord_ms", "ms"),
    ("split.gen_ms", "ms"),
    ("split.idle_ms", "ms"),
];

/// Layers of the traced split (span-name prefixes) and the metric each
/// one's self time is reported as.
const SPLIT_LAYERS: &[(&str, &str)] = &[
    ("bench", "split.bench_ms"),
    ("setup", "split.setup_ms"),
    ("sim", "split.sim_ms"),
    ("core", "split.core_ms"),
    ("baselines", "split.baselines_ms"),
    ("serve", "split.serve_ms"),
    ("wire", "split.wire_ms"),
    ("coord", "split.coord_ms"),
    ("gen", "split.gen_ms"),
    ("idle", "split.idle_ms"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// (check, passed, detail)
    pub checks: Vec<(String, bool, String)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Records the traced split: per-layer self times, the unattributed
    /// share and the tracing overhead.
    pub fn record_split(&mut self, split: &spans::Split, trace_overhead_pct: f64) {
        let busy = split.busy_ns().max(1) as f64;
        let unattributed = split.self_ns("bench") as f64 / busy;
        self.set("bench.unattributed_share", unattributed);
        self.set("bench.trace_overhead_pct", trace_overhead_pct);
        for (layer, name) in SPLIT_LAYERS {
            self.set(name, split.self_ns(layer) as f64 / 1e6);
        }
        if unattributed > 0.10 {
            self.note(format!(
                "layer split: unreconciled ({:.1}% of busy traced time is in no layer)",
                unattributed * 100.0
            ));
            return;
        }
        self.note(format!(
            "layer split (self time, share of {:.1} ms busy traced thread time; idle waits apart):",
            busy / 1e6
        ));
        for (layer, _) in SPLIT_LAYERS {
            let (ns, n) = split.layers.get(*layer).copied().unwrap_or((0, 0));
            let share = if *layer == "idle" {
                String::from("  (idle)")
            } else {
                format!("{:>7.2}%", ns as f64 / busy * 100.0)
            };
            self.note(format!(
                "  {layer:<10} {:>11.3} ms {share}  ({n} spans/calls)",
                ns as f64 / 1e6
            ));
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload <serve_live|cluster_grid> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// A `/proc/self/status` field in kB (0 when unreadable).
pub fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// The process's peak resident set (`VmHWM`) so far, in MiB. Each
/// workload reads it where its measured work ends.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let mut out = match args.workload.as_str() {
        "serve_live" => serve_live::run(&args),
        "cluster_grid" => cluster_grid::run(&args),
        _ => return usage(),
    };
    out.set(
        "bench.failed_ratio",
        stats::ratio(out.failed as f64, out.attempted as f64),
    );
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans_{}_seed{}.jsonl", args.workload, args.seed));
        match spans::write_jsonl(&path) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out.check("write spans", false, e.to_string()),
        }
    }

    // A layer this workload does not exercise reads 0 in the traced
    // run; every end-to-end metric must be measured.
    let idle_layers: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(name, _)| !out.metrics.contains_key(name))
        .map(|(name, _)| *name)
        .collect();
    if args.trace && !idle_layers.is_empty() {
        out.note(format!(
            "not exercised by this workload (reported as 0): {}",
            idle_layers.join(" ")
        ));
        for name in idle_layers {
            out.set(name, 0.0);
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or_else(|| {
                missing.push(*name);
                f64::NAN
            });
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    if !missing.is_empty() {
        out.check("every metric measured", false, format!("{missing:?}"));
    }
    println!(
        "workload {}  seed {}  seconds {}  trace {}  threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &out.notes {
        println!("{line}");
    }
    for (name, passed, detail) in &out.checks {
        println!(
            "check {:<52} {}  {detail}",
            name,
            if *passed { "ok" } else { "FAILED" }
        );
    }
    println!(
        "attempted {}  failed {}  failed_ratio {}",
        out.attempted,
        out.failed,
        out.metrics
            .get("bench.failed_ratio")
            .copied()
            .unwrap_or(0.0)
    );
    for (set, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("-- {set} metrics");
        for (name, unit) in table {
            match out.metrics.get(name) {
                Some(v) => println!("  {name:<34} {v:>16.6} {unit}"),
                None => println!("  {name:<34} {:>16} {unit}", "-"),
            }
        }
    }

    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: a correctness check failed");
        ExitCode::FAILURE
    }
}
