//! # specbench
//!
//! One command that measures `specc` the way it is used: every end-to-end
//! number comes from driving the real release binary as a subprocess
//! (`specc --serve` for the compile-service workloads, one-shot `specc
//! --sim` for the paper kernels), and a separate traced mode replays the
//! same traffic in-process, calling each layer's public functions in the
//! order `specc` calls them, to split the time by layer.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how each layer metric maps to an end-to-end one.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod probe;
pub mod run;
pub mod specc;
pub mod stats;
pub mod trace;
pub mod traced;

use json::Json;
use std::path::PathBuf;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A stream of fresh mega modules through one `specc --serve` without
    /// a cache: every request is a full optimizer run.
    MegaCold,
    /// One evolving mega module through one `specc --serve`: mostly cache
    /// hits, with a full recompile every 4th request.
    ServeEdits,
    /// The eight paper kernels, O3 baseline vs paper config on both
    /// targets, as one-shot `specc --sim` runs.
    KernelsSim,
}

impl Workload {
    /// The `--all` order. kernels-sim goes first: its peak memory is read
    /// from one-shot children, whose reading is at least this process's
    /// resident set, and the serve workloads leave that larger than a
    /// kernel run.
    pub const ALL: [Workload; 3] = [
        Workload::KernelsSim,
        Workload::MegaCold,
        Workload::ServeEdits,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MegaCold => "mega-cold",
            Workload::ServeEdits => "serve-edits",
            Workload::KernelsSim => "kernels-sim",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the service runs with a compile cache. Only serve-edits
    /// does: mega-cold's modules never repeat, so a cache could only add
    /// write-back, and creating thousands of small files a second is the
    /// noisiest thing a disk-backed work directory does.
    pub fn cached(self) -> bool {
        self == Workload::ServeEdits
    }
}

/// Settings of one benchmark invocation.
pub struct RunCfg {
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Smoke mode: 3 requests per serve workload, small modules, one pass
    /// of Test-scale kernels.
    pub quick: bool,
    pub specc: PathBuf,
    /// Scratch directory for inputs, outputs and caches.
    pub work: PathBuf,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// A deterministic count (or a ratio of counts) that must repeat
    /// exactly from run to run, as opposed to a timing with a noise band.
    pub exact: bool,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed samples behind the latency metrics.
    pub samples: usize,
    /// Requests (or units) sent, warm-ups excluded.
    pub attempted: u64,
    /// Requests that answered `err`, exited non-zero or mismatched.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload-specific structured detail for the JSONL record.
    pub detail: Vec<(String, Json)>,
    /// One line per failure, for the human report.
    pub problems: Vec<String>,
    /// Human-readable extra text (the traced layer table).
    pub text: String,
}

impl Outcome {
    /// Records a timing (or a value derived from one).
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            exact: false,
        });
    }

    /// Records a deterministic count.
    pub fn push_exact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            exact: true,
        });
    }

    /// Records a failed request with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
