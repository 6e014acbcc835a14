//! End-to-end and per-layer benchmark of the μDBSCAN workspace.
//!
//! The benchmark drives the workspace from outside, through its public
//! API only: `mudbscan::prelude::Runner` and `ServeHandle` for the
//! end-to-end numbers, and the public functions of each layer crate
//! (`mcs`, `mudbscan-core`, `partition`, `stream`) for the per-layer
//! numbers. See `README.md` in this directory for the workloads, every
//! metric with its unit, and which end-to-end metric each layer metric
//! should move.
//!
//! One call of [`run`] is one benchmark run: it generates the workload's
//! inputs from the seed, sets up, measures for the requested seconds,
//! verifies every timed operation outside its timed region, and returns
//! an [`Outcome`]. With tracing off the outcome carries the
//! [`catalog::END_TO_END`] metrics; with tracing on it carries the
//! [`catalog::PER_LAYER`] metrics, measured by a separate traced replay.

pub mod catalog;
pub mod galaxy;
pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod window;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Galaxy analogue, in-memory `Dataset`, Parallel and Sequential.
    GalaxyInmem,
    /// Galaxy analogue in a memory-mapped `ChunkedStore`, Sharded family.
    GalaxySharded,
    /// Household analogue served through `Runner::serve`.
    HouseholdWindow,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::GalaxyInmem, Workload::GalaxySharded, Workload::HouseholdWindow];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GalaxyInmem => "galaxy-inmem",
            Workload::GalaxySharded => "galaxy-sharded",
            Workload::HouseholdWindow => "household-window",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] runs
/// the same code paths in well under a second, for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Points of `galaxy-inmem`.
    pub inmem_n: usize,
    /// Points of `galaxy-sharded`.
    pub sharded_n: usize,
    /// Live points preloaded into each `household-window` window.
    pub window: usize,
    /// Independent windows one `household-window` run serves in turn.
    pub windows: usize,
    /// Fewest closed-loop batches `household-window` sends per run.
    pub min_batches: usize,
    /// Set-up repetitions whose median is `setup_s` on `galaxy-inmem`.
    /// One rep takes well under a millisecond, so the median covers
    /// hundreds.
    pub setup_reps: usize,
    /// Set-up repetitions whose median is `setup_s` on `galaxy-sharded`,
    /// each writing a fresh store file (`household-window` sets up once
    /// per window).
    pub store_setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            inmem_n: 400_000,
            sharded_n: 1_000_000,
            window: 5_000,
            windows: 12,
            min_batches: 1_000,
            setup_reps: 301,
            store_setup_reps: 7,
        }
    }

    /// Test sizes: same code paths, small inputs.
    pub fn tiny() -> Scale {
        Scale {
            inmem_n: 3_000,
            sharded_n: 6_000,
            window: 400,
            windows: 2,
            min_batches: 40,
            setup_reps: 3,
            store_setup_reps: 2,
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed phase measures for.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for the files a run writes (the chunk store, serving
    /// postmortems). Created if missing; the run removes what it wrote.
    pub scratch: PathBuf,
    /// Flip one core flag of every clustering before it is verified.
    /// Exists so the tests can show that verification fails and the
    /// failure is counted.
    pub corrupt: bool,
}

impl Options {
    /// Options for `workload` at full scale with the default scratch
    /// directory.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::full(),
            scratch: PathBuf::from(".bench_build/perfbench-scratch"),
            corrupt: false,
        }
    }
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in [`catalog`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Number of samples behind the value (1 for a single measurement
    /// or a count).
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (timed operations and verifications).
    pub attempted: u64,
    /// Operations that returned an error or failed verification.
    pub failed: u64,
    /// The declared metrics of the run's mode, in catalog order.
    pub metrics: Vec<Metric>,
    /// Further values for the full report only (sample counts of
    /// secondary timings, shard plan, span totals).
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Look a declared or extra metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().chain(&self.extra).find(|m| m.name == name)
    }
}

/// Run one benchmark run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch.display()))?;
    match opts.workload {
        Workload::GalaxyInmem => galaxy::run_inmem(opts),
        Workload::GalaxySharded => galaxy::run_sharded(opts),
        Workload::HouseholdWindow => window::run(opts),
    }
}

/// Worker threads the multi-threaded arms use: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
