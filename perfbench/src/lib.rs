//! Packet-to-verdict benchmark for the gamescope pipeline.
//!
//! Three workloads drive the program's public API from outside:
//!
//! * `steady-gameplay`: full-packet sessions interleaved on one tap, fed
//!   from memory into one serial `TapMonitor`: the per-packet hot path.
//! * `fleet-volumetric`: launch-window packets plus 1 s volumetric
//!   series through `SessionAnalyzer::analyze`: the deployment form,
//!   where features, forests, pattern and QoE are the whole cost.
//! * `multi-tap-capture`: one pcap file per vantage point, decoded and
//!   k-way merged with clock-skew offsets, then replayed through the live
//!   ingest engine into a shard: the threaded live path.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run on the same inputs that times each layer's public calls.

pub mod alloc;
mod capture;
mod clock;
mod estimator;
mod fleet;
mod inputs;
mod layers;
pub mod report;
mod tap;
mod verify;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cgc_core::ModelBundle;

use crate::estimator::median;

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["steady-gameplay", "fleet-volumetric", "multi-tap-capture"];

/// Where the committed model bundle lives, relative to the checkout root.
pub const BUNDLE_PATH: &str = "results/bundle.json";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Share of `--seconds` a traced run spends re-measuring the untraced
/// end-to-end path (for `unattributed_ns_per_record` and
/// `trace_overhead_pct`); the rest goes to the layers.
pub const TRACED_E2E_SHARE: f64 = 0.4;

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Checkout root: the bundle is read from here and scratch files are
    /// written under it.
    pub root: PathBuf,
}

impl RunCtx {
    /// Budget of the end-to-end measurement in this run.
    pub fn e2e_budget(&self) -> Duration {
        if self.trace {
            self.seconds.mul_f64(TRACED_E2E_SHARE)
        } else {
            self.seconds
        }
    }

    /// Budget of the layer measurements of a traced run.
    pub fn layer_budget(&self) -> Duration {
        self.seconds.mul_f64(1.0 - TRACED_E2E_SHARE)
    }
}

/// Set-up cost of a workload: loading the committed bundle plus building
/// what must exist before the first record.
#[derive(Debug)]
pub struct Setup {
    /// The bundle of the last repetition, kept for the run.
    pub bundle: ModelBundle,
    /// Median of bundle load plus construction, seconds.
    pub setup_s: f64,
    /// Median of the bundle load alone, milliseconds.
    pub load_ms: f64,
}

/// Loads the bundle and runs `construct` on it [`SETUP_REPEATS`] times,
/// reporting medians. Workloads call it first, before generating inputs,
/// so that neither freed input memory nor capture write-back lands in it.
pub fn setup(ctx: &RunCtx, mut construct: impl FnMut(&ModelBundle)) -> std::io::Result<Setup> {
    let path = ctx.root.join(BUNDLE_PATH);
    let mut totals = Vec::with_capacity(SETUP_REPEATS);
    let mut loads = Vec::with_capacity(SETUP_REPEATS);
    let mut bundle = None;
    for _ in 0..SETUP_REPEATS {
        drop(bundle.take());
        let t = Instant::now();
        let b = ModelBundle::load(&path)?;
        let loaded = t.elapsed();
        construct(&b);
        totals.push(t.elapsed().as_secs_f64());
        loads.push(loaded.as_secs_f64() * 1e3);
        bundle = Some(b);
    }
    Ok(Setup {
        bundle: bundle.expect("at least one repetition"),
        setup_s: median(&totals).expect("repetitions"),
        load_ms: median(&loads).expect("repetitions"),
    })
}

/// Runs workload `name`; `Err` for an unknown name or unusable checkout.
pub fn run(name: &str, ctx: &RunCtx) -> Result<report::Outcome, String> {
    match name {
        "steady-gameplay" => tap::steady_gameplay(ctx),
        "fleet-volumetric" => fleet::fleet_volumetric(ctx),
        "multi-tap-capture" => capture::multi_tap_capture(ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
