//! `fleet-volumetric`: the deployment's per-session analysis,
//! `SessionAnalyzer::analyze` over the title window's packets and a 1 s
//! volumetric series, then `finish`, for every session in turn (the
//! inner work of `deploy::run_fleet`, generation excluded). A record is
//! one 1 s volumetric sample.

use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::time::Duration;

use cgc_core::{AnalyzerConfig, ModelBundle, SessionAnalyzer, SessionReport};

use crate::alloc::HeapRegion;
use crate::clock::Stamp;
use crate::estimator::{median, run_passes, ChunkMin};
use crate::inputs::{self, FleetSession};
use crate::layers::{self, FlowSlots};
use crate::report::Outcome;
use crate::tap::per;
use crate::verify::Scores;
use crate::{setup, RunCtx};

/// A hash of a report's full contents, computed without allocating.
fn report_hash(report: &SessionReport) -> u64 {
    struct HashWriter(DefaultHasher);
    impl fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{report:?}").expect("hashing never fails");
    w.0.finish()
}

struct FleetRun {
    /// One chunk per session.
    est: ChunkMin,
    peaks: Vec<f64>,
    /// Decision quality of the first pass's reports.
    scores: Scores,
    /// Sessions whose first-pass report failed a check.
    failed: u64,
    problems: Vec<String>,
    /// Whether every pass reproduced the first pass's reports.
    repeatable: bool,
}

/// Analyzes every session in fresh passes for about `budget`. Each report
/// is checked (first pass) or compared with the first pass's (later
/// passes) and dropped as it is returned, as a streaming deployment hands
/// reports on, so a pass's heap high-water is the analysis's own.
fn fleet_passes(bundle: &ModelBundle, sessions: &[FleetSession], budget: Duration) -> FleetRun {
    let n = sessions.len();
    let mut run = FleetRun {
        est: ChunkMin::new(n),
        peaks: Vec::with_capacity(256),
        scores: Scores::with_capacity(n),
        failed: 0,
        problems: Vec::new(),
        repeatable: true,
    };
    let mut hashes = vec![0u64; n];
    run_passes(budget, 3, 200, |pass| {
        let region = HeapRegion::start();
        for (i, s) in sessions.iter().enumerate() {
            let t = Stamp::now();
            let mut analyzer = SessionAnalyzer::new(bundle, AnalyzerConfig::default(), s.qoe);
            analyzer.analyze(&s.window, &s.vol);
            let report = analyzer.finish();
            run.est.record(i, t.elapsed());
            let h = report_hash(&report);
            if pass > 0 {
                run.repeatable &= hashes[i] == h;
                continue;
            }
            hashes[i] = h;
            // One report per session, a title verdict from its window,
            // and a stage for every slot of its series.
            let confidence = report.title.confidence;
            if report.stage_slots.len() != s.vol.len() || confidence.is_nan() || confidence <= 0.0 {
                run.failed += 1;
                run.problems.push(format!(
                    "session {i}: {} stage slots for {} slots, title confidence {confidence}",
                    report.stage_slots.len(),
                    s.vol.len(),
                ));
                continue;
            }
            run.scores.add(&s.kind, &s.timeline, 0, &report);
        }
        run.est.end_pass();
        run.peaks.push(region.peak_bytes() as f64);
    });
    run
}

/// The `fleet-volumetric` workload.
pub fn fleet_volumetric(ctx: &RunCtx) -> Result<Outcome, String> {
    let setup = setup(ctx, |_| {}).map_err(|e| format!("loading {}: {e}", crate::BUNDLE_PATH))?;
    let sessions = inputs::fleet_volumetric(ctx.seed);
    let bundle = &setup.bundle;
    let records: u64 = sessions.iter().map(|s| s.vol.len() as u64).sum();
    let mut out = Outcome {
        attempted: records + sessions.len() as u64,
        ..Outcome::default()
    };
    out.note(format!(
        "fleet-volumetric: {} sessions, {records} 1 s slots",
        sessions.len()
    ));

    let e2e = fleet_passes(bundle, &sessions, ctx.e2e_budget());
    for p in &e2e.problems {
        out.note(format!("check failed: {p}"));
    }
    out.failed = e2e.failed;
    out.correct = e2e.repeatable;
    if !e2e.repeatable {
        out.note("check failed: passes produced different reports");
    }
    let scores = &e2e.scores;
    out.set("title_accuracy_pct", scores.title_accuracy_pct());
    out.set("stage_accuracy_pct", scores.stage_accuracy_pct());
    out.set("pattern_accuracy_pct", scores.pattern_accuracy_pct());
    out.note(scores.pattern_timing());
    let total = e2e.est.total();
    out.note(format!("e2e passes: {}", e2e.est.passes()));
    if !ctx.trace {
        out.set(
            "records_per_s",
            records as f64 / (total.wall_ns as f64 / 1e9),
        );
        out.set("cpu_ns_per_record", per(total, records));
        out.set("peak_heap_mb", median(&e2e.peaks).expect("passes") / 1e6);
        out.set("setup_s", setup.setup_s);
        return Ok(out);
    }

    let flows: Vec<FlowSlots> = sessions
        .iter()
        .map(|s| FlowSlots {
            window: s.window.clone(),
            vol: s.vol.clone(),
            qoe: s.qoe,
        })
        .collect();
    let ledger = layers::measure_slot_path(bundle, &flows, ctx.layer_budget());
    layers::report_slot_rows(&mut out, &ledger);
    out.set("core.bundle.load_ms", setup.load_ms);
    out.set(
        "unattributed_ns_per_record",
        per(total, records) - per(ledger.leaves(), records),
    );
    out.set(
        "trace_overhead_pct",
        100.0 * (ledger.leaves().wall_ns as f64 / total.wall_ns as f64 - 1.0),
    );
    Ok(out)
}
