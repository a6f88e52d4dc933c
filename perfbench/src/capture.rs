//! `multi-tap-capture`: the live path. One pcap file per vantage point is
//! decoded by `nettrace::pcap::read_records`, each feed gets its clock
//! skew corrected by `MergeSource::with_offset`, and
//! `deploy::run_tap_feed_replay` at pace 0 runs the k-way merge, the
//! `block` ingest queues, the router and one shard. Background flows
//! take the monitor's reject path.

use std::sync::Arc;
use std::time::Duration;

use cgc_core::{ModelBundle, ShardedMonitorConfig, ShardedTapMonitor, TapRecord};
use cgc_deploy::fleet::{run_tap_feed_replay, TapReplayOptions, TapReplayRun};
use cgc_ingest::{
    merge_sources, pcap_feed, BatchSink, IngestConfig, IngestEngine, MergeConfig, MergeSource,
    ReplayConfig,
};
use cgc_obs::journal::dropped_events;
use cgc_obs::{Journal, JournalConfig, Registry};
use nettrace::pcap::{read_records, PcapError, PcapRecord};
use nettrace::VirtualClock;

use crate::alloc::HeapRegion;
use crate::clock::Stamp;
use crate::estimator::{median, run_passes, ChunkMin};
use crate::inputs::{self, Capture};
use crate::layers;
use crate::report::Outcome;
use crate::tap::{self, per};
use crate::verify;
use crate::{setup, RunCtx};

fn sources(capture: &Capture, decoded: &[Vec<PcapRecord>]) -> Vec<MergeSource> {
    capture
        .taps
        .iter()
        .zip(decoded)
        .map(|(t, recs)| MergeSource::with_offset(t.label.clone(), -t.skew_us, pcap_feed(recs)))
        .collect()
}

/// One pass of the live path, capture files to session reports. Each
/// file's decode is a chunk of its own in `est`; the threaded rest of the
/// path (merge, queues, router, shard) is the last chunk.
fn live_pass(
    bundle: &Arc<ModelBundle>,
    capture: &Capture,
    est: &mut ChunkMin,
) -> Result<TapReplayRun, PcapError> {
    let mut decoded = Vec::with_capacity(capture.taps.len());
    for (i, t) in capture.taps.iter().enumerate() {
        let s = Stamp::now();
        decoded.push(read_records(&t.path)?);
        est.record(i, s.elapsed());
    }
    let s = Stamp::now();
    let sources = sources(capture, &decoded);
    drop(decoded);
    let run = run_tap_feed_replay(
        bundle,
        1,
        sources,
        VirtualClock::new().shared(),
        TapReplayOptions {
            replay: ReplayConfig::as_fast_as_possible(),
            ..TapReplayOptions::default()
        },
    );
    est.record(capture.taps.len(), s.elapsed());
    Ok(run)
}

/// A sink that only counts, so the engine row holds queue and router
/// cost alone.
struct CountSink(u64);

impl BatchSink for CountSink {
    type Output = u64;

    fn on_batch(&mut self, records: &[TapRecord]) {
        self.0 += records.len() as u64;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Chunks of the traced live path, timed one stage at a time.
const READ: usize = 0; // one chunk per vantage point from here
const MERGE: usize = inputs::CAPTURE_TAPS;
const ENGINE: usize = MERGE + 1;
const HANDOFF: usize = MERGE + 2;
const JOIN: usize = MERGE + 3;
const DRAIN: usize = MERGE + 4;
const STAGES: usize = MERGE + 5;

/// What the first traced stage-at-a-time pass observed.
struct StagedFirst {
    merged: Vec<TapRecord>,
    read_allocs: u64,
    late: u64,
    engine_dropped: u64,
    engine_delivered: u64,
    digest: Vec<String>,
    events: usize,
    flows: usize,
    journal_dropped: u64,
}

fn staged_passes(
    bundle: &Arc<ModelBundle>,
    capture: &Capture,
    budget: Duration,
) -> Result<(ChunkMin, StagedFirst), PcapError> {
    let mut est = ChunkMin::new(STAGES);
    let mut first: Option<StagedFirst> = None;
    let mut err = None;
    run_passes(budget, 2, 200, |_| {
        if err.is_some() {
            return;
        }
        let region = HeapRegion::start();
        let mut decoded = Vec::with_capacity(capture.taps.len());
        for (i, t) in capture.taps.iter().enumerate() {
            let s = Stamp::now();
            match read_records(&t.path) {
                Ok(r) => decoded.push(r),
                Err(e) => {
                    err = Some(e);
                    return;
                }
            }
            est.record(READ + i, s.elapsed());
        }
        let read_allocs = region.allocations();
        let srcs = sources(capture, &decoded);
        drop(decoded);

        let merge_registry = Registry::new();
        let s = Stamp::now();
        let (merged, stats) = merge_sources(srcs, &MergeConfig::default(), Some(&merge_registry));
        est.record(MERGE, s.elapsed());

        let engine_registry = Registry::new();
        let engine = IngestEngine::start(CountSink(0), IngestConfig::default(), &engine_registry);
        let producer = engine.producer();
        let s = Stamp::now();
        for r in &merged {
            producer.push_record(*r);
        }
        drop(producer);
        let engine_run = engine.shutdown();
        est.record(ENGINE, s.elapsed());

        let registry = Registry::new();
        let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
        let mut shard = ShardedTapMonitor::with_registry_and_journal(
            Arc::clone(bundle),
            ShardedMonitorConfig::with_shards(1),
            &registry,
            sink.clone(),
        );
        let s = Stamp::now();
        for (ts, tuple, len) in &merged {
            shard.ingest(*ts, tuple, *len);
        }
        est.record(HANDOFF, s.elapsed());
        let s = Stamp::now();
        let (sessions, _stats) = shard.finish_all();
        est.record(JOIN, s.elapsed());
        let journal_dropped = dropped_events(&sink);
        let s = Stamp::now();
        let timelines = journal.into_timelines();
        est.record(DRAIN, s.elapsed());
        est.end_pass();

        if first.is_none() {
            first = Some(StagedFirst {
                merged,
                read_allocs,
                late: stats.late_total(),
                engine_dropped: engine_run.dropped,
                engine_delivered: engine_run.output,
                digest: verify::digest(&sessions),
                events: timelines.iter().map(|t| t.events.len()).sum(),
                flows: timelines.len(),
                journal_dropped,
            });
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok((est, first.expect("at least one pass"))),
    }
}

/// The `multi-tap-capture` workload.
pub fn multi_tap_capture(ctx: &RunCtx) -> Result<Outcome, String> {
    let setup = setup(ctx, |_| {}).map_err(|e| format!("loading {}: {e}", crate::BUNDLE_PATH))?;
    let dir = ctx.root.join(".bench_data").join("capture");
    let capture = inputs::multi_tap_capture(ctx.seed, &dir)
        .map_err(|e| format!("writing the capture under {}: {e}", dir.display()))?;
    let load_ms = setup.load_ms;
    let setup_s = setup.setup_s;
    let bundle = Arc::new(setup.bundle);
    let records = capture.records();
    let gaming: u64 = capture.sessions.iter().map(|s| s.records).sum();
    let mut out = Outcome {
        attempted: records + capture.sessions.len() as u64,
        ..Outcome::default()
    };
    out.note(format!(
        "multi-tap-capture: {} vantage points, {} gaming sessions, {records} records \
         ({} background), {:.0} MB of pcap; live path with 1 shard",
        capture.taps.len(),
        capture.sessions.len(),
        capture.background_records,
        capture.bytes as f64 / 1e6
    ));

    let mut est = ChunkMin::new(capture.taps.len() + 1);
    let mut peaks = Vec::with_capacity(256);
    let mut first: Option<(TapReplayRun, Vec<String>)> = None;
    let mut repeatable = true;
    let mut err = None;
    run_passes(ctx.e2e_budget(), 3, 200, |_| {
        if err.is_some() {
            return;
        }
        let region = HeapRegion::start();
        let run = match live_pass(&bundle, &capture, &mut est) {
            Ok(run) => run,
            Err(e) => {
                err = Some(e);
                return;
            }
        };
        est.end_pass();
        peaks.push(region.peak_bytes() as f64);
        let digest = verify::digest(&run.fleet.sessions);
        match &first {
            None => first = Some((run, digest)),
            Some((_, d)) => repeatable &= digest == *d,
        }
    });
    if let Some(e) = err {
        return Err(format!("decoding the capture: {e}"));
    }
    let (live, live_digest) = first.expect("at least one pass");
    let journal_dropped = live
        .fleet
        .snapshot
        .counter("cgc_journal_dropped_events_total")
        .unwrap_or(0);
    let check = verify::check_tap(
        &capture.sessions,
        &live.fleet.sessions,
        &live.fleet.timelines,
        journal_dropped,
    );
    out.failed = check.failed_sessions + live.dropped + (records - live.replay.released);
    out.correct = repeatable && live.enqueued == records && live.handed_off == records;
    if !repeatable {
        out.note("check failed: passes produced different reports");
    }
    tap::report_scores(&mut out, &check);
    let total = est.total();
    out.note(format!("e2e passes: {}", est.passes()));
    if !ctx.trace {
        out.set(
            "records_per_s",
            records as f64 / (total.wall_ns as f64 / 1e9),
        );
        out.set("cpu_ns_per_record", per(total, records));
        out.set("peak_heap_mb", median(&peaks).expect("passes") / 1e6);
        out.set("setup_s", setup_s);
        return Ok(out);
    }
    drop(live);

    let budget = ctx.layer_budget();
    let (staged, sf) = staged_passes(&bundle, &capture, budget.mul_f64(0.4))
        .map_err(|e| format!("decoding the capture: {e}"))?;
    if sf.digest != live_digest {
        out.correct = false;
        out.note("check failed: stage-at-a-time shard reports differ from the live path");
    }
    // The single-threaded baseline: the merged records through one serial
    // monitor must reproduce the threaded path's reports exactly.
    let feed = inputs::compact_feed(&sf.merged, &capture.sessions);
    drop(sf.merged);
    let serial = tap::monitor_passes(&bundle, &feed, budget.mul_f64(0.2));
    if verify::digest(&serial.first.sessions) != live_digest {
        out.correct = false;
        out.note("check failed: serial monitor reports differ from the threaded live path");
    }
    if serial.first.stats.ignored_packets != capture.background_records
        || serial.first.stats.ingested_packets != gaming
    {
        out.correct = false;
        out.note(format!(
            "check failed: serial monitor ingested {} and ignored {} records, expected {gaming} and {}",
            serial.first.stats.ingested_packets,
            serial.first.stats.ignored_packets,
            capture.background_records
        ));
    }
    if sf.engine_delivered != records {
        out.correct = false;
        out.note(format!(
            "check failed: engine delivered {} of {records} records",
            sf.engine_delivered
        ));
    }
    let push = tap::push_packet_cost(&bundle, &feed, budget.mul_f64(0.15));
    let flows = layers::flows_from_feed(&feed);
    let ledger = layers::measure_slot_path(&bundle, &flows, budget.mul_f64(0.25));
    tap::report_monitor_rows(&mut out, &feed, &serial, push);
    layers::report_slot_rows(&mut out, &ledger);

    let read = staged.total_of(READ..MERGE);
    out.set("nettrace.pcap.read_ns_per_record", per(read, records));
    out.set(
        "nettrace.pcap.allocs_per_record",
        sf.read_allocs as f64 / records as f64,
    );
    out.set(
        "ingest.merge.ns_per_record",
        per(staged.total_of(MERGE..ENGINE), records),
    );
    out.set("ingest.merge.late_records", sf.late as f64);
    out.set(
        "ingest.engine.push_ns_per_record",
        per(staged.total_of(ENGINE..HANDOFF), records),
    );
    out.set("ingest.engine.dropped_records", sf.engine_dropped as f64);
    out.set(
        "core.shard.handoff_ns_per_record",
        per(staged.total_of(HANDOFF..JOIN), records),
    );
    out.set(
        "core.shard.join_ms",
        staged.total_of(JOIN..DRAIN).wall_ns as f64 / 1e6,
    );
    // The live path's journal is the shard's, not the serial baseline's.
    out.set(
        "obs.journal.events_per_flow",
        sf.events as f64 / sf.flows.max(1) as f64,
    );
    out.set("obs.journal.dropped_events", sf.journal_dropped as f64);
    out.set(
        "obs.journal.drain_ms",
        staged.total_of(DRAIN..STAGES).wall_ns as f64 / 1e6,
    );
    out.set("core.bundle.load_ms", load_ms);
    let rows = staged.total();
    out.set(
        "unattributed_ns_per_record",
        per(total, records) - per(rows, records),
    );
    out.set(
        "trace_overhead_pct",
        100.0 * (rows.wall_ns as f64 / total.wall_ns as f64 - 1.0),
    );
    Ok(out)
}
