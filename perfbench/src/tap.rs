//! `steady-gameplay`, and the serial-monitor pieces `multi-tap-capture`
//! shares: a tap feed fed from memory, in timestamp order, into one
//! serial `TapMonitor` with a flight-recorder journal attached the way
//! `run_tap_fleet` attaches it.

use std::hint::black_box;
use std::time::Duration;

use cgc_core::metrics::PipelineMetrics;
use cgc_core::{
    AnalyzerConfig, ModelBundle, MonitorConfig, MonitoredSession, QoeInputs, SessionAnalyzer,
    ShardStats, TapMonitor,
};
use cgc_obs::journal::dropped_events;
use cgc_obs::{EventSink, FlowTimeline, Journal, JournalConfig, Registry};
use nettrace::Packet;

use crate::alloc::HeapRegion;
use crate::clock::{Cost, Stamp};
use crate::estimator::{median, run_passes, ChunkMin};
use crate::inputs::{self, TapFeed};
use crate::layers;
use crate::report::Outcome;
use crate::verify;
use crate::{setup, RunCtx};

/// Records per timed chunk (about half a millisecond of monitor work):
/// finer chunks let the minimum catch shorter quiet spells on a shared
/// host.
pub const CHUNK: usize = 4096;

/// A serial monitor with its private registry and journal.
pub struct SerialMonitor<'b> {
    monitor: TapMonitor<'b>,
    journal: Journal,
    sink: EventSink,
    _registry: Registry,
}

/// Builds a [`SerialMonitor`] over `bundle` (the monitor workloads'
/// set-up step).
pub fn serial_monitor(bundle: &ModelBundle) -> SerialMonitor<'_> {
    let registry = Registry::new();
    let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
    let mut monitor = TapMonitor::with_registry(bundle, MonitorConfig::default(), &registry);
    monitor.set_journal(sink.clone());
    SerialMonitor {
        monitor,
        journal,
        sink,
        _registry: registry,
    }
}

/// What one monitor pass returned and cost.
#[derive(Debug)]
pub struct MonitorPass {
    /// Session reports from `finish_all`.
    pub sessions: Vec<MonitoredSession>,
    /// Journal timelines from `into_timelines`.
    pub timelines: Vec<FlowTimeline>,
    /// Events the journal dropped.
    pub journal_dropped: u64,
    /// Monitor counters after the last record.
    pub stats: ShardStats,
    /// Heap high-water above the pass's starting level, bytes.
    pub peak_bytes: usize,
    /// Allocation calls while ingesting.
    pub ingest_allocs: u64,
    /// Live heap growth over the ingest phase, bytes.
    pub heap_after_ingest: i64,
}

/// Repeated monitor passes over one feed.
#[derive(Debug)]
pub struct MonitorRun {
    /// Chunk minima: one chunk per [`CHUNK`] records, then `finish_all`,
    /// then the journal drain.
    pub est: ChunkMin,
    /// The first pass's outputs.
    pub first: MonitorPass,
    /// Every pass's heap high-water, bytes.
    pub peaks: Vec<f64>,
    /// Whether every pass produced the first pass's reports.
    pub repeatable: bool,
}

impl MonitorRun {
    fn ingest_chunks(&self, records: usize) -> usize {
        records.div_ceil(CHUNK)
    }

    /// Ingest, `finish_all` and drain costs.
    pub fn phases(&self, records: usize) -> (Cost, Cost, Cost) {
        let k = self.ingest_chunks(records);
        (
            self.est.total_of(0..k),
            self.est.total_of(k..k + 1),
            self.est.total_of(k + 1..k + 2),
        )
    }
}

fn monitor_pass(mut m: SerialMonitor<'_>, feed: &TapFeed, est: &mut ChunkMin) -> MonitorPass {
    let k = feed.recs.len().div_ceil(CHUNK);
    let region = HeapRegion::start();
    for (c, chunk) in feed.recs.chunks(CHUNK).enumerate() {
        let s = Stamp::now();
        for r in chunk {
            m.monitor
                .ingest(r.ts, &feed.tuples[r.tuple as usize], r.len);
        }
        est.record(c, s.elapsed());
    }
    let ingest_allocs = region.allocations();
    let heap_after_ingest = region.live_delta();
    let stats = m.monitor.stats();
    let s = Stamp::now();
    let sessions = m.monitor.finish_all();
    est.record(k, s.elapsed());
    let journal_dropped = dropped_events(&m.sink);
    let s = Stamp::now();
    let timelines = m.journal.into_timelines();
    est.record(k + 1, s.elapsed());
    est.end_pass();
    MonitorPass {
        sessions,
        timelines,
        journal_dropped,
        stats,
        peak_bytes: region.peak_bytes(),
        ingest_allocs,
        heap_after_ingest,
    }
}

/// Runs fresh-monitor passes over `feed` for about `budget`.
pub fn monitor_passes(bundle: &ModelBundle, feed: &TapFeed, budget: Duration) -> MonitorRun {
    let mut est = ChunkMin::new(feed.recs.len().div_ceil(CHUNK) + 2);
    let mut first: Option<(MonitorPass, Vec<String>)> = None;
    let mut peaks = Vec::with_capacity(256);
    let mut repeatable = true;
    run_passes(budget, 3, 200, |_| {
        let monitor = serial_monitor(bundle);
        let pass = monitor_pass(monitor, feed, &mut est);
        peaks.push(pass.peak_bytes as f64);
        match &first {
            None => {
                let d = verify::digest(&pass.sessions);
                first = Some((pass, d));
            }
            Some((_, d)) => repeatable &= verify::digest(&pass.sessions) == *d,
        }
    });
    MonitorRun {
        est,
        first: first.expect("at least one pass").0,
        peaks,
        repeatable,
    }
}

/// `SessionAnalyzer::push_packet` over the feed's gaming records, flows
/// demultiplexed by the benchmark (each analyzer journalled like the
/// monitor's): the monitor's cost without the monitor.
pub fn push_packet_cost(bundle: &ModelBundle, feed: &TapFeed, budget: Duration) -> Cost {
    let mut est = ChunkMin::new(feed.recs.len().div_ceil(CHUNK));
    run_passes(budget, 2, 200, |_| {
        let registry = Registry::new();
        let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
        let metrics = PipelineMetrics::register(&registry);
        let mut analyzers: Vec<SessionAnalyzer<'_>> = feed
            .sessions
            .iter()
            .map(|s| {
                let mut a = SessionAnalyzer::with_metrics(
                    bundle,
                    AnalyzerConfig::default(),
                    QoeInputs::default(),
                    metrics.clone(),
                );
                a.attach_journal(sink.clone(), s.tuple.flow_id(), s.start);
                a
            })
            .collect();
        for (c, chunk) in feed.recs.chunks(CHUNK).enumerate() {
            let s = Stamp::now();
            for r in chunk {
                if let Some((f, dir)) = feed.flow_of[r.tuple as usize] {
                    let mut pkt = Packet::new(r.ts - feed.sessions[f].start, dir, r.len);
                    pkt.marker = false;
                    analyzers[f].push_packet(&pkt);
                }
            }
            est.record(c, s.elapsed());
        }
        est.end_pass();
        for a in analyzers {
            black_box(a.finish());
        }
        drop(journal);
    });
    est.total()
}

/// Per-record rate of a cost.
pub fn per(c: Cost, n: u64) -> f64 {
    c.cpu_ns as f64 / n.max(1) as f64
}

/// Sets the serial-monitor, push-packet and journal rows of a traced run
/// from serial monitor passes over `feed`.
pub fn report_monitor_rows(out: &mut Outcome, feed: &TapFeed, run: &MonitorRun, push: Cost) {
    let records = feed.recs.len() as u64;
    let (ingest, finish, drain) = run.phases(feed.recs.len());
    let flows = run.first.sessions.len().max(1) as f64;
    out.set("core.monitor.ingest_ns_per_record", per(ingest, records));
    out.set(
        "core.monitor.allocs_per_record",
        run.first.ingest_allocs as f64 / records.max(1) as f64,
    );
    out.set(
        "core.monitor.finish_ns_per_flow",
        finish.cpu_ns as f64 / flows,
    );
    out.set(
        "core.monitor.heap_bytes_per_flow",
        run.first.heap_after_ingest as f64 / run.first.stats.active_flows.max(1) as f64,
    );
    out.set(
        "core.monitor.ignored_records",
        run.first.stats.ignored_packets as f64,
    );
    out.set(
        "core.pipeline.push_packet_ns_per_record",
        per(push, records),
    );
    let events: usize = run.first.timelines.iter().map(|t| t.events.len()).sum();
    out.set(
        "obs.journal.events_per_flow",
        events as f64 / run.first.timelines.len().max(1) as f64,
    );
    out.set(
        "obs.journal.dropped_events",
        run.first.journal_dropped as f64,
    );
    out.set("obs.journal.drain_ms", drain.wall_ns as f64 / 1e6);
}

/// Sets the guard metrics of a tap workload from a checked run.
pub fn report_scores(out: &mut Outcome, check: &verify::TapCheck) {
    let s = &check.scores;
    out.set("title_accuracy_pct", s.title_accuracy_pct());
    out.set("stage_accuracy_pct", s.stage_accuracy_pct());
    out.set("pattern_accuracy_pct", s.pattern_accuracy_pct());
    out.note(s.pattern_timing());
    if !check.journal_complete {
        out.note("journal dropped events: title-verdict timing not verified this run");
    }
    for p in &check.problems {
        out.note(format!("check failed: {p}"));
    }
}

/// The `steady-gameplay` workload.
pub fn steady_gameplay(ctx: &RunCtx) -> Result<Outcome, String> {
    let setup = setup(ctx, |b| drop(black_box(serial_monitor(b))))
        .map_err(|e| format!("loading {}: {e}", crate::BUNDLE_PATH))?;
    let feed = inputs::steady_gameplay(ctx.seed);
    let bundle = &setup.bundle;
    let records = feed.recs.len() as u64;
    let mut out = Outcome {
        attempted: records + feed.sessions.len() as u64,
        ..Outcome::default()
    };
    out.note(format!(
        "steady-gameplay: {} sessions, {} records, serial TapMonitor",
        feed.sessions.len(),
        records
    ));

    let e2e = monitor_passes(bundle, &feed, ctx.e2e_budget());
    let check = verify::check_tap(
        &feed.sessions,
        &e2e.first.sessions,
        &e2e.first.timelines,
        e2e.first.journal_dropped,
    );
    let dropped = records - e2e.first.stats.ingested_packets;
    out.failed = check.failed_sessions + dropped;
    out.correct = e2e.repeatable && e2e.first.stats.ignored_packets == 0;
    if !e2e.repeatable {
        out.note("check failed: passes produced different reports");
    }
    report_scores(&mut out, &check);
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

    // The monitor rows come from the untraced passes above; the traced
    // run adds the demultiplexed analyzers and the slot path.
    let budget = ctx.layer_budget();
    let push = push_packet_cost(bundle, &feed, budget.mul_f64(0.5));
    let flows = layers::flows_from_feed(&feed);
    let ledger = layers::measure_slot_path(bundle, &flows, budget.mul_f64(0.5));
    report_monitor_rows(&mut out, &feed, &e2e, push);
    layers::report_slot_rows(&mut out, &ledger);
    out.set("core.bundle.load_ms", setup.load_ms);
    // Disjoint rows: the analyzers without the monitor, then the
    // monitor's `finish_all` and the journal drain. The gap is the
    // monitor's own per-record work (filter, flow table, expiry).
    let (_, finish, drain) = e2e.phases(feed.recs.len());
    let rows = push.plus(finish).plus(drain);
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
