//! The slot path, one layer at a time: title forest, stage features,
//! stage forest, pattern tracker and QoE labelling, plus the analyzer
//! that runs them together. Used by every workload's traced run.

use std::hint::black_box;
use std::time::Duration;

use cgc_core::{
    effective_qoe, objective_qoe, AnalyzerConfig, GameContext, ModelBundle, PatternTracker,
    QoeInputs, QosMetrics, SessionAnalyzer,
};
use cgc_domain::{ActivityPattern, GameTitle, Stage};
use cgc_features::vol_attrs::{raw_features, StageFeatureExtractor, N_STAGE_FEATURES};
use nettrace::{Packet, VolSample, VolSeries};

use crate::clock::{Cost, Stamp};
use crate::estimator::{run_passes, ChunkMin};
use crate::inputs::{TapFeed, SLOT, TITLE_WINDOW};

/// What one flow's analyzer receives on the slot path.
#[derive(Debug, Clone)]
pub struct FlowSlots {
    /// Packets inside the title window, flow-relative.
    pub window: Vec<Packet>,
    /// 1 s volumetric slots from the flow's first record.
    pub vol: VolSeries,
    /// QoS context for QoE labelling.
    pub qoe: QoeInputs,
}

/// Demultiplexes a tap feed's gaming flows into slot-path inputs, the way
/// the monitor rebases each flow to its first record.
pub fn flows_from_feed(feed: &TapFeed) -> Vec<FlowSlots> {
    let mut flows: Vec<FlowSlots> = feed
        .sessions
        .iter()
        .map(|s| FlowSlots {
            window: Vec::new(),
            vol: VolSeries::from_samples(vec![VolSample::default(); s.expected_slots()], 0, SLOT),
            qoe: QoeInputs::default(),
        })
        .collect();
    for r in &feed.recs {
        let Some((f, dir)) = feed.flow_of[r.tuple as usize] else {
            continue;
        };
        let rel = r.ts - feed.sessions[f].start;
        let mut pkt = Packet::new(rel, dir, r.len);
        pkt.marker = false;
        if rel < TITLE_WINDOW {
            flows[f].window.push(pkt);
        }
        flows[f].vol.samples[(rel / SLOT) as usize].add(&pkt);
    }
    flows
}

/// Per-layer costs of the slot path over a set of flows, each the sum of
/// per-flow minima over identical passes.
#[derive(Debug, Clone, Default)]
pub struct SlotLedger {
    /// `TitleClassifier::classify_scored` on the title window.
    pub title: Cost,
    /// `StageFeatureExtractor` construction (peak seeding) and `push`.
    pub features: Cost,
    /// `StageClassifier::classify`.
    pub stage: Cost,
    /// `PatternTracker::push`.
    pub pattern: Cost,
    /// `objective_qoe` + `effective_qoe`, with their per-slot inputs.
    pub qoe: Cost,
    /// `SessionAnalyzer::analyze` + `finish`: all of the above together.
    pub analyze: Cost,
    /// Flows measured.
    pub flows: u64,
    /// All slots.
    pub slots: u64,
    /// Slots after peak seeding (the ones classified).
    pub classified_slots: u64,
}

impl SlotLedger {
    /// The leaf rows, which do not overlap: their sum against `analyze`
    /// shows the analyzer's own overhead.
    pub fn leaves(&self) -> Cost {
        self.title
            .plus(self.features)
            .plus(self.stage)
            .plus(self.pattern)
            .plus(self.qoe)
    }
}

/// Times each slot-path layer over `flows` in repeated passes for about
/// `budget`.
pub fn measure_slot_path(
    bundle: &ModelBundle,
    flows: &[FlowSlots],
    budget: Duration,
) -> SlotLedger {
    let seed_slots = AnalyzerConfig::default().seed_slots;
    let n = flows.len();
    let classified = |f: &FlowSlots| f.vol.len().saturating_sub(seed_slots);
    // Preallocated outputs, so the timed loops never grow a buffer.
    let mut titles: Vec<Option<GameTitle>> = vec![None; n];
    let mut feats: Vec<Vec<[f64; N_STAGE_FEATURES]>> = flows
        .iter()
        .map(|f| Vec::with_capacity(classified(f)))
        .collect();
    let mut stages: Vec<Vec<Stage>> = flows
        .iter()
        .map(|f| Vec::with_capacity(classified(f)))
        .collect();
    let mut decided: Vec<Vec<Option<ActivityPattern>>> = flows
        .iter()
        .map(|f| Vec::with_capacity(classified(f)))
        .collect();
    let mut est: Vec<ChunkMin> = (0..6).map(|_| ChunkMin::new(n)).collect();

    run_passes(budget, 3, 200, |_| {
        for (f, flow) in flows.iter().enumerate() {
            let s = Stamp::now();
            let (pred, margin) = bundle.title.classify_scored(&flow.window);
            est[0].record(f, s.elapsed());
            titles[f] = black_box(pred).title;
            black_box(margin);
        }
        for (f, flow) in flows.iter().enumerate() {
            feats[f].clear();
            if flow.vol.len() <= seed_slots {
                continue;
            }
            let s = Stamp::now();
            let mut ext = StageFeatureExtractor::new(
                &bundle.stage_feature,
                bundle.stage_slot,
                &flow.vol.samples[..seed_slots],
            );
            for sample in &flow.vol.samples[seed_slots..] {
                feats[f].push(ext.push(sample));
            }
            est[1].record(f, s.elapsed());
        }
        for f in 0..n {
            stages[f].clear();
            let s = Stamp::now();
            for x in &feats[f] {
                stages[f].push(bundle.stage.classify(x));
            }
            est[2].record(f, s.elapsed());
        }
        for f in 0..n {
            decided[f].clear();
            let s = Stamp::now();
            let mut tracker = PatternTracker::new();
            for &stage in &stages[f] {
                decided[f].push(tracker.push(stage, &bundle.pattern).map(|d| d.pattern));
            }
            est[3].record(f, s.elapsed());
        }
        for (f, flow) in flows.iter().enumerate() {
            let s = Stamp::now();
            for (k, &stage) in stages[f].iter().enumerate() {
                let raw = raw_features(&flow.vol.samples[seed_slots + k], SLOT as f64 / 1e6);
                let m = QosMetrics {
                    throughput_mbps: raw[0],
                    frame_rate: flow.qoe.nominal_fps
                        * flow.qoe.delivered_fps_ratio
                        * cgc_core::qoe::stage_fps_factor(stage),
                    latency_ms: flow.qoe.latency_ms,
                    loss_rate: flow.qoe.loss_rate,
                };
                let ctx = GameContext {
                    title: titles[f],
                    pattern: decided[f][k],
                    stage,
                    settings_factor: flow.qoe.settings_factor,
                    nominal_fps: flow.qoe.nominal_fps,
                };
                black_box(objective_qoe(&m, &bundle.thresholds));
                black_box(effective_qoe(
                    &m,
                    &ctx,
                    &bundle.calibration,
                    &bundle.thresholds,
                ));
            }
            est[4].record(f, s.elapsed());
        }
        for (f, flow) in flows.iter().enumerate() {
            let s = Stamp::now();
            let mut a = SessionAnalyzer::new(bundle, AnalyzerConfig::default(), flow.qoe);
            a.analyze(&flow.window, &flow.vol);
            black_box(a.finish());
            est[5].record(f, s.elapsed());
        }
        for e in &mut est {
            e.end_pass();
        }
    });

    SlotLedger {
        title: est[0].total(),
        features: est[1].total(),
        stage: est[2].total(),
        pattern: est[3].total(),
        qoe: est[4].total(),
        analyze: est[5].total(),
        flows: n as u64,
        slots: flows.iter().map(|f| f.vol.len() as u64).sum(),
        classified_slots: flows.iter().map(|f| classified(f) as u64).sum(),
    }
}

/// Sets the slot-path rows of a traced run.
pub fn report_slot_rows(out: &mut crate::report::Outcome, ledger: &SlotLedger) {
    let per = |c: Cost, n: u64| c.cpu_ns as f64 / n.max(1) as f64;
    out.set(
        "core.pipeline.analyze_ns_per_slot",
        per(ledger.analyze, ledger.slots),
    );
    out.set(
        "features.stage_push_ns_per_slot",
        per(ledger.features, ledger.classified_slots),
    );
    out.set(
        "core.stage.classify_ns_per_slot",
        per(ledger.stage, ledger.classified_slots),
    );
    out.set(
        "core.pattern.push_ns_per_slot",
        per(ledger.pattern, ledger.classified_slots),
    );
    out.set(
        "core.qoe.ns_per_slot",
        per(ledger.qoe, ledger.classified_slots),
    );
    out.set(
        "core.title.classify_ns_per_flow",
        per(ledger.title, ledger.flows),
    );
}
