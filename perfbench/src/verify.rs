//! Output checks and the deterministic accuracy metrics.

use cgc_core::{MonitoredSession, SessionReport};
use cgc_obs::{EventKind, FlowTimeline};
use gamesim::{StageTimeline, TitleKind};
use nettrace::Micros;

use crate::estimator::median;
use crate::inputs::{Truth, TITLE_WINDOW};

/// Decision quality of one run against gamesim truth.
#[derive(Debug, Clone, Default)]
pub struct Scores {
    sessions: u64,
    titles_correct: u64,
    patterns_correct: u64,
    slots: u64,
    slots_correct: u64,
    pattern_decided_s: Vec<f64>,
}

impl Scores {
    /// Scores with room for `sessions` pattern decisions, so adding them
    /// does not allocate.
    pub fn with_capacity(sessions: usize) -> Scores {
        Scores {
            pattern_decided_s: Vec::with_capacity(sessions),
            ..Scores::default()
        }
    }

    /// Adds one session's report. `first_rel` is the session-relative
    /// time the report's slot 0 starts at.
    pub fn add(
        &mut self,
        kind: &TitleKind,
        timeline: &StageTimeline,
        first_rel: Micros,
        report: &SessionReport,
    ) {
        self.sessions += 1;
        // An unknown title counts as correct when reported unknown.
        if report.title.title == kind.known() {
            self.titles_correct += 1;
        }
        if report.final_pattern.map(|(p, _)| p) == Some(kind.pattern()) {
            self.patterns_correct += 1;
        }
        if let Some(p) = report.pattern {
            self.pattern_decided_s
                .push(p.decided_after_slots as f64 * report.slot_width as f64 / 1e6);
        }
        for (i, &stage) in report.stage_slots.iter().enumerate() {
            let mid = first_rel + i as u64 * report.slot_width + report.slot_width / 2;
            if let Some(truth) = timeline.stage_at(mid) {
                self.slots += 1;
                if truth == stage {
                    self.slots_correct += 1;
                }
            }
        }
    }

    /// Share of sessions whose title verdict matches the truth, %.
    pub fn title_accuracy_pct(&self) -> f64 {
        pct(self.titles_correct, self.sessions)
    }

    /// Share of truth-covered slots classified as their true stage, %.
    pub fn stage_accuracy_pct(&self) -> f64 {
        pct(self.slots_correct, self.slots)
    }

    /// Share of sessions whose session-end pattern matches the title's, %.
    pub fn pattern_accuracy_pct(&self) -> f64 {
        pct(self.patterns_correct, self.sessions)
    }

    /// Median stream time to a confident pattern decision (the 75 %
    /// gate), as a note line. It is not a metric: on the tap workloads,
    /// whose session library is fixed, it reads the same on every run.
    pub fn pattern_timing(&self) -> String {
        match median(&self.pattern_decided_s) {
            Some(t) => format!(
                "pattern decided after a median {t} s of stream time ({} of {} sessions)",
                self.pattern_decided_s.len(),
                self.sessions
            ),
            None => format!("no pattern decision in {} sessions", self.sessions),
        }
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// What checking one run's tap output found.
#[derive(Debug, Default)]
pub struct TapCheck {
    /// Sessions that failed a check (missing, duplicated, wrong bounds,
    /// stages not covering the flow, no title verdict).
    pub failed_sessions: u64,
    /// Why, one line per failure (first few only).
    pub problems: Vec<String>,
    /// Decision quality of the matched sessions.
    pub scores: Scores,
    /// Whether the journal could vouch for every title verdict (false
    /// when it dropped events).
    pub journal_complete: bool,
}

impl TapCheck {
    fn fail(&mut self, why: String) {
        self.failed_sessions += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }
}

/// Checks monitor output against the generated sessions: every session
/// yields exactly one report spanning its first to last record, with
/// stages for every slot it touched and a title decision journalled no
/// later than the title window after its first record. Reports of flows
/// that were never generated also fail.
pub fn check_tap(
    truths: &[Truth],
    sessions: &[MonitoredSession],
    timelines: &[FlowTimeline],
    journal_dropped: u64,
) -> TapCheck {
    let mut check = TapCheck {
        journal_complete: journal_dropped == 0,
        ..TapCheck::default()
    };
    let mut seen = vec![0u32; truths.len()];
    for m in sessions {
        match truths.iter().position(|t| t.tuple == m.tuple) {
            Some(i) => seen[i] += 1,
            None => check.fail(format!("report for an unknown flow {:?}", m.tuple)),
        }
    }
    for (i, truth) in truths.iter().enumerate() {
        if seen[i] != 1 {
            check.fail(format!("session {i}: {} reports", seen[i]));
            continue;
        }
        let m = sessions
            .iter()
            .find(|m| m.tuple == truth.tuple)
            .expect("seen once");
        if m.started_at != truth.start || m.last_seen != truth.last {
            check.fail(format!(
                "session {i}: bounds {}..{} != {}..{}",
                m.started_at, m.last_seen, truth.start, truth.last
            ));
            continue;
        }
        if m.report.stage_slots.len() != truth.expected_slots() {
            check.fail(format!(
                "session {i}: {} stage slots for {} slots of traffic",
                m.report.stage_slots.len(),
                truth.expected_slots()
            ));
            continue;
        }
        if check.journal_complete {
            let flow = truth.tuple.flow_id();
            let decided = timelines
                .iter()
                .find(|t| t.flow == flow)
                .and_then(|t| {
                    t.events
                        .iter()
                        .find(|e| matches!(e.kind, EventKind::TitleDecided { .. }))
                })
                .map(|e| e.ts);
            match decided {
                Some(ts) if ts.saturating_sub(truth.start) <= TITLE_WINDOW => {}
                Some(ts) => {
                    check.fail(format!(
                        "session {i}: title decided {} µs after the first record",
                        ts - truth.start
                    ));
                    continue;
                }
                None => {
                    check.fail(format!("session {i}: no title verdict in the journal"));
                    continue;
                }
            }
        }
        check
            .scores
            .add(&truth.kind, &truth.timeline, truth.first_rel, &m.report);
    }
    check
}

/// A digest of a run's session reports, independent of report order, for
/// comparing passes and paths.
pub fn digest(sessions: &[MonitoredSession]) -> Vec<String> {
    let mut d: Vec<String> = sessions
        .iter()
        .map(|m| {
            format!(
                "{:?} {} {} {:?}",
                m.tuple, m.started_at, m.last_seen, m.report
            )
        })
        .collect();
    d.sort();
    d
}
