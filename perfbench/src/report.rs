//! Metric names, the machine fingerprint, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "1/s"),
    ("cpu_ns_per_record", "ns"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
    ("title_accuracy_pct", "%"),
    ("stage_accuracy_pct", "%"),
    ("pattern_accuracy_pct", "%"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nettrace.pcap.read_ns_per_record", "ns"),
    ("nettrace.pcap.allocs_per_record", "count"),
    ("ingest.merge.ns_per_record", "ns"),
    ("ingest.merge.late_records", "count"),
    ("ingest.engine.push_ns_per_record", "ns"),
    ("ingest.engine.dropped_records", "count"),
    ("core.shard.handoff_ns_per_record", "ns"),
    ("core.shard.join_ms", "ms"),
    ("core.monitor.ingest_ns_per_record", "ns"),
    ("core.monitor.allocs_per_record", "count"),
    ("core.monitor.finish_ns_per_flow", "ns"),
    ("core.monitor.heap_bytes_per_flow", "B"),
    ("core.monitor.ignored_records", "count"),
    ("core.pipeline.push_packet_ns_per_record", "ns"),
    ("core.pipeline.analyze_ns_per_slot", "ns"),
    ("features.stage_push_ns_per_slot", "ns"),
    ("core.stage.classify_ns_per_slot", "ns"),
    ("core.pattern.push_ns_per_slot", "ns"),
    ("core.qoe.ns_per_slot", "ns"),
    ("core.title.classify_ns_per_flow", "ns"),
    ("obs.journal.events_per_flow", "count"),
    ("obs.journal.dropped_events", "count"),
    ("obs.journal.drain_ms", "ms"),
    ("core.bundle.load_ms", "ms"),
    ("unattributed_ns_per_record", "ns"),
    ("trace_overhead_pct", "%"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: input records plus generated sessions.
    pub attempted: u64,
    /// Records dropped plus sessions that failed a check.
    pub failed: u64,
    /// Measured values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name` (which must be in `END_TO_END` or `PER_LAYER`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result: the notes, a metric table with units, and, last, the
    /// JSON object. A metric the run could not measure makes it
    /// incorrect; per-layer rows not on the workload's path read 0.
    pub fn render(mut self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut values = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let v = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(_) | None if trace => 0.0,
                _ => {
                    self.correct = false;
                    self.notes.push(format!("{name} was not measured"));
                    f64::NAN
                }
            };
            values.push((*name, v, *unit));
        }
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (name, v, unit) in &values {
            let _ = writeln!(out, "  {name:<42} {v:>16.4} {unit}");
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // NaN only reaches here for an unmeasured end-to-end metric,
            // which already made the run incorrect; JSON has no NaN.
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// CPU model, available parallelism and compiler: figures are comparable
/// only between runs with the same fingerprint.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "fingerprint: cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_last_and_lists_every_end_to_end_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let out = o.render(false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(last.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_makes_the_run_incorrect() {
        let o = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        assert!(o
            .render(false)
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\": false"));
    }

    #[test]
    fn per_layer_rows_off_the_path_read_zero() {
        let o = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        let last = o.render(true).lines().last().unwrap().to_string();
        assert!(last.contains("\"correct\": true"));
        assert!(last.contains("\"ingest.merge.late_records\": {\"value\": 0.0"));
    }
}
