//! The metric catalogue and the result line.
//!
//! End-to-end metrics are reported by every workload with tracing off;
//! per-layer metrics by every workload with tracing on, as 0 where the
//! workload does not exercise that layer (for example `symex.*` on the
//! fleet workloads). The names and units here are the ones `BENCHMARK.json`
//! declares.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). `latency_ms` is the time a user waits
/// for one unit of work: the median op latency on the fleet workloads, and
/// the fastest repetition on the single-threaded `icd_sim` and
/// `vet_images`, whose work is deterministic, so that the differences
/// between their repetitions are interference from the host.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: [(&str, &str); 80] = [
    // Load generator (validity of the measurement itself).
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.frames", "count"),
    // fleet::wire and the server loop.
    ("wire.frames_in", "count"),
    ("wire.frames_out", "count"),
    ("wire.bytes_in", "bytes"),
    ("wire.bytes_out", "bytes"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    // fleet::fleet: admission, run queue, resident cache.
    ("fleet.wait_p50_us", "us"),
    ("fleet.wait_p99_us", "us"),
    ("fleet.slices", "count"),
    ("fleet.ops_per_slice", "ops"),
    ("fleet.rehydrations", "count"),
    ("fleet.evictions", "count"),
    ("fleet.resident_hit_ratio", "ratio"),
    ("fleet.shed", "count"),
    // hw execution and boundary GC, through op-level calls.
    ("hw.exec_ns_per_op", "ns"),
    ("hw.cycles_per_op", "cycles"),
    ("hw.instructions_per_op", "count"),
    ("hw.ns_per_cycle", "ns"),
    ("hw.gc_ns_per_op", "ns"),
    ("hw.gc_cycles_per_op", "cycles"),
    ("hw.gc_share", "ratio"),
    // hw::snapshot.
    ("snapshot.hibernate_ns", "ns"),
    ("snapshot.rehydrate_ns", "ns"),
    ("snapshot.bytes", "bytes"),
    // store.
    ("store.put_ns", "ns"),
    ("store.hash_ns", "ns"),
    ("store.get_ns", "ns"),
    ("store.commits", "count"),
    ("store.full_commits", "count"),
    ("store.delta_commits", "count"),
    ("store.alias_commits", "count"),
    ("store.bytes_written", "bytes"),
    ("store.dedup_hits", "count"),
    ("store.io_events", "count"),
    // fleet::repl.
    ("repl.ship_ns", "ns"),
    ("repl.lag_max_commits", "count"),
    ("repl.commits_acked", "count"),
    ("repl.chunks_shipped", "count"),
    ("repl.bytes_shipped", "bytes"),
    ("repl.rejects", "count"),
    // verify.
    ("vet.integrity_ms", "ms"),
    ("vet.shape_ms", "ms"),
    ("vet.alloc_ms", "ms"),
    ("vet.wcet_ms", "ms"),
    ("vet.lint_ms", "ms"),
    ("vet.absint_iterations", "count"),
    ("vet.risc_ms.monitor", "ms"),
    ("vet.risc_ms.chanmon", "ms"),
    ("vet.load_certify_ms", "ms"),
    // symex.
    ("symex.ms.icd", "ms"),
    ("symex.ms.kernel", "ms"),
    ("symex.ms.session", "ms"),
    ("symex.paths", "count"),
    ("symex.steps", "count"),
    ("symex.terms", "count"),
    ("symex.summary_hit_ratio", "ratio"),
    ("symex.pool", "count"),
    // kernel / imperative: the two-layer system.
    ("sim.lambda_cycles", "cycles"),
    ("sim.instructions", "count"),
    ("sim.cpi", "cycles"),
    ("sim.cpi_with_gc", "cycles"),
    ("sim.gc_cycles", "cycles"),
    ("sim.gc_runs", "count"),
    ("sim.cpu_cycles", "cycles"),
    ("sim.cycles.io", "cycles"),
    ("sim.cycles.icd", "cycles"),
    ("sim.cycles.chan", "cycles"),
    ("sim.cycles.diag", "cycles"),
    ("sim.mutator_ns_per_iter", "ns"),
    ("sim.gc_ns_per_iter", "ns"),
    // The traced run itself.
    ("trace.unit_us", "us"),
    ("trace.self_sum_us", "us"),
    ("trace.glue_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.samples", "count"),
    ("trace.e2e_p50_ms", "ms"),
    ("trace.e2e_p99_ms", "ms"),
    ("trace.failed_ratio", "ratio"),
];

/// What one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops (or verdicts, or runs) attempted and checked.
    pub attempted: u64,
    /// Ops that failed, were refused, or disagreed with the known answer.
    pub failed: u64,
    /// Known-answer mismatches and errors, for the human report.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a known-answer check; a mismatch is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: every metric of the selected catalogue, 0 for a
    /// layer the workload does not exercise.
    pub fn json(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let body: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn catalogue_matches_the_declared_benchmark() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(DECLARED.contains(&decl), "{name} ({unit}) is not declared");
        }
        let declared = DECLARED.matches("\"name\":").count();
        // Four workloads plus every metric.
        assert_eq!(declared, 4 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric_and_the_verdict() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = o.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        o.check(false, || "cycles off by one".into());
        assert!(!o.correct());
        assert!(o.json(true).contains("\"failed\": 1"));
    }
}
