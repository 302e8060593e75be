//! Metric names, units and what one workload run reports.

use crate::span::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("entries_per_s", "1/s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("capacity_ratio", "ratio"),
    ("buddy_access_frac", "ratio"),
    ("op_p50_us.lo", "us"),
    ("op_p99_us.lo", "us"),
    ("op_p99_us.hi", "us"),
    ("max_rate_ops_s", "1/s"),
    ("repro_s", "s"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bpc.compress_ns_per_entry", "ns"),
    ("bpc.decompress_ns_per_entry", "ns"),
    ("bpc.bytes_per_entry", "B"),
    ("bpc.size_class_ns_per_entry", "ns"),
    ("core.read_ns_per_entry", "ns"),
    ("core.write_ns_per_entry", "ns"),
    ("core.alloc_us", "us"),
    ("core.free_us", "us"),
    ("core.retarget_us", "us"),
    ("core.fragmentation", "ratio"),
    ("core.retargets", "count"),
    ("core.moved_sectors", "count"),
    ("core.device_sectors_per_access", "count"),
    ("core.buddy_sectors_per_access", "count"),
    ("core.profile_us", "us"),
    ("pool.read_ns_per_entry", "ns"),
    ("pool.write_ns_per_entry", "ns"),
    ("pool.drain_us", "us"),
    ("pool.alloc_us", "us"),
    ("pool.free_us", "us"),
    ("pool.retarget_us", "us"),
    ("pool.probes_per_alloc", "count"),
    ("service.alloc_us", "us"),
    ("service.free_us", "us"),
    ("service.io_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.reject_frac", "ratio"),
    ("service.demote_frac", "ratio"),
    ("gpu_sim.run_s", "s"),
    ("gpu_sim.accesses_per_s", "1/s"),
    ("gpu_sim.cycles", "count"),
    ("workloads.snapshot_s", "s"),
    ("workloads.gen_s", "s"),
    ("harness.runqueue_wait_frac", "ratio"),
    ("harness.gen_lag_us", "us"),
    ("harness.unattributed_frac", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("error_rate", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Ops issued plus correctness checks made.
    pub attempted: u64,
    /// Failed ops and failed checks.
    pub failed: u64,
    /// A line per failure (or per batch of failed ops).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Values that must repeat exactly for a seed, as exact strings.
    pub counts: BTreeMap<String, String>,
    /// Human-readable lines printed before the result (p99s, sample counts).
    pub details: Vec<String>,
    /// Client run-queue wait over wall time, averaged over clients.
    pub runqueue_wait_frac: f64,
    pub traces: Vec<(String, Tracer)>,
    /// The run rewrites the `repro-sim` reference instead of checking it.
    pub bless: bool,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn count(&mut self, name: &str, value: impl ToString) {
        self.counts.insert(name.to_string(), value.to_string());
    }

    /// Records `n` failures under one message.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.failures.push(msg);
    }

    /// Records a check: counts it as attempted, and as failed on `Err`.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(1, format!("{what}: {e}"));
        }
    }

    /// Records a timing sample set: minimum, median, p99 and count as a
    /// detail line.
    pub fn detail(&mut self, name: &str, unit: &str, values: &[f64]) {
        self.details.push(format!(
            "{name}: min {:.3} {unit}, median {:.3} {unit}, p99 {:.3} {unit}, n {}",
            crate::stats::percentile(values, 0.0),
            crate::stats::median(values),
            crate::stats::percentile(values, 0.99),
            values.len()
        ));
    }
}

/// Exact text of a float for the determinism record.
pub fn exact(x: f64) -> String {
    format!("{x:?}")
}

/// Client run-queue wait so far, from `/proc/thread-self/schedstat`
/// (`run_ns wait_ns timeslices`); 0 where the kernel does not provide it.
pub fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit_in_order() {
        let json = include_str!("../../BENCHMARK.json");
        for table in [END_TO_END, PER_LAYER] {
            let mut at = 0;
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                let found = json[at..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} missing or out of order"));
                at += found + entry.len();
            }
        }
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
