//! Prometheus-style text exposition of the telemetry registry.
//!
//! Renders every non-zero counter, every set gauge, and every non-empty
//! histogram as `featgraph_*` series in the Prometheus text format
//! (counters get the conventional `_total` suffix; log-bucketed histograms
//! become cumulative `_bucket{le="..."}` series with exact `_sum` /
//! `_count`). The output is deterministic: snapshots are name-sorted, so
//! two scrapes of the same state are byte-identical.
//!
//! While telemetry is runtime-disabled nothing is recorded, so after a
//! [`reset_metrics`](crate::reset_metrics) the snapshots are empty and this
//! renders nothing; callers composing a larger exposition (e.g. the
//! `fgserve` `METRICS` command) still get their own always-on series.

use crate::{counters_snapshot, gauges_snapshot, histograms_snapshot};

/// Append the telemetry registry to `out` in Prometheus text format.
pub fn prometheus_write(out: &mut String) {
    use std::fmt::Write;
    for (name, value) in counters_snapshot() {
        let _ = writeln!(out, "# TYPE featgraph_{name} counter");
        let _ = writeln!(out, "featgraph_{name}_total {value}");
    }
    for (name, value) in gauges_snapshot() {
        let _ = writeln!(out, "# TYPE featgraph_{name} gauge");
        let _ = writeln!(out, "featgraph_{name} {value}");
    }
    for (name, hist) in histograms_snapshot() {
        let _ = writeln!(out, "# TYPE featgraph_{name} histogram");
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i), so
            // the inclusive upper bound is 2^i - 1.
            let le = if i == 0 {
                0
            } else if i >= 64 {
                u64::MAX
            } else {
                (1u64 << i) - 1
            };
            let _ = writeln!(out, "featgraph_{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "featgraph_{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "featgraph_{name}_sum {}", hist.sum);
        let _ = writeln!(out, "featgraph_{name}_count {}", hist.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full registry as a self-contained exposition, terminated by the
    /// OpenMetrics `# EOF` marker.
    fn prometheus_exposition() -> String {
        let mut out = String::new();
        prometheus_write(&mut out);
        out.push_str("# EOF\n");
        out
    }

    #[test]
    fn exposition_renders_counters_gauges_histograms() {
        let _guard = crate::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        crate::reset_metrics();
        crate::counter_add(crate::Counter::AutotuneTrials, 3);
        crate::gauge_set(crate::Gauge::AutotuneBestSeconds, 1.5);
        crate::histogram_record(crate::Histogram::SpmmPartitionEdges, 7);
        let text = prometheus_exposition();
        assert!(text.ends_with("# EOF\n"), "{text}");
        assert!(text.contains("featgraph_autotune_trials_total"), "{text}");
        assert!(
            text.contains("featgraph_autotune_best_seconds 1.5"),
            "{text}"
        );
        assert!(
            text.contains("featgraph_spmm_partition_edges_bucket{le=\"7\"}"),
            "{text}"
        );
        assert!(
            text.contains("featgraph_spmm_partition_edges_count"),
            "{text}"
        );
        crate::set_enabled(false);
        crate::reset_metrics();
    }

    #[test]
    fn disabled_or_empty_registry_is_just_eof() {
        let _guard = crate::TEST_LOCK.lock().unwrap();
        crate::reset_metrics();
        crate::set_enabled(false);
        crate::counter_add(crate::Counter::AutotuneTrials, 3);
        crate::gauge_set(crate::Gauge::AutotuneBestSeconds, 1.5);
        crate::histogram_record(crate::Histogram::SpmmPartitionEdges, 7);
        {
            let _s = crate::span!("export/disabled", "never formatted {}", 1);
        }
        assert_eq!(prometheus_exposition(), "# EOF\n");
        assert!(crate::counters_snapshot().is_empty());
    }
}
