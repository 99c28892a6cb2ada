//! Prometheus-style text exposition for the serving engine, backing the
//! `METRICS` wire command.
//!
//! Two layers compose here:
//!
//! * **Always-on engine series** (`fgserve_*`), rendered from the engine's
//!   own [`StatsSnapshot`] — counters, queue-depth gauges, and
//!   summary-style quantile series for request latency and every serve
//!   [`Phase`]. These exist even while `fg-telemetry` is
//!   runtime-disabled, so `METRICS` always answers.
//! * **The process-wide telemetry registry** (`featgraph_*`), appended via
//!   [`fg_telemetry::prometheus_write`] — empty while runtime-disabled.
//!
//! The exposition is terminated by the OpenMetrics `# EOF` marker, which
//! doubles as the framing sentinel on the line-oriented wire protocol:
//! clients read until they see it.

use crate::engine::MemoryReport;
use crate::stats::{ConnSnapshot, LatencySnapshot, Phase, StatsSnapshot};

/// One parsed sample: series identity (`name{labels}` exactly as exposed)
/// and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name including any label set, e.g.
    /// `fgserve_phase_latency_ms{phase="execute",quantile="0.99"}`.
    pub series: String,
    /// Sample value.
    pub value: f64,
}

fn write_summary(out: &mut String, name: &str, labels: &str, snap: &LatencySnapshot) {
    use std::fmt::Write;
    let sep = if labels.is_empty() { "" } else { "," };
    if snap.count > 0 {
        for (q, v) in [
            ("0.5", snap.p50_ms),
            ("0.95", snap.p95_ms),
            ("0.99", snap.p99_ms),
        ] {
            let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{name}_max{{{labels}}} {}", snap.max_ms);
    }
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", snap.count);
}

/// Render the full exposition for one engine snapshot. `mem` carries the
/// live gauges the snapshot doesn't: the accounted-memory breakdown. `conn`
/// carries the TCP front-end's connection counters — all-zero for embedded
/// engines with no listener, so the series still exist and scrapes can
/// `--require` them unconditionally.
pub fn render(stats: &StatsSnapshot, mem: &MemoryReport, conn: &ConnSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(4096);
    for (name, value) in [
        ("fgserve_requests_accepted_total", stats.accepted),
        ("fgserve_requests_completed_total", stats.completed),
        ("fgserve_requests_shed_total", stats.shed),
        ("fgserve_requests_mem_shed_total", stats.mem_shed),
        ("fgserve_requests_timed_out_total", stats.timed_out),
        ("fgserve_requests_failed_total", stats.failed),
        ("fgserve_batches_total", stats.batches),
        ("fgserve_models_replaced_total", stats.models_replaced),
    ] {
        let _ = writeln!(out, "# TYPE {} counter", name.trim_end_matches("_total"));
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in [
        ("fgserve_queue_depth", stats.queue_depth),
        ("fgserve_queue_depth_max", stats.queue_depth_max),
        ("fgserve_mem_total_bytes", mem.total_current),
        ("fgserve_mem_total_peak_bytes", mem.total_peak),
        ("fgserve_mem_budget_bytes", mem.mem_budget),
        ("fgserve_models_registered", mem.models_registered),
    ] {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(out, "# TYPE fgserve_mem_component_bytes gauge");
    let _ = writeln!(out, "# TYPE fgserve_mem_component_peak_bytes gauge");
    for c in &mem.components {
        let _ = writeln!(
            out,
            "fgserve_mem_component_bytes{{component=\"{}\"}} {}",
            c.component.name(),
            c.current
        );
        let _ = writeln!(
            out,
            "fgserve_mem_component_peak_bytes{{component=\"{}\"}} {}",
            c.component.name(),
            c.peak
        );
    }
    if let Some(rss) = mem.rss {
        for (name, value) in [
            ("fgserve_mem_rss_bytes", rss.current_bytes),
            ("fgserve_mem_rss_peak_bytes", rss.peak_bytes),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
    }

    for (name, value) in [
        ("fgserve_conn_accepted_total", conn.accepted),
        ("fgserve_conn_closed_total", conn.closed),
        ("fgserve_conn_bad_frames_total", conn.bad_frames),
        ("fgserve_conn_bad_lines_total", conn.bad_lines),
        ("fgserve_conn_read_timeouts_total", conn.read_timeouts),
    ] {
        let _ = writeln!(out, "# TYPE {} counter", name.trim_end_matches("_total"));
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(out, "# TYPE fgserve_conn_admission_shed counter");
    let _ = writeln!(
        out,
        "fgserve_conn_admission_shed_total{{reason=\"max-conns\"}} {}",
        conn.admission_shed
    );
    let _ = writeln!(out, "# TYPE fgserve_conn_protocol counter");
    for (proto, value) in [("binary", conn.binary_conns), ("text", conn.text_conns)] {
        let _ = writeln!(
            out,
            "fgserve_conn_protocol_total{{protocol=\"{proto}\"}} {value}"
        );
    }
    let _ = writeln!(out, "# TYPE fgserve_conn_active gauge");
    let _ = writeln!(out, "fgserve_conn_active {}", conn.active);

    let _ = writeln!(out, "# TYPE fgserve_request_latency_ms summary");
    write_summary(&mut out, "fgserve_request_latency_ms", "", &stats.latency);
    let _ = writeln!(out, "# TYPE fgserve_phase_latency_ms summary");
    for phase in Phase::ALL {
        write_summary(
            &mut out,
            "fgserve_phase_latency_ms",
            &format!("phase=\"{}\"", phase.name()),
            stats.phase(phase),
        );
    }

    fg_telemetry::prometheus_write(&mut out);
    out.push_str("# EOF\n");
    out
}

/// Strictly parse a text exposition: every line must be a `#` comment or a
/// `series value` sample with a finite-or-NaN-free parseable value, and the
/// last line must be `# EOF`. Returns the samples in exposition order.
pub fn parse_exposition(text: &str) -> Result<Vec<MetricSample>, String> {
    let mut samples = Vec::new();
    let mut saw_eof = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(format!("line {}: content after # EOF", lineno + 1));
        }
        if let Some(comment) = line.strip_prefix('#') {
            if comment.trim() == "EOF" {
                saw_eof = true;
            }
            continue;
        }
        // `name{labels} value` — the value is everything after the last
        // space outside braces; since label values here never contain
        // spaces, splitting on the final space is exact.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: unparseable value in {line:?}", lineno + 1))?;
        if value.is_nan() {
            return Err(format!("line {}: NaN sample in {line:?}", lineno + 1));
        }
        if series.is_empty() || !series.chars().next().unwrap().is_ascii_alphabetic() {
            return Err(format!("line {}: bad series name in {line:?}", lineno + 1));
        }
        samples.push(MetricSample {
            series: series.to_string(),
            value,
        });
    }
    if !saw_eof {
        return Err("exposition not terminated by # EOF".into());
    }
    Ok(samples)
}

/// First sample whose series identity matches `series` exactly.
pub fn metric_value(text: &str, series: &str) -> Option<f64> {
    parse_exposition(text)
        .ok()?
        .into_iter()
        .find(|s| s.series == series)
        .map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServeStats;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    fn empty_mem() -> MemoryReport {
        MemoryReport {
            components: fg_telemetry::mem_snapshot(),
            total_current: 0,
            total_peak: 0,
            mem_budget: 0,
            models_registered: 0,
            rss: fg_telemetry::read_rss(),
        }
    }

    #[test]
    fn empty_engine_exposition_parses_and_has_always_on_series() {
        let stats = ServeStats::default();
        let text = render(&stats.snapshot(), &empty_mem(), &ConnSnapshot::default());
        let samples = parse_exposition(&text).expect("parseable");
        assert!(text.ends_with("# EOF\n"));
        let count = |name: &str| {
            samples
                .iter()
                .find(|s| s.series == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(count("fgserve_requests_accepted_total"), 0.0);
        assert_eq!(count("fgserve_mem_total_bytes"), 0.0);
        // Component series exist for every component (the accountant is
        // process-wide and other tests charge it, so only presence is
        // asserted).
        let _ = count("fgserve_mem_component_bytes{component=\"activations\"}");
        let _ = count("fgserve_mem_component_peak_bytes{component=\"serve_batch\"}");
        assert_eq!(
            count("fgserve_phase_latency_ms_count{phase=\"queue_wait\"}"),
            0.0
        );
        // No quantile series (and no NaN) when the window is empty.
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("quantile"), "{text}");
    }

    #[test]
    fn populated_phase_series_expose_quantiles() {
        let stats = ServeStats::default();
        stats.completed.store(4, Ordering::Relaxed);
        for _ in 0..10 {
            stats.record_phase(Phase::Execute, Duration::from_millis(8));
        }
        let text = render(&stats.snapshot(), &empty_mem(), &ConnSnapshot::default());
        assert_eq!(
            metric_value(
                &text,
                "fgserve_phase_latency_ms{phase=\"execute\",quantile=\"0.99\"}"
            ),
            Some(8.0)
        );
        assert_eq!(
            metric_value(&text, "fgserve_phase_latency_ms_count{phase=\"execute\"}"),
            Some(10.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        assert!(parse_exposition("fgserve_x 1\n").is_err(), "missing EOF");
        assert!(
            parse_exposition("fgserve_x notanumber\n# EOF\n").is_err(),
            "bad value"
        );
        assert!(
            parse_exposition("fgserve_x NaN\n# EOF\n").is_err(),
            "NaN sample"
        );
        assert!(
            parse_exposition("# EOF\nfgserve_x 1\n").is_err(),
            "content after EOF"
        );
        assert!(parse_exposition("# hello\n# EOF\n").is_ok(), "comments ok");
    }

    #[test]
    fn parser_keeps_escaped_label_values_in_series_identity() {
        // Prometheus label values may contain escaped quotes and backslashes;
        // the series identity must be preserved byte-for-byte.
        let text = "m{path=\"a\\\"b\\\\c\"} 4\n# EOF\n";
        let samples = parse_exposition(text).expect("parseable");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].series, "m{path=\"a\\\"b\\\\c\"}");
        assert_eq!(samples[0].value, 4.0);
    }

    #[test]
    fn parser_accepts_negative_and_exponent_form_numbers() {
        let text = "m_neg -12.5\nm_exp 1.5e3\nm_negexp -2E-2\nm_inf inf\n# EOF\n";
        let samples = parse_exposition(text).expect("parseable");
        assert_eq!(samples[0].value, -12.5);
        assert_eq!(samples[1].value, 1500.0);
        assert_eq!(samples[2].value, -0.02);
        assert!(samples[3].value.is_infinite());
    }

    #[test]
    fn parser_returns_duplicate_series_in_order_and_sample_picks_first() {
        let text = "dup 1\nother 5\ndup 2\n# EOF\n";
        let samples = parse_exposition(text).expect("parseable");
        let dups: Vec<f64> = samples
            .iter()
            .filter(|s| s.series == "dup")
            .map(|s| s.value)
            .collect();
        assert_eq!(dups, vec![1.0, 2.0], "duplicates kept in exposition order");
        assert_eq!(
            metric_value(text, "dup"),
            Some(1.0),
            "metric_value() takes the first"
        );
    }

    #[test]
    fn parser_rejects_missing_eof_even_with_trailing_comment() {
        assert!(parse_exposition("").is_err(), "empty input");
        assert!(
            parse_exposition("m 1\n# almost EOF but not\n").is_err(),
            "comment that is not # EOF does not terminate"
        );
        assert!(parse_exposition("m 1\n#EOF\n").is_ok(), "no-space # EOF ok");
    }
}
