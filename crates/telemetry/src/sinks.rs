//! Built-in sinks: in-memory aggregation, JSON lines, Chrome `trace_event`.

use crate::live::{Sink, SpanRecord};
use crate::Gauge;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// MemorySink
// ---------------------------------------------------------------------------

/// Aggregated timing for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// In-memory aggregating sink: per-span-name count/total/min/max. Share an
/// `Arc<MemorySink>` with [`crate::add_sink`] and keep a clone to query.
#[derive(Default)]
pub struct MemorySink {
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
    gauges: Mutex<Vec<(Gauge, f64, u64)>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregated span stats, sorted by span name.
    pub fn span_stats(&self) -> Vec<SpanStats> {
        self.spans.lock().unwrap().values().cloned().collect()
    }

    /// Every gauge update seen, in arrival order: `(gauge, value, ts_ns)`.
    pub fn gauge_updates(&self) -> Vec<(Gauge, f64, u64)> {
        self.gauges.lock().unwrap().clone()
    }
}

impl Sink for MemorySink {
    fn on_span(&self, record: &SpanRecord) {
        let mut spans = self.spans.lock().unwrap();
        let entry = spans.entry(record.name).or_insert_with(|| SpanStats {
            name: record.name.to_string(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += record.dur_ns;
        entry.min_ns = entry.min_ns.min(record.dur_ns);
        entry.max_ns = entry.max_ns.max(record.dur_ns);
    }

    fn on_gauge(&self, gauge: Gauge, value: f64, ts_ns: u64) {
        self.gauges.lock().unwrap().push((gauge, value, ts_ns));
    }
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

/// Buffers spans and gauge updates, then writes a Chrome `trace_event` JSON
/// file on [`crate::flush`]. Spans become complete `"X"` events (timestamps
/// in microseconds, one lane per thread); gauge updates and the final
/// counter registry become `"C"` counter events. View the file at
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub struct ChromeTraceSink {
    path: PathBuf,
    spans: Mutex<Vec<SpanRecord>>,
    gauges: Mutex<Vec<(Gauge, f64, u64)>>,
    write_error: Mutex<Option<String>>,
}

impl ChromeTraceSink {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            spans: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            write_error: Mutex::new(None),
        }
    }

    /// The I/O error from the most recent flush, if writing the trace file
    /// failed. Cleared by a subsequent successful flush. `Sink::on_flush`
    /// can't return a `Result`, so callers that want to report write
    /// failures (rather than silently produce no file) poll this.
    pub fn write_error(&self) -> Option<String> {
        self.write_error.lock().unwrap().clone()
    }

    fn render(&self) -> String {
        let spans = self.spans.lock().unwrap();
        let gauges = self.gauges.lock().unwrap();
        let mut out = String::with_capacity(spans.len() * 128 + 4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for record in spans.iter() {
            sep(&mut out);
            out.push_str("{\"name\":\"");
            escape_json(record.name, &mut out);
            // ts/dur are f64 microseconds; keep nanosecond precision.
            out.push_str(&format!(
                "\",\"cat\":\"featgraph\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
                record.start_ns as f64 / 1e3,
                record.dur_ns as f64 / 1e3,
                record.tid
            ));
            out.push_str(",\"args\":{\"depth\":");
            out.push_str(&record.depth.to_string());
            if record.trace_id != 0 {
                out.push_str(&format!(",\"trace_id\":\"{:#x}\"", record.trace_id));
            }
            if let Some(args) = &record.args {
                out.push_str(",\"detail\":\"");
                escape_json(args, &mut out);
                out.push('"');
            }
            out.push_str("}}");
        }
        for (gauge, value, ts_ns) in gauges.iter() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"featgraph\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"args\":{{\"value\":{}}}}}",
                gauge.name(),
                *ts_ns as f64 / 1e3,
                value
            ));
        }
        // Final counter registry as one counter event per counter, stamped
        // after the last span so Perfetto plots them at trace end.
        let end_ts = spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0);
        for (name, value) in crate::counters_snapshot() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"featgraph\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"args\":{{\"value\":{value}}}}}",
                end_ts as f64 / 1e3
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

impl Sink for ChromeTraceSink {
    fn on_span(&self, record: &SpanRecord) {
        self.spans.lock().unwrap().push(record.clone());
    }

    fn on_gauge(&self, gauge: Gauge, value: f64, ts_ns: u64) {
        self.gauges.lock().unwrap().push((gauge, value, ts_ns));
    }

    fn on_flush(&self) {
        let result =
            File::create(&self.path).and_then(|mut f| f.write_all(self.render().as_bytes()));
        *self.write_error.lock().unwrap() = result.err().map(|e| e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
