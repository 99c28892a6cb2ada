//! In-memory spans recorded by the benchmark's own code around its calls into
//! each layer, written out as a Chrome trace when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request (or one training round) share
/// `req`; `parent` names the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `layer.function` style.
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Request identifier shared by all spans of one op.
    pub req: u64,
    /// Recording thread (connection index, or 0 for the replay).
    pub tid: u64,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Collects spans for one thread against a shared epoch.
pub struct Recorder {
    epoch: Instant,
    tid: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread `tid`; all recorders of a run share `epoch`.
    pub fn new(epoch: Instant, tid: u64) -> Self {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end)` as a span.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            parent,
            req,
            tid: self.tid,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        });
    }

    /// Time `f` as a span and return its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, parent, req, start, Instant::now());
        out
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Write spans as a Chrome `trace_event` file (load in `chrome://tracing` or
/// Perfetto). Every event carries its request id and parent in `args`.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":{parent}}}}}",
            s.name, s.tid, s.start_us, s.dur_us, s.req
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn chrome_trace_parses_and_spans_of_one_request_share_an_id() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 1);
        let t0 = Instant::now();
        let got = rec.time("client.write", Some("op"), 42, || 7);
        assert_eq!(got, 7);
        rec.span("op", None, 42, t0, Instant::now());
        assert_eq!(rec.durations_us("op").len(), 1);

        let path = std::env::temp_dir().join(format!("fge2e-trace-{}.json", std::process::id()));
        write_chrome(&path, &rec.into_spans()).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(
                e.get("args")
                    .and_then(|a| a.get("req"))
                    .and_then(Json::as_f64),
                Some(42.0)
            );
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("op")
        );
    }
}
