//! Behavioral tests for fg-telemetry: span nesting and timing monotonicity,
//! cross-thread counter aggregation, and a golden-file check that the Chrome
//! trace export is valid JSON with well-formed complete ("X") events.
//!
//! The enable flag and registry are process-global, so every test takes the
//! same mutex before toggling them.

use fg_telemetry::{
    add_sink, clear_sinks, counter_add, counter_value, counters_snapshot, flush, gauge_set,
    gauges_snapshot, histogram_record, histogram_snapshot, histograms_snapshot, reset_metrics,
    set_enabled, span, ChromeTraceSink, Counter, Gauge, Histogram, MemorySink, Sink, SpanRecord,
};
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Enter an isolated telemetry session: flag on, registry zeroed, no sinks.
fn session() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear_sinks();
    reset_metrics();
    set_enabled(true);
    guard
}

fn teardown() {
    clear_sinks();
    reset_metrics();
    set_enabled(false);
}

/// Test sink that keeps every raw record.
#[derive(Default)]
struct Recorder(Mutex<Vec<SpanRecord>>);

impl Sink for Recorder {
    fn on_span(&self, record: &SpanRecord) {
        self.0.lock().unwrap().push(record.clone());
    }
}

#[test]
fn nested_spans_report_depth_and_containment() {
    let _guard = session();
    let recorder = Arc::new(Recorder::default());
    add_sink(recorder.clone());

    {
        let _outer = span!("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = span!("inner", "tile={}", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    let records = recorder.0.lock().unwrap().clone();
    teardown();

    // Guards drop inside-out, so the inner span is delivered first.
    assert_eq!(records.len(), 2);
    let inner = &records[0];
    let outer = &records[1];
    assert_eq!(inner.name, "inner");
    assert_eq!(outer.name, "outer");
    assert_eq!(outer.depth, 0);
    assert_eq!(inner.depth, 1);
    assert_eq!(inner.args.as_deref(), Some("tile=3"));
    assert_eq!(inner.tid, outer.tid);

    // Timing monotonicity: both spans measured, and the child's interval is
    // contained in the parent's.
    assert!(inner.dur_ns > 0 && outer.dur_ns > 0);
    assert!(inner.start_ns >= outer.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    assert!(outer.dur_ns >= inner.dur_ns);
}

#[test]
fn sequential_spans_have_monotone_timestamps() {
    let _guard = session();
    let recorder = Arc::new(Recorder::default());
    add_sink(recorder.clone());

    for _ in 0..5 {
        let _s = span!("step");
    }

    let records = recorder.0.lock().unwrap().clone();
    teardown();

    assert_eq!(records.len(), 5);
    for pair in records.windows(2) {
        assert!(
            pair[1].start_ns >= pair[0].start_ns + pair[0].dur_ns,
            "span {} starts before span {} ended",
            pair[1].start_ns,
            pair[0].start_ns + pair[0].dur_ns
        );
    }
}

#[test]
fn counters_aggregate_across_threads() {
    let _guard = session();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..1000 {
                    counter_add(Counter::EdgesProcessed, 1);
                }
                counter_add(Counter::Partitions, 2);
            });
        }
    });

    let edges = counter_value(Counter::EdgesProcessed);
    let parts = counter_value(Counter::Partitions);
    teardown();

    assert_eq!(edges, 4000);
    assert_eq!(parts, 8);
}

#[test]
fn histograms_merge_across_concurrent_writers() {
    let _guard = session();

    // 8 writers, each recording the same deterministic value stream; the
    // merged summary must be exact in count/sum/min/max regardless of the
    // interleaving (everything is relaxed atomics, no locks).
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| {
                for i in 0..PER_WRITER {
                    // values 1..=10_000, hitting many buckets
                    histogram_record(Histogram::SpmmPartitionEdges, i + 1);
                }
            });
        }
    });

    let summary = histogram_snapshot(Histogram::SpmmPartitionEdges).unwrap();
    teardown();

    assert_eq!(summary.count, WRITERS * PER_WRITER);
    assert_eq!(summary.sum, WRITERS * (PER_WRITER * (PER_WRITER + 1) / 2));
    assert_eq!(summary.min, 1);
    assert_eq!(summary.max, PER_WRITER);
    assert_eq!(summary.buckets.iter().sum::<u64>(), summary.count);
    // Quantiles are bucket estimates but must be ordered and in range.
    let p50 = summary.quantile(0.5);
    let p90 = summary.quantile(0.9);
    let p99 = summary.quantile(0.99);
    assert!(p50 <= p90 && p90 <= p99);
    assert!(p99 <= summary.max);
    // The uniform stream's median is ~5000; the log-bucket estimate must land
    // within a factor-of-two band around it.
    assert!((2_500..=10_000).contains(&p50), "p50 {p50}");
}

#[test]
fn spans_from_different_threads_get_distinct_lanes() {
    let _guard = session();
    let recorder = Arc::new(Recorder::default());
    add_sink(recorder.clone());

    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                let _s = span!("worker");
            });
        }
    });

    let records = recorder.0.lock().unwrap().clone();
    teardown();

    assert_eq!(records.len(), 3);
    let mut tids: Vec<u64> = records.iter().map(|r| r.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 3, "each thread should get its own tid");
}

#[test]
fn memory_sink_aggregates_per_name() {
    let _guard = session();
    let mem = Arc::new(MemorySink::new());
    add_sink(mem.clone());

    for _ in 0..4 {
        let _s = span!("repeat");
    }
    {
        let _s = span!("once");
    }
    gauge_set(Gauge::Loss, 0.5);
    gauge_set(Gauge::Loss, 0.25);

    let stats = mem.span_stats();
    let gauges = mem.gauge_updates();
    teardown();

    assert_eq!(stats.len(), 2);
    let once = stats.iter().find(|s| s.name == "once").unwrap();
    let repeat = stats.iter().find(|s| s.name == "repeat").unwrap();
    assert_eq!(once.count, 1);
    assert_eq!(repeat.count, 4);
    assert!(repeat.min_ns <= repeat.max_ns);
    assert!(repeat.total_ns >= repeat.max_ns);

    assert_eq!(gauges.len(), 2);
    assert_eq!(gauges[0].1, 0.5);
    assert_eq!(gauges[1].1, 0.25);
    assert!(
        gauges[1].2 >= gauges[0].2,
        "gauge timestamps must not go back"
    );
}

// ---------------------------------------------------------------------------
// Chrome trace golden test, with a mini JSON parser so the check is real
// parsing rather than substring matching.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }

    fn expect(&mut self, c: u8) {
        let got = self.peek();
        assert_eq!(got as char, c as char, "at byte {}", self.pos);
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        self.skip_ws();
        assert!(self.bytes[self.pos..].starts_with(word.as_bytes()));
        self.pos += word.len();
        value
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            assert!(self.pos < self.bytes.len(), "unterminated string");
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes[self.pos] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .unwrap();
                            let code = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(code).unwrap());
                            self.pos += 4;
                        }
                        other => panic!("bad escape \\{}", other as char),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                c => panic!("expected , or ] got {}", c as char),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.expect(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                c => panic!("expected , or }} got {}", c as char),
            }
        }
    }
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing JSON content");
    v
}

#[test]
fn chrome_trace_export_is_valid_and_complete() {
    let _guard = session();
    let path = std::env::temp_dir().join("fg_telemetry_golden_trace.json");
    add_sink(Arc::new(ChromeTraceSink::new(&path)));

    {
        let _run = span!("spmm/run", "d={}", 64);
        counter_add(Counter::Partitions, 8);
        counter_add(Counter::EdgesProcessed, 12_345);
        for p in 0..3 {
            let _part = span!("spmm/partition", "part={}", p);
        }
    }
    gauge_set(Gauge::Loss, 1.25);
    flush();
    teardown();

    let text = std::fs::read_to_string(&path).unwrap();
    let root = parse_json(&text);
    let events = match root.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };

    let mut span_names = Vec::new();
    let mut counter_names = Vec::new();
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).expect("event name");
        let ph = ev.get("ph").and_then(Json::as_str).expect("event phase");
        let ts = ev.get("ts").and_then(Json::as_num).expect("event ts");
        assert!(ts >= 0.0);
        assert!(ev.get("pid").and_then(Json::as_num).is_some());
        match ph {
            // Complete events: must carry a non-negative duration and a tid.
            "X" => {
                let dur = ev.get("dur").and_then(Json::as_num).expect("X needs dur");
                assert!(dur >= 0.0, "negative duration on {name}");
                assert!(ev.get("tid").and_then(Json::as_num).is_some());
                span_names.push(name.to_string());
            }
            "C" => {
                let args = ev.get("args").expect("C needs args");
                assert!(args.get("value").and_then(Json::as_num).is_some());
                counter_names.push(name.to_string());
            }
            other => panic!("unexpected phase {other:?} (only X and C are emitted)"),
        }
    }

    assert_eq!(
        span_names.iter().filter(|n| *n == "spmm/partition").count(),
        3
    );
    assert!(span_names.contains(&"spmm/run".to_string()));
    assert!(counter_names.contains(&"partitions".to_string()));
    assert!(counter_names.contains(&"edges_processed".to_string()));
    assert!(counter_names.contains(&"loss".to_string()));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn runtime_disabled_records_nothing() {
    let _guard = session();
    set_enabled(false);
    let recorder = Arc::new(Recorder::default());
    add_sink(recorder.clone());

    {
        let _s = span!("invisible");
        counter_add(Counter::BytesMoved, 999);
    }
    flush();

    let records = recorder.0.lock().unwrap().clone();
    let bytes = counter_value(Counter::BytesMoved);
    teardown();

    assert!(records.is_empty());
    assert_eq!(bytes, 0);
}

#[test]
fn sixteen_thread_stress_is_exact_and_sorted() {
    let _guard = session();

    // 16 threads hammer every metric kind at once. Each thread's
    // contribution is known exactly, so after the join the registry totals
    // must equal the sums of the per-thread contributions — no lost updates
    // under contention — and the snapshot APIs must stay deterministically
    // sorted regardless of the thread schedule.
    const THREADS: u64 = 16;
    const ITERS: u64 = 5_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..ITERS {
                    counter_add(Counter::EdgesProcessed, 1);
                    counter_add(Counter::BytesMoved, t + 1);
                    histogram_record(Histogram::SpmmPartitionEdges, i + 1);
                    gauge_set(Gauge::AutotuneBestSeconds, (t * ITERS + i) as f64);
                }
                counter_add(Counter::AutotuneTrials, 3);
            });
        }
    });
    // Gauges are last-write-wins (racy mid-flight but never torn); pin a
    // final value so the assertion below is deterministic.
    gauge_set(Gauge::AutotuneBestSeconds, 17.0);

    let counters = counters_snapshot();
    let gauges = gauges_snapshot();
    let hists = histograms_snapshot();
    let edges = counter_value(Counter::EdgesProcessed);
    let bytes = counter_value(Counter::BytesMoved);
    let trials = counter_value(Counter::AutotuneTrials);
    let summary = histogram_snapshot(Histogram::SpmmPartitionEdges).unwrap();
    teardown();

    // Totals: sum of per-thread contributions, exactly.
    assert_eq!(edges, THREADS * ITERS);
    assert_eq!(bytes, ITERS * (THREADS * (THREADS + 1) / 2));
    assert_eq!(trials, THREADS * 3);
    assert_eq!(summary.count, THREADS * ITERS);
    assert_eq!(summary.sum, THREADS * (ITERS * (ITERS + 1) / 2));
    assert_eq!(summary.min, 1);
    assert_eq!(summary.max, ITERS);
    assert_eq!(summary.buckets.iter().sum::<u64>(), summary.count);

    // Snapshots reflect the same totals and are sorted by name.
    let counter_of = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
            .1
    };
    assert_eq!(counter_of("edges_processed"), THREADS * ITERS);
    assert_eq!(counter_of("autotune_trials"), THREADS * 3);
    assert!(
        counters.windows(2).all(|w| w[0].0 < w[1].0),
        "counters sorted: {counters:?}"
    );
    assert!(
        gauges.windows(2).all(|w| w[0].0 < w[1].0),
        "gauges sorted: {gauges:?}"
    );
    assert!(
        hists.windows(2).all(|w| w[0].0 < w[1].0),
        "histograms sorted"
    );
    let (_, best) = gauges
        .iter()
        .find(|(n, _)| *n == "autotune_best_seconds")
        .expect("gauge in snapshot");
    assert_eq!(*best, 17.0);
}
