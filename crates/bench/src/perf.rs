//! Machine-readable performance reports and the regression gate.
//!
//! Every `fgbench` command can emit a versioned JSON report (`--json <path>`)
//! capturing per-run timing samples, the telemetry counter/gauge/histogram
//! snapshot, and a roofline attribution of the simulated GPU kernels.
//! `fgbench compare` diffs two reports and fails on regressions that exceed
//! both the configured threshold and the measured run-to-run noise.
//!
//! The offline workspace has no serde, so the schema is written and read with
//! a small hand-rolled JSON layer ([`Json`]): a pretty-printer for stable,
//! diffable committed baselines and a recursive-descent parser for `compare`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use fg_graph::Graph;

use crate::runner::Samples;

/// Version stamp embedded in every report; bump on breaking schema changes.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Minimal JSON value: writer + recursive-descent parser
// ---------------------------------------------------------------------------

/// A JSON value. Objects keep insertion order so reports serialize
/// deterministically (committed baselines diff cleanly).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no Infinity/NaN literal; map them to null.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("bad escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at the byte we
                    // consumed; strings in our reports are mostly ASCII.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

/// Host description, so reports from different machines aren't compared
/// blindly.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Hardware threads available to the process.
    pub host_threads: usize,
}

impl MachineInfo {
    /// Describe the current host.
    pub fn current() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }
}

/// Shape of one benchmark graph, as actually generated at the run's scale.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInfo {
    /// Dataset name (Table II).
    pub dataset: String,
    /// Vertex count at this scale.
    pub vertices: usize,
    /// Edge count at this scale.
    pub edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
}

impl GraphInfo {
    /// Describe a generated graph.
    pub fn of(dataset: &str, graph: &Graph) -> Self {
        let v = graph.num_vertices();
        Self {
            dataset: dataset.to_string(),
            vertices: v,
            edges: graph.num_edges(),
            avg_degree: if v == 0 { 0.0 } else { graph.num_edges() as f64 / v as f64 },
        }
    }
}

/// Summary statistics plus the raw per-run samples of one measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    /// Number of timed runs.
    pub runs: usize,
    /// Fastest run.
    pub min: f64,
    /// Slowest run.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Interpolated median — the statistic `compare` diffs.
    pub median: f64,
    /// Sample standard deviation — feeds the noise threshold.
    pub stddev: f64,
    /// Raw per-run values, in run order.
    pub samples: Vec<f64>,
}

impl SampleStats {
    /// Summarize a sample set.
    pub fn of(samples: &Samples) -> Self {
        Self {
            runs: samples.len(),
            min: samples.min(),
            max: samples.max(),
            mean: samples.mean(),
            median: samples.median(),
            stddev: samples.stddev(),
            samples: samples.secs.clone(),
        }
    }
}

/// One timed cell: a kernel/system/dataset/feature-length combination.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Stable identifier, e.g. `table3/gcn/ogbn-proteins/FeatGraph/d64`.
    /// `compare` matches entries across reports by this string.
    pub id: String,
    /// Unit of the samples: `"s"` or `"ms"`.
    pub unit: String,
    /// Timing statistics.
    pub stats: SampleStats,
}

/// Histogram snapshot row (per-partition work distribution).
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Histogram name.
    pub name: String,
    /// Recorded observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median observation (bucket-interpolated).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Load imbalance: max / mean.
    pub imbalance: f64,
}

/// Roofline attribution of one simulated GPU kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRow {
    /// Kernel name.
    pub kernel: String,
    /// Launches folded into this row.
    pub launches: u64,
    /// Total simulated milliseconds.
    pub time_ms: f64,
    /// FP32 operations executed.
    pub flops: u64,
    /// DRAM bytes moved (transactions × transaction size).
    pub dram_bytes: u64,
    /// Arithmetic intensity FLOPs/byte; `None` when no DRAM traffic.
    pub arithmetic_intensity: Option<f64>,
    /// Attained GFLOP/s over the kernel's simulated time.
    pub attained_gflops: f64,
    /// Attained DRAM GB/s.
    pub attained_gbs: f64,
    /// Roofline ceiling at this intensity: `min(peak, AI × bandwidth)`.
    pub roofline_gflops: f64,
    /// Attained / ceiling, in `[0, 1]`.
    pub attained_fraction: f64,
    /// True when the kernel sits left of the ridge point (bandwidth-bound).
    pub memory_bound: bool,
}

impl RooflineRow {
    /// Build a row from a gpusim rollup.
    pub fn of(r: &fg_gpusim::KernelRollup) -> Self {
        let ai = r.arithmetic_intensity();
        Self {
            kernel: r.kernel.to_string(),
            launches: r.launches,
            time_ms: r.time_ms,
            flops: r.flops(),
            dram_bytes: r.dram_bytes(),
            arithmetic_intensity: ai.is_finite().then_some(ai),
            attained_gflops: r.attained_gflops(),
            attained_gbs: r.attained_gbs(),
            roofline_gflops: r.roofline_gflops(),
            attained_fraction: r.attained_fraction(),
            memory_bound: r.memory_bound(),
        }
    }
}

/// A complete benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version (`SCHEMA_VERSION` at write time).
    pub schema_version: u64,
    /// The fgbench subcommand that produced this report.
    pub command: String,
    /// Vertex-count divisor the sweep ran at.
    pub scale: usize,
    /// Host description.
    pub machine: MachineInfo,
    /// Graphs the sweep generated.
    pub graphs: Vec<GraphInfo>,
    /// Timed cells.
    pub entries: Vec<Entry>,
    /// Telemetry counters at the end of the run (sorted by name).
    pub counters: Vec<(String, u64)>,
    /// Telemetry gauges at the end of the run (sorted by name).
    pub gauges: Vec<(String, f64)>,
    /// Telemetry histograms at the end of the run.
    pub histograms: Vec<HistRow>,
    /// Per-kernel GPU roofline attribution.
    pub roofline: Vec<RooflineRow>,
    /// Peak accounted memory footprint: `<component>_peak_bytes` rows from
    /// the fg-telemetry accountant plus `total_peak_bytes` and (on Linux)
    /// `rss_peak_bytes`.
    pub memory: Vec<(String, u64)>,
}

impl Report {
    /// Start an empty report for one command.
    pub fn new(command: &str, scale: usize) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            command: command.to_string(),
            scale,
            machine: MachineInfo::current(),
            graphs: Vec::new(),
            entries: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            roofline: Vec::new(),
            memory: Vec::new(),
        }
    }

    /// Record a graph, once per dataset name.
    pub fn push_graph(&mut self, dataset: &str, graph: &Graph) {
        if !self.graphs.iter().any(|g| g.dataset == dataset) {
            self.graphs.push(GraphInfo::of(dataset, graph));
        }
    }

    /// Record one timed cell.
    pub fn push(&mut self, id: String, unit: &str, samples: &Samples) {
        self.entries.push(Entry { id, unit: unit.to_string(), stats: SampleStats::of(samples) });
    }

    /// Record a single deterministic measurement (GPU simulator times).
    pub fn push_single(&mut self, id: String, unit: &str, value: f64) {
        self.push(id, unit, &Samples::single(value));
    }

    /// Capture the current telemetry counters/gauges/histograms and the
    /// gpusim per-kernel rollups into the report.
    pub fn snapshot_telemetry(&mut self) {
        self.counters = fg_telemetry::counters_snapshot()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        self.gauges = fg_telemetry::gauges_snapshot()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        self.histograms = fg_telemetry::histograms_snapshot()
            .into_iter()
            .map(|(name, h)| HistRow {
                name: name.to_string(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
                imbalance: h.imbalance(),
            })
            .collect();
        self.roofline = fg_gpusim::kernel_rollups().iter().map(RooflineRow::of).collect();
        self.snapshot_memory();
    }

    /// Capture the accountant's per-component peak footprint (and the OS
    /// RSS peak when readable) into the report.
    pub fn snapshot_memory(&mut self) {
        self.memory = fg_telemetry::mem_snapshot()
            .into_iter()
            .map(|c| (format!("{}_peak_bytes", c.component.name()), c.peak))
            .collect();
        self.memory.push(("total_peak_bytes".into(), fg_telemetry::mem_total_peak()));
        if let Some(rss) = fg_telemetry::read_rss() {
            self.memory.push(("rss_peak_bytes".into(), rss.peak_bytes));
        }
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let num = |v: f64| Json::Num(v);
        let uint = |v: u64| Json::Num(v as f64);
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(e.id.clone())),
                    ("unit".into(), Json::Str(e.unit.clone())),
                    ("runs".into(), uint(e.stats.runs as u64)),
                    ("min".into(), num(e.stats.min)),
                    ("max".into(), num(e.stats.max)),
                    ("mean".into(), num(e.stats.mean)),
                    ("median".into(), num(e.stats.median)),
                    ("stddev".into(), num(e.stats.stddev)),
                    (
                        "samples".into(),
                        Json::Arr(e.stats.samples.iter().map(|&s| num(s)).collect()),
                    ),
                ])
            })
            .collect();
        let graphs = self
            .graphs
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("dataset".into(), Json::Str(g.dataset.clone())),
                    ("vertices".into(), uint(g.vertices as u64)),
                    ("edges".into(), uint(g.edges as u64)),
                    ("avg_degree".into(), num(g.avg_degree)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(h.name.clone())),
                    ("count".into(), uint(h.count)),
                    ("sum".into(), uint(h.sum)),
                    ("min".into(), uint(h.min)),
                    ("max".into(), uint(h.max)),
                    ("p50".into(), uint(h.p50)),
                    ("p90".into(), uint(h.p90)),
                    ("p99".into(), uint(h.p99)),
                    ("imbalance".into(), num(h.imbalance)),
                ])
            })
            .collect();
        let roofline = self
            .roofline
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("kernel".into(), Json::Str(r.kernel.clone())),
                    ("launches".into(), uint(r.launches)),
                    ("time_ms".into(), num(r.time_ms)),
                    ("flops".into(), uint(r.flops)),
                    ("dram_bytes".into(), uint(r.dram_bytes)),
                    (
                        "arithmetic_intensity".into(),
                        r.arithmetic_intensity.map_or(Json::Null, num),
                    ),
                    ("attained_gflops".into(), num(r.attained_gflops)),
                    ("attained_gbs".into(), num(r.attained_gbs)),
                    ("roofline_gflops".into(), num(r.roofline_gflops)),
                    ("attained_fraction".into(), num(r.attained_fraction)),
                    ("memory_bound".into(), Json::Bool(r.memory_bound)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), uint(self.schema_version)),
            ("command".into(), Json::Str(self.command.clone())),
            ("scale".into(), uint(self.scale as u64)),
            (
                "machine".into(),
                Json::Obj(vec![
                    ("os".into(), Json::Str(self.machine.os.clone())),
                    ("arch".into(), Json::Str(self.machine.arch.clone())),
                    ("host_threads".into(), uint(self.machine.host_threads as u64)),
                ]),
            ),
            ("graphs".into(), Json::Arr(graphs)),
            ("entries".into(), Json::Arr(entries)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters.iter().map(|(k, v)| (k.clone(), uint(*v))).collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(self.gauges.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
            ),
            ("histograms".into(), Json::Arr(histograms)),
            ("roofline".into(), Json::Arr(roofline)),
            (
                "memory".into(),
                Json::Obj(self.memory.iter().map(|(k, v)| (k.clone(), uint(*v))).collect()),
            ),
        ])
        .render()
    }

    /// Parse a report back from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let req = |key: &str| root.get(key).ok_or_else(|| format!("missing field '{key}'"));
        let schema_version =
            req("schema_version")?.as_u64().ok_or("schema_version must be an integer")?;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "report schema v{schema_version} is newer than supported v{SCHEMA_VERSION}"
            ));
        }
        let machine = req("machine")?;
        let machine = MachineInfo {
            os: machine.get("os").and_then(Json::as_str).unwrap_or_default().to_string(),
            arch: machine.get("arch").and_then(Json::as_str).unwrap_or_default().to_string(),
            host_threads: machine
                .get("host_threads")
                .and_then(Json::as_u64)
                .unwrap_or(1) as usize,
        };
        let graphs = req("graphs")?
            .as_arr()
            .ok_or("graphs must be an array")?
            .iter()
            .map(|g| {
                Ok(GraphInfo {
                    dataset: g
                        .get("dataset")
                        .and_then(Json::as_str)
                        .ok_or("graph missing dataset")?
                        .to_string(),
                    vertices: g.get("vertices").and_then(Json::as_u64).unwrap_or(0) as usize,
                    edges: g.get("edges").and_then(Json::as_u64).unwrap_or(0) as usize,
                    avg_degree: g.get("avg_degree").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let entries = req("entries")?
            .as_arr()
            .ok_or("entries must be an array")?
            .iter()
            .map(|e| {
                // The writer maps non-finite stats to JSON null (there is no
                // NaN/Inf literal). Read null back as NaN so a corrupt or
                // degenerate stat stays visibly degenerate instead of
                // masquerading as a legitimate 0.0; a *missing* key still
                // defaults to 0.0 for old-report compatibility.
                let f = |key: &str| match e.get(key) {
                    Some(Json::Null) => f64::NAN,
                    other => other.and_then(Json::as_f64).unwrap_or(0.0),
                };
                Ok(Entry {
                    id: e.get("id").and_then(Json::as_str).ok_or("entry missing id")?.to_string(),
                    unit: e.get("unit").and_then(Json::as_str).unwrap_or("s").to_string(),
                    stats: SampleStats {
                        runs: e.get("runs").and_then(Json::as_u64).unwrap_or(0) as usize,
                        min: f("min"),
                        max: f("max"),
                        mean: f("mean"),
                        median: f("median"),
                        stddev: f("stddev"),
                        samples: e
                            .get("samples")
                            .and_then(Json::as_arr)
                            // Keep positions: a null sample (a non-finite
                            // value at write time) parses as NaN rather than
                            // silently vanishing and shifting `runs` out of
                            // sync with `samples.len()`.
                            .map(|a| {
                                a.iter().map(|v| v.as_f64().unwrap_or(f64::NAN)).collect()
                            })
                            .unwrap_or_default(),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let pairs = |key: &str| -> Vec<(String, Json)> {
            match root.get(key) {
                Some(Json::Obj(fields)) => fields.clone(),
                _ => Vec::new(),
            }
        };
        let counters = pairs("counters")
            .into_iter()
            .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
            .collect();
        // Missing in pre-memory reports; parses to an empty table.
        let memory = pairs("memory")
            .into_iter()
            .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
            .collect();
        let gauges = pairs("gauges")
            .into_iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
            .collect();
        let histograms = root
            .get("histograms")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|h| {
                let u = |key: &str| h.get(key).and_then(Json::as_u64).unwrap_or(0);
                Some(HistRow {
                    name: h.get("name").and_then(Json::as_str)?.to_string(),
                    count: u("count"),
                    sum: u("sum"),
                    min: u("min"),
                    max: u("max"),
                    p50: u("p50"),
                    p90: u("p90"),
                    p99: u("p99"),
                    imbalance: h.get("imbalance").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect();
        let roofline = root
            .get("roofline")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| {
                let f = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                Some(RooflineRow {
                    kernel: r.get("kernel").and_then(Json::as_str)?.to_string(),
                    launches: r.get("launches").and_then(Json::as_u64).unwrap_or(0),
                    time_ms: f("time_ms"),
                    flops: r.get("flops").and_then(Json::as_u64).unwrap_or(0),
                    dram_bytes: r.get("dram_bytes").and_then(Json::as_u64).unwrap_or(0),
                    arithmetic_intensity: r
                        .get("arithmetic_intensity")
                        .and_then(Json::as_f64),
                    attained_gflops: f("attained_gflops"),
                    attained_gbs: f("attained_gbs"),
                    roofline_gflops: f("roofline_gflops"),
                    attained_fraction: f("attained_fraction"),
                    memory_bound: r
                        .get("memory_bound")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                })
            })
            .collect();
        Ok(Report {
            schema_version,
            command: req("command")?.as_str().ok_or("command must be a string")?.to_string(),
            scale: req("scale")?.as_u64().ok_or("scale must be an integer")? as usize,
            machine,
            graphs,
            entries,
            counters,
            gauges,
            histograms,
            roofline,
            memory,
        })
    }

    /// Write the report to a file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Fold a sub-report into this one (`fgbench all` builds one merged
    /// report out of per-subcommand reports). Entries append, graphs dedup
    /// by dataset, counters sum, and the gauge/histogram/roofline rows are
    /// replaced by the latest snapshot per name (their internal state can't
    /// be re-aggregated from summaries).
    pub fn merge(&mut self, sub: &Report) {
        for g in &sub.graphs {
            if !self.graphs.iter().any(|m| m.dataset == g.dataset) {
                self.graphs.push(g.clone());
            }
        }
        self.entries.extend(sub.entries.iter().cloned());
        for (name, v) in &sub.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mv)) => *mv += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &sub.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mv)) => *mv = *v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for h in &sub.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(m) => *m = h.clone(),
                None => self.histograms.push(h.clone()),
            }
        }
        for r in &sub.roofline {
            match self.roofline.iter_mut().find(|m| m.kernel == r.kernel) {
                Some(m) => *m = r.clone(),
                None => self.roofline.push(r.clone()),
            }
        }
        for (name, v) in &sub.memory {
            // Peaks are process-wide watermarks; keep the max across
            // sub-reports.
            match self.memory.iter_mut().find(|(n, _)| n == name) {
                Some((_, mv)) => *mv = (*mv).max(*v),
                None => self.memory.push((name.clone(), *v)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

// ---------------------------------------------------------------------------
// Compare / regression gate
// ---------------------------------------------------------------------------

/// Outcome of comparing one entry across two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Current median slower than baseline beyond threshold and noise.
    Regression,
    /// Current median faster than baseline beyond threshold and noise.
    Improvement,
    /// Delta within the noise/threshold band.
    WithinNoise,
    /// Entry only present in the current report.
    Added,
    /// Entry only present in the baseline report.
    Removed,
    /// The pair cannot be meaningfully diffed: a median is NaN/Inf (written
    /// as JSON null), the noise band is degenerate, or the baseline median
    /// is zero/near-zero so a relative delta has no basis. Warned about,
    /// never counted as a regression or an improvement.
    Incomparable,
}

impl Verdict {
    /// Short tag for table output.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESS",
            Verdict::Improvement => "improve",
            Verdict::WithinNoise => "ok",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
            Verdict::Incomparable => "INCOMP",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Entry id.
    pub id: String,
    /// Baseline median (`None` for [`Verdict::Added`]).
    pub base_median: Option<f64>,
    /// Current median (`None` for [`Verdict::Removed`]).
    pub cur_median: Option<f64>,
    /// Median delta in percent of the baseline (positive = slower).
    pub delta_pct: f64,
    /// Run-to-run noise band in percent (2σ of the combined spread).
    pub noise_pct: f64,
    /// Effective threshold applied: `max(fail_pct, noise_pct)`.
    pub threshold_pct: f64,
    /// Classification.
    pub verdict: Verdict,
}

/// Result of diffing two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-entry rows, in current-report order then removed entries.
    pub rows: Vec<CompareRow>,
    /// The `--fail-on-regress` floor used.
    pub fail_pct: f64,
}

/// Baseline medians at or below this are treated as "no basis for a
/// relative delta": dividing by them would turn timing jitter (or an
/// outright zero from a degenerate run) into arbitrarily large percentages.
pub const MIN_BASELINE_MEDIAN: f64 = 1e-12;

impl Comparison {
    /// Number of regressions.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict == Verdict::Regression).count()
    }

    /// Number of entries that could not be meaningfully compared.
    pub fn incomparables(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict == Verdict::Incomparable).count()
    }

    /// True when any entry regressed.
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0
    }

    /// Render a fixed-width summary table.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let id_w = self.rows.iter().map(|r| r.id.len()).max().unwrap_or(2).max(2);
        let _ = writeln!(
            out,
            "{:<id_w$}  {:>12}  {:>12}  {:>8}  {:>8}  verdict",
            "id", "base", "current", "delta%", "thresh%"
        );
        for r in &self.rows {
            let fmt = |v: Option<f64>| match v {
                Some(v) if v.is_finite() => format!("{v:>12.6}"),
                _ => format!("{:>12}", "-"),
            };
            let pct = |v: f64, signed: bool| {
                if v.is_finite() {
                    if signed { format!("{v:>+8.1}") } else { format!("{v:>8.1}") }
                } else {
                    format!("{:>8}", "-")
                }
            };
            let _ = writeln!(
                out,
                "{:<id_w$}  {}  {}  {}  {}  {}",
                r.id,
                fmt(r.base_median),
                fmt(r.cur_median),
                pct(r.delta_pct, true),
                pct(r.threshold_pct, false),
                r.verdict.tag()
            );
        }
        let incomp = self.incomparables();
        let _ = writeln!(
            out,
            "{} entries compared, {} regression(s) at max({}%, noise){}",
            self.rows.len(),
            self.regressions(),
            self.fail_pct,
            if incomp > 0 {
                format!(", {incomp} incomparable (zero or non-finite medians)")
            } else {
                String::new()
            }
        );
        out
    }
}

/// Diff two reports entry-by-entry.
///
/// The regression test is noise-aware: an entry only counts as a regression
/// (or an improvement) when the median delta exceeds both `fail_pct` and a
/// 2σ band derived from the per-run spread of *both* reports:
///
/// ```text
/// noise_pct = 100 · 2·sqrt(σ_base² + σ_cur²) / median_base
/// ```
///
/// Deterministic single-sample entries (σ = 0) therefore gate purely on
/// `fail_pct`, while noisy wall-clock entries get a wider band.
///
/// Entries whose medians cannot support that arithmetic — NaN/Inf (stored
/// as JSON null), or a baseline median at or below
/// `MIN_BASELINE_MEDIAN` — come back as `Verdict::Incomparable`; they
/// are surfaced in the table and the summary but never gate the build.
pub fn compare(base: &Report, cur: &Report, fail_pct: f64) -> Comparison {
    let mut rows = Vec::new();
    for entry in &cur.entries {
        let Some(base_entry) = base.entries.iter().find(|b| b.id == entry.id) else {
            rows.push(CompareRow {
                id: entry.id.clone(),
                base_median: None,
                cur_median: Some(entry.stats.median),
                delta_pct: 0.0,
                noise_pct: 0.0,
                threshold_pct: fail_pct,
                verdict: Verdict::Added,
            });
            continue;
        };
        let b = &base_entry.stats;
        let c = &entry.stats;
        // A relative delta needs a finite pair of medians, a finite noise
        // estimate, and a baseline median meaningfully above zero to divide
        // by. Anything else — a null (NaN/Inf) median read back from JSON, a
        // zero-cost baseline entry, a NaN stddev — is reported as
        // `Incomparable` instead of silently classifying as `WithinNoise`
        // with a fabricated 0% delta.
        let comparable = b.median.is_finite()
            && c.median.is_finite()
            && b.stddev.is_finite()
            && c.stddev.is_finite()
            && b.median > MIN_BASELINE_MEDIAN;
        if !comparable {
            rows.push(CompareRow {
                id: entry.id.clone(),
                base_median: Some(b.median),
                cur_median: Some(c.median),
                delta_pct: f64::NAN,
                noise_pct: f64::NAN,
                threshold_pct: fail_pct,
                verdict: Verdict::Incomparable,
            });
            continue;
        }
        let delta_pct = 100.0 * (c.median - b.median) / b.median;
        let noise_pct =
            100.0 * 2.0 * (b.stddev * b.stddev + c.stddev * c.stddev).sqrt() / b.median;
        let threshold_pct = fail_pct.max(noise_pct);
        let verdict = if delta_pct > threshold_pct {
            Verdict::Regression
        } else if delta_pct < -threshold_pct {
            Verdict::Improvement
        } else {
            Verdict::WithinNoise
        };
        rows.push(CompareRow {
            id: entry.id.clone(),
            base_median: Some(b.median),
            cur_median: Some(c.median),
            delta_pct,
            noise_pct,
            threshold_pct,
            verdict,
        });
    }
    for entry in &base.entries {
        if !cur.entries.iter().any(|c| c.id == entry.id) {
            rows.push(CompareRow {
                id: entry.id.clone(),
                base_median: Some(entry.stats.median),
                cur_median: None,
                delta_pct: 0.0,
                noise_pct: 0.0,
                threshold_pct: fail_pct,
                verdict: Verdict::Removed,
            });
        }
    }
    Comparison { rows, fail_pct }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, samples: Vec<f64>) -> Entry {
        Entry {
            id: id.to_string(),
            unit: "s".to_string(),
            stats: SampleStats::of(&Samples::from_secs(samples)),
        }
    }

    fn report_with(entries: Vec<Entry>) -> Report {
        let mut r = Report::new("table3", 24);
        r.entries = entries;
        r
    }

    #[test]
    fn json_report_round_trips() {
        let mut r = Report::new("table3", 24);
        r.graphs.push(GraphInfo {
            dataset: "ogbn-proteins".into(),
            vertices: 5_000,
            edges: 100_000,
            avg_degree: 20.0,
        });
        r.entries.push(entry("table3/gcn/ogbn-proteins/FeatGraph/d64", vec![0.5, 0.625, 0.75]));
        r.counters = vec![("edges_processed".into(), 123_456), ("spmm_calls".into(), 7)];
        r.gauges = vec![("threads".into(), 8.0)];
        r.histograms.push(HistRow {
            name: "spmm_partition_edges".into(),
            count: 64,
            sum: 100_000,
            min: 900,
            max: 2_400,
            p50: 1_536,
            p90: 2_048,
            p99: 2_400,
            imbalance: 1.54,
        });
        r.roofline.push(RooflineRow {
            kernel: "spmm_feature_parallel".into(),
            launches: 10,
            time_ms: 1.5,
            flops: 1_000_000_000,
            dram_bytes: 100_000_000,
            arithmetic_intensity: Some(10.0),
            attained_gflops: 666.7,
            attained_gbs: 66.7,
            roofline_gflops: 7065.6,
            attained_fraction: 0.094,
            memory_bound: false,
        });
        let text = r.to_json();
        let parsed = Report::from_json(&text).expect("parse");
        assert_eq!(parsed, r);
        // and the serialization itself is stable
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn infinite_intensity_serializes_as_null() {
        let mut r = Report::new("table4", 24);
        r.roofline.push(RooflineRow {
            kernel: "no_dram".into(),
            launches: 1,
            time_ms: 1.0,
            flops: 100,
            dram_bytes: 0,
            arithmetic_intensity: None,
            attained_gflops: 0.0001,
            attained_gbs: 0.0,
            roofline_gflops: 7065.6,
            attained_fraction: 0.0,
            memory_bound: false,
        });
        let parsed = Report::from_json(&r.to_json()).expect("parse");
        assert_eq!(parsed.roofline[0].arithmetic_intensity, None);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("{}").is_err()); // missing required fields
        assert!(Report::from_json("[1, 2]").is_err());
        let future = r#"{"schema_version": 999, "command": "x", "scale": 1,
            "machine": {}, "graphs": [], "entries": []}"#;
        assert!(Report::from_json(future).unwrap_err().contains("newer"));
    }

    #[test]
    fn compare_flags_a_2x_slowdown_as_regression() {
        let base = report_with(vec![entry("k", vec![1.0, 1.01, 0.99])]);
        let cur = report_with(vec![entry("k", vec![2.0, 2.02, 1.98])]);
        let cmp = compare(&base, &cur, 10.0);
        assert_eq!(cmp.rows.len(), 1);
        assert_eq!(cmp.rows[0].verdict, Verdict::Regression);
        assert!((cmp.rows[0].delta_pct - 100.0).abs() < 1.0);
        assert!(cmp.has_regressions());
    }

    #[test]
    fn compare_flags_a_speedup_as_improvement() {
        let base = report_with(vec![entry("k", vec![2.0, 2.0, 2.0])]);
        let cur = report_with(vec![entry("k", vec![1.0, 1.0, 1.0])]);
        let cmp = compare(&base, &cur, 10.0);
        assert_eq!(cmp.rows[0].verdict, Verdict::Improvement);
        assert!(!cmp.has_regressions());
    }

    #[test]
    fn compare_absorbs_deltas_inside_the_noise_band() {
        // 20% slower, but the baseline itself swings ±30%: within noise.
        let base = report_with(vec![entry("k", vec![0.7, 1.0, 1.3])]);
        let cur = report_with(vec![entry("k", vec![1.2, 1.2, 1.2])]);
        let cmp = compare(&base, &cur, 10.0);
        assert_eq!(cmp.rows[0].verdict, Verdict::WithinNoise);
        assert!(cmp.rows[0].noise_pct > cmp.fail_pct);
        // Deterministic entries (stddev 0) gate purely on fail_pct.
        let base = report_with(vec![entry("d", vec![1.0])]);
        let cur = report_with(vec![entry("d", vec![1.05])]);
        assert_eq!(compare(&base, &cur, 10.0).rows[0].verdict, Verdict::WithinNoise);
        assert_eq!(compare(&base, &cur, 2.0).rows[0].verdict, Verdict::Regression);
    }

    #[test]
    fn compare_tracks_added_and_removed_entries() {
        let base = report_with(vec![entry("old", vec![1.0])]);
        let cur = report_with(vec![entry("new", vec![1.0])]);
        let cmp = compare(&base, &cur, 10.0);
        let verdicts: Vec<_> = cmp.rows.iter().map(|r| (r.id.as_str(), r.verdict)).collect();
        assert_eq!(verdicts, vec![("new", Verdict::Added), ("old", Verdict::Removed)]);
        assert!(!cmp.has_regressions()); // membership changes never gate
        let table = cmp.format_table();
        assert!(table.contains("added") && table.contains("removed"));
    }

    #[test]
    fn zero_baseline_median_is_incomparable_not_ok() {
        // Regression test: before Verdict::Incomparable existed, a zero
        // baseline median short-circuited delta_pct to 0.0 and the row came
        // back `WithinNoise` ("ok") no matter how different the current
        // median was — a 0 → 5.0 s swing passed the gate silently.
        let base = report_with(vec![entry("k", vec![0.0, 0.0, 0.0])]);
        let cur = report_with(vec![entry("k", vec![5.0, 5.0, 5.0])]);
        let cmp = compare(&base, &cur, 10.0);
        assert_eq!(cmp.rows[0].verdict, Verdict::Incomparable);
        assert!(cmp.rows[0].delta_pct.is_nan(), "no fabricated 0% delta");
        assert_eq!(cmp.incomparables(), 1);
        assert!(!cmp.has_regressions(), "incomparable entries never gate");
        // near-zero is just as degenerate as exactly zero
        let base = report_with(vec![entry("k", vec![1e-15])]);
        let cur = report_with(vec![entry("k", vec![1.0])]);
        assert_eq!(compare(&base, &cur, 10.0).rows[0].verdict, Verdict::Incomparable);
    }

    #[test]
    fn non_finite_medians_are_incomparable() {
        // NaN median on either side: NaN comparisons are all false, so the
        // old classifier fell through to `WithinNoise` — garbage read as
        // "ok". Inf baseline produced delta_pct = NaN with the same result.
        let sick = |v: f64| {
            let mut e = entry("k", vec![1.0]);
            e.stats.median = v;
            report_with(vec![e])
        };
        let healthy = report_with(vec![entry("k", vec![1.0])]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cmp = compare(&sick(bad), &healthy, 10.0);
            assert_eq!(cmp.rows[0].verdict, Verdict::Incomparable, "baseline median {bad}");
            let cmp = compare(&healthy, &sick(bad), 10.0);
            assert_eq!(cmp.rows[0].verdict, Verdict::Incomparable, "current median {bad}");
        }
        // the table renders the degenerate row without +NaN noise
        let cmp = compare(&sick(f64::NAN), &healthy, 10.0);
        let table = cmp.format_table();
        assert!(table.contains("INCOMP"), "{table}");
        assert!(!table.contains("NaN"), "{table}");
        assert!(table.contains("incomparable"), "{table}");
    }

    #[test]
    fn null_medians_round_trip_as_nan_not_zero() {
        // Regression test: the writer maps non-finite numbers to JSON null
        // (there is no NaN literal), and the parser used to read null back
        // via unwrap_or(0.0) — a corrupt median re-entered the gate as a
        // legitimate-looking 0.0 baseline. It must come back NaN and then
        // classify as Incomparable.
        let mut e = entry("k", vec![1.0, 2.0]);
        e.stats.median = f64::NAN;
        let text = report_with(vec![e]).to_json();
        assert!(text.contains("null"), "{text}");
        let parsed = Report::from_json(&text).expect("parse");
        assert!(parsed.entries[0].stats.median.is_nan(), "null must not become 0.0");
        let healthy = report_with(vec![entry("k", vec![1.0, 2.0])]);
        let cmp = compare(&parsed, &healthy, 10.0);
        assert_eq!(cmp.rows[0].verdict, Verdict::Incomparable);
    }

    #[test]
    fn null_samples_keep_their_position_through_a_round_trip() {
        // Non-finite samples serialize as null; the parser used to drop
        // them (filter_map), silently desyncing samples.len() from runs.
        let mut e = entry("k", vec![1.0, 2.0, 3.0]);
        e.stats.samples = vec![1.0, f64::INFINITY, 3.0];
        let text = report_with(vec![e]).to_json();
        let parsed = Report::from_json(&text).expect("parse");
        let s = &parsed.entries[0].stats.samples;
        assert_eq!(s.len(), 3, "null sample must not vanish");
        assert_eq!(s[0], 1.0);
        assert!(s[1].is_nan(), "null sample reads back as NaN");
        assert_eq!(s[2], 3.0);
    }

    #[test]
    fn merge_folds_sub_reports() {
        let mut master = Report::new("all", 24);
        let mut a = report_with(vec![entry("table3/x", vec![1.0])]);
        a.counters = vec![("edges".into(), 10)];
        a.gauges = vec![("threads".into(), 1.0)];
        let mut b = report_with(vec![entry("fig10/y", vec![2.0])]);
        b.counters = vec![("edges".into(), 5), ("spmm_calls".into(), 2)];
        b.gauges = vec![("threads".into(), 8.0)];
        master.merge(&a);
        master.merge(&b);
        assert_eq!(master.entries.len(), 2);
        assert_eq!(master.counters, vec![("edges".into(), 15), ("spmm_calls".into(), 2)]);
        assert_eq!(master.gauges, vec![("threads".into(), 8.0)]); // last wins
    }

    #[test]
    fn sample_stats_match_the_samples_type() {
        let s = Samples::from_secs(vec![1.0, 2.0, 3.0, 10.0]);
        let stats = SampleStats::of(&s);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.median, 2.5);
        assert_eq!(stats.samples, vec![1.0, 2.0, 3.0, 10.0]);
    }

    #[test]
    fn json_value_parser_handles_escapes_and_nesting() {
        let text = r#"{"a\n": ["A", true, null, -1.5e2], "b": {"c": "x\"y"}}"#;
        let v = Json::parse(text).expect("parse");
        assert_eq!(v.get("a\n").unwrap().as_arr().unwrap()[0].as_str(), Some("A"));
        assert_eq!(v.get("a\n").unwrap().as_arr().unwrap()[3].as_f64(), Some(-150.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("01x").is_err());
    }
}
