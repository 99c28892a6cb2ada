//! A fuzz case and its replayable textual descriptor.
//!
//! A [`Case`] pins down everything needed to reproduce one differential
//! run: the kernel (SpMM or SDDMM), a graph recipe, a UDF, a reducer, an
//! execution plan (threads, partitions, tiles, traversal, GPU geometry),
//! and the seed that materializes the input tensors. `Display` and
//! `FromStr` round-trip exactly, so any failure anywhere is replayed with
//! `fgcheck --case '<descriptor>'`.
//!
//! Descriptor grammar (semicolon-separated `key=value` after the kernel):
//!
//! ```text
//! spmm;g=uniform:16:4:7;u=copy-src:8;r=mean;p=t2.p3.ft2.rt1.tr0.hil1.rpb4.epb256.hyb0.tpb64.bindt;s=123
//! ```
//!
//! * `g=` graph spec: `empty` | `edgeless:<n>` | `uniform:<n>:<deg>:<seed>`
//!   | `powerlaw:<n>:<deg>:<seed>` | `adversarial:<n>:<seed>`
//!   | `explicit:<n>[:<s>-<d>,<s>-<d>,...]`
//! * `u=` UDF: `copy-src:<d>` | `copy-edge:<d>` | `src-mul-edge:<d>` |
//!   `src-mul-edge-scalar:<d>` | `src-add-dst:<d>` | `dot:<d>` |
//!   `mhdot:<h>:<d>` | `mlp:<d1>:<d2>`
//! * `r=` reducer (`sum|max|min|mean`; `none` for SDDMM)
//! * `p=` plan, dot-separated fields (see [`ExecPlan`])
//! * `s=` input-tensor seed (u64)

use std::fmt;
use std::str::FromStr;

use featgraph::{Fds, FusedOp, GpuBind, GpuFds, Reducer, Traversal, Udf};
use fg_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

/// Which generalized kernel the case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Vertex-wise aggregation over in-edges (Eq. (1)).
    Spmm,
    /// Edge-wise computation (Eq. (2)).
    Sddmm,
    /// Fused SDDMM → (softmax) → SpMM chain (no `|E|`-sized intermediate).
    Fused,
}

/// Score family of a fused case (`f=` descriptor segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedScoreKind {
    /// `leaky_relu(sl[src] + sr[dst], 0.2)` — the GAT fast path.
    Gat,
    /// `dot(xs[src], xd[dst])` of width `d` — forces the generic
    /// interpreter score path.
    Dot { d: usize },
}

/// Fused-kernel configuration riding alongside the message UDF: which score
/// the kernel evaluates per edge and whether it is softmax-normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedSpec {
    /// Per-edge score shape.
    pub score: FusedScoreKind,
    /// Per-destination softmax normalization (requires `Sum` aggregation).
    pub softmax: bool,
}

impl FusedSpec {
    /// Score operand widths `(src_len, dst_len)`.
    pub fn score_dims(&self) -> (usize, usize) {
        match self.score {
            FusedScoreKind::Gat => (1, 1),
            FusedScoreKind::Dot { d } => (d, d),
        }
    }

    /// Assemble the full fused operator from this spec plus the case's
    /// message UDF and aggregation reducer.
    pub fn build(&self, message: &UdfKind, agg: Reducer) -> FusedOp {
        let score = match self.score {
            FusedScoreKind::Gat => FusedOp::gat_attention(1, 0.2).score,
            FusedScoreKind::Dot { d } => Udf::dot(d),
        };
        FusedOp {
            score,
            softmax: self.softmax,
            message: message.build(),
            agg,
        }
    }
}

impl fmt::Display for FusedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.score {
            FusedScoreKind::Gat => write!(f, "gat:{}", u8::from(self.softmax)),
            FusedScoreKind::Dot { d } => write!(f, "dot:{d}:{}", u8::from(self.softmax)),
        }
    }
}

impl FromStr for FusedSpec {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let sm = |v: &str| -> Result<bool, ParseCaseError> {
            Ok(parse_num::<u8>(v, "fused softmax flag")? != 0)
        };
        match (parts.first().copied().unwrap_or(""), parts.len()) {
            ("gat", 2) => Ok(FusedSpec { score: FusedScoreKind::Gat, softmax: sm(parts[1])? }),
            ("dot", 3) => {
                let d: usize = parse_num(parts[1], "fused dot width")?;
                if d == 0 {
                    return Err(bad("fused dot width must be >= 1"));
                }
                Ok(FusedSpec { score: FusedScoreKind::Dot { d }, softmax: sm(parts[2])? })
            }
            _ => Err(bad(format!("unknown fused spec `{s}`"))),
        }
    }
}

/// Deterministic recipe for the case's graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// Zero vertices, zero edges.
    Empty,
    /// `n` isolated vertices — every destination has in-degree zero.
    Edgeless { n: usize },
    /// `fg_graph::uniform` — uniform random in-degree.
    Uniform { n: usize, deg: usize, seed: u64 },
    /// `fg_graph::power_law` — heavy degree skew (α = 2.2).
    PowerLaw { n: usize, deg: usize, seed: u64 },
    /// Hand-rolled adversarial mix: self-loops, duplicate edges, a hub
    /// vertex, and a guaranteed band of isolated (zero-in-degree) vertices.
    Adversarial { n: usize, seed: u64 },
    /// Explicit edge list — what the shrinker rewrites cases into.
    Explicit { n: usize, edges: Vec<(u32, u32)> },
}

impl GraphSpec {
    /// Materialize the graph. Deterministic for a given spec.
    pub fn build(&self) -> Graph {
        match *self {
            GraphSpec::Empty => Graph::from_edges(0, &[]),
            GraphSpec::Edgeless { n } => Graph::from_edges(n, &[]),
            GraphSpec::Uniform { n, deg, seed } => fg_graph::uniform(n.max(1), deg, seed),
            GraphSpec::PowerLaw { n, deg, seed } => fg_graph::power_law(n.max(1), deg, 2.2, seed),
            GraphSpec::Adversarial { n, seed } => adversarial_graph(n.max(1), seed),
            GraphSpec::Explicit { n, ref edges } => Graph::from_edges(n, edges),
        }
    }
}

/// Adversarial generator: everything `Graph::from_edges` tolerates in one
/// place. Roughly a third of vertices are left with no in-edges at all
/// (the zero-in-degree band the `Max`/`Min` audit cares about); the rest
/// receive a mix of self-loops, duplicated edges, and hub fan-in.
fn adversarial_graph(n: usize, seed: u64) -> Graph {
    let mut rng = Pcg64Mcg::seed_from_u64(seed ^ 0xadd5_ee1e);
    let mut edges = Vec::new();
    // Destinations only in the lower two thirds; the top band stays isolated.
    let dst_hi = (n * 2).div_ceil(3).max(1);
    let hub = rng.gen_range(0..dst_hi) as u32;
    let m = rng.gen_range(0..(4 * n + 1));
    for _ in 0..m {
        let src = rng.gen_range(0..n) as u32;
        let dst = rng.gen_range(0..dst_hi) as u32;
        let e = match rng.gen_range(0..8u32) {
            0 => (dst, dst),  // self-loop
            1 => (src, hub),  // hub fan-in
            _ => (src, dst),
        };
        edges.push(e);
        if rng.gen_bool(0.25) {
            edges.push(e); // duplicate — must be deduplicated, not double-counted
        }
    }
    Graph::from_edges(n, &edges)
}

/// Which UDF builder the case uses, with its dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdfKind {
    /// `msg = x[src]` (GCN aggregation).
    CopySrc { d: usize },
    /// `msg = w[eid]`.
    CopyEdge { d: usize },
    /// `msg = x[src] * w[eid]` element-wise.
    SrcMulEdge { d: usize },
    /// `msg = x[src] * w[eid][0]` (scalar edge weight).
    SrcMulEdgeScalar { d: usize },
    /// `msg = x[src] + x_dst[dst]`.
    SrcAddDst { d: usize },
    /// `out = x[src] · x_dst[dst]` (attention score).
    Dot { d: usize },
    /// Per-head dot product over `h` heads of width `d`.
    MultiHeadDot { h: usize, d: usize },
    /// `msg = relu((x[src] + x_dst[dst]) × W)`, `W : d1×d2`.
    Mlp { d1: usize, d2: usize },
}

impl UdfKind {
    /// Build the IR-level UDF.
    pub fn build(&self) -> Udf {
        match *self {
            UdfKind::CopySrc { d } => Udf::copy_src(d),
            UdfKind::CopyEdge { d } => Udf::copy_edge(d),
            UdfKind::SrcMulEdge { d } => Udf::src_mul_edge(d),
            UdfKind::SrcMulEdgeScalar { d } => Udf::src_mul_edge_scalar(d),
            UdfKind::SrcAddDst { d } => Udf::src_add_dst(d),
            UdfKind::Dot { d } => Udf::dot(d),
            UdfKind::MultiHeadDot { h, d } => Udf::multi_head_dot(h, d),
            UdfKind::Mlp { d1, d2 } => Udf::mlp(d1, d2),
        }
    }
}

/// Template-level execution plan: every knob the paper's two-level
/// optimization exposes, in one flat record so the shrinker can simplify
/// them field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// CPU worker threads.
    pub threads: usize,
    /// CPU SpMM 1D source partitions.
    pub partitions: usize,
    /// FDS feature-axis tiles.
    pub feature_tiles: usize,
    /// FDS reduce-axis tiles.
    pub reduce_tiles: usize,
    /// GPU tree reduction across `thread.x`.
    pub tree_reduce: bool,
    /// CPU SDDMM Hilbert traversal (false = canonical dst-major).
    pub hilbert: bool,
    /// GPU SpMM destination rows per block.
    pub rows_per_block: usize,
    /// GPU SDDMM edges per block.
    pub edges_per_block: usize,
    /// GPU SpMM hybrid (degree-split shared-memory staging) partitioning.
    pub hybrid: bool,
    /// GPU threads per block.
    pub threads_per_block: usize,
    /// GPU binding of the UDF output axis: thread.x / block.x / none.
    pub bind: GpuBind,
}

impl Default for ExecPlan {
    fn default() -> Self {
        Self {
            threads: 1,
            partitions: 1,
            feature_tiles: 1,
            reduce_tiles: 1,
            tree_reduce: false,
            hilbert: false,
            rows_per_block: 1,
            edges_per_block: 256,
            hybrid: false,
            threads_per_block: 32,
            bind: GpuBind::None,
        }
    }
}

impl ExecPlan {
    /// The FDS this plan induces.
    pub fn fds(&self) -> Fds {
        Fds {
            feature_tiles: self.feature_tiles,
            reduce_tiles: self.reduce_tiles,
            gpu: GpuFds {
                bind_out: self.bind,
                tree_reduce: self.tree_reduce,
                threads_per_block: self.threads_per_block,
            },
        }
    }

    /// CPU SDDMM traversal order.
    pub fn traversal(&self) -> Traversal {
        if self.hilbert {
            Traversal::Hilbert
        } else {
            Traversal::Canonical
        }
    }
}

/// One fully-specified differential fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// SpMM or SDDMM.
    pub kernel: KernelKind,
    /// Graph recipe.
    pub graph: GraphSpec,
    /// Message/edge UDF.
    pub udf: UdfKind,
    /// Aggregation (SpMM and fused only; ignored for SDDMM).
    pub reducer: Reducer,
    /// Fused-kernel configuration (`Some` iff `kernel == Fused`).
    pub fused: Option<FusedSpec>,
    /// Template-level execution plan.
    pub plan: ExecPlan,
    /// Seed for the input tensors.
    pub seed: u64,
}

impl Case {
    /// Materialize the graph.
    pub fn build_graph(&self) -> Graph {
        self.graph.build()
    }

    /// Build the UDF (always valid by construction: dims ≥ 1).
    pub fn build_udf(&self) -> Udf {
        self.udf.build()
    }
}

// ---------------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------------

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSpec::Empty => write!(f, "empty"),
            GraphSpec::Edgeless { n } => write!(f, "edgeless:{n}"),
            GraphSpec::Uniform { n, deg, seed } => write!(f, "uniform:{n}:{deg}:{seed}"),
            GraphSpec::PowerLaw { n, deg, seed } => write!(f, "powerlaw:{n}:{deg}:{seed}"),
            GraphSpec::Adversarial { n, seed } => write!(f, "adversarial:{n}:{seed}"),
            GraphSpec::Explicit { n, edges } => {
                write!(f, "explicit:{n}")?;
                for (i, (s, d)) in edges.iter().enumerate() {
                    write!(f, "{}{s}-{d}", if i == 0 { ":" } else { "," })?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for UdfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            UdfKind::CopySrc { d } => write!(f, "copy-src:{d}"),
            UdfKind::CopyEdge { d } => write!(f, "copy-edge:{d}"),
            UdfKind::SrcMulEdge { d } => write!(f, "src-mul-edge:{d}"),
            UdfKind::SrcMulEdgeScalar { d } => write!(f, "src-mul-edge-scalar:{d}"),
            UdfKind::SrcAddDst { d } => write!(f, "src-add-dst:{d}"),
            UdfKind::Dot { d } => write!(f, "dot:{d}"),
            UdfKind::MultiHeadDot { h, d } => write!(f, "mhdot:{h}:{d}"),
            UdfKind::Mlp { d1, d2 } => write!(f, "mlp:{d1}:{d2}"),
        }
    }
}

impl fmt::Display for ExecPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bind = match self.bind {
            GpuBind::ThreadX => 't',
            GpuBind::BlockX => 'b',
            GpuBind::None => 'n',
        };
        write!(
            f,
            "t{}.p{}.ft{}.rt{}.tr{}.hil{}.rpb{}.epb{}.hyb{}.tpb{}.bind{}",
            self.threads,
            self.partitions,
            self.feature_tiles,
            self.reduce_tiles,
            u8::from(self.tree_reduce),
            u8::from(self.hilbert),
            self.rows_per_block,
            self.edges_per_block,
            u8::from(self.hybrid),
            self.threads_per_block,
            bind,
        )
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kernel = match self.kernel {
            KernelKind::Spmm => "spmm",
            KernelKind::Sddmm => "sddmm",
            KernelKind::Fused => "fused",
        };
        let red = match (self.kernel, self.reducer) {
            (KernelKind::Sddmm, _) => "none",
            (_, Reducer::Sum) => "sum",
            (_, Reducer::Max) => "max",
            (_, Reducer::Min) => "min",
            (_, Reducer::Mean) => "mean",
        };
        write!(f, "{kernel};g={};u={};r={red}", self.graph, self.udf)?;
        if let Some(spec) = &self.fused {
            write!(f, ";f={spec}")?;
        }
        write!(f, ";p={};s={}", self.plan, self.seed)
    }
}

// ---------------------------------------------------------------------------
// FromStr
// ---------------------------------------------------------------------------

/// Descriptor parse error with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaseError(pub String);

impl fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad case descriptor: {}", self.0)
    }
}

impl std::error::Error for ParseCaseError {}

fn bad(msg: impl Into<String>) -> ParseCaseError {
    ParseCaseError(msg.into())
}

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, ParseCaseError> {
    s.parse().map_err(|_| bad(format!("{what}: `{s}`")))
}

impl FromStr for GraphSpec {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.splitn(2, ':');
        let kind = it.next().unwrap_or("");
        let rest = it.next();
        let args = |n: usize| -> Result<Vec<&str>, ParseCaseError> {
            let parts: Vec<&str> = rest.unwrap_or("").split(':').collect();
            if parts.len() != n || parts.iter().any(|p| p.is_empty()) {
                return Err(bad(format!("graph `{kind}` wants {n} args, got `{s}`")));
            }
            Ok(parts)
        };
        match kind {
            "empty" => Ok(GraphSpec::Empty),
            "edgeless" => {
                let a = args(1)?;
                Ok(GraphSpec::Edgeless { n: parse_num(a[0], "n")? })
            }
            "uniform" | "powerlaw" => {
                let a = args(3)?;
                let (n, deg, seed) = (
                    parse_num(a[0], "n")?,
                    parse_num(a[1], "deg")?,
                    parse_num(a[2], "seed")?,
                );
                Ok(if kind == "uniform" {
                    GraphSpec::Uniform { n, deg, seed }
                } else {
                    GraphSpec::PowerLaw { n, deg, seed }
                })
            }
            "adversarial" => {
                let a = args(2)?;
                Ok(GraphSpec::Adversarial {
                    n: parse_num(a[0], "n")?,
                    seed: parse_num(a[1], "seed")?,
                })
            }
            "explicit" => {
                let rest = rest.unwrap_or("");
                let mut it = rest.splitn(2, ':');
                let n = parse_num(it.next().unwrap_or(""), "n")?;
                let mut edges = Vec::new();
                if let Some(list) = it.next() {
                    for pair in list.split(',').filter(|p| !p.is_empty()) {
                        let (a, b) = pair
                            .split_once('-')
                            .ok_or_else(|| bad(format!("edge `{pair}`")))?;
                        edges.push((parse_num(a, "src")?, parse_num(b, "dst")?));
                    }
                }
                Ok(GraphSpec::Explicit { n, edges })
            }
            other => Err(bad(format!("unknown graph kind `{other}`"))),
        }
    }
}

impl FromStr for UdfKind {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let dim = |i: usize| -> Result<usize, ParseCaseError> {
            let v: usize = parse_num(parts.get(i).copied().unwrap_or(""), "udf dim")?;
            if v == 0 {
                return Err(bad("udf dims must be >= 1"));
            }
            Ok(v)
        };
        match (parts[0], parts.len()) {
            ("copy-src", 2) => Ok(UdfKind::CopySrc { d: dim(1)? }),
            ("copy-edge", 2) => Ok(UdfKind::CopyEdge { d: dim(1)? }),
            ("src-mul-edge", 2) => Ok(UdfKind::SrcMulEdge { d: dim(1)? }),
            ("src-mul-edge-scalar", 2) => Ok(UdfKind::SrcMulEdgeScalar { d: dim(1)? }),
            ("src-add-dst", 2) => Ok(UdfKind::SrcAddDst { d: dim(1)? }),
            ("dot", 2) => Ok(UdfKind::Dot { d: dim(1)? }),
            ("mhdot", 3) => Ok(UdfKind::MultiHeadDot { h: dim(1)?, d: dim(2)? }),
            ("mlp", 3) => Ok(UdfKind::Mlp { d1: dim(1)?, d2: dim(2)? }),
            _ => Err(bad(format!("unknown udf `{s}`"))),
        }
    }
}

impl FromStr for ExecPlan {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = ExecPlan::default();
        for field in s.split('.') {
            if let Some(val) = field.strip_prefix("bind") {
                plan.bind = match val {
                    "t" => GpuBind::ThreadX,
                    "b" => GpuBind::BlockX,
                    "n" => GpuBind::None,
                    other => return Err(bad(format!("bind `{other}`"))),
                };
                continue;
            }
            let split = field.find(|c: char| c.is_ascii_digit()).unwrap_or(field.len());
            let (key, val) = field.split_at(split);
            match key {
                "t" => plan.threads = parse_num(val, "threads")?,
                "p" => plan.partitions = parse_num(val, "partitions")?,
                "ft" => plan.feature_tiles = parse_num(val, "feature_tiles")?,
                "rt" => plan.reduce_tiles = parse_num(val, "reduce_tiles")?,
                "tr" => plan.tree_reduce = parse_num::<u8>(val, "tree_reduce")? != 0,
                "hil" => plan.hilbert = parse_num::<u8>(val, "hilbert")? != 0,
                "rpb" => plan.rows_per_block = parse_num(val, "rows_per_block")?,
                "epb" => plan.edges_per_block = parse_num(val, "edges_per_block")?,
                "hyb" => plan.hybrid = parse_num::<u8>(val, "hybrid")? != 0,
                "tpb" => plan.threads_per_block = parse_num(val, "threads_per_block")?,
                other => return Err(bad(format!("unknown plan field `{other}{val}`"))),
            }
        }
        Ok(plan)
    }
}

impl FromStr for Case {
    type Err = ParseCaseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut segs = s.split(';');
        let kernel = match segs.next().unwrap_or("") {
            "spmm" => KernelKind::Spmm,
            "sddmm" => KernelKind::Sddmm,
            "fused" => KernelKind::Fused,
            other => return Err(bad(format!("unknown kernel `{other}`"))),
        };
        let (mut graph, mut udf, mut reducer, mut plan, mut seed) = (None, None, None, None, None);
        let mut fused = None;
        for seg in segs {
            let (key, val) = seg
                .split_once('=')
                .ok_or_else(|| bad(format!("segment `{seg}` is not key=value")))?;
            match key {
                "g" => graph = Some(val.parse::<GraphSpec>()?),
                "u" => udf = Some(val.parse::<UdfKind>()?),
                "r" => {
                    reducer = Some(match val {
                        "sum" => Reducer::Sum,
                        "max" => Reducer::Max,
                        "min" => Reducer::Min,
                        "mean" => Reducer::Mean,
                        // SDDMM has no aggregation; Sum is a placeholder.
                        "none" => Reducer::Sum,
                        other => return Err(bad(format!("reducer `{other}`"))),
                    })
                }
                "f" => fused = Some(val.parse::<FusedSpec>()?),
                "p" => plan = Some(val.parse::<ExecPlan>()?),
                "s" => seed = Some(parse_num(val, "seed")?),
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        match (kernel, fused.is_some()) {
            (KernelKind::Fused, false) => return Err(bad("fused kernel is missing f=")),
            (KernelKind::Spmm | KernelKind::Sddmm, true) => {
                return Err(bad("f= only applies to the fused kernel"))
            }
            _ => {}
        }
        Ok(Case {
            kernel,
            graph: graph.ok_or_else(|| bad("missing g="))?,
            udf: udf.ok_or_else(|| bad("missing u="))?,
            reducer: reducer.ok_or_else(|| bad("missing r="))?,
            fused,
            plan: plan.ok_or_else(|| bad("missing p="))?,
            seed: seed.ok_or_else(|| bad("missing s="))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(desc: &str) {
        let case: Case = desc.parse().expect(desc);
        assert_eq!(case.to_string(), desc, "display should match parse input");
        let again: Case = case.to_string().parse().unwrap();
        assert_eq!(again, case);
    }

    #[test]
    fn descriptor_roundtrips() {
        roundtrip(
            "spmm;g=uniform:16:4:7;u=copy-src:8;r=mean;p=t2.p3.ft2.rt1.tr0.hil1.rpb4.epb256.hyb0.tpb64.bindt;s=123",
        );
        roundtrip(
            "sddmm;g=adversarial:9:42;u=mhdot:2:3;r=none;p=t1.p1.ft1.rt1.tr1.hil0.rpb1.epb64.hyb0.tpb32.bindn;s=0",
        );
        roundtrip(
            "spmm;g=explicit:4:0-1,1-1,3-0;u=mlp:4:2;r=max;p=t4.p2.ft1.rt2.tr1.hil0.rpb2.epb256.hyb1.tpb256.bindb;s=9",
        );
        roundtrip(
            "spmm;g=explicit:3;u=copy-src:1;r=sum;p=t1.p1.ft1.rt1.tr0.hil0.rpb1.epb256.hyb0.tpb32.bindn;s=1",
        );
        roundtrip(
            "spmm;g=empty;u=src-mul-edge-scalar:2;r=min;p=t1.p1.ft1.rt1.tr0.hil0.rpb1.epb256.hyb0.tpb32.bindn;s=5",
        );
        roundtrip(
            "fused;g=uniform:20:4:3;u=copy-src:8;r=sum;f=gat:1;p=t2.p3.ft1.rt1.tr0.hil0.rpb2.epb256.hyb0.tpb64.bindn;s=77",
        );
        roundtrip(
            "fused;g=adversarial:11:9;u=src-mul-edge:4;r=max;f=dot:2:0;p=t1.p1.ft1.rt1.tr0.hil0.rpb1.epb256.hyb0.tpb32.bindn;s=3",
        );
    }

    #[test]
    fn fused_spec_builds_the_expected_operator() {
        let spec = FusedSpec { score: FusedScoreKind::Gat, softmax: true };
        let op = spec.build(&UdfKind::CopySrc { d: 16 }, Reducer::Sum);
        op.validate().unwrap();
        assert_eq!(op.out_len(), 16);
        assert!(op.softmax);
        assert_eq!(spec.score_dims(), (1, 1));
        let spec = FusedSpec { score: FusedScoreKind::Dot { d: 4 }, softmax: false };
        let op = spec.build(&UdfKind::SrcMulEdgeScalar { d: 8 }, Reducer::Max);
        op.validate().unwrap();
        assert_eq!(spec.score_dims(), (4, 4));
    }

    #[test]
    fn bad_descriptors_are_rejected() {
        for bad_desc in [
            "",
            "spmm",
            "nope;g=empty;u=copy-src:1;r=sum;p=t1;s=0",
            "spmm;g=moon:3;u=copy-src:1;r=sum;p=t1;s=0",
            "spmm;g=empty;u=copy-src:0;r=sum;p=t1;s=0",
            "spmm;g=empty;u=copy-src:1;r=prod;p=t1;s=0",
            "spmm;g=empty;u=copy-src:1;r=sum;p=zz9;s=0",
            "spmm;g=explicit:4:0_1;u=copy-src:1;r=sum;p=t1;s=0",
            // fused kernel requires f=, and f= requires the fused kernel
            "fused;g=empty;u=copy-src:1;r=sum;p=t1;s=0",
            "spmm;g=empty;u=copy-src:1;r=sum;f=gat:1;p=t1;s=0",
            "fused;g=empty;u=copy-src:1;r=sum;f=warp:1;p=t1;s=0",
            "fused;g=empty;u=copy-src:1;r=sum;f=dot:0:1;p=t1;s=0",
        ] {
            assert!(bad_desc.parse::<Case>().is_err(), "accepted: {bad_desc}");
        }
    }

    #[test]
    fn adversarial_graph_has_isolated_band() {
        let g = adversarial_graph(30, 7);
        assert_eq!(g.num_vertices(), 30);
        // top third of vertices never appear as destinations
        for v in 20..30 {
            assert_eq!(g.in_degree(v), 0, "vertex {v} should be isolated");
        }
    }

    #[test]
    fn explicit_graphs_tolerate_duplicates_and_self_loops() {
        let spec = GraphSpec::Explicit {
            n: 3,
            edges: vec![(0, 1), (0, 1), (2, 2)],
        };
        let g = spec.build();
        assert_eq!(g.num_edges(), 2, "duplicates deduplicated");
        assert_eq!(g.in_degree(2), 1, "self-loop kept");
    }
}
