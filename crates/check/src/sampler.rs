//! Property checks for the seeded neighbor sampler.
//!
//! The serving path trusts five properties of
//! [`fg_graph::sample_subgraph`] and the blocked forward that runs
//! on it, and this family checks each one mechanically on seeded random
//! cases:
//!
//! 1. **Seeded determinism** — the same `(graph, seeds, config)` always
//!    yields an identical subgraph, down to the CSR arrays and depths,
//!    whether it runs through a [`SampleScratch`] that the whole sweep
//!    shares (as a serving worker's does) or through a fresh one.
//! 2. **Reindex round-trip** — `local_of(global_of(l)) == l`, locals ascend
//!    in global ID, and every subgraph edge maps onto a real edge of the
//!    full graph.
//! 3. **Fanout cap** — no subgraph row exceeds the configured fanout or the
//!    vertex's true in-degree, and per-seed draws are independent of batch
//!    composition.
//! 4. **Full-fanout bit-identity** — 2-hop full-fanout sampled inference
//!    (`fg_gnn::infer_seeds`) is bitwise equal to full-graph
//!    `infer_batch` on the same seeds, for the model family the serving
//!    tier ships.
//! 5. **Blocked ≡ whole subgraph** — on the case's own fanouts (when they
//!    cover at least the models' 2 layers), every block row is every
//!    in-edge of its written row, in the subgraph's order; and with a
//!    seed-row feature override, the per-layer blocks
//!    ([`fg_gnn::SampledBlocks`], what `infer_seeds` and the server run),
//!    layer 0 reading f32 or bf16 storage in place, give the bits of
//!    `infer_batch` on the whole sampled subgraph fed the gathered, widened
//!    rows, for all three models; GAT fed its layer-0 table gives the bits
//!    of GAT computing layer 0 itself.
//!
//! Cases round-trip through compact descriptors
//! (`sampler;g=uni:40:3:7;s=2:9;f=3,full;r=0;k=5`) exactly like the kernel
//! fuzzer's, so any CI failure replays with
//! `fgcheck --case 'sampler;...'`.

use std::fmt;
use std::str::FromStr;

use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

use fg_gnn::models::{build_model, Model};
use fg_gnn::{
    gather_rows, infer_batch, infer_seeds, prepare_seeds, FeatgraphBackend, GnnGraph, Layer0,
    SampledBlocks,
};
use fg_graph::{
    sample_subgraph, sample_subgraph_with, Graph, SampleConfig, SampleScratch, VId, FULL_FANOUT,
};
use fg_tensor::{dequantize, quantize, Bf16, Dense2};

/// Graph families the sampler cases draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerGraph {
    /// `fg_graph::uniform(n, deg, seed)`.
    Uniform {
        /// Vertex count.
        n: usize,
        /// Average in-degree.
        deg: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `fg_graph::power_law(n, deg, 2.5, seed)` — skewed degrees stress
    /// the fanout cap on hub rows.
    PowerLaw {
        /// Vertex count.
        n: usize,
        /// Average degree.
        deg: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl SamplerGraph {
    fn build(&self) -> Graph {
        match *self {
            SamplerGraph::Uniform { n, deg, seed } => fg_graph::uniform(n, deg, seed),
            SamplerGraph::PowerLaw { n, deg, seed } => fg_graph::power_law(n, deg, 2.5, seed),
        }
    }

    fn vertices(&self) -> usize {
        match *self {
            SamplerGraph::Uniform { n, .. } | SamplerGraph::PowerLaw { n, .. } => n,
        }
    }
}

/// One sampler property-check case, reconstructible from its descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerCase {
    /// Graph to sample from.
    pub graph: SamplerGraph,
    /// How many seed vertices to draw.
    pub seed_count: usize,
    /// RNG seed the seed vertices are drawn from.
    pub seed_draw: u64,
    /// Per-hop fanouts; [`FULL_FANOUT`] renders as `full`.
    pub fanouts: Vec<usize>,
    /// Sample with replacement.
    pub replace: bool,
    /// Sampler RNG seed.
    pub sample_seed: u64,
}

impl SamplerCase {
    /// The seed vertices this case queries, derived deterministically from
    /// `(seed_draw, seed_count)` — duplicates are allowed on purpose.
    pub fn seeds(&self) -> Vec<VId> {
        let n = self.graph.vertices().max(1);
        let mut rng = Pcg64Mcg::seed_from_u64(self.seed_draw);
        (0..self.seed_count)
            .map(|_| rng.gen_range(0..n) as VId)
            .collect()
    }

    /// The sampling config this case runs.
    pub fn config(&self) -> SampleConfig {
        SampleConfig {
            fanouts: self.fanouts.clone(),
            replace: self.replace,
            seed: self.sample_seed,
        }
    }
}

impl fmt::Display for SamplerCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sampler;g=")?;
        match self.graph {
            SamplerGraph::Uniform { n, deg, seed } => write!(f, "uni:{n}:{deg}:{seed}")?,
            SamplerGraph::PowerLaw { n, deg, seed } => write!(f, "plaw:{n}:{deg}:{seed}")?,
        }
        write!(f, ";s={}:{};f=", self.seed_count, self.seed_draw)?;
        for (i, &x) in self.fanouts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if x == FULL_FANOUT {
                write!(f, "full")?;
            } else {
                write!(f, "{x}")?;
            }
        }
        write!(
            f,
            ";r={};k={}",
            u8::from(self.replace),
            self.sample_seed
        )
    }
}

impl FromStr for SamplerCase {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| format!("bad sampler descriptor {s:?}: {m}");
        let mut graph = None;
        let mut seeds = None;
        let mut fanouts = None;
        let mut replace = None;
        let mut sample_seed = None;
        let mut parts = s.split(';');
        if parts.next() != Some("sampler") {
            return Err(err("must start with 'sampler'"));
        }
        for part in parts {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| err("expected key=value fields"))?;
            match key {
                "g" => {
                    let fields: Vec<&str> = val.split(':').collect();
                    let [kind, n, deg, seed] = fields[..] else {
                        return Err(err("g takes kind:n:deg:seed"));
                    };
                    let n = n.parse().map_err(|_| err("bad n"))?;
                    let deg = deg.parse().map_err(|_| err("bad deg"))?;
                    let seed = seed.parse().map_err(|_| err("bad graph seed"))?;
                    graph = Some(match kind {
                        "uni" => SamplerGraph::Uniform { n, deg, seed },
                        "plaw" => SamplerGraph::PowerLaw { n, deg, seed },
                        other => return Err(err(&format!("unknown graph kind {other:?}"))),
                    });
                }
                "s" => {
                    let (count, draw) = val
                        .split_once(':')
                        .ok_or_else(|| err("s takes count:seed"))?;
                    seeds = Some((
                        count.parse().map_err(|_| err("bad seed count"))?,
                        draw.parse().map_err(|_| err("bad seed draw"))?,
                    ));
                }
                "f" => {
                    let parsed: Result<Vec<usize>, String> = val
                        .split(',')
                        .map(|t| {
                            if t == "full" {
                                Ok(FULL_FANOUT)
                            } else {
                                t.parse().map_err(|_| err("bad fanout"))
                            }
                        })
                        .collect();
                    fanouts = Some(parsed?);
                }
                "r" => {
                    replace = Some(match val {
                        "0" => false,
                        "1" => true,
                        _ => return Err(err("r takes 0|1")),
                    });
                }
                "k" => sample_seed = Some(val.parse().map_err(|_| err("bad sampler seed"))?),
                other => return Err(err(&format!("unknown field {other:?}"))),
            }
        }
        let (seed_count, seed_draw) = seeds.ok_or_else(|| err("missing s="))?;
        Ok(SamplerCase {
            graph: graph.ok_or_else(|| err("missing g="))?,
            seed_count,
            seed_draw,
            fanouts: fanouts.ok_or_else(|| err("missing f="))?,
            replace: replace.ok_or_else(|| err("missing r="))?,
            sample_seed: sample_seed.ok_or_else(|| err("missing k="))?,
        })
    }
}

/// Draw one sampler case: small graphs dominate, hub-heavy degree
/// distributions and with-replacement draws appear at a fixed rate.
pub fn gen_sampler_case(rng: &mut Pcg64Mcg) -> SamplerCase {
    let n = rng.gen_range(2..200);
    let deg = rng.gen_range(1..8);
    let seed = rng.gen();
    let graph = if rng.gen_bool(0.5) {
        SamplerGraph::Uniform { n, deg, seed }
    } else {
        SamplerGraph::PowerLaw { n, deg, seed }
    };
    let hops = rng.gen_range(1..4);
    let fanouts = (0..hops)
        .map(|_| {
            if rng.gen_bool(0.3) {
                FULL_FANOUT
            } else {
                rng.gen_range(1..8)
            }
        })
        .collect();
    SamplerCase {
        graph,
        seed_count: rng.gen_range(1..6),
        seed_draw: rng.gen(),
        fanouts,
        replace: rng.gen_bool(0.25),
        sample_seed: rng.gen(),
    }
}

/// Run every property check on one case with a fresh scratch; each
/// returned string is one violated property.
pub fn run_sampler_case(case: &SamplerCase) -> Vec<String> {
    run_sampler_case_with(case, &mut SampleScratch::new())
}

/// [`run_sampler_case`] with the case's first sample drawn through
/// `scratch`, which a sweep shares across all its cases (and so across
/// graphs of every size); the second is drawn through a fresh scratch.
pub fn run_sampler_case_with(case: &SamplerCase, scratch: &mut SampleScratch) -> Vec<String> {
    let mut fails = Vec::new();
    let g = case.graph.build();
    let seeds = case.seeds();
    let cfg = case.config();

    let sub = match sample_subgraph_with(scratch, &g, &seeds, &cfg) {
        Ok(s) => s,
        Err(e) => {
            fails.push(format!("sample_subgraph rejected a valid case: {e}"));
            return fails;
        }
    };

    // 1. Seeded determinism: an identical second run through a fresh
    // scratch, arrays and all.
    match sample_subgraph(&g, &seeds, &cfg) {
        Ok(again) => {
            if again.locals() != sub.locals()
                || again.seed_locals() != sub.seed_locals()
                || again.frontier_sizes() != sub.frontier_sizes()
                || again.depths() != sub.depths()
                || again.graph().in_csr() != sub.graph().in_csr()
            {
                fails.push(
                    "determinism: the shared and a fresh scratch produced different subgraphs"
                        .into(),
                );
            }
        }
        Err(e) => fails.push(format!("determinism: second run failed: {e}")),
    }

    // 2. Reindex round-trip: bijection, ascending locals, real edges.
    for l in 0..sub.num_vertices() as VId {
        if sub.local_of(sub.global_of(l)) != Some(l) {
            fails.push(format!("reindex: local {l} does not round-trip"));
            break;
        }
    }
    if !sub.locals().windows(2).all(|w| w[0] < w[1]) {
        fails.push("reindex: locals are not strictly ascending in global ID".into());
    }
    'edges: for l in 0..sub.num_vertices() as VId {
        let dst = sub.global_of(l);
        for &src_l in sub.graph().in_csr().row(l) {
            let src = sub.global_of(src_l);
            if !g.in_csr().row(dst).contains(&src) {
                fails.push(format!(
                    "reindex: subgraph edge {src}->{dst} is not in the full graph"
                ));
                break 'edges;
            }
        }
    }
    for (i, (&s, &l)) in seeds.iter().zip(sub.seed_locals()).enumerate() {
        if sub.global_of(l) != s {
            fails.push(format!("reindex: seed_locals[{i}] does not map back to seed {s}"));
            break;
        }
    }
    if sub.frontier_sizes().iter().sum::<usize>() != sub.num_vertices()
        || sub.frontier_sizes().len() != cfg.hops() + 1
    {
        fails.push(format!(
            "reindex: frontier sizes {:?} do not account for {} vertices over {} hops",
            sub.frontier_sizes(),
            sub.num_vertices(),
            cfg.hops()
        ));
    }

    // 3. Fanout cap: no row exceeds the loosest finite cap or the vertex's
    // true in-degree; seed rows are independent of batch composition.
    let max_fanout = case.fanouts.iter().copied().max().unwrap_or(0);
    for l in 0..sub.num_vertices() as VId {
        let row_len = sub.graph().in_csr().row(l).len();
        let true_deg = g.in_csr().row(sub.global_of(l)).len();
        if row_len > true_deg {
            fails.push(format!(
                "fanout: row {l} has {row_len} edges but vertex {} has in-degree {true_deg}",
                sub.global_of(l)
            ));
            break;
        }
        if max_fanout != FULL_FANOUT && row_len > max_fanout {
            fails.push(format!(
                "fanout: row {l} has {row_len} edges, cap is {max_fanout}"
            ));
            break;
        }
    }
    let globals_of_row = |s: &fg_graph::SampledSubgraph, v: VId| -> Vec<VId> {
        s.graph()
            .in_csr()
            .row(s.local_of(v).expect("seed sampled"))
            .iter()
            .map(|&l| s.global_of(l))
            .collect()
    };
    for &s in &seeds {
        // A seed is always a hop-0 vertex, so its own row must not depend
        // on what else was in the batch.
        match sample_subgraph(&g, &[s], &cfg) {
            Ok(solo) => {
                if globals_of_row(&solo, s) != globals_of_row(&sub, s) {
                    fails.push(format!(
                        "fanout: seed {s}'s row changes with batch composition"
                    ));
                    break;
                }
            }
            Err(e) => {
                fails.push(format!("fanout: solo sample of seed {s} failed: {e}"));
                break;
            }
        }
    }

    // 4. Full-fanout bit-identity: 2-hop full-fanout sampled inference must
    // equal full-graph inference exactly, for each served model family.
    // (Models are 2-layer; the check runs its own full config so it holds
    // regardless of the case's fanouts.)
    let d = 4;
    let features = pseudo_features(g.num_vertices(), d, case.sample_seed);
    let gnn = GnnGraph::new(g.clone());
    let seed_nodes: Vec<usize> = seeds.iter().map(|&s| s as usize).collect();
    let model_name = ["gcn", "graphsage", "gat"][(case.sample_seed % 3) as usize];
    let model = build_model(model_name, d, 8, 3, case.sample_seed);
    let full_cfg = SampleConfig::full(2, case.sample_seed);
    // Separate backends: compiled plans are shape-specific, and every block
    // is a different shape than the full graph.
    let full_backend = FeatgraphBackend::cpu(1);
    let full = infer_batch(model.as_ref(), &gnn, &features, &full_backend, &seed_nodes);
    let sampled = infer_seeds(model.as_ref(), &gnn, &features, 1, &seed_nodes, &full_cfg);
    match (full, sampled) {
        (Ok(a), Ok(b)) => {
            if a != b {
                fails.push(format!(
                    "bit-identity: full-fanout {model_name} inference diverged from full graph"
                ));
            }
        }
        (a, b) => fails.push(format!(
            "bit-identity: inference failed (full: {:?}, sampled: {:?})",
            a.err(),
            b.err()
        )),
    }

    // 5. Blocked ≡ whole subgraph, on the case's own fanouts. Fewer hops
    // than the models' 2 layers is a request the server rejects.
    if cfg.hops() >= 2 {
        let blocked = blocked_matches_whole_subgraph(case, &gnn, &features, &seed_nodes);
        fails.extend(blocked);
    }

    fails
}

fn cpu1() -> FeatgraphBackend {
    FeatgraphBackend::cpu(1)
}

/// Cheap deterministic pseudo-features in (-1, 1).
fn pseudo_features(rows: usize, d: usize, seed: u64) -> Dense2<f32> {
    Dense2::from_fn(rows, d, |r, c| {
        let x = splitmix64(seed ^ ((r as u64) << 20 | c as u64));
        (x as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32
    })
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Property 5: the sampled path's oracle is `prepare_seeds → gather_rows →
/// override → infer_batch` on the whole subgraph; the blocked forward must
/// give its bits, reading features (f32 or bf16 storage) or (GAT) its
/// layer-0 table in place, with the seeds' rows overridden.
fn blocked_matches_whole_subgraph(
    case: &SamplerCase,
    gnn: &GnnGraph,
    features: &Dense2<f32>,
    seeds: &[usize],
) -> Vec<String> {
    let mut fails = Vec::new();
    let (sub, sub_gnn) = match prepare_seeds(gnn, seeds, &case.config()) {
        Ok(prepared) => prepared,
        Err(e) => return vec![format!("blocked: prepare_seeds failed: {e}")],
    };
    fails.extend(blocks_keep_whole_rows(&sub));
    let feats = pseudo_features(seeds.len(), features.cols(), !case.sample_seed);
    let half: Dense2<Bf16> = quantize(features);
    let widened = dequantize(&half);
    // The oracle's input: the stored rows of the subgraph, widened, with
    // the seeds' rows replaced.
    let whole = |stored: &Dense2<f32>| {
        let mut whole = gather_rows(stored, sub.locals());
        for (i, &l) in sub.seed_locals().iter().enumerate() {
            whole.row_mut(l as usize).copy_from_slice(feats.row(i));
        }
        whole
    };
    let (whole_f32, whole_bf16) = (whole(features), whole(&widened));
    let locals: Vec<usize> = sub.seed_locals().iter().map(|&l| l as usize).collect();
    for name in ["gcn", "graphsage", "gat"] {
        let model = build_model(name, features.cols(), 8, 3, case.sample_seed);
        let model: &dyn Model = model.as_ref();
        let blocks = SampledBlocks::new(&sub, model.num_layers());
        let table = model.layer0_table(features);
        let mut runs = vec![
            ("f32", &whole_f32, Layer0::F32(features)),
            ("bf16", &whole_bf16, Layer0::Bf16(&half)),
        ];
        if let Some(table) = &table {
            runs.push(("layer-0 table", &whole_f32, Layer0::Table(table)));
        }
        for (what, whole, layer0) in runs {
            let want = match infer_batch(model, &sub_gnn, whole, &cpu1(), &locals) {
                Ok(rows) => rows,
                Err(e) => {
                    fails.push(format!("blocked: {name} whole-subgraph oracle failed: {e}"));
                    continue;
                }
            };
            if !same_bits(&blocks.forward(model, layer0, Some(&feats), 1), &want) {
                fails.push(format!(
                    "blocked: {name} reading {what} in place diverged from the whole subgraph"
                ));
            }
        }
    }
    fails
}

/// Every block of a 2-layer model holds, as its row `r`, every in-edge of
/// its `r`-th written row in the subgraph's order, and writes exactly the
/// rows within one hop fewer than it reads.
fn blocks_keep_whole_rows(sub: &fg_graph::SampledSubgraph) -> Vec<String> {
    let layers = 2;
    let within = |l: VId, hops: usize| sub.depths()[l as usize] as usize <= hops;
    for layer in 0..layers {
        let (block, src) = sub.block(layers, layer);
        let (csr, dst) = (block.csr(), block.dst());
        let reads = layers - layer;
        let want: Vec<VId> = (0..sub.num_vertices() as VId).filter(|&l| within(l, reads)).collect();
        if src != want || csr.num_cols() != src.len() || csr.num_rows() != dst.len() {
            return vec![format!("blocked: layer {layer} block reads the wrong rows")];
        }
        let written: Vec<VId> = dst.iter().map(|&p| src[p as usize]).collect();
        if !written.iter().copied().eq(want.iter().copied().filter(|&l| within(l, reads - 1))) {
            return vec![format!("blocked: layer {layer} block writes the wrong rows")];
        }
        for (r, &l) in written.iter().enumerate() {
            let row = csr.row(r as VId).iter().map(|&p| src[p as usize]);
            if !row.eq(sub.graph().in_csr().row(l).iter().copied()) {
                return vec![format!(
                    "blocked: layer {layer} block row of local {l} is not its subgraph row"
                )];
            }
        }
    }
    Vec::new()
}

#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One failed sampler case with its violated properties.
#[derive(Debug, Clone)]
pub struct SamplerFailure {
    /// The failing case.
    pub case: SamplerCase,
    /// Violated properties, one line each.
    pub reports: Vec<String>,
}

/// Result of a sampler sweep.
#[derive(Debug, Clone, Default)]
pub struct SamplerSweep {
    /// Cases executed.
    pub total: usize,
    /// Failing cases.
    pub failures: Vec<SamplerFailure>,
}

/// Run `cases` generated sampler cases from `seed`. Deterministic like the
/// kernel sweep: same `(seed, cases)` explores the same case list.
pub fn sampler_sweep(seed: u64, cases: usize, progress: impl Fn(usize, &SamplerSweep)) -> SamplerSweep {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let mut report = SamplerSweep::default();
    let mut scratch = SampleScratch::new();
    for i in 0..cases {
        let case = gen_sampler_case(&mut rng);
        let reports = run_sampler_case_with(&case, &mut scratch);
        report.total += 1;
        if !reports.is_empty() {
            report.failures.push(SamplerFailure { case, reports });
        }
        progress(i, &report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = Pcg64Mcg::seed_from_u64(0);
        let mut b = Pcg64Mcg::seed_from_u64(0);
        for _ in 0..64 {
            assert_eq!(gen_sampler_case(&mut a), gen_sampler_case(&mut b));
        }
    }

    #[test]
    fn descriptors_round_trip() {
        let mut rng = Pcg64Mcg::seed_from_u64(1);
        for _ in 0..128 {
            let case = gen_sampler_case(&mut rng);
            let desc = case.to_string();
            let parsed: SamplerCase = desc.parse().unwrap_or_else(|e| panic!("{desc}: {e}"));
            assert_eq!(parsed, case, "{desc}");
        }
    }

    #[test]
    fn rejects_malformed_descriptors() {
        for bad in [
            "spmm;g=uni:4:1:0",
            "sampler",
            "sampler;g=uni:4:1:0;s=1:0;f=;r=0;k=0",
            "sampler;g=cube:4:1:0;s=1:0;f=1;r=0;k=0",
            "sampler;g=uni:4:1:0;s=1:0;f=1;r=2;k=0",
            "sampler;g=uni:4:1:0;f=1;r=0;k=0",
        ] {
            assert!(bad.parse::<SamplerCase>().is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn smoke_sweep_runs_clean() {
        // Miniature of the CI job; the full 200-case sweep runs as
        // `fgcheck --sampler --seed 0 --cases 200` in the sample-smoke job.
        let report = sampler_sweep(0, 20, |_, _| {});
        let msgs: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("fgcheck --case '{}' # {:?}", f.case, f.reports))
            .collect();
        assert!(report.failures.is_empty(), "{msgs:#?}");
        assert_eq!(report.total, 20);
    }
}
