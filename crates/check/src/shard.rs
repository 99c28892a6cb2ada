//! Property checks for sharded inference ([`fg_gnn::infer_sharded`]).
//!
//! Sharded serving's contract is that splitting a graph across shard
//! workers changes nothing observable: every answer is bitwise identical to
//! the single-worker path, for every shard count and placement strategy.
//! This family checks that contract plus the plan invariants it rests on,
//! on seeded random `(graph × model × shard count × strategy)` cases:
//!
//! 1. **Partition soundness** — owned sets partition the vertices, locals
//!    ascend in global ID and equal owned ∪ halo, and `owner_of` agrees
//!    with the owned sets.
//! 2. **Halo-plan round-trip** — each shard's exchange plan reads every
//!    halo vertex exactly once, from the shard that owns it, at the owner's
//!    local row index.
//! 3. **Edge conservation** — every edge lands on exactly one shard (its
//!    destination's owner), owned rows reproduce the full graph's in-edges
//!    in the same order, and halo rows are empty.
//! 4. **Bitwise parity** — `infer_sharded` equals single-worker
//!    `infer_batch` exactly on every vertex, for the served model family.
//!
//! Cases round-trip through compact descriptors
//! (`shard;g=uni:40:3:7;m=gcn;n=4;p=range;k=5`) exactly like the kernel
//! fuzzer's, so any CI failure replays with `fgcheck --case 'shard;...'`.
//! The generator draws empty graphs and shard counts above the vertex
//! count on purpose: empty shards and isolated vertices must behave.

use std::fmt;
use std::str::FromStr;

use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

use fg_gnn::models::build_model;
use fg_gnn::{infer_batch, infer_sharded, FeatgraphBackend, GnnGraph, ShardedGraph};
use fg_graph::{generators, Graph, ShardPlan, ShardStrategy, VId};
use fg_tensor::Dense2;

/// Graph families the shard cases draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardGraph {
    /// `generators::uniform(n, deg, seed)`.
    Uniform {
        /// Vertex count.
        n: usize,
        /// Average in-degree.
        deg: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `generators::power_law(n, deg, 2.5, seed)` — hub destinations skew
    /// the degree-based placement.
    PowerLaw {
        /// Vertex count.
        n: usize,
        /// Average degree.
        deg: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `n` vertices, zero edges — every vertex isolated, no halo anywhere.
    Edgeless {
        /// Vertex count.
        n: usize,
    },
}

impl ShardGraph {
    fn build(&self) -> Graph {
        match *self {
            ShardGraph::Uniform { n, deg, seed } => generators::uniform(n, deg, seed),
            ShardGraph::PowerLaw { n, deg, seed } => generators::power_law(n, deg, 2.5, seed),
            ShardGraph::Edgeless { n } => Graph::from_edges(n, &[]),
        }
    }

    fn vertices(&self) -> usize {
        match *self {
            ShardGraph::Uniform { n, .. }
            | ShardGraph::PowerLaw { n, .. }
            | ShardGraph::Edgeless { n } => n,
        }
    }

    /// The same family at a smaller vertex count (for shrinking).
    fn with_vertices(&self, n: usize) -> ShardGraph {
        match *self {
            ShardGraph::Uniform { deg, seed, .. } => ShardGraph::Uniform { n, deg, seed },
            ShardGraph::PowerLaw { deg, seed, .. } => ShardGraph::PowerLaw { n, deg, seed },
            ShardGraph::Edgeless { .. } => ShardGraph::Edgeless { n },
        }
    }
}

/// One sharded-inference property case, reconstructible from its
/// descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCase {
    /// Graph to shard.
    pub graph: ShardGraph,
    /// Served model family (`gcn` / `graphsage` / `gat`).
    pub model: &'static str,
    /// Shard count (may exceed the vertex count).
    pub shards: usize,
    /// Placement strategy.
    pub strategy: ShardStrategy,
    /// Seed for features and model parameters.
    pub param_seed: u64,
}

const MODELS: [&str; 3] = ["gcn", "graphsage", "gat"];

impl fmt::Display for ShardCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard;g=")?;
        match self.graph {
            ShardGraph::Uniform { n, deg, seed } => write!(f, "uni:{n}:{deg}:{seed}")?,
            ShardGraph::PowerLaw { n, deg, seed } => write!(f, "plaw:{n}:{deg}:{seed}")?,
            ShardGraph::Edgeless { n } => write!(f, "none:{n}")?,
        }
        write!(
            f,
            ";m={};n={};p={};k={}",
            self.model, self.shards, self.strategy, self.param_seed
        )
    }
}

impl FromStr for ShardCase {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| format!("bad shard descriptor {s:?}: {m}");
        let mut graph = None;
        let mut model = None;
        let mut shards = None;
        let mut strategy = None;
        let mut param_seed = None;
        let mut parts = s.split(';');
        if parts.next() != Some("shard") {
            return Err(err("must start with 'shard'"));
        }
        for part in parts {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| err("expected key=value fields"))?;
            match key {
                "g" => {
                    let fields: Vec<&str> = val.split(':').collect();
                    graph = Some(match fields[..] {
                        ["none", n] => ShardGraph::Edgeless {
                            n: n.parse().map_err(|_| err("bad n"))?,
                        },
                        [kind, n, deg, seed] => {
                            let n = n.parse().map_err(|_| err("bad n"))?;
                            let deg = deg.parse().map_err(|_| err("bad deg"))?;
                            let seed = seed.parse().map_err(|_| err("bad graph seed"))?;
                            match kind {
                                "uni" => ShardGraph::Uniform { n, deg, seed },
                                "plaw" => ShardGraph::PowerLaw { n, deg, seed },
                                other => return Err(err(&format!("unknown graph kind {other:?}"))),
                            }
                        }
                        _ => return Err(err("g takes kind:n:deg:seed or none:n")),
                    });
                }
                "m" => {
                    model = Some(
                        *MODELS
                            .iter()
                            .find(|m| **m == val)
                            .ok_or_else(|| err(&format!("unknown model {val:?}")))?,
                    );
                }
                "n" => shards = Some(val.parse().map_err(|_| err("bad shard count"))?),
                "p" => strategy = Some(val.parse::<ShardStrategy>().map_err(|e| err(&e))?),
                "k" => param_seed = Some(val.parse().map_err(|_| err("bad param seed"))?),
                other => return Err(err(&format!("unknown field {other:?}"))),
            }
        }
        Ok(ShardCase {
            graph: graph.ok_or_else(|| err("missing g="))?,
            model: model.ok_or_else(|| err("missing m="))?,
            shards: shards.ok_or_else(|| err("missing n="))?,
            strategy: strategy.ok_or_else(|| err("missing p="))?,
            param_seed: param_seed.ok_or_else(|| err("missing k="))?,
        })
    }
}

/// Draw one shard case: small graphs dominate; empty graphs, hub-heavy
/// degree distributions, and shard counts above the vertex count appear at
/// fixed rates.
pub fn gen_shard_case(rng: &mut Pcg64Mcg) -> ShardCase {
    let n = rng.gen_range(1..120);
    let graph = match rng.gen_range(0..10) {
        0 => ShardGraph::Edgeless { n },
        1..=5 => ShardGraph::Uniform {
            n,
            deg: rng.gen_range(1..7),
            seed: rng.gen(),
        },
        _ => ShardGraph::PowerLaw {
            n,
            deg: rng.gen_range(1..7),
            seed: rng.gen(),
        },
    };
    // 1 in 8 cases asks for more shards than vertices: empty shards must
    // hold every property.
    let shards = if rng.gen_bool(0.125) {
        n + rng.gen_range(1..4)
    } else {
        rng.gen_range(1..9)
    };
    ShardCase {
        graph,
        model: MODELS[rng.gen_range(0..MODELS.len())],
        shards,
        strategy: if rng.gen_bool(0.5) {
            ShardStrategy::Range
        } else {
            ShardStrategy::Degree
        },
        param_seed: rng.gen(),
    }
}

/// Check partition soundness, the halo-plan round-trip, and edge
/// conservation on a built plan.
fn check_plan(g: &Graph, plan: &ShardPlan) -> Vec<String> {
    let mut fails = Vec::new();
    let n = g.num_vertices();

    // 1. Partition soundness.
    let total_owned: usize = plan.shards().map(|s| s.owned().len()).sum();
    if total_owned != n {
        fails.push(format!(
            "partition: owned sets cover {total_owned} of {n} vertices"
        ));
    }
    for v in 0..n as VId {
        let owner = plan.owner_of(v);
        if !plan.shard(owner).owned().contains(&v) {
            fails.push(format!(
                "partition: owner_of({v}) = {owner} but shard {owner} does not own it"
            ));
            break;
        }
    }
    for (s, shard) in plan.shards().enumerate() {
        if !shard.locals().windows(2).all(|w| w[0] < w[1]) {
            fails.push(format!("partition: shard {s} locals are not strictly ascending"));
        }
        let mut expect: Vec<VId> = shard.owned().iter().chain(shard.halo()).copied().collect();
        expect.sort_unstable();
        if shard.locals() != expect {
            fails.push(format!("partition: shard {s} locals != sorted(owned ∪ halo)"));
        }
        if shard.halo().iter().any(|h| plan.owner_of(*h) == s) {
            fails.push(format!("partition: shard {s} halo contains an owned vertex"));
        }
    }

    // 2. Halo-plan round-trip: every halo vertex read exactly once, from
    // its owner, at the owner's local row.
    for (s, shard) in plan.shards().enumerate() {
        let mut seen = vec![0u32; shard.locals().len()];
        for rr in shard.remote_reads() {
            let global = shard.locals()[rr.local as usize];
            seen[rr.local as usize] += 1;
            if rr.owner as usize != plan.owner_of(global) {
                fails.push(format!(
                    "halo: shard {s} reads vertex {global} from shard {} (owner is {})",
                    rr.owner,
                    plan.owner_of(global)
                ));
                break;
            }
            if plan.shard(rr.owner as usize).local_of(global) != Some(rr.owner_local) {
                fails.push(format!(
                    "halo: shard {s} reads vertex {global} at wrong owner row {}",
                    rr.owner_local
                ));
                break;
            }
        }
        for (l, &count) in seen.iter().enumerate() {
            let global = shard.locals()[l];
            let is_halo = shard.halo().contains(&global);
            let expected = u32::from(is_halo);
            if count != expected {
                fails.push(format!(
                    "halo: shard {s} reads vertex {global} {count} times (expected {expected})"
                ));
                break;
            }
        }
    }

    // 3. Edge conservation: every edge on its destination's owner shard,
    // owned rows identical to the full graph's in-rows, halo rows empty.
    let total_edges: usize = plan.shards().map(|s| s.num_edges()).sum();
    if total_edges != g.num_edges() {
        fails.push(format!(
            "edges: shards carry {total_edges} of {} edges",
            g.num_edges()
        ));
    }
    'shards: for (s, shard) in plan.shards().enumerate() {
        for (l, &global) in shard.locals().iter().enumerate() {
            let row: Vec<VId> = shard
                .graph()
                .in_csr()
                .row(l as VId)
                .iter()
                .map(|&src_l| shard.locals()[src_l as usize])
                .collect();
            if plan.owner_of(global) == s {
                if row != g.in_csr().row(global) {
                    fails.push(format!(
                        "edges: shard {s} owned row for vertex {global} diverges from the graph"
                    ));
                    break 'shards;
                }
            } else if !row.is_empty() {
                fails.push(format!(
                    "edges: shard {s} halo row for vertex {global} is not empty"
                ));
                break 'shards;
            }
        }
    }

    fails
}

/// Run every property check on one case; each returned string is one
/// violated property.
pub fn run_shard_case(case: &ShardCase) -> Vec<String> {
    let g = case.graph.build();
    let sharded = ShardedGraph::build(&g, case.shards, case.strategy);
    let mut fails = check_plan(&g, sharded.plan());

    // 4. Bitwise parity on every vertex.
    let d = 4;
    let features = Dense2::from_fn(g.num_vertices(), d, |r, c| {
        let x = splitmix64(case.param_seed ^ ((r as u64) << 20 | c as u64));
        (x as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32
    });
    let model = build_model(case.model, d, 8, 3, case.param_seed);
    let nodes: Vec<usize> = (0..g.num_vertices()).collect();
    let gnn = GnnGraph::new(g.clone());
    let single_backend = FeatgraphBackend::cpu(1);
    let single = infer_batch(model.as_ref(), &gnn, &features, &single_backend, &nodes);
    let run = infer_sharded(model.as_ref(), &sharded, &features, 1, &nodes);
    match (single, run) {
        (Ok(expected), Ok(run)) => {
            if run.results != expected {
                let first = run
                    .results
                    .iter()
                    .zip(&expected)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                fails.push(format!(
                    "parity: {} on {} shards ({}) diverges from single-worker, first at vertex {first}",
                    case.model, case.shards, case.strategy
                ));
            }
            if g.num_edges() == 0 && run.exchange_bytes != 0 {
                fails.push(format!(
                    "parity: edgeless graph moved {} exchange bytes",
                    run.exchange_bytes
                ));
            }
        }
        (a, b) => fails.push(format!(
            "parity: inference failed (single: {:?}, sharded: {:?})",
            a.err(),
            b.err()
        )),
    }

    fails
}

#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shrink a failing shard case: fewer shards first (the dominant cost of
/// understanding a failure), then smaller graphs, then the simplest model.
/// Each step is kept only if the case still fails `still_fails`.
pub fn shrink_shard(
    case: &ShardCase,
    still_fails: impl Fn(&ShardCase) -> bool,
    budget: usize,
) -> ShardCase {
    let mut best = case.clone();
    let mut spent = 0;
    let try_case = |best: &mut ShardCase, candidate: ShardCase, spent: &mut usize| -> bool {
        if *spent >= budget || candidate == *best {
            return false;
        }
        *spent += 1;
        if still_fails(&candidate) {
            *best = candidate;
            true
        } else {
            false
        }
    };
    // Shard count down to 2 (1 shard cannot exhibit a sharding bug).
    while best.shards > 2 {
        let mut candidate = best.clone();
        candidate.shards -= 1;
        if !try_case(&mut best, candidate, &mut spent) {
            break;
        }
    }
    // Halve the graph while the failure persists.
    loop {
        let n = best.graph.vertices();
        if n <= 2 {
            break;
        }
        let mut candidate = best.clone();
        candidate.graph = best.graph.with_vertices(n / 2);
        if !try_case(&mut best, candidate, &mut spent) {
            break;
        }
    }
    // Simplest model last.
    if best.model != "gcn" {
        let mut candidate = best.clone();
        candidate.model = "gcn";
        try_case(&mut best, candidate, &mut spent);
    }
    best
}

/// One failed shard case with its violated properties.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The failing case as generated.
    pub case: ShardCase,
    /// The shrunken equivalent (equal to `case` when shrinking gained
    /// nothing).
    pub shrunk: ShardCase,
    /// Violated properties, one line each.
    pub reports: Vec<String>,
}

/// Result of a shard sweep.
#[derive(Debug, Clone, Default)]
pub struct ShardSweep {
    /// Cases executed.
    pub total: usize,
    /// Failing cases.
    pub failures: Vec<ShardFailure>,
}

/// Budget of shrink attempts per failing shard case.
pub const SHARD_SHRINK_BUDGET: usize = 64;

/// Run `cases` generated shard cases from `seed`. Deterministic: the same
/// `(seed, cases)` explores the same case list.
pub fn shard_sweep(seed: u64, cases: usize, progress: impl Fn(usize, &ShardSweep)) -> ShardSweep {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let mut report = ShardSweep::default();
    for i in 0..cases {
        let case = gen_shard_case(&mut rng);
        let reports = run_shard_case(&case);
        report.total += 1;
        if !reports.is_empty() {
            let shrunk = shrink_shard(
                &case,
                |c| !run_shard_case(c).is_empty(),
                SHARD_SHRINK_BUDGET,
            );
            report.failures.push(ShardFailure { case, shrunk, reports });
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
            assert_eq!(gen_shard_case(&mut a), gen_shard_case(&mut b));
        }
    }

    #[test]
    fn descriptors_round_trip() {
        let mut rng = Pcg64Mcg::seed_from_u64(1);
        for _ in 0..128 {
            let case = gen_shard_case(&mut rng);
            let desc = case.to_string();
            let parsed: ShardCase = desc.parse().unwrap_or_else(|e| panic!("{desc}: {e}"));
            assert_eq!(parsed, case, "{desc}");
        }
    }

    #[test]
    fn rejects_malformed_descriptors() {
        for bad in [
            "sampler;g=uni:4:1:0;m=gcn;n=2;p=range;k=0",
            "shard",
            "shard;g=cube:4:1:0;m=gcn;n=2;p=range;k=0",
            "shard;g=uni:4:1:0;m=mlp;n=2;p=range;k=0",
            "shard;g=uni:4:1:0;m=gcn;n=2;p=hash;k=0",
            "shard;g=uni:4:1:0;m=gcn;p=range;k=0",
            "shard;g=none:4:1:0;m=gcn;n=2;p=range;k=0",
        ] {
            assert!(bad.parse::<ShardCase>().is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn empty_shard_and_isolated_vertex_cases_hold() {
        // More shards than vertices, and a fully isolated graph: both
        // degenerate shapes must pass every property.
        for desc in [
            "shard;g=uni:3:2:7;m=gcn;n=6;p=range;k=1",
            "shard;g=uni:3:2:7;m=graphsage;n=6;p=degree;k=2",
            "shard;g=none:5;m=gat;n=3;p=range;k=3",
            "shard;g=none:1;m=gcn;n=4;p=degree;k=4",
        ] {
            let case: ShardCase = desc.parse().unwrap();
            let fails = run_shard_case(&case);
            assert!(fails.is_empty(), "{desc}: {fails:?}");
        }
    }

    #[test]
    fn shrinker_reduces_shards_then_graph() {
        // A synthetic predicate standing in for a real failure: anything
        // with >= 3 shards and >= 20 vertices "fails". The shrinker must
        // land on the minimum along its shard-first path.
        let case: ShardCase = "shard;g=uni:96:4:9;m=gat;n=8;p=degree;k=5".parse().unwrap();
        let small = shrink_shard(
            &case,
            |c| c.shards >= 3 && c.graph.vertices() >= 20,
            SHARD_SHRINK_BUDGET,
        );
        assert_eq!(small.shards, 3, "shard count reduced first: {small}");
        assert_eq!(small.graph.vertices(), 24, "then the graph halves: {small}");
        assert_eq!(small.model, "gcn", "model simplified last: {small}");
    }

    #[test]
    fn smoke_sweep_runs_clean() {
        // Miniature of the CI job; the full 200-case sweep runs as
        // `fgcheck --shard --seed 0 --cases 200` in the shard-smoke job.
        let report = shard_sweep(0, 20, |_, _| {});
        let msgs: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("fgcheck --case '{}' # {:?}", f.shrunk, f.reports))
            .collect();
        assert!(report.failures.is_empty(), "{msgs:#?}");
        assert_eq!(report.total, 20);
    }
}
