//! Destination sharding with halo index plans (fg-shard).
//!
//! A [`ShardPlan`] splits a graph's *destination* vertices across `S`
//! shards. Each shard owns a disjoint set of destinations and materializes
//! a **local graph** over its `locals` — the owned vertices plus the
//! **halo**: every in-neighbor of an owned vertex that some other shard
//! owns. Owned rows keep *all* their in-edges (relabeled to local IDs);
//! halo rows are empty — a halo vertex is only ever read as a source, its
//! value arrives from its owner through the exchange plan.
//!
//! Two invariants make shard-parallel inference **bitwise** identical to
//! single-worker inference (the contract `fgcheck --shard` enforces):
//!
//! 1. `locals` ascend in global ID, so ascending-local source order within
//!    an owned row equals ascending-global order — the exact accumulation
//!    order the CPU kernels use regardless of partition count.
//! 2. An owned row's local in-degree equals its global in-degree, so
//!    degree-normalized reducers (mean, edge softmax) see identical
//!    denominators.
//!
//! The per-shard exchange plan ([`RemoteRead`]) is computed once per
//! `(graph, shard count, strategy)`: one entry per halo vertex naming the
//! owning shard and the vertex's local index there. Every remote read is
//! covered exactly once — no duplicate gathers — which the check family
//! asserts mechanically.

use std::fmt;
use std::str::FromStr;

use crate::{Block, Csr, Graph, VId};

/// How destinations are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardStrategy {
    /// Contiguous balanced vertex-ID ranges (the 1D partitioner's width
    /// math, without clamping — shards beyond `|V|` come out empty).
    Range,
    /// Deterministic greedy balance by in-degree: vertices sorted by
    /// descending in-degree (ties by ID) land on the least-loaded shard,
    /// measured in edges — the hybrid-partitioning idea applied to load
    /// rather than format.
    Degree,
}

impl ShardStrategy {
    /// Stable lowercase name used in descriptors, CLI flags, and metrics.
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::Range => "range",
            ShardStrategy::Degree => "degree",
        }
    }

    /// Both strategies, in display order.
    pub const ALL: [ShardStrategy; 2] = [ShardStrategy::Range, ShardStrategy::Degree];
}

impl fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ShardStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "range" => Ok(ShardStrategy::Range),
            "degree" => Ok(ShardStrategy::Degree),
            other => Err(format!("unknown shard strategy {other:?} (range|degree)")),
        }
    }
}

/// One gather in the halo-exchange plan: after every layer, this shard
/// fills row `local` of its next input with the owner's activations of the
/// vertex (row `owner_row` of shard `owner`'s block output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteRead {
    /// Index into this shard's `locals`.
    pub local: u32,
    /// Shard that owns (computes) the vertex.
    pub owner: u32,
    /// The vertex's index in the owner's `locals`.
    pub owner_local: u32,
    /// The vertex's index in the owner's `owned`: its row of the owner's
    /// block output ([`Shard::block`]).
    pub owner_row: u32,
}

/// One shard: its owned destinations, the halo it reads, the local graph
/// it aggregates over, and its exchange plan.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Owned destination vertices, ascending global IDs.
    owned: Vec<VId>,
    /// Owned ∪ halo, ascending global IDs. Local vertex `i` is global
    /// `locals[i]`.
    locals: Vec<VId>,
    /// Halo vertices (locals owned elsewhere), ascending global IDs.
    halo: Vec<VId>,
    /// Square graph over `locals`: owned rows carry all their global
    /// in-edges (local column IDs); halo rows are empty.
    local_graph: Graph,
    /// One gather per halo vertex; sorted by `local`.
    remote: Vec<RemoteRead>,
}

impl Shard {
    /// Owned destination vertices (ascending global IDs).
    pub fn owned(&self) -> &[VId] {
        &self.owned
    }

    /// Local→global vertex map (ascending).
    pub fn locals(&self) -> &[VId] {
        &self.locals
    }

    /// Halo vertices (ascending global IDs).
    pub fn halo(&self) -> &[VId] {
        &self.halo
    }

    /// The shard-local graph (owned rows full, halo rows empty).
    pub fn graph(&self) -> &Graph {
        &self.local_graph
    }

    /// The shard as a bipartite [`Block`]: `|owned| × |locals|`, row `r`
    /// being the local graph's row of the `r`-th owned vertex.
    pub fn block(&self) -> Block {
        let at = |v: &VId| self.locals.binary_search(v).expect("an owned vertex is a local");
        let dst: Vec<u32> = self.owned.iter().map(|v| at(v) as u32).collect();
        let in_csr = self.local_graph.in_csr();
        let mut indptr = Vec::with_capacity(dst.len() + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(in_csr.nnz());
        for &p in &dst {
            indices.extend_from_slice(in_csr.row(p));
            indptr.push(indices.len());
        }
        Block::new(Csr::new(dst.len(), self.locals.len(), indptr, indices), dst)
    }

    /// Exchange plan: one [`RemoteRead`] per halo vertex, sorted by local
    /// index.
    pub fn remote_reads(&self) -> &[RemoteRead] {
        &self.remote
    }

    /// Local index of global vertex `v`, if it is in this shard's locals.
    pub fn local_of(&self, v: VId) -> Option<u32> {
        self.locals.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Edges stored locally (equals the summed global in-degree of the
    /// owned vertices).
    pub fn num_edges(&self) -> usize {
        self.local_graph.num_edges()
    }

    /// Heap footprint of this shard's slice: index vectors, exchange plan,
    /// and the local graph topology.
    pub fn mem_bytes(&self) -> u64 {
        let ids = (self.owned.len() + self.locals.len() + self.halo.len())
            * std::mem::size_of::<VId>();
        let remote = self.remote.len() * std::mem::size_of::<RemoteRead>();
        self.local_graph.mem_bytes() + (ids + remote) as u64
    }
}

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    strategy: ShardStrategy,
    num_vertices: usize,
    /// Global vertex → owning shard.
    owner: Vec<u32>,
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Shard `graph`'s destinations `shards` ways (floored to 1) under
    /// `strategy`, and compute each shard's local graph and exchange plan.
    /// Shards may own zero vertices when `shards > |V|` (Range) or the
    /// degree balance leaves one empty; empty shards have empty locals and
    /// an empty local graph, and run the layer loop uniformly.
    pub fn build(graph: &Graph, shards: usize, strategy: ShardStrategy) -> Self {
        let shards = shards.max(1);
        let n = graph.num_vertices();
        let owner = match strategy {
            ShardStrategy::Range => {
                let mut owner = vec![0u32; n];
                let base = n / shards;
                let extra = n % shards;
                let mut lo = 0usize;
                for s in 0..shards {
                    let width = base + usize::from(s < extra);
                    owner[lo..lo + width].fill(s as u32);
                    lo += width;
                }
                owner
            }
            ShardStrategy::Degree => {
                let mut order: Vec<VId> = (0..n as VId).collect();
                // Descending in-degree, ties ascending by ID: deterministic.
                order.sort_by_key(|&v| (std::cmp::Reverse(graph.in_degree(v)), v));
                let mut owner = vec![0u32; n];
                let mut load = vec![0u64; shards];
                for v in order {
                    let s = (0..shards).min_by_key(|&s| (load[s], s)).expect("shards >= 1");
                    owner[v as usize] = s as u32;
                    // An isolated vertex still costs one output row.
                    load[s] += graph.in_degree(v).max(1) as u64;
                }
                owner
            }
        };

        // Pass 1: owned and locals (owned ∪ in-neighbors owned elsewhere).
        let mut owned: Vec<Vec<VId>> = vec![Vec::new(); shards];
        for v in 0..n as VId {
            owned[owner[v as usize] as usize].push(v);
        }
        let mut locals: Vec<Vec<VId>> = Vec::with_capacity(shards);
        for (s, own) in owned.iter().enumerate() {
            let mut l = own.clone();
            for &v in own {
                for &u in graph.in_csr().row(v) {
                    if owner[u as usize] as usize != s {
                        l.push(u);
                    }
                }
            }
            l.sort_unstable();
            l.dedup();
            locals.push(l);
        }

        // Pass 2: local graphs and exchange plans (owner locals all known).
        let shard_structs = (0..shards)
            .map(|s| {
                let l = &locals[s];
                let local_of = |v: VId| l.binary_search(&v).expect("local present") as VId;
                let mut edges = Vec::new();
                for &v in &owned[s] {
                    let dst = local_of(v);
                    for &u in graph.in_csr().row(v) {
                        edges.push((local_of(u), dst));
                    }
                }
                let local_graph = Graph::from_edges(l.len(), &edges);
                let mut halo = Vec::new();
                let mut remote = Vec::new();
                for (i, &v) in l.iter().enumerate() {
                    let t = owner[v as usize];
                    if t as usize != s {
                        halo.push(v);
                        let at = |of: &[VId]| of.binary_search(&v).expect("owner holds it") as u32;
                        remote.push(RemoteRead {
                            local: i as u32,
                            owner: t,
                            owner_local: at(&locals[t as usize]),
                            owner_row: at(&owned[t as usize]),
                        });
                    }
                }
                Shard {
                    owned: owned[s].clone(),
                    locals: l.clone(),
                    halo,
                    local_graph,
                    remote,
                }
            })
            .collect();

        ShardPlan {
            strategy,
            num_vertices: n,
            owner,
            shards: shard_structs,
        }
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The strategy this plan was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Vertices in the full graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Owning shard of global vertex `v`.
    pub fn owner_of(&self, v: VId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Shard `s`.
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// Iterate the shards.
    pub fn shards(&self) -> impl Iterator<Item = &Shard> + '_ {
        self.shards.iter()
    }

    /// Heap footprint of shard `s`'s slice (see [`Shard::mem_bytes`]).
    pub fn shard_mem_bytes(&self, s: usize) -> u64 {
        self.shards[s].mem_bytes()
    }

    /// Total heap footprint: every shard's slice plus the global owner map.
    pub fn mem_bytes(&self) -> u64 {
        let shards: u64 = self.shards.iter().map(Shard::mem_bytes).sum();
        shards + (self.owner.len() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn check_invariants(g: &Graph, plan: &ShardPlan) {
        let n = g.num_vertices();
        // Ownership partitions the vertex set.
        let mut seen = vec![false; n];
        for (s, shard) in plan.shards().enumerate() {
            for &v in shard.owned() {
                assert_eq!(plan.owner_of(v), s);
                assert!(!seen[v as usize], "vertex {v} owned twice");
                seen[v as usize] = true;
            }
            assert!(shard.owned().windows(2).all(|w| w[0] < w[1]));
            assert!(shard.locals().windows(2).all(|w| w[0] < w[1]));
            // locals == owned ∪ halo, disjointly.
            assert_eq!(shard.owned().len() + shard.halo().len(), shard.locals().len());
            // Every remote read covers one halo vertex exactly once, and
            // points at the owner's copy of the same vertex.
            assert_eq!(shard.remote_reads().len(), shard.halo().len());
            for (r, &h) in shard.remote_reads().iter().zip(shard.halo()) {
                assert_eq!(shard.locals()[r.local as usize], h);
                assert_eq!(plan.owner_of(h), r.owner as usize);
                assert_eq!(
                    plan.shard(r.owner as usize).locals()[r.owner_local as usize],
                    h
                );
                assert_eq!(plan.shard(r.owner as usize).owned()[r.owner_row as usize], h);
            }
            // The block is the owned rows of the local graph, by the locals.
            let block = shard.block();
            let (csr, dst) = (block.csr(), block.dst());
            assert_eq!((csr.num_rows(), csr.num_cols()), (dst.len(), shard.locals().len()));
            for (r, &p) in dst.iter().enumerate() {
                assert_eq!(shard.locals()[p as usize], shard.owned()[r]);
                assert_eq!(csr.row(r as VId), shard.graph().in_csr().row(p));
            }
            // Owned rows keep all their global in-edges; halo rows are empty.
            let mut local_edges = 0usize;
            for (i, &v) in shard.locals().iter().enumerate() {
                let row = shard.graph().in_csr().row(i as VId);
                if plan.owner_of(v) == s {
                    let global: Vec<VId> = g.in_csr().row(v).to_vec();
                    let mapped: Vec<VId> =
                        row.iter().map(|&l| shard.locals()[l as usize]).collect();
                    assert_eq!(mapped, global, "owned row {v} edge mismatch");
                    local_edges += row.len();
                } else {
                    assert!(row.is_empty(), "halo row {v} must be empty");
                }
            }
            assert_eq!(local_edges, shard.num_edges());
        }
        assert!(seen.into_iter().all(|x| x), "ownership must cover all vertices");
        let total_edges: usize = plan.shards().map(Shard::num_edges).sum();
        assert_eq!(total_edges, g.num_edges(), "every edge stored exactly once");
    }

    #[test]
    fn range_and_degree_plans_hold_invariants() {
        for (n, deg, seed) in [(60, 4, 1), (97, 3, 2), (10, 1, 3)] {
            let g = generators::uniform(n, deg, seed);
            for shards in [1, 2, 3, 4, 8] {
                for strategy in ShardStrategy::ALL {
                    let plan = ShardPlan::build(&g, shards, strategy);
                    assert_eq!(plan.num_shards(), shards);
                    check_invariants(&g, &plan);
                }
            }
        }
    }

    #[test]
    fn more_shards_than_vertices_leaves_empty_shards() {
        let g = generators::uniform(3, 2, 7);
        for strategy in ShardStrategy::ALL {
            let plan = ShardPlan::build(&g, 8, strategy);
            assert_eq!(plan.num_shards(), 8);
            check_invariants(&g, &plan);
            let empty = plan.shards().filter(|s| s.owned().is_empty()).count();
            assert!(empty >= 5, "8 shards on 3 vertices: got {empty} empty");
            for shard in plan.shards() {
                if shard.owned().is_empty() {
                    assert!(shard.locals().is_empty(), "empty shard has no halo");
                    assert_eq!(shard.graph().num_vertices(), 0);
                }
            }
        }
    }

    #[test]
    fn isolated_vertices_are_owned_with_empty_rows() {
        // Edgeless graph: every vertex isolated; no halo anywhere.
        let g = Graph::from_edges(5, &[]);
        for strategy in ShardStrategy::ALL {
            let plan = ShardPlan::build(&g, 3, strategy);
            check_invariants(&g, &plan);
            for shard in plan.shards() {
                assert!(shard.halo().is_empty());
                assert_eq!(shard.num_edges(), 0);
            }
        }
    }

    #[test]
    fn degree_strategy_balances_edges() {
        // A heavy hub: Range puts the hub's whole row on one shard; Degree
        // must spread load so no shard exceeds ~half the edges.
        let mut edges = Vec::new();
        for u in 1..40u32 {
            edges.push((u, 0)); // vertex 0 is a 39-in-degree hub
        }
        for u in 1..39u32 {
            edges.push((u, u + 1));
        }
        let g = Graph::from_edges(40, &edges);
        let plan = ShardPlan::build(&g, 4, ShardStrategy::Degree);
        check_invariants(&g, &plan);
        let max_edges = plan.shards().map(Shard::num_edges).max().unwrap();
        let mean = g.num_edges() as f64 / 4.0;
        assert!(
            (max_edges as f64) < 2.5 * mean,
            "degree strategy imbalance: max {max_edges} vs mean {mean}"
        );
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in ShardStrategy::ALL {
            assert_eq!(s.name().parse::<ShardStrategy>().unwrap(), s);
        }
        assert!("hash".parse::<ShardStrategy>().is_err());
    }

    #[test]
    fn mem_bytes_sum_shards_plus_owner_map() {
        let g = generators::uniform(50, 4, 9);
        let plan = ShardPlan::build(&g, 4, ShardStrategy::Range);
        let per_shard: u64 = (0..4).map(|s| plan.shard_mem_bytes(s)).sum();
        assert_eq!(plan.mem_bytes(), per_shard + 50 * 4);
        assert!(per_shard > 0);
    }
}
