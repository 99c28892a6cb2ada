//! Multi-worker sharded inference with halo exchange (fg-shard).
//!
//! [`infer_sharded`] is the shard-parallel counterpart of
//! [`infer_batch`](crate::infer_batch): a [`ShardedGraph`] splits the
//! graph's destinations across `S` shards (see [`fg_graph::shard`]), one
//! scoped worker thread per shard runs the model layer by layer on its
//! local slice, and between consecutive layers every worker gathers the
//! remote source-vertex activations its local edges read — the **halo
//! exchange** — through a plan computed once per `(graph, shards,
//! strategy)`.
//!
//! Each shard runs as one bipartite block ([`Block`]): its owned rows
//! by its locals, so a layer writes only the owned rows, and layer 0 reads
//! the locals' feature rows in place. The exchange protocol is deliberately
//! simple and allocation-light: after layer `l` each worker publishes its
//! owned rows into a per-layer [`OnceLock`] slot, everyone meets at a
//! [`Barrier`], and then each worker builds its next input over its locals
//! from its own rows and the owners' rows of its halo.
//! Because a shard's locals ascend in global ID and owned rows keep their
//! full global in-edge lists, every float accumulates in exactly the
//! ascending-source order the single-worker CPU kernels use — sharded
//! results are **bitwise identical** to [`crate::infer_batch`] for every
//! shard count and strategy, the contract `fgcheck --shard` sweeps.
//!
//! This is a library primitive, not a serving path: `fg-serve` computes a
//! registration's full-graph answer once with [`crate::infer_batch`], so a
//! shard split there would only hold more memory for the same bits. It is
//! the building block for splitting a graph across processes.

use std::sync::{Barrier, OnceLock};

use featgraph::Gathered;
use fg_graph::{Block, Graph, ShardPlan, ShardStrategy, VId};
use fg_telemetry::span;
use fg_tensor::Dense2;

use crate::block::{run_layer, InputRows};
use crate::models::Model;
use crate::tape::Tape;
use crate::trainer::InferError;

/// A graph prepared for shard-parallel inference: the [`ShardPlan`] plus
/// each shard's block ([`fg_graph::Shard::block`]: its owned rows by its
/// locals).
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    plan: ShardPlan,
    blocks: Vec<Block>,
}

impl ShardedGraph {
    /// Shard `graph` `shards` ways (floored to 1) under `strategy` and cut
    /// every shard's block.
    pub fn build(graph: &Graph, shards: usize, strategy: ShardStrategy) -> Self {
        let plan = ShardPlan::build(graph, shards, strategy);
        let blocks = plan.shards().map(fg_graph::Shard::block).collect();
        Self { plan, blocks }
    }

    /// The underlying shard/halo plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Shard `s`'s block: its owned rows by its locals.
    pub fn shard_block(&self, s: usize) -> &Block {
        &self.blocks[s]
    }

    /// Heap footprint of shard `s`'s slice: the plan's index structures
    /// plus the block.
    pub fn shard_mem_bytes(&self, s: usize) -> u64 {
        self.plan.shard_mem_bytes(s) + self.blocks[s].mem_bytes()
    }

    /// Total heap footprint: every shard's slice plus the global owner
    /// map. Equals the sum of [`Self::shard_mem_bytes`] plus the owner
    /// map.
    pub fn mem_bytes(&self) -> u64 {
        let shards: u64 = (0..self.num_shards()).map(|s| self.shard_mem_bytes(s)).sum();
        shards + (self.plan.num_vertices() * std::mem::size_of::<u32>()) as u64
    }
}

/// Result of one sharded inference call: the requested logits rows plus
/// the bytes the halo exchange moved.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// One logits row per requested node, in request order. Bitwise equal
    /// to [`crate::infer_batch`]'s rows for the same inputs.
    pub results: Vec<Vec<f32>>,
    /// Total bytes gathered from remote shards across all layers.
    pub exchange_bytes: u64,
}

/// Run `model` over `sharded` with one worker thread per shard and a halo
/// exchange between consecutive layers; return the logits rows of
/// `nodes`.
///
/// Each shard's kernels run on the CPU templates with `threads` workers.
///
/// Deterministic CPU schedules make the output bitwise identical to
/// [`crate::infer_batch`] on the full graph, for every shard count and
/// both strategies.
pub fn infer_sharded(
    model: &dyn Model,
    sharded: &ShardedGraph,
    features: &Dense2<f32>,
    threads: usize,
    nodes: &[usize],
) -> Result<ShardRun, InferError> {
    let plan = sharded.plan();
    let vertices = plan.num_vertices();
    let num_shards = plan.num_shards();
    if features.rows() != vertices {
        return Err(InferError::FeatureRowsMismatch {
            rows: features.rows(),
            vertices,
        });
    }
    if let Some(&node) = nodes.iter().find(|&&v| v >= vertices) {
        return Err(InferError::NodeOutOfRange { node, vertices });
    }
    let layers = model.num_layers();
    assert!(layers >= 1, "model must have at least one layer");

    let _span = span!(
        "gnn/infer_sharded",
        "model={} shards={} layers={layers} nodes={}",
        model.name(),
        num_shards,
        nodes.len()
    );

    // One activation slot per (exchange boundary, shard) and one barrier
    // per boundary. Workers publish, meet, then gather halo rows.
    let boundaries = layers - 1;
    let slots: Vec<Vec<OnceLock<Dense2<f32>>>> = (0..boundaries)
        .map(|_| (0..num_shards).map(|_| OnceLock::new()).collect())
        .collect();
    let barriers: Vec<Barrier> = (0..boundaries).map(|_| Barrier::new(num_shards)).collect();

    let outs: Vec<(Dense2<f32>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_shards)
            .map(|s| {
                let slots = &slots;
                let barriers = &barriers;
                scope.spawn(move || {
                    let block = sharded.shard_block(s);
                    let locals = plan.shard(s).locals();
                    let mut ex_bytes = 0u64;
                    // Layer-0 input: the locals' feature rows, read in
                    // place. No exchange — features are globally visible.
                    let rows = InputRows::F32(Gathered::new(features, locals, None));
                    let mut h = None;
                    for layer in 0..layers {
                        let mut tape = Tape::on_block(block, threads);
                        let x = match h.take() {
                            None => tape.leaf_rows(rows),
                            Some(h) => tape.leaf(h),
                        };
                        let out = run_layer(model, tape, x, layer);
                        if layer == boundaries {
                            return (out, ex_bytes);
                        }
                        // Publish the owned rows, meet everyone, then lay
                        // out the next input over the locals: owned rows
                        // from this shard, halo rows from their owners.
                        let cols = out.cols();
                        slots[layer][s]
                            .set(out)
                            .unwrap_or_else(|_| panic!("slot {layer}/{s} published twice"));
                        barriers[layer].wait();
                        let own = slots[layer][s].get().expect("own slot set");
                        let mut next = Dense2::zeros(locals.len(), cols);
                        for (r, &p) in block.dst().iter().enumerate() {
                            next.row_mut(p as usize).copy_from_slice(own.row(r));
                        }
                        for r in plan.shard(s).remote_reads() {
                            let src = slots[layer][r.owner as usize]
                                .get()
                                .expect("owner published before the barrier");
                            next.row_mut(r.local as usize)
                                .copy_from_slice(src.row(r.owner_row as usize));
                            ex_bytes += (cols * std::mem::size_of::<f32>()) as u64;
                        }
                        h = Some(next);
                    }
                    unreachable!("layer loop returns at the final layer")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    // Scatter-gather merge: each requested node's row lives in its
    // owner's final activations, at its index among the owned rows.
    let results = nodes
        .iter()
        .map(|&v| {
            let s = plan.owner_of(v as VId);
            let owned = plan.shard(s).owned();
            let row = owned.binary_search(&(v as VId)).expect("owner holds its vertex");
            outs[s].0.row(row).to_vec()
        })
        .collect();
    Ok(ShardRun {
        results,
        exchange_bytes: outs.iter().map(|o| o.1).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FeatgraphBackend;
    use crate::ggraph::GnnGraph;
    use crate::models::build_model;
    use crate::trainer::infer_batch;
    use fg_graph::generators;

    fn pseudo_features(n: usize, d: usize, seed: u64) -> Dense2<f32> {
        fn splitmix64(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        Dense2::from_fn(n, d, |r, c| {
            let bits = splitmix64(seed ^ ((r as u64) << 20) ^ c as u64);
            (bits as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32
        })
    }

    fn parity_case(model_name: &str, n: usize, deg: usize, seed: u64) {
        let g = generators::uniform(n, deg, seed);
        let d = 4;
        let features = pseudo_features(n, d, seed ^ 0xfeed);
        let model = build_model(model_name, d, 8, 3, seed ^ 0xbeef);
        let full = GnnGraph::new(g.clone());
        let single = FeatgraphBackend::cpu(1);
        let nodes: Vec<usize> = (0..n).collect();
        let want = infer_batch(model.as_ref(), &full, &features, &single, &nodes).unwrap();
        for shards in [1, 2, 3, 4, 8] {
            for strategy in ShardStrategy::ALL {
                let sharded = ShardedGraph::build(&g, shards, strategy);
                let run = infer_sharded(model.as_ref(), &sharded, &features, 1, &nodes).unwrap();
                assert_eq!(
                    run.results, want,
                    "{model_name} n={n} shards={shards} strategy={strategy} diverged"
                );
                if shards > 1 && n > 8 {
                    assert!(
                        run.exchange_bytes > 0,
                        "{shards}-shard run on a connected graph must exchange halos"
                    );
                }
            }
        }
    }

    #[test]
    fn gcn_matches_single_worker_bitwise() {
        parity_case("gcn", 40, 4, 11);
    }

    #[test]
    fn graphsage_matches_single_worker_bitwise() {
        parity_case("graphsage", 33, 3, 12);
    }

    #[test]
    fn gat_matches_single_worker_bitwise() {
        parity_case("gat", 25, 3, 13);
    }

    #[test]
    fn more_shards_than_vertices() {
        // Empty shards run the layer loop on 0-row matrices and still hit
        // every barrier.
        parity_case("gcn", 3, 2, 14);
    }

    #[test]
    fn isolated_vertices_and_empty_graph() {
        let g = Graph::from_edges(6, &[]);
        let features = pseudo_features(6, 4, 9);
        let model = build_model("gcn", 4, 8, 3, 9);
        let full = GnnGraph::new(g.clone());
        let single = FeatgraphBackend::cpu(1);
        let nodes: Vec<usize> = (0..6).collect();
        let want = infer_batch(model.as_ref(), &full, &features, &single, &nodes).unwrap();
        let sharded = ShardedGraph::build(&g, 4, ShardStrategy::Degree);
        let run = infer_sharded(model.as_ref(), &sharded, &features, 1, &nodes).unwrap();
        assert_eq!(run.results, want);
        assert_eq!(run.exchange_bytes, 0, "no edges, no halo");
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::uniform(10, 2, 3);
        let sharded = ShardedGraph::build(&g, 2, ShardStrategy::Range);
        let model = build_model("gcn", 4, 8, 3, 1);
        let short = pseudo_features(9, 4, 1);
        assert!(matches!(
            infer_sharded(model.as_ref(), &sharded, &short, 1, &[0]),
            Err(InferError::FeatureRowsMismatch { .. })
        ));
        let features = pseudo_features(10, 4, 1);
        assert!(matches!(
            infer_sharded(model.as_ref(), &sharded, &features, 1, &[10]),
            Err(InferError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn mem_bytes_sums_per_shard_plus_owner_map() {
        let g = generators::uniform(50, 4, 5);
        let sharded = ShardedGraph::build(&g, 4, ShardStrategy::Range);
        let per_shard: u64 = (0..4).map(|s| sharded.shard_mem_bytes(s)).sum();
        assert_eq!(sharded.mem_bytes(), per_shard + 50 * 4);
    }
}
