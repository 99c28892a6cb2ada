//! The destination-row-major loop nest shared by the SpMM and fused
//! templates: partition → parallel band → destination row → in-edge.
//!
//! Partitions are processed one at a time and every thread works on the same
//! partition, keeping its source rows hot in the shared LLC (§IV-A). Within a
//! partition the destination rows are cut into disjoint bands, so each sink
//! row is written by exactly one thread and a row's in-edges are folded in
//! ascending-source order whatever the partition, tile and thread counts —
//! which is why results are bitwise independent of the schedule.

use fg_graph::{Graph, PartitionedCsr};
use fg_ir::Reducer;
use fg_telemetry::{counter_add, histogram_record, span, Counter, Histogram};
use fg_tensor::tile::ColTiles;
use fg_tensor::Dense2;
use rayon::prelude::*;
use std::ops::Range;

use crate::cpu::spmm::CpuSpmmOptions;
use crate::error::KernelError;
use crate::ops::{with_reduce_op, Edge, MessageOp, ReduceOp, Sink};
use crate::util;

/// A compiled destination-row-major traversal: the partitioned CSR, the
/// in-degrees the finalize sweep divides by, and the worker pool.
pub(crate) struct DstMajor {
    pub(crate) parts: PartitionedCsr,
    degrees: Vec<u32>,
    pub(crate) num_vertices: usize,
    pub(crate) num_edges: usize,
    pool: rayon::ThreadPool,
}

/// The in-edges of one destination row inside one partition.
pub(crate) struct InEdges<'a> {
    pub dst: u32,
    pub srcs: &'a [u32],
    pub eids: &'a [u32],
}

impl InEdges<'_> {
    pub(crate) fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        let dst = self.dst;
        let pairs = self.srcs.iter().zip(self.eids);
        pairs.map(move |(&src, &eid)| Edge { src, dst, eid })
    }
}

impl DstMajor {
    /// Partition the graph and build the worker pool. Plans are reused
    /// across runs, amortizing this cost over training epochs exactly as the
    /// paper amortizes compilation (§IV-B).
    pub(crate) fn build(graph: &Graph, opts: &CpuSpmmOptions) -> Result<Self, KernelError> {
        if opts.graph_partitions == 0 {
            return Err(KernelError::BadSchedule(
                "graph_partitions must be >= 1".into(),
            ));
        }
        counter_add(Counter::KernelCompiles, 1);
        Ok(Self {
            parts: PartitionedCsr::build(graph, opts.graph_partitions),
            degrees: (0..graph.num_vertices() as u32)
                .map(|v| graph.in_degree(v) as u32)
                .collect(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            pool: util::pool(opts.threads),
        })
    }

    /// Heap bytes held by the plan (partitioned CSR + degree array).
    pub(crate) fn mem_bytes(&self) -> u64 {
        self.parts.mem_bytes() + (self.degrees.len() * std::mem::size_of::<u32>()) as u64
    }

    /// One pass of the loop nest. `out` holds one row per destination and
    /// `aux` one more accumulator per destination (the fused softmax's
    /// exp-sums; `&mut [(); |V|]`, which occupies no memory, when a pass
    /// keeps none); both are cut into the same bands. `row` is called once
    /// per (partition, non-empty destination row) with the row's in-edges,
    /// columns `cols` of its `out` row as a sink, and its `aux` slot.
    pub(crate) fn sweep<A: Send>(
        &self,
        name: &'static str,
        bytes_per_edge: usize,
        out: &mut Dense2<f32>,
        cols: Range<usize>,
        aux: &mut [A],
        row: impl Fn(InEdges<'_>, &mut Sink<'_>, &mut A) + Sync,
    ) {
        let width = out.cols();
        let band = band_rows(self.num_vertices, self.pool.current_num_threads());
        for (pi, seg, eids, _) in self.parts.iter() {
            let _span = span!(name, "cols={cols:?} part={pi} edges={}", eids.len());
            counter_add(Counter::EdgesProcessed, eids.len() as u64);
            histogram_record(Histogram::SpmmPartitionEdges, eids.len() as u64);
            counter_add(Counter::BytesMoved, (eids.len() * bytes_per_edge) as u64);
            let nonempty = self.parts.nonempty(pi);
            let bands = out.as_mut_slice().par_chunks_mut(band * width);
            self.pool.install(|| {
                let bands = bands.zip(aux.par_chunks_mut(band)).enumerate();
                bands.for_each(|(b, (chunk, aux))| {
                    let dst0 = b * band;
                    let mut scratch = Vec::new();
                    for &dst in band_slice(nonempty, dst0, aux.len()) {
                        let local = dst as usize - dst0;
                        let srcs = seg.row(dst);
                        let base = seg.row_start(dst);
                        let eids = &eids[base..base + srcs.len()];
                        let mut to = Sink {
                            out: &mut chunk[local * width..][cols.clone()],
                            cols: cols.clone(),
                            scratch: &mut scratch,
                        };
                        row(InEdges { dst, srcs, eids }, &mut to, &mut aux[local]);
                    }
                });
            });
        }
    }

    /// Apply `f(v, row)` to every `out` row, in parallel.
    pub(crate) fn for_each_row(&self, out: &mut Dense2<f32>, f: impl Fn(usize, &mut [f32]) + Sync) {
        let cols = out.cols();
        let rows = out.as_mut_slice().par_chunks_mut(cols).enumerate();
        self.pool.install(|| rows.for_each(|(v, row)| f(v, row)));
    }

    /// Generalized SpMM: `out[v] = agg over in-edges e of op(e)`, the
    /// feature axis cut into `tiles` column tiles with one graph traversal
    /// per tile (the Fig. 6b trade-off).
    pub(crate) fn aggregate<M: MessageOp>(
        &self,
        name: &'static str,
        agg: Reducer,
        tiles: usize,
        op: &M,
        out: &mut Dense2<f32>,
    ) {
        out.fill(agg.identity());
        with_reduce_op!(agg, |r| self.reduce(name, r, tiles, op, out));
        // Finalize: mean division / zero-degree normalization.
        self.for_each_row(out, |v, row| {
            let deg = self.degrees[v] as usize;
            for o in row {
                *o = agg.finalize(*o, deg);
            }
        });
    }

    fn reduce<R: ReduceOp, M: MessageOp>(
        &self,
        name: &'static str,
        r: R,
        tiles: usize,
        op: &M,
        out: &mut Dense2<f32>,
    ) {
        let no_aux = &mut vec![(); self.num_vertices][..];
        for tile in ColTiles::new(out.cols(), tiles) {
            let bytes = op.bytes_per_edge(tile.len()) + 4 * tile.len();
            self.sweep(name, bytes, out, tile.range(), no_aux, |edges, to, _| {
                for e in edges.iter() {
                    op.edge(r, to, e);
                }
            });
        }
    }
}

/// Items per parallel band (destination rows here, edges in the SDDMM
/// template): a few bands per thread for load balance.
pub(crate) fn band_rows(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1)
}

/// Sub-slice of a sorted nonempty-destination list falling inside the band
/// `[dst0, dst0 + rows)`.
#[inline]
fn band_slice(nonempty: &[u32], dst0: usize, rows: usize) -> &[u32] {
    let lo = nonempty.partition_point(|&v| (v as usize) < dst0);
    let hi = lo + nonempty[lo..].partition_point(|&v| (v as usize) < dst0 + rows);
    &nonempty[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_slice_selects_the_band() {
        let ne = [1u32, 4, 5, 9, 10];
        assert_eq!(band_slice(&ne, 0, 5), &[1, 4]);
        assert_eq!(band_slice(&ne, 5, 5), &[5, 9]);
        assert_eq!(band_slice(&ne, 10, 5), &[10]);
        assert!(band_slice(&ne, 11, 5).is_empty());
        assert!(band_slice(&[], 0, 5).is_empty());
    }
}
