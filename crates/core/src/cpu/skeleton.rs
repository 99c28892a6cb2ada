//! The destination-row-major loop nest shared by the SpMM and fused
//! templates: partition → parallel band → destination row → in-edge.
//!
//! The loop nest runs on a destination-major CSR of any shape: `num_rows`
//! destination rows, each listing in-edges from `num_cols` source rows. A
//! square graph is the case `num_rows == num_cols`; a message-flow block
//! (DGL's bipartite block) has one row per destination it writes and one
//! column per source row it reads, and its output has `num_rows` rows.
//!
//! Partitions are processed one at a time and every thread works on the same
//! partition, keeping its source rows hot in the shared LLC (§IV-A). Within a
//! partition the destination rows are cut into disjoint bands, so each sink
//! row is written by exactly one thread and a row's in-edges are folded in
//! ascending-source order whatever the partition, tile and thread counts —
//! which is why results are bitwise independent of the schedule.

use std::borrow::Cow;

use fg_graph::{Csr, PartitionedCsr};
use fg_ir::Reducer;
use fg_telemetry::{counter_add, histogram_record, span, Counter, Histogram};
use fg_tensor::{ColTiles, Dense2};
use rayon::prelude::*;
use std::ops::Range;

use crate::cpu::spmm::CpuSpmmOptions;
use crate::error::KernelError;
use crate::ops::{with_reduce_op, Edge, MessageOp, ReduceOp, Sink};
use crate::util;

/// A compiled destination-row-major traversal over a `num_rows × num_cols`
/// CSR, and the worker pool that runs it.
pub(crate) struct DstMajor<'g> {
    parts: Parts<'g>,
    pub(crate) num_rows: usize,
    pub(crate) num_cols: usize,
    pub(crate) num_edges: usize,
    pool: rayon::ThreadPool,
}

/// The traversal's edges.
enum Parts<'g> {
    /// One partition: the CSR itself (borrowed from the caller, or owned by
    /// a plan that outlives it) and its non-empty rows. Edge ids are CSR
    /// positions and in-degrees are `indptr` differences.
    Whole(Cow<'g, Csr>, Vec<u32>),
    /// Source-range partitions, and every row's in-degree for the finalize
    /// sweep.
    Split(PartitionedCsr, Vec<u32>),
}

/// One partition as a sweep walks it: a CSR over every destination row
/// holding the partition's edges, their edge ids (`None`: the positions),
/// and the rows with at least one.
struct Segment<'a> {
    csr: &'a Csr,
    eids: Option<&'a [u32]>,
    nonempty: &'a [u32],
}

/// The in-edges of one destination row inside one partition.
pub(crate) struct InEdges<'a> {
    pub dst: u32,
    pub srcs: &'a [u32],
    /// Edge ids parallel to `srcs`; `None`: the ids count up from `base`.
    eids: Option<&'a [u32]>,
    base: usize,
}

impl InEdges<'_> {
    pub(crate) fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        let (dst, base, eids) = (self.dst, self.base, self.eids);
        self.srcs.iter().enumerate().map(move |(i, &src)| Edge {
            src,
            dst,
            eid: eids.map_or((base + i) as u32, |e| e[i]),
        })
    }
}

impl<'g> DstMajor<'g> {
    /// Partition `csr` and build the worker pool. A one-partition plan
    /// borrows `csr` and copies nothing; [`DstMajor::into_owned`] makes a
    /// plan that outlives it. Plans are reused across runs, amortizing this
    /// cost over training epochs exactly as the paper amortizes compilation
    /// (§IV-B).
    pub(crate) fn build(csr: &'g Csr, opts: &CpuSpmmOptions) -> Result<Self, KernelError> {
        if opts.graph_partitions == 0 {
            return Err(KernelError::BadSchedule(
                "graph_partitions must be >= 1".into(),
            ));
        }
        counter_add(Counter::KernelCompiles, 1);
        let parts = match opts.graph_partitions.min(csr.num_cols()) {
            0 | 1 => {
                let rows = csr.iter_rows().filter(|(_, srcs, _)| !srcs.is_empty());
                Parts::Whole(Cow::Borrowed(csr), rows.map(|(dst, _, _)| dst).collect())
            }
            n => {
                let degrees = csr.indptr().windows(2).map(|w| (w[1] - w[0]) as u32);
                Parts::Split(PartitionedCsr::from_csr(csr, n), degrees.collect())
            }
        };
        Ok(Self {
            parts,
            num_rows: csr.num_rows(),
            num_cols: csr.num_cols(),
            num_edges: csr.nnz(),
            pool: util::pool(opts.threads),
        })
    }

    /// The same plan, holding its own copy of a borrowed CSR.
    pub(crate) fn into_owned(self) -> DstMajor<'static> {
        let parts = match self.parts {
            Parts::Whole(csr, rows) => Parts::Whole(Cow::Owned(csr.into_owned()), rows),
            Parts::Split(p, degrees) => Parts::Split(p, degrees),
        };
        DstMajor {
            parts,
            num_rows: self.num_rows,
            num_cols: self.num_cols,
            num_edges: self.num_edges,
            pool: self.pool,
        }
    }

    /// Number of source partitions.
    pub(crate) fn num_partitions(&self) -> usize {
        match &self.parts {
            Parts::Whole(..) => 1,
            Parts::Split(p, _) => p.num_partitions(),
        }
    }

    /// Heap bytes held by the plan: an owned CSR and the non-empty rows, or
    /// the partitioned CSR and its degree array. A borrowed CSR is the
    /// caller's.
    pub(crate) fn mem_bytes(&self) -> u64 {
        let (own, rows) = match &self.parts {
            Parts::Whole(Cow::Borrowed(_), rows) => (0, rows),
            Parts::Whole(Cow::Owned(csr), rows) => (csr.mem_bytes(), rows),
            Parts::Split(p, degrees) => (p.mem_bytes(), degrees),
        };
        own + (rows.len() * std::mem::size_of::<u32>()) as u64
    }

    /// In-degree of destination row `v`.
    fn degree(&self, v: usize) -> usize {
        match &self.parts {
            Parts::Whole(csr, _) => csr.indptr()[v + 1] - csr.indptr()[v],
            Parts::Split(_, degrees) => degrees[v] as usize,
        }
    }

    /// One pass of the loop nest. `out` holds one row per destination and
    /// `aux` one more accumulator per destination (the fused softmax's
    /// exp-sums; `&mut [(); num_rows]`, which occupies no memory, when a
    /// pass keeps none); both are cut into the same bands. `row` is called
    /// once per (partition, non-empty destination row) with the row's
    /// in-edges, columns `cols` of its `out` row as a sink, and its `aux`
    /// slot.
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
        let band = band_rows(self.num_rows, self.pool.current_num_threads());
        self.each_segment(|pi, seg| {
            let edges = seg.csr.nnz();
            let _span = span!(name, "cols={cols:?} part={pi} edges={edges}");
            counter_add(Counter::EdgesProcessed, edges as u64);
            histogram_record(Histogram::SpmmPartitionEdges, edges as u64);
            counter_add(Counter::BytesMoved, (edges * bytes_per_edge) as u64);
            let bands = out.as_mut_slice().par_chunks_mut(band * width);
            self.pool.install(|| {
                let bands = bands.zip(aux.par_chunks_mut(band)).enumerate();
                bands.for_each(|(b, (chunk, aux))| {
                    let dst0 = b * band;
                    let mut scratch = Vec::new();
                    for &dst in band_slice(seg.nonempty, dst0, aux.len()) {
                        let local = dst as usize - dst0;
                        let (srcs, base) = (seg.csr.row(dst), seg.csr.row_start(dst));
                        let eids = seg.eids.map(|e| &e[base..base + srcs.len()]);
                        let mut to = Sink {
                            out: &mut chunk[local * width..][cols.clone()],
                            cols: cols.clone(),
                            scratch: &mut scratch,
                        };
                        row(InEdges { dst, srcs, eids, base }, &mut to, &mut aux[local]);
                    }
                });
            });
        });
    }

    /// Call `f(index, segment)` for each partition, in order.
    fn each_segment(&self, mut f: impl FnMut(usize, Segment<'_>)) {
        match &self.parts {
            Parts::Whole(csr, nonempty) => f(0, Segment { csr, eids: None, nonempty }),
            Parts::Split(parts, _) => {
                for (pi, csr, eids, _) in parts.iter() {
                    let nonempty = parts.nonempty(pi);
                    f(pi, Segment { csr, eids: Some(eids), nonempty });
                }
            }
        }
    }

    /// Apply `f(v, row)` to every `out` row, in parallel.
    pub(crate) fn for_each_row(&self, out: &mut Dense2<f32>, f: impl Fn(usize, &mut [f32]) + Sync) {
        let cols = out.cols();
        let rows = out.as_mut_slice().par_chunks_mut(cols).enumerate();
        self.pool.install(|| rows.for_each(|(v, row)| f(v, row)));
    }

    /// Generalized SpMM: `out[v] = agg over in-edges e of op(e)` for each of
    /// the `num_rows` destination rows, the feature axis cut into `tiles`
    /// column tiles with one graph traversal per tile (the Fig. 6b
    /// trade-off).
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
            let deg = self.degree(v);
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
        let no_aux = &mut vec![(); self.num_rows][..];
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
