//! 1D graph partitioning (§III-C1, Fig. 6).
//!
//! The CPU SpMM template partitions *source* vertices into contiguous ID
//! ranges so that each range's feature rows fit in cache; the template then
//! processes one partition at a time, keeping reads hot, and pays a merge
//! into the output between partitions. [`PartitionedCsr`] materializes the
//! per-partition sub-matrices once per `(graph, num_partitions)` pair so the
//! partitioning cost amortizes over training epochs, exactly as the paper
//! amortizes its compilation/tuning cost.

use crate::csr::Csr;
use crate::{EId, Graph, VId};

/// A destination-major CSR split into column (source-vertex) ranges.
#[derive(Debug, Clone)]
pub struct PartitionedCsr {
    /// Per-partition sub-CSR. Column IDs keep their global values.
    segments: Vec<Csr>,
    /// Per-partition, per-position canonical edge IDs (parallel to each
    /// segment's `indices`).
    segment_eids: Vec<Vec<EId>>,
    /// Source-ID range `[bounds[p], bounds[p+1])` of each partition.
    bounds: Vec<VId>,
    /// Per-partition sorted destination IDs with ≥1 stored edge. High
    /// partition counts leave most destination rows empty in each segment;
    /// kernels iterate these lists instead of scanning all `|V|` rows.
    nonempty: Vec<Vec<VId>>,
}

impl PartitionedCsr {
    /// Split the graph's in-CSR into `parts` contiguous source ranges.
    ///
    /// `parts` is clamped to `[1, |V|]`.
    pub fn build(graph: &Graph, parts: usize) -> Self {
        Self::from_csr(graph.in_csr(), parts)
    }

    /// Split a destination-major CSR of any shape into `parts` contiguous
    /// ranges of its columns (source rows); `parts` is clamped to
    /// `[1, num_cols]`. A message-flow block's `|dst| × |src|` CSR
    /// partitions like a square graph's.
    pub fn from_csr(csr: &Csr, parts: usize) -> Self {
        let n = csr.num_cols();
        let parts = parts.clamp(1, n.max(1));
        let mut segments = Vec::with_capacity(parts);
        let mut segment_eids = Vec::with_capacity(parts);
        let mut bounds = Vec::with_capacity(parts + 1);
        let mut nonempty = Vec::with_capacity(parts);
        let base = n / parts;
        let extra = n % parts;
        let mut lo = 0 as VId;
        bounds.push(0);
        for p in 0..parts {
            let width = base + usize::from(p < extra);
            let hi = lo + width as VId;
            let (seg, positions) = csr.slice_cols(lo, hi);
            // Positions in the dst-major CSR *are* canonical edge IDs.
            segment_eids.push(positions);
            nonempty.push(
                seg.iter_rows()
                    .filter(|(_, cols, _)| !cols.is_empty())
                    .map(|(dst, _, _)| dst)
                    .collect(),
            );
            segments.push(seg);
            bounds.push(hi);
            lo = hi;
        }
        Self {
            segments,
            segment_eids,
            bounds,
            nonempty,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.segments.len()
    }

    /// The `p`-th partition's sub-CSR.
    pub fn segment(&self, p: usize) -> &Csr {
        &self.segments[p]
    }

    /// Canonical edge IDs parallel to `segment(p).indices()`.
    pub fn segment_eids(&self, p: usize) -> &[EId] {
        &self.segment_eids[p]
    }

    /// Source-ID range of partition `p`.
    pub fn range(&self, p: usize) -> std::ops::Range<VId> {
        self.bounds[p]..self.bounds[p + 1]
    }

    /// Sorted destination IDs with at least one edge in partition `p`.
    /// Kernels restrict their per-partition destination loop to this list —
    /// scanning all `|V|` rows per partition×tile is `O(parts × tiles × |V|)`
    /// pure overhead on high-partition-count runs.
    pub fn nonempty(&self, p: usize) -> &[VId] {
        &self.nonempty[p]
    }

    /// Total stored entries across all partitions (equals the graph's nnz).
    pub fn nnz(&self) -> usize {
        self.segments.iter().map(Csr::nnz).sum()
    }

    /// Total heap footprint in bytes: every segment CSR, its parallel edge-ID
    /// array, the bounds, and the nonempty-destination lists. This is the
    /// per-plan cost figure used by the serve engine's byte-bounded plan
    /// cache.
    pub fn mem_bytes(&self) -> u64 {
        let segs: u64 = self.segments.iter().map(Csr::mem_bytes).sum();
        let eids: u64 = self
            .segment_eids
            .iter()
            .map(|v| (v.len() * std::mem::size_of::<EId>()) as u64)
            .sum();
        let nonempty: u64 = self
            .nonempty
            .iter()
            .map(|v| (v.len() * std::mem::size_of::<VId>()) as u64)
            .sum();
        segs + eids + nonempty + (self.bounds.len() * std::mem::size_of::<VId>()) as u64
    }

    /// Iterate `(partition_index, segment, eids, src_range)`.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (usize, &Csr, &[EId], std::ops::Range<VId>)> + '_ {
        (0..self.num_partitions())
            .map(move |p| (p, &self.segments[p], self.segment_eids[p].as_slice(), self.range(p)))
    }
}

/// Pick the number of source partitions so one partition's feature tile fits
/// in a cache of `cache_bytes`, following the paper's heuristic: the working
/// set per partition is `(partition width) × (feature tile width) × 4 bytes`
/// plus the output row tile, and should not exceed the cache.
///
/// `n` is the vertex count, `tile_cols` the feature-tile width in elements,
/// `elem_bytes` the scalar size.
pub fn partitions_for_cache(
    n: usize,
    tile_cols: usize,
    elem_bytes: usize,
    cache_bytes: usize,
) -> usize {
    if n == 0 {
        return 1;
    }
    let row_bytes = tile_cols.max(1) * elem_bytes;
    // Keep the partition's source rows within half the cache (the other half
    // holds output rows and index data).
    let budget = (cache_bytes / 2).max(row_bytes);
    let rows_per_part = (budget / row_bytes).max(1);
    n.div_ceil(rows_per_part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn partitions_cover_all_edges_exactly_once() {
        let g = generators::uniform(300, 8, 9);
        for parts in [1, 2, 3, 7, 16] {
            let pc = PartitionedCsr::build(&g, parts);
            assert_eq!(pc.nnz(), g.num_edges(), "parts={parts}");
            // Union of (dst, src) across segments == original edge set.
            let mut seen: Vec<(VId, VId)> = Vec::new();
            for (_, seg, _, range) in pc.iter() {
                for (dst, cols, _) in seg.iter_rows() {
                    for &src in cols {
                        assert!(range.contains(&src), "src outside its partition range");
                        seen.push((src, dst));
                    }
                }
            }
            seen.sort_unstable_by_key(|&(s, d)| (d, s));
            assert_eq!(seen, g.edge_list(), "parts={parts}");
        }
    }

    #[test]
    fn edge_ids_survive_partitioning() {
        let g = generators::uniform(100, 5, 4);
        let canonical = g.edge_list();
        let pc = PartitionedCsr::build(&g, 4);
        for (_, seg, eids, _) in pc.iter() {
            for (dst, cols, base) in seg.iter_rows() {
                for (i, &src) in cols.iter().enumerate() {
                    let eid = eids[base + i] as usize;
                    assert_eq!(canonical[eid], (src, dst));
                }
            }
        }
    }

    #[test]
    fn ranges_are_contiguous_and_cover_vertices() {
        let g = generators::uniform(101, 3, 2);
        let pc = PartitionedCsr::build(&g, 7);
        let mut cursor = 0 as VId;
        for p in 0..pc.num_partitions() {
            let r = pc.range(p);
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor as usize, g.num_vertices());
    }

    #[test]
    fn nonempty_lists_match_segment_rows() {
        let g = generators::uniform(120, 4, 7);
        for parts in [1, 3, 8] {
            let pc = PartitionedCsr::build(&g, parts);
            for (p, seg, _, _) in pc.iter() {
                let ne = pc.nonempty(p);
                assert!(ne.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                let want: Vec<VId> = seg
                    .iter_rows()
                    .filter(|(_, cols, _)| !cols.is_empty())
                    .map(|(dst, _, _)| dst)
                    .collect();
                assert_eq!(ne, want.as_slice(), "parts={parts} p={p}");
            }
        }
    }

    #[test]
    fn parts_clamped() {
        let g = generators::uniform(5, 2, 0);
        let pc = PartitionedCsr::build(&g, 1000);
        assert_eq!(pc.num_partitions(), 5);
        let pc = PartitionedCsr::build(&g, 0);
        assert_eq!(pc.num_partitions(), 1);
    }

    #[test]
    fn cache_heuristic_scales_inversely_with_tile() {
        // 10_000 rows of 128 floats: 5.1 MB; with a 1 MB cache budget we need
        // several partitions, with a huge cache just one.
        let many = partitions_for_cache(10_000, 128, 4, 1 << 20);
        let one = partitions_for_cache(10_000, 128, 4, 1 << 30);
        assert!(many > 4, "got {many}");
        assert_eq!(one, 1);
        // Narrower tiles need fewer partitions.
        let narrow = partitions_for_cache(10_000, 16, 4, 1 << 20);
        assert!(narrow < many);
        assert_eq!(partitions_for_cache(0, 128, 4, 1 << 20), 1);
    }
}
