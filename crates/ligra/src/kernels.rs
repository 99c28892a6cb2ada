//! GNN kernels written the way a Ligra application would write them.
//!
//! Each kernel drives [`crate::engine::edge_map`] with a per-edge blackbox
//! closure that loops over the feature dimension scalar-by-scalar. The
//! engine schedules edges; it knows nothing about the feature dimension —
//! no tiling, no cache partitioning, no vectorization across the UDF
//! boundary. This is the honest rendition of the paper's CPU baseline.

use fg_graph::Graph;
use fg_tensor::Dense2;
use std::cell::RefCell;

use crate::engine::{edge_map, EdgeMapOptions};
use crate::subset::VertexSubset;

/// Shared mutable feature buffer handed to per-edge closures.
///
/// Safety relies on the traversal discipline: in the dense (pull) direction
/// a destination row is touched by exactly one worker, and per-edge rows
/// (`eid`-indexed) are unique per edge. The full-frontier GNN kernels below
/// always take the dense direction (frontier out-edges ≫ |E|/20).
struct RawRows {
    ptr: *mut f32,
    len: usize,
    cols: usize,
}

// SAFETY: shared use writes only through `row`, whose callers hold exclusive
// access to their row: in the dense (pull) direction each destination row
// has one worker, and each `eid` row belongs to one edge.
unsafe impl Sync for RawRows {}

impl RawRows {
    fn new(m: &mut Dense2<f32>) -> Self {
        Self {
            ptr: m.as_mut_slice().as_mut_ptr(),
            len: m.as_slice().len(),
            cols: m.cols(),
        }
    }

    /// # Safety
    /// Caller must guarantee exclusive access to row `r` for the duration.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, r: usize) -> &mut [f32] {
        debug_assert!((r + 1) * self.cols <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(r * self.cols), self.cols)
    }
}

/// GCN aggregation: `out[v] = Σ_{u→v} x[u]`, per-edge scalar loop.
pub fn gcn_aggregation(
    graph: &Graph,
    x: &Dense2<f32>,
    out: &mut Dense2<f32>,
    opts: &EdgeMapOptions,
) {
    assert_eq!(x.shape(), out.shape(), "shape mismatch");
    let d = x.cols();
    out.fill_zero();
    let raw = RawRows::new(out);
    let frontier = VertexSubset::all(graph.num_vertices());
    edge_map(
        graph,
        &frontier,
        &|src, dst, _eid| {
            // Safety: dense pull direction — one worker owns this dst row.
            let orow = unsafe { raw.row(dst as usize) };
            let srow = x.row(src as usize);
            let mut k = 0usize;
            while k < d {
                orow[k] += srow[k];
                k += 1;
            }
            false
        },
        &|_| true,
        opts,
    );
}

/// MLP aggregation: `out[v] = max_{u→v} relu((x[u] + x[v]) × W)`, computed
/// per edge with thread-local scratch (no fusion, no W tiling).
pub fn mlp_aggregation(
    graph: &Graph,
    x: &Dense2<f32>,
    w: &Dense2<f32>,
    out: &mut Dense2<f32>,
    opts: &EdgeMapOptions,
) {
    let d1 = x.cols();
    let d2 = w.cols();
    assert_eq!(w.rows(), d1, "weight shape mismatch");
    assert_eq!(out.shape(), (graph.num_vertices(), d2), "out shape mismatch");
    out.fill(f32::MIN);
    let raw = RawRows::new(out);
    let frontier = VertexSubset::all(graph.num_vertices());

    thread_local! {
        static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    edge_map(
        graph,
        &frontier,
        &|src, dst, _eid| {
            SCRATCH.with(|cell| {
                let mut tmp = cell.borrow_mut();
                tmp.clear();
                tmp.resize(d1, 0.0);
                let srow = x.row(src as usize);
                let drow = x.row(dst as usize);
                let mut k = 0usize;
                while k < d1 {
                    tmp[k] = srow[k] + drow[k];
                    k += 1;
                }
                // Safety: dense pull — exclusive dst row.
                let orow = unsafe { raw.row(dst as usize) };
                let mut i = 0usize;
                while i < d2 {
                    let mut acc = 0.0f32;
                    let mut k = 0usize;
                    while k < d1 {
                        acc += tmp[k] * w.at(k, i);
                        k += 1;
                    }
                    let msg = acc.max(0.0);
                    if msg > orow[i] {
                        orow[i] = msg;
                    }
                    i += 1;
                }
            });
            false
        },
        &|_| true,
        opts,
    );
    // zero-degree rows hold the fill sentinel; normalize like DGL
    for v in 0..graph.num_vertices() {
        if graph.in_degree(v as u32) == 0 {
            out.row_mut(v).fill(0.0);
        }
    }
}

/// Dot-product attention: `out[eid] = x[src] · x[dst]`.
pub fn dot_attention(
    graph: &Graph,
    x: &Dense2<f32>,
    out: &mut Dense2<f32>,
    opts: &EdgeMapOptions,
) {
    let d = x.cols();
    assert_eq!(out.shape(), (graph.num_edges(), 1), "out shape mismatch");
    let raw = RawRows::new(out);
    let frontier = VertexSubset::all(graph.num_vertices());
    edge_map(
        graph,
        &frontier,
        &|src, dst, eid| {
            let srow = x.row(src as usize);
            let drow = x.row(dst as usize);
            let mut acc = 0.0f32;
            let mut k = 0usize;
            while k < d {
                acc += srow[k] * drow[k];
                k += 1;
            }
            // Safety: eid rows are unique per edge.
            unsafe { raw.row(eid as usize)[0] = acc };
            false
        },
        &|_| true,
        opts,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 31 + i * 7) % 23) as f32 * 0.25 - 2.0)
    }

    #[test]
    fn gcn_aggregation_matches_manual_sum() {
        let g = fg_graph::uniform(100, 5, 3);
        let x = features(100, 16);
        let mut out = Dense2::zeros(100, 16);
        gcn_aggregation(&g, &x, &mut out, &EdgeMapOptions { threads: 2, ..Default::default() });
        // manual reference
        let mut want = Dense2::zeros(100, 16);
        for (src, dst, _) in g.edges() {
            for k in 0..16 {
                let v = want.at(dst as usize, k) + x.at(src as usize, k);
                want.set(dst as usize, k, v);
            }
        }
        assert!(out.approx_eq(&want, 1e-4), "diff {}", out.max_abs_diff(&want));
    }

    #[test]
    fn mlp_aggregation_matches_manual() {
        let g = fg_graph::uniform(50, 4, 7);
        let x = features(50, 8);
        let w = Dense2::from_fn(8, 6, |r, c| ((r + 2 * c) % 5) as f32 * 0.2 - 0.4);
        let mut out = Dense2::zeros(50, 6);
        mlp_aggregation(&g, &x, &w, &mut out, &EdgeMapOptions::default());
        for v in 0..50u32 {
            let mut want = [f32::MIN; 6];
            let srcs = g.in_csr().row(v);
            for &src in srcs {
                for (i, wv) in want.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for k in 0..8 {
                        acc += (x.at(src as usize, k) + x.at(v as usize, k)) * w.at(k, i);
                    }
                    let msg = acc.max(0.0);
                    if msg > *wv {
                        *wv = msg;
                    }
                }
            }
            if srcs.is_empty() {
                want.fill(0.0);
            }
            for (i, &wv) in want.iter().enumerate() {
                assert!(
                    (out.at(v as usize, i) - wv).abs() < 1e-3,
                    "v={v} i={i}: {} vs {wv}",
                    out.at(v as usize, i)
                );
            }
        }
    }

    #[test]
    fn dot_attention_matches_manual() {
        let g = fg_graph::uniform(80, 3, 5);
        let x = features(80, 12);
        let mut out = Dense2::zeros(g.num_edges(), 1);
        dot_attention(&g, &x, &mut out, &EdgeMapOptions { threads: 2, ..Default::default() });
        for (src, dst, eid) in g.edges() {
            let want: f32 = (0..12)
                .map(|k| x.at(src as usize, k) * x.at(dst as usize, k))
                .sum();
            assert!((out.at(eid as usize, 0) - want).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn gcn_rejects_bad_shapes() {
        let g = fg_graph::uniform(10, 2, 1);
        let x = features(10, 4);
        let mut out = Dense2::zeros(10, 8);
        gcn_aggregation(&g, &x, &mut out, &EdgeMapOptions::default());
    }
}
