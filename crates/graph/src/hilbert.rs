//! Hilbert-curve edge ordering (§III-C1).
//!
//! Edge-wise computations (SDDMM) read both endpoint feature rows. Visiting
//! edges in the order given by the Hilbert index of their `(src, dst)`
//! coordinate keeps *both* recently-touched source rows and destination rows
//! hot across a spectrum of cache levels — the recursive structure of the
//! curve is what gives the multi-granularity locality the paper cites
//! (McSherry et al., HotOS'15).

use crate::{EId, Graph, VId};

/// Convert `(x, y)` to its distance along a Hilbert curve of order `order`
/// (a `2^order × 2^order` grid). Standard iterative rotate-and-flip walk.
pub fn xy_to_d(order: u32, mut x: u64, mut y: u64) -> u64 {
    let side = 1u64 << order;
    debug_assert!(x < side && y < side, "coordinates outside the grid");
    let mut rx: u64;
    let mut ry: u64;
    let mut d: u64 = 0;
    let mut s = side / 2;
    while s > 0 {
        rx = u64::from((x & s) > 0);
        ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // rotate quadrant
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x) & (side - 1);
                y = s.wrapping_sub(1).wrapping_sub(y) & (side - 1);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Smallest curve order whose grid covers `n` vertices on each axis.
pub fn order_for(n: usize) -> u32 {
    let n = n.max(2) as u64;
    64 - (n - 1).leading_zeros()
}

/// An edge-traversal order: for each visit position, the canonical edge ID
/// plus its endpoints (pre-gathered so kernels avoid an indirection).
#[derive(Debug, Clone)]
pub struct EdgeOrder {
    /// `(src, dst, eid)` triples in visit order.
    pub visits: Vec<(VId, VId, EId)>,
}

impl EdgeOrder {
    /// Canonical destination-major order (the order edge IDs are defined in).
    pub fn canonical(graph: &Graph) -> Self {
        Self {
            visits: graph.edges().collect(),
        }
    }

    /// Hilbert-curve order over the `(src, dst)` plane.
    pub fn hilbert(graph: &Graph) -> Self {
        let order = order_for(graph.num_vertices());
        let mut keyed: Vec<(u64, (VId, VId, EId))> = graph
            .edges()
            .map(|e| (xy_to_d(order, e.0 as u64, e.1 as u64), e))
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        Self {
            visits: keyed.into_iter().map(|(_, e)| e).collect(),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Heap footprint of the visit list in bytes.
    pub fn mem_bytes(&self) -> u64 {
        (self.visits.len() * std::mem::size_of::<(VId, VId, EId)>()) as u64
    }
}

/// Measure the locality of an edge order: the mean absolute jump in source
/// and destination IDs between consecutive visits (lower = more cache
/// friendly). Used by tests and the ablation harness to demonstrate the
/// Hilbert order's benefit independent of wall-clock noise.
pub fn mean_jump(order: &EdgeOrder) -> f64 {
    if order.visits.len() < 2 {
        return 0.0;
    }
    let mut total = 0u64;
    for w in order.visits.windows(2) {
        let (s0, d0, _) = w[0];
        let (s1, d1, _) = w[1];
        total += s0.abs_diff(s1) as u64 + d0.abs_diff(d1) as u64;
    }
    total as f64 / (order.visits.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    /// Inverse of [`xy_to_d`]: the oracle the curve tests check it against.
    fn d_to_xy(order: u32, mut d: u64) -> (u64, u64) {
        let side = 1u64 << order;
        let (mut x, mut y) = (0u64, 0u64);
        let mut s = 1u64;
        while s < side {
            let rx = 1 & (d / 2);
            let ry = 1 & (d ^ rx);
            // rotate
            if ry == 0 {
                if rx == 1 {
                    x = s - 1 - x;
                    y = s - 1 - y;
                }
                std::mem::swap(&mut x, &mut y);
            }
            x += s * rx;
            y += s * ry;
            d /= 4;
            s *= 2;
        }
        (x, y)
    }

    proptest! {
        #[test]
        fn hilbert_curve_round_trips(order in 1u32..12, d in 0u64..4096) {
            let side = 1u64 << order;
            let d = d % (side * side);
            let (x, y) = d_to_xy(order, d);
            prop_assert!(x < side && y < side);
            prop_assert_eq!(xy_to_d(order, x, y), d);
        }
    }

    #[test]
    fn curve_is_a_bijection_order3() {
        let order = 3;
        let side = 1u64 << order;
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let d = xy_to_d(order, x, y);
                assert!(!seen[d as usize], "duplicate d={d}");
                seen[d as usize] = true;
                assert_eq!(d_to_xy(order, d), (x, y));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn consecutive_curve_points_are_grid_neighbors() {
        let order = 4;
        let side = 1u64 << order;
        let mut prev = d_to_xy(order, 0);
        for d in 1..side * side {
            let cur = d_to_xy(order, d);
            let dist = prev.0.abs_diff(cur.0) + prev.1.abs_diff(cur.1);
            assert_eq!(dist, 1, "jump at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn order_for_covers() {
        assert_eq!(order_for(2), 1);
        assert_eq!(order_for(3), 2);
        assert_eq!(order_for(1024), 10);
        assert_eq!(order_for(1025), 11);
        // degenerate inputs clamp to a 2-point grid
        assert_eq!(order_for(0), 1);
    }

    #[test]
    fn hilbert_order_is_permutation_of_edges() {
        let g = generators::uniform(500, 6, 12);
        let h = EdgeOrder::hilbert(&g);
        assert_eq!(h.len(), g.num_edges());
        let mut eids: Vec<EId> = h.visits.iter().map(|&(_, _, e)| e).collect();
        eids.sort_unstable();
        let expect: Vec<EId> = (0..g.num_edges() as EId).collect();
        assert_eq!(eids, expect);
        // endpoints must match the canonical edge
        let canonical = g.edge_list();
        for &(s, d, e) in &h.visits {
            assert_eq!(canonical[e as usize], (s, d));
        }
    }

    #[test]
    fn hilbert_improves_locality_over_canonical_on_random_graphs() {
        let g = generators::uniform(2000, 10, 3);
        let canonical = EdgeOrder::canonical(&g);
        let hilbert = EdgeOrder::hilbert(&g);
        let jc = mean_jump(&canonical);
        let jh = mean_jump(&hilbert);
        // canonical order is sorted by dst, so dst jumps are tiny but src
        // jumps are ~uniform (n/3 on average); Hilbert bounds both.
        assert!(jh < jc, "hilbert {jh} vs canonical {jc}");
    }

    #[test]
    fn empty_graph_order() {
        let g = crate::Graph::from_edges(4, &[]);
        let h = EdgeOrder::hilbert(&g);
        assert!(h.is_empty());
        assert_eq!(mean_jump(&h), 0.0);
    }
}
