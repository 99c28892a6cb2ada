//! Naive reference implementations.
//!
//! Single-threaded, interpreter-driven, allocation-happy — and obviously
//! correct. Every optimized kernel in this crate (and every baseline system
//! in the workspace) is tested against these.

use fg_graph::Graph;
use fg_ir::{eval_udf, EdgeCtx, FusedOp, Reducer, Udf};
use fg_tensor::{Dense2, Scalar};

use crate::error::KernelError;
use crate::inputs::{Dims, FusedInputs, GraphTensors};

/// Reference generalized SpMM: for every vertex `v`,
/// `out[v] = agg over incoming edges (u→v) of udf(u, v, eid)`.
pub fn spmm_reference<S: Scalar>(
    graph: &Graph,
    udf: &Udf,
    agg: Reducer,
    inputs: &GraphTensors<'_, S>,
    out: &mut Dense2<S>,
) -> Result<(), KernelError> {
    udf.validate()?;
    let dims = Dims::square(graph.num_vertices(), graph.num_edges());
    inputs.validate(udf, dims, out, graph.num_vertices())?;
    let empty: [S; 0] = [];
    let xd = inputs.dst_tensor();
    out.fill(agg.identity());
    let mut msg = vec![S::ZERO; udf.out_len];
    for (src, dst, eid) in graph.edges() {
        let ctx = EdgeCtx {
            src: if udf.src_len > 0 { inputs.vertex.row(src as usize) } else { &empty },
            dst: if udf.dst_len > 0 { xd.row(dst as usize) } else { &empty },
            edge: match inputs.edge {
                Some(e) if udf.edge_len > 0 => e.row(eid as usize),
                _ => &empty,
            },
        };
        eval_udf(udf, &ctx, inputs.params, &mut msg, |slot, v| *slot = v);
        let row = out.row_mut(dst as usize);
        for (o, &m) in row.iter_mut().zip(&msg) {
            *o = agg.combine(*o, m);
        }
    }
    // finalize (mean division, zero-degree normalization)
    for v in 0..graph.num_vertices() as u32 {
        let deg = graph.in_degree(v);
        for o in out.row_mut(v as usize) {
            *o = agg.finalize(*o, deg);
        }
    }
    Ok(())
}

/// Reference generalized SDDMM: for every edge `(u→v, eid)`,
/// `out[eid] = udf(u, v, eid)`.
pub fn sddmm_reference<S: Scalar>(
    graph: &Graph,
    udf: &Udf,
    inputs: &GraphTensors<'_, S>,
    out: &mut Dense2<S>,
) -> Result<(), KernelError> {
    udf.validate()?;
    let dims = Dims::square(graph.num_vertices(), graph.num_edges());
    inputs.validate(udf, dims, out, graph.num_edges())?;
    let empty: [S; 0] = [];
    let xd = inputs.dst_tensor();
    for (src, dst, eid) in graph.edges() {
        let ctx = EdgeCtx {
            src: if udf.src_len > 0 { inputs.vertex.row(src as usize) } else { &empty },
            dst: if udf.dst_len > 0 { xd.row(dst as usize) } else { &empty },
            edge: match inputs.edge {
                Some(e) if udf.edge_len > 0 => e.row(eid as usize),
                _ => &empty,
            },
        };
        // Split borrow: out row is disjoint from inputs.
        let mut msg = vec![S::ZERO; udf.out_len];
        eval_udf(udf, &ctx, inputs.params, &mut msg, |slot, v| *slot = v);
        out.row_mut(eid as usize).copy_from_slice(&msg);
    }
    Ok(())
}

/// Reference fused SDDMM → (softmax) → SpMM — deliberately the *unfused*
/// composition: materialize all `|E|` scores, normalize per destination,
/// then aggregate scaled messages. The fused kernels are differential-tested
/// against this.
pub fn fused_reference(
    graph: &Graph,
    op: &FusedOp,
    inputs: &FusedInputs<'_, f32>,
    out: &mut Dense2<f32>,
) -> Result<(), KernelError> {
    op.validate()?;
    inputs.validate(op, Dims::square(graph.num_vertices(), graph.num_edges()), out)?;
    let empty: [f32; 0] = [];

    // Pass 1: materialize the |E| raw scores (what the fused path avoids).
    let sudf = &op.score;
    let sxd = inputs.score.dst_tensor();
    let mut scores = vec![0f32; graph.num_edges()];
    for (src, dst, eid) in graph.edges() {
        let ctx = EdgeCtx {
            src: if sudf.src_len > 0 { inputs.score.vertex.row(src as usize) } else { &empty },
            dst: if sudf.dst_len > 0 { sxd.row(dst as usize) } else { &empty },
            edge: match inputs.score.edge {
                Some(e) if sudf.edge_len > 0 => e.row(eid as usize),
                _ => &empty,
            },
        };
        let mut s = [0f32; 1];
        eval_udf(sudf, &ctx, inputs.score.params, &mut s, |slot, v| *slot = v);
        scores[eid as usize] = s[0];
    }

    // Pass 2: per-destination softmax. Canonical edge IDs are dst-major, so
    // each destination's incoming edges are the contiguous indptr segment.
    if op.softmax {
        let indptr = graph.in_csr().indptr();
        for v in 0..graph.num_vertices() {
            let seg = &mut scores[indptr[v]..indptr[v + 1]];
            if seg.is_empty() {
                continue;
            }
            let max = seg.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for s in seg.iter_mut() {
                *s = (*s - max).exp();
                sum += *s;
            }
            if sum > 0.0 {
                for s in seg.iter_mut() {
                    *s /= sum;
                }
            }
        }
    }

    // Pass 3: aggregate score-scaled messages.
    let mudf = &op.message;
    let mxd = inputs.message.dst_tensor();
    out.fill(op.agg.identity());
    let mut msg = vec![0f32; mudf.out_len];
    for (src, dst, eid) in graph.edges() {
        let ctx = EdgeCtx {
            src: if mudf.src_len > 0 { inputs.message.vertex.row(src as usize) } else { &empty },
            dst: if mudf.dst_len > 0 { mxd.row(dst as usize) } else { &empty },
            edge: match inputs.message.edge {
                Some(e) if mudf.edge_len > 0 => e.row(eid as usize),
                _ => &empty,
            },
        };
        eval_udf(mudf, &ctx, inputs.message.params, &mut msg, |slot, v| *slot = v);
        let w = scores[eid as usize];
        let row = out.row_mut(dst as usize);
        for (o, &m) in row.iter_mut().zip(&msg) {
            *o = op.agg.combine(*o, w * m);
        }
    }
    for v in 0..graph.num_vertices() as u32 {
        let deg = graph.in_degree(v);
        for o in out.row_mut(v as usize) {
            *o = op.agg.finalize(*o, deg);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense ground truth for vanilla SpMM (`H = A × X`), computed via an
    /// explicit dense adjacency.
    fn dense_spmm_ground_truth(graph: &Graph, x: &Dense2<f64>) -> Dense2<f64> {
        let n = graph.num_vertices();
        let d = x.cols();
        let mut out = Dense2::zeros(n, d);
        for (src, dst, _) in graph.edges() {
            let (orow, xrow) = (dst as usize, src as usize);
            for c in 0..d {
                let v = out.at(orow, c) + x.at(xrow, c);
                out.set(orow, c, v);
            }
        }
        out
    }

    #[test]
    fn spmm_reference_matches_dense_ground_truth() {
        let g = fg_graph::uniform(60, 5, 3);
        let x = Dense2::<f64>::from_fn(60, 8, |v, i| ((v * 7 + i) % 13) as f64 - 6.0);
        let udf = Udf::copy_src(8);
        let mut out = Dense2::zeros(60, 8);
        spmm_reference(&g, &udf, Reducer::Sum, &GraphTensors::vertex_only(&x), &mut out).unwrap();
        let truth = dense_spmm_ground_truth(&g, &x);
        assert!(out.approx_eq(&truth, 1e-9));
    }

    #[test]
    fn spmm_mean_divides_by_degree() {
        let g = Graph::from_edges(3, &[(0, 2), (1, 2)]);
        let x = Dense2::<f64>::from_fn(3, 2, |v, _| v as f64);
        let udf = Udf::copy_src(2);
        let mut out = Dense2::zeros(3, 2);
        spmm_reference(&g, &udf, Reducer::Mean, &GraphTensors::vertex_only(&x), &mut out).unwrap();
        assert_eq!(out.row(2), &[0.5, 0.5]);
        // zero-degree vertices are zero, not identity sentinels
        assert_eq!(out.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn spmm_max_on_zero_degree_vertex_is_zero() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let x = Dense2::<f32>::from_fn(2, 2, |_, _| -5.0);
        let udf = Udf::copy_src(2);
        let mut out = Dense2::zeros(2, 2);
        spmm_reference(&g, &udf, Reducer::Max, &GraphTensors::vertex_only(&x), &mut out).unwrap();
        assert_eq!(out.row(1), &[-5.0, -5.0]);
        assert_eq!(out.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn sddmm_reference_dot_is_rowwise_dot() {
        let g = fg_graph::uniform(20, 3, 1);
        let x = Dense2::<f64>::from_fn(20, 4, |v, i| (v + i) as f64 * 0.1);
        let udf = Udf::dot(4);
        let mut out = Dense2::zeros(g.num_edges(), 1);
        sddmm_reference(&g, &udf, &GraphTensors::vertex_only(&x), &mut out).unwrap();
        for (src, dst, eid) in g.edges() {
            let want: f64 = x
                .row(src as usize)
                .iter()
                .zip(x.row(dst as usize))
                .map(|(&a, &b)| a * b)
                .sum();
            assert!((out.at(eid as usize, 0) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn reference_validates_inputs() {
        let g = fg_graph::uniform(10, 2, 0);
        let x = Dense2::<f32>::zeros(10, 4);
        let udf = Udf::copy_src(8); // wants d=8
        let mut out = Dense2::zeros(10, 8);
        let err =
            spmm_reference(&g, &udf, Reducer::Sum, &GraphTensors::vertex_only(&x), &mut out)
                .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
    }
}
