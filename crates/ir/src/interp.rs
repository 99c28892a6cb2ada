//! Generic UDF interpreter — the always-correct fallback "codegen".
//!
//! Every UDF the IR can express is executable through this interpreter; the
//! kernel templates use it when pattern recognition fails, and every
//! specialized kernel is property-tested against it.

use fg_tensor::{Dense2, Scalar};

use crate::expr::ScalarExpr;
use crate::udf::Udf;

/// The per-edge inputs a UDF body reads.
#[derive(Clone, Copy)]
pub struct EdgeCtx<'a, S> {
    /// Source vertex feature row (may be empty if unused).
    pub src: &'a [S],
    /// Destination vertex feature row.
    pub dst: &'a [S],
    /// Edge feature row.
    pub edge: &'a [S],
}

/// Evaluate `expr` at point `(i, k)`.
pub fn eval_expr<S: Scalar>(
    expr: &ScalarExpr,
    ctx: &EdgeCtx<'_, S>,
    params: &[&Dense2<S>],
    i: usize,
    k: usize,
) -> S {
    match expr {
        ScalarExpr::Src(ix) => ctx.src[ix.eval(i, k)],
        ScalarExpr::Dst(ix) => ctx.dst[ix.eval(i, k)],
        ScalarExpr::Edge(ix) => ctx.edge[ix.eval(i, k)],
        ScalarExpr::Param { p, row, col } => params[*p].at(row.eval(i, k), col.eval(i, k)),
        ScalarExpr::Const(c) => S::from_f64(*c),
        ScalarExpr::Add(a, b) => {
            eval_expr(a, ctx, params, i, k) + eval_expr(b, ctx, params, i, k)
        }
        ScalarExpr::Sub(a, b) => {
            eval_expr(a, ctx, params, i, k) - eval_expr(b, ctx, params, i, k)
        }
        ScalarExpr::Mul(a, b) => {
            eval_expr(a, ctx, params, i, k) * eval_expr(b, ctx, params, i, k)
        }
        ScalarExpr::Div(a, b) => {
            eval_expr(a, ctx, params, i, k) / eval_expr(b, ctx, params, i, k)
        }
        ScalarExpr::Max(a, b) => {
            eval_expr(a, ctx, params, i, k).maximum(eval_expr(b, ctx, params, i, k))
        }
        ScalarExpr::Min(a, b) => {
            eval_expr(a, ctx, params, i, k).minimum(eval_expr(b, ctx, params, i, k))
        }
        ScalarExpr::Neg(a) => -eval_expr(a, ctx, params, i, k),
        ScalarExpr::Exp(a) => eval_expr(a, ctx, params, i, k).exp(),
        ScalarExpr::Relu(a) => eval_expr(a, ctx, params, i, k).maximum(S::ZERO),
        ScalarExpr::LeakyRelu(a, slope) => {
            let v = eval_expr(a, ctx, params, i, k);
            if v > S::ZERO {
                v
            } else {
                S::from_f64(*slope) * v
            }
        }
    }
}

/// Evaluate a full UDF for one edge, writing `udf.out_len` values into `out`.
///
/// `out` may hold a running aggregation: values are written with `write`,
/// which the SpMM template sets to the aggregation combine.
pub fn eval_udf<S: Scalar>(
    udf: &Udf,
    ctx: &EdgeCtx<'_, S>,
    params: &[&Dense2<S>],
    out: &mut [S],
    mut write: impl FnMut(&mut S, S),
) {
    debug_assert_eq!(out.len(), udf.out_len);
    match udf.reduce {
        None => {
            for (i, slot) in out.iter_mut().enumerate() {
                let mut v = eval_expr(&udf.body, ctx, params, i, 0);
                if udf.post_relu {
                    v = v.maximum(S::ZERO);
                }
                write(slot, v);
            }
        }
        Some(r) => {
            for (i, slot) in out.iter_mut().enumerate() {
                let mut acc = r.op.identity::<S>();
                for k in 0..r.len {
                    acc = r.op.combine(acc, eval_expr(&udf.body, ctx, params, i, k));
                }
                let mut v = r.op.finalize(acc, r.len);
                if udf.post_relu {
                    v = v.maximum(S::ZERO);
                }
                write(slot, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::Udf;

    fn ctx<'a>(src: &'a [f64], dst: &'a [f64], edge: &'a [f64]) -> EdgeCtx<'a, f64> {
        EdgeCtx { src, dst, edge }
    }

    /// Evaluate a UDF into a fresh vector.
    fn eval_udf_vec(udf: &Udf, ctx: &EdgeCtx<'_, f64>, params: &[&Dense2<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; udf.out_len];
        eval_udf(udf, ctx, params, &mut out, |slot, v| *slot = v);
        out
    }

    #[test]
    fn copy_src_copies() {
        let udf = Udf::copy_src(3);
        let src = [1.0, 2.0, 3.0];
        let dst = [9.0, 9.0, 9.0];
        let out = eval_udf_vec(&udf, &ctx(&src, &dst, &[]), &[]);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dot_product_matches_manual() {
        let udf = Udf::dot(4);
        let src = [1.0, 2.0, 3.0, 4.0];
        let dst = [0.5, 0.5, 0.5, 0.5];
        let out = eval_udf_vec(&udf, &ctx(&src, &dst, &[]), &[]);
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn multi_head_dot_per_head() {
        let udf = Udf::multi_head_dot(2, 2);
        // heads laid out head-major: [h0d0, h0d1, h1d0, h1d1]
        let src = [1.0, 2.0, 3.0, 4.0];
        let dst = [1.0, 1.0, 2.0, 2.0];
        let out = eval_udf_vec(&udf, &ctx(&src, &dst, &[]), &[]);
        assert_eq!(out, vec![3.0, 14.0]);
    }

    #[test]
    fn mlp_matches_manual_computation() {
        let udf = Udf::mlp(2, 2);
        let w = Dense2::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]).unwrap();
        let src = [1.0, 2.0];
        let dst = [3.0, 4.0];
        // (src+dst) = [4, 6]; out = relu([4*1 + 6*0.5, 4*-1 + 6*2]) = [7, 8]
        let out = eval_udf_vec(&udf, &ctx(&src, &dst, &[]), &[&w]);
        assert_eq!(out, vec![7.0, 8.0]);
    }

    #[test]
    fn mlp_post_relu_clamps() {
        let udf = Udf::mlp(1, 1);
        let w = Dense2::from_vec(1, 1, vec![-1.0]).unwrap();
        let out = eval_udf_vec(&udf, &ctx(&[1.0], &[1.0], &[]), &[&w]);
        assert_eq!(out, vec![0.0]); // relu(-2) = 0
    }

    #[test]
    fn edge_feature_udf() {
        let udf = Udf::src_mul_edge(2);
        let out = eval_udf_vec(&udf, &ctx(&[2.0, 3.0], &[0.0, 0.0], &[10.0, 100.0]), &[]);
        assert_eq!(out, vec![20.0, 300.0]);
    }

    #[test]
    fn write_hook_can_aggregate() {
        let udf = Udf::copy_src(2);
        let mut out = vec![10.0, 20.0];
        eval_udf(
            &udf,
            &ctx(&[1.0, 2.0], &[0.0, 0.0], &[]),
            &[],
            &mut out,
            |slot, v| *slot += v,
        );
        assert_eq!(out, vec![11.0, 22.0]);
    }

    #[test]
    fn max_reduce_axis() {
        use crate::reducer::Reducer;
        use crate::udf::ReduceSpec;
        let udf = Udf {
            out_len: 1,
            src_len: 4,
            dst_len: 0,
            edge_len: 0,
            reduce: Some(ReduceSpec {
                len: 4,
                op: Reducer::Max,
            }),
            params: vec![],
            body: ScalarExpr::src_k(),
            post_relu: false,
        };
        let out = eval_udf_vec(&udf, &ctx(&[1.0, 5.0, 3.0, 2.0], &[], &[]), &[]);
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn all_operators_evaluate() {
        use ScalarExpr as E;
        let two = E::Const(2.0);
        let exprs: Vec<(ScalarExpr, f64)> = vec![
            (E::Const(3.0).add(two.clone()), 5.0),
            (E::Const(3.0).sub(two.clone()), 1.0),
            (E::Const(3.0).mul(two.clone()), 6.0),
            (E::Const(3.0).div(two.clone()), 1.5),
            (E::Const(3.0).max(two.clone()), 3.0),
            (E::Min(Box::new(E::Const(3.0)), Box::new(two.clone())), 2.0),
            (E::Neg(Box::new(E::Const(3.0))), -3.0),
            (E::Relu(Box::new(E::Const(-3.0))), 0.0),
            (E::LeakyRelu(Box::new(E::Const(-4.0)), 0.25), -1.0),
        ];
        let c = ctx(&[], &[], &[]);
        for (e, expect) in exprs {
            let got = eval_expr(&e, &c, &[], 0, 0);
            assert_eq!(got, expect, "{e:?}");
        }
        let ec = eval_expr(&E::Exp(Box::new(E::Const(0.0))), &c, &[], 0, 0);
        assert!((ec - 1.0).abs() < 1e-12);
    }
}
