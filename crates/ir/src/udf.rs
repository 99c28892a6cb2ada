//! User-defined functions over the feature dimension.
//!
//! A [`Udf`] is the fine-grained half of the paper's two-granularity
//! interface: it describes, for one edge `(src, dst, eid)`, how to compute an
//! output feature vector from the endpoint/edge feature rows and parameter
//! matrices. The coarse-grained half (the SpMM/SDDMM templates in the
//! `featgraph` crate) decides how edges are traversed and how per-edge
//! outputs are aggregated.

use crate::expr::ScalarExpr;
use crate::reducer::Reducer;

/// Declared shape of a parameter matrix (e.g. the weight of MLP aggregation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamShape {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

/// The reduction axis of a UDF (e.g. the `k` of `sum_k src[k] * w[k][i]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceSpec {
    /// Extent of the reduction axis.
    pub len: usize,
    /// Reduction operator applied along the axis.
    pub op: Reducer,
}

/// Validation errors for UDF construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdfError {
    /// The body indexes an operand beyond its declared length.
    IndexOutOfRange {
        /// Which operand ("src", "dst", "edge", "param").
        operand: &'static str,
        /// Largest index the body can produce.
        max_index: usize,
        /// Declared extent.
        extent: usize,
    },
    /// The body references the reduction variable but no reduce axis was
    /// declared.
    RedWithoutReduce,
    /// A parameter index has no declared shape.
    MissingParam {
        /// Parameter position referenced by the body.
        p: usize,
        /// Number of declared parameter shapes.
        declared: usize,
    },
    /// The output axis must be non-empty.
    EmptyOutput,
    /// The declared reduction axis must be non-empty.
    EmptyReduce,
}

impl std::fmt::Display for UdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdfError::IndexOutOfRange {
                operand,
                max_index,
                extent,
            } => write!(
                f,
                "UDF body indexes {operand} up to {max_index} but its extent is {extent}"
            ),
            UdfError::RedWithoutReduce => {
                write!(f, "UDF body uses the reduction variable but declares no reduce axis")
            }
            UdfError::MissingParam { p, declared } => {
                write!(f, "UDF body references param {p} but only {declared} are declared")
            }
            UdfError::EmptyOutput => write!(f, "UDF output axis must be non-empty"),
            UdfError::EmptyReduce => write!(f, "UDF reduce axis must be non-empty"),
        }
    }
}

impl std::error::Error for UdfError {}

/// A user-defined feature-dimension function.
///
/// Semantics, for one edge with feature rows `src`, `dst`, `edge` and
/// parameter matrices `params`:
///
/// ```text
/// for i in 0..out_len:
///     out[i] = reduce.op over k in 0..reduce.len of body(i, k)      # if reduce
///     out[i] = body(i, 0)                                           # otherwise
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Udf {
    /// Output vector length per edge.
    pub out_len: usize,
    /// Declared input feature lengths (src/dst/edge rows). Zero means the
    /// operand is unused.
    pub src_len: usize,
    /// Destination feature length.
    pub dst_len: usize,
    /// Edge feature length.
    pub edge_len: usize,
    /// Optional reduction axis.
    pub reduce: Option<ReduceSpec>,
    /// Parameter matrix shapes (values are supplied at kernel invocation).
    pub params: Vec<ParamShape>,
    /// The body expression evaluated at each `(i, k)`.
    pub body: ScalarExpr,
    /// Apply `max(·, 0)` to each output element after reduction (the MLP
    /// aggregation of Fig. 3b puts its ReLU *outside* the sum).
    pub post_relu: bool,
}

impl Udf {
    /// Validate shape/index consistency. Called by the kernel templates
    /// before compilation; exposed for direct use in tests.
    pub fn validate(&self) -> Result<(), UdfError> {
        if self.out_len == 0 {
            return Err(UdfError::EmptyOutput);
        }
        let red_len = match self.reduce {
            Some(r) if r.len == 0 => return Err(UdfError::EmptyReduce),
            Some(r) => r.len,
            None => {
                if self.body.uses_red() {
                    return Err(UdfError::RedWithoutReduce);
                }
                1
            }
        };
        let mut err = None;
        self.body.visit(&mut |e| {
            if err.is_some() {
                return;
            }
            let check = |operand: &'static str, idx: crate::expr::IdxExpr, extent: usize| {
                let mx = idx.max_value(self.out_len, red_len);
                if mx >= extent {
                    Some(UdfError::IndexOutOfRange {
                        operand,
                        max_index: mx,
                        extent,
                    })
                } else {
                    None
                }
            };
            match e {
                ScalarExpr::Src(ix) => err = check("src", *ix, self.src_len),
                ScalarExpr::Dst(ix) => err = check("dst", *ix, self.dst_len),
                ScalarExpr::Edge(ix) => err = check("edge", *ix, self.edge_len),
                ScalarExpr::Param { p, row, col } => {
                    if *p >= self.params.len() {
                        err = Some(UdfError::MissingParam {
                            p: *p,
                            declared: self.params.len(),
                        });
                    } else {
                        let shape = self.params[*p];
                        err = check("param", *row, shape.rows)
                            .or_else(|| check("param", *col, shape.cols));
                    }
                }
                _ => {}
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(())
    }

    /// Extent of the reduction axis (1 when absent).
    pub fn red_len(&self) -> usize {
        self.reduce.map_or(1, |r| r.len)
    }

    /// Arithmetic cost per edge: `out_len × red_len × flops(body)` plus the
    /// reduction combines. Drives the GPU simulator's ALU accounting.
    pub fn flops_per_edge(&self) -> usize {
        let body = self.body.flops().max(1);
        let red = self.red_len();
        self.out_len * red * body + self.out_len * red.saturating_sub(1)
    }

    // ----- builders for the paper's named kernels -----

    /// GCN aggregation message function (Fig. 3a): copy the source feature.
    pub fn copy_src(d: usize) -> Self {
        Udf {
            out_len: d,
            src_len: d,
            dst_len: d,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i(),
            post_relu: false,
        }
    }

    /// Copy the edge feature (DGL builtin `copy_e`).
    pub fn copy_edge(d: usize) -> Self {
        Udf {
            out_len: d,
            src_len: 0,
            dst_len: 0,
            edge_len: d,
            reduce: None,
            params: vec![],
            body: ScalarExpr::edge_i(),
            post_relu: false,
        }
    }

    /// Element-wise `src * edge` (DGL builtin `u_mul_e`, weighted GCN).
    pub fn src_mul_edge(d: usize) -> Self {
        Udf {
            out_len: d,
            src_len: d,
            dst_len: d,
            edge_len: d,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i().mul(ScalarExpr::edge_i()),
            post_relu: false,
        }
    }

    /// `src[i] * edge[0]`: scale the source feature vector by a per-edge
    /// scalar weight (attention-weighted aggregation).
    pub fn src_mul_edge_scalar(d: usize) -> Self {
        Udf {
            out_len: d,
            src_len: d,
            dst_len: d,
            edge_len: 1,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i().mul(ScalarExpr::Edge(crate::expr::IdxExpr::Const(0))),
            post_relu: false,
        }
    }

    /// Element-wise `src + dst` (DGL builtin `u_add_v`).
    pub fn src_add_dst(d: usize) -> Self {
        Udf {
            out_len: d,
            src_len: d,
            dst_len: d,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i().add(ScalarExpr::dst_i()),
            post_relu: false,
        }
    }

    /// Dot-product attention edge function (Fig. 4a): `sum_k src[k]*dst[k]`,
    /// one output scalar.
    pub fn dot(d: usize) -> Self {
        Udf {
            out_len: 1,
            src_len: d,
            dst_len: d,
            edge_len: 0,
            reduce: Some(ReduceSpec {
                len: d,
                op: Reducer::Sum,
            }),
            params: vec![],
            body: ScalarExpr::src_k().mul(ScalarExpr::dst_k()),
            post_relu: false,
        }
    }

    /// Multi-head dot product (Fig. 4b): features are `(h, d)` head-major;
    /// output is one scalar per head.
    pub fn multi_head_dot(h: usize, d: usize) -> Self {
        let hm = crate::expr::IdxExpr::HeadMajor { stride: d };
        Udf {
            out_len: h,
            src_len: h * d,
            dst_len: h * d,
            edge_len: 0,
            reduce: Some(ReduceSpec {
                len: d,
                op: Reducer::Sum,
            }),
            params: vec![],
            body: ScalarExpr::Src(hm).mul(ScalarExpr::Dst(hm)),
            post_relu: false,
        }
    }

    /// MLP aggregation message function (Fig. 3b):
    /// `ReLU(sum_k (src[k] + dst[k]) * W[k][i])` with `W : d1 × d2`.
    pub fn mlp(d1: usize, d2: usize) -> Self {
        let w = ScalarExpr::Param {
            p: 0,
            row: crate::expr::IdxExpr::Red,
            col: crate::expr::IdxExpr::Out,
        };
        Udf {
            out_len: d2,
            src_len: d1,
            dst_len: d1,
            edge_len: 0,
            reduce: Some(ReduceSpec {
                len: d1,
                op: Reducer::Sum,
            }),
            params: vec![ParamShape { rows: d1, cols: d2 }],
            body: ScalarExpr::src_k().add(ScalarExpr::dst_k()).mul(w),
            post_relu: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IdxExpr;

    #[test]
    fn builtin_udfs_validate() {
        for udf in [
            Udf::copy_src(64),
            Udf::copy_edge(32),
            Udf::src_mul_edge(16),
            Udf::src_mul_edge_scalar(16),
            Udf::src_add_dst(8),
            Udf::dot(128),
            Udf::multi_head_dot(8, 16),
            Udf::mlp(8, 64),
        ] {
            udf.validate().unwrap_or_else(|e| panic!("{udf:?}: {e}"));
        }
    }

    #[test]
    fn rejects_red_without_reduce() {
        let udf = Udf {
            out_len: 4,
            src_len: 4,
            dst_len: 4,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_k(),
            post_relu: false,
        };
        assert_eq!(udf.validate(), Err(UdfError::RedWithoutReduce));
    }

    #[test]
    fn rejects_out_of_range_index() {
        let mut udf = Udf::copy_src(8);
        udf.src_len = 4; // body indexes up to out_len-1 = 7
        match udf.validate() {
            Err(UdfError::IndexOutOfRange { operand: "src", max_index: 7, extent: 4 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_param() {
        let udf = Udf {
            out_len: 2,
            src_len: 2,
            dst_len: 2,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::Param {
                p: 0,
                row: IdxExpr::Const(0),
                col: IdxExpr::Out,
            },
            post_relu: false,
        };
        assert!(matches!(udf.validate(), Err(UdfError::MissingParam { p: 0, declared: 0 })));
    }

    #[test]
    fn rejects_empty_axes() {
        let mut udf = Udf::copy_src(4);
        udf.out_len = 0;
        assert_eq!(udf.validate(), Err(UdfError::EmptyOutput));

        let mut udf = Udf::dot(4);
        udf.reduce = Some(ReduceSpec {
            len: 0,
            op: Reducer::Sum,
        });
        assert_eq!(udf.validate(), Err(UdfError::EmptyReduce));
    }

    #[test]
    fn rejects_param_shape_violation() {
        let mut udf = Udf::mlp(8, 16);
        udf.params[0] = ParamShape { rows: 8, cols: 8 }; // cols too small for out axis
        assert!(matches!(
            udf.validate(),
            Err(UdfError::IndexOutOfRange { operand: "param", .. })
        ));
    }

    #[test]
    fn flops_scale_with_axes() {
        let small = Udf::dot(8).flops_per_edge();
        let big = Udf::dot(64).flops_per_edge();
        assert!(big > 7 * small);
        // copy has ~out_len cost
        assert!(Udf::copy_src(32).flops_per_edge() >= 32);
    }

    #[test]
    fn mlp_applies_relu_after_the_reduction() {
        assert!(Udf::mlp(8, 32).post_relu);
        assert!(!Udf::dot(8).post_relu);
        assert!(!Udf::copy_src(8).post_relu);
    }

    #[test]
    fn multi_head_dot_extents() {
        let udf = Udf::multi_head_dot(4, 16);
        assert_eq!(udf.out_len, 4);
        assert_eq!(udf.src_len, 64);
        assert_eq!(udf.red_len(), 16);
    }

    #[test]
    fn error_display_mentions_operand() {
        let e = UdfError::IndexOutOfRange {
            operand: "dst",
            max_index: 9,
            extent: 4,
        };
        assert!(e.to_string().contains("dst"));
        assert!(UdfError::RedWithoutReduce.to_string().contains("reduce"));
    }
}
