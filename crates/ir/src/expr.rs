//! Scalar expressions over the feature dimension.

/// An index expression selecting one element of a feature row or parameter.
///
/// UDF bodies are evaluated at a point `(i, k)` where `i` ranges over the
/// output axis and `k` over the (optional) reduction axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxExpr {
    /// The output-axis variable `i`.
    Out,
    /// The reduction-axis variable `k`.
    Red,
    /// A fixed index.
    Const(usize),
    /// `i * stride + k` — flat index into a row storing `heads × d`
    /// head-major lanes; `stride` is the per-head feature length. This is how
    /// multi-head tensors (paper Fig. 4b, shape `(n, h, d)`) address into 2D
    /// storage.
    HeadMajor {
        /// Per-head inner length (`d`).
        stride: usize,
    },
}

impl IdxExpr {
    /// Evaluate at output index `i`, reduction index `k`.
    #[inline(always)]
    pub fn eval(self, i: usize, k: usize) -> usize {
        match self {
            IdxExpr::Out => i,
            IdxExpr::Red => k,
            IdxExpr::Const(c) => c,
            IdxExpr::HeadMajor { stride } => i * stride + k,
        }
    }

    /// Largest value this index can take given the axis extents.
    pub fn max_value(self, out_len: usize, red_len: usize) -> usize {
        match self {
            IdxExpr::Out => out_len.saturating_sub(1),
            IdxExpr::Red => red_len.saturating_sub(1),
            IdxExpr::Const(c) => c,
            IdxExpr::HeadMajor { stride } => {
                out_len.saturating_sub(1) * stride + red_len.saturating_sub(1)
            }
        }
    }

    /// True if the expression mentions the reduction variable.
    pub fn uses_red(self) -> bool {
        matches!(self, IdxExpr::Red | IdxExpr::HeadMajor { .. })
    }
}

/// A scalar expression tree evaluated per `(edge, i, k)` point.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Element of the source vertex's feature row.
    Src(IdxExpr),
    /// Element of the destination vertex's feature row.
    Dst(IdxExpr),
    /// Element of the edge's feature row.
    Edge(IdxExpr),
    /// Element `[row, col]` of parameter matrix `p` (e.g. a weight matrix).
    Param {
        /// Which parameter (position in the UDF's parameter list).
        p: usize,
        /// Row index expression.
        row: IdxExpr,
        /// Column index expression.
        col: IdxExpr,
    },
    /// A literal constant.
    Const(f64),
    /// Addition.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Subtraction.
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Multiplication.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Division.
    Div(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Binary maximum.
    Max(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Binary minimum.
    Min(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Negation.
    Neg(Box<ScalarExpr>),
    /// `exp(x)`.
    Exp(Box<ScalarExpr>),
    /// `max(x, 0)`.
    Relu(Box<ScalarExpr>),
    /// `x > 0 ? x : slope * x`.
    LeakyRelu(Box<ScalarExpr>, f64),
}

impl ScalarExpr {
    /// Shorthand: `Src(Out)` — copy the source feature at the output index.
    pub fn src_i() -> Self {
        ScalarExpr::Src(IdxExpr::Out)
    }

    /// Shorthand: `Dst(Out)`.
    pub fn dst_i() -> Self {
        ScalarExpr::Dst(IdxExpr::Out)
    }

    /// Shorthand: `Edge(Out)`.
    pub fn edge_i() -> Self {
        ScalarExpr::Edge(IdxExpr::Out)
    }

    /// Shorthand: `Src(Red)` — source feature at the reduction index.
    pub fn src_k() -> Self {
        ScalarExpr::Src(IdxExpr::Red)
    }

    /// Shorthand: `Dst(Red)`.
    pub fn dst_k() -> Self {
        ScalarExpr::Dst(IdxExpr::Red)
    }

    /// `self + rhs`.
    // not the std ops trait: UDF builders take self by value and stay chainable
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    // not the std ops trait: UDF builders take self by value and stay chainable
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    // not the std ops trait: UDF builders take self by value and stay chainable
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    // not the std ops trait: UDF builders take self by value and stay chainable
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Div(Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Max(Box::new(self), Box::new(rhs))
    }

    /// `relu(self)`.
    pub fn relu(self) -> Self {
        ScalarExpr::Relu(Box::new(self))
    }

    /// Walk the tree, calling `f` on every node.
    pub fn visit(&self, f: &mut impl FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Div(a, b)
            | ScalarExpr::Max(a, b)
            | ScalarExpr::Min(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            ScalarExpr::Neg(a)
            | ScalarExpr::Exp(a)
            | ScalarExpr::Relu(a)
            | ScalarExpr::LeakyRelu(a, _) => a.visit(f),
            _ => {}
        }
    }

    /// True if any leaf mentions the reduction variable.
    pub fn uses_red(&self) -> bool {
        let mut used = false;
        self.visit(&mut |e| {
            used |= match e {
                ScalarExpr::Src(ix) | ScalarExpr::Dst(ix) | ScalarExpr::Edge(ix) => ix.uses_red(),
                ScalarExpr::Param { row, col, .. } => row.uses_red() || col.uses_red(),
                _ => false,
            }
        });
        used
    }

    /// True if any leaf reads the given operand class.
    pub fn reads_src(&self) -> bool {
        let mut r = false;
        self.visit(&mut |e| r |= matches!(e, ScalarExpr::Src(_)));
        r
    }

    /// True if any leaf reads the destination feature.
    pub fn reads_dst(&self) -> bool {
        let mut r = false;
        self.visit(&mut |e| r |= matches!(e, ScalarExpr::Dst(_)));
        r
    }

    /// True if any leaf reads the edge feature.
    pub fn reads_edge(&self) -> bool {
        let mut r = false;
        self.visit(&mut |e| r |= matches!(e, ScalarExpr::Edge(_)));
        r
    }

    /// Count of arithmetic operations per evaluation point (used by the GPU
    /// simulator's ALU cost accounting).
    pub fn flops(&self) -> usize {
        let mut n = 0usize;
        self.visit(&mut |e| {
            n += match e {
                ScalarExpr::Add(..)
                | ScalarExpr::Sub(..)
                | ScalarExpr::Mul(..)
                | ScalarExpr::Div(..)
                | ScalarExpr::Max(..)
                | ScalarExpr::Min(..)
                | ScalarExpr::Neg(..)
                | ScalarExpr::Relu(..)
                | ScalarExpr::LeakyRelu(..) => 1,
                ScalarExpr::Exp(..) => 4,
                _ => 0,
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_eval() {
        assert_eq!(IdxExpr::Out.eval(3, 9), 3);
        assert_eq!(IdxExpr::Red.eval(3, 9), 9);
        assert_eq!(IdxExpr::Const(7).eval(3, 9), 7);
        assert_eq!(IdxExpr::HeadMajor { stride: 4 }.eval(2, 3), 11);
    }

    #[test]
    fn idx_max_value() {
        assert_eq!(IdxExpr::Out.max_value(8, 4), 7);
        assert_eq!(IdxExpr::Red.max_value(8, 4), 3);
        assert_eq!(IdxExpr::HeadMajor { stride: 4 }.max_value(2, 4), 7);
        assert_eq!(IdxExpr::Const(5).max_value(1, 1), 5);
    }

    #[test]
    fn uses_red_detection() {
        let dot = ScalarExpr::src_k().mul(ScalarExpr::dst_k());
        assert!(dot.uses_red());
        let copy = ScalarExpr::src_i();
        assert!(!copy.uses_red());
        let head = ScalarExpr::Src(IdxExpr::HeadMajor { stride: 8 });
        assert!(head.uses_red());
    }

    #[test]
    fn operand_read_sets() {
        let e = ScalarExpr::src_i().add(ScalarExpr::edge_i());
        assert!(e.reads_src());
        assert!(!e.reads_dst());
        assert!(e.reads_edge());
    }

    #[test]
    fn flop_count() {
        // (src + dst) * w  -> 2 flops
        let e = ScalarExpr::src_k().add(ScalarExpr::dst_k()).mul(ScalarExpr::Param {
            p: 0,
            row: IdxExpr::Red,
            col: IdxExpr::Out,
        });
        assert_eq!(e.flops(), 2);
        assert_eq!(ScalarExpr::Exp(Box::new(ScalarExpr::src_i())).flops(), 4);
    }

    #[test]
    fn builder_sugar_shapes() {
        let e = ScalarExpr::src_i().sub(ScalarExpr::dst_i()).relu();
        match &e {
            ScalarExpr::Relu(inner) => match inner.as_ref() {
                ScalarExpr::Sub(..) => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
