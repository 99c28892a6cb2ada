//! Kernel input bundles and shape validation.

use fg_ir::Udf;
use fg_tensor::{Dense2, FeatElem, Scalar, StorageElem};

use crate::error::KernelError;

/// The tensors a kernel reads: the vertex feature matrix `X_V`, an optional
/// edge feature matrix `X_E` (row `eid` is the edge's feature), and the UDF's
/// parameter matrices (e.g. MLP weights), in declaration order.
///
/// Vertex features may be *stored* in a narrower type `V` (default `S`) than
/// the kernel computes in: the CPU templates read `bf16` vertex rows
/// and accumulate in `f32`. Edge tensors, parameters and outputs are `S`.
#[derive(Clone, Copy)]
pub struct GraphTensors<'a, S, V = S> {
    /// Vertex features read by `Src(...)` leaves, `|V| × d_v`.
    pub vertex: &'a Dense2<V>,
    /// Vertex features read by `Dst(...)` leaves. `None` means destination
    /// reads come from `vertex` too (the paper's single-`X_V` interface);
    /// gradient kernels set it to a different tensor (e.g. `∂L/∂H`).
    pub vertex_dst: Option<&'a Dense2<V>>,
    /// Edge features, `|E| × d_e` (canonical edge order).
    pub edge: Option<&'a Dense2<S>>,
    /// Parameter matrices in UDF declaration order.
    pub params: &'a [&'a Dense2<S>],
}

impl<'a, S: Scalar, V: StorageElem> GraphTensors<'a, S, V> {
    /// Inputs with vertex features only (most kernels).
    pub fn vertex_only(vertex: &'a Dense2<V>) -> Self {
        Self {
            vertex,
            vertex_dst: None,
            edge: None,
            params: &[],
        }
    }

    /// Inputs with vertex features and parameters.
    pub fn with_params(vertex: &'a Dense2<V>, params: &'a [&'a Dense2<S>]) -> Self {
        Self {
            params,
            ..Self::vertex_only(vertex)
        }
    }

    /// Inputs with vertex and edge features.
    pub fn with_edge(vertex: &'a Dense2<V>, edge: &'a Dense2<S>) -> Self {
        Self {
            edge: Some(edge),
            ..Self::vertex_only(vertex)
        }
    }

    /// Inputs with distinct source-side and destination-side vertex tensors
    /// (gradient kernels: grad(SpMM) is an SDDMM over `x` and `∂L/∂H`).
    pub fn src_dst(vertex: &'a Dense2<V>, vertex_dst: &'a Dense2<V>) -> Self {
        Self {
            vertex_dst: Some(vertex_dst),
            ..Self::vertex_only(vertex)
        }
    }

    /// The tensor `Dst(...)` leaves read.
    pub fn dst_tensor(&self) -> &'a Dense2<V> {
        self.vertex_dst.unwrap_or(self.vertex)
    }

    /// Validate shapes against a UDF and graph sizes; `out_rows` is the
    /// destination row count for SpMM and `|E|` for SDDMM.
    pub fn validate(
        &self,
        udf: &Udf,
        dims: Dims,
        out: &Dense2<S>,
        out_rows: usize,
    ) -> Result<(), KernelError> {
        self.validate_operands(udf, dims)?;
        check_shape("out", out.shape(), out_rows, udf.out_len, true)
    }

    /// Operand-shape validation without an output tensor — used for UDFs
    /// whose output is never materialized (the score half of a fused
    /// operator). Vertex and edge tensors may be wider than the UDF reads;
    /// parameter matrices must match their declared shape exactly. `Src`
    /// leaves read `dims.src` rows, `Dst` leaves `dims.dst`.
    pub fn validate_operands(&self, udf: &Udf, dims: Dims) -> Result<(), KernelError> {
        let needs_src = udf.src_len > 0 && udf.body.reads_src();
        let needs_dst = udf.dst_len > 0 && udf.body.reads_dst();
        if needs_src {
            check_shape("vertex", self.vertex.shape(), dims.src, udf.src_len, false)?;
        }
        if needs_dst {
            let xd = self.dst_tensor();
            check_shape("vertex_dst", xd.shape(), dims.dst, udf.dst_len, false)?;
        }
        if udf.edge_len > 0 && udf.body.reads_edge() {
            let edge = self
                .edge
                .ok_or(KernelError::MissingInput { what: "edge" })?;
            check_shape("edge", edge.shape(), dims.edges, udf.edge_len, false)?;
        }
        if self.params.len() != udf.params.len() {
            return Err(KernelError::ParamCount {
                expected: udf.params.len(),
                got: self.params.len(),
            });
        }
        for (k, (&p, shape)) in self.params.iter().zip(&udf.params).enumerate() {
            check_shape(format!("param {k}"), p.shape(), shape.rows, shape.cols, true)?;
        }
        Ok(())
    }
}

/// The row counts a kernel's operands are checked against: the source rows
/// `Src` leaves index, the destination rows `Dst` leaves index and the
/// output has (the same count on a square graph), and the edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Source rows (a CSR's columns).
    pub src: usize,
    /// Destination rows (a CSR's rows).
    pub dst: usize,
    /// Edges (a CSR's stored entries).
    pub edges: usize,
}

impl Dims {
    /// A square graph's: `vertices` source and destination rows.
    pub fn square(vertices: usize, edges: usize) -> Self {
        Self {
            src: vertices,
            dst: vertices,
            edges,
        }
    }
}

/// An operand of shape `got` must have `rows` rows and `cols` columns (at
/// least `cols` unless `exact`).
pub(crate) fn check_shape(
    what: impl Into<String>,
    got: (usize, usize),
    rows: usize,
    cols: usize,
    exact: bool,
) -> Result<(), KernelError> {
    if got.0 == rows && (got.1 == cols || (!exact && got.1 > cols)) {
        return Ok(());
    }
    Err(KernelError::Shape {
        what: what.into(),
        expected: (rows, cols),
        got,
    })
}

/// Inputs to a fused SDDMM → (softmax) → SpMM kernel: the score and message
/// UDFs read *separate* operand bundles (a GAT score reads `|V| × 1`
/// projections while the message reads the `|V| × d` features).
#[derive(Clone, Copy)]
pub struct FusedInputs<'a, S, V = S> {
    /// Operands of the score UDF.
    pub score: GraphTensors<'a, S, V>,
    /// Operands of the message UDF.
    pub message: GraphTensors<'a, S, V>,
}

impl<S: Scalar, V: StorageElem> FusedInputs<'_, S, V> {
    /// Validate both operand bundles and the output (one
    /// `message.out_len` row per destination).
    pub fn validate(
        &self,
        op: &fg_ir::FusedOp,
        dims: Dims,
        out: &Dense2<S>,
    ) -> Result<(), KernelError> {
        self.score.validate_operands(&op.score, dims)?;
        self.message.validate(&op.message, dims, out, dims.dst)
    }
}

/// A vertex operand read row by row: a stored matrix read in place, or
/// [`Gathered`] rows of one. This is the storage slot of the copy-src
/// message and the GAT score (`ops`), so a kernel can read the rows a
/// block needs straight out of the matrix that holds them.
pub trait VertexRows: Sync {
    /// The stored element type (`f32` or `bf16`).
    type Elem: FeatElem;

    /// Number of rows.
    fn num_rows(&self) -> usize;

    /// Number of columns.
    fn num_cols(&self) -> usize;

    /// Row `k`.
    fn row(&self, k: usize) -> Row<'_, Self::Elem>;
}

/// One row of a [`VertexRows`] source: stored, or an `f32` overlay row.
pub enum Row<'a, E> {
    /// A row of the stored matrix.
    Stored(&'a [E]),
    /// A full-precision overlay row.
    Wide(&'a [f32]),
}

impl<E: FeatElem> VertexRows for Dense2<E> {
    type Elem = E;

    fn num_rows(&self) -> usize {
        self.rows()
    }

    fn num_cols(&self) -> usize {
        self.cols()
    }

    #[inline(always)]
    fn row(&self, k: usize) -> Row<'_, E> {
        Row::Stored(Dense2::row(self, k))
    }
}

/// Rows of a stored matrix read in place, through an optional index: row
/// `k` is row `index[k]` of `rows`, or — when `index[k]` is
/// `rows.rows() + j` — row `j` of a small `f32` overlay (a request's own
/// rows for some vertices). Without an index, row `k` is row `k`. Each row
/// is read where it lies; nothing is copied.
#[derive(Clone, Copy)]
pub struct Gathered<'a, E> {
    rows: &'a Dense2<E>,
    index: Option<&'a [u32]>,
    overlay: Option<&'a Dense2<f32>>,
}

impl<'a, E: FeatElem> Gathered<'a, E> {
    /// Every row of `rows`, in order.
    pub fn all(rows: &'a Dense2<E>) -> Self {
        Self {
            rows,
            index: None,
            overlay: None,
        }
    }

    /// `index[k]` names row `k`: a row of `rows`, or of `overlay` past them.
    ///
    /// # Panics
    /// If an index entry names no row, or the overlay's width differs.
    pub fn new(rows: &'a Dense2<E>, index: &'a [u32], overlay: Option<&'a Dense2<f32>>) -> Self {
        let extra = overlay.map_or(0, |o| {
            assert_eq!(o.cols(), rows.cols(), "overlay width");
            o.rows()
        });
        let end = rows.rows() + extra;
        if let Some(&bad) = index.iter().find(|&&g| g as usize >= end) {
            panic!("index entry {bad} names no row (stored {}, overlay {extra})", rows.rows());
        }
        Self {
            rows,
            index: Some(index),
            overlay,
        }
    }

    /// Rows `at` (positions in this source) as a source of their own; a
    /// composed index, when one is needed, is written into `buf`.
    pub fn rows_at(&self, at: &'a [u32], buf: &'a mut Vec<u32>) -> Self {
        let Some(index) = self.index else {
            return Self::new(self.rows, at, None);
        };
        buf.extend(at.iter().map(|&k| index[k as usize]));
        Self::new(self.rows, buf, self.overlay)
    }

    /// Rows `at` (positions in this source; every row when `None`),
    /// widened into a dense matrix.
    pub fn widened(&self, at: Option<&[u32]>) -> Dense2<f32> {
        let n = at.map_or(self.num_rows(), <[u32]>::len);
        let mut out = Dense2::zeros(n, self.rows.cols());
        for i in 0..n {
            let to = out.row_mut(i);
            match self.row(at.map_or(i, |at| at[i] as usize)) {
                Row::Stored(a) => to.iter_mut().zip(a).for_each(|(o, &x)| *o = x.load()),
                Row::Wide(a) => to.copy_from_slice(a),
            }
        }
        out
    }
}

impl<E: FeatElem> VertexRows for Gathered<'_, E> {
    type Elem = E;

    fn num_rows(&self) -> usize {
        self.index.map_or(self.rows.rows(), <[u32]>::len)
    }

    fn num_cols(&self) -> usize {
        self.rows.cols()
    }

    #[inline(always)]
    fn row(&self, k: usize) -> Row<'_, E> {
        let g = self.index.map_or(k, |index| index[k] as usize);
        match g.checked_sub(self.rows.rows()) {
            None => Row::Stored(self.rows.row(g)),
            Some(j) => Row::Wide(self.overlay.expect("checked in new").row(j)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_ir::Udf;

    #[test]
    fn valid_inputs_pass() {
        let x = Dense2::<f32>::zeros(10, 16);
        let out = Dense2::<f32>::zeros(10, 16);
        let udf = Udf::copy_src(16);
        GraphTensors::vertex_only(&x)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap();
    }

    #[test]
    fn wrong_vertex_shape_rejected() {
        let x = Dense2::<f32>::zeros(10, 8);
        let out = Dense2::<f32>::zeros(10, 16);
        let udf = Udf::copy_src(16);
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
    }

    #[test]
    fn missing_edge_tensor_rejected() {
        let x = Dense2::<f32>::zeros(10, 16);
        let out = Dense2::<f32>::zeros(10, 16);
        let udf = Udf::src_mul_edge(16);
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap_err();
        assert_eq!(err, KernelError::MissingInput { what: "edge" });
    }

    #[test]
    fn edge_tensor_row_count_must_match_edges() {
        let x = Dense2::<f32>::zeros(10, 16);
        let e = Dense2::<f32>::zeros(39, 16);
        let out = Dense2::<f32>::zeros(10, 16);
        let udf = Udf::src_mul_edge(16);
        let err = GraphTensors::with_edge(&x, &e)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
    }

    #[test]
    fn param_count_and_shape_checked() {
        let x = Dense2::<f32>::zeros(10, 8);
        let out = Dense2::<f32>::zeros(10, 4);
        let udf = Udf::mlp(8, 4);
        // missing param
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap_err();
        assert_eq!(err, KernelError::ParamCount { expected: 1, got: 0 });
        // wrong shape param
        let w = Dense2::<f32>::zeros(8, 5);
        let params = [&w];
        let err = GraphTensors::with_params(&x, &params)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
        // correct
        let w = Dense2::<f32>::zeros(8, 4);
        let params = [&w];
        GraphTensors::with_params(&x, &params)
            .validate(&udf, Dims::square(10, 40), &out, 10)
            .unwrap();
    }

    #[test]
    fn out_shape_checked_for_sddmm_rows() {
        let x = Dense2::<f32>::zeros(10, 16);
        let out = Dense2::<f32>::zeros(10, 1); // should be |E| rows
        let udf = Udf::dot(16);
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, Dims::square(10, 40), &out, 40)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
    }
}
