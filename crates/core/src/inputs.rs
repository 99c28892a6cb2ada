//! Kernel input bundles and shape validation.

use fg_ir::Udf;
use fg_tensor::{Dense2, Scalar, StorageElem};

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

    /// Validate shapes against a UDF and graph sizes; `out_rows` is `|V|` for
    /// SpMM and `|E|` for SDDMM.
    pub fn validate(
        &self,
        udf: &Udf,
        num_vertices: usize,
        num_edges: usize,
        out: &Dense2<S>,
        out_rows: usize,
    ) -> Result<(), KernelError> {
        self.validate_operands(udf, num_vertices, num_edges)?;
        check_shape("out", out, out_rows, udf.out_len, true)
    }

    /// Operand-shape validation without an output tensor — used for UDFs
    /// whose output is never materialized (the score half of a fused
    /// operator). Vertex and edge tensors may be wider than the UDF reads;
    /// parameter matrices must match their declared shape exactly.
    pub fn validate_operands(
        &self,
        udf: &Udf,
        num_vertices: usize,
        num_edges: usize,
    ) -> Result<(), KernelError> {
        let needs_src = udf.src_len > 0 && udf.body.reads_src();
        let needs_dst = udf.dst_len > 0 && udf.body.reads_dst();
        if needs_src || (needs_dst && self.vertex_dst.is_none()) {
            let want_cols = if needs_src { udf.src_len } else { udf.dst_len };
            check_shape("vertex", self.vertex, num_vertices, want_cols, false)?;
        }
        if needs_dst {
            let xd = self.dst_tensor();
            check_shape("vertex_dst", xd, num_vertices, udf.dst_len, false)?;
        }
        if udf.edge_len > 0 && udf.body.reads_edge() {
            let edge = self
                .edge
                .ok_or(KernelError::MissingInput { what: "edge" })?;
            check_shape("edge", edge, num_edges, udf.edge_len, false)?;
        }
        if self.params.len() != udf.params.len() {
            return Err(KernelError::ParamCount {
                expected: udf.params.len(),
                got: self.params.len(),
            });
        }
        for (k, (&p, shape)) in self.params.iter().zip(&udf.params).enumerate() {
            check_shape(format!("param {k}"), p, shape.rows, shape.cols, true)?;
        }
        Ok(())
    }
}

/// `t` must have `rows` rows and `cols` columns (at least `cols` unless
/// `exact`).
fn check_shape<T: StorageElem>(
    what: impl Into<String>,
    t: &Dense2<T>,
    rows: usize,
    cols: usize,
    exact: bool,
) -> Result<(), KernelError> {
    if t.rows() == rows && (t.cols() == cols || (!exact && t.cols() > cols)) {
        return Ok(());
    }
    Err(KernelError::Shape {
        what: what.into(),
        expected: (rows, cols),
        got: t.shape(),
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
    /// Validate both operand bundles and the output (`|V| × message.out_len`).
    pub fn validate(
        &self,
        op: &fg_ir::FusedOp,
        num_vertices: usize,
        num_edges: usize,
        out: &Dense2<S>,
    ) -> Result<(), KernelError> {
        self.score
            .validate_operands(&op.score, num_vertices, num_edges)?;
        self.message
            .validate(&op.message, num_vertices, num_edges, out, num_vertices)
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
            .validate(&udf, 10, 40, &out, 10)
            .unwrap();
    }

    #[test]
    fn wrong_vertex_shape_rejected() {
        let x = Dense2::<f32>::zeros(10, 8);
        let out = Dense2::<f32>::zeros(10, 16);
        let udf = Udf::copy_src(16);
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, 10, 40, &out, 10)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
    }

    #[test]
    fn missing_edge_tensor_rejected() {
        let x = Dense2::<f32>::zeros(10, 16);
        let out = Dense2::<f32>::zeros(10, 16);
        let udf = Udf::src_mul_edge(16);
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, 10, 40, &out, 10)
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
            .validate(&udf, 10, 40, &out, 10)
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
            .validate(&udf, 10, 40, &out, 10)
            .unwrap_err();
        assert_eq!(err, KernelError::ParamCount { expected: 1, got: 0 });
        // wrong shape param
        let w = Dense2::<f32>::zeros(8, 5);
        let params = [&w];
        let err = GraphTensors::with_params(&x, &params)
            .validate(&udf, 10, 40, &out, 10)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
        // correct
        let w = Dense2::<f32>::zeros(8, 4);
        let params = [&w];
        GraphTensors::with_params(&x, &params)
            .validate(&udf, 10, 40, &out, 10)
            .unwrap();
    }

    #[test]
    fn out_shape_checked_for_sddmm_rows() {
        let x = Dense2::<f32>::zeros(10, 16);
        let out = Dense2::<f32>::zeros(10, 1); // should be |E| rows
        let udf = Udf::dot(16);
        let err = GraphTensors::vertex_only(&x)
            .validate(&udf, 10, 40, &out, 40)
            .unwrap_err();
        assert!(matches!(err, KernelError::Shape { .. }));
    }
}
