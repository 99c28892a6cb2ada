//! Kernel compilation and execution errors.

use fg_ir::{FusedError, UdfError};
use fg_tensor::ShapeError;

/// Errors surfaced by kernel compilation or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The UDF failed validation.
    Udf(UdfError),
    /// A fused operator failed validation.
    Fused(FusedError),
    /// An input/output tensor has the wrong shape.
    Shape {
        /// Which tensor ("vertex", "edge", "out", "param k").
        what: String,
        /// Expected `(rows, cols)`.
        expected: (usize, usize),
        /// Provided `(rows, cols)`.
        got: (usize, usize),
    },
    /// A required input tensor was not supplied.
    MissingInput {
        /// Which tensor.
        what: &'static str,
    },
    /// Wrong number of parameter matrices.
    ParamCount {
        /// Declared by the UDF.
        expected: usize,
        /// Supplied at run time.
        got: usize,
    },
    /// The schedule is not executable on the target (e.g. a zero block size).
    BadSchedule(String),
    /// A tensor-level error bubbled up.
    Tensor(ShapeError),
    /// The compiled kernel does not implement the requested operation.
    Unsupported(&'static str),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::Udf(e) => write!(f, "invalid UDF: {e}"),
            KernelError::Fused(e) => write!(f, "invalid fused operator: {e}"),
            KernelError::Shape {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} tensor has shape {got:?}, kernel expects {expected:?}"
            ),
            KernelError::MissingInput { what } => {
                write!(f, "kernel requires the {what} tensor but none was supplied")
            }
            KernelError::ParamCount { expected, got } => {
                write!(f, "UDF declares {expected} parameter(s), {got} supplied")
            }
            KernelError::BadSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            KernelError::Tensor(e) => write!(f, "tensor error: {e}"),
            KernelError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<UdfError> for KernelError {
    fn from(e: UdfError) -> Self {
        KernelError::Udf(e)
    }
}

impl From<ShapeError> for KernelError {
    fn from(e: ShapeError) -> Self {
        KernelError::Tensor(e)
    }
}

impl From<FusedError> for KernelError {
    fn from(e: FusedError) -> Self {
        KernelError::Fused(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = KernelError::Shape {
            what: "vertex".into(),
            expected: (10, 32),
            got: (10, 16),
        };
        let s = e.to_string();
        assert!(s.contains("vertex") && s.contains("32") && s.contains("16"));

        assert!(KernelError::MissingInput { what: "edge" }
            .to_string()
            .contains("edge"));
        assert!(KernelError::ParamCount {
            expected: 1,
            got: 0
        }
        .to_string()
        .contains('1'));
        assert!(KernelError::BadSchedule("x".into()).to_string().contains('x'));
    }

    #[test]
    fn conversions() {
        let ue = UdfError::EmptyOutput;
        let ke: KernelError = ue.into();
        assert!(matches!(ke, KernelError::Udf(_)));
        let se = ShapeError::ZeroDim { axis: "cols" };
        let ke: KernelError = se.into();
        assert!(matches!(ke, KernelError::Tensor(_)));
    }
}
