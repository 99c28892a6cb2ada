//! Compressed sparse row storage for the adjacency matrix.

use crate::VId;

/// A violated CSR invariant, reported by [`Csr::try_new`].
///
/// Carries enough context to point at the offending row/entry; the
/// [`std::fmt::Display`] rendering is the message the panicking
/// [`Csr::new`] path raises for the same violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `indptr.len() != num_rows + 1` (this also covers an empty `indptr`,
    /// which previously panicked on the `indptr[0]` read).
    IndptrLength {
        /// Expected length (`num_rows + 1`).
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// `indptr[0] != 0`.
    IndptrStart {
        /// The first entry found.
        got: usize,
    },
    /// `indptr` decreases somewhere.
    IndptrNotMonotone {
        /// First row `r` with `indptr[r] > indptr[r + 1]`.
        row: usize,
    },
    /// `indptr[num_rows] != indices.len()`.
    NnzMismatch {
        /// Final `indptr` entry.
        indptr_end: usize,
        /// `indices.len()`.
        nnz: usize,
    },
    /// A row's column indices are not strictly increasing.
    ColumnsNotIncreasing {
        /// Offending row.
        row: usize,
    },
    /// A column index is `>= num_cols`.
    ColumnOutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column value.
        col: VId,
        /// Column bound.
        num_cols: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::IndptrLength { expected, got } => write!(
                f,
                "indptr length must be num_rows+1 (expected {expected}, got {got})"
            ),
            CsrError::IndptrStart { got } => {
                write!(f, "indptr must start at 0 (got {got})")
            }
            CsrError::IndptrNotMonotone { row } => {
                write!(f, "indptr must be monotone (drops after row {row})")
            }
            CsrError::NnzMismatch { indptr_end, nnz } => write!(
                f,
                "indptr end must equal nnz (indptr end {indptr_end}, nnz {nnz})"
            ),
            CsrError::ColumnsNotIncreasing { row } => {
                write!(f, "row {row} columns must be strictly increasing")
            }
            CsrError::ColumnOutOfBounds { row, col, num_cols } => {
                write!(f, "row {row} column out of bounds ({col} >= {num_cols})")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// A compressed-sparse-row matrix over vertex IDs (pattern only — GNN
/// adjacency values, when needed, ride alongside as edge feature tensors).
///
/// Invariants (enforced by [`Csr::new`] and preserved by every method):
/// * `indptr.len() == num_rows + 1`, `indptr[0] == 0`, monotone non-decreasing;
/// * `indices.len() == indptr[num_rows]`;
/// * every entry of `indices` is `< num_cols`;
/// * within each row, column indices are strictly increasing (no duplicates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_rows: usize,
    num_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<VId>,
}

impl Csr {
    /// Construct from raw parts, validating every invariant.
    ///
    /// # Panics
    /// Panics with a descriptive message if any invariant is violated — use
    /// this only when the parts come from code that upholds the invariants
    /// by construction (generators, transposes, the sampler). Anything
    /// arriving from outside the process (the wire, user files) must go
    /// through [`Csr::try_new`] instead, so malformed input surfaces as a
    /// typed error rather than a crash.
    pub fn new(num_rows: usize, num_cols: usize, indptr: Vec<usize>, indices: Vec<VId>) -> Self {
        match Self::try_new(num_rows, num_cols, indptr, indices) {
            Ok(csr) => csr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Construct from raw parts, returning a typed error on the first
    /// violated invariant instead of panicking.
    ///
    /// CSR construction happens once per graph, so the O(nnz) check is
    /// cheap relative to any kernel that will run on it.
    pub fn try_new(
        num_rows: usize,
        num_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<VId>,
    ) -> Result<Self, CsrError> {
        if indptr.len() != num_rows + 1 {
            return Err(CsrError::IndptrLength {
                expected: num_rows + 1,
                got: indptr.len(),
            });
        }
        if indptr[0] != 0 {
            return Err(CsrError::IndptrStart { got: indptr[0] });
        }
        if let Some(row) = indptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrError::IndptrNotMonotone { row });
        }
        if indptr[num_rows] != indices.len() {
            return Err(CsrError::NnzMismatch {
                indptr_end: indptr[num_rows],
                nnz: indices.len(),
            });
        }
        for r in 0..num_rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(CsrError::ColumnsNotIncreasing { row: r });
            }
            if let Some(&last) = row.last() {
                if last as usize >= num_cols {
                    return Err(CsrError::ColumnOutOfBounds {
                        row: r,
                        col: last,
                        num_cols,
                    });
                }
            }
        }
        Ok(Self {
            num_rows,
            num_cols,
            indptr,
            indices,
        })
    }

    /// An empty matrix with no stored entries.
    pub fn empty(num_rows: usize, num_cols: usize) -> Self {
        Self {
            num_rows,
            num_cols,
            indptr: vec![0; num_rows + 1],
            indices: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (`num_rows + 1` entries).
    #[inline(always)]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    #[inline(always)]
    pub fn indices(&self) -> &[VId] {
        &self.indices
    }

    /// Column indices of row `r`.
    #[inline(always)]
    pub fn row(&self, r: VId) -> &[VId] {
        let r = r as usize;
        debug_assert!(r < self.num_rows);
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Offset of row `r`'s first entry in [`Csr::indices`].
    #[inline(always)]
    pub fn row_start(&self, r: VId) -> usize {
        self.indptr[r as usize]
    }

    /// Degree (number of stored entries) of row `r`.
    #[inline(always)]
    pub fn degree(&self, r: VId) -> usize {
        let r = r as usize;
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Iterate rows as `(row_id, columns, base_offset)`.
    pub fn iter_rows(&self) -> impl Iterator<Item = (VId, &[VId], usize)> + '_ {
        (0..self.num_rows).map(move |r| {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            (r as VId, &self.indices[start..end], start)
        })
    }

    /// True if `(row, col)` is a stored entry (binary search within the row).
    pub fn contains(&self, row: VId, col: VId) -> bool {
        self.row(row).binary_search(&col).is_ok()
    }

    /// Transpose, also returning for each position of the transposed matrix
    /// the position in `self` it came from.
    ///
    /// When `self` is the destination-major adjacency, the returned pair is
    /// the source-major adjacency plus the canonical-edge-ID map.
    pub fn transpose_with_positions(&self) -> (Csr, Vec<u32>) {
        let mut counts = vec![0usize; self.num_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.num_cols {
            counts[i + 1] += counts[i];
        }
        let indptr_t = counts.clone();
        let mut cursor = counts;
        let mut indices_t = vec![0 as VId; self.nnz()];
        let mut positions = vec![0u32; self.nnz()];
        for r in 0..self.num_rows {
            for pos in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[pos] as usize;
                let slot = cursor[c];
                cursor[c] += 1;
                indices_t[slot] = r as VId;
                positions[slot] = pos as u32;
            }
        }
        // Rows of the transpose are filled in increasing order of the original
        // row index, so each transposed row is already strictly increasing
        // (original rows have unique column entries).
        let t = Csr {
            num_rows: self.num_cols,
            num_cols: self.num_rows,
            indptr: indptr_t,
            indices: indices_t,
        };
        (t, positions)
    }

    /// Plain transpose.
    pub fn transpose(&self) -> Csr {
        self.transpose_with_positions().0
    }

    /// Restrict columns to `lo..hi`, keeping all rows. Column IDs are **not**
    /// rebased. Also returns, per kept position, its position in `self`
    /// (needed to carry edge IDs through 1D partitioning).
    pub fn slice_cols(&self, lo: VId, hi: VId) -> (Csr, Vec<u32>) {
        let mut indptr = Vec::with_capacity(self.num_rows + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut positions = Vec::new();
        for r in 0..self.num_rows {
            let start = self.indptr[r];
            let row = &self.indices[start..self.indptr[r + 1]];
            // Rows are sorted: binary search the window [lo, hi).
            let a = row.partition_point(|&c| c < lo);
            let b = row.partition_point(|&c| c < hi);
            indices.extend_from_slice(&row[a..b]);
            positions.extend((start + a..start + b).map(|p| p as u32));
            indptr.push(indices.len());
        }
        (
            Csr {
                num_rows: self.num_rows,
                num_cols: self.num_cols,
                indptr,
                indices,
            },
            positions,
        )
    }

    /// Memory footprint of the index structures in bytes (used by cache cost
    /// models).
    pub fn index_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<VId>()
    }

    /// Total heap footprint in bytes (currently identical to
    /// [`Csr::index_bytes`]; kept separate so footprint reporting survives
    /// future payload fields).
    pub fn mem_bytes(&self) -> u64 {
        self.index_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 3x4 matrix, rows: {1,3}, {}, {0,2}
        Csr::new(3, 4, vec![0, 2, 2, 4], vec![1, 3, 0, 2])
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), &[1, 3]);
        assert_eq!(m.row(1), &[] as &[VId]);
        assert_eq!(m.degree(2), 2);
        assert_eq!(m.row_start(2), 2);
        assert!(m.contains(0, 3));
        assert!(!m.contains(0, 2));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_non_monotone_indptr() {
        let _ = Csr::new(2, 2, vec![0, 2, 1], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_duplicate_columns() {
        let _ = Csr::new(1, 3, vec![0, 2], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_range_column() {
        let _ = Csr::new(1, 2, vec![0, 1], vec![5]);
    }

    #[test]
    fn try_new_rejects_empty_indptr() {
        // Regression: this used to panic on the `indptr[0]` read instead of
        // reporting the length violation.
        assert_eq!(
            Csr::try_new(2, 2, vec![], vec![]),
            Err(CsrError::IndptrLength {
                expected: 3,
                got: 0
            })
        );
        assert_eq!(
            Csr::try_new(0, 0, vec![], vec![]),
            Err(CsrError::IndptrLength {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn try_new_rejects_non_monotone_indptr() {
        assert_eq!(
            Csr::try_new(2, 2, vec![0, 2, 1], vec![0, 1]),
            Err(CsrError::IndptrNotMonotone { row: 1 })
        );
    }

    #[test]
    fn try_new_rejects_nnz_mismatch() {
        assert_eq!(
            Csr::try_new(2, 2, vec![0, 1, 2], vec![0, 1, 0]),
            Err(CsrError::NnzMismatch {
                indptr_end: 2,
                nnz: 3
            })
        );
    }

    #[test]
    fn try_new_rejects_bad_start_and_columns() {
        assert_eq!(
            Csr::try_new(1, 2, vec![1, 1], vec![]),
            Err(CsrError::IndptrStart { got: 1 })
        );
        assert_eq!(
            Csr::try_new(1, 3, vec![0, 2], vec![1, 1]),
            Err(CsrError::ColumnsNotIncreasing { row: 0 })
        );
        assert_eq!(
            Csr::try_new(1, 2, vec![0, 1], vec![5]),
            Err(CsrError::ColumnOutOfBounds {
                row: 0,
                col: 5,
                num_cols: 2
            })
        );
    }

    #[test]
    fn try_new_accepts_valid_parts() {
        let m = Csr::try_new(3, 4, vec![0, 2, 2, 4], vec![1, 3, 0, 2]).unwrap();
        assert_eq!(m, sample());
    }

    #[test]
    fn error_display_matches_panic_vocabulary() {
        // The should_panic tests above key on these substrings; Display is
        // the single source of both.
        let e = CsrError::IndptrNotMonotone { row: 0 };
        assert!(e.to_string().contains("monotone"));
        let e = CsrError::ColumnsNotIncreasing { row: 3 };
        assert!(e.to_string().contains("strictly increasing"));
        let e = CsrError::ColumnOutOfBounds {
            row: 1,
            col: 9,
            num_cols: 4,
        };
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_positions_identify_original_entries() {
        let m = sample();
        let (t, pos) = m.transpose_with_positions();
        assert_eq!(t.num_rows(), 4);
        // entry k of transpose is (row=old col, col=old row) of original pos[k]
        let mut orig_entries = vec![];
        for (r, cols, base) in m.iter_rows() {
            for (i, &c) in cols.iter().enumerate() {
                orig_entries.push((base + i, r, c));
            }
        }
        for (tr, tcols, tbase) in t.iter_rows() {
            for (i, &tc) in tcols.iter().enumerate() {
                let p = pos[tbase + i] as usize;
                let (_, orow, ocol) = orig_entries.iter().find(|e| e.0 == p).unwrap();
                assert_eq!((*ocol, *orow), (tr, tc));
            }
        }
    }

    #[test]
    fn slice_cols_keeps_window() {
        let m = sample();
        let (s, pos) = m.slice_cols(1, 3);
        assert_eq!(s.row(0), &[1]);
        assert_eq!(s.row(1), &[] as &[VId]);
        assert_eq!(s.row(2), &[2]);
        // positions point at entries with value in window
        for &p in &pos {
            let v = m.indices()[p as usize];
            assert!((1..3).contains(&v));
        }
        assert_eq!(pos.len(), s.nnz());
    }

    #[test]
    fn slice_cols_full_window_is_identity() {
        let m = sample();
        let (s, pos) = m.slice_cols(0, 4);
        assert_eq!(s, m);
        assert_eq!(pos, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::empty(2, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(1), &[] as &[VId]);
        let t = m.transpose();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn index_bytes_positive() {
        assert!(sample().index_bytes() > 0);
    }
}
