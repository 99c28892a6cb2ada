//! Vertex subsets (frontiers).

/// A set of active vertices, stored sparse (ID list) or dense (bitmap), as
/// in Ligra. Conversions happen lazily when an operator needs the other
/// representation.
#[derive(Debug, Clone)]
pub enum VertexSubset {
    /// Sorted list of active vertex IDs.
    Sparse {
        /// Total vertices in the graph.
        n: usize,
        /// Active IDs (sorted, unique).
        ids: Vec<u32>,
    },
    /// Bitmap over all vertices.
    Dense {
        /// Membership flags.
        flags: Vec<bool>,
    },
}

impl VertexSubset {
    /// The full vertex set (what every GNN layer uses).
    pub fn all(n: usize) -> Self {
        VertexSubset::Dense {
            flags: vec![true; n],
        }
    }

    /// A single-vertex subset (BFS roots).
    pub fn single(n: usize, v: u32) -> Self {
        assert!((v as usize) < n, "vertex out of range");
        VertexSubset::Sparse { n, ids: vec![v] }
    }

    /// From an unsorted ID list.
    pub fn from_ids(n: usize, mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.last().is_none_or(|&v| (v as usize) < n));
        VertexSubset::Sparse { n, ids }
    }

    /// Number of active vertices.
    pub fn len(&self) -> usize {
        match self {
            VertexSubset::Sparse { ids, .. } => ids.len(),
            VertexSubset::Dense { flags } => flags.iter().filter(|&&b| b).count(),
        }
    }

    /// True when no vertex is active.
    pub fn is_empty(&self) -> bool {
        match self {
            VertexSubset::Sparse { ids, .. } => ids.is_empty(),
            VertexSubset::Dense { flags } => !flags.iter().any(|&b| b),
        }
    }

    /// Materialize the sparse representation.
    pub fn to_ids(&self) -> Vec<u32> {
        match self {
            VertexSubset::Sparse { ids, .. } => ids.clone(),
            VertexSubset::Dense { flags } => flags
                .iter()
                .enumerate()
                .filter_map(|(v, &b)| b.then_some(v as u32))
                .collect(),
        }
    }

    /// Materialize the dense representation.
    pub fn to_flags(&self) -> Vec<bool> {
        match self {
            VertexSubset::Dense { flags } => flags.clone(),
            VertexSubset::Sparse { n, ids } => {
                let mut flags = vec![false; *n];
                for &v in ids {
                    flags[v as usize] = true;
                }
                flags
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_membership() {
        let s = VertexSubset::single(10, 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.to_ids(), vec![3]);

        let a = VertexSubset::all(5);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert!(VertexSubset::from_ids(5, Vec::new()).is_empty());
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = VertexSubset::from_ids(10, vec![5, 1, 5, 3]);
        assert_eq!(s.to_ids(), vec![1, 3, 5]);
    }

    #[test]
    fn representation_round_trip() {
        let s = VertexSubset::from_ids(6, vec![0, 2, 5]);
        let flags = s.to_flags();
        assert_eq!(flags, vec![true, false, true, false, false, true]);
        let d = VertexSubset::Dense { flags };
        assert_eq!(d.to_ids(), vec![0, 2, 5]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_bounds_checked() {
        let _ = VertexSubset::single(3, 7);
    }
}
