//! The dataset statistics row of Table II.

use crate::Graph;

/// A Table II-style row for reports.
pub fn table2_row(name: &str, g: &Graph) -> String {
    format!(
        "{name:<16} |V|={:>9} |E|={:>11} avg_deg={:>7.1}",
        g.num_vertices(),
        g.num_edges(),
        g.avg_degree()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn table2_row_contains_counts() {
        let g = generators::uniform(50, 4, 1);
        let row = table2_row("test-graph", &g);
        assert!(row.contains("test-graph"));
        assert!(row.contains("50"));
    }
}
