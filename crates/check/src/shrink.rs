//! Case shrinking: given a failing case, find a smaller one that still
//! fails, so the replay one-liner in the failure report is minimal.
//!
//! Classic greedy delta debugging: propose one simplification at a time and
//! accept it **only if the simplified case still fails**. The proposal
//! order goes after the biggest sources of noise first — the graph (fewer
//! edges, fewer vertices), then feature dimensions, then the UDF, then the
//! schedule — and loops to a fixed point under a re-execution budget so a
//! pathological case cannot stall the sweep.

use crate::case::{Case, ExecPlan, FusedScoreKind, FusedSpec, GraphSpec, UdfKind};

/// Greedy-shrink `case` under `still_fails`, re-running at most `budget`
/// candidate cases. Returns the smallest failing case found (possibly the
/// input itself).
pub fn shrink(case: &Case, mut still_fails: impl FnMut(&Case) -> bool, budget: usize) -> Case {
    let mut best = case.clone();
    let mut runs = 0usize;

    // Phase 0: pin the graph down to an explicit edge list so edge-level
    // shrinking is possible at all. (Not a simplification per se — accept
    // only if the rewrite preserves the failure.)
    if !matches!(best.graph, GraphSpec::Explicit { .. }) && runs < budget {
        let g = best.build_graph();
        let cand = Case {
            graph: GraphSpec::Explicit {
                n: g.num_vertices(),
                edges: g.edge_list(),
            },
            ..best.clone()
        };
        runs += 1;
        if still_fails(&cand) {
            best = cand;
        }
    }

    loop {
        let mut improved = false;
        for cand in proposals(&best) {
            if runs >= budget {
                return best;
            }
            runs += 1;
            if still_fails(&cand) {
                best = cand;
                improved = true;
                break; // restart proposal generation from the new best
            }
        }
        if !improved {
            return best;
        }
    }
}

/// All one-step simplifications of `case`, most aggressive first.
fn proposals(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();

    // -- graph: drop edge chunks, then single edges, then trailing vertices
    if let GraphSpec::Explicit { n, ref edges } = case.graph {
        if edges.len() > 1 {
            let half = edges.len() / 2;
            for kept in [&edges[..half], &edges[half..]] {
                out.push(with_graph(case, n, kept.to_vec()));
            }
        }
        // Single-edge removal only once the list is small; O(E^2) otherwise.
        if edges.len() <= 16 {
            for i in 0..edges.len() {
                let mut kept = edges.clone();
                kept.remove(i);
                out.push(with_graph(case, n, kept));
            }
        }
        let used = edges
            .iter()
            .map(|&(s, d)| s.max(d) as usize + 1)
            .max()
            .unwrap_or(0);
        if used < n {
            out.push(with_graph(case, used, edges.clone()));
        }
    }

    // -- feature dimensions: halve toward 1
    for u in shrink_udf_dims(&case.udf) {
        out.push(Case { udf: u, ..case.clone() });
    }

    // -- UDF: replace with a structurally simpler kind of compatible shape
    for u in simpler_udfs(&case.udf) {
        out.push(Case { udf: u, ..case.clone() });
    }

    // -- fused spec: drop the softmax, then simplify the score
    if let Some(ref spec) = case.fused {
        if spec.softmax {
            out.push(Case {
                fused: Some(FusedSpec { softmax: false, ..*spec }),
                ..case.clone()
            });
        }
        match spec.score {
            FusedScoreKind::Dot { d } if d > 1 => out.push(Case {
                fused: Some(FusedSpec { score: FusedScoreKind::Dot { d: d / 2 }, ..*spec }),
                ..case.clone()
            }),
            FusedScoreKind::Dot { .. } => out.push(Case {
                fused: Some(FusedSpec { score: FusedScoreKind::Gat, ..*spec }),
                ..case.clone()
            }),
            FusedScoreKind::Gat => {}
        }
    }

    // -- schedule: collapse each knob to its identity setting
    let p = &case.plan;
    let mut knobs = Vec::new();
    if p.threads > 1 {
        knobs.push(Case { plan: ExecPlan { threads: 1, ..*p }, ..case.clone() });
    }
    if p.partitions > 1 {
        knobs.push(Case { plan: ExecPlan { partitions: 1, ..*p }, ..case.clone() });
    }
    if p.feature_tiles > 1 {
        knobs.push(Case { plan: ExecPlan { feature_tiles: 1, ..*p }, ..case.clone() });
    }
    if p.reduce_tiles > 1 {
        knobs.push(Case { plan: ExecPlan { reduce_tiles: 1, ..*p }, ..case.clone() });
    }
    if p.tree_reduce {
        knobs.push(Case { plan: ExecPlan { tree_reduce: false, ..*p }, ..case.clone() });
    }
    if p.hilbert {
        knobs.push(Case { plan: ExecPlan { hilbert: false, ..*p }, ..case.clone() });
    }
    if p.rows_per_block > 1 {
        knobs.push(Case { plan: ExecPlan { rows_per_block: 1, ..*p }, ..case.clone() });
    }
    if p.hybrid {
        knobs.push(Case { plan: ExecPlan { hybrid: false, ..*p }, ..case.clone() });
    }
    out.extend(knobs);

    out
}

fn with_graph(case: &Case, n: usize, edges: Vec<(u32, u32)>) -> Case {
    Case {
        graph: GraphSpec::Explicit { n, edges },
        ..case.clone()
    }
}

fn shrink_udf_dims(udf: &UdfKind) -> Vec<UdfKind> {
    let mut out = Vec::new();
    let halve = |d: usize| (d > 1).then_some(d / 2);
    match *udf {
        UdfKind::CopySrc { d } => out.extend(halve(d).map(|d| UdfKind::CopySrc { d })),
        UdfKind::CopyEdge { d } => out.extend(halve(d).map(|d| UdfKind::CopyEdge { d })),
        UdfKind::SrcMulEdge { d } => out.extend(halve(d).map(|d| UdfKind::SrcMulEdge { d })),
        UdfKind::SrcMulEdgeScalar { d } => {
            out.extend(halve(d).map(|d| UdfKind::SrcMulEdgeScalar { d }))
        }
        UdfKind::SrcAddDst { d } => out.extend(halve(d).map(|d| UdfKind::SrcAddDst { d })),
        UdfKind::Dot { d } => out.extend(halve(d).map(|d| UdfKind::Dot { d })),
        UdfKind::MultiHeadDot { h, d } => {
            out.extend(halve(h).map(|h| UdfKind::MultiHeadDot { h, d }));
            out.extend(halve(d).map(|d| UdfKind::MultiHeadDot { h, d }));
        }
        UdfKind::Mlp { d1, d2 } => {
            out.extend(halve(d1).map(|d1| UdfKind::Mlp { d1, d2 }));
            out.extend(halve(d2).map(|d2| UdfKind::Mlp { d1, d2 }));
        }
    }
    out
}

fn simpler_udfs(udf: &UdfKind) -> Vec<UdfKind> {
    match *udf {
        UdfKind::Mlp { d1, .. } => vec![UdfKind::SrcAddDst { d: d1 }, UdfKind::CopySrc { d: d1 }],
        UdfKind::MultiHeadDot { d, .. } => vec![UdfKind::Dot { d }],
        UdfKind::Dot { .. } => vec![UdfKind::CopySrc { d: 1 }],
        UdfKind::SrcMulEdge { d } | UdfKind::SrcMulEdgeScalar { d } | UdfKind::CopyEdge { d } => {
            vec![UdfKind::CopySrc { d }]
        }
        UdfKind::SrcAddDst { d } => vec![UdfKind::CopySrc { d }],
        UdfKind::CopySrc { .. } => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::KernelKind;
    use featgraph::Reducer;

    fn big_case() -> Case {
        Case {
            kernel: KernelKind::Spmm,
            graph: GraphSpec::Uniform { n: 32, deg: 4, seed: 5 },
            udf: UdfKind::SrcMulEdge { d: 8 },
            reducer: Reducer::Max,
            fused: None,
            plan: ExecPlan {
                threads: 4,
                partitions: 3,
                feature_tiles: 2,
                ..ExecPlan::default()
            },
            seed: 11,
        }
    }

    #[test]
    fn shrinks_to_minimum_when_everything_fails() {
        // An always-failing predicate must drive the case to rock bottom:
        // no edges survive, dims hit 1, the schedule collapses.
        let small = shrink(&big_case(), |_| true, 10_000);
        match &small.graph {
            GraphSpec::Explicit { edges, .. } => assert!(edges.is_empty()),
            g => panic!("graph not pinned to explicit: {g:?}"),
        }
        assert_eq!(small.udf, UdfKind::CopySrc { d: 1 });
        assert_eq!(small.plan.threads, 1);
        assert_eq!(small.plan.partitions, 1);
        assert_eq!(small.plan.feature_tiles, 1);
    }

    #[test]
    fn fused_spec_shrinks_to_plain_gat_aggregation() {
        let case = Case {
            kernel: KernelKind::Fused,
            udf: UdfKind::CopySrc { d: 8 },
            reducer: Reducer::Sum,
            fused: Some(FusedSpec {
                score: FusedScoreKind::Dot { d: 4 },
                softmax: true,
            }),
            ..big_case()
        };
        let small = shrink(&case, |_| true, 10_000);
        assert_eq!(
            small.fused,
            Some(FusedSpec { score: FusedScoreKind::Gat, softmax: false }),
            "softmax dropped, dot score halved down to the additive GAT score"
        );
    }

    #[test]
    fn preserves_failure_condition() {
        // Predicate: fails only while a self-loop on vertex 0 is present.
        let case = Case {
            graph: GraphSpec::Explicit {
                n: 8,
                edges: vec![(0, 0), (1, 2), (3, 4), (5, 6), (2, 7), (6, 1)],
            },
            ..big_case()
        };
        let has_loop = |c: &Case| match &c.graph {
            GraphSpec::Explicit { edges, .. } => edges.contains(&(0, 0)),
            _ => true,
        };
        let small = shrink(&case, has_loop, 10_000);
        match &small.graph {
            GraphSpec::Explicit { n, edges } => {
                assert_eq!(edges.as_slice(), &[(0, 0)], "only the culprit edge survives");
                assert_eq!(*n, 1, "vertex count clamped to the used range");
            }
            g => panic!("{g:?}"),
        }
    }

    #[test]
    fn budget_bounds_reexecution() {
        let mut calls = 0usize;
        let _ = shrink(&big_case(), |_| { calls += 1; true }, 25);
        assert!(calls <= 25, "{calls} > budget");
    }
}
