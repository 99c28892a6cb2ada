//! Property tests for the autograd: backend agreement on random graphs and
//! gradient linearity (a reverse pass is a linear map in the seed).

use fg_gnn::backend::{Dir, GraphBackend};
use fg_gnn::{FeatgraphBackend, GnnGraph, NaiveBackend, Tape};
use fg_graph::{Coo, Graph};
use fg_tensor::Dense2;
use proptest::prelude::*;

fn graphs() -> impl Strategy<Value = GnnGraph> {
    (3usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..150)
            .prop_map(move |edges| GnnGraph::new(Graph::from_coo(Coo::from_edges(n, &edges))))
    })
}

fn feat(n: usize, d: usize, seed: u64) -> Dense2<f32> {
    Dense2::from_fn(n, d, |v, i| {
        (((v * 7 + i * 13) as u64 ^ seed).wrapping_mul(2654435761) % 1000) as f32 / 250.0 - 2.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_agree_on_all_ops(g in graphs(), d in 1usize..12, seed in 0u64..1000) {
        let n = g.num_vertices();
        let x = feat(n, d, seed);
        let w = feat(g.num_edges(), 1, seed ^ 7);
        let e = feat(g.num_edges(), d, seed ^ 13);
        let naive = NaiveBackend::cpu();
        let fgb = FeatgraphBackend::cpu(1);

        for dir in [Dir::Fwd, Dir::Rev] {
            let a = naive.weighted_spmm(&g, dir, &x, Some(&w));
            let b = fgb.weighted_spmm(&g, dir, &x, Some(&w));
            prop_assert!(a.approx_eq(&b, 1e-3), "weighted {dir:?}: {}", a.max_abs_diff(&b));

            let a = naive.edge_sum(&g, dir, &e);
            let b = fgb.edge_sum(&g, dir, &e);
            prop_assert!(a.approx_eq(&b, 1e-3), "edge_sum {dir:?}");
        }
        let a = naive.mean_spmm(&g, &x);
        let b = fgb.mean_spmm(&g, &x);
        prop_assert!(a.approx_eq(&b, 1e-3), "mean");

        let y = feat(n, d, seed ^ 21);
        let a = naive.sddmm_dot(&g, &x, &y);
        let b = fgb.sddmm_dot(&g, &x, &y);
        prop_assert!(a.approx_eq(&b, 1e-3), "dot");
    }

    #[test]
    fn backward_is_linear_in_the_seed(g in graphs(), d in 1usize..8, seed in 0u64..500) {
        // grad(x; s1 + s2) == grad(x; s1) + grad(x; s2) for the linear op chain
        let n = g.num_vertices();
        let backend = FeatgraphBackend::cpu(1);
        let x0 = feat(n, d, seed);
        let s1 = feat(n, d, seed ^ 3);
        let s2 = feat(n, d, seed ^ 5);

        let grad_for = |s: Dense2<f32>| -> Dense2<f32> {
            let mut tape = Tape::new(&g, &backend, None);
            let x = tape.param(x0.clone());
            let h = tape.spmm(x, None);
            let h2 = tape.spmm(h, None); // two-hop aggregation, still linear
            tape.backward(h2, s);
            tape.grad(x)
        };
        let g1 = grad_for(s1.clone());
        let g2 = grad_for(s2.clone());
        let mut sum = s1.clone();
        for (o, &b) in sum.as_mut_slice().iter_mut().zip(s2.as_slice()) {
            *o += b;
        }
        let g12 = grad_for(sum);
        let mut g1g2 = g1.clone();
        for (o, &b) in g1g2.as_mut_slice().iter_mut().zip(g2.as_slice()) {
            *o += b;
        }
        prop_assert!(g12.approx_eq(&g1g2, 1e-2), "diff {}", g12.max_abs_diff(&g1g2));
    }

    #[test]
    fn spmm_rev_is_the_adjoint_of_spmm_fwd(g in graphs(), d in 1usize..8, seed in 0u64..500) {
        // <A x, y> == <x, A^T y> — the identity backward relies on
        let n = g.num_vertices();
        let backend = FeatgraphBackend::cpu(1);
        let x = feat(n, d, seed);
        let y = feat(n, d, seed ^ 11);
        let ax = backend.weighted_spmm(&g, Dir::Fwd, &x, None);
        let aty = backend.weighted_spmm(&g, Dir::Rev, &y, None);
        let lhs: f64 = ax.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| (a * b) as f64).sum();
        let rhs: f64 = x.as_slice().iter().zip(aty.as_slice()).map(|(&a, &b)| (a * b) as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }
}
