//! Property-based tests for the IR: interpreter correctness against direct
//! evaluation, validation soundness, and reducer algebra.

use fg_ir::interp::{eval_expr, EdgeCtx};
use fg_ir::{IdxExpr, KernelPattern, Reducer, ScalarExpr, Udf};
use proptest::prelude::*;

/// Random expression trees over bounded-index leaves.
fn exprs(depth: u32) -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        (0usize..4).prop_map(|c| ScalarExpr::Src(IdxExpr::Const(c))),
        (0usize..4).prop_map(|c| ScalarExpr::Dst(IdxExpr::Const(c))),
        Just(ScalarExpr::Src(IdxExpr::Out)),
        Just(ScalarExpr::Dst(IdxExpr::Out)),
        (-4.0f64..4.0).prop_map(ScalarExpr::Const),
    ];
    leaf.prop_recursive(depth, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            inner.clone().prop_map(|a| a.relu()),
            inner.prop_map(|a| ScalarExpr::Neg(Box::new(a))),
        ]
    })
}

/// Direct recursive evaluation, written independently of the interpreter.
fn eval_direct(e: &ScalarExpr, src: &[f64], dst: &[f64], i: usize) -> f64 {
    match e {
        ScalarExpr::Src(ix) => src[ix.eval(i, 0)],
        ScalarExpr::Dst(ix) => dst[ix.eval(i, 0)],
        ScalarExpr::Const(c) => *c,
        ScalarExpr::Add(a, b) => eval_direct(a, src, dst, i) + eval_direct(b, src, dst, i),
        ScalarExpr::Sub(a, b) => eval_direct(a, src, dst, i) - eval_direct(b, src, dst, i),
        ScalarExpr::Mul(a, b) => eval_direct(a, src, dst, i) * eval_direct(b, src, dst, i),
        ScalarExpr::Max(a, b) => eval_direct(a, src, dst, i).max(eval_direct(b, src, dst, i)),
        ScalarExpr::Relu(a) => eval_direct(a, src, dst, i).max(0.0),
        ScalarExpr::Neg(a) => -eval_direct(a, src, dst, i),
        _ => unreachable!("not generated"),
    }
}

proptest! {
    #[test]
    fn interpreter_matches_direct_evaluation(
        e in exprs(4),
        src in proptest::collection::vec(-10.0f64..10.0, 6),
        dst in proptest::collection::vec(-10.0f64..10.0, 6),
        i in 0usize..4,
    ) {
        let ctx = EdgeCtx { src: &src, dst: &dst, edge: &[] };
        let got = eval_expr(&e, &ctx, &[], i, 0);
        let want = eval_direct(&e, &src, &dst, i);
        prop_assert!((got - want).abs() < 1e-9, "{e:?}: {got} vs {want}");
    }

    #[test]
    fn validation_accepts_exactly_in_bounds_bodies(
        e in exprs(3),
        out_len in 1usize..6,
    ) {
        let udf = Udf {
            out_len,
            src_len: 6,
            dst_len: 6,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: e.clone(),
            post_relu: false,
        };
        // Out axis indexes up to out_len-1 < 6, Const leaves < 4 < 6:
        // everything generated is in bounds.
        prop_assert!(udf.validate().is_ok(), "{e:?}");
        // Shrinking declared extents below a used Const(3) must fail for
        // bodies that reference it.
        let mut narrow = udf.clone();
        narrow.src_len = 1;
        narrow.dst_len = 1;
        narrow.out_len = 1;
        let uses_big_index = {
            let mut found = false;
            e.visit(&mut |node| {
                if let ScalarExpr::Src(IdxExpr::Const(c)) | ScalarExpr::Dst(IdxExpr::Const(c)) = node {
                    found |= *c >= 1;
                }
            });
            found
        };
        if uses_big_index {
            prop_assert!(narrow.validate().is_err());
        }
    }

    #[test]
    fn reducers_are_commutative_and_associative(
        xs in proptest::collection::vec(-50.0f64..50.0, 1..12),
        which in 0usize..3,
    ) {
        let r = [Reducer::Sum, Reducer::Max, Reducer::Min][which];
        let fold = |v: &[f64]| v.iter().fold(r.identity(), |a, &x| r.combine(a, x));
        let forward = fold(&xs);
        let mut rev = xs.clone();
        rev.reverse();
        let backward = fold(&rev);
        prop_assert!((forward - backward).abs() < 1e-9);
        // splitting anywhere and combining the partials is equivalent
        for split in 0..xs.len() {
            let merged = r.combine(fold(&xs[..split]), fold(&xs[split..]));
            prop_assert!((merged - forward).abs() < 1e-9);
        }
    }

    #[test]
    fn mean_equals_sum_divided_by_count(
        xs in proptest::collection::vec(-50.0f64..50.0, 1..12),
    ) {
        let r = Reducer::Mean;
        let acc = xs.iter().fold(r.identity(), |a, &x| r.combine(a, x));
        let got = r.finalize(acc, xs.len());
        let want = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn udf_flops_are_monotone_in_axes(d1 in 1usize..32, d2 in 1usize..32) {
        prop_assume!(d1 < d2);
        prop_assert!(Udf::dot(d2).flops_per_edge() > Udf::dot(d1).flops_per_edge());
        prop_assert!(Udf::copy_src(d2).flops_per_edge() > Udf::copy_src(d1).flops_per_edge());
    }

    #[test]
    fn pattern_recognition_is_stable_under_clone(d in 1usize..64) {
        for udf in [Udf::copy_src(d), Udf::dot(d), Udf::mlp(4, d), Udf::src_mul_edge_scalar(d)] {
            prop_assert_eq!(KernelPattern::of(&udf.clone()), KernelPattern::of(&udf));
        }
    }
}
