//! Commutative reducers for message aggregation and UDF reduction axes.

use fg_tensor::Scalar;

/// A commutative, associative reduction operator.
///
/// The SpMM template aggregates messages with one of these (Eq. (1)'s `⊕`);
/// UDF reduction axes (e.g. the `k` of a dot product) use them too. `Mean`
/// is sum followed by division by the in-degree, matching DGL's builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reducer {
    /// Sum of messages (vanilla SpMM / GCN).
    Sum,
    /// Element-wise maximum (MLP aggregation in Fig. 1, GraphSage max-pool).
    Max,
    /// Element-wise minimum.
    Min,
    /// Arithmetic mean (GraphSage mean aggregation).
    Mean,
}

impl Reducer {
    /// The identity element: `combine(identity, x) == x`.
    #[inline(always)]
    pub fn identity<S: Scalar>(self) -> S {
        match self {
            Reducer::Sum | Reducer::Mean => S::ZERO,
            Reducer::Max => S::MIN_FINITE,
            Reducer::Min => S::MAX_FINITE,
        }
    }

    /// Combine an accumulator with a new value. Associative, so two partial
    /// accumulators combine the same way (for `Mean` the partials are raw
    /// sums; `finalize` divides once at the very end).
    #[inline(always)]
    pub fn combine<S: Scalar>(self, acc: S, x: S) -> S {
        match self {
            Reducer::Sum | Reducer::Mean => acc + x,
            Reducer::Max => acc.maximum(x),
            Reducer::Min => acc.minimum(x),
        }
    }

    /// Finalize an accumulated value given the element count (`Mean` divides;
    /// others pass through). A count of zero leaves the identity untouched
    /// for `Sum`/`Mean` and is normalized to zero for `Max`/`Min` so that
    /// zero-degree vertices produce zeros rather than ±∞ sentinels, matching
    /// DGL's behaviour.
    #[inline(always)]
    pub fn finalize<S: Scalar>(self, acc: S, count: usize) -> S {
        match self {
            Reducer::Sum => acc,
            Reducer::Mean => {
                if count == 0 {
                    S::ZERO
                } else {
                    acc / S::from_usize(count)
                }
            }
            Reducer::Max | Reducer::Min => {
                if count == 0 {
                    S::ZERO
                } else {
                    acc
                }
            }
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Reducer::Sum => "sum",
            Reducer::Max => "max",
            Reducer::Min => "min",
            Reducer::Mean => "mean",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_absorb() {
        for r in [Reducer::Sum, Reducer::Max, Reducer::Min, Reducer::Mean] {
            let id: f64 = r.identity();
            assert_eq!(r.combine(id, 3.5), 3.5, "{r:?}");
        }
    }

    #[test]
    fn combine_semantics() {
        assert_eq!(Reducer::Sum.combine(2.0f32, 3.0), 5.0);
        assert_eq!(Reducer::Max.combine(2.0f32, 3.0), 3.0);
        assert_eq!(Reducer::Min.combine(2.0f32, 3.0), 2.0);
    }

    #[test]
    fn mean_finalizes_by_count() {
        let acc = Reducer::Mean.combine(Reducer::Mean.combine(0.0f64, 2.0), 4.0);
        assert_eq!(Reducer::Mean.finalize(acc, 2), 3.0);
        assert_eq!(Reducer::Mean.finalize(0.0f64, 0), 0.0);
    }

    #[test]
    fn zero_degree_max_is_zero_not_sentinel() {
        let id: f32 = Reducer::Max.identity();
        assert_eq!(Reducer::Max.finalize(id, 0), 0.0);
        assert_eq!(Reducer::Min.finalize(Reducer::Min.identity::<f32>(), 0), 0.0);
    }

    #[test]
    fn combine_is_associative_on_samples() {
        let xs = [1.0f64, -2.0, 7.5, 0.25];
        for r in [Reducer::Sum, Reducer::Max, Reducer::Min] {
            let left = xs.iter().fold(r.identity(), |a, &x| r.combine(a, x));
            let mid = r.combine(
                xs[..2].iter().fold(r.identity(), |a, &x| r.combine(a, x)),
                xs[2..].iter().fold(r.identity(), |a, &x| r.combine(a, x)),
            );
            assert_eq!(left, mid, "{r:?}");
        }
    }

    #[test]
    fn names() {
        assert_eq!(Reducer::Sum.name(), "sum");
        assert_eq!(Reducer::Mean.name(), "mean");
    }
}
