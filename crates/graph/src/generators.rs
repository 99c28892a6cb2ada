//! Deterministic synthetic graph generators.
//!
//! All generators take an explicit seed and use a fixed PCG stream, so every
//! experiment in the repository is reproducible bit-for-bit. Degree targets
//! are *averages* (like the paper's dataset descriptions); duplicate edges
//! produced during sampling are removed, so realized edge counts land within
//! a few percent of the target.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use crate::{Graph, VId};

/// RNG type used by every generator.
pub type GenRng = Pcg64Mcg;

/// Create the generator RNG for a seed.
pub fn rng(seed: u64) -> GenRng {
    Pcg64Mcg::seed_from_u64(seed)
}

/// Uniform random graph: every vertex receives `avg_in_degree` in-edges with
/// sources drawn uniformly. (Erdős–Rényi-like; degree distribution is
/// Binomial, tightly concentrated — a stand-in for `ogbn-proteins`, whose
/// association graph is dense and fairly regular.)
pub fn uniform(n: usize, avg_in_degree: usize, seed: u64) -> Graph {
    assert!(n > 0, "graph must have at least one vertex");
    let mut r = rng(seed);
    let src_dist = Uniform::new(0, n as VId);
    let mut edges = Vec::with_capacity(n * avg_in_degree);
    for dst in 0..n as VId {
        for _ in 0..avg_in_degree {
            edges.push((src_dist.sample(&mut r), dst));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Uniform random graph specified by matrix *sparsity* (fraction of zero
/// entries), as in Table V of the paper: `nnz ≈ (1 - sparsity) · n²`.
pub fn uniform_with_sparsity(n: usize, sparsity: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let avg = ((1.0 - sparsity) * n as f64).round() as usize;
    uniform(n, avg, seed)
}

/// Chung–Lu style power-law graph: vertex `i` has weight `(i+1)^(-alpha)`;
/// edge endpoints are drawn proportionally to weight. Produces the skewed
/// degree distribution of social graphs — the stand-in for `reddit`.
///
/// `alpha` around 0.5 gives the mild skew typical of post-interaction
/// graphs; larger values concentrate edges on fewer hubs.
pub fn power_law(n: usize, avg_degree: usize, alpha: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph must have at least one vertex");
    let mut r = rng(seed);
    // Cumulative weight table for inverse-CDF sampling.
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for i in 0..n {
        total += ((i + 1) as f64).powf(-alpha);
        cum.push(total);
    }
    let m = n * avg_degree;
    let mut edges = Vec::with_capacity(m);
    let sample_vertex = |r: &mut GenRng| -> VId {
        let x: f64 = r.gen::<f64>() * total;
        cum.partition_point(|&c| c < x) as VId
    };
    for _ in 0..m {
        let s = sample_vertex(&mut r);
        let d = sample_vertex(&mut r);
        edges.push((s, d));
    }
    Graph::from_edges(n, &edges)
}

/// The paper's `rand-100K` construction, parameterized: `n_high` vertices
/// with average out-degree `deg_high` and `n_low` vertices with average
/// out-degree `deg_low`; destinations uniform. High-degree vertices get the
/// low IDs. Used to study hybrid partitioning (§III-C3, Fig. 13).
pub fn two_tier(
    n_high: usize,
    deg_high: usize,
    n_low: usize,
    deg_low: usize,
    seed: u64,
) -> Graph {
    let n = n_high + n_low;
    assert!(n > 0, "graph must have at least one vertex");
    let mut r = rng(seed);
    let dst_dist = Uniform::new(0, n as VId);
    let mut edges = Vec::with_capacity(n_high * deg_high + n_low * deg_low);
    for src in 0..n_high as VId {
        for _ in 0..deg_high {
            edges.push((src, dst_dist.sample(&mut r)));
        }
    }
    for src in n_high as VId..n as VId {
        for _ in 0..deg_low {
            edges.push((src, dst_dist.sample(&mut r)));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A stochastic block model with `blocks` equal communities. Each vertex
/// receives `avg_in_degree` in-edges; a fraction `p_in` of them come from its
/// own community. Returns the graph and the block label of every vertex.
/// Drives the end-to-end vertex-classification accuracy experiment (§V-E).
pub fn sbm(
    n: usize,
    blocks: usize,
    avg_in_degree: usize,
    p_in: f64,
    seed: u64,
) -> (Graph, Vec<u32>) {
    assert!(n > 0 && blocks > 0 && blocks <= n, "invalid SBM shape");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be in [0,1]");
    let mut r = rng(seed);
    let block_size = n.div_ceil(blocks);
    let labels: Vec<u32> = (0..n).map(|v| (v / block_size) as u32).collect();
    let mut edges = Vec::with_capacity(n * avg_in_degree);
    let any = Uniform::new(0, n as VId);
    for (dst, &label) in labels.iter().enumerate() {
        let b = label as usize;
        let lo = b * block_size;
        let hi = ((b + 1) * block_size).min(n);
        let own = Uniform::new(lo as VId, hi as VId);
        for _ in 0..avg_in_degree {
            let src = if r.gen::<f64>() < p_in {
                own.sample(&mut r)
            } else {
                any.sample(&mut r)
            };
            edges.push((src, dst as VId));
        }
    }
    (Graph::from_edges(n, &edges), labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hits_degree_target_approximately() {
        let g = uniform(1000, 20, 7);
        let avg = g.avg_degree();
        assert!(
            (avg - 20.0).abs() < 1.0,
            "avg degree {avg} too far from target 20"
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = uniform(500, 10, 42).edge_list();
        let b = uniform(500, 10, 42).edge_list();
        assert_eq!(a, b);
        let c = uniform(500, 10, 43).edge_list();
        assert_ne!(a, c);
    }

    #[test]
    fn sparsity_parameterization() {
        let g = uniform_with_sparsity(200, 0.95, 1);
        // expected nnz ~ 0.05 * 200^2 = 2000
        let nnz = g.num_edges() as f64;
        assert!((1700.0..=2000.0).contains(&nnz), "nnz = {nnz}");
    }

    #[test]
    fn power_law_is_skewed() {
        let g = power_law(2000, 20, 0.8, 3);
        let mut degs: Vec<usize> = (0..2000).map(|v| g.out_degree(v as VId)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // top 1% of vertices should hold far more than 1% of edges
        let top: usize = degs[..20].iter().sum();
        assert!(
            top as f64 > 0.05 * g.num_edges() as f64,
            "top-20 hold {top} of {}",
            g.num_edges()
        );
    }

    #[test]
    fn two_tier_degree_structure() {
        // n must be much larger than deg_high or deduplication flattens the
        // high tier (sampling with replacement into a small ID space).
        let g = two_tier(20, 200, 1980, 10, 5);
        assert_eq!(g.num_vertices(), 2000);
        let high_avg: f64 =
            (0..20).map(|v| g.out_degree(v) as f64).sum::<f64>() / 20.0;
        let low_avg: f64 =
            (20..2000).map(|v| g.out_degree(v) as f64).sum::<f64>() / 1980.0;
        assert!(high_avg > 10.0 * low_avg, "high {high_avg} low {low_avg}");
    }

    #[test]
    fn sbm_respects_community_preference() {
        let (g, labels) = sbm(400, 4, 20, 0.9, 11);
        let mut intra = 0usize;
        let mut total = 0usize;
        for (s, d, _) in g.edges() {
            total += 1;
            if labels[s as usize] == labels[d as usize] {
                intra += 1;
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.8, "intra-community fraction {frac}");
        assert_eq!(labels.len(), 400);
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn uniform_rejects_empty() {
        let _ = uniform(0, 5, 0);
    }

    #[test]
    #[should_panic(expected = "p_in")]
    fn sbm_rejects_bad_probability() {
        let _ = sbm(10, 2, 3, 1.5, 0);
    }
}
