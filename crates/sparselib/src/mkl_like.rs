//! MKL-style CPU CSR SpMM.
//!
//! The implementation plays the role of `mkl_sparse_s_mm`: it is *good* —
//! row-parallel over destinations with a vectorizable axpy inner loop — but
//! it is a fixed-function library call: one kernel (copy-sum), no awareness
//! of cache-level graph partitioning or feature tiling. At large feature
//! lengths the working set of gathered source rows overflows LLC and it
//! falls behind FeatGraph's partitioned kernel, which is Table III's story.

use fg_graph::Graph;
use fg_tensor::Dense2;
use rayon::prelude::*;

/// Computed `out = A × x` where `A` is the graph's (binary) adjacency in
/// destination-major CSR — the one sparse kernel the library exports.
///
/// # Panics
/// Panics on shape mismatch (vendor libraries abort on bad descriptors).
pub fn mkl_csrmm(graph: &Graph, x: &Dense2<f32>, out: &mut Dense2<f32>, threads: usize) {
    assert_eq!(
        x.shape(),
        (graph.num_vertices(), x.cols()),
        "x must be |V| x d"
    );
    assert_eq!(out.shape(), x.shape(), "out must match x");
    let d = x.cols();
    let csr = graph.in_csr();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("thread pool");
    pool.install(|| {
        out.as_mut_slice()
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(dst, orow)| {
                orow.fill(0.0);
                for &src in csr.row(dst as u32) {
                    let srow = x.row(src as usize);
                    for (o, &v) in orow.iter_mut().zip(srow) {
                        *o += v;
                    }
                }
            });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 3 + i) % 7) as f32 - 3.0)
    }

    #[test]
    fn csrmm_matches_manual_sum() {
        let g = fg_graph::uniform(120, 5, 2);
        let x = features(120, 16);
        let mut out = Dense2::zeros(120, 16);
        mkl_csrmm(&g, &x, &mut out, 2);
        let mut want = Dense2::zeros(120, 16);
        for (src, dst, _) in g.edges() {
            for k in 0..16 {
                let v = want.at(dst as usize, k) + x.at(src as usize, k);
                want.set(dst as usize, k, v);
            }
        }
        assert!(out.approx_eq(&want, 1e-4));
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let g = fg_graph::uniform(90, 4, 8);
        let x = features(90, 8);
        let mut a = Dense2::zeros(90, 8);
        let mut b = Dense2::zeros(90, 8);
        mkl_csrmm(&g, &x, &mut a, 1);
        mkl_csrmm(&g, &x, &mut b, 4);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn empty_graph_zeroes_the_output() {
        let g = fg_graph::Graph::from_edges(5, &[]);
        let x = features(5, 4);
        let mut out = Dense2::full(5, 4, 9.0);
        mkl_csrmm(&g, &x, &mut out, 1);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_column_features_work() {
        let g = fg_graph::uniform(30, 3, 4);
        let x = features(30, 1);
        let mut out = Dense2::zeros(30, 1);
        mkl_csrmm(&g, &x, &mut out, 1);
        let mut want = [0.0f32; 30];
        for (s, d, _) in g.edges() {
            want[d as usize] += x.at(s as usize, 0);
        }
        for (v, &w) in want.iter().enumerate() {
            assert!((out.at(v, 0) - w).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "out must match x")]
    fn shape_mismatch_aborts() {
        let g = fg_graph::uniform(10, 2, 1);
        let x = features(10, 4);
        let mut out = Dense2::zeros(10, 8);
        mkl_csrmm(&g, &x, &mut out, 1);
    }
}
