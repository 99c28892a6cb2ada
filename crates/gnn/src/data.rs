//! Vertex-classification task on a stochastic block model — the stand-in
//! for the paper's reddit classification benchmark (§V-E accuracy check).

use fg_tensor::Dense2;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::ggraph::GnnGraph;

/// A vertex-classification dataset: graph, features, labels, and
/// train/validation/test masks in the paper's 153K/24K/56K proportions
/// (≈ 66% / 10% / 24%).
pub struct SbmTask {
    /// The prepared graph.
    pub graph: GnnGraph,
    /// Vertex features (`|V| × in_dim`).
    pub features: Dense2<f32>,
    /// Class label per vertex.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Training mask.
    pub train_mask: Vec<bool>,
    /// Validation mask.
    pub val_mask: Vec<bool>,
    /// Test mask.
    pub test_mask: Vec<bool>,
}

impl SbmTask {
    /// Generate a task: `n` vertices in `classes` communities with average
    /// in-degree `avg_deg`; features are a noisy one-hot community signal
    /// plus `noise_dims` pure-noise columns, so single-vertex features are
    /// weak and aggregation over (mostly same-community) neighbors is what
    /// makes the task learnable — i.e. a GNN beats a pointwise classifier.
    pub fn generate(n: usize, classes: usize, avg_deg: usize, noise_dims: usize, seed: u64) -> Self {
        let (graph, labels) = fg_graph::sbm(n, classes, avg_deg, 0.85, seed);
        let mut rng = fg_graph::rng(seed ^ 0xfeed);
        let in_dim = classes + noise_dims;
        let signal = 0.6f32;
        let sigma = 1.5f32;
        let mut features = Dense2::zeros(n, in_dim);
        for (v, &lab) in labels.iter().enumerate() {
            let label = lab as usize;
            let row = features.row_mut(v);
            for (c, slot) in row.iter_mut().enumerate() {
                let base = if c == label { signal } else { 0.0 };
                *slot = base + gaussian(&mut rng) * sigma;
            }
        }
        // split: 66% train / 10% val / 24% test, assigned pseudo-randomly
        let mut train_mask = vec![false; n];
        let mut val_mask = vec![false; n];
        let mut test_mask = vec![false; n];
        for v in 0..n {
            let roll: f64 = rng.gen();
            if roll < 0.66 {
                train_mask[v] = true;
            } else if roll < 0.76 {
                val_mask[v] = true;
            } else {
                test_mask[v] = true;
            }
        }
        Self {
            graph: GnnGraph::new(graph),
            features,
            labels,
            num_classes: classes,
            train_mask,
            val_mask,
            test_mask,
        }
    }

    /// Input feature dimensionality.
    pub fn in_dim(&self) -> usize {
        self.features.cols()
    }
}

/// Box–Muller standard normal from a uniform RNG.
fn gaussian(rng: &mut Pcg64Mcg) -> f32 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_disjoint_and_cover() {
        let task = SbmTask::generate(500, 4, 10, 4, 3);
        for v in 0..500 {
            let count = [task.train_mask[v], task.val_mask[v], task.test_mask[v]]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(count, 1, "vertex {v}");
        }
        let train = task.train_mask.iter().filter(|&&b| b).count();
        assert!((250..=400).contains(&train), "train {train}");
    }

    #[test]
    fn features_carry_community_signal() {
        let task = SbmTask::generate(2000, 4, 10, 4, 5);
        // the label column's mean should exceed other columns' means
        let mut label_mean = 0.0f64;
        let mut other_mean = 0.0f64;
        let mut nl = 0usize;
        let mut no = 0usize;
        for v in 0..2000 {
            for c in 0..4 {
                let x = task.features.at(v, c) as f64;
                if c == task.labels[v] as usize {
                    label_mean += x;
                    nl += 1;
                } else {
                    other_mean += x;
                    no += 1;
                }
            }
        }
        label_mean /= nl as f64;
        other_mean /= no as f64;
        assert!(label_mean > other_mean + 0.3, "{label_mean} vs {other_mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SbmTask::generate(200, 3, 8, 2, 7);
        let b = SbmTask::generate(200, 3, 8, 2, 7);
        assert!(a.features.approx_eq(&b.features, 0.0));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.train_mask, b.train_mask);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = fg_graph::rng(1);
        let samples: Vec<f32> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        let var: f32 =
            samples.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
