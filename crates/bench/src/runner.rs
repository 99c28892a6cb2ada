//! Shared measurement plumbing.

use std::time::Instant;

use fg_graph::{Dataset, Graph};
use fg_tensor::Dense2;

/// The three evaluation kernels (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Vanilla SpMM: copy source features, sum-aggregate.
    GcnAggregation,
    /// Generalized SpMM: `max_{u→v} relu((x[u]+x[v])·W)`, `d1 = 8` fixed as
    /// in the paper, feature length = `d2`.
    MlpAggregation,
    /// Vanilla SDDMM: per-edge dot product.
    DotAttention,
}

impl KernelKind {
    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::GcnAggregation => "GCN aggregation",
            KernelKind::MlpAggregation => "MLP aggregation",
            KernelKind::DotAttention => "dot-product attention",
        }
    }

    /// Short slug used in report entry ids (`gcn`, `mlp`, `dot`).
    pub fn slug(self) -> &'static str {
        match self {
            KernelKind::GcnAggregation => "gcn",
            KernelKind::MlpAggregation => "mlp",
            KernelKind::DotAttention => "dot",
        }
    }

    /// Parse a CLI flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gcn" => Some(KernelKind::GcnAggregation),
            "mlp" => Some(KernelKind::MlpAggregation),
            "attention" | "dot" => Some(KernelKind::DotAttention),
            _ => None,
        }
    }
}

/// The MLP aggregation's fixed input feature length (`d1` in Fig. 3b).
pub const MLP_D1: usize = 8;

/// Sweep configuration shared by the harness commands.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Vertex-count divisor applied to the Table II datasets.
    pub scale: usize,
    /// Feature lengths to sweep.
    pub lengths: Vec<usize>,
    /// Timed repetitions per cell (after one warm-up).
    pub runs: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale: crate::DEFAULT_SCALE,
            lengths: crate::DEFAULT_LENGTHS.to_vec(),
            runs: 2,
        }
    }
}

/// Generate a dataset at the configured scale.
pub fn load(dataset: Dataset, scale: usize) -> Graph {
    dataset.generate(scale)
}

/// Deterministic feature matrix for kernel benchmarks.
pub fn features(n: usize, d: usize) -> Dense2<f32> {
    Dense2::from_fn(n, d, |v, i| ((v * 131 + i * 31) % 251) as f32 * 0.008 - 1.0)
}

/// Deterministic MLP weight matrix.
pub fn weights(d1: usize, d2: usize) -> Dense2<f32> {
    Dense2::from_fn(d1, d2, |r, c| ((r * 17 + c * 13) % 101) as f32 * 0.02 - 1.0)
}

/// Per-run wall-clock measurements from [`time_samples`]. Unlike a pooled
/// mean, the individual samples keep outlier runs visible, which is what the
/// compare/regression gate's noise thresholds are built on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    /// One wall-clock measurement per run, in seconds, in run order.
    pub secs: Vec<f64>,
}

impl Samples {
    /// Wrap an explicit sample vector.
    pub fn from_secs(secs: Vec<f64>) -> Self {
        Self { secs }
    }

    /// A single measurement (deterministic sources like the GPU simulator).
    pub fn single(s: f64) -> Self {
        Self { secs: vec![s] }
    }

    /// Number of measured runs.
    pub fn len(&self) -> usize {
        self.secs.len()
    }

    /// True when no run was recorded.
    pub fn is_empty(&self) -> bool {
        self.secs.is_empty()
    }

    /// Fastest run.
    pub fn min(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest run.
    pub fn max(&self) -> f64 {
        self.secs.iter().copied().fold(0.0, f64::max)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.secs.is_empty() {
            return 0.0;
        }
        self.secs.iter().sum::<f64>() / self.secs.len() as f64
    }

    /// Median (midpoint-interpolated for even lengths) — the statistic the
    /// regression gate compares, because it shrugs off single outlier runs.
    pub fn median(&self) -> f64 {
        if self.secs.is_empty() {
            return 0.0;
        }
        let mut sorted = self.secs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// Sample standard deviation (`0.0` with fewer than two runs).
    pub fn stddev(&self) -> f64 {
        let n = self.secs.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .secs
            .iter()
            .map(|&s| (s - mean) * (s - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

/// Time `f` with one warm-up call and `runs` individually-timed calls.
pub fn time_samples(runs: usize, mut f: impl FnMut()) -> Samples {
    f(); // warm-up
    let runs = runs.max(1);
    let mut secs = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
    }
    Samples { secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_kind_parsing() {
        assert_eq!(KernelKind::parse("gcn"), Some(KernelKind::GcnAggregation));
        assert_eq!(KernelKind::parse("mlp"), Some(KernelKind::MlpAggregation));
        assert_eq!(KernelKind::parse("dot"), Some(KernelKind::DotAttention));
        assert_eq!(KernelKind::parse("bogus"), None);
    }

    #[test]
    fn time_samples_keeps_per_run_variance() {
        let s = time_samples(4, || {
            std::hint::black_box((0..10_000).sum::<usize>());
        });
        assert_eq!(s.len(), 4);
        assert!(s.min() <= s.median() && s.median() <= s.max());
        assert!(s.mean() >= 0.0 && s.stddev() >= 0.0);
    }

    #[test]
    fn sample_statistics_are_exact_on_known_data() {
        let s = Samples::from_secs(vec![1.0, 2.0, 3.0, 10.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.median(), 2.5); // interpolated, outlier-resistant
        // sample stddev of [1,2,3,10]: var = (9+4+1+36)/3 = 50/3
        assert!((s.stddev() - (50.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let odd = Samples::from_secs(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        assert_eq!(Samples::single(5.0).stddev(), 0.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn load_respects_scale() {
        let small = load(Dataset::OgbnProteins, 512);
        let big = load(Dataset::OgbnProteins, 128);
        assert!(big.num_vertices() > 2 * small.num_vertices());
    }
}
