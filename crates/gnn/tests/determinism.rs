//! Reproducibility guarantees for fg-gnn: identical seeds and thread counts
//! must give bit-identical training runs and bit-identical trained
//! parameters. Serving correctness (fg-serve answers requests from a
//! shared, long-lived model) leans on this property.

use fg_gnn::data::SbmTask;
use fg_gnn::models::{build_model, Model};
use fg_gnn::nn::Optimizer;
use fg_gnn::{train, FeatgraphBackend, TrainResult};

/// FNV-1a over every parameter's shape and value bits, in
/// [`Model::params`] order.
fn params_digest(model: &mut dyn Model) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in model.params() {
        let (rows, cols) = p.value.shape();
        eat(rows as u64);
        eat(cols as u64);
        for x in p.value.as_slice() {
            eat(u64::from(x.to_bits()));
        }
    }
    h
}

fn run_training(threads: usize) -> (TrainResult, u64) {
    // Same dataset seed, model seed, and hyperparameters every call.
    let task = SbmTask::generate(250, 3, 10, 3, 99);
    let backend = FeatgraphBackend::cpu(threads);
    let mut model = build_model("gcn", task.in_dim(), 12, task.num_classes, 4);
    let result = train(
        model.as_mut(),
        &task,
        &backend,
        None,
        Optimizer::adam(0.02),
        8,
    );
    (result, params_digest(model.as_mut()))
}

/// Epoch histories must match bit-for-bit, not approximately: the training
/// loop is sequential deterministic arithmetic for a fixed thread count.
fn assert_identical(a: &TrainResult, b: &TrainResult) {
    assert_eq!(a.history.len(), b.history.len());
    for (epoch, (x, y)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(
            x.loss.to_bits(),
            y.loss.to_bits(),
            "epoch {epoch}: loss {} vs {}",
            x.loss,
            y.loss
        );
        assert_eq!(x.train_acc.to_bits(), y.train_acc.to_bits(), "epoch {epoch} train_acc");
        assert_eq!(x.val_acc.to_bits(), y.val_acc.to_bits(), "epoch {epoch} val_acc");
    }
    assert_eq!(
        a.test_acc.to_bits(),
        b.test_acc.to_bits(),
        "test accuracy {} vs {}",
        a.test_acc,
        b.test_acc
    );
}

#[test]
fn same_seed_same_threads_is_bit_identical() {
    let (r1, params1) = run_training(1);
    let (r2, params2) = run_training(1);
    assert_identical(&r1, &r2);
    assert_eq!(params1, params2, "trained weights diverged between identical runs");
}

#[test]
fn same_seed_multithreaded_is_bit_identical() {
    // The CPU kernels partition work deterministically, so even with
    // parallel workers two runs at the same thread count must agree.
    let (r1, params1) = run_training(2);
    let (r2, params2) = run_training(2);
    assert_identical(&r1, &r2);
    assert_eq!(params1, params2);
}
