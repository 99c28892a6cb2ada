//! Requires-grad pruning changes no number: a parameter's gradient is
//! bitwise the same whether the input features enter the tape as a constant
//! (`Tape::leaf`, the pruned backward) or as a differentiable leaf
//! (`Tape::param`, which makes the tape differentiate everything).

use fg_gnn::data::SbmTask;
use fg_gnn::loss::softmax_cross_entropy;
use fg_gnn::models::build_model;
use fg_gnn::{FeatgraphBackend, Tape};
use fg_tensor::Dense2;

fn param_grads(task: &SbmTask, model: &str, features_are_constant: bool) -> Vec<Dense2<f32>> {
    let backend = FeatgraphBackend::cpu(1);
    let model = build_model(model, task.in_dim(), 8, task.num_classes, 3);
    let mut tape = Tape::new(&task.graph, &backend, None);
    let x = if features_are_constant {
        tape.leaf(task.features.clone())
    } else {
        tape.param(task.features.clone())
    };
    let (logits, pvars) = model.forward(&mut tape, x);
    let (_, grad) = softmax_cross_entropy(tape.value(logits), &task.labels, &task.train_mask);
    tape.backward(logits, grad);
    let x_grad = tape.grad(x);
    assert_eq!(
        x_grad.as_slice().iter().any(|&v| v != 0.0),
        !features_are_constant,
        "only a param holds a gradient"
    );
    pvars.iter().map(|&v| tape.grad(v)).collect()
}

#[test]
fn parameter_gradients_are_bitwise_those_of_the_full_backward() {
    let task = SbmTask::generate(180, 3, 8, 2, 21);
    for model in ["gcn", "graphsage", "gat"] {
        let pruned = param_grads(&task, model, true);
        let full = param_grads(&task, model, false);
        assert_eq!(pruned.len(), full.len());
        for (i, (p, f)) in pruned.iter().zip(&full).enumerate() {
            let bits =
                |t: &Dense2<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p), bits(f), "{model} parameter {i}");
            assert!(
                p.as_slice().iter().any(|&v| v != 0.0),
                "{model} parameter {i} is all zero"
            );
        }
    }
}
