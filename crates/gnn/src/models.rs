//! The three evaluation models of §V-E: 2-layer GCN, GraphSage, and GAT.


use fg_telemetry::span;
use fg_tensor::{ops, Dense2};

use crate::nn::{init_rng, Param};
use crate::tape::{Tape, Var};

/// A trainable GNN model.
///
/// Models are `Send + Sync`: parameters are plain tensors and `forward`
/// takes `&self`, so a boxed model can move to a serving worker thread and
/// be shared behind an `Arc`/`Mutex` (the `fg-serve` engine relies on this).
pub trait Model: Send + Sync {
    /// Model name ("GCN", "GraphSage", "GAT").
    fn name(&self) -> &'static str;

    /// Mutable access to every parameter, in a stable order.
    fn params(&mut self) -> Vec<&mut Param>;

    /// Number of message-passing layers. Sampled inference cuts one block
    /// per layer, so layer boundaries must be the points where activations
    /// cross graph edges.
    fn num_layers(&self) -> usize;

    /// Build layer `layer`'s computation on top of activation `h`: the
    /// layer's graph aggregation, dense transform, and (for every layer
    /// but the last) its activation function. Returns the layer output and
    /// the tape vars of the layer's parameters, in [`Model::params`] order
    /// restricted to this layer. Parameters enter the tape through
    /// [`Tape::param`] — they are what [`Tape::backward`] differentiates
    /// for; `h` may be a constant. Each layer output is a pure row-wise +
    /// aggregation function of `h`, which is what lets a block compute any
    /// subset of a layer's rows without changing any value.
    ///
    /// `h` has one row per row the tape's graph reads; the output has one
    /// row per row it writes (on a whole-graph tape, every row). The graph
    /// ops write only those rows, so the only narrowing a layer does is a
    /// self term's [`Tape::dst_rows`]. On a layer-0 tape holding a
    /// [`Tape::table`], the layer reads its row-wise tensors from there
    /// instead of computing them from `h`.
    fn forward_layer(&self, tape: &mut Tape<'_>, h: Var, layer: usize) -> (Var, Vec<Var>);

    /// Layer 0's row-wise tensors over the rows of `x`: what
    /// [`Model::forward_layer`] computes from each input row alone before it
    /// reads the graph, in the order it reads them from [`Tape::table`].
    /// A row of each depends only on the same row of `x` (`ops::matmul`
    /// rows are independent), so rows gathered from a table computed once
    /// over every vertex are bitwise the rows the layer would compute from
    /// the gathered features. `None` (the default) for a model whose layer
    /// 0 aggregates before it multiplies.
    fn layer0_table(&self, x: &Dense2<f32>) -> Option<Vec<Dense2<f32>>> {
        let _ = x;
        None
    }

    /// Build the full forward computation. Returns the logits node and the
    /// tape vars of the parameters in the same order as [`Model::params`].
    /// The provided default folds [`Model::forward_layer`] over
    /// [`Model::num_layers`]; layer composition therefore *is* the forward
    /// pass, bitwise — not an approximation of it.
    fn forward(&self, tape: &mut Tape<'_>, x: Var) -> (Var, Vec<Var>) {
        let mut pvars = Vec::new();
        let mut h = x;
        for layer in 0..self.num_layers() {
            let (next, mut p) = self.forward_layer(tape, h, layer);
            pvars.append(&mut p);
            h = next;
        }
        (h, pvars)
    }
}

/// 2-layer graph convolutional network (Kipf & Welling): sum aggregation,
/// `softmax(Â ReLU(Â X W₁) W₂)` (bias terms included; normalization by
/// degree is folded into the aggregation choice).
struct Gcn {
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
}

impl Gcn {
    /// Build with Glorot initialization.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = init_rng(seed);
        Self {
            w1: Param::glorot(in_dim, hidden, &mut rng),
            b1: Param::zeros(1, hidden),
            w2: Param::glorot(hidden, classes, &mut rng),
            b2: Param::zeros(1, classes),
        }
    }
}

impl Model for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
    }

    fn num_layers(&self) -> usize {
        2
    }

    fn forward_layer(&self, tape: &mut Tape<'_>, h: Var, layer: usize) -> (Var, Vec<Var>) {
        let (w, b) = match layer {
            0 => (&self.w1, &self.b1),
            1 => (&self.w2, &self.b2),
            other => panic!("GCN has 2 layers, asked for layer {other}"),
        };
        let w = tape.param(w.value.clone());
        let b = tape.param(b.value.clone());
        // aggregate then transform (generalized SpMM is the hot op)
        let (written, read) = tape.block_rows();
        let _span = span!(
            "model/layer",
            "model=GCN layer={} rows={written}/{read}",
            layer + 1
        );
        let agg = tape.mean_spmm(h);
        let lin = tape.matmul(agg, w);
        let pre = tape.add_bias(lin, b);
        let out = if layer == 0 { tape.relu(pre) } else { pre };
        (out, vec![w, b])
    }
}

/// 2-layer GraphSage (Hamilton et al.): self + mean-of-neighbors transforms.
struct GraphSage {
    ws1: Param,
    wn1: Param,
    b1: Param,
    ws2: Param,
    wn2: Param,
    b2: Param,
}

impl GraphSage {
    /// Build with Glorot initialization.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = init_rng(seed);
        Self {
            ws1: Param::glorot(in_dim, hidden, &mut rng),
            wn1: Param::glorot(in_dim, hidden, &mut rng),
            b1: Param::zeros(1, hidden),
            ws2: Param::glorot(hidden, classes, &mut rng),
            wn2: Param::glorot(hidden, classes, &mut rng),
            b2: Param::zeros(1, classes),
        }
    }
}

impl Model for GraphSage {
    fn name(&self) -> &'static str {
        "GraphSage"
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.ws1,
            &mut self.wn1,
            &mut self.b1,
            &mut self.ws2,
            &mut self.wn2,
            &mut self.b2,
        ]
    }

    fn num_layers(&self) -> usize {
        2
    }

    fn forward_layer(&self, tape: &mut Tape<'_>, h: Var, layer: usize) -> (Var, Vec<Var>) {
        let (ws, wn, b) = match layer {
            0 => (&self.ws1, &self.wn1, &self.b1),
            1 => (&self.ws2, &self.wn2, &self.b2),
            other => panic!("GraphSage has 2 layers, asked for layer {other}"),
        };
        let ws = tape.param(ws.value.clone());
        let wn = tape.param(wn.value.clone());
        let b = tape.param(b.value.clone());
        let pre = {
            let (written, read) = tape.block_rows();
            let _span = span!(
                "model/layer",
                "model=GraphSage layer={} rows={written}/{read}",
                layer + 1
            );
            let hdst = tape.dst_rows(h);
            let selfpart = tape.matmul(hdst, ws);
            let agg = tape.mean_spmm(h);
            let neighpart = tape.matmul(agg, wn);
            let sum = tape.add(selfpart, neighpart);
            tape.add_bias(sum, b)
        };
        let out = if layer == 0 { tape.relu(pre) } else { pre };
        (out, vec![ws, wn, b])
    }
}

/// 2-layer single-head graph attention network (Veličković et al.), the
/// configuration used in the Table VI harness.
/// Attention scores use the additive form `LeakyReLU(aₗ·h_u + aᵣ·h_v)` —
/// one SDDMM — normalized with edge softmax, then aggregated with an
/// attention-weighted generalized SpMM. GAT therefore exercises both
/// kernel families, as the paper notes (§V-E).
struct Gat {
    /// `(W, a_l, a_r)` for layer 1, then layer 2.
    layer1: (Param, Param, Param),
    layer2: (Param, Param, Param),
}

impl Gat {
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = init_rng(seed);
        let mut mk = |ind: usize, outd: usize| {
            (
                Param::glorot(ind, outd, &mut rng),
                Param::glorot(outd, 1, &mut rng),
                Param::glorot(outd, 1, &mut rng),
            )
        };
        Self {
            layer1: mk(in_dim, hidden),
            layer2: mk(hidden, classes),
        }
    }
}

impl Model for Gat {
    fn name(&self) -> &'static str {
        "GAT"
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let (w1, al1, ar1) = &mut self.layer1;
        let (w2, al2, ar2) = &mut self.layer2;
        vec![w1, al1, ar1, w2, al2, ar2]
    }

    fn num_layers(&self) -> usize {
        2
    }

    fn forward_layer(&self, tape: &mut Tape<'_>, h: Var, layer: usize) -> (Var, Vec<Var>) {
        let (w, al, ar) = match layer {
            0 => &self.layer1,
            1 => &self.layer2,
            other => panic!("GAT has 2 layers, asked for layer {other}"),
        };
        let w = tape.param(w.value.clone());
        let al = tape.param(al.value.clone());
        let ar = tape.param(ar.value.clone());
        let attended = {
            let (written, read) = tape.block_rows();
            let _span = span!(
                "model/layer",
                "model=GAT layer={} heads=1 rows={written}/{read}",
                layer + 1
            );
            // hw, sl (n×1 source scores) and sr (n×1 destination scores)
            // over every row the attention reads; it writes only the rows
            // the tape's graph writes
            let (hw, sl, sr) = match tape.table().get(0..3) {
                Some(&[hw, sl, sr]) => (hw, sl, sr),
                _ => {
                    let hw = tape.matmul(h, w);
                    (hw, tape.matmul(hw, al), tape.matmul(hw, ar))
                }
            };
            // SDDMM score → edge softmax → attention-weighted SpMM, one
            // fused node forward and backward
            tape.gat_attention(hw, sl, sr, 0.2)
        };
        let out = if layer == 0 { tape.relu(attended) } else { attended };
        (out, vec![w, al, ar])
    }

    fn layer0_table(&self, x: &Dense2<f32>) -> Option<Vec<Dense2<f32>>> {
        let matmul = |a: &Dense2<f32>, b: &Param| ops::matmul(a, &b.value).expect("layer-0 shapes");
        let (w, al, ar) = &self.layer1;
        let hw = matmul(x, w);
        let (sl, sr) = (matmul(&hw, al), matmul(&hw, ar));
        Some(vec![hw, sl, sr])
    }
}

/// Convenience constructor by name.
pub fn build_model(name: &str, in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Box<dyn Model> {
    let _mem = fg_telemetry::MemScope::enter(fg_telemetry::MemComponent::ModelParams);
    match name {
        "gcn" | "GCN" => Box::new(Gcn::new(in_dim, hidden, classes, seed)),
        "graphsage" | "GraphSage" | "sage" => {
            Box::new(GraphSage::new(in_dim, hidden, classes, seed))
        }
        "gat" | "GAT" => Box::new(Gat::new(in_dim, hidden, classes, seed)),
        other => panic!("unknown model {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FeatgraphBackend;
    use crate::ggraph::GnnGraph;
    use fg_tensor::Dense2;

    #[test]
    fn forward_shapes() {
        let g = GnnGraph::new(fg_graph::uniform(40, 4, 3));
        let backend = FeatgraphBackend::cpu(1);
        let x0 = Dense2::from_fn(40, 6, |v, i| ((v + i) % 5) as f32 * 0.1);
        for name in ["gcn", "graphsage", "gat"] {
            let model = build_model(name, 6, 8, 3, 7);
            let mut tape = Tape::new(&g, &backend, None);
            let x = tape.leaf(x0.clone());
            let (logits, pvars) = model.forward(&mut tape, x);
            assert_eq!(tape.value(logits).shape(), (40, 3), "{name}");
            assert!(!pvars.is_empty());
            assert!(
                tape.value(logits).as_slice().iter().all(|v| v.is_finite()),
                "{name} produced non-finite logits"
            );
        }
    }

    #[test]
    fn param_counts() {
        let mut gcn = Gcn::new(4, 8, 3, 1);
        assert_eq!(gcn.params().len(), 4);
        let mut sage = GraphSage::new(4, 8, 3, 1);
        assert_eq!(sage.params().len(), 6);
        let mut gat = Gat::new(4, 8, 3, 1);
        assert_eq!(gat.params().len(), 6);
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        let _ = build_model("transformer", 4, 8, 3, 1);
    }
}
