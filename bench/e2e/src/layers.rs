//! Every call the benchmark makes into the repo's crates goes through this
//! file: the correctness oracle, the in-process `train_epoch` workload, and the
//! single-thread layer replay of a traced run. The functions it calls are the
//! signatures a later refactor must keep or shim (listed in the README).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fg_gnn::backend::Dir;
use fg_gnn::data::SbmTask;
use fg_gnn::loss::{accuracy, softmax_cross_entropy};
use fg_gnn::models::{build_model, Model};
use fg_gnn::nn::Optimizer;
use fg_gnn::{
    gather_rows, infer_batch, prepare_seeds, FeatgraphBackend, GnnGraph, GraphBackend, Tape,
};
use fg_graph::{sample_subgraph, SampleConfig, VId};
use fg_serve::frame::{self, WireReply};
use fg_serve::protocol::{self, Request};
use fg_serve::{Engine, InferRequest, InferSeedsRequest, ServeConfig};
use fg_tensor::{ops, Dense2};

use crate::driver::Kept;
use crate::ledger::Metrics;
use crate::stats::median;
use crate::stream::{self, Block, Body, Kind, Op, Workload};
use crate::trace::Recorder;
use crate::wire::Proto;

/// Ops whose request and reply bytes go through the server's codec in the
/// replay (cheap, so more than `replay_ops`).
const CODEC_OPS: u64 = 200;
/// The replay runs on one thread under this span id.
const REPLAY_REQ: u64 = 0;

/// The workload's dataset, generated exactly as `fgserve serve` generates it.
pub struct Dataset {
    task: SbmTask,
    /// Seconds `SbmTask::generate` took (graph, CSR both ways, features).
    pub build_s: f64,
}

impl Dataset {
    /// Generate the dataset for `w` under `seed`.
    pub fn generate(w: &Workload, seed: u64) -> Dataset {
        let t0 = Instant::now();
        let task = SbmTask::generate(w.vertices, w.classes, w.avg_deg, w.noise, seed);
        Dataset {
            task,
            build_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Edges of the generated graph.
    pub fn num_edges(&self) -> usize {
        self.task.graph.num_edges()
    }
}

fn model_for(w: &Workload, name: &str, seed: u64) -> Box<dyn Model> {
    build_model(name, w.in_dim(), w.hidden, w.classes, seed)
}

fn sample_config(w: &Workload, sample_seed: u64) -> SampleConfig {
    let Kind::Seeds { fanout, .. } = w.kind else {
        panic!("{} does not sample", w.name);
    };
    SampleConfig::new(fanout.iter().map(|&f| f as usize).collect(), sample_seed)
}

fn argmax(logits: &[f32]) -> u64 {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i as u64)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---- oracle ----------------------------------------------------------------

/// The sampled path a seeds reply must equal bitwise:
/// `prepare_seeds → gather_rows → override → infer_batch`.
fn seeds_oracle(
    w: &Workload,
    data: &Dataset,
    model: &dyn Model,
    backend: &dyn GraphBackend,
    seeds: &[u64],
    sample_seed: u64,
    block: &Block,
) -> Result<(Vec<Vec<f32>>, u64, u64), String> {
    let seeds: Vec<usize> = seeds.iter().map(|&s| s as usize).collect();
    let cfg = sample_config(w, sample_seed);
    let (sub, sub_gnn) =
        prepare_seeds(&data.task.graph, &seeds, &cfg).map_err(|e| e.to_string())?;
    let mut gathered = gather_rows(&data.task.features, sub.locals());
    let cols = w.in_dim();
    for (i, &local) in sub.seed_locals().iter().enumerate() {
        gathered
            .row_mut(local as usize)
            .copy_from_slice(&block.values[i * cols..(i + 1) * cols]);
    }
    let seed_locals: Vec<usize> = sub.seed_locals().iter().map(|&l| l as usize).collect();
    let rows = infer_batch(model, &sub_gnn, &gathered, backend, &seed_locals)
        .map_err(|e| e.to_string())?;
    Ok((rows, sub.num_vertices() as u64, sub.num_edges() as u64))
}

/// Check kept replies against the in-process oracle, bitwise. Returns how
/// many replies were checked.
pub fn check_replies(
    w: &Workload,
    seed: u64,
    data: &Dataset,
    kept: &[Kept],
    pool0: &[Block],
) -> Result<usize, String> {
    for &name in w.models {
        let model = model_for(w, name, seed);
        let of_model: Vec<&Kept> = kept.iter().filter(|k| k.op.model == name).collect();
        match w.kind {
            Kind::Full => {
                let backend = FeatgraphBackend::cpu(1);
                let nodes: Vec<usize> = of_model.iter().map(|k| k.rows[0].node as usize).collect();
                if nodes.is_empty() {
                    continue;
                }
                let expect = infer_batch(
                    model.as_ref(),
                    &data.task.graph,
                    &data.task.features,
                    &backend,
                    &nodes,
                )
                .map_err(|e| e.to_string())?;
                for (k, want) in of_model.iter().zip(&expect) {
                    let got = &k.rows[0];
                    if !same_bits(&got.logits, want) || got.class != argmax(want) {
                        return Err(format!(
                            "{}: {name} node {} differs from infer_batch",
                            k.op.id, got.node
                        ));
                    }
                }
            }
            Kind::Seeds { .. } => {
                for k in of_model {
                    let Body::Seeds {
                        seeds,
                        sample_seed,
                        block,
                    } = &k.op.body
                    else {
                        return Err(format!("{}: not a seeds op", k.op.id));
                    };
                    // A backend's plans belong to one graph: a fresh one per subgraph.
                    let backend = FeatgraphBackend::cpu(1);
                    let (expect, sub_v, sub_e) = seeds_oracle(
                        w,
                        data,
                        model.as_ref(),
                        &backend,
                        seeds,
                        *sample_seed,
                        &pool0[*block],
                    )?;
                    if k.sub != Some((sub_v, sub_e)) {
                        return Err(format!(
                            "{}: subgraph {:?}, oracle ({sub_v}, {sub_e})",
                            k.op.id, k.sub
                        ));
                    }
                    for (got, want) in k.rows.iter().zip(&expect) {
                        if !same_bits(&got.logits, want) || got.class != argmax(want) {
                            return Err(format!(
                                "{}: {name} seed {} differs from the oracle",
                                k.op.id, got.node
                            ));
                        }
                    }
                }
            }
            Kind::Train => return Err("train_epoch has no replies".into()),
        }
    }
    Ok(kept.len())
}

// ---- train_epoch -------------------------------------------------------------

/// When each phase of one model's epoch started and ended.
pub struct EpochClock {
    /// Model name.
    pub model: &'static str,
    /// Tape build and forward pass.
    pub fwd: (Instant, Instant),
    /// Backward pass and gradient collection.
    pub bwd: (Instant, Instant),
    /// Optimizer update of every parameter.
    pub update: (Instant, Instant),
    /// Training loss of this epoch.
    pub loss: f64,
}

struct Trainee {
    name: &'static str,
    model: Box<dyn Model>,
    backend: FeatgraphBackend,
    first_loss: f64,
    last_loss: f64,
    val_acc: f64,
}

/// The `train_epoch` workload: the paper's three models trained side by
/// side, one epoch of each per round, on the FeatGraph CPU backend.
pub struct Trainer {
    task: SbmTask,
    models: Vec<Trainee>,
    opt: Optimizer,
    rounds: usize,
}

impl Trainer {
    /// Generate the task and build the models.
    pub fn new(w: &Workload, seed: u64) -> Trainer {
        let task = Dataset::generate(w, seed).task;
        let models = w
            .models
            .iter()
            .map(|&name| Trainee {
                name,
                model: model_for(w, name, seed),
                backend: FeatgraphBackend::cpu(1),
                first_loss: f64::NAN,
                last_loss: f64::NAN,
                val_acc: 0.0,
            })
            .collect();
        Trainer {
            task,
            models,
            opt: Optimizer::adam(0.01),
            rounds: 0,
        }
    }

    /// One round: one epoch (forward, loss, backward, update) of each model.
    pub fn round(&mut self) -> Vec<EpochClock> {
        self.rounds += 1;
        let step = self.rounds;
        let task = &self.task;
        let opt = self.opt;
        self.models
            .iter_mut()
            .map(|m| {
                let t0 = Instant::now();
                let mut tape = Tape::new(&task.graph, &m.backend, None);
                let x = tape.leaf(task.features.clone());
                let (logits, pvars) = m.model.forward(&mut tape, x);
                let t1 = Instant::now();
                let (loss, grad) =
                    softmax_cross_entropy(tape.value(logits), &task.labels, &task.train_mask);
                black_box(accuracy(tape.value(logits), &task.labels, &task.train_mask));
                m.val_acc = accuracy(tape.value(logits), &task.labels, &task.val_mask);
                let t2 = Instant::now();
                tape.backward(logits, grad);
                let grads: Vec<Dense2<f32>> = pvars.iter().map(|&v| tape.grad(v)).collect();
                let t3 = Instant::now();
                for (param, g) in m.model.params().into_iter().zip(&grads) {
                    opt.update(param, g, step);
                }
                let t4 = Instant::now();
                if step == 1 {
                    m.first_loss = loss;
                }
                m.last_loss = loss;
                EpochClock {
                    model: m.name,
                    fwd: (t0, t1),
                    bwd: (t2, t3),
                    update: (t3, t4),
                    loss,
                }
            })
            .collect()
    }

    /// Training must have worked: every model's loss fell below its first
    /// round's, and GCN separates the planted communities.
    pub fn check(&self) -> Result<(), String> {
        for m in &self.models {
            if m.last_loss.is_nan() || m.last_loss >= m.first_loss {
                return Err(format!(
                    "{}: loss {} after {} rounds, {} after the first",
                    m.name, m.last_loss, self.rounds, m.first_loss
                ));
            }
        }
        match self.models.iter().find(|m| m.name == "gcn") {
            Some(gcn) if gcn.val_acc < 0.9 => {
                Err(format!("gcn validation accuracy {:.3} < 0.9", gcn.val_acc))
            }
            _ => Ok(()),
        }
    }
}

// ---- layer replay (T3) -------------------------------------------------------

/// Call `f` once unrecorded, then as a span per call until at least
/// `MIN_REPS` calls and `BUDGET` have passed; returns the median in ms.
fn probe<T>(rec: &mut Recorder, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 200;
    const BUDGET: Duration = Duration::from_millis(40);
    black_box(f());
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < MIN_REPS || (start.elapsed() < BUDGET && ms.len() < MAX_REPS) {
        let t0 = Instant::now();
        black_box(f());
        let t1 = Instant::now();
        rec.span(name, Some("replay"), REPLAY_REQ, t0, t1);
        ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    median(&ms)
}

fn pattern(rows: usize, cols: usize, salt: usize) -> Dense2<f32> {
    Dense2::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt) % 97) as f32 / 97.0 - 0.5
    })
}

/// STREAM-triad bandwidth and multiply-add peak of this host, measured in
/// this process so the kernels they normalise share its conditions. Runs
/// last: freeing its 64 MiB arrays changes how the allocator serves the
/// tensors of whatever is timed afterwards.
fn host_probes(rec: &mut Recorder, out: &mut Metrics) {
    const TRIAD_ELEMS: usize = 16 << 20; // 64 MiB of f32 per array
    let b = vec![1.5f32; TRIAD_ELEMS];
    let c = vec![0.25f32; TRIAD_ELEMS];
    let mut a = vec![0.0f32; TRIAD_ELEMS];
    let triad_ms = probe(rec, "host.triad", || {
        let s = black_box(3.0f32);
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
    });
    let triad_gbps = (3 * TRIAD_ELEMS * 4) as f64 / (triad_ms * 1e-3) / 1e9;

    // Independent accumulators wide enough to fill the vector units of
    // whatever ISA this build targets; mul then add, as `ops::matmul` does.
    const LANES: usize = 32;
    const ITERS: usize = 2_000_000;
    let fma_ms = probe(rec, "host.fma", || {
        let a = black_box([1.000_000_1f32; LANES]);
        let b = black_box([1.0e-9f32; LANES]);
        let mut acc = [1.0f32; LANES];
        for _ in 0..ITERS {
            for l in 0..LANES {
                acc[l] = acc[l] * a[l] + b[l];
            }
        }
        acc
    });
    let fma_gflops = (2 * LANES * ITERS) as f64 / (fma_ms * 1e-3) / 1e9;
    out.put("host.triad_gbps", triad_gbps);
    out.put("host.fma_gflops", fma_gflops);
    let frac = |out: &Metrics, rate: &str| out.get(rate).expect("kernel probes ran");
    out.put(
        "core.spmm_sum_bw_frac",
        frac(out, "core.spmm_sum_gbps") / triad_gbps,
    );
    out.put(
        "tensor.matmul_fma_frac",
        frac(out, "tensor.matmul_gflops") / fma_gflops,
    );
}

/// `fg_tensor::ops` GEMMs at the model's first-layer shape.
fn tensor_probes(rec: &mut Recorder, n: usize, in_dim: usize, hidden: usize, out: &mut Metrics) {
    let x = pattern(n, in_dim, 1);
    let w = pattern(in_dim, hidden, 2);
    let g = pattern(n, hidden, 3);
    let mm = probe(rec, "tensor.matmul", || {
        ops::matmul(&x, &w).expect("shapes")
    });
    let gflops = (2 * n * in_dim * hidden) as f64 / (mm * 1e-3) / 1e9;
    out.put("tensor.matmul_ms", mm);
    out.put("tensor.matmul_gflops", gflops);
    // weight gradient xᵀ·g and input gradient g·wᵀ of the same layer
    out.put(
        "tensor.matmul_at_ms",
        probe(rec, "tensor.matmul_at", || {
            ops::matmul_at(&x, &g).expect("shapes")
        }),
    );
    out.put(
        "tensor.matmul_bt_ms",
        probe(rec, "tensor.matmul_bt", || {
            ops::matmul_bt(&g, &w).expect("shapes")
        }),
    );
}

/// The sparse templates through `FeatgraphBackend`'s `GraphBackend` methods.
fn kernel_probes(rec: &mut Recorder, g: &GnnGraph, out: &mut Metrics) {
    let (n, m) = (g.num_vertices(), g.num_edges());
    {
        let cold = FeatgraphBackend::cpu(1);
        let x = pattern(n, 64, 4);
        let first = rec.time("core.plan_first_call", Some("replay"), REPLAY_REQ, || {
            let t0 = Instant::now();
            black_box(cold.mean_spmm(g, &x));
            t0.elapsed()
        });
        out.put("core.plan_first_call_ms", first.as_secs_f64() * 1e3);
    }
    let backend = FeatgraphBackend::cpu(1);
    let weights = pattern(m, 1, 5);
    let sl = pattern(n, 1, 6);
    let sr = pattern(n, 1, 7);
    let mut sum_d64 = 0.0;
    let mut dot_d64 = 0.0;
    for d in [32, 64] {
        let x = pattern(n, d, 8);
        let y = pattern(n, d, 9);
        let ms = [
            (
                "spmm_sum",
                probe(rec, "core.spmm_sum", || {
                    backend.weighted_spmm(g, Dir::Fwd, &x, None)
                }),
            ),
            (
                "spmm_rev",
                probe(rec, "core.spmm_rev", || {
                    backend.weighted_spmm(g, Dir::Rev, &x, None)
                }),
            ),
            (
                "spmm_mean",
                probe(rec, "core.spmm_mean", || backend.mean_spmm(g, &x)),
            ),
            (
                "spmm_weighted",
                probe(rec, "core.spmm_weighted", || {
                    backend.weighted_spmm(g, Dir::Fwd, &x, Some(&weights))
                }),
            ),
            (
                "sddmm_dot",
                probe(rec, "core.sddmm_dot", || backend.sddmm_dot(g, &x, &y)),
            ),
            (
                "fused_attn",
                probe(rec, "core.fused_attn", || {
                    backend.fused_attention(g, &x, &sl, &sr, 0.2)
                }),
            ),
            (
                "unfused_attn",
                probe(rec, "core.unfused_attn", || {
                    backend.unfused_attention(g, &x, &sl, &sr, 0.2)
                }),
            ),
        ];
        for (kernel, v) in ms {
            out.put(format!("core.{kernel}_d{d}_ms"), v);
        }
        if d == 64 {
            (sum_d64, dot_d64) = (ms[0].1, ms[4].1);
        }
    }
    // GAT's score shapes: |V|×1 operands, |E|×1 edge tensor.
    out.put(
        "core.sddmm_add_ms",
        probe(rec, "core.sddmm_add", || backend.sddmm_add(g, &sl, &sr)),
    );
    out.put(
        "core.edge_sum_ms",
        probe(rec, "core.edge_sum", || {
            backend.edge_sum(g, Dir::Fwd, &weights)
        }),
    );
    // Computed, not measured: one index and one d-wide source row per edge,
    // one d-wide output row per vertex; 2d FLOPs per edge for the dot.
    let d = 64;
    let spmm_bytes = (4 * m + 4 * d * m + 4 * d * n) as f64;
    out.put("core.spmm_sum_gbps", spmm_bytes / (sum_d64 * 1e-3) / 1e9);
    out.put(
        "core.sddmm_dot_gflops",
        (2 * d * m) as f64 / (dot_d64 * 1e-3) / 1e9,
    );
}

fn request_of(w: &Workload, bytes: &[u8]) -> Request {
    match w.proto {
        Proto::Binary => {
            let frame =
                frame::read_frame(&mut &bytes[..], false).expect("the benchmark's own frame");
            frame::decode_request(&frame).expect("the benchmark's own request")
        }
        Proto::Text => {
            let line = std::str::from_utf8(bytes).expect("ASCII request");
            protocol::parse_request(line.trim_end()).expect("the benchmark's own request")
        }
    }
}

/// Serving layers, one op at a time on this thread: the server's codec on the
/// workload's bytes, the engine in process, and for sampled workloads the
/// sampler, the gather and the sampled forward. Returns op 0's subgraph for
/// sampled workloads (what their kernels run on).
fn serving_replay(
    rec: &mut Recorder,
    w: &Workload,
    seed: u64,
    data: &Dataset,
    pool0: &[Block],
    out: &mut Metrics,
) -> Option<GnnGraph> {
    let task = &data.task;
    let engine = Engine::new(ServeConfig::default());
    for &name in w.models {
        engine.register_model(
            name,
            model_for(w, name, seed),
            task.graph.clone(),
            task.features.clone(),
        );
    }
    let ops: Vec<Op> = (0..CODEC_OPS).map(|i| stream::op(w, seed, 0, i)).collect();
    let mut bytes = Vec::new();
    // Untimed: first touches and the first plan per model.
    for op in ops.iter().take(4) {
        bytes.clear();
        stream::render(w, op, pool0, &mut bytes);
        answer(&engine, request_of(w, &bytes));
    }
    for (i, op) in ops.iter().enumerate() {
        bytes.clear();
        stream::render(w, op, pool0, &mut bytes);
        let req = rec.time("wire.decode_req", Some("replay"), REPLAY_REQ, || {
            request_of(w, &bytes)
        });
        if (i as u64) < w.replay_ops {
            let reply = rec.time("engine.infer", Some("replay"), REPLAY_REQ, || {
                answer(&engine, req)
            });
            rec.time(
                "wire.encode_reply",
                Some("replay"),
                REPLAY_REQ,
                || match w.proto {
                    Proto::Binary => black_box(frame::encode_reply(&reply)).len(),
                    Proto::Text => match &reply {
                        WireReply::Ok { id, resp } => {
                            black_box(protocol::format_ok(Some(id), resp)).len()
                        }
                        WireReply::Seeds { id, seeds, resp } => {
                            black_box(protocol::format_seeds_ok(Some(id), seeds, resp)).len()
                        }
                        other => panic!("unexpected reply {other:?}"),
                    },
                },
            );
        }
    }
    engine.shutdown();
    out.put(
        "wire.decode_req_p50_us",
        median(&rec.durations_us("wire.decode_req")),
    );
    out.put(
        "wire.encode_reply_p50_us",
        median(&rec.durations_us("wire.encode_reply")),
    );
    out.put(
        "engine.infer_p50_ms",
        median(&rec.durations_us("engine.infer")) / 1e3,
    );

    if !matches!(w.kind, Kind::Seeds { .. }) {
        return None;
    }
    let models: Vec<(&str, Box<dyn Model>)> = w
        .models
        .iter()
        .map(|&n| (n, model_for(w, n, seed)))
        .collect();
    let mut first_sub = None;
    let (mut sub_v, mut sub_e) = (Vec::new(), Vec::new());
    for op in ops.iter().take(w.replay_ops as usize) {
        let Body::Seeds {
            seeds,
            sample_seed,
            block,
        } = &op.body
        else {
            unreachable!("seeds workload");
        };
        let cfg = sample_config(w, *sample_seed);
        let seeds_v: Vec<VId> = seeds.iter().map(|&s| s as VId).collect();
        let sub = rec
            .time("graph.sample", Some("replay"), REPLAY_REQ, || {
                sample_subgraph(task.graph.fwd(), &seeds_v, &cfg)
            })
            .expect("seeds in range");
        sub_v.push(sub.num_vertices() as f64);
        sub_e.push(sub.num_edges() as f64);
        rec.time("gnn.gather", Some("replay"), REPLAY_REQ, || {
            black_box(gather_rows(&task.features, sub.locals()))
        });
        // The server reuses a schedule per subgraph shape and builds a
        // backend per request; the tuning probe stays outside the span.
        let partitions = FeatgraphBackend::auto_partitions(sub.graph(), w.in_dim());
        let model = &models
            .iter()
            .find(|(n, _)| *n == op.model)
            .expect("registered model")
            .1;
        rec.time("gnn.infer_seeds", Some("replay"), REPLAY_REQ, || {
            let backend = FeatgraphBackend::cpu_with_partitions(1, partitions);
            seeds_oracle(
                w,
                data,
                model.as_ref(),
                &backend,
                seeds,
                *sample_seed,
                &pool0[*block],
            )
            .expect("oracle path")
        });
        first_sub.get_or_insert_with(|| GnnGraph::new(sub.graph().clone()));
    }
    out.put(
        "graph.sample_p50_us",
        median(&rec.durations_us("graph.sample")),
    );
    out.put("graph.sub_vertices_mean", crate::stats::mean(&sub_v));
    out.put("graph.sub_edges_mean", crate::stats::mean(&sub_e));
    out.put("gnn.gather_p50_us", median(&rec.durations_us("gnn.gather")));
    out.put(
        "gnn.infer_seeds_p50_ms",
        median(&rec.durations_us("gnn.infer_seeds")) / 1e3,
    );
    first_sub
}

fn answer(engine: &Engine, req: Request) -> WireReply {
    match req {
        Request::Infer {
            model, node, id, ..
        } => WireReply::Ok {
            id: id.unwrap_or_default(),
            resp: engine
                .infer(InferRequest {
                    model,
                    node,
                    deadline: None,
                })
                .expect("in-process INFER"),
        },
        Request::InferSeeds {
            model,
            seeds,
            fanouts,
            sample_seed,
            feats,
            id,
            ..
        } => WireReply::Seeds {
            id: id.unwrap_or_default(),
            resp: engine
                .infer_seeds(InferSeedsRequest {
                    model,
                    seeds: seeds.clone(),
                    fanouts,
                    sample_seed,
                    feats,
                    deadline: None,
                })
                .expect("in-process INFER_SEEDS"),
            seeds,
        },
        other => panic!("the stream holds only inference requests, got {other:?}"),
    }
}

/// The layer replay of a traced run: every layer's public function timed on
/// this thread with a span per call, on the workload's own inputs. Metrics of
/// layers that are not on the workload's path are left out (reported as 0).
/// Also returns the in-process engine's latency (ms) for each replayed op, in
/// op order, for pairing with the same ops sent over the wire.
pub fn replay(
    rec: &mut Recorder,
    w: &Workload,
    seed: u64,
    data: &Dataset,
    pool0: &[Block],
) -> (Metrics, Vec<f64>) {
    let mut out = Metrics::default();
    let t0 = Instant::now();
    out.put("graph.build_s", data.build_s);
    let sub = match w.kind {
        Kind::Train => None,
        Kind::Seeds { .. } => serving_replay(rec, w, seed, data, pool0, &mut out),
        Kind::Full => {
            serving_replay(rec, w, seed, data, pool0, &mut out);
            let backend = FeatgraphBackend::cpu(1);
            let metrics = [
                "gnn.forward_gcn_ms",
                "gnn.forward_graphsage_ms",
                "gnn.forward_gat_ms",
            ];
            for (&name, metric) in w.models.iter().zip(metrics) {
                let model = model_for(w, name, seed);
                let forward = || {
                    infer_batch(
                        model.as_ref(),
                        &data.task.graph,
                        &data.task.features,
                        &backend,
                        &[0],
                    )
                };
                out.put(
                    metric,
                    probe(rec, "gnn.forward", || forward().expect("forward")),
                );
            }
            None
        }
    };
    // Sampled workloads run their kernels on request-sized subgraphs.
    let graph = sub.as_ref().unwrap_or(&data.task.graph);
    tensor_probes(rec, graph.num_vertices(), w.in_dim(), w.hidden, &mut out);
    kernel_probes(rec, graph, &mut out);
    host_probes(rec, &mut out);
    rec.span("replay", None, REPLAY_REQ, t0, Instant::now());
    let engine_ms = rec
        .durations_us("engine.infer")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    (out, engine_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::workload;

    fn small(name: &str) -> Workload {
        Workload {
            vertices: 600,
            avg_deg: 12,
            replay_ops: 6,
            ..*workload(name).unwrap()
        }
    }

    #[test]
    fn replay_reports_the_layers_on_each_workloads_path() {
        for (name, present, absent) in [
            ("infer_full", "gnn.forward_gat_ms", "graph.sample_p50_us"),
            (
                "seeds_override",
                "gnn.infer_seeds_p50_ms",
                "gnn.forward_gcn_ms",
            ),
            (
                "seeds_text_wide",
                "wire.decode_req_p50_us",
                "gnn.forward_gcn_ms",
            ),
            ("train_epoch", "core.spmm_rev_d32_ms", "engine.infer_p50_ms"),
        ] {
            let w = small(name);
            let data = Dataset::generate(&w, 5);
            let pool = stream::pool(&w, 5, 0);
            let mut rec = Recorder::new(Instant::now(), 0);
            let (m, engine_ms) = replay(&mut rec, &w, 5, &data, &pool);
            assert_eq!(
                engine_ms.len(),
                if w.kind == Kind::Train {
                    0
                } else {
                    w.replay_ops as usize
                }
            );
            assert!(m.get(present).is_some_and(|v| v > 0.0), "{name}: {present}");
            assert!(m.get(absent).is_none(), "{name}: {absent}");
            assert!(m.get("host.triad_gbps").unwrap() > 0.0);
            for (metric, _) in &m.0 {
                assert!(
                    crate::ledger::LAYERS.iter().any(|l| l.name == metric),
                    "{metric} not in the ledger"
                );
            }
        }
    }

    #[test]
    fn training_rounds_learn_and_repeat_bit_for_bit() {
        let w = small("train_epoch");
        let losses = |seed| {
            let mut t = Trainer::new(&w, seed);
            let mut bits = Vec::new();
            for _ in 0..12 {
                bits.extend(t.round().iter().map(|c| c.loss.to_bits()));
            }
            t.check().unwrap();
            bits
        };
        assert_eq!(losses(3), losses(3));
        assert_ne!(losses(3), losses(4));
    }
}
