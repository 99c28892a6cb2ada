//! The benchmark's metric names: the end-to-end metrics every workload
//! reports, and the per-layer ledger with, for each metric, the layer that
//! owns it and the end-to-end metric and workload it is expected to move.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric; its bound lives in `BENCHMARK.json`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Better::Lower,
    },
];

/// A per-layer metric.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Owning layer (module).
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload
    /// (W1 `infer_full`, W2 `seeds_override`, W3 `seeds_text_wide`,
    /// W4 `train_epoch`).
    pub moves: &'static str,
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        layer,
        moves,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        layer,
        moves,
    }
}

const DRIVER: &str = "driver";
const FRONT: &str = "front-end";
const ENGINE: &str = "engine";
const GRAPH: &str = "fg-graph";
const GNN: &str = "fg-gnn";
const CORE: &str = "featgraph";
const TENSOR: &str = "fg-tensor";
const HOST: &str = "host";
const PROCESS: &str = "process";

const SANITY: &str = "sanity only; client.wait ~ op_p50_ms";
const FRONT_MOVES: &str = "op_p50_ms, ops_per_s: W3 strongly, W2 weakly, W1 none";
const QUEUE_MOVES: &str = "op_p50_ms: W2, W3; W1 weakly";
const KERNEL_FWD: &str = "op_p50_ms, ops_per_s: W1 (and W4); W2, W3 none";
const KERNEL_BWD: &str = "op_p50_ms: W4 only";
const DENOMINATOR: &str = "none; denominator";

/// Every per-layer metric a traced run reports. A metric whose layer is not
/// on a workload's path reads 0 there.
pub const LAYERS: &[Layer] = &[
    lower("client.write_p50_us", "us", DRIVER, SANITY),
    lower("client.wait_p50_ms", "ms", DRIVER, SANITY),
    lower("client.read_parse_p50_us", "us", DRIVER, SANITY),
    lower(
        "client.rtt_p99_ms",
        "ms",
        DRIVER,
        "reported, not gated: too noisy at this sample count",
    ),
    lower(
        "trace.overhead_pct",
        "%",
        DRIVER,
        "none; traced vs untraced op_p50_ms in one run",
    ),
    lower("wire.req_bytes_mean", "B", FRONT, FRONT_MOVES),
    lower("wire.reply_bytes_mean", "B", FRONT, FRONT_MOVES),
    lower("wire.decode_req_p50_us", "us", FRONT, FRONT_MOVES),
    lower("wire.encode_reply_p50_us", "us", FRONT, FRONT_MOVES),
    lower("front.overhead_p50_ms", "ms", FRONT, FRONT_MOVES),
    lower("conn.accepted", "count", FRONT, "none; exact count"),
    lower("conn.bad_inputs", "count", FRONT, "failed ops"),
    lower("engine.infer_p50_ms", "ms", ENGINE, "op_p50_ms: W1, W2, W3"),
    lower("engine.queue_wait_p50_ms", "ms", ENGINE, QUEUE_MOVES),
    lower("engine.batch_form_p50_ms", "ms", ENGINE, QUEUE_MOVES),
    lower("engine.sample_p50_ms", "ms", ENGINE, "op_p50_ms: W2, W3"),
    lower(
        "engine.plan_compile_p50_ms",
        "ms",
        ENGINE,
        "op_p95_ms, setup_s: W2",
    ),
    lower(
        "engine.execute_p50_ms",
        "ms",
        ENGINE,
        "op_p50_ms, ops_per_s: W1; W2, W3 partly",
    ),
    lower("engine.exchange_p50_ms", "ms", ENGINE, "none at 1 shard"),
    lower("engine.serialize_p50_ms", "ms", ENGINE, "op_p50_ms: W3"),
    lower("engine.execute_p99_ms", "ms", ENGINE, "op_p95_ms: W1"),
    lower(
        "engine.queue_wait_p99_ms",
        "ms",
        ENGINE,
        "op_p95_ms: W2, W3",
    ),
    higher(
        "batcher.batch_size_mean",
        "req",
        ENGINE,
        "ops_per_s: W1; stays <= 2 with two connections",
    ),
    lower("batcher.batches", "count", ENGINE, "ops_per_s: W1"),
    higher("plan_cache.hit_ratio", "ratio", ENGINE, "op_p95_ms: W2, W3"),
    lower(
        "plan_cache.misses",
        "count",
        ENGINE,
        "op_p95_ms, setup_s: W2",
    ),
    lower("engine.shed", "count", ENGINE, "failed ops"),
    lower("engine.timeouts", "count", ENGINE, "failed ops"),
    lower(
        "engine.unattributed_pct",
        "%",
        ENGINE,
        "none; gap in the server's own phase ledger",
    ),
    lower(
        "graph.sample_p50_us",
        "us",
        GRAPH,
        "op_p50_ms: W2 (W3 weakly)",
    ),
    lower(
        "graph.sub_vertices_mean",
        "count",
        GRAPH,
        "none; exact size of the sampled work",
    ),
    lower(
        "graph.sub_edges_mean",
        "count",
        GRAPH,
        "none; exact size of the sampled work",
    ),
    lower("graph.build_s", "s", GRAPH, "setup_s: every workload"),
    lower("gnn.gather_p50_us", "us", GNN, "op_p50_ms: W2, W3"),
    lower("gnn.forward_gcn_ms", "ms", GNN, KERNEL_FWD),
    lower("gnn.forward_graphsage_ms", "ms", GNN, KERNEL_FWD),
    lower("gnn.forward_gat_ms", "ms", GNN, KERNEL_FWD),
    lower(
        "gnn.infer_seeds_p50_ms",
        "ms",
        GNN,
        "op_p50_ms, ops_per_s: W2, W3",
    ),
    lower("gnn.epoch_gcn_ms", "ms", GNN, KERNEL_BWD),
    lower("gnn.epoch_graphsage_ms", "ms", GNN, KERNEL_BWD),
    lower("gnn.epoch_gat_ms", "ms", GNN, KERNEL_BWD),
    lower("gnn.train_fwd_ms", "ms", GNN, KERNEL_BWD),
    lower("gnn.train_bwd_ms", "ms", GNN, KERNEL_BWD),
    lower("gnn.train_update_ms", "ms", GNN, KERNEL_BWD),
    lower("core.spmm_sum_d32_ms", "ms", CORE, KERNEL_FWD),
    lower("core.spmm_sum_d64_ms", "ms", CORE, KERNEL_FWD),
    lower("core.spmm_rev_d32_ms", "ms", CORE, KERNEL_BWD),
    lower("core.spmm_rev_d64_ms", "ms", CORE, KERNEL_BWD),
    lower("core.spmm_mean_d32_ms", "ms", CORE, KERNEL_FWD),
    lower("core.spmm_mean_d64_ms", "ms", CORE, KERNEL_FWD),
    lower("core.spmm_weighted_d32_ms", "ms", CORE, KERNEL_BWD),
    lower("core.spmm_weighted_d64_ms", "ms", CORE, KERNEL_BWD),
    lower("core.sddmm_dot_d32_ms", "ms", CORE, KERNEL_BWD),
    lower("core.sddmm_dot_d64_ms", "ms", CORE, KERNEL_BWD),
    lower("core.fused_attn_d32_ms", "ms", CORE, KERNEL_FWD),
    lower("core.fused_attn_d64_ms", "ms", CORE, KERNEL_FWD),
    lower("core.unfused_attn_d32_ms", "ms", CORE, KERNEL_BWD),
    lower("core.unfused_attn_d64_ms", "ms", CORE, KERNEL_BWD),
    lower("core.sddmm_add_ms", "ms", CORE, KERNEL_BWD),
    lower("core.edge_sum_ms", "ms", CORE, KERNEL_BWD),
    lower(
        "core.plan_first_call_ms",
        "ms",
        CORE,
        "setup_s: W1, W4; op_p50_ms: W2, W3 (a plan per request)",
    ),
    higher("core.spmm_sum_gbps", "GB/s", CORE, KERNEL_FWD),
    higher("core.sddmm_dot_gflops", "GFLOP/s", CORE, KERNEL_BWD),
    higher("core.spmm_sum_bw_frac", "ratio", CORE, KERNEL_FWD),
    lower("tensor.matmul_ms", "ms", TENSOR, "op_p50_ms: W1, W4"),
    higher(
        "tensor.matmul_gflops",
        "GFLOP/s",
        TENSOR,
        "op_p50_ms: W1, W4",
    ),
    higher(
        "tensor.matmul_fma_frac",
        "ratio",
        TENSOR,
        "op_p50_ms: W1, W4",
    ),
    lower("tensor.matmul_at_ms", "ms", TENSOR, KERNEL_BWD),
    lower("tensor.matmul_bt_ms", "ms", TENSOR, KERNEL_BWD),
    higher("host.triad_gbps", "GB/s", HOST, DENOMINATOR),
    higher("host.fma_gflops", "GFLOP/s", HOST, DENOMINATOR),
    lower("proc.server_threads", "count", PROCESS, "rss_peak_mb"),
    lower("mem.accounted_peak_mb", "MiB", PROCESS, "rss_peak_mb"),
];

/// Named values measured by one run, in the order they were measured.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    /// Record `name = value`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stream::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = LAYERS
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_schema_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} / {unit}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(LAYERS.len() <= 128);
    }
}
