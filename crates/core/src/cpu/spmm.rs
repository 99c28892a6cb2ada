//! CPU generalized SpMM template.

use fg_graph::Graph;
use fg_ir::{Fds, KernelPattern, Reducer, Udf};
use fg_telemetry::{counter_add, span, Counter};
use fg_tensor::{Dense2, FeatElem};

use crate::cpu::skeleton::DstMajor;
use crate::error::KernelError;
use crate::inputs::GraphTensors;
use crate::ops::{self, MessageOp, WithMessage};
use crate::util;
use crate::RunStats;

/// Template-level options for the CPU SpMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSpmmOptions {
    /// Number of 1D source-vertex partitions (1 disables partitioning).
    pub graph_partitions: usize,
    /// Worker threads (1 = single-threaded, as in Table III).
    pub threads: usize,
    /// LLC size assumed by [`CpuSpmmOptions::auto`].
    pub llc_bytes: usize,
}

/// LLC of the paper's c5.9xlarge (25 MB); also a sane default elsewhere.
pub const DEFAULT_LLC_BYTES: usize = 25 * 1024 * 1024;

impl CpuSpmmOptions {
    /// Heuristic defaults: partition count from the cache model
    /// (`fg_graph::partition::partitions_for_cache`), all cores.
    ///
    /// When the OS cannot report its core count the thread count falls back
    /// to 1 — see [`crate::util::detected_threads`] for how that fallback is
    /// surfaced (stderr warning + `parallelism_fallbacks` counter).
    pub fn auto(graph: &Graph, udf: &Udf, fds: &Fds) -> Self {
        let tile_cols = udf.src_len.max(udf.dst_len).max(1) / fds.feature_tiles.max(1);
        let parts = fg_graph::partition::partitions_for_cache(
            graph.num_vertices(),
            tile_cols.max(1),
            std::mem::size_of::<f32>(),
            DEFAULT_LLC_BYTES,
        );
        Self::with_threads(parts, util::detected_threads())
    }

    /// Single-threaded, explicit partition count (kernel benchmarks).
    pub fn single_thread(graph_partitions: usize) -> Self {
        Self::with_threads(graph_partitions, 1)
    }

    /// Explicit thread and partition counts.
    pub fn with_threads(graph_partitions: usize, threads: usize) -> Self {
        Self {
            graph_partitions: graph_partitions.max(1),
            threads: threads.max(1),
            llc_bytes: DEFAULT_LLC_BYTES,
        }
    }
}

/// A compiled CPU generalized-SpMM kernel.
pub struct CpuSpmm {
    udf: Udf,
    agg: Reducer,
    fds: Fds,
    pattern: KernelPattern,
    plan: DstMajor,
}

impl CpuSpmm {
    /// Validate and build the execution plan (partitioned CSR, thread pool).
    pub fn compile(
        graph: &Graph,
        udf: &Udf,
        agg: Reducer,
        fds: &Fds,
        opts: &CpuSpmmOptions,
    ) -> Result<Self, KernelError> {
        udf.validate()?;
        Ok(Self {
            udf: udf.clone(),
            agg,
            fds: *fds,
            pattern: KernelPattern::of(udf),
            plan: DstMajor::build(graph, opts)?,
        })
    }

    /// The recognized kernel pattern (which message op will run).
    pub fn pattern(&self) -> KernelPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (partitioned CSR + degree
    /// array); feeds the serve engine's byte-bounded plan cache.
    pub fn mem_bytes(&self) -> u64 {
        self.plan.mem_bytes()
    }

    /// Execute the kernel. Vertex features may be stored as `f32`, `bf16` or
    /// `f16` (`V`): rows are widened as they are read, so half storage
    /// halves the bytes the kernel streams, and everything accumulates in
    /// `f32`. With `V = f32` every load is the identity.
    pub fn run<V: FeatElem>(
        &self,
        inputs: &GraphTensors<'_, f32, V>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        let (nv, ne) = (self.plan.num_vertices, self.plan.num_edges);
        inputs.validate(&self.udf, nv, ne, out, nv)?;
        let tiles = self.fds.feature_tiles.max(1);
        let _run_span = span!(
            "spmm/run",
            "pattern={:?} dtype={} d={} parts={} tiles={tiles}",
            self.pattern,
            V::DTYPE,
            self.udf.out_len,
            self.plan.parts.num_partitions()
        );
        counter_add(Counter::Partitions, self.plan.parts.num_partitions() as u64);
        counter_add(Counter::FeatureTiles, tiles as u64);

        let exec = Exec {
            k: self,
            tiles,
            out,
        };
        ops::lower(&self.udf, self.pattern, inputs, exec);
        Ok(RunStats::default())
    }
}

/// The SpMM template over one lowered message op.
struct Exec<'a> {
    k: &'a CpuSpmm,
    tiles: usize,
    out: &'a mut Dense2<f32>,
}

impl WithMessage for Exec<'_> {
    type Out = ();

    fn run<M: MessageOp + Copy>(self, op: M) {
        let tiles = if M::WHOLE_ROWS { 1 } else { self.tiles };
        let (plan, agg) = (&self.k.plan, self.k.agg);
        plan.aggregate("spmm/partition", agg, tiles, &op, self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::spmm_reference;
    use fg_graph::generators;

    fn check_against_reference(
        g: &Graph,
        udf: &Udf,
        agg: Reducer,
        inputs: &GraphTensors<'_, f32>,
        fds: &Fds,
        opts: &CpuSpmmOptions,
    ) {
        let k = CpuSpmm::compile(g, udf, agg, fds, opts).unwrap();
        let mut out = Dense2::zeros(g.num_vertices(), udf.out_len);
        k.run(inputs, &mut out).unwrap();
        let mut want = Dense2::zeros(g.num_vertices(), udf.out_len);
        spmm_reference(g, udf, agg, inputs, &mut want).unwrap();
        assert!(
            out.approx_eq(&want, 1e-4),
            "mismatch: max diff {} (pattern {:?}, fds {fds:?}, opts {opts:?})",
            out.max_abs_diff(&want),
            k.pattern()
        );
    }

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 31 + i * 7) % 23) as f32 * 0.25 - 2.0)
    }

    #[test]
    fn copy_src_sum_all_schedules() {
        let g = generators::uniform(200, 6, 5);
        let x = features(200, 32);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(32);
        for parts in [1, 4, 7] {
            for tiles in [1, 2, 5] {
                for threads in [1, 3] {
                    check_against_reference(
                        &g,
                        &udf,
                        Reducer::Sum,
                        &inputs,
                        &Fds::cpu_tiled(tiles),
                        &CpuSpmmOptions::with_threads(parts, threads),
                    );
                }
            }
        }
    }

    #[test]
    fn copy_src_max_and_mean() {
        let g = generators::uniform(150, 5, 9);
        let x = features(150, 16);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::copy_src(16);
        for agg in [Reducer::Max, Reducer::Mean, Reducer::Min] {
            check_against_reference(
                &g,
                &udf,
                agg,
                &inputs,
                &Fds::cpu_tiled(3),
                &CpuSpmmOptions::with_threads(4, 2),
            );
        }
    }

    #[test]
    fn zero_degree_vertices_finalize_to_zero() {
        // vertex 0 has no in-edges
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let x = Dense2::from_fn(3, 4, |_, _| -3.0f32);
        let udf = Udf::copy_src(4);
        let k = CpuSpmm::compile(&g, &udf, Reducer::Max, &Fds::default(), &CpuSpmmOptions::single_thread(1)).unwrap();
        let mut out = Dense2::zeros(3, 4);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
        assert_eq!(out.row(0), &[0.0; 4]);
        assert_eq!(out.row(1), &[-3.0; 4]);
    }

    #[test]
    fn src_op_dst_and_edge_kernels() {
        let g = generators::uniform(120, 4, 2);
        let x = features(120, 8);
        let xe = features(g.num_edges(), 8);
        let inputs = GraphTensors {
            vertex: &x,
            vertex_dst: None,
            edge: Some(&xe),
            params: &[],
        };
        for udf in [
            Udf::src_add_dst(8),
            Udf::src_mul_edge(8),
            Udf::copy_edge(8),
        ] {
            check_against_reference(
                &g,
                &udf,
                Reducer::Sum,
                &inputs,
                &Fds::cpu_tiled(2),
                &CpuSpmmOptions::with_threads(3, 2),
            );
        }
    }

    #[test]
    fn mlp_aggregation_matches_reference() {
        let g = generators::uniform(80, 4, 7);
        let x = features(80, 8);
        let w = Dense2::from_fn(8, 12, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.1 - 0.5);
        let params = [&w];
        let inputs = GraphTensors::with_params(&x, &params);
        let udf = Udf::mlp(8, 12);
        for (ft, rt) in [(1, 1), (3, 2), (4, 4)] {
            check_against_reference(
                &g,
                &udf,
                Reducer::Max,
                &inputs,
                &Fds::cpu_tiled2(ft, rt),
                &CpuSpmmOptions::with_threads(2, 2),
            );
        }
    }

    #[test]
    fn generic_fallback_handles_novel_udf() {
        use fg_ir::ScalarExpr;
        let g = generators::uniform(60, 3, 4);
        let x = features(60, 6);
        let inputs = GraphTensors::vertex_only(&x);
        // exp(src - dst) * 0.5 : not a recognized pattern
        let udf = Udf {
            out_len: 6,
            src_len: 6,
            dst_len: 6,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::Exp(Box::new(ScalarExpr::src_i().sub(ScalarExpr::dst_i())))
                .mul(ScalarExpr::Const(0.5)),
            post_relu: false,
        };
        let k = CpuSpmm::compile(&g, &udf, Reducer::Sum, &Fds::default(), &CpuSpmmOptions::single_thread(2)).unwrap();
        assert_eq!(k.pattern(), KernelPattern::Generic);
        check_against_reference(
            &g,
            &udf,
            Reducer::Sum,
            &inputs,
            &Fds::default(),
            &CpuSpmmOptions::with_threads(2, 2),
        );
    }

    #[test]
    fn rejects_bad_inputs_at_run_time() {
        let g = generators::uniform(10, 2, 1);
        let udf = Udf::copy_src(8);
        let k = CpuSpmm::compile(&g, &udf, Reducer::Sum, &Fds::default(), &CpuSpmmOptions::single_thread(1)).unwrap();
        let x = Dense2::<f32>::zeros(10, 4); // too narrow
        let mut out = Dense2::zeros(10, 8);
        assert!(k.run(&GraphTensors::vertex_only(&x), &mut out).is_err());
    }

    #[test]
    fn rejects_zero_partitions_at_compile_time() {
        let g = generators::uniform(10, 2, 1);
        let udf = Udf::copy_src(4);
        let opts = CpuSpmmOptions {
            graph_partitions: 0,
            threads: 1,
            llc_bytes: DEFAULT_LLC_BYTES,
        };
        assert!(matches!(
            CpuSpmm::compile(&g, &udf, Reducer::Sum, &Fds::default(), &opts),
            Err(KernelError::BadSchedule(_))
        ));
    }

    /// Half-precision vertex storage must track the same kernel run on the
    /// dequantized values: both sides see identical operand values and fold
    /// them in the same order, so they agree to f32 rounding.
    fn check_half<E: FeatElem>(
        g: &Graph,
        udf: &Udf,
        agg: Reducer,
        x: &Dense2<f32>,
        edge: Option<&Dense2<f32>>,
        params: &[&Dense2<f32>],
    ) {
        use fg_tensor::half::{dequantize, quantize};
        let k = CpuSpmm::compile(
            g,
            udf,
            agg,
            &Fds::cpu_tiled(2),
            &CpuSpmmOptions::with_threads(3, 2),
        )
        .unwrap();
        let xh: Dense2<E> = quantize(x);
        let half = GraphTensors {
            vertex: &xh,
            vertex_dst: None,
            edge,
            params,
        };
        let mut got = Dense2::zeros(g.num_vertices(), udf.out_len);
        k.run(&half, &mut got).unwrap();
        let wide = dequantize(&xh);
        let full = GraphTensors {
            vertex: &wide,
            vertex_dst: None,
            edge,
            params,
        };
        let mut want = Dense2::zeros(g.num_vertices(), udf.out_len);
        k.run(&full, &mut want).unwrap();
        assert!(
            got.approx_eq(&want, 1e-6),
            "{} storage drifted from the dequantized run ({:?}, {agg:?}): max diff {}",
            E::DTYPE,
            k.pattern(),
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn half_storage_tracks_the_dequantized_run() {
        use fg_tensor::{Bf16, F16};
        let g = generators::uniform(140, 5, 17);
        let x = features(140, 16);
        let xe = features(g.num_edges(), 16);
        for (udf, edge) in [
            (Udf::copy_src(16), None),
            (Udf::src_add_dst(16), None),
            (Udf::src_mul_edge(16), Some(&xe)),
            (Udf::copy_edge(16), Some(&xe)),
            (Udf::src_mul_edge_scalar(16), Some(&xe)),
        ] {
            for agg in [Reducer::Sum, Reducer::Max, Reducer::Mean] {
                check_half::<F16>(&g, &udf, agg, &x, edge, &[]);
                check_half::<Bf16>(&g, &udf, agg, &x, edge, &[]);
            }
        }
    }

    #[test]
    fn half_storage_reaches_parameterized_and_interpreted_udfs() {
        // The former typed twin rejected parameter matrices and knew no
        // interpreter path; the one `run` takes every UDF on every storage.
        use fg_tensor::{Bf16, F16};
        let g = generators::uniform(60, 4, 3);
        let x = features(60, 8);
        let w = Dense2::from_fn(8, 12, |r, c| ((r * 5 + c * 3) % 11) as f32 * 0.1 - 0.5);
        for udf in [Udf::mlp(8, 12), Udf::dot(8)] {
            let params: &[&Dense2<f32>] = if udf.params.is_empty() { &[] } else { &[&w] };
            check_half::<F16>(&g, &udf, Reducer::Max, &x, None, params);
            check_half::<Bf16>(&g, &udf, Reducer::Sum, &x, None, params);
        }
    }

    /// A UDF whose destination operand is wider than its source operand:
    /// `src[i] * dst[7]` with `src_len = 4`, `dst_len = 8`.
    fn wide_dst_udf() -> Udf {
        use fg_ir::{IdxExpr, ScalarExpr};
        Udf {
            out_len: 4,
            src_len: 4,
            dst_len: 8,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i().mul(ScalarExpr::Dst(IdxExpr::Const(7))),
            post_relu: false,
        }
    }

    #[test]
    fn narrow_dst_operand_is_a_shape_error_on_every_storage() {
        // The typed twin validated the vertex width against `src_len` only
        // and indexed column 7 of a 4-column row (a panic in the
        // interpreter); one validation routine reports it for all storage.
        use fg_tensor::half::quantize;
        use fg_tensor::Bf16;
        let g = generators::uniform(20, 3, 2);
        let k = CpuSpmm::compile(
            &g,
            &wide_dst_udf(),
            Reducer::Sum,
            &Fds::default(),
            &CpuSpmmOptions::single_thread(1),
        )
        .unwrap();
        let x = features(20, 4);
        let xb: Dense2<Bf16> = quantize(&x);
        let mut out = Dense2::zeros(20, 4);
        let want = KernelError::Shape {
            what: "vertex_dst".into(),
            expected: (20, 8),
            got: (20, 4),
        };
        assert_eq!(
            k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap_err(),
            want
        );
        assert_eq!(
            k.run(&GraphTensors::vertex_only(&xb), &mut out)
                .unwrap_err(),
            want
        );
    }

    #[test]
    fn auto_options_pick_more_partitions_for_wider_features() {
        let g = generators::uniform(50_000, 2, 3);
        let narrow = CpuSpmmOptions::auto(&g, &Udf::copy_src(8), &Fds::default());
        let wide = CpuSpmmOptions::auto(&g, &Udf::copy_src(2048), &Fds::default());
        assert!(wide.graph_partitions > narrow.graph_partitions);
        // tiling reduces the needed partition count
        let tiled = CpuSpmmOptions::auto(&g, &Udf::copy_src(2048), &Fds::cpu_tiled(8));
        assert!(tiled.graph_partitions < wide.graph_partitions);
    }
}
