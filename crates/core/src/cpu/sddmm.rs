//! CPU generalized SDDMM template.

use fg_graph::{EdgeOrder, Graph};
use fg_ir::{Fds, KernelPattern, Udf};
use fg_telemetry::{counter_add, histogram_record, span, Counter, Histogram};
use fg_tensor::{ColTiles, Dense2, FeatElem};
use rayon::prelude::*;
use std::ops::Range;

use crate::cpu::skeleton::band_rows;
use crate::error::KernelError;
use crate::inputs::{Dims, GraphTensors};
use crate::ops::{self, Dot, Edge, MessageOp, MultiHeadDot, ReduceOp, Sink, WithMessage};
use crate::util::{self, SharedRows};
use crate::RunStats;

/// Edge traversal order for the CPU SDDMM template (§III-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traversal {
    /// Canonical destination-major order.
    Canonical,
    /// Hilbert-curve order over the `(src, dst)` plane — locality in both
    /// endpoint feature sets across cache levels.
    #[default]
    Hilbert,
}

/// Template-level options for the CPU SDDMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSddmmOptions {
    /// Edge traversal order.
    pub traversal: Traversal,
    /// Worker threads.
    pub threads: usize,
}

impl CpuSddmmOptions {
    /// Defaults: Hilbert traversal, all cores.
    ///
    /// When the OS cannot report its core count the thread count falls back
    /// to 1 — see `crate::util::detected_threads` for how that fallback is
    /// surfaced (stderr warning + `parallelism_fallbacks` counter).
    pub fn auto(_graph: &Graph, _udf: &Udf, _fds: &Fds) -> Self {
        Self {
            traversal: Traversal::Hilbert,
            threads: util::detected_threads(),
        }
    }

    /// Single-threaded with an explicit traversal.
    pub fn single_thread(traversal: Traversal) -> Self {
        Self {
            traversal,
            threads: 1,
        }
    }
}

/// A compiled CPU generalized-SDDMM kernel.
pub struct CpuSddmm {
    udf: Udf,
    fds: Fds,
    pattern: KernelPattern,
    order: EdgeOrder,
    num_vertices: usize,
    num_edges: usize,
    pool: rayon::ThreadPool,
}

impl CpuSddmm {
    /// Validate and build the execution plan (edge order, thread pool).
    pub fn compile(
        graph: &Graph,
        udf: &Udf,
        fds: &Fds,
        opts: &CpuSddmmOptions,
    ) -> Result<Self, KernelError> {
        udf.validate()?;
        let order = match opts.traversal {
            Traversal::Canonical => EdgeOrder::canonical(graph),
            Traversal::Hilbert => EdgeOrder::hilbert(graph),
        };
        counter_add(Counter::KernelCompiles, 1);
        Ok(Self {
            udf: udf.clone(),
            fds: *fds,
            pattern: KernelPattern::of(udf),
            order,
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            pool: util::pool(opts.threads),
        })
    }

    /// The recognized kernel pattern.
    pub fn pattern(&self) -> KernelPattern {
        self.pattern
    }

    /// Heap bytes held by the compiled plan (the materialized edge order).
    pub fn mem_bytes(&self) -> u64 {
        self.order.mem_bytes()
    }

    /// Execute the kernel: `out[eid] = udf(src, dst, eid)` for every edge.
    /// Vertex features may be stored as `f32` or `bf16` (`V`); rows
    /// are widened as they are read and dots accumulate in `f32`.
    pub fn run<V: FeatElem>(
        &self,
        inputs: &GraphTensors<'_, f32, V>,
        out: &mut Dense2<f32>,
    ) -> Result<RunStats, KernelError> {
        let (nv, ne) = (self.num_vertices, self.num_edges);
        inputs.validate(&self.udf, Dims::square(nv, ne), out, ne)?;
        let _run_span = span!(
            "sddmm/run",
            "pattern={:?} dtype={} edges={} tiles={}",
            self.pattern,
            V::DTYPE,
            ne,
            self.fds.feature_tiles.max(1)
        );
        let (x, xd) = (inputs.vertex, inputs.dst_tensor());
        match self.pattern {
            // The reduce axis is tiled per the FDS: each k-tile traverses
            // the edges once, adding its partial dot to the edge's scalar —
            // the edge-wise analogue of Fig. 6b.
            KernelPattern::Dot => {
                out.fill_zero();
                let d = self.udf.red_len();
                let ktiles = ColTiles::new(d, self.fds.feature_tiles);
                counter_add(Counter::FeatureTiles, ktiles.num_tiles() as u64);
                let op = Dot { x, xd, d };
                for kt in ktiles {
                    self.pass("sddmm/ktile", ops::sum, op, kt.range(), out);
                }
            }
            KernelPattern::MultiHeadDot { d } => {
                let (op, dims) = (MultiHeadDot { x, xd, d }, 0..self.udf.src_len);
                self.pass("sddmm/multi_head", ops::store, op, dims, out)
            }
            // The other UDFs are the SpMM template's message ops, stored to
            // the edge row instead of reduced into the vertex row.
            _ => ops::lower(&self.udf, self.pattern, inputs, Store { k: self, out }),
        }
        Ok(RunStats::default())
    }

    /// The edge-order loop nest: one traversal of the (Hilbert or canonical)
    /// visit list in parallel chunks, folding `op`'s message for columns
    /// `cols` into each edge's output row with `r`. Each chunk works on its
    /// own copy of `op`: the rows are written through a raw pointer, and a
    /// local whose address never escapes is what lets the compiler keep the
    /// op's operand pointers in registers across those writes.
    fn pass<R: ReduceOp, M: MessageOp + Copy>(
        &self,
        name: &'static str,
        r: R,
        op: M,
        cols: Range<usize>,
        out: &mut Dense2<f32>,
    ) {
        let visits = &self.order.visits;
        let width = out.cols();
        let chunk = band_rows(visits.len(), self.pool.current_num_threads());
        let _span = span!(name, "cols={cols:?} edges={}", visits.len());
        counter_add(Counter::EdgesProcessed, visits.len() as u64);
        let bytes_per_edge = op.bytes_per_edge(cols.len()) + 4 * width;
        counter_add(Counter::BytesMoved, (visits.len() * bytes_per_edge) as u64);
        let writer = SharedRows::new(out.as_mut_slice(), width);
        self.pool.install(|| {
            visits.par_chunks(chunk).for_each(|edges| {
                histogram_record(Histogram::SddmmChunkEdges, edges.len() as u64);
                let chunk_op = op;
                let mut scratch = Vec::new();
                for &(src, dst, eid) in edges {
                    // SAFETY: the visit list is a permutation of the edge
                    // ids and the chunks partition it, so no other thread
                    // touches row `eid` during this pass.
                    let orow = unsafe { writer.row_mut(eid as usize) };
                    let mut to = Sink {
                        out: orow,
                        cols: cols.clone(),
                        scratch: &mut scratch,
                    };
                    chunk_op.edge(r, &mut to, Edge { src, dst, eid });
                }
            });
        });
    }
}

/// One pass writing each edge's whole output row.
struct Store<'a> {
    k: &'a CpuSddmm,
    out: &'a mut Dense2<f32>,
}

impl WithMessage for Store<'_> {
    type Out = ();

    fn run<M: MessageOp + Copy>(self, op: M) {
        let cols = 0..self.k.udf.out_len;
        self.k.pass("sddmm/store", ops::store, op, cols, self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sddmm_reference;

    fn features(n: usize, d: usize) -> Dense2<f32> {
        Dense2::from_fn(n, d, |v, i| ((v * 13 + i * 5) % 17) as f32 * 0.125 - 1.0)
    }

    fn check(
        g: &Graph,
        udf: &Udf,
        inputs: &GraphTensors<'_, f32>,
        fds: &Fds,
        opts: &CpuSddmmOptions,
    ) {
        let k = CpuSddmm::compile(g, udf, fds, opts).unwrap();
        let mut out = Dense2::zeros(g.num_edges(), udf.out_len);
        k.run(inputs, &mut out).unwrap();
        let mut want = Dense2::zeros(g.num_edges(), udf.out_len);
        sddmm_reference(g, udf, inputs, &mut want).unwrap();
        assert!(
            out.approx_eq(&want, 1e-4),
            "mismatch {} ({:?}, {opts:?})",
            out.max_abs_diff(&want),
            k.pattern()
        );
    }

    #[test]
    fn dot_product_attention_all_schedules() {
        let g = fg_graph::uniform(150, 5, 11);
        let x = features(150, 24);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::dot(24);
        for traversal in [Traversal::Canonical, Traversal::Hilbert] {
            for tiles in [1, 3] {
                for threads in [1, 3] {
                    check(
                        &g,
                        &udf,
                        &inputs,
                        &Fds::cpu_tiled(tiles),
                        &CpuSddmmOptions { traversal, threads },
                    );
                }
            }
        }
    }

    #[test]
    fn multi_head_dot_matches_reference() {
        let g = fg_graph::uniform(80, 4, 3);
        let x = features(80, 4 * 8);
        let inputs = GraphTensors::vertex_only(&x);
        let udf = Udf::multi_head_dot(4, 8);
        check(
            &g,
            &udf,
            &inputs,
            &Fds::default(),
            &CpuSddmmOptions {
                traversal: Traversal::Hilbert,
                threads: 2,
            },
        );
    }

    #[test]
    fn generic_edge_function() {
        use fg_ir::ScalarExpr;
        let g = fg_graph::uniform(60, 3, 8);
        let x = features(60, 6);
        let xe = features(g.num_edges(), 6);
        let inputs = GraphTensors::with_edge(&x, &xe);
        // (src + edge) * dst, element-wise — unrecognized pattern
        let udf = Udf {
            out_len: 6,
            src_len: 6,
            dst_len: 6,
            edge_len: 6,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i()
                .add(ScalarExpr::edge_i())
                .mul(ScalarExpr::dst_i()),
            post_relu: false,
        };
        let k = CpuSddmm::compile(&g, &udf, &Fds::default(), &CpuSddmmOptions::single_thread(Traversal::Hilbert)).unwrap();
        assert_eq!(k.pattern(), KernelPattern::Generic);
        check(
            &g,
            &udf,
            &inputs,
            &Fds::default(),
            &CpuSddmmOptions {
                traversal: Traversal::Hilbert,
                threads: 2,
            },
        );
    }

    #[test]
    fn message_ops_match_reference() {
        // The element-wise UDFs run the SpMM template's message ops with a
        // store sink instead of the interpreter.
        let g = fg_graph::uniform(90, 4, 13);
        let x = features(90, 8);
        let y = features(90, 8);
        let xe = features(g.num_edges(), 8);
        let with_edge = GraphTensors::with_edge(&x, &xe);
        for (udf, inputs) in [
            (Udf::copy_src(8), GraphTensors::vertex_only(&x)),
            (Udf::src_add_dst(8), GraphTensors::src_dst(&x, &y)),
            (Udf::copy_edge(8), with_edge),
            (Udf::src_mul_edge(8), with_edge),
            (Udf::src_mul_edge_scalar(8), with_edge),
        ] {
            let k = CpuSddmm::compile(
                &g,
                &udf,
                &Fds::default(),
                &CpuSddmmOptions::single_thread(Traversal::Hilbert),
            )
            .unwrap();
            assert_ne!(k.pattern(), KernelPattern::Generic);
            for traversal in [Traversal::Canonical, Traversal::Hilbert] {
                check(
                    &g,
                    &udf,
                    &inputs,
                    &Fds::cpu_tiled(2),
                    &CpuSddmmOptions {
                        traversal,
                        threads: 3,
                    },
                );
            }
        }
    }

    #[test]
    fn half_storage_tracks_the_dequantized_run() {
        use fg_tensor::{dequantize, quantize, Bf16};
        let g = fg_graph::uniform(110, 4, 23);
        let x = features(110, 16);
        fn check_half<E: FeatElem>(g: &Graph, x: &Dense2<f32>, udf: &Udf) {
            let k = CpuSddmm::compile(
                g,
                udf,
                &Fds::cpu_tiled(2),
                &CpuSddmmOptions {
                    traversal: Traversal::Hilbert,
                    threads: 2,
                },
            )
            .unwrap();
            let xh: Dense2<E> = quantize(x);
            let mut got = Dense2::zeros(g.num_edges(), udf.out_len);
            k.run(&GraphTensors::vertex_only(&xh), &mut got).unwrap();
            let wide = dequantize(&xh);
            let mut want = Dense2::zeros(g.num_edges(), udf.out_len);
            k.run(&GraphTensors::vertex_only(&wide), &mut want).unwrap();
            assert!(
                got.approx_eq(&want, 1e-6),
                "{} storage drifted from the dequantized run ({:?}): max diff {}",
                E::DTYPE,
                k.pattern(),
                got.max_abs_diff(&want)
            );
        }
        for udf in [
            Udf::dot(16),
            Udf::multi_head_dot(2, 8),
            Udf::src_add_dst(16),
        ] {
            check_half::<Bf16>(&g, &x, &udf);
        }
    }

    #[test]
    fn narrow_dst_operand_is_a_shape_error_on_every_storage() {
        // `src[i] * dst[7]` with `src_len = 4`, `dst_len = 8` on a 4-column
        // tensor: the typed twin checked the width against `src_len` only and
        // panicked in the interpreter (index 7 of a 4-wide row).
        use fg_ir::{IdxExpr, ScalarExpr};
        use fg_tensor::{quantize, Bf16};
        let g = fg_graph::uniform(20, 3, 2);
        let udf = Udf {
            out_len: 4,
            src_len: 4,
            dst_len: 8,
            edge_len: 0,
            reduce: None,
            params: vec![],
            body: ScalarExpr::src_i().mul(ScalarExpr::Dst(IdxExpr::Const(7))),
            post_relu: false,
        };
        let k = CpuSddmm::compile(
            &g,
            &udf,
            &Fds::default(),
            &CpuSddmmOptions::single_thread(Traversal::Canonical),
        )
        .unwrap();
        let x = features(20, 4);
        let xb: Dense2<Bf16> = quantize(&x);
        let mut out = Dense2::zeros(g.num_edges(), 4);
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
    fn empty_graph_is_a_noop() {
        let g = Graph::from_edges(5, &[]);
        let x = features(5, 8);
        let udf = Udf::dot(8);
        let k = CpuSddmm::compile(&g, &udf, &Fds::default(), &CpuSddmmOptions::single_thread(Traversal::Canonical)).unwrap();
        let mut out = Dense2::zeros(0, 1);
        k.run(&GraphTensors::vertex_only(&x), &mut out).unwrap();
    }

    #[test]
    fn out_shape_is_validated() {
        let g = fg_graph::uniform(10, 2, 1);
        let x = features(10, 8);
        let udf = Udf::dot(8);
        let k = CpuSddmm::compile(&g, &udf, &Fds::default(), &CpuSddmmOptions::single_thread(Traversal::Canonical)).unwrap();
        let mut out = Dense2::zeros(g.num_edges(), 2); // should be 1 col
        assert!(k.run(&GraphTensors::vertex_only(&x), &mut out).is_err());
    }
}
