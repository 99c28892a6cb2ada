//! Heap bytes and allocations per sampled request, counted exactly.
//!
//! A sampled request on the serving path's shape (an SBM graph of 20 000
//! vertices with average in-degree 50 and 64 features, hidden width 32, 16
//! seeds with their own feature rows, fanout `[10, 10]`) samples its
//! neighborhood through a reused scratch, cuts it into bipartite blocks and
//! runs the model with layer 0 reading the stored rows in place. Nothing it
//! allocates scales with more than its subgraph, and no `|src| × d` matrix
//! is built: a gcn request stays under 400 KiB. The count is a pure function
//! of the model and the request, so a replay repeats it exactly.
//!
//! The counting allocator is process-wide, so this file is a test binary of
//! its own with one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fg_gnn::data::SbmTask;
use fg_gnn::models::build_model;
use fg_gnn::{prepare_seeds_with, Layer0, SampledBlocks};
use fg_graph::{SampleConfig, SampleScratch};
use fg_tensor::Dense2;

/// Counts every allocation and its bytes, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics that never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, bytes)` done by `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    f();
    let (a1, b1) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    (a1 - a0, b1 - b0)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_sampled_request_allocates_what_its_subgraph_needs() {
    const GCN_BUDGET: u64 = 400 * 1024;
    let task = SbmTask::generate(20_000, 8, 50, 56, 977);
    let n = task.graph.num_vertices();
    let mut scratch = SampleScratch::new();
    for name in ["gcn", "graphsage", "gat"] {
        let model = build_model(name, task.in_dim(), 32, task.num_classes, 3);
        let model = model.as_ref();
        let table = model.layer0_table(&task.features);
        let layer0 = match &table {
            Some(table) => Layer0::Table(table),
            None => Layer0::F32(&task.features),
        };
        let mut per_request = Vec::new();
        for i in 0..12u64 {
            let h = splitmix64(i);
            let seeds: Vec<usize> = (0..16).map(|j| (splitmix64(h ^ j) % n as u64) as usize).collect();
            let feats = Dense2::from_fn(16, task.in_dim(), |r, c| ((r * 7 + c) % 13) as f32 * 0.1);
            let cfg = SampleConfig::new(vec![10, 10], h);
            let mut request = || {
                let sub = prepare_seeds_with(&mut scratch, &task.graph, &seeds, &cfg).unwrap();
                let blocks = SampledBlocks::new(&sub, model.num_layers());
                let rows = blocks.forward(model, layer0, Some(&feats), 1);
                assert_eq!(rows.len(), seeds.len());
            };
            // The first call sizes the scratch; every later one reuses it.
            request();
            let first = counted(&mut request);
            assert_eq!(counted(&mut request), first, "{name} request {i} replayed");
            per_request.push(first);
        }
        let allocs = per_request.iter().map(|c| c.0).sum::<u64>() / per_request.len() as u64;
        let bytes = per_request.iter().map(|c| c.1).max().expect("requests");
        println!("{name}: {allocs} allocations per request (mean), at most {} KiB", bytes / 1024);
        if name == "gcn" {
            assert!(
                bytes <= GCN_BUDGET,
                "a gcn request allocated {} KiB (budget {} KiB)",
                bytes / 1024,
                GCN_BUDGET / 1024
            );
        }
    }
}
