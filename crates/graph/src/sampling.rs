//! Seeded neighbor sampling: slice a fanout-bounded L-hop neighborhood out
//! of the destination-major CSR and reindex it into a compact subgraph.
//!
//! This is the minibatch structure DGL-style serving pipelines run models
//! on: starting from the request's seed vertices, walk `in_csr` rows layer
//! by layer, keeping at most `fanouts[l]` in-neighbors per vertex at hop
//! `l`, then relabel the visited vertices into a dense local ID space. The
//! resulting [`SampledSubgraph`] carries the local→global map and per-layer
//! frontier boundaries so callers can gather feature rows and scatter seed
//! outputs back.
//!
//! Cost: the sampler writes its subgraph once. A [`SampleScratch`] holds
//! an epoch-stamped dense `u32` array over `|V|`: each call owns the stamp
//! values from its own base up, a vertex is new iff its stamp is below
//! that base, and the same slot holds its discovery index and then its
//! local ID. Sampled rows go into one flat buffer, the discovered list is
//! sorted once, and the CSR is emitted in local order from that buffer,
//! with no hashing, per-row allocation or binary search. The array costs
//! `O(|V|)` once per scratch (a serving worker keeps one for its
//! lifetime); per-request work stays proportional to the subgraph.
//!
//! Determinism: neighbor draws use a counter-based RNG keyed on
//! `(seed, layer, vertex)`, and each drawn row is sorted and deduplicated
//! before its vertices are discovered, so the sampled subgraph is a pure
//! function of the config and the graph — independent of frontier
//! iteration order, thread count, how seeds are batched, or which scratch
//! ran it.
//!
//! Bit-identity under full fanout: every vertex discovered before the last
//! hop keeps *all* of its in-edges, and local IDs are assigned in ascending
//! global order, so each subgraph row lists the same sources in the same
//! order as the full graph. CPU SpMM accumulates each destination row in
//! ascending-source order regardless of partitioning, which makes
//! full-fanout sampled inference bitwise equal to full-graph inference on
//! the same seeds (the last-hop leaves get empty rows, but nothing a seed
//! output depends on reads them).

use std::ops::Range;

use crate::block::Block;
use crate::csr::Csr;
use crate::{Graph, VId};

/// Fanout value meaning "keep every in-neighbor" at that hop.
pub const FULL_FANOUT: usize = usize::MAX;

/// What to sample: per-hop fanout caps, the draw mode, and the RNG seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleConfig {
    /// Per-hop in-neighbor caps, outermost first: `fanouts[0]` bounds the
    /// seeds' own in-edges (the model's *last* aggregation layer),
    /// `fanouts[1]` the 1-hop frontier, and so on. Length = hop count.
    pub fanouts: Vec<usize>,
    /// Draw with replacement (duplicates collapse — CSR rows are sets), or
    /// without (a uniform `k`-subset of the row).
    pub replace: bool,
    /// RNG seed; same seed + same graph + same seeds ⇒ identical subgraph.
    pub seed: u64,
}

impl SampleConfig {
    /// Cap each hop `l` at `fanouts[l]` in-neighbors, drawn without
    /// replacement.
    pub fn new(fanouts: Vec<usize>, seed: u64) -> Self {
        Self {
            fanouts,
            replace: false,
            seed,
        }
    }

    /// Keep every in-neighbor for `hops` hops (no sampling, exact
    /// neighborhood).
    pub fn full(hops: usize, seed: u64) -> Self {
        Self::new(vec![FULL_FANOUT; hops], seed)
    }

    /// Number of hops this config expands.
    pub fn hops(&self) -> usize {
        self.fanouts.len()
    }
}

/// A sampling request that cannot be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleError {
    /// A seed vertex is outside the graph.
    SeedOutOfRange {
        /// The offending seed.
        seed: VId,
        /// Vertex count of the graph.
        vertices: usize,
    },
    /// No seeds were supplied.
    NoSeeds,
    /// `fanouts` is empty — a 0-hop sample has no edges to run a GNN on.
    NoHops,
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::SeedOutOfRange { seed, vertices } => {
                write!(f, "seed {seed} out of range (graph has {vertices} vertices)")
            }
            SampleError::NoSeeds => write!(f, "no seed vertices supplied"),
            SampleError::NoHops => write!(f, "fanouts must name at least one hop"),
        }
    }
}

impl std::error::Error for SampleError {}

/// A fanout-bounded neighborhood of some seed vertices, reindexed into a
/// dense local ID space.
#[derive(Debug, Clone)]
pub struct SampledSubgraph {
    graph: Graph,
    locals: Vec<VId>,
    seed_locals: Vec<VId>,
    frontier_sizes: Vec<usize>,
    depths: Vec<u8>,
}

impl SampledSubgraph {
    /// The induced subgraph over local vertex IDs (both CSR orientations).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Local→global vertex map, ascending in global ID.
    pub fn locals(&self) -> &[VId] {
        &self.locals
    }

    /// Global ID of local vertex `l`.
    pub fn global_of(&self, l: VId) -> VId {
        self.locals[l as usize]
    }

    /// Local ID of global vertex `g`, if it was sampled.
    pub fn local_of(&self, g: VId) -> Option<VId> {
        self.locals.binary_search(&g).ok().map(|i| i as VId)
    }

    /// Local IDs of the request's seeds, aligned with the input seed slice
    /// (duplicate seeds map to the same local).
    pub fn seed_locals(&self) -> &[VId] {
        &self.seed_locals
    }

    /// Vertices first discovered at each hop: `frontier_sizes[0]` is the
    /// distinct seed count, `frontier_sizes[l]` the vertices newly reached
    /// at hop `l`. Sums to [`SampledSubgraph::num_vertices`].
    pub fn frontier_sizes(&self) -> &[usize] {
        &self.frontier_sizes
    }

    /// The hop each local was first discovered at (0 for seeds), saturated
    /// at `u8::MAX`: a block only asks whether a row lies within as many
    /// hops as the model has layers.
    pub fn depths(&self) -> &[u8] {
        &self.depths
    }

    /// Layer `layer`'s message-flow [`Block`] for a `layers`-layer model,
    /// and the locals it reads (ascending; read row `i` is local `src[i]`).
    /// Layer `layer` of an `L`-layer model reads the rows within `L − layer`
    /// hops of a seed and writes the rows within `L − 1 − layer` hops:
    /// nothing it would compute for a row farther out reaches a seed. Each
    /// written row keeps every in-edge it has in the subgraph, in the same
    /// order, so it accumulates exactly as it does in the whole subgraph.
    /// Locals are not ordered by depth, so the written rows are a position
    /// list among the read rows, not a prefix.
    ///
    /// # Panics
    /// If `layer >= layers` or `layers >= u8::MAX` (depths saturate there).
    pub fn block(&self, layers: usize, layer: usize) -> (Block, Vec<VId>) {
        assert!(layer < layers, "layer {layer} of a {layers}-layer model");
        assert!(
            layers < u8::MAX as usize,
            "{layers} layers exceed the depth range"
        );
        let reads = layers - layer;
        // `frontier_sizes[h]` rows lie exactly `h` hops out.
        let within = |hops: usize| self.frontier_sizes.iter().take(hops + 1).sum();
        let mut src: Vec<VId> = Vec::with_capacity(within(reads));
        let mut dst: Vec<u32> = Vec::with_capacity(within(reads - 1));
        for (l, &depth) in self.depths.iter().enumerate() {
            let depth = depth as usize;
            if depth < reads {
                dst.push(src.len() as u32);
            }
            if depth <= reads {
                src.push(l as VId);
            }
        }
        // A written row's sources lie one hop farther out at most, so all of
        // them are read rows; reading every row, a position is the local ID.
        let in_csr = self.graph.in_csr();
        let nnz = dst.iter().map(|&i| in_csr.degree(src[i as usize])).sum();
        let pos = (src.len() < self.num_vertices()).then(|| {
            let mut pos = vec![VId::MAX; self.num_vertices()];
            for (i, &l) in src.iter().enumerate() {
                pos[l as usize] = i as VId;
            }
            pos
        });
        let mut indptr = Vec::with_capacity(dst.len() + 1);
        indptr.push(0usize);
        let mut indices: Vec<VId> = Vec::with_capacity(nnz);
        for &i in &dst {
            let row = in_csr.row(src[i as usize]);
            // The position map is monotone, so the row stays ascending.
            match &pos {
                Some(pos) => indices.extend(row.iter().map(|&u| pos[u as usize])),
                None => indices.extend_from_slice(row),
            }
            indptr.push(indices.len());
        }
        let csr = match Csr::try_new(dst.len(), src.len(), indptr, indices) {
            Ok(c) => c,
            Err(e) => unreachable!("block of a valid subgraph is invalid: {e}"),
        };
        (Block::new(csr, dst), src)
    }

    /// Vertex count of the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Edge count of the subgraph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Total heap footprint in bytes: subgraph topology plus the index
    /// maps. This is what serving charges to the `sampling` memory
    /// component for the lifetime of a request.
    pub fn mem_bytes(&self) -> u64 {
        self.graph.mem_bytes()
            + (self.locals.len() * std::mem::size_of::<VId>()) as u64
            + (self.seed_locals.len() * std::mem::size_of::<VId>()) as u64
            + (self.frontier_sizes.len() * std::mem::size_of::<usize>()) as u64
            + self.depths.len() as u64
    }
}

/// Counter-based RNG: one independent stream per `(seed, layer, vertex)`
/// key, so draws do not depend on traversal order. splitmix64 finalization
/// is enough mixing for uniform neighbor picks.
struct KeyedRng {
    state: u64,
}

#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl KeyedRng {
    fn new(seed: u64, layer: usize, vertex: VId) -> Self {
        let key = seed
            ^ splitmix64((layer as u64).wrapping_shl(32) | vertex as u64)
                .wrapping_mul(0xA24B_AED4_963E_E407);
        Self {
            state: splitmix64(key),
        }
    }

    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform draw from `0..n` (Lemire multiply-shift; the tiny modulo
    /// bias at graph-row sizes is irrelevant for sampling).
    #[inline(always)]
    fn gen_range(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Reusable buffers for [`sample_subgraph_with`]: one per serving worker.
///
/// The dense part is one `u32` mark per vertex of the largest graph sampled
/// so far, allocated once and never cleared between calls. Each call owns
/// the mark values from its `base` up, so a mark below `base` is a stamp
/// left by an earlier call and reads as unvisited; the same mark then holds
/// the vertex's discovery index and, once locals are assigned, its local ID,
/// both offset by `base`. Only when the `u32` values run out is the array
/// zeroed. Everything else is flat buffers that keep their capacity, so
/// per-call work is proportional to the subgraph, not to `|V|`.
#[derive(Debug)]
pub struct SampleScratch {
    /// Per global vertex: below the current call's `base` if the call has
    /// not reached it, else `base + discovery index`, then
    /// `base + |subgraph| + local ID`.
    marks: Vec<u32>,
    /// The first mark value no call has used yet; 0 is never used, so
    /// fresh marks read as unvisited.
    next: u32,
    /// Vertices in discovery order: the distinct seeds, then each hop's new
    /// vertices. Vertex `discovered[k]` has discovery index `k`.
    discovered: Vec<VId>,
    /// Sampled in-neighbours of each expanded vertex (global IDs,
    /// ascending; row positions until a hop's draws are mapped), row `k`
    /// belonging to `discovered[k]`.
    edges: Vec<VId>,
    /// `row_ptr[k]..row_ptr[k + 1]` is row `k` of `edges`.
    row_ptr: Vec<usize>,
    /// Per local ID: its discovery index.
    order: Vec<u32>,
    /// Row spans of the frontier being expanded.
    spans: Vec<Range<usize>>,
    /// Fisher–Yates pool of row positions, for draws without replacement.
    pool: Vec<u32>,
}

impl Default for SampleScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SampleScratch {
    /// An empty scratch; it grows on first use.
    pub const fn new() -> Self {
        Self {
            marks: Vec::new(),
            next: 1,
            discovered: Vec::new(),
            edges: Vec::new(),
            row_ptr: Vec::new(),
            order: Vec::new(),
            spans: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Heap bytes held (capacities, not lengths): what a serving worker
    /// charges to the `sampling` memory component for its lifetime.
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        let words = self.marks.capacity()
            + self.discovered.capacity()
            + self.edges.capacity()
            + self.order.capacity()
            + self.pool.capacity();
        (words * size_of::<u32>()
            + self.row_ptr.capacity() * size_of::<usize>()
            + self.spans.capacity() * size_of::<Range<usize>>()) as u64
    }

    /// Start a call over a graph of `n` vertices and return its `base`:
    /// grow the marks to cover the graph, zero them if the call's
    /// `2·n` mark values would overflow `u32`, and empty the flat buffers.
    fn begin(&mut self, n: usize) -> u32 {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        if (u32::MAX - self.next) as usize <= 2 * n {
            self.marks.fill(0);
            self.next = 1;
        }
        self.discovered.clear();
        self.edges.clear();
        self.row_ptr.clear();
        self.order.clear();
        self.next
    }

    /// Record `v` as discovered at the next discovery index unless this
    /// call already reached it.
    #[inline(always)]
    fn discover(marks: &mut [u32], base: u32, discovered: &mut Vec<VId>, v: VId) {
        let mark = &mut marks[v as usize];
        if *mark < base {
            *mark = base + discovered.len() as u32;
            discovered.push(v);
        }
    }
}

/// Append to `out` the positions (indices into the CSR's `indices`) of a
/// draw of up to `fanout` entries of the non-empty row at `span`,
/// ascending and without duplicates. The row ascends strictly, so the
/// sources at those positions ascend and are distinct too.
fn draw_positions(
    span: Range<usize>,
    fanout: usize,
    replace: bool,
    mut rng: KeyedRng,
    pool: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    let len = span.len();
    let positions = span.start as u32..span.end as u32;
    if fanout >= len {
        out.extend(positions);
        return;
    }
    let tail = out.len();
    if replace {
        out.extend((0..fanout).map(|_| positions.start + rng.gen_range(len) as u32));
    } else {
        // Partial Fisher–Yates: the first `fanout` positions of a uniform
        // shuffle are a uniform subset.
        pool.clear();
        pool.extend(positions);
        for i in 0..fanout {
            let j = i + rng.gen_range(len - i);
            pool.swap(i, j);
        }
        out.extend_from_slice(&pool[..fanout]);
    }
    out[tail..].sort_unstable();
    // Draws with replacement repeat; keep the first of each run.
    let mut kept = tail;
    for i in tail..out.len() {
        if kept == tail || out[i] != out[kept - 1] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Expand a fanout-bounded neighborhood of `seeds` over the
/// destination-major adjacency of `graph` and reindex it into a
/// [`SampledSubgraph`], with a fresh [`SampleScratch`].
///
/// Each vertex is expanded exactly once, at the hop it is first
/// discovered; vertices first reached on the final hop become leaves with
/// empty rows (their features still feed the hop above).
///
/// Serving samples through [`sample_subgraph_with`] and a worker's scratch;
/// this fresh-scratch form is public as the sampler oracle that
/// `fgcheck --sampler` and `bench/e2e` compare against.
pub fn sample_subgraph(
    graph: &Graph,
    seeds: &[VId],
    cfg: &SampleConfig,
) -> Result<SampledSubgraph, SampleError> {
    sample_subgraph_with(&mut SampleScratch::new(), graph, seeds, cfg)
}

/// [`sample_subgraph`] through a caller's [`SampleScratch`], which any
/// graph may share: the result depends only on `(graph, seeds, cfg)`. A
/// rejected request touches no scratch state.
pub fn sample_subgraph_with(
    scratch: &mut SampleScratch,
    graph: &Graph,
    seeds: &[VId],
    cfg: &SampleConfig,
) -> Result<SampledSubgraph, SampleError> {
    let n = graph.num_vertices();
    if seeds.is_empty() {
        return Err(SampleError::NoSeeds);
    }
    if cfg.fanouts.is_empty() {
        return Err(SampleError::NoHops);
    }
    for &s in seeds {
        if (s as usize) >= n {
            return Err(SampleError::SeedOutOfRange { seed: s, vertices: n });
        }
    }
    let hops = cfg.fanouts.len();
    let in_csr = graph.in_csr();
    let base = scratch.begin(n);
    let SampleScratch {
        marks,
        next,
        discovered,
        edges,
        row_ptr,
        order,
        spans,
        pool,
    } = scratch;

    // Discovery: the distinct seeds, then each hop's new sources, each
    // vertex marked with its discovery index.
    for &s in seeds {
        SampleScratch::discover(marks, base, discovered, s);
    }
    // `reached[h]`: vertices discovered within `h` hops.
    let mut reached = Vec::with_capacity(hops + 1);
    reached.push(discovered.len());
    row_ptr.push(0);
    let mut frontier = 0..discovered.len();
    let (indptr, indices) = (in_csr.indptr(), in_csr.indices());
    for (hop, &fanout) in cfg.fanouts.iter().enumerate() {
        // Three passes over the frontier, each a loop whose memory reads
        // do not wait on one another, so cache misses on the rows overlap:
        // the rows' spans; the draws, as positions, which need only the
        // row lengths; then the sources at those positions.
        spans.clear();
        let span = |v: VId| indptr[v as usize]..indptr[v as usize + 1];
        spans.extend(discovered[frontier.clone()].iter().map(|&v| span(v)));
        let hop_start = edges.len();
        for (&v, span) in discovered[frontier].iter().zip(spans.iter()) {
            if !span.is_empty() && fanout > 0 {
                let rng = KeyedRng::new(cfg.seed, hop, v);
                draw_positions(span.clone(), fanout, cfg.replace, rng, pool, edges);
            }
            row_ptr.push(edges.len());
        }
        for e in &mut edges[hop_start..] {
            *e = indices[*e as usize];
        }
        for &u in &edges[hop_start..] {
            SampleScratch::discover(marks, base, discovered, u);
        }
        frontier = reached[hop]..discovered.len();
        reached.push(discovered.len());
    }
    // The last frontier was recorded but never expanded: its members are
    // leaves with no row.
    let expanded = row_ptr.len() - 1;
    debug_assert_eq!(expanded, reached[hops - 1]);

    // Assign locals in ascending global order (bit-identity depends on
    // this: per-row source order must match the full graph's), reading
    // each vertex's discovery index before its mark takes the local ID.
    let sub_n = discovered.len();
    let local_base = base + sub_n as u32;
    let mut locals = discovered.clone();
    locals.sort_unstable();
    let mut depths = Vec::with_capacity(sub_n);
    for (l, &g) in locals.iter().enumerate() {
        let mark = &mut marks[g as usize];
        let k = *mark - base;
        order.push(k);
        let depth = reached.partition_point(|&r| r <= k as usize);
        depths.push(depth.min(u8::MAX as usize) as u8);
        *mark = local_base + l as u32;
    }
    *next = local_base + sub_n as u32;
    let local_of = |g: VId| marks[g as usize] - local_base;

    // Emit the destination-major CSR in local order straight from the
    // flat rows. Globals ascend within a row and the local map preserves
    // order, so each row stays strictly increasing.
    let mut indptr = Vec::with_capacity(sub_n + 1);
    indptr.push(0usize);
    let mut indices: Vec<VId> = Vec::with_capacity(edges.len());
    for &k in order.iter() {
        let k = k as usize;
        if k < expanded {
            let row = &edges[row_ptr[k]..row_ptr[k + 1]];
            indices.extend(row.iter().map(|&u| local_of(u)));
        }
        indptr.push(indices.len());
    }
    // Subgraph ingest goes through the fallible constructor: the sampler
    // upholds the invariants, but a violation here must name itself rather
    // than crash a serving worker with an index panic.
    let in_csr = match Csr::try_new(sub_n, sub_n, indptr, indices) {
        Ok(c) => c,
        Err(e) => unreachable!("sampler produced invalid CSR: {e}"),
    };
    let seed_locals = seeds.iter().map(|&s| local_of(s)).collect();
    let frontier_sizes = std::iter::once(reached[0])
        .chain(reached.windows(2).map(|w| w[1] - w[0]))
        .collect();
    Ok(SampledSubgraph {
        graph: Graph::from_csr(in_csr),
        locals,
        seed_locals,
        frontier_sizes,
        depths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Sample up to `fanout` entries of `row` into `out` (global IDs,
    /// unsorted, possibly duplicated when `replace`).
    fn sample_row(row: &[VId], fanout: usize, replace: bool, rng: &mut KeyedRng, out: &mut Vec<VId>) {
        if fanout >= row.len() {
            out.extend_from_slice(row);
            return;
        }
        if replace {
            for _ in 0..fanout {
                out.push(row[rng.gen_range(row.len())]);
            }
        } else {
            // Partial Fisher–Yates: the first `fanout` positions of a uniform
            // shuffle are a uniform subset.
            let mut pool: Vec<VId> = row.to_vec();
            for i in 0..fanout {
                let j = i + rng.gen_range(pool.len() - i);
                pool.swap(i, j);
                out.push(pool[i]);
            }
        }
    }

    /// The sampler before [`SampleScratch`]: a `HashMap` of discovery
    /// depths, one `Vec` per expanded row, and a binary search per edge. The
    /// scratch sampler must reproduce it field for field.
    fn sample_subgraph_oracle(
        graph: &Graph,
        seeds: &[VId],
        cfg: &SampleConfig,
    ) -> Result<SampledSubgraph, SampleError> {
        let n = graph.num_vertices();
        if seeds.is_empty() {
            return Err(SampleError::NoSeeds);
        }
        if cfg.fanouts.is_empty() {
            return Err(SampleError::NoHops);
        }
        for &s in seeds {
            if (s as usize) >= n {
                return Err(SampleError::SeedOutOfRange { seed: s, vertices: n });
            }
        }
        let hops = cfg.fanouts.len();

        // Hop each vertex was first reached at, keyed by global ID.
        let mut discovered: std::collections::HashMap<VId, usize> = std::collections::HashMap::new();
        let mut frontier: Vec<VId> = Vec::new();
        for &s in seeds {
            if let std::collections::hash_map::Entry::Vacant(e) = discovered.entry(s) {
                e.insert(0);
                frontier.push(s);
            }
        }
        let mut frontier_sizes = vec![frontier.len()];

        // Sampled in-edges per expanded destination, in global IDs.
        let mut rows: Vec<(VId, Vec<VId>)> = Vec::new();
        let mut scratch: Vec<VId> = Vec::new();

        for (hop, &fanout) in cfg.fanouts.iter().enumerate() {
            let mut next: Vec<VId> = Vec::new();
            for &v in &frontier {
                scratch.clear();
                let row = graph.in_csr().row(v);
                if !row.is_empty() && fanout > 0 {
                    let mut rng = KeyedRng::new(cfg.seed, hop, v);
                    sample_row(row, fanout, cfg.replace, &mut rng, &mut scratch);
                }
                // Dedup (with-replacement draws repeat) and fix the row order.
                scratch.sort_unstable();
                scratch.dedup();
                for &u in &scratch {
                    if let std::collections::hash_map::Entry::Vacant(e) = discovered.entry(u) {
                        e.insert(hop + 1);
                        next.push(u);
                    }
                }
                rows.push((v, std::mem::take(&mut scratch)));
            }
            frontier_sizes.push(next.len());
            frontier = next;
        }
        // The last frontier was recorded but never expanded: its members are
        // leaves. frontier_sizes has hops+1 entries, one per discovery depth.
        debug_assert_eq!(frontier_sizes.len(), hops + 1);

        // Assign locals in ascending global order (bit-identity depends on
        // this: per-row source order must match the full graph's).
        let mut locals: Vec<VId> = discovered.keys().copied().collect();
        locals.sort_unstable();
        let local_of = |g: VId| -> VId {
            locals.binary_search(&g).expect("sampled vertex in locals") as VId
        };

        // Build the destination-major CSR over local IDs. Rows were produced
        // per expanded vertex; leaves keep empty rows.
        let sub_n = locals.len();
        let mut local_rows: Vec<Vec<VId>> = vec![Vec::new(); sub_n];
        for (dst, srcs) in rows {
            let l = local_of(dst) as usize;
            let row: &mut Vec<VId> = &mut local_rows[l];
            debug_assert!(row.is_empty(), "vertex expanded twice");
            row.extend(srcs.iter().map(|&u| local_of(u)));
            // Globals were sorted and the local map is order-preserving, so the
            // row is already strictly increasing.
        }
        let mut indptr = Vec::with_capacity(sub_n + 1);
        indptr.push(0usize);
        let mut indices: Vec<VId> = Vec::new();
        for row in &local_rows {
            indices.extend_from_slice(row);
            indptr.push(indices.len());
        }
        // Subgraph ingest goes through the fallible constructor: the sampler
        // upholds the invariants, but a violation here must name itself rather
        // than crash a serving worker with an index panic.
        let in_csr = match Csr::try_new(sub_n, sub_n, indptr, indices) {
            Ok(c) => c,
            Err(e) => unreachable!("sampler produced invalid CSR: {e}"),
        };
        let graph = Graph::from_csr(in_csr);

        let seed_locals: Vec<VId> = seeds.iter().map(|&s| local_of(s)).collect();
        let depths = locals
            .iter()
            .map(|g| discovered[g].min(u8::MAX as usize) as u8)
            .collect();
        Ok(SampledSubgraph {
            graph,
            locals,
            seed_locals,
            frontier_sizes,
            depths,
        })
    }

    fn line_graph() -> Graph {
        // 0 -> 1 -> 2 -> 3 -> 4
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn full_fanout_two_hops_takes_exact_neighborhood() {
        let g = line_graph();
        let sub = sample_subgraph(&g, &[4], &SampleConfig::full(2, 7)).unwrap();
        // 4's 2-hop in-neighborhood: {4, 3, 2}
        assert_eq!(sub.locals(), &[2, 3, 4]);
        assert_eq!(sub.frontier_sizes(), &[1, 1, 1]);
        assert_eq!(sub.num_edges(), 2); // 3->4, 2->3 (2 is a leaf)
        let l4 = sub.local_of(4).unwrap();
        let l3 = sub.local_of(3).unwrap();
        let l2 = sub.local_of(2).unwrap();
        assert_eq!(sub.graph().in_csr().row(l4), &[l3]);
        assert_eq!(sub.graph().in_csr().row(l3), &[l2]);
        assert_eq!(sub.graph().in_csr().row(l2), &[] as &[VId]);
        assert_eq!(sub.seed_locals(), &[l4]);
    }

    #[test]
    fn same_seed_gives_identical_subgraph() {
        let g = generators::uniform(300, 8, 11);
        let cfg = SampleConfig::new(vec![3, 2], 42);
        let a = sample_subgraph(&g, &[5, 17, 100], &cfg).unwrap();
        let b = sample_subgraph(&g, &[5, 17, 100], &cfg).unwrap();
        assert_eq!(a.locals(), b.locals());
        assert_eq!(a.graph().in_csr(), b.graph().in_csr());
        assert_eq!(a.seed_locals(), b.seed_locals());
        let c = sample_subgraph(&g, &[5, 17, 100], &SampleConfig::new(vec![3, 2], 43)).unwrap();
        // Different seed: overwhelmingly likely to pick a different set.
        assert!(
            a.locals() != c.locals() || a.graph().in_csr() != c.graph().in_csr(),
            "seed change had no effect"
        );
    }

    #[test]
    fn draw_order_independence_across_seed_batches() {
        // The same vertex discovered at the same hop must sample the same
        // row regardless of what else is in the batch.
        let g = generators::uniform(200, 10, 3);
        let cfg = SampleConfig::new(vec![4], 9);
        let solo = sample_subgraph(&g, &[50], &cfg).unwrap();
        let batch = sample_subgraph(&g, &[50, 51, 52], &cfg).unwrap();
        let solo_row: Vec<VId> = solo
            .graph()
            .in_csr()
            .row(solo.local_of(50).unwrap())
            .iter()
            .map(|&l| solo.global_of(l))
            .collect();
        let batch_row: Vec<VId> = batch
            .graph()
            .in_csr()
            .row(batch.local_of(50).unwrap())
            .iter()
            .map(|&l| batch.global_of(l))
            .collect();
        assert_eq!(solo_row, batch_row);
    }

    #[test]
    fn fanout_cap_is_respected() {
        let g = generators::uniform(100, 20, 5);
        for replace in [false, true] {
            let cfg = SampleConfig {
                fanouts: vec![3, 2],
                replace,
                seed: 1,
            };
            let sub = sample_subgraph(&g, &[0, 7, 99], &cfg).unwrap();
            let csr = sub.graph().in_csr();
            for l in 0..sub.num_vertices() as VId {
                assert!(
                    csr.row(l).len() <= 3,
                    "row {l} exceeds outer fanout: {}",
                    csr.row(l).len()
                );
            }
        }
    }

    #[test]
    fn without_replacement_full_cap_keeps_every_edge() {
        let g = generators::uniform(80, 6, 2);
        let sub = sample_subgraph(&g, &[10], &SampleConfig::full(1, 0)).unwrap();
        let row: Vec<VId> = sub
            .graph()
            .in_csr()
            .row(sub.local_of(10).unwrap())
            .iter()
            .map(|&l| sub.global_of(l))
            .collect();
        assert_eq!(row, g.in_csr().row(10));
    }

    #[test]
    fn reindex_round_trips() {
        let g = generators::uniform(150, 7, 4);
        let sub = sample_subgraph(&g, &[3, 30, 90], &SampleConfig::new(vec![5, 5], 2)).unwrap();
        for l in 0..sub.num_vertices() as VId {
            assert_eq!(sub.local_of(sub.global_of(l)), Some(l));
        }
        // Locals ascend in global ID.
        assert!(sub.locals().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicate_seeds_share_locals() {
        let g = line_graph();
        let sub = sample_subgraph(&g, &[2, 2, 4], &SampleConfig::full(1, 0)).unwrap();
        assert_eq!(sub.seed_locals().len(), 3);
        assert_eq!(sub.seed_locals()[0], sub.seed_locals()[1]);
        assert_eq!(sub.frontier_sizes()[0], 2); // distinct seeds
    }

    #[test]
    fn zero_fanout_keeps_seeds_only() {
        let g = line_graph();
        let sub = sample_subgraph(&g, &[3], &SampleConfig::new(vec![0], 0)).unwrap();
        assert_eq!(sub.num_vertices(), 1);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn rejects_bad_requests() {
        let g = line_graph();
        assert!(matches!(
            sample_subgraph(&g, &[9], &SampleConfig::full(1, 0)),
            Err(SampleError::SeedOutOfRange { seed: 9, vertices: 5 })
        ));
        assert!(matches!(
            sample_subgraph(&g, &[], &SampleConfig::full(1, 0)),
            Err(SampleError::NoSeeds)
        ));
        assert!(matches!(
            sample_subgraph(&g, &[0], &SampleConfig::new(vec![], 0)),
            Err(SampleError::NoHops)
        ));
    }

    #[test]
    fn depths_record_the_discovery_hop() {
        let g = line_graph();
        let sub = sample_subgraph(&g, &[4], &SampleConfig::full(2, 7)).unwrap();
        assert_eq!(sub.locals(), &[2, 3, 4]);
        assert_eq!(sub.depths(), &[2, 1, 0]);
    }

    #[test]
    fn blocks_keep_exactly_the_rows_a_seed_reads() {
        let g = generators::uniform(300, 8, 11);
        for fanouts in [vec![3, 3], vec![3, 3, 3], vec![2]] {
            let sub =
                sample_subgraph(&g, &[5, 17, 17, 100], &SampleConfig::new(fanouts, 4)).unwrap();
            let layers = 2;
            let mut prev_dst: Option<Vec<VId>> = None;
            for layer in 0..layers {
                let (block, src) = sub.block(layers, layer);
                let (csr, dst) = (block.csr(), block.dst());
                let reads = layers - layer;
                let want_src: Vec<VId> = (0..sub.num_vertices() as VId)
                    .filter(|&l| sub.depths()[l as usize] as usize <= reads)
                    .collect();
                assert_eq!(src, want_src, "layer {layer}");
                // A layer reads exactly the rows the layer before wrote.
                if let Some(prev) = prev_dst.take() {
                    assert_eq!(src, prev, "layer {layer}");
                }
                let written: Vec<VId> = dst.iter().map(|&i| src[i as usize]).collect();
                assert!(written
                    .iter()
                    .all(|&l| (sub.depths()[l as usize] as usize) < reads));
                // Every row within `reads - 1` hops is written, and the rest
                // are not (at the last sampled hop, they are leaves).
                let want_written = want_src
                    .iter()
                    .filter(|&&l| (sub.depths()[l as usize] as usize) < reads);
                assert!(want_written.eq(written.iter()), "layer {layer}");
                assert_eq!((csr.num_rows(), csr.num_cols()), (dst.len(), src.len()));
                // Row r of the block is every in-edge of the r-th written
                // row, in the subgraph's order.
                for (r, &l) in written.iter().enumerate() {
                    let row: Vec<VId> = csr
                        .row(r as VId)
                        .iter()
                        .map(|&p| src[p as usize])
                        .collect();
                    assert_eq!(row, sub.graph().in_csr().row(l), "written row {l}");
                }
                prev_dst = Some(written);
            }
            // The last layer writes the distinct seeds.
            let mut seeds: Vec<VId> = sub.seed_locals().to_vec();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(prev_dst.unwrap(), seeds);
        }
    }

    #[test]
    fn mem_bytes_counts_maps_and_topology() {
        let g = generators::uniform(100, 5, 8);
        let sub = sample_subgraph(&g, &[1, 2], &SampleConfig::new(vec![4, 4], 3)).unwrap();
        assert!(sub.mem_bytes() >= sub.graph().mem_bytes());
        assert!(sub.mem_bytes() > 0);
    }

    /// Every field a caller can read, compared between two samples.
    fn same(a: &SampledSubgraph, b: &SampledSubgraph) -> bool {
        a.locals() == b.locals()
            && a.graph().in_csr() == b.graph().in_csr()
            && a.depths() == b.depths()
            && a.frontier_sizes() == b.frontier_sizes()
            && a.seed_locals() == b.seed_locals()
    }

    fn fanout() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(FULL_FANOUT), 1usize..12]
    }

    /// Random graphs (isolated vertices and edgeless graphs included),
    /// seed lists with duplicates, 1–3 hops of mixed fanouts, both draw
    /// modes.
    fn cases() -> impl Strategy<Value = (Graph, Vec<VId>, SampleConfig)> {
        (1usize..80).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n),
                proptest::collection::vec(0..n as u32, 1..8),
                proptest::collection::vec(fanout(), 1..4),
                any::<bool>(),
                0u64..u64::MAX,
            )
                .prop_map(move |(edges, seeds, fanouts, replace, seed)| {
                    let cfg = SampleConfig {
                        fanouts,
                        replace,
                        seed,
                    };
                    (Graph::from_edges(n, &edges), seeds, cfg)
                })
        })
    }

    /// One scratch for every case, so `|V|` shrinks and grows under it.
    static SHARED: Mutex<SampleScratch> = Mutex::new(SampleScratch::new());

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn scratch_sampler_matches_the_oracle((g, seeds, cfg) in cases()) {
            let want = sample_subgraph_oracle(&g, &seeds, &cfg).unwrap();
            let shared = {
                let mut scratch = SHARED.lock().unwrap();
                sample_subgraph_with(&mut scratch, &g, &seeds, &cfg).unwrap()
            };
            prop_assert!(same(&shared, &want), "shared scratch: {seeds:?} {cfg:?}");
            let fresh = sample_subgraph(&g, &seeds, &cfg).unwrap();
            prop_assert!(same(&fresh, &want), "fresh scratch: {seeds:?} {cfg:?}");
        }
    }

    #[test]
    fn mark_wrap_clears_stale_stamps() {
        let g = generators::uniform(200, 6, 3);
        let cfg = SampleConfig::new(vec![4, 4], 5);
        let seeds = [1, 50, 120];
        let want = sample_subgraph_oracle(&g, &seeds, &cfg).unwrap();
        let mut scratch = SampleScratch::new();
        // The first call marks this neighborhood with the lowest values;
        // after a wrap they are live again and must not read as this call's.
        let first = sample_subgraph_with(&mut scratch, &g, &seeds, &cfg).unwrap();
        assert!(same(&first, &want));
        let used = scratch.next - 1;
        assert_eq!(used as usize, 2 * first.num_vertices());
        // One call still fits below u32::MAX, the next wraps; starting at
        // u32::MAX - 1, the first call wraps.
        for start in [u32::MAX - 2 * 200 - 1, u32::MAX - 1] {
            scratch.next = start;
            for call in 0..3 {
                let got = sample_subgraph_with(&mut scratch, &g, &seeds, &cfg).unwrap();
                assert!(same(&got, &want), "start {start} call {call}");
            }
            assert!(scratch.next < start, "start {start}: the marks wrapped");
        }
    }

    #[test]
    fn rejected_requests_stamp_nothing() {
        let g = generators::uniform(100, 5, 2);
        let big = generators::uniform(500, 5, 2);
        let cfg = SampleConfig::new(vec![3, 3], 9);
        let mut scratch = SampleScratch::new();
        sample_subgraph_with(&mut scratch, &g, &[1, 2], &cfg).unwrap();
        let (next, marks, bytes) = (scratch.next, scratch.marks.clone(), scratch.mem_bytes());
        let rejected: [(&Graph, &[VId], SampleConfig); 4] = [
            (&g, &[3, 100], cfg.clone()),
            (&big, &[7, 500], cfg.clone()),
            (&big, &[], cfg.clone()),
            (&big, &[7], SampleConfig::new(vec![], 9)),
        ];
        for (graph, seeds, cfg) in &rejected {
            let err = sample_subgraph_with(&mut scratch, graph, seeds, cfg).unwrap_err();
            let want = sample_subgraph_oracle(graph, seeds, cfg).unwrap_err();
            assert_eq!(err, want, "{seeds:?}");
        }
        assert_eq!(scratch.next, next);
        assert_eq!(scratch.marks, marks);
        assert_eq!(scratch.mem_bytes(), bytes);
        let next = sample_subgraph_with(&mut scratch, &g, &[1, 2, 3], &cfg).unwrap();
        assert!(same(&next, &sample_subgraph_oracle(&g, &[1, 2, 3], &cfg).unwrap()));
    }

    #[test]
    fn scratch_bytes_cover_the_largest_graph() {
        let mut scratch = SampleScratch::new();
        assert_eq!(scratch.mem_bytes(), 0);
        let cfg = SampleConfig::new(vec![2], 0);
        sample_subgraph_with(&mut scratch, &generators::uniform(300, 4, 1), &[0], &cfg).unwrap();
        let bytes = scratch.mem_bytes();
        assert!(bytes >= 300 * std::mem::size_of::<u32>() as u64);
        sample_subgraph_with(&mut scratch, &generators::uniform(30, 4, 1), &[0], &cfg).unwrap();
        assert_eq!(scratch.marks.len(), 300, "a smaller graph reuses the prefix");
    }
}
