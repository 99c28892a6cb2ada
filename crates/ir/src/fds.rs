//! Feature dimension schedules (FDS).
//!
//! An FDS tells the kernel templates *how* to execute a UDF: how to tile the
//! feature axes on CPU (Figs. 3a line 11–15 and Fig. 8) and how to bind them
//! to the GPU thread hierarchy (Figs. 3a line 19–22, 4a line 13–16, Fig. 9).
//! Leaving the FDS at [`Fds::default`] degrades FeatGraph to a traditional
//! graph processing system that is blind to the feature dimension — exactly
//! the ablation the paper draws (§III-B, last paragraph).

/// GPU axis binding for the UDF output axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuBind {
    /// Output elements map to threads within a block (`thread.x`) — the GCN
    /// aggregation strategy of Fig. 7a: coalesced, divergence-free.
    ThreadX,
    /// Output elements map to blocks (`block.x`) — used when the output axis
    /// is large and a second axis occupies the threads (Fig. 9).
    BlockX,
    /// No binding: the whole UDF output is computed by a single thread (what
    /// a feature-dimension-blind system does).
    None,
}

/// GPU portion of an FDS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuFds {
    /// Binding of the UDF output axis.
    pub bind_out: GpuBind,
    /// Use a tree reduction across `thread.x` for the UDF reduce axis
    /// (Fig. 4a line 13–16, ablated in Fig. 12).
    pub tree_reduce: bool,
    /// Threads per block the kernel is launched with.
    pub threads_per_block: usize,
}

impl Default for GpuFds {
    fn default() -> Self {
        Self {
            bind_out: GpuBind::None,
            tree_reduce: false,
            threads_per_block: 256,
        }
    }
}

/// A feature dimension schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fds {
    /// CPU: number of tiles the UDF output axis is split into (Fig. 6b's
    /// feature dimension tiling; `1` = no tiling).
    pub feature_tiles: usize,
    /// CPU: number of tiles for the UDF reduce axis (Fig. 8 tiles the weight
    /// matrix along both axes; `1` = no tiling).
    pub reduce_tiles: usize,
    /// GPU schedule.
    pub gpu: GpuFds,
}

impl Default for Fds {
    fn default() -> Self {
        Self {
            feature_tiles: 1,
            reduce_tiles: 1,
            gpu: GpuFds::default(),
        }
    }
}

impl Fds {
    /// The paper's CPU schedule for GCN-style copy UDFs: tile the feature
    /// axis into `tiles` pieces (Fig. 3a, `cpu_schedule`).
    pub fn cpu_tiled(tiles: usize) -> Self {
        Self {
            feature_tiles: tiles.max(1),
            ..Self::default()
        }
    }

    /// The paper's CPU schedule for MLP aggregation: tile both the output and
    /// the reduce axes (Fig. 8).
    pub fn cpu_tiled2(feature_tiles: usize, reduce_tiles: usize) -> Self {
        Self {
            feature_tiles: feature_tiles.max(1),
            reduce_tiles: reduce_tiles.max(1),
            ..Self::default()
        }
    }

    /// The paper's GPU schedule for vertex-wise UDFs: bind the feature axis
    /// to `thread.x` (Fig. 3a, `gpu_schedule`; strategy of Fig. 7a).
    pub fn gpu_thread_x(threads_per_block: usize) -> Self {
        Self {
            gpu: GpuFds {
                bind_out: GpuBind::ThreadX,
                tree_reduce: false,
                threads_per_block: threads_per_block.max(1),
            },
            ..Self::default()
        }
    }

    /// The paper's GPU schedule for dot-product attention: tree reduction
    /// across `thread.x` (Fig. 4a; strategy of Fig. 7b).
    pub fn gpu_tree_reduce(threads_per_block: usize) -> Self {
        Self {
            gpu: GpuFds {
                bind_out: GpuBind::None,
                tree_reduce: true,
                threads_per_block: threads_per_block.max(1),
            },
            ..Self::default()
        }
    }

    /// The paper's GPU schedule for MLP aggregation: output axis on blocks,
    /// reduce axis tree-reduced across threads (Fig. 9).
    pub fn gpu_block_tree(threads_per_block: usize) -> Self {
        Self {
            gpu: GpuFds {
                bind_out: GpuBind::BlockX,
                tree_reduce: true,
                threads_per_block: threads_per_block.max(1),
            },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_to_one() {
        assert_eq!(Fds::cpu_tiled(0).feature_tiles, 1);
        assert_eq!(Fds::cpu_tiled2(0, 0).reduce_tiles, 1);
        assert_eq!(Fds::gpu_thread_x(0).gpu.threads_per_block, 1);
    }

    #[test]
    fn gpu_builders_set_bindings() {
        let f = Fds::gpu_thread_x(64);
        assert_eq!(f.gpu.bind_out, GpuBind::ThreadX);
        assert!(!f.gpu.tree_reduce);

        let f = Fds::gpu_tree_reduce(32);
        assert!(f.gpu.tree_reduce);
        assert_eq!(f.gpu.bind_out, GpuBind::None);

        let f = Fds::gpu_block_tree(128);
        assert_eq!(f.gpu.bind_out, GpuBind::BlockX);
        assert!(f.gpu.tree_reduce);
    }
}
