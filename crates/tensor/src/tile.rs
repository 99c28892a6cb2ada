//! Feature-dimension tiling.
//!
//! The FDS (feature dimension schedule) of the paper splits the feature axis
//! into tiles so that a working set of feature sub-vectors fits in cache
//! (Fig. 6b). [`ColTiles`] enumerates those tiles; kernels loop `for tile in
//! ColTiles::new(d, parts)` as the *outer* loop and traverse the graph once
//! per tile.

use std::ops::Range;

/// A single contiguous tile of the feature (column) axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColTile {
    /// First column of the tile (inclusive).
    pub start: usize,
    /// One past the last column (exclusive).
    pub end: usize,
}

impl ColTile {
    /// Width of the tile.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a degenerate empty tile.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The tile as a `Range<usize>` for slicing.
    #[inline(always)]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// Iterator over the tiles produced by splitting `cols` columns into
/// `parts` near-equal contiguous tiles (the first `cols % parts` tiles get
/// one extra column).
#[derive(Debug, Clone)]
pub struct ColTiles {
    cols: usize,
    parts: usize,
    next: usize,
    produced: usize,
}

impl ColTiles {
    /// Split `cols` columns into `parts` tiles.
    ///
    /// `parts` is clamped to `[1, max(cols, 1)]` so callers can pass a tuned
    /// partition count without worrying about tiny feature lengths.
    pub fn new(cols: usize, parts: usize) -> Self {
        let parts = parts.clamp(1, cols.max(1));
        Self {
            cols,
            parts,
            next: 0,
            produced: 0,
        }
    }

    /// Number of tiles this iterator will produce.
    pub fn num_tiles(&self) -> usize {
        if self.cols == 0 {
            1
        } else {
            self.parts
        }
    }
}

impl Iterator for ColTiles {
    type Item = ColTile;

    fn next(&mut self) -> Option<ColTile> {
        if self.produced >= self.num_tiles() {
            return None;
        }
        let base = self.cols / self.parts;
        let extra = self.cols % self.parts;
        let width = base + usize::from(self.produced < extra);
        let tile = ColTile {
            start: self.next,
            end: self.next + width,
        };
        self.next = tile.end;
        self.produced += 1;
        Some(tile)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.num_tiles() - self.produced;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ColTiles {}

/// Split `n` items into `parts` near-equal contiguous ranges — the row-axis
/// (graph partition) analogue of [`ColTiles`], used for 1D graph partitioning
/// and thread work division.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let width = base + usize::from(i < extra);
        out.push(start..start + width);
        start += width;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_exactly_once() {
        for cols in [0usize, 1, 7, 32, 100, 513] {
            for parts in [1usize, 2, 3, 8, 200] {
                let tiles: Vec<_> = ColTiles::new(cols, parts).collect();
                let total: usize = tiles.iter().map(ColTile::len).sum();
                assert_eq!(total, cols, "cols={cols} parts={parts}");
                // contiguity
                let mut cursor = 0;
                for t in &tiles {
                    assert_eq!(t.start, cursor);
                    cursor = t.end;
                }
            }
        }
    }

    #[test]
    fn tile_widths_are_balanced() {
        let tiles: Vec<_> = ColTiles::new(10, 4).collect();
        let widths: Vec<_> = tiles.iter().map(ColTile::len).collect();
        assert_eq!(widths, vec![3, 3, 2, 2]);
    }

    #[test]
    fn parts_clamped_to_cols() {
        let tiles: Vec<_> = ColTiles::new(3, 100).collect();
        assert_eq!(tiles.len(), 3);
        assert!(tiles.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn zero_cols_yields_single_empty_tile() {
        let tiles: Vec<_> = ColTiles::new(0, 4).collect();
        assert_eq!(tiles.len(), 1);
        assert!(tiles[0].is_empty());
    }

    #[test]
    fn exact_size_iterator_agrees() {
        let mut it = ColTiles::new(10, 3);
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn split_ranges_cover_and_balance() {
        let rs = split_ranges(11, 3);
        assert_eq!(rs, vec![0..4, 4..8, 8..11]);
        let rs = split_ranges(2, 8);
        assert_eq!(rs.len(), 2);
        let rs = split_ranges(0, 3);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].is_empty());
    }
}
