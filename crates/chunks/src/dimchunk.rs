use crate::ChunkError;
use aggcache_schema::Dimension;

/// The chunk ranges of one dimension, at every hierarchy level, constructed
/// so that the closure property holds.
///
/// For each level `l`, the `card(l)` values are split into `n_chunks(l)`
/// contiguous ranges. Boundaries are *aligned across levels*: the set of
/// values at level `l + 1` rolling up into one level-`l` chunk is exactly a
/// union of whole level-`l + 1` chunks, so an aggregated chunk corresponds
/// to a contiguous run of detailed chunks (`DimChunking::detail_range`).
#[derive(Debug, Clone)]
pub struct DimChunking {
    /// `value_starts[l]` has `n_chunks(l) + 1` entries; chunk `c` at level
    /// `l` covers values `value_starts[l][c] .. value_starts[l][c + 1]`.
    value_starts: Vec<Vec<u32>>,
    /// `chunk_of[l][v]` = chunk at level `l` containing value `v`.
    chunk_of: Vec<Vec<u32>>,
    /// `detail_starts[l]` (for `l < h`) has `n_chunks(l) + 1` entries;
    /// aggregated chunk `c` at level `l` is computed from detailed chunks
    /// `detail_starts[l][c] .. detail_starts[l][c + 1]` at level `l + 1`.
    detail_starts: Vec<Vec<u32>>,
    /// `agg_of[l][c]` (for `l >= 1`) = the level-`l - 1` chunk that the
    /// level-`l` chunk `c` contributes to.
    agg_of: Vec<Vec<u32>>,
}

impl DimChunking {
    /// Builds an aligned chunking of `dim` with the requested number of
    /// chunks per level (index 0 = most aggregated level).
    ///
    /// Boundaries are derived top-down: level 0 is split near-uniformly;
    /// each deeper level inherits the (preimages of) the boundaries above it
    /// as mandatory splits and adds further near-uniform splits inside the
    /// widest segments until the requested count is reached.
    pub(crate) fn build(dim: &Dimension, chunks_per_level: &[u32]) -> Result<Self, ChunkError> {
        let levels = dim.num_levels();
        if chunks_per_level.len() != levels {
            return Err(ChunkError::BadChunkCountArity {
                dim: dim.name().to_string(),
                expected: levels,
                got: chunks_per_level.len(),
            });
        }
        for (l, &n) in chunks_per_level.iter().enumerate() {
            let card = dim.cardinality(l as u8);
            if n == 0 || n > card {
                return Err(ChunkError::BadChunkCount {
                    dim: dim.name().to_string(),
                    level: l,
                    requested: n,
                    cardinality: card,
                });
            }
            if l > 0 && n < chunks_per_level[l - 1] {
                return Err(ChunkError::InfeasibleChunkCount {
                    dim: dim.name().to_string(),
                    level: l,
                    requested: n,
                    minimum: chunks_per_level[l - 1],
                });
            }
        }

        let mut value_starts: Vec<Vec<u32>> = Vec::with_capacity(levels);
        let mut detail_starts: Vec<Vec<u32>> = Vec::with_capacity(levels.saturating_sub(1));

        // Level 0: near-uniform partition of the values.
        value_starts.push(near_uniform(dim.cardinality(0), chunks_per_level[0]));

        for l in 1..levels {
            let card = dim.cardinality(l as u8);
            let rollup = dim.rollup_map(l as u8);
            let above = &value_starts[l - 1];
            // Mandatory boundaries: preimages of the aggregated boundaries.
            // `rollup` is monotone, so the preimage of a prefix is a prefix.
            let mandatory: Vec<u32> = above
                .iter()
                .map(|&b| rollup.partition_point(|&p| p < b) as u32)
                .collect();
            debug_assert_eq!(*mandatory.last().unwrap(), card);
            let starts = subdivide(&mandatory, chunks_per_level[l]);
            // Record, per aggregated chunk, the range of detailed chunks.
            let d_starts: Vec<u32> = mandatory
                .iter()
                .map(|&m| starts.partition_point(|&s| s < m) as u32)
                .collect();
            detail_starts.push(d_starts);
            value_starts.push(starts);
        }

        let chunk_of: Vec<Vec<u32>> = value_starts
            .iter()
            .map(|starts| {
                let card = *starts.last().unwrap();
                let mut table = vec![0u32; card as usize];
                for c in 0..starts.len() - 1 {
                    for v in starts[c]..starts[c + 1] {
                        table[v as usize] = c as u32;
                    }
                }
                table
            })
            .collect();

        let mut agg_of: Vec<Vec<u32>> = vec![Vec::new()];
        for l in 1..levels {
            let d_starts = &detail_starts[l - 1];
            let n_detail = value_starts[l].len() - 1;
            let mut table = vec![0u32; n_detail];
            for a in 0..d_starts.len() - 1 {
                for c in d_starts[a]..d_starts[a + 1] {
                    table[c as usize] = a as u32;
                }
            }
            agg_of.push(table);
        }

        Ok(Self {
            value_starts,
            chunk_of,
            detail_starts,
            agg_of,
        })
    }

    /// Number of hierarchy levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.value_starts.len()
    }

    /// Number of chunks at `level`.
    #[inline]
    pub fn n_chunks(&self, level: u8) -> u32 {
        (self.value_starts[level as usize].len() - 1) as u32
    }

    /// The half-open value range covered by `chunk` at `level`.
    #[inline]
    pub fn value_range(&self, level: u8, chunk: u32) -> (u32, u32) {
        let s = &self.value_starts[level as usize];
        (s[chunk as usize], s[chunk as usize + 1])
    }

    /// The chunk at `level` containing value `v`.
    #[inline]
    pub fn chunk_of_value(&self, level: u8, v: u32) -> u32 {
        self.chunk_of[level as usize][v as usize]
    }

    /// The value→chunk lookup table for `level` (length = cardinality).
    #[inline]
    pub fn chunk_of_table(&self, level: u8) -> &[u32] {
        &self.chunk_of[level as usize]
    }

    /// The half-open range of level-`level + 1` chunks that aggregate into
    /// chunk `c` at `level` (requires `level < h`).
    #[inline]
    pub(crate) fn detail_range(&self, level: u8, c: u32) -> (u32, u32) {
        let s = &self.detail_starts[level as usize];
        (s[c as usize], s[c as usize + 1])
    }

    /// The level-`level - 1` chunk that chunk `c` at `level` contributes to
    /// (requires `level >= 1`).
    #[inline]
    pub(crate) fn agg_chunk(&self, level: u8, c: u32) -> u32 {
        self.agg_of[level as usize][c as usize]
    }

    /// Maps a chunk range at `from` (aggregated) to the covering chunk range
    /// at the more detailed level `to >= from`.
    pub fn descend_range(&self, from: u8, to: u8, range: (u32, u32)) -> (u32, u32) {
        debug_assert!(from <= to);
        let (mut lo, mut hi) = range;
        for l in from..to {
            lo = self.detail_starts[l as usize][lo as usize];
            hi = self.detail_starts[l as usize][hi as usize];
        }
        (lo, hi)
    }

    /// Maps a chunk at detailed level `from` to its ancestor chunk at the
    /// more aggregated level `to <= from`.
    pub fn ascend_chunk(&self, from: u8, to: u8, chunk: u32) -> u32 {
        debug_assert!(to <= from);
        let mut c = chunk;
        for l in ((to + 1)..=from).rev() {
            c = self.agg_of[l as usize][c as usize];
        }
        c
    }

    /// Total number of chunks across all levels of this dimension
    /// (`Σ_l n_chunks(l)` — the per-dimension factor of the whole-cube chunk
    /// census used for the paper's space-overhead accounting, Table 3).
    pub(crate) fn total_chunks(&self) -> u64 {
        (0..self.num_levels())
            .map(|l| u64::from(self.n_chunks(l as u8)))
            .sum()
    }
}

/// Splits `card` values into `n` near-uniform ranges; returns `n + 1` starts.
fn near_uniform(card: u32, n: u32) -> Vec<u32> {
    let (card64, n64) = (u64::from(card), u64::from(n));
    (0..=n64).map(|i| ((i * card64) / n64) as u32).collect()
}

/// Splits the segments delimited by `mandatory` boundaries into `n` chunks
/// total, keeping every mandatory boundary and adding near-uniform splits
/// inside segments, favouring the widest. Returns `n + 1` starts.
fn subdivide(mandatory: &[u32], n: u32) -> Vec<u32> {
    let m = mandatory.len() - 1;
    debug_assert!(n as usize >= m, "validated by caller");
    let widths: Vec<u32> = mandatory.windows(2).map(|w| w[1] - w[0]).collect();
    let mut alloc = vec![1u32; m];
    let mut remaining = n - m as u32;
    // Greedy proportional allocation: repeatedly grant a split to the
    // segment with the largest width-per-chunk ratio that can still accept
    // one. O(n·m), fine for the segment counts seen in practice.
    while remaining > 0 {
        let mut best: Option<usize> = None;
        let mut best_ratio = 0.0f64;
        for i in 0..m {
            if alloc[i] < widths[i] {
                let ratio = f64::from(widths[i]) / f64::from(alloc[i]);
                if best.is_none() || ratio > best_ratio {
                    best = Some(i);
                    best_ratio = ratio;
                }
            }
        }
        let i = best.expect("n <= total width, so some segment can accept a split");
        alloc[i] += 1;
        remaining -= 1;
    }
    let mut starts = Vec::with_capacity(n as usize + 1);
    for i in 0..m {
        let (lo, hi) = (mandatory[i], mandatory[i + 1]);
        let w = u64::from(hi - lo);
        let c = u64::from(alloc[i]);
        for j in 0..c {
            starts.push(lo + ((j * w) / c) as u32);
        }
    }
    starts.push(*mandatory.last().unwrap());
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim() -> Dimension {
        Dimension::balanced("product", vec![1, 4, 15, 75]).unwrap()
    }

    #[test]
    fn uniform_build_has_requested_counts() {
        let d = dim();
        let ck = DimChunking::build(&d, &[1, 2, 4, 10]).unwrap();
        assert_eq!(ck.n_chunks(0), 1);
        assert_eq!(ck.n_chunks(1), 2);
        assert_eq!(ck.n_chunks(2), 4);
        assert_eq!(ck.n_chunks(3), 10);
        assert_eq!(ck.total_chunks(), 17);
    }

    #[test]
    fn value_ranges_partition_levels() {
        let d = dim();
        let ck = DimChunking::build(&d, &[1, 2, 4, 10]).unwrap();
        for l in 0..4u8 {
            let mut expected = 0;
            for c in 0..ck.n_chunks(l) {
                let (lo, hi) = ck.value_range(l, c);
                assert_eq!(lo, expected);
                assert!(hi > lo);
                expected = hi;
                for v in lo..hi {
                    assert_eq!(ck.chunk_of_value(l, v), c);
                }
            }
            assert_eq!(expected, d.cardinality(l));
        }
    }

    /// The closure property (paper §2): values of detailed chunks in an
    /// aggregated chunk's detail range roll up exactly into that chunk.
    #[test]
    fn closure_property_holds() {
        let d = dim();
        let ck = DimChunking::build(&d, &[1, 3, 7, 20]).unwrap();
        for l in 0..3u8 {
            for c in 0..ck.n_chunks(l) {
                let (dlo, dhi) = ck.detail_range(l, c);
                assert!(dlo < dhi);
                let (vlo, vhi) = ck.value_range(l, c);
                // The union of detail chunks' value ranges must be exactly
                // the preimage of [vlo, vhi) under the roll-up map.
                let (plo, phi) = d.descendant_value_range(l + 1, l, vlo);
                assert_eq!(ck.value_range(l + 1, dlo).0, plo);
                let _ = phi;
                let last_hi = ck.value_range(l + 1, dhi - 1).1;
                let (_, want_hi) = d.descendant_value_range(l + 1, l, vhi - 1);
                assert_eq!(last_hi, want_hi);
                // And each detail chunk maps back to c.
                for dc in dlo..dhi {
                    assert_eq!(ck.agg_chunk(l + 1, dc), c);
                }
            }
        }
    }

    #[test]
    fn descend_and_ascend_are_consistent() {
        let d = dim();
        let ck = DimChunking::build(&d, &[1, 3, 7, 20]).unwrap();
        for from in 0..=3u8 {
            for to in from..=3 {
                for c in 0..ck.n_chunks(from) {
                    let (lo, hi) = ck.descend_range(from, to, (c, c + 1));
                    assert!(lo < hi);
                    for dc in lo..hi {
                        assert_eq!(ck.ascend_chunk(to, from, dc), c);
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_more_chunks_than_values() {
        let d = dim();
        let err = DimChunking::build(&d, &[2, 2, 4, 10]).unwrap_err();
        assert!(matches!(err, ChunkError::BadChunkCount { .. }));
    }

    #[test]
    fn rejects_decreasing_chunk_counts() {
        let d = dim();
        let err = DimChunking::build(&d, &[1, 4, 3, 10]).unwrap_err();
        assert!(matches!(err, ChunkError::InfeasibleChunkCount { .. }));
    }

    #[test]
    fn single_chunk_everywhere() {
        let d = dim();
        let ck = DimChunking::build(&d, &[1, 1, 1, 1]).unwrap();
        for l in 0..4u8 {
            assert_eq!(ck.n_chunks(l), 1);
            assert_eq!(ck.value_range(l, 0), (0, d.cardinality(l)));
        }
    }
}
