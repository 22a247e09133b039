//! Chunk geometry for chunk-based OLAP caching (paper §2).
//!
//! The distinct values of each dimension level are divided into ranges,
//! dividing the multi-dimensional space at every group-by into *chunks* —
//! the unit of caching. This crate provides:
//!
//! * [`DimChunking`] — per-dimension, per-level chunk boundaries constructed
//!   so that the **closure property** holds: every chunk at an aggregated
//!   level maps to a contiguous run of chunks at the next more detailed
//!   level, and the value ranges align exactly.
//! * [`ChunkGrid`] — whole-schema chunk addressing: linearization of chunk
//!   coordinates into a [`ChunkNumber`] per group-by, parent/child chunk
//!   mapping across lattice edges (`GetParentChunkNumbers` /
//!   `GetChildChunkNumber` from the paper), and descent to base-level chunk
//!   ranges for backend scans.
//! * [`ChunkData`] — a compact structure-of-arrays container for the cells
//!   of one or more chunks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod dimchunk;
mod error;
mod grid;
pub mod hash;

pub use data::{
    Buf, CellCoords, ChunkData, Column, Coord, Coords, Held, ValueMut, ValueVec, Values, Wide,
    NARROW_MAX, PAPER_TUPLE_BYTES,
};
pub use dimchunk::DimChunking;
pub use error::ChunkError;
pub use grid::{ChunkGrid, LevelGeometry};

/// A chunk's linearized index within one group-by (row-major over the
/// per-dimension chunk coordinates).
pub type ChunkNumber = u64;

/// A globally unique chunk address: group-by id plus chunk number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkKey {
    /// The group-by the chunk belongs to.
    pub gb: aggcache_schema::GroupById,
    /// The chunk's linearized number within that group-by.
    pub chunk: ChunkNumber,
}

/// Bit position of the group-by id in a packed chunk key: the low
/// [`PACK_CHUNK_BITS`] bits hold the chunk number, the bits above it the
/// group-by id.
pub(crate) const PACK_CHUNK_BITS: u32 = 40;

impl ChunkKey {
    /// Convenience constructor.
    pub fn new(gb: aggcache_schema::GroupById, chunk: ChunkNumber) -> Self {
        Self { gb, chunk }
    }

    /// Packs the key into a single `u64`: group-by id in the high 24 bits,
    /// chunk number in the low `PACK_CHUNK_BITS` bits.
    ///
    /// The packed form is what the hot maps ([`hash::PackedMap`] /
    /// [`hash::PackedSet`]) use as their key — hashing one integer instead
    /// of a two-field struct. Packing is ordered: `a < b` iff
    /// `a.pack() < b.pack()` (group-by major, chunk minor), so sorting
    /// packed keys matches sorting [`ChunkKey`]s.
    ///
    /// The id and the chunk number fit (gb id < 2^24, chunk < 2^40) for
    /// every key of a grid that built: [`ChunkGrid`] construction refuses
    /// any grid that exceeds either limit. Real schemas are orders of
    /// magnitude below both — APB-1 has 336 group-bys and at most tens of
    /// thousands of chunks per group-by.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!(u64::from(self.gb.0) < (1 << (64 - PACK_CHUNK_BITS)));
        debug_assert!(self.chunk < (1 << PACK_CHUNK_BITS));
        (u64::from(self.gb.0) << PACK_CHUNK_BITS) | self.chunk
    }

    /// Inverse of [`ChunkKey::pack`].
    #[inline]
    pub fn unpack(packed: u64) -> Self {
        Self {
            gb: aggcache_schema::GroupById((packed >> PACK_CHUNK_BITS) as u32),
            chunk: packed & ((1 << PACK_CHUNK_BITS) - 1),
        }
    }
}

#[cfg(test)]
mod key_tests {
    use super::*;
    use aggcache_schema::GroupById;

    #[test]
    fn pack_round_trips() {
        for (gb, chunk) in [
            (0u32, 0u64),
            (1, 1),
            (335, 32_255),
            (0xff_ffff, (1 << 40) - 1),
        ] {
            let key = ChunkKey::new(GroupById(gb), chunk);
            assert_eq!(ChunkKey::unpack(key.pack()), key);
        }
    }

    #[test]
    fn pack_preserves_order() {
        let mut keys = Vec::new();
        for gb in [0u32, 3, 7, 100] {
            for chunk in [0u64, 5, 9_999] {
                keys.push(ChunkKey::new(GroupById(gb), chunk));
            }
        }
        let mut by_key = keys.clone();
        by_key.sort();
        let mut by_packed = keys;
        by_packed.sort_by_key(|k| k.pack());
        assert_eq!(by_key, by_packed);
    }
}
