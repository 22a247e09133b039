//! Base-data update batches.
//!
//! A [`DeltaBatch`] is the unit of change to the fact table: a sequence of
//! tuple inserts and deletes (an *update* is a delete of the old tuple plus
//! an insert of the new one, the standard relational encoding). Batches are
//! user input: they are validated up front into typed [`ChunkError`]s, so
//! the `debug_assert`-only coordinate-arity invariants on the hot
//! `ChunkData` paths stay unreachable in release builds.
//!
//! [`FactTable::apply_delta`](crate::FactTable::apply_delta) folds a batch
//! into the clustered fact file and reports the [`EffectiveDelta`] — the
//! tuples that actually landed or left, and which base chunks they touched
//! — which the cache layer then propagates *up* the lattice.

use aggcache_chunks::{ChunkData, ChunkError, ChunkGrid, ChunkNumber};
use aggcache_schema::GroupById;
use std::collections::HashMap;

/// The kind of one delta record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add a new fact tuple (duplicates are legitimate, as in a real fact
    /// table).
    Insert,
    /// Remove one instance of an existing tuple, matched on coordinates
    /// *and* exact value bits. A delete that matches nothing is counted as
    /// unmatched and otherwise ignored.
    Delete,
}

/// One insert or delete of a fact tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// Whether the tuple is inserted or deleted.
    pub op: DeltaOp,
    /// Value coordinates at the fact table's group-by level.
    pub coords: Vec<u32>,
    /// The measure value.
    pub value: f64,
}

/// An ordered batch of fact-table inserts and deletes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    records: Vec<DeltaRecord>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an insert of `(coords, value)`.
    pub fn insert(&mut self, coords: &[u32], value: f64) -> &mut Self {
        self.records.push(DeltaRecord {
            op: DeltaOp::Insert,
            coords: coords.to_vec(),
            value,
        });
        self
    }

    /// Appends a delete of one instance of `(coords, value)`.
    pub fn delete(&mut self, coords: &[u32], value: f64) -> &mut Self {
        self.records.push(DeltaRecord {
            op: DeltaOp::Delete,
            coords: coords.to_vec(),
            value,
        });
        self
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in batch order.
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }

    /// Validates every record against the grid at the fact table's
    /// group-by: coordinate arity must match the dimension count, and each
    /// coordinate must be within its dimension's cardinality at that level.
    ///
    /// This is the typed boundary that keeps malformed user input out of
    /// the `debug_assert`-guarded `ChunkData` hot paths.
    pub fn validate(&self, grid: &ChunkGrid, gb: GroupById) -> Result<(), ChunkError> {
        let n_dims = grid.num_dims();
        let level = grid.geom(gb).level();
        for (i, rec) in self.records.iter().enumerate() {
            if rec.coords.len() != n_dims {
                return Err(ChunkError::BadCellArity {
                    record: i,
                    expected: n_dims,
                    got: rec.coords.len(),
                });
            }
            for (d, &coord) in rec.coords.iter().enumerate() {
                let cardinality = grid.schema().dimension(d).cardinality(level[d]);
                if coord >= cardinality {
                    return Err(ChunkError::CellOutOfRange {
                        record: i,
                        dim: d,
                        value: coord,
                        cardinality,
                    });
                }
            }
        }
        Ok(())
    }
}

/// What a [`DeltaBatch`] actually did to the fact table — the *effective*
/// delta after unmatched deletes are dropped. This is the payload the cache
/// layer rolls up to patch or invalidate resident chunks.
#[derive(Debug, Clone)]
pub struct EffectiveDelta {
    /// Tuples inserted, in batch order.
    pub inserted: ChunkData,
    /// Tuples removed (one instance per matched delete), in fact-file
    /// order — ascending chunk, then position in the chunk's run — not
    /// batch order: a delete takes the first instances the file holds, and
    /// the cache rolls its patches up from these in this order, so it is
    /// part of the bit-identity contract.
    pub deleted: ChunkData,
    /// Deletes that matched no resident tuple (coords + value bits).
    pub unmatched_deletes: u64,
    /// Sorted, deduplicated base chunk numbers touched by the effective
    /// inserts and deletes.
    pub base_chunks: Vec<ChunkNumber>,
}

impl EffectiveDelta {
    /// Whether the batch changed nothing (no effective inserts or deletes).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Effective tuple count (inserts + matched deletes).
    pub fn num_tuples(&self) -> u64 {
        (self.inserted.len() + self.deleted.len()) as u64
    }
}

/// Builds the delete multiset `(coords, value bits) → pending count` for
/// exact-match removal.
pub(crate) fn delete_multiset(batch: &DeltaBatch) -> HashMap<(Vec<u32>, u64), u64> {
    let mut pending: HashMap<(Vec<u32>, u64), u64> = HashMap::new();
    for rec in batch.records() {
        if rec.op == DeltaOp::Delete {
            *pending
                .entry((rec.coords.clone(), rec.value.to_bits()))
                .or_insert(0) += 1;
        }
    }
    pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::{Dimension, Schema};
    use std::sync::Arc;

    fn grid() -> Arc<ChunkGrid> {
        let schema = Arc::new(
            Schema::new(
                vec![
                    Dimension::balanced("a", vec![1, 2, 8]).unwrap(),
                    Dimension::flat("b", 4).unwrap(),
                ],
                "m",
            )
            .unwrap(),
        );
        Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 4], vec![1, 2]]).unwrap())
    }

    #[test]
    fn builder_appends_in_order() {
        let mut b = DeltaBatch::new();
        b.insert(&[1, 2], 3.0).delete(&[0, 0], 1.0);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.records()[0].op, DeltaOp::Insert);
        assert_eq!(b.records()[1].op, DeltaOp::Delete);
        assert_eq!(b.records()[1].coords, vec![0, 0]);
    }

    #[test]
    fn validate_accepts_in_range_records() {
        let g = grid();
        let base = g.schema().lattice().base();
        let mut b = DeltaBatch::new();
        b.insert(&[7, 3], 1.0).delete(&[0, 0], 2.0);
        assert!(b.validate(&g, base).is_ok());
        assert!(DeltaBatch::new().validate(&g, base).is_ok());
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let g = grid();
        let base = g.schema().lattice().base();
        let mut b = DeltaBatch::new();
        b.insert(&[1, 2], 1.0).insert(&[1, 2, 3], 1.0);
        assert_eq!(
            b.validate(&g, base).unwrap_err(),
            ChunkError::BadCellArity {
                record: 1,
                expected: 2,
                got: 3,
            }
        );
    }

    #[test]
    fn validate_rejects_out_of_range_coordinate() {
        let g = grid();
        let base = g.schema().lattice().base();
        let mut b = DeltaBatch::new();
        b.delete(&[0, 4], 1.0);
        assert_eq!(
            b.validate(&g, base).unwrap_err(),
            ChunkError::CellOutOfRange {
                record: 0,
                dim: 1,
                value: 4,
                cardinality: 4,
            }
        );
    }

    #[test]
    fn validate_respects_non_base_level() {
        // At level (1, 0) dim a has 2 values and dim b has 1.
        let g = grid();
        let gb = g.schema().lattice().id_of(&[1, 0]).unwrap();
        let mut ok = DeltaBatch::new();
        ok.insert(&[1, 0], 1.0);
        assert!(ok.validate(&g, gb).is_ok());
        let mut bad = DeltaBatch::new();
        bad.insert(&[2, 0], 1.0);
        assert!(matches!(
            bad.validate(&g, gb).unwrap_err(),
            ChunkError::CellOutOfRange {
                dim: 0,
                value: 2,
                ..
            }
        ));
    }
}
