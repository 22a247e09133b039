use crate::SchemaError;

/// A dimension with a value hierarchy.
///
/// Levels are numbered `0..=h` where `h` is the *hierarchy size*: level 0 is
/// the most aggregated level (often a single `ALL` value) and level `h` is
/// the most detailed. Each level `l >= 1` carries a roll-up map sending a
/// value id at level `l` to its ancestor value id at level `l - 1`.
///
/// Roll-up maps are required to be **monotone non-decreasing and
/// surjective**. Monotonicity means values are hierarchically sorted — the
/// standard OLAP dimension encoding — so a contiguous value range at a
/// detailed level rolls up to a contiguous range at the aggregated level.
/// This is what makes the chunk *closure property* of Deshpande et al.
/// possible (an aggregated chunk maps to a contiguous set of detailed
/// chunks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    name: String,
    /// `cardinalities[l]` = number of distinct values at level `l`.
    cardinalities: Vec<u32>,
    /// `rollups[l][v]` = ancestor at level `l - 1` of value `v` at level `l`.
    /// `rollups[0]` is empty.
    rollups: Vec<Vec<u32>>,
    /// The roll-up chain composed once per `(from, to <= from)` pair, at
    /// `composed[from * (from + 1) / 2 + to]` — what the aggregation kernel
    /// indexes per cell, so no plan or fetch builds a table of its own.
    /// A function of `rollups` alone, so the derived equality still holds.
    composed: Vec<Vec<u32>>,
}

impl Dimension {
    /// Creates a dimension from explicit cardinalities and roll-up maps.
    ///
    /// `rollups` must have one entry per level; `rollups[0]` must be empty
    /// and `rollups[l]` (for `l >= 1`) must have `cardinalities[l]` entries,
    /// be monotone non-decreasing, and be onto `0..cardinalities[l - 1]`.
    pub(crate) fn new(
        name: impl Into<String>,
        cardinalities: Vec<u32>,
        rollups: Vec<Vec<u32>>,
    ) -> Result<Self, SchemaError> {
        let name = name.into();
        if cardinalities.is_empty() {
            return Err(SchemaError::EmptyHierarchy { dim: name });
        }
        for (l, &c) in cardinalities.iter().enumerate() {
            if c == 0 {
                return Err(SchemaError::ZeroCardinality {
                    dim: name,
                    level: l,
                });
            }
            if l > 0 && c < cardinalities[l - 1] {
                return Err(SchemaError::NonMonotoneCardinality {
                    dim: name,
                    level: l,
                });
            }
        }
        if rollups.len() != cardinalities.len() || !rollups[0].is_empty() {
            return Err(SchemaError::BadRollupLength {
                dim: name,
                level: 0,
                expected: 0,
                got: rollups.first().map_or(usize::MAX, Vec::len),
            });
        }
        for l in 1..cardinalities.len() {
            let map = &rollups[l];
            let expected = cardinalities[l] as usize;
            if map.len() != expected {
                return Err(SchemaError::BadRollupLength {
                    dim: name,
                    level: l,
                    expected,
                    got: map.len(),
                });
            }
            for (i, w) in map.windows(2).enumerate() {
                if w[1] < w[0] {
                    return Err(SchemaError::NonMonotoneRollup {
                        dim: name,
                        level: l,
                        index: i + 1,
                    });
                }
            }
            // Monotone + first == 0 + last == card-1 + steps of at most 1
            // is exactly surjectivity onto 0..card[l-1].
            let parent_card = cardinalities[l - 1];
            let onto = map.first() == Some(&0)
                && map.last() == Some(&(parent_card - 1))
                && map.windows(2).all(|w| w[1] - w[0] <= 1);
            if !onto {
                return Err(SchemaError::NonSurjectiveRollup {
                    dim: name,
                    level: l,
                });
            }
        }
        let mut composed = Vec::new();
        for from in 0..cardinalities.len() {
            for to in 0..=from {
                let mut table: Vec<u32> = (0..cardinalities[from]).collect();
                for map in rollups[to + 1..=from].iter().rev() {
                    for t in table.iter_mut() {
                        *t = map[*t as usize];
                    }
                }
                composed.push(table);
            }
        }
        Ok(Self {
            name,
            cardinalities,
            rollups,
            composed,
        })
    }

    /// Creates a dimension with the given per-level cardinalities and
    /// *balanced* roll-up maps: value `v` at level `l` rolls up to
    /// `⌊v · card(l-1) / card(l)⌋`, spreading children as evenly as possible.
    pub fn balanced(name: impl Into<String>, cardinalities: Vec<u32>) -> Result<Self, SchemaError> {
        let mut rollups = vec![Vec::new()];
        for l in 1..cardinalities.len() {
            let c = u64::from(cardinalities[l]);
            let p = u64::from(*cardinalities.get(l - 1).unwrap_or(&1));
            let map = (0..c).map(|v| ((v * p) / c.max(1)) as u32).collect();
            rollups.push(map);
        }
        Self::new(name, cardinalities, rollups)
    }

    /// Creates a flat dimension: a single `ALL` level above a base level of
    /// the given cardinality (hierarchy size 1).
    pub fn flat(name: impl Into<String>, base_cardinality: u32) -> Result<Self, SchemaError> {
        Self::balanced(name, vec![1, base_cardinality])
    }

    /// The dimension name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hierarchy size `h`: the index of the most detailed level.
    pub fn hierarchy_size(&self) -> u8 {
        (self.cardinalities.len() - 1) as u8
    }

    /// Number of levels (`h + 1`).
    pub fn num_levels(&self) -> usize {
        self.cardinalities.len()
    }

    /// Number of distinct values at `level`.
    pub fn cardinality(&self, level: u8) -> u32 {
        self.cardinalities[level as usize]
    }

    /// The roll-up map from `level` to `level - 1`. Panics if `level == 0`.
    pub fn rollup_map(&self, level: u8) -> &[u32] {
        assert!(level > 0, "level 0 has no roll-up map");
        &self.rollups[level as usize]
    }

    /// Ancestor of value `v` (a value id at level `from`) at level `to`.
    ///
    /// Requires `to <= from`; walks the roll-up chain.
    pub fn ancestor_value(&self, from: u8, to: u8, v: u32) -> u32 {
        debug_assert!(to <= from, "ancestor level must be more aggregated");
        let mut v = v;
        for l in ((to + 1)..=from).rev() {
            v = self.rollups[l as usize][v as usize];
        }
        v
    }

    /// The roll-up maps from level `from` down to level `to` (`to <= from`)
    /// composed into a single lookup table, built once when the dimension
    /// was. Entry `i` is the ancestor of value `i`; the identity table when
    /// `from == to`.
    pub fn composed_rollup(&self, from: u8, to: u8) -> &[u32] {
        assert!(to <= from, "ancestor level must be more aggregated");
        let (from, to) = (usize::from(from), usize::from(to));
        &self.composed[from * (from + 1) / 2 + to]
    }

    /// The half-open range of level-`from` values rolling up to aggregated
    /// value `v` at level `to` (`to <= from`).
    pub fn descendant_value_range(&self, from: u8, to: u8, v: u32) -> (u32, u32) {
        debug_assert!(to <= from);
        let (mut lo, mut hi) = (v, v + 1);
        for l in (to + 1)..=from {
            let map = &self.rollups[l as usize];
            lo = map.partition_point(|&p| p < lo) as u32;
            hi = map.partition_point(|&p| p < hi) as u32;
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn product_like() -> Dimension {
        Dimension::balanced("product", vec![1, 4, 15, 75]).unwrap()
    }

    #[test]
    fn balanced_rollups_validate() {
        let d = product_like();
        assert_eq!(d.hierarchy_size(), 3);
        assert_eq!(d.cardinality(3), 75);
        assert_eq!(d.cardinality(0), 1);
    }

    #[test]
    fn flat_dimension() {
        let d = Dimension::flat("channel", 10).unwrap();
        assert_eq!(d.hierarchy_size(), 1);
        assert_eq!(d.cardinality(1), 10);
        for v in 0..10 {
            assert_eq!(d.ancestor_value(1, 0, v), 0);
        }
    }

    #[test]
    fn ancestor_walks_chain() {
        let d = product_like();
        for v in 0..75 {
            let l2 = d.ancestor_value(3, 2, v);
            let l1 = d.ancestor_value(2, 1, l2);
            assert_eq!(d.ancestor_value(3, 1, v), l1);
            assert_eq!(d.ancestor_value(3, 0, v), 0);
        }
    }

    #[test]
    fn composed_matches_ancestor() {
        let d = product_like();
        for from in 0..=3u8 {
            for to in 0..=from {
                let table = d.composed_rollup(from, to);
                for v in 0..d.cardinality(from) {
                    assert_eq!(table[v as usize], d.ancestor_value(from, to, v));
                }
            }
        }
    }

    #[test]
    fn descendant_range_inverts_rollup() {
        let d = product_like();
        for to in 0..=3u8 {
            for from in to..=3 {
                for v in 0..d.cardinality(to) {
                    let (lo, hi) = d.descendant_value_range(from, to, v);
                    assert!(lo < hi);
                    for w in lo..hi {
                        assert_eq!(d.ancestor_value(from, to, w), v);
                    }
                    if lo > 0 {
                        assert_ne!(d.ancestor_value(from, to, lo - 1), v);
                    }
                    if hi < d.cardinality(from) {
                        assert_ne!(d.ancestor_value(from, to, hi), v);
                    }
                }
            }
        }
    }

    #[test]
    fn single_level_dimension_is_degenerate_but_valid() {
        // A dimension with no hierarchy at all: only level 0.
        let d = Dimension::balanced("flag", vec![3]).unwrap();
        assert_eq!(d.hierarchy_size(), 0);
        assert_eq!(d.cardinality(0), 3);
        assert_eq!(d.composed_rollup(0, 0), vec![0, 1, 2]);
    }

    #[test]
    fn equal_cardinality_levels_are_identity() {
        // card[l-1] == card[l] forces a bijective roll-up.
        let d = Dimension::balanced("id", vec![1, 5, 5]).unwrap();
        for v in 0..5 {
            assert_eq!(d.ancestor_value(2, 1, v), v);
        }
    }

    #[test]
    fn rejects_decreasing_cardinality() {
        let err = Dimension::balanced("bad", vec![4, 2]).unwrap_err();
        assert!(matches!(err, SchemaError::NonMonotoneCardinality { .. }));
    }

    #[test]
    fn rejects_non_monotone_rollup() {
        let err = Dimension::new("bad", vec![2, 3], vec![vec![], vec![1, 0, 1]]).unwrap_err();
        assert!(matches!(err, SchemaError::NonMonotoneRollup { .. }));
    }

    #[test]
    fn rejects_non_surjective_rollup() {
        // Never reaches parent value 1.
        let err = Dimension::new("bad", vec![2, 3], vec![vec![], vec![0, 0, 0]]).unwrap_err();
        assert!(matches!(err, SchemaError::NonSurjectiveRollup { .. }));
        // Skips parent value 1 (step of 2).
        let err = Dimension::new("bad", vec![3, 3], vec![vec![], vec![0, 0, 2]]).unwrap_err();
        assert!(matches!(err, SchemaError::NonSurjectiveRollup { .. }));
    }

    #[test]
    fn rejects_zero_cardinality() {
        let err = Dimension::balanced("bad", vec![0, 4]).unwrap_err();
        assert!(matches!(err, SchemaError::ZeroCardinality { .. }));
    }

    #[test]
    fn rejects_empty_hierarchy() {
        let err = Dimension::balanced("bad", vec![]).unwrap_err();
        assert!(matches!(err, SchemaError::EmptyHierarchy { .. }));
    }
}
