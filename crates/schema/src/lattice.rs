use crate::{Level, SchemaError};

/// Dense identifier of a group-by (a node of the [`Lattice`]).
///
/// Ids are the mixed-radix linearization of the level tuple with radices
/// `h_i + 1`, so `GroupById(0)` is always the most aggregated group-by
/// `(0, …, 0)` and the largest id is the base group-by `(h_1, …, h_n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupById(pub u32);

impl GroupById {
    /// The raw index, usable directly into per-group-by arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The lattice of group-bys of a multi-dimensional schema.
///
/// A group-by `(x_1, …, x_n)` can be computed from `(y_1, …, y_n)` iff
/// `x_i <= y_i` for all `i` (paper §3). The lattice supports constant-time
/// id/level conversion and iteration over the immediate *parents* (one
/// dimension one step more detailed) and *children* (one step more
/// aggregated) of a node.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// `radices[d] = h_d + 1`.
    radices: Vec<u32>,
    /// Mixed-radix weights: `id = Σ level[d] * weights[d]`.
    weights: Vec<u32>,
    num_group_bys: u32,
}

impl Lattice {
    /// Builds the lattice for the given per-dimension hierarchy sizes.
    pub fn new(hierarchy_sizes: &[u8]) -> Result<Self, SchemaError> {
        if hierarchy_sizes.is_empty() {
            return Err(SchemaError::NoDimensions);
        }
        let radices: Vec<u32> = hierarchy_sizes.iter().map(|&h| u32::from(h) + 1).collect();
        let total: u128 = radices.iter().map(|&r| u128::from(r)).product();
        if total > u128::from(u32::MAX) {
            return Err(SchemaError::TooManyGroupBys { total });
        }
        let mut weights = vec![0u32; radices.len()];
        let mut w = 1u32;
        for d in (0..radices.len()).rev() {
            weights[d] = w;
            w = w.saturating_mul(radices[d]);
        }
        Ok(Self {
            radices,
            weights,
            num_group_bys: total as u32,
        })
    }

    /// Number of dimensions.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.radices.len()
    }

    /// Total number of group-bys, `Π (h_i + 1)`.
    #[inline]
    pub fn num_group_bys(&self) -> u32 {
        self.num_group_bys
    }

    /// Hierarchy size of dimension `d`.
    #[inline]
    pub fn hierarchy_size(&self, d: usize) -> u8 {
        (self.radices[d] - 1) as u8
    }

    /// The id of a level tuple.
    pub fn id_of(&self, level: &[u8]) -> Result<GroupById, SchemaError> {
        if level.len() != self.radices.len() {
            return Err(SchemaError::BadLevelArity {
                expected: self.radices.len(),
                got: level.len(),
            });
        }
        let mut id = 0u32;
        for (d, &l) in level.iter().enumerate() {
            if u32::from(l) >= self.radices[d] {
                return Err(SchemaError::LevelOutOfRange {
                    dim: d,
                    level: l,
                    max: self.hierarchy_size(d),
                });
            }
            id += u32::from(l) * self.weights[d];
        }
        Ok(GroupById(id))
    }

    /// The level tuple of an id.
    pub fn level_of(&self, id: GroupById) -> Level {
        let mut out = vec![0u8; self.radices.len()];
        self.level_into(id, &mut out);
        out
    }

    /// Writes the level tuple of `id` into `out` (must have `num_dims` slots).
    pub(crate) fn level_into(&self, id: GroupById, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.radices.len());
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = self.digit(id, d);
        }
    }

    /// The level of `id` along dimension `d`.
    #[inline]
    pub fn digit(&self, id: GroupById, d: usize) -> u8 {
        ((id.0 / self.weights[d]) % self.radices[d]) as u8
    }

    /// The most aggregated group-by `(0, …, 0)`.
    #[inline]
    pub fn top(&self) -> GroupById {
        GroupById(0)
    }

    /// The base group-by `(h_1, …, h_n)`.
    #[inline]
    pub fn base(&self) -> GroupById {
        GroupById(self.num_group_bys - 1)
    }

    /// Immediate parents of `id`: for each dimension not at its hierarchy
    /// maximum, the group-by one step more detailed along that dimension.
    /// Yields `(dimension, parent_id)`.
    pub fn parents(&self, id: GroupById) -> impl Iterator<Item = (usize, GroupById)> + '_ {
        (0..self.radices.len())
            .filter(move |&d| u32::from(self.digit(id, d)) + 1 < self.radices[d])
            .map(move |d| (d, GroupById(id.0 + self.weights[d])))
    }

    /// Whether `target` can be computed from `source` (i.e. `target <=
    /// source` componentwise). Every group-by is computable from itself.
    pub fn computable_from(&self, target: GroupById, source: GroupById) -> bool {
        (0..self.radices.len()).all(|d| self.digit(target, d) <= self.digit(source, d))
    }

    /// Number of lattice descendants of `id` (group-bys computable from it,
    /// including itself): `Π (l_i + 1)`. This is the quantity maximized by
    /// the two-level policy's pre-loading heuristic (paper §6.3).
    pub fn descendant_count(&self, id: GroupById) -> u64 {
        (0..self.radices.len())
            .map(|d| u64::from(self.digit(id, d)) + 1)
            .product()
    }

    /// Lemma 1: the number of distinct lattice paths from the group-by at
    /// `level` to the base group-by,
    /// `(Σ (h_i − l_i))! / Π (h_i − l_i)!`.
    ///
    /// Returns `None` on overflow of `u128`.
    pub fn num_paths_to_base(&self, level: &[u8]) -> Option<u128> {
        debug_assert_eq!(level.len(), self.radices.len());
        let gaps: Vec<u64> = level
            .iter()
            .enumerate()
            .map(|(d, &l)| u64::from(self.hierarchy_size(d)) - u64::from(l))
            .collect();
        // Multinomial coefficient computed incrementally as a product of
        // binomials to delay overflow: C(s_1, g_1) * C(s_1+s_2, g_2) * …
        let mut total: u64 = 0;
        let mut result: u128 = 1;
        for &g in &gaps {
            total += g;
            result = checked_binomial(total, g).and_then(|b| result.checked_mul(b))?;
        }
        Some(result)
    }

    /// Iterates over every group-by id, from most aggregated to base.
    pub fn iter_ids(&self) -> impl Iterator<Item = GroupById> {
        (0..self.num_group_bys).map(GroupById)
    }

    /// Iterates over `(id, level)` pairs for every group-by.
    pub fn iter_levels(&self) -> LevelIter<'_> {
        LevelIter {
            lattice: self,
            next: 0,
        }
    }

    /// Iterates over the ids of every group-by `<= base_level` componentwise
    /// (the sub-lattice from which a fact table at `base_level` can answer).
    pub fn iter_ids_under(&self, base: GroupById) -> impl Iterator<Item = GroupById> + '_ {
        self.iter_ids()
            .filter(move |&id| self.computable_from(id, base))
    }
}

/// Iterator over `(GroupById, Level)` pairs of a [`Lattice`].
pub struct LevelIter<'a> {
    lattice: &'a Lattice,
    next: u32,
}

impl Iterator for LevelIter<'_> {
    type Item = (GroupById, Level);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.lattice.num_group_bys {
            return None;
        }
        let id = GroupById(self.next);
        self.next += 1;
        Some((id, self.lattice.level_of(id)))
    }
}

/// `C(n, k)` with overflow checking, exact over `u128`.
fn checked_binomial(n: u64, k: u64) -> Option<u128> {
    let k = k.min(n - k.min(n));
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.checked_mul(u128::from(n - i))?;
        result /= u128::from(i) + 1;
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The APB-1 hierarchy sizes from the paper: Product 6, Customer 2,
    /// Time 3, Channel 1, Scenario 1.
    const APB: [u8; 5] = [6, 2, 3, 1, 1];

    #[test]
    fn apb_has_336_nodes() {
        let l = Lattice::new(&APB).unwrap();
        // (6+1)*(2+1)*(3+1)*(1+1)*(1+1) = 336, as stated in paper §7.
        assert_eq!(l.num_group_bys(), 336);
    }

    #[test]
    fn id_level_round_trip() {
        let l = Lattice::new(&APB).unwrap();
        for (id, level) in l.iter_levels() {
            assert_eq!(l.id_of(&level).unwrap(), id);
        }
    }

    #[test]
    fn top_and_base() {
        let l = Lattice::new(&APB).unwrap();
        assert_eq!(l.level_of(l.top()), vec![0, 0, 0, 0, 0]);
        assert_eq!(l.level_of(l.base()), vec![6, 2, 3, 1, 1]);
    }

    #[test]
    fn parents_are_one_step_more_detailed() {
        let l = Lattice::new(&APB).unwrap();
        let id = l.id_of(&[0, 2, 0, 1, 0]).unwrap();
        let parents: Vec<Level> = l.parents(id).map(|(_, p)| l.level_of(p)).collect();
        assert_eq!(
            parents,
            vec![
                vec![1, 2, 0, 1, 0],
                vec![0, 2, 1, 1, 0],
                vec![0, 2, 0, 1, 1]
            ]
        );
    }

    #[test]
    fn base_has_no_parents_top_no_children() {
        let l = Lattice::new(&APB).unwrap();
        assert_eq!(l.parents(l.base()).count(), 0);
        // The top is nobody's parent: nothing is more aggregated.
        assert!(l
            .iter_ids()
            .all(|id| l.parents(id).all(|(_, p)| p != l.top())));
    }

    #[test]
    fn computable_from_is_componentwise() {
        let l = Lattice::new(&APB).unwrap();
        let a = l.id_of(&[0, 2, 0, 0, 0]).unwrap();
        let b = l.id_of(&[0, 2, 1, 0, 0]).unwrap();
        let c = l.id_of(&[1, 2, 0, 0, 0]).unwrap();
        assert!(l.computable_from(a, b));
        assert!(l.computable_from(a, c));
        assert!(!l.computable_from(b, c));
        assert!(l.computable_from(a, a));
    }

    #[test]
    fn descendant_count_matches_enumeration() {
        let l = Lattice::new(&[2, 1, 3]).unwrap();
        for id in l.iter_ids() {
            let brute = l.iter_ids().filter(|&x| l.computable_from(x, id)).count() as u64;
            assert_eq!(l.descendant_count(id), brute);
        }
    }

    /// Dynamic-programming path count used as an oracle for Lemma 1.
    fn dp_paths(l: &Lattice, from: GroupById) -> u128 {
        fn rec(l: &Lattice, id: GroupById, memo: &mut HashMap<u32, u128>) -> u128 {
            if id == l.base() {
                return 1;
            }
            if let Some(&v) = memo.get(&id.0) {
                return v;
            }
            let v = l.parents(id).map(|(_, p)| rec(l, p, memo)).sum();
            memo.insert(id.0, v);
            v
        }
        rec(l, from, &mut HashMap::new())
    }

    #[test]
    fn lemma1_formula_matches_dp() {
        let l = Lattice::new(&[3, 2, 2]).unwrap();
        for (id, level) in l.iter_levels() {
            assert_eq!(l.num_paths_to_base(&level).unwrap(), dp_paths(&l, id));
        }
    }

    #[test]
    fn lemma1_apb_top() {
        let l = Lattice::new(&APB).unwrap();
        // (6+2+3+1+1)! / (6! 2! 3! 1! 1!) = 13!/(6!·2!·3!) = 720720.
        assert_eq!(l.num_paths_to_base(&[0, 0, 0, 0, 0]).unwrap(), 720720);
        assert_eq!(l.num_paths_to_base(&[6, 2, 3, 1, 1]).unwrap(), 1);
    }

    #[test]
    fn iter_ids_under_restricts_to_sublattice() {
        let l = Lattice::new(&APB).unwrap();
        let data_base = l.id_of(&[6, 2, 3, 1, 0]).unwrap();
        let under: Vec<GroupById> = l.iter_ids_under(data_base).collect();
        // 7*3*4*2*1 = 168 group-bys answerable from HistSale.
        assert_eq!(under.len(), 168);
        assert!(under.iter().all(|&id| l.digit(id, 4) == 0));
    }

    #[test]
    fn rejects_oversized_lattice() {
        let err = Lattice::new(&[255; 5]).unwrap_err();
        assert!(matches!(err, SchemaError::TooManyGroupBys { .. }));
    }

    #[test]
    fn rejects_bad_level_tuples() {
        let l = Lattice::new(&APB).unwrap();
        assert!(matches!(
            l.id_of(&[0, 0]).unwrap_err(),
            SchemaError::BadLevelArity { .. }
        ));
        assert!(matches!(
            l.id_of(&[7, 0, 0, 0, 0]).unwrap_err(),
            SchemaError::LevelOutOfRange { .. }
        ));
    }
}
