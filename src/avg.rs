//! Algebraic aggregates over distributive cubes: AVG as SUM / COUNT.
//!
//! The cache machinery is only sound for *distributive* aggregates (partial
//! aggregates combine into coarser ones), which is why [`AggFn`] has no
//! `Avg`. The standard decomposition runs two cubes — one SUM, one COUNT —
//! through their own active caches and joins the results cell by cell.

use aggcache_chunks::ChunkData;
use aggcache_core::{
    CacheError, CacheManager, CacheManagerBuilder, ConfigError, ManagerConfig, Query, QueryMetrics,
};
use aggcache_obs::Tracer;
use aggcache_store::{AggFn, Backend, BackendCostModel, FactTable};
use std::sync::Arc;

/// Per-query metrics of an AVG execution: one entry per underlying cube.
#[derive(Debug, Clone, Copy)]
pub struct AvgMetrics {
    /// Metrics of the SUM cube's query.
    pub sum: QueryMetrics,
    /// Metrics of the COUNT cube's query.
    pub count: QueryMetrics,
}

impl AvgMetrics {
    /// Combined end-to-end virtual milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.sum.total_ms() + self.count.total_ms()
    }

    /// Whether both halves were answered entirely from their caches.
    pub fn complete_hit(&self) -> bool {
        self.sum.complete_hit && self.count.complete_hit
    }
}

/// An AVG cube implemented as two aggregate-aware caches (SUM and COUNT)
/// over the same fact table.
///
/// ```
/// use aggcache::avg::AvgCache;
/// use aggcache::prelude::*;
///
/// let dataset = SyntheticSpec::new()
///     .dim("a", vec![1, 2, 6], vec![1, 2, 3])
///     .dim("b", vec![1, 4], vec![1, 2])
///     .tuples(200)
///     .build();
/// let config = CacheManagerBuilder::new()
///     .strategy(Strategy::Vcmc)
///     .policy(PolicyKind::TwoLevel)
///     .cache_bytes(1 << 20)
///     .config()
///     .unwrap();
/// let mut avg = AvgCache::new(dataset.fact, BackendCostModel::default(), config).unwrap();
/// let grid = avg.grid().clone();
/// let top = grid.schema().lattice().top();
/// let (cells, _) = avg.execute(&Query::full_group_by(&grid, top)).unwrap();
/// assert_eq!(cells.len(), 1);
/// assert!(cells.value_of(0) >= 1.0 && cells.value_of(0) <= 1000.0);
/// ```
pub struct AvgCache {
    sum: CacheManager,
    count: CacheManager,
}

impl AvgCache {
    /// Builds the two caches over (clones of) `fact`, validating `config`.
    /// Each cache gets the full configured budget; halve
    /// `config.cache_bytes` to model a shared budget.
    pub fn new(
        fact: FactTable,
        cost: BackendCostModel,
        config: ManagerConfig,
    ) -> Result<Self, ConfigError> {
        let sum_backend = Backend::new(fact.clone(), AggFn::Sum, cost);
        let count_backend = Backend::new(fact, AggFn::Count, cost);
        Ok(Self {
            sum: CacheManagerBuilder::from_config(config).build(sum_backend)?,
            count: CacheManagerBuilder::from_config(config).build(count_backend)?,
        })
    }

    /// Attaches a tracer to both underlying caches (SUM and COUNT events
    /// interleave in the same sink).
    pub fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.sum.set_tracer(tracer.clone());
        self.count.set_tracer(tracer);
    }

    /// The grid (shared by both cubes).
    pub fn grid(&self) -> &std::sync::Arc<aggcache_chunks::ChunkGrid> {
        self.sum.grid()
    }

    /// Pre-loads both cubes per the two-level policy.
    pub fn preload_best(&mut self) -> Result<(), CacheError> {
        self.sum.preload_best()?;
        self.count.preload_best()?;
        Ok(())
    }

    /// Executes a query on both cubes and joins the cells into averages.
    /// Fails with [`CacheError::CellMisalignment`] if the two cubes return
    /// different cell sets (which would make the averages silently wrong).
    pub fn execute(&mut self, query: &Query) -> Result<(ChunkData, AvgMetrics), CacheError> {
        let sums = self.sum.run(&query.into())?.into_result();
        let counts = self.count.run(&query.into())?.into_result();
        Self::join(sums, counts)
    }

    /// Joins the SUM and COUNT halves cell by cell. The two cubes run the
    /// same query over the same fact table, so their non-empty cell sets
    /// must be identical; any divergence means averages would be silently
    /// wrong, and is reported as [`CacheError::CellMisalignment`] rather
    /// than being a debug-only assertion.
    fn join(
        mut sums: aggcache_core::QueryResult,
        mut counts: aggcache_core::QueryResult,
    ) -> Result<(ChunkData, AvgMetrics), CacheError> {
        sums.data.sort_by_coords();
        counts.data.sort_by_coords();
        if sums.data.len() != counts.data.len() {
            return Err(CacheError::CellMisalignment {
                left_cells: sums.data.len(),
                right_cells: counts.data.len(),
                diverges_at: None,
            });
        }
        let mut out = ChunkData::with_capacity(sums.data.n_dims(), sums.data.len());
        for (i, ((cs, s), (cc, c))) in sums.data.iter().zip(counts.data.iter()).enumerate() {
            if cs != cc {
                return Err(CacheError::CellMisalignment {
                    left_cells: sums.data.len(),
                    right_cells: counts.data.len(),
                    diverges_at: Some(i),
                });
            }
            out.push(cs, if c > 0.0 { s / c } else { f64::NAN });
        }
        Ok((
            out,
            AvgMetrics {
                sum: sums.metrics,
                count: counts.metrics,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn dataset() -> Dataset {
        SyntheticSpec::new()
            .dim("a", vec![1, 3, 9], vec![1, 3, 3])
            .dim("b", vec![1, 6], vec![1, 3])
            .tuples(300)
            .seed(21)
            .build()
    }

    fn test_config() -> ManagerConfig {
        CacheManagerBuilder::new()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(1 << 22)
            .config()
            .unwrap()
    }

    #[test]
    fn avg_equals_sum_over_count() {
        let ds = dataset();
        let grid = ds.grid.clone();
        let sum_backend = Backend::new(ds.fact.clone(), AggFn::Sum, BackendCostModel::default());
        let count_backend =
            Backend::new(ds.fact.clone(), AggFn::Count, BackendCostModel::default());
        let mut avg = AvgCache::new(ds.fact, BackendCostModel::default(), test_config()).unwrap();
        for gb in grid.schema().lattice().iter_ids() {
            let q = Query::full_group_by(&grid, gb);
            let (cells, _) = avg.execute(&q).unwrap();
            // Oracle: fetch sums and counts straight from backends.
            let mut s = ChunkData::new(grid.num_dims());
            let mut c = ChunkData::new(grid.num_dims());
            for (_, d) in sum_backend.fetch(gb, &q.chunks).unwrap().chunks {
                s.append(&d);
            }
            for (_, d) in count_backend.fetch(gb, &q.chunks).unwrap().chunks {
                c.append(&d);
            }
            s.sort_by_coords();
            c.sort_by_coords();
            assert_eq!(cells.len(), s.len());
            for (i, (coords, v)) in cells.iter().enumerate() {
                assert_eq!(coords, s.coords_of(i));
                let expected = s.value_of(i) / c.value_of(i);
                assert!((v - expected).abs() < 1e-9, "cell {coords:?}");
            }
        }
    }

    #[test]
    fn join_rejects_misaligned_cell_sets() {
        use aggcache_core::{QueryMetrics, QueryResult};
        let result = |cells: &[(&[u32], f64)]| {
            let mut d = ChunkData::new(2);
            for (c, v) in cells {
                d.push(c, *v);
            }
            QueryResult {
                data: d,
                metrics: QueryMetrics::default(),
            }
        };
        // Different cell counts.
        let err = AvgCache::join(
            result(&[(&[0, 0], 6.0), (&[0, 1], 4.0)]),
            result(&[(&[0, 0], 2.0)]),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CacheError::CellMisalignment {
                left_cells: 2,
                right_cells: 1,
                diverges_at: None
            }
        );
        // Same count, diverging coordinates.
        let err = AvgCache::join(
            result(&[(&[0, 0], 6.0), (&[0, 1], 4.0)]),
            result(&[(&[0, 0], 2.0), (&[1, 0], 2.0)]),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CacheError::CellMisalignment {
                left_cells: 2,
                right_cells: 2,
                diverges_at: Some(1)
            }
        );
        // Aligned sets join into averages.
        let (cells, _) = AvgCache::join(
            result(&[(&[0, 0], 6.0), (&[0, 1], 4.0)]),
            result(&[(&[0, 0], 2.0), (&[0, 1], 0.0)]),
        )
        .unwrap();
        assert_eq!(cells.value_of(0), 3.0);
        assert!(cells.value_of(1).is_nan(), "zero count yields NaN");
    }

    #[test]
    fn avg_rollups_hit_the_caches() {
        let ds = dataset();
        let grid = ds.grid.clone();
        let mut avg = AvgCache::new(ds.fact, BackendCostModel::default(), test_config()).unwrap();
        let base = grid.schema().lattice().base();
        let top = grid.schema().lattice().top();
        avg.execute(&Query::full_group_by(&grid, base)).unwrap();
        let (_, m) = avg.execute(&Query::full_group_by(&grid, top)).unwrap();
        assert!(m.complete_hit(), "both cubes answer the roll-up from cache");
        assert!(m.total_ms() < 10.0);
    }
}
