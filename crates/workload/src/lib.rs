//! OLAP query-stream generation (paper §7.2).
//!
//! The paper evaluates caching policies on an artificial stream mixing four
//! query kinds that model an interactive OLAP session:
//!
//! * **Drill-down** — one dimension one level more detailed, over the region
//!   the previous query looked at;
//! * **Roll-up** — one dimension one level more aggregated (these are the
//!   queries only an *active* cache can answer without the backend);
//! * **Proximity** — the same level, a neighbouring region;
//! * **Random** — a jump to a random level and region.
//!
//! The paper's stream used 30% drill-down, 30% roll-up, 30% proximity and
//! 10% random — `QueryMix::paper`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod tenants;

pub use error::WorkloadError;
pub use tenants::{Arrival, MultiTenantConfig, TenantProfile, TrafficEngine};

use aggcache_chunks::ChunkGrid;
use aggcache_core::Query;
use aggcache_schema::{GroupById, Level};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The kind of each generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Random level and region.
    Random,
    /// One dimension one level more detailed.
    DrillDown,
    /// One dimension one level more aggregated.
    RollUp,
    /// Same level, shifted region.
    Proximity,
}

/// Probabilities of each query kind (must sum to 1).
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Probability of drill-down.
    pub drill_down: f64,
    /// Probability of roll-up.
    pub roll_up: f64,
    /// Probability of proximity.
    pub proximity: f64,
    /// Probability of random.
    pub random: f64,
}

impl QueryMix {
    /// The paper's mix: 30/30/30/10.
    pub(crate) fn paper() -> Self {
        Self {
            drill_down: 0.3,
            roll_up: 0.3,
            proximity: 0.3,
            random: 0.1,
        }
    }

    /// A purely random stream (no locality).
    pub fn random_only() -> Self {
        Self {
            drill_down: 0.0,
            roll_up: 0.0,
            proximity: 0.0,
            random: 1.0,
        }
    }

    /// Checks that every probability is a finite value in `[0, 1]` and
    /// that they sum to 1 (within `1e-9`).
    pub(crate) fn validate(&self) -> Result<(), WorkloadError> {
        for (name, value) in [
            ("drill_down", self.drill_down),
            ("roll_up", self.roll_up),
            ("proximity", self.proximity),
            ("random", self.random),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(WorkloadError::BadProbability { name, value });
            }
        }
        let sum = self.drill_down + self.roll_up + self.proximity + self.random;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(WorkloadError::MixSum { sum });
        }
        Ok(())
    }

    fn pick(&self, rng: &mut StdRng) -> QueryKind {
        let x: f64 = rng.gen();
        if x < self.drill_down {
            QueryKind::DrillDown
        } else if x < self.drill_down + self.roll_up {
            QueryKind::RollUp
        } else if x < self.drill_down + self.roll_up + self.proximity {
            QueryKind::Proximity
        } else {
            QueryKind::Random
        }
    }
}

/// Configuration of a [`QueryStream`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Kind probabilities.
    pub mix: QueryMix,
    /// The most detailed level queries may reach — normally the level of
    /// the fact data (queries below it would be unanswerable even at the
    /// backend).
    pub max_level: Level,
    /// Per-dimension cap on the chunk span of a query region.
    pub max_span: u32,
    /// Bias of random jumps towards aggregated levels: the probability of
    /// level `l` on a dimension is proportional to `aggregated_bias^l`.
    /// `1.0` = uniform; values below 1 favour aggregated levels, modelling
    /// the fact that OLAP analysts mostly query summaries and only
    /// occasionally drill to detail.
    pub aggregated_bias: f64,
    /// Optional Zipf skew over levels for random jumps: when `Some(s)`,
    /// the per-dimension level weight becomes the power law `1/(l+1)^s`
    /// instead of the geometric `aggregated_bias^l` — the multi-tenant
    /// engine uses this to give hot dashboard tenants Zipf-distributed
    /// popularity over the aggregated group-by levels. `None` (the
    /// default everywhere else) keeps the historical geometric weighting
    /// bit-identically.
    pub level_zipf: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's workload against data at `max_level`.
    pub fn paper(max_level: Level, seed: u64) -> Self {
        Self {
            mix: QueryMix::paper(),
            max_level,
            max_span: 2,
            aggregated_bias: 0.6,
            level_zipf: None,
            seed,
        }
    }

    /// Checks the configuration invariants: a valid [`QueryMix`],
    /// `max_span >= 1`, a finite positive `aggregated_bias` and a finite
    /// non-negative `level_zipf` (when set). Grid-dependent checks
    /// (`max_level` arity) happen in [`QueryStream::try_new`].
    pub(crate) fn validate(&self) -> Result<(), WorkloadError> {
        self.mix.validate()?;
        if self.max_span == 0 {
            return Err(WorkloadError::ZeroSpan);
        }
        if !self.aggregated_bias.is_finite() || self.aggregated_bias <= 0.0 {
            return Err(WorkloadError::BadBias {
                value: self.aggregated_bias,
            });
        }
        if let Some(s) = self.level_zipf {
            if !s.is_finite() || s < 0.0 {
                return Err(WorkloadError::BadSkew {
                    name: "level_zipf",
                    value: s,
                });
            }
        }
        Ok(())
    }
}

/// A deterministic, seeded OLAP query stream with drill/roll/proximity
/// locality.
pub struct QueryStream {
    grid: Arc<ChunkGrid>,
    cfg: WorkloadConfig,
    rng: StdRng,
    level: Level,
    /// Current region: per-dimension half-open chunk-coordinate ranges at
    /// `level`.
    region: Vec<(u32, u32)>,
}

impl QueryStream {
    /// Creates a stream over `grid` with the given configuration.
    ///
    /// # Panics
    /// On an invalid configuration — use [`QueryStream::try_new`] to get
    /// the typed [`WorkloadError`] instead.
    pub fn new(grid: Arc<ChunkGrid>, cfg: WorkloadConfig) -> Self {
        Self::try_new(grid, cfg).expect("invalid workload configuration")
    }

    /// Creates a stream over `grid`, validating the configuration
    /// (probabilities sum to 1, `max_span >= 1`, level arity matches the
    /// grid) instead of panicking mid-generation.
    pub fn try_new(grid: Arc<ChunkGrid>, cfg: WorkloadConfig) -> Result<Self, WorkloadError> {
        cfg.validate()?;
        if cfg.max_level.len() != grid.num_dims() {
            return Err(WorkloadError::LevelArity {
                expected: grid.num_dims(),
                got: cfg.max_level.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (level, region) = random_state(&grid, &cfg, &mut rng);
        Ok(Self {
            grid,
            cfg,
            rng,
            level,
            region,
        })
    }

    /// The group-by id of the current level.
    fn gb(&self) -> GroupById {
        self.grid
            .schema()
            .lattice()
            .id_of(&self.level)
            .expect("stream level is always valid")
    }

    /// Generates the next query along with its kind.
    pub fn next_with_kind(&mut self) -> (Query, QueryKind) {
        let mut kind = self.cfg.mix.pick(&mut self.rng);
        // Fallbacks at the lattice borders.
        if kind == QueryKind::DrillDown && !self.can_drill() {
            kind = QueryKind::RollUp;
        }
        if kind == QueryKind::RollUp && !self.can_roll() {
            kind = if self.can_drill() {
                QueryKind::DrillDown
            } else {
                QueryKind::Random
            };
        }
        match kind {
            QueryKind::Random => {
                let (level, region) = random_state(&self.grid, &self.cfg, &mut self.rng);
                self.level = level;
                self.region = region;
            }
            QueryKind::DrillDown => {
                let dims: Vec<usize> = (0..self.grid.num_dims())
                    .filter(|&d| self.level[d] < self.cfg.max_level[d])
                    .collect();
                let d = dims[self.rng.gen_range(0..dims.len())];
                let from = self.level[d];
                let (lo, hi) = self
                    .grid
                    .dim(d)
                    .descend_range(from, from + 1, self.region[d]);
                self.level[d] += 1;
                // Cap the span: drilling multiplies the chunk count.
                let hi = hi.min(lo + self.cfg.max_span);
                self.region[d] = (lo, hi);
            }
            QueryKind::RollUp => {
                let dims: Vec<usize> = (0..self.grid.num_dims())
                    .filter(|&d| self.level[d] > 0)
                    .collect();
                let d = dims[self.rng.gen_range(0..dims.len())];
                let from = self.level[d];
                let (lo, hi) = self.region[d];
                let alo = self.grid.dim(d).ascend_chunk(from, from - 1, lo);
                let ahi = self.grid.dim(d).ascend_chunk(from, from - 1, hi - 1) + 1;
                self.level[d] -= 1;
                self.region[d] = (alo, ahi.min(alo + self.cfg.max_span));
            }
            QueryKind::Proximity => {
                // Shift one dimension's window by one chunk, clamped.
                let d = self.rng.gen_range(0..self.grid.num_dims());
                let n = self.grid.dim(d).n_chunks(self.level[d]);
                let (lo, hi) = self.region[d];
                let span = hi - lo;
                let right = self.rng.gen_bool(0.5);
                let new_lo = if right {
                    (lo + 1).min(n - span)
                } else {
                    lo.saturating_sub(1)
                };
                self.region[d] = (new_lo, new_lo + span);
            }
        }
        let query = Query::from_region(&self.grid, self.gb(), &self.region);
        (query, kind)
    }

    fn can_drill(&self) -> bool {
        (0..self.grid.num_dims()).any(|d| self.level[d] < self.cfg.max_level[d])
    }

    fn can_roll(&self) -> bool {
        self.level.iter().any(|&l| l > 0)
    }

    /// Generates a vector of `n` queries (kinds discarded).
    pub fn take_queries(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_with_kind().0).collect()
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        Some(self.next_with_kind().0)
    }
}

fn random_state(
    grid: &ChunkGrid,
    cfg: &WorkloadConfig,
    rng: &mut StdRng,
) -> (Level, Vec<(u32, u32)>) {
    let level: Level = cfg
        .max_level
        .iter()
        .map(|&h| {
            // Weighted choice over 0..=h: geometric P(l) ∝ bias^l, or the
            // Zipf power law P(l) ∝ 1/(l+1)^s when `level_zipf` is set.
            let b = cfg.aggregated_bias.clamp(1e-6, 1.0);
            let weight = |l| match cfg.level_zipf {
                Some(s) => (f64::from(i32::from(l)) + 1.0).powf(-s),
                None => b.powi(i32::from(l)),
            };
            let total: f64 = (0..=h).map(weight).sum();
            let mut x: f64 = rng.gen::<f64>() * total;
            for l in 0..=h {
                x -= weight(l);
                if x <= 0.0 {
                    return l;
                }
            }
            h
        })
        .collect();
    let region = (0..grid.num_dims())
        .map(|d| {
            let n = grid.dim(d).n_chunks(level[d]);
            let span = rng.gen_range(1..=cfg.max_span.min(n));
            let lo = rng.gen_range(0..=(n - span));
            (lo, lo + span)
        })
        .collect();
    (level, region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_gen::fig4_spec;

    fn stream(seed: u64) -> QueryStream {
        let grid = fig4_spec().build_grid();
        let max = grid.schema().base_level();
        QueryStream::new(grid, WorkloadConfig::paper(max, seed))
    }

    #[test]
    fn queries_are_valid() {
        let mut s = stream(1);
        for _ in 0..500 {
            let (q, _) = s.next_with_kind();
            assert!(!q.chunks.is_empty());
            let n = s.grid.n_chunks(q.gb);
            for &c in &q.chunks {
                assert!(c < n);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Query> = stream(7).take(50).collect();
        let b: Vec<Query> = stream(7).take(50).collect();
        assert_eq!(a, b);
        let c: Vec<Query> = stream(8).take(50).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_roughly_matches_probabilities() {
        let mut s = stream(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2000 {
            let (_, kind) = s.next_with_kind();
            *counts.entry(kind).or_insert(0u32) += 1;
        }
        // Fallbacks shift some mass, but drill/roll/proximity must each be
        // a substantial share and random a small one.
        let dd = counts[&QueryKind::DrillDown] as f64 / 2000.0;
        let ru = counts[&QueryKind::RollUp] as f64 / 2000.0;
        let px = counts[&QueryKind::Proximity] as f64 / 2000.0;
        let rd = *counts.get(&QueryKind::Random).unwrap_or(&0) as f64 / 2000.0;
        assert!(dd > 0.15 && ru > 0.15 && px > 0.2, "{counts:?}");
        assert!(rd < 0.2, "{counts:?}");
    }

    #[test]
    fn drill_down_goes_one_level_deeper() {
        let mut s = stream(11);
        let mut seen_drill = false;
        let mut prev_level = s.level.clone();
        for _ in 0..200 {
            let (q, kind) = s.next_with_kind();
            let level = s.grid.schema().lattice().level_of(q.gb);
            if kind == QueryKind::DrillDown {
                seen_drill = true;
                let diffs: Vec<i32> = level
                    .iter()
                    .zip(&prev_level)
                    .map(|(&a, &b)| i32::from(a) - i32::from(b))
                    .collect();
                assert_eq!(diffs.iter().sum::<i32>(), 1, "{diffs:?}");
                assert!(diffs.iter().all(|&d| (0..=1).contains(&d)));
            }
            prev_level = level;
        }
        assert!(seen_drill);
    }

    #[test]
    fn roll_up_goes_one_level_higher_over_same_region() {
        let grid = fig4_spec().build_grid();
        let max = grid.schema().base_level();
        let mut s = QueryStream::new(
            grid.clone(),
            WorkloadConfig {
                mix: QueryMix {
                    drill_down: 0.0,
                    roll_up: 1.0,
                    proximity: 0.0,
                    random: 0.0,
                },
                max_level: max,
                max_span: 2,
                aggregated_bias: 1.0,
                level_zipf: None,
                seed: 5,
            },
        );
        let mut prev_level = s.level.clone();
        for _ in 0..20 {
            let (q, kind) = s.next_with_kind();
            let level = grid.schema().lattice().level_of(q.gb);
            if kind == QueryKind::RollUp {
                let sum_prev: u32 = prev_level.iter().map(|&l| u32::from(l)).sum();
                let sum_now: u32 = level.iter().map(|&l| u32::from(l)).sum();
                assert_eq!(sum_now + 1, sum_prev);
            }
            prev_level = level;
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let grid = fig4_spec().build_grid();
        let max = grid.schema().base_level();
        // Regression: max_span = 0 used to panic deep inside the region
        // sampler ("cannot sample empty range") instead of erroring.
        let mut cfg = WorkloadConfig::paper(max.clone(), 1);
        cfg.max_span = 0;
        assert_eq!(
            QueryStream::try_new(grid.clone(), cfg).err(),
            Some(WorkloadError::ZeroSpan)
        );
        // Probabilities that do not sum to 1 silently skewed the stream.
        let mut cfg = WorkloadConfig::paper(max.clone(), 1);
        cfg.mix.random = 0.0;
        assert!(matches!(
            QueryStream::try_new(grid.clone(), cfg).err(),
            Some(WorkloadError::MixSum { .. })
        ));
        // Negative probabilities are rejected by name.
        let mut cfg = WorkloadConfig::paper(max.clone(), 1);
        cfg.mix.drill_down = -0.1;
        cfg.mix.random = 0.5;
        assert_eq!(
            QueryStream::try_new(grid.clone(), cfg).err(),
            Some(WorkloadError::BadProbability {
                name: "drill_down",
                value: -0.1
            })
        );
        // Arity mismatch against the grid.
        let cfg = WorkloadConfig::paper(vec![1], 1);
        assert_eq!(
            QueryStream::try_new(grid.clone(), cfg).err(),
            Some(WorkloadError::LevelArity {
                expected: 2,
                got: 1
            })
        );
        // And a valid config still constructs.
        assert!(QueryStream::try_new(grid, WorkloadConfig::paper(max, 1)).is_ok());
    }

    #[test]
    fn level_zipf_biases_random_jumps_to_aggregated_levels() {
        let grid = fig4_spec().build_grid();
        let max = grid.schema().base_level();
        let run = |zipf: Option<f64>| {
            let mut cfg = WorkloadConfig::paper(max.clone(), 42);
            cfg.mix = QueryMix::random_only();
            cfg.level_zipf = zipf;
            let mut s = QueryStream::new(grid.clone(), cfg);
            let mut depth = 0u64;
            for _ in 0..1000 {
                let (q, _) = s.next_with_kind();
                let level = grid.schema().lattice().level_of(q.gb);
                depth += level.iter().map(|&l| u64::from(l)).sum::<u64>();
            }
            depth
        };
        // A strong Zipf skew concentrates mass on the most aggregated
        // levels, so mean query depth drops vs the geometric default.
        assert!(run(Some(3.0)) < run(None));
        // Zero skew is uniform — deeper on average than bias 0.6.
        assert!(run(Some(0.0)) > run(None));
    }

    #[test]
    fn respects_max_level() {
        let grid = fig4_spec().build_grid();
        // Fact data "lives" at (1, 0): dim y must stay at level 0.
        let mut s = QueryStream::new(grid.clone(), WorkloadConfig::paper(vec![1, 0], 9));
        for _ in 0..300 {
            let (q, _) = s.next_with_kind();
            let level = grid.schema().lattice().level_of(q.gb);
            assert!(level[1] == 0, "never exceeds the fact level");
            assert!(level[0] <= 1);
        }
    }

    #[test]
    fn proximity_keeps_level() {
        let grid = fig4_spec().build_grid();
        let max = grid.schema().base_level();
        let mut s = QueryStream::new(
            grid.clone(),
            WorkloadConfig {
                mix: QueryMix {
                    drill_down: 0.0,
                    roll_up: 0.0,
                    proximity: 1.0,
                    random: 0.0,
                },
                max_level: max,
                max_span: 1,
                aggregated_bias: 1.0,
                level_zipf: None,
                seed: 13,
            },
        );
        let first_level = s.level.clone();
        for _ in 0..50 {
            let (q, kind) = s.next_with_kind();
            assert_eq!(kind, QueryKind::Proximity);
            assert_eq!(grid.schema().lattice().level_of(q.gb), first_level);
        }
    }
}
