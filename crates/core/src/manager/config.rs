//! What a manager is built from: [`ManagerConfig`] and its validating
//! builder.

use super::CacheManager;
use crate::error::ConfigError;
use crate::lookup::Strategy;
use aggcache_cache::{AdmissionKind, PolicyKind};
use aggcache_obs::Tracer;
use aggcache_store::{BackendSource, SpillConfig};
use std::sync::Arc;

/// Configuration of the middle-tier cache manager.
///
/// Construct validated configurations through [`CacheManagerBuilder`]
/// (`CacheManager::builder()`); the struct stays public and `Copy` so
/// experiments can snapshot and tweak it.
#[derive(Debug, Clone, Copy)]
pub struct ManagerConfig {
    /// The cache-lookup algorithm.
    pub strategy: Strategy,
    /// The replacement policy.
    pub policy: PolicyKind,
    /// The admission policy gating inserts that would evict. The default
    /// ([`AdmissionKind::BenefitMean`]) admits every feasible insert.
    pub admission: AdmissionKind,
    /// Cache budget in accounting bytes (20 bytes/tuple, as in the paper).
    pub cache_bytes: usize,
    /// Virtual microseconds charged per tuple aggregated in the cache.
    /// Together with the backend cost model's ≈4 µs/tuple + per-query
    /// overhead, the default of 0.5 µs reproduces the paper's observed ≈8×
    /// advantage of in-cache aggregation (§7.1).
    pub cache_per_tuple_us: f64,
    /// Whether the two-level policy's group clock-boost is applied when a
    /// group of chunks computes an aggregate (§6.3 rule 2). On by default;
    /// disabling it is an ablation knob.
    pub group_boost: bool,
    /// Worker threads: large in-cache aggregations are sharded across
    /// this many threads (default 1). Results are bit-identical at any
    /// setting; only wall-clock time changes.
    pub threads: usize,
    /// Cost-based cache-vs-backend arbitration (paper §5.2: VCMC's
    /// instantaneous least cost is "very useful for a cost-based optimizer,
    /// which can then decide whether to aggregate in the cache or go to the
    /// backend"). When enabled, a computable chunk is still fetched from
    /// the backend if the modeled backend cost (e.g. a materialized
    /// aggregate) undercuts in-cache aggregation. Off by default — the
    /// paper's main experiments always aggregate in cache when possible.
    pub optimizer: bool,
}

impl ManagerConfig {
    /// Checks the invariants [`CacheManagerBuilder`] enforces: a positive
    /// cache budget, at least one thread, a finite non-negative
    /// aggregation rate, and a positive ESMC node budget.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cache_bytes == 0 {
            return Err(ConfigError::ZeroCacheBudget);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if let Strategy::Esmc {
            node_budget: Some(0),
        } = self.strategy
        {
            return Err(ConfigError::ZeroNodeBudget);
        }
        if !self.cache_per_tuple_us.is_finite() || self.cache_per_tuple_us < 0.0 {
            return Err(ConfigError::InvalidRate {
                name: "cache_per_tuple_us",
                value: self.cache_per_tuple_us,
            });
        }
        Ok(())
    }
}

/// Validating builder for [`CacheManager`] — the one construction path that
/// can also attach a [`Tracer`].
///
/// ```
/// # use aggcache_core::{CacheManager, Strategy};
/// # use aggcache_cache::PolicyKind;
/// # fn demo(backend: aggcache_store::Backend) -> Result<(), aggcache_core::ConfigError> {
/// let manager = CacheManager::builder()
///     .strategy(Strategy::Vcmc)
///     .policy(PolicyKind::TwoLevel)
///     .cache_bytes(1 << 20)
///     .threads(4)
///     .build(backend)?;
/// # let _ = manager; Ok(())
/// # }
/// ```
pub struct CacheManagerBuilder {
    config: ManagerConfig,
    cache_bytes: Option<usize>,
    tracer: Option<Arc<dyn Tracer>>,
    spill: Option<SpillConfig>,
}

impl Default for CacheManagerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheManagerBuilder {
    /// A builder with the paper's defaults (VCMC strategy, two-level
    /// policy) and **no cache budget** — [`CacheManagerBuilder::build`]
    /// fails with [`ConfigError::MissingCacheBudget`] until
    /// [`CacheManagerBuilder::cache_bytes`] is called.
    pub fn new() -> Self {
        Self {
            config: ManagerConfig {
                strategy: Strategy::Vcmc,
                policy: PolicyKind::TwoLevel,
                admission: AdmissionKind::BenefitMean,
                cache_bytes: 0,
                cache_per_tuple_us: 0.5,
                group_boost: true,
                threads: 1,
                optimizer: false,
            },
            cache_bytes: None,
            tracer: None,
            spill: None,
        }
    }

    /// A builder pre-filled from an existing config (budget included).
    pub fn from_config(config: ManagerConfig) -> Self {
        Self {
            cache_bytes: Some(config.cache_bytes),
            config,
            tracer: None,
            spill: None,
        }
    }

    /// Sets the cache-lookup strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the admission policy (default: [`AdmissionKind::BenefitMean`]).
    pub fn admission(mut self, admission: AdmissionKind) -> Self {
        self.config.admission = admission;
        self
    }

    /// Sets the cache budget in accounting bytes (required, must be > 0).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Sets the worker-thread count for sharded aggregation (must be ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables or disables the two-level policy's group boost.
    pub fn group_boost(mut self, on: bool) -> Self {
        self.config.group_boost = on;
        self
    }

    /// Enables or disables the §5.2 cost-based cache-vs-backend arbitration.
    pub fn optimizer(mut self, on: bool) -> Self {
        self.config.optimizer = on;
        self
    }

    /// Sets the virtual µs charged per tuple aggregated in cache.
    pub fn cache_per_tuple_us(mut self, rate: f64) -> Self {
        self.config.cache_per_tuple_us = rate;
        self
    }

    /// Attaches a tracer receiving every [`aggcache_obs::Event`] the
    /// manager, cache, backend and aggregation kernel emit. Without one,
    /// tracing costs a single `Option` check per site.
    pub fn tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a disk spill tier (on-disk format: `docs/FORMAT.md`):
    /// evicted chunks are demoted to `config.dir` instead of dropped,
    /// missing chunks are promoted back before the backend is asked, and a
    /// checkpoint found there warm-starts the manager during
    /// [`CacheManagerBuilder::build`]. Without this call nothing touches
    /// disk.
    pub fn spill(mut self, config: SpillConfig) -> Self {
        self.spill = Some(config);
        self
    }

    /// The validated configuration this builder would construct with.
    pub fn config(&self) -> Result<ManagerConfig, ConfigError> {
        let mut config = self.config;
        config.cache_bytes = self.cache_bytes.ok_or(ConfigError::MissingCacheBudget)?;
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration and builds the manager over `backend` —
    /// the simulated [`aggcache_store::Backend`] or any other
    /// [`BackendSource`] (e.g. a fault-injecting / retrying decorator
    /// stack).
    pub fn build(self, backend: impl BackendSource + 'static) -> Result<CacheManager, ConfigError> {
        let config = self.config()?;
        let mut manager = CacheManager::from_parts(Box::new(backend), config);
        if self.tracer.is_some() {
            manager.set_tracer(self.tracer);
        }
        if let Some(spill) = self.spill {
            manager
                .attach_spill(spill)
                .map_err(|e| ConfigError::Spill {
                    reason: e.to_string(),
                })?;
        }
        Ok(manager)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::make_backend;
    use super::*;

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            CacheManager::builder().build(make_backend()).unwrap_err(),
            ConfigError::MissingCacheBudget
        );
        assert_eq!(
            CacheManager::builder()
                .cache_bytes(0)
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroCacheBudget
        );
        assert_eq!(
            CacheManager::builder()
                .cache_bytes(1000)
                .threads(0)
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroThreads
        );
        assert_eq!(
            CacheManager::builder()
                .cache_bytes(1000)
                .strategy(Strategy::Esmc {
                    node_budget: Some(0)
                })
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroNodeBudget
        );
        let err = CacheManager::builder()
            .cache_bytes(1000)
            .cache_per_tuple_us(f64::NAN)
            .build(make_backend())
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::InvalidRate {
                name: "cache_per_tuple_us",
                ..
            }
        ));
        // Unbounded ESMC is fine.
        assert!(CacheManager::builder()
            .cache_bytes(1000)
            .strategy(Strategy::Esmc { node_budget: None })
            .build(make_backend())
            .is_ok());
    }
}
