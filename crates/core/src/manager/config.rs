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
/// (`CacheManager::builder()`); [`CacheManager::config`] reads one back.
#[derive(Debug, Clone, Copy)]
pub struct ManagerConfig {
    /// The cache-lookup algorithm.
    pub strategy: Strategy,
    /// The replacement policy.
    pub(crate) policy: PolicyKind,
    /// The admission policy gating inserts that would evict. The default
    /// ([`AdmissionKind::BenefitMean`]) admits every feasible insert.
    pub(crate) admission: AdmissionKind,
    /// Cache budget in accounting bytes (20 bytes/tuple, as in the paper).
    pub(crate) cache_bytes: usize,
    /// Whether the two-level policy's group clock-boost is applied when a
    /// group of chunks computes an aggregate (§6.3 rule 2). On by default;
    /// disabling it is an ablation knob.
    pub(crate) group_boost: bool,
}

impl ManagerConfig {
    /// Checks the invariants [`CacheManagerBuilder`] enforces: a positive
    /// cache budget and a positive ESMC node budget.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.cache_bytes == 0 {
            return Err(ConfigError::ZeroCacheBudget);
        }
        if let Strategy::Esmc {
            node_budget: Some(0),
        } = self.strategy
        {
            return Err(ConfigError::ZeroNodeBudget);
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
    pub(crate) fn new() -> Self {
        Self {
            config: ManagerConfig {
                strategy: Strategy::Vcmc,
                policy: PolicyKind::TwoLevel,
                admission: AdmissionKind::BenefitMean,
                cache_bytes: 0,
                group_boost: true,
            },
            cache_bytes: None,
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

    /// Returns the builder unchanged: aggregation runs on one thread.
    /// Kept for `benchmark/` only: ROADMAP item 1(a) removes it.
    #[doc(hidden)]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables or disables the two-level policy's group boost.
    pub fn group_boost(mut self, on: bool) -> Self {
        self.config.group_boost = on;
        self
    }

    /// Attaches a tracer receiving every [`aggcache_obs::Event`] the
    /// manager, cache and backend emit. Without one, tracing costs a
    /// single `Option` check per site.
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
    pub(crate) fn config(&self) -> Result<ManagerConfig, ConfigError> {
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
            manager.attach_spill(spill).map_err(ConfigError::Spill)?;
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
                .strategy(Strategy::Esmc {
                    node_budget: Some(0)
                })
                .build(make_backend())
                .unwrap_err(),
            ConfigError::ZeroNodeBudget
        );
        // Unbounded ESMC is fine.
        assert!(CacheManager::builder()
            .cache_bytes(1000)
            .strategy(Strategy::Esmc { node_budget: None })
            .build(make_backend())
            .is_ok());
    }
}
