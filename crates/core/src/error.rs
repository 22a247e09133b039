use aggcache_schema::SchemaError;
use aggcache_store::{SpillError, StoreError};
use std::fmt;

/// Errors raised while validating a [`crate::CacheManagerBuilder`] /
/// [`crate::ManagerConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// No cache budget was supplied to the builder.
    MissingCacheBudget,
    /// A cache budget of zero bytes can never admit a chunk.
    ZeroCacheBudget,
    /// Batched execution needs at least one worker thread.
    ZeroThreads,
    /// [`crate::Strategy::Esmc`] with a node budget of zero gives up on
    /// every lookup; use `None` for the paper's unbounded search.
    ZeroNodeBudget,
    /// A virtual-time rate is negative or not finite.
    InvalidRate {
        /// Which rate field was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The spill tier could not be opened or warm-started (invalid cost
    /// model, unreadable directory or a corrupt index). Carries the
    /// rendered [`aggcache_store::SpillError`] so `ConfigError` stays
    /// `Clone`.
    Spill {
        /// The rendered underlying spill error.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCacheBudget => {
                write!(f, "no cache budget configured (call cache_bytes)")
            }
            Self::ZeroCacheBudget => write!(f, "cache budget must be > 0 bytes"),
            Self::ZeroThreads => write!(f, "thread count must be >= 1"),
            Self::ZeroNodeBudget => {
                write!(f, "ESMC node budget must be > 0 (None = unbounded)")
            }
            Self::InvalidRate { name, value } => {
                write!(f, "rate `{name}` must be finite and >= 0, got {value}")
            }
            Self::Spill { reason } => write!(f, "spill tier error: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The unified error surface of the cache manager: everything
/// [`crate::CacheManager::run`], [`crate::CacheManager::run_batch`]
/// and [`crate::CacheManager::execute_values`] (plus the pre-load entry
/// points and the builder) can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The backend could not answer a fetch.
    Store(StoreError),
    /// A query referenced levels the schema does not have.
    Schema(SchemaError),
    /// The manager configuration was invalid.
    Config(ConfigError),
    /// A spill-tier operation failed in a way recovery could not absorb
    /// (e.g. checkpointing without a spill tier attached, or an index
    /// persist failure). Per-record corruption never surfaces here — it
    /// is quarantined and re-served through the miss path.
    Spill(SpillError),
    /// The backend was unavailable (retries exhausted) **and** degraded
    /// serving failed: the listed chunks could not be computed from cached
    /// data either. The query has no answer; already-cached chunks stay
    /// valid and the cache state is unchanged by the failed query's misses.
    BackendUnavailable {
        /// The group-by that could not be answered.
        gb: aggcache_schema::GroupById,
        /// The chunks that could neither be fetched nor computed.
        chunks: Vec<u64>,
    },
    /// A [`crate::DeltaBatch`] failed validation at the ingestion boundary
    /// (wrong coordinate arity or an out-of-range coordinate). The fact
    /// table, the cache and every table are untouched.
    Delta(aggcache_chunks::ChunkError),
    /// A [`crate::Query`] or [`crate::ValueQuery`] failed validation at
    /// the request boundary (unknown group-by, chunk number out of range,
    /// empty or out-of-range value range). Nothing was looked up; the
    /// cache, every table and the version are untouched.
    Query(aggcache_chunks::ChunkError),
    /// Two cube results that must share one cell set diverged — e.g. the
    /// SUM and COUNT halves of an AVG decomposition returned different
    /// non-empty cells. Returning an answer would silently produce wrong
    /// values, so the join refuses instead.
    CellMisalignment {
        /// Cell count of the first (e.g. SUM) result.
        left_cells: usize,
        /// Cell count of the second (e.g. COUNT) result.
        right_cells: usize,
        /// Index of the first cell whose coordinates differ, when both
        /// results have the same length.
        diverges_at: Option<usize>,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Store(e) => write!(f, "backend error: {e}"),
            Self::Schema(e) => write!(f, "schema error: {e}"),
            Self::Config(e) => write!(f, "config error: {e}"),
            Self::Spill(e) => write!(f, "spill tier error: {e}"),
            Self::Delta(e) => write!(f, "delta batch rejected: {e}"),
            Self::Query(e) => write!(f, "query rejected: {e}"),
            Self::BackendUnavailable { gb, chunks } => write!(
                f,
                "backend unavailable and {} chunk(s) of group-by {} not computable from cache",
                chunks.len(),
                gb.0
            ),
            Self::CellMisalignment {
                left_cells,
                right_cells,
                diverges_at,
            } => match diverges_at {
                Some(i) => write!(
                    f,
                    "joined cube results disagree on cell coordinates at index {i}"
                ),
                None => write!(
                    f,
                    "joined cube results have different cell sets ({left_cells} vs {right_cells} cells)"
                ),
            },
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Schema(e) => Some(e),
            Self::Config(e) => Some(e),
            Self::Spill(e) => Some(e),
            Self::Delta(e) | Self::Query(e) => Some(e),
            Self::BackendUnavailable { .. } | Self::CellMisalignment { .. } => None,
        }
    }
}

impl From<StoreError> for CacheError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<SpillError> for CacheError {
    fn from(e: SpillError) -> Self {
        Self::Spill(e)
    }
}

impl From<aggcache_chunks::ChunkError> for CacheError {
    fn from(e: aggcache_chunks::ChunkError) -> Self {
        Self::Delta(e)
    }
}

impl From<SchemaError> for CacheError {
    fn from(e: SchemaError) -> Self {
        Self::Schema(e)
    }
}

impl From<ConfigError> for CacheError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_include_cause() {
        let e = CacheError::from(StoreError::NotComputable {
            requested: aggcache_schema::GroupById(1),
            fact: aggcache_schema::GroupById(0),
        });
        assert!(e.to_string().contains("backend error"));
        let e = CacheError::from(ConfigError::ZeroThreads);
        assert!(e.to_string().contains("thread count"));
        let e = CacheError::from(SchemaError::NoDimensions);
        assert!(e.to_string().contains("schema error"));
    }

    #[test]
    fn source_chains_to_inner() {
        use std::error::Error;
        let e = CacheError::from(ConfigError::MissingCacheBudget);
        assert!(e.source().is_some());
    }
}
