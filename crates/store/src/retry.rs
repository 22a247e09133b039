//! Retry with exponential backoff for backend sources.
//!
//! [`RetryingBackend`] wraps any [`BackendSource`] and re-attempts fetches
//! that fail with a retryable error ([`StoreError::is_retryable`]),
//! charging every failed attempt *and* every backoff delay to virtual
//! time. The backoff schedule is computed once from a validated
//! [`RetryPolicy`]: deterministic per seed, monotone non-decreasing, and
//! bounded by the policy's total backoff budget.

use crate::source::BackendSource;
use crate::{AggFn, BackendCostModel, FactTable, FetchResult, StoreError};
use aggcache_chunks::{ChunkGrid, ChunkNumber};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use std::fmt;
use std::sync::Arc;

/// Validation errors for a [`RetryPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub enum RetryPolicyError {
    /// `max_attempts` must be at least 1 (1 = no retries).
    ZeroAttempts,
}

impl fmt::Display for RetryPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroAttempts => write!(f, "retry policy needs max_attempts >= 1"),
        }
    }
}

impl std::error::Error for RetryPolicyError {}

/// A validated retry policy: the attempt count and the seed of the
/// jitter. The shape of the backoff is fixed — every caller used one.
///
/// The backoff before re-attempt *k* (1-based) starts from
/// [`BASE_BACKOFF_MS`](Self::BASE_BACKOFF_MS) `×`
/// [`BACKOFF_MULTIPLIER`](Self::BACKOFF_MULTIPLIER)`^(k-1)`, capped at
/// [`MAX_BACKOFF_MS`](Self::MAX_BACKOFF_MS), with a deterministic jitter
/// of up to [`JITTER`](Self::JITTER) of the step added on top. The
/// schedule is then forced monotone non-decreasing and truncated so its
/// sum never exceeds [`BUDGET_MS`](Self::BUDGET_MS) — so a policy can be
/// exhausted by either the attempt count or the budget, whichever comes
/// first.
///
/// ```
/// use aggcache_store::RetryPolicy;
///
/// let policy = RetryPolicy {
///     max_attempts: 5,
///     seed: 42,
/// };
/// policy.validate().unwrap();
/// let schedule = policy.backoff_schedule();
/// // One backoff between consecutive attempts, budget permitting.
/// assert!(schedule.len() as u32 <= policy.max_attempts - 1);
/// // Monotone non-decreasing, and bounded by the budget.
/// assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
/// assert!(schedule.iter().sum::<f64>() <= RetryPolicy::BUDGET_MS);
/// // Deterministic: the same policy always yields the same schedule.
/// assert_eq!(schedule, policy.backoff_schedule());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch attempts, including the first (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Seed of the deterministic jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Three retries, seed 0.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            seed: 0,
        }
    }
}

/// Deterministic uniform variate in [0, 1) for jitter step `i` of `seed`
/// (SplitMix64 finalizer over the pair).
fn jitter_variate(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

impl RetryPolicy {
    /// Backoff before the first re-attempt, in virtual ms.
    pub const BASE_BACKOFF_MS: f64 = 50.0;
    /// Exponential growth factor per re-attempt.
    pub const BACKOFF_MULTIPLIER: f64 = 2.0;
    /// Cap on any single backoff step before jitter, in virtual ms.
    pub const MAX_BACKOFF_MS: f64 = 1_000.0;
    /// Jitter fraction: each step is stretched by up to this fraction of
    /// itself, deterministically from the seed.
    pub const JITTER: f64 = 0.1;
    /// Total virtual ms the whole backoff schedule may spend. Attempts
    /// stop when the next backoff would exceed it.
    pub const BUDGET_MS: f64 = 5_000.0;

    /// Checks that there is at least one attempt.
    pub fn validate(&self) -> Result<(), RetryPolicyError> {
        if self.max_attempts == 0 {
            return Err(RetryPolicyError::ZeroAttempts);
        }
        Ok(())
    }

    /// The full backoff schedule in virtual ms: element `k` is the delay
    /// between attempt `k+1` and attempt `k+2`. Monotone non-decreasing,
    /// each step jittered deterministically from the seed, total bounded
    /// by [`RetryPolicy::BUDGET_MS`].
    pub fn backoff_schedule(&self) -> Vec<f64> {
        let retries = self.max_attempts.saturating_sub(1) as usize;
        let mut schedule = Vec::with_capacity(retries);
        let mut spent = 0.0f64;
        let mut prev = 0.0f64;
        for i in 0..retries {
            let raw = (Self::BASE_BACKOFF_MS * Self::BACKOFF_MULTIPLIER.powi(i as i32))
                .min(Self::MAX_BACKOFF_MS);
            let jittered = raw * (1.0 + Self::JITTER * jitter_variate(self.seed, i as u64));
            // Monotone by construction: never shrink below the previous
            // step (the cap can otherwise flatten while jitter wiggles).
            let step = jittered.max(prev);
            if spent + step > Self::BUDGET_MS {
                break;
            }
            spent += step;
            prev = step;
            schedule.push(step);
        }
        schedule
    }

    /// The backoff before re-attempt `attempt` (1-based), or `None` when
    /// the policy is exhausted at that point.
    pub fn backoff_ms(&self, attempt: u32) -> Option<f64> {
        self.backoff_schedule()
            .get(attempt.saturating_sub(1) as usize)
            .copied()
    }
}

/// A [`BackendSource`] decorator that retries retryable fetch failures
/// per a [`RetryPolicy`], charging failed attempts and backoff delays to
/// virtual time.
///
/// When the inner fetch succeeds on the first attempt nothing is added —
/// with a fault-free inner source the decorator is bit-transparent. When
/// every attempt fails, the fetch returns [`StoreError::Unavailable`]
/// carrying the attempt count and the total virtual time wasted.
pub struct RetryingBackend<B = crate::Backend> {
    inner: B,
    policy: RetryPolicy,
    /// Precomputed once: the policy is immutable after construction.
    schedule: Vec<f64>,
    tracer: Option<Arc<dyn Tracer>>,
}

impl<B: BackendSource> fmt::Debug for RetryingBackend<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryingBackend")
            .field("inner", &self.inner)
            .field("policy", &self.policy)
            .finish()
    }
}

impl<B: BackendSource> RetryingBackend<B> {
    /// Wraps `inner` with a validated retry policy.
    pub fn new(inner: B, policy: RetryPolicy) -> Result<Self, RetryPolicyError> {
        policy.validate()?;
        Ok(Self {
            schedule: policy.backoff_schedule(),
            inner,
            policy,
            tracer: None,
        })
    }

    /// The retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The wrapped source.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: BackendSource> BackendSource for RetryingBackend<B> {
    fn grid(&self) -> &Arc<ChunkGrid> {
        self.inner.grid()
    }

    fn fact(&self) -> &FactTable {
        self.inner.fact()
    }

    fn agg(&self) -> AggFn {
        self.inner.agg()
    }

    fn cost_model(&self) -> &BackendCostModel {
        self.inner.cost_model()
    }

    fn fetch(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Result<FetchResult, StoreError> {
        let mut wasted = 0.0f64;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.inner.fetch(gb, chunks) {
                Ok(mut result) => {
                    // First-attempt success adds exactly nothing, keeping
                    // the decorator bit-transparent on a healthy backend.
                    if wasted > 0.0 {
                        result.virtual_ms += wasted;
                    }
                    return Ok(result);
                }
                Err(err) if err.is_retryable() => {
                    wasted += err.virtual_ms();
                    let Some(&backoff) = self.schedule.get((attempt - 1) as usize) else {
                        return Err(StoreError::Unavailable {
                            attempts: attempt,
                            virtual_ms: wasted,
                        });
                    };
                    wasted += backoff;
                    if let Some(tracer) = &self.tracer {
                        tracer.emit(&Event::FetchRetry {
                            gb: gb.0,
                            chunks: chunks.len() as u64,
                            attempt,
                            backoff_virtual_ms: backoff,
                            error: err.class_name(),
                        });
                    }
                }
                Err(err) => return Err(err),
            }
        }
    }

    fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64> {
        self.inner.estimate_scan(gb, chunks)
    }

    fn estimate_fetch_ms(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<(f64, f64)> {
        self.inner.estimate_fetch_ms(gb, chunks)
    }

    // Maintenance never fails with an outage, so there is nothing to
    // retry: forward straight to the inner source.
    fn apply_delta(
        &mut self,
        batch: &crate::DeltaBatch,
    ) -> Result<crate::EffectiveDelta, aggcache_chunks::ChunkError> {
        self.inner.apply_delta(batch)
    }

    fn set_tracer(&mut self, tracer: Option<Arc<dyn Tracer>>) {
        self.tracer = tracer.clone();
        self.inner.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, FaultInjectingBackend, FaultProfile};
    use aggcache_chunks::ChunkData;
    use aggcache_obs::RecordingTracer;
    use aggcache_schema::{Dimension, Schema};

    fn backend() -> Backend {
        let schema = Arc::new(Schema::new(vec![Dimension::flat("a", 4).unwrap()], "m").unwrap());
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2]]).unwrap());
        let base = grid.schema().lattice().base();
        let mut cells = ChunkData::new(1);
        for a in 0..4u32 {
            cells.push(&[a], 1.0);
        }
        Backend::new(
            FactTable::load(grid, base, cells),
            AggFn::Sum,
            BackendCostModel::default(),
        )
    }

    #[test]
    fn healthy_backend_is_bit_transparent() {
        let plain = backend();
        let retrying = RetryingBackend::new(backend(), RetryPolicy::default()).unwrap();
        let base = plain.grid().schema().lattice().base();
        let a = plain.fetch(base, &[0, 1]).unwrap();
        let b = retrying.fetch(base, &[0, 1]).unwrap();
        assert_eq!(a.chunks, b.chunks);
        assert_eq!(a.virtual_ms.to_bits(), b.virtual_ms.to_bits());
    }

    #[test]
    fn transient_outage_is_retried_through() {
        // 2 failures then recovery; 4 attempts available.
        let faulty =
            FaultInjectingBackend::new(backend(), FaultProfile::fail_then_recover(2)).unwrap();
        let retrying = RetryingBackend::new(faulty, RetryPolicy::default()).unwrap();
        let base = retrying.grid().schema().lattice().base();
        let plain = backend().fetch(base, &[0]).unwrap();
        let r = retrying.fetch(base, &[0]).unwrap();
        assert_eq!(r.chunks, plain.chunks, "answer identical after retries");
        let schedule = retrying.policy().backoff_schedule();
        let expected_waste =
            2.0 * BackendCostModel::default().per_query_ms + schedule[0] + schedule[1];
        assert!(
            (r.virtual_ms - (plain.virtual_ms + expected_waste)).abs() < 1e-9,
            "retries and backoff are charged to virtual time"
        );
    }

    #[test]
    fn exhausted_retries_return_unavailable() {
        let policy = RetryPolicy {
            max_attempts: 3,
            seed: 0,
        };
        let faulty =
            FaultInjectingBackend::new(backend(), FaultProfile::fail_then_recover(100)).unwrap();
        let retrying = RetryingBackend::new(faulty, policy).unwrap();
        let base = retrying.grid().schema().lattice().base();
        match retrying.fetch(base, &[0]).unwrap_err() {
            StoreError::Unavailable {
                attempts,
                virtual_ms,
            } => {
                assert_eq!(attempts, 3);
                let schedule = policy.backoff_schedule();
                let expected =
                    3.0 * BackendCostModel::default().per_query_ms + schedule.iter().sum::<f64>();
                assert!((virtual_ms - expected).abs() < 1e-9);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn not_computable_is_never_retried() {
        // Build a backend whose facts live above the base: the base level
        // is not computable, which must pass through without retries.
        let schema = Arc::new(
            Schema::new(vec![Dimension::balanced("a", vec![1, 2, 4]).unwrap()], "m").unwrap(),
        );
        let grid = Arc::new(ChunkGrid::build(schema, &[vec![1, 2, 2]]).unwrap());
        let mid = grid.schema().lattice().id_of(&[1]).unwrap();
        let mut cells = ChunkData::new(1);
        cells.push(&[0], 1.0);
        let fact = FactTable::load(grid.clone(), mid, cells);
        let inner = Backend::new(fact, AggFn::Sum, BackendCostModel::default());
        let wrapped = RetryingBackend::new(inner, RetryPolicy::default()).unwrap();
        let detailed = grid.schema().lattice().base();
        assert!(matches!(
            wrapped.fetch(detailed, &[0]).unwrap_err(),
            StoreError::NotComputable { .. }
        ));
    }

    #[test]
    fn retry_events_are_emitted() {
        let tracer = Arc::new(RecordingTracer::new());
        let faulty =
            FaultInjectingBackend::new(backend(), FaultProfile::fail_then_recover(2)).unwrap();
        let mut retrying = RetryingBackend::new(faulty, RetryPolicy::default()).unwrap();
        retrying.set_tracer(Some(tracer.clone()));
        let base = retrying.grid().schema().lattice().base();
        retrying.fetch(base, &[0]).unwrap();
        let events = tracer.take();
        let retries: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::FetchRetry {
                    attempt,
                    backoff_virtual_ms,
                    error,
                    ..
                } => Some((*attempt, *backoff_virtual_ms, *error)),
                _ => None,
            })
            .collect();
        assert_eq!(retries.len(), 2);
        assert_eq!(retries[0].0, 1);
        assert_eq!(retries[1].0, 2);
        assert!(retries.iter().all(|r| r.1 > 0.0 && r.2 == "transient"));
        // The eventual successful fetch also reached the inner backend.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BackendFetch { .. })));
    }

    #[test]
    fn policy_validation_rejects_zero_attempts() {
        let none = RetryPolicy {
            max_attempts: 0,
            seed: 0,
        };
        assert_eq!(none.validate(), Err(RetryPolicyError::ZeroAttempts));
        assert!(RetryingBackend::new(backend(), none).is_err());
    }

    #[test]
    fn budget_truncates_schedule() {
        let policy = RetryPolicy {
            max_attempts: 50,
            seed: 0,
        };
        let schedule = policy.backoff_schedule();
        // 50 + 100 + 200 + 400 + 800 = 1,550, then steps of at least
        // 1,000: a fourth of those would pass 5,000.
        assert_eq!(schedule.len(), 8);
        assert!(schedule.iter().sum::<f64>() <= RetryPolicy::BUDGET_MS);
        assert!((50.0..55.0).contains(&policy.backoff_ms(1).unwrap()));
        assert_eq!(policy.backoff_ms(9), None);
    }
}
