//! Deterministic fault injection for backend sources.
//!
//! [`FaultInjectingBackend`] wraps any [`BackendSource`] and injects
//! transient errors, timeouts and latency spikes from a seeded
//! deterministic PRNG — the same seed always produces the same fault
//! sequence, so chaos tests and the `fig_faults` sweep are exactly
//! reproducible. Faults cost virtual time (a failed round trip is not
//! free), never wall-clock sleeps.

use crate::source::BackendSource;
use crate::{AggFn, BackendCostModel, FactTable, FetchResult, StoreError};
use aggcache_chunks::hash::SplitMix64;
use aggcache_chunks::{ChunkGrid, ChunkNumber};
use aggcache_obs::{Event, Tracer};
use aggcache_schema::GroupById;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Validation errors for a [`FaultProfile`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultProfileError {
    /// A probability field is outside [0, 1] or not finite.
    InvalidRate {
        /// Which rate field was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A virtual-cost or multiplier field is invalid (must be finite; the
    /// latency-spike multiplier must be ≥ 1).
    InvalidCost {
        /// Which cost field was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRate { name, value } => {
                write!(f, "fault rate `{name}` must be in [0, 1], got {value}")
            }
            Self::InvalidCost { name, value } => {
                write!(f, "fault cost `{name}` is invalid: {value}")
            }
        }
    }
}

impl std::error::Error for FaultProfileError {}

/// The deterministic fault model of a [`FaultInjectingBackend`].
///
/// Each fetch draws three uniform variates from the seeded PRNG — timeout,
/// transient error, latency spike, in that order, *always all three* so
/// the random stream stays aligned whatever the rates are — plus an
/// optional fail-N-then-recover script that overrides the randomness for
/// the first `fail_first` fetches.
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// PRNG seed; identical seeds produce identical fault sequences.
    pub seed: u64,
    /// Probability a fetch fails with [`StoreError::Transient`].
    pub transient_rate: f64,
    /// Probability a fetch fails with [`StoreError::Timeout`].
    pub timeout_rate: f64,
    /// Probability a successful fetch's virtual cost is multiplied by
    /// [`FaultProfile::latency_spike_mult`].
    pub latency_spike_rate: f64,
    /// Virtual-cost multiplier of a latency spike (≥ 1).
    pub latency_spike_mult: f64,
    /// Virtual milliseconds charged for a timed-out attempt: the
    /// per-fetch timeout budget the caller waited out.
    pub timeout_ms: f64,
    /// The first `fail_first` fetches fail with [`StoreError::Transient`]
    /// regardless of the rates, then the backend "recovers" — the
    /// deterministic outage script used by the chaos suite.
    pub fail_first: u64,
}

impl Default for FaultProfile {
    /// A fault-free profile (all rates zero): wrapping a backend with the
    /// default profile changes nothing, bit for bit.
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            timeout_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_mult: 1.0,
            timeout_ms: 1_000.0,
            fail_first: 0,
        }
    }
}

impl FaultProfile {
    /// A profile failing every fetch class at `rate` (transient errors and
    /// timeouts each at `rate / 2`), seeded with `seed`.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            transient_rate: rate / 2.0,
            timeout_rate: rate / 2.0,
            latency_spike_rate: rate,
            latency_spike_mult: 4.0,
            ..Self::default()
        }
    }

    /// A deterministic outage script: the first `n` fetches fail, then
    /// every fetch succeeds.
    pub fn fail_then_recover(n: u64) -> Self {
        Self {
            fail_first: n,
            ..Self::default()
        }
    }

    /// Checks that every rate is a probability and every cost is sane.
    pub fn validate(&self) -> Result<(), FaultProfileError> {
        for (name, value) in [
            ("transient_rate", self.transient_rate),
            ("timeout_rate", self.timeout_rate),
            ("latency_spike_rate", self.latency_spike_rate),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultProfileError::InvalidRate { name, value });
            }
        }
        if !self.latency_spike_mult.is_finite() || self.latency_spike_mult < 1.0 {
            return Err(FaultProfileError::InvalidCost {
                name: "latency_spike_mult",
                value: self.latency_spike_mult,
            });
        }
        if !self.timeout_ms.is_finite() || self.timeout_ms < 0.0 {
            return Err(FaultProfileError::InvalidCost {
                name: "timeout_ms",
                value: self.timeout_ms,
            });
        }
        Ok(())
    }
}

#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    fetches: u64,
}

/// A [`BackendSource`] decorator injecting deterministic faults per the
/// configured [`FaultProfile`].
///
/// Estimation calls ([`BackendSource::estimate_scan`]) pass through
/// unfaulted — they model middle-tier statistics, not backend round trips.
/// With the default (all-zero) profile the wrapper is bit-transparent.
pub struct FaultInjectingBackend<B = crate::Backend> {
    inner: B,
    profile: FaultProfile,
    state: Mutex<FaultState>,
    /// Sink for [`Event::FetchTimeout`] emissions (the injector is the
    /// layer that knows an attempt timed out).
    tracer: Option<Arc<dyn Tracer>>,
}

impl<B: BackendSource> fmt::Debug for FaultInjectingBackend<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjectingBackend")
            .field("inner", &self.inner)
            .field("profile", &self.profile)
            .field("fetches", &self.state.lock().unwrap().fetches)
            .finish()
    }
}

impl<B: BackendSource> FaultInjectingBackend<B> {
    /// Wraps `inner` with a validated fault profile.
    pub fn new(inner: B, profile: FaultProfile) -> Result<Self, FaultProfileError> {
        profile.validate()?;
        Ok(Self {
            inner,
            profile,
            state: Mutex::new(FaultState {
                rng: SplitMix64(profile.seed),
                fetches: 0,
            }),
            tracer: None,
        })
    }

    /// The fault profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Fetches attempted so far (including failed ones).
    pub fn fetches_attempted(&self) -> u64 {
        self.state.lock().unwrap().fetches
    }

    /// The wrapped source.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Decides the fate of the next fetch. Always draws exactly three
    /// variates so the random stream is identical across rate settings.
    fn next_fault(&self) -> (u64, Option<StoreError>, f64) {
        let mut st = self.state.lock().unwrap();
        let seq = st.fetches;
        st.fetches += 1;
        let u_timeout = st.rng.next_f64();
        let u_transient = st.rng.next_f64();
        let u_spike = st.rng.next_f64();
        drop(st);
        if seq < self.profile.fail_first {
            let virtual_ms = self.inner.cost_model().per_query_ms;
            return (
                seq,
                Some(StoreError::Transient {
                    fetch_seq: seq,
                    virtual_ms,
                }),
                1.0,
            );
        }
        if u_timeout < self.profile.timeout_rate {
            return (
                seq,
                Some(StoreError::Timeout {
                    virtual_ms: self.profile.timeout_ms,
                }),
                1.0,
            );
        }
        if u_transient < self.profile.transient_rate {
            let virtual_ms = self.inner.cost_model().per_query_ms;
            return (
                seq,
                Some(StoreError::Transient {
                    fetch_seq: seq,
                    virtual_ms,
                }),
                1.0,
            );
        }
        let mult = if u_spike < self.profile.latency_spike_rate {
            self.profile.latency_spike_mult
        } else {
            1.0
        };
        (seq, None, mult)
    }
}

impl<B: BackendSource> BackendSource for FaultInjectingBackend<B> {
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
        let (_, fault, mult) = self.next_fault();
        if let Some(err) = fault {
            if let (StoreError::Timeout { virtual_ms }, Some(tracer)) = (&err, &self.tracer) {
                tracer.emit(&Event::FetchTimeout {
                    gb: gb.0,
                    chunks: chunks.len() as u64,
                    virtual_ms: *virtual_ms,
                });
            }
            return Err(err);
        }
        let mut result = self.inner.fetch(gb, chunks)?;
        if mult > 1.0 {
            result.virtual_ms *= mult;
        }
        Ok(result)
    }

    fn estimate_scan(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<u64> {
        self.inner.estimate_scan(gb, chunks)
    }

    fn estimate_fetch_ms(&self, gb: GroupById, chunks: &[ChunkNumber]) -> Option<(f64, f64)> {
        self.inner.estimate_fetch_ms(gb, chunks)
    }

    // Maintenance is local, not a network round trip: faults are never
    // injected into it, matching the trait's infallible-outage contract.
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
    use crate::Backend;
    use aggcache_chunks::ChunkData;
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
    fn zero_rates_are_bit_transparent() {
        let plain = backend();
        let wrapped = FaultInjectingBackend::new(backend(), FaultProfile::default()).unwrap();
        let base = plain.grid().schema().lattice().base();
        for _ in 0..5 {
            let a = plain.fetch(base, &[0, 1]).unwrap();
            let b = wrapped.fetch(base, &[0, 1]).unwrap();
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(a.virtual_ms.to_bits(), b.virtual_ms.to_bits());
        }
    }

    #[test]
    fn fail_then_recover_script_is_exact() {
        let wrapped =
            FaultInjectingBackend::new(backend(), FaultProfile::fail_then_recover(3)).unwrap();
        let base = wrapped.grid().schema().lattice().base();
        for i in 0..3 {
            let err = wrapped.fetch(base, &[0]).unwrap_err();
            assert!(
                matches!(err, StoreError::Transient { fetch_seq, .. } if fetch_seq == i),
                "fetch {i} must fail in order"
            );
            assert!(err.virtual_ms() > 0.0, "failed trips cost virtual time");
        }
        assert!(wrapped.fetch(base, &[0]).is_ok(), "recovers after N");
        assert_eq!(wrapped.fetches_attempted(), 4);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let outcomes = |seed| {
            let w = FaultInjectingBackend::new(
                backend(),
                FaultProfile {
                    transient_rate: 0.3,
                    timeout_rate: 0.2,
                    seed,
                    ..FaultProfile::default()
                },
            )
            .unwrap();
            let base = w.grid().schema().lattice().base();
            (0..50)
                .map(|_| match w.fetch(base, &[0]) {
                    Ok(_) => "ok",
                    Err(e) => e.class_name(),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8), "different seeds should differ");
        let counts = outcomes(7);
        assert!(counts.contains(&"transient"));
        assert!(counts.contains(&"timeout"));
        assert!(counts.contains(&"ok"));
    }

    #[test]
    fn latency_spike_multiplies_cost_only() {
        let w = FaultInjectingBackend::new(
            backend(),
            FaultProfile {
                latency_spike_rate: 1.0,
                latency_spike_mult: 3.0,
                ..FaultProfile::default()
            },
        )
        .unwrap();
        let base = w.grid().schema().lattice().base();
        let plain = backend().fetch(base, &[0]).unwrap();
        let spiked = w.fetch(base, &[0]).unwrap();
        assert_eq!(plain.chunks, spiked.chunks, "data unaffected");
        assert_eq!(spiked.virtual_ms, plain.virtual_ms * 3.0);
    }

    #[test]
    fn profile_validation_rejects_bad_values() {
        assert!(matches!(
            FaultInjectingBackend::new(
                backend(),
                FaultProfile {
                    transient_rate: 1.5,
                    ..FaultProfile::default()
                }
            )
            .unwrap_err(),
            FaultProfileError::InvalidRate {
                name: "transient_rate",
                ..
            }
        ));
        assert!(matches!(
            FaultInjectingBackend::new(
                backend(),
                FaultProfile {
                    latency_spike_mult: 0.5,
                    ..FaultProfile::default()
                }
            )
            .unwrap_err(),
            FaultProfileError::InvalidCost {
                name: "latency_spike_mult",
                ..
            }
        ));
    }
}
