//! Multi-tenant open-loop traffic generation.
//!
//! The paper replays one 100-query stream against the cache; the roadmap's
//! "heavy traffic from millions of users" requires the opposite regime:
//! many tenants with different access patterns competing for one cache
//! budget. This module grows the single [`QueryStream`] into a
//! deterministic open-loop traffic engine:
//!
//! * each tenant runs its own seeded [`QueryStream`] shaped by a
//!   [`TenantProfile`] (drill-down analyst sessions, dashboard refresh
//!   storms, ad-hoc scans);
//! * tenant popularity is Zipf-distributed — tenant `i`'s arrival rate is
//!   proportional to `1/(i+1)^skew`, so a handful of hot tenants dominate
//!   a skewed workload;
//! * arrivals are an open-loop Poisson process in *virtual time*
//!   (exponential inter-arrival times from each tenant's own RNG), merged
//!   into one globally ordered stream — deterministic per seed, byte for
//!   byte, independent of thread count or wall-clock speed.
//!
//! With one tenant and the default profile the merged stream degenerates
//! to exactly the single [`QueryStream`] (same seed, same queries, same
//! order) — the conformance suite in `tests/admission.rs` holds the rig to
//! that bit-identity.

use crate::{QueryKind, QueryMix, QueryStream, WorkloadConfig, WorkloadError};
use aggcache_chunks::hash::mix64;
use aggcache_chunks::ChunkGrid;
use aggcache_core::{Query, QueryRequest};
use aggcache_schema::Level;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The per-tenant workload shape: a query mix plus arrival and locality
/// parameters.
///
/// # Examples
///
/// ```
/// use aggcache_workload::TenantProfile;
///
/// // Stock profiles cover the lab's three regimes.
/// let storm = TenantProfile::dashboard_refresh();
/// assert_eq!(storm.name, "dashboard_refresh");
///
/// // A refresh storm arrives far faster than an ad-hoc scanner; the
/// // engine scales these base rates by Zipf tenant popularity.
/// assert!(storm.arrival_mean_vms < TenantProfile::ad_hoc_scan().arrival_mean_vms);
///
/// // `lab()` yields the round-robin assignment order used by the sweeps.
/// let names: Vec<&str> = TenantProfile::lab().iter().map(|p| p.name).collect();
/// assert_eq!(names, ["drill_down_session", "dashboard_refresh", "ad_hoc_scan"]);
/// ```
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Stable profile name (reports, traces).
    pub name: &'static str,
    /// Query-kind probabilities.
    pub mix: QueryMix,
    /// Mean inter-arrival time in virtual milliseconds *before* the Zipf
    /// popularity scaling (hot tenants arrive faster).
    pub arrival_mean_vms: f64,
    /// Bias of random jumps towards aggregated levels (geometric).
    pub aggregated_bias: f64,
    /// Per-dimension cap on the chunk span of a query region.
    pub max_span: u32,
}

impl TenantProfile {
    /// An interactive analyst session: the paper's 30/30/30/10 mix at the
    /// paper's locality parameters. With this profile, a single tenant
    /// reproduces [`WorkloadConfig::paper`] exactly.
    pub fn drill_down_session() -> Self {
        Self {
            name: "drill_down_session",
            mix: QueryMix::paper(),
            arrival_mean_vms: 50.0,
            aggregated_bias: 0.6,
            max_span: 2,
        }
    }

    /// A dashboard refresh storm: fast arrivals hammering the same few
    /// aggregated views — proximity/roll-up heavy, strong aggregation
    /// bias, narrow spans.
    pub fn dashboard_refresh() -> Self {
        Self {
            name: "dashboard_refresh",
            mix: QueryMix {
                drill_down: 0.05,
                roll_up: 0.25,
                proximity: 0.6,
                random: 0.1,
            },
            arrival_mean_vms: 10.0,
            aggregated_bias: 0.3,
            max_span: 1,
        }
    }

    /// An ad-hoc scanner: slow arrivals, mostly random jumps with wide
    /// spans and little locality — the tenant whose traffic flushes other
    /// tenants' working sets through an admit-everything cache.
    pub fn ad_hoc_scan() -> Self {
        Self {
            name: "ad_hoc_scan",
            mix: QueryMix {
                drill_down: 0.1,
                roll_up: 0.1,
                proximity: 0.1,
                random: 0.7,
            },
            arrival_mean_vms: 200.0,
            aggregated_bias: 0.9,
            max_span: 4,
        }
    }

    /// The three lab profiles, in round-robin assignment order.
    pub fn lab() -> Vec<Self> {
        vec![
            Self::drill_down_session(),
            Self::dashboard_refresh(),
            Self::ad_hoc_scan(),
        ]
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        self.mix.validate()?;
        if self.max_span == 0 {
            return Err(WorkloadError::ZeroSpan);
        }
        if !self.aggregated_bias.is_finite() || self.aggregated_bias <= 0.0 {
            return Err(WorkloadError::BadBias {
                value: self.aggregated_bias,
            });
        }
        if !self.arrival_mean_vms.is_finite() || self.arrival_mean_vms <= 0.0 {
            return Err(WorkloadError::BadRate {
                name: "arrival_mean_vms",
                value: self.arrival_mean_vms,
            });
        }
        Ok(())
    }
}

/// Configuration of a [`TrafficEngine`].
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// Number of tenants.
    pub tenants: u32,
    /// Zipf exponent of tenant popularity: tenant `i` (0-based) arrives at
    /// a rate proportional to `1/(i+1)^skew`. `0.0` = uniform rates.
    pub skew: f64,
    /// Zipf exponent over group-by levels for random jumps (applied to
    /// every tenant's stream). `0.0` disables it, keeping each profile's
    /// geometric `aggregated_bias` — required for single-stream
    /// bit-identity.
    pub level_skew: f64,
    /// Tenant profiles, assigned round-robin (tenant `i` gets
    /// `profiles[i % len]`).
    pub profiles: Vec<TenantProfile>,
    /// The most detailed level queries may reach (normally the fact
    /// level).
    pub max_level: Level,
    /// Base RNG seed. Tenant 0's query stream uses this seed verbatim, so
    /// a single-tenant engine reproduces `QueryStream::new(grid,
    /// WorkloadConfig::paper(max_level, seed))` exactly; tenants `i > 0`
    /// and all arrival processes use seeds derived by a splitmix64 hop.
    pub seed: u64,
}

impl MultiTenantConfig {
    /// A homogeneous rig: `tenants` analyst sessions with uniform
    /// popularity. With `tenants = 1` this is the single-stream paper
    /// workload, bit for bit.
    pub fn uniform(tenants: u32, max_level: Level, seed: u64) -> Self {
        Self {
            tenants,
            skew: 0.0,
            level_skew: 0.0,
            profiles: vec![TenantProfile::drill_down_session()],
            max_level,
            seed,
        }
    }

    /// A contended heterogeneous rig: all three lab profiles round-robin,
    /// Zipf tenant popularity and Zipf level popularity at the given skew.
    pub fn contended(tenants: u32, skew: f64, max_level: Level, seed: u64) -> Self {
        Self {
            tenants,
            skew,
            level_skew: skew,
            profiles: TenantProfile::lab(),
            max_level,
            seed,
        }
    }

    /// Checks the configuration invariants.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.tenants == 0 {
            return Err(WorkloadError::NoTenants);
        }
        if self.profiles.is_empty() {
            return Err(WorkloadError::NoProfiles);
        }
        for (name, value) in [("skew", self.skew), ("level_skew", self.level_skew)] {
            if !value.is_finite() || value < 0.0 {
                return Err(WorkloadError::BadSkew { name, value });
            }
        }
        for profile in &self.profiles {
            profile.validate()?;
        }
        Ok(())
    }
}

/// One arrival of the merged open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Virtual arrival time in milliseconds since the session start.
    pub vtime_ms: f64,
    /// The issuing tenant (0-based).
    pub tenant: u32,
    /// The generated query kind.
    pub kind: QueryKind,
    /// The query itself.
    pub query: Query,
}

struct TenantState {
    stream: QueryStream,
    /// RNG driving this tenant's arrival process — separate from the query
    /// RNG so tenant 0's query sequence stays bit-identical to the single
    /// stream.
    arrivals: StdRng,
    /// Mean inter-arrival time in virtual ms after popularity scaling.
    mean_vms: f64,
    /// Virtual time of this tenant's next arrival.
    next_vms: f64,
}

/// A deterministic multi-tenant open-loop traffic engine: N seeded
/// [`QueryStream`]s merged by virtual arrival time.
pub struct TrafficEngine {
    tenants: Vec<TenantState>,
}

impl TrafficEngine {
    /// Builds the engine over `grid`, validating the configuration.
    pub fn new(grid: Arc<ChunkGrid>, cfg: &MultiTenantConfig) -> Result<Self, WorkloadError> {
        cfg.validate()?;
        let mut tenants = Vec::with_capacity(cfg.tenants as usize);
        for i in 0..cfg.tenants {
            let profile = &cfg.profiles[i as usize % cfg.profiles.len()];
            let query_seed = if i == 0 {
                cfg.seed
            } else {
                mix64(cfg.seed ^ (u64::from(i)).wrapping_mul(0xd6e8_feb8_6659_fd93))
            };
            let workload = WorkloadConfig {
                mix: profile.mix,
                max_level: cfg.max_level.clone(),
                max_span: profile.max_span,
                aggregated_bias: profile.aggregated_bias,
                level_zipf: (cfg.level_skew > 0.0).then_some(cfg.level_skew),
                seed: query_seed,
            };
            let stream = QueryStream::try_new(grid.clone(), workload)?;
            // Zipf popularity: tenant i's arrival rate ∝ 1/(i+1)^skew,
            // i.e. its mean inter-arrival time grows as (i+1)^skew.
            let mean_vms = profile.arrival_mean_vms * (f64::from(i) + 1.0).powf(cfg.skew);
            let mut arrivals =
                StdRng::seed_from_u64(mix64(cfg.seed ^ 0xa5a5_a5a5_a5a5_a5a5 ^ u64::from(i)));
            let next_vms = exponential(&mut arrivals, mean_vms);
            tenants.push(TenantState {
                stream,
                arrivals,
                mean_vms,
                next_vms,
            });
        }
        Ok(Self { tenants })
    }

    /// Generates the next arrival of the merged stream: the tenant with
    /// the earliest next virtual arrival time issues one query from its
    /// stream, then schedules its next arrival. Ties (identical f64
    /// arrival times) break towards the lower tenant id, keeping the merge
    /// a pure function of the seed.
    pub fn next_arrival(&mut self) -> Arrival {
        let t = self
            .tenants
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.next_vms
                    .partial_cmp(&b.next_vms)
                    .expect("arrival times are finite")
            })
            .map(|(i, _)| i)
            .expect("at least one tenant");
        let state = &mut self.tenants[t];
        let vtime_ms = state.next_vms;
        let (query, kind) = state.stream.next_with_kind();
        state.next_vms += exponential(&mut state.arrivals, state.mean_vms);
        Arrival {
            vtime_ms,
            tenant: t as u32,
            kind,
            query,
        }
    }

    /// Generates the next `n` arrivals.
    pub fn take_arrivals(&mut self, n: usize) -> Vec<Arrival> {
        (0..n).map(|_| self.next_arrival()).collect()
    }

    /// Generates `n` arrivals as `(tenant, query)` pairs; to feed
    /// `CacheManager::run_batch` use [`TrafficEngine::requests`].
    pub fn tagged_queries(&mut self, n: usize) -> Vec<(u32, Query)> {
        (0..n)
            .map(|_| {
                let a = self.next_arrival();
                (a.tenant, a.query)
            })
            .collect()
    }

    /// Generates `n` arrivals as tenant-tagged [`QueryRequest`]s — the
    /// shape `CacheManager::run_batch` and the cluster tier consume.
    pub fn requests(&mut self, n: usize) -> Vec<QueryRequest> {
        (0..n)
            .map(|_| {
                let a = self.next_arrival();
                QueryRequest::new(a.query).tenant(a.tenant)
            })
            .collect()
    }
}

/// An exponential inter-arrival sample with the given mean, from the
/// uniform variate `u ∈ [0, 1)`: `-mean · ln(1 - u)`. Pure and
/// deterministic — virtual time only.
fn exponential(rng: &mut StdRng, mean_vms: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean_vms * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_gen::fig4_spec;

    fn grid() -> Arc<ChunkGrid> {
        fig4_spec().build_grid()
    }

    fn max_level(grid: &ChunkGrid) -> Level {
        grid.schema().base_level()
    }

    #[test]
    fn single_tenant_reproduces_single_stream_bit_identically() {
        let g = grid();
        let max = max_level(&g);
        let cfg = MultiTenantConfig::uniform(1, max.clone(), 2000);
        let mut engine = TrafficEngine::new(g.clone(), &cfg).unwrap();
        let mut single = QueryStream::new(g, WorkloadConfig::paper(max, 2000));
        for _ in 0..200 {
            let arrival = engine.next_arrival();
            let (query, kind) = single.next_with_kind();
            assert_eq!(arrival.tenant, 0);
            assert_eq!(arrival.query, query);
            assert_eq!(arrival.kind, kind);
        }
    }

    #[test]
    fn merged_stream_is_deterministic_per_seed() {
        let g = grid();
        let max = max_level(&g);
        let run = |seed: u64| {
            let cfg = MultiTenantConfig::contended(5, 1.0, max.clone(), seed);
            TrafficEngine::new(g.clone(), &cfg)
                .unwrap()
                .take_arrivals(300)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.query, y.query);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.vtime_ms.to_bits(), y.vtime_ms.to_bits());
        }
        assert_ne!(
            run(8).iter().map(|a| a.tenant).collect::<Vec<_>>(),
            a.iter().map(|a| a.tenant).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_are_time_ordered_and_all_tenants_participate() {
        let g = grid();
        let max = max_level(&g);
        let cfg = MultiTenantConfig::contended(4, 0.5, max, 11);
        let mut engine = TrafficEngine::new(g, &cfg).unwrap();
        let arrivals = engine.take_arrivals(400);
        let mut seen = std::collections::BTreeSet::new();
        let mut last = 0.0f64;
        for a in &arrivals {
            assert!(a.vtime_ms >= last, "arrivals must be time-ordered");
            assert!(a.vtime_ms.is_finite() && a.vtime_ms > 0.0);
            last = a.vtime_ms;
            seen.insert(a.tenant);
        }
        assert_eq!(seen.len(), 4, "every tenant issues queries: {seen:?}");
    }

    #[test]
    fn zipf_skew_concentrates_traffic_on_hot_tenants() {
        let g = grid();
        let max = max_level(&g);
        let share_of_tenant0 = |skew: f64| {
            let mut cfg = MultiTenantConfig::uniform(6, max.clone(), 3);
            cfg.skew = skew;
            let mut engine = TrafficEngine::new(g.clone(), &cfg).unwrap();
            let arrivals = engine.take_arrivals(1200);
            arrivals.iter().filter(|a| a.tenant == 0).count() as f64 / 1200.0
        };
        let uniform = share_of_tenant0(0.0);
        let skewed = share_of_tenant0(1.5);
        assert!(
            uniform < 0.3,
            "uniform rates spread traffic (tenant 0 share {uniform})"
        );
        assert!(
            skewed > 0.5,
            "skew 1.5 must concentrate traffic on tenant 0 (share {skewed})"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let g = grid();
        let max = max_level(&g);
        let mut cfg = MultiTenantConfig::uniform(0, max.clone(), 1);
        assert_eq!(cfg.validate().err(), Some(WorkloadError::NoTenants));
        cfg.tenants = 2;
        cfg.profiles.clear();
        assert_eq!(cfg.validate().err(), Some(WorkloadError::NoProfiles));
        let mut cfg = MultiTenantConfig::uniform(2, max.clone(), 1);
        cfg.skew = -1.0;
        assert!(matches!(
            cfg.validate().err(),
            Some(WorkloadError::BadSkew { name: "skew", .. })
        ));
        let mut cfg = MultiTenantConfig::uniform(2, max.clone(), 1);
        cfg.profiles[0].arrival_mean_vms = 0.0;
        assert!(matches!(
            TrafficEngine::new(g.clone(), &cfg).err(),
            Some(WorkloadError::BadRate { .. })
        ));
        assert!(TrafficEngine::new(g, &MultiTenantConfig::uniform(2, max, 1)).is_ok());
    }

    #[test]
    fn profiles_shape_per_tenant_streams() {
        let g = grid();
        let max = max_level(&g);
        // Two tenants: an analyst and an ad-hoc scanner. The scanner's
        // stream must contain a much larger share of random jumps.
        let cfg = MultiTenantConfig {
            tenants: 2,
            skew: 0.0,
            level_skew: 0.0,
            profiles: vec![
                TenantProfile::drill_down_session(),
                TenantProfile::ad_hoc_scan(),
            ],
            max_level: max,
            seed: 17,
        };
        let mut engine = TrafficEngine::new(g, &cfg).unwrap();
        let arrivals = engine.take_arrivals(2000);
        let share = |tenant: u32| {
            let mine: Vec<_> = arrivals.iter().filter(|a| a.tenant == tenant).collect();
            let random = mine.iter().filter(|a| a.kind == QueryKind::Random).count();
            random as f64 / mine.len().max(1) as f64
        };
        // ad_hoc_scan arrives 4× slower but still gets a share; compare
        // random-jump fractions.
        assert!(share(1) > share(0) + 0.3, "{} vs {}", share(1), share(0));
    }
}
