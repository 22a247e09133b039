//! Typed trace events emitted by the cache manager, chunk cache, backend
//! and the parallel aggregation kernel.
//!
//! Events carry only primitive fields (`u32` group-by ids, `u64` chunk
//! numbers, `&'static str` names) so this crate sits below every other
//! crate in the dependency graph: the cache and store layers can emit
//! events without depending on the core types.
//!
//! **Virtual vs. wall time.** Fields named `*_ns` are measured wall-clock
//! nanoseconds; fields named `*_virtual_ms` are deterministic virtual
//! milliseconds from the cost model. The two are never mixed in one field:
//! the suffix is the whole time discipline, so a consumer that drops every
//! `*_ns` field keeps exactly the deterministic part of an event.

use crate::json::{push_str, JsonField, JsonObject};

/// How one chunk lookup resolved (paper §3–§5: hit / computable / miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The exact chunk was cached.
    Hit,
    /// Computable by aggregating other cached chunks.
    Computable,
    /// Not answerable from the cache.
    Miss,
}

impl LookupOutcome {
    /// Stable lowercase name (used by the JSON export).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Computable => "computable",
            Self::Miss => "miss",
        }
    }
}

/// The replacement tier a chunk belongs to — the paper's two benefit
/// classes (§6.1): fetched from the backend vs. computed in the cache,
/// plus the persistence tier's third class for chunks promoted from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Fetched from the backend (expensive to reproduce).
    Fetched,
    /// Computed by aggregating cached chunks (cheap to reproduce).
    Computed,
    /// Promoted from the disk spill tier (cheapest to reproduce — the
    /// bytes are still on disk). Absent unless a spill tier is attached.
    Spilled,
}

impl Tier {
    /// Stable lowercase name (used by the JSON export).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Fetched => "fetched",
            Self::Computed => "computed",
            Self::Spilled => "spilled",
        }
    }
}

impl JsonField for Tier {
    fn write_value(&self, out: &mut String) {
        push_str(out, self.name());
    }
}

impl JsonField for LookupOutcome {
    fn write_value(&self, out: &mut String) {
        push_str(out, self.name());
    }
}

impl JsonField for Event {
    fn write_value(&self, out: &mut String) {
        self.write_json(out);
    }
}

/// The single declaration of the event vocabulary: each
/// `Variant = "kind" { field: type, … }` entry yields the [`Event`]
/// variant, its [`Event::kind`] string, its [`Event::write_json`] arm
/// (fields in declaration order) and its [`Event::SCHEMA`] row.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
        },
    )*) => {
        /// One structured trace event.
        ///
        /// `query` fields carry a per-manager monotonically increasing probe
        /// id so concurrent probes interleaved in the event stream can be
        /// re-associated.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl Event {
            /// Every event kind with its field names, in declaration
            /// (= JSON) order: what a trace validator checks against.
            pub const SCHEMA: &'static [(&'static str, &'static [&'static str])] =
                &[ $( ($kind, &[ $( stringify!($field), )* ]), )* ];

            /// Stable snake_case name of the event kind (the JSON `type` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind, )*
                }
            }

            /// Serializes the event as one JSON object into `out`.
            pub fn write_json(&self, out: &mut String) {
                let mut object = JsonObject::open(out);
                object.field("type", self.kind());
                match self {
                    $( Event::$variant { $( $field, )* } => {
                        $( object.field(stringify!($field), $field); )*
                    } )*
                }
                object.close();
            }
        }
    };
}

events! {
    /// A query probe began.
    ProbeStart = "probe_start" {
        /// Probe id (correlates the probe's events).
        query: u64,
        /// Group-by id of the query.
        gb: u32,
        /// Number of chunks the query touches.
        chunks: u64,
        /// Cache version the probe runs against.
        version: u64,
        /// Lookup strategy name.
        strategy: &'static str,
    },
    /// One chunk lookup resolved during a probe.
    ChunkLookup = "chunk_lookup" {
        /// Probe id.
        query: u64,
        /// Group-by id of the chunk.
        gb: u32,
        /// Chunk number.
        chunk: u64,
        /// Hit / computable / miss.
        outcome: LookupOutcome,
        /// Lattice nodes visited by this lookup.
        nodes: u64,
    },
    /// A query probe finished.
    ProbeEnd = "probe_end" {
        /// Probe id.
        query: u64,
        /// Group-by id of the query.
        gb: u32,
        /// Cache version the probe ran against.
        version: u64,
        /// Direct hits.
        hits: u64,
        /// Chunks computable by in-cache aggregation.
        computable: u64,
        /// Chunks missing (backend fetches).
        missing: u64,
        /// Wall-clock nanoseconds of the whole probe.
        wall_ns: u64,
    },
    /// A computation plan was executed for a computable chunk.
    PlanChosen = "plan_chosen" {
        /// Probe id of the probe that produced the plan.
        query: u64,
        /// Group-by id of the target chunk.
        gb: u32,
        /// Target chunk number.
        chunk: u64,
        /// Number of leaf chunks aggregated.
        leaves: u64,
        /// Distinct group-by ids of the plan's leaves (the aggregation
        /// path's source levels).
        levels: Vec<u32>,
        /// Tuples the lookup predicted the plan would aggregate.
        predicted_tuples: u64,
        /// Tuples actually aggregated.
        actual_tuples: u64,
    },
    /// A retrying backend decorator scheduled a re-attempt after a
    /// transient fetch failure, charging the backoff delay to virtual time.
    FetchRetry = "fetch_retry" {
        /// Group-by id of the failed fetch.
        gb: u32,
        /// Chunks the fetch requested.
        chunks: u64,
        /// 1-based attempt number that just failed.
        attempt: u32,
        /// Virtual milliseconds of backoff charged before the next attempt.
        backoff_virtual_ms: f64,
        /// Stable name of the error class that triggered the retry
        /// (`"transient"` or `"timeout"`).
        error: &'static str,
    },
    /// A backend fetch attempt exceeded its per-fetch timeout budget.
    FetchTimeout = "fetch_timeout" {
        /// Group-by id of the timed-out fetch.
        gb: u32,
        /// Chunks the fetch requested.
        chunks: u64,
        /// Virtual milliseconds charged for the timed-out attempt.
        virtual_ms: f64,
    },
    /// A backend fetch failed permanently (retries exhausted, or no retry
    /// decorator installed): the serving layer must degrade or error.
    FetchFailed = "fetch_failed" {
        /// Group-by id of the failed fetch.
        gb: u32,
        /// Chunks the fetch requested.
        chunks: u64,
        /// Attempts made before giving up (1 when nothing retried).
        attempts: u32,
        /// Total virtual milliseconds wasted on the failed attempts,
        /// including backoff delays.
        virtual_ms: f64,
    },
    /// A chunk whose backend fetch failed was answered from the cache by
    /// an aggregation path instead (graceful degradation, VCM fallback).
    DegradedServe = "degraded_serve" {
        /// Group-by id of the served chunk.
        gb: u32,
        /// Chunk number served.
        chunk: u64,
        /// Cached leaf chunks aggregated to produce the answer.
        leaves: u64,
        /// Tuples aggregated.
        tuples: u64,
    },
    /// The backend executed one batched fetch.
    BackendFetch = "backend_fetch" {
        /// Group-by id fetched.
        gb: u32,
        /// Chunks requested.
        chunks: u64,
        /// Source tuples scanned.
        tuples_scanned: u64,
        /// Result tuples produced.
        result_tuples: u64,
        /// Virtual milliseconds charged by the cost model.
        virtual_ms: f64,
    },
    /// A chunk was offered to the cache.
    CacheInsert = "cache_insert" {
        /// Group-by id.
        gb: u32,
        /// Chunk number.
        chunk: u64,
        /// Replacement tier.
        tier: Tier,
        /// Accounting bytes.
        bytes: u64,
        /// Whether the chunk was admitted.
        admitted: bool,
    },
    /// The replacement policy evicted a chunk.
    Evict = "evict" {
        /// Group-by id of the victim.
        gb: u32,
        /// Chunk number of the victim.
        chunk: u64,
        /// Tier the victim lived in (two-level policy: computed chunks
        /// fall first).
        tier: Tier,
        /// Completed sweep rounds of the CLOCK ring the victim came from.
        clock_round: u64,
        /// Residual clock weight at eviction (includes group boosts).
        clock: f64,
    },
    /// The two-level policy boosted a group of chunks that together
    /// computed an aggregate (§6.3 rule 2).
    GroupBoost = "group_boost" {
        /// Chunks in the boosted group.
        chunks: u64,
        /// Normalized clock amount added to each chunk.
        amount: f64,
    },
    /// The VCM count table absorbed an insert or evict.
    CountUpdate = "count_update" {
        /// Group-by id of the inserted/evicted chunk.
        gb: u32,
        /// Chunk number.
        chunk: u64,
        /// Table cells written by this delta.
        writes: u64,
        /// `true` for an eviction, `false` for an insert.
        evict: bool,
    },
    /// The VCMC cost table absorbed an insert or evict.
    CostUpdate = "cost_update" {
        /// Group-by id of the inserted/evicted chunk.
        gb: u32,
        /// Chunk number.
        chunk: u64,
        /// Table cells written by this delta.
        writes: u64,
        /// `true` for an eviction, `false` for an insert.
        evict: bool,
    },
    /// A cluster peer answered a chunk that missed on its owner node: the
    /// peer computed it from its own cache and shipped the cells over the
    /// simulated network (cooperative lookup).
    RemoteServe = "remote_serve" {
        /// Group-by id of the served chunk.
        gb: u32,
        /// Chunk number served.
        chunk: u64,
        /// Node that answered.
        from_node: u32,
        /// Owner node that received (and admitted) the cells.
        to_node: u32,
        /// Payload bytes shipped.
        bytes: u64,
        /// Virtual milliseconds charged by the message-cost model.
        virtual_ms: f64,
    },
    /// A ring membership change moved a resident chunk to its new owner
    /// (key-slice handoff during rebalancing).
    Handoff = "handoff" {
        /// Group-by id of the moved chunk.
        gb: u32,
        /// Chunk number moved.
        chunk: u64,
        /// Node that gave the chunk up.
        from_node: u32,
        /// New owner node.
        to_node: u32,
        /// Payload bytes shipped.
        bytes: u64,
    },
    /// An evicted chunk was demoted to the disk spill tier instead of
    /// being dropped.
    SpillWrite = "spill_write" {
        /// Group-by id of the demoted chunk.
        gb: u32,
        /// Chunk number demoted.
        chunk: u64,
        /// Serialized bytes written.
        bytes: u64,
        /// Virtual milliseconds charged by the spill cost model.
        virtual_ms: f64,
    },
    /// A spilled chunk was read back from disk to answer a query miss.
    SpillRead = "spill_read" {
        /// Group-by id of the chunk read.
        gb: u32,
        /// Chunk number read.
        chunk: u64,
        /// Serialized bytes read.
        bytes: u64,
        /// Virtual milliseconds charged by the spill cost model.
        virtual_ms: f64,
    },
    /// A chunk read from the spill tier was offered back to the RAM cache
    /// (the promotion following a [`Event::SpillRead`]).
    SpillPromote = "spill_promote" {
        /// Group-by id of the promoted chunk.
        gb: u32,
        /// Chunk number promoted.
        chunk: u64,
        /// Whether the RAM cache admitted it (a refused promotion still
        /// answers the query from the read bytes).
        admitted: bool,
    },
    /// A restarted cache manager rebuilt its RAM population from the spill
    /// tier's checkpoint.
    WarmStart = "warm_start" {
        /// Chunks re-admitted from the checkpoint.
        chunks: u64,
        /// Serialized bytes read from disk.
        bytes: u64,
        /// Virtual milliseconds charged for the recovery reads.
        virtual_ms: f64,
    },
    /// A spill-tier record failed its integrity checks (bad magic,
    /// version, checksum or structure) when read back from disk.
    SpillCorrupt = "spill_corrupt" {
        /// Group-by id of the damaged chunk.
        gb: u32,
        /// Chunk number of the damaged chunk.
        chunk: u64,
        /// Stable error-class name (e.g. `bad_checksum`).
        reason: &'static str,
    },
    /// A corrupt spill record was quarantined: dropped from the index and
    /// its file set aside, so the chunk re-enters the normal miss path.
    SpillQuarantine = "spill_quarantine" {
        /// Group-by id of the quarantined chunk.
        gb: u32,
        /// Chunk number of the quarantined chunk.
        chunk: u64,
        /// On-disk bytes the record occupied.
        bytes: u64,
    },
    /// A missing/truncated/corrupt spill index was rebuilt by scanning the
    /// segments (index scavenge).
    IndexRebuild = "index_rebuild" {
        /// Records recovered plus damaged spans quarantined.
        scanned: u64,
        /// Records recovered into the rebuilt index.
        recovered: u64,
        /// Damaged spans quarantined during the scan.
        quarantined: u64,
    },
    /// A proactive scrub pass verified the checksums of every indexed
    /// spill record.
    ScrubPass = "scrub_pass" {
        /// Records scanned.
        scanned: u64,
        /// Records found corrupt.
        corrupt: u64,
        /// Records quarantined.
        quarantined: u64,
        /// Virtual milliseconds charged to the spill cost model.
        virtual_ms: f64,
    },
    /// A delta batch of base-data inserts/deletes was ingested and its
    /// effects propagated up the lattice to resident chunks.
    DeltaIngest = "delta_ingest" {
        /// Fact tuples inserted.
        inserts: u64,
        /// Fact tuples removed by matched deletes.
        deletes: u64,
        /// Deletes that matched no fact tuple.
        unmatched: u64,
        /// Distinct base chunks the effective delta landed in.
        base_chunks: u64,
        /// Resident chunks patched in place.
        patched: u64,
        /// Resident chunks invalidated.
        invalidated: u64,
        /// Count/cost table cells written during maintenance.
        table_writes: u64,
        /// Virtual milliseconds charged for the whole ingestion.
        virtual_ms: f64,
    },
    /// A resident chunk absorbed a delta in place through the roll-up
    /// kernel (self-maintainable aggregate).
    ChunkPatch = "chunk_patch" {
        /// Group-by id of the patched chunk.
        gb: u32,
        /// Chunk number patched.
        chunk: u64,
        /// Delta cells folded into the chunk.
        cells: u64,
        /// Delta tuples rolled up to produce those cells.
        tuples: u64,
    },
    /// A resident chunk affected by a delta could not be patched in place
    /// and was evicted to re-serve through the normal miss path.
    ChunkInvalidate = "chunk_invalidate" {
        /// Group-by id of the invalidated chunk.
        gb: u32,
        /// Chunk number invalidated.
        chunk: u64,
        /// Stable reason name: `"min_max"` (non-self-maintainable
        /// aggregate), `"sum_delete"` (SUM chunk hit by deletes),
        /// `"emptied"` (every cell's tuple count reached zero),
        /// `"refused"` (patched data refused re-admission) or
        /// `"spilled"` (stale on-disk copy removed).
        reason: &'static str,
    },
    /// A cluster node went down (its cache contents are lost).
    NodeDown = "node_down" {
        /// The failed node.
        node: u32,
    },
    /// A cluster node came back up (cold cache).
    NodeUp = "node_up" {
        /// The revived node.
        node: u32,
    },
    /// A query finished end to end (probe + apply).
    QueryDone = "query_done" {
        /// Probe id of the probe that produced the answer.
        query: u64,
        /// Tenant that issued the query (0 for single-tenant sessions).
        tenant: u32,
        /// Group-by id of the query.
        gb: u32,
        /// Answered entirely from the cache.
        complete_hit: bool,
        /// Chunks answered directly.
        chunks_hit: u64,
        /// Chunks computed by aggregation.
        chunks_computed: u64,
        /// Chunks fetched from the backend.
        chunks_missed: u64,
        /// Chunks served degraded (backend fetch failed, answered from
        /// cached aggregates instead).
        chunks_degraded: u64,
        /// Tuples aggregated in cache.
        tuples_aggregated: u64,
        /// Base tuples scanned by the backend.
        backend_tuples: u64,
        /// Lattice nodes visited by lookups.
        lookup_nodes: u64,
        /// Count/cost table cells written.
        table_writes: u64,
        /// Virtual backend milliseconds.
        backend_virtual_ms: f64,
        /// Virtual aggregation milliseconds.
        agg_virtual_ms: f64,
        /// Virtual lookup milliseconds.
        lookup_virtual_ms: f64,
        /// Virtual table-update milliseconds.
        update_virtual_ms: f64,
        /// Sum of the four virtual components.
        total_virtual_ms: f64,
        /// Wall-clock nanoseconds of the probe phase.
        probe_ns: u64,
        /// Wall-clock nanoseconds of the apply phase.
        apply_ns: u64,
        /// Wall-clock nanoseconds spent aggregating.
        agg_ns: u64,
        /// Wall-clock nanoseconds spent in lookups.
        lookup_ns: u64,
        /// Wall-clock nanoseconds spent maintaining tables.
        update_ns: u64,
    },
}
