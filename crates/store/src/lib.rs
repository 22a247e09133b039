//! Data plane for aggregate-aware caching: the base fact table with its
//! chunked file organization, the roll-up aggregation kernel, and the
//! simulated backend database.
//!
//! The paper's experiments ran against a commercial RDBMS on a separate
//! machine; we replace it with an in-process [`Backend`] that executes the
//! same chunked scans over a [`FactTable`] and charges *virtual* costs
//! through a configurable [`BackendCostModel`], preserving the paper's
//! observed ≈8× gap between backend fetches and in-cache aggregation while
//! keeping experiments deterministic and fast.
//!
//! Backends are pluggable behind the [`BackendSource`] trait: the simulated
//! [`Backend`] is one implementation, and the [`FaultInjectingBackend`] and
//! [`RetryingBackend`] decorators compose around any source to model — and
//! survive — transient errors, timeouts and latency spikes, all charged to
//! the same deterministic virtual clock.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod aggregate;
mod backend;
mod delta;
mod fact;
mod fault;
mod io;
mod net;
mod retry;
mod source;
mod spill;

pub use aggregate::{
    aggregate_to_level, aggregate_to_level_parallel, AggFn, Aggregator, ChunkAggregator, Lift,
};
pub use backend::{Backend, BackendCostModel, FetchResult, StoreError};
pub use delta::{DeltaBatch, DeltaOp, DeltaRecord, EffectiveDelta};
pub use fact::FactTable;
pub use fault::{FaultInjectingBackend, FaultProfile, FaultProfileError};
pub use io::{DiskFaultProfile, FaultInjectingSpillIo, FsSpillIo, SpillIo};
pub use net::MessageCostModel;
pub use retry::{RetryPolicy, RetryPolicyError, RetryingBackend};
pub use source::BackendSource;
pub use spill::{
    decode_record, encode_record, spill_checksum, SpillConfig, SpillCostModel, SpillError,
    SpillMetrics, SpillRecord, SpillStore, ORIGIN_BACKEND, ORIGIN_COMPUTED, ORIGIN_SPILLED,
    SPILL_FORMAT_VERSION, SPILL_HEADER_BYTES, SPILL_INDEX_MAGIC, SPILL_MAGIC,
};
