//! The persistent second-tier chunk store: chunks evicted from RAM are
//! *demoted* to disk instead of destroyed, and promoted back on demand.
//!
//! The on-disk representation is `SpillFormat` v1 — a versioned,
//! length-prefixed, checksummed serialization of one columnar
//! [`ChunkData`] per file, specified byte-for-byte in `docs/FORMAT.md`
//! (the normative spec; the golden-file test in `tests/spill.rs` fails if
//! the bytes drift from it). Alongside the chunk files, [`SpillStore`]
//! persists a small index (`spill.idx`) recording which chunks were
//! RAM-resident at the last checkpoint, so a restarted cache manager can
//! warm-start with exactly the chunk population it shut down with.
//!
//! Disk traffic is charged to the same deterministic virtual clock as
//! backend fetches, through [`SpillCostModel`], into one ledger:
//! [`SpillMetrics`]. Every store operation that costs virtual time or
//! finds damage hands back its own `SpillMetrics` delta, which the cache
//! manager folds into its per-query and session ledgers.

use crate::io::{DiskFaultProfile, FaultInjectingSpillIo, FsSpillIo, SpillIo};
use crate::retry::RetryPolicy;
use aggcache_chunks::{ChunkData, ChunkGrid, ChunkKey};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Magic bytes opening every `SpillFormat` chunk record (`b"ACSP"`).
pub const SPILL_MAGIC: [u8; 4] = *b"ACSP";
/// Magic bytes opening the spill index file (`b"ACSI"`).
pub const SPILL_INDEX_MAGIC: [u8; 4] = *b"ACSI";
/// The `SpillFormat` version this build writes and reads.
pub const SPILL_FORMAT_VERSION: u16 = 1;
/// Fixed byte length of the v1 record header (everything before the
/// coordinate block's length prefix).
pub const SPILL_HEADER_BYTES: usize = 32;
/// Origin code for a backend-fetched chunk (see `docs/FORMAT.md`).
pub const ORIGIN_BACKEND: u8 = 0;
/// Origin code for a chunk computed by in-cache aggregation.
pub const ORIGIN_COMPUTED: u8 = 1;
/// Origin code for a chunk that re-entered RAM from the spill tier.
pub const ORIGIN_SPILLED: u8 = 2;

const INDEX_ENTRY_BYTES: usize = 24;
const INDEX_HEADER_BYTES: usize = 12;
const INDEX_FILE: &str = "spill.idx";

/// Errors from the spill tier: I/O failures, malformed or corrupt records,
/// and invalid configuration.
///
/// [`SpillError::is_corruption`] classifies the variants that trigger
/// quarantine-and-refetch recovery; [`SpillError::is_retryable`] the ones
/// worth re-attempting under a [`RetryPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpillError {
    /// An operating-system I/O failure (message includes the operation).
    Io {
        /// The operation that failed (`"create dir"`, `"write chunk"`, …).
        op: &'static str,
        /// The OS error rendered as text.
        error: String,
    },
    /// The record does not open with [`SPILL_MAGIC`] (or the index with
    /// [`SPILL_INDEX_MAGIC`]).
    BadMagic,
    /// The record's format version is not readable by this build.
    BadVersion {
        /// The version found on disk.
        found: u16,
    },
    /// A structural violation: truncated buffer, length prefix mismatch,
    /// or a key that disagrees with the index.
    Corrupt {
        /// What was violated.
        reason: &'static str,
    },
    /// The trailing checksum does not match the record bytes.
    BadChecksum,
    /// A deterministic write failure injected by
    /// `SpillStore::fail_next_writes` (test support).
    Injected,
    /// The disk is out of space (the injector's ENOSPC-after-N-bytes
    /// budget is exhausted). A failed demotion degrades to a plain
    /// eviction; a failed checkpoint record is skipped and counted.
    NoSpace,
    /// A transient read error — the only retryable variant; re-attempted
    /// under the store's [`RetryPolicy`] before surfacing.
    TransientRead {
        /// The read operation's sequence number (diagnostic).
        seq: u64,
    },
    /// An operation that needs a spill tier was called on a manager
    /// without one attached.
    NotAttached,
    /// A [`DiskFaultProfile`] rate is not a probability in [0, 1].
    BadRate {
        /// The offending field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The scrub interval is not finite and positive.
    BadScrubInterval {
        /// The offending value.
        value: f64,
    },
}

impl SpillError {
    /// Whether this error means the on-disk record is damaged (bad magic,
    /// unreadable version, structural violation, checksum mismatch) — the
    /// class that triggers quarantine-and-refetch recovery rather than
    /// propagation.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            Self::BadMagic | Self::BadVersion { .. } | Self::Corrupt { .. } | Self::BadChecksum
        )
    }

    /// Whether a re-attempt can succeed (only transient read errors).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::TransientRead { .. })
    }

    /// A short stable class name for observability events.
    pub fn class_name(&self) -> &'static str {
        match self {
            Self::Io { .. } => "io",
            Self::BadMagic => "bad_magic",
            Self::BadVersion { .. } => "bad_version",
            Self::Corrupt { .. } => "corrupt",
            Self::BadChecksum => "bad_checksum",
            Self::Injected => "injected",
            Self::NoSpace => "no_space",
            Self::TransientRead { .. } => "transient_read",
            Self::NotAttached => "not_attached",
            Self::BadRate { .. } => "bad_rate",
            Self::BadScrubInterval { .. } => "bad_scrub_interval",
        }
    }
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { op, error } => write!(f, "spill {op}: {error}"),
            Self::BadMagic => write!(f, "spill record: bad magic"),
            Self::BadVersion { found } => {
                write!(
                    f,
                    "spill record: format version {found} (this build reads {SPILL_FORMAT_VERSION})"
                )
            }
            Self::Corrupt { reason } => write!(f, "spill record corrupt: {reason}"),
            Self::BadChecksum => write!(f, "spill record: checksum mismatch"),
            Self::Injected => write!(f, "spill write failure (injected)"),
            Self::NoSpace => write!(f, "spill write: no space left on device"),
            Self::TransientRead { seq } => {
                write!(f, "spill read: transient error (read op {seq})")
            }
            Self::NotAttached => write!(f, "no spill tier attached"),
            Self::BadRate { field, value } => {
                write!(
                    f,
                    "disk fault profile: {field} = {value} must be a probability in [0, 1]"
                )
            }
            Self::BadScrubInterval { value } => {
                write!(f, "spill scrub interval {value} must be finite and > 0")
            }
        }
    }
}

impl std::error::Error for SpillError {}

/// FNV-1a 64-bit over `bytes` — the `SpillFormat` checksum (no
/// dependencies, byte-order independent, specified in `docs/FORMAT.md`).
pub fn spill_checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Virtual cost of spill-tier disk traffic: a per-operation seek/dispatch
/// latency plus a per-byte transfer rate, for writes (demotions,
/// checkpoints) and reads (promotions, warm starts) separately.
///
/// Costs are deterministic virtual milliseconds / microseconds in the same
/// domain as [`crate::BackendCostModel`] — never wall clock. The rates are
/// constants because they only mean something against that model: a
/// promotion read of a 20-byte accounting tuple costs ≈1 µs, about 4×
/// cheaper than the backend's ≈4 µs/tuple scan, so the disk tier pays off
/// exactly when it spares a backend round trip.
#[derive(Debug, Clone, Copy)]
pub struct SpillCostModel;

impl SpillCostModel {
    /// Virtual milliseconds per write operation (seek + dispatch).
    pub const WRITE_PER_OP_MS: f64 = 0.2;
    /// Virtual microseconds per byte written.
    pub const WRITE_PER_BYTE_US: f64 = 0.05;
    /// Virtual milliseconds per read operation (seek + dispatch).
    pub const READ_PER_OP_MS: f64 = 0.2;
    /// Virtual microseconds per byte read.
    pub const READ_PER_BYTE_US: f64 = 0.05;

    /// Virtual milliseconds for one write of `bytes`.
    pub fn write_ms(bytes: u64) -> f64 {
        Self::WRITE_PER_OP_MS + bytes as f64 * Self::WRITE_PER_BYTE_US / 1000.0
    }

    /// Virtual milliseconds for one read of `bytes`.
    pub fn read_ms(bytes: u64) -> f64 {
        Self::READ_PER_OP_MS + bytes as f64 * Self::READ_PER_BYTE_US / 1000.0
    }

    /// Virtual milliseconds for a checkpoint of `chunks` records totalling
    /// `bytes`: one per-op charge per chunk plus the byte rate over the
    /// total.
    pub fn checkpoint_ms(chunks: u64, bytes: u64) -> f64 {
        chunks as f64 * Self::WRITE_PER_OP_MS + bytes as f64 * Self::WRITE_PER_BYTE_US / 1000.0
    }
}

/// Spill-tier accounting: demotions written, promotions read from disk,
/// damage found and repaired, with their virtual cost under
/// [`SpillCostModel`]. It is the only type the spill tier reports in: every
/// [`SpillStore`] operation that costs virtual time or finds damage hands
/// back one of these as a delta, and the cache manager folds the deltas
/// into one per request and one per session.
///
/// All zeros when no spill tier is attached — which is what keeps the
/// spill-disabled pipeline bit-identical to every pre-spill figure.
/// Deliberately kept *outside* the cache manager's `QueryMetrics`, like
/// the cluster tier's `RemoteMetrics`: a query's `total_ms` remains the sum
/// of its four local virtual components (an invariant `trace_check`
/// enforces), and the end-to-end time including disk traffic is
/// `ExecOutcome::total_virtual_ms`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpillMetrics {
    /// Chunks written to disk: demotions, and checkpointed residents.
    pub spill_writes: u64,
    /// Chunks read back from the spill tier (promotions and warm starts).
    pub spill_reads: u64,
    /// Read-back chunks the RAM cache re-admitted.
    pub spill_promotes: u64,
    /// Serialized bytes written to disk.
    pub bytes_written: u64,
    /// Serialized bytes read from disk.
    pub bytes_read: u64,
    /// Records found corrupt (checksum/decode failure) on any spill path.
    pub spill_corrupt: u64,
    /// Records quarantined (removed from the index, file set aside).
    pub spill_quarantined: u64,
    /// Transient-read re-attempts spent under the retry policy.
    pub spill_retries: u64,
    /// Writes that failed: demotions degraded to a plain eviction, and
    /// checkpoint records skipped.
    pub demote_failures: u64,
    /// Index scavenges performed (a missing/corrupt `spill.idx` rebuilt
    /// by scanning data files at open).
    pub index_rebuilds: u64,
    /// Proactive scrub passes completed.
    pub scrub_passes: u64,
    /// Quarantined `.corrupt` files deleted to enforce the retention cap
    /// (oldest evidence dropped first once the cap is exceeded).
    pub corrupt_purged: u64,
    /// Virtual milliseconds charged by the spill cost model (including
    /// retries, backoff and scrub passes).
    pub spill_virtual_ms: f64,
}

impl SpillMetrics {
    /// Folds another delta into this one.
    pub fn merge(&mut self, other: &SpillMetrics) {
        self.spill_writes += other.spill_writes;
        self.spill_reads += other.spill_reads;
        self.spill_promotes += other.spill_promotes;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.spill_corrupt += other.spill_corrupt;
        self.spill_quarantined += other.spill_quarantined;
        self.spill_retries += other.spill_retries;
        self.demote_failures += other.demote_failures;
        self.index_rebuilds += other.index_rebuilds;
        self.scrub_passes += other.scrub_passes;
        self.corrupt_purged += other.corrupt_purged;
        self.spill_virtual_ms += other.spill_virtual_ms;
    }
}

/// Configuration of a [`SpillStore`]: the spill directory plus the two
/// robustness knobs the recovery sweep varies — an optional
/// [`DiskFaultProfile`] (fault injection for chaos testing) and an optional
/// virtual-time scrub interval. Disk traffic is priced by
/// [`SpillCostModel`], transient read errors retry under
/// [`RetryPolicy::default`], and at most [`DEFAULT_MAX_CORRUPT_FILES`]
/// quarantined files are retained.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the chunk files and the index (created if absent).
    pub dir: PathBuf,
    /// Optional deterministic disk-fault injection; `None` (the default)
    /// uses the plain filesystem backend, and `Some(Default::default())`
    /// is bit-transparent to it.
    pub fault: Option<DiskFaultProfile>,
    /// When set, a proactive scrub pass verifies every stored checksum
    /// each time this much query virtual time elapses; `None` (the
    /// default) disables scrubbing.
    pub scrub_interval_ms: Option<f64>,
}

/// Maximum number of quarantined `*.corrupt` files retained in a spill
/// directory: enough casualties to diagnose a bad disk, small enough that
/// quarantine can never fill it. Quarantine keeps damaged files for
/// post-mortem inspection rather than deleting them, but a long-lived
/// session over a flaky disk would otherwise accumulate them without
/// bound; past the cap the excess is purged in ascending file-name order
/// (deterministic — no timestamps).
pub const DEFAULT_MAX_CORRUPT_FILES: usize = 16;

impl SpillConfig {
    /// A configuration over `dir` with no fault injection and no
    /// scrubbing.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fault: None,
            scrub_interval_ms: None,
        }
    }

    /// Enables deterministic disk-fault injection.
    pub fn fault(mut self, profile: DiskFaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Enables proactive scrubbing every `interval_ms` of query virtual
    /// time.
    pub fn scrub_interval_ms(mut self, interval_ms: f64) -> Self {
        self.scrub_interval_ms = Some(interval_ms);
        self
    }

    /// Validates every knob (the directory is validated on open).
    pub fn validate(&self) -> Result<(), SpillError> {
        if let Some(profile) = &self.fault {
            profile.validate()?;
        }
        if let Some(interval) = self.scrub_interval_ms {
            if !interval.is_finite() || interval <= 0.0 {
                return Err(SpillError::BadScrubInterval { value: interval });
            }
        }
        Ok(())
    }
}

/// One decoded `SpillFormat` record: the chunk plus its replacement
/// metadata, exactly as serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillRecord {
    /// The chunk's key.
    pub key: ChunkKey,
    /// Origin code ([`ORIGIN_BACKEND`] / [`ORIGIN_COMPUTED`] /
    /// [`ORIGIN_SPILLED`]).
    pub origin: u8,
    /// The replacement benefit the chunk carried when demoted.
    pub benefit: f64,
    /// The chunk's cells.
    pub data: ChunkData,
}

/// Serializes one chunk as a `SpillFormat` v1 record — the byte-level
/// layout is specified normatively in `docs/FORMAT.md`. The encoding is a
/// pure function of its inputs (no timestamps, no platform state), so
/// records are bit-identical across runs and machines.
pub fn encode_record(key: ChunkKey, origin: u8, benefit: f64, data: &ChunkData) -> Vec<u8> {
    let n_dims = data.n_dims();
    let n_cells = data.len();
    let coord_bytes = n_cells * n_dims * 4;
    let value_bytes = n_cells * 8;
    let mut out = Vec::with_capacity(SPILL_HEADER_BYTES + 8 + coord_bytes + value_bytes + 8);
    out.extend_from_slice(&SPILL_MAGIC);
    out.extend_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved, must be 0)
    out.extend_from_slice(&key.pack().to_le_bytes());
    out.push(origin);
    out.push(0); // reserved, must be 0
    out.extend_from_slice(&(n_dims as u16).to_le_bytes());
    out.extend_from_slice(&(n_cells as u32).to_le_bytes());
    out.extend_from_slice(&benefit.to_bits().to_le_bytes());
    debug_assert_eq!(out.len(), SPILL_HEADER_BYTES);
    out.extend_from_slice(&(coord_bytes as u32).to_le_bytes());
    for &c in data.raw_coords() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&(value_bytes as u32).to_le_bytes());
    for &v in data.raw_values() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let checksum = spill_checksum(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn take<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], SpillError> {
    bytes
        .get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(SpillError::Corrupt {
            reason: "record truncated",
        })
}

/// Decodes (and fully validates) one `SpillFormat` record: magic, version,
/// length prefixes, structural consistency and the trailing checksum. The
/// round trip `decode_record(&encode_record(..))` is bit-identical —
/// coordinates and IEEE-754 value bit patterns survive exactly.
pub fn decode_record(bytes: &[u8]) -> Result<SpillRecord, SpillError> {
    if bytes.len() < SPILL_HEADER_BYTES + 8 + 8 {
        return Err(SpillError::Corrupt {
            reason: "record shorter than header + prefix + checksum",
        });
    }
    if bytes[0..4] != SPILL_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let version = u16::from_le_bytes(take::<2>(bytes, 4)?);
    if version != SPILL_FORMAT_VERSION {
        return Err(SpillError::BadVersion { found: version });
    }
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(take::<8>(bytes, body_len)?);
    if spill_checksum(&bytes[..body_len]) != stored {
        return Err(SpillError::BadChecksum);
    }
    let packed = u64::from_le_bytes(take::<8>(bytes, 8)?);
    let origin = bytes[16];
    let n_dims = u16::from_le_bytes(take::<2>(bytes, 18)?) as usize;
    let n_cells = u32::from_le_bytes(take::<4>(bytes, 20)?) as usize;
    let benefit = f64::from_bits(u64::from_le_bytes(take::<8>(bytes, 24)?));
    let coord_len = u32::from_le_bytes(take::<4>(bytes, SPILL_HEADER_BYTES)?) as usize;
    if coord_len != n_cells * n_dims * 4 {
        return Err(SpillError::Corrupt {
            reason: "coord block length disagrees with n_cells * n_dims",
        });
    }
    let coords_at = SPILL_HEADER_BYTES + 4;
    let values_len_at = coords_at + coord_len;
    let value_len = u32::from_le_bytes(take::<4>(bytes, values_len_at)?) as usize;
    if value_len != n_cells * 8 {
        return Err(SpillError::Corrupt {
            reason: "value block length disagrees with n_cells",
        });
    }
    let values_at = values_len_at + 4;
    if values_at + value_len != body_len {
        return Err(SpillError::Corrupt {
            reason: "record length disagrees with block prefixes",
        });
    }
    let mut coords = Vec::with_capacity(n_cells * n_dims);
    for i in 0..n_cells * n_dims {
        coords.push(u32::from_le_bytes(take::<4>(bytes, coords_at + i * 4)?));
    }
    let mut values = Vec::with_capacity(n_cells);
    for i in 0..n_cells {
        values.push(f64::from_bits(u64::from_le_bytes(take::<8>(
            bytes,
            values_at + i * 8,
        )?)));
    }
    Ok(SpillRecord {
        key: ChunkKey::unpack(packed),
        origin,
        benefit,
        data: ChunkData::from_raw(n_dims, coords, values),
    })
}

/// [`decode_record`] of the file indexed under `key`: a valid record of
/// another key is corrupt.
fn decode_as(key: ChunkKey, bytes: &[u8]) -> Result<SpillRecord, SpillError> {
    let record = decode_record(bytes)?;
    if record.key != key {
        return Err(SpillError::Corrupt {
            reason: "record key disagrees with index",
        });
    }
    Ok(record)
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    benefit: f64,
    bytes: u32,
    origin: u8,
    resident: bool,
}

/// The disk tier: one `SpillFormat` file per demoted chunk plus a
/// persisted index, all under one directory.
///
/// The in-memory index (a `BTreeMap` keyed on packed chunk keys) makes
/// [`SpillStore::contains`] free on the query path; iteration order —
/// and hence warm-start insertion order — is ascending packed key, which
/// is deterministic regardless of the history that populated the store.
///
/// All disk traffic flows through one object-safe [`SpillIo`] backend —
/// the plain filesystem, or a [`FaultInjectingSpillIo`] decorator when
/// the config carries a [`DiskFaultProfile`] — so the recovery machinery
/// (quarantine, index scavenge, checkpoint salvage, retries, scrubbing)
/// exercises a single code path in both healthy and chaos runs.
pub struct SpillStore {
    dir: PathBuf,
    io: Box<dyn SpillIo>,
    /// [`RetryPolicy::default`]'s backoff delays, precomputed once.
    backoff: Vec<f64>,
    scrub_interval_ms: Option<f64>,
    index: BTreeMap<u64, IndexEntry>,
    fail_writes: u64,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore")
            .field("dir", &self.dir)
            .field("chunks", &self.index.len())
            .finish_non_exhaustive()
    }
}

impl SpillStore {
    /// [`SpillStore::open_metered`] with its delta dropped.
    pub fn open(config: SpillConfig) -> Result<Self, SpillError> {
        Self::open_metered(config).map(|(store, _)| store)
    }

    /// Opens (creating if necessary) the spill directory, validates the
    /// configuration, and loads the persisted index if one exists — the
    /// warm half of a warm restart. Returns the store with what opening
    /// found and repaired.
    ///
    /// Opening *self-heals*: a missing, truncated or corrupt index is
    /// rebuilt by scanning the chunk data files — an *index scavenge*,
    /// counted in `index_rebuilds`, with every file it sets aside counted
    /// corrupt and quarantined — instead of failing the open. Scavenged
    /// entries are never resident, so the restart degrades to a cold cache
    /// over an intact disk population, never an outage. A `.corrupt`
    /// backlog past [`DEFAULT_MAX_CORRUPT_FILES`] is purged.
    pub fn open_metered(config: SpillConfig) -> Result<(Self, SpillMetrics), SpillError> {
        config.validate()?;
        let io: Box<dyn SpillIo> = match config.fault {
            Some(profile) => Box::new(FaultInjectingSpillIo::new(FsSpillIo, profile)?),
            None => Box::new(FsSpillIo),
        };
        io.create_dir_all(&config.dir)?;
        let mut store = Self {
            dir: config.dir,
            io,
            backoff: RetryPolicy::default().backoff_schedule(),
            scrub_interval_ms: config.scrub_interval_ms,
            index: BTreeMap::new(),
            fail_writes: 0,
        };
        let mut delta = SpillMetrics::default();
        let idx = store.index_path();
        let scavenge = if idx.exists() {
            let (bytes, _) = store.read_retrying(&idx);
            bytes.and_then(|bytes| store.load_index(&bytes)).is_err()
        } else {
            // Data files with no index at all: same scavenge path.
            let files = store.io.list_files(&store.dir, "chunk");
            !files.unwrap_or_default().is_empty()
        };
        if scavenge {
            store.scavenge_index(&mut delta);
        }
        // Cap any `.corrupt` backlog a previous session left behind.
        store.purge_corrupt_overflow(&mut delta);
        Ok((store, delta))
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The proactive scrub interval in query virtual ms, if enabled.
    pub fn scrub_interval_ms(&self) -> Option<f64> {
        self.scrub_interval_ms
    }

    /// Number of chunks in the store.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total serialized bytes of all indexed chunks.
    pub fn bytes_on_disk(&self) -> u64 {
        self.index.values().map(|e| u64::from(e.bytes)).sum()
    }

    /// Whether `key` is spilled (an index lookup — no disk access, free on
    /// the query path).
    pub fn contains(&self, key: ChunkKey) -> bool {
        self.index.contains_key(&key.pack())
    }

    /// Every indexed key, in ascending packed order (no disk access).
    /// Used by delta ingestion to find spilled copies staled by an update.
    pub fn keys(&self) -> Vec<ChunkKey> {
        self.index.keys().map(|&p| ChunkKey::unpack(p)).collect()
    }

    /// Number of chunks marked RAM-resident by the last checkpoint.
    pub fn resident_count(&self) -> usize {
        self.index.values().filter(|e| e.resident).count()
    }

    fn chunk_path(&self, key: ChunkKey) -> PathBuf {
        self.dir.join(format!("{:016x}.chunk", key.pack()))
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Demotes one chunk to disk. Returns the serialized byte count (the
    /// quantity the write cost is charged over). The chunk is recorded as
    /// non-resident: residency is a checkpoint-time property.
    pub fn write(
        &mut self,
        key: ChunkKey,
        origin: u8,
        benefit: f64,
        data: &ChunkData,
    ) -> Result<u64, SpillError> {
        self.write_flagged(key, origin, benefit, data, false)
    }

    fn write_flagged(
        &mut self,
        key: ChunkKey,
        origin: u8,
        benefit: f64,
        data: &ChunkData,
        resident: bool,
    ) -> Result<u64, SpillError> {
        if self.fail_writes > 0 {
            self.fail_writes -= 1;
            return Err(SpillError::Injected);
        }
        let encoded = encode_record(key, origin, benefit, data);
        self.io.write(&self.chunk_path(key), &encoded)?;
        self.index.insert(
            key.pack(),
            IndexEntry {
                benefit,
                bytes: encoded.len() as u32,
                origin,
                resident,
            },
        );
        Ok(encoded.len() as u64)
    }

    /// Serialized size on disk of one spilled chunk, from the index (no
    /// I/O); `None` when the key is not spilled.
    pub fn bytes_of(&self, key: ChunkKey) -> Option<u64> {
        self.index.get(&key.pack()).map(|e| u64::from(e.bytes))
    }

    /// Promotes one chunk from disk: `Ok(None)` when the key is not
    /// spilled, the fully validated record otherwise. The disk copy is
    /// retained — a later re-demotion of an unchanged chunk costs nothing.
    pub fn read(&self, key: ChunkKey) -> Result<Option<SpillRecord>, SpillError> {
        if !self.contains(key) {
            return Ok(None);
        }
        let bytes = self.io.read(&self.chunk_path(key))?;
        decode_as(key, &bytes).map(Some)
    }

    /// The read warm start and promote-on-miss go through, charged to
    /// `delta`: [`SpillStore::read`] with transient errors retried under
    /// [`RetryPolicy::default`], and a record that fails its checksum or
    /// decode — or is intact but not of `grid`: a key the grid does not
    /// have, cells of another dimension count, what a directory
    /// checkpointed under another schema holds — *quarantined*, so the
    /// chunk falls back to the miss path: corruption costs time, never
    /// correctness.
    ///
    /// Returns `Ok(None)` when the key is not spilled, and an error that
    /// [`SpillError::is_corruption`] when the record was quarantined. Any
    /// other error is a transient one that outlasted its retries; the
    /// file stays in place, since it may be intact.
    pub fn read_checked(
        &mut self,
        grid: &ChunkGrid,
        key: ChunkKey,
        delta: &mut SpillMetrics,
    ) -> Result<Option<SpillRecord>, SpillError> {
        let read = self.read_charged(key, Some(grid), delta)?;
        Ok(read.map(|(record, bytes)| {
            delta.spill_reads += 1;
            delta.bytes_read += bytes;
            record
        }))
    }

    /// The charged read behind [`SpillStore::read_checked`] and
    /// [`SpillStore::scrub`]: retry waste first, then
    /// [`SpillCostModel::read_ms`] of the indexed size for a read that
    /// completes, intact or not; a damaged record (or one not of `grid`,
    /// when given) is counted corrupt and quarantined. Returns the record
    /// with its indexed size.
    fn read_charged(
        &mut self,
        key: ChunkKey,
        grid: Option<&ChunkGrid>,
        delta: &mut SpillMetrics,
    ) -> Result<Option<(SpillRecord, u64)>, SpillError> {
        let Some(bytes) = self.bytes_of(key) else {
            return Ok(None);
        };
        let (read, retries) = self.read_retrying(&self.chunk_path(key));
        delta.merge(&retries);
        let of_grid = |r: &SpillRecord| {
            grid.is_none_or(|g| g.has_chunk(key) && r.data.n_dims() == g.num_dims())
        };
        let record = read.and_then(|read| decode_as(key, &read)).and_then(|r| {
            of_grid(&r).then_some(r).ok_or(SpillError::Corrupt {
                reason: "record of another grid",
            })
        });
        match record {
            Ok(record) => {
                delta.spill_virtual_ms += SpillCostModel::read_ms(bytes);
                Ok(Some((record, bytes)))
            }
            Err(e) if e.is_corruption() => {
                // The wasted read is still charged.
                delta.spill_virtual_ms += SpillCostModel::read_ms(bytes);
                delta.spill_corrupt += 1;
                self.quarantine(key, delta);
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads `path` through the I/O backend, re-attempting transient
    /// errors under [`RetryPolicy::default`] — the one retry loop behind
    /// the checked read, the index load and the scavenge. The delta
    /// charges each failed attempt one read dispatch plus its backoff
    /// delay; a first-attempt success charges nothing, keeping the healthy
    /// path bit-transparent.
    fn read_retrying(&self, path: &Path) -> (Result<Vec<u8>, SpillError>, SpillMetrics) {
        let mut delta = SpillMetrics::default();
        loop {
            match self.io.read(path) {
                Err(e) if e.is_retryable() => {
                    // A transient error costs the dispatch, not the bytes.
                    delta.spill_virtual_ms += SpillCostModel::read_ms(0);
                    let Some(&backoff) = self.backoff.get(delta.spill_retries as usize) else {
                        return (Err(e), delta);
                    };
                    delta.spill_virtual_ms += backoff;
                    delta.spill_retries += 1;
                }
                result => return (result, delta),
            }
        }
    }

    /// Quarantines one record: removes it from the index and sets its
    /// data file aside as `*.corrupt` (falling back to deletion), so the
    /// chunk is re-served through the normal miss path and a damaged file
    /// can never be promoted again. Best-effort on the file system side —
    /// the index update is what guarantees safety.
    fn quarantine(&mut self, key: ChunkKey, delta: &mut SpillMetrics) {
        if self.index.remove(&key.pack()).is_none() {
            return;
        }
        delta.spill_quarantined += 1;
        let _ = self.set_aside(&self.chunk_path(key));
        let _ = self.persist_index();
        self.purge_corrupt_overflow(delta);
    }

    /// Takes the record file `path` out of [`SpillStore::scavenge_index`]'s
    /// reach: renamed to `*.corrupt`, or deleted when the rename fails.
    fn set_aside(&self, path: &Path) -> Result<(), SpillError> {
        let renamed = self.io.rename(path, &path.with_extension("corrupt"));
        renamed.or_else(|_| self.io.remove(path))
    }

    /// Enforces [`DEFAULT_MAX_CORRUPT_FILES`]: deletes quarantined
    /// `*.corrupt` files past the cap, in ascending file-name order (the
    /// deterministic stand-in for age — quarantine stamps no timestamps),
    /// counting each in `corrupt_purged`. File-system failures are ignored
    /// (a purge retries on the next quarantine).
    fn purge_corrupt_overflow(&self, delta: &mut SpillMetrics) {
        let files = self.io.list_files(&self.dir, "corrupt").unwrap_or_default();
        let excess = files.len().saturating_sub(DEFAULT_MAX_CORRUPT_FILES);
        for path in files.into_iter().take(excess) {
            if self.io.remove(&path).is_ok() {
                delta.corrupt_purged += 1;
            }
        }
    }

    /// Rebuilds the index by scanning the chunk data files: every file
    /// that decodes to a valid record whose key matches its file name is
    /// re-indexed (non-resident), everything else is quarantined. Invoked
    /// by [`SpillStore::open_metered`] when `spill.idx` is missing or
    /// corrupt.
    fn scavenge_index(&mut self, delta: &mut SpillMetrics) {
        self.index.clear();
        let files = self.io.list_files(&self.dir, "chunk").unwrap_or_default();
        for path in files {
            let named_key = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let (read, _) = self.read_retrying(&path);
            let decoded = read.and_then(|bytes| decode_record(&bytes).map(|r| (r, bytes.len())));
            match (named_key, decoded) {
                (Some(packed), Ok((record, len))) if record.key.pack() == packed => {
                    self.index.insert(
                        packed,
                        IndexEntry {
                            benefit: record.benefit,
                            bytes: len as u32,
                            origin: record.origin,
                            resident: false,
                        },
                    );
                }
                _ => {
                    // Undecodable, misnamed, or key-mismatched: set aside.
                    let _ = self.set_aside(&path);
                    delta.spill_corrupt += 1;
                    delta.spill_quarantined += 1;
                }
            }
        }
        delta.index_rebuilds += 1;
        let _ = self.persist_index();
        self.purge_corrupt_overflow(delta);
    }

    /// One proactive scrub pass: reads and checksum-verifies every
    /// indexed record (with transient-read retries), quarantining the
    /// corrupt ones ahead of demand. A transient error that outlasts its
    /// retries leaves the record for the next pass rather than
    /// quarantining a file that may be intact. The pass is summed on its
    /// own and returned with `scrub_passes` 1; it is background work no
    /// query owns.
    pub fn scrub(&mut self) -> SpillMetrics {
        let keys: Vec<u64> = self.index.keys().copied().collect();
        let mut pass = SpillMetrics {
            scrub_passes: 1,
            ..SpillMetrics::default()
        };
        for packed in keys {
            let _ = self.read_charged(ChunkKey::unpack(packed), None, &mut pass);
        }
        pass
    }

    /// Drops every spilled copy `stale` selects, in ascending key order,
    /// and returns the keys dropped with what the sweep purged. A copy's
    /// file is deleted, or set aside when deletion fails; the key leaves
    /// the index either way, so it is never promoted again. A sweep that
    /// dropped anything persists the index once, so a reopened store does
    /// not list the dropped keys.
    pub fn discard(
        &mut self,
        mut stale: impl FnMut(ChunkKey) -> bool,
    ) -> (Vec<ChunkKey>, SpillMetrics) {
        let mut dropped = self.keys();
        dropped.retain(|&key| stale(key));
        for &key in &dropped {
            let path = self.chunk_path(key);
            let _ = self.io.remove(&path).or_else(|_| self.set_aside(&path));
            self.index.remove(&key.pack());
        }
        let mut delta = SpillMetrics::default();
        if !dropped.is_empty() {
            let _ = self.persist_index();
            self.purge_corrupt_overflow(&mut delta);
        }
        (dropped, delta)
    }

    /// Checkpoints the RAM-resident population: writes every entry to disk,
    /// marks exactly those keys resident (clearing the flag on all others),
    /// and persists the index. A [`SpillStore::open`] over the same
    /// directory then reports them via [`SpillStore::resident_entries`] —
    /// the durable half of a warm restart.
    ///
    /// Returns the records written (`spill_writes`, `bytes_written`),
    /// priced by [`SpillCostModel::checkpoint_ms`]. Checkpoints are
    /// salvaged record-by-record: a failed write (ENOSPC, injected fault,
    /// OS error) skips that record — counted in `demote_failures`, left
    /// non-resident, never aborting the remainder. Only a failure to
    /// persist the index itself is an error (and even then the next open
    /// scavenges).
    pub fn checkpoint<'a>(
        &mut self,
        resident: impl Iterator<Item = (ChunkKey, u8, f64, &'a ChunkData)>,
    ) -> Result<SpillMetrics, SpillError> {
        for entry in self.index.values_mut() {
            entry.resident = false;
        }
        let mut delta = SpillMetrics::default();
        for (key, origin, benefit, data) in resident {
            match self.write_flagged(key, origin, benefit, data, true) {
                Ok(written) => {
                    delta.bytes_written += written;
                    delta.spill_writes += 1;
                }
                Err(_) => delta.demote_failures += 1,
            }
        }
        self.persist_index()?;
        delta.spill_virtual_ms =
            SpillCostModel::checkpoint_ms(delta.spill_writes, delta.bytes_written);
        Ok(delta)
    }

    /// The chunks marked resident by the last checkpoint, in ascending
    /// packed-key order (the deterministic warm-start insertion order):
    /// `(key, origin, benefit, serialized bytes)`.
    pub fn resident_entries(&self) -> Vec<(ChunkKey, u8, f64, u64)> {
        self.index
            .iter()
            .filter(|(_, e)| e.resident)
            .map(|(&packed, e)| {
                (
                    ChunkKey::unpack(packed),
                    e.origin,
                    e.benefit,
                    u64::from(e.bytes),
                )
            })
            .collect()
    }

    /// Persists the index to `spill.idx` (binary, checksummed — layout in
    /// `docs/FORMAT.md`).
    fn persist_index(&self) -> Result<(), SpillError> {
        let mut out =
            Vec::with_capacity(INDEX_HEADER_BYTES + self.index.len() * INDEX_ENTRY_BYTES + 8);
        out.extend_from_slice(&SPILL_INDEX_MAGIC);
        out.extend_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (&packed, e) in &self.index {
            out.extend_from_slice(&packed.to_le_bytes());
            out.extend_from_slice(&e.benefit.to_bits().to_le_bytes());
            out.extend_from_slice(&e.bytes.to_le_bytes());
            out.push(e.origin);
            out.push(u8::from(e.resident));
            out.extend_from_slice(&0u16.to_le_bytes()); // pad (reserved)
        }
        let checksum = spill_checksum(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        self.io.write(&self.index_path(), &out)
    }

    fn load_index(&mut self, bytes: &[u8]) -> Result<(), SpillError> {
        if bytes.len() < INDEX_HEADER_BYTES + 8 {
            return Err(SpillError::Corrupt {
                reason: "index shorter than header + checksum",
            });
        }
        if bytes[0..4] != SPILL_INDEX_MAGIC {
            return Err(SpillError::BadMagic);
        }
        let version = u16::from_le_bytes(take::<2>(bytes, 4)?);
        if version != SPILL_FORMAT_VERSION {
            return Err(SpillError::BadVersion { found: version });
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(take::<8>(bytes, body_len)?);
        if spill_checksum(&bytes[..body_len]) != stored {
            return Err(SpillError::BadChecksum);
        }
        let count = u32::from_le_bytes(take::<4>(bytes, 8)?) as usize;
        if INDEX_HEADER_BYTES + count * INDEX_ENTRY_BYTES != body_len {
            return Err(SpillError::Corrupt {
                reason: "index length disagrees with entry count",
            });
        }
        self.index.clear();
        for i in 0..count {
            let at = INDEX_HEADER_BYTES + i * INDEX_ENTRY_BYTES;
            let packed = u64::from_le_bytes(take::<8>(bytes, at)?);
            let benefit = f64::from_bits(u64::from_le_bytes(take::<8>(bytes, at + 8)?));
            let size = u32::from_le_bytes(take::<4>(bytes, at + 16)?);
            let origin = bytes[at + 20];
            let resident = bytes[at + 21] != 0;
            self.index.insert(
                packed,
                IndexEntry {
                    benefit,
                    bytes: size,
                    origin,
                    resident,
                },
            );
        }
        Ok(())
    }

    /// Makes the next `n` chunk writes fail deterministically with
    /// [`SpillError::Injected`] — test support for the demote-failure
    /// fallback path (a failed demotion must degrade to a plain eviction,
    /// never a silent count-table drop).
    #[doc(hidden)]
    pub fn fail_next_writes(&mut self, n: u64) {
        self.fail_writes = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggcache_schema::GroupById;

    fn sample_chunk() -> ChunkData {
        let mut d = ChunkData::new(2);
        d.push(&[0, 1], 1.5);
        d.push(&[2, 3], -4.25);
        d.push(&[7, 0], 0.0);
        d
    }

    fn sample_key() -> ChunkKey {
        ChunkKey::new(GroupById(3), 7)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggcache-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let data = sample_chunk();
        let enc = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &data);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec.key, sample_key());
        assert_eq!(dec.origin, ORIGIN_COMPUTED);
        assert_eq!(dec.benefit.to_bits(), 2.5f64.to_bits());
        assert_eq!(dec.data.raw_coords(), data.raw_coords());
        let got: Vec<u64> = dec.data.raw_values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = data.raw_values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // Re-encoding the decoded record reproduces the bytes exactly.
        assert_eq!(
            encode_record(dec.key, dec.origin, dec.benefit, &dec.data),
            enc
        );
    }

    #[test]
    fn empty_chunk_round_trips() {
        let data = ChunkData::new(3);
        let enc = encode_record(sample_key(), ORIGIN_BACKEND, 0.0, &data);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec.data.len(), 0);
        assert_eq!(dec.data.n_dims(), 3);
    }

    #[test]
    fn nan_and_negative_zero_values_survive() {
        let mut d = ChunkData::new(1);
        d.push(&[0], f64::NAN);
        d.push(&[1], -0.0);
        d.push(&[2], f64::INFINITY);
        let dec =
            decode_record(&encode_record(sample_key(), ORIGIN_BACKEND, f64::MAX, &d)).unwrap();
        let got: Vec<u64> = dec.data.raw_values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = d.raw_values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "IEEE-754 bit patterns must survive exactly");
    }

    #[test]
    fn corruption_is_detected() {
        let enc = encode_record(sample_key(), ORIGIN_COMPUTED, 2.5, &sample_chunk());
        // Flip one payload byte: checksum must catch it.
        let mut bad = enc.clone();
        bad[SPILL_HEADER_BYTES + 6] ^= 0x40;
        assert!(matches!(decode_record(&bad), Err(SpillError::BadChecksum)));
        // Truncation.
        assert!(decode_record(&enc[..enc.len() - 3]).is_err());
        // Wrong magic.
        let mut bad = enc.clone();
        bad[0] = b'X';
        assert!(matches!(decode_record(&bad), Err(SpillError::BadMagic)));
        // Future version (checksum fixed up so only the version differs).
        let mut bad = enc.clone();
        bad[4] = 2;
        let body = bad.len() - 8;
        let sum = spill_checksum(&bad[..body]).to_le_bytes();
        bad[body..].copy_from_slice(&sum);
        assert!(matches!(
            decode_record(&bad),
            Err(SpillError::BadVersion { found: 2 })
        ));
    }

    #[test]
    fn store_write_read_discard() {
        let dir = tmpdir("wrr");
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert!(store.is_empty());
        let data = sample_chunk();
        let bytes = store
            .write(sample_key(), ORIGIN_BACKEND, 3.0, &data)
            .unwrap();
        assert_eq!(bytes, store.bytes_on_disk());
        assert!(store.contains(sample_key()));
        let rec = store.read(sample_key()).unwrap().unwrap();
        assert_eq!(rec.data.raw_coords(), data.raw_coords());
        assert!(store
            .read(ChunkKey::new(GroupById(0), 0))
            .unwrap()
            .is_none());
        let (dropped, _) = store.discard(|_| true);
        assert_eq!(dropped, [sample_key()]);
        assert!(store.discard(|_| true).0.is_empty());
        assert!(store.is_empty());
        let reopened = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert!(reopened.is_empty(), "the discard reached spill.idx");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The file system with a `remove` that always fails.
    #[derive(Debug)]
    struct NoRemoveIo;

    impl SpillIo for NoRemoveIo {
        fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SpillError> {
            FsSpillIo.write(path, bytes)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>, SpillError> {
            FsSpillIo.read(path)
        }
        fn remove(&self, _: &Path) -> Result<(), SpillError> {
            Err(SpillError::Io {
                op: "remove",
                error: "injected".into(),
            })
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<(), SpillError> {
            FsSpillIo.rename(from, to)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<(), SpillError> {
            FsSpillIo.create_dir_all(dir)
        }
        fn list_files(&self, dir: &Path, extension: &str) -> Result<Vec<PathBuf>, SpillError> {
            FsSpillIo.list_files(dir, extension)
        }
    }

    #[test]
    fn a_removed_record_cannot_be_scavenged_back_when_the_delete_fails() {
        let dir = tmpdir("rm-fails");
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store
            .write(sample_key(), ORIGIN_BACKEND, 3.0, &sample_chunk())
            .unwrap();
        store.io = Box::new(NoRemoveIo);
        let (dropped, _) = store.discard(|_| true);
        assert_eq!(dropped, [sample_key()]);
        assert!(!store.contains(sample_key()));
        store.scavenge_index(&mut SpillMetrics::default());
        assert!(
            !store.contains(sample_key()),
            "the stale record was re-indexed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_survives_reopen() {
        let dir = tmpdir("ckpt");
        let a = sample_chunk();
        let mut b = ChunkData::new(2);
        b.push(&[9, 9], 42.0);
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            // A demoted-but-not-resident chunk must not warm-start.
            store
                .write(ChunkKey::new(GroupById(0), 1), ORIGIN_COMPUTED, 1.0, &b)
                .unwrap();
            let stats = store
                .checkpoint(
                    [
                        (ka, ORIGIN_BACKEND, 2.0, &a),
                        (kb, ORIGIN_COMPUTED, 4.0, &b),
                    ]
                    .into_iter(),
                )
                .unwrap();
            assert_eq!(stats.spill_writes, 2);
            assert!(stats.bytes_written > 0);
            assert_eq!(stats.demote_failures, 0);
            assert_eq!(
                stats.spill_virtual_ms.to_bits(),
                SpillCostModel::checkpoint_ms(2, stats.bytes_written).to_bits()
            );
        }
        let store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.resident_count(), 2);
        let resident = store.resident_entries();
        let keys: Vec<ChunkKey> = resident.iter().map(|&(k, ..)| k).collect();
        assert_eq!(keys, vec![ka, kb], "ascending packed-key order");
        assert_eq!(resident[0].1, ORIGIN_BACKEND);
        assert_eq!(resident[1].2.to_bits(), 4.0f64.to_bits());
        let rec = store.read(ka).unwrap().unwrap();
        assert_eq!(rec.data.raw_coords(), a.raw_coords());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_fails_once_each() {
        let dir = tmpdir("inject");
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store.fail_next_writes(2);
        let d = sample_chunk();
        assert!(matches!(
            store.write(sample_key(), ORIGIN_BACKEND, 1.0, &d),
            Err(SpillError::Injected)
        ));
        assert!(matches!(
            store.write(sample_key(), ORIGIN_BACKEND, 1.0, &d),
            Err(SpillError::Injected)
        ));
        assert!(store.write(sample_key(), ORIGIN_BACKEND, 1.0, &d).is_ok());
        assert!(!store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_validation_covers_every_knob() {
        let dir = tmpdir("cfg");
        assert!(matches!(
            SpillConfig::new(&dir)
                .fault(DiskFaultProfile {
                    torn_write_rate: -0.5,
                    ..DiskFaultProfile::default()
                })
                .validate(),
            Err(SpillError::BadRate {
                field: "torn_write_rate",
                ..
            })
        ));
        assert!(matches!(
            SpillConfig::new(&dir).scrub_interval_ms(0.0).validate(),
            Err(SpillError::BadScrubInterval { value }) if value == 0.0
        ));
        assert!(SpillConfig::new(&dir)
            .fault(DiskFaultProfile::uniform(0.2, 7))
            .scrub_interval_ms(100.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn torn_write_is_detected_and_quarantined() {
        let dir = tmpdir("torn");
        let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
            torn_write_rate: 1.0,
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        // The torn write itself reports success — corruption is silent.
        store
            .write(sample_key(), ORIGIN_BACKEND, 1.0, &sample_chunk())
            .unwrap();
        let err = store.read(sample_key()).unwrap_err();
        assert!(err.is_corruption(), "torn record must fail decode: {err}");
        let mut delta = SpillMetrics::default();
        store.quarantine(sample_key(), &mut delta);
        assert_eq!(delta.spill_quarantined, 1);
        assert!(!store.contains(sample_key()));
        assert!(dir
            .join(format!("{:016x}.corrupt", sample_key().pack()))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_budget_surfaces_as_no_space() {
        let dir = tmpdir("enospc");
        let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
            enospc_after_bytes: Some(150),
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        let d = sample_chunk();
        assert!(store
            .write(ChunkKey::new(GroupById(1), 1), ORIGIN_BACKEND, 1.0, &d)
            .is_ok());
        assert!(matches!(
            store.write(ChunkKey::new(GroupById(1), 2), ORIGIN_BACKEND, 1.0, &d),
            Err(SpillError::NoSpace)
        ));
        // The failed key was never indexed.
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_salvages_past_failed_records() {
        let dir = tmpdir("salvage");
        let a = sample_chunk();
        let mut b = ChunkData::new(2);
        b.push(&[5, 5], 9.0);
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            store.fail_next_writes(1);
            let stats = store
                .checkpoint(
                    [
                        (ka, ORIGIN_BACKEND, 2.0, &a),
                        (kb, ORIGIN_COMPUTED, 4.0, &b),
                    ]
                    .into_iter(),
                )
                .unwrap();
            assert_eq!(stats.demote_failures, 1, "first record's write fails");
            assert_eq!(stats.spill_writes, 1, "second record still lands");
        }
        let store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        let resident = store.resident_entries();
        assert_eq!(resident.len(), 1, "only the salvaged record warm-starts");
        assert_eq!(resident[0].0, kb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_index_is_scavenged_on_open() {
        let dir = tmpdir("scavenge");
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        {
            // One truncated index write: the checkpoint "crashes" mid-index.
            let mut store = SpillStore::open(
                SpillConfig::new(&dir).fault(DiskFaultProfile::truncate_index_writes(1)),
            )
            .unwrap();
            store
                .checkpoint(
                    [
                        (ka, ORIGIN_BACKEND, 2.0, &sample_chunk()),
                        (kb, ORIGIN_COMPUTED, 4.0, &sample_chunk()),
                    ]
                    .into_iter(),
                )
                .unwrap();
        }
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened.index_rebuilds, 1, "scavenge must run");
        assert_eq!(opened.spill_quarantined, 0);
        assert_eq!(store.len(), 2, "data files fully recovered");
        assert_eq!(store.resident_count(), 0, "residency is not reconstructed");
        // The scavenge persisted a fresh index: the next open is clean.
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened, SpillMetrics::default());
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scavenge_quarantines_damaged_and_misnamed_files() {
        let dir = tmpdir("scavbad");
        let ka = ChunkKey::new(GroupById(1), 5);
        {
            let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
            store
                .write(ka, ORIGIN_BACKEND, 2.0, &sample_chunk())
                .unwrap();
        }
        // A valid record parked under the wrong key's file name.
        let good = dir.join(format!("{:016x}.chunk", ka.pack()));
        std::fs::copy(&good, dir.join("00000000000000ff.chunk")).unwrap();
        // A flat-out corrupt file.
        std::fs::write(dir.join("00000000000000aa.chunk"), b"garbage").unwrap();
        // No index at all: open must scavenge.
        let _ = std::fs::remove_file(dir.join("spill.idx"));
        let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(opened.index_rebuilds, 1, "scavenge must run");
        assert_eq!(opened.spill_corrupt, 2);
        assert_eq!(opened.spill_quarantined, 2);
        assert!(store.contains(ka));
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_ahead_of_demand() {
        let dir = tmpdir("scrub");
        let ka = ChunkKey::new(GroupById(1), 5);
        let kb = ChunkKey::new(GroupById(2), 6);
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store
            .write(ka, ORIGIN_BACKEND, 2.0, &sample_chunk())
            .unwrap();
        store
            .write(kb, ORIGIN_COMPUTED, 4.0, &sample_chunk())
            .unwrap();
        // Corrupt one record behind the store's back.
        let victim = dir.join(format!("{:016x}.chunk", ka.pack()));
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[SPILL_HEADER_BYTES + 6] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let pass = store.scrub();
        assert_eq!(pass.scrub_passes, 1);
        assert_eq!(pass.spill_corrupt, 1);
        assert_eq!(pass.spill_quarantined, 1);
        assert_eq!((pass.spill_reads, pass.bytes_read), (0, 0), "no promotion");
        let two_reads = SpillCostModel::read_ms(store.bytes_of(kb).unwrap()) * 2.0;
        assert_eq!(pass.spill_virtual_ms, two_reads, "both reads are charged");
        assert!(!store.contains(ka), "corrupt record quarantined");
        assert!(store.read(kb).unwrap().is_some(), "clean record untouched");
        // A second pass over the now-clean store finds nothing.
        let clean = store.scrub();
        assert_eq!(clean.spill_corrupt, 0);
        assert_eq!(clean.spill_virtual_ms, two_reads / 2.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn charged_read_rides_out_transient_errors() {
        let dir = tmpdir("retry");
        let mut store = SpillStore::open(SpillConfig::new(&dir).fault(DiskFaultProfile {
            read_error_rate: 0.4,
            seed: 11,
            ..DiskFaultProfile::default()
        }))
        .unwrap();
        let data = sample_chunk();
        let bytes = store
            .write(sample_key(), ORIGIN_BACKEND, 1.0, &data)
            .unwrap();
        let mut retried = 0u64;
        for _ in 0..20 {
            let mut delta = SpillMetrics::default();
            let (rec, _) = store
                .read_charged(sample_key(), None, &mut delta)
                .unwrap()
                .unwrap();
            assert_eq!(rec.data.raw_coords(), data.raw_coords());
            let read_ms = SpillCostModel::read_ms(bytes);
            if delta.spill_retries > 0 {
                retried += 1;
                assert!(
                    delta.spill_virtual_ms > read_ms,
                    "retries cost virtual time"
                );
            } else {
                assert_eq!(delta.spill_virtual_ms, read_ms, "clean reads cost the read");
            }
        }
        assert!(retried > 0, "a 40% error rate must trigger some retries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_rate_profile_is_bit_transparent_on_disk() {
        let plain_dir = tmpdir("zplain");
        let faulty_dir = tmpdir("zfault");
        let run = |dir: &Path, fault: Option<DiskFaultProfile>| {
            let mut cfg = SpillConfig::new(dir);
            if let Some(f) = fault {
                cfg = cfg.fault(f);
            }
            let mut store = SpillStore::open(cfg).unwrap();
            let d = sample_chunk();
            store
                .write(ChunkKey::new(GroupById(1), 1), ORIGIN_BACKEND, 1.0, &d)
                .unwrap();
            store
                .checkpoint(
                    [(ChunkKey::new(GroupById(2), 2), ORIGIN_COMPUTED, 2.0, &d)].into_iter(),
                )
                .unwrap();
            let _ = store.read(ChunkKey::new(GroupById(1), 1)).unwrap();
        };
        run(&plain_dir, None);
        run(&faulty_dir, Some(DiskFaultProfile::default()));
        let mut files: Vec<String> = std::fs::read_dir(&plain_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert!(!files.is_empty());
        for name in files {
            assert_eq!(
                std::fs::read(plain_dir.join(&name)).unwrap(),
                std::fs::read(faulty_dir.join(&name)).unwrap(),
                "byte drift in {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&plain_dir);
        let _ = std::fs::remove_dir_all(&faulty_dir);
    }

    #[test]
    fn corrupt_backlog_is_capped() {
        fn corrupt_names(dir: &Path) -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.ends_with(".corrupt"))
                .collect();
            names.sort();
            names
        }
        let dir = tmpdir("corruptcap");
        let cap = DEFAULT_MAX_CORRUPT_FILES as u64;
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        let d = sample_chunk();
        let mut delta = SpillMetrics::default();
        for i in 0..cap + 3 {
            let key = ChunkKey::new(GroupById(2), i);
            store.write(key, ORIGIN_BACKEND, 1.0, &d).unwrap();
            store.quarantine(key, &mut delta);
        }
        assert_eq!(delta.spill_quarantined, cap + 3);
        // Only the cap's worth of tombstones survive; the excess was
        // purged in ascending file-name order (oldest keys first).
        let kept = corrupt_names(&dir);
        assert_eq!(kept.len() as u64, cap);
        assert_eq!(
            kept[0],
            format!("{:016x}.corrupt", ChunkKey::new(GroupById(2), 3).pack())
        );
        assert_eq!(delta.corrupt_purged, 3);
        drop(store);
        // Reopening clears the backlog a previous session left behind.
        for i in 0..2u64 {
            std::fs::write(dir.join(format!("{i:016x}.corrupt")), b"junk").unwrap();
        }
        let (_, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
        assert_eq!(corrupt_names(&dir).len() as u64, cap);
        assert_eq!(opened.corrupt_purged, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cost_model_charges_per_op_plus_per_byte() {
        assert!((SpillCostModel::write_ms(20_000) - 1.2).abs() < 1e-12);
        assert!((SpillCostModel::read_ms(20_000) - 1.2).abs() < 1e-12);
        assert_eq!(SpillCostModel::read_ms(0), SpillCostModel::READ_PER_OP_MS);
        // A checkpoint pays the dispatch once per chunk, the byte rate once.
        assert!((SpillCostModel::checkpoint_ms(3, 20_000) - 1.6).abs() < 1e-12);
    }
}
