//! The spill tier's storage-I/O seam: an object-safe [`SpillIo`] trait
//! the real filesystem backend and a deterministic disk-fault injector
//! both implement, mirroring the backend's `BackendSource` /
//! `FaultInjectingBackend` split.
//!
//! `SpillStore` performs every byte of disk traffic through a
//! `Box<dyn SpillIo>`, so the recovery machinery (checksum quarantine,
//! index scavenge, checkpoint salvage, retries) exercises exactly one
//! code path whether the disk is healthy or hostile. With the default
//! (all-zero) [`DiskFaultProfile`] the injector is bit-transparent: the
//! bytes on disk, the errors raised and the random stream consumed are
//! identical to the plain [`FsSpillIo`] backend.

use crate::spill::SpillError;
use aggcache_chunks::hash::SplitMix64;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Object-safe storage backend of a `SpillStore`: the primitive file
/// operations it needs, each returning typed [`SpillError`]s. Records go
/// through `append` and `read_at` on segment files, tombstones through
/// `append_tombstone` and compaction through `copy`; `write` and `read`
/// serve the index, and `read` a whole segment when the index is rebuilt.
///
/// Implementations must be deterministic for a deterministic call
/// sequence — the spill tier's virtual-time guarantees (bit-identical
/// runs across repeats) hold only if the I/O layer
/// introduces no hidden nondeterminism.
pub trait SpillIo: std::fmt::Debug + Send + Sync {
    /// Writes `bytes` to `path`, replacing any existing file.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SpillError>;

    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>, SpillError>;

    /// Appends `bytes` to `path`, creating it if absent, and returns the
    /// offset they start at: the file's real length before the append.
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError>;

    /// Reads `len` bytes of `path` at `offset`. A range past the file's
    /// end, or a missing file, is [`SpillError::Corrupt`] — whoever named
    /// the range named nothing — found before anything is allocated.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>, SpillError>;

    /// [`SpillIo::append`] of a tombstone. Retiring a record is
    /// housekeeping, so the fault injector passes it through, as it does
    /// `copy` and `remove`: a torn write or a spent ENOSPC budget never
    /// loses one, and the fault draws stay one set per record operation.
    fn append_tombstone(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError> {
        self.append(path, bytes)
    }

    /// Copies `len` bytes of `from` at `offset` to the end of `to` and
    /// returns where they landed: compaction's one operation. It is
    /// housekeeping, so the fault injector passes it through, as it does
    /// `remove`.
    fn copy(&self, from: &Path, offset: u64, len: usize, to: &Path) -> Result<u64, SpillError> {
        self.append(to, &self.read_at(from, offset, len)?)
    }

    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> Result<(), SpillError>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), SpillError>;

    /// Lists the files under `dir` whose extension is `extension`, with
    /// their lengths, sorted by file name (deterministic scavenge order).
    fn list_files(&self, dir: &Path, extension: &str) -> Result<Vec<(PathBuf, u64)>, SpillError>;
}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> SpillError {
    SpillError::Io {
        op,
        error: format!("{}: {e}", path.display()),
    }
}

/// The real filesystem implementation of [`SpillIo`] — thin wrappers over
/// `std::fs`, mapping OS errors to [`SpillError::Io`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FsSpillIo;

impl SpillIo for FsSpillIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SpillError> {
        std::fs::write(path, bytes).map_err(|e| io_err("write", path, e))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, SpillError> {
        std::fs::read(path).map_err(|e| io_err("read", path, e))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError> {
        let err = |e| io_err("append", path, e);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(err)?;
        let offset = file.metadata().map_err(err)?.len();
        file.write_all(bytes).map_err(err)?;
        Ok(offset)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>, SpillError> {
        let err = |e| io_err("read at", path, e);
        let corrupt = |reason| SpillError::Corrupt { reason };
        let file = File::open(path).map_err(|e| match e.kind() {
            ErrorKind::NotFound => corrupt("segment missing"),
            _ => err(e),
        })?;
        let size = file.metadata().map_err(err)?.len();
        if offset.checked_add(len as u64).is_none_or(|end| end > size) {
            return Err(corrupt("record past the end of its segment"));
        }
        let mut bytes = vec![0; len];
        file.read_exact_at(&mut bytes, offset).map_err(err)?;
        Ok(bytes)
    }

    fn remove(&self, path: &Path) -> Result<(), SpillError> {
        std::fs::remove_file(path).map_err(|e| io_err("remove", path, e))
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), SpillError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))
    }

    fn list_files(&self, dir: &Path, extension: &str) -> Result<Vec<(PathBuf, u64)>, SpillError> {
        let err = |e| io_err("list dir", dir, e);
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(err)? {
            let entry = entry.map_err(err)?;
            if entry.path().extension().is_some_and(|e| e == extension) {
                files.push((entry.path(), entry.metadata().map_err(err)?.len()));
            }
        }
        files.sort();
        Ok(files)
    }
}

/// The deterministic disk-fault model of a [`FaultInjectingSpillIo`].
///
/// Every `write` or `append` draws exactly two uniform variates (torn?,
/// torn length) and every `read` or `read_at` exactly three (transient
/// error?, bit flip?, flip position) from the seeded PRNG — *always*,
/// whatever the rates — so the random stream stays aligned across rate
/// settings and the injected fault sequence depends only on `(seed,
/// operation index)`. The remaining two knobs are deterministic scripts,
/// not draws: an ENOSPC-after-N-bytes budget and a
/// truncate-the-next-N-index-writes crash script modelling a checkpoint
/// torn mid-`spill.idx`.
///
/// The default profile is all-zero: wrapping [`FsSpillIo`] with it
/// changes nothing, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct DiskFaultProfile {
    /// PRNG seed; identical seeds produce identical fault sequences.
    pub seed: u64,
    /// Probability a read returns its bytes with one random bit flipped
    /// (silent corruption — only the record checksum can catch it).
    pub bit_flip_rate: f64,
    /// Probability a write persists only a prefix of its bytes while
    /// still reporting success (a torn write — detected at read time).
    pub torn_write_rate: f64,
    /// Probability a read fails with the retryable
    /// [`SpillError::TransientRead`].
    pub read_error_rate: f64,
    /// When set, writes fail with [`SpillError::NoSpace`] once the
    /// cumulative bytes submitted for writing would exceed this budget.
    pub enospc_after_bytes: Option<u64>,
    /// Crash script: the next N writes of the index file (`spill.idx`)
    /// persist only their first half while reporting success — a
    /// checkpoint truncated mid-write.
    pub truncate_next_index_writes: u64,
}

impl Default for DiskFaultProfile {
    /// A fault-free disk (all rates zero, no scripts): bit-transparent.
    fn default() -> Self {
        Self {
            seed: 0,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
            read_error_rate: 0.0,
            enospc_after_bytes: None,
            truncate_next_index_writes: 0,
        }
    }
}

impl DiskFaultProfile {
    /// A profile corrupting every operation class at `rate` (bit flips
    /// and torn writes at `rate`, transient read errors at `rate / 2`),
    /// seeded with `seed` — the knob the `fig_recovery` sweep turns.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            bit_flip_rate: rate,
            torn_write_rate: rate,
            read_error_rate: rate / 2.0,
            ..Self::default()
        }
    }

    /// Checks that every rate is a probability in [0, 1].
    pub(crate) fn validate(&self) -> Result<(), SpillError> {
        for (field, value) in [
            ("bit_flip_rate", self.bit_flip_rate),
            ("torn_write_rate", self.torn_write_rate),
            ("read_error_rate", self.read_error_rate),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(SpillError::BadRate { field, value });
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct DiskFaultState {
    rng: SplitMix64,
    bytes_submitted: u64,
    index_truncations_left: u64,
    reads: u64,
}

/// A [`SpillIo`] decorator injecting deterministic disk faults per a
/// validated [`DiskFaultProfile`] — the spill tier's analogue of the
/// backend's `FaultInjectingBackend`.
///
/// Directory operations (`create_dir_all`, `list_files`, `remove`) and
/// housekeeping (`append_tombstone`, compaction's `copy`) pass through
/// unfaulted: the model targets data-path corruption, not metadata loss,
/// and its streams stay aligned per logical record operation.
#[derive(Debug)]
pub struct FaultInjectingSpillIo<I = FsSpillIo> {
    inner: I,
    profile: DiskFaultProfile,
    state: Mutex<DiskFaultState>,
}

impl<I: SpillIo> FaultInjectingSpillIo<I> {
    /// Wraps `inner` with a validated fault profile.
    pub(crate) fn new(inner: I, profile: DiskFaultProfile) -> Result<Self, SpillError> {
        profile.validate()?;
        Ok(Self {
            inner,
            profile,
            state: Mutex::new(DiskFaultState {
                rng: SplitMix64(profile.seed),
                bytes_submitted: 0,
                index_truncations_left: profile.truncate_next_index_writes,
                reads: 0,
            }),
        })
    }

    /// Draws one write's variates and hands `write` what lands: nothing
    /// (ENOSPC), half (an `index` write under the crash script), a torn
    /// prefix, or all of `bytes`.
    fn faulted_write<T>(
        &self,
        bytes: &[u8],
        index: bool,
        write: impl FnOnce(&[u8]) -> Result<T, SpillError>,
    ) -> Result<T, SpillError> {
        let mut st = self.state.lock().unwrap();
        // Always draw both variates so the stream stays rate-aligned.
        let u_torn = st.rng.next_f64();
        let u_len = st.rng.next_f64();
        st.bytes_submitted += bytes.len() as u64;
        let over_budget = self
            .profile
            .enospc_after_bytes
            .is_some_and(|budget| st.bytes_submitted > budget);
        let truncate_index = index && st.index_truncations_left > 0;
        if truncate_index {
            st.index_truncations_left -= 1;
        }
        drop(st);
        if over_budget {
            return Err(SpillError::NoSpace);
        }
        if truncate_index {
            // Crash mid-checkpoint: half the index lands, success reported.
            return write(&bytes[..bytes.len() / 2]);
        }
        if u_torn < self.profile.torn_write_rate && bytes.len() > 1 {
            let keep = ((u_len * bytes.len() as f64) as usize).clamp(1, bytes.len() - 1);
            return write(&bytes[..keep]);
        }
        write(bytes)
    }

    /// Draws one read's variates: a transient error, or what `read`
    /// returns with maybe one bit flipped.
    fn faulted_read(
        &self,
        read: impl FnOnce() -> Result<Vec<u8>, SpillError>,
    ) -> Result<Vec<u8>, SpillError> {
        let mut st = self.state.lock().unwrap();
        // Always draw all three variates so the stream stays rate-aligned.
        let u_err = st.rng.next_f64();
        let u_flip = st.rng.next_f64();
        let u_pos = st.rng.next_f64();
        let seq = st.reads;
        st.reads += 1;
        drop(st);
        if u_err < self.profile.read_error_rate {
            return Err(SpillError::TransientRead { seq });
        }
        let mut bytes = read()?;
        if u_flip < self.profile.bit_flip_rate && !bytes.is_empty() {
            let bit = (u_pos * (bytes.len() * 8) as f64) as usize;
            let bit = bit.min(bytes.len() * 8 - 1);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(bytes)
    }
}

impl<I: SpillIo> SpillIo for FaultInjectingSpillIo<I> {
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SpillError> {
        self.faulted_write(bytes, true, |b| self.inner.write(path, b))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, SpillError> {
        self.faulted_read(|| self.inner.read(path))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError> {
        self.faulted_write(bytes, false, |b| self.inner.append(path, b))
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>, SpillError> {
        self.faulted_read(|| self.inner.read_at(path, offset, len))
    }

    fn append_tombstone(&self, path: &Path, bytes: &[u8]) -> Result<u64, SpillError> {
        self.inner.append_tombstone(path, bytes)
    }

    fn copy(&self, from: &Path, offset: u64, len: usize, to: &Path) -> Result<u64, SpillError> {
        self.inner.copy(from, offset, len, to)
    }

    fn remove(&self, path: &Path) -> Result<(), SpillError> {
        self.inner.remove(path)
    }

    fn create_dir_all(&self, dir: &Path) -> Result<(), SpillError> {
        self.inner.create_dir_all(dir)
    }

    fn list_files(&self, dir: &Path, extension: &str) -> Result<Vec<(PathBuf, u64)>, SpillError> {
        self.inner.list_files(dir, extension)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SPILL_HEADER_BYTES;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggcache-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn zero_rates_are_bit_transparent() {
        let dir = tmpdir("transparent");
        let plain = FsSpillIo;
        let faulty = FaultInjectingSpillIo::new(FsSpillIo, DiskFaultProfile::default()).unwrap();
        let payload: Vec<u8> = (0..=255).collect();
        let a = dir.join("a.seg");
        let b = dir.join("b.seg");
        plain.write(&a, &payload).unwrap();
        faulty.write(&b, &payload).unwrap();
        assert_eq!(plain.read(&a).unwrap(), faulty.read(&b).unwrap());
        assert_eq!(plain.append(&a, &payload).unwrap(), 256);
        assert_eq!(faulty.append(&b, &payload).unwrap(), 256);
        assert_eq!(
            plain.read_at(&a, 250, 10).unwrap(),
            faulty.read_at(&b, 250, 10).unwrap()
        );
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_reports_the_real_length_and_read_at_checks_it() {
        let dir = tmpdir("append");
        let seg = dir.join("00000000.seg");
        assert_eq!(FsSpillIo.append(&seg, &[1, 2, 3]).unwrap(), 0);
        // Whatever lands behind the store's back, the next offset is real.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&seg)
            .unwrap()
            .write_all(&[9; 4])
            .unwrap();
        assert_eq!(FsSpillIo.append(&seg, &[4, 5]).unwrap(), 7);
        assert_eq!(FsSpillIo.read_at(&seg, 7, 2).unwrap(), [4, 5]);
        assert_eq!(FsSpillIo.read_at(&seg, 9, 0).unwrap(), [0u8; 0]);
        for (path, offset, len) in [
            (&seg, 8, 2),
            (&seg, u64::MAX, 1),
            (&seg, 0, u32::MAX as usize),
            (&dir.join("00000001.seg"), 0, 1),
        ] {
            let err = FsSpillIo.read_at(path, offset, len).unwrap_err();
            assert!(err.is_corruption(), "({offset}, {len}): {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let dir = tmpdir("seeded");
        let payload = vec![0u8; 64];
        let outcomes = |seed| {
            let io = FaultInjectingSpillIo::new(
                FsSpillIo,
                DiskFaultProfile {
                    read_error_rate: 0.4,
                    bit_flip_rate: 0.4,
                    seed,
                    ..DiskFaultProfile::default()
                },
            )
            .unwrap();
            let path = dir.join(format!("s{seed}.seg"));
            io.append(&path, &payload).unwrap();
            (0..40)
                .map(|_| match io.read_at(&path, 0, payload.len()) {
                    Ok(bytes) if bytes == payload => "clean",
                    Ok(_) => "flipped",
                    Err(SpillError::TransientRead { .. }) => "transient",
                    Err(_) => "other",
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(3), outcomes(3));
        assert_ne!(outcomes(3), outcomes(4), "different seeds should differ");
        let seen = outcomes(3);
        assert!(seen.contains(&"clean"));
        assert!(seen.contains(&"flipped"));
        assert!(seen.contains(&"transient"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_persist_a_strict_prefix() {
        let dir = tmpdir("torn");
        let io = FaultInjectingSpillIo::new(
            FsSpillIo,
            DiskFaultProfile {
                torn_write_rate: 1.0,
                ..DiskFaultProfile::default()
            },
        )
        .unwrap();
        let payload: Vec<u8> = (0..100).collect();
        let path = dir.join("t.seg");
        assert_eq!(io.append(&path, &payload).unwrap(), 0);
        let on_disk = std::fs::read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < payload.len());
        assert_eq!(on_disk[..], payload[..on_disk.len()], "prefix, not garbage");
        // The next append starts where the torn one really ended.
        let next = io.append(&path, &payload).unwrap();
        assert_eq!(next, on_disk.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_pass_the_injector_whole_and_draw_nothing() {
        let dir = tmpdir("tombstone");
        let io = FaultInjectingSpillIo::new(
            FsSpillIo,
            DiskFaultProfile {
                torn_write_rate: 1.0,
                enospc_after_bytes: Some(0),
                ..DiskFaultProfile::default()
            },
        )
        .unwrap();
        let path = dir.join("t.seg");
        // A tombstone's length: header, two empty blocks' prefixes, checksum.
        let tombstone = [7; SPILL_HEADER_BYTES + 16];
        let len = tombstone.len() as u64;
        assert_eq!(io.append_tombstone(&path, &tombstone).unwrap(), 0);
        assert_eq!(io.append_tombstone(&path, &tombstone).unwrap(), len);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [tombstone; 2].concat(),
            "neither torn"
        );
        assert!(matches!(
            io.append(&path, &tombstone),
            Err(SpillError::NoSpace)
        ));
        let st = io.state.lock().unwrap();
        assert_eq!(st.bytes_submitted, len, "only the record append counted");
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_budget_fails_writes_past_the_limit() {
        let dir = tmpdir("enospc");
        let io = FaultInjectingSpillIo::new(
            FsSpillIo,
            DiskFaultProfile {
                enospc_after_bytes: Some(100),
                ..DiskFaultProfile::default()
            },
        )
        .unwrap();
        let path = dir.join("e.seg");
        assert!(io.append(&path, &[0u8; 60]).is_ok());
        assert!(matches!(
            io.append(&path, &[0u8; 60]),
            Err(SpillError::NoSpace)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_truncation_script_hits_only_the_index() {
        let dir = tmpdir("truncidx");
        let profile = DiskFaultProfile {
            truncate_next_index_writes: 1,
            ..DiskFaultProfile::default()
        };
        let io = FaultInjectingSpillIo::new(FsSpillIo, profile).unwrap();
        let payload = vec![7u8; 80];
        let segment = dir.join("00000000.seg");
        let idx = dir.join("spill.idx");
        io.append(&segment, &payload).unwrap();
        assert_eq!(
            std::fs::read(&segment).unwrap().len(),
            80,
            "records untouched"
        );
        io.write(&idx, &payload).unwrap();
        assert_eq!(std::fs::read(&idx).unwrap().len(), 40, "index halved");
        io.write(&idx, &payload).unwrap();
        assert_eq!(std::fs::read(&idx).unwrap().len(), 80, "script consumed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_validation_rejects_bad_rates() {
        assert!(matches!(
            DiskFaultProfile {
                bit_flip_rate: 1.5,
                ..DiskFaultProfile::default()
            }
            .validate(),
            Err(SpillError::BadRate {
                field: "bit_flip_rate",
                ..
            })
        ));
        assert!(DiskFaultProfile::uniform(0.3, 9).validate().is_ok());
    }

    #[test]
    fn list_files_is_sorted_and_filtered() {
        let dir = tmpdir("list");
        for name in ["00000001.seg", "00000000.seg", "spill.idx", "x.chunk"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let files = FsSpillIo.list_files(&dir, "seg").unwrap();
        let names: Vec<_> = files
            .iter()
            .map(|(p, len)| (p.file_name().unwrap().to_str().unwrap().to_string(), *len))
            .collect();
        assert_eq!(
            names,
            [("00000000.seg".into(), 1), ("00000001.seg".into(), 1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
