//! Workspace tests of the persistent spill tier: `SpillFormat` round
//! trips (property-tested on random records and on every chunk a paper
//! stream produces, under all five strategies), tmpdir-isolated store
//! round trips, the warm-start oracle, and the `docs/FORMAT.md`
//! golden-file check that fails if the on-disk bytes ever drift from the
//! normative spec.

use aggcache::prelude::*;
use proptest::prelude::*;
// Our `Strategy` enum collides with proptest's trait of the same name
// under the two glob imports; re-import both under unambiguous names.
use aggcache::prelude::Strategy;
use aggcache::store::{SpillCostModel, SpillError, SPILL_FORMAT_VERSION, SPILL_HEADER_BYTES};
use proptest::strategy::Strategy as PropStrategy;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A process- and call-unique scratch directory (removed by each test).
fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "aggcache-spill-it-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The segment files under `dir`, in log order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let listed = FsSpillIo.list_files(dir, "seg").unwrap();
    listed.into_iter().map(|(path, _)| path).collect()
}

/// The length of the record whose header opens `bytes`, per
/// `docs/FORMAT.md`: header, column table (five bytes a dimension), two
/// length prefixes and the checksum, then `n_cells × (n_stored × cw + vw)`
/// — `n_stored` the table's entries tagged 0 (stored), `cw` 4 with flag
/// bit 1, else 2, and `vw` 8 with flag bit 2, else 2.
fn record_len(bytes: &[u8]) -> usize {
    let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
    let n_dims = u16::from_le_bytes([bytes[18], bytes[19]]) as usize;
    let n_cells = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    let table = &bytes[SPILL_HEADER_BYTES..SPILL_HEADER_BYTES + 5 * n_dims];
    let n_stored = table.iter().step_by(5).filter(|&&tag| tag == 0).count();
    let cw = if flags & 2 != 0 { 4 } else { 2 };
    let vw = if flags & 4 != 0 { 8 } else { 2 };
    SPILL_HEADER_BYTES + table.len() + 16 + n_cells * (n_stored * cw + vw)
}

/// What `SpillCostModel` prices a record of `n_cells` cells of `n_dims`
/// coordinates at, per `docs/FORMAT.md`: its length with `u32`
/// coordinates and `f64` values, whatever widths it is written at.
fn priced_len(n_dims: usize, n_cells: usize) -> u64 {
    (SPILL_HEADER_BYTES + 16 + n_cells * (n_dims * 4 + 8)) as u64
}

/// Every coordinate of every cell, in order, whatever the layout.
fn all_coords(data: &ChunkData) -> Vec<u32> {
    data.iter().flat_map(|(c, _)| c.iter()).collect()
}

fn assert_records_equal(a: &SpillRecord, b: &SpillRecord) {
    assert_eq!(a.key, b.key);
    assert_eq!(a.origin, b.origin);
    assert_eq!(a.benefit.to_bits(), b.benefit.to_bits());
    assert_eq!(a.data.n_dims(), b.data.n_dims());
    assert_eq!(all_coords(&a.data), all_coords(&b.data));
    let av: Vec<u64> = a.data.raw_values().iter().map(|v| v.to_bits()).collect();
    let bv: Vec<u64> = b.data.raw_values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(av, bv, "IEEE-754 value bits must survive exactly");
}

/// Strategy: an arbitrary record — any dimensionality 1-4, any coords,
/// some dimensions one coordinate every cell holds (past `u16` or not),
/// any f64 *bit pattern* (NaN payloads, -0.0 and infinities included) or
/// whole numbers `u16` holds.
fn arb_record() -> impl PropStrategy<Value = SpillRecord> {
    (
        1usize..=4,
        0u32..(1 << 24),
        0u64..(1u64 << 40),
        0u8..=2,
        0u64..u64::MAX,
        proptest::bool::ANY,
    )
        .prop_flat_map(|(n_dims, gb, chunk, origin, benefit_bits, whole)| {
            // Per dimension: stored (kinds 0 and 1), or held once at a
            // small coordinate (2) or at any (3).
            let held = (0u8..4, 0u32..u32::MAX).prop_map(|(kind, c)| match kind {
                2 => Some(c % 8),
                3 => Some(c),
                _ => None,
            });
            (
                proptest::collection::vec(held, n_dims),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0u32..u32::MAX, n_dims),
                        0u64..u64::MAX,
                    ),
                    0..40,
                ),
            )
                .prop_map(move |(held, cells)| {
                    let mut data = ChunkData::new(n_dims);
                    for (coords, value_bits) in &cells {
                        let coords: Vec<u32> = coords
                            .iter()
                            .zip(&held)
                            .map(|(&c, h)| h.unwrap_or(c))
                            .collect();
                        let value = if whole {
                            f64::from(*value_bits as u16)
                        } else {
                            f64::from_bits(*value_bits)
                        };
                        data.push(&coords, value);
                    }
                    SpillRecord {
                        key: ChunkKey::new(GroupById(gb), chunk),
                        origin,
                        benefit: f64::from_bits(benefit_bits),
                        data,
                    }
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(r))` reproduces every field bit-for-bit, and
    /// re-encoding the decoded record reproduces the bytes exactly.
    #[test]
    fn format_round_trip_is_bit_identical(record in arb_record()) {
        let encoded = encode_record(record.key, record.origin, record.benefit, &record.data);
        let decoded = decode_record(&encoded).unwrap();
        assert_records_equal(&decoded, &record);
        prop_assert_eq!(decoded.data.columns(), record.data.columns());
        let re = encode_record(decoded.key, decoded.origin, decoded.benefit, &decoded.data);
        prop_assert_eq!(re, encoded);
    }

    /// The corruption-detection guarantee behind quarantine-and-refetch:
    /// flipping any bits of any single byte of a serialized record makes
    /// `decode_record` fail — never a silent mis-decode (the magic,
    /// version, structure or trailing FNV-1a checksum check catches it).
    #[test]
    fn any_single_byte_corruption_is_detected(
        record in arb_record(),
        pos in 0usize..(1 << 16),
        delta in 1u8..=255,
    ) {
        let encoded = encode_record(record.key, record.origin, record.benefit, &record.data);
        let mut bad = encoded.clone();
        let i = pos % bad.len();
        bad[i] ^= delta;
        prop_assert!(
            decode_record(&bad).is_err(),
            "flipping byte {i} by {delta:#04x} went undetected"
        );
    }

    /// Hostile bytes in and around a valid record's column table, its
    /// checksum made to match so that only the structure can refuse them,
    /// decode to a chunk or to `Corrupt` — never a panic and never another
    /// error.
    #[test]
    fn a_hostile_column_table_decodes_or_is_corrupt(
        record in arb_record(),
        damage in arb_table_damage(),
    ) {
        let encoded = encode_record(record.key, record.origin, record.benefit, &record.data);
        let bad = damaged(encoded, &damage);
        let got = decode_record(&bad);
        prop_assert!(
            matches!(got, Ok(_) | Err(SpillError::Corrupt { .. })),
            "{damage:?}: {got:?}"
        );
    }
}

/// One way to damage a record's column table or what it sizes.
#[derive(Debug, Clone)]
enum TableDamage {
    /// XORs the tag of dimension `d mod n_dims` with the mask: 1 turns a
    /// stored column into one held once, or back.
    FlipTag(usize, u8),
    /// Sets `coord_len` to `n_cells × n × cw`: `n` stored columns where
    /// the table may name another count.
    CoordLen(usize),
    /// Cuts the record this many bytes (mod its table's length) into its
    /// table.
    Truncate(usize),
    /// Sets `n_dims` to 0, and `n_cells` to 1 if it is 0.
    NoDims,
}

fn arb_table_damage() -> impl PropStrategy<Value = TableDamage> {
    prop_oneof![
        (0usize..4, 1u8..=255).prop_map(|(d, mask)| TableDamage::FlipTag(d, mask)),
        (0usize..4, 1u8..=1).prop_map(|(d, mask)| TableDamage::FlipTag(d, mask)),
        (0usize..6).prop_map(TableDamage::CoordLen),
        (0usize..20).prop_map(TableDamage::Truncate),
        Just(TableDamage::NoDims),
    ]
}

/// `record` with `damage` done and its checksum recomputed.
fn damaged(record: Vec<u8>, damage: &TableDamage) -> Vec<u8> {
    let n_dims = u16::from_le_bytes([record[18], record[19]]) as usize;
    let n_cells = u32::from_le_bytes(record[20..24].try_into().unwrap());
    let table = SPILL_HEADER_BYTES..SPILL_HEADER_BYTES + 5 * n_dims;
    let mut body = record[..record.len() - 8].to_vec();
    match *damage {
        TableDamage::FlipTag(d, mask) => body[table.start + 5 * (d % n_dims)] ^= mask,
        TableDamage::CoordLen(n) => {
            let cw = if body[6] & 2 != 0 { 4 } else { 2 };
            let len = n_cells * n as u32 * cw;
            body[table.end..table.end + 4].copy_from_slice(&len.to_le_bytes());
        }
        TableDamage::Truncate(k) => body.truncate(table.start + k % table.len()),
        TableDamage::NoDims => {
            body[18..20].copy_from_slice(&0u16.to_le_bytes());
            body[20..24].copy_from_slice(&n_cells.max(1).to_le_bytes());
        }
    }
    let checksum = spill_checksum(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Strategy: a chunk shape — dimensionality 1-4 and 0-40 cells — with
/// cells every width holds: coordinates that fit `u16` and whole-number
/// values from 0 to 65,535.
fn arb_narrow_cells() -> impl PropStrategy<Value = (usize, Vec<u32>, Vec<u16>)> {
    (1usize..=4, 0usize..40).prop_flat_map(|(n_dims, n_cells)| {
        (
            proptest::collection::vec(0u32..=u32::from(u16::MAX), n_dims * n_cells),
            proptest::collection::vec(0u32..=u32::from(u16::MAX), n_cells),
        )
            .prop_map(move |(coords, values)| {
                let values = values.into_iter().map(|v| v as u16).collect();
                (n_dims, coords, values)
            })
    })
}

/// The spill store's write, checkpoint and read charges of `data` in a
/// fresh directory, as bits.
fn spill_charges(data: &ChunkData, tag: &str) -> [u64; 3] {
    let dir = tmpdir(tag);
    let key = ChunkKey::new(GroupById(5), 9);
    let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
    let write = store.write(key, 1, 2.0, data).unwrap();
    let checkpoint = store.checkpoint([(key, 1, 2.0, data)].into_iter()).unwrap();
    let mut read = SpillMetrics::default();
    let record = store.read_checked(key, None, &mut read).unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(&record.data, data);
    let bytes = encode_record(key, 1, 2.0, data).len() as u64;
    assert_eq!(write.bytes_written, bytes, "the real bytes are reported");
    assert_eq!(checkpoint.bytes_written, bytes);
    [write, checkpoint, read].map(|m| m.spill_virtual_ms.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The layout and widths a record is written at never move virtual
    /// time: the same cells held at each of the four coordinate × value
    /// width pairs, with a first column held once (at `u32`, past `u16`)
    /// or stored, and with a coordinate past `u16` or a value past `u16`
    /// written wide, are written, checkpointed and read back at
    /// bit-identical charges, those of the fixed-width record
    /// `48 + n_cells × (4·n_dims + 8)` that `docs/FORMAT.md` prices.
    #[test]
    fn widths_never_move_virtual_time(cells in arb_narrow_cells()) {
        let (n_dims, coords, values) = cells;
        let n_cells = values.len();
        let wide_coords = || coords.clone();
        let narrow_coords = || coords.iter().map(|&c| c as u16).collect::<Vec<_>>();
        let wide_values = || values.iter().map(|&v| f64::from(v)).collect::<Vec<_>>();
        let mut chunks = vec![
            ChunkData::from_raw(n_dims, narrow_coords(), values.clone()),
            ChunkData::from_raw(n_dims, narrow_coords(), wide_values()),
            ChunkData::from_raw(n_dims, wide_coords(), values.clone()),
            ChunkData::from_raw(n_dims, wide_coords(), wide_values()),
        ];
        let mut held = wide_coords();
        held.iter_mut().step_by(n_dims).for_each(|c| *c = 70_000);
        let stored = vec![None; n_dims];
        chunks.push(ChunkData::from_raw(n_dims, held.clone(), values.clone()));
        chunks.push(ChunkData::from_stored(&stored, held, values.clone()));
        if n_cells > 0 {
            let mut past_u16 = wide_coords();
            past_u16[0] = 70_000;
            let mut past_whole = wide_values();
            past_whole[0] = 0.1;
            chunks.push(ChunkData::from_raw(n_dims, past_u16.clone(), wide_values()));
            chunks.push(ChunkData::from_raw(n_dims, wide_coords(), past_whole.clone()));
            chunks.push(ChunkData::from_raw(n_dims, past_u16, past_whole));
        }
        let priced = priced_len(n_dims, n_cells);
        let want = [
            SpillCostModel::write_ms(priced),
            SpillCostModel::write_ms(priced),
            SpillCostModel::read_ms(priced),
        ]
        .map(f64::to_bits);
        for (i, data) in chunks.iter().enumerate() {
            prop_assert_eq!(spill_charges(data, "widths"), want, "width pair {}", i);
        }
    }
}

/// Every chunk a paper query stream spills — under each of the five
/// lookup strategies, over a random small grid — round-trips through its
/// segment bit-identically (each record re-encodes to its own bytes).
#[test]
fn every_spilled_chunk_round_trips_under_all_strategies() {
    let strategies = [
        Strategy::NoAggregation,
        Strategy::Esm,
        Strategy::Esmc { node_budget: None },
        Strategy::Vcm,
        Strategy::Vcmc,
    ];
    for (i, &strategy) in strategies.iter().enumerate() {
        // A different random-ish shape per strategy.
        let dataset = SyntheticSpec::new()
            .dim("a", vec![1, 4, 12 + i as u32], vec![1, 2, 4])
            .dim("b", vec![1, 6 + i as u32], vec![1, 3])
            .tuples(600 + 100 * i as u64)
            .build();
        let dir = tmpdir("strat");
        let backend = Backend::new(
            dataset.fact.clone(),
            AggFn::Sum,
            BackendCostModel::default(),
        );
        let mut mgr = CacheManager::builder()
            .strategy(strategy)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(1024) // tight: force demotions
            .spill(SpillConfig::new(&dir))
            .build(backend)
            .unwrap();
        let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
        let mut stream = QueryStream::new(
            dataset.grid.clone(),
            WorkloadConfig::paper(max_level, 7 + i as u64),
        );
        for q in stream.take_queries(40) {
            mgr.run(&q.into()).unwrap();
        }
        mgr.checkpoint().unwrap();
        let store = mgr.spill_store().unwrap();
        assert!(!store.is_empty(), "strategy {i}: nothing was spilled");
        // Decode every record straight off the segments and re-encode:
        // the bytes must reproduce exactly.
        let mut records = 0;
        for path in segments(&dir) {
            let bytes = std::fs::read(&path).unwrap();
            let mut at = 0;
            while at < bytes.len() {
                let len = record_len(&bytes[at..]);
                let rec = decode_record(&bytes[at..at + len]).unwrap();
                let re = encode_record(rec.key, rec.origin, rec.benefit, &rec.data);
                assert_eq!(re, &bytes[at..at + len], "strategy {i}: a record drifted");
                records += 1;
                at += len;
            }
        }
        assert!(records >= store.len(), "the index names missing records");
        for key in store.keys() {
            assert!(store.read(key).unwrap().is_some(), "strategy {i}: {key:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Tmpdir-isolated store round trip: records written by one store are
/// read back bit-identically by a second store opened over the same
/// directory (the index travels with it).
#[test]
fn store_round_trips_across_reopen() {
    let dir = tmpdir("reopen");
    let mut data = ChunkData::new(3);
    data.push(&[1, 2, 3], f64::MIN_POSITIVE);
    data.push(&[4, 5, 6], -1.0e300);
    let key = ChunkKey::new(GroupById(17), 42);
    {
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store.write(key, 1, 8.25, &data).unwrap();
        store
            .checkpoint([(key, 1u8, 8.25f64, &data)].into_iter())
            .unwrap();
    }
    let store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.resident_count(), 1);
    let rec = store.read(key).unwrap().unwrap();
    assert_records_equal(
        &rec,
        &SpillRecord {
            key,
            origin: 1,
            benefit: 8.25,
            data,
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warm-start oracle, end to end through the public API: a session
/// that checkpoints and "restarts" answers subsequent queries
/// bit-identically to one that never restarted.
#[test]
fn warm_restart_matches_never_restarted_oracle() {
    let dataset = SyntheticSpec::new()
        .dim("p", vec![1, 3, 9], vec![1, 3, 3])
        .dim("s", vec![1, 6], vec![1, 2])
        .tuples(800)
        .build();
    let build = |spill: Option<&PathBuf>| {
        let backend = Backend::new(
            dataset.fact.clone(),
            AggFn::Sum,
            BackendCostModel::default(),
        );
        let mut b = CacheManager::builder()
            .strategy(Strategy::Vcmc)
            .policy(PolicyKind::TwoLevel)
            .cache_bytes(8 * 1024);
        if let Some(dir) = spill {
            b = b.spill(SpillConfig::new(dir));
        }
        b.build(backend).unwrap()
    };
    let max_level = dataset.grid.geom(dataset.fact_gb).level().to_vec();
    let queries = |seed| {
        let mut s = QueryStream::new(
            dataset.grid.clone(),
            WorkloadConfig::paper(max_level.clone(), seed),
        );
        QueryRequest::batch(&s.take_queries(30))
    };
    let warmup = queries(11);
    let probe = queries(12);

    let dir = tmpdir("oracle");
    // Oracle: one continuous session (no spill, no restart).
    let mut oracle = build(None);
    // Warm path: run the warm-up with the spill attached, checkpoint,
    // then "restart" by building a second manager over the same dir.
    let mut first = build(Some(&dir));
    for q in &warmup {
        oracle.run(q).unwrap();
        first.run(q).unwrap();
    }
    first.checkpoint().unwrap();
    drop(first);
    let mut warm = build(Some(&dir));
    assert!(warm.spill_store().unwrap().resident_count() > 0);
    // Identical RAM population and count tables after the restart...
    warm.counts().unwrap().assert_same(oracle.counts().unwrap());
    // ...and bit-identical answers (values AND metrics) from here on.
    for q in &probe {
        let a = oracle.run(q).unwrap();
        let b = warm.run(q).unwrap();
        assert_eq!(all_coords(&a.data), all_coords(&b.data));
        let av: Vec<u64> = a.data.raw_values().iter().map(|v| v.to_bits()).collect();
        let bv: Vec<u64> = b.data.raw_values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(av, bv);
        assert_eq!(a.metrics.complete_hit, b.metrics.complete_hit);
        assert_eq!(
            a.metrics.total_ms().to_bits(),
            b.metrics.total_ms().to_bits()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Golden-file checks against docs/FORMAT.md (the normative spec).
// ---------------------------------------------------------------------

/// The spec's worked example, verbatim (docs/FORMAT.md "Worked example").
fn golden_fixture() -> (ChunkKey, u8, f64, ChunkData) {
    let mut data = ChunkData::new(2);
    data.push(&[0, 1], 1.5);
    data.push(&[2, 3], -4.25);
    data.push(&[7, 0], 0.0);
    (ChunkKey::new(GroupById(3), 7), 1, 2.5, data)
}

/// `docs/FORMAT.md`, whose title and version rows must name this build's
/// `SPILL_FORMAT_VERSION`, so that a version bump cannot leave the spec
/// describing the old one.
fn format_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FORMAT.md");
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("docs/FORMAT.md must exist (the normative spec): {e}"));
    let v = SPILL_FORMAT_VERSION;
    for (what, needle) in [
        ("title", format!("# SpillFormat v{v} ")),
        (
            "record version row",
            format!("this document describes version **{v}**"),
        ),
        (
            "index version row",
            format!("| 4 | 2 | version | `u16`, **{v}** |"),
        ),
    ] {
        assert!(
            doc.contains(&needle),
            "docs/FORMAT.md's {what} does not name version {v}"
        );
    }
    doc
}

/// Hex bytes between `<!-- GOLDEN:tag -->` and `<!-- /GOLDEN:tag -->`.
/// Each fixture line is hex groups, then two-plus spaces, then prose
/// commentary; only the hex part left of that gap counts.
fn golden_hex(doc: &str, tag: &str) -> String {
    let begin = format!("<!-- GOLDEN:{tag} -->");
    let end = format!("<!-- /GOLDEN:{tag} -->");
    let at = doc
        .find(&begin)
        .unwrap_or_else(|| panic!("docs/FORMAT.md lost its {begin} marker"));
    let stop = doc[at..]
        .find(&end)
        .unwrap_or_else(|| panic!("docs/FORMAT.md lost its {end} marker"));
    doc[at + begin.len()..at + stop]
        .lines()
        .map(str::trim)
        .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_hexdigit()))
        .map(|l| l.split("  ").next().unwrap_or(""))
        .collect::<String>()
        .chars()
        .filter(char::is_ascii_hexdigit)
        .collect::<String>()
        .to_lowercase()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `docs/FORMAT.md`'s worked-example record must be byte-for-byte what
/// this build writes. Any change to the serializer fails here until the
/// spec is updated in the same commit (and versioned, if incompatible).
#[test]
fn format_md_golden_record_matches_implementation() {
    let (key, origin, benefit, data) = golden_fixture();
    let encoded = encode_record(key, origin, benefit, &data);
    let want = to_hex(&encoded);
    let doc = format_md();
    assert_eq!(
        golden_hex(&doc, "RECORD"),
        want,
        "docs/FORMAT.md record fixture drifted from the implementation;\n\
         the bytes this build writes are:\n{want}"
    );
    // The prose must pin the constants the fixture depends on.
    for needle in ["`ACSP`", "`ACSI`", "FNV-1a", "little-endian"] {
        assert!(doc.contains(needle), "docs/FORMAT.md lost {needle}");
    }
}

/// And for the worked example whose values are whole numbers, which a
/// record holds at `u16`.
#[test]
fn format_md_golden_whole_number_record_matches_implementation() {
    let (key, origin, benefit, fractional) = golden_fixture();
    let mut data = ChunkData::new(2);
    for ((coords, _), v) in fractional.iter().zip([3.0, 65_535.0, 0.0]) {
        data.push(coords, v);
    }
    let want = to_hex(&encode_record(key, origin, benefit, &data));
    assert_eq!(
        golden_hex(&format_md(), "WHOLE_RECORD"),
        want,
        "docs/FORMAT.md whole-number record fixture drifted from the implementation;\n\
         the bytes this build writes are:\n{want}"
    );
}

/// And for the worked example whose chunk holds a column once, at `u32`,
/// beside a `u16` coordinate block.
#[test]
fn format_md_golden_constant_record_matches_implementation() {
    let (key, origin, benefit, fractional) = golden_fixture();
    let mut data = ChunkData::new(2);
    for ((coords, _), v) in fractional.iter().zip([3.0, 65_535.0, 0.0]) {
        data.push(&[coords.get(0), 70_000], v);
    }
    assert_eq!(data.stride(), 1, "the second column is held once");
    let want = to_hex(&encode_record(key, origin, benefit, &data));
    assert_eq!(
        golden_hex(&format_md(), "CONSTANT_RECORD"),
        want,
        "docs/FORMAT.md constant-column record fixture drifted from the implementation;\n\
         the bytes this build writes are:\n{want}"
    );
}

/// Same for the index file: a store checkpointed with exactly the worked
/// example produces the spec's `spill.idx` bytes, and its one segment
/// holds exactly the worked-example record.
#[test]
fn format_md_golden_index_matches_implementation() {
    let (key, origin, benefit, data) = golden_fixture();
    let dir = tmpdir("golden-idx");
    let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
    store
        .checkpoint([(key, origin, benefit, &data)].into_iter())
        .unwrap();
    let bytes = std::fs::read(dir.join("spill.idx")).unwrap();
    let segment = std::fs::read(dir.join("00000000.seg")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let want = to_hex(&bytes);
    let doc = format_md();
    assert_eq!(
        golden_hex(&doc, "INDEX"),
        want,
        "docs/FORMAT.md index fixture drifted from the implementation;\n\
         the bytes this build writes are:\n{want}"
    );
    assert_eq!(golden_hex(&doc, "RECORD"), to_hex(&segment));
}

/// And for the tombstone a discard appends: after the worked-example
/// record, the segment holds exactly the spec's tombstone bytes.
#[test]
fn format_md_golden_tombstone_matches_implementation() {
    let (key, origin, benefit, data) = golden_fixture();
    let dir = tmpdir("golden-tomb");
    let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
    store.write(key, origin, benefit, &data).unwrap();
    assert_eq!(store.discard(|_| true), [key]);
    let segment = std::fs::read(dir.join("00000000.seg")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let record = encode_record(key, origin, benefit, &data).len();
    let want = to_hex(&segment[record..]);
    assert_eq!(
        golden_hex(&format_md(), "TOMBSTONE"),
        want,
        "docs/FORMAT.md tombstone fixture drifted from the implementation;\n\
         the bytes this build writes are:\n{want}"
    );
}

/// `spill.idx` bytes laid out per `docs/FORMAT.md`, with a valid
/// checksum: each entry is `(key, segment, offset, bytes)`, resident, and
/// priced as the worked example's record.
fn index_bytes(entries: &[(ChunkKey, u32, u64, u32)]) -> Vec<u8> {
    let priced = priced_len(2, 3) as u32;
    let mut out = b"ACSI".to_vec();
    out.extend_from_slice(&SPILL_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(key, segment, offset, bytes) in entries {
        out.extend_from_slice(&key.pack().to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&segment.to_le_bytes());
        out.extend_from_slice(&bytes.to_le_bytes());
        out.extend_from_slice(&priced.to_le_bytes());
        out.extend_from_slice(&[1, 0, 0, 0]);
    }
    let checksum = spill_checksum(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Index entries that carry a valid checksum but name no record — past
/// their segment's end, in a missing segment, `u32::MAX` bytes long —
/// read as corruption and are quarantined; the length is checked against
/// the segment before anything is allocated. Opening never panics, even
/// over an index claiming `u32::MAX` entries.
#[test]
fn hostile_index_entries_read_as_corruption() {
    let dir = tmpdir("hostile");
    let (key, origin, benefit, data) = golden_fixture();
    let len = {
        let mut store = SpillStore::open(SpillConfig::new(&dir)).unwrap();
        store
            .write(key, origin, benefit, &data)
            .unwrap()
            .bytes_written as u32
    };
    assert_eq!(
        len as usize,
        encode_record(key, origin, benefit, &data).len()
    );
    // The shortest record there is: a tombstone's header, prefixes, checksum.
    let least = SPILL_HEADER_BYTES as u32 + 16;
    let at = |chunk| ChunkKey::new(GroupById(3), chunk);
    let hostile = [
        (at(1), 0, 1, len),                // one byte past the segment's end
        (at(2), 0, u64::from(len), least), // wholly past it
        (at(3), 7, 0, len),                // segment 7 does not exist
        (at(4), 0, 0, u32::MAX),           // 4 GiB from a one-record segment
        (at(5), 0, u64::MAX, least),       // offset + bytes overflows
    ];
    let mut entries = vec![(key, 0, 0, len)];
    entries.extend(hostile);
    std::fs::write(dir.join("spill.idx"), index_bytes(&entries)).unwrap();
    let (mut store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
    assert_eq!(opened, SpillMetrics::default(), "the index itself is valid");
    assert_eq!(store.resident_count(), entries.len());
    for (hostile_key, ..) in hostile {
        let mut delta = SpillMetrics::default();
        let err = store
            .read_checked(hostile_key, None, &mut delta)
            .unwrap_err();
        assert!(err.is_corruption(), "{hostile_key:?}: {err}");
        assert_eq!((delta.spill_corrupt, delta.spill_quarantined), (1, 1));
    }
    assert_eq!(store.keys(), [key], "every hostile entry was quarantined");
    assert!(
        store.read(key).unwrap().is_some(),
        "the honest entry still reads"
    );
    drop(store);

    // An index claiming u32::MAX entries is refused, not allocated for.
    let mut lying = index_bytes(&entries);
    lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let body = lying.len() - 8;
    let checksum = spill_checksum(&lying[..body]);
    lying[body..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(dir.join("spill.idx"), lying).unwrap();
    let (store, opened) = SpillStore::open_metered(SpillConfig::new(&dir)).unwrap();
    assert_eq!(opened.index_rebuilds, 1);
    assert_eq!(store.keys(), [key]);
    let _ = std::fs::remove_dir_all(&dir);
}
