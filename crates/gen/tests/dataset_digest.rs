//! Pins every generated dataset bit for bit: a fold of each fact table's
//! runs, and the count of duplicate coordinates in the paper-scale one.
//!
//! The digest folds `h = (h ^ x) * 0x100000001b3` from
//! `0xcbf29ce484222325`. For each fact chunk in chunk order it folds the
//! run's length, then every coordinate as a `u64` (row-major, a column
//! the run holds once read into every cell), then every value's
//! bits. A change to the generator that moves any draw, any tuple's place
//! within its run or any value changes it, and with it every golden and
//! sweep number built on the data.

use aggcache_gen::{Apb1Config, Dataset, SyntheticSpec};
use std::collections::HashSet;
use std::sync::OnceLock;

fn digest(ds: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for c in 0..ds.grid.n_chunks(ds.fact_gb) {
        let run = ds.fact.chunk(c);
        fold(run.len() as u64);
        run.iter()
            .flat_map(|(coords, _)| coords.iter())
            .for_each(|x| fold(u64::from(x)));
        run.raw_values().iter().for_each(|v| fold(v.to_bits()));
    }
    h
}

/// Tuples whose coordinates repeat an earlier tuple's. Equal coordinates
/// share a chunk, so each run is counted on its own.
fn duplicate_coords(ds: &Dataset) -> u64 {
    (0..ds.grid.n_chunks(ds.fact_gb))
        .map(|c| {
            let run = ds.fact.chunk(c);
            let distinct: HashSet<Vec<u32>> =
                run.iter().map(|(coords, _)| coords.to_vec()).collect();
            (run.len() - distinct.len()) as u64
        })
        .sum()
}

/// The paper-scale dataset, built once for the tests that read it.
fn paper_scale() -> &'static Dataset {
    static DS: OnceLock<Dataset> = OnceLock::new();
    DS.get_or_init(|| Apb1Config::default().build())
}

#[test]
fn apb1_20k_digest() {
    let ds = Apb1Config {
        n_tuples: 20_000,
        ..Apb1Config::default()
    }
    .build();
    assert_eq!(ds.num_tuples(), 19_984);
    assert_eq!(digest(&ds), 0x7863_4222_ffc6_130e);
    assert_eq!(duplicate_coords(&ds), 0);
}

#[test]
fn apb1_small_digest() {
    let ds = Apb1Config::small().build();
    assert_eq!(ds.num_tuples(), 50_002);
    assert_eq!(digest(&ds), 0xd725_2a12_288f_f332);
    assert_eq!(duplicate_coords(&ds), 0);
}

#[test]
fn apb1_paper_scale_digest() {
    let ds = paper_scale();
    assert_eq!(ds.num_tuples(), 999_993);
    assert_eq!(digest(ds), 0x6219_2e4a_06dc_e0b7);
}

/// HistSale aggregates Scenario, so a chunk's base-level index range is
/// twice its value box and indices `i` and `i + box` name the same
/// coordinates: the generator draws distinct indices, not distinct cells.
#[test]
fn apb1_paper_scale_holds_134_duplicate_coordinates() {
    assert_eq!(duplicate_coords(paper_scale()), 134);
}

/// A base-level dataset whose chunks take both draws: the shuffle of a
/// chunk asked for at least half its cells, and the rejection draw of the
/// rest.
#[test]
fn synthetic_digest() {
    let ds = SyntheticSpec::new()
        .dim("a", vec![1, 4, 16], vec![1, 2, 4])
        .dim("b", vec![1, 3, 6], vec![1, 3, 3])
        .tuples(40)
        .density(0.5)
        .seed(7)
        .build();
    assert_eq!(ds.fact_gb, ds.grid.schema().lattice().base());
    let dense = |c| 2 * ds.fact.tuples_in(c) >= ds.grid.base_cells_under(ds.fact_gb, c);
    let chunks = 0..ds.grid.n_chunks(ds.fact_gb);
    assert!(chunks.clone().any(dense) && !chunks.clone().all(dense));
    assert_eq!(ds.num_tuples(), 40);
    assert_eq!(digest(&ds), 0xca77_b97f_8941_356d);
    assert_eq!(duplicate_coords(&ds), 0);
}
