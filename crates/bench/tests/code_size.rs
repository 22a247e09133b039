//! The size of the workspace's non-test source: every
//! `crates/*/src/**/*.rs` up to its first `#[cfg(test)]` line, split into
//! code, comment and blank lines, plus the `pub` declarations among them.
//! EXPERIMENTS.md's size appendix quotes its output:
//!
//! ```text
//! cargo test -p aggcache-bench --test code_size -- --nocapture
//! ```

use std::fs;
use std::path::{Path, PathBuf};

/// What one file, or a sum of files, holds before its first `#[cfg(test)]`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Size {
    files: usize,
    /// Every line before the cut.
    lines: usize,
    /// Lines that start with `//`: doc and plain comments.
    comment: usize,
    /// Empty or whitespace-only lines.
    blank: usize,
    /// Lines that start with `pub ` (not `pub(`): public declarations.
    public: usize,
}

impl Size {
    fn of(source: &str) -> Self {
        let mut size = Size {
            files: 1,
            ..Size::default()
        };
        for line in source.lines() {
            let line = line.trim();
            if line == "#[cfg(test)]" {
                break;
            }
            size.lines += 1;
            size.comment += usize::from(line.starts_with("//"));
            size.blank += usize::from(line.is_empty());
            size.public += usize::from(line.starts_with("pub "));
        }
        size
    }

    fn code(&self) -> usize {
        self.lines - self.comment - self.blank
    }

    fn add(self, other: Size) -> Size {
        Size {
            files: self.files + other.files,
            lines: self.lines + other.lines,
            comment: self.comment + other.comment,
            blank: self.blank + other.blank,
            public: self.public + other.public,
        }
    }
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .collect();
    entries.sort();
    entries
        .into_iter()
        .flat_map(|path| {
            if path.is_dir() {
                rust_files(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                vec![path]
            } else {
                Vec::new()
            }
        })
        .collect()
}

#[test]
fn the_cut_is_the_first_cfg_test_line() {
    let source = "\
//! A module.

pub struct A;
pub(crate) fn b() {}
    pub fn c() {}
    #[cfg(test)]
pub fn not_counted() {}
#[cfg(test)]
mod tests {}
";
    let size = Size::of(source);
    assert_eq!(
        size,
        Size {
            files: 1,
            lines: 5,
            comment: 1,
            blank: 1,
            public: 2,
        }
    );
    assert_eq!(size.code(), 3);
    assert_eq!(Size::of("pub fn f() {}").lines, 1, "no cut: the whole file");
}

#[test]
fn prints_the_non_test_size_of_every_crate() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut names: Vec<PathBuf> = fs::read_dir(&crates)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.join("src").is_dir())
        .collect();
    names.sort();
    println!(
        "{:<10} {:>5} {:>6} {:>6} {:>7} {:>5} {:>5}",
        "crate", "files", "lines", "code", "comment", "blank", "pub"
    );
    let row = |name: &str, s: Size| {
        println!(
            "{name:<10} {:>5} {:>6} {:>6} {:>7} {:>5} {:>5}",
            s.files,
            s.lines,
            s.code(),
            s.comment,
            s.blank,
            s.public
        );
    };
    let mut total = Size::default();
    for dir in &names {
        let size = rust_files(&dir.join("src"))
            .iter()
            .map(|path| Size::of(&fs::read_to_string(path).unwrap()))
            .fold(Size::default(), Size::add);
        row(&dir.file_name().unwrap().to_string_lossy(), size);
        total = total.add(size);
    }
    row("total", total);
    assert!(total.files > 0 && total.public <= total.code());
}
