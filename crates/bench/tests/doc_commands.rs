//! Every `cargo run … -p aggcache-bench --bin NAME -- FLAGS` line in a
//! fenced block of the docs names a binary that exists and that accepts
//! every flag shown, and every example the docs name is a file in
//! `examples/` (ROADMAP item 11).
//!
//! Nothing is run: each binary gets the documented flags plus a sentinel
//! flag no binary reads, and must exit 2 naming only the sentinel. A
//! binary refuses the smallest unknown key first, so a stale flag
//! (`--threads`) is what it would name instead. A binary that takes a
//! positional argument (`trace_check`) is checked for existence only.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The documents whose fenced commands are checked, from the repo root.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// A flag no binary reads, sorting after every flag any binary does.
const SENTINEL: &str = "--zz-doc-check";

/// Binaries whose arguments are positional, not `--key value`.
const POSITIONAL: [&str; 1] = ["trace_check"];

/// One documented command: where it is, the binary and its flags.
struct DocCommand {
    at: String,
    bin: String,
    flags: Vec<String>,
}

/// The `aggcache-bench` commands in `text`'s fenced blocks, `\`
/// continuations joined, `# comments` and anything after a shell operator
/// dropped.
fn commands(doc: &str, text: &str) -> Vec<DocCommand> {
    let mut out = Vec::new();
    let (mut fenced, mut line, mut start) = (false, String::new(), 0);
    for (i, raw) in text.lines().enumerate() {
        if raw.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            continue;
        }
        if line.is_empty() {
            start = i + 1;
        }
        if let Some(head) = raw.trim_end().strip_suffix('\\') {
            line.push_str(head);
            line.push(' ');
            continue;
        }
        line.push_str(raw);
        let joined = std::mem::take(&mut line);
        let tokens: Vec<&str> = joined
            .split_whitespace()
            .take_while(|t| !t.starts_with('#') && !["|", ">", "2>", "&&", ";"].contains(t))
            .collect();
        let is_bench = tokens.windows(2).any(|w| w == ["-p", "aggcache-bench"]);
        if !(tokens.starts_with(&["cargo", "run"]) && is_bench) {
            continue;
        }
        let at = format!("{doc}:{start}");
        let bin = tokens.iter().position(|&t| t == "--bin");
        let bin = bin
            .and_then(|b| tokens.get(b + 1))
            .unwrap_or_else(|| panic!("{at}: no --bin NAME"));
        let flags = match tokens.iter().position(|&t| t == "--") {
            Some(dashes) => tokens[dashes + 1..].iter().map(|t| t.to_string()).collect(),
            None => Vec::new(),
        };
        out.push(DocCommand {
            at,
            bin: bin.to_string(),
            flags,
        });
    }
    out
}

#[test]
fn documented_bench_commands_name_real_binaries_and_flags() {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Every binary of this package is built before its integration tests.
    let bin_dir = Path::new(env!("CARGO_BIN_EXE_table1")).parent().unwrap();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(package.join("../..").join(doc))
            .unwrap_or_else(|e| panic!("{doc}: {e}"));
        for cmd in commands(doc, &text) {
            let source = package.join(format!("src/bin/{}.rs", cmd.bin));
            assert!(source.exists(), "{}: no binary `{}`", cmd.at, cmd.bin);
            checked += 1;
            if POSITIONAL.contains(&cmd.bin.as_str()) {
                continue;
            }
            let exe = bin_dir.join(format!("{}{}", cmd.bin, std::env::consts::EXE_SUFFIX));
            let out = Command::new(&exe)
                .args(&cmd.flags)
                .arg(SENTINEL)
                .output()
                .unwrap_or_else(|e| panic!("{}: running {}: {e}", cmd.at, exe.display()));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.code() == Some(2)
                    && stderr.trim() == format!("error: unknown flag `{SENTINEL}`"),
                "{}: `{} {}` refused something other than the sentinel ({:?}): {stderr}",
                cmd.at,
                cmd.bin,
                cmd.flags.join(" "),
                out.status
            );
        }
    }
    // The docs show some thirty; a parser that finds none must not pass.
    assert!(checked >= 20, "only {checked} documented commands found");
}

#[test]
fn a_stale_flag_is_caught() {
    let text = "```bash\ncargo run --release -p aggcache-bench --bin fig7 -- \\\n  --tuples 20000 --threads 4  # stale\n```\n";
    let cmds = commands("x.md", text);
    assert_eq!(cmds.len(), 1);
    assert_eq!(
        (cmds[0].at.as_str(), cmds[0].bin.as_str()),
        ("x.md:2", "fig7")
    );
    assert_eq!(cmds[0].flags, ["--tuples", "20000", "--threads", "4"]);
    let out = Command::new(env!("CARGO_BIN_EXE_fig7"))
        .args(&cmds[0].flags)
        .arg(SENTINEL)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim(), "error: unknown flag `--threads`");
}

/// The names in README's examples table: the first, backticked column of
/// the table whose header is `| example | shows |`.
fn example_table(readme: &str) -> BTreeSet<String> {
    readme
        .lines()
        .skip_while(|l| !l.starts_with("| example |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.split('`').nth(1))
        .map(str::to_string)
        .collect()
}

/// Every mismatch between the docs and `files` (the stems of
/// `examples/*.rs`): a README table row or an `--example NAME` in any doc
/// with no file, or a file missing from the README table.
fn example_errors(docs: &[(&str, String)], files: &BTreeSet<String>) -> Vec<String> {
    let mut errors = Vec::new();
    for (doc, text) in docs {
        if *doc == "README.md" {
            let table = example_table(text);
            for name in files.difference(&table) {
                errors.push(format!("README.md: examples table lacks `{name}`"));
            }
            for name in table.difference(files) {
                errors.push(format!(
                    "README.md: examples table lists `{name}`, no such file"
                ));
            }
        }
        for (i, line) in text.lines().enumerate() {
            let mut rest = line;
            while let Some(at) = rest.find("--example ") {
                rest = &rest[at + "--example ".len()..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && !files.contains(&name) {
                    errors.push(format!("{doc}:{}: no example `{name}`", i + 1));
                }
            }
        }
    }
    errors
}

#[test]
fn documented_examples_are_the_example_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files: BTreeSet<String> = std::fs::read_dir(root.join("examples"))
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let rs = path.extension().is_some_and(|x| x == "rs");
            rs.then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    assert!(files.len() >= 4, "only {files:?} found");
    let docs: Vec<(&str, String)> = DOCS
        .iter()
        .map(|&doc| (doc, std::fs::read_to_string(root.join(doc)).unwrap()))
        .collect();
    let errors = example_errors(&docs, &files);
    assert!(errors.is_empty(), "{errors:#?}");
}

#[test]
fn a_stale_example_is_caught() {
    let files: BTreeSet<String> = ["quickstart".to_string()].into();
    let readme = "Runnable examples:\n\n| example | shows |\n|---|---|\n\
                  | `quickstart` | hello |\n| `materialized_optimizer` | gone |\n\n\
                  Run `cargo run --release --example <name>`.\n";
    let design = "```\ncargo run --release --example materialized_optimizer\n```\n";
    let docs = [
        ("README.md", readme.to_string()),
        ("DESIGN.md", design.to_string()),
    ];
    assert_eq!(
        example_errors(&docs, &files),
        [
            "README.md: examples table lists `materialized_optimizer`, no such file",
            "DESIGN.md:2: no example `materialized_optimizer`",
        ]
    );
}
