//! Every `cargo run … -p aggcache-bench --bin NAME -- FLAGS` line in a
//! fenced block of the docs names a binary that exists and that accepts
//! every flag shown (ROADMAP item 11, scoped to this crate).
//!
//! Nothing is run: each binary gets the documented flags plus a sentinel
//! flag no binary reads, and must exit 2 naming only the sentinel. A
//! binary refuses the smallest unknown key first, so a stale flag
//! (`--threads`) is what it would name instead. A binary that takes a
//! positional argument (`trace_check`) is checked for existence only.

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
