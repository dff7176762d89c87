//! Holds every paper block in EXPERIMENTS.md to the program's output.
//!
//! For each `bastion::paper::Artifact`, EXPERIMENTS.md carries the line
//! `` `cargo run --release -p bastion-cli -- paper <name>` `` and, after
//! it in the same section, a fenced block with the text that command
//! prints. Every artifact is deterministic virtual time, so the block must
//! equal `paper::render`'s text byte for byte. Table 1, Table 5, Table 6
//! and the deny-rule table run in every debug `cargo test`; the benchmark
//! grids take seconds each in a debug build, so they are ignored there
//! and CI runs them in release:
//! `cargo test --release --test paper_artifacts -- --include-ignored`.

use bastion::paper::{render, Artifact};

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The fenced block that follows `artifact`'s command line in
/// EXPERIMENTS.md, each line ending in `\n`. Panics when the command line
/// is missing, or when its section ends before a block opens.
fn recorded_block(artifact: Artifact) -> String {
    let command = format!(
        "`cargo run --release -p bastion-cli -- paper {}`",
        artifact.name()
    );
    let mut lines = EXPERIMENTS.lines();
    assert!(
        lines.by_ref().any(|l| l.trim() == command),
        "EXPERIMENTS.md has no line {command}"
    );
    for line in lines.by_ref() {
        assert!(
            !line.starts_with("## "),
            "no fenced block follows {command} in its section"
        );
        if line.starts_with("```") {
            break;
        }
    }
    let mut block = String::new();
    for line in lines {
        if line.starts_with("```") {
            return block;
        }
        block.push_str(line);
        block.push('\n');
    }
    panic!("the block after {command} is never closed");
}

/// Asserts that `artifact`'s recorded block equals its rendered text, and
/// names the first line that differs.
fn check(artifact: Artifact) {
    let recorded = recorded_block(artifact);
    let (rendered, _) = render(artifact);
    if recorded == rendered {
        return;
    }
    let (rec, ren): (Vec<&str>, Vec<&str>) =
        (recorded.lines().collect(), rendered.lines().collect());
    let at = rec
        .iter()
        .zip(&ren)
        .position(|(a, b)| a != b)
        .unwrap_or(rec.len().min(ren.len()));
    panic!(
        "EXPERIMENTS.md's `paper {name}` block differs from `bastion paper {name}` \
         at line {line} of the block:\n  recorded: {:?}\n  rendered: {:?}\n\
         --- rendered ---\n{rendered}",
        rec.get(at),
        ren.get(at),
        name = artifact.name(),
        line = at + 1,
    );
}

/// Every artifact has its command line and a block, checked without
/// rendering so a missing block fails even where the render is ignored.
#[test]
fn every_artifact_has_a_recorded_block() {
    for artifact in Artifact::ALL {
        assert!(!recorded_block(artifact).is_empty(), "{}", artifact.name());
    }
}

#[test]
fn table1_matches_experiments_md() {
    check(Artifact::Table1);
}

#[test]
#[ignore = "release budget; CI runs --release -- --include-ignored"]
fn fig3_matches_experiments_md() {
    check(Artifact::Fig3);
}

#[test]
#[ignore = "release budget; CI runs --release -- --include-ignored"]
fn table4_matches_experiments_md() {
    check(Artifact::Table4);
}

#[test]
fn table5_matches_experiments_md() {
    check(Artifact::Table5);
}

/// Also the Table 6 acceptance check: the block shows `match yes` on every
/// row and `32/32 rows match the paper's matrix`.
#[test]
fn table6_matches_experiments_md() {
    check(Artifact::Table6);
}

#[test]
#[ignore = "release budget; CI runs --release -- --include-ignored"]
fn table7_matches_experiments_md() {
    check(Artifact::Table7);
}

#[test]
#[ignore = "release budget; CI runs --release -- --include-ignored"]
fn ablations_matches_experiments_md() {
    check(Artifact::Ablations);
}

/// Also the deny-rule acceptance check: every rule is a row, and each
/// row is fired, reached by a named test or a substrate defence.
#[test]
fn deny_rules_matches_experiments_md() {
    check(Artifact::DenyRules);
}
