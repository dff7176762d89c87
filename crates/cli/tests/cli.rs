//! End-to-end tests of the `bastion` command-line binary.

use std::process::Command;

fn bastion() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bastion"))
}

/// Writes the demo program to a file of its own: tests run in parallel, and
/// rewriting one shared file truncates it under a concurrent reader.
fn write_demo() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("bastion-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("demo-{n}.mc"));
    std::fs::write(
        &path,
        r#"
        long main() {
            long a = mmap(0, 4096, 3, 0x21, 0 - 1, 0);
            mprotect(a, 4096, 1);
            puts("demo ok\n");
            return 0;
        }
        "#,
    )
    .unwrap();
    path
}

#[test]
fn run_executes_protected_program() {
    let src = write_demo();
    let out = bastion()
        .args(["run", src.to_str().unwrap(), "--verbose"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("demo ok"));
    assert!(stdout.contains("exited with status 0"));
    assert!(stdout.contains("traps: 2"), "{stdout}");
}

#[test]
fn run_protect_modes() {
    let src = write_demo();
    for mode in ["full", "ct", "ct-cf", "hook", "none"] {
        let out = bastion()
            .args(["run", src.to_str().unwrap(), &format!("--protect={mode}")])
            .output()
            .unwrap();
        assert!(out.status.success(), "mode {mode}");
    }
    let out = bastion()
        .args(["run", src.to_str().unwrap(), "--protect=bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn compile_emits_stats_and_metadata() {
    let src = write_demo();
    let md = src.with_file_name("md.json");
    let out = bastion()
        .args([
            "compile",
            src.to_str().unwrap(),
            &format!("--metadata={}", md.to_str().unwrap()),
            "--stats",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // 2 app sites (mmap, mprotect) + libc system()'s fork and execve.
    assert!(stdout.contains("sensitive callsites: 4"), "{stdout}");
    let json = std::fs::read_to_string(&md).unwrap();
    let parsed = bastion::compiler::ContextMetadata::from_json(&json).unwrap();
    assert_eq!(parsed.syscall_sites.len(), 4);
}

#[test]
fn inspect_reports_call_types() {
    let src = write_demo();
    let out = bastion()
        .args(["inspect", src.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("mmap"));
    assert!(stdout.contains("DirectOnly"));
    assert!(stdout.contains("[sensitive]"));
}

#[test]
fn usage_on_no_args_and_unknown_command() {
    let out = bastion().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
    let out = bastion().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = bastion().arg("help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn compile_error_reporting() {
    let dir = std::env::temp_dir().join(format!("bastion-cli-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.mc");
    std::fs::write(&path, "long main() { return nope(); }").unwrap();
    let out = bastion()
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("bastion: compile error: "), "{stderr}");
    assert!(stderr.contains("nope"), "{stderr}");
}

/// `--no-prefilter` turns the tier-1 check program off for the run: no
/// trap is classified at tier 1, while the default run classifies them.
#[test]
fn no_prefilter_flag_disables_tier_one() {
    let src = write_demo();
    let prefilter_checks = |extra: &[&str]| -> u64 {
        let out = bastion()
            .args(["run", src.to_str().unwrap(), "--stats"])
            .args(extra)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with("prefilter:"))
            .and_then(|l| l.split_whitespace().find_map(|w| w.strip_prefix("checks=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no prefilter checks count in {stdout}"))
    };
    assert_eq!(prefilter_checks(&["--no-prefilter"]), 0);
    assert!(prefilter_checks(&[]) > 0);
}

/// `--cet` hardens the machine with the shadow stack: the unprotected demo
/// exits the same way, and the shadow-stack charge shows in its virtual
/// cycle count.
#[test]
fn cet_flag_charges_the_shadow_stack() {
    let src = write_demo();
    let run = |extra: &[&str]| -> (Option<i32>, u64) {
        let out = bastion()
            .args(["run", src.to_str().unwrap(), "--protect=none"])
            .args(extra)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let cycles = stdout
            .lines()
            .find_map(|l| {
                l.strip_prefix("[exited with status 0; ")?
                    .strip_suffix(" virtual cycles]")
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no clean exit with a cycle count in {stdout}"));
        (out.status.code(), cycles)
    };
    let (plain_code, plain_cycles) = run(&[]);
    let (cet_code, cet_cycles) = run(&["--cet"]);
    assert_eq!(cet_code, plain_code);
    assert!(
        cet_cycles > plain_cycles,
        "--cet {cet_cycles} vs plain {plain_cycles} cycles"
    );
}

/// `bastion paper <name>` prints exactly `paper::render`'s text, and takes one
/// known artifact name and nothing else.
#[test]
fn paper_prints_one_artifact_and_takes_no_flags() {
    use bastion::paper::{render, Artifact};
    let out = bastion().args(["paper", "table1"]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        render(Artifact::Table1).0
    );
    for args in [
        &["paper"][..],
        &["paper", "all"],
        &["paper", "table1", "--check"],
        &["paper", "table1", "table5"],
    ] {
        let out = bastion().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Every command names the flags it takes: an unknown flag, a mistyped
/// `--only` section, a switch given a value, a value flag given none, or a
/// stray argument fails before any work, with nothing on stdout.
#[test]
fn unknown_flags_and_values_are_rejected() {
    let src = write_demo();
    let src = src.to_str().unwrap();
    for (args, want) in [
        (
            &["fleet", "--only=tabel6", "--jobs=1"][..],
            "unknown --only section `tabel6`",
        ),
        (
            &["chaos", "--jobs=1", "--bogus"],
            "unknown flag `--bogus` for `bastion chaos`",
        ),
        (&["serve", "--help"], "unknown flag `--help`"),
        (
            &["run", src, "--protect", "ct"],
            "unknown flag `--protect` for `bastion run` (write --protect=VALUE)",
        ),
        (&["run", src, "--cet=1"], "unknown flag `--cet=1`"),
        (&["stats", src, "--verbose"], "unknown flag `--verbose`"),
        (
            &["inspect", src, "--ir"],
            "unknown flag `--ir` for `bastion inspect`",
        ),
        (&["top", "6"], "unexpected argument `6`"),
        (&["attack", "99"], "no attack scenario #99"),
    ] {
        let out = bastion().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // The flags each command names still run.
    let out = bastion()
        .args(["run", src, "--protect=ct", "--cet", "--no-prefilter"])
        .output()
        .unwrap();
    assert!(out.status.success());
}
