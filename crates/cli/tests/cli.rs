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
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope"));
}
