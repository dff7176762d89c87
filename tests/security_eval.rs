//! Table 6 integration: representative attacks from each section, each
//! with its failure details. The full 32-attack matrix is
//! `bastion paper table6`, and `tests/paper_artifacts.rs` holds its
//! output, every row `match yes`, to the Table 6 block in EXPERIMENTS.md.

use bastion::attacks::{catalog, evaluate};

fn check(id: u32) {
    let cat = catalog();
    let s = cat.iter().find(|s| s.id == id).expect("scenario exists");
    let r = evaluate(s);
    assert!(
        r.ground_truth,
        "#{id} {}: attack did not succeed unprotected\n{:#?}",
        s.name, r.details
    );
    assert!(
        r.full_blocked,
        "#{id} {}: full BASTION failed to block\n{:#?}",
        s.name, r.details
    );
    assert_eq!(
        r.observed, r.expected,
        "#{id} {}: context matrix diverged\n{:#?}",
        s.name, r.details
    );
}

#[test]
fn rop_ret2execve_matches_table6() {
    check(1);
}

#[test]
fn rop_memory_permission_matches_table6() {
    check(15);
}

#[test]
fn rop_root_shell_matches_table6() {
    check(14);
}

#[test]
fn newton_cscfi_matches_table6() {
    check(19);
}

#[test]
fn cve_2013_2028_matches_table6() {
    check(25);
}

#[test]
fn newton_cpi_matches_table6() {
    check(28);
}

#[test]
fn aocr_apache_matches_table6() {
    check(29);
}

#[test]
fn aocr_nginx2_data_only_matches_table6() {
    check(30);
}

#[test]
fn coop_matches_table6() {
    check(31);
}

#[test]
fn control_jujutsu_matches_table6() {
    check(32);
}
