//! Regression corpus for the seeded attack-program generator
//! (`bastion_attacks::generate`): ≥10 shrunk adversarial MiniC programs,
//! one per deny-rule family, checked in under `crates/attacks/corpus/`.
//! Each must (a) be stopped by the protected pipeline on exactly its
//! labeled rule, (b) never flip to Allow, and (c) really land its
//! malicious effect when run unprotected — so a monitor regression *and*
//! a generator regression both fail loudly, without proptest in the loop.

use bastion_attacks::generate;
use bastion_monitor::ContextConfig;

#[test]
fn corpus_spans_at_least_ten_families() {
    let corpus = generate::corpus();
    assert!(
        corpus.len() >= 10,
        "corpus shrank to {} programs",
        corpus.len()
    );
    let mut expects: Vec<&str> = corpus.iter().map(|(_, e, _)| *e).collect();
    expects.sort_unstable();
    expects.dedup();
    assert_eq!(
        expects.len(),
        corpus.len(),
        "corpus families must exercise pairwise-distinct deny rules"
    );
}

#[test]
fn corpus_programs_are_denied_on_their_labeled_family() {
    for (family, expect, source) in generate::corpus() {
        let protected = generate::run_protected(source);
        assert!(
            !protected.flipped_to_allow(),
            "{family}: FLIPPED TO ALLOW (verdict {:?})",
            protected.verdict
        );
        assert!(
            protected.verdict.stopped(),
            "{family}: not stopped: {:?}",
            protected.verdict
        );
        assert_eq!(
            protected.verdict.key(),
            expect,
            "{family}: stopped off-family"
        );
    }
}

#[test]
fn corpus_programs_really_attack_when_unprotected() {
    for (family, _, source) in generate::corpus() {
        let unprotected = generate::ground_truth(source);
        assert!(
            unprotected.effect,
            "{family}: no malicious effect without the monitor (verdict {:?})",
            unprotected.verdict
        );
    }
}

/// Helpers of the return-into-a-stub programs below: `probe(1)` is the
/// caller's frame pointer, `head(0)` the frame head of any frame the
/// caller creates.
const ROP_HEAD: &str = "
long probe(long i) { return (&i)[i]; }
long head(long i) { return &(&i)[1]; }
";

/// `attack` returns into the `mprotect` stub, which is address-taken but
/// never called (indirect-only), so the stub traps on `mid`'s frame,
/// which a direct call created.
const SOURCE_MID: &str = "
long attack(long mode) {
    long *q; fnptr e;
    e = mprotect; q = probe(1); q[1] = e;
    return mode;
}
long mid(long mode) { long r; r = attack(mode); return r; }
long main() { long acc; acc = mid(7); return acc; }
";

/// The same return without `mid`: the stub traps on `main`'s frame,
/// whose return address is the null sentinel.
const SOURCE_MAIN: &str = "
long attack(long mode) {
    long *q; fnptr e;
    e = mprotect; q = probe(1); q[1] = e;
    return mode;
}
long main() { long acc; acc = attack(7); return acc; }
";

/// The return also restores the frame pointer of the stub frame that
/// `attack`'s own `chmod` call left behind, so the stub traps on a frame
/// created by a `chmod` site.
const SOURCE_STALE: &str = "
long attack(long mode) {
    long *q; long f; long r; fnptr e;
    e = mprotect; q = probe(1); f = head(0);
    r = chmod(\"/tmp/x\", mode);
    q[0] = f; q[1] = e;
    return r;
}
long main() { long acc; acc = attack(420); return acc; }
";

/// Returns into a stub reach rules that no fixed harness fires: the
/// Call-Type context denies the direct callsite below an indirect-only
/// stub, and under Argument Integrity alone (Table 6's AI-only
/// configuration) the stub frame has no callsite or one that belongs to
/// another syscall.
#[test]
fn returns_into_an_uncalled_stub_are_denied() {
    let full = ContextConfig::full();
    let ai_only = ContextConfig {
        call_type: false,
        control_flow: false,
        ..full.with_prefilter(false)
    };
    for (body, cfg, want) in [
        (SOURCE_MID, full, "CT:not_directly_callable"),
        (SOURCE_STALE, full, "CT:not_directly_callable"),
        (SOURCE_MAIN, ai_only, "AI:no_syscall_callsite"),
        (SOURCE_STALE, ai_only, "AI:sysno_mismatch"),
    ] {
        let source = format!("{ROP_HEAD}{body}");
        let got = generate::run_source(&source, Some(cfg)).verdict.key();
        assert_eq!(got, want, "{body}");
    }
}
