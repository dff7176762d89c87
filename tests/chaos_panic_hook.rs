//! The chaos harness's panic hook (DESIGN.md §6d). Attack staging absorbs
//! harness-liveness panics silently; the hook that does so is installed
//! once and delegates, so concurrent workers cannot leave a silent hook
//! behind. The panic hook is process-global, so this test has a binary
//! of its own.

use bastion::chaos::absorb_liveness_panics;
use std::sync::atomic::{AtomicUsize, Ordering};

static SEEN: AtomicUsize = AtomicUsize::new(0);

#[test]
fn absorbed_panics_on_two_threads_keep_later_panics_visible() {
    std::panic::set_hook(Box::new(|_| {
        SEEN.fetch_add(1, Ordering::SeqCst);
    }));

    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..500 {
                    // The attack scripts' shape: `expect` on a dead victim.
                    let msg = absorb_liveness_panics(|| {
                        std::hint::black_box(None::<u32>).expect("victim pid");
                    });
                    assert_eq!(msg.as_deref(), Some("victim pid"));
                }
            });
        }
    });
    assert_eq!(
        SEEN.load(Ordering::SeqCst),
        0,
        "an absorbed liveness panic reached the hook"
    );

    // A genuine panic inside staging propagates and is reported.
    let staged = std::panic::catch_unwind(|| absorb_liveness_panics(|| panic!("monitor bug")));
    assert!(staged.is_err());
    assert_eq!(SEEN.load(Ordering::SeqCst), 1);

    // A later panic outside staging still reaches the counting hook.
    let later = std::panic::catch_unwind(|| panic!("victim pid"));
    assert!(later.is_err());
    assert_eq!(
        SEEN.load(Ordering::SeqCst),
        2,
        "a panic after chaos staging was swallowed"
    );
}
