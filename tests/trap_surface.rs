//! Golden trap surface: what the kernel's trap path writes for each kind
//! of trap, pinned as inline text.
//!
//! Three two-tier runs of one small MiniC program (one `mmap`, then a
//! loop of `mprotect`s) together reach every outcome a trap can have:
//!
//! * [`CLEAN`] — no fault schedule: every trap is a tier-1 allow at
//!   seccomp-classify time;
//! * [`BURST`] — an *empty* fault schedule, which makes every prefiltered
//!   trap escalate with `FaultsInstalled` (code 1) to a tier-2 allow; the
//!   escalation-burst trigger captures a flight dump at the 16th trap and,
//!   after its 16-trap cooldown, another at the 32nd;
//! * [`DENY`] — a read fault on every monitor access of the third trap,
//!   which exhausts the monitor's retries: a strike moves it down one
//!   ladder rung (a ladder-rung dump) and the trap is denied fail-closed
//!   (a deny record whose dump ends in the `PENDING` entry).
//!
//! Each run pins the flight ring, the triggered flight dumps, the deny
//! records' dumps, and the count and sum of the `trap.verify_cycles`,
//! `trap.tier1_cycles` and `trap.tier2_cycles` sketches. `CLEAN` and
//! `DENY`, whose traps cover tier-1 allows, escalated tier-2 allows and a
//! deny, also pin the Chrome trace (one event per line, host wall-clock
//! stamps zeroed). Every figure is virtual, so the text is the same on
//! every host and build profile. A change to the trap path that moves any
//! of it on purpose replaces the expected text with the rendering the
//! failure prints.

use bastion::kernel::{FaultKind, FaultSchedule, Trigger};
use bastion::monitor::{ContextConfig, Monitor, Resilience};
use bastion::obs::{self, FlightEntry, TelemetryGuard};
use bastion::{Deployment, Protection};
use std::fmt::Write as _;

/// One `mmap`, then `mprotect`s in a loop of `n`: `n + 1` traps.
fn program(n: u32) -> String {
    format!(
        r"
        long main() {{
            long a;
            long i;
            a = mmap(0, 8192, 3, 0x21, 0 - 1, 0);
            i = 0;
            while (i < {n}) {{
                a = a + 0 * mprotect(a, 4096, 3);
                i = i + 1;
            }}
            return a > 0;
        }}
    "
    )
}

fn entry(e: &FlightEntry) -> String {
    format!(
        "trap={} nr={} tier={} verdict={} esc={} vcycles={} flow={:#x}",
        e.trap, e.sysno, e.tier, e.verdict, e.esc, e.vcycles, e.flow
    )
}

/// Runs `program(loops)` under `protection` with `schedule` installed (if
/// any) and renders everything the trap path wrote; the Chrome trace only
/// when `chrome` is set.
fn surface(
    loops: u32,
    protection: Protection,
    schedule: Option<FaultSchedule>,
    chrome: bool,
) -> String {
    let d = Deployment::from_minic("trap-surface", &[&program(loops)]).expect("compiles");
    let mut world = d.world();
    d.launch(&mut world, &protection);
    if let Some(s) = schedule {
        world.install_faults(s);
    }
    let guard = TelemetryGuard::enable(1 << 14);
    world.run(10_000_000);
    let (mut events, registry) = guard.finish();

    let mut s = String::new();
    let _ = writeln!(
        s,
        "traps={} flight_total={}",
        world.trap_count,
        world.flight_total()
    );
    s.push_str("flight ring:\n");
    for e in world.flight_dump() {
        let _ = writeln!(s, "  {}", entry(&e));
    }
    for dump in world.flight_dumps() {
        let _ = writeln!(s, "dump {} at trap {}:", dump.trigger.label(), dump.trap);
        for e in &dump.entries {
            let _ = writeln!(s, "  {}", entry(e));
        }
    }
    for name in [
        "trap.verify_cycles",
        "trap.tier1_cycles",
        "trap.tier2_cycles",
    ] {
        let _ = match registry.sketch(name) {
            Some(k) => writeln!(s, "sketch {name}: count={} sum={}", k.count(), k.sum()),
            None => writeln!(s, "sketch {name}: none"),
        };
    }
    let tracer = world.take_tracer().expect("monitor attached");
    let monitor = tracer
        .as_any()
        .downcast_ref::<Monitor>()
        .expect("the BASTION monitor");
    for d in &monitor.deny_log {
        let _ = writeln!(s, "deny at trap {}:", d.trap_seq);
        for e in &d.flight {
            let _ = writeln!(s, "  {}", entry(e));
        }
    }
    if !chrome {
        return s;
    }
    for ev in &mut events {
        ev.wall_ns = 0;
    }
    s.push_str("chrome trace:\n");
    let trace = obs::chrome_trace_json(&events);
    for line in trace.replace("},{\"name\"", "}\n{\"name\"").lines() {
        let _ = writeln!(s, "  {line}");
    }
    s
}

fn clean() -> String {
    surface(3, Protection::full(), None, true)
}

fn burst() -> String {
    surface(
        40,
        Protection::full(),
        Some(FaultSchedule::new(0x7A9_0001)),
        false,
    )
}

fn deny() -> String {
    let mut protection = Protection::full();
    protection.monitor = Some(ContextConfig::full().with_resilience(Resilience {
        degrade_after: 1,
        fail_closed_after: 100,
        ..Resilience::default()
    }));
    let schedule = FaultSchedule::new(0x7A9_0002)
        .with(FaultKind::ReadError, Trigger::TrapRange { from: 3, to: 4 });
    surface(3, protection, Some(schedule), true)
}

/// Compares line by line and names the first differing line; prints the
/// whole rendering so an intended change can replace the expected text.
fn assert_surface(name: &str, got: &str, want: &str) {
    let want = want.strip_prefix('\n').unwrap_or(want);
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: trap surface differs at line {}:\n  got:  {:?}\n  want: {:?}\nfull rendering:\n{got}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line),
    );
}

#[test]
fn tier1_allows_write_their_surface() {
    assert_surface("clean", &clean(), CLEAN);
}

#[test]
fn escalated_tier2_allows_and_the_burst_dump_write_their_surface() {
    assert_surface("burst", &burst(), BURST);
}

#[test]
fn a_fail_closed_deny_writes_its_surface() {
    assert_surface("deny", &deny(), DENY);
}

const CLEAN: &str = r#"
traps=4 flight_total=4
flight ring:
  trap=1 nr=9 tier=1 verdict=0 esc=255 vcycles=72 flow=0x1
  trap=2 nr=10 tier=1 verdict=0 esc=255 vcycles=88 flow=0x2
  trap=3 nr=10 tier=1 verdict=0 esc=255 vcycles=88 flow=0x2
  trap=4 nr=10 tier=1 verdict=0 esc=255 vcycles=88 flow=0x2
sketch trap.verify_cycles: count=4 sum=336
sketch trap.tier1_cycles: count=4 sum=336
sketch trap.tier2_cycles: none
chrome trace:
  {"traceEvents":[{"name":"trap","cat":"kernel","ph":"B","ts":2326,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":2326,"pid":1,"tid":1,"s":"t","args":{"trap":1,"arg":9,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":2326,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":2398,"pid":1,"tid":1,"args":{"trap":1,"arg":1,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":2398,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"B","ts":2398,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":2398,"pid":1,"tid":1,"s":"t","args":{"trap":2,"arg":10,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":2398,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":2486,"pid":1,"tid":1,"args":{"trap":2,"arg":1,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":2486,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"B","ts":2486,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":2486,"pid":1,"tid":1,"s":"t","args":{"trap":3,"arg":10,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":2486,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":2574,"pid":1,"tid":1,"args":{"trap":3,"arg":1,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":2574,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"B","ts":2574,"pid":1,"tid":1,"args":{"trap":4,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":2574,"pid":1,"tid":1,"s":"t","args":{"trap":4,"arg":10,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":2574,"pid":1,"tid":1,"args":{"trap":4,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":2662,"pid":1,"tid":1,"args":{"trap":4,"arg":1,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":2662,"pid":1,"tid":1,"args":{"trap":4,"arg":0,"wall_ns":0}}],"displayTimeUnit":"ms"}
"#;

const BURST: &str = r#"
traps=41 flight_total=41
flight ring:
  trap=26 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=27 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=28 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=29 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=30 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=31 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=32 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=33 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=34 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=35 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=36 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=37 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=38 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=39 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=40 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=41 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
dump escalation_burst at trap 16:
  trap=1 nr=9 tier=2 verdict=0 esc=1 vcycles=5340 flow=0x0
  trap=2 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=3 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=4 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=5 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=6 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=7 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=8 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=9 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=10 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=11 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=12 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=13 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=14 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=15 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=16 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
dump escalation_burst at trap 32:
  trap=17 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=18 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=19 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=20 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=21 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=22 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=23 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=24 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=25 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=26 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=27 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=28 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=29 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=30 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=31 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=32 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
sketch trap.verify_cycles: count=41 sum=238940
sketch trap.tier1_cycles: none
sketch trap.tier2_cycles: count=41 sum=238940
"#;

const DENY: &str = r#"
traps=3 flight_total=3
flight ring:
  trap=1 nr=9 tier=2 verdict=0 esc=1 vcycles=5340 flow=0x0
  trap=2 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=3 nr=10 tier=2 verdict=1 esc=1 vcycles=7240 flow=0x0
dump ladder_rung at trap 3:
  trap=1 nr=9 tier=2 verdict=0 esc=1 vcycles=5340 flow=0x0
  trap=2 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=3 nr=10 tier=2 verdict=1 esc=1 vcycles=7240 flow=0x0
sketch trap.verify_cycles: count=3 sum=18420
sketch trap.tier1_cycles: none
sketch trap.tier2_cycles: count=3 sum=18420
deny at trap 3:
  trap=1 nr=9 tier=2 verdict=0 esc=1 vcycles=5340 flow=0x0
  trap=2 nr=10 tier=2 verdict=0 esc=1 vcycles=5840 flow=0x0
  trap=3 nr=10 tier=2 verdict=2 esc=1 vcycles=0 flow=0x0
chrome trace:
  {"traceEvents":[{"name":"trap","cat":"kernel","ph":"B","ts":2326,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":2326,"pid":1,"tid":1,"s":"t","args":{"trap":1,"arg":9,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":2326,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":2366,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"prefilter_escalate","cat":"kernel","ph":"i","ts":2366,"pid":1,"tid":1,"s":"t","args":{"trap":1,"arg":1,"wall_ns":0}}
  {"name":"getregs","cat":"monitor","ph":"B","ts":5966,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"getregs","cat":"monitor","ph":"E","ts":6666,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"frame_read","cat":"monitor","ph":"B","ts":6666,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"frame_read","cat":"monitor","ph":"E","ts":7166,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"ct_check","cat":"monitor","ph":"B","ts":7166,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"ct_check","cat":"monitor","ph":"E","ts":7166,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"cf_walk","cat":"monitor","ph":"B","ts":7166,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"cf_walk","cat":"monitor","ph":"E","ts":7666,"pid":1,"tid":1,"args":{"trap":1,"arg":2,"wall_ns":0}}
  {"name":"ai_direct","cat":"monitor","ph":"B","ts":7666,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"ai_direct","cat":"monitor","ph":"E","ts":7666,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":7666,"pid":1,"tid":1,"args":{"trap":1,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"B","ts":7666,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":7666,"pid":1,"tid":1,"s":"t","args":{"trap":2,"arg":10,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":7666,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":7706,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"prefilter_escalate","cat":"kernel","ph":"i","ts":7706,"pid":1,"tid":1,"s":"t","args":{"trap":2,"arg":1,"wall_ns":0}}
  {"name":"getregs","cat":"monitor","ph":"B","ts":11306,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"getregs","cat":"monitor","ph":"E","ts":12006,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"frame_read","cat":"monitor","ph":"B","ts":12006,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"frame_read","cat":"monitor","ph":"E","ts":12506,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"ct_check","cat":"monitor","ph":"B","ts":12506,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"ct_check","cat":"monitor","ph":"E","ts":12506,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"cf_walk","cat":"monitor","ph":"B","ts":12506,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"cf_walk","cat":"monitor","ph":"E","ts":13006,"pid":1,"tid":1,"args":{"trap":2,"arg":2,"wall_ns":0}}
  {"name":"ai_direct","cat":"monitor","ph":"B","ts":13006,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"ai_direct","cat":"monitor","ph":"E","ts":13506,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":13506,"pid":1,"tid":1,"args":{"trap":2,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"B","ts":13506,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"seccomp_classify","cat":"kernel","ph":"i","ts":13506,"pid":1,"tid":1,"s":"t","args":{"trap":3,"arg":10,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"B","ts":13506,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"prefilter_check","cat":"kernel","ph":"E","ts":13546,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"prefilter_escalate","cat":"kernel","ph":"i","ts":13546,"pid":1,"tid":1,"s":"t","args":{"trap":3,"arg":1,"wall_ns":0}}
  {"name":"getregs","cat":"monitor","ph":"B","ts":17146,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"retry","cat":"monitor","ph":"i","ts":17846,"pid":1,"tid":1,"s":"t","args":{"trap":3,"arg":1,"wall_ns":0}}
  {"name":"backoff","cat":"monitor","ph":"B","ts":17846,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"backoff","cat":"monitor","ph":"E","ts":18346,"pid":1,"tid":1,"args":{"trap":3,"arg":1,"wall_ns":0}}
  {"name":"retry","cat":"monitor","ph":"i","ts":19046,"pid":1,"tid":1,"s":"t","args":{"trap":3,"arg":2,"wall_ns":0}}
  {"name":"backoff","cat":"monitor","ph":"B","ts":19046,"pid":1,"tid":1,"args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"backoff","cat":"monitor","ph":"E","ts":20046,"pid":1,"tid":1,"args":{"trap":3,"arg":2,"wall_ns":0}}
  {"name":"getregs","cat":"monitor","ph":"E","ts":20746,"pid":1,"tid":1,"args":{"trap":3,"arg":1,"wall_ns":0}}
  {"name":"deny","cat":"monitor","ph":"i","ts":20746,"pid":1,"tid":1,"s":"t","args":{"trap":3,"arg":0,"wall_ns":0}}
  {"name":"trap","cat":"kernel","ph":"E","ts":20746,"pid":1,"tid":1,"args":{"trap":3,"arg":1,"wall_ns":0}}],"displayTimeUnit":"ms"}
"#;
