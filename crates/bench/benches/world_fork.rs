//! Host cost of forking a world from a snapshot of a parked victim, the
//! way every warm chaos cell starts: a restore and its drop (a restore
//! shares every process with the snapshot, so this is the per-cell fork
//! overhead), and a restore followed by the first write to one process,
//! which copies that process alone.

use bastion::attacks::{AttackEnv, Victim};
use bastion::kernel::{Pid, World, WorldSnapshot};
use bastion::monitor::ContextConfig;
use criterion::{criterion_group, criterion_main, Criterion};

/// `victim` booted under the full monitor and parked on a connection of
/// ours, snapshotted; with the parked worker's pid.
fn parked(victim: Victim) -> (WorldSnapshot, Pid) {
    let mut env = AttackEnv::deploy(victim, Some(ContextConfig::full()), false, false);
    let parked = env.park();
    (env.world.snapshot(), parked.pid)
}

fn bench_world_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_fork");
    for (name, victim) in [("webserve", Victim::Webserve), ("dbkv", Victim::Dbkv)] {
        let (snap, pid) = parked(victim);
        group.bench_function(format!("restore_drop_{name}_parked"), |b| {
            b.iter(|| World::restore(&snap));
        });
        group.bench_function(format!("restore_first_write_{name}_parked"), |b| {
            b.iter(|| {
                let mut world = World::restore(&snap);
                let p = world.proc_mut(pid).expect("the parked worker");
                let sp = p.machine.sp;
                p.machine.mem.write_unchecked(sp, &[1]);
                world
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_world_fork);
criterion_main!(benches);
