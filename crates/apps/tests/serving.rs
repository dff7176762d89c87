//! End-to-end: each application boots in a world and serves its workload
//! through the corresponding load generator.

use bastion_apps::{loadgen, App};
use bastion_ir::sysno;
use bastion_kernel::World;
use bastion_vm::{CostModel, Image, Machine};
use std::sync::Arc;

fn boot(app: App) -> World {
    let module = app.module().unwrap();
    let image = Arc::new(Image::load(module).unwrap());
    let machine = Machine::new(image, CostModel::default());
    let mut world = World::new(CostModel::default());
    app.setup_vfs(&mut world);
    world.spawn(machine);
    // Let the server initialize (returns Idle once all workers block).
    world.run(200_000_000);
    world
}

#[test]
fn webserve_serves_pages() {
    let mut world = boot(App::Webserve);
    // Master + 32 workers alive.
    assert_eq!(world.alive_count(), 33);
    let stats = loadgen::http_load(&mut world, App::Webserve.port(), 8, 50);
    assert_eq!(stats.requests, 50);
    // Each response carries the full page plus headers.
    assert!(stats.bytes >= 50 * bastion_apps::webserve::PAGE_BYTES as u64);
    assert!(stats.cycles > 0);
    // Keep-alive: accept4 fires per connection, far below the request
    // count (Table 4's accept4 5,665 vs ~340k requests relationship).
    let accepts = world.kernel.count_of(sysno::ACCEPT4);
    assert!(accepts >= 33, "accepts {accepts}"); // 32 parked workers + live conns
    assert!(accepts < 33 + 50, "accepts {accepts}");
    // Init-phase sensitive syscalls fired: clone, mmap, mprotect, setuid.
    assert_eq!(world.kernel.count_of(sysno::CLONE), 32);
    assert!(world.kernel.count_of(sysno::MMAP) > 500);
    assert!(world.kernel.count_of(sysno::MPROTECT) > 300);
    assert_eq!(world.kernel.count_of(sysno::SETUID), 32);
    assert_eq!(world.kernel.count_of(sysno::SOCKET), 33);
}

#[test]
fn webserve_upgrade_path_reaches_execve() {
    let mut world = boot(App::Webserve);
    let c = world.net_connect(App::Webserve.port()).unwrap();
    world.net_send(c, b"GET /upgrade HTTP/1.0\r\n\r\n");
    world.run(50_000_000);
    assert_eq!(world.kernel.count_of(sysno::EXECVE), 1);
    assert_eq!(world.kernel.exec_log.len(), 1);
    assert!(world.kernel.exec_log[0].1.contains("webserve-new"));
}

#[test]
fn dbkv_commits_transactions() {
    let mut world = boot(App::Dbkv);
    assert_eq!(world.alive_count(), 9); // master + 8 workers
    let stats = loadgen::tpcc_load(&mut world, App::Dbkv.port(), 2, 400);
    assert_eq!(stats.transactions, 400);
    assert!(stats.notpm(2_000_000_000) > 0.0);
    // SQLite shape: mprotect-heavy relative to mmap.
    assert!(world.kernel.count_of(sysno::MPROTECT) > world.kernel.count_of(sysno::MMAP));
    // The WAL grew.
    let wal = world.kernel.vfs.file(bastion_apps::dbkv::WAL_PATH).unwrap();
    assert!(wal.data.starts_with(b"TX "));
    assert!(wal.data.iter().filter(|&&b| b == b'\n').count() >= 400);
}

#[test]
fn dbkv_serves_repeated_batches_on_one_world() {
    // `bastion top`'s pattern: back-to-back batches against one long-lived
    // world. Each batch must close its sessions, or the workers stay parked
    // reading the previous batch's connections and the next batch stalls.
    let mut world = boot(App::Dbkv);
    for batch in 0..4 {
        let stats = loadgen::tpcc_load(&mut world, App::Dbkv.port(), 4, 32);
        assert_eq!(stats.transactions, 32, "batch {batch}");
    }
}

#[test]
fn ftpd_streams_downloads() {
    let mut world = boot(App::Ftpd);
    let stats = loadgen::ftp_load(
        &mut world,
        App::Ftpd.port(),
        3,
        bastion_apps::ftpd::FILE_PATH,
    );
    assert_eq!(stats.files, 3);
    assert_eq!(stats.bytes, 3 * bastion_apps::ftpd::FILE_BYTES as u64);
    // Per-transfer passive sockets: socket/bind/listen/accept move together.
    assert_eq!(world.kernel.count_of(sysno::SOCKET), 1 + 3);
    assert_eq!(world.kernel.count_of(sysno::BIND), 1 + 3);
    assert_eq!(world.kernel.count_of(sysno::LISTEN), 1 + 3);
    // 3 control + 3 data accepts, plus the final accept parked waiting for
    // a fourth session (invocations are counted at entry, like strace).
    assert_eq!(world.kernel.count_of(sysno::ACCEPT), 3 + 3 + 1);
    // Per-session privilege drops.
    assert_eq!(world.kernel.count_of(sysno::SETUID), 3);
    let secs = stats.seconds_for(100_000_000, 2_000_000_000);
    assert!(secs.is_finite() && secs > 0.0);
}

/// Runs the world until `conn` has delivered a line starting with `code`.
fn await_line(world: &mut World, conn: bastion_kernel::ExtConnId, code: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    for _ in 0..1_000 {
        world.run(400_000);
        buf.extend(world.net_recv(conn));
        if let Some(line) = buf.split(|&b| b == b'\n').find(|l| l.starts_with(code)) {
            return line.to_vec();
        }
    }
    panic!("no `{}` reply", String::from_utf8_lossy(code));
}

#[test]
fn ftpd_retr_delivers_the_fixture_bytes() {
    use bastion_apps::ftpd;
    let mut world = boot(App::Ftpd);
    // Every world installs the one per-process fixture, not a copy of it.
    let installed = &world.kernel.vfs.file(ftpd::FILE_PATH).unwrap().data;
    assert!(Arc::ptr_eq(installed, &ftpd::payload()));

    let ctrl = world.net_connect(App::Ftpd.port()).unwrap();
    await_line(&mut world, ctrl, b"220");
    world.net_send(ctrl, b"USER bench\n");
    await_line(&mut world, ctrl, b"331");
    world.net_send(ctrl, b"PASS bench\n");
    await_line(&mut world, ctrl, b"230");
    world.net_send(ctrl, format!("RETR {}\n", ftpd::FILE_PATH).as_bytes());
    let pasv = await_line(&mut world, ctrl, b"227");
    let port: u16 = String::from_utf8_lossy(&pasv[4..]).trim().parse().unwrap();
    let data = world.net_connect(port).unwrap();
    await_line(&mut world, ctrl, b"226");
    let body = world.net_recv(data);
    // The client saw exactly the fixture's bytes, in order; a copy-free
    // path that handed out the wrong buffer would still match on length.
    assert_eq!(body.len(), ftpd::FILE_BYTES);
    assert!(
        body == *ftpd::payload(),
        "RETR body differs from the fixture"
    );
}
