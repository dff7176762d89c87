//! Copy-on-write VFS file contents: worlds installed from one shared
//! fixture, and snapshots of them, share the bytes until a world writes,
//! truncates or `ftruncate`s its copy, and no such mutation is visible to
//! any other world.

use bastion_kernel::{RunStatus, World};
use bastion_minic::compile_program;
use bastion_vm::{CostModel, Image, Machine};
use std::sync::Arc;

const FILES: [&str; 3] = ["/srv/w", "/srv/t", "/srv/f"];

/// Overwrites bytes 100..103 of `/srv/w`, `O_TRUNC`s `/srv/t` and writes
/// three bytes to it, and `ftruncate`s `/srv/f` to 10 bytes.
const MUTATE: &str = r#"
long main() {
    long fd = open("/srv/w", 2, 0);
    if (lseek(fd, 100, 0) != 100) { return 1; }
    if (write(fd, "XYZ", 3) != 3) { return 2; }
    close(fd);
    fd = open("/srv/t", 0x201, 0);
    if (write(fd, "new", 3) != 3) { return 3; }
    close(fd);
    fd = open("/srv/f", 1, 0);
    if (ftruncate(fd, 10) != 0) { return 4; }
    close(fd);
    return 0;
}
"#;

/// Copies the first 256 bytes of each file to stdout, in `FILES` order.
const READ_BACK: &str = r#"
long dump(char *path) {
    char buf[256];
    long fd = open(path, 0, 0);
    long n = read(fd, buf, 256);
    write(1, buf, n);
    close(fd);
    return n;
}
long main() {
    dump("/srv/w");
    dump("/srv/t");
    dump("/srv/f");
    return 0;
}
"#;

fn make_fixture() -> Arc<Vec<u8>> {
    Arc::new((0..8192u32).map(|i| (i * 31 % 251) as u8).collect())
}

fn world_from(fixture: &Arc<Vec<u8>>) -> World {
    let mut world = World::new(CostModel::default());
    for path in FILES {
        world.kernel.vfs.put_file(path, Arc::clone(fixture), 0o644);
    }
    world
}

fn run_to_exit(world: &mut World, src: &str) {
    let module = compile_program("t", &[src]).unwrap();
    let image = Arc::new(Image::load(module).unwrap());
    world.spawn(Machine::new(image, CostModel::default()));
    assert_eq!(world.run(200_000_000), RunStatus::AllExited);
}

/// What `READ_BACK` prints: the console bytes after running it.
fn read_back(world: &mut World) -> Vec<u8> {
    world.kernel.console.clear();
    run_to_exit(world, READ_BACK);
    std::mem::take(&mut world.kernel.console)
}

fn shares(world: &World, path: &str, fixture: &Arc<Vec<u8>>) -> bool {
    Arc::ptr_eq(&world.kernel.vfs.file(path).unwrap().data, fixture)
}

#[test]
fn mutations_stay_private_to_the_writing_world() {
    let fixture = make_fixture();
    let mut a = world_from(&fixture);
    let mut b = world_from(&fixture);
    for path in FILES {
        assert!(
            shares(&a, path, &fixture) && shares(&b, path, &fixture),
            "{path}"
        );
    }
    let snap = a.snapshot();

    run_to_exit(&mut a, MUTATE);
    for path in FILES {
        assert!(
            !shares(&a, path, &fixture),
            "{path} still shared after mutation"
        );
    }
    let mut written = fixture[..256].to_vec();
    written[100..103].copy_from_slice(b"XYZ");
    let expect_a = [&written[..], b"new", &fixture[..10]].concat();
    assert_eq!(read_back(&mut a), expect_a);

    // The fixture itself, the sibling world and the pre-mutation snapshot
    // all still hold (and read) the original bytes.
    assert_eq!(fixture, make_fixture());
    let original = fixture[..256].repeat(3);
    let mut restored = World::restore(&snap);
    for path in FILES {
        assert!(shares(&b, path, &fixture), "{path}");
        assert!(shares(&restored, path, &fixture), "{path}");
    }
    assert_eq!(read_back(&mut b), original);
    assert_eq!(read_back(&mut restored), original);
}
