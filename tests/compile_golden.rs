//! Golden digests of the compile pipeline's output.
//!
//! Every program the repository deploys goes MiniC → IR → BASTION pass →
//! image. This test pins an FNV-1a digest of the `Debug` rendering of
//! each stage's output — the front-end module, the instrumented module,
//! the context metadata and the loaded image — for the three evaluation
//! apps, every attack victim under both sensitive sets, the generated
//! regression corpus and a few seeded generator programs. A speed-up of
//! the pipeline must leave every digest unchanged; a change that alters
//! compiler output on purpose updates the table below and says why.

use bastion_attacks::{generate, Generator, Victim};
use bastion_compiler::BastionCompiler;
use bastion_ir::{sysno, Module};
use bastion_vm::Image;
use std::fmt::{self, Write};

/// FNV-1a over the bytes written to it, so `Debug` output streams into
/// the digest without being collected into a `String` first.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of one program's whole pipeline under `compiler`.
fn pipeline_digest(front: Module, compiler: &BastionCompiler) -> u64 {
    let mut h = Fnv1a::new();
    write!(h, "{front:?}").unwrap();
    let out = compiler.compile(front).expect("compiles under BASTION");
    write!(h, "{:?}{:?}", out.module, out.metadata).unwrap();
    let image = Image::load(out.module).expect("loads");
    write!(h, "{image:?}").unwrap();
    h.0
}

fn compiler(extended_set: bool) -> BastionCompiler {
    if extended_set {
        BastionCompiler::with_sensitive(sysno::extended_sensitive_set())
    } else {
        BastionCompiler::new()
    }
}

/// `(program, digest)` for every pinned pipeline, in [`digests`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("app/webserve", 0x33ed8884507798e1),
    ("app/dbkv", 0x1361df5516fa1c79),
    ("app/ftpd", 0x923ac503a9499e60),
    ("victim/Webserve/extended=false", 0xad62b03bae683b84),
    ("victim/Webserve/extended=true", 0xe6bcca09f81d3f17),
    ("victim/Dbkv/extended=false", 0x1361df5516fa1c79),
    ("victim/Dbkv/extended=true", 0x067c95327c822087),
    ("victim/Ftpd/extended=false", 0x923ac503a9499e60),
    ("victim/Ftpd/extended=true", 0x842356865ccb3eea),
    ("victim/Apached/extended=false", 0x92c43dd1b25942f5),
    ("victim/Apached/extended=true", 0x876dfdd507d47aa1),
    ("corpus/seccomp-darkstub", 0x3a85145494c50425),
    ("corpus/ct-indirect-execve", 0xd13505b276835803),
    ("corpus/cf-ret-junk", 0x50df96e0188011bd),
    ("corpus/cf-ret-null", 0xb49c23619716ed6b),
    ("corpus/cf-fp-unmapped", 0x1d92ade40e780cc9),
    ("corpus/cf-callee-mismatch", 0xe0acd2f3623f7f8d),
    ("corpus/cf-indirect-entry", 0xe3f8b568ca5c6473),
    ("corpus/cf-depth-limit", 0xbd36a56d7ac66a3c),
    ("corpus/ai-stale-mode", 0xd5f4ee07548c45f4),
    ("corpus/ai-toctou-len", 0x1f960928db79f205),
    ("corpus/ai-propsite", 0xbb210c6f0a8428a8),
    ("generator/0x5eed x22", 0xb36dd338e2ae5ab6),
];

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for app in bastion_apps::ALL_APPS {
        let m = app.module().expect("app compiles");
        out.push((
            format!("app/{}", app.id()),
            pipeline_digest(m, &compiler(false)),
        ));
    }
    for victim in [
        Victim::Webserve,
        Victim::Dbkv,
        Victim::Ftpd,
        Victim::Apached,
    ] {
        for ext in [false, true] {
            let d = pipeline_digest(victim.module(), &compiler(ext));
            out.push((format!("victim/{victim:?}/extended={ext}"), d));
        }
    }
    for (family, _, source) in generate::corpus() {
        let m = bastion_minic::compile_program("generated", &[source]).expect("corpus compiles");
        out.push((
            format!("corpus/{family}"),
            pipeline_digest(m, &compiler(false)),
        ));
    }
    // One combined digest over a seeded generator batch: programs the
    // corpus does not cover, folded so the table stays short.
    let mut batch = Fnv1a::new();
    for prog in Generator::new(0x5EED).batch(22) {
        let m = bastion_minic::compile_program("generated", &[&prog.source])
            .expect("generated program compiles");
        write!(batch, "{:016x}", pipeline_digest(m, &compiler(false))).unwrap();
    }
    out.push(("generator/0x5eed x22".into(), batch.0));
    out
}

#[test]
fn compile_output_matches_golden_digests() {
    let got = digests();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, pinned,
        "compile output changed; if on purpose, replace GOLDEN with:\n{table}"
    );
}
