//! # bastion-minic
//!
//! A small C-like language ("MiniC") compiled to [`bastion_ir`]. The three
//! workload applications (the NGINX/SQLite/vsftpd analogues) are written in
//! MiniC, so the BASTION compiler pass analyzes realistic source programs
//! rather than hand-built IR — the same relationship the paper has between
//! its LLVM pass and the C applications it protects.
//!
//! ## Language
//!
//! ```c
//! struct exec_ctx { char *path; long flags; };
//! long counter = 0;
//! char banner[32] = "hello";
//! fnptr handlers[2] = { h_status, h_echo };   // address-taken functions
//!
//! long serve(struct exec_ctx *ctx, long n) {
//!     char buf[64];
//!     long i;
//!     for (i = 0; i < n; i = i + 1) {
//!         if (ctx->flags & 1) { buf[i] = 'x'; } else { break; }
//!     }
//!     return handlers[n & 1](ctx, i);          // indirect call
//! }
//! ```
//!
//! Types: `void`, `char` (1 byte), `long` (64-bit word), pointers, fixed
//! arrays, named structs, and `fnptr` (code pointers). Statements: block
//! declarations, assignment, `if`/`else`, `while`, `for`, `return`,
//! `break`, `continue`. Control-flow bodies require braces.
//!
//! [`compile_program`] bundles the libc prelude: a syscall stub for every
//! number in [`bastion_ir::sysno`] plus string/memory helpers (themselves
//! written in MiniC) and `system()` — so every image contains the full
//! stub surface, exactly like linking against libc, which is what makes
//! the *not-callable* call-type class meaningful.
//!
//! ```
//! let module = bastion_minic::compile_program(
//!     "hello",
//!     &[r#"long main() { return strlen("hello") + 1; }"#],
//! )?;
//! assert!(module.func_by_name("main").is_some());
//! assert!(module.func_by_name("execve").is_some()); // libc stub surface
//! # Ok::<(), bastion_minic::FrontError>(())
//! ```

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use lower::{LowerError, Lowerer};
pub use parser::{parse, ParseError};

use bastion_ir::build::ModuleBuilder;
use bastion_ir::Module;
use std::fmt;

/// Any front-end failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Semantic lowering failed.
    Lower(LowerError),
}

impl fmt::Display for FrontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontError::Parse(e) => write!(f, "{e}"),
            FrontError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrontError {}

impl From<ParseError> for FrontError {
    fn from(e: ParseError) -> Self {
        FrontError::Parse(e)
    }
}

impl From<LowerError> for FrontError {
    fn from(e: LowerError) -> Self {
        FrontError::Lower(e)
    }
}

/// The libc string/memory helpers, written in MiniC. Note `strcpy` and
/// friends write through pointer parameters — the shape the inter-
/// procedural pointee analysis (paper §6.3.3) must instrument when a
/// sensitive buffer flows in.
pub const LIBC: &str = r#"
long strlen(char *s) {
    long n;
    n = 0;
    while (s[n] != 0) { n = n + 1; }
    return n;
}

void strcpy(char *dst, char *src) {
    long i;
    i = 0;
    while (src[i] != 0) { dst[i] = src[i]; i = i + 1; }
    dst[i] = 0;
}

void strncpy(char *dst, char *src, long n) {
    long i;
    i = 0;
    while (i < n - 1 && src[i] != 0) { dst[i] = src[i]; i = i + 1; }
    dst[i] = 0;
}

long strcmp(char *a, char *b) {
    long i;
    i = 0;
    while (a[i] != 0 && a[i] == b[i]) { i = i + 1; }
    return a[i] - b[i];
}

long strneq(char *a, char *b, long n) {
    long i;
    for (i = 0; i < n; i = i + 1) {
        if (a[i] != b[i]) { return 0; }
        if (a[i] == 0) { return 1; }
    }
    return 1;
}

long starts_with(char *s, char *prefix) {
    long i;
    i = 0;
    while (prefix[i] != 0) {
        if (s[i] != prefix[i]) { return 0; }
        i = i + 1;
    }
    return 1;
}

void memcpy(char *dst, char *src, long n) {
    long i;
    for (i = 0; i < n; i = i + 1) { dst[i] = src[i]; }
}

void memset(char *dst, long c, long n) {
    long i;
    for (i = 0; i < n; i = i + 1) { dst[i] = c; }
}

void strcat(char *dst, char *src) {
    long n;
    n = strlen(dst);
    strcpy(dst + n, src);
}

long atoi(char *s) {
    long v;
    long i;
    long neg;
    v = 0;
    i = 0;
    neg = 0;
    if (s[0] == '-') { neg = 1; i = 1; }
    while (s[i] >= '0' && s[i] <= '9') {
        v = v * 10 + (s[i] - '0');
        i = i + 1;
    }
    if (neg) { return 0 - v; }
    return v;
}

long itoa(long v, char *buf) {
    char tmp[24];
    long i;
    long n;
    long neg;
    neg = 0;
    if (v < 0) { neg = 1; v = 0 - v; }
    i = 0;
    if (v == 0) { tmp[0] = '0'; i = 1; }
    while (v > 0) { tmp[i] = '0' + v % 10; v = v / 10; i = i + 1; }
    n = 0;
    if (neg) { buf[0] = '-'; n = 1; }
    while (i > 0) { i = i - 1; buf[n] = tmp[i]; n = n + 1; }
    buf[n] = 0;
    return n;
}

char system_shell[8] = "/bin/sh";

long system(char *cmd) {
    long pid;
    pid = fork();
    if (pid == 0) {
        execve(system_shell, 0, 0);
        exit(127);
    }
    return pid;
}

long puts(char *s) {
    return write(1, s, strlen(s));
}
"#;

/// Compiles one MiniC source into an existing builder (symbols from
/// earlier units remain visible).
///
/// # Errors
/// Propagates parse and lowering errors.
pub fn compile_unit(src: &str, mb: &mut ModuleBuilder) -> Result<(), FrontError> {
    let unit = parse(src)?;
    Lowerer::new(mb).lower_unit(&unit)?;
    Ok(())
}

/// Compiles a full program: syscall stubs + [`LIBC`] + the given sources,
/// in order. The result validates.
///
/// # Errors
/// Propagates parse, lowering, and IR validation errors.
pub fn compile_program(name: &str, sources: &[&str]) -> Result<Module, FrontError> {
    let mut mb = ModuleBuilder::new(name);
    let mut lw = Lowerer::new(&mut mb);
    lw.add_syscall_stubs();
    for src in std::iter::once(LIBC).chain(sources.iter().copied()) {
        lw.lower_unit(&parse(src)?)?;
    }
    let module = mb.finish();
    module.validate().map_err(|e| {
        FrontError::Lower(LowerError {
            func: e.func,
            message: format!("generated IR failed validation: {}", e.message),
        })
    })?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_the_libc_prelude() {
        let m = compile_program("empty", &["long main() { return 0; }"]).unwrap();
        assert!(m.func_by_name("strlen").is_some());
        assert!(m.func_by_name("system").is_some());
        assert!(m.func_by_name("execve").is_some());
        assert!(m.func_by_name("main").is_some());
        // Every stub present (full libc surface).
        assert_eq!(m.syscall_stubs().len(), bastion_ir::sysno::ALL.len());
    }

    #[test]
    fn reports_unknown_function() {
        let e = compile_program("bad", &["long main() { return nope(); }"]).unwrap_err();
        let FrontError::Lower(e) = e else {
            panic!("expected lowering error")
        };
        assert!(e.message.contains("nope"));
        assert_eq!(e.func.as_deref(), Some("main"));
    }

    #[test]
    fn reports_arity_mismatch() {
        let e = compile_program("bad", &["long main() { return strlen(); }"]).unwrap_err();
        assert!(matches!(e, FrontError::Lower(_)));
    }

    #[test]
    fn reports_unknown_struct_field() {
        let src = r#"
            struct s { long a; };
            long main() { struct s x; x.a = 1; return x.b; }
        "#;
        let e = compile_program("bad", &[src]).unwrap_err();
        let FrontError::Lower(e) = e else { panic!() };
        assert!(e.message.contains("no field"));
    }

    /// `compile_program` lowers every unit with one lowerer; a fresh
    /// lowerer per unit over the same builder must give the same module.
    /// The units reuse a struct name and reach each other's functions and
    /// globals (typed `long` there: `cells() + 1` is not scaled). String
    /// literals are numbered across units (`__str_N`), on both paths; a
    /// user global that takes a literal's name is the one visible after
    /// it.
    #[test]
    fn one_lowerer_over_many_units_matches_a_fresh_one_per_unit() {
        let a = r#"
            struct s { long x; };
            long __str_1 = 7;
            char *greeting = "hi";
            long shared(long v) { puts("a0"); puts("a1"); return v + __str_1; }
            long *cells() { return 0; }
        "#;
        let b = r#"
            struct s { char c; long y; };
            long twice(long v) {
                struct s t;
                t.y = shared(v);
                puts("b0");
                t.y = cells() + 1;
                return t.y + greeting + __str_0;
            }
        "#;
        let c = "long main() { return twice(1) + __str_0 + __str_1; }";
        let mut mb = ModuleBuilder::new("multi");
        Lowerer::new(&mut mb).add_syscall_stubs();
        for src in [LIBC, a, b, c] {
            compile_unit(src, &mut mb).unwrap();
        }
        let m = compile_program("multi", &[a, b, c]).unwrap();
        // `b`'s literal follows `a`'s three (`__str_0..=2`) instead of
        // reusing `__str_0`.
        let b0 = m.globals.iter().find(|g| g.name == "__str_3").unwrap();
        assert_eq!(b0.init, bastion_ir::GlobalInit::Bytes(b"b0\0".to_vec()));
        assert_eq!(m, mb.finish());
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let e = compile_program("bad", &["long strlen(char *s) { return 0; }"]).unwrap_err();
        let FrontError::Lower(e) = e else { panic!() };
        assert!(e.message.contains("duplicate"));
    }
}
