//! # bastion-apps
//!
//! The three system-call-intensive workload applications of the paper's
//! evaluation (§9), rebuilt in MiniC, plus the load generators that drive
//! them:
//!
//! | Paper | Here | Workload |
//! |---|---|---|
//! | NGINX web server | [`webserve`] | [`loadgen::http_load`] (wrk) |
//! | SQLite + DBT2 | [`dbkv`] | [`loadgen::tpcc_load`] (DBT2) |
//! | vsftpd | [`ftpd`] | [`loadgen::ftp_load`] (dkftpbench) |
//!
//! [`App`] bundles each program with its VFS fixtures and ports so
//! harnesses (benchmarks, attack scenarios, examples) can launch any of
//! them uniformly.

pub mod dbkv;
pub mod ftpd;
pub mod loadgen;
pub mod traffic;
pub mod webserve;

use bastion_ir::Module;
use bastion_kernel::World;
use bastion_minic::{compile_program, FrontError};

/// One of the three evaluation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// The NGINX analogue.
    Webserve,
    /// The SQLite/DBT2 analogue.
    Dbkv,
    /// The vsftpd analogue.
    Ftpd,
}

/// All three applications in paper order.
pub const ALL_APPS: [App; 3] = [App::Webserve, App::Dbkv, App::Ftpd];

impl App {
    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            App::Webserve => "NGINX (webserve)",
            App::Dbkv => "SQLite (dbkv)",
            App::Ftpd => "vsFTPd (ftpd)",
        }
    }

    /// Short identifier.
    pub fn id(self) -> &'static str {
        match self {
            App::Webserve => "webserve",
            App::Dbkv => "dbkv",
            App::Ftpd => "ftpd",
        }
    }

    /// MiniC source of the application.
    pub fn source(self) -> &'static str {
        match self {
            App::Webserve => webserve::SOURCE,
            App::Dbkv => dbkv::SOURCE,
            App::Ftpd => ftpd::SOURCE,
        }
    }

    /// Listener port the load generator targets.
    pub fn port(self) -> u16 {
        match self {
            App::Webserve => webserve::PORT,
            App::Dbkv => dbkv::PORT,
            App::Ftpd => ftpd::PORT,
        }
    }

    /// Compiles the application (libc prelude included, uninstrumented).
    ///
    /// # Errors
    /// Propagates front-end errors (none for the shipped sources).
    pub fn module(self) -> Result<Module, FrontError> {
        compile_program(self.id(), &[self.source()])
    }

    /// Installs the application's filesystem fixtures into a world.
    pub fn setup_vfs(self, world: &mut World) {
        match self {
            App::Webserve => {
                let page: Vec<u8> = page_bytes(webserve::PAGE_BYTES);
                world.kernel.vfs.put_file(webserve::PAGE_PATH, page, 0o644);
                world.kernel.vfs.put_file(
                    webserve::UPGRADE_PATH,
                    vec![0x7f, b'E', b'L', b'F'],
                    0o755,
                );
            }
            App::Dbkv => {
                world.kernel.vfs.put_file(dbkv::WAL_PATH, Vec::new(), 0o600);
            }
            App::Ftpd => {
                world
                    .kernel
                    .vfs
                    .put_file(ftpd::FILE_PATH, ftpd::payload(), 0o644);
            }
        }
    }

    /// How the paper measures this application (Table 3 caption).
    pub fn metric_label(self) -> &'static str {
        match self {
            App::Webserve => "MB/sec",
            App::Dbkv => "NOTPM",
            App::Ftpd => "sec (100 MB)",
        }
    }
}

/// Deterministic pseudo-HTML page content of the given size.
fn page_bytes(n: usize) -> Vec<u8> {
    let body = b"<html><body><p>bastion reproduction static page</p></body></html>\n";
    body.iter().copied().cycle().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_compile_and_validate() {
        for app in ALL_APPS {
            let m = app.module().unwrap_or_else(|e| panic!("{}: {e}", app.id()));
            assert!(m.func_by_name("main").is_some(), "{}", app.id());
        }
    }

    #[test]
    fn fixtures_install() {
        for app in ALL_APPS {
            let mut w = World::new(bastion_vm::CostModel::default());
            app.setup_vfs(&mut w);
            assert!(w.kernel.vfs.file_count() > 0, "{}", app.id());
        }
        let mut w = World::new(bastion_vm::CostModel::default());
        App::Webserve.setup_vfs(&mut w);
        assert_eq!(
            w.kernel.vfs.file(webserve::PAGE_PATH).unwrap().data.len(),
            webserve::PAGE_BYTES
        );
    }
}
