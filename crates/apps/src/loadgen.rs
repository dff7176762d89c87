//! Workload generators — the `wrk`, `DBT2`, and `dkftpbench` analogues.
//!
//! Each generator owns the scheduler for one world run to completion: it
//! is a slice loop that alternates one call into the stepped client in
//! [`crate::traffic`] with `world.run(SLICE)`, measuring *virtual* time
//! (deterministic) for the Figure 3 / Table 3 metrics. The protocol logic
//! lives only in `traffic`, which the `bastion serve` supervisor drives
//! one turn at a time instead.
//!
//! The loops add exactly one ordering difference. After each slice,
//! [`http_load`] consumes responses first and then opens replacement
//! connections, so a connection closed in a slice is replaced before the
//! next slice; [`Traffic::pump`] opens first, so under `bastion serve` the
//! replacement opens one turn later. Both orders are kept because each
//! one is pinned by measured numbers: opening first here would move every
//! standard-size webserve cell of the paper grid, and consuming first in
//! `pump` would move the serving benchmark's request-latency tail and
//! raise its heap peak by about 13%.

use crate::traffic::{FtpTraffic, HttpTraffic, TpccTraffic, Traffic};
use bastion_kernel::{RunStatus, World};

/// Quantile-sketch lane for end-to-end request latency in virtual cycles:
/// HTTP per request, TPC-C per transaction, FTP per session. Observed only
/// when thread-local telemetry is enabled — the generators stay
/// zero-overhead on plain benchmark runs.
pub const REQUEST_CYCLES_SKETCH: &str = "loadgen.request_cycles";

/// Scheduler slice between client calls.
const SLICE: u64 = 400_000;

/// Progress guard: slices without progress before giving up.
const STALL_LIMIT: u32 = 10_000;

/// wrk-style HTTP load results.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpStats {
    /// Completed requests.
    pub requests: u64,
    /// Response bytes received (headers + body).
    pub bytes: u64,
    /// Virtual cycles elapsed during the measurement.
    pub cycles: u64,
}

impl HttpStats {
    /// Throughput in MB/s of virtual time (Table 3's NGINX metric).
    pub fn throughput_mb_s(&self, cpu_hz: u64) -> f64 {
        let secs = self.cycles as f64 / cpu_hz as f64;
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1_000_000.0 / secs
        }
    }
}

/// Requests served per keep-alive connection before the client reconnects
/// (wrk reuses connections, which is why Table 4's accept4 count is far
/// below the request count).
pub const KEEPALIVE_REQUESTS: u64 = 29;

/// Alternates one client call with one scheduler slice until `client`
/// is done. HTTP consumes, then opens (see the module docs); the other
/// protocols take one [`Traffic::pump`].
///
/// # Panics
/// Panics after [`STALL_LIMIT`] consecutive slices in which neither the
/// client nor the scheduler made progress (deadlock guard).
fn run_to_done(world: &mut World, client: &mut Traffic, what: &str) {
    let mut stalled = 0u32;
    loop {
        let progressed = match client {
            Traffic::Http(http) => {
                let consumed = http.consume(world);
                http.open(world) || consumed
            }
            _ => client.pump(world),
        };
        if client.done() {
            return;
        }
        let status = world.run(SLICE);
        if progressed || status == RunStatus::Budget {
            stalled = 0;
            continue;
        }
        stalled += 1;
        assert!(
            stalled < STALL_LIMIT,
            "{what} stalled: {}/{} done, status {status:?}\n{}",
            client.served(),
            client.target(),
            world.summary()
        );
    }
}

/// Drives `total` HTTP requests against `port` with `concurrency`
/// keep-alive connections of [`KEEPALIVE_REQUESTS`] requests each.
///
/// # Panics
/// Panics if the server stops making progress (deadlock guard).
pub fn http_load(world: &mut World, port: u16, concurrency: usize, total: u64) -> HttpStats {
    let start = world.now();
    let mut client = Traffic::Http(HttpTraffic::new(port, concurrency, total));
    run_to_done(world, &mut client, "http_load");
    // Drain: run the world until all workers have re-parked in accept4.
    // This makes every measurement cover the identical logical workload
    // (including per-connection close + re-accept costs), so per-context
    // overhead deltas are not masked by window-boundary jitter.
    for _ in 0..STALL_LIMIT {
        match world.run(SLICE) {
            RunStatus::Idle | RunStatus::AllExited => break,
            RunStatus::Budget => {}
        }
    }
    HttpStats {
        requests: client.served(),
        bytes: client.bytes(),
        cycles: world.now() - start,
    }
}

/// DBT2-style transaction results.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpccStats {
    /// Committed new-order transactions.
    pub transactions: u64,
    /// Virtual cycles elapsed.
    pub cycles: u64,
}

impl TpccStats {
    /// New-order transactions per virtual minute (Table 3's SQLite metric).
    pub fn notpm(&self, cpu_hz: u64) -> f64 {
        let mins = self.cycles as f64 / cpu_hz as f64 / 60.0;
        if mins == 0.0 {
            0.0
        } else {
            self.transactions as f64 / mins
        }
    }
}

/// Runs `total` NEWORDER transactions over `sessions` concurrent client
/// sessions against the dbkv server, then closes the sessions (after the
/// last commit, so the close is outside the measured window).
///
/// # Panics
/// Panics on a server stall.
pub fn tpcc_load(world: &mut World, port: u16, sessions: usize, total: u64) -> TpccStats {
    let start = world.now();
    let mut client = Traffic::Tpcc(TpccTraffic::new(port, sessions, total));
    run_to_done(world, &mut client, "tpcc_load");
    TpccStats {
        transactions: client.served(),
        cycles: world.now() - start,
    }
}

/// dkftpbench-style download results.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtpStats {
    /// Files downloaded.
    pub files: u64,
    /// Payload bytes received on data connections.
    pub bytes: u64,
    /// Virtual cycles elapsed.
    pub cycles: u64,
}

impl FtpStats {
    /// Virtual seconds to download `target_bytes` at the measured rate —
    /// the Table 3 vsftpd metric ("seconds to download a 100 MB file"),
    /// scaled from the simulator's smaller payload.
    pub fn seconds_for(&self, target_bytes: u64, cpu_hz: u64) -> f64 {
        if self.bytes == 0 {
            return f64::INFINITY;
        }
        let secs = self.cycles as f64 / cpu_hz as f64;
        secs * target_bytes as f64 / self.bytes as f64
    }
}

/// Runs `downloads` sequential RETR sessions (one file each) against the
/// ftpd server, like dkftpbench "launching clients one after another".
///
/// # Panics
/// Panics on a server stall.
pub fn ftp_load(world: &mut World, port: u16, downloads: u64, path: &str) -> FtpStats {
    let start = world.now();
    let mut client = Traffic::Ftp(FtpTraffic::new(port, downloads, path));
    run_to_done(world, &mut client, "ftp_load");
    if downloads > 0 {
        // Let the server finish tearing down the last session.
        world.run(SLICE);
    }
    FtpStats {
        files: client.served(),
        bytes: client.bytes(),
        cycles: world.now() - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_convert_units() {
        let h = HttpStats {
            requests: 10,
            bytes: 2_000_000,
            cycles: 2_000_000_000,
        };
        assert!((h.throughput_mb_s(2_000_000_000) - 2.0).abs() < 1e-9);
        let t = TpccStats {
            transactions: 600,
            cycles: 2_000_000_000 * 60,
        };
        assert!((t.notpm(2_000_000_000) - 600.0).abs() < 1e-9);
        let f = FtpStats {
            files: 1,
            bytes: 1_000_000,
            cycles: 2_000_000_000,
        };
        // 100x the bytes at the same rate = 100x the time.
        assert!((f.seconds_for(100_000_000, 2_000_000_000) - 100.0).abs() < 1e-9);
        let empty = FtpStats::default();
        assert!(empty.seconds_for(1, 1).is_infinite());
    }
}
