//! Stepped (non-blocking) protocol clients — the one implementation of the
//! wrk, DBT2 and dkftpbench client sides.
//!
//! Each client inverts control: one call plays one slice of the client
//! side — open connections, send what can be sent, consume what arrived —
//! and returns, leaving every `world.run` call to its caller. The
//! `bastion serve` supervisor calls [`Traffic::pump`] once per tenant turn
//! under its round-robin quantum; the blocking [`loadgen`](crate::loadgen)
//! generators are slice loops over the same clients for one world run to
//! completion. Both therefore share the protocol framing, keep-alive
//! quotas, and the latency sketch lane ([`REQUEST_CYCLES_SKETCH`]), so
//! per-request latency distributions are comparable between
//! `bastion bench` and `bastion serve`.
//!
//! The HTTP client is split into `open` and `consume` halves because the
//! two callers order them differently; the [`loadgen`](crate::loadgen)
//! module docs say how and why.

use crate::loadgen::{KEEPALIVE_REQUESTS, REQUEST_CYCLES_SKETCH};
use crate::App;
use bastion_kernel::{ExtConnId, World};
use bastion_obs as obs;

/// A resumable client-side workload for one tenant world.
#[derive(Debug)]
pub enum Traffic {
    /// wrk-style keep-alive HTTP load (webserve).
    Http(HttpTraffic),
    /// DBT2-style transaction sessions (dbkv).
    Tpcc(TpccTraffic),
    /// dkftpbench-style sequential download sessions (ftpd).
    Ftp(FtpTraffic),
}

impl Traffic {
    /// The standard driver for `app`: `requests` total requests /
    /// transactions / downloads over `concurrency` client connections
    /// (FTP sessions are sequential by construction, like dkftpbench).
    pub fn for_app(app: App, requests: u64, concurrency: usize) -> Traffic {
        match app {
            App::Webserve => Traffic::Http(HttpTraffic::new(app.port(), concurrency, requests)),
            App::Dbkv => Traffic::Tpcc(TpccTraffic::new(app.port(), concurrency, requests)),
            App::Ftpd => Traffic::Ftp(FtpTraffic::new(
                app.port(),
                requests,
                crate::ftpd::FILE_PATH,
            )),
        }
    }

    /// Plays one client slice against `world` without running the
    /// scheduler. Returns whether any externally visible progress happened
    /// (a connection opened, bytes moved, a request completed) — the
    /// supervisor's stall detector keys off this.
    pub fn pump(&mut self, world: &mut World) -> bool {
        match self {
            Traffic::Http(t) => t.pump(world),
            Traffic::Tpcc(t) => t.pump(world),
            Traffic::Ftp(t) => t.pump(world),
        }
    }

    /// Whether the workload has fully completed (all requests served and
    /// every client connection closed).
    pub fn done(&self) -> bool {
        match self {
            Traffic::Http(t) => t.requests >= t.total && t.conns.is_empty(),
            Traffic::Tpcc(t) => t.transactions >= t.total && t.closed,
            Traffic::Ftp(t) => t.files >= t.downloads && t.state == FtpState::Between,
        }
    }

    /// Requests / transactions / downloads completed so far.
    pub fn served(&self) -> u64 {
        match self {
            Traffic::Http(t) => t.requests,
            Traffic::Tpcc(t) => t.transactions,
            Traffic::Ftp(t) => t.files,
        }
    }

    /// Total requests this driver will issue.
    pub fn target(&self) -> u64 {
        match self {
            Traffic::Http(t) => t.total,
            Traffic::Tpcc(t) => t.total,
            Traffic::Ftp(t) => t.downloads,
        }
    }

    /// Payload bytes received so far (HTTP responses, FTP data).
    pub fn bytes(&self) -> u64 {
        match self {
            Traffic::Http(t) => t.bytes,
            Traffic::Tpcc(_) => 0,
            Traffic::Ftp(t) => t.bytes,
        }
    }
}

struct HttpConn {
    id: ExtConnId,
    buf: Vec<u8>,
    /// Requests this connection may still send.
    remaining: u64,
    /// A request is in flight awaiting its response.
    outstanding: bool,
    /// Virtual time the in-flight request was sent (latency sketch lane).
    sent_at: u64,
}

impl std::fmt::Debug for HttpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpConn")
            .field("id", &self.id)
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// wrk-style HTTP client: one outstanding request per keep-alive
/// connection of [`KEEPALIVE_REQUESTS`] requests each. Responses are
/// framed by their `Content-Length` header.
#[derive(Debug)]
pub struct HttpTraffic {
    port: u16,
    concurrency: usize,
    total: u64,
    /// Deterministic connection plan: every run of a given (total,
    /// concurrency) opens exactly the same connections with the same
    /// request quotas, so protected and baseline runs see identical
    /// workloads (conn-count jitter would otherwise mask sub-0.1%
    /// per-context overhead deltas).
    plan: Vec<u64>,
    next_conn: usize,
    issued: u64,
    conns: Vec<HttpConn>,
    /// Completed requests.
    pub requests: u64,
    /// Response bytes received.
    pub bytes: u64,
}

impl HttpTraffic {
    const REQUEST: &'static [u8] = b"GET /index.html HTTP/1.1\r\nHost: bench\r\n\r\n";

    /// A driver for `total` requests over `concurrency` connections.
    pub fn new(port: u16, concurrency: usize, total: u64) -> Self {
        let mut plan = Vec::new();
        let mut left = total;
        while left > 0 {
            let q = KEEPALIVE_REQUESTS.min(left);
            plan.push(q);
            left -= q;
        }
        HttpTraffic {
            port,
            concurrency: concurrency.max(1),
            total,
            plan,
            next_conn: 0,
            issued: 0,
            conns: Vec::new(),
            requests: 0,
            bytes: 0,
        }
    }

    fn pump(&mut self, world: &mut World) -> bool {
        let opened = self.open(world);
        self.consume(world) || opened
    }

    /// Keeps the pipe full: opens planned connections up to the
    /// concurrency limit, each sending its first request.
    pub(crate) fn open(&mut self, world: &mut World) -> bool {
        let mut progressed = false;
        while self.conns.len() < self.concurrency && self.next_conn < self.plan.len() {
            let Some(id) = world.net_connect(self.port) else {
                break; // backlog full; let the server drain first
            };
            let quota = self.plan[self.next_conn];
            self.next_conn += 1;
            world.net_send(id, Self::REQUEST);
            self.issued += 1;
            progressed = true;
            self.conns.push(HttpConn {
                id,
                buf: Vec::new(),
                remaining: quota - 1,
                outstanding: true,
                sent_at: world.now(),
            });
        }
        progressed
    }

    /// Consumes every complete response, pipelines the next request on the
    /// same connection, and closes exhausted or server-closed connections.
    pub(crate) fn consume(&mut self, world: &mut World) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.conns.len() {
            let chunk = world.net_recv(self.conns[i].id);
            if !chunk.is_empty() {
                self.conns[i].buf.extend_from_slice(&chunk);
                progressed = true;
            }
            while let Some(len) = complete_response(&self.conns[i].buf) {
                self.conns[i].buf.drain(..len);
                self.conns[i].outstanding = false;
                obs::sketch_observe(
                    REQUEST_CYCLES_SKETCH,
                    world.now().saturating_sub(self.conns[i].sent_at),
                );
                self.requests += 1;
                self.bytes += len as u64;
                progressed = true;
                if self.conns[i].remaining > 0 && self.issued < self.total {
                    world.net_send(self.conns[i].id, Self::REQUEST);
                    self.conns[i].remaining -= 1;
                    self.conns[i].outstanding = true;
                    self.conns[i].sent_at = world.now();
                    self.issued += 1;
                }
            }
            let c = &self.conns[i];
            let exhausted = !c.outstanding && (c.remaining == 0 || self.issued >= self.total);
            if exhausted || world.net_server_closed(c.id) {
                world.net_close(c.id);
                self.conns.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        progressed
    }
}

/// If `buf` starts with a complete HTTP response (headers + body per
/// `Content-Length`), returns its total length.
fn complete_response(buf: &[u8]) -> Option<usize> {
    let hdr_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..hdr_end]).ok()?;
    let mut body_len = 0usize;
    for line in text.split("\r\n") {
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            body_len = v.trim().parse().ok()?;
        }
    }
    (buf.len() >= hdr_end + body_len).then_some(hdr_end + body_len)
}

/// DBT2-style client: long-lived terminal sessions, one outstanding
/// NEWORDER per session, all closed once the last transaction commits.
#[derive(Debug)]
pub struct TpccTraffic {
    port: u16,
    sessions: usize,
    total: u64,
    /// `(conn, buffered_replies, sent_at)` per open session.
    conns: Vec<(ExtConnId, u64, u64)>,
    issued: u64,
    started: bool,
    closed: bool,
    /// Committed transactions.
    pub transactions: u64,
}

impl TpccTraffic {
    /// A driver for `total` transactions over `sessions` terminals.
    pub fn new(port: u16, sessions: usize, total: u64) -> Self {
        TpccTraffic {
            port,
            sessions: sessions.max(1),
            total,
            conns: Vec::new(),
            issued: 0,
            started: false,
            closed: false,
            transactions: 0,
        }
    }

    fn pump(&mut self, world: &mut World) -> bool {
        if !self.started {
            // Terminals connect up front and each seeds one transaction.
            for _ in 0..self.sessions {
                let Some(c) = world.net_connect(self.port) else {
                    break;
                };
                world.net_send(c, order_cmd(self.issued).as_bytes());
                self.conns.push((c, 0, world.now()));
                self.issued += 1;
            }
            if self.conns.is_empty() {
                return false; // server not parked in accept yet; retry
            }
            self.started = true;
            return true;
        }
        let mut progressed = false;
        let now = world.now();
        for (c, buffered, sent_at) in &mut self.conns {
            let chunk = world.net_recv(*c);
            if chunk.is_empty() {
                continue;
            }
            progressed = true;
            *buffered += chunk.iter().filter(|&&b| b == b'\n').count() as u64;
            while *buffered > 0 && self.transactions < self.total {
                *buffered -= 1;
                obs::sketch_observe(REQUEST_CYCLES_SKETCH, now.saturating_sub(*sent_at));
                self.transactions += 1;
                if self.issued < self.total {
                    world.net_send(*c, order_cmd(self.issued).as_bytes());
                    *sent_at = now;
                    self.issued += 1;
                }
            }
        }
        if self.transactions >= self.total && !self.closed {
            for (c, _, _) in self.conns.drain(..) {
                world.net_close(c);
            }
            self.closed = true;
            progressed = true;
        }
        progressed
    }
}

fn order_cmd(seq: u64) -> String {
    format!(
        "NEWORDER {} {} {}\n",
        1 + seq % 4,
        seq * 7 % 251,
        1 + seq % 9
    )
}

/// Where the FTP session state machine stands (one transition per pump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FtpState {
    /// No session in flight (next pump opens one if downloads remain).
    Between,
    /// Awaiting the `220` greeting.
    Greeting,
    /// Sent `USER`, awaiting `331`.
    User,
    /// Sent `PASS`, awaiting `230`.
    Pass,
    /// Sent `RETR`, awaiting the `227 <port>` passive announcement.
    Pasv,
    /// Data channel open; draining until the control channel says `226`.
    Transfer { data: ExtConnId },
    /// Sent `QUIT`; next pump tears the session down.
    Quit { data: ExtConnId },
}

/// dkftpbench-style client: sequential RETR sessions ("launching clients
/// one after another"), advanced one protocol transition per pump.
#[derive(Debug)]
pub struct FtpTraffic {
    port: u16,
    downloads: u64,
    path: String,
    state: FtpState,
    ctrl: Option<ExtConnId>,
    ctrl_buf: Vec<u8>,
    pasv_port: u16,
    session_start: u64,
    /// Files fully downloaded.
    pub files: u64,
    /// Data-channel payload bytes received.
    pub bytes: u64,
}

impl FtpTraffic {
    /// A driver for `downloads` sequential sessions fetching `path`.
    pub fn new(port: u16, downloads: u64, path: &str) -> Self {
        FtpTraffic {
            port,
            downloads,
            path: path.to_string(),
            state: FtpState::Between,
            ctrl: None,
            ctrl_buf: Vec::new(),
            pasv_port: 0,
            session_start: 0,
            files: 0,
            bytes: 0,
        }
    }

    /// Scans buffered control-channel lines for a reply starting with
    /// `code`; on a match consumes the buffer through that line and
    /// returns the line.
    fn take_reply(&mut self, code: &[u8]) -> Option<Vec<u8>> {
        let mut consumed = 0usize;
        for line in self.ctrl_buf.split_inclusive(|&b| b == b'\n') {
            consumed += line.len();
            if line.starts_with(code) {
                let reply = line.to_vec();
                self.ctrl_buf.drain(..consumed);
                return Some(reply);
            }
        }
        None
    }

    fn pump(&mut self, world: &mut World) -> bool {
        if let Some(c) = self.ctrl {
            let chunk = world.net_recv(c);
            self.ctrl_buf.extend_from_slice(&chunk);
        }
        match self.state {
            FtpState::Between => {
                if self.files >= self.downloads {
                    return false;
                }
                let Some(ctrl) = world.net_connect(self.port) else {
                    return false; // server still booting or backlog full
                };
                self.ctrl = Some(ctrl);
                self.ctrl_buf.clear();
                self.session_start = world.now();
                self.state = FtpState::Greeting;
                true
            }
            FtpState::Greeting => {
                if self.take_reply(b"220").is_some() {
                    world.net_send(self.ctrl.unwrap(), b"USER bench\n");
                    self.state = FtpState::User;
                    return true;
                }
                false
            }
            FtpState::User => {
                if self.take_reply(b"331").is_some() {
                    world.net_send(self.ctrl.unwrap(), b"PASS bench\n");
                    self.state = FtpState::Pass;
                    return true;
                }
                false
            }
            FtpState::Pass => {
                if self.take_reply(b"230").is_some() {
                    world.net_send(
                        self.ctrl.unwrap(),
                        format!("RETR {}\n", self.path).as_bytes(),
                    );
                    self.state = FtpState::Pasv;
                    return true;
                }
                false
            }
            FtpState::Pasv => {
                if self.pasv_port == 0 {
                    let Some(reply) = self.take_reply(b"227") else {
                        return false;
                    };
                    self.pasv_port = String::from_utf8_lossy(&reply[4..])
                        .trim()
                        .parse()
                        .expect("pasv port");
                }
                // The passive connect can race the server's listen; keep
                // retrying on subsequent pumps.
                let Some(data) = world.net_connect(self.pasv_port) else {
                    return false;
                };
                self.pasv_port = 0;
                self.state = FtpState::Transfer { data };
                true
            }
            FtpState::Transfer { data } => {
                let mut progressed = false;
                let chunk = world.net_recv(data);
                if !chunk.is_empty() {
                    self.bytes += chunk.len() as u64;
                    progressed = true;
                }
                if self.take_reply(b"226").is_some() {
                    // Drain trailing data bytes that landed with the 226.
                    let tail = world.net_recv(data);
                    self.bytes += tail.len() as u64;
                    self.files += 1;
                    obs::sketch_observe(
                        REQUEST_CYCLES_SKETCH,
                        world.now().saturating_sub(self.session_start),
                    );
                    world.net_send(self.ctrl.unwrap(), b"QUIT\n");
                    self.state = FtpState::Quit { data };
                    progressed = true;
                }
                progressed
            }
            FtpState::Quit { data } => {
                self.ctrl_buf.clear();
                world.net_close(data);
                world.net_close(self.ctrl.take().unwrap());
                self.state = FtpState::Between;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_plan_splits_keepalive_quotas() {
        let t = HttpTraffic::new(8080, 4, 100);
        // 100 requests = 3 full keep-alive connections of 29 + one of 13.
        assert_eq!(t.plan, vec![29, 29, 29, 13]);
        let empty = HttpTraffic::new(8080, 4, 0);
        assert!(empty.plan.is_empty());
        assert!(Traffic::Http(empty).done());
    }

    #[test]
    fn http_response_framing() {
        let resp = b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(complete_response(resp), Some(resp.len()));
        // Incomplete body.
        assert_eq!(complete_response(&resp[..resp.len() - 1]), None);
        // Incomplete headers.
        assert_eq!(complete_response(b"HTTP/1.0 200 OK\r\nContent-"), None);
        // Zero-length body (404s).
        let err = b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(complete_response(err), Some(err.len()));
        // Pipelined responses: only the first is consumed.
        let mut two = resp.to_vec();
        two.extend_from_slice(err);
        assert_eq!(complete_response(&two), Some(resp.len()));
    }

    #[test]
    fn order_commands_are_well_formed() {
        for i in 0..50 {
            let c = order_cmd(i);
            assert!(c.starts_with("NEWORDER "));
            assert!(c.ends_with('\n'));
            assert_eq!(c.split_whitespace().count(), 4);
        }
    }

    #[test]
    fn ftp_reply_scan_consumes_through_match() {
        let mut t = FtpTraffic::new(2100, 1, "/f");
        t.ctrl_buf = b"220 hello\n331 pw\nxx".to_vec();
        assert_eq!(t.take_reply(b"220").unwrap(), b"220 hello\n");
        assert!(t.take_reply(b"226").is_none(), "no 226 buffered yet");
        assert_eq!(t.take_reply(b"331").unwrap(), b"331 pw\n");
        assert_eq!(t.ctrl_buf, b"xx");
    }

    #[test]
    fn traffic_reports_targets() {
        for app in crate::ALL_APPS {
            let t = Traffic::for_app(app, 12, 2);
            assert_eq!(t.target(), 12, "{}", app.id());
            assert_eq!(t.served(), 0);
            assert!(!t.done() || t.target() == 0);
        }
    }
}
