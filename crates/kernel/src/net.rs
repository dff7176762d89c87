//! Loopback socket simulation.
//!
//! Listeners hold backlogs of pending connections; a connection is a pair of
//! byte queues. The *server* side is driven by application syscalls
//! (`accept`, `read`, `write`, `sendfile`); the *client* side is driven by
//! the Rust workload generators (the `wrk`/`DBT2`/`dkftpbench` analogues)
//! through [`Net::external_connect`] / [`Net::client_send`] /
//! [`Net::client_recv`].
//!
//! The two directions are shaped by how they are consumed. The server reads
//! client bytes a bounded prefix at a time (peek, then consume), so
//! client→server is a `VecDeque`. The client always drains server→client
//! whole, so that direction is a list of exact-size chunks, one per server
//! write: a write allocates its chunk once at its final size (no doubling
//! growth, no zero-fill of spare capacity), a receive of a lone chunk
//! moves it out without copying a byte, and a count-only receive
//! ([`Net::client_recv_len`]) drops the chunks without reading them.

use std::collections::{BTreeMap, VecDeque};

/// Identifies a connection.
pub type ConnId = usize;
/// Identifies a listening socket.
pub type ListenerId = usize;

/// One established (or pending) connection.
#[derive(Debug, Clone, Default)]
pub struct Conn {
    to_server: VecDeque<u8>,
    /// Server writes not yet received, one exact-size chunk each.
    to_client: Vec<Vec<u8>>,
    client_closed: bool,
    server_closed: bool,
    /// Synthetic peer port, reported by `accept`.
    pub peer_port: u16,
}

/// A listening socket.
#[derive(Debug, Clone)]
pub struct Listener {
    /// Bound port.
    pub port: u16,
    backlog: VecDeque<ConnId>,
    backlog_cap: usize,
}

/// Result of a read on one side of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were copied out.
    Data(usize),
    /// No data yet and the peer is still open.
    WouldBlock,
    /// Peer closed and the queue is drained.
    Eof,
}

/// Binding a port that already has a listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortInUse(pub u16);

impl std::fmt::Display for PortInUse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "port {} already in use", self.0)
    }
}

impl std::error::Error for PortInUse {}

/// The network namespace.
#[derive(Debug, Clone, Default)]
pub struct Net {
    listeners: Vec<Listener>,
    conns: Vec<Conn>,
    ports: BTreeMap<u16, ListenerId>,
    next_peer_port: u16,
}

impl Net {
    /// An empty namespace.
    pub fn new() -> Self {
        Net {
            next_peer_port: 40000,
            ..Net::default()
        }
    }

    /// Binds and listens on `port`.
    ///
    /// # Errors
    /// Fails if another listener already owns the port.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<ListenerId, PortInUse> {
        if self.ports.contains_key(&port) {
            return Err(PortInUse(port));
        }
        let id = self.listeners.len();
        self.listeners.push(Listener {
            port,
            backlog: VecDeque::new(),
            backlog_cap: backlog.max(1),
        });
        self.ports.insert(port, id);
        Ok(id)
    }

    /// An external client connects to `port`; queued on the backlog.
    /// Returns `None` if no listener is bound or the backlog is full.
    pub fn external_connect(&mut self, port: u16) -> Option<ConnId> {
        let &lid = self.ports.get(&port)?;
        let l = &mut self.listeners[lid];
        if l.backlog.len() >= l.backlog_cap {
            return None;
        }
        let cid = self.conns.len();
        // Ephemeral ports roll over to the bottom of the range and keep
        // incrementing (`.max(40000)` here would pin every post-wrap
        // connection to port 40000, aliasing their peer identities).
        self.next_peer_port = if self.next_peer_port == u16::MAX {
            40000
        } else {
            self.next_peer_port + 1
        };
        self.conns.push(Conn {
            peer_port: self.next_peer_port,
            ..Conn::default()
        });
        self.listeners[lid].backlog.push_back(cid);
        Some(cid)
    }

    /// Whether `accept` on this listener would succeed now.
    pub fn has_pending(&self, lid: ListenerId) -> bool {
        self.listeners
            .get(lid)
            .is_some_and(|l| !l.backlog.is_empty())
    }

    /// Dequeues a pending connection.
    pub fn accept(&mut self, lid: ListenerId) -> Option<ConnId> {
        self.listeners.get_mut(lid)?.backlog.pop_front()
    }

    /// Server-side peek into `buf`: copies up to `buf.len()` queued bytes
    /// and leaves them queued. Reads validate their destination (a guest
    /// buffer mapping) before committing, so they peek first and
    /// [`Net::server_consume`] only once delivery is guaranteed; a faulting
    /// destination does not silently drop stream bytes.
    pub fn server_peek(&self, cid: ConnId, buf: &mut [u8]) -> ReadOutcome {
        let c = &self.conns[cid];
        if c.to_server.is_empty() {
            return if c.client_closed {
                ReadOutcome::Eof
            } else {
                ReadOutcome::WouldBlock
            };
        }
        let n = buf.len().min(c.to_server.len());
        let (front, back) = c.to_server.as_slices();
        let m = n.min(front.len());
        buf[..m].copy_from_slice(&front[..m]);
        buf[m..n].copy_from_slice(&back[..n - m]);
        ReadOutcome::Data(n)
    }

    /// Discards the first `n` queued server-side bytes (pairs with
    /// [`Net::server_peek`] to commit a peeked read).
    pub fn server_consume(&mut self, cid: ConnId, n: usize) {
        let c = &mut self.conns[cid];
        let n = n.min(c.to_server.len());
        c.to_server.drain(..n);
    }

    /// Number of client bytes queued for the server (sizes peek buffers).
    pub fn server_queued(&self, cid: ConnId) -> usize {
        self.conns[cid].to_server.len()
    }

    /// Server-side write (always succeeds; queues are unbounded).
    pub fn server_write(&mut self, cid: ConnId, bytes: &[u8]) -> usize {
        self.server_write_with(cid, bytes.len(), |dst| dst.extend_from_slice(bytes))
    }

    /// Server-side write of `len` bytes produced in place: `fill` appends
    /// exactly `len` bytes to a new, empty chunk with room for them, which
    /// is queued for the client, so a source such as guest memory is
    /// copied exactly once and never zero-filled first. `fill` is not
    /// called once the client has closed (the bytes would vanish anyway),
    /// nor for an empty write.
    pub fn server_write_with(
        &mut self,
        cid: ConnId,
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        let c = &mut self.conns[cid];
        if c.client_closed || len == 0 {
            return len; // RST-free simplification: bytes vanish.
        }
        let mut chunk = Vec::with_capacity(len);
        fill(&mut chunk);
        debug_assert_eq!(chunk.len(), len, "fill must append exactly len bytes");
        c.to_client.push(chunk);
        len
    }

    /// Whether the server side has readable data (or EOF) available.
    pub fn server_readable(&self, cid: ConnId) -> bool {
        let c = &self.conns[cid];
        !c.to_server.is_empty() || c.client_closed
    }

    /// Server closes its side.
    pub fn server_close(&mut self, cid: ConnId) {
        self.conns[cid].server_closed = true;
    }

    /// Client-side send.
    pub fn client_send(&mut self, cid: ConnId, bytes: &[u8]) {
        let c = &mut self.conns[cid];
        if !c.server_closed {
            c.to_server.extend(bytes);
        }
    }

    /// Client-side receive: hands over everything available, leaving the
    /// connection holding no receive capacity. A lone chunk is moved out
    /// as is; several are concatenated in write order.
    pub fn client_recv(&mut self, cid: ConnId) -> Vec<u8> {
        let mut chunks = std::mem::take(&mut self.conns[cid].to_client);
        if chunks.len() == 1 {
            return chunks.pop().unwrap_or_default();
        }
        chunks.concat()
    }

    /// Count-only client-side receive: drains everything available like
    /// [`Net::client_recv`] but returns only its length, for a client that
    /// never reads the bytes (a bulk-transfer data channel).
    pub fn client_recv_len(&mut self, cid: ConnId) -> usize {
        std::mem::take(&mut self.conns[cid].to_client)
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// Client closes its side (server reads then see EOF).
    pub fn client_close(&mut self, cid: ConnId) {
        self.conns[cid].client_closed = true;
    }

    /// Whether the server has closed this connection.
    pub fn server_closed(&self, cid: ConnId) -> bool {
        self.conns[cid].server_closed
    }

    /// Peer port of a connection (reported via accept's sockaddr).
    pub fn peer_port(&self, cid: ConnId) -> u16 {
        self.conns[cid].peer_port
    }

    /// An outbound connection from the application to an unmodelled local
    /// service (used by the app-side `connect` syscall): writes are
    /// swallowed, reads see immediate EOF.
    pub fn blackhole(&mut self) -> ConnId {
        let cid = self.conns.len();
        self.conns.push(Conn {
            client_closed: true,
            peer_port: 0,
            ..Conn::default()
        });
        cid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_accept_roundtrip() {
        let mut n = Net::new();
        let l = n.listen(8080, 16).unwrap();
        assert!(!n.has_pending(l));
        let c = n.external_connect(8080).unwrap();
        assert!(n.has_pending(l));
        assert_eq!(n.accept(l), Some(c));
        assert!(!n.has_pending(l));
    }

    #[test]
    fn duplicate_bind_fails() {
        let mut n = Net::new();
        n.listen(80, 4).unwrap();
        assert!(n.listen(80, 4).is_err());
    }

    #[test]
    fn backlog_capacity_limits_pending() {
        let mut n = Net::new();
        let _ = n.listen(80, 2).unwrap();
        assert!(n.external_connect(80).is_some());
        assert!(n.external_connect(80).is_some());
        assert!(n.external_connect(80).is_none());
    }

    #[test]
    fn bytes_flow_both_ways() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        let c2 = n.accept(l).unwrap();
        assert_eq!(c, c2);
        n.client_send(c, b"GET /");
        let mut buf = [0u8; 3];
        assert_eq!(n.server_peek(c, &mut buf), ReadOutcome::Data(3));
        assert_eq!(&buf, b"GET");
        n.server_consume(c, 3);
        assert_eq!(n.server_queued(c), 2);
        n.server_write(c, b"200 OK");
        assert_eq!(n.client_recv(c), b"200 OK");
    }

    #[test]
    fn peek_leaves_bytes_queued_until_consumed() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        n.client_send(c, b"GET /index");
        let mut buf = [0u8; 5];
        // Peeking any number of times returns the same prefix.
        assert_eq!(n.server_peek(c, &mut buf), ReadOutcome::Data(5));
        assert_eq!(&buf, b"GET /");
        assert_eq!(n.server_peek(c, &mut buf), ReadOutcome::Data(5));
        assert_eq!(&buf, b"GET /");
        // Consuming commits the peeked prefix; the rest stays readable.
        n.server_consume(c, 5);
        let mut rest = [0u8; 8];
        assert_eq!(n.server_peek(c, &mut rest), ReadOutcome::Data(5));
        assert_eq!(&rest[..5], b"index");
        n.server_consume(c, 5);
        // Peek mirrors read's EOF/WouldBlock outcomes.
        assert_eq!(n.server_peek(c, &mut rest), ReadOutcome::WouldBlock);
        n.client_close(c);
        assert_eq!(n.server_peek(c, &mut rest), ReadOutcome::Eof);
        // Over-long consume saturates instead of panicking.
        n.server_consume(c, 99);
    }

    #[test]
    fn peek_matches_the_stream_across_a_wrapped_queue() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        // Sending 7 and consuming 5 per round walks the ring's head around
        // its buffer, so some peeks see the queue split in two slices.
        let mut model = VecDeque::new();
        let mut wrapped = false;
        for round in 0u8..100 {
            let chunk: Vec<u8> = (0..7)
                .map(|i| round.wrapping_mul(7).wrapping_add(i))
                .collect();
            n.client_send(c, &chunk);
            model.extend(&chunk);
            wrapped |= !n.conns[c].to_server.as_slices().1.is_empty();
            let mut buf = vec![0u8; model.len() + 3];
            assert_eq!(n.server_peek(c, &mut buf), ReadOutcome::Data(model.len()));
            assert!(buf[..model.len()].iter().eq(model.iter()));
            let mut short = [0u8; 4];
            assert_eq!(n.server_peek(c, &mut short), ReadOutcome::Data(4));
            assert!(short.iter().eq(model.iter().take(4)));
            n.server_consume(c, 5);
            model.drain(..5);
        }
        assert!(wrapped, "test must peek a wrapped queue");
    }

    #[test]
    fn server_writes_arrive_whole_and_in_order_across_receives() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        let mut got = Vec::new();
        let mut sent = Vec::new();
        for round in 0u8..5 {
            for w in 0..=round {
                let chunk: Vec<u8> = (0..1000u32 + u32::from(w))
                    .map(|i| (i as u8).wrapping_mul(7).wrapping_add(round))
                    .collect();
                assert_eq!(n.server_write(c, &chunk), chunk.len());
                sent.extend_from_slice(&chunk);
            }
            got.extend(n.client_recv(c));
            // A drained connection keeps no buffer alive.
            assert_eq!(n.conns[c].to_client.capacity(), 0);
            assert!(n.client_recv(c).is_empty());
        }
        assert_eq!(got, sent);
        // An empty write queues nothing.
        assert_eq!(n.server_write_with(c, 0, |_| unreachable!()), 0);
        assert_eq!(n.conns[c].to_client.capacity(), 0);
        // After the client closes, writes report success but vanish.
        n.client_close(c);
        assert_eq!(n.server_write_with(c, 64, |_| unreachable!()), 64);
        assert!(n.client_recv(c).is_empty());
    }

    #[test]
    fn count_only_receive_drains_what_a_receive_would_return() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        assert_eq!(n.client_recv_len(c), 0);
        n.server_write(c, b"150 ");
        n.server_write(c, &[7u8; 3000]);
        assert_eq!(n.client_recv_len(c), 3004);
        assert_eq!(n.conns[c].to_client.capacity(), 0);
        assert!(n.client_recv(c).is_empty());
        // A lone write comes back as the very chunk that was queued.
        n.server_write(c, &[9u8; 4096]);
        let ptr = n.conns[c].to_client[0].as_ptr();
        let got = n.client_recv(c);
        assert_eq!(got, vec![9u8; 4096]);
        assert_eq!(got.as_ptr(), ptr, "a lone chunk must move, not copy");
    }

    #[test]
    fn eof_after_client_close() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(n.server_peek(c, &mut buf), ReadOutcome::WouldBlock);
        n.client_close(c);
        assert_eq!(n.server_peek(c, &mut buf), ReadOutcome::Eof);
        assert!(n.server_readable(c));
    }

    #[test]
    fn connect_to_unbound_port_fails() {
        let mut n = Net::new();
        assert!(n.external_connect(9999).is_none());
    }

    #[test]
    fn peer_ports_keep_advancing_across_wraparound() {
        let mut n = Net::new();
        let l = n.listen(80, 1).unwrap();
        let mut prev = 0u16;
        let mut wrapped = false;
        // Enough connections to cross 65535 from the 40000 starting point.
        for i in 0..30_000 {
            let c = n.external_connect(80).unwrap();
            n.accept(l).unwrap();
            let p = n.peer_port(c);
            assert!(p >= 40000, "conn {i}: port {p} left the ephemeral range");
            if i > 0 {
                if p < prev {
                    assert_eq!(p, 40000, "wrap must land at the range bottom");
                    wrapped = true;
                } else {
                    assert_eq!(p, prev + 1, "ports must keep incrementing");
                }
            }
            prev = p;
        }
        assert!(wrapped, "test must cross 65535 to exercise the wrap");
    }
}
