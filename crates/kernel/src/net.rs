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
//! client bytes a bounded prefix at a time, so client→server is a
//! `VecDeque` that [`Net::server_read_with`] hands out as its two slices
//! and dequeues only once the reader accepted them. The client always
//! drains server→client whole, so that direction is a list of exact-size
//! chunks, one per server write: a write allocates its chunk once at its
//! final size (no doubling growth, no zero-fill of spare capacity), and a
//! receive of a lone chunk moves it out without copying a byte. A client
//! that never reads the bytes (a bulk-transfer data channel) connects
//! count-only ([`Net::external_connect_counting`]): that direction is then
//! a byte count, and a server write adds its length without copying or
//! allocating anything.

use std::collections::{BTreeMap, VecDeque};

/// Identifies a connection.
pub type ConnId = usize;
/// Identifies a listening socket.
pub type ListenerId = usize;

/// One established (or pending) connection.
#[derive(Debug, Clone, Default)]
pub struct Conn {
    to_server: VecDeque<u8>,
    to_client: ToClient,
    client_closed: bool,
    server_closed: bool,
    /// Synthetic peer port, reported by `accept`.
    pub peer_port: u16,
}

/// The server→client direction of a connection, fixed when the client
/// connects. Both kinds fit in the chunk list's three words, so a
/// connection is no larger for having a count-only mode.
#[derive(Debug, Clone)]
enum ToClient {
    /// Server writes not yet received, one exact-size chunk each.
    Chunks(Vec<Vec<u8>>),
    /// Count-only: how many bytes the server wrote that the client has not
    /// received. The bytes themselves are never kept.
    Count(usize),
}

impl Default for ToClient {
    fn default() -> Self {
        ToClient::Chunks(Vec::new())
    }
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
    /// `n` bytes were delivered.
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
        self.connect(port, ToClient::default())
    }

    /// [`Net::external_connect`] for a client that only counts what the
    /// server sends: server writes to this connection add their length to
    /// a count that [`Net::client_recv_len`] takes, and no byte is copied.
    /// The mode holds for the connection's lifetime.
    pub fn external_connect_counting(&mut self, port: u16) -> Option<ConnId> {
        self.connect(port, ToClient::Count(0))
    }

    fn connect(&mut self, port: u16, to_client: ToClient) -> Option<ConnId> {
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
            to_client,
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

    /// Whether a server-side read of `cid` would block now: nothing is
    /// queued and the client is still open.
    pub fn read_would_block(&self, cid: ConnId) -> bool {
        let c = &self.conns[cid];
        c.to_server.is_empty() && !c.client_closed
    }

    /// Server-side read of up to `len` queued client bytes: `deliver`
    /// gets them in stream order as at most two slices (the queue's ring
    /// halves), and they leave the queue only if it returns `Ok`. Reads
    /// validate their destination (a guest buffer mapping) inside
    /// `deliver`, so a faulting destination does not silently drop stream
    /// bytes. `deliver` is not called when nothing is queued.
    ///
    /// # Errors
    /// Returns `deliver`'s error, with the bytes still queued.
    pub fn server_read_with<E>(
        &mut self,
        cid: ConnId,
        len: usize,
        deliver: impl FnOnce(&[u8], &[u8]) -> Result<(), E>,
    ) -> Result<ReadOutcome, E> {
        let c = &mut self.conns[cid];
        if c.to_server.is_empty() {
            return Ok(if c.client_closed {
                ReadOutcome::Eof
            } else {
                ReadOutcome::WouldBlock
            });
        }
        let n = len.min(c.to_server.len());
        let (front, back) = c.to_server.as_slices();
        let m = n.min(front.len());
        deliver(&front[..m], &back[..n - m])?;
        c.to_server.drain(..n);
        Ok(ReadOutcome::Data(n))
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
    /// nor for an empty write, nor on a count-only connection, which only
    /// adds `len` to its count.
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
        match &mut c.to_client {
            ToClient::Chunks(chunks) => {
                let mut chunk = Vec::with_capacity(len);
                fill(&mut chunk);
                debug_assert_eq!(chunk.len(), len, "fill must append exactly len bytes");
                chunks.push(chunk);
            }
            ToClient::Count(queued) => *queued += len,
        }
        len
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
    /// as is; several are concatenated in write order. A count-only
    /// connection kept no bytes to hand over: it returns an empty buffer
    /// and leaves its count for [`Net::client_recv_len`].
    pub fn client_recv(&mut self, cid: ConnId) -> Vec<u8> {
        let ToClient::Chunks(chunks) = &mut self.conns[cid].to_client else {
            return Vec::new();
        };
        let mut chunks = std::mem::take(chunks);
        if chunks.len() == 1 {
            return chunks.pop().unwrap_or_default();
        }
        chunks.concat()
    }

    /// Count-only client-side receive: drains everything available like
    /// [`Net::client_recv`] but returns only its length, for a client that
    /// never reads the bytes (a bulk-transfer data channel). On a
    /// count-only connection it takes the count.
    pub fn client_recv_len(&mut self, cid: ConnId) -> usize {
        match &mut self.conns[cid].to_client {
            ToClient::Chunks(chunks) => std::mem::take(chunks).iter().map(Vec::len).sum(),
            ToClient::Count(queued) => std::mem::take(queued),
        }
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

    /// Copies up to `buf.len()` queued client bytes into `buf` and
    /// dequeues them only when `commit`; without it this is a peek.
    fn read(n: &mut Net, c: ConnId, buf: &mut [u8], commit: bool) -> ReadOutcome {
        let mut copied = 0;
        let r = n.server_read_with(c, buf.len(), |front, back| {
            copied = front.len() + back.len();
            buf[..front.len()].copy_from_slice(front);
            buf[front.len()..copied].copy_from_slice(back);
            if commit {
                Ok(())
            } else {
                Err(())
            }
        });
        r.unwrap_or(ReadOutcome::Data(copied))
    }

    /// The chunk list of a reading connection.
    fn chunks(n: &Net, c: ConnId) -> &Vec<Vec<u8>> {
        match &n.conns[c].to_client {
            ToClient::Chunks(chunks) => chunks,
            ToClient::Count(_) => panic!("conn {c} is count-only"),
        }
    }

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
        assert_eq!(read(&mut n, c, &mut buf, true), ReadOutcome::Data(3));
        assert_eq!(&buf, b"GET");
        assert_eq!(read(&mut n, c, &mut buf, true), ReadOutcome::Data(2));
        assert_eq!(&buf[..2], b" /");
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
        // A refused delivery leaves the stream as it was, any number of times.
        assert_eq!(read(&mut n, c, &mut buf, false), ReadOutcome::Data(5));
        assert_eq!(&buf, b"GET /");
        assert_eq!(read(&mut n, c, &mut buf, false), ReadOutcome::Data(5));
        assert_eq!(&buf, b"GET /");
        // An accepted one dequeues its prefix; the rest stays readable.
        assert_eq!(read(&mut n, c, &mut buf, true), ReadOutcome::Data(5));
        let mut rest = [0u8; 8];
        assert_eq!(read(&mut n, c, &mut rest, false), ReadOutcome::Data(5));
        assert_eq!(&rest[..5], b"index");
        // An over-long read takes what is queued.
        assert_eq!(read(&mut n, c, &mut rest, true), ReadOutcome::Data(5));
        // An empty queue reports EOF/WouldBlock without delivering.
        let never = |_: &[u8], _: &[u8]| -> Result<(), ()> { unreachable!() };
        assert_eq!(n.server_read_with(c, 8, never), Ok(ReadOutcome::WouldBlock));
        n.client_close(c);
        assert_eq!(n.server_read_with(c, 8, never), Ok(ReadOutcome::Eof));
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
            let all = read(&mut n, c, &mut buf, false);
            assert_eq!(all, ReadOutcome::Data(model.len()));
            assert!(buf[..model.len()].iter().eq(model.iter()));
            let mut short = [0u8; 5];
            assert_eq!(read(&mut n, c, &mut short, true), ReadOutcome::Data(5));
            assert!(short.iter().eq(model.iter().take(5)));
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
            assert_eq!(chunks(&n, c).capacity(), 0);
            assert!(n.client_recv(c).is_empty());
        }
        assert_eq!(got, sent);
        // An empty write queues nothing.
        assert_eq!(n.server_write_with(c, 0, |_| unreachable!()), 0);
        assert_eq!(chunks(&n, c).capacity(), 0);
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
        assert_eq!(chunks(&n, c).capacity(), 0);
        assert!(n.client_recv(c).is_empty());
        // A lone write comes back as the very chunk that was queued.
        n.server_write(c, &[9u8; 4096]);
        let ptr = chunks(&n, c)[0].as_ptr();
        let got = n.client_recv(c);
        assert_eq!(got, vec![9u8; 4096]);
        assert_eq!(got.as_ptr(), ptr, "a lone chunk must move, not copy");
    }

    #[test]
    fn count_only_connection_receives_the_lengths_a_reading_one_does() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let (r, k) = (
            n.external_connect(80).unwrap(),
            n.external_connect_counting(80).unwrap(),
        );
        n.accept(l).unwrap();
        n.accept(l).unwrap();
        // Writes per receive: none, an empty write, one, several, and
        // writes after the client closed (they vanish on both).
        let rounds: [&[usize]; 6] = [&[], &[0], &[4096], &[1, 0, 32768, 7], &[5], &[64, 9]];
        for (i, writes) in rounds.iter().enumerate() {
            if i == 4 {
                n.client_close(r);
                n.client_close(k);
            }
            for &len in *writes {
                let bytes = vec![i as u8; len];
                assert_eq!(n.server_write(r, &bytes), len);
                // A count-only write never asks for its bytes.
                assert_eq!(n.server_write_with(k, len, |_| unreachable!()), len);
            }
            assert_eq!(n.client_recv_len(k), n.client_recv(r).len(), "round {i}");
        }
        // No chunk was ever allocated for the count-only connection.
        assert!(matches!(n.conns[k].to_client, ToClient::Count(0)));
        // The count-only mode costs no room in a connection.
        assert_eq!(size_of::<ToClient>(), size_of::<Vec<Vec<u8>>>());
    }

    #[test]
    fn client_recv_on_a_count_only_connection_keeps_the_count() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let k = n.external_connect_counting(80).unwrap();
        n.accept(l).unwrap();
        n.server_write(k, b"150 ");
        n.server_write(k, &[7u8; 3000]);
        // There are no bytes to hand over; the count is left for
        // `client_recv_len`, which alone drains it.
        assert!(n.client_recv(k).is_empty());
        assert_eq!(n.client_recv_len(k), 3004);
        assert!(n.client_recv(k).is_empty());
        assert_eq!(n.client_recv_len(k), 0);
    }

    #[test]
    fn eof_after_client_close() {
        let mut n = Net::new();
        let l = n.listen(80, 4).unwrap();
        let c = n.external_connect(80).unwrap();
        n.accept(l).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(read(&mut n, c, &mut buf, true), ReadOutcome::WouldBlock);
        n.client_close(c);
        assert_eq!(read(&mut n, c, &mut buf, true), ReadOutcome::Eof);
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
