//! `ftpd` — the vsftpd analogue: an FTP server with per-transfer passive
//! data sockets, driven by a dkftpbench-style download workload.
//!
//! vsftpd-relevant structure (Table 4's vsFTPd column):
//!
//! * per-session privilege drop (`setuid`/`setgid`, paper: 12 each);
//! * a **new passive data socket per transfer** — `socket`, `bind`,
//!   `listen`, `accept` each fire once per `RETR`, which is why vsftpd's
//!   Table 4 column shows them in similar counts (85/77/77/87);
//! * file downloads stream through `open` + `read` + `write` chunks.
//!
//! Protocol (simplified FTP on one control connection):
//! `USER x` → `331`, `PASS y` → `230`, `PASV` → `227 <port>`,
//! `RETR <path>` → `150`, data streamed on the announced port, `226`;
//! `QUIT` → `221`.

use std::sync::{Arc, OnceLock};

/// Control-connection port.
pub const PORT: u16 = 21;

/// First passive data port.
pub const PASV_BASE: u16 = 10_000;

/// Path of the benchmark download file.
pub const FILE_PATH: &str = "/srv/ftp/payload.bin";

/// Size of the download file. The paper fetches 100 MB; the simulator
/// streams a scaled-down 16 MiB file and the harness scales the reported
/// seconds accordingly (DESIGN.md substitution table).
pub const FILE_BYTES: usize = 16 * 1024 * 1024;

/// Contents of the download file: a deterministic byte pattern, built once
/// per process and shared (copy-on-write) by every world that installs it,
/// the way tenants share one compiled image.
pub fn payload() -> Arc<Vec<u8>> {
    static PAYLOAD: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    Arc::clone(
        PAYLOAD.get_or_init(|| Arc::new((0..FILE_BYTES).map(|i| (i * 31 % 251) as u8).collect())),
    )
}

/// The MiniC source.
pub const SOURCE: &str = r#"
// ---- ftpd: a passive-mode FTP server (vsftpd analogue) ----

long next_pasv_port;
long g_sessions;
long g_authed;

// Per-chunk transfer filter, dispatched through a code pointer (vsftpd's
// ASCII/binary-mode handlers).
fnptr xfer_filter;

long filter_binary(long n) { return n; }
long filter_ascii(long n) { return n; }

struct ftp_cmd { fnptr handler; };
struct ftp_cmd cmd_table[5];

void drop_privileges() {
    setgid(99);
    setuid(99);
}

long open_pasv_listener(long *port_out) {
    long fd;
    long sa[2];
    long port;
    port = next_pasv_port;
    next_pasv_port = next_pasv_port + 1;
    fd = socket(2, 1, 0);
    sa[0] = 2 | port * 65536;
    bind(fd, sa, 16);
    listen(fd, 4);
    *port_out = port;
    return fd;
}

void stream_file(long data_conn, char *path) {
    long fd;
    char chunk[32768];
    long n;
    fd = open(path, 0, 0);
    if (fd < 0) { return; }
    while (1) {
        n = read(fd, chunk, 32768);
        if (n <= 0) { break; }
        n = xfer_filter(n);
        write(data_conn, chunk, n);
    }
    close(fd);
}

void do_retr(long ctrl, char *path) {
    long pasv_fd;
    long data_conn;
    long port;
    char msg[64];
    char num[24];
    pasv_fd = open_pasv_listener(&port);
    strcpy(msg, "227 ");
    itoa(port, num);
    strcat(msg, num);
    strcat(msg, "\n");
    write(ctrl, msg, strlen(msg));
    data_conn = accept(pasv_fd, 0, 0);
    write(ctrl, "150 sending\n", 12);
    stream_file(data_conn, path);
    close(data_conn);
    close(pasv_fd);
    write(ctrl, "226 done\n", 9);
}

// Command handlers, dispatched through the cmd_table function-pointer
// array (vsftpd keeps similar command tables) — the corruptible indirect
// callsite the NEWTON CsCFI scenario targets.
long c_user(long ctrl, char *buf) {
    write(ctrl, "331 need password\n", 18);
    return 1;
}

long c_pass(long ctrl, char *buf) {
    g_authed = 1;
    write(ctrl, "230 logged in\n", 14);
    return 1;
}

long c_retr(long ctrl, char *buf) {
    char path[128];
    if (!g_authed) {
        write(ctrl, "530 not logged in\n", 18);
        return 1;
    }
    long i;
    i = 5;
    long j;
    j = 0;
    while (buf[i] != '\n' && buf[i] != '\r' && buf[i] != 0 && j < 120) {
        path[j] = buf[i];
        i = i + 1;
        j = j + 1;
    }
    path[j] = 0;
    do_retr(ctrl, path);
    return 1;
}

long c_quit(long ctrl, char *buf) {
    write(ctrl, "221 bye\n", 8);
    return 0;
}

long c_unknown(long ctrl, char *buf) {
    write(ctrl, "502 no\n", 7);
    return 1;
}

long classify(char *buf) {
    if (starts_with(buf, "USER ")) { return 0; }
    if (starts_with(buf, "PASS ")) { return 1; }
    if (starts_with(buf, "RETR ")) { return 2; }
    if (starts_with(buf, "QUIT")) { return 3; }
    return 4;
}

void session(long ctrl) {
    char buf[160];
    long n;
    long idx;
    g_authed = 0;
    g_sessions = g_sessions + 1;
    drop_privileges();
    write(ctrl, "220 ftpd ready\n", 15);
    while (1) {
        n = read(ctrl, buf, 159);
        if (n <= 0) { return; }
        buf[n] = 0;
        idx = classify(buf);
        if (!cmd_table[idx].handler(ctrl, buf)) { return; }
    }
}

long main() {
    long listener;
    long sa[2];
    long ctrl;

    next_pasv_port = 10000;
    g_sessions = 0;
    xfer_filter = filter_binary;
    if (g_sessions > 1000000) { xfer_filter = filter_ascii; }
    cmd_table[0].handler = c_user;
    cmd_table[1].handler = c_pass;
    cmd_table[2].handler = c_retr;
    cmd_table[3].handler = c_quit;
    cmd_table[4].handler = c_unknown;

    listener = socket(2, 1, 0);
    sa[0] = 2 | 21 * 65536;
    bind(listener, sa, 16);
    listen(listener, 16);

    while (1) {
        ctrl = accept(listener, 0, 0);
        if (ctrl < 0) { continue; }
        session(ctrl);
        close(ctrl);
    }
    return 0;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_compiles() {
        let m = bastion_minic::compile_program("ftpd", &[SOURCE]).unwrap();
        assert!(m.func_by_name("do_retr").is_some());
        assert!(m.func_by_name("drop_privileges").is_some());
    }
}
