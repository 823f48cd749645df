//! The GridFTP server's control-channel session state machine.
//!
//! A [`Session`] consumes [`Command`]s and produces [`Reply`]s, enforcing
//! authentication, negotiating transfer settings (type/mode, TCP buffer,
//! parallelism, data channels, restart markers) and turning `RETR`/`STOR`
//! /`ERET` into [`TransferPlan`]s that the transfer manager executes over
//! the simulated network.

use serde::{Deserialize, Serialize};
use wanpred_logfmt::Operation;
use wanpred_storage::StorageServer;

use crate::protocol::{Command, Reply};

/// Static configuration of one GridFTP server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Server host name, e.g. `dpsslx04.lbl.gov`.
    pub host: String,
    /// Server address as logged in `SRC` fields of its peers.
    pub address: String,
}

impl ServerConfig {
    /// A server named `host`, reachable at `address`.
    pub fn new(host: impl Into<String>, address: impl Into<String>) -> Self {
        ServerConfig {
            host: host.into(),
            address: address.into(),
        }
    }
}

/// Session authentication state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AuthState {
    Fresh,
    AuthRequested,
    UserGiven,
    Authenticated,
}

/// Negotiated data-channel layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelMode {
    /// No data channel negotiated yet.
    None,
    /// Single passive channel.
    Passive,
    /// Striped passive (parallel) channels.
    StripedPassive,
    /// Active (client-specified address).
    Active,
    /// Striped active.
    StripedActive,
}

/// A fully negotiated transfer, ready for execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferPlan {
    /// File path on this server.
    pub path: String,
    /// Direction from this server's viewpoint.
    pub operation: Operation,
    /// Bytes to move (after partial-transfer clamping).
    pub bytes: u64,
    /// Byte offset of a partial transfer (0 for whole files).
    pub offset: u64,
    /// Parallel stream count.
    pub streams: u32,
    /// Per-stream TCP buffer size in bytes.
    pub tcp_buffer: u64,
    /// The file's logical volume.
    pub volume: String,
}

/// One control-channel session.
#[derive(Debug)]
pub struct Session {
    auth: AuthState,
    mode: char,
    ty: char,
    tcp_buffer: u64,
    streams: u32,
    channels: ChannelMode,
    rest_offset: u64,
    closed: bool,
}

/// Default per-stream TCP buffer if no `SBUF` is issued (untuned 16 KB,
/// as 2001 kernels shipped).
pub const DEFAULT_TCP_BUFFER: u64 = 16 * 1024;

impl Default for Session {
    fn default() -> Self {
        Session {
            auth: AuthState::Fresh,
            mode: 'S',
            ty: 'A',
            tcp_buffer: DEFAULT_TCP_BUFFER,
            streams: 1,
            channels: ChannelMode::None,
            rest_offset: 0,
            closed: false,
        }
    }
}

impl Session {
    /// A fresh, unauthenticated session.
    pub fn new() -> Self {
        Session::default()
    }

    /// Whether `QUIT` has been processed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether authentication completed.
    pub fn is_authenticated(&self) -> bool {
        self.auth == AuthState::Authenticated
    }

    /// Negotiated stream count.
    pub fn streams(&self) -> u32 {
        self.streams
    }

    /// Negotiated per-stream buffer.
    pub fn tcp_buffer(&self) -> u64 {
        self.tcp_buffer
    }

    /// Process one command against the server's storage; returns the
    /// reply and, for `RETR`/`STOR`/`ERET`, the transfer plan.
    pub fn handle(
        &mut self,
        cmd: &Command,
        storage: &StorageServer,
    ) -> (Reply, Option<TransferPlan>) {
        if self.closed {
            return (Reply::new(421, "Session closed"), None);
        }
        match cmd {
            Command::AuthGssapi => {
                self.auth = AuthState::AuthRequested;
                (Reply::new(334, "Using authentication type GSSAPI"), None)
            }
            Command::User(_) => match self.auth {
                AuthState::AuthRequested | AuthState::UserGiven => {
                    self.auth = AuthState::UserGiven;
                    (Reply::new(331, "Password required"), None)
                }
                _ => (Reply::new(530, "AUTH first"), None),
            },
            Command::Pass(_) => match self.auth {
                AuthState::UserGiven => {
                    self.auth = AuthState::Authenticated;
                    (Reply::new(230, "User logged in"), None)
                }
                _ => (Reply::new(503, "Bad sequence of commands"), None),
            },
            _ if !self.is_authenticated() => {
                (Reply::new(530, "Please login with AUTH/USER/PASS"), None)
            }
            Command::Type(c) => {
                if *c == 'I' {
                    self.ty = 'I';
                    (Reply::new(200, "Type set to I"), None)
                } else {
                    (Reply::new(504, "Only type I supported"), None)
                }
            }
            Command::Mode(c) => {
                if *c == 'S' || *c == 'E' {
                    self.mode = *c;
                    (Reply::new(200, format!("Mode set to {c}")), None)
                } else {
                    (Reply::new(504, "Only modes S and E supported"), None)
                }
            }
            Command::Sbuf(n) => {
                if *n == 0 {
                    (Reply::new(500, "Buffer must be positive"), None)
                } else {
                    self.tcp_buffer = *n;
                    (Reply::new(200, "Buffer size set"), None)
                }
            }
            Command::OptsParallelism(n) => {
                if self.mode != 'E' {
                    (Reply::new(536, "Parallelism requires MODE E"), None)
                } else {
                    self.streams = *n;
                    (Reply::new(200, "Parallelism set"), None)
                }
            }
            Command::Pasv => {
                self.channels = ChannelMode::Passive;
                (Reply::new(227, "Entering Passive Mode (0,0,0,0,0,0)"), None)
            }
            Command::Spas => {
                self.channels = ChannelMode::StripedPassive;
                (Reply::new(229, "Entering Striped Passive Mode"), None)
            }
            Command::Port(_) => {
                self.channels = ChannelMode::Active;
                (Reply::new(200, "PORT command successful"), None)
            }
            Command::Spor(_) => {
                self.channels = ChannelMode::StripedActive;
                (Reply::new(200, "SPOR command successful"), None)
            }
            Command::Rest(o) => {
                self.rest_offset = *o;
                (Reply::new(350, "Restart marker accepted"), None)
            }
            Command::Size(path) => match storage.catalog().lookup(path) {
                Ok(e) => (Reply::new(213, e.size.to_string()), None),
                Err(_) => (Reply::new(550, "No such file"), None),
            },
            Command::Retr(path) => self.plan_retrieve(path, None, storage),
            Command::EretPartial(off, len, path) => {
                self.plan_retrieve(path, Some((*off, *len)), storage)
            }
            Command::Stor(path) => {
                if self.channels == ChannelMode::None {
                    return (Reply::new(425, "Use PASV/SPAS first"), None);
                }
                if storage.catalog().volume_of(path).is_none() {
                    return (Reply::new(553, "Path outside any volume"), None);
                }
                let plan = TransferPlan {
                    path: path.clone(),
                    operation: Operation::Write,
                    bytes: 0, // filled in by the client side, which knows the size
                    offset: self.take_rest(),
                    streams: self.effective_streams(),
                    tcp_buffer: self.tcp_buffer,
                    volume: storage
                        .catalog()
                        .volume_of(path)
                        .expect("checked above")
                        .mount
                        .clone(),
                };
                (Reply::new(150, "Opening data connection"), Some(plan))
            }
            Command::Quit => {
                self.closed = true;
                (Reply::new(221, "Goodbye"), None)
            }
        }
    }

    fn plan_retrieve(
        &mut self,
        path: &str,
        partial: Option<(u64, u64)>,
        storage: &StorageServer,
    ) -> (Reply, Option<TransferPlan>) {
        if self.channels == ChannelMode::None {
            return (Reply::new(425, "Use PASV/SPAS first"), None);
        }
        let entry = match storage.catalog().lookup(path) {
            Ok(e) => e,
            Err(_) => return (Reply::new(550, "No such file"), None),
        };
        // Any nonzero offset at or past EOF is a 554 — the `off > 0`
        // half matters for zero-size files, where an unchecked offset
        // would wrap `entry.size - off`. Offset 0 into an empty file is
        // a legal zero-byte retrieve.
        let (offset, bytes) = match partial {
            Some((off, len)) => {
                if off > 0 && off >= entry.size {
                    return (Reply::new(554, "Offset beyond end of file"), None);
                }
                (off, len.min(entry.size - off))
            }
            None => {
                let off = self.take_rest();
                if off > 0 && off >= entry.size {
                    return (Reply::new(554, "Restart beyond end of file"), None);
                }
                (off, entry.size - off)
            }
        };
        let plan = TransferPlan {
            path: path.to_string(),
            operation: Operation::Read,
            bytes,
            offset,
            streams: self.effective_streams(),
            tcp_buffer: self.tcp_buffer,
            volume: storage
                .catalog()
                .volume_of(path)
                .map(|v| v.mount.clone())
                .unwrap_or_default(),
        };
        (Reply::new(150, "Opening data connection"), Some(plan))
    }

    /// Streams actually usable: parallelism needs striped channels or
    /// extended mode; stream mode forces one channel.
    fn effective_streams(&self) -> u32 {
        if self.mode == 'E' {
            self.streams
        } else {
            1
        }
    }

    fn take_rest(&mut self) -> u64 {
        std::mem::take(&mut self.rest_offset)
    }
}

/// Run the canonical authentication + tuning preamble on a session,
/// returning the replies (helper for clients and tests).
pub fn standard_preamble(
    session: &mut Session,
    storage: &StorageServer,
    buffer: u64,
    streams: u32,
) -> Vec<Reply> {
    let cmds = [
        Command::AuthGssapi,
        Command::User(":globus-mapping:".into()),
        Command::Pass("".into()),
        Command::Type('I'),
        Command::Mode('E'),
        Command::Sbuf(buffer),
        Command::OptsParallelism(streams),
        Command::Spas,
    ];
    cmds.iter().map(|c| session.handle(c, storage).0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanpred_storage::StorageServer;

    fn storage() -> StorageServer {
        StorageServer::vintage_with_paper_fileset("lbl")
    }

    fn authed_session(storage: &StorageServer) -> Session {
        let mut s = Session::new();
        let replies = standard_preamble(&mut s, storage, 1_000_000, 8);
        assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
        s
    }

    #[test]
    fn auth_sequence_enforced() {
        let st = storage();
        let mut s = Session::new();
        // Commands before auth are rejected.
        let (r, _) = s.handle(&Command::Retr("/home/ftp/vazhkuda/10MB".into()), &st);
        assert_eq!(r.code, 530);
        // PASS before USER is a bad sequence.
        let (r, _) = s.handle(&Command::AuthGssapi, &st);
        assert_eq!(r.code, 334);
        let (r, _) = s.handle(&Command::Pass("x".into()), &st);
        assert_eq!(r.code, 503);
        let (r, _) = s.handle(&Command::User("u".into()), &st);
        assert_eq!(r.code, 331);
        let (r, _) = s.handle(&Command::Pass("x".into()), &st);
        assert_eq!(r.code, 230);
        assert!(s.is_authenticated());
    }

    #[test]
    fn retr_produces_plan_with_negotiated_settings() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, plan) = s.handle(&Command::Retr("/home/ftp/vazhkuda/100MB".into()), &st);
        assert_eq!(r.code, 150);
        let plan = plan.unwrap();
        assert_eq!(plan.bytes, 102_400_000);
        assert_eq!(plan.streams, 8);
        assert_eq!(plan.tcp_buffer, 1_000_000);
        assert_eq!(plan.operation, Operation::Read);
        assert_eq!(plan.volume, "/home/ftp");
        assert_eq!(plan.offset, 0);
    }

    #[test]
    fn retr_missing_file_is_550() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, plan) = s.handle(&Command::Retr("/home/ftp/nope".into()), &st);
        assert_eq!(r.code, 550);
        assert!(plan.is_none());
    }

    #[test]
    fn retr_without_data_channel_is_425() {
        let st = storage();
        let mut s = Session::new();
        s.handle(&Command::AuthGssapi, &st);
        s.handle(&Command::User("u".into()), &st);
        s.handle(&Command::Pass("".into()), &st);
        let (r, _) = s.handle(&Command::Retr("/home/ftp/vazhkuda/10MB".into()), &st);
        assert_eq!(r.code, 425);
    }

    #[test]
    fn parallelism_requires_mode_e() {
        let st = storage();
        let mut s = Session::new();
        s.handle(&Command::AuthGssapi, &st);
        s.handle(&Command::User("u".into()), &st);
        s.handle(&Command::Pass("".into()), &st);
        let (r, _) = s.handle(&Command::OptsParallelism(8), &st);
        assert_eq!(r.code, 536);
        s.handle(&Command::Mode('E'), &st);
        let (r, _) = s.handle(&Command::OptsParallelism(8), &st);
        assert_eq!(r.code, 200);
    }

    #[test]
    fn stream_mode_forces_single_stream() {
        let st = storage();
        let mut s = authed_session(&st);
        s.handle(&Command::Mode('S'), &st);
        let (_, plan) = s.handle(&Command::Retr("/home/ftp/vazhkuda/10MB".into()), &st);
        assert_eq!(plan.unwrap().streams, 1);
    }

    #[test]
    fn rest_offsets_shrink_transfer_and_reset() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, _) = s.handle(&Command::Rest(10_000_000), &st);
        assert_eq!(r.code, 350);
        let (_, plan) = s.handle(&Command::Retr("/home/ftp/vazhkuda/100MB".into()), &st);
        let plan = plan.unwrap();
        assert_eq!(plan.offset, 10_000_000);
        assert_eq!(plan.bytes, 92_400_000);
        // Marker consumed: the next transfer is whole-file again.
        let (_, plan2) = s.handle(&Command::Retr("/home/ftp/vazhkuda/100MB".into()), &st);
        assert_eq!(plan2.unwrap().offset, 0);
    }

    #[test]
    fn eret_partial_clamps_length() {
        let st = storage();
        let mut s = authed_session(&st);
        let (_, plan) = s.handle(
            &Command::EretPartial(10_230_000, 999_999, "/home/ftp/vazhkuda/10MB".into()),
            &st,
        );
        assert_eq!(plan.unwrap().bytes, 10_000);
        let (r, _) = s.handle(
            &Command::EretPartial(99_999_999_999, 1, "/home/ftp/vazhkuda/10MB".into()),
            &st,
        );
        assert_eq!(r.code, 554);
    }

    /// Regression: a REST or ERET offset into a zero-size file used to
    /// evade the 554 guard (`off >= size && size > 0`) and underflow
    /// `entry.size - off`; it must reply 554. Offset 0 stays legal.
    #[test]
    fn zero_size_file_rest_and_eret_offsets() {
        let mut st = storage();
        st.catalog_mut().put_file("/home/ftp/empty", 0).unwrap();
        let mut s = authed_session(&st);

        // RETR of the empty file: a legal zero-byte plan.
        let (r, plan) = s.handle(&Command::Retr("/home/ftp/empty".into()), &st);
        assert_eq!(r.code, 150);
        assert_eq!(plan.unwrap().bytes, 0);

        // REST 1 into the empty file: 554, not an underflowed plan.
        let (r, _) = s.handle(&Command::Rest(1), &st);
        assert_eq!(r.code, 350);
        let (r, plan) = s.handle(&Command::Retr("/home/ftp/empty".into()), &st);
        assert_eq!(r.code, 554, "plan: {plan:?}");
        assert!(plan.is_none());

        // ERET with nonzero offset: same 554.
        let (r, plan) = s.handle(&Command::EretPartial(1, 10, "/home/ftp/empty".into()), &st);
        assert_eq!(r.code, 554, "plan: {plan:?}");
        assert!(plan.is_none());

        // ERET at offset 0 of the empty file: zero-byte plan, no error.
        let (r, plan) = s.handle(&Command::EretPartial(0, 10, "/home/ftp/empty".into()), &st);
        assert_eq!(r.code, 150);
        assert_eq!(plan.unwrap().bytes, 0);
    }

    #[test]
    fn stor_plans_write_into_volume() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, plan) = s.handle(&Command::Stor("/home/ftp/incoming/new".into()), &st);
        assert_eq!(r.code, 150);
        let plan = plan.unwrap();
        assert_eq!(plan.operation, Operation::Write);
        let (r, _) = s.handle(&Command::Stor("/etc/shadow".into()), &st);
        assert_eq!(r.code, 553);
    }

    #[test]
    fn size_query() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, _) = s.handle(&Command::Size("/home/ftp/vazhkuda/1GB".into()), &st);
        assert_eq!(r.code, 213);
        assert_eq!(r.text, "1024000000");
    }

    #[test]
    fn quit_closes_session() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, _) = s.handle(&Command::Quit, &st);
        assert_eq!(r.code, 221);
        assert!(s.is_closed());
        let (r, _) = s.handle(&Command::Pasv, &st);
        assert_eq!(r.code, 421);
    }

    #[test]
    fn type_a_rejected() {
        let st = storage();
        let mut s = authed_session(&st);
        let (r, _) = s.handle(&Command::Type('A'), &st);
        assert_eq!(r.code, 504);
    }
}
