//! # citesys-net — the network front end
//!
//! The paper frames data citation as a query-time **service** over an
//! evolving database; this crate is the serving layer. It is hermetic
//! (`std::net` only, no async runtime) and splits into:
//!
//! | module | contents |
//! |--------|----------|
//! | [`protocol`] | the shared command grammar ([`protocol::Command`]) + wire framing — one parser for the script runner, the stdin REPL and the TCP server, so the surfaces cannot drift |
//! | [`script`] | the stateful [`Interpreter`]: per-session state over a shareable [`SharedStore`] — a [`citesys_core::Store`] (versioned database, registry, plan caches, cached service, `--data-dir` durability: the one write path) plus the instruments and replication telemetry |
//! | [`group`] | cross-connection **group commit**: racing transactions coalesce into one merged changeset and one snapshot swap per commit window |
//! | [`server`] | the TCP [`Server`]: configuration, startup (recovery, committer, follower, metrics endpoint) and graceful shutdown |
//! | [`event`] | the one **transport**: an acceptor hands each connection to the least-loaded of a fixed set of event workers, which multiplex non-blocking sockets over the hermetic epoll shim, with per-connection sessions, idle timeouts, wire pipelining and `@tag` request tags |
//! | [`client`] | [`Connection`] + the `citesys client` script runner (sync and pipelined) |
//! | [`replication`] | WAL-shipping read replicas: primary-side feeds plus the `serve --follow` follower runtime, with bounded-lag accounting |
//! | [`obs`] | observability: the registry-backed [`obs::StoreObs`] instrument bundle (commit/replication counters, per-stage cite histograms, durability timings), the `serve --metrics` scrape responder, and the `--slow-cite-ms` log line |
//!
//! ## Quickstart
//!
//! ```
//! use citesys_net::client::Connection;
//! use citesys_net::protocol::Response;
//! use citesys_net::server::{Server, ServerConfig};
//!
//! let server = Server::spawn(ServerConfig::default()).unwrap();
//! let mut conn = Connection::connect(&server.local_addr().to_string()).unwrap();
//! conn.send("schema R(A:int)").unwrap();
//! conn.send("insert R(1)").unwrap();
//! conn.send("commit").unwrap();
//! conn.send("view V(A) :- R(A) | cite CV(D) :- D = 'x'").unwrap();
//! let reply = conn.send("cite Q(A) :- R(A)").unwrap();
//! match reply {
//!     Response::Ok(lines) => assert!(lines[0].contains("1 answer tuple(s)")),
//!     Response::Err { message, .. } => panic!("{message}"),
//! }
//! server.stop();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod event;
pub mod group;
pub mod obs;
pub mod protocol;
pub mod replication;
pub mod script;
pub mod server;

pub use client::Connection;
pub use group::{CommitAck, CommitTicket, GroupCommitHandle, GroupCommitter};
pub use obs::{spawn_metrics_server, StoreObs};
pub use protocol::{Command, LineReader, Response, WireErrorKind};
pub use script::{
    Interpreter, ScriptError, ScriptErrorKind, SessionControl, SessionReply, SharedStore,
};
pub use server::{Server, ServerConfig};
