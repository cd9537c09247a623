//! # sempe-service — SeMPE-as-a-service
//!
//! The reproduction's evaluation stack (WIR front end, three code
//! generators, cycle-level simulator, attack models) packaged as a
//! concurrent daemon: line-delimited JSON over TCP served by a
//! readiness-driven event loop (std-only epoll wrapper, no
//! per-connection threads), a bounded job queue with explicit
//! backpressure, a worker pool of reusable simulator arenas, and a
//! content-addressed result cache. Connections speak the in-order v1
//! protocol by default; a `hello` upgrade unlocks v2 — pipelined
//! requests, out-of-order responses matched by id, and streamed
//! per-trial/per-lane frames for `batch`/`sweep` (see `docs/scaling.md`).
//!
//! The question SeMPE answers — *is this program leaking, and what does
//! closing the leak cost on which backend?* — is inherently
//! per-workload/per-backend, i.e. request/response shaped. This crate
//! makes it queryable:
//!
//! | request | answers |
//! |---|---|
//! | `compile` | what does this source lower to on a backend? |
//! | `run` | cycles / committed / stats / outputs on one backend |
//! | `sweep` | paper-style overhead ratios across all three backends |
//! | `attack` | can the timing / branch-predictor attacker recover the secret? |
//! | `batch` | one program under N input vectors on the fork server |
//! | `stats` | queue depth, cache hit rate, worker utilization |
//! | `shutdown` | clean exit |
//!
//! See `docs/protocol.md` for the wire format and every response shape,
//! and the `sempe-serve` / `sempe-client` binaries for the CLI.
//!
//! ## Example (in-process)
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use sempe_service::{Server, ServiceConfig};
//!
//! let server = Server::start(&ServiceConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
//! writeln!(conn, r#"{{"type":"stats"}}"#).unwrap();
//! let mut line = String::new();
//! BufReader::new(conn).read_line(&mut line).unwrap();
//! assert!(line.starts_with(r#"{"ok":true"#));
//! server.shutdown();
//! server.join();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod conn;
mod event_loop;
pub mod exec;
pub mod fault;
pub mod net;
mod pool;
pub mod protocol;
pub mod router;
pub mod server;
pub mod sync;

pub use cache::{CacheKey, ResultCache};
pub use exec::{cache_key, execute, Arena, ForkCache};
pub use fault::{FaultInjector, FaultPlan, FaultSite};
pub use protocol::{BackendSel, Envelope, ErrorCode, Request, ServiceError};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerHandle, ServiceConfig};
