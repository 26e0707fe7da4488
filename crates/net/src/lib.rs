//! # plf-net — event-driven socket front end for the plfd service
//!
//! The paper's likelihood kernels became a batched service in `plfd`;
//! this crate puts that service on the network. One epoll reactor
//! ([`server::NetServer`]) multiplexes thousands of client connections
//! onto a single [`PlfService`](plfd::PlfService), speaking a
//! length-prefixed CRC-framed binary protocol ([`wire`], [`proto`])
//! with per-tenant weighted fair queuing and token-bucket rate limits
//! at admission ([`tenant`]).
//!
//! Layer map:
//!
//! * [`wire`] — frame codec: `[magic][version][kind][len][payload][crc32]`,
//!   total (never panics) and incremental (handles torn frames).
//! * [`proto`] — typed request/response records over frames, including
//!   the remote mirror of [`SubmitError`](plfd::SubmitError): `Reject`
//!   frames carry `retry_after` + `jobs_ahead` verbatim so remote
//!   retry loops behave exactly like in-process ones.
//! * [`poll`] — thin epoll facade (raw syscall FFI; no new deps).
//! * [`tenant`] — WFQ virtual-time scheduler + token buckets.
//! * [`shutdown`] — the one [`ShutdownFlag`](shutdown::ShutdownFlag)
//!   the socket front end polls, wired to SIGINT/SIGTERM.
//! * [`server`] — the reactor: accept → decode → fair-queue → submit →
//!   poll tickets → write back, with graceful drain.
//! * [`client`] — blocking client with the shared retry contract.
//! * [`loadgen`] — multi-connection open-loop load generator behind
//!   `plfr loadgen --connect`, scaling to 10k+ concurrent connections.

#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod poll;
pub mod proto;
pub mod server;
pub mod shutdown;
pub mod tenant;
pub mod wire;

pub use client::{NetClient, ServerGreeting, SubmitParams};
pub use loadgen::{NetLoadConfig, NetLoadReport};
pub use proto::{RejectReason, Request, Response};
pub use server::{NetServer, NetServerConfig, NetServerReport};
pub use shutdown::ShutdownFlag;
pub use tenant::{FairQueue, TenantPolicy, TokenBucket};
pub use wire::{FrameDecoder, FrameError, FrameKind};
