//! # lbr-net — event-driven HTTP/1.1 serving for the LBR endpoint
//!
//! A zero-dependency connection layer replacing thread-per-request,
//! connection-per-request serving with a single epoll readiness loop:
//!
//! - **Keep-alive + pipelining.** Requests and responses are
//!   `Content-Length`-framed, so one TCP connection carries many
//!   exchanges and clients may pipeline requests back-to-back;
//!   responses always come back in request order (the loop keeps at
//!   most one request per connection in flight).
//! - **Admission control.** Parsed requests pass through a bounded
//!   queue before a worker thread executes them. When the queue is
//!   full the loop answers `503 Service Unavailable` with a
//!   `Retry-After` header inline — overload sheds work in
//!   microseconds instead of queueing it invisibly.
//! - **Deadlines.** Every admitted request carries an absolute
//!   deadline. Requests that exhaust it while queued are answered
//!   `504 Gateway Timeout` without executing; handlers receive the
//!   deadline so execution engines can cut long joins short.
//! - **Timeouts.** Connections that dribble an incomplete request get
//!   `408 Request Timeout` (slow-loris defense); idle keep-alive
//!   connections are reaped after a configurable grace.
//! - **Strict framing.** Malformed bytes between pipelined requests
//!   are answered `400` and the connection closes — the stream is
//!   never resynchronized by guesswork.
//!
//! The crate is deliberately free of external dependencies: the epoll
//! and eventfd bindings are hand-declared in `sys` against the C
//! library the binary already links, and everything above them is safe
//! Rust over `std::net` types.
//!
//! ## Layering
//!
//! `sys` (FFI) → [`poller`] ([`Poller`]/[`Waker`]) → [`server`]
//! ([`NetServer`] readiness loop + worker pool) with [`http`]
//! (incremental [`RequestParser`], [`Response`] encoder), [`queue`]
//! ([`AdmissionQueue`]) and [`metrics`] ([`LatencyHistogram`],
//! [`NetCounters`]) alongside. Applications implement [`Handler`] and
//! never touch a socket.

pub mod http;
pub mod metrics;
pub mod poller;
pub mod queue;
pub mod server;
mod sys;

pub use http::{
    parse_form, percent_decode, reason, HttpError, Parse, Request, RequestParser, Response,
    MAX_BODY, MAX_HEAD, MAX_HEADERS,
};
pub use metrics::{LatencyHistogram, LatencySummary, NetCounters};
pub use poller::{Event, Interest, Poller, Waker};
pub use queue::{AdmissionQueue, PushError};
pub use server::{Handler, NetServer, ServerConfig, Shutdown};
