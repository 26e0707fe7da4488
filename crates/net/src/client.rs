//! Blocking client for the plf-net protocol.
//!
//! [`NetClient`] is the remote counterpart of calling
//! [`PlfService::submit`](plfd::PlfService::submit) in-process: it
//! speaks the framed protocol over one TCP connection, and its
//! [`NetClient::submit_and_wait`] drives the *same*
//! [`RetryPolicy`](plfd::RetryPolicy) contract — a `Reject` frame's
//! `retry_after`/`jobs_ahead` hints come verbatim from
//! [`SubmitError`](plfd::SubmitError), so a remote caller backs off
//! exactly like a local one. Used by the network mode of
//! `plfr loadgen` and by the integration tests; the high-throughput
//! 10k-connection path lives in [`crate::loadgen`] instead (this type
//! is deliberately simple and blocking).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use plf_phylo::splitmix64;
use plfd::RetryPolicy;

use crate::proto::{Request, Response};
use crate::wire::FrameDecoder;

/// The `ServerInfo` greeting every connection receives on accept.
#[derive(Debug, Clone)]
pub struct ServerGreeting {
    /// Service admission queue capacity.
    pub queue_capacity: u64,
    /// Worker pool size.
    pub workers: u64,
    /// Device-sized batching unit in patterns.
    pub unit_patterns: u64,
    /// Taxa names of the served dataset; trees submitted over this
    /// connection must use exactly these leaf names.
    pub taxa: Vec<String>,
}

/// One job submission's parameters (the tree goes as Newick text).
#[derive(Debug, Clone)]
pub struct SubmitParams {
    /// Accounting principal / fair-share bucket.
    pub tenant: String,
    /// `true` → high-priority lane.
    pub high_priority: bool,
    /// Relative deadline, if any.
    pub deadline: Option<Duration>,
    /// Idempotency key; [`NetClient::submit_and_wait`] generates a
    /// stable one when absent so its retries never double-execute.
    pub idempotency_key: Option<String>,
    /// The tree to score, as Newick over the server's taxa.
    pub newick: String,
}

fn bad_data(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A nonce that distinguishes this connection's auto-generated
/// idempotency keys from every other connection's — including past
/// processes, since the server dedups keys globally and across
/// restarts via the journal. Mixes wall-clock nanos, the pid, the
/// ephemeral local port, and a process-wide counter so two clients
/// connecting in the same instant still diverge.
fn connection_nonce(stream: &TcpStream) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let port = stream.local_addr().map(|a| a.port() as u64).unwrap_or(0);
    // splitmix64 spreads the structured inputs over all bits.
    splitmix64(
        nanos
            ^ (u64::from(std::process::id()) << 32)
            ^ (port << 16)
            ^ SEQ.fetch_add(1, Ordering::Relaxed),
    )
}

/// A blocking connection to a [`NetServer`](crate::server::NetServer).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    greeting: ServerGreeting,
    /// Responses read while waiting for a different job.
    stashed: VecDeque<Response>,
    next_job: u64,
    /// Per-connection salt for auto-generated idempotency keys (the
    /// server dedups keys globally, so `client_job` alone would
    /// collide across connections).
    nonce: u64,
}

impl NetClient {
    /// Connect and read the `ServerInfo` greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let nonce = connection_nonce(&stream);
        let mut client = NetClient {
            stream,
            decoder: FrameDecoder::new(),
            greeting: ServerGreeting {
                queue_capacity: 0,
                workers: 0,
                unit_patterns: 0,
                taxa: Vec::new(),
            },
            stashed: VecDeque::new(),
            next_job: 1,
            nonce,
        };
        match client.recv()? {
            Response::ServerInfo {
                queue_capacity,
                workers,
                unit_patterns,
                taxa,
            } => {
                client.greeting = ServerGreeting {
                    queue_capacity,
                    workers,
                    unit_patterns,
                    taxa,
                };
                Ok(client)
            }
            other => Err(bad_data(format!(
                "expected ServerInfo greeting, got {other:?}"
            ))),
        }
    }

    /// The greeting this connection received.
    pub fn greeting(&self) -> &ServerGreeting {
        &self.greeting
    }

    /// Bound how long [`NetClient::recv`] blocks (None = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send a Submit frame; returns the connection-local job id to
    /// correlate the eventual response.
    pub fn submit(&mut self, params: &SubmitParams) -> io::Result<u64> {
        let client_job = self.next_job;
        self.next_job += 1;
        self.submit_as(client_job, params)?;
        Ok(client_job)
    }

    /// Send a Submit frame under a caller-chosen job id (retries reuse
    /// the id so responses stay correlated).
    pub fn submit_as(&mut self, client_job: u64, params: &SubmitParams) -> io::Result<()> {
        let request = Request::Submit {
            client_job,
            tenant: params.tenant.clone(),
            priority: if params.high_priority { 1 } else { 0 },
            deadline_ns: params
                .deadline
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            idempotency_key: params.idempotency_key.clone().unwrap_or_default(),
            newick: params.newick.clone(),
        };
        self.stream.write_all(&request.encode())
    }

    /// Send a Cancel frame for a previously submitted job.
    pub fn cancel(&mut self, client_job: u64) -> io::Result<()> {
        self.stream.write_all(&Request::Cancel { client_job }.encode())
    }

    /// Block until the next response frame arrives.
    pub fn recv(&mut self) -> io::Result<Response> {
        if let Some(stashed) = self.stashed.pop_front() {
            return Ok(stashed);
        }
        let mut chunk = [0u8; 8 * 1024];
        loop {
            match self.decoder.next_frame().map_err(bad_data)? {
                Some(frame) => return Response::decode(&frame).map_err(bad_data),
                None => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.decoder.feed(chunk.get(..n).unwrap_or(&[]));
                }
            }
        }
    }

    /// Block until the response for `client_job` arrives, stashing
    /// unrelated responses (other jobs on this connection) for later
    /// `recv` calls. `Draining` notices are skipped.
    pub fn wait_for(&mut self, client_job: u64) -> io::Result<Response> {
        // Check the stash first, then the wire.
        if let Some(i) = self
            .stashed
            .iter()
            .position(|r| r.client_job() == Some(client_job))
        {
            return Ok(self.stashed.remove(i).unwrap_or(Response::Draining));
        }
        loop {
            let response = {
                // Bypass the stash: recv() would replay what we just
                // stashed and spin.
                let mut chunk = [0u8; 8 * 1024];
                loop {
                    match self.decoder.next_frame().map_err(bad_data)? {
                        Some(frame) => break Response::decode(&frame).map_err(bad_data)?,
                        None => {
                            let n = self.stream.read(&mut chunk)?;
                            if n == 0 {
                                return Err(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "server closed the connection",
                                ));
                            }
                            self.decoder.feed(chunk.get(..n).unwrap_or(&[]));
                        }
                    }
                }
            };
            match response.client_job() {
                Some(id) if id == client_job => return Ok(response),
                Some(_) => self.stashed.push_back(response),
                None => {} // Draining / ServerInfo notices: skip.
            }
        }
    }

    /// Submit and wait for a terminal response, retrying retryable
    /// `Reject`s under `retry` with the server's own `retry_after`
    /// hint — the remote mirror of the in-process
    /// [`RetryPolicy`] loop in `plfd::loadgen`.
    pub fn submit_and_wait(
        &mut self,
        params: &SubmitParams,
        retry: &RetryPolicy,
    ) -> io::Result<Response> {
        let client_job = self.next_job;
        self.next_job += 1;
        // Retries must dedup server-side: pin an idempotency key now.
        // The connection nonce keeps it from colliding with other
        // connections' auto-keys in the server's global dedup map.
        let mut params = params.clone();
        if params.idempotency_key.is_none() {
            params.idempotency_key = Some(format!("net-{:016x}-{client_job}", self.nonce));
        }
        let mut attempt: u32 = 0;
        loop {
            self.submit_as(client_job, &params)?;
            let response = self.wait_for(client_job)?;
            match &response {
                Response::Reject {
                    reason,
                    retry_after_ns,
                    ..
                } if reason.is_retryable() && retry.allows(attempt) => {
                    let hint = if *retry_after_ns > 0 {
                        Some(Duration::from_nanos(*retry_after_ns))
                    } else {
                        None
                    };
                    std::thread::sleep(retry.backoff(attempt, hint));
                    attempt += 1;
                }
                _ => return Ok(response),
            }
        }
    }
}
