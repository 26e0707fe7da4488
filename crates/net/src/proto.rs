//! Typed request/response records carried in frame payloads.
//!
//! One [`Request`] or [`Response`] maps to exactly one frame; the
//! frame's kind byte is the variant discriminator, so payloads carry
//! only the variant's fields. Encoding is explicit field-by-field
//! little-endian (no serde on the wire — the format is the contract,
//! not an implementation detail), and decoding is total: malformed
//! payloads return [`WireError`], never panic.
//!
//! The admission-control story mirrors the in-process API exactly
//! (DESIGN.md §16): a [`Response::Reject`] carries the same
//! `retry_after` and `jobs_ahead` hints `SubmitError` exposes, plus a
//! [`RejectReason`] distinguishing hard capacity, adaptive shed,
//! per-tenant rate limiting, drain, and closure — so a remote client's
//! `RetryPolicy` behaves bit-for-bit like an in-process caller's.

use crate::wire::{encode_frame, Frame, FrameKind, WireError, WireReader, WireWriter};
use std::time::Duration;

/// Why a submission was refused; wire value is the listed discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// Admission queue at hard capacity (`SubmitError::QueueFull`).
    QueueFull = 0,
    /// Adaptive load shed (`SubmitError::Overloaded`).
    Overloaded = 1,
    /// The tenant's token bucket is empty and its pending window is
    /// full; retry after the bucket refills.
    RateLimited = 2,
    /// The server is draining; it will not admit new work.
    Draining = 3,
    /// The service is closed (`SubmitError::Closed`).
    Closed = 4,
}

impl RejectReason {
    /// Decode the wire byte.
    pub fn from_u8(b: u8) -> Option<RejectReason> {
        Some(match b {
            0 => RejectReason::QueueFull,
            1 => RejectReason::Overloaded,
            2 => RejectReason::RateLimited,
            3 => RejectReason::Draining,
            4 => RejectReason::Closed,
            _ => return None,
        })
    }

    /// Whether a client should retry the same submission later (the
    /// same contract as `SubmitError::is_retryable`).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            RejectReason::QueueFull | RejectReason::Overloaded | RejectReason::RateLimited
        )
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one evaluation job.
    Submit {
        /// Client-chosen correlation id, echoed on every response for
        /// this job; unique per connection.
        client_job: u64,
        /// Accounting principal; drives fair-share scheduling and the
        /// per-tenant metrics breakdown.
        tenant: String,
        /// `0` = normal lane, `1` = high-priority lane.
        priority: u8,
        /// Relative deadline in nanoseconds; `0` = none.
        deadline_ns: u64,
        /// Idempotency key for safe retries across rejects and server
        /// restarts; empty = none.
        idempotency_key: String,
        /// The tree to score, as Newick over the server dataset's taxa.
        newick: String,
    },
    /// Best-effort cancel of a previously submitted job.
    Cancel {
        /// The `client_job` of the submission to cancel.
        client_job: u64,
    },
}

impl Request {
    /// Encode into a complete wire frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Submit {
                client_job,
                tenant,
                priority,
                deadline_ns,
                idempotency_key,
                newick,
            } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                w.put_str(tenant);
                w.put_u8(*priority);
                w.put_u64(*deadline_ns);
                w.put_str(idempotency_key);
                w.put_str(newick);
                encode_frame(FrameKind::Submit, &w.into_bytes())
            }
            Request::Cancel { client_job } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                encode_frame(FrameKind::Cancel, &w.into_bytes())
            }
        }
    }

    /// Decode a request frame's payload.
    pub fn decode(frame: &Frame) -> Result<Request, WireError> {
        let mut r = WireReader::new(&frame.payload);
        let req = match frame.kind {
            FrameKind::Submit => Request::Submit {
                client_job: r.get_u64()?,
                tenant: r.get_str()?,
                priority: r.get_u8()?,
                deadline_ns: r.get_u64()?,
                idempotency_key: r.get_str()?,
                newick: r.get_str()?,
            },
            FrameKind::Cancel => Request::Cancel {
                client_job: r.get_u64()?,
            },
            other => return Err(WireError::BadTag(other as u8)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Sent once immediately after accept: everything a remote client
    /// needs to submit work without a local copy of the alignment.
    ServerInfo {
        /// Admission queue capacity, for client-side pacing.
        queue_capacity: u64,
        /// Worker count in the service pool.
        workers: u64,
        /// Device batching unit, in patterns.
        unit_patterns: u64,
        /// Taxon names of the served dataset, in alignment order;
        /// submitted trees must use these leaf names.
        taxa: Vec<String>,
    },
    /// Job completed with a log-likelihood.
    Completed {
        /// Echo of the submission's `client_job`.
        client_job: u64,
        /// Bit-exact tree log-likelihood.
        ln_likelihood: f64,
        /// Queue + batch wait before evaluation, nanoseconds.
        wait_ns: u64,
        /// Evaluation time, nanoseconds.
        service_ns: u64,
        /// Backend that evaluated the job.
        backend: String,
    },
    /// Evaluation failed after retries and fallbacks.
    Failed {
        /// Echo of the submission's `client_job`.
        client_job: u64,
        /// Human-readable failure description.
        error: String,
    },
    /// Cancelled before evaluation.
    Cancelled {
        /// Echo of the submission's `client_job`.
        client_job: u64,
    },
    /// Deadline passed before evaluation started.
    DeadlineMissed {
        /// Echo of the submission's `client_job`.
        client_job: u64,
    },
    /// Admission refused with the in-process hints.
    Reject {
        /// Echo of the submission's `client_job`.
        client_job: u64,
        /// Refusal class.
        reason: RejectReason,
        /// Suggested backoff before resubmitting, nanoseconds — the
        /// queue's `retry_after` hint, verbatim.
        retry_after_ns: u64,
        /// Jobs ahead in the refused lane, verbatim from the queue.
        jobs_ahead: u64,
    },
    /// Request-level error (malformed payload, bad tree, journal
    /// failure). `client_job` is `0` when the request could not be
    /// parsed far enough to recover one.
    Error {
        /// Echo of the submission's `client_job`, or `0`.
        client_job: u64,
        /// What went wrong.
        message: String,
    },
    /// Graceful drain has begun: in-flight jobs still resolve, new
    /// submissions will be rejected with [`RejectReason::Draining`].
    Draining,
}

impl Response {
    /// Encode into a complete wire frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::ServerInfo {
                queue_capacity,
                workers,
                unit_patterns,
                taxa,
            } => {
                let mut w = WireWriter::new();
                w.put_u64(*queue_capacity);
                w.put_u64(*workers);
                w.put_u64(*unit_patterns);
                w.put_u32(taxa.len() as u32);
                for t in taxa {
                    w.put_str(t);
                }
                encode_frame(FrameKind::ServerInfo, &w.into_bytes())
            }
            Response::Completed {
                client_job,
                ln_likelihood,
                wait_ns,
                service_ns,
                backend,
            } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                w.put_f64(*ln_likelihood);
                w.put_u64(*wait_ns);
                w.put_u64(*service_ns);
                w.put_str(backend);
                encode_frame(FrameKind::Completed, &w.into_bytes())
            }
            Response::Failed { client_job, error } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                w.put_str(error);
                encode_frame(FrameKind::Failed, &w.into_bytes())
            }
            Response::Cancelled { client_job } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                encode_frame(FrameKind::Cancelled, &w.into_bytes())
            }
            Response::DeadlineMissed { client_job } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                encode_frame(FrameKind::DeadlineMissed, &w.into_bytes())
            }
            Response::Reject {
                client_job,
                reason,
                retry_after_ns,
                jobs_ahead,
            } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                w.put_u8(*reason as u8);
                w.put_u64(*retry_after_ns);
                w.put_u64(*jobs_ahead);
                encode_frame(FrameKind::Reject, &w.into_bytes())
            }
            Response::Error {
                client_job,
                message,
            } => {
                let mut w = WireWriter::new();
                w.put_u64(*client_job);
                w.put_str(message);
                encode_frame(FrameKind::Error, &w.into_bytes())
            }
            Response::Draining => encode_frame(FrameKind::Draining, &[]),
        }
    }

    /// Decode a response frame's payload.
    pub fn decode(frame: &Frame) -> Result<Response, WireError> {
        let mut r = WireReader::new(&frame.payload);
        let resp = match frame.kind {
            FrameKind::ServerInfo => {
                let queue_capacity = r.get_u64()?;
                let workers = r.get_u64()?;
                let unit_patterns = r.get_u64()?;
                let n = r.get_u32()? as usize;
                let mut taxa = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    taxa.push(r.get_str()?);
                }
                Response::ServerInfo {
                    queue_capacity,
                    workers,
                    unit_patterns,
                    taxa,
                }
            }
            FrameKind::Completed => Response::Completed {
                client_job: r.get_u64()?,
                ln_likelihood: r.get_f64()?,
                wait_ns: r.get_u64()?,
                service_ns: r.get_u64()?,
                backend: r.get_str()?,
            },
            FrameKind::Failed => Response::Failed {
                client_job: r.get_u64()?,
                error: r.get_str()?,
            },
            FrameKind::Cancelled => Response::Cancelled {
                client_job: r.get_u64()?,
            },
            FrameKind::DeadlineMissed => Response::DeadlineMissed {
                client_job: r.get_u64()?,
            },
            FrameKind::Reject => {
                let client_job = r.get_u64()?;
                let reason_byte = r.get_u8()?;
                let reason =
                    RejectReason::from_u8(reason_byte).ok_or(WireError::BadTag(reason_byte))?;
                Response::Reject {
                    client_job,
                    reason,
                    retry_after_ns: r.get_u64()?,
                    jobs_ahead: r.get_u64()?,
                }
            }
            FrameKind::Error => Response::Error {
                client_job: r.get_u64()?,
                message: r.get_str()?,
            },
            FrameKind::Draining => Response::Draining,
            other => return Err(WireError::BadTag(other as u8)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// The `retry_after` hint as a [`Duration`], if this is a reject.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Response::Reject { retry_after_ns, .. } => {
                Some(Duration::from_nanos(*retry_after_ns))
            }
            _ => None,
        }
    }

    /// The connection-local job id this response is about, if it is a
    /// per-job response (connection-scoped notices like `ServerInfo`
    /// and `Draining` carry none).
    pub fn client_job(&self) -> Option<u64> {
        match self {
            Response::Completed { client_job, .. }
            | Response::Failed { client_job, .. }
            | Response::Cancelled { client_job }
            | Response::DeadlineMissed { client_job }
            | Response::Reject { client_job, .. }
            | Response::Error { client_job, .. } => Some(*client_job),
            Response::ServerInfo { .. } | Response::Draining => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameDecoder;
    use proptest::prelude::*;

    fn roundtrip_request(req: &Request) -> Request {
        let wire = req.encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frame = dec.next_frame().expect("frame").expect("complete");
        Request::decode(&frame).expect("decode")
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let wire = resp.encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frame = dec.next_frame().expect("frame").expect("complete");
        Response::decode(&frame).expect("decode")
    }

    #[test]
    fn submit_roundtrips() {
        let req = Request::Submit {
            client_job: 42,
            tenant: "tenant-a".into(),
            priority: 1,
            deadline_ns: 5_000_000,
            idempotency_key: "lg-7-42".into(),
            newick: "((a:0.1,b:0.2):0.05,c:0.3,d:0.4);".into(),
        };
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn reject_reasons_roundtrip() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::Overloaded,
            RejectReason::RateLimited,
            RejectReason::Draining,
            RejectReason::Closed,
        ] {
            let resp = Response::Reject {
                client_job: 9,
                reason,
                retry_after_ns: 1_500_000,
                jobs_ahead: 17,
            };
            assert_eq!(roundtrip_response(&resp), resp);
            assert_eq!(RejectReason::from_u8(reason as u8), Some(reason));
        }
        assert_eq!(RejectReason::from_u8(99), None);
        assert!(RejectReason::QueueFull.is_retryable());
        assert!(RejectReason::RateLimited.is_retryable());
        assert!(!RejectReason::Draining.is_retryable());
        assert!(!RejectReason::Closed.is_retryable());
    }

    #[test]
    fn truncated_submit_payload_errors() {
        let req = Request::Submit {
            client_job: 1,
            tenant: "t".into(),
            priority: 0,
            deadline_ns: 0,
            idempotency_key: String::new(),
            newick: "(a:1,b:1);".into(),
        };
        let wire = req.encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut frame = dec.next_frame().unwrap().unwrap();
        frame.payload.truncate(10);
        assert!(Request::decode(&frame).is_err());
    }

    #[test]
    fn decode_rejects_kind_mismatch() {
        let wire = Response::Draining.encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frame = dec.next_frame().unwrap().unwrap();
        assert!(Request::decode(&frame).is_err());
    }

    /// Seeded ASCII string strategy (the vendored proptest subset has
    /// no regex strategies): maps a `(seed, len)` pair onto `alphabet`.
    fn arb_string(alphabet: &'static [u8], max_len: usize) -> impl Strategy<Value = String> {
        (0u64..u64::MAX, 0usize..max_len + 1).prop_map(move |(seed, len)| {
            let mut s = String::with_capacity(len);
            let mut x = seed;
            for _ in 0..len {
                x = plf_phylo::splitmix64(x);
                s.push(alphabet[(x as usize) % alphabet.len()] as char);
            }
            s
        })
    }

    fn arb_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u64..u64::MAX, 0..max_len + 1)
            .prop_map(|words| words.into_iter().map(|w| (w & 0xFF) as u8).collect())
    }

    proptest! {
        #[test]
        fn prop_submit_roundtrip(
            client_job in 0u64..u64::MAX,
            tenant in arb_string(b"abcdefghijklmnopqrstuvwxyz0123456789-", 24),
            priority in 0u8..2,
            deadline_ns in 0u64..u64::MAX,
            key in arb_string(b"abcdefghijklmnopqrstuvwxyz0123456789-", 32),
            newick in arb_string(b"(),abcdefgh0123456789.:", 200),
        ) {
            let req = Request::Submit {
                client_job,
                tenant,
                priority,
                deadline_ns,
                idempotency_key: key,
                newick,
            };
            prop_assert_eq!(roundtrip_request(&req), req);
        }

        #[test]
        fn prop_completed_roundtrip(
            client_job in 0u64..u64::MAX,
            lnl_bits in 0u64..u64::MAX,
            wait_ns in 0u64..u64::MAX,
            service_ns in 0u64..u64::MAX,
            backend in arb_string(b"ABCdef0123456789 ()", 40),
        ) {
            let resp = Response::Completed {
                client_job,
                ln_likelihood: f64::from_bits(lnl_bits),
                wait_ns,
                service_ns,
                backend,
            };
            let back = roundtrip_response(&resp);
            // Compare by bits: NaN payloads must survive the wire too.
            match (&back, &resp) {
                (
                    Response::Completed { ln_likelihood: a, .. },
                    Response::Completed { ln_likelihood: b, .. },
                ) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                _ => prop_assert!(false, "variant changed"),
            }
        }

        #[test]
        fn prop_server_info_roundtrip(
            queue_capacity in 0u64..u64::MAX,
            workers in 0u64..u64::MAX,
            unit_patterns in 0u64..u64::MAX,
            taxa in prop::collection::vec(
                arb_string(b"abcdefghijklmnopqrstuvwxyz0123456789_", 12),
                0..20,
            ),
        ) {
            let resp = Response::ServerInfo { queue_capacity, workers, unit_patterns, taxa };
            prop_assert_eq!(roundtrip_response(&resp), resp);
        }

        #[test]
        fn prop_garbage_payload_never_panics(
            kind_idx in 0usize..7,
            payload in arb_bytes(256),
        ) {
            let kind = [
                FrameKind::Submit,
                FrameKind::Cancel,
                FrameKind::ServerInfo,
                FrameKind::Completed,
                FrameKind::Failed,
                FrameKind::Reject,
                FrameKind::Error,
            ][kind_idx];
            let frame = crate::wire::Frame {
                kind,
                payload,
                wire_len: 0,
            };
            // Totality: decode returns Ok or Err, never panics.
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
        }
    }
}
