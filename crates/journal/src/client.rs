//! TCP client for the Journal Server.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;

use fremont_telemetry::{SpanId, TelTime, Telemetry};

use crate::observation::Observation;
use crate::proto::{
    read_frame, write_frame, IntrospectReport, ProtoError, Request, RequestEnvelope, Response,
    StoreBatchItem, TraceContext,
};
use crate::query::{InterfaceQuery, SubnetQuery};
use crate::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::server::JournalAccess;
use crate::store::{JournalStats, StoreSummary};
use crate::time::JTime;

/// A connection to a remote Journal Server.
///
/// The connection is internally synchronized so one client handle can be
/// shared by several module threads, matching the paper's "common library
/// of access and data transfer routines". Idempotent query RPCs survive
/// one dropped connection: the client reconnects to the original address
/// and retries once. Mutating RPCs (Store, StoreBatch, Delete, Flush) are
/// never retried — a lost response leaves it unknown whether the server
/// applied them.
///
/// A client opened with [`RemoteJournal::connect_traced`] participates in
/// end-to-end causal tracing: each batched store opens a local
/// `client.store_batch` span and propagates `(trace_id, span, clock)` in
/// the request frame, so the server's spans can be stitched under it.
pub struct RemoteJournal {
    addr: String,
    io: Mutex<(BufReader<TcpStream>, TcpStream)>,
    telemetry: Telemetry,
    trace_id: u64,
}

impl RemoteJournal {
    /// Connects to a Journal Server (untraced).
    pub fn connect(addr: &str) -> Result<Self, ProtoError> {
        Self::connect_traced(addr, Telemetry::noop(), 0)
    }

    /// Connects to a Journal Server with a telemetry sink and a
    /// distributed trace id (0 disables propagation).
    pub fn connect_traced(
        addr: &str,
        telemetry: Telemetry,
        trace_id: u64,
    ) -> Result<Self, ProtoError> {
        let (reader, writer) = open(addr)?;
        Ok(RemoteJournal {
            addr: addr.to_owned(),
            io: Mutex::new((reader, writer)),
            telemetry,
            trace_id,
        })
    }

    /// Runs a closure over the locked connection pair; every
    /// request/response exchange serializes through here.
    fn with_io<R>(&self, f: impl FnOnce(&mut BufReader<TcpStream>, &mut TcpStream) -> R) -> R {
        let mut guard = self.io.lock().expect("journal client poisoned");
        let (reader, writer) = &mut *guard;
        f(reader, writer)
    }

    /// One request/response round trip on the current connection.
    fn call_once(&self, env: &RequestEnvelope) -> Result<Response, ProtoError> {
        self.with_io(|reader, writer| {
            write_frame(writer, env)?;
            match read_frame::<_, Response>(reader)? {
                Some(Response::Error(msg)) => Err(ProtoError::Server(msg)),
                Some(resp) => Ok(resp),
                None => Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed connection",
                ))),
            }
        })
    }

    /// Round trip for a mutating request: no retry, no tracing.
    fn call(&self, req: Request) -> Result<Response, ProtoError> {
        self.call_ctx(req, TraceContext::NONE)
    }

    /// Round trip for a mutating request with an explicit context.
    fn call_ctx(&self, req: Request, ctx: TraceContext) -> Result<Response, ProtoError> {
        self.call_once(&RequestEnvelope { ctx, req })
    }

    /// Round trip for an idempotent query: on a connection-level failure,
    /// reconnect to the original address and retry exactly once.
    fn call_idempotent(&self, req: Request) -> Result<Response, ProtoError> {
        let env = RequestEnvelope {
            ctx: TraceContext::NONE,
            req,
        };
        match self.call_once(&env) {
            Err(ProtoError::Io(_)) => {
                self.reconnect()?;
                self.call_once(&env)
            }
            other => other,
        }
    }

    /// Replaces the connection with a fresh one to the original address.
    fn reconnect(&self) -> Result<(), ProtoError> {
        let fresh = open(&self.addr)?;
        let mut guard = self.io.lock().expect("journal client poisoned");
        *guard = fresh;
        Ok(())
    }

    /// Pipelines several requests over the connection: every frame is
    /// written back-to-back before any reply is read, then the replies
    /// are collected in request order (the server answers frames in
    /// arrival order, so one round trip covers the whole slice).
    ///
    /// Like the mutating single-request path, pipelined requests are
    /// never retried — a connection failure leaves it unknown which of
    /// them the server applied. `Response::Error` is surfaced in place
    /// rather than short-circuiting, so callers can attribute per-slot
    /// failures.
    pub fn pipeline(&self, reqs: &[Request]) -> Result<Vec<Response>, ProtoError> {
        self.with_io(|reader, writer| {
            for req in reqs {
                let env = RequestEnvelope {
                    ctx: TraceContext::NONE,
                    req: req.clone(),
                };
                write_frame(writer, &env)?;
            }
            let mut replies = Vec::with_capacity(reqs.len());
            for _ in reqs {
                match read_frame::<_, Response>(reader)? {
                    Some(resp) => replies.push(resp),
                    None => {
                        return Err(ProtoError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed connection mid-pipeline",
                        )))
                    }
                }
            }
            Ok(replies)
        })
    }

    /// Asks the server to write its snapshot.
    pub fn flush(&self) -> Result<(), ProtoError> {
        match self.call(Request::Flush)? {
            Response::Flushed => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's live self-description, including up to
    /// `trace_tail` recent server-side trace events.
    pub fn introspect(&self, trace_tail: u64) -> Result<IntrospectReport, ProtoError> {
        match self.call_idempotent(Request::Introspect { trace_tail })? {
            Response::Introspection(report) => Ok(*report),
            other => Err(unexpected(other)),
        }
    }
}

fn open(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), ProtoError> {
    let stream = TcpStream::connect(addr)?;
    // Requests are single writes awaiting a reply; Nagle would only
    // delay them.
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

fn unexpected(resp: Response) -> ProtoError {
    ProtoError::Malformed(format!("unexpected response variant: {resp:?}"))
}

impl JournalAccess for RemoteJournal {
    fn store(&self, now: JTime, observations: &[Observation]) -> Result<StoreSummary, ProtoError> {
        match self.call(Request::Store {
            now,
            observations: observations.to_vec(),
        })? {
            Response::Stored(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    fn store_batch(&self, batches: &[StoreBatchItem]) -> Result<StoreSummary, ProtoError> {
        // The whole pump's worth of observations travels as one frame.
        match self.call(Request::StoreBatch {
            batches: batches.to_vec(),
        })? {
            Response::Stored(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    fn store_batch_traced(
        &self,
        batches: &[StoreBatchItem],
        parent: SpanId,
        at: TelTime,
    ) -> Result<StoreSummary, ProtoError> {
        if self.trace_id == 0 || !self.telemetry.enabled() {
            return self.store_batch(batches);
        }
        // The client-side RPC span: marked with our own trace id and
        // remote_parent 0 — that is what tells the stitcher this
        // process owns the trace. Its id rides in the frame so the
        // server's `server.rpc` span can point back at it.
        let span = self.telemetry.span_start_remote(
            "client.store_batch",
            "",
            parent,
            self.trace_id,
            0,
            at,
        );
        let total: u64 = batches.iter().map(|b| b.observations.len() as u64).sum();
        self.telemetry.work(span, "observations", total, at);
        let ctx = TraceContext {
            trace_id: self.trace_id,
            parent_span: span.0,
            at_micros: at.0,
        };
        let res = self.call_ctx(
            Request::StoreBatch {
                batches: batches.to_vec(),
            },
            ctx,
        );
        match res {
            Ok(Response::Stored(s)) => {
                self.telemetry.span_end(
                    span,
                    &format!(
                        "created={} updated={} verified={}",
                        s.created, s.updated, s.verified
                    ),
                    at,
                );
                Ok(s)
            }
            Ok(other) => {
                self.telemetry.span_end(span, "error", at);
                Err(unexpected(other))
            }
            Err(e) => {
                self.telemetry.span_end(span, "error", at);
                Err(e)
            }
        }
    }

    fn interfaces(&self, q: &InterfaceQuery) -> Result<Vec<InterfaceRecord>, ProtoError> {
        match self.call_idempotent(Request::GetInterfaces(q.clone()))? {
            Response::Interfaces(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn gateways(&self) -> Result<Vec<GatewayRecord>, ProtoError> {
        match self.call_idempotent(Request::GetGateways)? {
            Response::Gateways(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn subnets(&self, q: &SubnetQuery) -> Result<Vec<SubnetRecord>, ProtoError> {
        match self.call_idempotent(Request::GetSubnets(q.clone()))? {
            Response::Subnets(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn delete(&self, id: InterfaceId) -> Result<bool, ProtoError> {
        match self.call(Request::Delete(id))? {
            Response::Deleted(b) => Ok(b),
            other => Err(unexpected(other)),
        }
    }

    fn stats(&self) -> Result<JournalStats, ProtoError> {
        match self.call_idempotent(Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    fn flush(&self) -> Result<bool, ProtoError> {
        // Forward to the server's own persistence.
        RemoteJournal::flush(self)?;
        Ok(true)
    }
}
