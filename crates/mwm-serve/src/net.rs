//! The socket front door: a minimal Unix-domain (and TCP) server mapping
//! wire requests onto [`MatchingService::submit`], plus the matching client.
//!
//! Every message travels as one frame of the workspace's shared
//! length-prefixed codec ([`mwm_graph::wire`] — `u32` LE length + payload,
//! the same framing the out-of-core worker protocol uses). Frame payloads
//! are built from the [`mwm_persist::codec`] field primitives, so graphs,
//! update batches, configs and ledger rows travel bit-exactly:
//!
//! ```text
//! request   tag u8 | session str | body
//!             1 CreateSession   body = graph | has_config u8 | config?
//!             2 DropSession     body = —
//!             3 SubmitBatch     body = no_wait u8 | updates
//!             4 QueryMatching   body = —
//!             5 QueryWeight     body = —
//!             6 SnapshotStats   body = —
//!             8 Metrics         body = —   (session must be empty)
//!           (tag 7, a journal compaction, is retired and decodes as unknown)
//! response  0x80+tag on success (same numbering), body per variant
//!           0xFF on error: code u8 | a u64 | b u64 | msg str
//!             1 UnknownSession        msg = session
//!             2 SessionExists         msg = session
//!             3 QueueFull             a = capacity
//!             4 ServiceClosed
//!             5 AdmissionDenied       a = used, b = limit
//!             6 Engine                msg = display text
//!             7 Protocol              msg = expected variant
//!             8 Corrupt               msg = context
//!             9 Persist               msg = context
//!            10 Timeout              a = deadline ms
//!            11 Wire                  msg = context
//! ```
//!
//! `SubmitBatch` carries a `no_wait` flag: set, the server uses
//! [`MatchingService::try_submit`], so a full worker queue comes back as a
//! typed [`ServeError::QueueFull`] over the wire instead of blocking the
//! connection. Each request is answered within the server's per-request
//! deadline or fails as [`ServeError::Timeout`] (the request itself may
//! still commit — the deadline bounds the wait, not the work).
//!
//! `Metrics` is served by the connection thread itself from the process-wide
//! `mwm_obs` registry — it never enters the service queue, so a scrape
//! works even when every worker is busy or the admission pool is exhausted.
//!
//! One thread per connection, requests on a connection processed strictly
//! in order (pipelining is the service's job — open more connections for
//! parallelism). Malformed frames are answered with a typed `Corrupt` error
//! and the connection stays up; transport failures close it.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mwm_core::MwmError;
use mwm_dynamic::{DynamicConfig, EpochStats};
use mwm_graph::{read_frame, write_frame, Edge, Graph, GraphUpdate};
use mwm_obs::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};
use mwm_persist::codec::{
    decode_config, decode_graph, decode_stats, decode_updates, encode_config, encode_graph,
    encode_stats, encode_updates, u32_len, ByteReader, ByteWriter,
};
use mwm_persist::PersistError;

use crate::{MatchingService, Request, Response, ServeError, SessionStats};

const REQ_CREATE: u8 = 1;
const REQ_DROP: u8 = 2;
const REQ_SUBMIT: u8 = 3;
const REQ_MATCHING: u8 = 4;
const REQ_WEIGHT: u8 = 5;
const REQ_STATS: u8 = 6;
const REQ_METRICS: u8 = 8;
const RESP_OK_BASE: u8 = 0x80;
const RESP_ERR: u8 = 0xFF;

/// How long the server waits on a ticket before answering
/// [`ServeError::Timeout`].
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How often an idle connection thread rechecks the server's shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

// ---- wire codec ----------------------------------------------------------

/// A decoded wire request (the server-side mirror of [`NetClient`]'s frames).
enum WireRequest {
    Create { session: String, base: Graph, config: Option<DynamicConfig> },
    Drop { session: String },
    Submit { session: String, no_wait: bool, updates: Vec<GraphUpdate> },
    Matching { session: String },
    Weight { session: String },
    Stats { session: String },
    Metrics,
}

fn decode_request(payload: &[u8]) -> Result<WireRequest, String> {
    let mut r = ByteReader::new(payload);
    let tag = r.u8("request tag")?;
    let session = r.str("request session")?.to_string();
    let req = match tag {
        REQ_CREATE => {
            let base = decode_graph(&mut r)?;
            let config = match r.u8("config flag")? {
                0 => None,
                1 => Some(decode_config(&mut r)?),
                b => return Err(format!("config flag has invalid byte {b}")),
            };
            WireRequest::Create { session, base, config }
        }
        REQ_DROP => WireRequest::Drop { session },
        REQ_SUBMIT => {
            let no_wait = match r.u8("no_wait flag")? {
                0 => false,
                1 => true,
                b => return Err(format!("no_wait flag has invalid byte {b}")),
            };
            WireRequest::Submit { session, no_wait, updates: decode_updates(&mut r)? }
        }
        REQ_MATCHING => WireRequest::Matching { session },
        REQ_WEIGHT => WireRequest::Weight { session },
        REQ_STATS => WireRequest::Stats { session },
        REQ_METRICS => {
            if !session.is_empty() {
                return Err(format!("metrics request names a session ({session:?})"));
            }
            WireRequest::Metrics
        }
        tag => return Err(format!("unknown request tag {tag}")),
    };
    r.finish("wire request")?;
    Ok(req)
}

fn encode_session_stats(w: &mut ByteWriter, s: &SessionStats) -> Result<(), PersistError> {
    w.str(&s.session)?;
    w.u64(s.epochs as u64);
    w.u64(s.version);
    w.f64(s.weight);
    w.u64(s.matching_edges as u64);
    w.u64(s.live_edges as u64);
    w.u64(s.live_vertices as u64);
    w.u64(s.items_streamed as u64);
    w.u64(s.repairs as u64);
    w.u64(s.warm_resolves as u64);
    w.u64(s.rebuilds as u64);
    w.u64(s.revives as u64);
    w.u64(s.duals_checksum);
    Ok(())
}

fn decode_session_stats(r: &mut ByteReader<'_>) -> Result<SessionStats, String> {
    Ok(SessionStats {
        session: r.str("stats session")?.to_string(),
        epochs: r.u64("stats epochs")? as usize,
        version: r.u64("stats version")?,
        weight: r.f64("stats weight")?,
        matching_edges: r.u64("stats matching edges")? as usize,
        live_edges: r.u64("stats live edges")? as usize,
        live_vertices: r.u64("stats live vertices")? as usize,
        items_streamed: r.u64("stats items streamed")? as usize,
        repairs: r.u64("stats repairs")? as usize,
        warm_resolves: r.u64("stats warm resolves")? as usize,
        rebuilds: r.u64("stats rebuilds")? as usize,
        revives: r.u64("stats revives")? as usize,
        duals_checksum: r.u64("stats duals checksum")?,
    })
}

fn encode_error(w: &mut ByteWriter, e: &ServeError) -> Result<(), PersistError> {
    w.u8(RESP_ERR);
    let (code, a, b, msg): (u8, u64, u64, String) = match e {
        ServeError::UnknownSession { session } => (1, 0, 0, session.clone()),
        ServeError::SessionExists { session } => (2, 0, 0, session.clone()),
        ServeError::QueueFull { capacity } => (3, *capacity as u64, 0, String::new()),
        ServeError::ServiceClosed => (4, 0, 0, String::new()),
        ServeError::AdmissionDenied { used, limit } => {
            (5, *used as u64, *limit as u64, String::new())
        }
        ServeError::Engine(err) => (6, 0, 0, format!("{err}")),
        ServeError::Protocol { expected } => (7, 0, 0, (*expected).to_string()),
        ServeError::Corrupt { context } => (8, 0, 0, context.clone()),
        ServeError::Persist { context } => (9, 0, 0, context.clone()),
        ServeError::Timeout { after_ms } => (10, *after_ms, 0, String::new()),
        ServeError::Wire { context } => (11, 0, 0, context.clone()),
    };
    w.u8(code);
    w.u64(a);
    w.u64(b);
    w.str(&msg)?;
    Ok(())
}

fn decode_error(r: &mut ByteReader<'_>) -> Result<ServeError, String> {
    let code = r.u8("error code")?;
    let a = r.u64("error a")?;
    let b = r.u64("error b")?;
    let msg = r.str("error message")?.to_string();
    Ok(match code {
        1 => ServeError::UnknownSession { session: msg },
        2 => ServeError::SessionExists { session: msg },
        3 => ServeError::QueueFull { capacity: a as usize },
        4 => ServeError::ServiceClosed,
        5 => ServeError::AdmissionDenied { used: a as usize, limit: b as usize },
        // The concrete engine error type does not cross the wire; its
        // display text does.
        6 => ServeError::Engine(MwmError::InvalidInput { reason: msg }),
        7 => ServeError::Protocol { expected: "response (see server log)" },
        8 => ServeError::Corrupt { context: msg },
        9 => ServeError::Persist { context: msg },
        10 => ServeError::Timeout { after_ms: a },
        11 => ServeError::Wire { context: msg },
        code => return Err(format!("unknown error code {code}")),
    })
}

fn encode_response(result: &Result<Response, ServeError>) -> Result<Vec<u8>, PersistError> {
    let mut w = ByteWriter::new();
    match result {
        Ok(Response::Created) => w.u8(RESP_OK_BASE + REQ_CREATE),
        Ok(Response::Dropped { epochs }) => {
            w.u8(RESP_OK_BASE + REQ_DROP);
            w.u64(*epochs as u64);
        }
        Ok(Response::EpochApplied { stats }) => {
            w.u8(RESP_OK_BASE + REQ_SUBMIT);
            encode_stats(&mut w, stats);
        }
        Ok(Response::Matching { snapshot }) => {
            w.u8(RESP_OK_BASE + REQ_MATCHING);
            w.u64(snapshot.epoch as u64);
            w.u64(snapshot.version);
            w.f64(snapshot.weight);
            let entries: Vec<_> = snapshot.matching.iter().collect();
            w.u32(u32_len(entries.len(), "matching entries")?);
            for (id, e, mult) in entries {
                w.u64(id as u64);
                w.u32(e.u);
                w.u32(e.v);
                w.f64(e.w);
                w.u64(mult);
            }
        }
        Ok(Response::Weight { epoch, version, weight }) => {
            w.u8(RESP_OK_BASE + REQ_WEIGHT);
            w.u64(*epoch as u64);
            w.u64(*version);
            w.f64(*weight);
        }
        Ok(Response::Stats { stats }) => {
            w.u8(RESP_OK_BASE + REQ_STATS);
            encode_session_stats(&mut w, stats)?;
        }
        Err(e) => encode_error(&mut w, e)?,
    }
    Ok(w.into_bytes())
}

/// Encodes a reply frame, falling back to a short typed error frame if the
/// real reply does not fit the codec (e.g. a string over the `u32` length
/// prefix). The fallback is a few hundred bytes at most, so its own encode
/// cannot fail.
fn encode_response_or_fallback(result: &Result<Response, ServeError>) -> Vec<u8> {
    encode_response(result).unwrap_or_else(|e| {
        let mut context = format!("encoding response: {e}");
        context.truncate(256);
        encode_response(&Err(ServeError::Corrupt { context }))
            .expect("bounded fallback frame encodes")
    })
}

// ---- metrics snapshot codec ----------------------------------------------

const METRIC_COUNTER: u8 = 1;
const METRIC_GAUGE: u8 = 2;
const METRIC_HISTOGRAM: u8 = 3;

/// Encodes a `Metrics` success frame: count-prefixed `(name, kind, value)`
/// entries in the snapshot's (sorted) order.
fn encode_metrics_frame(snapshot: &MetricsSnapshot) -> Result<Vec<u8>, PersistError> {
    let mut w = ByteWriter::new();
    w.u8(RESP_OK_BASE + REQ_METRICS);
    w.u32(u32_len(snapshot.entries.len(), "metric entries")?);
    for entry in &snapshot.entries {
        w.str(&entry.name)?;
        match &entry.value {
            MetricValue::Counter(v) => {
                w.u8(METRIC_COUNTER);
                w.u64(*v);
            }
            MetricValue::Gauge(v) => {
                w.u8(METRIC_GAUGE);
                w.u64(*v as u64);
            }
            MetricValue::Histogram(h) => {
                w.u8(METRIC_HISTOGRAM);
                w.u32(u32_len(h.bounds.len(), "histogram bounds")?);
                for &b in &h.bounds {
                    w.f64(b);
                }
                for &c in &h.buckets {
                    w.u64(c);
                }
                w.u64(h.count);
                w.f64(h.sum);
            }
        }
    }
    Ok(w.into_bytes())
}

fn decode_metrics_body(r: &mut ByteReader<'_>) -> Result<MetricsSnapshot, String> {
    let n = r.u32("metric count")? as usize;
    if n > 1 << 20 {
        return Err(format!("metric count {n} over sanity cap"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("metric name")?.to_string();
        let value = match r.u8("metric kind")? {
            METRIC_COUNTER => MetricValue::Counter(r.u64("counter value")?),
            METRIC_GAUGE => MetricValue::Gauge(r.u64("gauge value")? as i64),
            METRIC_HISTOGRAM => {
                let bn = r.u32("histogram bound count")? as usize;
                if bn > 1 << 16 {
                    return Err(format!("histogram bound count {bn} over sanity cap"));
                }
                let mut bounds = Vec::with_capacity(bn);
                for _ in 0..bn {
                    bounds.push(r.f64("histogram bound")?);
                }
                let mut buckets = Vec::with_capacity(bn + 1);
                for _ in 0..bn + 1 {
                    buckets.push(r.u64("histogram bucket")?);
                }
                MetricValue::Histogram(HistogramSnapshot {
                    bounds,
                    buckets,
                    count: r.u64("histogram count")?,
                    sum: r.f64("histogram sum")?,
                })
            }
            kind => return Err(format!("unknown metric kind {kind}")),
        };
        entries.push(MetricEntry { name, value });
    }
    Ok(MetricsSnapshot { entries })
}

/// A committed matching as decoded from the wire (the remote analogue of
/// [`mwm_dynamic::CommittedSnapshot`], with the matching flattened into
/// `(edge id, edge, multiplicity)` rows).
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteMatching {
    /// Committed epochs.
    pub epoch: usize,
    /// Overlay version at the commit.
    pub version: u64,
    /// Committed weight (bit-exact).
    pub weight: f64,
    /// The matched edges, sorted by edge id.
    pub entries: Vec<(usize, Edge, u64)>,
}

/// A decoded success response (client side).
enum WireResponse {
    Created,
    Dropped { epochs: usize },
    EpochApplied { stats: EpochStats },
    Matching(RemoteMatching),
    Weight { epoch: usize, version: u64, weight: f64 },
    Stats { stats: SessionStats },
    Metrics(MetricsSnapshot),
}

fn decode_response(payload: &[u8]) -> Result<WireResponse, ServeError> {
    let corrupt = |what: String| ServeError::Corrupt { context: format!("wire response: {what}") };
    let mut r = ByteReader::new(payload);
    let tag = r.u8("response tag").map_err(corrupt)?;
    if tag == RESP_ERR {
        let err = decode_error(&mut r).map_err(corrupt)?;
        r.finish("wire error").map_err(corrupt)?;
        return Err(err);
    }
    let resp = match tag.wrapping_sub(RESP_OK_BASE) {
        REQ_CREATE => WireResponse::Created,
        REQ_DROP => {
            WireResponse::Dropped { epochs: r.u64("dropped epochs").map_err(corrupt)? as usize }
        }
        REQ_SUBMIT => WireResponse::EpochApplied { stats: decode_stats(&mut r).map_err(corrupt)? },
        REQ_MATCHING => {
            let epoch = r.u64("matching epoch").map_err(corrupt)? as usize;
            let version = r.u64("matching version").map_err(corrupt)?;
            let weight = r.f64("matching weight").map_err(corrupt)?;
            let n = r.u32("matching count").map_err(corrupt)? as usize;
            let mut entries = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let id = r.u64("entry id").map_err(corrupt)? as usize;
                let e = Edge {
                    u: r.u32("entry u").map_err(corrupt)?,
                    v: r.u32("entry v").map_err(corrupt)?,
                    w: r.f64("entry weight").map_err(corrupt)?,
                };
                let mult = r.u64("entry multiplicity").map_err(corrupt)?;
                entries.push((id, e, mult));
            }
            WireResponse::Matching(RemoteMatching { epoch, version, weight, entries })
        }
        REQ_WEIGHT => WireResponse::Weight {
            epoch: r.u64("weight epoch").map_err(corrupt)? as usize,
            version: r.u64("weight version").map_err(corrupt)?,
            weight: r.f64("weight value").map_err(corrupt)?,
        },
        REQ_STATS => WireResponse::Stats { stats: decode_session_stats(&mut r).map_err(corrupt)? },
        REQ_METRICS => WireResponse::Metrics(decode_metrics_body(&mut r).map_err(corrupt)?),
        _ => return Err(corrupt(format!("unknown response tag {tag:#04x}"))),
    };
    r.finish("wire response").map_err(corrupt)?;
    Ok(resp)
}

// ---- server --------------------------------------------------------------

/// Where the accept loop listens.
enum Endpoint {
    Uds(PathBuf),
    Tcp(SocketAddr),
}

/// The socket server: an accept loop plus one thread per live connection,
/// all dispatching onto one shared [`MatchingService`].
///
/// Shutdown ([`SocketServer::shutdown`] or drop) stops accepting and signals
/// connection threads; an idle connection notices within its poll interval,
/// a connection blocked mid-request finishes that request first.
pub struct SocketServer {
    closed: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    endpoint: Endpoint,
}

impl SocketServer {
    /// Binds a Unix-domain socket at `path` (removing any stale socket file)
    /// and starts serving `service` with the default request deadline.
    pub fn bind_uds(
        service: Arc<MatchingService>,
        path: impl AsRef<Path>,
    ) -> std::io::Result<SocketServer> {
        Self::bind_uds_with(service, path, DEFAULT_REQUEST_TIMEOUT)
    }

    /// [`SocketServer::bind_uds`] with an explicit per-request deadline.
    pub fn bind_uds_with(
        service: Arc<MatchingService>,
        path: impl AsRef<Path>,
        request_timeout: Duration,
    ) -> std::io::Result<SocketServer> {
        let path = path.as_ref().to_path_buf();
        std::fs::remove_file(&path).ok();
        let listener = UnixListener::bind(&path)?;
        let closed = Arc::new(AtomicBool::new(false));
        let accept_closed = Arc::clone(&closed);
        let accept_handle = std::thread::Builder::new()
            .name("mwm-net-accept-uds".to_string())
            .spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if accept_closed.load(Ordering::Acquire) {
                        break;
                    }
                    spawn_conn_uds(stream, Arc::clone(&service), request_timeout, &accept_closed);
                }
            })?;
        Ok(SocketServer {
            closed,
            accept_handle: Some(accept_handle),
            endpoint: Endpoint::Uds(path),
        })
    }

    /// Binds a TCP listener at `addr` (e.g. `"127.0.0.1:0"`) and starts
    /// serving `service` with the default request deadline.
    pub fn bind_tcp(service: Arc<MatchingService>, addr: &str) -> std::io::Result<SocketServer> {
        Self::bind_tcp_with(service, addr, DEFAULT_REQUEST_TIMEOUT)
    }

    /// [`SocketServer::bind_tcp`] with an explicit per-request deadline.
    pub fn bind_tcp_with(
        service: Arc<MatchingService>,
        addr: &str,
        request_timeout: Duration,
    ) -> std::io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let closed = Arc::new(AtomicBool::new(false));
        let accept_closed = Arc::clone(&closed);
        let accept_handle = std::thread::Builder::new()
            .name("mwm-net-accept-tcp".to_string())
            .spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if accept_closed.load(Ordering::Acquire) {
                        break;
                    }
                    spawn_conn_tcp(stream, Arc::clone(&service), request_timeout, &accept_closed);
                }
            })?;
        Ok(SocketServer {
            closed,
            accept_handle: Some(accept_handle),
            endpoint: Endpoint::Tcp(local),
        })
    }

    /// The bound TCP address (`None` for a Unix-domain server). Useful after
    /// binding port 0.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => Some(*addr),
            Endpoint::Uds(_) => None,
        }
    }

    /// Stops accepting connections and signals connection threads to exit.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        match &self.endpoint {
            Endpoint::Uds(path) => {
                UnixStream::connect(path).ok();
            }
            Endpoint::Tcp(addr) => {
                TcpStream::connect_timeout(addr, Duration::from_millis(250)).ok();
            }
        }
        if let Some(handle) = self.accept_handle.take() {
            handle.join().ok();
        }
        if let Endpoint::Uds(path) = &self.endpoint {
            std::fs::remove_file(path).ok();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.close();
    }
}

fn spawn_conn_uds(
    stream: UnixStream,
    service: Arc<MatchingService>,
    timeout: Duration,
    closed: &Arc<AtomicBool>,
) {
    stream.set_read_timeout(Some(IDLE_POLL)).ok();
    let Ok(reader) = stream.try_clone() else { return };
    let closed = Arc::clone(closed);
    std::thread::Builder::new()
        .name("mwm-net-conn".to_string())
        .spawn(move || serve_conn(BufReader::new(reader), stream, &service, timeout, &closed))
        .ok();
}

fn spawn_conn_tcp(
    stream: TcpStream,
    service: Arc<MatchingService>,
    timeout: Duration,
    closed: &Arc<AtomicBool>,
) {
    stream.set_read_timeout(Some(IDLE_POLL)).ok();
    stream.set_nodelay(true).ok();
    let Ok(reader) = stream.try_clone() else { return };
    let closed = Arc::clone(closed);
    std::thread::Builder::new()
        .name("mwm-net-conn".to_string())
        .spawn(move || serve_conn(BufReader::new(reader), stream, &service, timeout, &closed))
        .ok();
}

/// One connection: frames in, frames out, strictly in order. A read timeout
/// at a frame boundary is just the idle poll (recheck the shutdown flag); a
/// clean EOF or any transport failure ends the connection.
fn serve_conn(
    mut reader: impl Read,
    mut writer: impl Write,
    service: &MatchingService,
    timeout: Duration,
    closed: &AtomicBool,
) {
    loop {
        match read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                mwm_obs::counter!("net_requests_total").inc();
                let frame = match decode_request(&payload) {
                    // Metrics is answered right here from the global registry,
                    // bypassing the service queue: a scrape must succeed even
                    // when workers are saturated.
                    Ok(WireRequest::Metrics) => encode_metrics_frame(&mwm_obs::snapshot())
                        .unwrap_or_else(|e| encode_response_or_fallback(&Err(ServeError::from(e)))),
                    Ok(req) => {
                        let reply = dispatch(service, req, timeout);
                        if matches!(reply, Err(ServeError::Timeout { .. })) {
                            mwm_obs::counter!("net_timeouts_total").inc();
                        }
                        encode_response_or_fallback(&reply)
                    }
                    Err(e) => encode_response_or_fallback(&Err(ServeError::Corrupt {
                        context: format!("wire request: {e}"),
                    })),
                };
                let sent = write_frame(&mut writer, &frame).and_then(|()| writer.flush());
                if sent.is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if closed.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

fn dispatch(
    service: &MatchingService,
    req: WireRequest,
    timeout: Duration,
) -> Result<Response, ServeError> {
    let (no_wait, request) = match req {
        WireRequest::Create { session, base, config } => {
            (false, Request::CreateSession { session, base, config })
        }
        WireRequest::Drop { session } => (false, Request::DropSession { session }),
        WireRequest::Submit { session, no_wait, updates } => {
            (no_wait, Request::SubmitBatch { session, updates })
        }
        WireRequest::Matching { session } => (false, Request::QueryMatching { session }),
        WireRequest::Weight { session } => (false, Request::QueryWeight { session }),
        WireRequest::Stats { session } => (false, Request::SnapshotStats { session }),
        // Never queued: serve_conn answers Metrics before calling dispatch.
        WireRequest::Metrics => {
            return Err(ServeError::Protocol { expected: "Metrics handled at connection layer" })
        }
    };
    let ticket = if no_wait { service.try_submit(request)? } else { service.submit(request)? };
    match ticket.wait_timeout(timeout) {
        Ok(result) => result,
        // Abandoning the ticket here is safe by construction: the queued work
        // still runs to completion on its worker, and the admission-pool
        // reserve/settle pair both happen inside the worker's
        // `handle_request`, so the reservation is refunded exactly once
        // whether or not anyone is still waiting. The late result lands in
        // the ticket's one-shot slot and is dropped with it — it can never be
        // written to the connection, because this thread is the only writer
        // and it has already answered this request with `Timeout` (see the
        // timeout-then-reuse regression test).
        Err(_still_pending) => Err(ServeError::Timeout { after_ms: timeout.as_millis() as u64 }),
    }
}

// ---- client --------------------------------------------------------------

/// A blocking wire client for [`SocketServer`], one request at a time.
/// Transport failures come back as [`ServeError::Wire`]; everything the
/// server rejects arrives as the same typed [`ServeError`] the in-process
/// API would have returned.
pub struct NetClient {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl NetClient {
    /// Connects to a Unix-domain [`SocketServer`].
    pub fn connect_uds(path: impl AsRef<Path>) -> std::io::Result<NetClient> {
        let stream = UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(NetClient { reader: BufReader::new(Box::new(reader)), writer: Box::new(stream) })
    }

    /// Connects to a TCP [`SocketServer`].
    pub fn connect_tcp(addr: SocketAddr) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        Ok(NetClient { reader: BufReader::new(Box::new(reader)), writer: Box::new(stream) })
    }

    fn call(&mut self, frame: &[u8]) -> Result<WireResponse, ServeError> {
        let wire =
            |what: &str, e: std::io::Error| ServeError::Wire { context: format!("{what}: {e}") };
        write_frame(&mut self.writer, frame).map_err(|e| wire("sending request", e))?;
        self.writer.flush().map_err(|e| wire("flushing request", e))?;
        match read_frame(&mut self.reader) {
            Ok(Some(payload)) => decode_response(&payload),
            Ok(None) => Err(ServeError::Wire { context: "server closed the connection".into() }),
            Err(e) => Err(wire("reading response", e)),
        }
    }

    fn header(tag: u8, session: &str) -> Result<ByteWriter, ServeError> {
        let mut w = ByteWriter::new();
        w.u8(tag);
        w.str(session)?;
        Ok(w)
    }

    /// Creates a session with the server's default configuration.
    pub fn create_session(&mut self, session: &str, base: &Graph) -> Result<(), ServeError> {
        self.create_session_with(session, base, None)
    }

    /// Creates a session, optionally overriding its configuration.
    pub fn create_session_with(
        &mut self,
        session: &str,
        base: &Graph,
        config: Option<DynamicConfig>,
    ) -> Result<(), ServeError> {
        let mut w = Self::header(REQ_CREATE, session)?;
        encode_graph(&mut w, base)?;
        match &config {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                encode_config(&mut w, c);
            }
        }
        match self.call(&w.into_bytes())? {
            WireResponse::Created => Ok(()),
            _ => Err(ServeError::Protocol { expected: "Created" }),
        }
    }

    /// Drops a session; returns its committed epoch count.
    pub fn drop_session(&mut self, session: &str) -> Result<usize, ServeError> {
        match self.call(&Self::header(REQ_DROP, session)?.into_bytes())? {
            WireResponse::Dropped { epochs } => Ok(epochs),
            _ => Err(ServeError::Protocol { expected: "Dropped" }),
        }
    }

    fn submit_inner(
        &mut self,
        session: &str,
        updates: &[GraphUpdate],
        no_wait: bool,
    ) -> Result<EpochStats, ServeError> {
        let mut w = Self::header(REQ_SUBMIT, session)?;
        w.u8(u8::from(no_wait));
        encode_updates(&mut w, updates)?;
        match self.call(&w.into_bytes())? {
            WireResponse::EpochApplied { stats } => Ok(stats),
            _ => Err(ServeError::Protocol { expected: "EpochApplied" }),
        }
    }

    /// Applies one epoch of updates, blocking for queue space server-side.
    pub fn submit_batch(
        &mut self,
        session: &str,
        updates: &[GraphUpdate],
    ) -> Result<EpochStats, ServeError> {
        self.submit_inner(session, updates, false)
    }

    /// Non-blocking submit: a full worker queue comes back as a typed
    /// [`ServeError::QueueFull`] instead of waiting.
    pub fn try_submit_batch(
        &mut self,
        session: &str,
        updates: &[GraphUpdate],
    ) -> Result<EpochStats, ServeError> {
        self.submit_inner(session, updates, true)
    }

    /// The session's last committed matching.
    pub fn matching(&mut self, session: &str) -> Result<RemoteMatching, ServeError> {
        match self.call(&Self::header(REQ_MATCHING, session)?.into_bytes())? {
            WireResponse::Matching(m) => Ok(m),
            _ => Err(ServeError::Protocol { expected: "Matching" }),
        }
    }

    /// The session's committed weight with its epoch/version coordinates.
    pub fn weight(&mut self, session: &str) -> Result<(usize, u64, f64), ServeError> {
        match self.call(&Self::header(REQ_WEIGHT, session)?.into_bytes())? {
            WireResponse::Weight { epoch, version, weight } => Ok((epoch, version, weight)),
            _ => Err(ServeError::Protocol { expected: "Weight" }),
        }
    }

    /// The session's summary statistics.
    pub fn session_stats(&mut self, session: &str) -> Result<SessionStats, ServeError> {
        match self.call(&Self::header(REQ_STATS, session)?.into_bytes())? {
            WireResponse::Stats { stats } => Ok(stats),
            _ => Err(ServeError::Protocol { expected: "Stats" }),
        }
    }

    /// Scrapes the server's process-wide metrics registry. Served by the
    /// connection thread, so it succeeds even when the service queue is full.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServeError> {
        match self.call(&Self::header(REQ_METRICS, "")?.into_bytes())? {
            WireResponse::Metrics(snapshot) => Ok(snapshot),
            _ => Err(ServeError::Protocol { expected: "Metrics" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use mwm_dynamic::DynamicConfig;

    fn small_graph() -> Graph {
        let mut g = Graph::new(8);
        g.add_edge(0, 1, 3.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        g.add_edge(4, 5, 1.5);
        g.add_edge(6, 7, 2.5);
        g
    }

    fn service() -> Arc<MatchingService> {
        Arc::new(
            MatchingService::start(ServiceConfig {
                workers: 2,
                session_defaults: DynamicConfig { eps: 0.25, seed: 7, ..Default::default() },
                ..Default::default()
            })
            .unwrap(),
        )
    }

    fn exercise(client: &mut NetClient, service: &MatchingService) {
        let base = small_graph();
        client.create_session("net-a", &base).unwrap();
        let stats = client.submit_batch("net-a", &[]).unwrap();
        assert_eq!(stats.epoch, 0);
        let (epoch, _version, weight) = client.weight("net-a").unwrap();
        assert_eq!(epoch, 1);
        assert!(weight > 0.0);

        // The wire answer is bit-identical to the in-process answer.
        let local = service.matching("net-a").unwrap();
        let remote = client.matching("net-a").unwrap();
        assert_eq!(remote.weight.to_bits(), local.weight.to_bits());
        let local_entries: Vec<(usize, u64)> =
            local.matching.iter().map(|(id, _, m)| (id, m)).collect();
        let remote_entries: Vec<(usize, u64)> =
            remote.entries.iter().map(|&(id, _, m)| (id, m)).collect();
        assert_eq!(remote_entries, local_entries);

        let s = client.session_stats("net-a").unwrap();
        assert_eq!(s.session, "net-a");
        assert_eq!(s.epochs, 1);
        assert_eq!(s.weight.to_bits(), weight.to_bits());

        // Typed errors cross the wire.
        assert_eq!(
            client.weight("ghost"),
            Err(ServeError::UnknownSession { session: "ghost".into() })
        );
        assert_eq!(
            client.create_session("net-a", &base),
            Err(ServeError::SessionExists { session: "net-a".into() })
        );

        client.submit_batch("net-a", &[GraphUpdate::InsertEdge { u: 0, v: 7, w: 9.0 }]).unwrap();
        assert_eq!(client.drop_session("net-a").unwrap(), 2);
    }

    #[test]
    fn uds_round_trip_matches_the_in_process_api() {
        let service = service();
        let path = std::env::temp_dir().join(format!("mwm-net-uds-{}.sock", std::process::id()));
        let server = SocketServer::bind_uds(Arc::clone(&service), &path).unwrap();
        let mut client = NetClient::connect_uds(&path).unwrap();
        exercise(&mut client, &service);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip_matches_the_in_process_api() {
        let service = service();
        let server = SocketServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.tcp_addr().expect("tcp endpoint");
        let mut client = NetClient::connect_tcp(addr).unwrap();
        exercise(&mut client, &service);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn admission_denied_is_a_typed_wire_error() {
        // A pool far too small for a bootstrap: after the floor charges
        // exhaust it, the wire client sees AdmissionDenied with the counters.
        let service = Arc::new(
            MatchingService::start(ServiceConfig {
                workers: 1,
                max_streamed_items: Some(3),
                session_defaults: DynamicConfig { eps: 0.25, seed: 7, ..Default::default() },
                ..Default::default()
            })
            .unwrap(),
        );
        let server = SocketServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        client.create_session("pool", &small_graph()).unwrap();
        let mut denied = false;
        for _ in 0..20 {
            match client.submit_batch("pool", &[GraphUpdate::InsertEdge { u: 0, v: 3, w: 1.0 }]) {
                Err(ServeError::AdmissionDenied { used, limit }) => {
                    assert!(used >= limit);
                    assert_eq!(limit, 3);
                    denied = true;
                    break;
                }
                Ok(_) | Err(ServeError::Engine(_)) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(denied, "the drained pool must deny admission over the wire");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn queue_full_is_a_typed_wire_error_under_no_wait() {
        // One worker with a single-slot queue, kept busy by a slow bootstrap
        // submitted from a second connection: no_wait submits must
        // eventually bounce with QueueFull instead of blocking.
        let service = Arc::new(
            MatchingService::start(ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                session_defaults: DynamicConfig { eps: 0.25, seed: 7, ..Default::default() },
                ..Default::default()
            })
            .unwrap(),
        );
        let server = SocketServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.tcp_addr().unwrap();
        let mut setup = NetClient::connect_tcp(addr).unwrap();
        let mut big = Graph::new(400);
        for i in 0..399u32 {
            big.add_edge(i, i + 1, 1.0 + f64::from(i % 7));
        }
        setup.create_session("busy", &big).unwrap();
        setup.submit_batch("busy", &[]).unwrap();

        // Two filler connections keep the worker executing one batch while
        // the next sits in the single queue slot; the no_wait prober must
        // then land on a full queue. Each filler batch reweights a stretch
        // of the path so every epoch does real work.
        let filler = move |seed: u32| {
            let mut c = NetClient::connect_tcp(addr).unwrap();
            for round in 0..60u32 {
                let updates: Vec<GraphUpdate> = (0..50)
                    .map(|i| GraphUpdate::ReweightEdge {
                        id: ((seed + round + i) % 399) as usize,
                        w: 1.0 + f64::from((seed + round + i) % 9),
                    })
                    .collect();
                c.submit_batch("busy", &updates).unwrap();
            }
        };
        let f1 = std::thread::spawn(move || filler(0));
        let f2 = std::thread::spawn(move || filler(7));
        let mut probe = NetClient::connect_tcp(addr).unwrap();
        let mut saw_full = false;
        for _ in 0..20_000 {
            match probe.try_submit_batch("busy", &[]) {
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_full = true;
                    break;
                }
                Ok(_) | Err(ServeError::Engine(_)) => {}
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        f1.join().unwrap();
        f2.join().unwrap();
        assert!(saw_full, "the single-slot queue must reject a no_wait submit");
        drop(probe);
        drop(setup);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_answer_corrupt_and_keep_the_connection() {
        let service = service();
        let server = SocketServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.tcp_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // A garbage request tag, then the retired compaction tag 7.
        for tag in [0xEE, 7] {
            write_frame(&mut writer, &[tag, 0, 0, 0, 0]).unwrap();
            writer.flush().unwrap();
            let payload = read_frame(&mut reader).unwrap().expect("an error frame");
            match decode_response(&payload) {
                Err(ServeError::Corrupt { context }) => {
                    assert!(context.contains("unknown request tag"), "got: {context}")
                }
                Err(other) => panic!("expected Corrupt, got {other:?}"),
                Ok(_) => panic!("tag {tag} decoded as success"),
            }
        }
        // The connection survives: a well-formed request still works.
        let mut client = NetClient {
            reader: BufReader::new(Box::new(reader.into_inner())),
            writer: Box::new(writer),
        };
        client.create_session("after-garbage", &small_graph()).unwrap();
        drop(client);
        server.shutdown();
    }

    #[test]
    fn wire_error_codec_round_trips_every_variant() {
        let errors = vec![
            ServeError::UnknownSession { session: "s".into() },
            ServeError::SessionExists { session: "s".into() },
            ServeError::QueueFull { capacity: 7 },
            ServeError::ServiceClosed,
            ServeError::AdmissionDenied { used: 11, limit: 10 },
            ServeError::Corrupt { context: "bad magic".into() },
            ServeError::Persist { context: "disk full".into() },
            ServeError::Timeout { after_ms: 1_500 },
            ServeError::Wire { context: "reset".into() },
        ];
        for err in errors {
            let frame = encode_response(&Err(err.clone())).unwrap();
            match decode_response(&frame) {
                Err(back) => assert_eq!(back, err),
                Ok(_) => panic!("error frame decoded as success"),
            }
        }
    }

    #[test]
    fn metrics_request_round_trips_over_a_live_socket() {
        mwm_obs::set_enabled(true);
        let service = service();
        let server = SocketServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        client.create_session("obs", &small_graph()).unwrap();
        client.submit_batch("obs", &[]).unwrap();
        service.publish_metrics(mwm_obs::global());

        let snap = client.metrics().unwrap();
        assert!(
            snap.counter("net_requests_total") > 0,
            "live traffic must show up in the wire snapshot"
        );
        assert!(snap.counter("serve_requests_total") > 0);
        assert!(snap.counter_family("pass_total") > 0, "the bootstrap epoch ran engine passes");
        assert_eq!(snap.gauge("serve_sessions"), 1);
        assert!(!snap.render_text().is_empty());

        // A Metrics request naming a session is malformed.
        let frame = NetClient::header(REQ_METRICS, "not-empty").unwrap().into_bytes();
        match client.call(&frame) {
            Err(ServeError::Corrupt { .. }) => {}
            Err(other) => panic!("expected Corrupt for a non-empty Metrics session, got {other}"),
            Ok(_) => panic!("a malformed Metrics request decoded as success"),
        }
        // ... and the connection survives it.
        let (epoch, _, _) = client.weight("obs").unwrap();
        assert_eq!(epoch, 1);
        drop(client);
        server.shutdown();
    }

    /// Parks the service's single worker on an in-process job queued ahead
    /// of everything submitted later: a `CreateSession` whose commit needs
    /// the view registry, which a helper thread holds until the returned
    /// closure runs (or 10 s pass). Every request queued behind the job is
    /// still pending when a zero deadline expires, however fast solves are;
    /// the 10 s cap turns a connection that waits instead of timing out into
    /// a failed assertion rather than a deadlock.
    fn park_worker(service: &MatchingService) -> (crate::Ticket, impl FnOnce()) {
        let views = Arc::clone(&service.views);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _registry = views.lock().expect("view registry lock poisoned");
            held_tx.send(()).expect("the test thread waits for the hold");
            let _ = release_rx.recv_timeout(Duration::from_secs(10));
        });
        held_rx.recv().expect("the holder thread takes the registry");
        let parked = service
            .submit(Request::CreateSession {
                session: "parked".to_string(),
                base: small_graph(),
                config: None,
            })
            .unwrap();
        let release = move || {
            let _ = release_tx.send(());
            holder.join().expect("the holder thread exits");
        };
        (parked, release)
    }

    #[test]
    fn timeout_then_reuse_of_a_connection_is_safe() {
        let mk = || {
            Arc::new(
                MatchingService::start(ServiceConfig {
                    workers: 1,
                    max_streamed_items: Some(100_000),
                    session_defaults: DynamicConfig { eps: 0.25, seed: 7, ..Default::default() },
                    ..Default::default()
                })
                .unwrap(),
            )
        };
        let traffic: [(&str, Vec<GraphUpdate>); 2] =
            [("t", vec![]), ("t", vec![GraphUpdate::InsertEdge { u: 0, v: 7, w: 9.0 }])];

        // Reference run under a generous deadline: the pool accounting the
        // timed-out run must reproduce exactly.
        let reference = mk();
        {
            // The same parked job as below, released at once.
            let (parked, release) = park_worker(&reference);
            release();
            assert!(matches!(parked.wait(), Ok(Response::Created)));
            let server = SocketServer::bind_tcp(Arc::clone(&reference), "127.0.0.1:0").unwrap();
            let mut c = NetClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();
            c.create_session("t", &small_graph()).unwrap();
            for (session, updates) in &traffic {
                c.submit_batch(session, updates).unwrap();
            }
            drop(c);
            server.shutdown();
        }

        // Zero deadline: every queued request answers Timeout while its work
        // still commits worker-side. The abandoned tickets' late results
        // must never reach the connection, and each reservation must be
        // settled exactly once. The parked worker makes the timeouts certain.
        let service = mk();
        let server =
            SocketServer::bind_tcp_with(Arc::clone(&service), "127.0.0.1:0", Duration::ZERO)
                .unwrap();
        let mut client = NetClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();
        let (parked, release) = park_worker(&service);
        let mut timeouts = 0;
        let mut check = |r: Result<EpochStats, ServeError>| match r {
            Err(ServeError::Timeout { .. }) => timeouts += 1,
            Ok(_) => {}
            Err(other) => panic!("unexpected error {other}"),
        };
        match client.create_session("t", &small_graph()) {
            Ok(()) | Err(ServeError::Timeout { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
        for (session, updates) in &traffic {
            check(client.submit_batch(session, updates));
        }
        assert!(timeouts > 0, "a zero deadline must actually time out");
        assert_eq!(timeouts, traffic.len(), "every request queued behind the parked job");
        assert!(!parked.is_ready(), "the worker stays parked until released");
        release();
        assert!(matches!(parked.wait(), Ok(Response::Created)));

        // The in-process convenience wrappers queue behind the abandoned
        // jobs on the same worker, so this blocks until all of them have
        // committed — FIFO order per session shard.
        let local = service.matching("t").unwrap();
        assert!(local.weight > 0.0, "abandoned work must still commit");

        // Exactly-once settlement: abandoning the wait changed nothing
        // about what the epochs charged to the admission pool.
        assert_eq!(service.pool_used(), reference.pool_used());
        assert!(service.pool_used() > 0);

        // The connection survives its timed-out requests: a Metrics request
        // (answered at the connection layer, no ticket) round-trips, and a
        // further queued request gets a fresh, well-typed reply — never a
        // stale late response from an abandoned ticket.
        client.metrics().unwrap();
        match client.weight("t") {
            Ok((epoch, _version, weight)) => {
                // One committed epoch per batch of traffic.
                assert_eq!(epoch, traffic.len());
                assert!(weight > 0.0);
            }
            Err(ServeError::Timeout { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
        drop(client);
        server.shutdown();
    }
}
