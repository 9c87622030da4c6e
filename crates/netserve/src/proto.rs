//! The `VOHW` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame shares one layout, reusing the codec idioms (and the
//! actual primitives — [`relstore::codec::put_str`] /
//! [`relstore::codec::get_str`] / [`relstore::codec::need`] /
//! [`relstore::codec::catalog_checksum`]) of the `VOHG` catalog
//! snapshot format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "VOHW"
//! 4       2     protocol version (u16 le, currently 1)
//! 6       1     opcode
//! 7       4     payload length (u32 le, <= 16 MiB)
//! 11      n     payload (opcode-specific)
//! 11+n    8     FxHash-64 checksum of bytes [0, 11+n) (u64 le)
//! ```
//!
//! The checksum is verified *before* the payload is parsed — exactly
//! the order `decode_catalog` uses — so any corruption surfaces as one
//! typed [`FrameError`] instead of a half-parsed request. Decode
//! errors are split by whether stream framing survives:
//!
//! * [`FrameError::Corrupt`] — the length prefix was sound, so the
//!   reader is still frame-aligned; the server answers with a typed
//!   protocol error and keeps the connection.
//! * [`FrameError::Fatal`] — bad magic or an oversized length; the
//!   byte stream can no longer be trusted, so the server answers and
//!   closes (the tenant and every other connection stay serviceable).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use engine::{EstimateRung, StatsUse};
use relstore::codec::{catalog_checksum, get_str, need, put_str};
use relstore::Relation;
use std::io::{Read, Write};

/// Frame magic: the wire sibling of the `VOH*` snapshot formats.
pub const MAGIC: [u8; 4] = *b"VOHW";
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Fixed frame header size (magic + version + opcode + length).
pub const HEADER_LEN: usize = 11;
/// Hard cap on a frame payload. Anything larger is a fatal framing
/// error: honoring an attacker-controlled 4 GiB length prefix would be
/// a memory DoS.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

// Request opcodes.
pub(crate) const OP_PING: u8 = 0x01;
pub(crate) const OP_LOAD_RELATION: u8 = 0x02;
pub(crate) const OP_ANALYZE: u8 = 0x03;
pub(crate) const OP_ESTIMATE: u8 = 0x04;
pub(crate) const OP_METRICS: u8 = 0x05;
pub(crate) const OP_SNAPSHOT_EPOCH: u8 = 0x06;
pub(crate) const OP_SHUTDOWN: u8 = 0x07;

// Response opcodes (request opcode | 0x80).
pub(crate) const OP_PONG: u8 = 0x81;
pub(crate) const OP_LOADED: u8 = 0x82;
pub(crate) const OP_ANALYZED: u8 = 0x83;
pub(crate) const OP_ESTIMATED: u8 = 0x84;
pub(crate) const OP_METRICS_TEXT: u8 = 0x85;
pub(crate) const OP_EPOCH: u8 = 0x86;
pub(crate) const OP_SHUTDOWN_STARTED: u8 = 0x87;
pub(crate) const OP_OVERLOADED: u8 = 0xF0;
pub(crate) const OP_ERROR: u8 = 0xF1;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registers (or replaces) a relation inside a tenant namespace.
    /// Values travel column-major, mirroring the columnar store.
    LoadRelation {
        /// Tenant namespace.
        tenant: String,
        /// Relation name.
        name: String,
        /// Column names, in schema order.
        columns: Vec<String>,
        /// One value vector per column (equal lengths).
        values: Vec<Vec<u64>>,
    },
    /// Durable ANALYZE of every column of every relation in the tenant.
    Analyze {
        /// Tenant namespace.
        tenant: String,
        /// Histogram class name (`BuilderSpec::parse` dialect).
        class: String,
        /// Bucket budget.
        buckets: u32,
    },
    /// Estimates one query, returning the estimate and its statistics
    /// trail.
    Estimate {
        /// Tenant namespace.
        tenant: String,
        /// Query text in the engine's dialect.
        sql: String,
    },
    /// Prometheus text exposition of the server's metrics registry.
    Metrics,
    /// The tenant catalog's current snapshot epoch.
    SnapshotEpoch {
        /// Tenant namespace.
        tenant: String,
    },
    /// Graceful server shutdown: every tenant is checkpointed.
    Shutdown,
}

/// Why a request failed, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame or payload.
    Protocol,
    /// The tenant name is invalid (never auto-created).
    BadTenant,
    /// The engine rejected the operation (parse/bind/analyze error).
    Engine,
    /// The server is at its connection limit.
    ConnectionLimit,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// A SHUTDOWN frame arrived on a non-loopback listener that was
    /// not started with remote shutdown enabled.
    ShutdownDenied,
    /// The connection missed a server deadline (a frame not delivered
    /// whole within the read timeout, or a response write that
    /// stalled). The server closes the connection after sending this.
    Deadline,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::Protocol => 0,
            ErrorKind::BadTenant => 1,
            ErrorKind::Engine => 2,
            ErrorKind::ConnectionLimit => 3,
            ErrorKind::ShuttingDown => 4,
            ErrorKind::ShutdownDenied => 5,
            ErrorKind::Deadline => 6,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        Ok(match v {
            0 => ErrorKind::Protocol,
            1 => ErrorKind::BadTenant,
            2 => ErrorKind::Engine,
            3 => ErrorKind::ConnectionLimit,
            4 => ErrorKind::ShuttingDown,
            5 => ErrorKind::ShutdownDenied,
            6 => ErrorKind::Deadline,
            other => return Err(format!("unknown error kind {other}")),
        })
    }

    /// Stable lowercase name (for CLI output and tests).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::BadTenant => "bad_tenant",
            ErrorKind::Engine => "engine",
            ErrorKind::ConnectionLimit => "connection_limit",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::ShutdownDenied => "shutdown_denied",
            ErrorKind::Deadline => "deadline",
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Relation registered.
    Loaded {
        /// Rows ingested.
        rows: u64,
    },
    /// ANALYZE finished and was journaled.
    Analyzed {
        /// Histograms written.
        histograms: u64,
        /// Catalog epoch after the batched put.
        epoch: u64,
    },
    /// Estimate plus its statistics trail, bit-exact: the estimate
    /// travels as raw `f64` bits so wire and in-process results are
    /// comparable with `==` on the bit pattern.
    Estimated {
        /// The cardinality estimate.
        estimate: f64,
        /// Which statistics (and which ladder rung) answered.
        sources: Vec<StatsUse>,
    },
    /// Prometheus text.
    Metrics {
        /// The exposition body.
        text: String,
    },
    /// Snapshot epoch reply.
    Epoch {
        /// The tenant catalog's epoch.
        epoch: u64,
    },
    /// Shutdown acknowledged; the server stops accepting work.
    ShutdownStarted,
    /// Admission control rejected the request: the tenant's bounded
    /// request queue is full. Retry later; the connection stays open.
    Overloaded {
        /// The tenant whose queue was full.
        tenant: String,
    },
    /// Typed failure.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// Framing/IO failures while reading one frame.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary: the peer closed the connection.
    Closed,
    /// The underlying stream failed (including EOF mid-frame).
    Io(std::io::Error),
    /// The frame is damaged but the length prefix was sound, so the
    /// stream is still frame-aligned (checksum mismatch, unsupported
    /// version).
    Corrupt(String),
    /// The stream can no longer be trusted (bad magic, oversized
    /// length prefix).
    Fatal(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            FrameError::Fatal(m) => write!(f, "unrecoverable frame error: {m}"),
        }
    }
}

/// Encodes one full frame (header + payload + trailing checksum).
///
/// The [`MAX_PAYLOAD`] cap is enforced on the *send* side too: an
/// oversized payload would only produce a frame the peer must reject
/// as fatal (and past 4 GiB the `u32` length prefix would silently
/// wrap, corrupting the stream), so it is refused before any bytes
/// hit the wire.
pub fn encode_frame(opcode: u8, payload: &[u8]) -> Result<Bytes, String> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(format!(
            "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame cap",
            payload.len()
        ));
    }
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len() + 8);
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(opcode);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    let sum = catalog_checksum(&buf);
    buf.put_u64_le(sum);
    Ok(buf.freeze())
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` means clean EOF before
/// the first byte (a peer hanging up between frames).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, std::io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame, verifying magic, version, length bound, and the
/// trailing checksum (before any payload parsing). Returns the opcode
/// and the payload bytes.
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Bytes), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header) {
        Ok(false) => return Err(FrameError::Closed),
        Ok(true) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    if header[0..4] != MAGIC {
        return Err(FrameError::Fatal(format!(
            "bad magic {:02x?} (want {:02x?})",
            &header[0..4],
            MAGIC
        )));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    let opcode = header[6];
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Fatal(format!(
            "oversized frame: payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let mut rest = vec![0u8; len as usize + 8];
    if let Err(e) = r.read_exact(&mut rest) {
        return Err(FrameError::Io(e));
    }
    let (payload, sum_bytes) = rest.split_at(len as usize);
    // Same verification order as `decode_catalog`: integrity first,
    // parse second — a flipped bit never half-parses.
    let mut hashed = Vec::with_capacity(HEADER_LEN + payload.len());
    hashed.extend_from_slice(&header);
    hashed.extend_from_slice(payload);
    let want = u64::from_le_bytes(sum_bytes.try_into().expect("8 checksum bytes"));
    let got = catalog_checksum(&hashed);
    if got != want {
        return Err(FrameError::Corrupt(format!(
            "checksum mismatch: stored {want:#018x}, computed {got:#018x}"
        )));
    }
    if version != VERSION {
        return Err(FrameError::Corrupt(format!(
            "unsupported protocol version {version} (this server speaks {VERSION})"
        )));
    }
    Ok((opcode, Bytes::from(payload.to_vec())))
}

/// Writes one frame to the stream and flushes it.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> std::io::Result<()> {
    let frame = encode_frame(opcode, payload)
        .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
    w.write_all(&frame)?;
    w.flush()
}

/// The wire byte for one `StatsUse`: the ladder rung in the low seven
/// bits, the feedback-tuned marker in the high bit. With self-tuning
/// off every `tuned` is false, so the byte equals the bare rung code
/// and disabled-mode frames are bit-identical to the pre-feedback wire.
const TUNED_BIT: u8 = 0x80;

fn rung_to_u8(rung: EstimateRung) -> u8 {
    match rung {
        EstimateRung::Spec => 0,
        EstimateRung::EndBiased => 1,
        EstimateRung::Trivial => 2,
        EstimateRung::Uniform => 3,
    }
}

fn rung_from_u8(v: u8) -> Result<EstimateRung, String> {
    Ok(match v {
        0 => EstimateRung::Spec,
        1 => EstimateRung::EndBiased,
        2 => EstimateRung::Trivial,
        3 => EstimateRung::Uniform,
        other => return Err(format!("unknown ladder rung {other}")),
    })
}

fn codec_err<T>(r: relstore::Result<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

impl Request {
    /// Opcode + payload for this request.
    pub fn encode(&self) -> (u8, Bytes) {
        let mut buf = BytesMut::new();
        let opcode = match self {
            Request::Ping => OP_PING,
            Request::LoadRelation {
                tenant,
                name,
                columns,
                values,
            } => {
                put_str(&mut buf, tenant);
                put_str(&mut buf, name);
                buf.put_u16_le(columns.len() as u16);
                for c in columns {
                    put_str(&mut buf, c);
                }
                let rows = values.first().map_or(0, Vec::len);
                buf.put_u64_le(rows as u64);
                for column in values {
                    for &v in column {
                        buf.put_u64_le(v);
                    }
                }
                OP_LOAD_RELATION
            }
            Request::Analyze {
                tenant,
                class,
                buckets,
            } => {
                put_str(&mut buf, tenant);
                put_str(&mut buf, class);
                buf.put_u32_le(*buckets);
                OP_ANALYZE
            }
            Request::Estimate { tenant, sql } => {
                put_str(&mut buf, tenant);
                put_str(&mut buf, sql);
                OP_ESTIMATE
            }
            Request::Metrics => OP_METRICS,
            Request::SnapshotEpoch { tenant } => {
                put_str(&mut buf, tenant);
                OP_SNAPSHOT_EPOCH
            }
            Request::Shutdown => OP_SHUTDOWN,
        };
        (opcode, buf.freeze())
    }

    /// The full wire frame for this request. Fails (rather than
    /// emitting an unservable frame) when the payload exceeds
    /// [`MAX_PAYLOAD`] — e.g. a `LoadRelation` of more than ~2M rows
    /// per column.
    pub fn encode_frame(&self) -> Result<Bytes, String> {
        let (opcode, payload) = self.encode();
        encode_frame(opcode, &payload)
    }

    /// Decodes a request payload. A `Err(message)` is a recoverable
    /// protocol error: the frame itself was sound.
    pub fn decode(opcode: u8, mut payload: Bytes) -> Result<Request, String> {
        let req = match opcode {
            OP_PING => Request::Ping,
            OP_LOAD_RELATION => {
                let tenant = codec_err(get_str(&mut payload))?;
                let name = codec_err(get_str(&mut payload))?;
                codec_err(need(&payload, 2, "column count"))?;
                let ncols = payload.get_u16_le() as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(codec_err(get_str(&mut payload))?);
                }
                codec_err(need(&payload, 8, "row count"))?;
                let rows = payload.get_u64_le() as usize;
                // Fully checked size math: a frame claiming 2^61 rows
                // must fail here as a typed protocol error, not wrap
                // the product to 0 and pass `need` on a tiny payload
                // (allocating by `rows` afterwards). With the product
                // checked, `need` then bounds `rows` by the remaining
                // payload (itself capped at MAX_PAYLOAD) before any
                // row-sized allocation happens.
                let value_bytes = rows
                    .checked_mul(ncols)
                    .and_then(|cells| cells.checked_mul(8))
                    .ok_or_else(|| {
                        format!("row count {rows} x {ncols} column(s) overflows the payload size")
                    })?;
                codec_err(need(&payload, value_bytes, "column values"))?;
                let mut values = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let mut column = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        column.push(payload.get_u64_le());
                    }
                    values.push(column);
                }
                Request::LoadRelation {
                    tenant,
                    name,
                    columns,
                    values,
                }
            }
            OP_ANALYZE => {
                let tenant = codec_err(get_str(&mut payload))?;
                let class = codec_err(get_str(&mut payload))?;
                codec_err(need(&payload, 4, "bucket count"))?;
                let buckets = payload.get_u32_le();
                Request::Analyze {
                    tenant,
                    class,
                    buckets,
                }
            }
            OP_ESTIMATE => {
                let tenant = codec_err(get_str(&mut payload))?;
                let sql = codec_err(get_str(&mut payload))?;
                Request::Estimate { tenant, sql }
            }
            OP_METRICS => Request::Metrics,
            OP_SNAPSHOT_EPOCH => {
                let tenant = codec_err(get_str(&mut payload))?;
                Request::SnapshotEpoch { tenant }
            }
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(format!("unknown request opcode {other:#04x}")),
        };
        if payload.has_remaining() {
            return Err(format!(
                "{} trailing byte(s) after request payload",
                payload.remaining()
            ));
        }
        Ok(req)
    }

    /// Builds a `LoadRelation` request from a columnar relation.
    pub fn load_relation(tenant: impl Into<String>, relation: &Relation) -> Request {
        let columns: Vec<String> = relation
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let values: Vec<Vec<u64>> = (0..columns.len())
            .map(|i| relation.column(i).to_vec())
            .collect();
        Request::LoadRelation {
            tenant: tenant.into(),
            name: relation.name().to_string(),
            columns,
            values,
        }
    }

    /// Stable lowercase operation name (metric label / trace field).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::LoadRelation { .. } => "load_relation",
            Request::Analyze { .. } => "analyze",
            Request::Estimate { .. } => "estimate",
            Request::Metrics => "metrics",
            Request::SnapshotEpoch { .. } => "snapshot_epoch",
            Request::Shutdown => "shutdown",
        }
    }

    /// The tenant this request addresses, if any.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::LoadRelation { tenant, .. }
            | Request::Analyze { tenant, .. }
            | Request::Estimate { tenant, .. }
            | Request::SnapshotEpoch { tenant } => Some(tenant),
            Request::Ping | Request::Metrics | Request::Shutdown => None,
        }
    }
}

impl Response {
    /// Opcode + payload for this response.
    pub fn encode(&self) -> (u8, Bytes) {
        let mut buf = BytesMut::new();
        let opcode = match self {
            Response::Pong => OP_PONG,
            Response::Loaded { rows } => {
                buf.put_u64_le(*rows);
                OP_LOADED
            }
            Response::Analyzed { histograms, epoch } => {
                buf.put_u64_le(*histograms);
                buf.put_u64_le(*epoch);
                OP_ANALYZED
            }
            Response::Estimated { estimate, sources } => {
                buf.put_u64_le(estimate.to_bits());
                buf.put_u32_le(sources.len() as u32);
                for s in sources {
                    put_str(&mut buf, &s.target);
                    buf.put_u8(rung_to_u8(s.rung) | if s.tuned { TUNED_BIT } else { 0 });
                }
                OP_ESTIMATED
            }
            Response::Metrics { text } => {
                put_str(&mut buf, text);
                OP_METRICS_TEXT
            }
            Response::Epoch { epoch } => {
                buf.put_u64_le(*epoch);
                OP_EPOCH
            }
            Response::ShutdownStarted => OP_SHUTDOWN_STARTED,
            Response::Overloaded { tenant } => {
                put_str(&mut buf, tenant);
                OP_OVERLOADED
            }
            Response::Error { kind, message } => {
                buf.put_u8(kind.to_u8());
                put_str(&mut buf, message);
                OP_ERROR
            }
        };
        (opcode, buf.freeze())
    }

    /// The full wire frame for this response. Fails when the payload
    /// exceeds [`MAX_PAYLOAD`] (a METRICS exposition can in principle
    /// outgrow the cap).
    pub fn encode_frame(&self) -> Result<Bytes, String> {
        let (opcode, payload) = self.encode();
        encode_frame(opcode, &payload)
    }

    /// Decodes a response payload.
    pub fn decode(opcode: u8, mut payload: Bytes) -> Result<Response, String> {
        let resp = match opcode {
            OP_PONG => Response::Pong,
            OP_LOADED => {
                codec_err(need(&payload, 8, "row count"))?;
                Response::Loaded {
                    rows: payload.get_u64_le(),
                }
            }
            OP_ANALYZED => {
                codec_err(need(&payload, 16, "analyze summary"))?;
                Response::Analyzed {
                    histograms: payload.get_u64_le(),
                    epoch: payload.get_u64_le(),
                }
            }
            OP_ESTIMATED => {
                codec_err(need(&payload, 12, "estimate header"))?;
                let estimate = f64::from_bits(payload.get_u64_le());
                let n = payload.get_u32_le() as usize;
                let mut sources = Vec::with_capacity(n);
                for _ in 0..n {
                    let target = codec_err(get_str(&mut payload))?;
                    codec_err(need(&payload, 1, "rung"))?;
                    let b = payload.get_u8();
                    let tuned = b & TUNED_BIT != 0;
                    let rung = rung_from_u8(b & !TUNED_BIT)?;
                    sources.push(StatsUse {
                        target: target.into(),
                        rung,
                        tuned,
                    });
                }
                Response::Estimated { estimate, sources }
            }
            OP_METRICS_TEXT => Response::Metrics {
                text: codec_err(get_str(&mut payload))?,
            },
            OP_EPOCH => {
                codec_err(need(&payload, 8, "epoch"))?;
                Response::Epoch {
                    epoch: payload.get_u64_le(),
                }
            }
            OP_SHUTDOWN_STARTED => Response::ShutdownStarted,
            OP_OVERLOADED => Response::Overloaded {
                tenant: codec_err(get_str(&mut payload))?,
            },
            OP_ERROR => {
                codec_err(need(&payload, 1, "error kind"))?;
                let kind = ErrorKind::from_u8(payload.get_u8())?;
                let message = codec_err(get_str(&mut payload))?;
                Response::Error { kind, message }
            }
            other => return Err(format!("unknown response opcode {other:#04x}")),
        };
        if payload.has_remaining() {
            return Err(format!(
                "{} trailing byte(s) after response payload",
                payload.remaining()
            ));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let frame = req.encode_frame().expect("frame encodes");
        let (opcode, payload) = read_frame(&mut frame.as_ref()).expect("frame reads back");
        assert_eq!(Request::decode(opcode, payload).expect("decodes"), req);
    }

    fn round_trip_response(resp: Response) {
        let frame = resp.encode_frame().expect("frame encodes");
        let (opcode, payload) = read_frame(&mut frame.as_ref()).expect("frame reads back");
        assert_eq!(Response::decode(opcode, payload).expect("decodes"), resp);
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::LoadRelation {
            tenant: "acme".into(),
            name: "t".into(),
            columns: vec!["a".into(), "b".into()],
            values: vec![vec![1, 2, 3], vec![4, 5, 6]],
        });
        round_trip_request(Request::Analyze {
            tenant: "acme".into(),
            class: "v_opt_end_biased".into(),
            buckets: 8,
        });
        round_trip_request(Request::Estimate {
            tenant: "acme".into(),
            sql: "select count(*) from t where t.a = 3".into(),
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::SnapshotEpoch {
            tenant: "acme".into(),
        });
        round_trip_request(Request::Shutdown);

        round_trip_response(Response::Pong);
        round_trip_response(Response::Loaded { rows: 42 });
        round_trip_response(Response::Analyzed {
            histograms: 4,
            epoch: 17,
        });
        round_trip_response(Response::Estimated {
            estimate: 12.75,
            sources: vec![
                StatsUse {
                    target: "t.a".into(),
                    rung: EstimateRung::Spec,
                    tuned: true,
                },
                StatsUse {
                    target: "t.b".into(),
                    rung: EstimateRung::Uniform,
                    tuned: false,
                },
            ],
        });
        round_trip_response(Response::Metrics {
            text: "# HELP x\nx 1\n".into(),
        });
        round_trip_response(Response::Epoch { epoch: 9 });
        round_trip_response(Response::ShutdownStarted);
        round_trip_response(Response::Overloaded {
            tenant: "acme".into(),
        });
        round_trip_response(Response::Error {
            kind: ErrorKind::Engine,
            message: "unknown relation 'q'".into(),
        });
    }

    #[test]
    fn corrupted_checksum_is_recoverable_not_fatal() {
        let mut frame = Request::Ping.encode_frame().unwrap().to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Corrupt(m)) => assert!(m.contains("checksum")),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut frame = Request::Ping.encode_frame().unwrap().to_vec();
        frame[0] = b'X';
        assert!(matches!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::Fatal(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_fatal_without_allocation() {
        let mut frame = Request::Ping.encode_frame().unwrap().to_vec();
        frame[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Fatal(m)) => assert!(m.contains("oversized")),
            other => panic!("want Fatal, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_io_and_clean_eof_is_closed() {
        let frame = Request::Ping.encode_frame().unwrap();
        let cut = &frame[..frame.len() - 3];
        assert!(matches!(read_frame(&mut &cut[..]), Err(FrameError::Io(_))));
        assert!(matches!(read_frame(&mut &[][..]), Err(FrameError::Closed)));
    }

    #[test]
    fn cross_version_frame_is_recoverable() {
        // A well-formed frame stamped with a future version: checksum
        // passes, version check rejects, stream stays aligned.
        let (opcode, payload) = Request::Ping.encode();
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION + 1);
        buf.put_u8(opcode);
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
        let sum = catalog_checksum(&buf);
        buf.put_u64_le(sum);
        match read_frame(&mut buf.freeze().as_ref()) {
            Err(FrameError::Corrupt(m)) => assert!(m.contains("version")),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }
}
