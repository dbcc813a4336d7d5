//! The length-prefixed framed wire protocol of the networked serving tier.
//!
//! Every message on a connection is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     body length, big-endian u32 (= 2 + payload length)
//! 4       1     protocol version byte (WIRE_VERSION, currently 0x01)
//! 5       1     frame kind (Request 0x01 / Response 0x02 / Error 0x03 /
//!               Health 0x04)
//! 6       n     payload: a `rasa_sim::json` document, UTF-8
//! ```
//!
//! The length prefix counts the version and kind bytes plus the payload,
//! so the smallest legal frame declares a length of 2 (an empty payload —
//! a health probe). A reader rejects frames whose declared payload exceeds
//! [`MAX_FRAME_LEN`] *before* allocating, so a corrupt or hostile peer
//! cannot make a shard balloon its memory, and rejects any version byte it
//! does not speak with [`NetError::BadVersion`] — the version is the first
//! byte after the length precisely so that future protocol revisions can
//! be detected before any payload parsing. Every decoder ([`Frame::decode`],
//! [`Frame::read_from`], [`Frame::read_reply`], [`FrameDecoder`]) runs the
//! same header check, and [`Frame::append_to`] is the one encoder. Payloads
//! are written by their documents' declared encoders straight into the
//! frame ([`Frame::document`]) and read back in one pass by the pull
//! decoder ([`Frame::decode_payload`]); no JSON tree is built on the
//! request path. The full byte-level spec with a worked hex example lives
//! in `docs/WIRE_PROTOCOL.md`.

use crate::json::{
    self, json_document, member, required, FromJson, JsonError, JsonSink, JsonSource, JsonValue,
    ToJson,
};
use crate::key::CellKey;
use crate::net::NetError;
use crate::prof::{self, Stage};
use crate::{CacheStats, DesignPoint, SimJob, SimReport};
use rasa_workloads::LayerSpec;
use std::io::{Read, Write};

/// The protocol version this build speaks (the frame's fifth byte).
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame's payload in bytes. A declared length above this
/// is rejected before any allocation happens.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Bytes of framing before the payload: length prefix + version + kind.
pub const HEADER_LEN: usize = 6;

/// Longest `design` or workload `name`, in bytes, a request may carry.
/// Every name this workspace generates is under 32 bytes (for example
/// `ResNet50-3@b4096`). The router's result cache and the runner's cell
/// cache hold the names of the requests they answered, so only this cap
/// keeps their memory proportional to their entry counts.
pub const MAX_NAME_LEN: usize = 256;

/// Deepest reduction (the lowered GEMM's K) a request may ask for. The
/// matmul cap counts register blocks, and one block spans the whole K
/// reduction, so a capped shard simulates up to its cap plus one block,
/// and a block grows with K. At this K one default 2×2 block holds
/// exactly the default cap of 4 096 `rasa_mm`; it is 10× the deepest
/// Table I layer (BERT-2, K = 3 072).
pub const MAX_GEMM_K: usize = 32_768;

/// What a frame carries; the sixth byte of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A client/router → shard simulation request ([`WireRequest`]).
    Request,
    /// A shard → client/router answer ([`WireResponse`]).
    Response,
    /// A failure answer ([`WireFailure`]) — the peer stays connected.
    Error,
    /// A health probe (empty payload) or its reply ([`HealthStatus`]).
    Health,
}

impl FrameKind {
    /// The on-wire byte of this kind.
    #[must_use]
    pub const fn as_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0x01,
            FrameKind::Response => 0x02,
            FrameKind::Error => 0x03,
            FrameKind::Health => 0x04,
        }
    }

    /// Decodes a kind byte.
    #[must_use]
    pub const fn from_byte(byte: u8) -> Option<FrameKind> {
        match byte {
            0x01 => Some(FrameKind::Request),
            0x02 => Some(FrameKind::Response),
            0x03 => Some(FrameKind::Error),
            0x04 => Some(FrameKind::Health),
            _ => None,
        }
    }
}

/// One framed message: a kind plus an opaque JSON payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The payload bytes (a `rasa_sim::json` document; empty for health
    /// probes).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame wrapping a JSON document of the given kind.
    #[must_use]
    pub fn json(kind: FrameKind, document: &JsonValue) -> Frame {
        Frame::document(kind, document)
    }

    /// A frame carrying `document`, written by its declared encoder
    /// straight into the payload: no tree is built.
    #[must_use]
    pub fn document(kind: FrameKind, document: &(impl ToJson + ?Sized)) -> Frame {
        Frame::written(kind, |sink| document.write_json(sink))
    }

    /// A frame whose payload `write` encodes, compact, straight into the
    /// payload buffer: the frame writer of every server reply.
    pub(crate) fn written(kind: FrameKind, write: impl FnOnce(&mut json::JsonWriter<'_>)) -> Frame {
        let _serialize = prof::time(Stage::JsonSerialize);
        // Room for a Response payload (about 900 bytes) without regrowing.
        let mut payload = Vec::with_capacity(1024);
        json::write_compact(&mut payload, write);
        Frame { kind, payload }
    }

    /// Decodes the payload as a `T` with the pull reader, building no
    /// tree: the decoder of every payload a server or client receives.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] when the payload is not UTF-8 JSON or does not
    /// decode as a `T`.
    pub fn decode_payload<T: FromJson>(&self) -> Result<T, JsonError> {
        let _parse = prof::time(Stage::JsonParse);
        json::from_slice(&self.payload)
    }

    /// An empty-payload health probe.
    #[must_use]
    pub fn health_probe() -> Frame {
        Frame {
            kind: FrameKind::Health,
            payload: Vec::new(),
        }
    }

    /// Serializes the frame: 4-byte big-endian length, version byte, kind
    /// byte, payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.append_to(&mut out);
        out
    }

    /// Decodes one frame from the start of `bytes`, returning the frame
    /// and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] for a truncated buffer, an impossible declared
    /// length or an unknown kind byte; [`NetError::FrameTooLarge`] when
    /// the declared payload exceeds [`MAX_FRAME_LEN`];
    /// [`NetError::BadVersion`] for any version byte other than
    /// [`WIRE_VERSION`].
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), NetError> {
        let header = bytes
            .get(..HEADER_LEN)
            .and_then(|header| <[u8; HEADER_LEN]>::try_from(header).ok())
            .ok_or_else(|| NetError::Frame {
                reason: format!("truncated header: {} of {HEADER_LEN} bytes", bytes.len()),
            })?;
        let (kind, len) = parse_header(header)?;
        let total = HEADER_LEN + len;
        let payload = bytes
            .get(HEADER_LEN..total)
            .ok_or_else(|| NetError::Frame {
                reason: format!("truncated frame: {} of {total} bytes", bytes.len()),
            })?;
        Ok((
            Frame {
                kind,
                payload: payload.to_vec(),
            },
            total,
        ))
    }

    /// Reads exactly one frame from a stream. The header is validated
    /// before the payload buffer is allocated.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the stream ends or fails mid-frame, plus the
    /// same validation errors as [`decode`](Self::decode).
    pub fn read_from(reader: &mut impl Read) -> Result<Frame, NetError> {
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header).map_err(NetError::from)?;
        let (kind, len) = parse_header(header)?;
        let mut payload = vec![0; len];
        reader.read_exact(&mut payload).map_err(NetError::from)?;
        Ok(Frame { kind, payload })
    }

    /// Reads the one reply a lockstep peer owes, with a single `read` when
    /// the reply arrives whole: the bytes go through a [`FrameDecoder`],
    /// which resumes across reads when a reply arrives in pieces.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the stream ends or fails before the reply is
    /// whole, the decoder's validation errors, and [`NetError::Protocol`]
    /// when bytes follow the reply: a lockstep peer owes exactly one.
    pub fn read_reply(reader: &mut impl Read) -> Result<Frame, NetError> {
        let mut decoder = FrameDecoder::new();
        let mut buffer = [0u8; 4096];
        loop {
            let read = match reader.read(&mut buffer) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(read) => read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::from(e)),
            };
            if let (used, Some(frame)) = decoder.feed(&buffer[..read])? {
                if used < read {
                    return Err(NetError::Protocol {
                        reason: format!("{} bytes followed the one reply owed", read - used),
                    });
                }
                return Ok(frame);
            }
        }
    }

    /// Writes the frame to a stream and flushes it: the frame is encoded
    /// with [`append_to`](Self::append_to), then written in one
    /// `write_all`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on any transport failure.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<(), NetError> {
        writer.write_all(&self.encode()).map_err(NetError::from)?;
        writer.flush().map_err(NetError::from)
    }

    /// Parses the payload as a JSON document.
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] when the payload is not UTF-8 JSON.
    pub fn payload_json(&self) -> Result<JsonValue, NetError> {
        let text = std::str::from_utf8(&self.payload).map_err(|_| NetError::Frame {
            reason: "frame payload is not UTF-8".to_string(),
        })?;
        JsonValue::parse(text).map_err(|e| NetError::Frame {
            reason: format!("frame payload is not JSON: {e}"),
        })
    }

    /// Appends the frame's encoded bytes — 4-byte big-endian length,
    /// version byte, kind byte, payload — to `out` without flushing
    /// anything. This is the one frame encoder: [`encode`](Self::encode)
    /// and [`write_to`](Self::write_to) build on it, and the frame server
    /// appends replies to a per-connection write buffer that drains as the
    /// socket reports writability, so a slow reader never blocks a
    /// follower.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        let _encode = prof::time(Stage::FrameEncode);
        let body_len = u32::try_from(2 + self.payload.len()).expect("frame fits in u32");
        out.extend_from_slice(&body_len.to_be_bytes());
        out.push(WIRE_VERSION);
        out.push(self.kind.as_byte());
        out.extend_from_slice(&self.payload);
    }
}

/// Validates the 6 framing bytes — declared length, version byte, kind
/// byte, in that order — and returns the kind and the payload length. The
/// one header check of every decoder, run before any payload allocation.
fn parse_header(header: [u8; HEADER_LEN]) -> Result<(FrameKind, usize), NetError> {
    let _decode = prof::time(Stage::FrameDecode);
    let body_len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let Some(len) = body_len.checked_sub(2) else {
        return Err(NetError::Frame {
            reason: format!("declared body length {body_len} is below the 2-byte header"),
        });
    };
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    if header[4] != WIRE_VERSION {
        return Err(NetError::BadVersion { got: header[4] });
    }
    let kind = FrameKind::from_byte(header[5]).ok_or_else(|| NetError::Frame {
        reason: format!("unknown frame kind byte 0x{:02x}", header[5]),
    })?;
    Ok((kind, len))
}

/// An incremental, resumable frame decoder: the state machine form of
/// [`Frame::read_from`].
///
/// A connection owns one decoder for its whole lifetime and feeds it
/// whatever bytes each readiness event's read burst produces. Partial
/// header or payload bytes **survive across calls**, which rules out the
/// classic framing desync by construction: a burst that ends after part of
/// a length prefix resumes exactly where it stopped instead of discarding
/// the prefix and re-parsing payload bytes as a header.
///
/// The decoder enforces the same validation as the one-shot parser — the
/// [`MAX_FRAME_LEN`] guard runs when the 6-byte header completes, *before*
/// any payload allocation — and produces byte-identical frames
/// (`tests/net_wire.rs` proves parity under random split points).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// The 6 framing bytes, accumulated across calls.
    header: [u8; HEADER_LEN],
    /// How many header bytes have arrived (0..=[`HEADER_LEN`]).
    header_filled: usize,
    /// The validated kind once the header is complete; `None` while the
    /// header is still being accumulated.
    kind: Option<FrameKind>,
    /// The payload in flight, pre-sized to the declared length.
    payload: Vec<u8>,
    /// How many payload bytes have arrived.
    payload_filled: usize,
}

impl FrameDecoder {
    /// A decoder with no buffered bytes.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Whether the decoder is holding a partially received frame. A clean
    /// connection close is only clean when this is `false`.
    #[must_use]
    pub fn is_mid_frame(&self) -> bool {
        self.header_filled > 0 || self.kind.is_some()
    }

    /// Consumes as many of `bytes` as one frame needs, returning how many
    /// were consumed and the frame if it completed. Callers loop while
    /// consumed < `bytes.len()` to drain a burst holding several frames.
    ///
    /// # Errors
    ///
    /// The same validation errors as [`Frame::decode`], raised as soon as
    /// the header completes. After an error the stream cannot be resynced
    /// — the connection must be closed.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(usize, Option<Frame>), NetError> {
        let mut consumed = 0;
        if self.kind.is_none() {
            let take = (HEADER_LEN - self.header_filled).min(bytes.len());
            self.header[self.header_filled..self.header_filled + take]
                .copy_from_slice(&bytes[..take]);
            self.header_filled += take;
            consumed += take;
            if self.header_filled < HEADER_LEN {
                return Ok((consumed, None));
            }
            let (kind, len) = parse_header(self.header)?;
            self.kind = Some(kind);
            self.payload = vec![0; len];
            self.payload_filled = 0;
        }
        let take = (self.payload.len() - self.payload_filled).min(bytes.len() - consumed);
        self.payload[self.payload_filled..self.payload_filled + take]
            .copy_from_slice(&bytes[consumed..consumed + take]);
        self.payload_filled += take;
        consumed += take;
        if self.payload_filled == self.payload.len() {
            return Ok((consumed, Some(self.complete())));
        }
        Ok((consumed, None))
    }

    /// Emits the completed frame and resets for the next one.
    fn complete(&mut self) -> Frame {
        let kind = self.kind.take().expect("complete requires a full header");
        self.header_filled = 0;
        self.payload_filled = 0;
        Frame {
            kind,
            payload: std::mem::take(&mut self.payload),
        }
    }
}

/// Machine-readable failure categories carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request payload did not decode.
    BadRequest,
    /// The request named a design the shard does not serve.
    UnknownDesign,
    /// The simulation itself failed.
    Simulation,
    /// No shard is reachable for the request's shape.
    Unavailable,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    /// The stable string carried on the wire.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownDesign => "unknown_design",
            ErrorCode::Simulation => "simulation",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
        }
    }

    /// Decodes the wire string; unknown codes map to `Internal` so that a
    /// newer peer's codes degrade gracefully instead of failing decode.
    #[must_use]
    pub fn from_str_lossy(s: &str) -> ErrorCode {
        match s {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_design" => ErrorCode::UnknownDesign,
            "simulation" => ErrorCode::Simulation,
            "unavailable" => ErrorCode::Unavailable,
            _ => ErrorCode::Internal,
        }
    }

    /// Whether a client may transparently retry after this code.
    #[must_use]
    pub const fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Unavailable)
    }
}

/// A simulation request as shipped over the wire.
///
/// A request is a design and a layer. Designs travel **by name**
/// (resolved against the eight named paper designs via
/// [`DesignPoint::by_name`] on the shard) and the workload travels
/// structurally; the shard simulates it with its default kernel at its
/// configured fidelity. `id` is echoed back in the response so a client
/// can detect protocol desync.
///
/// The decoder turns away, as a decode error (`bad_request` on the
/// wire), a request that carries a non-null `kernel` (kernel overrides
/// stay in process, on [`SimJob::with_kernel`]), a design or workload
/// name longer than [`MAX_NAME_LEN`] bytes, an invalid conv shape
/// (including one whose padded input or lowered GEMM overflows), a layer
/// whose lowered GEMM has more MACs (m·k·n) than a `u64` counts, and one
/// whose lowered K exceeds [`MAX_GEMM_K`]. Every accepted request can
/// therefore be keyed ([`route_key`](Self::route_key)) without overflow,
/// and a capped shard simulates at most its cap plus one block of at most
/// 4 096 `rasa_mm` for it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the answer.
    pub id: u64,
    /// Name of one of the paper design points (e.g. `RASA-DMDB-WLS`).
    pub design: String,
    /// The workload to simulate.
    pub workload: LayerSpec,
}

impl WireRequest {
    /// A request for `workload` on the design named `design`.
    #[must_use]
    pub fn new(id: u64, design: impl Into<String>, workload: LayerSpec) -> Self {
        WireRequest {
            id,
            design: design.into(),
            workload,
        }
    }

    /// Resolves the named design and builds the corresponding [`SimJob`]:
    /// the shard's design lookup (a router never resolves designs).
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with [`ErrorCode::UnknownDesign`] when the
    /// name matches none of the paper designs.
    pub fn to_job(&self) -> Result<SimJob, NetError> {
        let design = DesignPoint::by_name(&self.design).ok_or_else(|| NetError::Remote {
            code: ErrorCode::UnknownDesign,
            message: format!("'{}' is not a paper design point", self.design),
        })?;
        Ok(SimJob::new(design, self.workload.clone()))
    }

    /// The interned key the router routes and caches under:
    /// `"{design}|{gemm_shape:?}"` — the design *name* and the lowered
    /// GEMM shape. Equal keys name the same design and shape, so every
    /// shard running at the same fidelity answers them with the same
    /// numbers; the router needs no shard configuration to compute it. The
    /// key carries its precomputed 64-bit routing point
    /// ([`CellKey::hash64`]).
    #[must_use]
    pub fn route_key(&self) -> CellKey {
        CellKey::new(format!("{}|{:?}", self.design, self.workload.gemm_shape()))
    }
}

json_document!(WireRequest: encode {
    "id" => id,
    "design" => design,
    "workload" => workload,
});

/// A request's members, plus its rules: a non-null `kernel` member is
/// turned away, and so is a request that fails the checks in the type's
/// docs.
impl FromJson for WireRequest {
    const EXPECTED: &'static str = "an object";

    fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError> {
        let (mut id, mut design, mut workload, mut kernel) = (None, None, None, None);
        let object = source.object(|key, value| {
            match key {
                "id" if id.is_none() => id = Some(member(key, value)?),
                "design" if design.is_none() => design = Some(member(key, value)?),
                "workload" if workload.is_none() => workload = Some(member(key, value)?),
                "kernel" if kernel.is_none() => kernel = Some(value.null()?),
                _ => {}
            }
            Ok(())
        })?;
        if !object {
            return Ok(None);
        }
        if kernel == Some(false) {
            return Err(JsonError::decode(
                "kernel overrides are not served: a request is a design and a layer",
            ));
        }
        let request = WireRequest {
            id: required(id, "id")?,
            design: required(design, "design")?,
            workload: required::<LayerSpec>(workload, "workload")?,
        };
        for (what, name) in [
            ("design", request.design.as_str()),
            ("workload name", request.workload.name()),
        ] {
            if name.len() > MAX_NAME_LEN {
                return Err(JsonError::decode(format!(
                    "{what} is {} bytes, over the {MAX_NAME_LEN}-byte cap",
                    name.len()
                )));
            }
        }
        let gemm = request.workload.gemm_shape();
        let macs = (gemm.m as u64)
            .checked_mul(gemm.k as u64)
            .and_then(|mk| mk.checked_mul(gemm.n as u64));
        if macs.is_none() {
            return Err(JsonError::decode(format!(
                "lowered GEMM {gemm} has more MACs than a u64 counts"
            )));
        }
        if gemm.k > MAX_GEMM_K {
            return Err(JsonError::decode(format!(
                "lowered GEMM {gemm} reduces over K = {}, deeper than the {MAX_GEMM_K} bound",
                gemm.k
            )));
        }
        Ok(Some(request))
    }
}

/// A successful answer to a [`WireRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The request's correlation id, echoed back.
    pub id: u64,
    /// Which shard simulated (or recalled) the cell.
    pub shard: u32,
    /// Kept for wire compatibility: shards answer each request on its own,
    /// so this always reads 1.
    pub batch_size: usize,
    /// The simulation result.
    pub report: SimReport,
}

impl WireResponse {
    /// The first bytes of every Response payload that answers request
    /// `id`: `{"id":<id>,`. The declared encoder writes `id` first and the
    /// compact writer adds no whitespace, so a router can check a shard's reply,
    /// and splice a cached one under a new id, without parsing it. The
    /// comma matters: request 7 must not accept an answer for id 70.
    pub(crate) fn payload_prefix(id: u64) -> String {
        format!("{{\"id\":{id},")
    }

    /// Decodes the reply frame to request `id`. This is the one reply
    /// decoder of [`NetClient::request`](crate::net::NetClient::request)
    /// and [`Router::route`](crate::net::Router::route).
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] for a payload that does not decode;
    /// [`NetError::Protocol`] for a frame that is neither a Response nor an
    /// Error, or a Response with another id; [`NetError::Remote`] with an
    /// Error frame's code and message.
    pub fn from_reply(reply: &Frame, id: u64) -> Result<WireResponse, NetError> {
        match reply.kind {
            FrameKind::Response => {
                let response: WireResponse =
                    reply.decode_payload().map_err(|e| NetError::Frame {
                        reason: format!("undecodable response payload: {e}"),
                    })?;
                if response.id != id {
                    return Err(NetError::Protocol {
                        reason: format!(
                            "response id {} does not match request id {id}",
                            response.id
                        ),
                    });
                }
                Ok(response)
            }
            FrameKind::Error => {
                let failure: WireFailure = reply.decode_payload().map_err(|e| NetError::Frame {
                    reason: format!("undecodable error payload: {e}"),
                })?;
                Err(NetError::Remote {
                    code: failure.code,
                    message: failure.message,
                })
            }
            FrameKind::Request | FrameKind::Health => Err(NetError::Protocol {
                reason: format!("peer answered a request with a {:?} frame", reply.kind),
            }),
        }
    }
}

// A shard answers from its cached report, which it does not own, so the
// declaration also generates `write_response`, the encoder over borrowed
// members. `id` comes first: see `WireResponse::payload_prefix`.
json_document!(WireResponse => fn write_response {
    "id" => id: u64,
    "shard" => shard: u32,
    "batch_size" => batch_size: usize,
    "report" => report: SimReport,
});

/// The payload of an error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    /// The failed request's correlation id (0 when the request could not
    /// even be decoded).
    pub id: u64,
    /// Machine-readable failure category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl WireFailure {
    /// Builds a failure answer.
    #[must_use]
    pub fn new(id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        WireFailure {
            id,
            code,
            message: message.into(),
        }
    }
}

json_document!(WireFailure {
    "id" => id: u64,
    "code" => code: ErrorCode,
    "message" => message: String,
});

impl ToJson for ErrorCode {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        sink.str(self.as_str());
    }
}

impl FromJson for ErrorCode {
    const EXPECTED: &'static str = "a string";

    fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError> {
        Ok(source
            .string()?
            .map(|code| ErrorCode::from_str_lossy(&code)))
    }
}

/// The payload of a health reply: one shard's identity and counters (the
/// router aggregates these across shards for its own health answers).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthStatus {
    /// The shard's id (routers report `u32::MAX`).
    pub shard: u32,
    /// The designs the shard serves, in construction order.
    pub designs: Vec<String>,
    /// Frames answered over the wire since start.
    pub served: u64,
    /// The wrapped server's cell-cache counters (hits, misses, evictions —
    /// the per-shard cache-churn numbers the distributed soak reports).
    /// Every request the shard answers is one hit or one miss, so
    /// `hits + misses` counts its answers.
    pub cache: CacheStats,
}

json_document!(HealthStatus {
    "shard" => shard: u32,
    "designs" => designs: Vec<String>,
    "served" => served: u64,
    "cache" => cache: CacheStats,
});

/// Layers the request decoder must turn away, each with a fragment of its
/// rejection message: conv shapes that divide by zero, do not fit, or
/// overflow while lowering, an fc layer whose MAC count overflows, and an
/// fc and a conv layer that reduce deeper than [`MAX_GEMM_K`]. Unchecked,
/// lowering the first five panics (debug) or wraps (release), and the
/// last two cost a capped shard more than its cap plus one default block.
#[cfg(test)]
pub(crate) fn undecodable_layers() -> Vec<(LayerSpec, &'static str)> {
    use rasa_numeric::ConvShape;
    let big = 1usize << 63;
    let conv = |shape| (LayerSpec::conv("bad", shape), "conv shape");
    vec![
        conv(ConvShape::new(1, 3, 8, 8, 4, 3, 3, 0, 1)),
        conv(ConvShape::new(1, 3, 4, 4, 4, 7, 7, 1, 1)),
        conv(ConvShape::new(1, 3, 8, 8, 4, 3, 3, 1, big)),
        conv(ConvShape::new(big, 3, 8, 8, 4, 3, 3, 1, 1)),
        (LayerSpec::fc("bad", big, big, 16), "MACs"),
        (LayerSpec::fc("deep", 1, MAX_GEMM_K + 1, 1), "K = "),
        // K = c·r·s = 3 641 · 3 · 3 = 32 769.
        (
            LayerSpec::conv("deep", ConvShape::new(1, 3_641, 8, 8, 4, 3, 3, 1, 1)),
            "K = ",
        ),
    ]
}

/// The default kernel as requests wrote it while they could carry one: an
/// uncapped simulation of whatever layer the request names.
#[cfg(test)]
pub(crate) const LEGACY_UNCAPPED_KERNEL: &str = r#"{"tm":16,"tk":32,"tn":16,"emit_scalar_overhead":true,"max_matmuls":null,"matmul_order":"weight-paired"}"#;

/// A Request frame for `request` with a `kernel` member holding the JSON
/// text `kernel`.
#[cfg(test)]
pub(crate) fn request_frame_with_kernel(request: &WireRequest, kernel: &str) -> Frame {
    let text = request.to_json().to_string_compact();
    let payload = format!("{},\"kernel\":{kernel}}}", &text[..text.len() - 1]);
    Frame {
        kind: FrameKind::Request,
        payload: payload.into_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rasa_numeric::ConvShape;

    #[test]
    fn frame_encode_decode_round_trips() {
        for (kind, payload) in [
            (FrameKind::Request, b"{\"id\":1}".to_vec()),
            (FrameKind::Response, vec![0xceu8, 0xbb]), // UTF-8 "λ"
            (FrameKind::Error, Vec::new()),
            (FrameKind::Health, Vec::new()),
        ] {
            let frame = Frame { kind, payload };
            let bytes = frame.encode();
            let (decoded, consumed) = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn frame_layout_is_the_documented_bytes() {
        let frame = Frame {
            kind: FrameKind::Health,
            payload: b"ok".to_vec(),
        };
        assert_eq!(frame.encode(), vec![0, 0, 0, 4, 0x01, 0x04, b'o', b'k']);
    }

    /// The book's full error frame: what a bound router answers request 7
    /// with when every shard is marked dead.
    #[test]
    fn error_frame_is_the_documented_bytes() {
        let failure = WireFailure::new(
            7,
            ErrorCode::Unavailable,
            "no shard available: every shard is marked dead",
        );
        let mut expected = vec![0, 0, 0, 0x5a, 0x01, 0x03];
        expected.extend_from_slice(
            br#"{"id":7,"code":"unavailable","message":"no shard available: every shard is marked dead"}"#,
        );
        assert_eq!(
            Frame::json(FrameKind::Error, &failure.to_json()).encode(),
            expected
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let bytes = Frame::health_probe().encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, NetError::Frame { .. }), "cut at {cut}: {err}");
        }
        // Stream form: the reader must also fail cleanly on a short read.
        for cut in 0..bytes.len() {
            let mut reader = &bytes[..cut];
            let err = Frame::read_from(&mut reader).unwrap_err();
            assert!(matches!(err, NetError::Io { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn undersized_and_oversized_lengths_are_rejected() {
        // Declared body length below the 2-byte version+kind header.
        for body_len in [0u32, 1] {
            let mut bytes = body_len.to_be_bytes().to_vec();
            bytes.extend_from_slice(&[WIRE_VERSION, 0x04]);
            assert!(matches!(Frame::decode(&bytes), Err(NetError::Frame { .. })));
        }
        // Declared payload above MAX_FRAME_LEN — rejected before allocation.
        let huge = u32::try_from(MAX_FRAME_LEN + 3).unwrap();
        let mut bytes = huge.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[WIRE_VERSION, 0x04]);
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }), "{err}");
        let mut reader = bytes.as_slice();
        let err = Frame::read_from(&mut reader).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn bad_version_and_bad_kind_are_rejected() {
        let mut bytes = Frame::health_probe().encode();
        bytes[4] = 2; // future version
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, NetError::BadVersion { got: 2 }), "{err}");

        let mut bytes = Frame::health_probe().encode();
        bytes[5] = 0x7f; // unknown kind
        let err = Frame::decode(&bytes).unwrap_err();
        assert!(matches!(err, NetError::Frame { .. }), "{err}");
        assert!(err.to_string().contains("0x7f"));
    }

    #[test]
    fn frames_round_trip_through_streams() {
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("DLRM-1", 512, 1024, 1024));
        let frame = Frame::json(FrameKind::Request, &request.to_json());
        let mut buffer = Vec::new();
        frame.write_to(&mut buffer).unwrap();
        let mut reader = buffer.as_slice();
        let back = Frame::read_from(&mut reader).unwrap();
        assert_eq!(back, frame);
        let decoded = WireRequest::from_json(&back.payload_json().unwrap()).unwrap();
        assert_eq!(decoded, request);
    }

    #[test]
    fn wire_request_json_round_trips_fc_and_conv() {
        let fc = WireRequest::new(1, "RASA-DMDB-WLS", LayerSpec::fc("BERT-1", 256, 768, 3072));
        let conv = WireRequest::new(
            2,
            "BASELINE",
            LayerSpec::conv("ResNet50-2", ConvShape::new(32, 64, 56, 56, 64, 3, 3, 1, 1)),
        );
        for request in [fc, conv] {
            let text = request.to_json().to_string_compact();
            let back = WireRequest::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, request);
            assert_eq!(
                back.workload.gemm_shape(),
                request.workload.gemm_shape(),
                "lowered shape must survive the wire"
            );
        }
    }

    /// The book's Request frame: the complete payload WIRE_PROTOCOL.md
    /// shows under `WireRequest`, and its length prefix.
    #[test]
    fn request_frame_is_the_documented_bytes() {
        let request =
            WireRequest::new(7, "RASA-DMDB-WLS", LayerSpec::fc("DLRM-1", 512, 1024, 1024));
        let payload = br#"{"id":7,"design":"RASA-DMDB-WLS","workload":{"name":"DLRM-1","kind":"fc","batch":512,"input_neurons":1024,"output_neurons":1024}}"#;
        assert_eq!(request.to_json().to_string_compact().as_bytes(), payload);
        let mut expected = vec![0, 0, 0, 0x83, 0x01, 0x01];
        expected.extend_from_slice(payload);
        assert_eq!(
            Frame::json(FrameKind::Request, &request.to_json()).encode(),
            expected
        );
    }

    /// A kernel override is a decode error, whatever it holds, and a
    /// `null` kernel is the same request as none.
    #[test]
    fn request_decoder_rejects_kernel_overrides() {
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("DLRM-1", 512, 1024, 1024));
        let decode = |kernel| {
            let frame = request_frame_with_kernel(&request, kernel);
            WireRequest::from_json(&frame.payload_json().unwrap())
        };
        assert_eq!(decode("null").unwrap(), request);
        for kernel in [LEGACY_UNCAPPED_KERNEL, "{}", "0"] {
            let err = decode(kernel).unwrap_err();
            assert!(err.message.contains("kernel"), "{kernel}: {err}");
        }
    }

    /// Encodes `request` and decodes it again, as a shard or router does.
    fn redecode(request: &WireRequest) -> Result<WireRequest, JsonError> {
        let text = request.to_json().to_string_compact();
        WireRequest::from_json(&JsonValue::parse(&text).unwrap())
    }

    #[test]
    fn request_decoder_rejects_layers_that_cannot_lower() {
        for (layer, what) in undecodable_layers() {
            let err = redecode(&WireRequest::new(1, "BASELINE", layer.clone())).unwrap_err();
            assert!(err.message.contains(what), "{layer}: {err}");
        }
        // 3·2^62 MACs fit in a u64 and 2^64 do not.
        let edge = WireRequest::new(1, "BASELINE", LayerSpec::fc("edge", 1 << 62, 3, 1));
        assert_eq!(redecode(&edge).unwrap(), edge);
        assert!(edge.route_key().text().contains("m: 4611686018427387904"));
        let over = WireRequest::new(1, "BASELINE", LayerSpec::fc("over", 1 << 62, 2, 2));
        assert!(redecode(&over).unwrap_err().message.contains("MACs"));
        // A reduction of exactly MAX_GEMM_K is accepted.
        let deepest = WireRequest::new(1, "BASELINE", LayerSpec::fc("deep", 1, MAX_GEMM_K, 1));
        assert_eq!(redecode(&deepest).unwrap(), deepest);
    }

    #[test]
    fn request_decoder_caps_name_lengths() {
        let layer = |name: &str| LayerSpec::fc(name, 64, 64, 64);
        let at_cap = "n".repeat(MAX_NAME_LEN);
        let over_cap = "n".repeat(MAX_NAME_LEN + 1);
        let fits = WireRequest::new(1, at_cap.clone(), layer(&at_cap));
        assert_eq!(redecode(&fits).unwrap(), fits);
        for (request, what) in [
            (
                WireRequest::new(1, over_cap.clone(), layer("DLRM-1")),
                "design",
            ),
            (
                WireRequest::new(1, "BASELINE", layer(&over_cap)),
                "workload name",
            ),
        ] {
            let err = redecode(&request).unwrap_err();
            assert!(err.message.contains(what), "{err}");
            assert!(err.message.contains("257 bytes"), "{err}");
        }
    }

    #[test]
    fn request_resolves_designs_by_name_only() {
        let ok = WireRequest::new(1, "RASA-DB-WLS", LayerSpec::fc("DLRM-1", 512, 1024, 1024));
        assert_eq!(ok.to_job().unwrap().design.name(), "RASA-DB-WLS");
        let bad = WireRequest::new(1, "NOT-A-DESIGN", LayerSpec::fc("DLRM-1", 512, 1024, 1024));
        let err = bad.to_job().unwrap_err();
        assert!(matches!(
            err,
            NetError::Remote {
                code: ErrorCode::UnknownDesign,
                ..
            }
        ));
    }

    #[test]
    fn route_keys_follow_the_request_as_sent() {
        let layer = LayerSpec::fc("DLRM-1", 512, 1024, 1024);
        let request = WireRequest::new(9, "BASELINE", layer.clone());
        let key = request.route_key();
        assert_eq!(
            key.text(),
            "BASELINE|GemmShape { m: 512, k: 1024, n: 1024 }"
        );
        // Re-batched layers at the same lowered shape share the key — the
        // property shard-warm routing relies on — whatever their name.
        let rebatched = WireRequest::new(
            10,
            "BASELINE",
            LayerSpec::fc("DLRM-1-b512", 64, 1024, 1024).with_batch(512),
        );
        assert_eq!(rebatched.route_key(), key);
        let other = WireRequest::new(9, "RASA-DMDB-WLS", layer.clone());
        assert_ne!(other.route_key(), key);
        // The design travels by name: an unknown one still has a key.
        let unknown = WireRequest::new(11, "NOT-A-DESIGN", layer);
        assert!(unknown.route_key().text().starts_with("NOT-A-DESIGN|"));
    }

    #[test]
    fn decoder_matches_one_shot_parser_byte_by_byte() {
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("DLRM-1", 512, 1024, 1024));
        let frames = [
            Frame::json(FrameKind::Request, &request.to_json()),
            Frame::health_probe(),
            Frame {
                kind: FrameKind::Response,
                payload: b"{\"id\":7}".to_vec(),
            },
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            frame.append_to(&mut stream);
        }
        // Feed the concatenated stream one byte at a time; every frame
        // must come out identical to the one-shot parser's result.
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in &stream {
            let (consumed, frame) = decoder.feed(std::slice::from_ref(byte)).unwrap();
            assert_eq!(consumed, 1);
            if let Some(frame) = frame {
                decoded.push(frame);
            }
        }
        assert!(!decoder.is_mid_frame());
        assert_eq!(decoded.len(), frames.len());
        let mut offset = 0;
        for (incremental, expected) in decoded.iter().zip(&frames) {
            let (one_shot, consumed) = Frame::decode(&stream[offset..]).unwrap();
            offset += consumed;
            assert_eq!(incremental, &one_shot);
            assert_eq!(incremental, expected);
        }
    }

    #[test]
    fn decoder_drains_multi_frame_bursts() {
        let mut stream = Vec::new();
        let frames = [
            Frame {
                kind: FrameKind::Request,
                payload: b"{\"id\":1}".to_vec(),
            },
            Frame {
                kind: FrameKind::Request,
                payload: b"{\"id\":2}".to_vec(),
            },
        ];
        for frame in &frames {
            frame.append_to(&mut stream);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        // One burst holding both frames: the caller's drain loop.
        while offset < stream.len() {
            let (consumed, frame) = decoder.feed(&stream[offset..]).unwrap();
            offset += consumed;
            if let Some(frame) = frame {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn reply_decoder_checks_kind_and_id() {
        let request = WireRequest::new(7, "BASELINE", LayerSpec::fc("DLRM-1", 64, 64, 64));
        let runner = crate::ExperimentRunner::builder()
            .with_matmul_cap(Some(8))
            .build()
            .unwrap();
        let report = runner.run_job(&request.to_job().unwrap()).unwrap();
        let answer = |id| {
            let response = WireResponse {
                id,
                shard: 0,
                batch_size: 1,
                report: (*report).clone(),
            };
            Frame::json(FrameKind::Response, &response.to_json())
        };
        // The canonical prefix, comma included: request 7's prefix does
        // not match an answer for id 70.
        let prefix = WireResponse::payload_prefix(7);
        assert!(answer(7).payload.starts_with(prefix.as_bytes()));
        assert!(!answer(70).payload.starts_with(prefix.as_bytes()));

        assert_eq!(
            WireResponse::from_reply(&answer(7), 7).unwrap().report,
            *report
        );
        let err = WireResponse::from_reply(&answer(70), 7).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        let failure = WireFailure::new(7, ErrorCode::Simulation, "boom");
        let err = WireResponse::from_reply(&Frame::json(FrameKind::Error, &failure.to_json()), 7)
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Remote {
                code: ErrorCode::Simulation,
                message: "boom".into(),
            }
        );
        let err = WireResponse::from_reply(&Frame::health_probe(), 7).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        let truncated = Frame {
            kind: FrameKind::Response,
            payload: prefix.into_bytes(),
        };
        let err = WireResponse::from_reply(&truncated, 7).unwrap_err();
        assert!(matches!(err, NetError::Frame { .. }), "{err}");
    }

    #[test]
    fn responses_written_with_diagnostics_still_decode() {
        // A Response payload as a peer from before the diagnostics left
        // the wire writes it.
        use crate::json::tests::{legacy_report_without_diagnostics, LEGACY_DLRM2_REPORT};
        let payload =
            |report: &str| format!("{{\"id\":7,\"shard\":0,\"batch_size\":1,\"report\":{report}}}");
        let legacy = Frame {
            kind: FrameKind::Response,
            payload: payload(LEGACY_DLRM2_REPORT).into_bytes(),
        };
        let response = WireResponse::from_reply(&legacy, 7).unwrap();
        let stripped = payload(&legacy_report_without_diagnostics());
        assert_eq!(
            response,
            WireResponse::from_json(&JsonValue::parse(&stripped).unwrap()).unwrap()
        );
        assert_eq!(response.to_json().to_string_compact(), stripped);
        // The report is still the one a shard simulates for that cell.
        let runner = crate::ExperimentRunner::builder()
            .with_matmul_cap(Some(256))
            .build()
            .unwrap();
        let layer = rasa_workloads::WorkloadSuite::mlperf()
            .layer("DLRM-2")
            .unwrap()
            .clone();
        let fresh = runner
            .run_job(&SimJob::new(DesignPoint::baseline(), layer))
            .unwrap();
        assert_eq!(response.report, *fresh);
    }

    #[test]
    fn decoder_rejects_bad_headers_before_any_payload() {
        // Oversized declared payload: rejected at header completion.
        let huge = u32::try_from(MAX_FRAME_LEN + 3).unwrap();
        let mut bytes = huge.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[WIRE_VERSION, 0x04]);
        let err = FrameDecoder::new().feed(&bytes).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }), "{err}");

        // Future version byte.
        let mut bytes = Frame::health_probe().encode();
        bytes[4] = 9;
        let err = FrameDecoder::new().feed(&bytes).unwrap_err();
        assert!(matches!(err, NetError::BadVersion { got: 9 }), "{err}");

        // Unknown kind byte.
        let mut bytes = Frame::health_probe().encode();
        bytes[5] = 0x7f;
        let err = FrameDecoder::new().feed(&bytes).unwrap_err();
        assert!(matches!(err, NetError::Frame { .. }), "{err}");
    }

    /// What the one-shot parser makes of a whole stream: its frames, and
    /// whether a bad header (rather than the end of the bytes) stopped it.
    fn one_shot_frames(stream: &[u8]) -> (Vec<Frame>, bool) {
        let mut frames = Vec::new();
        let mut at = 0;
        while let Ok((frame, consumed)) = Frame::decode(&stream[at..]) {
            frames.push(frame);
            at += consumed;
        }
        let bad_header = stream
            .get(at..at + HEADER_LEN)
            .is_some_and(|header| parse_header(header.try_into().unwrap()).is_err());
        (frames, bad_header)
    }

    /// A piece of a hostile stream: a frame header followed by raw bytes.
    /// Most headers are valid and declare a short payload, sometimes
    /// exactly as long as the bytes that follow (a whole frame); the rest
    /// declare an arbitrary length, a length at the cap, a wrong version
    /// or a wrong kind, or are left out, so raw bytes stand where a header
    /// belongs.
    fn stream_piece() -> impl Strategy<Value = Vec<u8>> {
        let tail = proptest::collection::vec(any::<u8>(), 0..48);
        (0u8..8, (0u32..48, any::<u32>()), any::<u8>(), tail).prop_map(
            |(shape, (short, word), byte, mut tail)| {
                let cap = u32::try_from(MAX_FRAME_LEN).unwrap();
                let (mut body_len, mut version, mut kind) = (2 + short, WIRE_VERSION, 1 + byte % 4);
                match shape {
                    0 => return tail,
                    1 => body_len = word,
                    // Payloads of MAX_FRAME_LEN - 2 ..= MAX_FRAME_LEN + 1.
                    2 => body_len = cap + word % 4,
                    3 => version = byte,
                    4 => kind = byte,
                    5 => tail.resize(short as usize, byte),
                    _ => {}
                }
                let mut piece = body_len.to_be_bytes().to_vec();
                piece.extend_from_slice(&[version, kind]);
                piece.extend_from_slice(&tail);
                piece
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One decoder fed arbitrary bytes in arbitrary chunks, as one
        /// connection's reads would feed it: it never panics, always makes
        /// progress, never sizes a payload buffer past `MAX_FRAME_LEN`,
        /// fails only with a header error (after which the connection
        /// closes), and yields exactly the one-shot parser's frames.
        #[test]
        fn decoder_survives_arbitrary_bytes(
            pieces in proptest::collection::vec(stream_piece(), 1..6),
            chunk_sizes in proptest::collection::vec(1usize..40, 1..16),
        ) {
            let stream = pieces.concat();
            let mut decoder = FrameDecoder::new();
            let (mut frames, mut failed) = (Vec::new(), false);
            let mut chunks = chunk_sizes.iter().cycle();
            let mut offset = 0;
            'read: while offset < stream.len() {
                let end = (offset + chunks.next().unwrap()).min(stream.len());
                let mut bytes = &stream[offset..end];
                offset = end;
                while !bytes.is_empty() {
                    match decoder.feed(bytes) {
                        Ok((consumed, frame)) => {
                            prop_assert!((1..=bytes.len()).contains(&consumed));
                            bytes = &bytes[consumed..];
                            match frame {
                                Some(frame) => frames.push(frame),
                                None => prop_assert!(bytes.is_empty(), "a partial frame drains"),
                            }
                        }
                        Err(error) => {
                            prop_assert!(
                                matches!(
                                    error,
                                    NetError::Frame { .. }
                                        | NetError::FrameTooLarge { .. }
                                        | NetError::BadVersion { .. }
                                ),
                                "{error}"
                            );
                            failed = true;
                            break 'read;
                        }
                    }
                    prop_assert!(decoder.payload.capacity() <= MAX_FRAME_LEN);
                }
            }
            prop_assert_eq!((frames, failed), one_shot_frames(&stream));
        }
    }

    #[test]
    fn failure_and_health_payloads_round_trip() {
        let failure = WireFailure::new(3, ErrorCode::Unavailable, "every shard is marked dead");
        let text = failure.to_json().to_string_compact();
        let back = WireFailure::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, failure);
        assert!(failure.code.is_retryable());
        assert!(!ErrorCode::Simulation.is_retryable());
        assert_eq!(ErrorCode::from_str_lossy("warp_drive"), ErrorCode::Internal);
        // An older router's `overloaded` is no code any more: not retried.
        assert_eq!(ErrorCode::from_str_lossy("overloaded"), ErrorCode::Internal);
        assert!(!ErrorCode::Internal.is_retryable());

        let health = HealthStatus {
            shard: 2,
            designs: vec!["BASELINE".into(), "RASA-DMDB-WLS".into()],
            served: 41,
            cache: CacheStats {
                hits: 30,
                misses: 11,
                entries: 11,
                evictions: 0,
                capacity: 64,
            },
        };
        let text = health.to_json().to_string_compact();
        let back = HealthStatus::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, health);
    }
}
