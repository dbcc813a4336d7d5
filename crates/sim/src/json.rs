//! Hand-rolled JSON serialization for simulation results.
//!
//! The vendored `serde` is a marker-trait stub (no registry access in the
//! build environment), so persistent result files are produced by this
//! module instead: a small JSON document model ([`JsonValue`]), a writer
//! and a recursive-descent parser, plus [`ToJson`]/[`FromJson`]
//! implementations for the result types the serving layer and the CI
//! regression harness persist ([`SimReport`], [`CacheStats`] and their
//! nested breakdowns; [`SimSummary`] rows are written, never read back).
//! A report's document is what was simulated: its execution diagnostics
//! ([`SimReport::sched`], [`SimReport::pipeline`]) are never written.
//!
//! ## Byte-identical round trips
//!
//! CI diffs result files across commits, so `parse(serialize(x))` must not
//! drift. Two design choices guarantee that a parsed document re-serializes
//! to the exact bytes it was parsed from:
//!
//! * numbers keep their literal token text (`JsonValue::Number` stores the
//!   digits, not an `f64`), so no reformatting can occur, and
//! * objects preserve key order (`Vec<(String, JsonValue)>`, not a map).
//!
//! Values serialized from Rust floats use the standard shortest
//! round-trip `Display` formatting, so `f64 -> text -> f64` is lossless as
//! well.

use crate::{CacheStats, PipelineStats, SimError, SimReport, SimSummary};
use rasa_cpu::{CpuStats, SchedStats};
use rasa_numeric::RegisterBlock;
use rasa_numeric::{ConvShape, TilingConfig};
use rasa_power::{AreaBreakdown, EnergyBreakdown, PowerReport};
use rasa_systolic::EngineStats;
use rasa_trace::{GemmKernelConfig, KernelScheme, LoopOrder, MatmulOrder};
use rasa_workloads::{LayerKind, LayerSpec};
use std::fmt;

/// A parse or decode error, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input for parse errors (`None` for decode
    /// errors raised while mapping a document onto a Rust type).
    pub offset: Option<usize>,
}

impl JsonError {
    fn parse(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// A decode error (document shape does not match the target type).
    #[must_use]
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "json parse error at byte {at}: {}", self.message),
            None => write!(f, "json decode error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for SimError {
    fn from(value: JsonError) -> Self {
        SimError::Json {
            reason: value.to_string(),
        }
    }
}

/// A JSON document node.
///
/// Numbers are stored as their literal token text (see the module docs for
/// why); use [`JsonValue::number_from_u64`] /
/// [`number_from_f64`](JsonValue::number_from_f64) to build them from Rust values and
/// [`as_u64`](Self::as_u64) / [`as_f64`](Self::as_f64) to read them back.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token text.
    Number(String),
    /// A string (unescaped content).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A number node for an unsigned integer.
    #[must_use]
    pub fn number_from_u64(value: u64) -> JsonValue {
        JsonValue::Number(value.to_string())
    }

    /// A number node for a `usize`.
    #[must_use]
    pub fn number_from_usize(value: usize) -> JsonValue {
        JsonValue::Number(value.to_string())
    }

    /// A number node for a finite float, formatted with Rust's shortest
    /// round-trip representation. Non-finite values (which valid metrics
    /// never produce) serialize as `null` to keep the document well-formed.
    #[must_use]
    pub fn number_from_f64(value: f64) -> JsonValue {
        if value.is_finite() {
            JsonValue::Number(format!("{value}"))
        } else {
            JsonValue::Null
        }
    }

    /// A string node.
    #[must_use]
    pub fn string(value: impl Into<String>) -> JsonValue {
        JsonValue::String(value.into())
    }

    /// The value of an object member, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// This node as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This node as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// This node as a `u64` (number token must parse as one).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// This node as a `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// This node as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// This node's array elements.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact serialization to `out`, reusing the string's
    /// capacity — the allocation-free path pooled wire buffers take.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// format of every result file this workspace writes (stable for
    /// line-based diffing in CI).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(text) => out.push_str(text),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset for malformed input
    /// (including trailing non-whitespace after the document).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::parse(
                "trailing characters after document",
                parser.pos,
            ));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a bound an untrusted frame of
/// `[[[…` could overflow the stack; the documents this crate writes nest
/// a handful of levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::parse(
                format!("expected '{}'", byte as char),
                self.pos,
            ))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(JsonError::parse("expected a JSON value", self.pos)),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::parse(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(JsonError::parse("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(JsonError::parse("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::parse("unterminated string", self.pos));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::parse("unterminated escape", self.pos));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => out.push(self.parse_unicode_escape()?),
                        _ => {
                            return Err(JsonError::parse("invalid escape", self.pos - 1));
                        }
                    }
                }
                // Multi-byte UTF-8: copy the whole code point verbatim.
                b if b >= 0x80 => {
                    let start = self.pos - 1;
                    let len =
                        utf8_len(b).ok_or_else(|| JsonError::parse("invalid utf-8", start))?;
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| JsonError::parse("truncated utf-8", start))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| JsonError::parse("invalid utf-8", start))?;
                    out.push_str(s);
                    self.pos = end;
                }
                b if b < 0x20 => {
                    return Err(JsonError::parse(
                        "unescaped control character in string",
                        self.pos - 1,
                    ));
                }
                b => out.push(b as char),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let start = self.pos;
        let slice = self
            .bytes
            .get(start..start + 4)
            .ok_or_else(|| JsonError::parse("truncated \\u escape", start))?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| JsonError::parse("invalid \\u escape", start))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError::parse("invalid \\u escape", start))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let code = self.parse_hex4()?;
        // Surrogate pair: \uD8xx must be followed by \uDCxx.
        if (0xD800..0xDC00).contains(&code) {
            if !self.eat_literal("\\u") {
                return Err(JsonError::parse("unpaired surrogate", at));
            }
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(JsonError::parse("invalid low surrogate", at));
            }
            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(combined)
                .ok_or_else(|| JsonError::parse("invalid surrogate pair", at));
        }
        if (0xDC00..0xE000).contains(&code) {
            return Err(JsonError::parse("unpaired low surrogate", at));
        }
        char::from_u32(code).ok_or_else(|| JsonError::parse("invalid \\u escape", at))
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.eat_digits();
        if int_digits == 0 {
            return Err(JsonError::parse("expected digits", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.eat_digits() == 0 {
                return Err(JsonError::parse("expected fraction digits", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.eat_digits() == 0 {
                return Err(JsonError::parse("expected exponent digits", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ascii")
            .to_string();
        Ok(JsonValue::Number(text))
    }

    fn eat_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// Types that serialize to a [`JsonValue`].
pub trait ToJson {
    /// Builds the JSON document node for this value.
    fn to_json(&self) -> JsonValue;
}

/// Types that reconstruct from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Maps a document node back onto this type.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document shape does not match.
    fn from_json(value: &JsonValue) -> Result<Self, JsonError>;
}

pub(crate) fn member<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, JsonError> {
    value
        .get(key)
        .ok_or_else(|| JsonError::decode(format!("missing field '{key}'")))
}

pub(crate) fn u64_member(value: &JsonValue, key: &str) -> Result<u64, JsonError> {
    member(value, key)?
        .as_u64()
        .ok_or_else(|| JsonError::decode(format!("field '{key}' is not a u64")))
}

pub(crate) fn usize_member(value: &JsonValue, key: &str) -> Result<usize, JsonError> {
    member(value, key)?
        .as_usize()
        .ok_or_else(|| JsonError::decode(format!("field '{key}' is not a usize")))
}

pub(crate) fn f64_member(value: &JsonValue, key: &str) -> Result<f64, JsonError> {
    member(value, key)?
        .as_f64()
        .ok_or_else(|| JsonError::decode(format!("field '{key}' is not a number")))
}

pub(crate) fn string_member(value: &JsonValue, key: &str) -> Result<String, JsonError> {
    Ok(member(value, key)?
        .as_str()
        .ok_or_else(|| JsonError::decode(format!("field '{key}' is not a string")))?
        .to_string())
}

/// Decodes every element of the array member `key` with `element`.
pub(crate) fn array_member<T>(
    value: &JsonValue,
    key: &str,
    element: impl Fn(&JsonValue) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    member(value, key)?
        .as_array()
        .ok_or_else(|| JsonError::decode(format!("field '{key}' is not an array")))?
        .iter()
        .map(element)
        .collect()
}

impl ToJson for EngineStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("matmuls".into(), JsonValue::number_from_u64(self.matmuls)),
            (
                "weight_bypasses".into(),
                JsonValue::number_from_u64(self.weight_bypasses),
            ),
            (
                "weight_prefetches".into(),
                JsonValue::number_from_u64(self.weight_prefetches),
            ),
            (
                "full_weight_loads".into(),
                JsonValue::number_from_u64(self.full_weight_loads),
            ),
            (
                "occupancy_cycles".into(),
                JsonValue::number_from_u64(self.occupancy_cycles),
            ),
            (
                "last_completion_cycle".into(),
                JsonValue::number_from_u64(self.last_completion_cycle),
            ),
            (
                "total_macs".into(),
                JsonValue::number_from_u64(self.total_macs),
            ),
            (
                "operand_stall_cycles".into(),
                JsonValue::number_from_u64(self.operand_stall_cycles),
            ),
            (
                "structural_stall_cycles".into(),
                JsonValue::number_from_u64(self.structural_stall_cycles),
            ),
        ])
    }
}

impl FromJson for EngineStats {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(EngineStats {
            matmuls: u64_member(value, "matmuls")?,
            weight_bypasses: u64_member(value, "weight_bypasses")?,
            weight_prefetches: u64_member(value, "weight_prefetches")?,
            full_weight_loads: u64_member(value, "full_weight_loads")?,
            occupancy_cycles: u64_member(value, "occupancy_cycles")?,
            last_completion_cycle: u64_member(value, "last_completion_cycle")?,
            total_macs: u64_member(value, "total_macs")?,
            operand_stall_cycles: u64_member(value, "operand_stall_cycles")?,
            structural_stall_cycles: u64_member(value, "structural_stall_cycles")?,
        })
    }
}

impl ToJson for CpuStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("cycles".into(), JsonValue::number_from_u64(self.cycles)),
            (
                "retired_instructions".into(),
                JsonValue::number_from_u64(self.retired_instructions),
            ),
            (
                "retired_matmuls".into(),
                JsonValue::number_from_u64(self.retired_matmuls),
            ),
            (
                "retired_tile_memory_ops".into(),
                JsonValue::number_from_u64(self.retired_tile_memory_ops),
            ),
            (
                "rob_full_stalls".into(),
                JsonValue::number_from_u64(self.rob_full_stalls),
            ),
            (
                "rs_full_stalls".into(),
                JsonValue::number_from_u64(self.rs_full_stalls),
            ),
            ("engine".into(), self.engine.to_json()),
        ])
    }
}

impl FromJson for CpuStats {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(CpuStats {
            cycles: u64_member(value, "cycles")?,
            retired_instructions: u64_member(value, "retired_instructions")?,
            retired_matmuls: u64_member(value, "retired_matmuls")?,
            retired_tile_memory_ops: u64_member(value, "retired_tile_memory_ops")?,
            rob_full_stalls: u64_member(value, "rob_full_stalls")?,
            rs_full_stalls: u64_member(value, "rs_full_stalls")?,
            engine: EngineStats::from_json(member(value, "engine")?)?,
        })
    }
}

impl ToJson for AreaBreakdown {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "multipliers".into(),
                JsonValue::number_from_f64(self.multipliers),
            ),
            ("adders".into(), JsonValue::number_from_f64(self.adders)),
            (
                "weight_buffers".into(),
                JsonValue::number_from_f64(self.weight_buffers),
            ),
            ("pipeline".into(), JsonValue::number_from_f64(self.pipeline)),
            ("control".into(), JsonValue::number_from_f64(self.control)),
        ])
    }
}

impl FromJson for AreaBreakdown {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(AreaBreakdown {
            multipliers: f64_member(value, "multipliers")?,
            adders: f64_member(value, "adders")?,
            weight_buffers: f64_member(value, "weight_buffers")?,
            pipeline: f64_member(value, "pipeline")?,
            control: f64_member(value, "control")?,
        })
    }
}

impl ToJson for EnergyBreakdown {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("mac".into(), JsonValue::number_from_f64(self.mac)),
            (
                "weight_load".into(),
                JsonValue::number_from_f64(self.weight_load),
            ),
            ("tile_io".into(), JsonValue::number_from_f64(self.tile_io)),
            (
                "static_clock".into(),
                JsonValue::number_from_f64(self.static_clock),
            ),
        ])
    }
}

impl FromJson for EnergyBreakdown {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(EnergyBreakdown {
            mac: f64_member(value, "mac")?,
            weight_load: f64_member(value, "weight_load")?,
            tile_io: f64_member(value, "tile_io")?,
            static_clock: f64_member(value, "static_clock")?,
        })
    }
}

impl ToJson for PowerReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("design".into(), JsonValue::string(&self.design)),
            ("area".into(), self.area.to_json()),
            ("energy".into(), self.energy.to_json()),
            (
                "core_cycles".into(),
                JsonValue::number_from_u64(self.core_cycles),
            ),
        ])
    }
}

impl FromJson for PowerReport {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(PowerReport {
            design: string_member(value, "design")?,
            area: AreaBreakdown::from_json(member(value, "area")?)?,
            energy: EnergyBreakdown::from_json(member(value, "energy")?)?,
            core_cycles: u64_member(value, "core_cycles")?,
        })
    }
}

impl ToJson for SimReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("design".into(), JsonValue::string(&self.design)),
            ("workload".into(), JsonValue::string(&self.workload)),
            (
                "core_cycles".into(),
                JsonValue::number_from_u64(self.core_cycles),
            ),
            (
                "simulated_core_cycles".into(),
                JsonValue::number_from_u64(self.simulated_core_cycles),
            ),
            (
                "simulated_matmuls".into(),
                JsonValue::number_from_u64(self.simulated_matmuls),
            ),
            (
                "total_matmuls".into(),
                JsonValue::number_from_u64(self.total_matmuls),
            ),
            (
                "runtime_seconds".into(),
                JsonValue::number_from_f64(self.runtime_seconds),
            ),
            ("cpu".into(), self.cpu.to_json()),
            ("power".into(), self.power.to_json()),
        ])
    }
}

impl FromJson for SimReport {
    /// Reads the nine simulated members. A `sched` or `pipeline` member,
    /// which older documents and peers carry, is ignored; the in-process
    /// diagnostics default.
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(SimReport {
            design: string_member(value, "design")?,
            workload: string_member(value, "workload")?,
            core_cycles: u64_member(value, "core_cycles")?,
            simulated_core_cycles: u64_member(value, "simulated_core_cycles")?,
            simulated_matmuls: u64_member(value, "simulated_matmuls")?,
            total_matmuls: u64_member(value, "total_matmuls")?,
            runtime_seconds: f64_member(value, "runtime_seconds")?,
            cpu: CpuStats::from_json(member(value, "cpu")?)?,
            sched: SchedStats::default(),
            pipeline: PipelineStats::default(),
            power: PowerReport::from_json(member(value, "power")?)?,
        })
    }
}

impl ToJson for SimSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("design".into(), JsonValue::string(&self.design)),
            ("workload".into(), JsonValue::string(&self.workload)),
            (
                "core_cycles".into(),
                JsonValue::number_from_u64(self.core_cycles),
            ),
            (
                "simulated_matmuls".into(),
                JsonValue::number_from_u64(self.simulated_matmuls),
            ),
            (
                "total_matmuls".into(),
                JsonValue::number_from_u64(self.total_matmuls),
            ),
            (
                "runtime_seconds".into(),
                JsonValue::number_from_f64(self.runtime_seconds),
            ),
            ("ipc".into(), JsonValue::number_from_f64(self.ipc)),
            (
                "engine_bypass_rate".into(),
                JsonValue::number_from_f64(self.engine_bypass_rate),
            ),
            ("area_mm2".into(), JsonValue::number_from_f64(self.area_mm2)),
            (
                "energy_joules".into(),
                JsonValue::number_from_f64(self.energy_joules),
            ),
        ])
    }
}

impl ToJson for LayerSpec {
    fn to_json(&self) -> JsonValue {
        let mut members = vec![("name".into(), JsonValue::string(self.name()))];
        match self.kind() {
            LayerKind::Fc {
                batch,
                input_neurons,
                output_neurons,
            } => {
                members.push(("kind".into(), JsonValue::string("fc")));
                members.push(("batch".into(), JsonValue::number_from_usize(*batch)));
                members.push((
                    "input_neurons".into(),
                    JsonValue::number_from_usize(*input_neurons),
                ));
                members.push((
                    "output_neurons".into(),
                    JsonValue::number_from_usize(*output_neurons),
                ));
            }
            LayerKind::Conv(conv) => {
                members.push(("kind".into(), JsonValue::string("conv")));
                members.push(("n".into(), JsonValue::number_from_usize(conv.n)));
                members.push(("c".into(), JsonValue::number_from_usize(conv.c)));
                members.push(("y".into(), JsonValue::number_from_usize(conv.y)));
                members.push(("x".into(), JsonValue::number_from_usize(conv.x)));
                members.push(("k".into(), JsonValue::number_from_usize(conv.k)));
                members.push(("r".into(), JsonValue::number_from_usize(conv.r)));
                members.push(("s".into(), JsonValue::number_from_usize(conv.s)));
                members.push(("stride".into(), JsonValue::number_from_usize(conv.stride)));
                members.push(("pad".into(), JsonValue::number_from_usize(conv.pad)));
            }
        }
        JsonValue::Object(members)
    }
}

impl FromJson for LayerSpec {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let name = string_member(value, "name")?;
        match member(value, "kind")?.as_str() {
            Some("fc") => Ok(LayerSpec::fc(
                name,
                usize_member(value, "batch")?,
                usize_member(value, "input_neurons")?,
                usize_member(value, "output_neurons")?,
            )),
            Some("conv") => {
                let shape = ConvShape::new(
                    usize_member(value, "n")?,
                    usize_member(value, "c")?,
                    usize_member(value, "y")?,
                    usize_member(value, "x")?,
                    usize_member(value, "k")?,
                    usize_member(value, "r")?,
                    usize_member(value, "s")?,
                    usize_member(value, "stride")?,
                    usize_member(value, "pad")?,
                );
                // Lowering divides by the stride and subtracts the filter
                // from the padded input, so an invalid shape must never
                // leave the decoder.
                shape
                    .validate()
                    .map_err(|e| JsonError::decode(format!("invalid conv shape: {e}")))?;
                Ok(LayerSpec::conv(name, shape))
            }
            Some(other) => Err(JsonError::decode(format!("unknown layer kind '{other}'"))),
            None => Err(JsonError::decode("field 'kind' is not a string")),
        }
    }
}

impl ToJson for GemmKernelConfig {
    fn to_json(&self) -> JsonValue {
        let mut members = vec![
            ("tm".into(), JsonValue::number_from_usize(self.tiling.tm)),
            ("tk".into(), JsonValue::number_from_usize(self.tiling.tk)),
            ("tn".into(), JsonValue::number_from_usize(self.tiling.tn)),
            (
                "emit_scalar_overhead".into(),
                JsonValue::Bool(self.emit_scalar_overhead),
            ),
            (
                "max_matmuls".into(),
                self.max_matmuls
                    .map_or(JsonValue::Null, JsonValue::number_from_usize),
            ),
            (
                "matmul_order".into(),
                JsonValue::string(self.matmul_order.label()),
            ),
        ];
        // Scheme axes travel as one additive member, emitted only for
        // non-default schemes so default-kernel documents (wire requests,
        // pinned goldens) keep their pre-scheme bytes.
        if !self.scheme.is_default() {
            members.push((
                "scheme".into(),
                JsonValue::Object(vec![
                    (
                        "block_m".into(),
                        JsonValue::number_from_usize(self.scheme.block.m),
                    ),
                    (
                        "block_n".into(),
                        JsonValue::number_from_usize(self.scheme.block.n),
                    ),
                    (
                        "loop_order".into(),
                        JsonValue::string(self.scheme.loop_order.label()),
                    ),
                    (
                        "scalar_ops_per_step".into(),
                        JsonValue::number_from_usize(self.scheme.scalar_ops_per_step as usize),
                    ),
                    (
                        "segment_size".into(),
                        self.scheme
                            .segment_size
                            .map_or(JsonValue::Null, JsonValue::number_from_usize),
                    ),
                ]),
            ));
        }
        JsonValue::Object(members)
    }
}

impl FromJson for GemmKernelConfig {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let tiling = TilingConfig::new(
            usize_member(value, "tm")?,
            usize_member(value, "tk")?,
            usize_member(value, "tn")?,
        )
        .map_err(|e| JsonError::decode(format!("invalid tiling: {e}")))?;
        let emit_scalar_overhead = member(value, "emit_scalar_overhead")?
            .as_bool()
            .ok_or_else(|| JsonError::decode("field 'emit_scalar_overhead' is not a bool"))?;
        let max_matmuls = match member(value, "max_matmuls")? {
            JsonValue::Null => None,
            node => Some(
                node.as_usize()
                    .ok_or_else(|| JsonError::decode("field 'max_matmuls' is not a usize"))?,
            ),
        };
        let matmul_order = match member(value, "matmul_order")?.as_str() {
            Some("weight-paired") => MatmulOrder::WeightPaired,
            Some("interleaved") => MatmulOrder::Interleaved,
            Some(other) => {
                return Err(JsonError::decode(format!("unknown matmul order '{other}'")))
            }
            None => return Err(JsonError::decode("field 'matmul_order' is not a string")),
        };
        // The scheme member is additive: documents written before kernel
        // schemes existed (or for default-scheme kernels) simply omit it.
        let scheme = match value.get("scheme") {
            None | Some(JsonValue::Null) => KernelScheme::default(),
            Some(node) => {
                let block = RegisterBlock::new(
                    usize_member(node, "block_m")?,
                    usize_member(node, "block_n")?,
                )
                .map_err(|e| JsonError::decode(format!("invalid register block: {e}")))?;
                let loop_order = match member(node, "loop_order")?.as_str() {
                    Some("k-innermost") => LoopOrder::KInnermost,
                    Some("n-innermost") => LoopOrder::NInnermost,
                    Some(other) => {
                        return Err(JsonError::decode(format!("unknown loop order '{other}'")))
                    }
                    None => return Err(JsonError::decode("field 'loop_order' is not a string")),
                };
                let scalar_ops = usize_member(node, "scalar_ops_per_step")?;
                let scalar_ops_per_step = u8::try_from(scalar_ops).map_err(|_| {
                    JsonError::decode(format!("scalar_ops_per_step {scalar_ops} exceeds u8"))
                })?;
                let segment_size =
                    match member(node, "segment_size")? {
                        JsonValue::Null => None,
                        seg => Some(seg.as_usize().ok_or_else(|| {
                            JsonError::decode("field 'segment_size' is not a usize")
                        })?),
                    };
                KernelScheme {
                    block,
                    loop_order,
                    scalar_ops_per_step,
                    segment_size,
                }
            }
        };
        let kernel = GemmKernelConfig {
            tiling,
            emit_scalar_overhead,
            max_matmuls,
            matmul_order,
            scheme,
        };
        kernel
            .validate()
            .map_err(|e| JsonError::decode(format!("invalid kernel: {e}")))?;
        Ok(kernel)
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("hits".into(), JsonValue::number_from_u64(self.hits)),
            ("misses".into(), JsonValue::number_from_u64(self.misses)),
            ("entries".into(), JsonValue::number_from_usize(self.entries)),
            (
                "evictions".into(),
                JsonValue::number_from_u64(self.evictions),
            ),
            (
                "capacity".into(),
                JsonValue::number_from_usize(self.capacity),
            ),
        ])
    }
}

impl FromJson for CacheStats {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(CacheStats {
            hits: u64_member(value, "hits")?,
            misses: u64_member(value, "misses")?,
            entries: usize_member(value, "entries")?,
            evictions: u64_member(value, "evictions")?,
            capacity: usize_member(value, "capacity")?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DesignPoint, SimJob, Simulator};
    use rasa_workloads::WorkloadSuite;

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "1e-6",
            "2.25E+10",
            "\"hello\"",
            "[]",
            "{}",
        ] {
            let value = JsonValue::parse(text).unwrap();
            assert_eq!(value.to_string_compact(), text, "round trip of {text}");
        }
    }

    #[test]
    fn number_tokens_are_preserved_verbatim() {
        // 1.0 and 1 are the same f64 but different tokens; parsing must not
        // normalize one into the other.
        let value = JsonValue::parse("[1.0, 1, 1e0]").unwrap();
        assert_eq!(value.to_string_compact(), "[1.0,1,1e0]");
        let items = value.as_array().unwrap();
        for item in items {
            assert_eq!(item.as_f64(), Some(1.0));
        }
        assert_eq!(items[1].as_u64(), Some(1));
        assert_eq!(items[0].as_u64(), None, "1.0 is not a u64 token");
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for f in [0.0, 1.0 / 3.0, 6.02e23, 1.0e-9, -123.456, f64::MIN_POSITIVE] {
            let node = JsonValue::number_from_f64(f);
            let back = JsonValue::parse(&node.to_string_compact())
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} must round-trip");
        }
        assert_eq!(JsonValue::number_from_f64(f64::NAN), JsonValue::Null);
        assert_eq!(JsonValue::number_from_f64(f64::INFINITY), JsonValue::Null);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote:\" backslash:\\ newline:\n tab:\t unicode:λ€ bell:\u{7}";
        let node = JsonValue::string(original);
        let text = node.to_string_compact();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // And a second serialization is byte-identical.
        assert_eq!(back.to_string_compact(), text);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = JsonValue::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
        assert!(
            JsonValue::parse(r#""\ud83d""#).is_err(),
            "unpaired surrogate"
        );
        assert!(
            JsonValue::parse(r#""\ude00""#).is_err(),
            "lone low surrogate"
        );
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = "{\"z\":1,\"a\":2,\"m\":3}";
        let value = JsonValue::parse(text).unwrap();
        assert_eq!(value.to_string_compact(), text);
        assert_eq!(value.get("a").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn pretty_format_is_stable_under_reparse() {
        let value = JsonValue::Object(vec![
            ("name".into(), JsonValue::string("serve")),
            (
                "stats".into(),
                JsonValue::Object(vec![
                    ("hits".into(), JsonValue::number_from_u64(3)),
                    ("rate".into(), JsonValue::number_from_f64(0.75)),
                ]),
            ),
            (
                "shapes".into(),
                JsonValue::Array(vec![
                    JsonValue::number_from_u64(1),
                    JsonValue::number_from_u64(2),
                ]),
            ),
            ("empty".into(), JsonValue::Array(Vec::new())),
        ]);
        let pretty = value.to_string_pretty();
        assert!(pretty.contains("\n  \"stats\": {\n    \"hits\": 3,"));
        let reparsed = JsonValue::parse(&pretty).unwrap();
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.to_string_pretty(), pretty, "byte-identical");
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for (text, what) in [
            ("", "empty"),
            ("{", "unterminated object"),
            ("[1,]", "trailing comma"),
            ("{\"a\" 1}", "missing colon"),
            ("\"abc", "unterminated string"),
            ("1.5x", "trailing characters"),
            ("01x", "trailing characters after 0"),
            ("nul", "bad literal"),
            ("-", "lone minus"),
            ("1.", "missing fraction"),
            ("1e", "missing exponent"),
            ("\"\\q\"", "bad escape"),
        ] {
            let err = JsonValue::parse(text).expect_err(what);
            assert!(err.offset.is_some(), "{what}: {err}");
            assert!(err.to_string().contains("parse error"));
        }
        let decode = JsonError::decode("missing field 'x'");
        assert!(decode.to_string().contains("decode"));
        let sim: SimError = decode.into();
        assert!(matches!(sim, SimError::Json { .. }));
    }

    #[test]
    fn nesting_past_the_depth_cap_is_a_parse_error() {
        // Unbounded recursion would overflow the stack long before these
        // inputs end; the cap turns them into ordinary parse errors.
        for open in ["[", "{\"a\":"] {
            let text = open.repeat(100_000);
            let err = JsonValue::parse(&text).expect_err(open);
            assert_eq!(err.offset, Some(MAX_DEPTH * open.len()), "{open}: {err}");
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Exactly the cap still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        assert!(JsonValue::parse(&too_deep).is_err());
    }

    #[test]
    fn sim_report_round_trips_through_json() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-2").unwrap().clone();
        let report = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_matmul_cap(Some(64))
            .unwrap()
            .run_layer(&layer)
            .unwrap();
        let text = report.to_json().to_string_pretty();
        let back = SimReport::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report, "the simulated result survives the round trip");
        // Byte-identity: reload + re-serialize is exactly the same file.
        assert_eq!(back.to_json().to_string_pretty(), text);
        // The execution diagnostics stay in process: the simulator filled
        // them in, the decoded report carries the defaults.
        assert!(report.sched.completion_events > 0);
        assert!(report.pipeline.streamed);
        assert_eq!(back.sched, SchedStats::default());
        assert_eq!(back.pipeline, PipelineStats::default());
    }

    /// The member names of an object node, in document order.
    fn member_names(value: &JsonValue) -> Vec<&str> {
        match value {
            JsonValue::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn report_and_summary_documents_carry_only_the_simulated_result() {
        let report = Simulator::new(DesignPoint::rasa_wlbp())
            .unwrap()
            .with_matmul_cap(Some(64))
            .unwrap()
            .run_gemm(rasa_numeric::GemmShape::new(256, 64, 256))
            .unwrap();
        assert!(report.pipeline.spec_forks > 0, "the cell fast-forwarded");
        assert_eq!(
            member_names(&report.to_json()),
            [
                "design",
                "workload",
                "core_cycles",
                "simulated_core_cycles",
                "simulated_matmuls",
                "total_matmuls",
                "runtime_seconds",
                "cpu",
                "power",
            ]
        );
        // Exactly the members the benchmark digests, in the same order.
        assert_eq!(
            member_names(&report.summary().to_json()),
            [
                "design",
                "workload",
                "core_cycles",
                "simulated_matmuls",
                "total_matmuls",
                "runtime_seconds",
                "ipc",
                "engine_bypass_rate",
                "area_mm2",
                "energy_joules",
            ]
        );
        assert_eq!(
            SimSummary::csv_header().split(',').collect::<Vec<_>>(),
            member_names(&report.summary().to_json())
        );
    }

    #[test]
    fn report_documents_written_with_diagnostics_still_decode() {
        // One cell of the results document as written before the
        // diagnostics left the JSON (BASELINE on DLRM-2 at cap 256), byte
        // for byte: the same report with `sched` and `pipeline` members.
        let legacy = JsonValue::parse(LEGACY_DLRM2_REPORT).unwrap();
        assert!(legacy.get("sched").is_some() && legacy.get("pipeline").is_some());
        let stripped = legacy_report_without_diagnostics();
        let report = SimReport::from_json(&legacy).unwrap();
        assert_eq!(
            report,
            SimReport::from_json(&JsonValue::parse(&stripped).unwrap()).unwrap()
        );
        assert_eq!(report.sched, SchedStats::default());
        assert_eq!(report.pipeline, PipelineStats::default());
        assert_eq!(report.to_json().to_string_compact(), stripped);
        // And it is still the answer the simulator gives for that cell.
        let layer = WorkloadSuite::mlperf().layer("DLRM-2").unwrap().clone();
        let fresh = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(Some(256))
            .unwrap()
            .run_layer(&layer)
            .unwrap();
        assert_eq!(fresh, report);
    }

    /// A report document as written before the execution diagnostics left
    /// the JSON: BASELINE on DLRM-2 at cap 256, one cell of that era's
    /// `golden/results.json`.
    pub(crate) const LEGACY_DLRM2_REPORT: &str = r#"{"design":"BASELINE","workload":"DLRM-2","core_cycles":1557440,"simulated_core_cycles":97340,"simulated_matmuls":256,"total_matmuls":4096,"runtime_seconds":0.00077872,"cpu":{"cycles":97340,"retired_instructions":784,"retired_matmuls":256,"retired_tile_memory_ops":272,"rob_full_stalls":811,"rs_full_stalls":0,"engine":{"matmuls":256,"weight_bypasses":0,"weight_prefetches":0,"full_weight_loads":256,"occupancy_cycles":24320,"last_completion_cycle":24332,"total_macs":2097152,"operand_stall_cycles":0,"structural_stall_cycles":8204}},"sched":{"visited_cycles":969,"skipped_cycles":96356,"completion_events":784,"wakeups":566},"pipeline":{"streamed":true,"segments":1,"fed_instructions":784,"peak_resident_instructions":784,"spec_forks":0,"spec_commits":0},"power":{"design":"BASELINE","area":{"multipliers":0.28672,"adders":0.22016,"weight_buffers":0.014336,"pipeline":0.23808,"control":0.044},"energy":{"mac":0.00000016777216,"weight_load":0.00000000262144,"tile_io":0.0000001048576,"static_clock":0.0000469099158528},"core_cycles":97340}}"#;

    /// [`LEGACY_DLRM2_REPORT`] with its `sched` and `pipeline` members cut:
    /// what the same report serializes to now.
    pub(crate) fn legacy_report_without_diagnostics() -> String {
        let from = LEGACY_DLRM2_REPORT.find(",\"sched\":").unwrap();
        let to = LEGACY_DLRM2_REPORT.find(",\"power\":").unwrap();
        format!(
            "{}{}",
            &LEGACY_DLRM2_REPORT[..from],
            &LEGACY_DLRM2_REPORT[to..]
        )
    }

    #[test]
    fn summary_and_cache_stats_round_trip() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("BERT-1").unwrap().clone();
        let runner = crate::ExperimentRunner::builder()
            .with_matmul_cap(Some(64))
            .with_cache_capacity(4)
            .serial()
            .build()
            .unwrap();
        let report = runner
            .run_job(&SimJob::new(DesignPoint::baseline(), layer))
            .unwrap();
        // A summary is written, never read back: its document round-trips
        // through the parser byte for byte.
        let text = report.summary().to_json().to_string_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap().to_string_pretty(), text);

        let stats = runner.cache_stats();
        let back =
            CacheStats::from_json(&JsonValue::parse(&stats.to_json().to_string_compact()).unwrap())
                .unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn decode_rejects_wrong_shapes() {
        let value = JsonValue::parse("{\"hits\":1}").unwrap();
        let err = CacheStats::from_json(&value).unwrap_err();
        assert!(err.message.contains("missing field"));
        let value = JsonValue::parse(
            "{\"hits\":true,\"misses\":0,\"entries\":0,\"evictions\":0,\"capacity\":1}",
        )
        .unwrap();
        let err = CacheStats::from_json(&value).unwrap_err();
        assert!(err.message.contains("not a u64"));
    }

    #[test]
    fn conv_layers_decode_only_valid_shapes() {
        let conv = |stride: usize, r: usize| {
            JsonValue::parse(&format!(
                "{{\"name\":\"c\",\"kind\":\"conv\",\"n\":1,\"c\":3,\"y\":4,\"x\":4,\
                 \"k\":8,\"r\":{r},\"s\":{r},\"stride\":{stride},\"pad\":1}}"
            ))
            .unwrap()
        };
        let layer = LayerSpec::from_json(&conv(1, 3)).unwrap();
        assert_eq!(layer.to_json(), conv(1, 3), "valid shapes round-trip");
        for (value, what) in [
            (conv(0, 3), "stride must be non-zero"),
            (conv(1, 7), "filter 7x7 larger than padded input 6x6"),
        ] {
            let err = LayerSpec::from_json(&value).unwrap_err();
            assert!(err.message.contains("invalid conv shape"), "{err}");
            assert!(err.message.contains(what), "{err}");
        }
    }
}
