//! Hand-rolled JSON for simulation results and wire payloads.
//!
//! The vendored `serde` is a marker-trait stub (no registry access in the
//! build environment), so every document this workspace persists or sends
//! is produced here: a document model ([`JsonValue`]), one writer, one pull
//! reader, and one codec per document type.
//!
//! A plain-struct document is declared once, with `json_document!`: one
//! line per member, naming its key, field and type. The declaration
//! generates both directions, so a member cannot be added to one and not
//! the other:
//!
//! * the [`ToJson`] encoder writes into a [`JsonSink`]: compact text
//!   straight into a frame's payload (`&'static str` keys, numbers
//!   formatted in place, no tree), or a [`JsonValue`] tree
//!   ([`ToJson::to_json`]) for goldens and result files;
//! * the [`FromJson`] decoder visits members from a [`JsonSource`]: the pull
//!   reader over a payload's bytes ([`from_slice`]), or a parsed tree
//!   ([`FromJson::from_json`]). Both run the same decoder, so they accept
//!   the same documents and decode them to the same values.
//!
//! Hand-written codecs remain only for documents that are not plain
//! structs: a layer's fc/conv union, a wire request's `kernel` rule, and
//! the conditional members of search outcomes.
//!
//! The pull reader is the only JSON grammar; [`JsonValue::parse`] builds
//! its tree with it. Members may come in any order, the first of duplicate
//! members wins (as [`JsonValue::get`]), unknown members are ignored,
//! nesting deeper than 128 levels is a parse error, and a document is
//! validated whole, skipped members and trailing bytes included.
//!
//! CI diffs result files across commits, so a parsed document must
//! re-serialize to the exact bytes it was parsed from: numbers keep their
//! literal token text (`JsonValue::Number` stores the digits, not an
//! `f64`), and objects keep their key order. Floats are written in Rust's
//! shortest round-trip `Display` form, so `f64 -> text -> f64` is lossless.

use crate::{CacheStats, SimError, SimReport, SimSummary};
use rasa_cpu::CpuStats;
use rasa_numeric::ConvShape;
use rasa_power::{AreaBreakdown, EnergyBreakdown, PowerReport};
use rasa_systolic::EngineStats;
use rasa_workloads::{LayerKind, LayerSpec};
use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

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

    /// An object node with `members`, in order.
    #[must_use]
    pub fn object<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Object(members.map(|(key, value)| (key.to_string(), value)).into())
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
        to_text(self, None)
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// format of every result file this workspace writes (stable for
    /// line-based diffing in CI).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut text = to_text(self, Some(2));
        text.push('\n');
        text
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset for malformed input
    /// (including trailing non-whitespace after the document).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut reader = JsonReader::new(input);
        let value = reader.tree()?;
        reader.finish()?;
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// `value`'s declared encoding as text: compact, or indented by `indent`
/// spaces per level.
fn to_text(value: &(impl ToJson + ?Sized), indent: Option<usize>) -> String {
    let mut out = Vec::new();
    value.write_json(&mut JsonWriter {
        out: &mut out,
        indent,
        depth: 0,
        slot: Slot::Value,
    });
    String::from_utf8(out).expect("the JSON writer writes UTF-8")
}

/// Runs `write` on a compact writer onto the end of `out`: the frame
/// writer's path, which builds no tree.
pub(crate) fn write_compact(out: &mut Vec<u8>, write: impl FnOnce(&mut JsonWriter<'_>)) {
    write(&mut JsonWriter {
        out,
        indent: None,
        depth: 0,
        slot: Slot::Value,
    });
}

/// Decodes a whole document with the pull reader: the decoder of every
/// received payload. No tree is built, and a decode succeeds only once the
/// whole input is validated, skipped members and trailing bytes included.
///
/// # Errors
///
/// A parse error with a byte offset for input that is not UTF-8 or not
/// JSON; a decode error when the document does not match `T`.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError::parse("input is not UTF-8", e.valid_up_to()))?;
    let mut reader = JsonReader::new(text);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    value.ok_or_else(|| not_a("the document", T::EXPECTED))
}

/// Where a declared encoder writes a document: compact or indented text, or
/// a [`JsonValue`] tree. Containers open and close explicitly; inside an
/// object, [`member`](Self::member) names the value written next.
pub trait JsonSink: Sized {
    /// Opens an object.
    fn begin_object(&mut self);
    /// Closes the innermost open object.
    fn end_object(&mut self);
    /// Opens an array.
    fn begin_array(&mut self);
    /// Closes the innermost open array.
    fn end_array(&mut self);
    /// Starts an object member: the next value written is its value.
    fn member(&mut self, key: &str);
    /// Writes `null`.
    fn null(&mut self);
    /// Writes a bool.
    fn bool(&mut self, value: bool);
    /// Writes a number token: `value`'s `Display` text, which must be a
    /// JSON number (an integer, a finite float in Rust's shortest
    /// round-trip form, or a [`JsonValue::Number`]'s text).
    fn number(&mut self, value: impl fmt::Display);
    /// Writes a string.
    fn str(&mut self, value: &str);

    /// Writes the member `key` with `value`'s declared encoding.
    fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.member(key);
        value.write_json(self);
    }
}

/// Types with a declared JSON encoding.
pub trait ToJson {
    /// Writes this value into `sink`.
    fn write_json<S: JsonSink>(&self, sink: &mut S);

    /// Builds the JSON document node for this value.
    fn to_json(&self) -> JsonValue {
        let mut tree = TreeBuilder {
            entries: Vec::with_capacity(32),
            open: Vec::with_capacity(8),
            key: None,
        };
        self.write_json(&mut tree);
        tree.entries.pop().expect("an encoder writes one value").1
    }
}

/// One JSON value a decoder reads: the pull reader positioned at it, or a
/// node of a parsed tree. Every accessor consumes the value, whatever its
/// kind, so a decoder that finds the wrong kind can report it without
/// losing its place; each fails only on malformed input or with the
/// visitor's own error.
pub trait JsonSource: Sized {
    /// The value's number token, or `None` when it is not a number.
    fn number(&mut self) -> Result<Option<&str>, JsonError>;
    /// The value's (unescaped) string, or `None` when it is not a string.
    fn string(&mut self) -> Result<Option<Cow<'_, str>>, JsonError>;
    /// Whether the value is `null`.
    fn null(&mut self) -> Result<bool, JsonError>;
    /// Visits an object's members in document order; `false` when the
    /// value is not an object. A member the visitor leaves unread is
    /// skipped.
    fn object<F>(&mut self, member: F) -> Result<bool, JsonError>
    where
        F: FnMut(&str, &mut Self) -> Result<(), JsonError>;
    /// Visits an array's elements in order; `false` when the value is not
    /// an array. An element the visitor leaves unread is skipped.
    fn array<F>(&mut self, element: F) -> Result<bool, JsonError>
    where
        F: FnMut(&mut Self) -> Result<(), JsonError>;
}

/// Types with a declared JSON decoder.
pub trait FromJson: Sized {
    /// The JSON kind this type decodes from, for decode errors: `"a u64"`,
    /// `"an object"`.
    const EXPECTED: &'static str;

    /// Reads one value from `source`: `Ok(None)` when it is not of the
    /// kind [`EXPECTED`](Self::EXPECTED) names, and an error when it is
    /// malformed or does not decode.
    fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError>;

    /// Maps a document node back onto this type.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document shape does not match.
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Self::read_json(&mut TreeSource(value))?
            .ok_or_else(|| not_a("the document", Self::EXPECTED))
    }
}

fn not_a(what: &str, expected: &str) -> JsonError {
    JsonError::decode(format!("{what} is not {expected}"))
}

/// Decodes the value of member `key`: a declared decoder's one read.
pub(crate) fn member<T: FromJson, R: JsonSource>(key: &str, value: &mut R) -> Result<T, JsonError> {
    T::read_json(value)?.ok_or_else(|| not_a(&format!("field '{key}'"), T::EXPECTED))
}

/// A declared decoder's member slot after the document: its value, or
/// the error for a member the document left out.
pub(crate) fn required<T>(slot: Option<T>, key: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::decode(format!("missing field '{key}'")))
}

/// Declares the JSON document of a plain struct, one line per member in
/// document order: `"key" => field: Type`. It generates the struct's
/// [`ToJson`] encoder and [`FromJson`] decoder. The decoder reads every
/// listed member (the first of duplicates wins), ignores unknown members,
/// and sets the fields listed after `..` to their defaults.
///
/// `Type => fn name { .. }` also generates `name(sink, &field, ..)`, the
/// encoder over borrowed members, for a caller that holds the members but
/// not the struct; `Type: encode { "key" => field, .. }` declares the
/// encoder alone, for a document whose members have no decoder.
macro_rules! json_document {
    ($ty:ident => fn $writer:ident { $($key:literal => $field:ident: $fty:ty),+ $(,)? }) => {
        /// Writes the document from borrowed members.
        pub(crate) fn $writer<S: $crate::json::JsonSink>(sink: &mut S, $($field: &$fty),+) {
            $crate::json::json_document!(@write sink, $($key => $field),+);
        }
        impl $crate::json::ToJson for $ty {
            fn write_json<S: $crate::json::JsonSink>(&self, sink: &mut S) {
                $writer(sink, $(&self.$field),+);
            }
        }
        $crate::json::json_document!(@read $ty { $($key => $field: $fty),+ });
    };
    ($ty:ident: encode { $($key:literal => $field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json<S: $crate::json::JsonSink>(&self, sink: &mut S) {
                $crate::json::json_document!(@write sink, $($key => &self.$field),+);
            }
        }
    };
    (
        $ty:ident { $($key:literal => $field:ident: $fty:ty),+ $(,)? }
        $(.. $($default:ident),+)?
    ) => {
        impl $crate::json::ToJson for $ty {
            fn write_json<S: $crate::json::JsonSink>(&self, sink: &mut S) {
                $crate::json::json_document!(@write sink, $($key => &self.$field),+);
            }
        }
        $crate::json::json_document!(@read $ty { $($key => $field: $fty),+ } $($($default),+)?);
    };
    (@write $sink:ident, $($key:literal => $value:expr),+) => {
        $sink.begin_object();
        $($sink.field($key, $value);)+
        $sink.end_object();
    };
    (@read $ty:ident { $($key:literal => $field:ident: $fty:ty),+ } $($default:ident),*) => {
        impl $crate::json::FromJson for $ty {
            const EXPECTED: &'static str = "an object";

            fn read_json<R: $crate::json::JsonSource>(
                source: &mut R,
            ) -> Result<Option<Self>, $crate::json::JsonError> {
                $(let mut $field: Option<$fty> = None;)+
                let object = source.object(|key, value| {
                    match key {
                        $($key if $field.is_none() => {
                            $field = Some($crate::json::member(key, value)?);
                        })+
                        _ => {}
                    }
                    Ok(())
                })?;
                if !object {
                    return Ok(None);
                }
                Ok(Some($ty {
                    $($field: $crate::json::required($field, $key)?,)+
                    $($default: Default::default(),)*
                }))
            }
        }
    };
}
pub(crate) use json_document;

/// Scalars write themselves with one sink call.
macro_rules! scalar_to_json {
    ($($ty:ty => |$value:ident, $sink:ident| $write:expr;)+) => {$(
        impl ToJson for $ty {
            fn write_json<S: JsonSink>(&self, $sink: &mut S) {
                let $value = self;
                $write;
            }
        }
    )+};
}

scalar_to_json! {
    u64 => |value, sink| sink.number(*value);
    u32 => |value, sink| sink.number(*value);
    usize => |value, sink| sink.number(*value);
    // Non-finite values (which valid metrics never produce) serialize as
    // `null` to keep the document well-formed.
    f64 => |value, sink| if value.is_finite() { sink.number(*value) } else { sink.null() };
    bool => |value, sink| sink.bool(*value);
    str => |value, sink| sink.str(value);
    String => |value, sink| sink.str(value);
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        (**self).write_json(sink);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        match self {
            Some(value) => value.write_json(sink),
            None => sink.null(),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_array();
        self.0.write_json(sink);
        self.1.write_json(sink);
        sink.end_array();
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_array();
        for item in self {
            item.write_json(sink);
        }
        sink.end_array();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        self.as_slice().write_json(sink);
    }
}

impl ToJson for JsonValue {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        match self {
            JsonValue::Null => sink.null(),
            JsonValue::Bool(value) => sink.bool(*value),
            JsonValue::Number(token) => sink.number(token),
            JsonValue::String(value) => sink.str(value),
            JsonValue::Array(items) => items.write_json(sink),
            JsonValue::Object(members) => {
                sink.begin_object();
                for (key, value) in members {
                    sink.field(key, value);
                }
                sink.end_object();
            }
        }
    }

    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

/// Number types decode from a number token that parses as the type.
macro_rules! number_from_json {
    ($($ty:ty => $expected:literal),+) => {$(
        impl FromJson for $ty {
            const EXPECTED: &'static str = $expected;

            fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError> {
                Ok(source.number()?.and_then(|token| token.parse().ok()))
            }
        }
    )+};
}

number_from_json!(u64 => "a u64", u32 => "a u32", usize => "a usize", f64 => "a number");

impl FromJson for String {
    const EXPECTED: &'static str = "a string";

    fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError> {
        Ok(source.string()?.map(Cow::into_owned))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    const EXPECTED: &'static str = "an array";

    fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError> {
        let mut items = Vec::new();
        let array = source.array(|element| {
            items.push(T::read_json(element)?.ok_or_else(|| not_a("an entry", T::EXPECTED))?);
            Ok(())
        })?;
        Ok(array.then_some(items))
    }
}

/// Where the [`JsonWriter`] stands: what precedes the next value or member.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A value with no separator: the document itself, or a member's value.
    Value,
    /// The first entry of a container just opened.
    First,
    /// An entry after another: a comma first.
    Next,
}

/// The one JSON text writer: every compact and indented document, and every
/// payload written straight into a frame.
pub(crate) struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Spaces per nesting level, or `None` for compact text.
    indent: Option<usize>,
    /// Containers open.
    depth: usize,
    slot: Slot,
}

impl JsonWriter<'_> {
    /// Writes what separates the next entry from the one before it.
    fn separate(&mut self) {
        match self.slot {
            Slot::Value => {}
            Slot::First => self.newline(),
            Slot::Next => {
                self.out.push(b',');
                self.newline();
            }
        }
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push(b'\n');
            self.out
                .extend(std::iter::repeat(b' ').take(self.depth * width));
        }
    }

    /// Writes a whole scalar value.
    fn scalar(&mut self, text: &[u8]) {
        self.separate();
        self.out.extend_from_slice(text);
        self.slot = Slot::Next;
    }

    fn open(&mut self, bracket: u8) {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        self.slot = Slot::First;
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if self.slot != Slot::First {
            self.newline();
        }
        self.out.push(bracket);
        self.slot = Slot::Next;
    }
}

impl JsonSink for JsonWriter<'_> {
    fn begin_object(&mut self) {
        self.open(b'{');
    }

    fn end_object(&mut self) {
        self.close(b'}');
    }

    fn begin_array(&mut self) {
        self.open(b'[');
    }

    fn end_array(&mut self) {
        self.close(b']');
    }

    fn member(&mut self, key: &str) {
        self.separate();
        write_escaped(self.out, key);
        self.out.push(b':');
        if self.indent.is_some() {
            self.out.push(b' ');
        }
        self.slot = Slot::Value;
    }

    fn null(&mut self) {
        self.scalar(b"null");
    }

    fn bool(&mut self, value: bool) {
        self.scalar(if value { b"true" } else { b"false" });
    }

    fn number(&mut self, value: impl fmt::Display) {
        self.separate();
        write!(self.out, "{value}").expect("writing to a Vec cannot fail");
        self.slot = Slot::Next;
    }

    fn str(&mut self, value: &str) {
        self.separate();
        write_escaped(self.out, value);
        self.slot = Slot::Next;
    }
}

/// Writes `s` as a JSON string: runs of bytes that need no escape are
/// copied whole.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut clean = 0;
    for (at, &byte) in s.as_bytes().iter().enumerate() {
        let escape: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&s.as_bytes()[clean..at]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing to a Vec cannot fail");
        } else {
            out.extend_from_slice(escape);
        }
        clean = at + 1;
    }
    out.extend_from_slice(&s.as_bytes()[clean..]);
    out.push(b'"');
}

/// The sink behind [`ToJson::to_json`]: builds a [`JsonValue`] tree.
/// The entries of open containers wait in one list, so closing a
/// container allocates it once, at its exact size.
#[derive(Default)]
struct TreeBuilder {
    /// Values written and not yet closed into a container, each with the
    /// key it sits under; the finished document is the last one left.
    entries: Vec<(Option<String>, JsonValue)>,
    /// Each open container: whether it is an object, where its entries
    /// start, and the key it sits under.
    open: Vec<(bool, usize, Option<String>)>,
    /// The key named for the next value.
    key: Option<String>,
}

impl TreeBuilder {
    fn place(&mut self, value: JsonValue) {
        let key = self.key.take();
        self.entries.push((key, value));
    }

    fn open(&mut self, object: bool) {
        let key = self.key.take();
        self.open.push((object, self.entries.len(), key));
    }

    fn close(&mut self) {
        let (object, start, key) = self.open.pop().expect("a container is open");
        let entries = self.entries.drain(start..);
        let container = if object {
            let named = |(key, value): (Option<String>, _)| {
                (key.expect("an object member is named first"), value)
            };
            JsonValue::Object(entries.map(named).collect())
        } else {
            JsonValue::Array(entries.map(|(_, value)| value).collect())
        };
        self.key = key;
        self.place(container);
    }
}

impl JsonSink for TreeBuilder {
    fn begin_object(&mut self) {
        self.open(true);
    }

    fn end_object(&mut self) {
        self.close();
    }

    fn begin_array(&mut self) {
        self.open(false);
    }

    fn end_array(&mut self) {
        self.close();
    }

    fn member(&mut self, key: &str) {
        self.key = Some(key.to_string());
    }

    fn null(&mut self) {
        self.place(JsonValue::Null);
    }

    fn bool(&mut self, value: bool) {
        self.place(JsonValue::Bool(value));
    }

    fn number(&mut self, value: impl fmt::Display) {
        self.place(JsonValue::Number(value.to_string()));
    }

    fn str(&mut self, value: &str) {
        self.place(JsonValue::string(value));
    }
}

/// A parsed tree as a decoder's source.
struct TreeSource<'v>(&'v JsonValue);

impl<'v> JsonSource for TreeSource<'v> {
    fn number(&mut self) -> Result<Option<&str>, JsonError> {
        Ok(match self.0 {
            JsonValue::Number(token) => Some(token),
            _ => None,
        })
    }

    fn string(&mut self) -> Result<Option<Cow<'_, str>>, JsonError> {
        Ok(self.0.as_str().map(Cow::Borrowed))
    }

    fn null(&mut self) -> Result<bool, JsonError> {
        Ok(*self.0 == JsonValue::Null)
    }

    fn object<F>(&mut self, mut member: F) -> Result<bool, JsonError>
    where
        F: FnMut(&str, &mut Self) -> Result<(), JsonError>,
    {
        let node: &'v JsonValue = self.0;
        let JsonValue::Object(members) = node else {
            return Ok(false);
        };
        for (key, value) in members {
            member(key, &mut TreeSource(value))?;
        }
        Ok(true)
    }

    fn array<F>(&mut self, mut element: F) -> Result<bool, JsonError>
    where
        F: FnMut(&mut Self) -> Result<(), JsonError>,
    {
        let node: &'v JsonValue = self.0;
        let JsonValue::Array(items) = node else {
            return Ok(false);
        };
        for item in items {
            element(&mut TreeSource(item))?;
        }
        Ok(true)
    }
}

/// Deepest array/object nesting the reader accepts. The reader recurses
/// once per level, so without a bound an untrusted frame of `[[[…` could
/// overflow the stack; the documents this crate writes nest a handful of
/// levels deep.
const MAX_DEPTH: usize = 128;

/// What a value is, from its first byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Literal,
    Number,
    String,
    Array,
    Object,
}

/// The pull reader: the crate's one JSON grammar. It reads one value at a
/// time from the input, and builds nothing unless asked to
/// ([`tree`](Self::tree)).
struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    /// Skips whitespace and classifies the next value by its first byte.
    fn kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n' | b't' | b'f') => Ok(Kind::Literal),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            _ => Err(JsonError::parse("expected a JSON value", self.pos)),
        }
    }

    /// Reads `null` (`None`), `true` or `false`.
    fn literal(&mut self) -> Result<Option<bool>, JsonError> {
        for (text, value) in [("null", None), ("true", Some(true)), ("false", Some(false))] {
            if self.eat_literal(text) {
                return Ok(value);
            }
        }
        Err(JsonError::parse("expected a JSON value", self.pos))
    }

    /// Reads the document's one value and checks that only whitespace
    /// follows it.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_whitespace();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(JsonError::parse(
                "trailing characters after document",
                self.pos,
            ))
        }
    }

    /// Skips one value, validating it.
    fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Literal => self.literal().map(drop),
            Kind::Number => self.number_token().map(drop),
            Kind::String => self.string_token().map(drop),
            Kind::Array => self.read_array(Self::skip),
            Kind::Object => self.read_object(|reader, _| reader.skip()),
        }
    }

    /// Reads one value into a tree.
    fn tree(&mut self) -> Result<JsonValue, JsonError> {
        Ok(match self.kind()? {
            Kind::Literal => self.literal()?.map_or(JsonValue::Null, JsonValue::Bool),
            Kind::Number => JsonValue::Number(self.number_token()?.to_string()),
            Kind::String => JsonValue::String(self.string_token()?.into_owned()),
            Kind::Array => {
                let mut items = Vec::new();
                self.read_array(|reader| {
                    items.push(reader.tree()?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            Kind::Object => {
                let mut members = Vec::new();
                self.read_object(|reader, key| {
                    members.push((key.to_string(), reader.tree()?));
                    Ok(())
                })?;
                JsonValue::Object(members)
            }
        })
    }

    /// Enters one nesting level at an opening bracket, refusing to pass
    /// [`MAX_DEPTH`].
    fn enter(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::parse(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.skip_whitespace();
        Ok(())
    }

    /// Runs `visit` on the value at the reader, and skips the value if the
    /// visitor left it unread.
    fn visit_value(
        &mut self,
        visit: impl FnOnce(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_whitespace();
        let start = self.pos;
        visit(self)?;
        if self.pos == start {
            self.skip()?;
        }
        self.skip_whitespace();
        Ok(())
    }

    fn read_array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter(b'[')?;
        if self.peek() != Some(b']') {
            loop {
                self.visit_value(&mut element)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(JsonError::parse("expected ',' or ']'", self.pos)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn read_object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter(b'{')?;
        if self.peek() != Some(b'}') {
            loop {
                self.skip_whitespace();
                let key = self.string_token()?;
                self.skip_whitespace();
                self.expect(b':')?;
                self.visit_value(|reader| member(reader, &key))?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(JsonError::parse("expected ',' or '}'", self.pos)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Reads a string token: borrowed from the input unless it holds
    /// escapes.
    fn string_token(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text: &'a str = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let mut owned: Option<String> = None;
        let mut clean = start;
        loop {
            let Some(&byte) = bytes.get(self.pos) else {
                return Err(JsonError::parse("unterminated string", self.pos));
            };
            match byte {
                b'"' => {
                    let tail = &text[clean..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                        None => Cow::Borrowed(tail),
                    });
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&text[clean..self.pos]);
                    self.pos += 1;
                    let Some(escape) = self.peek() else {
                        return Err(JsonError::parse("unterminated escape", self.pos));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(JsonError::parse("invalid escape", self.pos - 1)),
                    }
                    clean = self.pos;
                }
                0..=0x1f => {
                    return Err(JsonError::parse(
                        "unescaped control character in string",
                        self.pos,
                    ));
                }
                // The input is UTF-8, so a multi-byte code point passes
                // through byte by byte.
                _ => self.pos += 1,
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let start = self.pos;
        let digits = self
            .text
            .as_bytes()
            .get(start..start + 4)
            .ok_or_else(|| JsonError::parse("truncated \\u escape", start))?;
        let mut code = 0;
        for &digit in digits {
            let value = (digit as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::parse("invalid \\u escape", start))?;
            code = code * 16 + value;
        }
        self.pos += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let code = self.hex4()?;
        // Surrogate pair: \uD8xx must be followed by \uDCxx.
        if (0xD800..0xDC00).contains(&code) {
            if !self.eat_literal("\\u") {
                return Err(JsonError::parse("unpaired surrogate", at));
            }
            let low = self.hex4()?;
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

    /// Reads a number token: `-`? digits (`.` digits)? ([eE] [+-]? digits)?
    fn number_token(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.eat_digits() == 0 {
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
        Ok(&self.text[start..self.pos])
    }

    fn eat_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

impl JsonSource for JsonReader<'_> {
    fn number(&mut self) -> Result<Option<&str>, JsonError> {
        if self.kind()? == Kind::Number {
            self.number_token().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    fn string(&mut self) -> Result<Option<Cow<'_, str>>, JsonError> {
        if self.kind()? == Kind::String {
            self.string_token().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    fn null(&mut self) -> Result<bool, JsonError> {
        if self.kind()? == Kind::Literal && self.eat_literal("null") {
            return Ok(true);
        }
        self.skip().map(|()| false)
    }

    fn object<F>(&mut self, mut member: F) -> Result<bool, JsonError>
    where
        F: FnMut(&str, &mut Self) -> Result<(), JsonError>,
    {
        if self.kind()? != Kind::Object {
            return self.skip().map(|()| false);
        }
        self.read_object(|reader, key| member(key, reader))
            .map(|()| true)
    }

    fn array<F>(&mut self, element: F) -> Result<bool, JsonError>
    where
        F: FnMut(&mut Self) -> Result<(), JsonError>,
    {
        if self.kind()? != Kind::Array {
            return self.skip().map(|()| false);
        }
        self.read_array(element).map(|()| true)
    }
}

json_document!(EngineStats {
    "matmuls" => matmuls: u64,
    "weight_bypasses" => weight_bypasses: u64,
    "weight_prefetches" => weight_prefetches: u64,
    "full_weight_loads" => full_weight_loads: u64,
    "occupancy_cycles" => occupancy_cycles: u64,
    "last_completion_cycle" => last_completion_cycle: u64,
    "total_macs" => total_macs: u64,
    "operand_stall_cycles" => operand_stall_cycles: u64,
    "structural_stall_cycles" => structural_stall_cycles: u64,
});

json_document!(CpuStats {
    "cycles" => cycles: u64,
    "retired_instructions" => retired_instructions: u64,
    "retired_matmuls" => retired_matmuls: u64,
    "retired_tile_memory_ops" => retired_tile_memory_ops: u64,
    "rob_full_stalls" => rob_full_stalls: u64,
    "rs_full_stalls" => rs_full_stalls: u64,
    "engine" => engine: EngineStats,
});

json_document!(AreaBreakdown {
    "multipliers" => multipliers: f64,
    "adders" => adders: f64,
    "weight_buffers" => weight_buffers: f64,
    "pipeline" => pipeline: f64,
    "control" => control: f64,
});

json_document!(EnergyBreakdown {
    "mac" => mac: f64,
    "weight_load" => weight_load: f64,
    "tile_io" => tile_io: f64,
    "static_clock" => static_clock: f64,
});

json_document!(PowerReport {
    "design" => design: String,
    "area" => area: AreaBreakdown,
    "energy" => energy: EnergyBreakdown,
    "core_cycles" => core_cycles: u64,
});

// A report's document is its nine simulated members. Its execution
// diagnostics stay in process: a `sched` or `pipeline` member, which older
// documents and peers carry, is ignored, and decoding defaults both.
json_document!(SimReport {
    "design" => design: String,
    "workload" => workload: String,
    "core_cycles" => core_cycles: u64,
    "simulated_core_cycles" => simulated_core_cycles: u64,
    "simulated_matmuls" => simulated_matmuls: u64,
    "total_matmuls" => total_matmuls: u64,
    "runtime_seconds" => runtime_seconds: f64,
    "cpu" => cpu: CpuStats,
    "power" => power: PowerReport,
} .. sched, pipeline);

json_document!(SimSummary {
    "design" => design: String,
    "workload" => workload: String,
    "core_cycles" => core_cycles: u64,
    "simulated_matmuls" => simulated_matmuls: u64,
    "total_matmuls" => total_matmuls: u64,
    "runtime_seconds" => runtime_seconds: f64,
    "ipc" => ipc: f64,
    "engine_bypass_rate" => engine_bypass_rate: f64,
    "area_mm2" => area_mm2: f64,
    "energy_joules" => energy_joules: f64,
});

json_document!(CacheStats {
    "hits" => hits: u64,
    "misses" => misses: u64,
    "entries" => entries: usize,
    "evictions" => evictions: u64,
    "capacity" => capacity: usize,
});

/// The dimensions of an fc and of a conv layer, in document order after
/// `name` and `kind`.
const FC_DIMENSIONS: [&str; 3] = ["batch", "input_neurons", "output_neurons"];
const CONV_DIMENSIONS: [&str; 9] = ["n", "c", "y", "x", "k", "r", "s", "stride", "pad"];

impl ToJson for LayerSpec {
    fn write_json<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.field("name", self.name());
        match *self.kind() {
            LayerKind::Fc {
                batch,
                input_neurons,
                output_neurons,
            } => {
                sink.field("kind", "fc");
                let dims = [batch, input_neurons, output_neurons];
                for (key, value) in FC_DIMENSIONS.iter().zip(&dims) {
                    sink.field(key, value);
                }
            }
            LayerKind::Conv(c) => {
                sink.field("kind", "conv");
                let dims = [c.n, c.c, c.y, c.x, c.k, c.r, c.s, c.stride, c.pad];
                for (key, value) in CONV_DIMENSIONS.iter().zip(&dims) {
                    sink.field(key, value);
                }
            }
        }
        sink.end_object();
    }
}

/// A member read leniently: present, and of the `expected` kind.
fn lenient<T>(slot: Option<Option<T>>, key: &str, expected: &str) -> Result<T, JsonError> {
    required(slot, key)?.ok_or_else(|| not_a(&format!("field '{key}'"), expected))
}

/// A layer is a union: `kind` says which dimensions it carries. Every
/// dimension of either kind is read, but only those of the layer's own
/// kind must be present and numbers: a member of the other kind is
/// ignored, whatever it holds.
impl FromJson for LayerSpec {
    const EXPECTED: &'static str = "an object";

    fn read_json<R: JsonSource>(source: &mut R) -> Result<Option<Self>, JsonError> {
        // One slot per dimension: the fc ones, then the conv ones.
        let (mut name, mut kind, mut dims) = (None, None, [None; 12]);
        let object = source.object(|key, value| {
            let dim = FC_DIMENSIONS
                .iter()
                .chain(&CONV_DIMENSIONS)
                .position(|d| *d == key);
            match (key, dim) {
                ("name", _) if name.is_none() => name = Some(String::read_json(value)?),
                ("kind", _) if kind.is_none() => kind = Some(String::read_json(value)?),
                (_, Some(at)) if dims[at].is_none() => dims[at] = Some(usize::read_json(value)?),
                _ => {}
            }
            Ok(())
        })?;
        if !object {
            return Ok(None);
        }
        let name = lenient(name, "name", String::EXPECTED)?;
        match lenient(kind, "kind", String::EXPECTED)?.as_str() {
            "fc" => {
                let [batch, input, output] =
                    std::array::from_fn(|at| lenient(dims[at], FC_DIMENSIONS[at], usize::EXPECTED));
                Ok(Some(LayerSpec::fc(name, batch?, input?, output?)))
            }
            "conv" => {
                let [n, c, y, x, k, r, s, stride, pad] = std::array::from_fn(|at| {
                    lenient(dims[3 + at], CONV_DIMENSIONS[at], usize::EXPECTED)
                });
                let shape = ConvShape::new(n?, c?, y?, x?, k?, r?, s?, stride?, pad?);
                // Lowering divides by the stride and subtracts the filter
                // from the padded input, so an invalid shape must never
                // leave the decoder.
                shape
                    .validate()
                    .map_err(|e| JsonError::decode(format!("invalid conv shape: {e}")))?;
                Ok(Some(LayerSpec::conv(name, shape)))
            }
            other => Err(JsonError::decode(format!("unknown layer kind '{other}'"))),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DesignPoint, PipelineStats, SimJob, Simulator};
    use rasa_cpu::SchedStats;
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
