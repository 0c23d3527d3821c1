//! Self-contained JSON (de)serialization of [`Trace`]s.
//!
//! This replaces the former `serde`/`serde_json` dependency so the
//! workspace builds offline. The wire format is kept compatible with the
//! previously derived one: a trace is its [`TraceData`] — events with
//! externally-tagged kinds, maps keyed by stringified ids — so traces
//! serialized by earlier builds still load.
//!
//! This module holds the writers ([`to_json`], [`to_ndjson`]), the JSON
//! value parser ([`parse_json`], for control documents and for the
//! metadata and unusual events the trace reader frames), the byte-level
//! event decoder, and the tree event and metadata decoders. Every
//! trace is read by one parser, [`crate::StreamParser`]; [`from_json`] is
//! [`crate::read_trace`] over an in-memory document.
//!
//! ```json
//! {"events":[{"thread":0,"kind":{"Write":{"var":0,"value":1}},"loc":2}],
//!  "initial_values":{"0":0},"volatiles":[],"wait_links":[],
//!  "loc_names":{"2":"Main.java:3"},"var_names":{"0":"x"}}
//! ```
//!
//! # Examples
//!
//! ```
//! use rvtrace::{from_json, to_json, ThreadId, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.write(ThreadId::MAIN, x, 1);
//! let trace = b.finish();
//! let round = from_json(&to_json(&trace)).unwrap();
//! assert_eq!(round.events(), trace.events());
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{ChanId, Event, EventId, EventKind, Loc, LockId, ThreadId, Value, VarId};
use crate::stream::read_trace;
use crate::trace::{MsgLink, Trace, TraceData, WaitLink};

/// A JSON parse or shape error, with a byte offset for syntax errors and a
/// short excerpt of the input around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where a syntax error was detected (0 for
    /// shape errors discovered after parsing).
    pub offset: usize,
    /// Up to ~30 characters of input surrounding `offset` (empty for shape
    /// errors, which concern the document's structure rather than a byte).
    pub snippet: String,
}

/// How many bytes of context an error snippet shows on either side of the
/// failing offset. The trace reader retains this much consumed input so
/// its snippets show context from before the failure point.
pub(crate) const SNIPPET_CONTEXT: usize = 15;

impl JsonError {
    /// Attaches an input excerpt around the error's byte offset, so the
    /// message pinpoints the problem without the caller re-reading the file.
    fn with_snippet(mut self, input: &str) -> JsonError {
        if self.snippet.is_empty() && !input.is_empty() {
            let at = self.offset.min(input.len());
            let mut start = at.saturating_sub(SNIPPET_CONTEXT);
            while !input.is_char_boundary(start) {
                start -= 1;
            }
            let mut end = (at + SNIPPET_CONTEXT).min(input.len());
            while !input.is_char_boundary(end) {
                end += 1;
            }
            self.snippet = input[start..end].to_string();
        }
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {}", self.message, self.offset)?;
        if !self.snippet.is_empty() {
            write!(f, ", near `{}`", self.snippet.escape_debug())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for JsonError {}

pub(crate) fn shape(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        offset: 0,
        snippet: String::new(),
    }
}

// ---------------------------------------------------------------- values

/// A parsed JSON value (integers only: none of the in-tree formats —
/// traces, metrics, bench results — use floats, and rejecting them keeps
/// every number exactly representable).
///
/// Public so downstream tooling (the bench harness, the metrics tests) can
/// parse and inspect the documents this workspace emits without an external
/// JSON dependency; obtain one with [`parse_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the format admits no floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as a key-value list in document order (keys may repeat;
    /// [`JsonValue::field`] finds the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The integer value, or a shape error.
    pub fn as_int(&self) -> Result<i64, JsonError> {
        match self {
            JsonValue::Int(v) => Ok(*v),
            other => Err(shape(format!("expected integer, found {other:?}"))),
        }
    }

    /// The integer value narrowed to `u32`, or a shape error.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_int()?).map_err(|_| shape("integer out of u32 range"))
    }

    /// The boolean value, or a shape error.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(v) => Ok(*v),
            other => Err(shape(format!("expected boolean, found {other:?}"))),
        }
    }

    /// The string value, or a shape error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(shape(format!("expected string, found {other:?}"))),
        }
    }

    /// The array elements, or a shape error.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(v) => Ok(v),
            other => Err(shape(format!("expected array, found {other:?}"))),
        }
    }

    /// The object's key-value pairs in document order, or a shape error.
    pub fn as_object(&self) -> Result<&[(String, JsonValue)], JsonError> {
        match self {
            JsonValue::Object(v) => Ok(v),
            other => Err(shape(format!("expected object, found {other:?}"))),
        }
    }

    /// The named object field, or a shape error when `self` is not an
    /// object or has no such field.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a JsonValue, JsonError> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| shape(format!("missing field `{name}`")))
    }

    /// The named object field, or `None` when absent (or when `self` is
    /// not an object).
    pub fn get<'a>(&'a self, name: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
            snippet: String::new(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.err(format!("unexpected byte `{}`", other as char))),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not part of the trace format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<i64>()
            .map(JsonValue::Int)
            .map_err(|e| self.err(format!("bad number: {e}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: only the BMP appears in trace
                            // names in practice, but handle pairs anyway.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 2;
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let low = u32::from_str_radix(
                                    std::str::from_utf8(hex2)
                                        .map_err(|_| self.err("non-ascii \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(char::from_u32(ch).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf8"))?;
                    let start = self.pos - 1;
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated utf8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("invalid utf8"))?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let parsed = (|| {
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    })();
    parsed.map_err(|e| e.with_snippet(input))
}

/// Parses an arbitrary (integer-only) JSON document into a [`JsonValue`].
///
/// The trace reader decodes metadata, and every event its byte decoder
/// declines, with this parser; it is exposed so in-tree consumers
/// (session requests, the metrics tests) can read the workspace's JSON
/// documents without an external dependency. Floating-point numbers are
/// rejected by design.
///
/// # Examples
///
/// ```
/// use rvtrace::parse_json;
///
/// let v = parse_json(r#"{"schema_version": 1, "ok": true}"#).unwrap();
/// assert_eq!(v.field("schema_version").unwrap().as_int().unwrap(), 1);
/// assert!(parse_json("{\"pi\": 3.14}").is_err(), "floats are rejected");
/// ```
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    parse(input)
}

/// Parses one framed JSON value that begins at absolute byte offset
/// `abs_base` of a larger input. Error snippets come from the span itself
/// (the trace reader may have drained earlier bytes); offsets are rebased
/// so they point into the whole input.
pub(crate) fn parse_span(span: &str, abs_base: usize) -> Result<JsonValue, JsonError> {
    parse(span).map_err(|mut e| {
        e.offset += abs_base;
        e
    })
}

// ---------------------------------------------------------------- writer

/// Renders `s` as a JSON string literal (quotes included, content
/// escaped). Exposed so in-tree consumers that hand-build JSON documents
/// — the bench harness, the daemon protocol — escape strings exactly the
/// way the trace writer does.
pub fn escape_json(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_kind(out: &mut String, kind: &EventKind) {
    match *kind {
        EventKind::Begin => out.push_str("\"Begin\""),
        EventKind::End => out.push_str("\"End\""),
        EventKind::Branch => out.push_str("\"Branch\""),
        EventKind::Read { var, value } => out.push_str(&format!(
            "{{\"Read\":{{\"var\":{},\"value\":{}}}}}",
            var.0, value.0
        )),
        EventKind::Write { var, value } => out.push_str(&format!(
            "{{\"Write\":{{\"var\":{},\"value\":{}}}}}",
            var.0, value.0
        )),
        EventKind::Acquire { lock } => {
            out.push_str(&format!("{{\"Acquire\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::Release { lock } => {
            out.push_str(&format!("{{\"Release\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::AcquireRead { lock } => {
            out.push_str(&format!("{{\"AcquireRead\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::ReleaseRead { lock } => {
            out.push_str(&format!("{{\"ReleaseRead\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::Send { chan } => out.push_str(&format!("{{\"Send\":{{\"chan\":{}}}}}", chan.0)),
        EventKind::Recv { chan } => out.push_str(&format!("{{\"Recv\":{{\"chan\":{}}}}}", chan.0)),
        EventKind::Notify { lock } => {
            out.push_str(&format!("{{\"Notify\":{{\"lock\":{}}}}}", lock.0))
        }
        EventKind::Fork { child } => {
            out.push_str(&format!("{{\"Fork\":{{\"child\":{}}}}}", child.0))
        }
        EventKind::Join { child } => {
            out.push_str(&format!("{{\"Join\":{{\"child\":{}}}}}", child.0))
        }
    }
}

fn write_name_map<K: Copy>(out: &mut String, map: &BTreeMap<K, String>, key: impl Fn(K) -> u32) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", key(*k)));
        write_escaped(out, v);
    }
    out.push('}');
}

/// Writes one event as its wire object: `{"thread":N,"kind":K,"loc":N}`.
/// Shared by the whole-document writer and the NDJSON writer so both
/// formats stay byte-compatible per event.
fn write_event(out: &mut String, e: &Event) {
    out.push_str(&format!("{{\"thread\":{},\"kind\":", e.thread.0));
    write_kind(out, &e.kind);
    out.push_str(&format!(",\"loc\":{}}}", e.loc.0));
}

/// Writes the metadata fields (`initial_values` … `var_names`) as a
/// comma-separated run of `"key":value` pairs, no surrounding braces.
/// `msg_links` is emitted only when non-empty — it is an *optional* field
/// (absent from [`METADATA_KEYS`]) so documents from earlier builds, which
/// never carry it, keep loading and old readers never see it.
fn write_metadata_fields(out: &mut String, data: &TraceData) {
    out.push_str("\"initial_values\":{");
    for (i, (var, value)) in data.initial_values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", var.0, value.0));
    }
    out.push_str("},\"volatiles\":[");
    for (i, v) in data.volatiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}", v.0));
    }
    out.push_str("],\"wait_links\":[");
    for (i, wl) in data.wait_links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"release\":{},\"acquire\":{},\"notify\":",
            wl.release.0, wl.acquire.0
        ));
        match wl.notify {
            Some(n) => out.push_str(&format!("{}", n.0)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    if !data.msg_links.is_empty() {
        out.push_str(",\"msg_links\":[");
        for (i, ml) in data.msg_links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"send\":{},\"recv\":{}}}",
                ml.send.0, ml.recv.0
            ));
        }
        out.push(']');
    }
    out.push_str(",\"loc_names\":");
    write_name_map(out, &data.loc_names, |l: Loc| l.0);
    out.push_str(",\"var_names\":");
    write_name_map(out, &data.var_names, |v: VarId| v.0);
}

/// Serializes a trace to its JSON wire format.
pub fn to_json(trace: &Trace) -> String {
    let data = trace.data();
    let mut out = String::with_capacity(data.events.len() * 48 + 256);
    out.push_str("{\"events\":[");
    for (i, e) in data.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, e);
    }
    out.push_str("],");
    write_metadata_fields(&mut out, data);
    out.push('}');
    out
}

/// Serializes a trace to the NDJSON wire format: a header line carrying
/// the metadata (initial values, volatiles, wait links, names), then one
/// event object per line. The header's wait links may reference events on
/// later lines; a streaming reader applies them after the full read.
///
/// Designed for streaming ingestion ([`crate::StreamParser`]): a reader
/// knows all metadata after line one, so window construction can start
/// while events are still arriving — unlike the whole-document format,
/// whose metadata trails the event array.
pub fn to_ndjson(trace: &Trace) -> String {
    let data = trace.data();
    let mut out = String::with_capacity(data.events.len() * 48 + 256);
    out.push('{');
    write_metadata_fields(&mut out, data);
    out.push_str("}\n");
    for e in &data.events {
        write_event(&mut out, e);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- reader

fn read_kind(v: &JsonValue) -> Result<EventKind, JsonError> {
    match v {
        JsonValue::Str(tag) => match tag.as_str() {
            "Begin" => Ok(EventKind::Begin),
            "End" => Ok(EventKind::End),
            "Branch" => Ok(EventKind::Branch),
            other => Err(shape(format!("unknown event kind `{other}`"))),
        },
        JsonValue::Object(fields) if fields.len() == 1 => {
            let (tag, body) = &fields[0];
            match tag.as_str() {
                "Read" => Ok(EventKind::Read {
                    var: VarId(body.field("var")?.as_u32()?),
                    value: Value(body.field("value")?.as_int()?),
                }),
                "Write" => Ok(EventKind::Write {
                    var: VarId(body.field("var")?.as_u32()?),
                    value: Value(body.field("value")?.as_int()?),
                }),
                "Acquire" => Ok(EventKind::Acquire {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "Release" => Ok(EventKind::Release {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "AcquireRead" => Ok(EventKind::AcquireRead {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "ReleaseRead" => Ok(EventKind::ReleaseRead {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "Send" => Ok(EventKind::Send {
                    chan: ChanId(body.field("chan")?.as_u32()?),
                }),
                "Recv" => Ok(EventKind::Recv {
                    chan: ChanId(body.field("chan")?.as_u32()?),
                }),
                "Notify" => Ok(EventKind::Notify {
                    lock: LockId(body.field("lock")?.as_u32()?),
                }),
                "Fork" => Ok(EventKind::Fork {
                    child: ThreadId(body.field("child")?.as_u32()?),
                }),
                "Join" => Ok(EventKind::Join {
                    child: ThreadId(body.field("child")?.as_u32()?),
                }),
                other => Err(shape(format!("unknown event kind `{other}`"))),
            }
        }
        other => Err(shape(format!("bad event kind: {other:?}"))),
    }
}

fn read_key_u32(key: &str) -> Result<u32, JsonError> {
    key.parse::<u32>()
        .map_err(|_| shape(format!("map key `{key}` is not an id")))
}

/// Decodes one event object (`{"thread":N,"kind":K,"loc":N}`), in either
/// wire format.
pub(crate) fn read_event(v: &JsonValue) -> Result<Event, JsonError> {
    Ok(Event {
        thread: ThreadId(v.field("thread")?.as_u32()?),
        kind: read_kind(v.field("kind")?)?,
        loc: Loc(v.field("loc")?.as_u32()?),
    })
}

/// Decodes the event object at the start of `bytes` (leading whitespace
/// allowed) straight from its bytes, without building a [`JsonValue`]
/// tree: the event and the index of the first byte after the object and
/// the whitespace that follows it, whatever that byte is (`bytes.len()`
/// when none). It accepts an event object in the writer's vocabulary —
/// the keys `thread`, `kind` and `loc` once each in any order, a bare or
/// one-key object `kind` whose inner object carries exactly its tag's
/// fields in any order, integers in range, JSON whitespace between
/// tokens. Without `newline_is_space`, as on an NDJSON line, `\n` is not
/// whitespace: the object never spans lines, and the index is the line's
/// `\n` when the line holds only the event.
///
/// Anything else — an escape or a non-ASCII byte, an unknown, repeated or
/// missing key, a literal, a float, an out-of-range integer, a syntax
/// error, or `bytes` ending before the object does — is `None`, and the
/// caller decodes the same frame with [`parse_json`]'s parser and
/// [`read_event`]. Whatever this accepts that pair decodes to the same
/// event, so accepted inputs, errors, offsets and snippets do not depend
/// on which path ran.
pub(crate) fn decode_event_prefix(bytes: &[u8], newline_is_space: bool) -> Option<(Event, usize)> {
    let mut cur = Cursor {
        bytes,
        pos: 0,
        newline_is_space,
    };
    let event = cur.event()?;
    let _ = cur.peek();
    Some((event, cur.pos))
}

/// [`decode_event_prefix`] over one whole frame: `Some` only when the
/// object and its surrounding whitespace fill `frame` (the contract the
/// differential tests check).
#[cfg(test)]
pub(crate) fn decode_event(frame: &[u8]) -> Option<Event> {
    match decode_event_prefix(frame, true)? {
        (event, end) if end == frame.len() => Some(event),
        _ => None,
    }
}

/// An event kind built from its inner object's fields: the first is the
/// id, the second (`Read`/`Write` only) the value.
type KindFields = (&'static [&'static [u8]], fn(u32, i64) -> EventKind);

/// The inner fields of an object-form tag, or `None` for any other tag.
fn kind_fields(tag: &[u8]) -> Option<KindFields> {
    const VAR_VALUE: &[&[u8]] = &[b"var", b"value"];
    Some(match tag {
        b"Read" => (VAR_VALUE, |v, x| EventKind::Read {
            var: VarId(v),
            value: Value(x),
        }),
        b"Write" => (VAR_VALUE, |v, x| EventKind::Write {
            var: VarId(v),
            value: Value(x),
        }),
        b"Acquire" => (&[b"lock"], |l, _| EventKind::Acquire { lock: LockId(l) }),
        b"Release" => (&[b"lock"], |l, _| EventKind::Release { lock: LockId(l) }),
        b"AcquireRead" => (&[b"lock"], |l, _| EventKind::AcquireRead {
            lock: LockId(l),
        }),
        b"ReleaseRead" => (&[b"lock"], |l, _| EventKind::ReleaseRead {
            lock: LockId(l),
        }),
        b"Notify" => (&[b"lock"], |l, _| EventKind::Notify { lock: LockId(l) }),
        b"Send" => (&[b"chan"], |c, _| EventKind::Send { chan: ChanId(c) }),
        b"Recv" => (&[b"chan"], |c, _| EventKind::Recv { chan: ChanId(c) }),
        b"Fork" => (&[b"child"], |t, _| EventKind::Fork { child: ThreadId(t) }),
        b"Join" => (&[b"child"], |t, _| EventKind::Join { child: ThreadId(t) }),
        _ => return None,
    })
}

/// The byte cursor behind [`decode_event_prefix`]: every method returns
/// `None` on anything outside the event vocabulary.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether `\n` is whitespace (it ends an NDJSON line).
    newline_is_space: bool,
}

impl<'a> Cursor<'a> {
    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        loop {
            let b = *self.bytes.get(self.pos)?;
            if !(matches!(b, b' ' | b'\t' | b'\r') || b == b'\n' && self.newline_is_space) {
                return Some(b);
            }
            self.pos += 1;
        }
    }

    /// One event object.
    fn event(&mut self) -> Option<Event> {
        self.eat(b'{')?;
        let (mut thread, mut kind, mut loc) = (None, None, None);
        loop {
            let key = self.key()?;
            self.eat(b':')?;
            let taken = match key {
                b"thread" => thread.replace(ThreadId(self.u32()?)).is_some(),
                b"kind" => kind.replace(self.kind()?).is_some(),
                b"loc" => loc.replace(Loc(self.u32()?)).is_some(),
                _ => return None,
            };
            if taken {
                return None;
            }
            if self.comma_or_close()? {
                break;
            }
        }
        Some(Event {
            thread: thread?,
            kind: kind?,
            loc: loc?,
        })
    }

    fn eat(&mut self, want: u8) -> Option<()> {
        (self.peek()? == want).then(|| self.pos += 1)
    }

    /// After a member: `Some(false)` on `,`, `Some(true)` on `}`.
    fn comma_or_close(&mut self) -> Option<bool> {
        let close = match self.peek()? {
            b',' => false,
            b'}' => true,
            _ => return None,
        };
        self.pos += 1;
        Some(close)
    }

    /// A string's raw bytes, up to the next quote. Every name the decoder
    /// matches is plain ASCII, so a string with an escape or a non-ASCII
    /// byte matches none and is declined.
    fn key(&mut self) -> Option<&'a [u8]> {
        self.eat(b'"')?;
        let bytes: &'a [u8] = self.bytes;
        let rest = &bytes[self.pos..];
        let len = rest.iter().position(|&b| b == b'"')?;
        self.pos += len + 1;
        Some(&rest[..len])
    }

    /// An integer read in place, with `str::parse::<i64>`'s range: an
    /// optional `-`, then at least one digit (leading zeros allowed).
    fn int(&mut self) -> Option<i64> {
        let negative = self.peek()? == b'-';
        self.pos += usize::from(negative);
        let start = self.pos;
        let mut v: i64 = 0;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            let d = i64::from(b - b'0');
            v = v.checked_mul(10)?;
            v = if negative {
                v.checked_sub(d)?
            } else {
                v.checked_add(d)?
            };
            self.pos += 1;
        }
        (self.pos > start).then_some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.int()?).ok()
    }

    /// The `kind` value: a bare tag, or `{"Tag":{fields}}`.
    fn kind(&mut self) -> Option<EventKind> {
        if self.peek()? == b'"' {
            return match self.key()? {
                b"Begin" => Some(EventKind::Begin),
                b"End" => Some(EventKind::End),
                b"Branch" => Some(EventKind::Branch),
                _ => None,
            };
        }
        self.eat(b'{')?;
        let (names, build) = kind_fields(self.key()?)?;
        self.eat(b':')?;
        let [id, value] = self.fields(names)?;
        // Exactly one key in the outer object.
        self.eat(b'}')?;
        Some(build(u32::try_from(id).ok()?, value))
    }

    /// An object of integer fields named exactly `names` (one or two), in
    /// any order, each once: their values in `names` order.
    fn fields(&mut self, names: &[&[u8]]) -> Option<[i64; 2]> {
        self.eat(b'{')?;
        let mut values = [None; 2];
        loop {
            let key = self.key()?;
            let slot = names.iter().position(|n| *n == key)?;
            self.eat(b':')?;
            if values[slot].replace(self.int()?).is_some() {
                return None;
            }
            if self.comma_or_close()? {
                break;
            }
        }
        let value = if names.len() == 2 { values[1]? } else { 0 };
        Some([values[0]?, value])
    }
}

/// The trace's required metadata keys, in the order a whole document
/// missing several reports them (the first missing one).
pub(crate) const METADATA_KEYS: [&str; 5] = [
    "initial_values",
    "volatiles",
    "wait_links",
    "loc_names",
    "var_names",
];

/// Applies one named metadata field to `data`. Returns `Ok(false)` for an
/// unrecognized key, which the reader ignores. Shared by both wire formats
/// so a field decodes identically in either.
pub(crate) fn apply_metadata_field(
    data: &mut TraceData,
    key: &str,
    v: &JsonValue,
) -> Result<bool, JsonError> {
    match key {
        "initial_values" => {
            for (k, v) in v.as_object()? {
                data.initial_values
                    .insert(VarId(read_key_u32(k)?), Value(v.as_int()?));
            }
        }
        "volatiles" => {
            for v in v.as_array()? {
                data.volatiles.push(VarId(v.as_u32()?));
            }
        }
        "wait_links" => {
            for wl in v.as_array()? {
                data.wait_links.push(WaitLink {
                    release: EventId(wl.field("release")?.as_u32()?),
                    acquire: EventId(wl.field("acquire")?.as_u32()?),
                    notify: match wl.field("notify")? {
                        JsonValue::Null => None,
                        v => Some(EventId(v.as_u32()?)),
                    },
                });
            }
        }
        "msg_links" => {
            for ml in v.as_array()? {
                data.msg_links.push(MsgLink {
                    send: EventId(ml.field("send")?.as_u32()?),
                    recv: EventId(ml.field("recv")?.as_u32()?),
                });
            }
        }
        "loc_names" => {
            for (k, v) in v.as_object()? {
                data.loc_names
                    .insert(Loc(read_key_u32(k)?), v.as_str()?.to_string());
            }
        }
        "var_names" => {
            for (k, v) in v.as_object()? {
                data.var_names
                    .insert(VarId(read_key_u32(k)?), v.as_str()?.to_string());
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Checks every wait link references an existing event: the strict half of
/// [`crate::read_trace`], public so callers that read raw [`TraceData`]
/// (the CLI, the streaming detector) run the same validation. An
/// out-of-range id from an untrusted document would otherwise become a
/// panic deep inside detection.
pub fn validate_wait_links(data: &TraceData) -> Result<(), JsonError> {
    let n_events = data.events.len();
    let check = |link: &str, what: &str, id: EventId| {
        if id.index() < n_events {
            Ok(())
        } else {
            Err(shape(format!(
                "{link} link {what} {} out of range (trace has {n_events} events)",
                id.0
            )))
        }
    };
    for wl in &data.wait_links {
        check("wait", "release", wl.release)?;
        check("wait", "acquire", wl.acquire)?;
        if let Some(n) = wl.notify {
            check("wait", "notify", n)?;
        }
    }
    for ml in &data.msg_links {
        check("msg", "send", ml.send)?;
        check("msg", "recv", ml.recv)?;
        if ml.send >= ml.recv {
            return Err(shape(format!(
                "msg link send {} does not precede recv {}",
                ml.send.0, ml.recv.0
            )));
        }
    }
    Ok(())
}

/// What trace ingestion cost: input size, events decoded, and the time
/// spent parsing — the trace layer's contribution to the `--metrics`
/// report (`trace.ingest.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Input size in bytes.
    pub bytes: usize,
    /// Events decoded.
    pub events: usize,
    /// Wall-clock parse + decode time.
    pub parse_time: std::time::Duration,
}

/// [`from_json`] plus an [`IngestStats`] measurement of the parse.
pub fn from_json_with_stats(input: &str) -> Result<(Trace, IngestStats), JsonError> {
    read_trace(input.as_bytes())
}

/// Deserializes a trace from its wire format, whole-document JSON or
/// NDJSON (auto-detected); the in-memory form of [`read_trace`].
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON, on a structurally valid
/// document that does not describe a trace, or on a wait link referencing
/// a nonexistent event.
pub fn from_json(input: &str) -> Result<Trace, JsonError> {
    read_trace(input.as_bytes()).map(|(trace, _)| trace)
}

/// A whole-document reader: parse the entire input into one [`JsonValue`]
/// tree, then decode it. The independent oracle the trace reader's parity
/// tests compare against.
#[cfg(test)]
pub(crate) fn dom_reference(input: &str) -> Result<TraceData, JsonError> {
    let root = parse(input)?;
    let mut data = TraceData::default();
    for ev in root.field("events")?.as_array()? {
        data.events.push(read_event(ev)?);
    }
    for key in METADATA_KEYS {
        apply_metadata_field(&mut data, key, root.field(key)?)?;
    }
    // Optional fields: absent in documents from earlier builds.
    if let Some(v) = root.get("msg_links") {
        apply_metadata_field(&mut data, "msg_links", v)?;
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("why \"quoted\"\n");
        b.initial(x, 7);
        let l = b.new_lock("l");
        let t2 = b.fork(ThreadId::MAIN);
        b.acquire(ThreadId::MAIN, l);
        b.write(ThreadId::MAIN, x, 1);
        b.release(ThreadId::MAIN, l);
        b.acquire(t2, l);
        let tok = b.wait_begin(t2, l);
        let n = b.notify(ThreadId::MAIN, l);
        b.wait_end(tok, Some(n));
        b.read(t2, y, 0);
        b.branch(t2);
        b.join(ThreadId::MAIN, t2);
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let s = to_json(&t);
        let back = from_json(&s).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.stats(), t.stats());
        assert_eq!(back.wait_links(), t.wait_links());
        assert_eq!(back.data().loc_names, t.data().loc_names);
        assert_eq!(back.data().var_names, t.data().var_names);
        assert_eq!(back.data().initial_values, t.data().initial_values);
        assert_eq!(back.data().volatiles, t.data().volatiles);
    }

    #[test]
    fn accepts_whitespace_and_reordered_fields() {
        let s = r#" {
            "volatiles" : [ 1 ],
            "initial_values" : { "0" : -3 },
            "events" : [
                { "loc" : 0, "thread" : 0, "kind" : { "Write" : { "var" : 0, "value" : 5 } } }
            ],
            "wait_links" : [ ],
            "loc_names" : { },
            "var_names" : { "0" : "xA" }
        } "#;
        let t = from_json(s).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.initial_value(VarId(0)), Value(-3));
        assert!(t.is_volatile(VarId(1)));
        assert_eq!(t.var_name(VarId(0)), Some("xA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"events\":[").is_err());
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"events\":[]}").is_err());
        assert!(from_json("{\"events\":[{\"thread\":0,\"kind\":\"Nope\",\"loc\":0}]}").is_err());
        assert!(from_json("[1,2,3] trailing").is_err());
        let err = from_json("{\"events\": 1.5}").unwrap_err();
        assert!(err.to_string().contains("floating-point"));
    }

    #[test]
    fn syntax_errors_carry_offset_and_snippet() {
        let input = "{\"events\":[{\"thread\":0,\"kind\":\"Oops";
        let err = from_json(input).unwrap_err();
        assert!(err.offset > 0);
        assert!(!err.snippet.is_empty());
        let s = err.to_string();
        assert!(s.contains("at byte"), "{s}");
        assert!(s.contains("near `"), "{s}");
    }

    #[test]
    fn out_of_range_wait_links_rejected() {
        let input = r#"{"events":[{"thread":0,"kind":"Branch","loc":0}],
            "initial_values":{},"volatiles":[],
            "wait_links":[{"release":0,"acquire":99,"notify":null}],
            "loc_names":{},"var_names":{}}"#;
        let err = from_json(input).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // The lenient path parses the same document; salvage then drops
        // the dangling link instead of failing.
        let (data, _) = crate::stream::read_trace_data(input.as_bytes()).unwrap();
        let (trace, report) = crate::salvage::salvage_trace(data);
        assert_eq!(trace.len(), 1);
        assert_eq!(report.dangling_wait_links, 1);
    }

    #[test]
    fn extended_kinds_and_msg_links_roundtrip() {
        let mut b = TraceBuilder::new();
        let l = b.new_lock("rw");
        let c = b.new_chan("ch");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire_read(t1, l);
        let s = b.send(t1, c);
        b.release_read(t1, l);
        let r = b.recv(t2, c, Some(s));
        let t = b.finish();
        let json = to_json(&t);
        assert!(json.contains("\"AcquireRead\""), "{json}");
        assert!(json.contains("\"msg_links\""), "{json}");
        let back = from_json(&json).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.msg_links(), t.msg_links());
        assert_eq!(back.msg_link_of_recv(r).unwrap().send, s);
    }

    #[test]
    fn documents_without_msg_links_still_load() {
        // A document in the pre-msg_links shape (exactly the old five
        // metadata keys) must parse, and its writer output must not grow
        // a msg_links field.
        let s = r#"{"events":[{"thread":0,"kind":"Branch","loc":0}],
            "initial_values":{},"volatiles":[],"wait_links":[],
            "loc_names":{},"var_names":{}}"#;
        let t = from_json(s).unwrap();
        assert!(t.msg_links().is_empty());
        assert!(!to_json(&t).contains("msg_links"));
    }

    #[test]
    fn bad_msg_links_rejected() {
        let base = |links: &str| {
            format!(
                r#"{{"events":[{{"thread":0,"kind":{{"Send":{{"chan":0}}}},"loc":0}},
                    {{"thread":0,"kind":{{"Recv":{{"chan":0}}}},"loc":1}}],
                "initial_values":{{}},"volatiles":[],"wait_links":[],
                "msg_links":{links},"loc_names":{{}},"var_names":{{}}}}"#
            )
        };
        let err = from_json(&base(r#"[{"send":0,"recv":99}]"#)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = from_json(&base(r#"[{"send":1,"recv":0}]"#)).unwrap_err();
        assert!(err.to_string().contains("does not precede"), "{err}");
        assert!(from_json(&base(r#"[{"send":0,"recv":1}]"#)).is_ok());
    }

    /// The byte decoder reads the writer's vocabulary in any layout and
    /// declines everything else; what it accepts equals the tree path.
    #[test]
    fn decoder_accepts_the_vocabulary_and_declines_the_rest() {
        let tree = |s: &str| parse_json(s).and_then(|v| read_event(&v));
        for (line, want) in [
            (r#"{"thread":0,"kind":"Begin","loc":0}"#, Some((0, EventKind::Begin, 0))),
            (
                " { \"loc\" :\t007 ,\r\n\"kind\":{ \"Read\" : {\"value\":-0,\"var\":4294967295}},\"thread\":-0 } ",
                Some((0, EventKind::Read { var: VarId(u32::MAX), value: Value(0) }, 7)),
            ),
            (
                r#"{"thread":1,"kind":{"Write":{"var":2,"value":-9223372036854775808}},"loc":3}"#,
                Some((1, EventKind::Write { var: VarId(2), value: Value(i64::MIN) }, 3)),
            ),
            (
                r#"{"thread":1,"kind":{"Write":{"var":2,"value":9223372036854775807}},"loc":3}"#,
                Some((1, EventKind::Write { var: VarId(2), value: Value(i64::MAX) }, 3)),
            ),
            (r#"{"thread":4294967296,"kind":"End","loc":0}"#, None),
            (r#"{"thread":-1,"kind":"End","loc":0}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2,"value":9223372036854775808}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2,"value":-9223372036854775809}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2,"value":12345678901234567890}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2,"value":-99999999999999999999}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"value":2}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2,"value":1.5}},"loc":3}"#, None),
            (r#"{"thread":0,"kind":{"Write":{"var":2,"value":1e3}},"loc":3}"#, None),
            (r#"{"\u0074hread":0,"kind":"End","loc":0}"#, None),
            (r#"{"thread":0,"kind":"\u0045nd","loc":0}"#, None),
            (r#"{"thread":0,"thread":1,"kind":"End","loc":0}"#, None),
            (r#"{"thread":0,"kind":"End","loc":0,"extra":1}"#, None),
            (r#"{"thread":0,"kind":"End"}"#, None),
            (r#"{"thread":0,"kind":{"Acquire":{"lock":1,"var":2}},"loc":0}"#, None),
            (r#"{"thread":0,"kind":{"Acquire":{"lock":1}},"loc":0} x"#, None),
            (r#"{"thread":0,"kind":{"Begin":{}},"loc":0}"#, None),
            (r#"{"thread":0,"kind":"Read","loc":0}"#, None),
            (r#"{"thread":0,"kind":"End","loc":null}"#, None),
            (r#"{"thread":0,"kind":"End","lóc":0}"#, None),
            (r#"{"thread":0,"kind":"End","loc":0,}"#, None),
        ] {
            let got = decode_event(line.as_bytes());
            let want = want.map(|(t, kind, l)| Event {
                thread: ThreadId(t),
                kind,
                loc: Loc(l),
            });
            assert_eq!(got, want, "{line}");
            if let Some(event) = got {
                assert_eq!(tree(line), Ok(event), "{line}");
            }
        }
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let mut b = TraceBuilder::new();
        let v = b.var("变量⟨α⟩");
        b.write(ThreadId::MAIN, v, 1);
        let t = b.finish();
        let back = from_json(&to_json(&t)).unwrap();
        assert_eq!(back.var_name(VarId(0)), Some("变量⟨α⟩"));
    }
}
