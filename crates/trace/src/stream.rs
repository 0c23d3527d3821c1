//! Chunked, resumable trace ingestion: the one trace reader.
//!
//! [`StreamParser`] decodes a trace incrementally from byte chunks — no
//! whole-document buffer, no whole-document [`JsonValue`] tree — in either
//! of two wire formats. Whole-file runs, standard input, `--stream`, the
//! daemon and [`from_json`](crate::from_json) all read through it.
//!
//! * **Whole-document JSON** (the [`to_json`](crate::to_json) format): the
//!   top-level object is scanned key by key and the `events` array is
//!   framed and decoded element by element, so only one event's JSON is
//!   ever materialized. Metadata fields are applied as they complete;
//!   since [`to_json`](crate::to_json) writes metadata *after* the event
//!   array, [`metadata_complete`](StreamParser::metadata_complete) only
//!   turns true near the end of the document for traces in that layout
//!   (reordered documents with metadata first complete earlier).
//! * **NDJSON** (the [`to_ndjson`](crate::to_ndjson) format): an optional
//!   header line carrying the metadata, then one event object per line.
//!   Metadata is complete after line one, which is what lets a streaming
//!   detector overlap window solving with the read.
//!
//! The format is auto-detected from the first JSON value's depth-1 keys
//! (`events` ⇒ whole-document; `thread`/`kind`/`loc` ⇒ NDJSON event;
//! a first value with neither ⇒ NDJSON header), or forced with
//! [`StreamParser::with_format`]. A header, like a whole document, must
//! carry every metadata field.
//!
//! Both formats decode each framed value with
//! [`parse_json`](crate::parse_json)'s parser and share the event and
//! metadata decoders, so a field decodes the same in either, and the first
//! occurrence of a repeated key wins in both. Framing is linear: a value
//! spanning many chunks is scanned once, resuming where the previous
//! [`feed`](StreamParser::feed) stopped. An error carries its byte offset
//! in the whole input; a document with several errors reports the first
//! by byte position. The error snippet is taken from the bytes still
//! buffered: up to 15 bytes before the offset, and after it what had
//! arrived when the error was found.
//!
//! # Examples
//!
//! ```
//! use rvtrace::{to_json, StreamParser, ThreadId, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.write(ThreadId::MAIN, x, 1);
//! let json = to_json(&b.finish());
//!
//! let mut p = StreamParser::new();
//! for chunk in json.as_bytes().chunks(7) {
//!     p.feed(chunk).unwrap();
//! }
//! p.finish().unwrap();
//! assert_eq!(p.events().len(), 1);
//! ```

use std::io::Read;
use std::ops::Range;
use std::time::Instant;

use crate::event::Event;
use crate::json::{
    apply_metadata_field, parse_span, read_event, shape, validate_wait_links, IngestStats,
    JsonError, JsonValue, METADATA_KEYS, SNIPPET_CONTEXT,
};
use crate::trace::{Trace, TraceData};

/// The wire formats [`StreamParser`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFormat {
    /// One whole-document JSON object (the [`to_json`](crate::to_json)
    /// format).
    Json,
    /// Newline-delimited JSON: an optional metadata header line, then one
    /// event object per line (the [`to_ndjson`](crate::to_ndjson)
    /// format). Blank lines are ignored.
    Ndjson,
}

/// Where the whole-document state machine stands.
#[derive(Debug)]
enum DocState {
    /// Expecting the opening `{`.
    Start,
    /// Expecting a key, or (when `brace_ok`) the closing `}`.
    Key { brace_ok: bool },
    /// Expecting the `:` after `key`.
    Colon { key: String },
    /// Expecting the value of `key`.
    Value { key: String },
    /// Inside the streamed `events` array.
    Events(EventsState),
    /// Expecting `,` (next key) or the closing `}`.
    AfterValue,
    /// Document closed; only trailing whitespace is allowed.
    Done,
    /// The top level is not an object: buffer it, and report its syntax
    /// or shape error at [`StreamParser::finish`].
    Fallback,
}

#[derive(Debug, Clone, Copy)]
enum EventsState {
    /// Expecting an element, or `]` (empty array).
    ElemOrEnd,
    /// Expecting an element (after a comma).
    Elem,
    /// Expecting `,` or `]`.
    CommaOrEnd,
}

/// Top-level keys already applied: the first occurrence of a key wins,
/// as in [`JsonValue::field`].
#[derive(Debug, Default)]
struct SeenKeys {
    events: bool,
    msg_links: bool,
    metadata: [bool; METADATA_KEYS.len()],
}

impl SeenKeys {
    /// Applies metadata field `key` to `data` unless it was seen before;
    /// unknown keys are ignored. `msg_links` is optional (absent in older
    /// documents): applied when present, never required.
    fn apply(&mut self, data: &mut TraceData, key: &str, v: &JsonValue) -> Result<(), JsonError> {
        let seen = match METADATA_KEYS.iter().position(|k| *k == key) {
            Some(idx) => &mut self.metadata[idx],
            None if key == "msg_links" => &mut self.msg_links,
            None => return Ok(()),
        };
        if !std::mem::replace(seen, true) {
            apply_metadata_field(data, key, v)?;
        }
        Ok(())
    }

    /// The first required metadata key not seen yet, as a shape error.
    fn check_metadata(&self) -> Result<(), JsonError> {
        match METADATA_KEYS
            .iter()
            .zip(self.metadata)
            .find(|(_, seen)| !seen)
        {
            Some((key, _)) => Err(shape(format!("missing field `{key}`"))),
            None => Ok(()),
        }
    }
}

/// Where the NDJSON machine stands.
#[derive(Debug, Clone, Copy)]
enum NdState {
    /// Before the first non-blank line (header or headerless first event).
    First,
    /// Every further non-blank line is an event.
    Events,
}

/// Incremental format detection: scan the first JSON value's depth-1 keys
/// without consuming anything.
#[derive(Debug, Default)]
struct AutoScan {
    /// Resume point in the buffer.
    pos: usize,
    /// Nesting depth (1 after the first `{`).
    depth: u32,
    started: bool,
    in_str: bool,
    esc: bool,
    /// At depth 1: the next string is an object key.
    expect_key: bool,
    /// Raw bytes of the depth-1 key being scanned.
    key: Vec<u8>,
}

/// Resume point of the value (or NDJSON line) being framed, so bytes
/// scanned before a `feed` ran out of input are not scanned again: framing
/// stays linear however many chunks one value spans. Offsets are absolute,
/// so they survive [`StreamParser::pump`]'s drain. The NDJSON newline
/// search uses only `next`.
#[derive(Debug)]
struct FrameScan {
    /// Where the frame starts (`usize::MAX`: no frame in progress).
    start: usize,
    /// First byte not yet scanned.
    next: usize,
    depth: u32,
    in_str: bool,
    esc: bool,
}

impl FrameScan {
    const IDLE: FrameScan = FrameScan {
        start: usize::MAX,
        next: 0,
        depth: 0,
        in_str: false,
        esc: false,
    };
}

#[derive(Debug)]
enum Mode {
    Auto(AutoScan),
    Json(DocState, SeenKeys),
    Ndjson(NdState),
}

enum Step {
    Progress,
    NeedMore,
}

/// A chunked, resumable trace parser: feed byte chunks as they arrive,
/// then [`finish`](StreamParser::finish). Events become visible through
/// [`events`](StreamParser::events) as soon as their bytes are complete;
/// [`metadata_complete`](StreamParser::metadata_complete) tells a
/// streaming driver when window construction may start. See the module
/// docs for formats and error parity.
#[derive(Debug)]
pub struct StreamParser {
    mode: Mode,
    /// Unconsumed input bytes; `buf[0]` sits at absolute offset `base`.
    buf: Vec<u8>,
    base: usize,
    /// Cursor into `buf`: bytes before it are consumed this pump and
    /// drained at the end of the pump loop.
    pos: usize,
    total: usize,
    frame: FrameScan,
    data: TraceData,
    metadata_complete: bool,
    parse_time: std::time::Duration,
    /// Bytes the framing loops have scanned (the linearity test's gauge).
    #[cfg(test)]
    framed: usize,
}

impl Default for StreamParser {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamParser {
    /// A parser that auto-detects the format from the first bytes.
    pub fn new() -> Self {
        StreamParser::with_mode(Mode::Auto(AutoScan::default()))
    }

    /// A parser for one specific format (no detection).
    pub fn with_format(format: StreamFormat) -> Self {
        StreamParser::with_mode(match format {
            StreamFormat::Json => Mode::Json(DocState::Start, SeenKeys::default()),
            StreamFormat::Ndjson => Mode::Ndjson(NdState::First),
        })
    }

    fn with_mode(mode: Mode) -> Self {
        StreamParser {
            mode,
            buf: Vec::new(),
            base: 0,
            pos: 0,
            total: 0,
            frame: FrameScan::IDLE,
            data: TraceData::default(),
            metadata_complete: false,
            parse_time: std::time::Duration::ZERO,
            #[cfg(test)]
            framed: 0,
        }
    }

    /// The detected (or forced) format, once known.
    pub fn format(&self) -> Option<StreamFormat> {
        match self.mode {
            Mode::Auto(_) => None,
            Mode::Json(..) => Some(StreamFormat::Json),
            Mode::Ndjson(_) => Some(StreamFormat::Ndjson),
        }
    }

    /// Every event decoded so far, in trace order.
    pub fn events(&self) -> &[Event] {
        &self.data.events
    }

    /// The decoded trace so far (events plus whatever metadata fields have
    /// completed).
    pub fn data(&self) -> &TraceData {
        &self.data
    }

    /// Consumes the parser. Call after [`finish`](StreamParser::finish).
    pub fn into_data(self) -> TraceData {
        self.data
    }

    /// True once every metadata field's bytes have been decoded (NDJSON:
    /// after the header line; whole-document: after all five metadata keys
    /// — or, for both, once [`finish`](StreamParser::finish) succeeded).
    /// From this point [`data`](StreamParser::data)'s non-event fields are
    /// final, so window boundary state built from them is valid.
    pub fn metadata_complete(&self) -> bool {
        self.metadata_complete
    }

    /// Total bytes fed so far.
    pub fn bytes_fed(&self) -> usize {
        self.total
    }

    /// Ingestion counters: bytes fed, events decoded, and the time spent
    /// inside [`feed`](StreamParser::feed)/[`finish`](StreamParser::finish).
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            bytes: self.total,
            events: self.data.events.len(),
            parse_time: self.parse_time,
        }
    }

    /// Feeds the next chunk of input. Events complete in this chunk are
    /// decoded immediately. A returned error is fatal to the parse.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), JsonError> {
        // A zero-length read is a true no-op: no new bytes means the state
        // machine cannot progress, and pumping anyway would re-drain the
        // snippet margin for nothing. (Callers looping over `Read::read`
        // may legitimately see transient zero-length chunks.)
        if chunk.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        self.total += chunk.len();
        self.buf.extend_from_slice(chunk);
        let r = self.pump(false);
        self.parse_time += t.elapsed();
        r
    }

    /// Signals end of input and completes the parse: processes any
    /// trailing bytes, then checks the document for completeness (the
    /// whole-document format's required keys; a truncated value fails
    /// with the value parser's error for the same fragment).
    pub fn finish(&mut self) -> Result<(), JsonError> {
        let t = Instant::now();
        let r = self.pump(true).and_then(|()| self.check_complete());
        self.parse_time += t.elapsed();
        if r.is_ok() {
            self.metadata_complete = true;
        }
        r
    }

    // ---------------------------------------------------------- plumbing

    fn err_at(&self, local: usize, message: impl Into<String>) -> JsonError {
        // Snippet from the bytes still buffered. `pump` retains at least
        // `SNIPPET_CONTEXT` consumed bytes, so errors at or past the
        // cursor get the full window before the offset (same width and
        // char-boundary clamping as `parse_json`'s snippets).
        let at = local.min(self.buf.len());
        let mut start = at.saturating_sub(SNIPPET_CONTEXT);
        while start > 0 && self.buf[start] & 0xC0 == 0x80 {
            start -= 1;
        }
        let mut end = (at + SNIPPET_CONTEXT).min(self.buf.len());
        while end < self.buf.len() && self.buf[end] & 0xC0 == 0x80 {
            end += 1;
        }
        JsonError {
            message: message.into(),
            offset: self.base + local,
            snippet: String::from_utf8_lossy(&self.buf[start..end]).into_owned(),
        }
    }

    fn span_str(&self, range: Range<usize>) -> Result<&str, JsonError> {
        std::str::from_utf8(&self.buf[range.clone()])
            .map_err(|_| self.err_at(range.start, "invalid utf8"))
    }

    /// Parses the framed value at `buf[range]` with whole-input offsets.
    /// A parse error's snippet is rebuilt from the full buffer: the span
    /// alone cannot show context before the value, but the snippet window
    /// reaches across the frame boundary.
    fn parse_framed(&self, range: Range<usize>) -> Result<JsonValue, JsonError> {
        let abs = self.base + range.start;
        parse_span(self.span_str(range)?, abs)
            .map_err(|e| self.err_at(e.offset - self.base, e.message))
    }

    fn pump(&mut self, at_eof: bool) -> Result<(), JsonError> {
        let r = loop {
            let step = match self.mode {
                Mode::Auto(_) => self.step_auto(at_eof),
                Mode::Json(..) => self.step_doc(at_eof),
                Mode::Ndjson(_) => self.step_nd(at_eof),
            };
            match step {
                Ok(Step::Progress) => continue,
                Ok(Step::NeedMore) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // Drain consumed bytes, but keep a snippet-sized tail of them so
        // later errors can show context from before the failure point.
        let keep = self.pos.min(SNIPPET_CONTEXT);
        let mut cut = self.pos - keep;
        // Never cut mid-code-point: if the margin started with a UTF-8
        // continuation byte, `err_at`'s boundary clamp would stop dead at
        // the buffer start and lossy-decode a replacement character the
        // input does not have.
        while cut > 0 && self.buf[cut] & 0xC0 == 0x80 {
            cut -= 1;
        }
        if cut > 0 {
            self.buf.drain(..cut);
            self.base += cut;
            // Backing up over continuation bytes can retain a few more
            // than `keep` bytes — the cursor offset must match.
            self.pos -= cut;
        }
        r
    }

    /// Position of the first non-whitespace byte at or after the cursor.
    fn skip_ws(&self) -> usize {
        let mut i = self.pos;
        while let Some(&b) = self.buf.get(i) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            } else {
                break;
            }
        }
        i
    }

    /// Local index at which to resume scanning the frame that starts at
    /// local `start`: where the last scan of the same frame stopped, or
    /// `start` itself (with fresh state) for a new frame.
    fn resume(&mut self, start: usize) -> usize {
        let abs = self.base + start;
        if self.frame.start != abs {
            self.frame = FrameScan {
                start: abs,
                next: abs,
                ..FrameScan::IDLE
            };
        }
        self.frame.next - self.base
    }

    /// Frames one JSON value starting at `start` (a non-ws byte). Returns
    /// the exclusive end, or `None` when more input is needed; a later
    /// call for the same `start` resumes where this one stopped. An empty
    /// frame (a delimiter where a value must start) is reported as the
    /// value parser's `unexpected byte`; a frame still open at end of
    /// input fails with the value parser's error for the truncated
    /// fragment (`unterminated string`, `unexpected end of input`, …) at
    /// the input's true end.
    fn frame_value(&mut self, start: usize, at_eof: bool) -> Result<Option<usize>, JsonError> {
        let first = self.buf[start];
        if let delim @ (b',' | b']' | b'}' | b':') = first {
            return Err(self.err_at(start, format!("unexpected byte `{}`", delim as char)));
        }
        // Literals and numbers run to the next delimiter (which, at end of
        // input, only EOF can confirm); strings and containers to the
        // quote or bracket that closes them.
        let literal = !matches!(first, b'{' | b'[' | b'"');
        let from = self.resume(start);
        let scan = &mut self.frame;
        let mut end = None;
        for (i, &b) in self.buf[from..].iter().enumerate() {
            if literal {
                if matches!(b, b',' | b']' | b'}' | b' ' | b'\t' | b'\n' | b'\r') {
                    end = Some(from + i);
                    break;
                }
            } else if scan.in_str {
                if scan.esc {
                    scan.esc = false;
                } else if b == b'\\' {
                    scan.esc = true;
                } else if b == b'"' {
                    scan.in_str = false;
                    if scan.depth == 0 {
                        end = Some(from + i + 1);
                        break;
                    }
                }
            } else {
                match b {
                    b'"' => scan.in_str = true,
                    b'{' | b'[' => scan.depth += 1,
                    b'}' | b']' => {
                        scan.depth -= 1;
                        if scan.depth == 0 {
                            end = Some(from + i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        #[cfg(test)]
        {
            self.framed += end.unwrap_or(self.buf.len()) - from;
        }
        if end.is_some() {
            self.frame = FrameScan::IDLE;
            return Ok(end);
        }
        self.frame.next = self.base + self.buf.len();
        if !at_eof {
            Ok(None)
        } else if literal {
            Ok(Some(self.buf.len()))
        } else {
            Err(match self.parse_framed(start..self.buf.len()) {
                Err(e) => e,
                // A truncated frame cannot parse; keep a safe fallback.
                Ok(_) => self.err_at(self.buf.len(), "unexpected end of input"),
            })
        }
    }

    fn check_complete(&mut self) -> Result<(), JsonError> {
        if matches!(self.mode, Mode::Json(DocState::Fallback, _)) {
            // Top level wasn't an object, so this is not a trace. The value
            // is still buffered: report its first syntax error, else its
            // shape.
            let v = self.parse_framed(0..self.buf.len())?;
            return Err(shape(format!("expected object, found {v:?}")));
        }
        match &self.mode {
            // Empty/whitespace-only input never decided a format: report
            // end-of-input at the document start.
            Mode::Auto(_) => Err(self.err_at(self.buf.len(), "unexpected end of input")),
            Mode::Json(DocState::Done, seen) => {
                if !seen.events {
                    return Err(shape("missing field `events`"));
                }
                seen.check_metadata()
            }
            Mode::Json(..) => Err(self.err_at(self.buf.len(), "unexpected end of input")),
            Mode::Ndjson(_) => Ok(()),
        }
    }

    // ------------------------------------------------------ format: auto

    fn step_auto(&mut self, at_eof: bool) -> Result<Step, JsonError> {
        let Mode::Auto(scan) = &mut self.mode else {
            unreachable!()
        };
        if !scan.started {
            let mut i = scan.pos;
            while matches!(self.buf.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                i += 1;
            }
            scan.pos = i;
            match self.buf.get(i) {
                // Nothing but whitespace so far; if this is EOF,
                // `check_complete`'s Auto arm reports it.
                None => return Ok(Step::NeedMore),
                Some(b'{') => {
                    scan.started = true;
                    scan.depth = 1;
                    scan.expect_key = true;
                    scan.pos = i + 1;
                }
                // Not an object: the whole-document machine reports the
                // (syntax or shape) error.
                Some(_) => return Ok(self.decide(StreamFormat::Json)),
            }
        }
        let Mode::Auto(scan) = &mut self.mode else {
            unreachable!()
        };
        let mut decision = None;
        while let Some(&b) = self.buf.get(scan.pos) {
            scan.pos += 1;
            if scan.in_str {
                if scan.esc {
                    scan.esc = false;
                } else if b == b'\\' {
                    scan.esc = true;
                } else if b == b'"' {
                    scan.in_str = false;
                    if scan.depth == 1 && scan.expect_key {
                        decision = match scan.key.as_slice() {
                            b"events" => Some(StreamFormat::Json),
                            b"thread" | b"kind" | b"loc" => Some(StreamFormat::Ndjson),
                            _ => None,
                        };
                        if decision.is_some() {
                            break;
                        }
                    }
                } else if scan.depth == 1 && scan.expect_key {
                    scan.key.push(b);
                }
                continue;
            }
            match b {
                b'"' => {
                    scan.in_str = true;
                    if scan.depth == 1 && scan.expect_key {
                        scan.key.clear();
                    }
                }
                b'{' | b'[' => scan.depth += 1,
                b'}' | b']' => {
                    scan.depth = scan.depth.saturating_sub(1);
                    if scan.depth == 0 {
                        // First value closed without a deciding key: a
                        // metadata-only object is an NDJSON header.
                        decision = Some(StreamFormat::Ndjson);
                        break;
                    }
                }
                b':' if scan.depth == 1 => scan.expect_key = false,
                b',' if scan.depth == 1 => scan.expect_key = true,
                _ => {}
            }
        }
        if let Some(format) = decision {
            return Ok(self.decide(format));
        }
        if at_eof {
            // Truncated before the first value decided anything; the
            // whole-document machine reports the truncation.
            return Ok(self.decide(StreamFormat::Json));
        }
        Ok(Step::NeedMore)
    }

    /// Locks in a format and replays the (fully buffered) input on it.
    fn decide(&mut self, format: StreamFormat) -> Step {
        debug_assert_eq!(self.pos, 0, "auto mode never consumes");
        self.mode = match format {
            StreamFormat::Json => Mode::Json(DocState::Start, SeenKeys::default()),
            StreamFormat::Ndjson => Mode::Ndjson(NdState::First),
        };
        Step::Progress
    }

    // -------------------------------------------- format: whole-document

    fn doc_state(&mut self) -> &mut DocState {
        let Mode::Json(state, _) = &mut self.mode else {
            unreachable!()
        };
        state
    }

    fn step_doc(&mut self, at_eof: bool) -> Result<Step, JsonError> {
        // Whitespace between tokens is consumed as soon as it is seen, so
        // a run of it spanning many chunks is scanned once.
        let i = self.skip_ws();
        self.pos = i;
        let state = std::mem::replace(self.doc_state(), DocState::Start);
        let Some(&byte) = self.buf.get(i) else {
            *self.doc_state() = state;
            return Ok(Step::NeedMore);
        };
        match state {
            DocState::Start => {
                if byte == b'{' {
                    self.pos = i + 1;
                    *self.doc_state() = DocState::Key { brace_ok: true };
                } else {
                    *self.doc_state() = DocState::Fallback;
                }
                Ok(Step::Progress)
            }
            DocState::Fallback => {
                *self.doc_state() = DocState::Fallback;
                Ok(Step::NeedMore)
            }
            DocState::Key { brace_ok } => {
                if byte == b'}' && brace_ok {
                    self.pos = i + 1;
                    *self.doc_state() = DocState::Done;
                    return Ok(Step::Progress);
                }
                if byte != b'"' {
                    return Err(self.err_at(i, "expected `\"`"));
                }
                let Some(end) = self.frame_value(i, at_eof)? else {
                    *self.doc_state() = DocState::Key { brace_ok };
                    return Ok(Step::NeedMore);
                };
                let key = match self.parse_framed(i..end)? {
                    JsonValue::Str(s) => s,
                    _ => unreachable!("a framed string parses to a string"),
                };
                self.pos = end;
                *self.doc_state() = DocState::Colon { key };
                Ok(Step::Progress)
            }
            DocState::Colon { key } => {
                if byte != b':' {
                    return Err(self.err_at(i, "expected `:`"));
                }
                self.pos = i + 1;
                *self.doc_state() = DocState::Value { key };
                Ok(Step::Progress)
            }
            DocState::Value { key } => {
                let events_pending = key == "events" && {
                    let Mode::Json(_, seen) = &self.mode else {
                        unreachable!()
                    };
                    !seen.events
                };
                if events_pending {
                    if byte != b'[' {
                        // Not an array: parse the value, then reject its
                        // shape.
                        let Some(end) = self.frame_value(i, at_eof)? else {
                            *self.doc_state() = DocState::Value { key };
                            return Ok(Step::NeedMore);
                        };
                        let v = self.parse_framed(i..end)?;
                        return Err(shape(format!("expected array, found {v:?}")));
                    }
                    let Mode::Json(_, seen) = &mut self.mode else {
                        unreachable!()
                    };
                    seen.events = true;
                    self.pos = i + 1;
                    *self.doc_state() = DocState::Events(EventsState::ElemOrEnd);
                    return Ok(Step::Progress);
                }
                let Some(end) = self.frame_value(i, at_eof)? else {
                    *self.doc_state() = DocState::Value { key };
                    return Ok(Step::NeedMore);
                };
                let v = self.parse_framed(i..end)?;
                self.apply_doc_field(&key, &v)?;
                self.pos = end;
                *self.doc_state() = DocState::AfterValue;
                Ok(Step::Progress)
            }
            DocState::Events(es) => match (es, byte) {
                (EventsState::ElemOrEnd | EventsState::CommaOrEnd, b']') => {
                    self.pos = i + 1;
                    *self.doc_state() = DocState::AfterValue;
                    Ok(Step::Progress)
                }
                (EventsState::CommaOrEnd, b',') => {
                    self.pos = i + 1;
                    *self.doc_state() = DocState::Events(EventsState::Elem);
                    Ok(Step::Progress)
                }
                (EventsState::CommaOrEnd, _) => Err(self.err_at(i, "expected `,` or `]`")),
                (EventsState::ElemOrEnd | EventsState::Elem, _) => {
                    let Some(end) = self.frame_value(i, at_eof)? else {
                        *self.doc_state() = DocState::Events(es);
                        return Ok(Step::NeedMore);
                    };
                    let v = self.parse_framed(i..end)?;
                    self.data.events.push(read_event(&v)?);
                    self.pos = end;
                    *self.doc_state() = DocState::Events(EventsState::CommaOrEnd);
                    Ok(Step::Progress)
                }
            },
            DocState::AfterValue => match byte {
                b',' => {
                    self.pos = i + 1;
                    *self.doc_state() = DocState::Key { brace_ok: false };
                    Ok(Step::Progress)
                }
                b'}' => {
                    self.pos = i + 1;
                    *self.doc_state() = DocState::Done;
                    Ok(Step::Progress)
                }
                _ => Err(self.err_at(i, "expected `,` or `}`")),
            },
            DocState::Done => Err(self.err_at(i, "trailing characters after JSON value")),
        }
    }

    /// Applies a completed top-level field (first occurrence wins, like
    /// [`JsonValue::field`]; unknown keys are syntax-checked and ignored).
    fn apply_doc_field(&mut self, key: &str, v: &JsonValue) -> Result<(), JsonError> {
        let Mode::Json(_, seen) = &mut self.mode else {
            unreachable!()
        };
        seen.apply(&mut self.data, key, v)?;
        if seen.check_metadata().is_ok() {
            self.metadata_complete = true;
        }
        Ok(())
    }

    // ---------------------------------------------------- format: ndjson

    fn step_nd(&mut self, at_eof: bool) -> Result<Step, JsonError> {
        let start = self.pos;
        // Resume the newline search where the last `feed` ran out of input
        // (a stale resume point lies before the cursor).
        let from = self.frame.next.saturating_sub(self.base).max(start);
        let nl = self.buf[from..].iter().position(|&b| b == b'\n');
        #[cfg(test)]
        {
            self.framed += nl.map_or(self.buf.len() - from, |n| n + 1);
        }
        match nl {
            Some(n) => {
                let end = from + n;
                self.nd_line(start..end)?;
                self.pos = end + 1;
                Ok(Step::Progress)
            }
            None if at_eof && start < self.buf.len() => {
                // Trailing line without a newline.
                let end = self.buf.len();
                self.nd_line(start..end)?;
                self.pos = end;
                Ok(Step::Progress)
            }
            None => {
                self.frame.next = self.base + self.buf.len();
                Ok(Step::NeedMore)
            }
        }
    }

    fn nd_line(&mut self, range: Range<usize>) -> Result<(), JsonError> {
        if self.buf[range.clone()]
            .iter()
            .all(|b| matches!(b, b' ' | b'\t' | b'\r'))
        {
            return Ok(());
        }
        let v = self.parse_framed(range)?;
        let first = matches!(self.mode, Mode::Ndjson(NdState::First));
        if first {
            self.mode = Mode::Ndjson(NdState::Events);
            if v.get("thread").is_some() {
                // Headerless stream: the first line is already an event,
                // and there is no metadata to wait for.
                self.metadata_complete = true;
                self.data.events.push(read_event(&v)?);
            } else {
                // A header obeys the whole-document rules: first occurrence
                // of a key wins, and every metadata field is required (an
                // object without them, e.g. `{}`, is not a trace).
                let mut seen = SeenKeys::default();
                for (k, val) in v.as_object()? {
                    seen.apply(&mut self.data, k, val)?;
                }
                seen.check_metadata()?;
                self.metadata_complete = true;
            }
        } else {
            self.data.events.push(read_event(&v)?);
        }
        Ok(())
    }
}

fn read_error(total: usize, e: std::io::Error) -> JsonError {
    JsonError {
        message: format!("read error: {e}"),
        offset: total,
        snippet: String::new(),
    }
}

/// Reads a complete trace from `reader` in chunks (format auto-detected),
/// without cross-field validation, for lenient ingestion: pair with
/// [`salvage_trace`](crate::salvage_trace), which drops (and counts)
/// inconsistent events and dangling wait links instead of failing.
pub fn read_trace_data<R: Read>(mut reader: R) -> Result<(TraceData, IngestStats), JsonError> {
    let mut parser = StreamParser::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let n = reader
            .read(&mut chunk)
            .map_err(|e| read_error(parser.bytes_fed(), e))?;
        if n == 0 {
            break;
        }
        parser.feed(&chunk[..n])?;
    }
    parser.finish()?;
    let stats = parser.stats();
    Ok((parser.into_data(), stats))
}

/// Reads and validates a complete trace from `reader` in chunks (format
/// auto-detected): [`read_trace_data`], then [`validate_wait_links`].
/// [`from_json`](crate::from_json) is this over an in-memory document.
pub fn read_trace<R: Read>(reader: R) -> Result<(Trace, IngestStats), JsonError> {
    let (data, stats) = read_trace_data(reader)?;
    validate_wait_links(&data)?;
    Ok((Trace::from_data(data), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::event::{Event, EventKind, Loc, ThreadId, Value, VarId};
    use crate::json::{dom_reference, to_json, to_ndjson};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.volatile_var("γ—y");
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

    fn feed_all(input: &[u8], chunk: usize) -> Result<TraceData, JsonError> {
        let mut p = StreamParser::new();
        for c in input.chunks(chunk.max(1)) {
            p.feed(c)?;
        }
        p.finish()?;
        Ok(p.into_data())
    }

    #[test]
    fn doc_format_streams_to_identical_data_at_any_chunk_size() {
        let t = sample();
        let json = to_json(&t);
        let whole = dom_reference(&json).unwrap();
        for chunk in [1, 2, 3, 7, 16, 64, json.len()] {
            let streamed = feed_all(json.as_bytes(), chunk).unwrap();
            assert_eq!(streamed, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn ndjson_format_streams_to_identical_data_at_any_chunk_size() {
        let t = sample();
        let nd = to_ndjson(&t);
        for chunk in [1, 2, 3, 7, 16, 64, nd.len()] {
            let streamed = feed_all(nd.as_bytes(), chunk).unwrap();
            assert_eq!(&streamed, t.data(), "chunk={chunk}");
        }
    }

    #[test]
    fn ndjson_metadata_completes_at_the_header() {
        let t = sample();
        let nd = to_ndjson(&t);
        let header_end = nd.find('\n').unwrap() + 1;
        let mut p = StreamParser::new();
        p.feed(&nd.as_bytes()[..header_end]).unwrap();
        assert!(p.metadata_complete(), "header line decodes the metadata");
        assert_eq!(p.format(), Some(StreamFormat::Ndjson));
        p.feed(&nd.as_bytes()[header_end..]).unwrap();
        p.finish().unwrap();
        assert_eq!(p.events(), t.events());
    }

    #[test]
    fn doc_metadata_completes_only_after_all_fields() {
        let t = sample();
        let json = to_json(&t);
        let mut p = StreamParser::new();
        // Everything but the last byte (the closing `}`): var_names, the
        // last metadata field, completed just before it.
        p.feed(&json.as_bytes()[..json.len() - 1]).unwrap();
        assert_eq!(p.format(), Some(StreamFormat::Json));
        assert!(p.metadata_complete());
        assert_eq!(p.events().len(), t.len(), "events decoded incrementally");
        p.feed(&json.as_bytes()[json.len() - 1..]).unwrap();
        p.finish().unwrap();
    }

    // Satellite: NDJSON edge cases — blank lines, no trailing newline.
    #[test]
    fn ndjson_tolerates_blank_lines_and_missing_trailing_newline() {
        let t = sample();
        let nd = to_ndjson(&t);
        let mut messy = String::from("\n  \n");
        for line in nd.lines() {
            messy.push_str(line);
            messy.push_str("\n\n");
        }
        messy.pop(); // drop the trailing newlines entirely
        messy.pop();
        let streamed = feed_all(messy.as_bytes(), 5).unwrap();
        assert_eq!(&streamed, t.data());
    }

    #[test]
    fn headerless_ndjson_is_a_trace_with_default_metadata() {
        let input = "{\"thread\":0,\"kind\":{\"Write\":{\"var\":0,\"value\":1}},\"loc\":0}\n\
                     {\"thread\":0,\"kind\":{\"Read\":{\"var\":0,\"value\":1}},\"loc\":1}\n";
        let mut p = StreamParser::new();
        p.feed(input.as_bytes()).unwrap();
        assert_eq!(p.format(), Some(StreamFormat::Ndjson));
        assert!(p.metadata_complete());
        p.finish().unwrap();
        assert_eq!(p.events().len(), 2);
        assert!(p.data().initial_values.is_empty());
    }

    #[test]
    fn empty_ndjson_is_an_empty_trace() {
        let mut p = StreamParser::with_format(StreamFormat::Ndjson);
        p.feed(b"").unwrap();
        p.finish().unwrap();
        assert!(p.events().is_empty());
    }

    #[test]
    fn empty_input_fails_like_the_whole_file_parser() {
        let mut p = StreamParser::new();
        let err = p.finish().unwrap_err();
        let whole = dom_reference("").unwrap_err();
        assert_eq!(err.message, whole.message);
        assert_eq!(err.offset, whole.offset);
    }

    /// Whole-file and streamed errors render identically — message, byte
    /// offset AND context snippet — for every truncation point of a real
    /// document, whether the prefix arrives in one chunk or byte by byte
    /// (which maximally exercises the buffer drain between feeds).
    #[test]
    fn truncation_errors_match_whole_file_at_every_cut() {
        let t = sample();
        let json = to_json(&t);
        for cut in (1..json.len()).filter(|&cut| json.is_char_boundary(cut)) {
            let part = &json[..cut];
            let whole = dom_reference(part).unwrap_err();
            let mut p = StreamParser::with_format(StreamFormat::Json);
            let streamed = p
                .feed(part.as_bytes())
                .and_then(|()| p.finish())
                .unwrap_err();
            assert_eq!(streamed.to_string(), whole.to_string(), "cut={cut}");
            let mut p = StreamParser::with_format(StreamFormat::Json);
            let trickled = part
                .as_bytes()
                .iter()
                .try_for_each(|b| p.feed(std::slice::from_ref(b)))
                .and_then(|()| p.finish())
                .unwrap_err();
            assert_eq!(trickled.to_string(), whole.to_string(), "cut={cut}");
        }
    }

    /// `pump`'s drain keeps a snippet margin that never starts mid-code-
    /// point: truncated anywhere in a unicode-dense metadata tail and fed
    /// in small chunks, every error matches the reference reader's byte for
    /// byte (a split margin lossy-decodes a replacement character the input
    /// does not have). Names padded by 0–3 bytes shift where the margin
    /// starts, so some drains land inside a code point.
    #[test]
    fn snippet_margin_never_splits_code_points() {
        let mut compared = 0;
        for pad in 0..4 {
            let mut b = TraceBuilder::new();
            for i in 0..8 {
                let name = format!("{i}αβγ—δ🧵ε{}", "x".repeat(pad));
                let v = b.var(&name);
                let loc = b.loc(&name);
                b.write_at(ThreadId::MAIN, v, i, loc);
            }
            let json = to_json(&b.finish());
            let anchor = json.find("loc_names").unwrap();
            for cut in (anchor..json.len()).filter(|&cut| json.is_char_boundary(cut)) {
                let part = &json[..cut];
                let whole = dom_reference(part).unwrap_err();
                for chunk in [1, 3, 16] {
                    let streamed = feed_all(part.as_bytes(), chunk).unwrap_err();
                    assert_eq!(streamed, whole, "pad={pad} cut={cut} chunk={chunk}");
                }
                compared += 1;
            }
        }
        assert!(
            compared >= 120,
            "the sweep must cover real cuts: {compared}"
        );
    }

    #[test]
    fn malformed_documents_match_whole_file_errors() {
        for input in [
            "{}",
            "{\"events\": 5}",
            "{\"events\": 1.5}",
            "{\"events\":[{\"thread\":0,\"kind\":\"Nope\",\"loc\":0}]}",
            "{\"events\":[],\"initial_values\":{}}",
            "{\"events\":[]} trailing",
            "{\"events\":[],,}",
            "{,}",
            "[1,2,3] trailing",
            "not json",
            "{\"events\":[1,2]}",
            "{\"events\":[{\"thread\":0}]}",
            "[1,2]",
            "[1,2] x",
            "  \"a string\"  ",
        ] {
            let whole = dom_reference(input).unwrap_err();
            for chunk in [1, input.len()] {
                let mut p = StreamParser::with_format(StreamFormat::Json);
                let streamed = input
                    .as_bytes()
                    .chunks(chunk)
                    .try_for_each(|c| p.feed(c))
                    .and_then(|()| p.finish())
                    .unwrap_err();
                assert_eq!(
                    (&streamed.message, streamed.offset),
                    (&whole.message, whole.offset),
                    "input={input}"
                );
                // The snippet shows only bytes already fed: whole when the
                // input arrives in one chunk.
                if chunk == input.len() {
                    assert_eq!(streamed.snippet, whole.snippet, "input={input}");
                }
            }
        }
    }

    /// An NDJSON header, like a whole document, must carry every metadata
    /// field: an object without them is not a trace.
    #[test]
    fn ndjson_header_requires_every_metadata_field() {
        for (header, missing) in [
            ("{}", "initial_values"),
            ("{\"future_field\":1,\"volatiles\":[]}", "initial_values"),
            (
                "{\"initial_values\":{},\"volatiles\":[],\"wait_links\":[],\"loc_names\":{}}",
                "var_names",
            ),
        ] {
            let input = format!("{header}\n{{\"thread\":0,\"kind\":\"Branch\",\"loc\":0}}\n");
            for mut p in [
                StreamParser::new(),
                StreamParser::with_format(StreamFormat::Ndjson),
            ] {
                let err = p
                    .feed(input.as_bytes())
                    .and_then(|()| p.finish())
                    .unwrap_err();
                assert_eq!(
                    err.message,
                    format!("missing field `{missing}`"),
                    "{header}"
                );
            }
        }
    }

    #[test]
    fn ndjson_syntax_error_carries_line_accurate_offset() {
        let good = "{\"thread\":0,\"kind\":\"Branch\",\"loc\":0}\n";
        let bad = "{\"thread\":0,\"kind\":\"Branch\",\"loc\":0.5}\n";
        let input = format!("{good}{good}{bad}");
        let mut p = StreamParser::new();
        let err = p
            .feed(input.as_bytes())
            .and_then(|()| p.finish())
            .unwrap_err();
        assert!(err.message.contains("floating-point"), "{err}");
        // The offset points into the third line, at the `.`.
        assert_eq!(err.offset, 2 * good.len() + bad.find('.').unwrap());
    }

    #[test]
    fn duplicate_and_unknown_fields_first_occurrence_wins() {
        let input = r#"{"events":[],"initial_values":{"0":5},
            "initial_values":{"0":9},"wait_links":[],"volatiles":[],
            "future_field":{"x":[1,2]},"loc_names":{},"var_names":{}}"#;
        let whole = dom_reference(input).unwrap();
        let streamed = feed_all(input.as_bytes(), 9).unwrap();
        assert_eq!(streamed, whole);
        assert_eq!(streamed.initial_values[&VarId(0)], Value(5));

        // A repeated optional key: the first (empty) list wins.
        let input = r#"{"events":[],"initial_values":{},"volatiles":[],"wait_links":[],
            "msg_links":[],"msg_links":[{"send":0,"recv":1}],"loc_names":{},"var_names":{}}"#;
        let whole = dom_reference(input).unwrap();
        assert!(whole.msg_links.is_empty());
        assert_eq!(feed_all(input.as_bytes(), 9).unwrap(), whole);

        // The same rule holds in an NDJSON header line.
        let fields = r#""initial_values":{},"volatiles":[0],"volatiles":[0],"wait_links":[],
            "loc_names":{},"var_names":{}"#;
        let whole = dom_reference(&format!("{{\"events\":[],{fields}}}")).unwrap();
        assert_eq!(whole.volatiles, [VarId(0)]);
        let header = format!("{{{}}}\n", fields.replace('\n', ""));
        assert_eq!(feed_all(header.as_bytes(), 9).unwrap(), whole);
    }

    /// Framing resumes where the previous `feed` stopped, so a value that
    /// spans many chunks is scanned once, not once per chunk. Fed byte by
    /// byte, a ≥ 256 KiB `loc_names` value — and the same metadata as one
    /// NDJSON header line — keeps the framing loops within twice the input
    /// at every step.
    #[test]
    fn framing_is_linear_in_the_input() {
        let mut data = TraceData::default();
        data.events.push(Event {
            thread: ThreadId::MAIN,
            kind: EventKind::Branch,
            loc: Loc(0),
        });
        for i in 0..12_000 {
            data.loc_names.insert(Loc(i), format!("Main.java:{i}"));
        }
        let t = Trace::from_data(data);
        // The NDJSON format is forced: auto-detection would scan the
        // header line before the line framer sees it.
        for (input, mut p) in [
            (to_json(&t), StreamParser::new()),
            (
                to_ndjson(&t),
                StreamParser::with_format(StreamFormat::Ndjson),
            ),
        ] {
            assert!(input.len() >= 256 * 1024, "{} bytes", input.len());
            for (n, byte) in input.as_bytes().iter().enumerate() {
                p.feed(std::slice::from_ref(byte)).unwrap();
                assert!(
                    p.framed <= 2 * (n + 1),
                    "{} bytes scanned to frame {} bytes",
                    p.framed,
                    n + 1
                );
            }
            p.finish().unwrap();
            assert_eq!(p.data(), t.data());
        }
    }

    #[test]
    fn reordered_metadata_first_document_completes_metadata_early() {
        let t = sample();
        let json = to_json(&t);
        // Move the events array to the end: metadata then completes while
        // events are still streaming in.
        let bracket = json.find("],").unwrap(); // `]` closing the events array
        let reordered = format!(
            "{{{},{}}}",
            &json[bracket + 2..json.len() - 1],
            &json[1..bracket + 1],
        );
        let mut p = StreamParser::new();
        let half = reordered.len() - 40;
        p.feed(&reordered.as_bytes()[..half]).unwrap();
        assert!(p.metadata_complete(), "metadata came first");
        p.feed(&reordered.as_bytes()[half..]).unwrap();
        p.finish().unwrap();
        assert_eq!(p.data(), &dom_reference(&reordered).unwrap());
        assert_eq!(p.data().events, t.events());
    }

    #[test]
    fn read_trace_matches_from_json_and_validates_wait_links() {
        let t = sample();
        let json = to_json(&t);
        let (trace, stats) = read_trace(json.as_bytes()).unwrap();
        assert_eq!(trace.events(), t.events());
        assert_eq!(trace.data().loc_names, t.data().loc_names);
        assert_eq!(stats.bytes, json.len());
        assert_eq!(stats.events, t.len());

        let bad = r#"{"events":[{"thread":0,"kind":"Branch","loc":0}],
            "initial_values":{},"volatiles":[],
            "wait_links":[{"release":0,"acquire":99,"notify":null}],
            "loc_names":{},"var_names":{}}"#;
        let err = read_trace(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // The data-level reader accepts it (salvage handles the link).
        assert!(read_trace_data(bad.as_bytes()).is_ok());
    }

    #[test]
    fn ndjson_roundtrip_through_reader() {
        let t = sample();
        let (back, _) = read_trace(to_ndjson(&t).as_bytes()).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.data(), t.data());
    }
}
