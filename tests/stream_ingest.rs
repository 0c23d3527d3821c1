//! Edge cases of streaming ingestion, end to end through the CLI: traces
//! whose shape stresses the window dispatcher (empty, shorter than one
//! window, an exact multiple of the window size), NDJSON formatting slack
//! (blank lines, missing trailing newline), and malformed input — which
//! must surface the *same* `JsonError` text and byte offset in whole-file
//! and streamed runs.

use std::path::PathBuf;
use std::process::{Command, Output};

use rvpredict::{ThreadId, Trace, TraceBuilder};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rvpredict")
}

fn fixture(name: &str, contents: impl AsRef<[u8]>) -> PathBuf {
    let dir = std::env::temp_dir().join("rvpredict-stream-ingest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A trace of exactly `n` events: a racy head plus single-thread filler.
fn trace_of_len(n: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let t2 = b.fork(ThreadId::MAIN);
    b.write(ThreadId::MAIN, x, 1);
    b.write(t2, x, 2);
    let a = b.var("a");
    assert!(b.len() <= n, "head alone is {} events", b.len());
    while b.len() < n {
        b.write(ThreadId::MAIN, a, b.len() as i64);
    }
    let t = b.finish();
    assert_eq!(t.len(), n);
    t
}

#[test]
fn empty_trace_streams_to_a_clean_zero_race_run() {
    let t = TraceBuilder::new().finish();
    let path = fixture("empty.json", rvpredict::to_json(&t));
    for mode in [&[][..], &["--stream"][..]] {
        let out = run(&[mode, &[path.to_str().unwrap()]].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "mode={mode:?}: {}",
            stderr(&out)
        );
        assert!(
            stdout(&out).contains("0 race(s); 0 window(s)"),
            "mode={mode:?}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn trace_shorter_than_one_window_is_a_single_partial_window() {
    let t = trace_of_len(40);
    let path = fixture("short.json", rvpredict::to_json(&t));
    // Default window is 10000: the whole trace is one partial window that
    // is only dispatched at end of input.
    for mode in [&[][..], &["--stream"][..]] {
        let out = run(&[mode, &[path.to_str().unwrap()]].concat());
        assert_eq!(out.status.code(), Some(1), "mode={mode:?}");
        assert!(
            stdout(&out).contains("1 race(s); 1 window(s)"),
            "mode={mode:?}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn trace_length_an_exact_multiple_of_the_window_divides_cleanly() {
    let t = trace_of_len(600);
    let path = fixture("exact.json", rvpredict::to_json(&t));
    for mode in [&[][..], &["--stream"][..]] {
        let out = run(&[mode, &["--window", "300", path.to_str().unwrap()]].concat());
        assert_eq!(out.status.code(), Some(1), "mode={mode:?}");
        assert!(
            stdout(&out).contains("1 race(s); 2 window(s)"),
            "mode={mode:?}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn ndjson_with_blank_lines_and_no_trailing_newline_parses() {
    let t = trace_of_len(40);
    let nd = rvpredict::to_ndjson(&t);
    let mut messy = String::from("\n   \n");
    for line in nd.lines() {
        messy.push_str(line);
        messy.push_str("\n\n");
    }
    messy.truncate(messy.trim_end().len()); // no trailing newline either
    let path = fixture("messy.ndjson", &messy);
    let out = run(&["--stream", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).contains("1 race(s)"), "{}", stdout(&out));
}

/// Whole-file and `--stream` runs read through one parser, so they fail
/// alike: same exit code and the same stderr — message, byte offset and
/// context snippet — for a truncation mid-event, invalid UTF-8 in a name,
/// a non-object top level, an object without trace fields and an
/// out-of-range wait link. An NDJSON file
/// given to a whole-file run is accepted, with the streamed run's stdout.
#[test]
fn truncation_error_offsets_match_whole_file_mode() {
    let t = trace_of_len(120);
    let json = rvpredict::to_json(&t);
    // (fixture, contents, a phrase of the expected error)
    let mut bad: Vec<(String, Vec<u8>, &str)> = Vec::new();
    // Cut in the middle of an event object, away from any boundary.
    for cut in [json.len() / 3, json.len() / 2, json.len() - 7] {
        bad.push((format!("trunc-{cut}.json"), json[..cut].into(), "at byte"));
    }
    let mut utf8 = json.clone().into_bytes();
    let name = json.find("\"a\"").expect("variable `a` is named") + 1;
    utf8[name] = 0xFF;
    bad.push(("bad-utf8.json".into(), utf8, "invalid utf8 (at byte"));
    bad.push((
        "top-array.json".into(),
        b"[1,2]".to_vec(),
        "expected object, found Array",
    ));
    // An object that is neither a document nor an NDJSON header (e.g. a
    // metrics file) is not a trace.
    bad.push((
        "empty-object.json".into(),
        b"{}".to_vec(),
        "missing field `initial_values`",
    ));
    let dangling = json.replace(
        "\"wait_links\":[]",
        "\"wait_links\":[{\"release\":0,\"acquire\":999,\"notify\":null}]",
    );
    assert_ne!(dangling, json);
    bad.push((
        "dangling-wait.json".into(),
        dangling.into_bytes(),
        "wait link acquire 999 out of range",
    ));
    for (name, contents, needle) in &bad {
        let path = fixture(name, contents);
        let whole = run(&[path.to_str().unwrap()]);
        let streamed = run(&["--stream", path.to_str().unwrap()]);
        assert_eq!(whole.status.code(), Some(2), "{name}");
        assert_eq!(streamed.status.code(), Some(2), "{name}");
        let we = stderr(&whole);
        assert_eq!(we, stderr(&streamed), "error text must match for {name}");
        assert!(we.contains("is not a serialized trace"), "{name}: {we}");
        assert!(we.contains(needle), "{name}: {we}");
    }

    let path = fixture("whole.ndjson", rvpredict::to_ndjson(&t));
    let whole = run(&[path.to_str().unwrap()]);
    let streamed = run(&["--stream", path.to_str().unwrap()]);
    assert_eq!(whole.status.code(), Some(1), "{}", stderr(&whole));
    assert_eq!(whole.status.code(), streamed.status.code());
    let strip = |out: &Output| -> String {
        stdout(out)
            .lines()
            .filter(|l| !l.contains("window times:"))
            .map(|l| l.split(", solver ").next().unwrap().to_string() + "\n")
            .collect()
    };
    assert_eq!(strip(&whole), strip(&streamed));
    assert_eq!(stderr(&whole), stderr(&streamed));
}

/// NDJSON truncation mid-line: the error's byte offset points into the
/// cut line, and parsing the same bytes wholesale fails identically.
#[test]
fn ndjson_truncation_reports_an_in_line_offset() {
    let t = trace_of_len(40);
    let nd = rvpredict::to_ndjson(&t);
    // Cut a few bytes into a line somewhere past the midpoint.
    let nl = nd[..nd.len() / 2].rfind('\n').expect("multi-line document");
    let cut = nl + 11;
    assert!(cut < nd.len());
    let prefix = &nd[..cut];
    assert!(!prefix.ends_with('\n'), "cut must land mid-line");
    let path = fixture("trunc.ndjson", prefix);
    let out = run(&["--stream", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let e = stderr(&out);
    assert!(e.contains("at byte"), "{e}");
    // The reported offset falls within the truncated line.
    let offset: usize = e
        .split("at byte ")
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no byte offset in: {e}"));
    let line_start = prefix.rfind('\n').map(|i| i + 1).unwrap_or(0);
    assert!(
        offset >= line_start && offset <= prefix.len(),
        "offset {offset} outside the cut line starting at {line_start} (len {})",
        prefix.len()
    );
}

/// A trace whose metadata is dense with multi-byte UTF-8 (variable and
/// lock names), so the streaming parser's error-snippet margin regularly
/// lands inside a code point.
fn unicode_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let t2 = b.fork(ThreadId::MAIN);
    let mut vars = Vec::new();
    for i in 0..40 {
        vars.push(b.var(&format!("αβγ—δ🧵ε{i}")));
    }
    for (i, &v) in vars.iter().enumerate() {
        b.write(ThreadId::MAIN, v, i as i64);
        b.write(t2, v, -(i as i64));
    }
    b.finish()
}

/// Multi-byte UTF-8 across chunk boundaries: a document heavy with
/// non-ASCII names parses identically whether fed whole or in chunks of
/// any size (including 1), and a truncation error carries the *same*
/// message, byte offset and context snippet as a read of the same bytes
/// in one piece — even when the retained snippet margin would land
/// mid-code-point.
#[test]
fn multibyte_chunk_boundaries_match_whole_file_errors() {
    let trace = unicode_trace();
    for serialized in [rvpredict::to_json(&trace), rvpredict::to_ndjson(&trace)] {
        let bytes = serialized.as_bytes();
        // The clean parse first: chunked ingestion reconstructs the trace.
        for chunk in [1usize, 2, 3, 7, 64] {
            let mut parser = rvpredict::StreamParser::new();
            for c in bytes.chunks(chunk) {
                parser.feed(c).unwrap();
            }
            parser.finish().unwrap();
            assert_eq!(
                rvpredict::Trace::from_data(parser.into_data()).len(),
                trace.len(),
                "chunk={chunk}"
            );
        }
        // Truncations at awkward places: inside the unicode-dense
        // metadata, inside a multi-byte code point, and near the tail.
        let mid_cp = bytes
            .iter()
            .position(|&b| b & 0xC0 == 0x80)
            .expect("multi-byte content present");
        for cut in [bytes.len() / 4, mid_cp, bytes.len() - 5] {
            let bad = &bytes[..cut];
            let whole_err = rvpredict::read_trace(bad).unwrap_err();
            for chunk in [1usize, 2, 3, 7, 64] {
                let mut parser = rvpredict::StreamParser::new();
                let err = (|| {
                    for c in bad.chunks(chunk) {
                        parser.feed(c)?;
                    }
                    parser.finish()
                })()
                .expect_err("truncated document fails");
                assert_eq!(err, whole_err, "error drifted at cut={cut} chunk={chunk}");
            }
        }
    }
}

/// The snippet-margin regression: after the parser drains consumed bytes,
/// it keeps a snippet-sized margin — which must never be cut mid-code-
/// point, or an error just past a unicode-dense frame lossy-decodes a
/// replacement character the input does not have. Sweeping truncation
/// points right after the unicode metadata catches exactly that: fed in
/// small chunks, message, offset *and snippet* must match the same bytes
/// read in one piece by [`rvpredict::from_json`]. The unit test of the
/// same name in `rvtrace::stream` pins these snippets against the
/// reference reader, `dom_reference`.
#[test]
fn snippet_margin_never_splits_code_points() {
    let json = rvpredict::to_json(&unicode_trace());
    // Truncate throughout the unicode-dense `var_names` tail, so errors
    // land within the retained margin of a multi-byte frame.
    let anchor = json.find("var_names").expect("metadata tail present");
    let mut compared = 0usize;
    for cut in anchor..json.len() {
        if !json.is_char_boundary(cut) {
            continue;
        }
        let bad = &json[..cut];
        let whole_err = rvpredict::from_json(bad).expect_err("truncated document fails");
        for chunk in [1usize, 3, 16] {
            let mut parser = rvpredict::StreamParser::new();
            let err = (|| {
                for c in bad.as_bytes().chunks(chunk) {
                    parser.feed(c)?;
                }
                parser.finish()
            })()
            .expect_err("truncated document fails");
            assert_eq!(err, whole_err, "cut={cut} chunk={chunk}");
        }
        compared += 1;
    }
    assert!(compared >= 30, "the sweep must cover real cuts: {compared}");
}

/// Zero-length chunks are no-ops at any point in the stream: interleaving
/// them between every byte changes neither the parse nor an error.
#[test]
fn empty_chunks_are_no_ops() {
    let trace = trace_of_len(40);
    let nd = rvpredict::to_ndjson(&trace);
    let mut parser = rvpredict::StreamParser::new();
    parser.feed(&[]).unwrap();
    for b in nd.as_bytes() {
        parser.feed(std::slice::from_ref(b)).unwrap();
        parser.feed(&[]).unwrap();
    }
    parser.finish().unwrap();
    assert_eq!(
        rvpredict::Trace::from_data(parser.into_data()).len(),
        trace.len()
    );
    // And on the error path: the diagnostics are unchanged.
    let bad = &nd.as_bytes()[..nd.len() - 5];
    let whole_err = rvpredict::read_trace(bad).unwrap_err();
    let mut parser = rvpredict::StreamParser::new();
    let err = (|| {
        for b in bad {
            parser.feed(&[])?;
            parser.feed(std::slice::from_ref(b))?;
        }
        parser.feed(&[])?;
        parser.finish()
    })()
    .expect_err("truncated document fails");
    assert_eq!(err, whole_err);
}

/// Library-level sweep of the same shapes across chunked feeding: every
/// prefix boundary of a small document parses identically whether fed
/// whole or byte by byte (the CLI cannot control chunking; this pins it).
#[test]
fn byte_by_byte_feeding_matches_whole_file_for_every_shape() {
    for trace in [
        TraceBuilder::new().finish(),
        trace_of_len(8),
        trace_of_len(40),
    ] {
        for serialized in [rvpredict::to_json(&trace), rvpredict::to_ndjson(&trace)] {
            let mut parser = rvpredict::StreamParser::new();
            for b in serialized.as_bytes() {
                parser.feed(std::slice::from_ref(b)).unwrap();
            }
            parser.finish().unwrap();
            let streamed = rvpredict::Trace::from_data(parser.into_data());
            let whole = rvpredict::from_json(&serialized).unwrap();
            assert_eq!(streamed.len(), whole.len());
            assert_eq!(streamed.events(), whole.events());
            assert_eq!(streamed.events(), trace.events());
        }
    }
}
