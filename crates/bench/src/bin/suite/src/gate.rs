//! The output gate: every invocation's exit code, verdict counts and race
//! signatures must equal the workload's answer key, and its stdout —
//! timing tail stripped — must equal the first invocation's byte for byte.

use crate::pipeline::Outcome;
use crate::workloads::AnswerKey;

/// Stdout with the wall-clock parts removed, as `ci.sh` strips them: the
/// `, solver …` tail of the summary line and the `window times:` line.
pub fn strip_timing(stdout: &str) -> String {
    let mut out = String::with_capacity(stdout.len());
    for line in stdout.lines() {
        if line.contains("window times:") {
            continue;
        }
        out.push_str(line.find(", solver ").map_or(line, |i| &line[..i]));
        out.push('\n');
    }
    out
}

/// The first integer after `tag` in `line`.
fn number_after(line: &str, tag: &str) -> Option<usize> {
    let rest = &line[line.find(tag)? + tag.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The first line starting with `prefix` and the count right after it,
/// e.g. `3` from `deadlock: 3 cycle(s); …`.
fn summary<'a>(stdout: &'a str, prefix: &str) -> Option<(usize, &'a str)> {
    let line = stdout.lines().find(|l| l.starts_with(prefix))?;
    Some((number_after(line, prefix)?, line))
}

/// Checks one invocation against the key. `Err` names the first mismatch.
pub fn check(outcome: &Outcome, key: &AnswerKey) -> Result<(), String> {
    if outcome.exit != 1 {
        return Err(format!(
            "exit code {} (expected 1: violations found)",
            outcome.exit
        ));
    }
    let out = &outcome.stdout;
    let line = out
        .lines()
        .find(|l| l.contains(" race(s); "))
        .ok_or("no race summary line")?;
    let races = number_after(line, "").ok_or("unreadable race count")?;
    let undecided = number_after(line, "undecided=").ok_or("unreadable undecided count")?;
    if races != key.races.len() || undecided != 0 {
        return Err(format!(
            "{races} race(s), {undecided} undecided (expected {}, 0)",
            key.races.len()
        ));
    }
    let mut seen: Vec<&str> = out
        .lines()
        .filter_map(|l| l.strip_prefix("  race "))
        .filter_map(|l| l.split(" between ").next())
        .collect();
    seen.sort_unstable();
    let mut expected: Vec<String> = key.races.iter().map(ToString::to_string).collect();
    expected.sort_unstable();
    if seen != expected {
        return Err(format!("race signatures {seen:?} (expected {expected:?})"));
    }
    if let Some(k) = key.kinds {
        for (prefix, want) in [("deadlock: ", k.cycles), ("atomicity: ", k.violations)] {
            let (got, line) = summary(out, prefix).ok_or_else(|| format!("no `{prefix}` line"))?;
            let unknown = number_after(line, "unknown=");
            if got != want || unknown != Some(0) {
                return Err(format!("`{line}` (expected {want}, unknown=0)"));
            }
        }
    }
    Ok(())
}
