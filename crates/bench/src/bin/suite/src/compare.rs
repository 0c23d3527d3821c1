//! `suite --compare BASE NEW`: per workload and end-to-end metric, the
//! two sets' medians and quartiles, the change against the metric's
//! bound, and a verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bench;
use crate::json::{self, Json};
use crate::metrics::{Better, Def, END_TO_END};
use crate::stats::{quartiles, spread};

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the base set's own spread, winning at least
    /// nine in ten cross pairs — or, with spreads wider than the bound,
    /// every new run beats every base run.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// A set's spread is wider than the bound, so the bound cannot be
    /// judged.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` (one value per run) for metric `def`.
/// Returns the verdict and the median change as a share of the base
/// median, signed so that positive is an improvement.
pub fn verdict(def: &Def, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (Some((_, bm, _)), Some((_, nm, _))) = (quartiles(base), quartiles(new)) else {
        return (Verdict::Unresolved, 0.0);
    };
    let sign = match def.better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let gain = if bm == 0.0 {
        0.0
    } else {
        sign * (nm - bm) / bm.abs()
    };
    let better = |n: f64, b: f64| sign * (n - b) > 0.0;
    let wins = new
        .iter()
        .map(|&n| base.iter().filter(|&&b| better(n, b)).count())
        .sum::<usize>();
    let pairs = new.len() * base.len();
    let all_better = wins == pairs;
    let base_spread = spread(base).unwrap_or(0.0);
    let widest = base_spread.max(spread(new).unwrap_or(0.0));
    let v = if widest > def.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if gain < -def.bound {
        Verdict::Worse
    } else if gain > base_spread && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (v, gain)
}

/// Reads a result file: one document per line, each schema-checked.
pub fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            bench::validate(&doc).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            Ok(doc)
        })
        .collect()
}

/// workload → metric → one value per run.
fn by_workload(docs: &[Json]) -> BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for doc in docs {
        let name = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let entry = out.entry(name.to_string()).or_default();
        for def in &END_TO_END {
            if let Some(v) = doc
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
            {
                entry.entry(def.name).or_default().push(v);
            }
        }
    }
    out
}

/// The comparison table, and whether any metric got worse.
pub fn report(base: &[Json], new: &[Json]) -> (String, bool) {
    let (base, new) = (by_workload(base), by_workload(new));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<14} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "base p50 [q1, q3]", "new p50 [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    for (name, b) in &base {
        let Some(n) = new.get(name) else {
            let _ = writeln!(out, "{name:<13} (absent from NEW)");
            continue;
        };
        for def in &END_TO_END {
            let (bv, nv) = (b.get(def.name), n.get(def.name));
            let (Some(bv), Some(nv)) = (bv, nv) else {
                continue;
            };
            let (v, gain) = verdict(def, bv, nv);
            any_worse |= v == Verdict::Worse;
            let q = |vals: &[f64]| {
                let (q1, q2, q3) = quartiles(vals).unwrap_or_default();
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let _ = writeln!(
                out,
                "{name:<13} {:<14} {:>28} {:>28} {:>+7.2}% {:>5.1}%  {}",
                def.name,
                q(bv),
                q(nv),
                gain * 100.0,
                def.bound * 100.0,
                v.name()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    const WALL: Def = END_TO_END[0];

    #[test]
    fn verdicts_on_hand_built_sets() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the 15% bound: same.
        assert_eq!(
            verdict(&WALL, &base, &[104.0, 105.0, 103.0, 104.5, 103.5]).0,
            Verdict::Same
        );
        // 30% slower on a tight spread: worse.
        let (v, gain) = verdict(&WALL, &base, &[130.0, 131.0, 129.0, 130.5, 129.5]);
        assert_eq!(v, Verdict::Worse);
        assert!((gain + 0.3).abs() < 1e-9);
        // 10% faster, every pair won: better, though inside the bound.
        assert_eq!(
            verdict(&WALL, &base, &[90.0, 91.0, 89.0, 90.5, 89.5]).0,
            Verdict::Better
        );
        // Spread wider than the bound, overlapping sets: unresolved.
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&WALL, &base, &noisy).0, Verdict::Unresolved);
        // Wide spread but every new run beats every base run: better.
        assert_eq!(
            verdict(&WALL, &noisy, &[40.0, 45.0, 50.0]).0,
            Verdict::Better
        );
        // Higher-is-better metrics flip the sign.
        let rate = END_TO_END
            .iter()
            .find(|d| d.name == "events_per_s")
            .unwrap();
        assert_eq!(
            verdict(rate, &base, &[130.0, 131.0, 129.0]).0,
            Verdict::Better
        );
        assert_eq!(verdict(&WALL, &[], &base).0, Verdict::Unresolved);
    }

    #[test]
    fn report_flags_a_regression_per_workload() {
        let doc = |wall: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|d| {
                    let v = if d.name == "wall_ms.p50" { wall } else { 1.0 };
                    (
                        d.name,
                        obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]),
                    )
                })
                .collect::<Vec<_>>();
            obj([
                ("workload", Json::Str("residue_2k".into())),
                ("metrics", obj(metrics)),
            ])
        };
        let (table, worse) = report(&[doc(100.0), doc(101.0)], &[doc(150.0), doc(151.0)]);
        assert!(worse, "{table}");
        assert!(
            table.contains("wall_ms.p50") && table.contains("worse"),
            "{table}"
        );
        let (table, worse) = report(&[doc(100.0)], &[doc(100.0)]);
        assert!(!worse && table.contains("same"), "{table}");
    }
}
