//! Lenient trace ingestion: salvage what is usable from a damaged trace.
//!
//! Strict ingestion rejects a trace with any consistency violation (see
//! [`check_consistency`](crate::consistency::check_consistency)). Real
//! logger output is often imperfect — truncated files lose `end`/`join`
//! events, torn writes corrupt read values, interleaved buffers drop
//! acquires — and rejecting the whole trace throws away every window that
//! was fine. [`salvage_trace`] instead runs the strict check's own state
//! machine (the crate's one encoding of the §2.2 axioms) event by event and
//! **drops** each event that violates an axiom, *without applying its
//! state effects*, so one bad event cannot cascade into rejecting its
//! neighbours. The result is a consistent trace by construction, plus a
//! [`SalvageReport`] saying exactly what was dropped and why (per
//! [`TraceError::category`](crate::TraceError::category) name).
//!
//! Dropping events costs completeness, never soundness: detection runs on
//! a sub-trace of what was observed, so every reported race still has a
//! valid witness in the salvaged trace.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::consistency::Axioms;
use crate::event::EventId;
use crate::json::{validate_wait_links, JsonError};
use crate::trace::{MsgLink, Trace, TraceData, WaitLink};

/// What lenient ingestion dropped, and why.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Events in the damaged input.
    pub total: usize,
    /// Events kept in the salvaged trace.
    pub kept: usize,
    /// Dropped events per [`TraceError::category`](crate::TraceError::category) name.
    pub dropped: BTreeMap<&'static str, usize>,
    /// Wait links discarded because an endpoint was dropped or out of
    /// range ("dangling-wait-link" in diagnostics).
    pub dangling_wait_links: usize,
    /// Message links discarded because an endpoint was dropped, out of
    /// range, or reversed ("dangling-msg-link" in diagnostics).
    pub dangling_msg_links: usize,
    /// Wall-clock time spent salvaging (not rendered by `Display`; it
    /// feeds the `--metrics` timing section).
    pub elapsed: std::time::Duration,
}

impl SalvageReport {
    /// Total events dropped (sums the per-category counts).
    pub fn n_dropped(&self) -> usize {
        self.dropped.values().sum()
    }

    /// True when nothing was dropped — the input was already consistent.
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.dangling_wait_links == 0 && self.dangling_msg_links == 0
    }
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "salvage: kept {}/{} events", self.kept, self.total)?;
        if !self.dropped.is_empty() {
            write!(f, "; dropped:")?;
            for (category, n) in &self.dropped {
                write!(f, " {category}={n}")?;
            }
        }
        if self.dangling_wait_links > 0 {
            write!(f, "; dangling-wait-link={}", self.dangling_wait_links)?;
        }
        if self.dangling_msg_links > 0 {
            write!(f, "; dangling-msg-link={}", self.dangling_msg_links)?;
        }
        Ok(())
    }
}

/// Salvages a consistent trace from damaged raw data.
///
/// Runs [`check_consistency`](crate::consistency::check_consistency)'s
/// state machine over the events in order; an event it flags is dropped
/// (its state effects are not applied) and counted under the category of
/// its first violation, the one the strict check lists first for it.
/// Kept events are renumbered densely; wait links are remapped to the new
/// ids, and links whose release/acquire endpoint was dropped (or
/// referenced a nonexistent event) are discarded as dangling.
/// Metadata (initial values, volatiles, names) passes through unchanged.
///
/// # Examples
///
/// ```
/// use rvtrace::{salvage_trace, Event, EventKind, Loc, ThreadId, TraceData, Value, VarId};
///
/// let data = TraceData {
///     events: vec![
///         Event::new(ThreadId::MAIN, EventKind::Write { var: VarId(0), value: Value(1) }, Loc(0)),
///         // Corrupt: claims to have read 9, but the last write was 1.
///         Event::new(ThreadId::MAIN, EventKind::Read { var: VarId(0), value: Value(9) }, Loc(1)),
///         Event::new(ThreadId::MAIN, EventKind::Read { var: VarId(0), value: Value(1) }, Loc(2)),
///     ],
///     ..Default::default()
/// };
/// let (trace, report) = salvage_trace(data);
/// assert_eq!(trace.len(), 2);
/// assert_eq!(report.dropped["inconsistent-read"], 1);
/// ```
pub fn salvage_trace(data: TraceData) -> (Trace, SalvageReport) {
    let salvage_start = std::time::Instant::now();
    let TraceData {
        events,
        initial_values,
        volatiles,
        wait_links,
        msg_links,
        loc_names,
        var_names,
    } = data;

    let mut report = SalvageReport {
        total: events.len(),
        ..Default::default()
    };
    let mut kept = Vec::with_capacity(events.len());
    // Old event id -> new event id, for wait-link remapping.
    let mut remap: HashMap<EventId, EventId> = HashMap::new();
    let mut axioms = Axioms::new(&initial_values);

    for (i, e) in events.into_iter().enumerate() {
        let id = EventId(i as u32);
        // The first violated axiom names the drop; a dropped event's
        // effects are not applied.
        let mut first = None;
        let checked = axioms.violations(id, &e, |err| {
            first.get_or_insert(err);
        });
        if let Some(err) = first {
            *report.dropped.entry(err.category()).or_insert(0) += 1;
            continue;
        }
        axioms.apply(&e, checked);
        remap.insert(id, EventId(kept.len() as u32));
        kept.push(e);
    }
    report.kept = kept.len();

    // Remap wait links; a link whose release or acquire endpoint did not
    // survive (dropped, or never existed) is dangling and discarded. A
    // dropped notify only loses the link's notify annotation.
    let wait_links: Vec<WaitLink> = wait_links
        .into_iter()
        .filter_map(
            |wl| match (remap.get(&wl.release), remap.get(&wl.acquire)) {
                (Some(&release), Some(&acquire)) => Some(WaitLink {
                    release,
                    acquire,
                    notify: wl.notify.and_then(|n| remap.get(&n).copied()),
                }),
                _ => {
                    report.dangling_wait_links += 1;
                    None
                }
            },
        )
        .collect();

    // Remap message links; a link with a dropped or out-of-range endpoint
    // — or one whose send does not precede its recv — is discarded.
    let msg_links: Vec<MsgLink> = msg_links
        .into_iter()
        .filter_map(|ml| match (remap.get(&ml.send), remap.get(&ml.recv)) {
            (Some(&send), Some(&recv)) if send < recv => Some(MsgLink { send, recv }),
            _ => {
                report.dangling_msg_links += 1;
                None
            }
        })
        .collect();

    let trace = Trace::from_data(TraceData {
        events: kept,
        initial_values,
        volatiles,
        wait_links,
        msg_links,
        loc_names,
        var_names,
    });
    report.elapsed = salvage_start.elapsed();
    (trace, report)
}

/// Admits parsed trace data for detection: salvaged (with its report)
/// when `lenient`, else with its links range-checked by
/// [`validate_wait_links`]. A strict trace still has the consistency
/// axioms to pass ([`check_consistency`](crate::check_consistency)).
pub fn admit_trace(
    data: TraceData,
    lenient: bool,
) -> Result<(Trace, Option<SalvageReport>), JsonError> {
    if lenient {
        let (trace, report) = salvage_trace(data);
        Ok((trace, Some(report)))
    } else {
        validate_wait_links(&data)?;
        Ok((Trace::from_data(data), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use crate::event::{Event, EventKind, Loc, LockId, ThreadId, Value, VarId};

    fn ev(t: u32, kind: EventKind) -> Event {
        Event::new(ThreadId(t), kind, Loc(0))
    }

    #[test]
    fn clean_trace_passes_through() {
        let data = TraceData {
            events: vec![
                ev(0, EventKind::Fork { child: ThreadId(1) }),
                ev(
                    0,
                    EventKind::Write {
                        var: VarId(0),
                        value: Value(1),
                    },
                ),
                ev(1, EventKind::Begin),
                ev(
                    1,
                    EventKind::Read {
                        var: VarId(0),
                        value: Value(1),
                    },
                ),
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(trace.len(), 4);
        assert!(report.is_clean());
        assert_eq!(report.n_dropped(), 0);
        assert_eq!(format!("{report}"), "salvage: kept 4/4 events");
    }

    #[test]
    fn unbalanced_locks_dropped() {
        let data = TraceData {
            events: vec![
                ev(0, EventKind::Release { lock: LockId(0) }), // never acquired
                ev(0, EventKind::Acquire { lock: LockId(0) }),
                ev(1, EventKind::Acquire { lock: LockId(0) }), // held by t0
                ev(0, EventKind::Release { lock: LockId(0) }),
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(trace.len(), 2);
        assert_eq!(report.dropped["release-without-acquire"], 1);
        assert_eq!(report.dropped["acquire-held-lock"], 1);
        assert!(check_consistency(&trace).is_empty());
    }

    #[test]
    fn inconsistent_reads_dropped_without_cascading() {
        let data = TraceData {
            events: vec![
                ev(
                    0,
                    EventKind::Write {
                        var: VarId(0),
                        value: Value(1),
                    },
                ),
                ev(
                    0,
                    EventKind::Read {
                        var: VarId(0),
                        value: Value(9), // torn
                    },
                ),
                ev(
                    0,
                    EventKind::Read {
                        var: VarId(0),
                        value: Value(1), // fine: last kept write is 1
                    },
                ),
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(trace.len(), 2);
        assert_eq!(report.dropped["inconsistent-read"], 1);
        assert!(check_consistency(&trace).is_empty());
    }

    #[test]
    fn truncated_thread_drops_orphan_join() {
        // The child's End was lost to truncation: the join is dropped, the
        // rest survives.
        let data = TraceData {
            events: vec![
                ev(0, EventKind::Fork { child: ThreadId(1) }),
                ev(1, EventKind::Begin),
                ev(1, EventKind::Branch),
                ev(0, EventKind::Join { child: ThreadId(1) }),
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(trace.len(), 3);
        assert_eq!(report.dropped["join-before-end"], 1);
        assert!(check_consistency(&trace).is_empty());
    }

    #[test]
    fn event_ids_renumbered_and_wait_links_remapped() {
        let data = TraceData {
            events: vec![
                ev(0, EventKind::Release { lock: LockId(1) }), // dropped
                ev(0, EventKind::Acquire { lock: LockId(0) }),
                ev(0, EventKind::Release { lock: LockId(0) }), // wait-release
                ev(1, EventKind::Notify { lock: LockId(0) }),
                ev(0, EventKind::Acquire { lock: LockId(0) }), // wait-reacquire
            ],
            wait_links: vec![WaitLink {
                release: EventId(2),
                acquire: EventId(4),
                notify: Some(EventId(3)),
            }],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(trace.len(), 4);
        assert_eq!(report.dropped["release-without-acquire"], 1);
        let wl = trace.wait_links()[0];
        assert_eq!(
            (wl.release, wl.acquire, wl.notify),
            (EventId(1), EventId(3), Some(EventId(2)),)
        );
    }

    #[test]
    fn dangling_wait_links_discarded() {
        let data = TraceData {
            events: vec![ev(0, EventKind::Branch)],
            wait_links: vec![WaitLink {
                release: EventId(10), // out of range
                acquire: EventId(11),
                notify: None,
            }],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert!(trace.wait_links().is_empty());
        assert_eq!(report.dangling_wait_links, 1);
        assert!(!report.is_clean());
        assert!(format!("{report}").contains("dangling-wait-link=1"));
    }

    #[test]
    fn rwlock_violations_dropped() {
        let data = TraceData {
            events: vec![
                ev(0, EventKind::AcquireRead { lock: LockId(0) }),
                ev(1, EventKind::Acquire { lock: LockId(0) }), // read-held
                ev(1, EventKind::AcquireRead { lock: LockId(1) }),
                ev(2, EventKind::AcquireRead { lock: LockId(1) }), // ok: shared
                ev(0, EventKind::ReleaseRead { lock: LockId(1) }), // not a holder
                ev(1, EventKind::ReleaseRead { lock: LockId(1) }),
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(trace.len(), 4);
        assert_eq!(report.dropped["acquire-held-lock"], 1);
        assert_eq!(report.dropped["release-without-acquire"], 1);
        assert!(check_consistency(&trace).is_empty());
    }

    #[test]
    fn dangling_msg_links_discarded() {
        let data = TraceData {
            events: vec![
                ev(0, EventKind::Release { lock: LockId(0) }), // dropped
                ev(
                    0,
                    EventKind::Send {
                        chan: crate::ChanId(0),
                    },
                ),
                ev(
                    1,
                    EventKind::Recv {
                        chan: crate::ChanId(0),
                    },
                ),
            ],
            msg_links: vec![
                MsgLink {
                    send: EventId(0), // endpoint dropped
                    recv: EventId(2),
                },
                MsgLink {
                    send: EventId(1),
                    recv: EventId(2),
                },
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert_eq!(report.dangling_msg_links, 1);
        assert_eq!(trace.msg_links().len(), 1);
        assert_eq!(trace.msg_links()[0].send, EventId(0)); // renumbered
        assert!(format!("{report}").contains("dangling-msg-link=1"));
    }

    #[test]
    fn salvaged_trace_is_always_consistent() {
        // The postcondition that matters: whatever garbage goes in, the
        // salvaged trace satisfies every consistency axiom.
        let data = TraceData {
            events: vec![
                ev(1, EventKind::Branch), // unforked, un-begun thread
                ev(0, EventKind::Fork { child: ThreadId(1) }),
                ev(0, EventKind::Fork { child: ThreadId(1) }), // double fork
                ev(1, EventKind::Begin),
                ev(1, EventKind::End),
                ev(1, EventKind::Branch), // after end
                ev(
                    0,
                    EventKind::Read {
                        var: VarId(0),
                        value: Value(5),
                    },
                ), // initial is 0
                ev(0, EventKind::Join { child: ThreadId(1) }),
            ],
            ..Default::default()
        };
        let (trace, report) = salvage_trace(data);
        assert!(check_consistency(&trace).is_empty(), "{report}");
        assert_eq!(report.kept + report.n_dropped(), report.total);
        assert!(report.dropped.contains_key("double-fork"));
        assert!(report.dropped.contains_key("event-after-end"));
        assert!(report.dropped.contains_key("inconsistent-read"));
    }
}
