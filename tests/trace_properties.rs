//! Property tests of the trace substrate over seeded random programs: the
//! interpreter only ever produces consistent traces, JSON round-trips,
//! windowing agrees with the full view, lenient salvage of a damaged trace
//! agrees with the strict check, and each view's order facts (fork/join
//! edges, wait links, touched locks) match their brute-force definitions.

use rvpredict::{
    check_consistency, check_schedule, from_json, salvage_trace, to_json, Event, EventId,
    EventKind, Loc, LockId, Schedule, ThreadId, Trace, TraceBuilder, TraceData, TraceError, View,
    ViewExt, WindowCursor,
};
use rvsim::rng::SmallRng;
use rvsim::stmts::*;
use rvsim::{execute, ExecConfig, Expr, GlobalId, Local, LockRef, ProcId, Program, Stmt};
use rvtrace::WaitLink;

#[derive(Debug, Clone)]
enum A {
    W(u32, i64),
    R(u32),
    L(u32),
    If(u32),
}

fn gen_case(rng: &mut SmallRng) -> (Vec<Vec<A>>, u64) {
    let workers = (0..rng.gen_range(1..4usize))
        .map(|_| {
            (0..rng.gen_range(1..6usize))
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => A::W(rng.gen_range(0..3u32), rng.gen_range(0..3i64)),
                    1 => A::R(rng.gen_range(0..3u32)),
                    2 => A::L(rng.gen_range(0..2u32)),
                    _ => A::If(rng.gen_range(0..3u32)),
                })
                .collect()
        })
        .collect();
    (workers, rng.gen_range(0..500u64))
}

fn run(workers: &[Vec<A>], seed: u64) -> Option<Trace> {
    let r = Local(0);
    let body = |ops: &[A]| -> Vec<Stmt> {
        let mut out = Vec::new();
        for op in ops {
            match *op {
                A::W(v, x) => out.push(store(GlobalId(v), x.into())),
                A::R(v) => out.push(load(r, GlobalId(v))),
                A::L(l) => out.extend([
                    lock(LockRef(l)),
                    store(GlobalId(0), 1.into()),
                    unlock(LockRef(l)),
                ]),
                A::If(v) => out.extend([
                    load(r, GlobalId(v)),
                    if_(
                        Expr::eq(r.into(), 0.into()),
                        vec![store(GlobalId(v), 2.into())],
                        vec![],
                    ),
                ]),
            }
        }
        out
    };
    let procs: Vec<Vec<Stmt>> = workers.iter().map(|w| body(w)).collect();
    let mut main: Vec<Stmt> = (0..procs.len() as u32).map(ProcId).map(fork).collect();
    main.extend((0..procs.len() as u32).map(ProcId).map(join));
    let program = Program::new(
        vec![scalar("v0", 0), scalar("v1", 0), scalar("v2", 0)],
        2,
        main,
        procs,
    );
    let exec = execute(&program, &ExecConfig::seeded(seed)).ok()?;
    Some(exec.trace)
}

/// Drives `cases` generated traces through `check`. `PROPTEST_CASES`
/// overrides the count (the knob kept its name when the suite moved off
/// proptest).
fn for_traces(master_seed: u64, cases: usize, mut check: impl FnMut(&mut SmallRng, &Trace)) {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    let mut rng = SmallRng::seed_from_u64(master_seed);
    let mut checked = 0;
    for _attempt in 0..cases * 20 {
        if checked == cases {
            break;
        }
        let (workers, seed) = gen_case(&mut rng);
        let Some(trace) = run(&workers, seed) else {
            continue;
        };
        checked += 1;
        check(&mut rng, &trace);
    }
    assert_eq!(checked, cases, "not enough generated traces");
}

/// Interpreter output is always sequentially consistent, whatever the
/// schedule.
#[test]
fn interpreter_traces_consistent() {
    for_traces(0xC0515, 64, |_, trace| {
        assert!(check_consistency(trace).is_empty());
    });
}

/// JSON round-trips preserve events, stats and metadata.
#[test]
fn json_roundtrip() {
    for_traces(0x15ea1, 64, |_, trace| {
        let json = to_json(trace);
        let back: Trace = from_json(&json).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.stats(), trace.stats());
        assert_eq!(back.wait_links(), trace.wait_links());
    });
}

/// Windowed views agree with the full view on everything that does not
/// cross a boundary: per-event locksets, initial values at window starts,
/// and MHB restricted to in-window pairs being a subset of the full
/// relation.
#[test]
fn windows_agree_with_full_view() {
    for_traces(0x714d0, 64, |rng, trace| {
        let wsize = rng.gen_range(2..7usize);
        let full = trace.full_view();
        for window in trace.windows(wsize) {
            for id in window.ids() {
                assert_eq!(window.lockset(id), full.lockset(id), "lockset of {}", id);
            }
            // In-window MHB is a sub-relation of full-trace MHB.
            let ids: Vec<EventId> = window.ids().collect();
            for &a in &ids {
                for &b in &ids {
                    if window.mhb(a, b) {
                        assert!(full.mhb(a, b), "window MHB must under-approximate");
                    }
                }
            }
        }
    });
}

/// Channel send/recv links are a first-class part of the trace substrate:
/// every linked recv points at a prior same-channel send, the links
/// survive a JSON round-trip, trace order re-validates as a schedule, and
/// a schedule that runs a recv ahead of its linked send is rejected.
#[test]
fn channel_links_order_sends_before_recvs() {
    let mut rng = SmallRng::seed_from_u64(0xC4A7);
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64usize);
    for _ in 0..cases {
        let n = rng.gen_range(1..5usize);
        let mut b = TraceBuilder::new();
        let chan = b.new_chan("c");
        let vars: Vec<_> = (0..n).map(|i| b.var(&format!("x{i}"))).collect();
        let producer = b.fork(ThreadId::MAIN);
        let consumer = b.fork(ThreadId::MAIN);
        let mut sends = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            b.write(producer, v, i as i64 + 1);
            sends.push(b.send(producer, chan));
        }
        let mut first_recv = None;
        for (i, &v) in vars.iter().enumerate() {
            let r = b.recv(consumer, chan, Some(sends[i]));
            first_recv.get_or_insert(r);
            b.read(consumer, v, i as i64 + 1);
        }
        let trace = b.finish();
        assert!(check_consistency(&trace).is_empty());

        // Every linked recv names a prior send on the same channel.
        assert_eq!(trace.msg_links().len(), n);
        for ml in trace.msg_links() {
            assert!(ml.send < ml.recv, "trace order runs sends first");
        }

        // Links survive JSON.
        let back: Trace = from_json(&to_json(&trace)).unwrap();
        assert_eq!(back.msg_links(), trace.msg_links());
        assert_eq!(back.events(), trace.events());

        // Trace order is a valid schedule; hoisting the consumer's first
        // recv ahead of every send is exactly a recv-before-send error.
        let view = trace.full_view();
        let identity = Schedule(view.ids().collect());
        assert_eq!(check_schedule(&view, &identity), Ok(()));
        let first_recv = first_recv.expect("n >= 1");
        let hoisted: Vec<EventId> = view
            .ids()
            .filter(|&id| {
                let ev = &trace.events()[id.index()];
                ev.thread != producer && id <= first_recv
            })
            .collect();
        assert_eq!(
            check_schedule(&view, &Schedule(hoisted)),
            Err(rvpredict::ScheduleError::RecvBeforeSend(first_recv))
        );
    }
}

/// RwLock read-mode spans overlap freely among themselves — trace order
/// with interleaved read sections is consistent and re-validates as a
/// schedule — while a write acquire scheduled into an open read span is
/// rejected. Read spans also survive a JSON round-trip.
#[test]
fn rwlock_read_spans_overlap_and_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x51AB);
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64usize);
    for _ in 0..cases {
        let readers = rng.gen_range(2..4usize);
        let mut b = TraceBuilder::new();
        let v = b.var("v");
        let l = b.new_lock("l");
        let ts: Vec<_> = (0..readers + 1).map(|_| b.fork(ThreadId::MAIN)).collect();
        let writer = ts[0];
        b.acquire(writer, l);
        b.write(writer, v, 7);
        b.release(writer, l);
        // All read sections open before any closes: maximal overlap.
        let mut racquires = Vec::new();
        for &t in &ts[1..] {
            racquires.push(b.acquire_read(t, l).expect("fresh read acquire"));
        }
        for &t in &ts[1..] {
            b.read(t, v, 7);
        }
        for &t in &ts[1..] {
            b.release_read(t, l);
        }
        let trace = b.finish();
        assert!(check_consistency(&trace).is_empty());

        let view = trace.full_view();
        assert_eq!(view.read_critical_sections(l).len(), readers);
        assert_eq!(view.critical_sections(l).len(), 1);
        let identity = Schedule(view.ids().collect());
        assert_eq!(check_schedule(&view, &identity), Ok(()));

        // Move the writer's section between a read acquire and its
        // release: the write acquire hits a read-held lock.
        let held: Vec<EventId> = view
            .ids()
            .filter(|&id| {
                let ev = &trace.events()[id.index()];
                ev.thread != writer && id <= racquires[0]
            })
            .chain(
                view.ids()
                    .filter(|&id| trace.events()[id.index()].thread == writer),
            )
            .collect();
        assert!(
            check_schedule(&view, &Schedule(held)).is_err(),
            "write acquire inside an open read span must not validate"
        );

        let back: Trace = from_json(&to_json(&trace)).unwrap();
        assert_eq!(back.events(), trace.events());
        let bview = back.full_view();
        assert_eq!(
            bview.read_critical_sections(l).len(),
            view.read_critical_sections(l).len()
        );
    }
}

/// Window-local initial values equal the last write before the window
/// (replay semantics).
#[test]
fn window_initial_values_replay() {
    for_traces(0x1717, 64, |rng, trace| {
        let wsize = rng.gen_range(2..7usize);
        let mut current: std::collections::HashMap<u32, i64> = Default::default();
        let mut pos = 0usize;
        for window in trace.windows(wsize) {
            for v in 0..trace.n_vars() as u32 {
                let expected = current
                    .get(&v)
                    .copied()
                    .unwrap_or_else(|| trace.initial_value(rvpredict::VarId(v)).0);
                assert_eq!(window.initial_value(rvpredict::VarId(v)).0, expected);
            }
            for i in window.range() {
                if let rvpredict::EventKind::Write { var, value } = trace.events()[i].kind {
                    current.insert(var.0, value.0);
                }
                pos += 1;
            }
        }
        assert_eq!(pos, trace.len());
    });
}

/// Damages a consistent trace the way lossy loggers do, by `damage`: 0
/// flips a read's value, 1 deletes an event, 2 duplicates an acquire, fork
/// or end (the copy lands anywhere after the original), 3 moves an event
/// past its thread's end. Every event's `loc` becomes unique (original
/// events get their index, a copy gets the trace length), so a salvaged
/// trace shows exactly which events it kept. `None` when the trace has
/// nothing the chosen damage applies to.
fn mutate(rng: &mut SmallRng, trace: &Trace, damage: u32) -> Option<TraceData> {
    let mut data = trace.data().clone();
    // Renumbering events would need link remapping; the generated
    // programs neither wait nor send, so there are no links to remap.
    assert!(data.wait_links.is_empty() && data.msg_links.is_empty());
    let n = data.events.len();
    for (i, e) in data.events.iter_mut().enumerate() {
        e.loc = Loc(i as u32);
    }
    let events = &mut data.events;
    let pick = |rng: &mut SmallRng, events: &[Event], want: &dyn Fn(&Event) -> bool| {
        let hits: Vec<usize> = (0..events.len()).filter(|&i| want(&events[i])).collect();
        (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
    };
    match damage {
        0 => {
            let i = pick(rng, events, &|e| matches!(e.kind, EventKind::Read { .. }))?;
            if let EventKind::Read { ref mut value, .. } = events[i].kind {
                value.0 += rng.gen_range(1..4i64);
            }
        }
        1 => {
            events.remove(rng.gen_range(0..n));
        }
        2 => {
            let i = pick(rng, events, &|e| {
                matches!(
                    e.kind,
                    EventKind::Acquire { .. } | EventKind::Fork { .. } | EventKind::End
                )
            })?;
            let copy = Event {
                loc: Loc(n as u32),
                ..events[i].clone()
            };
            events.insert(rng.gen_range(i + 1..n + 1), copy);
        }
        _ => {
            let end = pick(rng, events, &|e| e.kind == EventKind::End)?;
            let t = events[end].thread;
            let i = pick(rng, &events[..end], &|e| e.thread == t)?;
            let moved = events.remove(i);
            // The end now sits at `end - 1`.
            events.insert(rng.gen_range(end..n), moved);
        }
    }
    Some(data)
}

/// The first event a strict check flags, with the category of its first
/// violation. Every violation's message leads with its event (`e12: ...`).
fn first_flagged(errors: &[TraceError]) -> Option<(usize, &'static str)> {
    let first = errors.first()?;
    let text = first.to_string();
    let id = text
        .strip_prefix('e')
        .and_then(|rest| rest.split(':').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("violation names no event: {text}"));
    Some((id, first.category()))
}

/// The first event salvage drops from `data`, with the category it was
/// dropped under. Salvage decides each event from the events before it, so
/// salvaging the prefix that ends at the first dropped event drops that
/// event alone.
fn first_dropped(data: &TraceData) -> Option<(usize, &'static str)> {
    let (salvaged, _) = salvage_trace(data.clone());
    let kept = salvaged.events();
    let d =
        (0..data.events.len()).find(|&i| kept.get(i).map(|e| e.loc) != Some(data.events[i].loc))?;
    let prefix = TraceData {
        events: data.events[..=d].to_vec(),
        ..data.clone()
    };
    let (_, report) = salvage_trace(prefix);
    let categories: Vec<&'static str> = report.dropped.into_keys().collect();
    assert_eq!(categories.len(), 1, "the prefix drops its last event only");
    Some((d, categories[0]))
}

/// Salvage and the strict check agree on every damaged trace: the salvaged
/// trace is consistent, a clean trace passes through unchanged, and the
/// first event the strict check flags is the first event salvage drops,
/// under the same category.
fn salvage_agrees_with_strict(master_seed: u64, traces: usize) {
    let mut flagged = [0usize; 4];
    for_traces(master_seed, traces, |rng, trace| {
        let (clean, report) = salvage_trace(trace.data().clone());
        assert!(report.is_clean(), "{report}");
        assert_eq!(clean.events(), trace.events());
        assert_eq!(clean.wait_links(), trace.wait_links());
        assert_eq!(clean.msg_links(), trace.msg_links());
        for _ in 0..4 {
            let damage = rng.gen_range(0..4u32);
            let Some(mutant) = mutate(rng, trace, damage) else {
                continue;
            };
            let (salvaged, report) = salvage_trace(mutant.clone());
            let what = format!("{:?}", mutant.events);
            assert!(check_consistency(&salvaged).is_empty(), "{report}: {what}");
            assert_eq!(report.kept + report.n_dropped(), report.total);
            let strict = first_flagged(&check_consistency(&Trace::from_data(mutant.clone())));
            assert_eq!(strict, first_dropped(&mutant), "{what}");
            flagged[damage as usize] += usize::from(strict.is_some());
        }
    });
    assert!(
        flagged.iter().all(|&n| n > 0),
        "every kind of damage is caught at least once: {flagged:?}"
    );
}

#[test]
fn salvage_agrees_with_strict_on_damaged_traces() {
    salvage_agrees_with_strict(0xDA7A, 64);
}

/// The same property over many more damaged traces.
#[test]
#[ignore = "long: about 16K damaged traces"]
fn salvage_agrees_with_strict_on_damaged_traces_long() {
    salvage_agrees_with_strict(0x5A1_7A6E, 4096);
}

/// The brute-force order facts of one view, checked against the view's
/// own lists: the fork/join scan over the view's events, the complete
/// wait-link filter over the trace's links (with the last link each event
/// is an endpoint of), and a "has a span" filter over every lock id of the
/// trace.
fn assert_order_facts(view: &View<'_>) {
    let trace = view.trace();
    let range = view.range();
    let in_view = |e: EventId| range.contains(&e.index());
    let last_of = |t: ThreadId| view.ids().filter(|&x| trace.event(x).thread == t).last();
    let mut edges = Vec::new();
    for id in view.ids() {
        let e = trace.event(id);
        let from = match e.kind {
            EventKind::Begin => trace.fork_of(e.thread).filter(|&f| in_view(f)),
            EventKind::Join { child } => {
                last_of(child).filter(|&x| matches!(trace.event(x).kind, EventKind::End))
            }
            _ => None,
        };
        edges.extend(from.map(|from| (from, id)));
    }
    assert_eq!(view.mhb_edges(), &edges[..], "edges of {range:?}");
    let links: Vec<WaitLink> = (trace.wait_links().iter())
        .filter(|wl| in_view(wl.release) && in_view(wl.acquire) && wl.notify.is_some_and(in_view))
        .copied()
        .collect();
    assert_eq!(view.wait_links(), &links[..], "links of {range:?}");
    for id in view.ids() {
        let expect = (links.iter())
            .rposition(|wl| [Some(wl.release), Some(wl.acquire), wl.notify].contains(&Some(id)));
        assert_eq!(
            view.wait_link_index(id),
            expect,
            "link of {id} in {range:?}"
        );
    }
    let locks: Vec<LockId> = (0..trace.n_locks() as u32)
        .map(LockId)
        .filter(|&l| {
            !view.critical_sections(l).is_empty() || !view.read_critical_sections(l).is_empty()
        })
        .collect();
    assert_eq!(view.locks(), &locks[..], "locks of {range:?}");
}

/// Checks the order facts of every window of `trace` at several sizes,
/// and of the extended view of every straddle plan a cone-mode cursor
/// makes (at its start and at its budget floor).
fn assert_windowed_order_facts(trace: &Trace) {
    assert_order_facts(&trace.full_view());
    for size in [1, 2, 5, 13, 64] {
        for window in trace.windows(size) {
            assert_order_facts(&window);
        }
        let mut cursor = WindowCursor::new(size, Some(256));
        while let Some(window) = cursor.next(trace, true) {
            if let Some(plan) = &window.plan {
                for at in [plan.ext_start, plan.floor] {
                    assert_order_facts(&plan.extended_view(trace, at));
                }
            }
        }
    }
}

/// The view's fork/join edges, wait links (with their per-event lookup)
/// and touched locks equal their brute-force definitions, on interpreter
/// traces (fork/join, locks, branches) and on generated workloads with
/// wait/notify, rwlock and channel events, cut into windows of several
/// sizes and extended across window boundaries.
#[test]
fn view_order_facts_match_brute_force() {
    for_traces(0x0FAC7, 32, |_, trace| assert_windowed_order_facts(trace));
    use rvsim::workloads::{synthetic, systems};
    let mut traces: Vec<Trace> = (systems::profiles().into_iter())
        .filter(|p| p.wait_notify)
        .flat_map(|p| {
            (1..=3).map(move |seed| {
                let p = systems::SystemProfile { seed, ..p.clone() }.scaled(0.1);
                systems::generate(&p).trace
            })
        })
        .collect();
    assert!(!traces.is_empty() && traces.iter().all(|t| !t.wait_links().is_empty()));
    traces.extend(
        [
            synthetic::rwlock_workload("rw", 3),
            synthetic::rwlock_racy_workload("rw_racy"),
            synthetic::channel_workload("chan", 4),
            synthetic::deadlock_workload("deadlock", 2),
            synthetic::tenant_mix_workload("tenants", 2),
        ]
        .map(|w| w.trace),
    );
    // A notified wait, then a spurious wake-up: a link with no notify,
    // which no view lists.
    let mut b = TraceBuilder::new();
    let l = b.new_lock("l");
    let t2 = b.fork(ThreadId::MAIN);
    b.acquire(ThreadId::MAIN, l);
    let woken = b.wait_begin(ThreadId::MAIN, l);
    b.acquire(t2, l);
    let n = b.notify(t2, l);
    b.release(t2, l);
    b.wait_end(woken, Some(n));
    let spurious = b.wait_begin(ThreadId::MAIN, l);
    b.wait_end(spurious, None);
    b.release(ThreadId::MAIN, l);
    traces.push(b.finish());
    for trace in &traces {
        assert_windowed_order_facts(trace);
    }
}
