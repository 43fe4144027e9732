//! Property and golden tests for the `parade-trace` subsystem: ring-wrap
//! drop accounting, event-order preservation, span-nesting balance under
//! arbitrary operation sequences, and a traced end-to-end cluster run whose
//! Chrome `trace_event` output must satisfy the in-repo JSON validator.

use parade_testkit::prelude::*;

use parade::core::{Cluster, StatsReport};
use parade::net::{NetProfile, TimeSource, VTime};
use parade::trace::{
    aggregate, validate_json, EventKind, Identity, Phase, Ring, ThreadTrace, TraceConfig,
    TraceEvent,
};

fn ev(kind: EventKind, phase: Phase, arg: u64, vt: u64) -> TraceEvent {
    TraceEvent {
        kind,
        phase,
        arg,
        vtime: VTime(vt),
        wall_ns: vt,
    }
}

// ---- ring wrap -------------------------------------------------------------

/// (requested capacity, number of pushes).
fn wrap_case(r: &mut TestRng) -> (usize, usize) {
    (r.range_usize(0, 64), r.range_usize(0, 512))
}

prop!(fn ring_wrap_keeps_newest_with_exact_drop_count((cap, n) in wrap_case) {
    let mut ring = Ring::new(cap);
    for i in 0..n {
        ring.push(ev(EventKind::DsmReadFault, Phase::Instant, i as u64, i as u64));
    }
    let kept = ring.len();
    assert_eq!(kept, n.min(ring.capacity()));
    assert_eq!(ring.dropped(), (n - kept) as u64);
    // The survivors are exactly the newest `kept` events, oldest first.
    let events = ring.events();
    for (j, e) in events.iter().enumerate() {
        assert_eq!(e.arg, (n - kept + j) as u64);
    }
    // Draining resets but keeps the identity invariant: kept + dropped = n.
    let t = ring.take();
    assert_eq!(t.events.len() as u64 + t.dropped, n as u64);
    assert!(ring.is_empty());
    assert_eq!(ring.dropped(), 0);
});

// ---- order preservation ----------------------------------------------------

/// Monotone virtual-time increments for one thread.
fn increments(r: &mut TestRng) -> Vec<u64> {
    let n = r.range_usize(0, 200);
    (0..n).map(|_| r.below(1_000)).collect()
}

prop!(fn events_stay_monotone_in_vtime(incs in increments) {
    let mut ring = Ring::new(TraceConfig::DEFAULT_CAPACITY);
    let mut vt = 0u64;
    for (i, d) in incs.iter().enumerate() {
        vt += d;
        ring.push(ev(EventKind::DsmTwin, Phase::Instant, i as u64, vt));
    }
    let events = ring.events();
    assert_eq!(events.len(), incs.len());
    for w in events.windows(2) {
        assert!(w[0].vtime <= w[1].vtime, "drained order must preserve vtime order");
        assert!(w[0].arg < w[1].arg, "drained order must preserve push order");
    }
});

// ---- span nesting ----------------------------------------------------------

const SPAN_KINDS: [EventKind; 4] = [
    EventKind::OmpBarrier,
    EventKind::OmpCritical,
    EventKind::DsmFetch,
    EventKind::MpiAllreduce,
];

/// A balanced nesting sequence built with an explicit stack: at each step
/// either open a new span, close the innermost, or emit an instant. All
/// remaining opens are closed at the end, so the stream is balanced.
fn balanced_ops(r: &mut TestRng) -> Vec<(u8, u8)> {
    let n = r.range_usize(0, 120);
    let mut depth = 0usize;
    let mut ops = Vec::new();
    for _ in 0..n {
        let kind = r.below(SPAN_KINDS.len() as u64) as u8;
        match r.below(3) {
            0 => {
                ops.push((0, kind)); // open
                depth += 1;
            }
            1 if depth > 0 => {
                ops.push((1, 0)); // close innermost
                depth -= 1;
            }
            _ => ops.push((2, kind)), // instant
        }
    }
    for _ in 0..depth {
        ops.push((1, 0));
    }
    ops
}

/// Materialize an op stream into a thread trace, tracking the open-span
/// stack so closes name the matching kind. Returns (trace, opens).
fn build_spans(ops: &[(u8, u8)]) -> (ThreadTrace, usize) {
    let mut events = Vec::new();
    let mut stack: Vec<EventKind> = Vec::new();
    let mut opens = 0;
    let mut vt = 0u64;
    for &(op, kind) in ops {
        vt += 10;
        let kind = SPAN_KINDS[(kind as usize) % SPAN_KINDS.len()];
        match op {
            0 => {
                stack.push(kind);
                opens += 1;
                events.push(ev(kind, Phase::Begin, 0, vt));
            }
            1 => {
                let k = stack.pop().expect("balanced stream");
                events.push(ev(k, Phase::End, 0, vt));
            }
            _ => events.push(ev(EventKind::DsmDiff, Phase::Instant, 1, vt)),
        }
    }
    assert!(stack.is_empty());
    (
        ThreadTrace {
            identity: Identity {
                node: 0,
                name: "t0".into(),
            },
            events,
            dropped: 0,
        },
        opens,
    )
}

prop!(fn balanced_nesting_aggregates_without_unbalance(ops in balanced_ops) {
    let (t, opens) = build_spans(&ops);
    let report = aggregate(std::slice::from_ref(&t));
    assert_eq!(report.unbalanced, 0, "balanced stream must not count as unbalanced");
    let span_count: u64 = report.spans.iter().map(|s| s.count).sum();
    assert_eq!(span_count, opens as u64);
    // Exclusive times cannot exceed the thread's total span of virtual time.
    let self_sum: u64 = report.spans.iter().map(|s| s.self_ns).sum();
    assert!(self_sum <= 10 * (ops.len() as u64 + 1));
});

/// Arbitrary (possibly unbalanced) phase streams must aggregate without
/// panicking, and never credit more spans than Ends seen.
fn arbitrary_events(r: &mut TestRng) -> Vec<(u8, u8)> {
    let n = r.range_usize(0, 150);
    (0..n)
        .map(|_| (r.below(3) as u8, r.below(SPAN_KINDS.len() as u64) as u8))
        .collect()
}

prop!(fn arbitrary_sequences_never_panic(raw in arbitrary_events) {
    let mut events = Vec::new();
    let mut ends = 0u64;
    for (i, &(op, kind)) in raw.iter().enumerate() {
        let kind = SPAN_KINDS[(kind as usize) % SPAN_KINDS.len()];
        let phase = match op {
            0 => Phase::Begin,
            1 => { ends += 1; Phase::End }
            _ => Phase::Instant,
        };
        events.push(ev(kind, phase, 0, 10 * i as u64));
    }
    let t = ThreadTrace {
        identity: Identity::untagged(),
        events,
        dropped: 0,
    };
    let report = aggregate(std::slice::from_ref(&t));
    let span_count: u64 = report.spans.iter().map(|s| s.count).sum();
    assert!(span_count <= ends, "a span completes only on a matching End");
});

// ---- golden: traced end-to-end run -----------------------------------------

#[test]
fn traced_run_emits_valid_chrome_json_and_report() {
    let cluster = Cluster::builder()
        .nodes(2)
        .threads_per_node(2)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    let run_once = || {
        cluster
            .run_with_report(|g| {
                let xs = g.alloc_f64(512);
                g.parallel(move |tc| {
                    tc.par_for(0..512, |i| tc.set(&xs, i, 2.0));
                    let mut s = 0.0;
                    for i in tc.for_static(0..512) {
                        s += tc.get(&xs, i);
                    }
                    tc.reduce_f64_sum(s)
                });
            })
            .1
    };
    // Host threads outlive a run, so the traced run below is on threads an
    // untraced one used first, and the one after it on threads that hold a
    // finished session's ring: each session must hear from every thread of
    // its run. (How many events each records depends on the schedule.)
    run_once();
    let session = parade::trace::start(TraceConfig::default())
        .expect("no other session active in this test binary");
    let run = run_once();
    let data = session.finish();
    let session = parade::trace::start(TraceConfig::default()).expect("the first has finished");
    run_once();
    let again = session.finish();
    let who = |d: &parade::trace::TraceData| -> Vec<Identity> {
        d.threads.iter().map(|t| t.identity.clone()).collect()
    };
    assert_eq!(who(&again), who(&data));
    assert_eq!(data.threads.len(), 6, "main, comm and a worker per node");

    // Chrome trace output passes the in-repo RFC 8259 validator.
    let json = data.chrome_json();
    validate_json(&json).expect("chrome trace JSON must be well-formed");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("process_name"));

    let report = data.report();
    assert!(!report.is_empty());
    assert_eq!(report.dropped, 0, "small run must not wrap the rings");
    assert_eq!(report.unbalanced, 0, "runtime spans must nest cleanly");
    // Both nodes ran barriers, and attribution respects the vclock bound.
    let max_node = run.node_times.iter().copied().max().unwrap();
    for node in 0..2u32 {
        assert!(
            report
                .spans
                .iter()
                .any(|s| s.node == node && s.kind == EventKind::OmpBarrier && s.count > 0),
            "node {node} must show omp.barrier spans"
        );
        assert!(
            report.attributed_ns(node) <= max_node.as_nanos(),
            "attributed time cannot exceed the node vclock"
        );
    }

    // The unified StatsReport embeds the same trace data when the runtime
    // owns the session; here we attach it manually and check the JSON path.
    let mut stats = StatsReport::from_run("golden", &run);
    stats.trace = Some(report);
    validate_json(&stats.json()).expect("stats JSON must be well-formed");
    assert!(stats.render().contains("omp.barrier"));
}
