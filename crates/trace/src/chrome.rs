//! Chrome `trace_event` JSON emission (hand-encoded, no serde).
//!
//! The output is the "JSON object format" understood by `chrome://tracing`
//! and Perfetto: a `traceEvents` array of `B`/`E` duration events and `i`
//! instant events, plus `M` metadata records naming each process
//! (simulated node) and thread. Timestamps are the events' **virtual**
//! times in microseconds, so the timeline shows simulated-cluster time,
//! not host wall time.

use crate::event::{Identity, Phase};
use crate::jsonck::json_string;
use crate::session::TraceData;

fn pid(id: &Identity) -> u32 {
    // Perfetto groups tracks by pid; use the simulated node id, with the
    // untagged sentinel mapped to a high-but-valid process id.
    if id.node == Identity::UNTAGGED_NODE {
        999
    } else {
        id.node
    }
}

/// Encode drained trace data as a Chrome `trace_event` JSON document.
pub fn chrome_json(data: &TraceData) -> String {
    let mut s = String::new();
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |s: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            s.push_str(",\n");
        }
        s.push_str(&line);
    };

    // Metadata: one process_name per node, one thread_name per ring.
    let mut named_nodes = std::collections::BTreeSet::new();
    for (tid, t) in data.threads.iter().enumerate() {
        let p = pid(&t.identity);
        if named_nodes.insert(p) {
            let pname = if t.identity.node == Identity::UNTAGGED_NODE {
                "untagged".to_string()
            } else {
                format!("node{}", t.identity.node)
            };
            push(
                &mut s,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&pname)
                ),
            );
        }
        push(
            &mut s,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_string(&t.identity.name)
            ),
        );
    }

    for (tid, t) in data.threads.iter().enumerate() {
        let p = pid(&t.identity);
        for ev in &t.events {
            let ts = ev.vtime.as_micros_f64();
            let name = ev.kind.name();
            let cat = ev.kind.category();
            let line = match ev.phase {
                Phase::Begin => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{ts:.3},\
                     \"pid\":{p},\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                    ev.arg
                ),
                Phase::End => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"E\",\"ts\":{ts:.3},\
                     \"pid\":{p},\"tid\":{tid}}}"
                ),
                Phase::Instant => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts:.3},\"pid\":{p},\"tid\":{tid},\
                     \"args\":{{\"arg\":{},\"wall_ns\":{}}}}}",
                    ev.arg, ev.wall_ns
                ),
            };
            push(&mut s, line);
        }
        if t.dropped > 0 {
            // Surface ring wrap in the viewer itself, not just the report.
            push(
                &mut s,
                format!(
                    "{{\"name\":\"ring_dropped\",\"cat\":\"trace\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":0.0,\"pid\":{p},\"tid\":{tid},\
                     \"args\":{{\"dropped\":{}}}}}",
                    t.dropped
                ),
            );
        }
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent};
    use crate::jsonck::validate_json;
    use crate::ring::ThreadTrace;
    use parade_net::VTime;

    #[test]
    fn emits_valid_json_with_metadata() {
        let threads = vec![ThreadTrace {
            identity: Identity {
                node: 0,
                name: "worker \"q\"\n".to_string(), // hostile name
            },
            events: vec![
                TraceEvent {
                    kind: EventKind::OmpBarrier,
                    phase: Phase::Begin,
                    arg: 0,
                    vtime: VTime(1_500),
                    wall_ns: 10,
                },
                TraceEvent {
                    kind: EventKind::OmpBarrier,
                    phase: Phase::End,
                    arg: 0,
                    vtime: VTime(2_500),
                    wall_ns: 20,
                },
                TraceEvent {
                    kind: EventKind::DsmDiff,
                    phase: Phase::Instant,
                    arg: 4096,
                    vtime: VTime(2_000),
                    wall_ns: 15,
                },
            ],
            dropped: 3,
        }];
        let json = chrome_json(&TraceData { threads });
        validate_json(&json).expect("chrome json must parse");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ring_dropped\""));
        assert!(json.contains("\\\"q\\\""));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = chrome_json(&TraceData { threads: vec![] });
        validate_json(&json).expect("empty chrome json must parse");
        assert!(json.contains("\"traceEvents\""));
    }
}
