//! The benchmark's own host-time spans.
//!
//! One span per call the harness makes into a product layer: name, start,
//! end, the span that caused it, and the workload it belongs to. Everything
//! is driven from the single harness thread, so a `Vec` and a stack are
//! enough; spans stay in memory and are written out when the child exits.
//! A disabled recorder (the untraced reps) does no work at all.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn disabled() -> Spans {
        Spans::new(false)
    }

    pub fn enabled() -> Spans {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, child of the innermost open one.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per span name in seconds: a span's duration minus the part
    /// its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        by_name
    }

    /// The span file: every span with its parent index, plus the self-time
    /// roll-up so a reader does not have to recompute it.
    pub fn to_json(&self, workload: &str, workload_id: usize) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = Value::obj();
                o.set("id", i as u64);
                o.set("name", s.name);
                o.set("start_ns", s.start_ns);
                o.set("end_ns", s.end_ns);
                o.set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| (p as u64).into()),
                );
                o.set("workload_id", workload_id as u64);
                o
            })
            .collect();
        let mut own = Value::obj();
        for (name, secs) in self.self_seconds() {
            own.set(name, secs);
        }
        let mut doc = Value::obj();
        doc.set("workload", workload);
        doc.set("workload_id", workload_id as u64);
        doc.set("clock", "host monotonic ns since the traced rep began");
        doc.set("self_seconds", own);
        doc.set("spans", Value::Arr(spans));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time_excludes_children() {
        let mut s = Spans::enabled();
        s.scope("rep", |s| {
            s.scope("layer.a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            s.scope("layer.b", |s| s.scope("layer.a", |_| ()));
        });
        assert_eq!(s.spans.len(), 4);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[3].parent, Some(2));
        let own = s.self_seconds();
        let total: f64 = own.values().sum();
        let rep = (s.spans[0].end_ns - s.spans[0].start_ns) as f64 * 1e-9;
        // Every instant of the root belongs to exactly one span.
        assert!((total - rep).abs() < 1e-9, "{total} vs {rep}");
        assert!(own["layer.a"] >= 0.004);
        assert!(own["rep"] < own["layer.a"]);
        crate::sut::validate_json(&s.to_json("w", 3).pretty()).unwrap();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::disabled();
        assert_eq!(s.scope("x", |s| s.scope("y", |_| 7)), 7);
        assert!(s.spans.is_empty());
    }
}
