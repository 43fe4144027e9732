//! [`StatsReport`] — one unified, renderable summary of a cluster run.
//!
//! Merges the three telemetry sources a run produces — virtual times from
//! [`RunReport`], DSM protocol counters and per-node fabric traffic from
//! the cluster layer, and (when traced) the per-construct virtual-time
//! breakdown from `parade-trace` — so diagnostics and benches print one
//! consistent block instead of hand-rolled `println!`s.

use std::fmt::Write as _;

use parade_dsm::DsmStatsSnapshot;
use parade_net::{FabricError, LinkHealth, NodeTraffic, VTime};
use parade_trace::{json_string, TraceReport};

use crate::team::RunReport;

/// Unified statistics for one cluster run.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Caller-chosen run label.
    pub label: String,
    /// The master's final virtual time.
    pub exec_time: VTime,
    /// Per-node main-thread virtual times.
    pub node_times: Vec<VTime>,
    /// Per-node compute share of the main thread's virtual time.
    pub node_compute: Vec<VTime>,
    /// Per-node communication/wait share.
    pub node_comm: Vec<VTime>,
    /// Cluster-wide DSM protocol counters.
    pub dsm: DsmStatsSnapshot,
    /// Per-node fabric traffic, both directions.
    pub net: Vec<NodeTraffic>,
    /// Per-node reliable-channel counters (all quiet on a chaos-free run).
    pub link_health: Vec<LinkHealth>,
    /// Every fatal link error in recording order: the first is the one
    /// that fail-stopped the fabric, and when several links die in the
    /// same interval, each dead link is named here.
    pub fabric_errors: Vec<FabricError>,
    /// Per-construct virtual-time breakdown, when the run was traced.
    pub trace: Option<TraceReport>,
}

impl StatsReport {
    pub fn from_run(label: impl Into<String>, report: &RunReport) -> StatsReport {
        StatsReport {
            label: label.into(),
            exec_time: report.exec_time,
            node_times: report.node_times.clone(),
            node_compute: report.node_compute.clone(),
            node_comm: report.node_comm.clone(),
            dsm: report.cluster.dsm_totals(),
            net: report.cluster.net.clone(),
            link_health: report.cluster.link_health.clone(),
            fabric_errors: report.cluster.fabric_errors.clone(),
            trace: report.trace.clone(),
        }
    }

    /// Reliable-channel counters summed over nodes.
    pub fn link_health_totals(&self) -> LinkHealth {
        let mut t = LinkHealth::default();
        for h in &self.link_health {
            t.add(*h);
        }
        t
    }

    /// Plain-text block: per-node time/traffic table, non-zero DSM
    /// counters, and the trace breakdown when present.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== {} — exec {} over {} node(s) ===",
            self.label,
            self.exec_time,
            self.node_times.len()
        );
        let _ = writeln!(
            s,
            "{:<5} {:>12} {:>12} {:>12} {:>16} {:>16}",
            "node", "vtime", "compute", "comm", "sent msgs/bytes", "recv msgs/bytes"
        );
        for (i, t) in self.node_times.iter().enumerate() {
            let nt = self.net.get(i).copied().unwrap_or_default();
            let _ = writeln!(
                s,
                "{:<5} {:>12} {:>12} {:>12} {:>16} {:>16}",
                i,
                t.to_string(),
                self.node_compute
                    .get(i)
                    .copied()
                    .unwrap_or(VTime::ZERO)
                    .to_string(),
                self.node_comm
                    .get(i)
                    .copied()
                    .unwrap_or(VTime::ZERO)
                    .to_string(),
                format!("{}/{}", nt.sent.msgs, nt.sent.bytes),
                format!("{}/{}", nt.received.msgs, nt.received.bytes),
            );
        }
        let nonzero: Vec<String> = self
            .dsm
            .fields()
            .into_iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(
            s,
            "dsm: {}",
            if nonzero.is_empty() {
                "(no protocol activity)".to_string()
            } else {
                nonzero.join(" ")
            }
        );
        let health = self.link_health_totals();
        if !health.is_quiet() {
            let fields: Vec<String> = health
                .fields()
                .into_iter()
                .filter(|(_, v)| *v > 0)
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(s, "net reliability: {}", fields.join(" "));
        }
        for err in &self.fabric_errors {
            let _ = writeln!(s, "FABRIC ERROR: {err}");
        }
        match &self.trace {
            Some(tr) if !tr.is_empty() => {
                s.push_str(&tr.render());
            }
            Some(_) => {
                let _ = writeln!(s, "trace: enabled but empty");
            }
            None => {}
        }
        s
    }

    /// Hand-encoded JSON object (no external crates, like the rest of the
    /// workspace).
    pub fn json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(s, "  \"exec_ns\": {},", self.exec_time.as_nanos());
        s.push_str("  \"nodes\": [\n");
        for (i, t) in self.node_times.iter().enumerate() {
            let nt = self.net.get(i).copied().unwrap_or_default();
            let _ = write!(
                s,
                "    {{\"vtime_ns\": {}, \"compute_ns\": {}, \"comm_ns\": {}, \
                 \"sent_msgs\": {}, \"sent_bytes\": {}, \"recv_msgs\": {}, \"recv_bytes\": {}}}",
                t.as_nanos(),
                self.node_compute
                    .get(i)
                    .copied()
                    .unwrap_or(VTime::ZERO)
                    .as_nanos(),
                self.node_comm
                    .get(i)
                    .copied()
                    .unwrap_or(VTime::ZERO)
                    .as_nanos(),
                nt.sent.msgs,
                nt.sent.bytes,
                nt.received.msgs,
                nt.received.bytes,
            );
            s.push_str(if i + 1 < self.node_times.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        let dsm: Vec<String> = self
            .dsm
            .fields()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(s, "  \"dsm\": {{{}}},", dsm.join(", "));
        let health: Vec<String> = self
            .link_health_totals()
            .fields()
            .into_iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(s, "  \"link_health\": {{{}}},", health.join(", "));
        match self.fabric_errors.first() {
            Some(err) => {
                let _ = writeln!(s, "  \"fabric_error\": {},", json_string(&err.to_string()));
            }
            None => {
                let _ = writeln!(s, "  \"fabric_error\": null,");
            }
        }
        let errs: Vec<String> = self
            .fabric_errors
            .iter()
            .map(|e| json_string(&e.to_string()))
            .collect();
        let _ = writeln!(s, "  \"fabric_errors\": [{}],", errs.join(", "));
        match &self.trace {
            Some(tr) => {
                let _ = writeln!(s, "  \"trace\": {}", tr.json());
            }
            None => {
                let _ = writeln!(s, "  \"trace\": null");
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use parade_net::{NetProfile, TimeSource};

    fn run_report() -> RunReport {
        let c = Cluster::builder()
            .nodes(2)
            .threads_per_node(1)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap();
        let (_, report) = c.run_with_report(|g| {
            let xs = g.alloc_f64(256);
            g.parallel(move |tc| {
                tc.par_for(0..256, |i| tc.set(&xs, i, 1.0));
                let mut s = 0.0;
                for i in tc.for_static(0..256) {
                    s += tc.get(&xs, i);
                }
                tc.reduce_f64_sum(s)
            });
        });
        report
    }

    #[test]
    fn render_and_json_cover_all_sources() {
        let sr = StatsReport::from_run("unit", &run_report());
        let text = sr.render();
        assert!(text.contains("exec"), "{text}");
        assert!(text.contains("dsm: "), "{text}");
        assert!(text.contains("recv msgs/bytes"), "{text}");
        let js = sr.json();
        parade_trace::validate_json(&js).expect("stats JSON well-formed");
        assert!(js.contains("\"barriers\""));
        assert!(js.contains("\"recv_bytes\""));
        assert!(js.contains("\"link_health\""));
        assert!(js.contains("\"fabric_error\": null"));
        assert!(js.contains("\"fabric_errors\": []"));
        assert!(js.contains("\"trace\": null"));
        // A clean run has a quiet reliable channel and no error block in
        // the text rendering.
        assert!(sr.link_health_totals().is_quiet());
        assert!(!text.contains("net reliability"));
        assert!(!text.contains("FABRIC ERROR"));
    }

    #[test]
    fn fabric_error_and_reliability_reach_the_report() {
        use parade_net::{FabricError, LinkHealth, MsgClass, VTime};
        let mut sr = StatsReport::from_run("faulty", &run_report());
        sr.link_health = vec![
            LinkHealth {
                retransmits: 3,
                timeouts: 4,
                chaos_drops: 4,
                dup_drops: 1,
                reseq_holds: 2,
                send_failures: 1,
            },
            LinkHealth::default(),
        ];
        let dead = |dst: usize| FabricError {
            src: 0,
            dst,
            class: MsgClass::Dsm,
            tag: 42,
            seq: 7,
            attempts: 11,
            gave_up_at: VTime::from_micros(500),
        };
        // Two links died in the same interval: both must be named.
        sr.fabric_errors = vec![dead(1), FabricError { dst: 2, ..dead(1) }];
        let text = sr.render();
        assert!(text.contains("net reliability: retransmits=3"), "{text}");
        assert!(
            text.contains("FABRIC ERROR: fabric link 0->1 dead"),
            "{text}"
        );
        assert!(
            text.contains("FABRIC ERROR: fabric link 0->2 dead"),
            "{text}"
        );
        assert!(text.contains("DSM protocol request"), "{text}");
        let js = sr.json();
        parade_trace::validate_json(&js).expect("stats JSON well-formed");
        assert!(js.contains("\"retransmits\": 3"));
        assert!(js.contains("\"fabric_error\": \"fabric link 0->1 dead"));
        assert!(js.contains("fabric link 0->2 dead"));
    }

    #[test]
    fn net_counters_balance_in_report() {
        let sr = StatsReport::from_run("balance", &run_report());
        let mut sum = NodeTraffic::default();
        for n in &sr.net {
            sum.add(*n);
        }
        // Fabric drained at shutdown: every sent message was received.
        assert_eq!(sum.sent, sum.received);
        assert!(sum.sent.msgs > 0);
    }
}
