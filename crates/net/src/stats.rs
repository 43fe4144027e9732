//! Traffic statistics, per node, per direction, and per message class.
//!
//! Sends are counted at [`NetStats::record_send`] (fabric enqueue) and
//! receives at [`NetStats::record_recv`] (fabric dequeue), so the two
//! directions can disagree transiently while packets are in flight —
//! queueing analysis depends on seeing exactly that.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::packet::MsgClass;
use crate::reliable::FabricError;
use crate::sync::Mutex;

/// A (messages, bytes) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    pub msgs: u64,
    pub bytes: u64,
}

impl Traffic {
    pub fn add(&mut self, other: Traffic) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
    }
}

/// A point-in-time copy of one node's counters, both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeTraffic {
    pub sent: Traffic,
    pub received: Traffic,
}

impl NodeTraffic {
    pub fn add(&mut self, other: NodeTraffic) {
        self.sent.add(other.sent);
        self.received.add(other.received);
    }
}

#[derive(Default)]
struct Counter {
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl Counter {
    fn record(&self, bytes: usize) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn load(&self) -> Traffic {
        Traffic {
            msgs: self.msgs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one node's reliable-channel counters.
///
/// All zero on a chaos-free run: the reliable channel is pass-through and
/// records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkHealth {
    /// Retransmissions performed by this node's sender side.
    pub retransmits: u64,
    /// Retransmit-timer expiries (every lost data *or* ack transmission).
    pub timeouts: u64,
    /// Transmissions destroyed by the chaos schedule on this node's links.
    pub chaos_drops: u64,
    /// Duplicate copies discarded by this node's receive side.
    pub dup_drops: u64,
    /// Out-of-order arrivals this node's resequencer had to park.
    pub reseq_holds: u64,
    /// Sends that exhausted their retry budget (fail-stop).
    pub send_failures: u64,
}

impl LinkHealth {
    pub fn add(&mut self, other: LinkHealth) {
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.chaos_drops += other.chaos_drops;
        self.dup_drops += other.dup_drops;
        self.reseq_holds += other.reseq_holds;
        self.send_failures += other.send_failures;
    }

    /// True when the reliable channel never had to intervene.
    pub fn is_quiet(&self) -> bool {
        *self == LinkHealth::default()
    }

    /// `(name, value)` pairs for rendering/JSON, in a stable order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("retransmits", self.retransmits),
            ("timeouts", self.timeouts),
            ("chaos_drops", self.chaos_drops),
            ("dup_drops", self.dup_drops),
            ("reseq_holds", self.reseq_holds),
            ("send_failures", self.send_failures),
        ]
    }
}

#[derive(Default)]
struct RelCounters {
    retransmits: AtomicU64,
    timeouts: AtomicU64,
    chaos_drops: AtomicU64,
    dup_drops: AtomicU64,
    reseq_holds: AtomicU64,
    send_failures: AtomicU64,
}

impl RelCounters {
    fn load(&self) -> LinkHealth {
        LinkHealth {
            retransmits: self.retransmits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            chaos_drops: self.chaos_drops.load(Ordering::Relaxed),
            dup_drops: self.dup_drops.load(Ordering::Relaxed),
            reseq_holds: self.reseq_holds.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
        }
    }
}

/// Send and receive counters for one node, broken down by class.
#[derive(Default)]
pub struct NodeNetStats {
    sent: [Counter; 4],
    received: [Counter; 4],
    reliability: RelCounters,
}

impl NodeNetStats {
    /// Sent traffic for one class.
    pub fn class_totals(&self, class: MsgClass) -> Traffic {
        self.sent[class.index()].load()
    }

    /// Received traffic for one class.
    pub fn recv_class_totals(&self, class: MsgClass) -> Traffic {
        self.received[class.index()].load()
    }

    /// Sent traffic summed over classes.
    pub fn totals(&self) -> Traffic {
        let mut t = Traffic::default();
        for c in &self.sent {
            t.add(c.load());
        }
        t
    }

    /// Received traffic summed over classes.
    pub fn recv_totals(&self) -> Traffic {
        let mut t = Traffic::default();
        for c in &self.received {
            t.add(c.load());
        }
        t
    }

    /// Both directions at once.
    pub fn snapshot(&self) -> NodeTraffic {
        NodeTraffic {
            sent: self.totals(),
            received: self.recv_totals(),
        }
    }

    /// Reliable-channel counters for this node.
    pub fn link_health(&self) -> LinkHealth {
        self.reliability.load()
    }
}

/// Fabric-wide statistics.
pub struct NetStats {
    nodes: Vec<NodeNetStats>,
    /// Every retry-budget exhaustion, in recording order. The first entry
    /// is the error that fail-stopped the fabric; later entries are other
    /// links dying in the same interval (senders racing the shutdown), and
    /// a failure report must name all of them — a job whose link died
    /// second would otherwise see no error next to a garbage result.
    errors: Mutex<Vec<FabricError>>,
}

impl NetStats {
    pub fn new(n: usize) -> Self {
        NetStats {
            nodes: (0..n).map(|_| NodeNetStats::default()).collect(),
            errors: Mutex::new(Vec::new()),
        }
    }

    pub fn record_send(&self, src: usize, class: MsgClass, bytes: usize) {
        self.nodes[src].sent[class.index()].record(bytes);
    }

    pub fn record_recv(&self, dst: usize, class: MsgClass, bytes: usize) {
        self.nodes[dst].received[class.index()].record(bytes);
    }

    /// Charge one message's ARQ sender-side activity to `src`.
    pub fn record_arq_send(&self, src: usize, retransmits: u64, timeouts: u64, chaos_drops: u64) {
        let r = &self.nodes[src].reliability;
        r.retransmits.fetch_add(retransmits, Ordering::Relaxed);
        r.timeouts.fetch_add(timeouts, Ordering::Relaxed);
        r.chaos_drops.fetch_add(chaos_drops, Ordering::Relaxed);
    }

    /// Charge receive-side resequencer activity to `dst`.
    pub fn record_rx_effect(&self, dst: usize, dup_drops: u64, reseq_holds: u64) {
        let r = &self.nodes[dst].reliability;
        r.dup_drops.fetch_add(dup_drops, Ordering::Relaxed);
        r.reseq_holds.fetch_add(reseq_holds, Ordering::Relaxed);
    }

    /// Record a retry-budget exhaustion. Every distinct failure is kept
    /// (per-link attribution).
    pub fn record_send_failure(&self, err: &FabricError) {
        self.nodes[err.src]
            .reliability
            .send_failures
            .fetch_add(1, Ordering::Relaxed);
        self.errors.lock().push(err.clone());
    }

    /// Every fatal link error, in recording order: when several links die
    /// in the same interval each one is named here, not just the first.
    pub fn fabric_errors(&self) -> Vec<FabricError> {
        self.errors.lock().clone()
    }

    /// Per-node reliable-channel counters.
    pub fn link_health(&self) -> Vec<LinkHealth> {
        self.nodes.iter().map(|n| n.link_health()).collect()
    }

    /// Reliable-channel counters summed over nodes.
    pub fn link_health_totals(&self) -> LinkHealth {
        let mut t = LinkHealth::default();
        for n in &self.nodes {
            t.add(n.link_health());
        }
        t
    }

    pub fn node(&self, id: usize) -> &NodeNetStats {
        &self.nodes[id]
    }

    /// Per-node snapshots, both directions.
    pub fn snapshot(&self) -> Vec<NodeTraffic> {
        self.nodes.iter().map(|n| n.snapshot()).collect()
    }

    /// Sent traffic over all nodes and classes.
    pub fn totals(&self) -> Traffic {
        let mut t = Traffic::default();
        for n in &self.nodes {
            t.add(n.totals());
        }
        t
    }

    /// Received traffic over all nodes and classes.
    pub fn recv_totals(&self) -> Traffic {
        let mut t = Traffic::default();
        for n in &self.nodes {
            t.add(n.recv_totals());
        }
        t
    }

    /// Sent traffic over all nodes for one class.
    pub fn class_totals(&self, class: MsgClass) -> Traffic {
        let mut t = Traffic::default();
        for n in &self.nodes {
            t.add(n.class_totals(class));
        }
        t
    }

    /// Received traffic over all nodes for one class.
    pub fn recv_class_totals(&self, class: MsgClass) -> Traffic {
        let mut t = Traffic::default();
        for n in &self.nodes {
            t.add(n.recv_class_totals(class));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_class_accounting() {
        let s = NetStats::new(2);
        s.record_send(0, MsgClass::Dsm, 4096);
        s.record_send(0, MsgClass::Dsm, 4096);
        s.record_send(1, MsgClass::Coll, 8);
        assert_eq!(s.class_totals(MsgClass::Dsm).msgs, 2);
        assert_eq!(s.class_totals(MsgClass::Dsm).bytes, 8192);
        assert_eq!(s.class_totals(MsgClass::Coll).msgs, 1);
        assert_eq!(s.totals().msgs, 3);
        assert_eq!(s.node(1).totals().bytes, 8);
    }

    #[test]
    fn both_directions_tracked_independently() {
        let s = NetStats::new(2);
        // Node 0 sends 4096 to node 1; only node 1's receive side moves.
        s.record_send(0, MsgClass::Dsm, 4096);
        s.record_recv(1, MsgClass::Dsm, 4096);
        assert_eq!(s.node(0).totals().bytes, 4096);
        assert_eq!(s.node(0).recv_totals().bytes, 0);
        assert_eq!(s.node(1).recv_totals().bytes, 4096);
        assert_eq!(s.node(1).totals().bytes, 0);
        assert_eq!(s.recv_class_totals(MsgClass::Dsm).msgs, 1);
        assert_eq!(s.recv_totals(), s.totals());
        let snap = s.snapshot();
        assert_eq!(snap[0].sent.bytes, 4096);
        assert_eq!(snap[1].received.bytes, 4096);
        let mut sum = NodeTraffic::default();
        for n in snap {
            sum.add(n);
        }
        assert_eq!(sum.sent, sum.received);
    }

    #[test]
    fn link_health_counters_and_first_error_sticks() {
        use crate::vtime::VTime;
        let s = NetStats::new(3);
        assert!(s.link_health_totals().is_quiet());
        s.record_arq_send(0, 2, 3, 3);
        s.record_rx_effect(1, 1, 4);
        let h = s.link_health_totals();
        assert_eq!(h.retransmits, 2);
        assert_eq!(h.timeouts, 3);
        assert_eq!(h.chaos_drops, 3);
        assert_eq!(h.dup_drops, 1);
        assert_eq!(h.reseq_holds, 4);
        assert_eq!(s.node(0).link_health().retransmits, 2);
        assert_eq!(s.node(1).link_health().dup_drops, 1);
        assert!(!h.is_quiet());
        assert_eq!(h.fields()[0], ("retransmits", 2));

        let err = |src: usize| FabricError {
            src,
            dst: 2,
            class: MsgClass::Dsm,
            tag: 1,
            seq: 0,
            attempts: 11,
            gave_up_at: VTime::from_micros(100),
        };
        assert!(s.fabric_errors().is_empty());
        s.record_send_failure(&err(0));
        s.record_send_failure(&err(1));
        // The first error stays first; both failures are counted and both
        // links are named in the full error list.
        assert_eq!(s.link_health_totals().send_failures, 2);
        let all = s.fabric_errors();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].src, all[0].dst), (0, 2));
        assert_eq!((all[1].src, all[1].dst), (1, 2));
    }
}
