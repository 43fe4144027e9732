//! The message fabric: per-node mailboxes with (class, src, tag) matching.
//!
//! The fabric is purely in-process: `send` appends a packet to the
//! destination mailbox and stamps it with a virtual arrival time from the
//! [`NetProfile`]; `recv` blocks (in real time) until a matching packet is
//! queued and then advances the receiver's virtual clock to the arrival
//! stamp. No real-time delays are ever injected — simulation speed is bound
//! only by actual computation.
//!
//! With an active [`ChaosProfile`] the wire becomes faulty and every
//! inter-node message instead crosses the reliable channel: the send path
//! runs the seeded ARQ simulation from [`crate::reliable`] (retransmit
//! timers, backoff, retry budget) and the destination mailbox resequences
//! and deduplicates the surviving copies, so receivers still observe
//! exactly-once, in-order delivery per `(src, dst, class)` link. A send
//! whose retry budget is exhausted fail-stops the fabric with a
//! [`FabricError`] instead of letting the run deadlock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::buffer::Bytes;
use crate::chaos::{ChaosKnobs, ChaosProfile};
use crate::packet::{MsgClass, Packet};
use crate::profile::NetProfile;
use crate::reliable::{simulate_arq, FabricError, LinkRx, RxEffect};
use crate::stats::{NetStats, NodeNetStats};
use crate::sync::{Condvar, Mutex};
use crate::vtime::{VClock, VTime};

/// Observer invoked once per retransmission with
/// `(src, dst, link seq, retransmit departure vtime)`. Used by the cluster
/// layer to emit `net.retransmit` trace events without coupling this crate
/// to the tracer.
pub type RetransmitHook = Box<dyn Fn(usize, usize, u64, VTime) + Send + Sync>;

/// Matching predicate for receives.
#[derive(Debug, Clone, Copy, Default)]
pub struct Match {
    /// Only match packets from this source node.
    pub src: Option<usize>,
    /// Only match packets with this tag.
    pub tag: Option<u64>,
}

impl Match {
    pub fn any() -> Self {
        Match::default()
    }

    pub fn from(src: usize) -> Self {
        Match {
            src: Some(src),
            tag: None,
        }
    }

    pub fn tagged(tag: u64) -> Self {
        Match {
            src: None,
            tag: Some(tag),
        }
    }

    pub fn src_tag(src: usize, tag: u64) -> Self {
        Match {
            src: Some(src),
            tag: Some(tag),
        }
    }

    fn matches(&self, p: &Packet) -> bool {
        self.src.is_none_or(|s| s == p.src) && self.tag.is_none_or(|t| t == p.tag)
    }
}

/// A mailbox's locked state: the visible queue plus, when the reliable
/// channel is engaged, one resequencer per source link.
struct MailboxQ {
    queue: VecDeque<Packet>,
    links: Vec<LinkRx>,
}

impl MailboxQ {
    /// Run one delivered copy through its link's resequencer.
    fn deliver(&mut self, pkt: Packet) -> RxEffect {
        let MailboxQ { queue, links } = self;
        links[pkt.src].accept(pkt, queue)
    }

    /// Present every reorder-parked copy (all links) to the resequencers.
    fn flush_limbo(&mut self) -> RxEffect {
        let MailboxQ { queue, links } = self;
        let mut eff = RxEffect::default();
        for rx in links.iter_mut() {
            eff.merge(rx.flush_limbo(queue));
        }
        eff
    }

    fn ensure_links(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize_with(n, LinkRx::default);
        }
    }

    /// Index of the queued packet matching `m` with the earliest virtual
    /// arrival stamp (ties broken by queue position). Receivers dequeue in
    /// arrival order rather than enqueue order: enqueue order of packets
    /// from different sources depends on real-time thread scheduling, while
    /// arrival stamps are pure virtual time, so arrival-ordered service
    /// keeps a receiver's clock independent of the host's scheduling.
    fn earliest_match(&self, m: Match) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .filter(|(_, p)| m.matches(p))
            .min_by_key(|&(i, p)| (p.arrive_at, i))
            .map(|(i, _)| i)
    }
}

struct Mailbox {
    queue: Mutex<MailboxQ>,
    cv: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queue: Mutex::new(MailboxQ {
                queue: VecDeque::new(),
                links: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }
}

struct NodePort {
    boxes: [Mailbox; 4],
}

/// The shared interconnect state.
pub struct Fabric {
    ports: Vec<NodePort>,
    profile: NetProfile,
    chaos: ChaosProfile,
    /// Per-`(src, dst, class)` link sequence counters; empty when chaos is
    /// off (the clean path never numbers packets). One lazily-allocated row
    /// per sending node, so building a large fabric stays O(nodes) even
    /// though the link state is O(nodes²) in the worst case — only links a
    /// node actually sends on pay for their counters.
    tx_seqs: Vec<OnceLock<Vec<AtomicU64>>>,
    stats: NetStats,
    retx_hook: OnceLock<RetransmitHook>,
    shutdown: AtomicBool,
}

impl Fabric {
    /// Build a fabric connecting `n` nodes with a clean (fault-free) wire.
    pub fn new(n: usize, profile: NetProfile) -> Arc<Fabric> {
        Fabric::with_chaos(n, profile, ChaosProfile::off())
    }

    /// Build a fabric whose inter-node links inject the given faults.
    pub fn with_chaos(n: usize, profile: NetProfile, chaos: ChaosProfile) -> Arc<Fabric> {
        assert!(n > 0, "fabric needs at least one node");
        let ports = (0..n)
            .map(|_| NodePort {
                boxes: [
                    Mailbox::new(),
                    Mailbox::new(),
                    Mailbox::new(),
                    Mailbox::new(),
                ],
            })
            .collect();
        let tx_seqs = if chaos.is_active() {
            (0..n).map(|_| OnceLock::new()).collect()
        } else {
            Vec::new()
        };
        Arc::new(Fabric {
            ports,
            profile,
            chaos,
            tx_seqs,
            stats: NetStats::new(n),
            retx_hook: OnceLock::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    pub fn nodes(&self) -> usize {
        self.ports.len()
    }

    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    pub fn chaos(&self) -> &ChaosProfile {
        &self.chaos
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Install the retransmission observer (first caller wins; later calls
    /// are ignored). The hook runs on the sending thread with no fabric
    /// locks held.
    pub fn set_retransmit_hook(&self, hook: RetransmitHook) {
        let _ = self.retx_hook.set(hook);
    }

    /// The knobs for one directed link/class, or `None` when the message
    /// takes the clean path (chaos off, calm override, or intra-node).
    /// A link with a scheduled death always takes the reliable path, even
    /// with calm knobs — the death trigger lives on that path.
    fn link_knobs(&self, src: usize, dst: usize, class: MsgClass) -> Option<ChaosKnobs> {
        if src == dst || !self.chaos.is_active() {
            return None;
        }
        let k = self.chaos.knobs(src, dst, class);
        if k.is_active() || self.chaos.death_seq(src, dst).is_some() {
            Some(k)
        } else {
            None
        }
    }

    /// Per-link sequence rows: 4 per-class ARQ counters plus one link-total
    /// counter driving scheduled link death.
    fn seq_row(&self, src: usize) -> &Vec<AtomicU64> {
        let n = self.ports.len();
        self.tx_seqs[src].get_or_init(|| (0..n * 5).map(|_| AtomicU64::new(0)).collect())
    }

    fn next_seq(&self, src: usize, dst: usize, class: MsgClass) -> u64 {
        self.seq_row(src)[dst * 5 + class.index()].fetch_add(1, Ordering::Relaxed)
    }

    /// Count one logical message against the link's death schedule; true
    /// once the link has reached its scheduled death point.
    fn link_death_triggered(&self, src: usize, dst: usize) -> bool {
        let Some(after) = self.chaos.death_seq(src, dst) else {
            return false;
        };
        self.seq_row(src)[dst * 5 + 4].fetch_add(1, Ordering::Relaxed) >= after
    }

    /// Create the endpoint for node `id`. Endpoints are cheap handles and
    /// may be cloned freely across a node's threads.
    pub fn endpoint(self: &Arc<Self>, id: usize) -> Endpoint {
        assert!(id < self.ports.len(), "no such node: {id}");
        Endpoint {
            id,
            fabric: Arc::clone(self),
        }
    }

    /// Wake every blocked receiver and make subsequent receives fail fast.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for port in &self.ports {
            for mb in &port.boxes {
                let _g = mb.queue.lock();
                mb.cv.notify_all();
            }
        }
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Error returned by receives when the fabric is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fabric is shut down")
    }
}

impl std::error::Error for Disconnected {}

/// One node's attachment to the fabric.
#[derive(Clone)]
pub struct Endpoint {
    id: usize,
    fabric: Arc<Fabric>,
}

impl Endpoint {
    pub fn id(&self) -> usize {
        self.id
    }

    pub fn nodes(&self) -> usize {
        self.fabric.nodes()
    }

    pub fn profile(&self) -> &NetProfile {
        self.fabric.profile()
    }

    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Per-node traffic counters for this endpoint's node.
    pub fn local_stats(&self) -> &NodeNetStats {
        self.fabric.stats.node(self.id)
    }

    /// Post a message. The sender's clock is charged the per-message CPU
    /// overhead; the packet is stamped with its virtual arrival time at the
    /// destination. Sending is asynchronous (eager buffering), matching the
    /// paper's use of short eager MPI messages.
    ///
    /// Panics with the [`FabricError`] display if the reliable channel's
    /// retry budget is exhausted (after recording the error and shutting
    /// the fabric down); use [`Endpoint::send_checked`] to handle that
    /// case programmatically.
    pub fn send(&self, dst: usize, class: MsgClass, tag: u64, payload: Bytes, clock: &mut VClock) {
        if let Err(e) = self.send_checked(dst, class, tag, payload, clock) {
            panic!("{e}");
        }
    }

    /// Like [`Endpoint::send`], but surfaces retry-budget exhaustion as a
    /// structured [`FabricError`] instead of panicking. The fabric is
    /// already shut down (fail-stop) when `Err` is returned.
    pub fn send_checked(
        &self,
        dst: usize,
        class: MsgClass,
        tag: u64,
        payload: Bytes,
        clock: &mut VClock,
    ) -> Result<(), FabricError> {
        let r = self.send_at_checked(dst, class, tag, payload, clock.now());
        clock.charge_comm(self.fabric.profile.per_msg_cpu);
        r
    }

    /// Post a message with an explicit departure timestamp. Used by the
    /// communication thread, which manages its own service clock. Panics on
    /// retry-budget exhaustion like [`Endpoint::send`].
    pub fn send_at(&self, dst: usize, class: MsgClass, tag: u64, payload: Bytes, now: VTime) {
        if let Err(e) = self.send_at_checked(dst, class, tag, payload, now) {
            panic!("{e}");
        }
    }

    /// Checked variant of [`Endpoint::send_at`].
    pub fn send_at_checked(
        &self,
        dst: usize,
        class: MsgClass,
        tag: u64,
        payload: Bytes,
        now: VTime,
    ) -> Result<(), FabricError> {
        let fabric = &self.fabric;
        assert!(dst < fabric.ports.len(), "no such node: {dst}");
        let transfer = fabric.profile.transfer(self.id, dst, payload.len());
        let Some(knobs) = fabric.link_knobs(self.id, dst, class) else {
            // Clean path: exactly the pre-chaos fabric.
            fabric.stats.record_send(self.id, class, payload.len());
            let pkt = Packet {
                src: self.id,
                class,
                tag,
                payload,
                sent_at: now,
                arrive_at: now + transfer,
                seq: 0,
            };
            let mb = &fabric.ports[dst].boxes[class.index()];
            mb.queue.lock().queue.push_back(pkt);
            // Notify with the lock released: the packet is published, and a
            // receiver woken under the lock would only block on it again.
            // With no receiver parked this is a load, not a system call
            // (`sync::Condvar` counts its waiters).
            mb.cv.notify_all();
            return Ok(());
        };

        // Reliable channel: walk the ARQ schedule *before* taking any
        // mailbox lock (the fail path calls begin_shutdown, which locks
        // every mailbox).
        let seq = fabric.next_seq(self.id, dst, class);
        let knobs = if fabric.link_death_triggered(self.id, dst) {
            // The link is scheduled dead: every transmission is lost, so
            // the ARQ walk below deterministically exhausts its budget and
            // produces the canonical FabricError for this link.
            ChaosKnobs { drop: 1.0, ..knobs }
        } else {
            knobs
        };
        let out = match simulate_arq(
            &fabric.chaos,
            &knobs,
            self.id,
            dst,
            class,
            tag,
            seq,
            now,
            transfer,
        ) {
            Ok(out) => out,
            Err(e) => {
                fabric.stats.record_send_failure(&e);
                fabric.begin_shutdown();
                return Err(e);
            }
        };
        fabric.stats.record_arq_send(
            self.id,
            out.retx_times.len() as u64,
            out.drops as u64,
            out.drops as u64,
        );
        if let Some(hook) = fabric.retx_hook.get() {
            for &t in &out.retx_times {
                hook(self.id, dst, seq, t);
            }
        }
        // One logical message regardless of retransmissions/duplicates, so
        // send/receive totals still balance once the run drains.
        fabric.stats.record_send(self.id, class, payload.len());

        let mb = &fabric.ports[dst].boxes[class.index()];
        let mut q = mb.queue.lock();
        q.ensure_links(fabric.ports.len());
        let mut eff = RxEffect::default();
        let mut delivered_any = false;
        for d in &out.deliveries {
            let pkt = Packet {
                src: self.id,
                class,
                tag,
                payload: payload.clone(),
                sent_at: now,
                arrive_at: d.arrive_at,
                seq,
            };
            if d.reordered {
                // Parked past later traffic on this link; receivers flush
                // limbo before blocking, so this cannot deadlock them.
                q.links[self.id].stash_limbo(pkt);
            } else {
                eff.merge(q.deliver(pkt));
                delivered_any = true;
            }
        }
        if delivered_any {
            // This message counts as "later traffic": it frees any copies
            // previously reordered past it on the same link.
            let MailboxQ { queue, links } = &mut *q;
            eff.merge(links[self.id].flush_limbo(queue));
        }
        if eff.dup_drops > 0 || eff.holds > 0 {
            fabric
                .stats
                .record_rx_effect(dst, eff.dup_drops as u64, eff.holds as u64);
        }
        drop(q);
        mb.cv.notify_all();
        Ok(())
    }

    /// Blocking receive of the earliest-arriving queued packet matching
    /// `m`.
    ///
    /// On success the caller's clock advances to the packet's virtual
    /// arrival time plus the per-message matching overhead.
    pub fn recv(
        &self,
        class: MsgClass,
        m: Match,
        clock: &mut VClock,
    ) -> Result<Packet, Disconnected> {
        let pkt = self.recv_raw(class, m)?;
        clock.sync_to(pkt.arrive_at);
        clock.charge_comm(self.fabric.profile.per_msg_cpu);
        Ok(pkt)
    }

    /// Blocking receive that does not touch any virtual clock. The caller
    /// (the communication thread) reconciles times itself via
    /// [`Packet::arrive_at`].
    pub fn recv_raw(&self, class: MsgClass, m: Match) -> Result<Packet, Disconnected> {
        let fabric = &self.fabric;
        let mb = &fabric.ports[self.id].boxes[class.index()];
        let mut q = mb.queue.lock();
        loop {
            if let Some(pos) = q.earliest_match(m) {
                let pkt = q.queue.remove(pos).expect("position just found");
                fabric.stats.record_recv(self.id, class, pkt.payload.len());
                return Ok(pkt);
            }
            // Flush reorder-parked copies before blocking: a message this
            // receiver is waiting for may be sitting in limbo.
            if self.flush_limbo_record(&mut q) > 0 {
                continue;
            }
            if fabric.is_shutdown() {
                return Err(Disconnected);
            }
            mb.cv.wait(&mut q);
        }
    }

    /// Non-blocking receive of the earliest-arriving queued packet matching
    /// `m`, with the same clock accounting as [`Endpoint::recv`]. Returns
    /// `None` (charging nothing) when no matching packet is queued — the
    /// polling primitive for schedulers that interleave message handling
    /// with local work.
    pub fn try_recv_match(&self, class: MsgClass, m: Match, clock: &mut VClock) -> Option<Packet> {
        let fabric = &self.fabric;
        let mb = &fabric.ports[self.id].boxes[class.index()];
        let mut q = mb.queue.lock();
        self.flush_limbo_record(&mut q);
        let pos = q.earliest_match(m)?;
        let pkt = q.queue.remove(pos).expect("position just found");
        fabric.stats.record_recv(self.id, class, pkt.payload.len());
        drop(q);
        clock.sync_to(pkt.arrive_at);
        clock.charge_comm(fabric.profile.per_msg_cpu);
        Some(pkt)
    }

    /// Non-blocking receive of any packet in `class`.
    pub fn try_recv(&self, class: MsgClass) -> Option<Packet> {
        let mb = &self.fabric.ports[self.id].boxes[class.index()];
        let mut q = mb.queue.lock();
        self.flush_limbo_record(&mut q);
        let pkt = q.queue.pop_front()?;
        self.fabric
            .stats
            .record_recv(self.id, class, pkt.payload.len());
        Some(pkt)
    }

    fn flush_limbo_record(&self, q: &mut MailboxQ) -> u32 {
        let eff = q.flush_limbo();
        if eff.dup_drops > 0 || eff.holds > 0 {
            self.fabric
                .stats
                .record_rx_effect(self.id, eff.dup_drops as u64, eff.holds as u64);
        }
        eff.released
    }

    /// Number of packets currently queued in `class` (diagnostics/tests).
    /// Does not count reorder-parked or resequencer-held copies.
    pub fn queued(&self, class: MsgClass) -> usize {
        self.fabric.ports[self.id].boxes[class.index()]
            .queue
            .lock()
            .queue
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vtime::{TimeSource, VClock};

    fn bts(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }

    #[test]
    fn send_recv_advances_virtual_time() {
        let fabric = Fabric::new(2, NetProfile::clan_via());
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let mut ca = VClock::manual();
        let mut cb = VClock::manual();
        a.send(1, MsgClass::P2p, 7, bts(&[1, 2, 3]), &mut ca);
        let pkt = b
            .recv(MsgClass::P2p, Match::src_tag(0, 7), &mut cb)
            .unwrap();
        assert_eq!(&pkt.payload[..], &[1, 2, 3]);
        // Receiver time >= one-way latency.
        assert!(cb.now() >= NetProfile::clan_via().remote.latency);
    }

    #[test]
    fn tag_matching_reorders() {
        let fabric = Fabric::new(2, NetProfile::zero());
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let mut c = VClock::manual();
        a.send(1, MsgClass::P2p, 1, bts(b"first"), &mut c);
        a.send(1, MsgClass::P2p, 2, bts(b"second"), &mut c);
        // Receive tag 2 before tag 1.
        let p2 = b.recv(MsgClass::P2p, Match::tagged(2), &mut c).unwrap();
        assert_eq!(&p2.payload[..], b"second");
        let p1 = b.recv(MsgClass::P2p, Match::tagged(1), &mut c).unwrap();
        assert_eq!(&p1.payload[..], b"first");
    }

    #[test]
    fn classes_do_not_interfere() {
        let fabric = Fabric::new(2, NetProfile::zero());
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let mut c = VClock::manual();
        a.send(1, MsgClass::Dsm, 0, bts(b"dsm"), &mut c);
        a.send(1, MsgClass::P2p, 0, bts(b"p2p"), &mut c);
        let p = b.recv(MsgClass::P2p, Match::any(), &mut c).unwrap();
        assert_eq!(&p.payload[..], b"p2p");
        assert_eq!(b.queued(MsgClass::Dsm), 1);
    }

    #[test]
    fn cross_thread_blocking_recv() {
        let fabric = Fabric::new(2, NetProfile::clan_via());
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let t = std::thread::spawn(move || {
            let mut c = VClock::manual();
            b.recv(MsgClass::P2p, Match::any(), &mut c).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut c = VClock::manual();
        a.send(1, MsgClass::P2p, 9, bts(b"hello"), &mut c);
        let pkt = t.join().unwrap();
        assert_eq!(pkt.tag, 9);
    }

    #[test]
    fn time_parked_in_recv_is_not_compute() {
        let fabric = Fabric::new(2, NetProfile::clan_via());
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let t = std::thread::spawn(move || {
            let mut c = VClock::new(TimeSource::Counted);
            // Blocks ~50 ms of host time until the message is sent.
            let pkt = b.recv(MsgClass::P2p, Match::any(), &mut c).unwrap();
            let after = c.now();
            b.send(0, MsgClass::P2p, 1, bts(b"reply"), &mut c);
            (pkt.arrive_at, after)
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut c = VClock::new(TimeSource::Counted);
        a.send(1, MsgClass::P2p, 0, bts(b"late"), &mut c);
        let (arrive_at, after) = t.join().unwrap();
        let reply = a.try_recv(MsgClass::P2p).unwrap();
        // The clock reads the arrival plus the receive overhead, and the
        // reply leaves at that time: nothing charged the parked interval.
        let expect = arrive_at + NetProfile::clan_via().per_msg_cpu;
        assert_eq!((after, reply.sent_at), (expect, expect));
    }

    #[test]
    fn shutdown_unblocks_receivers() {
        let fabric = Fabric::new(1, NetProfile::zero());
        let e = fabric.endpoint(0);
        let f2 = Arc::clone(&fabric);
        let t = std::thread::spawn(move || {
            let mut c = VClock::manual();
            e.recv(MsgClass::Ctl, Match::any(), &mut c)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        f2.begin_shutdown();
        assert!(matches!(t.join().unwrap(), Err(Disconnected)));
    }

    #[test]
    fn stats_count_sends_and_receives() {
        let fabric = Fabric::new(2, NetProfile::zero());
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let mut c = VClock::manual();
        a.send(1, MsgClass::Dsm, 0, bts(&[0u8; 100]), &mut c);
        a.send(1, MsgClass::P2p, 0, bts(&[0u8; 50]), &mut c);
        let s = fabric.stats().totals();
        assert_eq!(s.msgs, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(
            fabric.stats().node(0).class_totals(MsgClass::Dsm).bytes,
            100
        );
        // In flight: sent but not yet received.
        assert_eq!(fabric.stats().recv_totals().msgs, 0);
        // Drain via all three dequeue paths' representatives.
        b.recv(MsgClass::Dsm, Match::any(), &mut c).unwrap();
        b.try_recv(MsgClass::P2p).unwrap();
        let r = fabric.stats().node(1).snapshot();
        assert_eq!(r.received.msgs, 2);
        assert_eq!(r.received.bytes, 150);
        assert_eq!(r.sent.msgs, 0);
        assert_eq!(
            fabric
                .stats()
                .node(1)
                .recv_class_totals(MsgClass::Dsm)
                .bytes,
            100
        );
    }

    #[test]
    fn local_messages_are_faster_than_remote() {
        let fabric = Fabric::new(2, NetProfile::clan_via());
        let a = fabric.endpoint(0);
        let mut c = VClock::manual();
        a.send(0, MsgClass::P2p, 0, bts(&[0u8; 64]), &mut c);
        a.send(1, MsgClass::P2p, 1, bts(&[0u8; 64]), &mut c);
        let local = fabric.endpoint(0).try_recv(MsgClass::P2p).unwrap();
        let remote = fabric.endpoint(1).try_recv(MsgClass::P2p).unwrap();
        assert!(local.arrive_at - local.sent_at < remote.arrive_at - remote.sent_at);
    }

    #[test]
    fn chaos_delivers_exactly_once_in_order() {
        let chaos = ChaosProfile {
            base: ChaosKnobs {
                drop: 0.2,
                duplicate: 0.1,
                reorder: 0.2,
                delay: 0.3,
                delay_jitter: VTime::from_micros(50),
            },
            ..ChaosProfile::lossy(0xC0FFEE)
        };
        let fabric = Fabric::with_chaos(2, NetProfile::clan_via(), chaos);
        let a = fabric.endpoint(0);
        let b = fabric.endpoint(1);
        let mut c = VClock::manual();
        const N: u64 = 400;
        for i in 0..N {
            a.send(1, MsgClass::P2p, i, bts(&i.to_le_bytes()), &mut c);
        }
        let mut prev_arrive = VTime::ZERO;
        for i in 0..N {
            let p = b.recv_raw(MsgClass::P2p, Match::any()).unwrap();
            assert_eq!(p.tag, i, "link order must be preserved");
            assert_eq!(&p.payload[..], &i.to_le_bytes());
            assert!(
                p.arrive_at >= prev_arrive,
                "arrival stamps must be monotone"
            );
            prev_arrive = p.arrive_at;
        }
        assert_eq!(b.queued(MsgClass::P2p), 0, "no duplicates may survive");
        let h = fabric.stats().link_health_totals();
        assert!(h.retransmits > 0, "20% loss must force retransmissions");
        assert!(h.dup_drops > 0, "duplicates must be dropped: {h:?}");
        assert!(h.reseq_holds + h.dup_drops > 0);
        // Exactly one logical receive per logical send.
        assert_eq!(
            fabric.stats().totals().msgs,
            fabric.stats().recv_totals().msgs
        );
    }

    #[test]
    fn chaos_spares_local_traffic() {
        let fabric = Fabric::with_chaos(
            2,
            NetProfile::zero(),
            ChaosProfile::off().with_link(
                0,
                0,
                ChaosKnobs {
                    drop: 1.0,
                    ..ChaosKnobs::CALM
                },
            ),
        );
        let a = fabric.endpoint(0);
        let mut c = VClock::manual();
        // A 100%-drop override on the loopback link is ignored: intra-node
        // hand-off cannot lose messages.
        a.send(0, MsgClass::P2p, 1, bts(b"local"), &mut c);
        assert!(fabric.endpoint(0).try_recv(MsgClass::P2p).is_some());
        assert!(fabric.stats().link_health_totals().is_quiet());
    }

    #[test]
    fn dead_link_fails_with_structured_error_and_shuts_down() {
        let dead = ChaosKnobs {
            drop: 1.0,
            ..ChaosKnobs::CALM
        };
        let fabric = Fabric::with_chaos(
            3,
            NetProfile::zero(),
            ChaosProfile::off().with_link(0, 2, dead),
        );
        let a = fabric.endpoint(0);
        let mut c = VClock::manual();
        // Unaffected link still works.
        a.send(1, MsgClass::Dsm, 0, bts(b"ok"), &mut c);
        let err = a
            .send_checked(2, MsgClass::Dsm, 77, bts(b"doomed"), &mut c)
            .unwrap_err();
        assert_eq!((err.src, err.dst), (0, 2));
        assert_eq!(err.tag, 77);
        assert_eq!(err.attempts, fabric.chaos().retry_budget + 1);
        // Fail-stop: error recorded, fabric down, receivers unblock.
        assert_eq!(fabric.stats().fabric_errors(), vec![err]);
        assert!(fabric.is_shutdown());
        assert_eq!(fabric.stats().link_health_totals().send_failures, 1);
        let b = fabric.endpoint(1);
        let mut cb = VClock::manual();
        assert!(b.recv(MsgClass::Dsm, Match::any(), &mut cb).is_ok());
        assert!(matches!(
            fabric.endpoint(2).recv_raw(MsgClass::Dsm, Match::any()),
            Err(Disconnected)
        ));
    }

    #[test]
    fn scheduled_link_death_kills_after_n_messages() {
        let fabric = Fabric::with_chaos(
            2,
            NetProfile::zero(),
            ChaosProfile::off().with_link_death(0, 1, 5),
        );
        let a = fabric.endpoint(0);
        let mut c = VClock::manual();
        // The first five messages cross cleanly (calm knobs, reliable path).
        for i in 0..5u64 {
            a.send_checked(1, MsgClass::P2p, i, bts(&[1]), &mut c)
                .expect("link alive before its death point");
        }
        let err = a
            .send_checked(1, MsgClass::P2p, 5, bts(&[1]), &mut c)
            .unwrap_err();
        assert_eq!((err.src, err.dst), (0, 1));
        assert_eq!(err.seq, 5);
        assert!(fabric.is_shutdown());
        assert_eq!(fabric.stats().fabric_errors().len(), 1);
        // The five pre-death messages were all delivered.
        let b = fabric.endpoint(1);
        for i in 0..5u64 {
            assert_eq!(b.recv_raw(MsgClass::P2p, Match::any()).unwrap().tag, i);
        }
    }

    #[test]
    fn link_death_composes_with_lossy_chaos() {
        let chaos = ChaosProfile::lossy(0xFEED).with_link_death(0, 1, 30);
        let fabric = Fabric::with_chaos(2, NetProfile::zero(), chaos);
        let a = fabric.endpoint(0);
        let mut c = VClock::manual();
        let mut sent = 0u64;
        let err = loop {
            match a.send_checked(1, MsgClass::Dsm, sent, bts(&[0u8; 16]), &mut c) {
                Ok(()) => sent += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(sent, 30, "death strikes exactly at the scheduled message");
        assert_eq!((err.src, err.dst), (0, 1));
        // Pre-death lossy traffic still delivered exactly once, in order.
        let b = fabric.endpoint(1);
        for i in 0..sent {
            assert_eq!(b.recv_raw(MsgClass::Dsm, Match::any()).unwrap().tag, i);
        }
    }

    #[test]
    fn retransmit_hook_sees_each_retransmission() {
        use std::sync::atomic::AtomicUsize;
        let chaos = ChaosProfile {
            base: ChaosKnobs {
                drop: 0.4,
                ..ChaosKnobs::CALM
            },
            ..ChaosProfile::lossy(99)
        };
        let fabric = Fabric::with_chaos(2, NetProfile::zero(), chaos);
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        fabric.set_retransmit_hook(Box::new(move |src, dst, _seq, _vt| {
            assert_eq!((src, dst), (0, 1));
            seen2.fetch_add(1, Ordering::Relaxed);
        }));
        let a = fabric.endpoint(0);
        let mut c = VClock::manual();
        for i in 0..200 {
            a.send(1, MsgClass::Coll, i, bts(&[0u8; 8]), &mut c);
        }
        let h = fabric.stats().link_health_totals();
        assert!(h.retransmits > 0);
        assert_eq!(seen.load(Ordering::Relaxed) as u64, h.retransmits);
    }
}
