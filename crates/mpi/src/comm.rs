//! Communicators and point-to-point messaging.

use parade_net::sync::Mutex;
use parade_net::Bytes;

use parade_net::{Endpoint, Match, MsgClass, VClock};

/// A communicator: one MPI-style rank per cluster node.
///
/// Point-to-point operations are fully thread-safe (the paper stresses that
/// most public MPI libraries were not — their runtime needs a thread-safe
/// one because application threads and the communication thread both issue
/// requests). Collective operations are serialized per node by an internal
/// lock and matched across nodes by a sequence number, so every node must
/// invoke collectives in the same order — the usual MPI contract.
pub struct Communicator {
    ep: Endpoint,
    rank: usize,
    size: usize,
    /// Serializes collective participation of this node's threads.
    pub(crate) coll_guard: Mutex<CollState>,
}

pub(crate) struct CollState {
    /// Sequence number of the next collective; identical across nodes
    /// because collectives are invoked in the same global order.
    pub seq: u64,
}

impl Communicator {
    pub fn new(ep: Endpoint) -> Self {
        let rank = ep.id();
        let size = ep.nodes();
        Communicator {
            ep,
            rank,
            size,
            coll_guard: Mutex::new(CollState { seq: 0 }),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    // ---- point-to-point -------------------------------------------------

    /// Send raw bytes to `dst` with a user tag.
    pub fn send_bytes(&self, dst: usize, tag: u32, data: Bytes, clock: &mut VClock) {
        self.ep.send(dst, MsgClass::P2p, tag as u64, data, clock);
    }

    /// Blocking receive of a message with `tag` from *any* source; returns
    /// the sender's rank alongside the payload.
    pub fn recv_bytes_any(&self, tag: u32, clock: &mut VClock) -> (usize, Bytes) {
        let pkt = self
            .ep
            .recv(MsgClass::P2p, Match::tagged(tag as u64), clock)
            .expect("communicator used after shutdown");
        (pkt.src, pkt.payload)
    }

    /// Non-blocking receive of a message with `tag` from any source.
    /// Dequeues by earliest virtual arrival so polling loops see messages
    /// in the same order a blocking receiver would.
    pub fn try_recv_bytes(&self, tag: u32, clock: &mut VClock) -> Option<(usize, Bytes)> {
        self.ep
            .try_recv_match(MsgClass::P2p, Match::tagged(tag as u64), clock)
            .map(|pkt| (pkt.src, pkt.payload))
    }

    // ---- collective plumbing -------------------------------------------

    /// Send within a collective: tag encodes (sequence, phase).
    pub(crate) fn coll_send(
        &self,
        dst: usize,
        seq: u64,
        phase: u8,
        data: Bytes,
        clock: &mut VClock,
    ) {
        self.ep
            .send(dst, MsgClass::Coll, coll_tag(seq, phase), data, clock);
    }

    /// Receive within a collective.
    pub(crate) fn coll_recv(&self, src: usize, seq: u64, phase: u8, clock: &mut VClock) -> Bytes {
        let pkt = self
            .ep
            .recv(
                MsgClass::Coll,
                Match::src_tag(src, coll_tag(seq, phase)),
                clock,
            )
            .expect("communicator used after shutdown");
        pkt.payload
    }
}

fn coll_tag(seq: u64, phase: u8) -> u64 {
    seq * 16 + phase as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype;
    use parade_net::{Fabric, NetProfile};
    use std::sync::Arc;

    pub(crate) fn make_comms(n: usize) -> Vec<Arc<Communicator>> {
        let fabric = Fabric::new(n, NetProfile::zero());
        (0..n)
            .map(|i| Arc::new(Communicator::new(fabric.endpoint(i))))
            .collect()
    }

    #[test]
    fn p2p_roundtrip() {
        let comms = make_comms(2);
        let c1 = Arc::clone(&comms[1]);
        let t = std::thread::spawn(move || {
            let mut clk = VClock::manual();
            let (src, b) = c1.recv_bytes_any(5, &mut clk);
            (src, datatype::bytes_to_f64s(&b))
        });
        let mut clk = VClock::manual();
        comms[0].send_bytes(1, 5, datatype::f64s_to_bytes(&[1.0, 2.0, 3.0]), &mut clk);
        assert_eq!(t.join().unwrap(), (0, vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn self_send() {
        let comms = make_comms(1);
        let mut clk = VClock::manual();
        comms[0].send_bytes(0, 9, datatype::i64s_to_bytes(&[-4, 7]), &mut clk);
        let (src, back) = comms[0].recv_bytes_any(9, &mut clk);
        assert_eq!((src, datatype::bytes_to_i64s(&back)), (0, vec![-4, 7]));
    }
}
