//! The communication-thread side of the DSM protocol.
//!
//! Each node dedicates one thread to servicing asynchronous protocol
//! requests (§5.3): page fetches, diff merges, migration pushes, barrier
//! coordination (node 0 doubles as the barrier master), and the
//! distributed-lock managers. The thread's virtual clock models the server:
//! service start = max(request arrival, server clock) + scheduling penalty,
//! so queueing at hot homes and the 1Thread-1CPU degradation both emerge
//! naturally.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parade_net::threads::{spawn_named, Joiner};
use parade_net::{Bytes, Match, MsgClass, Packet, VClock, VTime};
use parade_trace::{self as trace, EventKind};

use crate::adapt::{pick_home, ProtocolTable};
use crate::config::{CommCosts, HomePolicy};
use crate::engine::Dsm;
use crate::msg::{DepartEntry, DsmMsg, DsmReply, PageReq};
use crate::page::{PageId, PageState, PAGE_SIZE};

/// The communication thread's context: its virtual service clock and cost
/// model.
pub struct CommServer {
    pub clock: VClock,
    costs: CommCosts,
}

impl CommServer {
    pub fn new(costs: CommCosts) -> Self {
        CommServer {
            clock: VClock::manual(),
            costs,
        }
    }

    fn begin_service(&mut self, arrive: VTime) {
        // The scheduling penalty models waking the communication thread on
        // a busy CPU. It applies per wakeup *burst*: if the server's clock
        // has already passed the arrival (requests queued while it was
        // busy), the thread is still running and services the next message
        // without being re-scheduled.
        if arrive > self.clock.now() {
            self.clock.sync_to(arrive);
            self.clock.charge_comm(self.costs.service_penalty);
        }
        self.clock.charge(self.costs.base);
    }

    fn charge_copy(&mut self, bytes: usize) {
        self.clock.charge(VTime::from_nanos(
            (self.costs.per_byte_ns * bytes as f64).round() as u64,
        ));
    }
}

/// Aggregation state of one hierarchical-barrier sequence at this node:
/// everything collected from the local arrival and the subtrees rooted at
/// this node's tree children, awaiting the last contribution.
#[derive(Default)]
struct TreeBarrier {
    /// (node, reply tag) of every member in the subtree seen so far.
    members: Vec<(usize, u64)>,
    /// The subtree's write notices as flat `(page, writer node)` pairs:
    /// contributions are appended as they come and sorted once, when the
    /// subtree completes.
    writers: Vec<(PageId, usize)>,
    /// Its read observations in the same shape (sharer evidence for
    /// the root's protocol table).
    readers: Vec<(PageId, usize)>,
    /// Virtual arrival time of each contribution. Service cost is charged
    /// in one deterministic burst at completion (sorted fold), so the
    /// barrier's virtual time is independent of the real-time order in
    /// which the tree packets happened to be serviced.
    arrivals_at: Vec<VTime>,
}

/// Parent of `node` in the binomial aggregation tree rooted at node 0
/// (clearing the lowest set bit walks toward the root).
fn tree_parent(node: usize) -> usize {
    debug_assert!(node > 0, "the root has no parent");
    node & (node - 1)
}

/// Number of direct children of `node` in an `nnodes`-node binomial tree:
/// `node + 2^k` for every `2^k` below `node`'s lowest set bit (all powers
/// of two for the root), clipped to the node count.
fn tree_child_count(node: usize, nnodes: usize) -> usize {
    let lsb = if node == 0 {
        usize::MAX
    } else {
        node & node.wrapping_neg()
    };
    let mut count = 0;
    let mut step = 1;
    while step < lsb && node + step < nnodes {
        count += 1;
        step <<= 1;
    }
    count
}

#[derive(Default)]
struct LockState {
    held_by: Option<usize>,
    queue: VecDeque<Waiter>,
    /// (notice sequence, pages) of past releases.
    history: Vec<(u64, Vec<PageId>)>,
    seq: u64,
}

struct Waiter {
    node: usize,
    reply_tag: u64,
    last_seen: u64,
}

/// Mutable state owned by the communication thread (behind the `Dsm`'s
/// server mutex so tests can drive handling manually).
#[derive(Default)]
pub struct ServerState {
    /// Page fetches waiting for this node to become their home, or for
    /// their copies to become readable.
    deferred: Vec<PageReq>,
    tree: HashMap<u64, TreeBarrier>,
    locks: HashMap<u64, LockState>,
    /// Per-page protocol-selection history (only consulted at the barrier
    /// root, node 0).
    proto: ProtocolTable,
}

impl Dsm {
    /// Run the communication-thread service loop until fabric shutdown.
    pub fn serve_loop(self: &Arc<Self>, srv: &mut CommServer) {
        while let Ok(pkt) = self.ep.recv_raw(MsgClass::Dsm, Match::any()) {
            self.handle_packet(pkt, srv);
        }
        // Fail-stop teardown: compute threads parked on page condvars
        // (TRANSIENT/BLOCKED waits, re-home push parks) are waiting for
        // *this* thread to complete a protocol step that will now never
        // happen. Wake them so they observe the shutdown and unwind
        // instead of deadlocking the node join.
        self.wake_page_waiters();
    }

    /// Handle one protocol request (exposed for deterministic tests).
    pub fn handle_packet(&self, pkt: Packet, srv: &mut CommServer) {
        let msg = self.expect_frame(
            &pkt,
            DsmMsg::try_decode(&pkt.payload, self.pages.extent(), self.nnodes()),
        );
        if matches!(msg, DsmMsg::Nudge) {
            // Local bookkeeping wake-up, not a serviced request.
            self.retry_deferred(srv);
            return;
        }
        if matches!(msg, DsmMsg::BarrierArrive { .. } | DsmMsg::BarrierUp { .. }) {
            // Tree contributions are only *collected* here; their service
            // cost is charged in one sorted burst when the subtree
            // completes, so the barrier's virtual time does not depend on
            // the racy real-time order the packets were pulled in.
            self.tree_barrier_step(msg, pkt.arrive_at, srv);
            return;
        }
        // Queueing delay: how long the request sat behind earlier service
        // (zero when the server was idle at arrival). Computed before
        // begin_service folds the arrival into the service clock.
        let queued_ns = srv
            .clock
            .now()
            .as_nanos()
            .saturating_sub(pkt.arrive_at.as_nanos());
        srv.begin_service(pkt.arrive_at);
        trace::begin_arg(EventKind::CommService, queued_ns, srv.clock.now());
        self.stats.serviced_requests.fetch_add(1, Ordering::Relaxed);
        match msg {
            DsmMsg::ReqPages(req) => self.serve_or_defer(req, srv),
            DsmMsg::DiffBatch {
                requester,
                reply_tag,
                pages,
                diffs,
            } => {
                debug_assert_eq!(pages.len(), diffs.len(), "ragged diff batch");
                let payload: usize = diffs.iter().map(|d| d.payload_bytes()).sum();
                srv.charge_copy(payload);
                for (&page, diff) in pages.iter().zip(&diffs) {
                    self.merge_diff(page, diff);
                }
                self.reply(
                    requester,
                    reply_tag,
                    DsmReply::DiffBatchAck {
                        pages: pages.len() as u32,
                    },
                    srv,
                );
            }
            DsmMsg::PagePush {
                page,
                barrier_seq,
                data,
            } => {
                srv.charge_copy(data.len());
                {
                    let meta = &self.pages[page];
                    let mut inner = meta.inner.lock();
                    // SAFETY: pushes only target parked or self-written
                    // pages whose application threads are held at the
                    // barrier; see §5.2.2 ordering argument in DESIGN.md.
                    unsafe { self.pool.copy_page_in(page, &data) };
                    inner.pushed_seq = barrier_seq + 1;
                    if inner.awaiting_push && barrier_seq >= inner.awaiting_seq {
                        // The departure parked the page for this push (or an
                        // older one this push supersedes — same home, FIFO
                        // link, so a newer push carries a newer merge);
                        // BLOCKED -> READ_ONLY is the only legal exit.
                        debug_assert_eq!(
                            inner.state,
                            PageState::Blocked,
                            "push for page {page} found an unparked waiter"
                        );
                        inner.awaiting_push = false;
                        meta.set_state(&mut inner, PageState::ReadOnly);
                        meta.cv.notify_all();
                    } else if inner.awaiting_push {
                        // A stale push: the page was re-parked for a later
                        // interval before this interval's push landed. The
                        // bytes are already copied in (an older merge never
                        // hurts — the awaited push overwrites them, FIFO on
                        // the same home link); stay parked for the newer one.
                    } else if inner.state == PageState::Invalid {
                        // The push beat our departure application (it can
                        // only land while our threads are held at the
                        // barrier, so no later invalidation raced it): the
                        // merged bytes are now resident — mark them usable
                        // so the departure does not park and a later fault
                        // does not try to fetch a page we now home. The
                        // push is an update that began and completed in one
                        // step, so walk the legal INVALID→TRANSIENT→
                        // READ_ONLY path under the one lock hold.
                        meta.set_state(&mut inner, PageState::Transient);
                        meta.set_state(&mut inner, PageState::ReadOnly);
                    }
                }
                self.retry_deferred(srv);
            }
            DsmMsg::PushReq {
                page,
                barrier_seq,
                requester,
            } => {
                // `requester` just became the page's home at `barrier_seq`
                // but found its own copy invalid (a lock-grant write notice
                // can invalidate even the single writer's copy under false
                // sharing). We are the old home and still hold the merged
                // interval bytes: every diff of the single writer came here
                // eagerly (its lock release, or the grant that invalidated
                // its dirty copy), and node 0 keeps them even in a fresh
                // page's invalidated copy (see `Dsm::page_bytes`). No node
                // can write the page until this push lands, because the new
                // home defers all fetches while parked. Note
                // `try_serve_pages` would refuse: we are no longer
                // `home_of(page)`.
                let data = self.page_bytes(page);
                srv.charge_copy(PAGE_SIZE);
                let push = DsmMsg::PagePush {
                    page,
                    barrier_seq,
                    data,
                };
                self.ep
                    .send_at(requester, MsgClass::Dsm, 0, push.encode(), srv.clock.now());
                self.stats.pushes_sent.fetch_add(1, Ordering::Relaxed);
                trace::instant(EventKind::DsmPush, page as u64, srv.clock.now());
            }
            DsmMsg::LockAcq {
                lock,
                node,
                reply_tag,
                last_seen,
            } => {
                let mut st = self.server.lock();
                let ls = st.locks.entry(lock).or_default();
                if ls.held_by.is_none() {
                    ls.held_by = Some(node);
                    let grant = make_grant(ls, last_seen);
                    drop(st);
                    self.reply(node, reply_tag, grant, srv);
                } else {
                    ls.queue.push_back(Waiter {
                        node,
                        reply_tag,
                        last_seen,
                    });
                }
            }
            DsmMsg::LockRel {
                lock,
                node,
                notices,
            } => {
                let granted = {
                    let mut st = self.server.lock();
                    let ls = st.locks.entry(lock).or_default();
                    debug_assert_eq!(ls.held_by, Some(node), "release by non-holder");
                    ls.seq += 1;
                    let s = ls.seq;
                    ls.history.push((s, notices));
                    ls.held_by = None;
                    if let Some(w) = ls.queue.pop_front() {
                        ls.held_by = Some(w.node);
                        Some((w.node, w.reply_tag, make_grant(ls, w.last_seen)))
                    } else {
                        None
                    }
                };
                if let Some((n, t, g)) = granted {
                    self.reply(n, t, g, srv);
                }
            }
            DsmMsg::Nudge | DsmMsg::BarrierArrive { .. } | DsmMsg::BarrierUp { .. } => {
                unreachable!("handled above")
            }
        }
        trace::end(EventKind::CommService, srv.clock.now());
    }

    fn reply(&self, node: usize, tag: u64, reply: DsmReply, srv: &mut CommServer) {
        self.ep
            .send_at(node, MsgClass::Ctl, tag, reply.encode(), srv.clock.now());
    }

    /// Merge one page's diff into the home copy (word runs under the page
    /// lock). Disjoint writers' diffs for the same page merge run by run,
    /// whether they arrive in one batch or across batches.
    fn merge_diff(&self, page: PageId, diff: &crate::diff::Diff) {
        debug_assert_eq!(
            self.home_of(page),
            self.node(),
            "diff for page {page} routed to non-home"
        );
        self.stats.diff_merges.fetch_add(1, Ordering::Relaxed);
        let meta = &self.pages[page];
        let _inner = meta.inner.lock();
        // We are the page's home: its copy is never absent or
        // mid-fetch here (fetch_pages targets remote homes only).
        debug_assert!(
            !matches!(_inner.state, PageState::Invalid | PageState::Transient),
            "diff shipped to a non-resident home copy of page {page}: {:?}",
            _inner.state
        );
        let start = page * PAGE_SIZE;
        for run in &diff.runs {
            // SAFETY: we are home; run bounds are within the page (enforced
            // by `Diff::decode` for wire-received diffs).
            unsafe {
                self.pool
                    .write_bytes(start + run.offset as usize, &run.data)
            };
        }
    }

    /// Serve a page request if every page of it is homed here and readable;
    /// returns false when it must be deferred (we are not yet home, or a
    /// page awaits a migration push — homes only move in lockstep at
    /// barriers, so a mixed range means a push is still in flight).
    fn try_serve_pages(&self, req: &PageReq, srv: &mut CommServer) -> bool {
        let (first, count) = (req.first, req.count as usize);
        for page in first..first + count {
            if self.home_of(page) != self.node() || !self.page_state(page).readable() {
                return false;
            }
        }
        let mut buf = vec![0u8; count * PAGE_SIZE];
        for (k, chunk) in buf.chunks_exact_mut(PAGE_SIZE).enumerate() {
            // SAFETY: home copy is valid; concurrent word-level writes by
            // local application threads are application races, as on real
            // SDSM.
            unsafe { self.pool.copy_page_out(first + k, chunk) };
        }
        srv.charge_copy(count * PAGE_SIZE);
        let data = Bytes::from(buf);
        self.reply(
            req.requester,
            req.reply_tag,
            DsmReply::Pages { first, data },
            srv,
        );
        true
    }

    fn serve_or_defer(&self, req: PageReq, srv: &mut CommServer) {
        if !self.try_serve_pages(&req, srv) {
            self.server.lock().deferred.push(req);
        }
    }

    /// Re-examine deferred page requests (after home migrations or pushes).
    fn retry_deferred(&self, srv: &mut CommServer) {
        let pending = std::mem::take(&mut self.server.lock().deferred);
        for req in pending {
            self.serve_or_defer(req, srv);
        }
    }

    /// One contribution to this node's subtree of the hierarchical barrier:
    /// the local application thread's arrival, or a child communication
    /// thread's aggregated `BarrierUp`. When the subtree completes, either
    /// forward one `BarrierUp` to the tree parent or (at the root) decide
    /// the departure and fan it out to every member.
    fn tree_barrier_step(&self, msg: DsmMsg, arrive_at: VTime, srv: &mut CommServer) {
        let (seq, members, writers, readers) = match msg {
            DsmMsg::BarrierArrive {
                seq,
                node,
                reply_tag,
                notices,
                reads,
            } => {
                debug_assert_eq!(
                    node,
                    self.node(),
                    "hierarchical arrivals go to the arriving node's own comm thread"
                );
                let writers = notices.into_iter().map(|p| (p, node)).collect();
                let readers = reads.into_iter().map(|p| (p, node)).collect();
                (seq, vec![(node, reply_tag)], writers, readers)
            }
            DsmMsg::BarrierUp {
                seq,
                members,
                writers,
                readers,
            } => (seq, members, writers, readers),
            _ => unreachable!("not a tree barrier message"),
        };
        let expected = 1 + tree_child_count(self.node(), self.nnodes());
        let complete = {
            let mut st = self.server.lock();
            let tb = st.tree.entry(seq).or_default();
            tb.members.extend(members);
            tb.writers.extend(writers);
            tb.readers.extend(readers);
            tb.arrivals_at.push(arrive_at);
            tb.arrivals_at.len() == expected
        };
        if !complete {
            return;
        }
        let mut tb = self
            .server
            .lock()
            .tree
            .remove(&seq)
            .expect("just completed");
        // Every contribution is sorted by (page, node) on its own; their
        // concatenation is sorted only when the subtrees' pages happen not
        // to interleave (always, for a leaf or a single node). Sorting
        // here makes the payload — wire bytes, their cost, the decisions —
        // independent of contribution order. Pairs are unique (a node
        // notes a page once per interval), so an unstable sort is exact.
        for list in [&mut tb.writers, &mut tb.readers] {
            if !list.is_sorted() {
                list.sort_unstable();
            }
        }
        // Deterministic service fold: charge the whole burst in arrival-time
        // order, regardless of the order the packets were actually handled.
        let mut arrivals_at = tb.arrivals_at;
        arrivals_at.sort_unstable();
        trace::begin_arg(
            EventKind::CommService,
            arrivals_at.len() as u64,
            srv.clock.now(),
        );
        for &t in &arrivals_at {
            srv.begin_service(t);
        }
        self.stats
            .serviced_requests
            .fetch_add(arrivals_at.len() as u64, Ordering::Relaxed);
        if self.node() == 0 {
            let entries = self.decide_entries(&tb.writers, &tb.readers);
            self.send_depart(seq, entries, tb.members, srv);
        } else {
            let mut members = tb.members;
            members.sort_unstable_by_key(|&(node, _)| node);
            let up = DsmMsg::BarrierUp {
                seq,
                members,
                writers: tb.writers,
                readers: tb.readers,
            };
            let wire = up.encode();
            srv.charge_copy(wire.len());
            self.ep.send_at(
                tree_parent(self.node()),
                MsgClass::Dsm,
                0,
                wire,
                srv.clock.now(),
            );
        }
        trace::end(EventKind::CommService, srv.clock.now());
    }

    /// Decide home migrations (§5.2.2) and per-page protocols from the
    /// merged, sorted `(page, writer)` / `(page, reader)` lists: one
    /// merge-join over pages in id order, so the entries (and the protocol
    /// table they evolve) do not depend on the order the tree merged them
    /// in.
    fn decide_entries(
        &self,
        writers: &[(PageId, usize)],
        readers: &[(PageId, usize)],
    ) -> Vec<DepartEntry> {
        /// Move the run of `page`'s nodes at the head of `list` into `out`.
        fn take_page(list: &mut &[(PageId, usize)], page: PageId, out: &mut Vec<usize>) {
            out.clear();
            let run = list.iter().take_while(|&&(p, _)| p == page).count();
            out.extend(list[..run].iter().map(|&(_, node)| node));
            *list = &list[run..];
        }
        let mode = self.config().proto_select;
        let fixed_homes = self.config().home_policy == HomePolicy::Fixed;
        let (mut writers, mut readers) = (writers, readers);
        let (mut w, mut rd) = (Vec::new(), Vec::new());
        let mut entries = Vec::new();
        let mut flips = 0u64;
        let mut st = self.server.lock();
        loop {
            let page = match (writers.first(), readers.first()) {
                (Some(&(p, _)), Some(&(q, _))) => p.min(q),
                (Some(&(p, _)), None) | (None, Some(&(p, _))) => p,
                (None, None) => break,
            };
            take_page(&mut writers, page, &mut w);
            take_page(&mut readers, page, &mut rd);
            if w.is_empty() {
                // Sharer evidence for pages *not* written this interval
                // still accumulates: a read-mostly interval followed by a
                // write interval must already know the page's audience.
                st.proto.note_readers(page, &rd);
                continue;
            }
            let old_home = self.home_of(page);
            let new_home = if fixed_homes {
                old_home
            } else {
                pick_home(&w, old_home)
            };
            let d = st.proto.decide(mode, page, &rd, old_home, new_home);
            flips += d.flipped as u64;
            entries.push(DepartEntry {
                page,
                old_home,
                new_home,
                multi_writer: w.len() > 1,
                update: d.update,
                sharers: d.sharers,
            });
        }
        drop(st);
        if flips > 0 {
            self.stats.proto_flips.fetch_add(flips, Ordering::Relaxed);
        }
        entries
    }

    /// Fan the departure out to every member waiting on this barrier.
    fn send_depart(
        &self,
        seq: u64,
        entries: Vec<DepartEntry>,
        mut members: Vec<(usize, u64)>,
        srv: &mut CommServer,
    ) {
        let reply = DsmReply::BarrierDepart { seq, entries };
        let payload = reply.encode();
        srv.charge_copy(payload.len());
        // Release the master's own caller last: every remote departure is
        // queued before any local thread can resume past the barrier and
        // (on a dead link) shut the fabric down, so a peer still parked in
        // `Dsm::barrier` finds its departure rather than `Disconnected`.
        members.sort_unstable_by_key(|&(node, _)| (node == self.node(), node));
        for &(node, reply_tag) in &members {
            self.ep.send_at(
                node,
                MsgClass::Ctl,
                reply_tag,
                payload.clone(),
                srv.clock.now(),
            );
        }
    }
}

/// Start the communication thread for `dsm`. It ends when the fabric shuts
/// down; joining it yields the final service clock (for diagnostics).
///
/// If it unwinds — a request that does not decode, a protocol invariant
/// broken — the run is dead: every thread waiting on a reply from this one
/// would wait forever. So it takes the fabric down and wakes its node's
/// page waiters, as a clean exit does, before the panic goes on to
/// whoever joins it.
pub fn spawn_comm_thread(dsm: Arc<Dsm>) -> Joiner<VTime> {
    spawn_named(format!("parade-comm-{}", dsm.node()), move || {
        trace::set_identity(dsm.node(), "comm");
        let mut srv = CommServer::new(dsm.config().comm);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| dsm.serve_loop(&mut srv))) {
            dsm.ep.fabric().begin_shutdown();
            dsm.wake_page_waiters();
            resume_unwind(panic);
        }
        srv.clock.now()
    })
}

fn make_grant(ls: &LockState, last_seen: u64) -> DsmReply {
    let mut notices: Vec<PageId> = ls
        .history
        .iter()
        .filter(|(s, _)| *s > last_seen)
        .flat_map(|(_, pages)| pages.iter().copied())
        .collect();
    notices.sort_unstable();
    notices.dedup();
    DsmReply::LockGrant {
        cur_seq: ls.seq,
        notices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tree_shape() {
        assert_eq!(tree_parent(1), 0);
        assert_eq!(tree_parent(2), 0);
        assert_eq!(tree_parent(3), 2);
        assert_eq!(tree_parent(5), 4);
        assert_eq!(tree_parent(6), 4);
        assert_eq!(tree_parent(7), 6);
        assert_eq!(tree_parent(12), 8);
        // Root adopts 1, 2, 4, 8, ... up to the node count.
        assert_eq!(tree_child_count(0, 1), 0);
        assert_eq!(tree_child_count(0, 2), 1);
        assert_eq!(tree_child_count(0, 8), 3);
        assert_eq!(tree_child_count(0, 9), 4);
        assert_eq!(tree_child_count(0, 256), 8);
        // Odd nodes are leaves; interior nodes stop at the clip.
        assert_eq!(tree_child_count(1, 8), 0);
        assert_eq!(tree_child_count(2, 8), 1);
        assert_eq!(tree_child_count(4, 8), 2);
        assert_eq!(tree_child_count(4, 6), 1);
        assert_eq!(tree_child_count(6, 7), 0);
    }

    #[test]
    fn every_node_reaches_the_root_and_counts_add_up() {
        for nnodes in 1..=40usize {
            let mut total_children = 0;
            for node in 0..nnodes {
                total_children += tree_child_count(node, nnodes);
                if node > 0 {
                    // Walk to the root; parents strictly decrease.
                    let mut cur = node;
                    let mut hops = 0;
                    while cur != 0 {
                        let p = tree_parent(cur);
                        assert!(p < cur);
                        cur = p;
                        hops += 1;
                        assert!(hops <= usize::BITS as usize);
                    }
                }
            }
            // Every non-root node is someone's child exactly once.
            assert_eq!(total_children, nnodes - 1, "nnodes={nnodes}");
        }
    }
}
