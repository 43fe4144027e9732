//! The per-node task scheduler: deque, ship-at-spawn placement, Safra's
//! token termination detection and the result merge.
//!
//! One [`NodeSched`] exists per node per task phase, driven by that node's
//! lead thread. It is a *steppable state machine*: [`NodeSched::step`]
//! drains pending scheduler messages, executes at most one ready task, and
//! performs idle-time protocol actions (token forwarding). A live cluster
//! pumps it with a blocking receive when idle ([`run_to_merge`]);
//! benchmarks drive many schedulers round-robin from a single thread,
//! which never blocks and is therefore fully deterministic in virtual
//! time.
//!
//! ## Placement
//!
//! A task is placed once, when it is created, and never moves again: each
//! node hands its spawns — root and child alike — to the nodes
//! round-robin, starting with itself, so spawn `k` of node `s` runs on
//! node `(s + k) mod N`. A task for another node travels in one `Task`
//! frame; one for this node joins its deque. Ready tasks live in one
//! `VecDeque` per node (compute threads of a node form one OpenMP team, so
//! the node is the worker), and the owner pops from the back (LIFO —
//! depth-first, cache-friendly).
//!
//! ## Termination
//!
//! Safra's algorithm over the node ring: every *counted* message
//! ([`SchedMsg::counted`]) bumps the sender's message balance and blackens
//! the receiver; a node is passive when its root body is done and its
//! deque is empty, and a passive node initiates no counted message, which
//! is what Safra's proof asks. The root launches a white token when
//! passive; each node forwards it only while passive, adding its balance
//! and its color, and whitens after forwarding. A white token returning to
//! a white root with a zero global balance proves quiescence: the root
//! then broadcasts `Done`.
//!
//! ## The merge
//!
//! A task's result stays on the node that ran it: a shipped task costs its
//! one `Task` frame and nothing more. One all-to-all exchange: on `Done`
//! (the root: on its own successful probe) every node sends one `Result` —
//! the results of the tasks it executed, its spawn/execute counters and
//! whether it wrote a shared page ([`TaskExecutor::wrote`]) — to every
//! other node. Each node then holds all `nnodes` contributions, audits
//! exactly-once execution itself (`sum(spawned) == sum(executed) ==
//! results`, ids unique) and sorts the merge by id, so every node ends
//! with the same bytes and the same OR of the write flags
//! ([`NodeSched::any_node_wrote`]). A peer's `Result` can arrive before the
//! node's own `Done`, so it is accepted in any state; each node consumes
//! exactly `nnodes - 1` of them, and no frame of the phase outlives it.

use std::collections::VecDeque;
use std::sync::Arc;

use parade_mpi::Communicator;
use parade_net::VClock;
use parade_trace as trace;
use parade_trace::EventKind;

use crate::wire::{SchedMsg, TaskDesc, TAG_SCHED};

/// Handed to an executing task body; collects child spawns, which the
/// scheduler places after the body returns, as the executing node's next
/// spawns.
pub struct TaskCtx {
    parent: u64,
    ord: u64,
    spawned: Vec<TaskDesc>,
}

impl TaskCtx {
    /// Spawn a child task. Child ids are a pure function of the parent id
    /// and the spawn ordinal, so they are schedule-independent. At most
    /// 32767 children per task keep ids collision-free.
    pub fn spawn(&mut self, func: u32, args: Vec<u64>) -> u64 {
        assert!(self.ord < 32_767, "too many children for one task");
        let id = child_id(self.parent, self.ord);
        self.ord += 1;
        self.spawned.push(TaskDesc { id, func, args });
        id
    }
}

/// Child `ord` of task `parent`: even, disjoint from root ids (odd).
pub fn child_id(parent: u64, ord: u64) -> u64 {
    parent.wrapping_mul(65_536).wrapping_add(2 * (ord + 1))
}

/// Supplies task bodies, and tells the merge whether this node wrote.
///
/// `wrote` answers, once the phase has terminated, whether this node wrote
/// a shared page since the phase began; the default fits task bodies whose
/// data rides entirely in descriptors and results.
pub trait TaskExecutor {
    fn exec(&mut self, desc: &TaskDesc, tctx: &mut TaskCtx, clock: &mut VClock) -> Vec<f64>;

    fn wrote(&mut self) -> bool {
        false
    }
}

impl<F> TaskExecutor for F
where
    F: FnMut(&TaskDesc, &mut TaskCtx, &mut VClock) -> Vec<f64>,
{
    fn exec(&mut self, desc: &TaskDesc, tctx: &mut TaskCtx, clock: &mut VClock) -> Vec<f64> {
        self(desc, tctx, clock)
    }
}

/// Outcome of one [`NodeSched::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Progress was made (message handled, task executed, protocol action).
    Worked,
    /// Nothing to do until a message arrives.
    Idle,
    /// The merged result is available ([`NodeSched::take_merged`]).
    Finished,
}

/// One node's scheduler for one task phase.
pub struct NodeSched {
    comm: Arc<Communicator>,
    node: usize,
    nnodes: usize,
    deque: VecDeque<TaskDesc>,
    /// Results of the tasks this node executed, in execution order.
    results: IdResults,
    root_ord: u64,
    /// Tasks this node has spawned, roots and children: the ordinal that
    /// places the next one.
    spawned: u64,
    /// Safra: counted messages sent minus received.
    balance: i64,
    black: bool,
    body_done: bool,
    /// Held token, if any (count, black).
    token: Option<(i64, bool)>,
    /// Root: a probe is circulating.
    probing: bool,
    /// This node has sent its own `Result`: the phase has terminated.
    contributed: bool,
    /// Contributions to the merge, this node's own included: (results,
    /// spawned, executed).
    gathered: Vec<(IdResults, u64, u64)>,
    /// OR of the contributions' `wrote` flags.
    any_wrote: bool,
    merged: Option<IdResults>,
}

/// Id-tagged task results, as contributed per node and merged id-sorted.
type IdResults = Vec<(u64, Vec<f64>)>;

impl NodeSched {
    pub fn new(comm: Arc<Communicator>) -> Self {
        let node = comm.rank();
        let nnodes = comm.size();
        NodeSched {
            comm,
            node,
            nnodes,
            deque: VecDeque::new(),
            results: Vec::new(),
            root_ord: 0,
            spawned: 0,
            balance: 0,
            black: false,
            body_done: false,
            token: None,
            probing: false,
            contributed: false,
            gathered: Vec::new(),
            any_wrote: false,
            merged: None,
        }
    }

    pub fn node(&self) -> usize {
        self.node
    }

    // ---- spawning --------------------------------------------------------

    /// Spawn a root task on this node. Root ids encode (node, ordinal), so
    /// they are unique and schedule-independent: `2*(ord*nnodes+node)+1`.
    pub fn spawn(&mut self, func: u32, args: Vec<u64>, clock: &mut VClock) -> u64 {
        let id = 2 * (self.root_ord * self.nnodes as u64 + self.node as u64) + 1;
        self.root_ord += 1;
        self.push_spawn(TaskDesc { id, func, args }, clock);
        id
    }

    /// Count a freshly spawned task and place it on the next node of this
    /// node's round-robin: its own deque, or another node's by a `Task`.
    fn push_spawn(&mut self, desc: TaskDesc, clock: &mut VClock) {
        if trace::enabled() {
            trace::instant(EventKind::TaskSpawn, desc.id, clock.now());
        }
        let dst = ((self.node as u64 + self.spawned) % self.nnodes as u64) as usize;
        self.spawned += 1;
        if dst == self.node {
            self.deque.push_back(desc);
        } else {
            self.send_counted(dst, &SchedMsg::Task(desc), clock);
        }
    }

    // ---- message plumbing ------------------------------------------------

    fn send_counted(&mut self, dst: usize, msg: &SchedMsg, clock: &mut VClock) {
        debug_assert!(msg.counted());
        self.balance += 1;
        self.comm.send_bytes(dst, TAG_SCHED, msg.encode(), clock);
    }

    fn send_uncounted(&self, dst: usize, msg: &SchedMsg, clock: &mut VClock) {
        debug_assert!(!msg.counted());
        self.comm.send_bytes(dst, TAG_SCHED, msg.encode(), clock);
    }

    fn handle<E: TaskExecutor>(
        &mut self,
        src: usize,
        bytes: &[u8],
        ex: &mut E,
        clock: &mut VClock,
    ) {
        // Fail-stop: the node program's panic is what `FailedRun` reports.
        let msg = SchedMsg::try_decode(bytes).unwrap_or_else(|e| {
            panic!(
                "node {}: bad scheduler frame from node {src} on tag {TAG_SCHED:#x}: {e}",
                self.node
            )
        });
        if msg.counted() {
            self.balance -= 1;
            self.black = true;
        }
        match msg {
            SchedMsg::Task(desc) => self.deque.push_back(desc),
            SchedMsg::Token { count, black } => self.on_token(count, black),
            SchedMsg::Done => {
                debug_assert_ne!(self.node, 0);
                self.contribute(ex, clock);
            }
            SchedMsg::Result {
                results,
                spawned,
                executed,
                wrote,
            } => {
                // May come before this node's own `Done`: the sender heard
                // it first. Quiescence already holds either way.
                self.gathered.push((results, spawned, executed));
                self.any_wrote |= wrote;
                self.try_merge();
            }
        }
    }

    // ---- execution -------------------------------------------------------

    fn run_one<E: TaskExecutor>(&mut self, desc: TaskDesc, ex: &mut E, clock: &mut VClock) {
        if trace::enabled() {
            trace::begin_arg(EventKind::TaskExec, desc.id, clock.now());
        }
        let mut tctx = TaskCtx {
            parent: desc.id,
            ord: 0,
            spawned: Vec::new(),
        };
        let result = ex.exec(&desc, &mut tctx, clock);
        for child in tctx.spawned {
            self.push_spawn(child, clock);
        }
        self.results.push((desc.id, result));
        if trace::enabled() {
            trace::end(EventKind::TaskExec, clock.now());
        }
    }

    // ---- termination (Safra's token) ------------------------------------

    /// Safra-passive: may this node forward (or launch) the token? Only a
    /// node that runs a task sends a counted message (its children's
    /// `Task` frames), so a node with its body done and nothing queued
    /// initiates none. (An arriving `Task` makes it active again, which
    /// is fine: the message that reactivated it blackened it.)
    fn passive(&self) -> bool {
        self.body_done && self.deque.is_empty()
    }

    fn on_token(&mut self, count: i64, black: bool) {
        if self.node == 0 {
            self.probing = false;
            if !black && !self.black && count + self.balance == 0 {
                self.token = Some((0, false)); // mark: terminated, begin Done
            }
            self.black = false;
            if self.token.is_none() {
                // Failed probe; a new one launches from idle_actions once
                // the root is passive again.
                return;
            }
            // Termination path: handled in idle_actions via begin_done.
            self.probing = true; // block further probes
        } else {
            self.token = Some((count, black));
        }
    }

    /// Idle-time protocol actions; returns true if anything was done.
    fn idle_actions<E: TaskExecutor>(&mut self, ex: &mut E, clock: &mut VClock) -> bool {
        if self.contributed || !self.passive() {
            return false;
        }
        if self.node == 0 {
            if let Some((_, _)) = self.token {
                // Successful probe stored by on_token: terminate.
                self.token = None;
                self.begin_done(ex, clock);
                return true;
            }
            if !self.probing {
                self.probing = true;
                if self.nnodes == 1 {
                    debug_assert_eq!(self.balance, 0);
                    self.begin_done(ex, clock);
                } else {
                    self.send_uncounted(
                        1,
                        &SchedMsg::Token {
                            count: 0,
                            black: false,
                        },
                        clock,
                    );
                }
                return true;
            }
        } else if let Some((count, black)) = self.token.take() {
            let next = (self.node + 1) % self.nnodes;
            self.send_uncounted(
                next,
                &SchedMsg::Token {
                    count: count + self.balance,
                    black: black || self.black,
                },
                clock,
            );
            self.black = false;
            return true;
        }
        false
    }

    /// Root: quiescence proven. Broadcast `Done`, then contribute like
    /// every other node.
    fn begin_done<E: TaskExecutor>(&mut self, ex: &mut E, clock: &mut VClock) {
        debug_assert_eq!(self.node, 0);
        for dst in 1..self.nnodes {
            self.send_uncounted(dst, &SchedMsg::Done, clock);
        }
        self.contribute(ex, clock);
    }

    /// The phase has terminated: send this node's `Result` to every other
    /// node (the next node first, so no node is everyone's first
    /// destination) and keep it as this node's own contribution.
    fn contribute<E: TaskExecutor>(&mut self, ex: &mut E, clock: &mut VClock) {
        debug_assert!(!self.contributed, "node {} contributed twice", self.node);
        self.contributed = true;
        let results = std::mem::take(&mut self.results);
        let own = SchedMsg::Result {
            executed: results.len() as u64,
            results,
            spawned: self.spawned,
            wrote: ex.wrote(),
        };
        if self.nnodes > 1 {
            let frame = own.encode();
            for k in 1..self.nnodes {
                let dst = (self.node + k) % self.nnodes;
                self.comm.send_bytes(dst, TAG_SCHED, frame.clone(), clock);
            }
        }
        let SchedMsg::Result {
            results,
            spawned,
            executed,
            wrote,
        } = own
        else {
            unreachable!("built as a Result above")
        };
        self.gathered.push((results, spawned, executed));
        self.any_wrote |= wrote;
        self.try_merge();
    }

    /// Once this node has contributed and holds every node's `Result`:
    /// audit exactly-once execution and keep the id-sorted merge.
    fn try_merge(&mut self) {
        if !self.contributed || self.gathered.len() < self.nnodes {
            return;
        }
        debug_assert_eq!(self.gathered.len(), self.nnodes, "a Result too many");
        let mut all: Vec<(u64, Vec<f64>)> = Vec::new();
        let mut spawned = 0u64;
        let mut executed = 0u64;
        for (rs, s, e) in self.gathered.drain(..) {
            all.extend(rs);
            spawned += s;
            executed += e;
        }
        assert_eq!(
            spawned,
            all.len() as u64,
            "task lost or duplicated: {spawned} spawned vs {} results",
            all.len()
        );
        assert_eq!(
            executed,
            all.len() as u64,
            "execution count mismatch: {executed} executed vs {} results",
            all.len()
        );
        all.sort_by_key(|(id, _)| *id);
        for w in all.windows(2) {
            assert_ne!(w[0].0, w[1].0, "task id {} executed twice", w[0].0);
        }
        self.merged = Some(all);
    }

    // ---- driving ---------------------------------------------------------

    /// The root body of this node is done spawning; termination
    /// detection may begin.
    pub fn body_done(&mut self) {
        self.body_done = true;
    }

    /// One scheduler step: drain pending messages, run at most one ready
    /// task, else perform an idle protocol action.
    pub fn step<E: TaskExecutor>(&mut self, ex: &mut E, clock: &mut VClock) -> Step {
        if self.merged.is_some() {
            return Step::Finished;
        }
        let mut worked = false;
        while let Some((src, bytes)) = self.comm.try_recv_bytes(TAG_SCHED, clock) {
            self.handle(src, &bytes, ex, clock);
            worked = true;
        }
        if self.merged.is_some() {
            return Step::Finished;
        }
        if let Some(desc) = self.deque.pop_back() {
            self.run_one(desc, ex, clock);
            return Step::Worked;
        }
        if self.idle_actions(ex, clock) {
            worked = true;
        }
        if self.merged.is_some() {
            Step::Finished
        } else if worked {
            Step::Worked
        } else {
            Step::Idle
        }
    }

    /// The merged phase result, once [`Step::Finished`].
    pub fn take_merged(&mut self) -> Option<Vec<(u64, Vec<f64>)>> {
        self.merged.take()
    }

    /// Whether any node's [`TaskExecutor::wrote`] answered `true` — the
    /// same answer on every node, once [`Step::Finished`].
    pub fn any_node_wrote(&self) -> bool {
        self.any_wrote
    }
}

/// Live-mode driver: declare the root body done, then pump (blocking on
/// the fabric when idle) until the merged result arrives. Every node of
/// the phase must call this; all nodes return the identical id-sorted
/// result vector. Traced as one `task.phase` span per node.
pub fn run_to_merge<E: TaskExecutor>(
    sched: &mut NodeSched,
    ex: &mut E,
    clock: &mut VClock,
) -> Vec<(u64, Vec<f64>)> {
    if trace::enabled() {
        trace::begin(EventKind::TaskPhase, clock.now());
    }
    sched.body_done();
    loop {
        match sched.step(ex, clock) {
            Step::Finished => {
                if trace::enabled() {
                    trace::end(EventKind::TaskPhase, clock.now());
                }
                return sched.take_merged().expect("finished implies merged");
            }
            Step::Worked => {}
            Step::Idle => {
                let (src, bytes) = sched.comm.clone().recv_bytes_any(TAG_SCHED, clock);
                sched.handle(src, &bytes, ex, clock);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_net::{Fabric, NetProfile};

    fn run_cluster(
        nnodes: usize,
        body: impl Fn(&mut NodeSched, &mut VClock) + Send + Sync + 'static,
        func: impl Fn(&TaskDesc, &mut TaskCtx) -> Vec<f64> + Send + Sync + 'static,
    ) -> Vec<Vec<(u64, Vec<f64>)>> {
        let fabric = Fabric::new(nnodes, NetProfile::zero());
        let body = Arc::new(body);
        let func = Arc::new(func);
        let handles: Vec<_> = (0..nnodes)
            .map(|n| {
                let comm = Arc::new(Communicator::new(fabric.endpoint(n)));
                let body = Arc::clone(&body);
                let func = Arc::clone(&func);
                std::thread::spawn(move || {
                    let mut clock = VClock::manual();
                    let mut sched = NodeSched::new(comm);
                    body(&mut sched, &mut clock);
                    let mut ex = move |d: &TaskDesc, t: &mut TaskCtx, _c: &mut VClock| func(d, t);
                    run_to_merge(&mut sched, &mut ex, &mut clock)
                })
            })
            .collect();
        let out: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        fabric.begin_shutdown();
        out
    }

    fn sum_func(d: &TaskDesc, _t: &mut TaskCtx) -> Vec<f64> {
        vec![d.args.iter().map(|&a| a as f64).sum::<f64>() + d.id as f64]
    }

    #[test]
    fn every_node_merges_the_same_result() {
        let views = run_cluster(
            4,
            |s: &mut NodeSched, c: &mut VClock| {
                for i in 0..8u64 {
                    s.spawn(0, vec![i, i * i], c);
                }
            },
            sum_func,
        );
        assert_eq!(views[0].len(), 32); // 8 spawns x 4 nodes
        for v in views.iter().skip(1) {
            assert_eq!(&views[0], v, "all nodes must see one merged result");
        }
    }

    #[test]
    fn child_spawns_execute_and_merge() {
        let out = run_cluster(
            2,
            |s, c| {
                if s.node() == 0 {
                    s.spawn(0, vec![3], c); // root task spawns 3 children
                }
            },
            |d: &TaskDesc, t: &mut TaskCtx| {
                if d.func == 0 {
                    for i in 0..d.args[0] {
                        t.spawn(1, vec![i]);
                    }
                    vec![]
                } else {
                    vec![d.args[0] as f64]
                }
            },
        );
        assert_eq!(out[0].len(), 4); // root + 3 children
        let child_vals: Vec<f64> = out[0]
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(_, r)| r[0])
            .collect();
        assert_eq!(child_vals, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn a_node_with_a_queued_task_holds_the_token() {
        // Safra's proof assumes passive nodes initiate no counted message.
        // A node with a task queued may still ship that task's children,
        // so it is active and must hold the token until its deque drains.
        let (fabric, comms, mut s) = hand_driven(3, 1);
        let mut clock = VClock::manual();
        let mut ex = |_: &TaskDesc, _: &mut TaskCtx, _: &mut VClock| Vec::new();
        // Node 1's first spawn stays on node 1.
        s.spawn(0, vec![], &mut clock);
        s.body_done();
        assert!(!s.passive(), "a node with a queued task must be active");
        s.token = Some((0, false));
        assert!(
            !s.idle_actions(&mut ex, &mut clock),
            "a token must be held while a task is queued"
        );
        assert!(s.token.is_some(), "token forwarded with a task queued");
        assert_eq!(s.step(&mut ex, &mut clock), Step::Worked, "runs its task");
        // Deque drained: now passive, and the token flows on to node 2.
        assert!(s.passive(), "a drained node must become passive");
        assert_eq!(s.step(&mut ex, &mut clock), Step::Worked, "forwards it");
        assert!(s.token.is_none());
        let (src, bytes) = comms[2]
            .try_recv_bytes(TAG_SCHED, &mut clock)
            .expect("the token reaches node 2");
        assert_eq!(src, 1);
        assert!(matches!(
            SchedMsg::try_decode(&bytes),
            Ok(SchedMsg::Token { .. })
        ));
        fabric.begin_shutdown();
    }

    /// A hand-driven scheduler for `node` of an `nn`-node fabric; the
    /// peers' endpoints stay raw, so a test can send it any frame from any
    /// of them.
    fn hand_driven(nn: usize, node: usize) -> (Arc<Fabric>, Vec<Arc<Communicator>>, NodeSched) {
        let fabric = Fabric::new(nn, NetProfile::zero());
        let comms: Vec<Arc<Communicator>> = (0..nn)
            .map(|n| Arc::new(Communicator::new(fabric.endpoint(n))))
            .collect();
        let s = NodeSched::new(Arc::clone(&comms[node]));
        (fabric, comms, s)
    }

    fn send(comms: &[Arc<Communicator>], src: usize, dst: usize, msg: &SchedMsg) {
        comms[src].send_bytes(dst, TAG_SCHED, msg.encode(), &mut VClock::manual());
    }

    fn result(results: IdResults, wrote: bool) -> SchedMsg {
        let n = results.len() as u64;
        SchedMsg::Result {
            results,
            spawned: n,
            executed: n,
            wrote,
        }
    }

    #[test]
    fn a_peers_result_may_arrive_before_done() {
        // Node 2 of 3 runs its one task; node 1 heard `Done` first and its
        // `Result` reaches node 2 before the root's `Done` does.
        let (fabric, comms, mut s) = hand_driven(3, 2);
        let mut clock = VClock::manual();
        let mut ex = |d: &TaskDesc, _: &mut TaskCtx, _: &mut VClock| vec![d.id as f64];
        // A node's first spawn stays on the node.
        let id = s.spawn(0, vec![], &mut clock);
        s.body_done();
        assert_eq!(s.step(&mut ex, &mut clock), Step::Worked, "runs its task");
        assert_eq!(s.step(&mut ex, &mut clock), Step::Idle);
        send(&comms, 1, 2, &result(vec![(1, vec![1.0])], true));
        assert_eq!(
            s.step(&mut ex, &mut clock),
            Step::Worked,
            "kept, not merged"
        );
        assert!(!s.contributed, "a peer's Result is not Done");
        send(&comms, 0, 2, &SchedMsg::Done);
        send(&comms, 0, 2, &result(vec![(3, vec![3.0])], false));
        assert_eq!(s.step(&mut ex, &mut clock), Step::Finished);
        let merged = s.take_merged().expect("finished");
        assert_eq!(
            merged,
            vec![(1, vec![1.0]), (3, vec![3.0]), (id, vec![id as f64])]
        );
        assert!(s.any_node_wrote(), "node 1 wrote");
        // Node 2's own Result went to each peer exactly once.
        for peer in [0, 1] {
            let (src, bytes) = comms[peer]
                .try_recv_bytes(TAG_SCHED, &mut clock)
                .expect("one Result for each peer");
            assert_eq!(src, 2);
            assert_eq!(
                SchedMsg::try_decode(&bytes),
                Ok(result(vec![(id, vec![id as f64])], false))
            );
            assert!(comms[peer].try_recv_bytes(TAG_SCHED, &mut clock).is_none());
        }
        fabric.begin_shutdown();
    }

    #[test]
    fn a_shipped_task_sends_nothing_back() {
        // Node 0 spawns 16 tasks and ships every second one to node 1. The
        // two schedulers sit on separate fabrics with the test relaying
        // between them, so it sees every frame node 1 sends node 0.
        let (near, far) = (
            Fabric::new(2, NetProfile::zero()),
            Fabric::new(2, NetProfile::zero()),
        );
        let comm = |f: &Arc<Fabric>, n| Arc::new(Communicator::new(f.endpoint(n)));
        let mut s0 = NodeSched::new(comm(&near, 0));
        let mut s1 = NodeSched::new(comm(&far, 1));
        // Node 1's stand-in for node 0, and node 0's stand-in for node 1.
        let (to_s1, to_s0) = (comm(&far, 0), comm(&near, 1));
        let mut clocks = [VClock::manual(), VClock::manual()];
        let mut relay_clock = VClock::manual();
        let shipped: Vec<u64> = (0..16u64)
            .map(|i| s0.spawn(0, vec![i], &mut clocks[0]))
            .skip(1)
            .step_by(2)
            .collect();
        s0.body_done();
        s1.body_done();
        let mut ex0 = |d: &TaskDesc, _: &mut TaskCtx, _: &mut VClock| vec![d.id as f64];
        let mut ran_on_1 = Vec::new();
        let mut ex1 = |d: &TaskDesc, _: &mut TaskCtx, _: &mut VClock| {
            ran_on_1.push(d.id);
            vec![d.id as f64]
        };
        let mut sent_by_1 = Vec::new();
        let mut merged = [None, None];
        while merged.iter().any(Option::is_none) {
            if merged[0].is_none() && s0.step(&mut ex0, &mut clocks[0]) == Step::Finished {
                merged[0] = s0.take_merged();
            }
            while let Some((_, b)) = to_s0.try_recv_bytes(TAG_SCHED, &mut relay_clock) {
                to_s1.send_bytes(1, TAG_SCHED, b, &mut relay_clock);
            }
            if merged[1].is_none() && s1.step(&mut ex1, &mut clocks[1]) == Step::Finished {
                merged[1] = s1.take_merged();
            }
            while let Some((_, b)) = to_s1.try_recv_bytes(TAG_SCHED, &mut relay_clock) {
                sent_by_1.push(SchedMsg::try_decode(&b).expect("a scheduler frame"));
                to_s0.send_bytes(0, TAG_SCHED, b, &mut relay_clock);
            }
        }
        ran_on_1.sort_unstable();
        assert_eq!(ran_on_1, shipped, "node 1 runs what node 0 shipped it");
        for m in &sent_by_1 {
            assert!(
                matches!(m, SchedMsg::Token { .. } | SchedMsg::Result { .. }),
                "node 1 sent node 0 {m:?}"
            );
        }
        let results: Vec<&IdResults> = sent_by_1
            .iter()
            .filter_map(|m| match m {
                SchedMsg::Result { results, .. } => Some(results),
                _ => None,
            })
            .collect();
        assert_eq!(results.len(), 1, "one Result");
        let mut ids: Vec<u64> = results[0].iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, ran_on_1, "node 1 contributes what it ran");
        // The eight `Task` frames are the phase's only counted messages.
        assert_eq!((s0.balance, s1.balance), (8, -8));
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[0].as_ref().map(Vec::len), Some(16));
        near.begin_shutdown();
        far.begin_shutdown();
    }

    #[test]
    #[should_panic(expected = "task id 5 executed twice")]
    fn a_duplicate_id_fails_the_audit_on_a_non_root_node() {
        // Node 1 of 2 runs task 3; the root's fabricated Result claims
        // task 5 twice. The counters balance (3 spawned, 3 executed,
        // 3 results), so only the id check can catch it.
        let (_fabric, comms, mut s) = hand_driven(2, 1);
        let mut clock = VClock::manual();
        let mut ex = |d: &TaskDesc, _: &mut TaskCtx, _: &mut VClock| vec![d.id as f64];
        s.spawn(0, vec![], &mut clock);
        s.body_done();
        while s.step(&mut ex, &mut clock) == Step::Worked {}
        send(&comms, 0, 1, &SchedMsg::Done);
        send(&comms, 0, 1, &result(vec![(5, vec![]), (5, vec![])], false));
        s.step(&mut ex, &mut clock);
    }

    #[test]
    fn every_node_ors_the_same_write_flags() {
        // Only node 2's executor reports a write; all four nodes must end
        // the phase with the flag set, and with it clear when none writes.
        struct Ex {
            wrote: bool,
        }
        impl TaskExecutor for Ex {
            fn exec(&mut self, d: &TaskDesc, _: &mut TaskCtx, _: &mut VClock) -> Vec<f64> {
                vec![d.id as f64]
            }
            fn wrote(&mut self) -> bool {
                self.wrote
            }
        }
        for writer in [Some(2), None] {
            let nn = 4;
            let fabric = Fabric::new(nn, NetProfile::clan_via());
            let mut scheds: Vec<NodeSched> = (0..nn)
                .map(|n| {
                    let comm = Arc::new(Communicator::new(fabric.endpoint(n)));
                    NodeSched::new(comm)
                })
                .collect();
            let mut exs: Vec<Ex> = (0..nn)
                .map(|n| Ex {
                    wrote: writer == Some(n),
                })
                .collect();
            let mut clocks: Vec<VClock> = (0..nn).map(|_| VClock::manual()).collect();
            for n in 0..nn {
                scheds[n].spawn(0, vec![], &mut clocks[n]);
                scheds[n].body_done();
            }
            let mut done = [false; 4];
            while done.iter().any(|d| !d) {
                for n in 0..nn {
                    if !done[n] && scheds[n].step(&mut exs[n], &mut clocks[n]) == Step::Finished {
                        done[n] = true;
                    }
                }
            }
            for s in &scheds {
                assert_eq!(s.any_node_wrote(), writer.is_some(), "node {}", s.node());
                assert_eq!(s.merged.as_ref().map(Vec::len), Some(nn));
            }
            fabric.begin_shutdown();
        }
    }

    #[test]
    fn single_thread_round_robin_is_deterministic() {
        // Drive 4 schedulers from one thread (the bench harness pattern):
        // two drives must give identical merges AND identical final
        // virtual clocks.
        let drive = || {
            let nn = 4;
            let fabric = Fabric::new(nn, NetProfile::clan_via());
            let mut scheds: Vec<NodeSched> = (0..nn)
                .map(|n| NodeSched::new(Arc::new(Communicator::new(fabric.endpoint(n)))))
                .collect();
            let mut clocks: Vec<VClock> = (0..nn).map(|_| VClock::manual()).collect();
            let mut ex = |d: &TaskDesc, _t: &mut TaskCtx, _c: &mut VClock| {
                vec![(d.id as f64).sqrt() + d.args[0] as f64]
            };
            for n in 0..nn {
                for i in 0..6u64 {
                    scheds[n].spawn(0, vec![i * n as u64], &mut clocks[n]);
                }
                scheds[n].body_done();
            }
            let mut merged: Vec<Option<IdResults>> = vec![None; nn];
            while merged.iter().any(|m| m.is_none()) {
                for n in 0..nn {
                    if merged[n].is_none()
                        && scheds[n].step(&mut ex, &mut clocks[n]) == Step::Finished
                    {
                        merged[n] = scheds[n].take_merged();
                    }
                }
            }
            let times: Vec<u64> = clocks.iter().map(|c| c.now().as_nanos()).collect();
            fabric.begin_shutdown();
            (merged[0].clone().unwrap(), times)
        };
        let (m1, t1) = drive();
        let (m2, t2) = drive();
        assert_eq!(m1, m2);
        assert_eq!(t1, t2, "a replay must give identical virtual time");
        assert_eq!(m1.len(), 24);
    }
}
