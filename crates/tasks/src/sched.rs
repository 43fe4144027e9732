//! The per-node task scheduler: deque, work stealing, dependency tables,
//! and Safra's token termination detection.
//!
//! One [`NodeSched`] exists per node per task phase, driven by that node's
//! lead thread. It is a *steppable state machine*: [`NodeSched::step`]
//! drains pending scheduler messages, executes at most one ready task, and
//! performs idle-time protocol actions (steal requests, token forwarding).
//! A live cluster pumps it with a blocking receive when idle
//! ([`run_to_merge`]); benchmarks drive many schedulers round-robin from a
//! single thread, which never blocks and is therefore fully deterministic
//! in virtual time.
//!
//! ## Deque layout and stealing
//!
//! Ready tasks live in one `VecDeque` per node (compute threads of a node
//! form one OpenMP team, so the node is the worker). The owner pops from
//! the back (LIFO — depth-first, cache-friendly); steal victims serve from
//! the front (FIFO — oldest, largest-grained work first). An idle node
//! under [`StealStrategy::Random`] sends a steal request to a seeded
//! random victim and goes passive after [`VICTIM_FANOUT`] consecutive empty
//! replies; any arriving task or non-empty reply reactivates it.
//! [`StealStrategy::Flat`] instead ships every spawn round-robin at spawn
//! time and never steals — the deterministic baseline the benchmarks gate.
//!
//! ## Termination
//!
//! Safra's algorithm over the node ring: every *counted* message
//! ([`SchedMsg::counted`]) bumps the sender's message balance and blackens
//! the receiver; a node is passive when its root body is done, its deque
//! is empty, nothing is executing, and its stealing is exhausted — no
//! request outstanding and no victims left to try. The last clause is
//! load-bearing: Safra's proof assumes passive processes never *initiate*
//! messages, so a node that still steals is active and holds the token
//! (tasks held on unmet dependencies do not block passivity — their
//! release arrives via a counted `Complete`). The root launches a white token when passive; each node
//! forwards it only while passive, adding its balance and its color, and
//! whitens after forwarding. A white token returning to a white root with
//! a zero global balance proves quiescence: the root then broadcasts
//! `Done`, gathers per-node results and spawn/execute counters, audits
//! exactly-once execution (`sum(spawned) == sum(executed) == results`,
//! ids unique), and broadcasts the id-sorted merge.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parade_mpi::Communicator;
use parade_net::VClock;
use parade_trace as trace;
use parade_trace::EventKind;

use crate::wire::{SchedMsg, TaskDesc, TAG_SCHED};

/// How spawned tasks reach other nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealStrategy {
    /// Ship each spawn round-robin at spawn time; no stealing. Fully
    /// deterministic placement — the baseline for gated benchmarks and the
    /// flat-vs-stealing bit-identity smoke.
    Flat,
    /// Spawns stay on the spawning node; idle nodes steal from seeded
    /// random victims.
    Random,
}

/// Consecutive empty steal replies before a thief goes passive.
const VICTIM_FANOUT: usize = 3;

/// Max tasks handed over per steal reply.
const GRAIN: usize = 4;

/// Scheduler knobs, configured per cluster (`ClusterConfig::task_scheduler`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    pub strategy: StealStrategy,
    /// Seed for victim selection (per-node streams are derived from it).
    pub seed: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            strategy: StealStrategy::Random,
            seed: 0x5EED_7A5C,
        }
    }
}

/// Handed to an executing task body; collects child spawns, which the
/// scheduler processes after the body returns (children are homed on the
/// executing node).
pub struct TaskCtx {
    parent: u64,
    ord: u64,
    pub(crate) spawned: Vec<TaskDesc>,
}

impl TaskCtx {
    /// Spawn a child task. Child ids are a pure function of the parent id
    /// and the spawn ordinal, so they are schedule-independent. At most
    /// 32767 children per task keep ids collision-free.
    pub fn spawn(&mut self, func: u32, args: Vec<u64>) -> u64 {
        self.spawn_with_deps(func, args, Vec::new(), false)
    }

    /// Spawn a child with dependencies on sibling ids; `inject` appends
    /// each dependency's result to `args` at release.
    pub fn spawn_with_deps(
        &mut self,
        func: u32,
        args: Vec<u64>,
        deps: Vec<u64>,
        inject: bool,
    ) -> u64 {
        assert!(self.ord < 32_767, "too many children for one task");
        let id = child_id(self.parent, self.ord);
        self.ord += 1;
        self.spawned.push(TaskDesc {
            id,
            parent: self.parent,
            home: 0, // stamped by the scheduler when processed
            func,
            pinned: None,
            inject,
            args,
            deps,
            notices: Vec::new(),
        });
        id
    }
}

/// Child `ord` of task `parent`: even, disjoint from root ids (odd).
pub fn child_id(parent: u64, ord: u64) -> u64 {
    parent.wrapping_mul(65_536).wrapping_add(2 * (ord + 1))
}

/// Supplies task bodies and the DSM coherence hooks.
///
/// `release` runs after each body (a flush at the task's completion — an
/// HLRC release point) and returns the page notices to propagate;
/// `acquire` applies notices (invalidations) before a dependent body runs
/// and when completions reach a waiting home. The default no-op hooks fit
/// task graphs whose data rides entirely in descriptors and results.
pub trait TaskExecutor {
    fn exec(&mut self, desc: &TaskDesc, tctx: &mut TaskCtx, clock: &mut VClock) -> Vec<f64>;

    fn release(&mut self, _clock: &mut VClock) -> Vec<u64> {
        Vec::new()
    }

    fn acquire(&mut self, _notices: &[u64], _clock: &mut VClock) {}
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

/// A held task waiting on dependencies.
struct Held {
    desc: TaskDesc,
    unmet: usize,
}

enum Phase {
    /// Executing the task graph.
    Working,
    /// Root only: `Done` broadcast, gathering `Result` messages.
    Gathering,
    /// Non-root: `Result` sent, waiting for `Merged`.
    AwaitMerge,
}

/// One node's scheduler for one task phase.
pub struct NodeSched {
    comm: Arc<Communicator>,
    node: usize,
    nnodes: usize,
    cfg: SchedConfig,
    deque: VecDeque<TaskDesc>,
    held: HashMap<u64, Held>,
    /// dep id -> held task ids waiting on it.
    dependents: HashMap<u64, Vec<u64>>,
    /// Locally-homed completed tasks: id -> (result, notices).
    completed: HashMap<u64, (Vec<f64>, Vec<u64>)>,
    /// parent id -> incomplete children homed here.
    outstanding: HashMap<u64, u64>,
    /// Results of tasks homed here, in completion order.
    results: Vec<(u64, Vec<f64>)>,
    root_ord: u64,
    flat_ord: u64,
    spawned: u64,
    executed: u64,
    /// Safra: counted messages sent minus received.
    balance: i64,
    black: bool,
    body_done: bool,
    /// Held token, if any (count, black).
    token: Option<(i64, bool)>,
    /// Root: a probe is circulating.
    probing: bool,
    steal_misses: usize,
    steal_outstanding: bool,
    rng: u64,
    phase: Phase,
    gathered: Vec<(IdResults, u64, u64)>,
    merged: Option<IdResults>,
}

/// Id-tagged task results, as gathered per node and merged id-sorted.
type IdResults = Vec<(u64, Vec<f64>)>;

impl NodeSched {
    pub fn new(comm: Arc<Communicator>, cfg: SchedConfig) -> Self {
        let node = comm.rank();
        let nnodes = comm.size();
        NodeSched {
            comm,
            node,
            nnodes,
            cfg,
            deque: VecDeque::new(),
            held: HashMap::new(),
            dependents: HashMap::new(),
            completed: HashMap::new(),
            outstanding: HashMap::new(),
            results: Vec::new(),
            root_ord: 0,
            flat_ord: 0,
            spawned: 0,
            executed: 0,
            balance: 0,
            black: false,
            body_done: false,
            token: None,
            probing: false,
            steal_misses: 0,
            steal_outstanding: false,
            rng: splitmix(cfg.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            phase: Phase::Working,
            gathered: Vec::new(),
            merged: None,
        }
    }

    pub fn node(&self) -> usize {
        self.node
    }

    /// Root-context parent sentinel for this node (no collision with task
    /// ids, which stay far below `u64::MAX`).
    fn root_parent(&self) -> u64 {
        u64::MAX - self.node as u64
    }

    // ---- root-context spawning ------------------------------------------

    /// Spawn a root task on this node. Root ids encode (node, ordinal), so
    /// they are unique and schedule-independent: `2*(ord*nnodes+node)+1`.
    pub fn spawn(&mut self, func: u32, args: Vec<u64>, clock: &mut VClock) -> u64 {
        self.spawn_full(func, args, Vec::new(), false, None, Vec::new(), clock)
    }

    /// Spawn a root task with dependencies on previously spawned root task
    /// ids of this node.
    pub fn spawn_with_deps(
        &mut self,
        func: u32,
        args: Vec<u64>,
        deps: Vec<u64>,
        inject: bool,
        clock: &mut VClock,
    ) -> u64 {
        self.spawn_full(func, args, deps, inject, None, Vec::new(), clock)
    }

    /// Spawn a `target` task pinned to `device`: shipped there, never
    /// stolen. Synchronize on it with [`NodeSched::target_sync`].
    pub fn target(&mut self, device: usize, func: u32, args: Vec<u64>, clock: &mut VClock) -> u64 {
        self.target_with_notices(device, func, args, Vec::new(), clock)
    }

    /// `target` with `map(to)` write notices: the requester's pre-offload
    /// flush produced `notices`, which the device applies (invalidating its
    /// stale copies) before the body runs.
    pub fn target_with_notices(
        &mut self,
        device: usize,
        func: u32,
        args: Vec<u64>,
        notices: Vec<u64>,
        clock: &mut VClock,
    ) -> u64 {
        assert!(device < self.nnodes, "no such device node: {device}");
        self.spawn_full(
            func,
            args,
            Vec::new(),
            false,
            Some(device as u32),
            notices,
            clock,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_full(
        &mut self,
        func: u32,
        args: Vec<u64>,
        deps: Vec<u64>,
        inject: bool,
        pinned: Option<u32>,
        notices: Vec<u64>,
        clock: &mut VClock,
    ) -> u64 {
        let id = 2 * (self.root_ord * self.nnodes as u64 + self.node as u64) + 1;
        self.root_ord += 1;
        let desc = TaskDesc {
            id,
            parent: self.root_parent(),
            home: self.node as u32,
            func,
            pinned,
            inject,
            args,
            deps,
            notices,
        };
        self.process_spawn(desc, clock);
        id
    }

    /// Register a freshly spawned task homed here: resolve its
    /// dependencies and either hold it or route it.
    fn process_spawn(&mut self, mut desc: TaskDesc, clock: &mut VClock) {
        desc.home = self.node as u32;
        self.spawned += 1;
        *self.outstanding.entry(desc.parent).or_insert(0) += 1;
        if trace::enabled() {
            trace::instant(EventKind::TaskSpawn, desc.id, clock.now());
        }
        let unmet = desc
            .deps
            .iter()
            .filter(|d| !self.completed.contains_key(d))
            .count();
        if unmet > 0 {
            for &d in desc.deps.iter() {
                if !self.completed.contains_key(&d) {
                    self.dependents.entry(d).or_default().push(desc.id);
                }
            }
            self.held.insert(desc.id, Held { desc, unmet });
        } else {
            self.make_ready(desc, clock);
        }
    }

    /// All dependencies of `desc` are complete: fold in their notices (and
    /// results, if injecting) and route the task.
    fn make_ready(&mut self, mut desc: TaskDesc, clock: &mut VClock) {
        for d in desc.deps.clone() {
            let (result, notices) = self
                .completed
                .get(&d)
                .expect("make_ready requires completed deps");
            desc.notices.extend_from_slice(notices);
            if desc.inject {
                desc.args.extend(result.iter().map(|v| v.to_bits()));
            }
        }
        self.route(desc, clock);
    }

    fn route(&mut self, desc: TaskDesc, clock: &mut VClock) {
        if let Some(p) = desc.pinned {
            if p as usize != self.node {
                self.send_counted(p as usize, &SchedMsg::Task(desc), clock);
                return;
            }
            self.deque.push_back(desc);
            return;
        }
        match self.cfg.strategy {
            StealStrategy::Flat => {
                let dst = (self.node as u64 + self.flat_ord) % self.nnodes as u64;
                self.flat_ord += 1;
                if dst as usize == self.node {
                    self.deque.push_back(desc);
                } else {
                    self.send_counted(dst as usize, &SchedMsg::Task(desc), clock);
                }
            }
            StealStrategy::Random => self.deque.push_back(desc),
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
            SchedMsg::Task(desc) => {
                self.steal_misses = 0; // work arrived: reactivate stealing
                self.deque.push_back(desc);
            }
            SchedMsg::StealReq => {
                let batch = self.steal_batch();
                if trace::enabled() && !batch.is_empty() {
                    trace::instant(EventKind::TaskSteal, batch.len() as u64, clock.now());
                }
                self.send_counted(src, &SchedMsg::StealReply(batch), clock);
            }
            SchedMsg::StealReply(tasks) => {
                self.steal_outstanding = false;
                if tasks.is_empty() {
                    self.steal_misses += 1;
                } else {
                    self.steal_misses = 0;
                    self.deque.extend(tasks);
                }
            }
            SchedMsg::Complete {
                id,
                parent,
                result,
                notices,
            } => self.on_complete(id, parent, result, notices, ex, clock),
            SchedMsg::Token { count, black } => self.on_token(count, black, clock),
            SchedMsg::Done => {
                debug_assert_ne!(self.node, 0);
                let results = std::mem::take(&mut self.results);
                self.send_uncounted(
                    0,
                    &SchedMsg::Result {
                        results,
                        spawned: self.spawned,
                        executed: self.executed,
                    },
                    clock,
                );
                self.phase = Phase::AwaitMerge;
            }
            SchedMsg::Result {
                results,
                spawned,
                executed,
            } => {
                debug_assert_eq!(self.node, 0);
                self.gathered.push((results, spawned, executed));
                // `begin_done` already pushed the root's own contribution.
                if self.gathered.len() == self.nnodes {
                    self.finish_merge(clock);
                }
            }
            SchedMsg::Merged(rs) => self.merged = Some(rs),
        }
    }

    /// Victim side of a steal: up to [`GRAIN`] tasks from the *front* of the
    /// deque (oldest first), at most half the stealable entries. Pinned
    /// tasks never move off their device.
    fn steal_batch(&mut self) -> Vec<TaskDesc> {
        let avail = self.deque.iter().filter(|d| d.pinned.is_none()).count();
        let want = (avail / 2).max(usize::from(avail > 0)).min(GRAIN);
        let mut batch = Vec::with_capacity(want);
        let mut i = 0;
        while batch.len() < want && i < self.deque.len() {
            if self.deque[i].pinned.is_none() {
                batch.push(self.deque.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        batch
    }

    fn on_complete<E: TaskExecutor>(
        &mut self,
        id: u64,
        parent: u64,
        result: Vec<f64>,
        notices: Vec<u64>,
        ex: &mut E,
        clock: &mut VClock,
    ) {
        // An HLRC acquire at the waiting home: invalidate the completer's
        // released pages so post-wait reads refetch fresh copies.
        if !notices.is_empty() {
            ex.acquire(&notices, clock);
        }
        self.results.push((id, result.clone()));
        self.completed.insert(id, (result, notices));
        let o = self
            .outstanding
            .get_mut(&parent)
            .expect("completion for unknown parent");
        *o -= 1;
        if let Some(waiters) = self.dependents.remove(&id) {
            for w in waiters {
                let h = self.held.get_mut(&w).expect("dependent must be held");
                h.unmet -= 1;
                if h.unmet == 0 {
                    let h = self.held.remove(&w).expect("just found");
                    self.make_ready(h.desc, clock);
                }
            }
        }
    }

    // ---- execution -------------------------------------------------------

    fn pop_ready(&mut self) -> Option<TaskDesc> {
        self.deque.pop_back()
    }

    fn run_one<E: TaskExecutor>(&mut self, desc: TaskDesc, ex: &mut E, clock: &mut VClock) {
        if trace::enabled() {
            trace::begin_arg(EventKind::TaskExec, desc.id, clock.now());
        }
        // Acquire the dependencies' release notices before the body reads.
        if !desc.notices.is_empty() {
            ex.acquire(&desc.notices, clock);
        }
        let mut tctx = TaskCtx {
            parent: desc.id,
            ord: 0,
            spawned: Vec::new(),
        };
        let result = ex.exec(&desc, &mut tctx, clock);
        // Children are homed on the executing node.
        for child in std::mem::take(&mut tctx.spawned) {
            self.process_spawn(child, clock);
        }
        // Completion is a release point: flush, and propagate this task's
        // notices (its own release plus everything it inherited).
        let mut notices = ex.release(clock);
        notices.extend_from_slice(&desc.notices);
        notices.sort_unstable();
        notices.dedup();
        self.executed += 1;
        if trace::enabled() {
            trace::end(EventKind::TaskExec, clock.now());
        }
        let complete = SchedMsg::Complete {
            id: desc.id,
            parent: desc.parent,
            result,
            notices,
        };
        if desc.home as usize == self.node {
            if let SchedMsg::Complete {
                id,
                parent,
                result,
                notices,
            } = complete
            {
                self.on_complete(id, parent, result, notices, ex, clock);
            }
        } else {
            self.send_counted(desc.home as usize, &complete, clock);
        }
    }

    // ---- termination (Safra's token) ------------------------------------

    /// Safra-passive: may this node forward (or launch) the token?
    ///
    /// The algorithm's soundness rests on passive processes never
    /// *initiating* messages. A node that is still stealing — a request
    /// outstanding, or victims left to try — initiates counted messages,
    /// so it must count as ACTIVE and hold the token until stealing is
    /// exhausted. Treating a stealing node as passive once let a probe
    /// complete with a `StealReq` still in flight: termination was
    /// declared, the straggler (or its reply) outlived the phase in the
    /// receiver's mailbox, and the *next* phase's fresh scheduler
    /// consumed it — a permanent −1 in its message balance that no probe
    /// could ever zero. The ring then circulated tokens forever (live
    /// lock, all nodes spinning, no progress).
    fn passive(&self) -> bool {
        self.body_done && self.deque.is_empty() && !self.steal_outstanding && !self.can_steal()
    }

    /// Stealing still available: Random strategy, victims exist, and the
    /// miss budget is not exhausted. (Arriving work resets the misses, so
    /// a node can become active again — which is fine: the message that
    /// reactivated it blackened it.)
    fn can_steal(&self) -> bool {
        self.cfg.strategy == StealStrategy::Random
            && self.nnodes > 1
            && self.steal_misses < VICTIM_FANOUT
    }

    fn on_token(&mut self, count: i64, black: bool, _clock: &mut VClock) {
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
    fn idle_actions(&mut self, clock: &mut VClock) -> bool {
        if !matches!(self.phase, Phase::Working) || !self.body_done || !self.deque.is_empty() {
            return false;
        }
        // Stealing is an ACTIVE action (see `passive`): it comes first,
        // and while a request is outstanding the node holds any token it
        // received rather than forwarding it.
        if !self.steal_outstanding && self.can_steal() {
            let victim = self.pick_victim();
            self.steal_outstanding = true;
            self.send_counted(victim, &SchedMsg::StealReq, clock);
            return true;
        }
        if !self.passive() {
            return false;
        }
        if self.node == 0 {
            if let Some((_, _)) = self.token {
                // Successful probe stored by on_token: terminate.
                self.token = None;
                self.begin_done(clock);
                return true;
            }
            if !self.probing {
                self.probing = true;
                if self.nnodes == 1 {
                    debug_assert_eq!(self.balance, 0);
                    self.begin_done(clock);
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

    fn pick_victim(&mut self) -> usize {
        self.rng = splitmix(self.rng);
        let v = (self.rng % (self.nnodes as u64 - 1)) as usize;
        if v >= self.node {
            v + 1
        } else {
            v
        }
    }

    /// Root: quiescence proven. Broadcast `Done`, fold in the root's own
    /// contribution, then wait for everyone's `Result`.
    fn begin_done(&mut self, clock: &mut VClock) {
        debug_assert_eq!(self.node, 0);
        for dst in 1..self.nnodes {
            self.send_uncounted(dst, &SchedMsg::Done, clock);
        }
        let own = std::mem::take(&mut self.results);
        self.gathered.push((own, self.spawned, self.executed));
        self.phase = Phase::Gathering;
        if self.nnodes == 1 {
            self.finish_merge(clock);
        }
    }

    /// Root: all `Result`s in. Audit exactly-once execution and broadcast
    /// the id-sorted merge.
    fn finish_merge(&mut self, clock: &mut VClock) {
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
        for dst in 1..self.nnodes {
            self.send_uncounted(dst, &SchedMsg::Merged(all.clone()), clock);
        }
        self.merged = Some(all);
    }

    // ---- driving ---------------------------------------------------------

    /// The root body of this node is done spawning; stealing and
    /// termination detection may begin.
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
        if let Some(desc) = self.pop_ready() {
            self.run_one(desc, ex, clock);
            return Step::Worked;
        }
        if self.idle_actions(clock) {
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

    /// Pump until every child of this node's root context has completed.
    /// Handles messages and executes locally queued tasks while waiting
    /// (the waited-on tasks may be sitting in this node's own deque).
    pub fn taskwait<E: TaskExecutor>(&mut self, ex: &mut E, clock: &mut VClock) {
        let rid = self.root_parent();
        self.wait_until(ex, clock, |s| {
            s.outstanding.get(&rid).copied().unwrap_or(0) == 0
        });
    }

    /// Pump until the pinned task `id` (spawned here) has completed —
    /// the synchronous `target` construct.
    pub fn target_sync<E: TaskExecutor>(&mut self, id: u64, ex: &mut E, clock: &mut VClock) {
        self.wait_until(ex, clock, |s| s.completed.contains_key(&id));
    }

    fn wait_until<E: TaskExecutor>(
        &mut self,
        ex: &mut E,
        clock: &mut VClock,
        done: impl Fn(&NodeSched) -> bool,
    ) {
        loop {
            if done(self) {
                return;
            }
            while let Some((src, bytes)) = self.comm.try_recv_bytes(TAG_SCHED, clock) {
                self.handle(src, &bytes, ex, clock);
            }
            if done(self) {
                return;
            }
            if let Some(desc) = self.pop_ready() {
                self.run_one(desc, ex, clock);
                continue;
            }
            // Nothing local: block for the next scheduler message.
            let (src, bytes) = self.comm.recv_bytes_any(TAG_SCHED, clock);
            self.handle(src, &bytes, ex, clock);
        }
    }

    /// The merged phase result, once [`Step::Finished`].
    pub fn take_merged(&mut self) -> Option<Vec<(u64, Vec<f64>)>> {
        self.merged.take()
    }
}

/// Live-mode driver: declare the root body done, then pump (blocking on
/// the fabric when idle) until the merged result arrives. Every node of
/// the phase must call this; all nodes return the identical id-sorted
/// result vector.
pub fn run_to_merge<E: TaskExecutor>(
    sched: &mut NodeSched,
    ex: &mut E,
    clock: &mut VClock,
) -> Vec<(u64, Vec<f64>)> {
    sched.body_done();
    loop {
        match sched.step(ex, clock) {
            Step::Finished => return sched.take_merged().expect("finished implies merged"),
            Step::Worked => {}
            Step::Idle => {
                let (src, bytes) = sched.comm.clone().recv_bytes_any(TAG_SCHED, clock);
                sched.handle(src, &bytes, ex, clock);
            }
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_net::{Fabric, NetProfile};

    fn run_cluster(
        nnodes: usize,
        cfg: SchedConfig,
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
                    let mut sched = NodeSched::new(comm, cfg);
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
    fn flat_and_random_merge_identically() {
        let spawn8 = |s: &mut NodeSched, c: &mut VClock| {
            for i in 0..8u64 {
                s.spawn(0, vec![i, i * i], c);
            }
        };
        let flat = run_cluster(
            4,
            SchedConfig {
                strategy: StealStrategy::Flat,
                ..SchedConfig::default()
            },
            spawn8,
            sum_func,
        );
        let random = run_cluster(4, SchedConfig::default(), spawn8, sum_func);
        assert_eq!(flat[0].len(), 32); // 8 spawns x 4 nodes
        for views in [&flat, &random] {
            for v in views.iter().skip(1) {
                assert_eq!(&views[0], v, "all nodes must see one merged result");
            }
        }
        assert_eq!(flat[0], random[0]);
    }

    #[test]
    fn dep_chains_inject_results_in_order() {
        // Node 0 spawns a 4-stage chain where each stage doubles its
        // predecessor's value and adds one; other nodes spawn nothing.
        let out = run_cluster(
            2,
            SchedConfig::default(),
            |s, c| {
                if s.node() == 0 {
                    let mut prev: Option<u64> = None;
                    for stage in 0..4u64 {
                        let (deps, inject) = match prev {
                            Some(p) => (vec![p], true),
                            None => (vec![], false),
                        };
                        prev = Some(s.spawn_with_deps(1, vec![stage], deps, inject, c));
                    }
                }
            },
            |d: &TaskDesc, _t: &mut TaskCtx| {
                // args = [stage] or [stage, injected prev result bits]
                let stage = d.args[0];
                if stage == 0 {
                    vec![1.0]
                } else {
                    let prev = f64::from_bits(d.args[1]);
                    vec![prev * 2.0 + 1.0]
                }
            },
        );
        // Chain values: 1, 3, 7, 15.
        let vals: Vec<f64> = out[0].iter().map(|(_, r)| r[0]).collect();
        assert_eq!(vals, vec![1.0, 3.0, 7.0, 15.0]);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn taskwait_blocks_until_children_done() {
        let out = run_cluster(
            3,
            SchedConfig {
                strategy: StealStrategy::Flat,
                ..SchedConfig::default()
            },
            |s, c| {
                for i in 0..5u64 {
                    s.spawn(0, vec![i], c);
                }
                let mut ex = |d: &TaskDesc, _t: &mut TaskCtx, _c: &mut VClock| sum_func(d, _t);
                s.taskwait(&mut ex, c);
                // After taskwait every child of this node has a result at
                // this home.
                assert_eq!(s.results.len(), 5);
                s.spawn(0, vec![99], c);
            },
            sum_func,
        );
        assert_eq!(out[0].len(), 18); // (5 + 1) x 3 nodes
    }

    #[test]
    fn child_spawns_execute_and_merge() {
        let out = run_cluster(
            2,
            SchedConfig::default(),
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
    fn pinned_target_runs_on_device_and_syncs() {
        let out = run_cluster(
            3,
            SchedConfig::default(),
            |s, c| {
                if s.node() == 0 {
                    let id = s.target(2, 7, vec![40], c);
                    let mut ex = |d: &TaskDesc, _t: &mut TaskCtx, _c: &mut VClock| {
                        // Node 0 must never execute the pinned body.
                        assert_eq!(d.func, u32::MAX, "pinned task stolen by requester");
                        vec![]
                    };
                    s.target_sync(id, &mut ex, c);
                    assert_eq!(s.completed.get(&id).unwrap().0, vec![42.0]);
                }
            },
            |d: &TaskDesc, _t: &mut TaskCtx| vec![(d.args[0] + 2) as f64],
        );
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0].1, vec![42.0]);
    }

    #[test]
    fn a_stealing_node_is_active_and_holds_the_token() {
        // Regression for a termination livelock: a node that still steals
        // must NOT be Safra-passive. When it was, a probe could complete
        // with a StealReq in flight; the straggler (or its reply) outlived
        // the phase in the receiver's mailbox and permanently skewed the
        // next phase's message balance, so no probe ever succeeded again.
        let fabric = Fabric::new(3, NetProfile::zero());
        let comms: Vec<Arc<Communicator>> = (0..3)
            .map(|n| Arc::new(Communicator::new(fabric.endpoint(n))))
            .collect();
        let mut clock = VClock::manual();
        let mut s = NodeSched::new(Arc::clone(&comms[1]), SchedConfig::default());
        s.body_done();
        // Empty deque, body done — but victims untried: ACTIVE, not passive.
        assert!(!s.passive(), "a node with steals left must be active");
        // Hand it a token mid-steal: it must hold it, not forward it.
        for round in 0..VICTIM_FANOUT {
            assert!(s.idle_actions(&mut clock), "must send a steal request");
            assert!(s.steal_outstanding);
            s.token = Some((0, false));
            assert!(
                !s.idle_actions(&mut clock),
                "token must be held while a steal request is outstanding"
            );
            assert!(s.token.is_some(), "token forwarded mid-steal");
            // The victim's empty reply makes it a miss.
            s.steal_outstanding = false;
            s.steal_misses = round + 1;
        }
        // Miss budget exhausted: now passive, and the token flows.
        assert!(s.passive(), "exhausted thief must become passive");
        assert!(s.idle_actions(&mut clock), "held token must be forwarded");
        assert!(s.token.is_none());
        fabric.begin_shutdown();
    }

    #[test]
    fn single_thread_round_robin_is_deterministic() {
        // Drive 4 schedulers from one thread (the bench harness pattern):
        // same seed twice must give identical merges AND identical final
        // virtual clocks; a different seed still merges identically.
        let drive = |seed: u64| {
            let nn = 4;
            let fabric = Fabric::new(nn, NetProfile::clan_via());
            let mut scheds: Vec<NodeSched> = (0..nn)
                .map(|n| {
                    NodeSched::new(
                        Arc::new(Communicator::new(fabric.endpoint(n))),
                        SchedConfig {
                            seed,
                            ..SchedConfig::default()
                        },
                    )
                })
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
        let (m1, t1) = drive(1);
        let (m2, t2) = drive(1);
        let (m3, _) = drive(999);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2, "same seed must replay identical virtual time");
        assert_eq!(m1, m3, "merged result is seed-independent");
        assert_eq!(m1.len(), 24);
    }
}
