//! SPMD node launch: build the fabric, the per-node DSM instances and
//! communication threads, and run a program on every node's main thread.
//!
//! The OpenMP fork-join model of `parade-core` is layered on top of this
//! plain SPMD engine (node 0's program becomes the master; the others run
//! a command loop).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parade_dsm::{spawn_comm_thread, Dsm, DsmStatsSnapshot};
use parade_mpi::Communicator;
use parade_net::threads::spawn_named;
use parade_net::{Fabric, FabricError, LinkHealth, NodeTraffic, Traffic, VClock, VTime};
use parade_trace as trace;

use crate::config::ClusterConfig;

/// Everything a node program needs.
pub struct NodeEnv {
    pub node: usize,
    pub nnodes: usize,
    pub dsm: Arc<Dsm>,
    pub comm: Arc<Communicator>,
    pub cfg: ClusterConfig,
    pub fabric: Arc<Fabric>,
}

impl NodeEnv {
    /// A fresh virtual clock for a thread on this node, honouring the
    /// configured time source.
    pub fn new_clock(&self) -> VClock {
        VClock::new(self.cfg.time)
    }
}

/// Aggregate outcome of a cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Per-node DSM protocol counters.
    pub dsm: Vec<DsmStatsSnapshot>,
    /// Fabric-wide traffic.
    pub traffic: Traffic,
    /// Per-node traffic, both directions.
    pub net: Vec<NodeTraffic>,
    /// Per-node reliable-channel counters (all quiet without chaos).
    pub link_health: Vec<LinkHealth>,
    /// Every retry-budget exhaustion in recording order, empty when no
    /// link died: when several links die in the same interval, each dead
    /// link is named here.
    pub fabric_errors: Vec<FabricError>,
}

impl ClusterReport {
    /// Cluster-wide DSM counters.
    pub fn dsm_totals(&self) -> DsmStatsSnapshot {
        let mut t = DsmStatsSnapshot::default();
        for s in &self.dsm {
            t.merge(s);
        }
        t
    }

    /// Cluster-wide reliable-channel counters.
    pub fn link_health_totals(&self) -> LinkHealth {
        let mut t = LinkHealth::default();
        for h in &self.link_health {
            t.add(*h);
        }
        t
    }
}

/// One node's panic — its program's or its communication thread's —
/// carried out of [`launch_result`].
#[derive(Debug, Clone)]
pub struct NodePanic {
    pub node: usize,
    pub message: String,
}

/// A run that did not complete: which node programs panicked, plus the
/// counters salvaged from it. A fabric fail-stop (retry-budget exhaustion
/// on a dead link) surfaces here as the panics of every node caught
/// blocked on that link; `cluster.fabric_errors` names each dead link.
/// Produced by [`launch_result`], and handed on unchanged by
/// `parade_core::Cluster::try_run_with_report`.
#[derive(Debug)]
pub struct FailedRun {
    /// Which node programs panicked, with their messages.
    pub panics: Vec<NodePanic>,
    /// Counters salvaged from the dead run.
    pub cluster: ClusterReport,
}

impl FailedRun {
    /// Every retry-budget exhaustion recorded before the fail-stop.
    pub fn fabric_errors(&self) -> &[FabricError] {
        &self.cluster.fabric_errors
    }

    /// Was this a fabric fail-stop (as opposed to a plain program bug)?
    pub fn is_fabric_death(&self) -> bool {
        !self.cluster.fabric_errors.is_empty()
    }
}

impl std::fmt::Display for FailedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster run failed: {} node(s) panicked",
            self.panics.len()
        )?;
        if let Some(p) = self.panics.first() {
            write!(f, " (node {}: {})", p.node, p.message)?;
        }
        if let Some(e) = self.cluster.fabric_errors.first() {
            write!(f, "; {e}")?;
        }
        Ok(())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Launch `cfg.nodes` node programs and run them to completion.
///
/// Returns each node's result plus the protocol/traffic report. All
/// communication threads are joined and the fabric shut down before
/// returning. Panics if any node program panics; callers that must
/// survive node failure (the serving layer) use [`launch_result`].
pub fn launch<R, F>(cfg: ClusterConfig, program: F) -> (Vec<R>, ClusterReport)
where
    R: Send + 'static,
    F: Fn(NodeEnv) -> R + Send + Sync + 'static,
{
    match launch_result(cfg, program) {
        Ok(out) => out,
        Err(f) => panic!("node panicked: {f}"),
    }
}

/// Failure-tolerant launch: node-program panics — and a communication
/// thread's, which takes its run down with it — are collected instead of
/// propagated, and teardown is unconditional.
///
/// Node and communication threads come from [`parade_net::threads`]: when
/// this returns every one of them has dropped what it held of the launch
/// and is parked under its name for the next, except those that panicked,
/// which are gone.
///
/// The shutdown order is load-bearing. The fabric is shut down *before*
/// the communication threads are joined, in every path — including the
/// failure path, where the old panicking join ran first and never reached
/// `begin_shutdown`, leaving comm threads parked on their `MailboxQ`
/// condvars forever (the PR 4 dead-link shutdown race). A serving layer
/// tearing down a failed job would hang on exactly that join.
#[allow(clippy::type_complexity)]
pub fn launch_result<R, F>(
    cfg: ClusterConfig,
    program: F,
) -> Result<(Vec<R>, ClusterReport), Box<FailedRun>>
where
    R: Send + 'static,
    F: Fn(NodeEnv) -> R + Send + Sync + 'static,
{
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let fabric = Fabric::with_chaos(cfg.nodes, cfg.net, cfg.chaos.clone());
    if fabric.chaos().is_active() {
        // Surface reliable-channel activity in traces: one `net.retransmit`
        // instant per retransmission, attributed to the sending thread.
        fabric.set_retransmit_hook(Box::new(|_src, dst, _seq, vt: VTime| {
            trace::instant(trace::EventKind::NetRetransmit, dst as u64, vt);
        }));
    }
    let dsms: Vec<Arc<Dsm>> = (0..cfg.nodes)
        .map(|i| Arc::new(Dsm::new(fabric.endpoint(i), cfg.dsm_config())))
        .collect();
    let comm_threads: Vec<_> = dsms
        .iter()
        .map(|d| spawn_comm_thread(Arc::clone(d)))
        .collect();
    let program = Arc::new(program);
    let handles: Vec<_> = (0..cfg.nodes)
        .map(|i| {
            let env = NodeEnv {
                node: i,
                nnodes: cfg.nodes,
                dsm: Arc::clone(&dsms[i]),
                comm: Arc::new(Communicator::new(fabric.endpoint(i))),
                cfg: cfg.clone(),
                fabric: Arc::clone(&fabric),
            };
            let program = Arc::clone(&program);
            let fabric2 = Arc::clone(&fabric);
            spawn_named(format!("parade-node-{i}"), move || {
                trace::set_identity(i, "main");
                catch_unwind(AssertUnwindSafe(|| program(env))).unwrap_or_else(|panic| {
                    // Shut the fabric down *at panic time*, not at join
                    // time: peers blocked in fabric receives waiting on
                    // this node must unblock or the ordered join below
                    // would deadlock on them. A fabric fail-stop has
                    // already done this; a non-fabric panic has not.
                    fabric2.begin_shutdown();
                    resume_unwind(panic)
                })
            })
        })
        .collect();
    let mut results: Vec<R> = Vec::with_capacity(cfg.nodes);
    let mut panics: Vec<NodePanic> = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(r) => results.push(r),
            Err(payload) => panics.push(NodePanic {
                node: i,
                message: panic_message(payload),
            }),
        }
    }
    let report = ClusterReport {
        dsm: dsms.iter().map(|d| d.stats.snapshot()).collect(),
        traffic: fabric.stats().totals(),
        net: fabric.stats().snapshot(),
        link_health: fabric.stats().link_health(),
        fabric_errors: fabric.stats().fabric_errors(),
    };
    // Wake comm threads parked on their mailboxes *before* joining them —
    // in every path, not just the clean one.
    fabric.begin_shutdown();
    let comm_panics: Vec<NodePanic> = comm_threads
        .into_iter()
        .enumerate()
        .filter_map(|(node, h)| {
            let message = panic_message(h.join().err()?);
            Some(NodePanic { node, message })
        })
        .collect();
    // A comm thread waits on nobody — its one blocking call is the mailbox
    // receive, which a shutdown ends cleanly — so its panic is never the
    // consequence of another thread's: it is why the nodes that panicked
    // did, and goes first. Unless a link died: then it hit the dead link
    // itself, trying to reply, which is the failure `fabric_errors` already
    // names and not a new one.
    if report.fabric_errors.is_empty() {
        panics.splice(0..0, comm_panics);
    }
    if panics.is_empty() {
        Ok((results, report))
    } else {
        // Boxed: the report inside makes the Err variant heavyweight, and
        // the Ok path must not pay for it.
        Err(Box::new(FailedRun {
            panics,
            cluster: report,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_mpi::ReduceOp;
    use parade_net::NetProfile;

    fn tiny(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            dsm: parade_dsm::DsmConfig {
                pool_bytes: 64 * parade_dsm::PAGE_SIZE,
                ..Default::default()
            },
            net: NetProfile::zero(),
            time: parade_net::TimeSource::Manual,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn launch_runs_program_on_every_node() {
        let (out, _) = launch(tiny(4), |env| (env.node, env.nnodes));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    /// The host threads nodes 4 and 5 of a six-node launch ran on: names
    /// no other test of this binary uses, so nobody else parks or takes a
    /// thread under them. With `hold` they stay in their programs between
    /// its two barriers.
    fn threads_of_nodes_4_and_5(
        hold: Option<Arc<[std::sync::Barrier; 2]>>,
    ) -> Vec<std::thread::ThreadId> {
        let (ids, _) = launch(tiny(6), move |env| {
            if let (Some(gates), 4..) = (&hold, env.node) {
                gates[0].wait();
                gates[1].wait();
            }
            std::thread::current().id()
        });
        ids[4..].to_vec()
    }

    #[test]
    fn a_launch_runs_on_the_threads_the_last_one_parked_unless_they_are_busy() {
        let first = threads_of_nodes_4_and_5(None);
        assert_eq!(threads_of_nodes_4_and_5(None), first);
        // A launch started while another is still running gets threads of
        // its own, and both finish.
        let gates = Arc::new([(); 2].map(|()| std::sync::Barrier::new(3)));
        let gates2 = Arc::clone(&gates);
        let held = std::thread::spawn(move || threads_of_nodes_4_and_5(Some(gates2)));
        gates[0].wait();
        let meanwhile = threads_of_nodes_4_and_5(None);
        gates[1].wait();
        assert_eq!(held.join().unwrap(), first);
        assert!(meanwhile.iter().all(|id| !first.contains(id)));
    }

    #[test]
    fn nodes_share_dsm_and_mpi() {
        let (out, report) = launch(tiny(3), |env| {
            let mut clk = env.new_clock();
            let r = env.dsm.alloc_region(64).unwrap();
            env.dsm.barrier(&mut clk);
            if env.node == 1 {
                env.dsm.write::<i64>(r, 0, 31, &mut clk);
            }
            env.dsm.barrier(&mut clk);
            let v = env.dsm.read::<i64>(r, 0, &mut clk);

            env.comm.allreduce_i64(v, ReduceOp::Sum, &mut clk)
        });
        assert_eq!(out, vec![93, 93, 93]);
        assert!(report.dsm_totals().barriers >= 6);
        assert!(report.traffic.msgs > 0);
    }

    #[test]
    fn chaos_run_matches_clean_run_and_records_retransmits() {
        use parade_net::ChaosProfile;
        let program = |env: NodeEnv| {
            let mut clk = env.new_clock();
            let r = env.dsm.alloc_region(256).unwrap();
            env.dsm.barrier(&mut clk);
            if env.node == 0 {
                for i in 0..32 {
                    env.dsm.write::<i64>(r, i * 8, (i as i64) * 3 + 1, &mut clk);
                }
            }
            env.dsm.barrier(&mut clk);
            let mut sum = 0;
            for i in 0..32 {
                sum += env.dsm.read::<i64>(r, i * 8, &mut clk);
            }
            env.comm.allreduce_i64(sum, ReduceOp::Sum, &mut clk)
        };
        let (clean, _) = launch(tiny(3), program);
        let cfg = ClusterConfig {
            chaos: ChaosProfile::lossy(0xD00D),
            ..tiny(3)
        };
        let (chaotic, report) = launch(cfg, program);
        assert_eq!(clean, chaotic, "chaos must not change results");
        assert!(report.fabric_errors.is_empty());
        let h = report.link_health_totals();
        assert!(h.retransmits + h.dup_drops + h.reseq_holds > 0, "{h:?}");
    }

    #[test]
    fn launch_result_collects_node_panics_and_still_tears_down() {
        // Node 1 panics mid-program while node 0 blocks on a receive that
        // will never be satisfied; the panic-time shutdown must unblock
        // node 0 and the comm threads so this returns instead of hanging.
        let out = launch_result(tiny(2), |env| {
            let mut clk = env.new_clock();
            let r = env.dsm.alloc_region(64).unwrap();
            if env.node == 1 {
                panic!("injected node failure");
            }
            env.dsm.barrier(&mut clk);
            env.dsm.read::<i64>(r, 0, &mut clk)
        });
        let failure = out.expect_err("a panicked node must surface as Err");
        assert_eq!(failure.panics.len(), 2, "node 0 dies of the shutdown");
        assert!(failure
            .panics
            .iter()
            .any(|p| p.message.contains("injected node failure")));
    }

    #[test]
    fn launch_result_surfaces_every_dead_link() {
        use parade_net::ChaosProfile;
        // Two links scheduled dead: both node 1 and node 2 eventually hit
        // their own dead link to node 0, so the report must name both —
        // not just whichever error was recorded first.
        let cfg = ClusterConfig {
            chaos: ChaosProfile::off()
                .with_link_death(1, 0, 2)
                .with_link_death(2, 0, 2),
            ..tiny(3)
        };
        let out = launch_result(cfg, |env| {
            let mut clk = env.new_clock();
            if env.node != 0 {
                let ep = env.fabric.endpoint(env.node);
                let mut sent = 0u64;
                loop {
                    let payload = parade_net::Bytes::copy_from_slice(&[0u8; 8]);
                    if ep
                        .send_checked(0, parade_net::MsgClass::P2p, sent, payload, &mut clk)
                        .is_err()
                    {
                        break;
                    }
                    sent += 1;
                    clk.charge(VTime::from_micros(1));
                }
            }
            env.node
        });
        let (_, report) = out.expect("send_checked panics nowhere");
        assert_eq!(report.fabric_errors.len(), 2, "{:?}", report.fabric_errors);
        let mut srcs: Vec<usize> = report.fabric_errors.iter().map(|e| e.src).collect();
        srcs.sort_unstable();
        assert_eq!(srcs, vec![1, 2], "both dead links named");
    }

    #[test]
    fn report_aggregates_counters() {
        let (out, report) = launch(tiny(2), |env| {
            let mut clk = env.new_clock();
            let r = env.dsm.alloc_region(64).unwrap();
            // Node 0's write notice invalidates node 1's copy, so node 1's
            // write fetches the page.
            if env.node == 0 {
                env.dsm.write::<i64>(r, 0, 1, &mut clk);
            }
            env.dsm.barrier(&mut clk);
            if env.node == 1 {
                env.dsm.write::<i64>(r, 0, 2, &mut clk);
            }
            env.dsm.barrier(&mut clk);
            env.dsm.read::<i64>(r, 0, &mut clk)
        });
        assert_eq!(out, vec![2, 2]);
        let t = report.dsm_totals();
        assert_eq!(t.barriers, 4);
        assert!(t.page_fetches >= 1);
    }
}
