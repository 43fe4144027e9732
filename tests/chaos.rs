//! Chaos soak suite: the fabric's fault injection + reliable channel,
//! exercised end to end (tier-1).
//!
//! Every test here runs a deterministic fault schedule (pinned or
//! property-derived seeds) and is bounded by the parade-testkit deadlock
//! watchdog, so a protocol bug surfaces as a diagnostic failure rather
//! than a hung CI job. The headline claims, per the reliable-channel
//! design:
//!
//! * arbitrary drop/duplicate/reorder/delay schedules still deliver every
//!   message exactly once, in per-link order;
//! * MPI collectives and full DSM kernels (NPB CG, Helmholtz) compute
//!   **bit-identical** results under chaos, because fault recovery only
//!   reshuffles virtual time, never payloads;
//! * a dead link (retry budget exhausted) fails fast with a structured
//!   [`FabricError`] naming the link and the pending operation, within a
//!   provable virtual-time bound, and the error reaches the run's
//!   [`StatsReport`].

use std::time::Duration;

use parade::cluster::{launch, ClusterConfig, NodeEnv};
use parade::core::{Cluster, RunReport, StatsReport, ThreadCtx};
use parade::kernels::cg::{cg_parade, CgClass};
use parade::kernels::helmholtz::{helmholtz_parade, HelmholtzParams};
use parade::mpi::{Communicator, ReduceOp};
use parade::net::{
    Bytes, ChaosKnobs, ChaosProfile, Fabric, Match, MsgClass, NetProfile, TimeSource, VClock, VTime,
};
use parade_testkit::prelude::*;

mod fresh;

/// Soak-wide watchdog budget. Generous in real time — these workloads
/// finish in seconds; the bound only exists to convert a protocol hang
/// (virtual time stuck) into a diagnosable failure.
const SOAK: Duration = Duration::from_secs(300);

fn payload_for(src: usize, class: MsgClass, tag: u64, len: usize) -> Bytes {
    let stamp = (src as u8) ^ (class.index() as u8) << 4 ^ (tag as u8).wrapping_mul(31);
    let data: Vec<u8> = (0..len.max(1))
        .map(|i| stamp.wrapping_add(i as u8))
        .collect();
    Bytes::copy_from_slice(&data)
}

// ---------------------------------------------------------------------------
// Satellite: exactly-once, in-order delivery for arbitrary chaos profiles.
// ---------------------------------------------------------------------------

prop!(cases = 24, fn chaos_delivery_is_exactly_once_in_order(
    (seed, (drop_m, dup_m, reorder_m), sizes) in |r: &mut TestRng| {
        let seed = r.next_u64();
        // Milli-probabilities. Drop is capped well below the point where a
        // 24-retry budget could plausibly exhaust: the schedule stays
        // adversarial but every message remains deliverable.
        let knobs = (r.below(150), r.below(120), r.below(250));
        let n = r.range_usize(8, 48);
        let sizes: Vec<u64> = (0..n).map(|_| r.below(4096)).collect();
        (seed, knobs, sizes)
    }) {
    let chaos = ChaosProfile {
        seed,
        base: ChaosKnobs {
            drop: drop_m as f64 / 1000.0,
            duplicate: dup_m as f64 / 1000.0,
            reorder: reorder_m as f64 / 1000.0,
            delay: 0.25,
            delay_jitter: VTime::from_micros(40),
        },
        retry_budget: 24,
        ..ChaosProfile::off()
    };
    run_with_timeout("exactly-once", SOAK, move || {
        let fabric = Fabric::with_chaos(2, NetProfile::clan_via(), chaos);
        let tx = fabric.endpoint(0);
        let rx = fabric.endpoint(1);
        let mut clk = VClock::manual();
        for (i, len) in sizes.iter().enumerate() {
            let body = payload_for(0, MsgClass::P2p, i as u64, *len as usize);
            tx.send(1, MsgClass::P2p, i as u64, body, &mut clk);
        }
        let mut prev = VTime::ZERO;
        for (i, len) in sizes.iter().enumerate() {
            let p = rx.recv_raw(MsgClass::P2p, Match::any()).unwrap();
            assert_eq!(p.tag, i as u64, "per-link order must survive chaos");
            assert_eq!(
                &p.payload[..],
                &payload_for(0, MsgClass::P2p, i as u64, *len as usize)[..],
                "payload must survive retransmission"
            );
            assert!(p.arrive_at >= prev, "arrival stamps must stay monotone");
            prev = p.arrive_at;
        }
        assert_eq!(rx.queued(MsgClass::P2p), 0, "no duplicate may survive");
        let stats = fabric.stats();
        assert_eq!(
            stats.totals().msgs,
            stats.recv_totals().msgs,
            "exactly one logical receive per logical send"
        );
    });
});

// ---------------------------------------------------------------------------
// Satellite: collectives equal their chaos-free results for arbitrary P.
// ---------------------------------------------------------------------------

/// One deterministic collective workload: `rounds` iterations of
/// barrier → allreduce(sum) → bcast on every rank. Returns each rank's
/// observed values as raw f64 bit patterns, so equality means
/// *bit-identical*, not merely approximately equal, and the fabric's
/// (sent, received) logical message totals for exactly-once checks.
fn run_collectives(p: usize, rounds: usize, chaos: ChaosProfile) -> (Vec<Vec<u64>>, u64, u64) {
    let fabric = Fabric::with_chaos(p, NetProfile::clan_via(), chaos);
    let handles: Vec<_> = (0..p)
        .map(|rank| {
            let comm = Communicator::new(fabric.endpoint(rank));
            std::thread::spawn(move || {
                let mut clk = VClock::manual();
                let mut seen = Vec::with_capacity(rounds * (p + 1));
                for round in 0..rounds {
                    comm.barrier(&mut clk);
                    let s = comm.allreduce_f64((rank + round) as f64, ReduceOp::Sum, &mut clk);
                    seen.push(s.to_bits());
                    let root = round % p;
                    let mut xs: Vec<f64> = if rank == root {
                        (0..p).map(|i| (round * 31 + i) as f64 * 0.5).collect()
                    } else {
                        vec![0.0; p]
                    };
                    comm.bcast_f64s(root, &mut xs, &mut clk);
                    seen.extend(xs.iter().map(|x| x.to_bits()));
                }
                seen
            })
        })
        .collect();
    let out: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = fabric.stats();
    let (sent, recvd) = (stats.totals().msgs, stats.recv_totals().msgs);
    fabric.begin_shutdown();
    (out, sent, recvd)
}

prop!(cases = 8, fn collectives_match_chaos_free_results(
    (p, seed, rounds) in |r: &mut TestRng| {
        (r.range_usize(2, 6), r.next_u64(), r.range_usize(3, 8))
    }) {
    run_with_timeout("collectives", SOAK, move || {
        let hostile = ChaosProfile {
            seed,
            base: ChaosKnobs {
                drop: 0.08,
                duplicate: 0.04,
                reorder: 0.10,
                delay: 0.15,
                delay_jitter: VTime::from_micros(25),
            },
            ..ChaosProfile::off()
        };
        let (chaotic, ..) = run_collectives(p, rounds, hostile);
        let (clean, ..) = run_collectives(p, rounds, ChaosProfile::off());
        assert_eq!(
            chaotic, clean,
            "collectives must be bit-identical under chaos (P={p}, seed={seed:#x})"
        );
        // Cross-check one closed form so both runs can't be wrong together:
        // round 0's allreduce sums 0+1+…+(p-1) on every rank.
        let expect = ((p * (p - 1)) / 2) as f64;
        for rank_log in &clean {
            assert_eq!(rank_log[0], expect.to_bits());
        }
    });
});

// ---------------------------------------------------------------------------
// Satellite: collectives on a lossy 8-node fabric deliver exactly once.
// ---------------------------------------------------------------------------

prop!(cases = 6, fn eight_rank_collectives_are_exactly_once_on_a_lossy_fabric(
    seed in |r: &mut TestRng| r.next_u64()) {
    run_with_timeout("eight-rank-chaos", SOAK, move || {
        const P: usize = 8;
        let rounds = 6;
        let (chaotic, sent, recvd) = run_collectives(P, rounds, ChaosProfile::lossy(seed));
        let (clean, ..) = run_collectives(P, rounds, ChaosProfile::off());
        assert_eq!(
            chaotic, clean,
            "collectives under chaos must be bit-identical to the clean run (seed={seed:#x})"
        );
        // Every logical send is received exactly once despite drops/dups.
        assert_eq!(sent, recvd, "exactly-once (seed={seed:#x})");
    });
});

// ---------------------------------------------------------------------------
// Satellite: systematic (class, src, tag) matching under permuted receives.
// ---------------------------------------------------------------------------

prop!(cases = 16, fn matching_survives_any_receive_permutation_under_chaos(
    (seed, order_seed) in |r: &mut TestRng| (r.next_u64(), r.next_u64())) {
    run_with_timeout("matching", SOAK, move || {
        const NODES: usize = 4;
        const TAGS: u64 = 3;
        const CLASSES: [MsgClass; 4] =
            [MsgClass::Dsm, MsgClass::P2p, MsgClass::Coll, MsgClass::Ctl];
        let fabric = Fabric::with_chaos(
            NODES,
            NetProfile::clan_via(),
            ChaosProfile::lossy(seed),
        );
        // Every (class, src, tag) combination sent concurrently to node 0.
        let senders: Vec<_> = (1..NODES)
            .map(|src| {
                let ep = fabric.endpoint(src);
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    for class in CLASSES {
                        for tag in 0..TAGS {
                            let body = payload_for(src, class, tag, 24 + src + tag as usize);
                            ep.send(0, class, tag, body, &mut clk);
                        }
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        // Receive in an arbitrary order: the mailbox must match on
        // (class, src, tag) regardless of both the wire's reordering and
        // the receiver's own draining order.
        let mut order: Vec<(MsgClass, usize, u64)> = CLASSES
            .iter()
            .flat_map(|&c| (1..NODES).flat_map(move |s| (0..TAGS).map(move |t| (c, s, t))))
            .collect();
        let mut shuffle = TestRng::new(order_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.below(i as u64 + 1) as usize);
        }
        let rx = fabric.endpoint(0);
        for (class, src, tag) in order {
            let p = rx.recv_raw(class, Match::src_tag(src, tag)).unwrap();
            assert_eq!((p.src, p.tag), (src, tag));
            assert_eq!(
                &p.payload[..],
                &payload_for(src, class, tag, 24 + src + tag as usize)[..]
            );
        }
        for class in CLASSES {
            assert_eq!(rx.queued(class), 0, "{class:?} mailbox must drain");
        }
        let stats = fabric.stats();
        assert_eq!(stats.totals().msgs, stats.recv_totals().msgs);
    });
});

// ---------------------------------------------------------------------------
// Satellite: full kernels are bit-identical under a pinned lossy schedule.
// ---------------------------------------------------------------------------

fn soak_cluster(chaos: ChaosProfile) -> Cluster {
    Cluster::builder()
        .nodes(4)
        .threads_per_node(2)
        .net(NetProfile::clan_via())
        .time(TimeSource::Manual)
        .chaos(chaos)
        .build()
        .expect("cluster")
}

#[test]
fn cg_class_s_is_bit_identical_under_lossy_chaos() {
    run_with_timeout("cg-chaos", SOAK, || {
        let (clean, _) = cg_parade(&soak_cluster(ChaosProfile::off()), CgClass::S);
        let (chaotic, report) =
            cg_parade(&soak_cluster(ChaosProfile::lossy(0xC6_5EED)), CgClass::S);
        // NPB verification value first, then the stronger claim: chaos
        // recovery must not perturb a single bit of the arithmetic.
        assert!(
            (chaotic.zeta - 8.5971775078648).abs() <= 1e-10,
            "zeta={}",
            chaotic.zeta
        );
        assert_eq!(chaotic.zeta.to_bits(), clean.zeta.to_bits());
        assert_eq!(chaotic.rnorm.to_bits(), clean.rnorm.to_bits());
        assert!(report.cluster.fabric_errors.is_empty());
        let h = report.cluster.link_health_totals();
        assert!(
            h.retransmits >= 1,
            "a lossy soak must exercise the retransmit path: {h:?}"
        );
    });
}

/// The protocol layer on a lossy fabric: whatever mix of invalidations,
/// update pushes, and retransmissions the update mode ends up with, CG
/// class S must land on the bits of the clean invalidate baseline. Chaos reorders the sharer history's *timing* but never its
/// barrier-interval content, so even the per-page decisions stay aligned.
#[test]
fn protocol_modes_are_bit_identical_under_lossy_chaos() {
    use parade::dsm::{DsmConfig, ProtoSelect};

    run_with_timeout("proto-chaos", SOAK, || {
        let mk = |proto: ProtoSelect, chaos: ChaosProfile| {
            Cluster::builder()
                .config(ClusterConfig {
                    dsm: DsmConfig {
                        proto_select: proto,
                        ..DsmConfig::default()
                    },
                    ..ClusterConfig::default()
                })
                .nodes(4)
                .threads_per_node(2)
                .net(NetProfile::clan_via())
                .time(TimeSource::Manual)
                .chaos(chaos)
                .build()
                .expect("cluster")
        };
        let (clean, _) = cg_parade(
            &mk(ProtoSelect::Invalidate, ChaosProfile::off()),
            CgClass::S,
        );
        for proto in [ProtoSelect::Update, ProtoSelect::Invalidate] {
            let (chaotic, report) =
                cg_parade(&mk(proto, ChaosProfile::lossy(0x000A_DA97)), CgClass::S);
            assert_eq!(
                chaotic.zeta.to_bits(),
                clean.zeta.to_bits(),
                "{proto:?} under chaos diverged from the clean invalidate baseline"
            );
            assert_eq!(chaotic.rnorm.to_bits(), clean.rnorm.to_bits(), "{proto:?}");
            assert!(report.cluster.fabric_errors.is_empty());
            assert!(
                report.cluster.link_health_totals().retransmits >= 1,
                "{proto:?}: the lossy schedule must exercise retransmission"
            );
        }
    });
}

#[test]
fn helmholtz_is_bit_identical_under_lossy_chaos() {
    run_with_timeout("helmholtz-chaos", SOAK, || {
        let p = HelmholtzParams::sized(32, 32, 50);
        let (clean, _) = helmholtz_parade(&soak_cluster(ChaosProfile::off()), p);
        let (chaotic, report) =
            helmholtz_parade(&soak_cluster(ChaosProfile::lossy(0x4E1D_A7A5)), p);
        assert_eq!(chaotic.iters, clean.iters);
        assert_eq!(chaotic.error.to_bits(), clean.error.to_bits());
        assert_eq!(
            chaotic.solution_error.to_bits(),
            clean.solution_error.to_bits()
        );
        assert!(report.cluster.fabric_errors.is_empty());
        let h = report.cluster.link_health_totals();
        assert!(h.retransmits >= 1, "{h:?}");
    });
}

/// The fresh-page programs of `tests/fresh_pages.rs` on a lossy wire, in
/// both protocol selections: one writer a page (no diff at all), two
/// writers a page (held diffs shipped after the departure, then the extra
/// round), a lock-release diff meeting a held one, and the `PushReq`
/// repair. Every read must land on the bits of the clean run, which reads
/// every value written.
#[test]
fn fresh_page_programs_are_bit_identical_under_lossy_chaos() {
    use parade::dsm::ProtoSelect;
    use parade::prelude::ProtocolMode;

    type Program = fn(&Cluster) -> (Vec<Vec<u64>>, RunReport);
    run_with_timeout("fresh-page-chaos", SOAK, || {
        let programs: [(Program, usize); 4] = [
            (fresh::one_writer_per_page, 8 * 2 * fresh::PAGE_F64),
            (fresh::two_writers_per_page, fresh::PAGES * fresh::PAGE_F64),
            (fresh::lock_and_plain_writer, fresh::PAGES * fresh::PAGE_F64),
            (
                fresh::lock_writer_invalidated_by_its_grant,
                fresh::PAGES * fresh::PAGE_F64,
            ),
        ];
        let mut retransmits = 0;
        for (k, (program, len)) in programs.into_iter().enumerate() {
            for proto in [ProtoSelect::Update, ProtoSelect::Invalidate] {
                let mk = |chaos| fresh::cluster(4, 2, ProtocolMode::Parade, proto, chaos);
                let (clean, _) = program(&mk(ChaosProfile::off()));
                assert!(
                    clean.iter().all(|t| *t == fresh::every_value(len)),
                    "program {k} {proto:?}: a clean read missed a written value"
                );
                let (chaotic, report) = program(&mk(ChaosProfile::lossy(0xF2E5_0000 + k as u64)));
                assert!(
                    chaotic == clean,
                    "program {k} {proto:?} diverged under chaos"
                );
                assert!(report.cluster.fabric_errors.is_empty());
                retransmits += report.cluster.link_health_totals().retransmits;
                // Two writers a page: held diffs shipped to node 0 on a
                // lossy wire, once each (nodes 1 and 2).
                if k == 1 {
                    let shippers = fresh::half_writers(4).iter().filter(|&&w| w != 0).count();
                    assert_eq!(
                        report.cluster.dsm_totals().diffs_sent,
                        (fresh::PAGES * shippers) as u64
                    );
                }
            }
        }
        assert!(retransmits >= 1, "the lossy schedules must retransmit");
    });
}

/// Barriers that publish nothing ask every node's write flag with one
/// allreduce before they take the DSM barrier. On a lossy fabric the
/// answers, the DSM barriers they pick and every value read must match the
/// clean run: alternating quiet and writing barriers, then a stretch of
/// quiet barriers ended by writes under a generic `critical`.
fn quiet_barrier_mix(chaos: ChaosProfile) -> (Vec<u64>, RunReport) {
    const ROUNDS: usize = 12;
    let cluster = soak_cluster(chaos);
    let (out, report) = cluster.run_with_report(|g| {
        let threads = g.num_threads();
        // Two buffers, written in turn by the even rounds, so a write never
        // meets a read of the previous round that has not passed a barrier.
        let xs = g.alloc_f64(2 * threads);
        let total = g.alloc_f64(1);
        let sums = g.alloc_f64(threads);
        g.parallel(move |tc| {
            let me = tc.thread_num();
            let mut acc = 0.0f64;
            let mut fold = |tc: &ThreadCtx, buf: usize| {
                for i in 0..threads {
                    acc = acc * 1.000_001 + tc.get(&xs, buf * threads + i);
                }
            };
            let buf_of = |round: usize| (round / 2) % 2;
            for round in 0..ROUNDS {
                // Even rounds write before the barrier, odd ones do not.
                if round % 2 == 0 {
                    let v = (round * threads + me) as f64 + 0.25;
                    tc.set(&xs, buf_of(round) * threads + me, v);
                }
                tc.barrier();
                fold(tc, buf_of(round));
            }
            for _ in 0..5 {
                tc.barrier();
                fold(tc, buf_of(ROUNDS - 1));
            }
            // Integer-valued sums land on the same bits in any lock order.
            tc.critical(9, |tc| {
                let v = tc.get(&total, 0);
                tc.set(&total, 0, v + (me + 1) as f64);
            });
            tc.barrier();
            let sum = tc.get(&total, 0);
            tc.set(&sums, me, acc + sum);
        });
        (0..threads).map(|i| g.get(&sums, i).to_bits()).collect()
    });
    (out, report)
}

#[test]
fn quiet_and_writing_barriers_are_bit_identical_under_lossy_chaos() {
    run_with_timeout("quiet-barrier-chaos", SOAK, || {
        let (clean, clean_report) = quiet_barrier_mix(ChaosProfile::off());
        let (chaotic, report) = quiet_barrier_mix(ChaosProfile::lossy(0x0041_E7B4));
        assert_eq!(chaotic, clean);
        // Per node: the fork (it allocated), the 12 rounds (round 0 follows
        // the fork and every odd round a publishing barrier, so they go
        // straight to the DSM barrier, the odd ones publishing nothing;
        // every later even round asks and finds a write), the critical's
        // barrier (asks, finds the notices) and the join. The 5 quiet
        // barriers after the last odd round ask and take none.
        assert_eq!(clean_report.cluster.dsm_totals().barriers, 4 * 15);
        assert_eq!(
            report.cluster.dsm_totals().barriers,
            clean_report.cluster.dsm_totals().barriers,
            "every barrier took the DSM barrier, or asked, as in the clean run"
        );
        assert!(report.cluster.fabric_errors.is_empty());
        let h = report.cluster.link_health_totals();
        assert!(h.retransmits >= 1, "{h:?}");
    });
}

// ---------------------------------------------------------------------------
// Satellite: negative path — a dead link fails fast, loudly, and visibly.
// ---------------------------------------------------------------------------

#[test]
fn dead_link_fails_with_structured_error_within_bounded_virtual_time() {
    run_with_timeout("dead-link", SOAK, || {
        let chaos = ChaosProfile::off().with_link(
            0,
            2,
            ChaosKnobs {
                drop: 1.0,
                ..ChaosKnobs::CALM
            },
        );
        let fabric = Fabric::with_chaos(3, NetProfile::clan_via(), chaos.clone());
        // A receiver parked on an unrelated node: fail-stop shutdown must
        // release it rather than leave it blocked forever.
        let waiter = {
            let ep = fabric.endpoint(1);
            std::thread::spawn(move || ep.recv_raw(MsgClass::P2p, Match::any()))
        };
        let mut clk = VClock::manual();
        let err = fabric
            .endpoint(0)
            .send_checked(
                2,
                MsgClass::Dsm,
                9,
                Bytes::copy_from_slice(b"doomed"),
                &mut clk,
            )
            .unwrap_err();
        assert_eq!((err.src, err.dst), (0, 2));
        assert_eq!(err.attempts, chaos.retry_budget + 1);
        // Exhaustion is bounded in *virtual* time: the ARQ gives up at
        // Σ_{k=0}^{budget} rto·backoff^k, never later.
        let bound_ns = chaos.rto.as_nanos()
            * (0..=chaos.retry_budget)
                .map(|k| u64::from(chaos.backoff).pow(k))
                .sum::<u64>();
        assert_eq!(err.gave_up_at, VTime::from_nanos(bound_ns));
        let msg = err.to_string();
        assert!(msg.contains("fabric link 0->2 dead"), "{msg}");
        assert!(msg.contains("DSM protocol request"), "{msg}");
        // Fail-stop: the error sticks in the stats and blocked peers wake.
        assert_eq!(
            fabric.stats().fabric_errors().first().map(|e| e.dst),
            Some(2)
        );
        assert!(fabric.stats().link_health_totals().send_failures >= 1);
        assert!(waiter.join().unwrap().is_err(), "shutdown must unblock");
    });
}

#[test]
fn dead_link_error_reaches_the_stats_report() {
    run_with_timeout("dead-link-report", SOAK, || {
        // Kill only the P2p class so the DSM runtime underneath stays
        // healthy; the node program then exercises the doomed class itself.
        let chaos = ChaosProfile::off().with_class(
            MsgClass::P2p,
            ChaosKnobs {
                drop: 1.0,
                ..ChaosKnobs::CALM
            },
        );
        let cfg = ClusterConfig {
            nodes: 2,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            chaos,
            ..ClusterConfig::default()
        };
        let (results, report) = launch(cfg, |env: NodeEnv| {
            let mut clk = env.new_clock();
            // All nodes meet first so nobody is mid-protocol when the
            // doomed send shuts the fabric down.
            env.dsm.barrier(&mut clk);
            if env.node == 0 {
                let ep = env.fabric.endpoint(0);
                ep.send_checked(
                    1,
                    MsgClass::P2p,
                    77,
                    Bytes::copy_from_slice(b"lost cause"),
                    &mut clk,
                )
                .err()
            } else {
                None
            }
        });
        let err = results[0].clone().expect("node 0 must observe the failure");
        assert_eq!((err.src, err.dst, err.tag), (0, 1, 77));
        let err2 = report
            .fabric_errors
            .first()
            .expect("error must reach the report");
        assert_eq!(err2.to_string(), err.to_string());
        // And it must survive all the way into the rendered StatsReport
        // (the same copying StatsReport::from_run performs on a RunReport).
        let sr = StatsReport {
            label: "dead-link".into(),
            exec_time: VTime::ZERO,
            node_times: vec![VTime::ZERO; 2],
            node_compute: Vec::new(),
            node_comm: Vec::new(),
            dsm: report.dsm_totals(),
            net: report.net.clone(),
            link_health: report.link_health.clone(),
            fabric_errors: report.fabric_errors.clone(),
            trace: None,
        };
        let text = sr.render();
        assert!(
            text.contains("FABRIC ERROR: fabric link 0->1 dead"),
            "{text}"
        );
        assert!(text.contains("MPI point-to-point message"), "{text}");
        assert!(text.contains("net reliability:"), "{text}");
    });
}

#[test]
fn two_links_dying_in_the_same_interval_are_both_named_in_the_report() {
    run_with_timeout("two-dead-links", SOAK, || {
        // Both node 1 and node 2 lose their link to node 0 in the same
        // interval. Fail-stop shutdown races the two ARQ exhaustions, but
        // the per-link error ledger must keep both — a report naming only
        // whichever error landed first sends the operator to replace the
        // wrong cable.
        let chaos = ChaosProfile::off()
            .with_link_death(1, 0, 2)
            .with_link_death(2, 0, 2);
        let cfg = ClusterConfig {
            nodes: 3,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            chaos,
            ..ClusterConfig::default()
        };
        let (results, report) = launch(cfg, |env: NodeEnv| {
            let mut clk = env.new_clock();
            if env.node == 0 {
                return None;
            }
            let ep = env.fabric.endpoint(env.node);
            let mut seq = 0u64;
            loop {
                let payload = Bytes::copy_from_slice(&[0u8; 8]);
                match ep.send_checked(0, MsgClass::P2p, seq, payload, &mut clk) {
                    Ok(()) => {
                        seq += 1;
                        clk.charge(VTime::from_micros(1));
                    }
                    Err(e) => return Some(e),
                }
            }
        });
        // Each doomed sender observed its *own* link die, not a shared
        // first-wins error.
        for node in [1usize, 2] {
            let e = results[node].clone().expect("doomed sender must fail");
            assert_eq!((e.src, e.dst), (node, 0), "{e}");
        }
        assert_eq!(report.fabric_errors.len(), 2, "{:?}", report.fabric_errors);
        let mut srcs: Vec<usize> = report.fabric_errors.iter().map(|e| e.src).collect();
        srcs.sort_unstable();
        assert_eq!(srcs, vec![1, 2], "both dead links recorded");
        // And the rendered StatsReport names both links.
        let sr = StatsReport {
            label: "two-dead-links".into(),
            exec_time: VTime::ZERO,
            node_times: vec![VTime::ZERO; 3],
            node_compute: Vec::new(),
            node_comm: Vec::new(),
            dsm: report.dsm_totals(),
            net: report.net.clone(),
            link_health: report.link_health.clone(),
            fabric_errors: report.fabric_errors.clone(),
            trace: None,
        };
        let text = sr.render();
        assert!(
            text.contains("FABRIC ERROR: fabric link 1->0 dead"),
            "{text}"
        );
        assert!(
            text.contains("FABRIC ERROR: fabric link 2->0 dead"),
            "{text}"
        );
    });
}

// ---------------------------------------------------------------------------
// A dead link under a multi-thread node: whichever thread meets it — the
// thread leading a node barrier, or one faulting a page on its own — its
// panic must fail the run, not strand its node-mates at the node barrier.
// ---------------------------------------------------------------------------

/// Watchdog budget for the dead-link runs below: each takes milliseconds,
/// and the failure they guard against is a hang.
const DEAD_LINK: Duration = Duration::from_secs(60);

/// Message counts after which link 1→0 dies: from the launch traffic to a
/// few dozen rounds in, so the death lands on different protocol steps.
const DEATH_POINTS: [u64; 10] = [6, 8, 11, 14, 17, 19, 22, 25, 27, 30];

fn two_by_two_with_link_1_to_0_dying_after(msgs: u64) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .threads_per_node(2)
        .net(NetProfile::clan_via())
        .time(TimeSource::Manual)
        .chaos(ChaosProfile::off().with_link_death(1, 0, msgs))
        .build()
        .expect("cluster")
}

fn assert_failed_on_link_1_to_0<R>(
    msgs: u64,
    run: Result<(R, parade::core::RunReport), Box<parade::core::FailedRun>>,
) {
    let Err(failed) = run else {
        panic!("link 1->0 died after {msgs} messages, yet the run completed");
    };
    assert!(failed.is_fabric_death(), "after {msgs}: {failed}");
    assert!(
        failed
            .fabric_errors()
            .iter()
            .any(|e| (e.src, e.dst) == (1, 0)),
        "after {msgs}: {failed}"
    );
}

#[test]
fn dead_link_fails_a_two_thread_node_whichever_thread_leads() {
    run_with_timeout("dead-link-2x2-collectives", DEAD_LINK, || {
        for msgs in DEATH_POINTS {
            let run = two_by_two_with_link_1_to_0_dying_after(msgs).try_run_with_report(|g| {
                g.parallel(|tc| {
                    for _ in 0..200 {
                        tc.reduce_f64_sum(1.0);
                        tc.barrier();
                    }
                });
            });
            assert_failed_on_link_1_to_0(msgs, run);
        }
    });
}

/// At this PR's parent commit this test hangs (the watchdog fires at the
/// first death point): the pool thread panics in its page fetch and its
/// node's thread 0 waits for it at the next node barrier forever.
#[test]
fn dead_link_met_by_a_pool_thread_fails_the_run() {
    run_with_timeout("dead-link-2x2-pool-fault", DEAD_LINK, || {
        const PAGE_F64S: usize = parade::dsm::PAGE_SIZE / 8;
        for msgs in DEATH_POINTS {
            let run = two_by_two_with_link_1_to_0_dying_after(msgs).try_run_with_report(|g| {
                let xs = g.alloc_f64(8 * PAGE_F64S);
                g.parallel(move |tc| {
                    // Node 0 rewrites one word of each page every round, so
                    // node 1's copies are invalidated at every barrier and
                    // its pool thread (nobody else touches the vector
                    // there) fetches them again over the doomed link.
                    for round in 0..200 {
                        if tc.local_thread() == 1 {
                            for page in 0..8 {
                                if tc.node() == 0 {
                                    tc.set(&xs, page * PAGE_F64S, round as f64);
                                } else {
                                    tc.get(&xs, page * PAGE_F64S);
                                }
                            }
                        }
                        tc.barrier();
                    }
                });
            });
            assert_failed_on_link_1_to_0(msgs, run);
        }
    });
}
