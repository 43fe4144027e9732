//! The system under test. This is the only file that names product items,
//! and it keeps to the smallest stable surface: the cluster builder's four
//! calls, `run_with_report`, the directive calls of `ThreadCtx`/`MasterCtx`,
//! the kernel entry points, `job_mix`/`serve`, the translator pipeline,
//! `Diff`, `Fabric`/`VBarrier`/`VClock`, `Communicator` and the tracer's
//! `start`. It mentions nothing ROADMAP slates for removal, so those PRs
//! cannot break the benchmark they are judged by.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parade_check::check_program;
use parade_core::{Cluster, ReduceOp, RunReport, TaskFn, TimeSource};
use parade_dsm::Diff;
use parade_kernels::cg::{cg_parade_on, cg_sequential_on, makea, CgClass, CgResult, Csr};
use parade_kernels::helmholtz::{
    helmholtz_parade, helmholtz_sequential, HelmholtzParams, HelmholtzResult,
};
use parade_kernels::md::{MdParams, MdResult};
use parade_kernels::nbody_task::{nbody_task_parade, nbody_task_sequential};
use parade_mir::lower_program;
use parade_mpi::datatype::{Reader, Writer};
use parade_mpi::Communicator;
use parade_net::{Bytes, Fabric, Match, MsgClass, NetProfile, VBarrier, VClock};
use parade_serve::{job_mix, serve, ServeConfig, SoakConfig};
use parade_trace::{TraceConfig, TraceSession};
use parade_translator::{parse, translate, EmitMode, Interp, DEFAULT_SMALL_THRESHOLD};

use crate::gen;
use crate::spans::Spans;
use crate::stats;

/// Every cluster the benchmark builds comes from here: these four builder
/// calls and nothing else. Under `Manual` the virtual clock advances only by
/// the cLAN cost model and protocol charges, so simulated time is the
/// modelled system's communication + synchronisation cost and host time is
/// what the simulator itself costs.
fn cluster(nodes: usize, threads_per_node: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(threads_per_node)
        .time(TimeSource::Manual)
        .build()
        .expect("a cluster with at least one node and one thread")
}

#[cfg(test)]
pub fn validate_json(text: &str) -> Result<(), String> {
    parade_trace::validate_json(text)
}

/// What one rep did. An op is one verified kernel rep, one served job or
/// one interpreted program.
#[derive(Default)]
pub struct RepOutcome {
    pub ops: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// Simulated seconds: the master's final virtual clock, the serving
    /// makespan, or the sum of the programs' own `omp_get_wtime()`.
    pub sim_s: f64,
    /// Per-layer counters of this rep, by metric name.
    pub counters: Vec<(&'static str, f64)>,
}

impl RepOutcome {
    fn one_op(check: Result<(), String>, report: &RunReport) -> RepOutcome {
        RepOutcome {
            ops: 1,
            failures: check.err().into_iter().collect(),
            sim_s: report.exec_secs(),
            counters: run_counters(report),
        }
    }
}

pub trait Workload {
    /// Simulated nodes, the divisor of the traced pass's per-node self times.
    fn nodes(&self) -> usize;
    /// How many inputs the reps cycle through: rep `index` runs input
    /// `index % inputs()`. One everywhere but on `serve_mix`.
    fn inputs(&self) -> usize {
        1
    }
    /// One closed-loop rep from cluster build to verified result.
    fn rep(&mut self, index: usize, spans: &mut Spans) -> RepOutcome;
    /// The single-threaded sequential baseline taken in set-up, if any.
    fn seq_baseline(&self) -> Option<(&'static str, f64)> {
        None
    }
    /// Per-layer metrics read off the harness's own spans of a traced rep.
    fn span_metrics(&self, _spans: &Spans) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Generate inputs and the sequential reference for `name`.
pub fn setup(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cg_dsm" => Box::new(CgDsm::setup(quick)),
        "stencil_dsm" => Box::new(Stencil::setup(4, seed, quick)),
        "stencil_local" => Box::new(Stencil::setup(1, seed, quick)),
        "sync_directives" => Box::new(SyncDirectives::setup(seed, quick)),
        "task_nbody" => Box::new(TaskNbody::setup(seed, quick)),
        "serve_mix" => Box::new(ServeMix::setup(seed, quick)),
        "translate_corpus" => Box::new(TranslateCorpus::setup(seed, quick)?),
        _ => return None,
    })
}

fn dsm_counters(d: &parade_dsm::DsmStatsSnapshot) -> Vec<(&'static str, f64)> {
    let ratio = if d.prefetch_pages == 0 {
        0.0
    } else {
        d.prefetch_hits as f64 / d.prefetch_pages as f64
    };
    vec![
        ("dsm.read_faults", d.read_faults as f64),
        ("dsm.write_faults", d.write_faults as f64),
        ("dsm.page_fetches", d.page_fetches as f64),
        ("dsm.fetch_bytes", d.fetch_bytes as f64),
        ("dsm.range_fetches", d.range_fetches as f64),
        ("dsm.twins_created", d.twins_created as f64),
        ("dsm.diffs_sent", d.diffs_sent as f64),
        ("dsm.diff_bytes", d.diff_bytes as f64),
        ("dsm.diff_batches", d.diff_batches as f64),
        ("dsm.invalidations", d.invalidations as f64),
        ("dsm.home_migrations", d.home_migrations as f64),
        ("dsm.barriers", d.barriers as f64),
        ("dsm.lock_acquires", d.lock_acquires as f64),
        ("dsm.serviced_requests", d.serviced_requests as f64),
        ("dsm.update_waits", d.update_waits as f64),
        ("dsm.update_pushes", d.update_pushes as f64),
        ("dsm.prefetch_pages", d.prefetch_pages as f64),
        ("dsm.prefetch_hits", d.prefetch_hits as f64),
        ("dsm.prefetch_hit_ratio", ratio),
        ("dsm.checkpoint_bytes", d.checkpoint_bytes as f64),
    ]
}

fn run_counters(r: &RunReport) -> Vec<(&'static str, f64)> {
    let mut c = dsm_counters(&r.cluster.dsm_totals());
    c.push(("net.msgs", r.cluster.traffic.msgs as f64));
    c.push(("net.bytes", r.cluster.traffic.bytes as f64));
    c.push((
        "net.retransmits",
        r.cluster.link_health_totals().retransmits as f64,
    ));
    let master = r.node_times[0].as_secs_f64();
    if master > 0.0 {
        c.push(("core.comm_share", r.node_comm[0].as_secs_f64() / master));
    }
    c
}

fn close(got: f64, want: f64, what: &str) -> Result<(), String> {
    if (got - want).abs() <= 1e-12 * want.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("{what}: parallel {got:e} vs sequential {want:e}"))
    }
}

fn same_bits(got: f64, want: f64, what: &str) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: {got:e} is not bit-equal to {want:e}"))
    }
}

// ---- cg_dsm ---------------------------------------------------------------

/// NAS CG via `cg_parade_on`, 4 nodes × 2 threads. The paper's most
/// shared-data-heavy kernel: read faults, page fetches and wire bytes.
struct CgDsm {
    class: CgClass,
    matrix: Csr,
    reference: CgResult,
    seq_s: f64,
}

impl CgDsm {
    fn setup(quick: bool) -> CgDsm {
        let class = if quick { CgClass::S } else { CgClass::A };
        let matrix = makea(class);
        let p = class.params();
        let t = Instant::now();
        let reference = cg_sequential_on(&matrix, p.shift, p.niter);
        CgDsm {
            class,
            matrix,
            reference,
            seq_s: t.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for CgDsm {
    fn nodes(&self) -> usize {
        4
    }

    fn rep(&mut self, _index: usize, spans: &mut Spans) -> RepOutcome {
        let p = self.class.params();
        let c = spans.scope("cluster.build", |_| cluster(4, 2));
        let matrix = self.matrix.clone();
        let (res, report) = spans.scope("kernels.cg_parade_on", |_| {
            cg_parade_on(&c, matrix, p.shift, p.niter)
        });
        let check = spans.scope("verify", |_| {
            if !res.verify(self.class) {
                return Err(format!("zeta {} fails NPB verification", res.zeta));
            }
            // Eight threads reduce in a different order than one, so the
            // last ulp may differ from the sequential run.
            close(res.zeta, self.reference.zeta, "zeta")
        });
        RepOutcome::one_op(check, &report)
    }

    fn seq_baseline(&self) -> Option<(&'static str, f64)> {
        Some(("kernels.cg_seq_s", self.seq_s))
    }
}

// ---- stencil_dsm / stencil_local -----------------------------------------

/// `helmholtz_parade`, ~1000 × 1000, 100 iterations. On 4 nodes it is the
/// DSM write path (write faults, twins, diffs, migratory home, a reduction
/// and a barrier per iteration); on 1 node no page is remote and what is
/// left is the `SharedVec` software-fault-check hit path and the intra-node
/// barrier — the bypass workload for every net/mpi/dsm-protocol change.
struct Stencil {
    nodes: usize,
    params: HelmholtzParams,
    reference: HelmholtzResult,
    seq_s: f64,
}

impl Stencil {
    fn setup(nodes: usize, seed: u64, quick: bool) -> Stencil {
        // The problem is seedless by definition, but on one node its
        // simulated time is a pure function of the input: the seed moves the
        // row count by under 1 % so that runs with different seeds differ
        // (hashed first: seeds 16 apart must not all land on one size).
        let jitter = (gen::sub_seed(seed, 0) % 15) as usize;
        let mut params = if quick {
            HelmholtzParams::sized(193 + jitter, 200, 20)
        } else {
            HelmholtzParams::sized(993 + jitter, 1000, 100)
        };
        // Never converge early: every rep runs all its iterations.
        params.tol = 1e-30;
        let t = Instant::now();
        let reference = helmholtz_sequential(params);
        Stencil {
            nodes,
            params,
            reference,
            seq_s: t.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for Stencil {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn rep(&mut self, _index: usize, spans: &mut Spans) -> RepOutcome {
        let c = spans.scope("cluster.build", |_| cluster(self.nodes, 2));
        let (res, report) = spans.scope("kernels.helmholtz_parade", |_| {
            helmholtz_parade(&c, self.params)
        });
        let want = &self.reference;
        let check = spans.scope("verify", |_| {
            if res.iters != want.iters {
                return Err(format!("{} iterations, expected {}", res.iters, want.iters));
            }
            // The grid itself never sees the reduction, so it is bit-equal;
            // the residual is a sum over threads and may differ in the last ulp.
            same_bits(res.solution_error, want.solution_error, "solution error")?;
            close(res.error, want.error, "residual")
        });
        RepOutcome::one_op(check, &report)
    }

    fn seq_baseline(&self) -> Option<(&'static str, f64)> {
        // One name for both stencil workloads: it is the same problem.
        Some(("kernels.stencil_seq_s", self.seq_s))
    }
}

// ---- sync_directives ------------------------------------------------------

/// One region per directive on 4 nodes, public `ThreadCtx` calls only. The
/// paper's headline (§4.2/§6.1): small-data synchronisation over `mpi`
/// collectives and `core`'s small-data path, almost no page traffic.
struct SyncDirectives {
    /// Constructs per region. Never above 1000: a barrier-less `single`
    /// loop laps its node-mate beyond that (see README, known bugs).
    constructs: usize,
    /// Times the five regions repeat within a rep.
    rounds: usize,
    reference: DirectiveTotals,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct DirectiveTotals {
    threads: f64,
    critical: f64,
    single: f64,
    reduced: f64,
    atomic: f64,
}

/// The five regions, `rounds` times, `n` constructs each.
fn directives(on: &Cluster, n: usize, rounds: usize) -> (DirectiveTotals, RunReport) {
    on.run_with_report(move |g| {
        let crit = g.alloc_scalar_f64();
        let single = g.alloc_scalar_f64();
        let atomic = g.alloc_scalar_f64();
        let mut last_single = 0.0;
        let mut reduced = 0.0;
        for _ in 0..rounds {
            g.parallel(move |tc| {
                for _ in 0..n {
                    tc.critical_reduce_f64(&crit, ReduceOp::Sum, 1.0);
                }
                tc.barrier();
            });
            last_single = g.parallel(move |tc| {
                let mut v = 0.0;
                for k in 0..n {
                    v = tc.single_f64(&single, |_| k as f64);
                }
                v
            });
            g.parallel(move |tc| {
                for _ in 0..n {
                    tc.barrier();
                }
            });
            reduced = g.parallel(move |tc| {
                let mut v = 0.0;
                for _ in 0..n {
                    v = tc.reduce_f64_sum(1.0);
                }
                v
            });
            g.parallel(move |tc| {
                for _ in 0..n {
                    tc.atomic_add_f64(&atomic, 1.0);
                }
                tc.barrier();
            });
        }
        DirectiveTotals {
            threads: g.num_threads() as f64,
            critical: g.scalar_get_f64(&crit),
            single: last_single,
            reduced,
            atomic: g.scalar_get_f64(&atomic),
        }
    })
}

/// 4 nodes × 2 threads.
const DIRECTIVE_TEAM: usize = 8;

/// What the five regions must leave behind, worked out by one thread taking
/// every team member's every construct in turn.
fn directives_sequential(n: usize, rounds: usize) -> DirectiveTotals {
    let one = std::hint::black_box(1.0);
    let mut want = DirectiveTotals {
        threads: DIRECTIVE_TEAM as f64,
        critical: 0.0,
        single: 0.0,
        reduced: 0.0,
        atomic: 0.0,
    };
    for _ in 0..rounds {
        for k in 0..n {
            want.reduced = 0.0;
            for _ in 0..DIRECTIVE_TEAM {
                want.critical += one;
                want.atomic += one;
                want.reduced += one;
            }
            want.single = k as f64;
        }
    }
    want
}

impl SyncDirectives {
    fn setup(seed: u64, quick: bool) -> SyncDirectives {
        // Simulated time is a pure function of the construct count; the
        // seed takes off up to 1.5 % so that runs with different seeds differ.
        let jitter = (gen::sub_seed(seed, 0) % 16) as usize;
        let (constructs, rounds) = if quick {
            (100 - jitter, 1)
        } else {
            (1000 - jitter, 2)
        };
        SyncDirectives {
            constructs,
            rounds,
            reference: directives_sequential(constructs, rounds),
        }
    }
}

impl Workload for SyncDirectives {
    fn nodes(&self) -> usize {
        4
    }

    fn rep(&mut self, _index: usize, spans: &mut Spans) -> RepOutcome {
        let c = spans.scope("cluster.build", |_| cluster(4, DIRECTIVE_TEAM / 4));
        let (got, report) = spans.scope("core.directives", |_| {
            directives(&c, self.constructs, self.rounds)
        });
        let check = spans.scope("verify", |_| {
            let want = self.reference;
            if got == want {
                Ok(())
            } else {
                Err(format!("directive totals {got:?}, expected {want:?}"))
            }
        });
        RepOutcome::one_op(check, &report)
    }
}

// ---- task_nbody -----------------------------------------------------------

/// `nbody_task_parade`: tens of thousands of tiny tasks, so the scheduler
/// (deque, steal, termination, merge broadcast) dominates the compute.
struct TaskNbody {
    params: MdParams,
    blocks: usize,
    reference: MdResult,
    seq_s: f64,
}

impl TaskNbody {
    fn setup(seed: u64, quick: bool) -> TaskNbody {
        let (np, steps, blocks) = if quick { (64, 40, 16) } else { (256, 1000, 64) };
        let params = MdParams {
            np,
            steps,
            seed,
            ..MdParams::default()
        };
        let t = Instant::now();
        let reference = nbody_task_sequential(params, blocks);
        TaskNbody {
            params,
            blocks,
            reference,
            seq_s: t.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for TaskNbody {
    fn nodes(&self) -> usize {
        4
    }

    fn rep(&mut self, _index: usize, spans: &mut Spans) -> RepOutcome {
        let c = spans.scope("cluster.build", |_| cluster(4, 2));
        let (res, report) = spans.scope("kernels.nbody_task_parade", |_| {
            nbody_task_parade(&c, self.params, self.blocks)
        });
        let want = &self.reference;
        let check = spans.scope("verify", |_| {
            same_bits(res.first.potential, want.first.potential, "first potential")?;
            same_bits(res.first.kinetic, want.first.kinetic, "first kinetic")?;
            same_bits(res.last.potential, want.last.potential, "last potential")?;
            same_bits(res.last.kinetic, want.last.kinetic, "last kinetic")
        });
        RepOutcome::one_op(check, &report)
    }

    fn seq_baseline(&self) -> Option<(&'static str, f64)> {
        Some(("kernels.nbody_seq_s", self.seq_s))
    }
}

// ---- serve_mix ------------------------------------------------------------

/// `job_mix` + `serve`: 400 short jobs on a 12-node machine, one death in
/// seven. Admission, backfill, checkpoint and re-home in `serve`, and the
/// launch and teardown of hundreds of short-lived sub-clusters.
///
/// The simulated makespan of one mix lands on one of three levels 0.4 s
/// apart (6.8, 7.2, 7.6 s), so a run serves a fixed cycle of [`MIXES`]
/// mixes, all derived from `--seed`, and reports the mean over the mixes:
/// the same number however many times the cycle ran.
struct ServeMix {
    mixes: Vec<Mix>,
}

struct Mix {
    soak: SoakConfig,
    /// Each job's id and the digest of its sequential reference run.
    reference: Vec<(u64, u64)>,
}

/// Mixes per run; no more than `child::MIN_REPS`, so each is served.
const MIXES: usize = 7;

impl ServeMix {
    fn soak(seed: u64, mix: usize, quick: bool) -> SoakConfig {
        SoakConfig {
            jobs: if quick { 40 } else { 400 },
            seed: gen::sub_seed(seed, mix as u64),
            ..Default::default()
        }
    }

    fn setup(seed: u64, quick: bool) -> ServeMix {
        let mixes = (0..if quick { 1 } else { MIXES })
            .map(|mix| {
                let soak = ServeMix::soak(seed, mix, quick);
                let reference = job_mix(&soak)
                    .0
                    .iter()
                    .map(|spec| (spec.id, spec.kind.reference_digest()))
                    .collect();
                Mix { soak, reference }
            })
            .collect();
        ServeMix { mixes }
    }
}

/// Mix `mix` of `seed` as text, for the determinism test.
#[cfg(test)]
pub fn job_mix_text(seed: u64, mix: usize) -> String {
    let (jobs, deaths) = job_mix(&ServeMix::soak(seed, mix, true));
    format!("{jobs:?}\n{deaths:?}")
}

impl Workload for ServeMix {
    fn nodes(&self) -> usize {
        self.mixes[0].soak.machine_nodes
    }

    fn inputs(&self) -> usize {
        self.mixes.len()
    }

    fn rep(&mut self, index: usize, spans: &mut Spans) -> RepOutcome {
        let Mix { soak, reference } = &self.mixes[index % self.mixes.len()];
        let (jobs, deaths) = spans.scope("serve.job_mix", |_| job_mix(soak));
        let cfg = ServeConfig {
            machine_nodes: soak.machine_nodes,
            deaths,
            ..Default::default()
        };
        let started = Instant::now();
        let report = spans.scope("serve.serve", |_| serve(&cfg, jobs));
        let host_s = started.elapsed().as_secs_f64();

        let mut out = RepOutcome {
            ops: reference.len() as u64,
            sim_s: report.makespan.as_secs_f64(),
            ..Default::default()
        };
        spans.scope("verify", |_| {
            for &(id, want) in reference {
                let verdict = match report.outcome(id) {
                    None => Err("never completed".to_string()),
                    Some(o) if o.completions != 1 => {
                        Err(format!("completed {} times", o.completions))
                    }
                    Some(o) if o.digest != want => {
                        Err("digest differs from the sequential reference".to_string())
                    }
                    Some(_) => Ok(()),
                };
                if let Err(why) = verdict {
                    out.failures.push(format!("job {id}: {why}"));
                }
            }
        });

        let done = report.outcomes.len().max(1) as f64;
        let mut dsm = parade_dsm::DsmStatsSnapshot::default();
        let (mut msgs, mut bytes, mut retransmits) = (0u64, 0u64, 0u64);
        let (mut attempts, mut waited) = (0u64, 0.0);
        let mut latencies = Vec::with_capacity(report.outcomes.len());
        for o in &report.outcomes {
            dsm.merge(&o.stats.dsm);
            for n in &o.stats.net {
                msgs += n.sent.msgs;
                bytes += n.sent.bytes;
            }
            retransmits += o.stats.link_health_totals().retransmits;
            attempts += u64::from(o.attempts);
            waited += o.waited().as_secs_f64();
            latencies.push(o.finish_at.as_secs_f64() - o.submit_at.as_secs_f64());
        }
        out.counters = dsm_counters(&dsm);
        out.counters.extend([
            ("net.msgs", msgs as f64),
            ("net.bytes", bytes as f64),
            ("net.retransmits", retransmits as f64),
            ("serve.rehomes", report.rehomes() as f64),
            ("serve.attempts_per_job", attempts as f64 / done),
            ("serve.sim_wait_mean_s", waited / done),
            ("serve.host_us_per_job", host_s * 1e6 / done),
        ]);
        if !latencies.is_empty() {
            out.counters
                .push(("serve.sim_job_p50_s", stats::percentile(&latencies, 50.0)));
        }
        // p95 is the highest percentile 400 jobs support (20 beyond it); the
        // smoke mode's 40 jobs support none that high.
        if stats::highest_percentile(latencies.len()).is_some_and(|p| p >= 95.0) {
            out.counters
                .push(("serve.sim_job_p95_s", stats::percentile(&latencies, 95.0)));
        }
        out
    }
}

// ---- translate_corpus -----------------------------------------------------

/// Generated mini-C OpenMP programs through parse → check → lower → emit →
/// interpret on 2 nodes × 2 threads: the only workload where `translator`,
/// `mir` and `check` do the work and the runtime layers do little.
struct TranslateCorpus {
    programs: Vec<gen::Program>,
    /// Output of the 1-node × 1-thread run, `@wtime` line removed.
    reference: Vec<String>,
}

/// Split a program's output into what it printed and its own simulated time.
fn split_wtime(stdout: &str) -> Option<(String, f64)> {
    let mut text = String::new();
    let mut wtime = None;
    for line in stdout.lines() {
        match line.strip_prefix(gen::WTIME_PREFIX) {
            Some(t) => wtime = t.trim().parse().ok(),
            None => {
                text.push_str(line);
                text.push('\n');
            }
        }
    }
    Some((text, wtime?))
}

fn interpret(source: &str, on: &Cluster) -> Result<(String, f64), String> {
    let prog = parse(source).map_err(|e| format!("parse: {e}"))?;
    let out = Interp::new(prog).run(on).map_err(|e| format!("run: {e}"))?;
    if out.exit != 0 {
        return Err(format!("exit code {}", out.exit));
    }
    split_wtime(&out.stdout).ok_or_else(|| "no @wtime line".to_string())
}

impl TranslateCorpus {
    fn setup(seed: u64, quick: bool) -> Option<TranslateCorpus> {
        let programs = if quick {
            gen::corpus(seed, 1, 16)
        } else {
            gen::corpus(seed, 4, 1)
        };
        let serial = cluster(1, 1);
        let mut reference = Vec::with_capacity(programs.len());
        for p in &programs {
            match interpret(&p.source, &serial) {
                Ok((text, _)) => reference.push(text),
                Err(why) => {
                    eprintln!("translate_corpus set-up: {}: {why}", p.name);
                    return None;
                }
            }
        }
        Some(TranslateCorpus {
            programs,
            reference,
        })
    }

    /// Loop iterations one rep interprets.
    fn trips(&self) -> u64 {
        self.programs.iter().map(|p| p.trips).sum()
    }
}

impl Workload for TranslateCorpus {
    fn nodes(&self) -> usize {
        2
    }

    fn rep(&mut self, _index: usize, spans: &mut Spans) -> RepOutcome {
        let c = spans.scope("cluster.build", |_| cluster(2, 2));
        let mut out = RepOutcome {
            ops: self.programs.len() as u64,
            ..Default::default()
        };
        for (p, want) in self.programs.iter().zip(&self.reference) {
            let verdict = (|| {
                let prog = spans
                    .scope("translator.parse", |_| parse(&p.source))
                    .map_err(|e| format!("parse: {e}"))?;
                let diags = spans.scope("check.analyze", |_| check_program(&prog));
                if let Some(d) = diags.first() {
                    return Err(format!("{} diagnostics, first: {}", diags.len(), d.message));
                }
                let mir = spans.scope("mir.lower", |_| lower_program(&prog));
                std::hint::black_box(mir);
                let emitted = spans
                    .scope("translator.emit", |_| {
                        translate(&prog, EmitMode::Parade, DEFAULT_SMALL_THRESHOLD)
                    })
                    .map_err(|e| format!("emit: {e}"))?;
                std::hint::black_box(emitted);
                let run = spans
                    .scope("translator.interp", |_| Interp::new(prog).run(&c))
                    .map_err(|e| format!("run: {e}"))?;
                spans.scope("verify", |_| {
                    let (text, wtime) =
                        split_wtime(&run.stdout).ok_or("no @wtime line".to_string())?;
                    if run.exit != 0 || &text != want {
                        return Err(format!(
                            "exit {} output {text:?}, the serial run printed {want:?}",
                            run.exit
                        ));
                    }
                    Ok(wtime)
                })
            })();
            match verdict {
                Ok(wtime) => out.sim_s += wtime,
                Err(why) => {
                    out.failures.push(format!("{}: {why}", p.name));
                }
            }
        }
        out
    }

    fn span_metrics(&self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let own = spans.self_seconds();
        let get = |k: &str| own.get(k).copied().unwrap_or(0.0);
        let interp = get("translator.interp");
        vec![
            ("translator.parse_s", get("translator.parse")),
            ("check.analyze_s", get("check.analyze")),
            ("mir.lower_s", get("mir.lower")),
            ("translator.emit_s", get("translator.emit")),
            ("translator.interp_s", interp),
            (
                "translator.interp_iters_per_s",
                if interp > 0.0 {
                    self.trips() as f64 / interp
                } else {
                    0.0
                },
            ),
        ]
    }
}

// ---- the traced pass ------------------------------------------------------

/// An active `parade_trace` session around one traced rep.
pub struct Tracing(TraceSession);

/// Events per thread ring. Large enough that the kernels drop little; what
/// is dropped is reported as `trace.dropped`.
const TRACE_RING_EVENTS: usize = 1 << 18;

pub fn trace_start() -> Option<Tracing> {
    parade_trace::start(TraceConfig {
        capacity: TRACE_RING_EVENTS,
    })
    .map(Tracing)
}

impl Tracing {
    /// Per-layer metrics from the product's own trace report: simulated self
    /// time summed by event family and divided by node count, and the task
    /// scheduler's spawn and steal counts.
    pub fn finish(self, nodes: usize) -> Vec<(&'static str, f64)> {
        let report = self.0.finish().report();
        let per_node = |family: &str| {
            let ns: u64 = report
                .spans
                .iter()
                .filter(|r| r.kind.category() == family)
                .map(|r| r.self_ns)
                .sum();
            ns as f64 * 1e-9 / nodes as f64
        };
        let instant = |name: &str| {
            report
                .instants
                .iter()
                .filter(|r| r.kind.name() == name)
                .fold((0u64, 0u64), |(c, a), r| (c + r.count, a + r.arg_sum))
        };
        let spawned = instant("task.spawn").0 as f64;
        let stolen = instant("task.steal").1 as f64;
        vec![
            ("dsm.self_sim_s", per_node("dsm")),
            ("dsm.comm_service_sim_s", per_node("comm")),
            ("mpi.self_sim_s", per_node("mpi")),
            ("core.self_sim_s", per_node("omp")),
            ("tasks.self_sim_s", per_node("task")),
            ("tasks.spawned", spawned),
            ("tasks.stolen", stolen),
            (
                "tasks.steal_ratio",
                if spawned > 0.0 { stolen / spawned } else { 0.0 },
            ),
            ("trace.events", report.events as f64),
            ("trace.dropped", report.dropped as f64),
        ]
    }
}

// ---- layer probes ---------------------------------------------------------

/// A single-caller probe of one public function: `batch(n)` makes `n` calls
/// and returns the host time of just those calls.
pub struct Probe {
    pub name: &'static str,
    /// Smallest batch worth timing: a task phase costs milliseconds before
    /// its first task, so one task per phase would measure the phase.
    pub min_batch: u64,
    pub batch: fn(u64) -> Duration,
}

const fn probe(name: &'static str, batch: fn(u64) -> Duration) -> Probe {
    Probe {
        name,
        min_batch: 1,
        batch,
    }
}

pub const PROBES: [Probe; 14] = [
    probe("dsm.diff_create_sparse_ns", |n| diff_create(n, 512)),
    probe("dsm.diff_create_dense_ns", |n| diff_create(n, 1)),
    probe("dsm.diff_apply_ns", diff_apply),
    probe("dsm.diff_codec_ns", diff_codec),
    probe("net.pingpong_ns", pingpong),
    probe("net.vbarrier_ns", vbarrier),
    probe("mpi.allreduce_ns", |n| {
        collective(n, |c, clock| {
            std::hint::black_box(c.allreduce_f64(1.0, ReduceOp::Sum, clock));
        })
    }),
    probe("mpi.bcast_ns", |n| {
        collective(n, |c, clock| {
            let mut x = [1.0];
            c.bcast_f64s(0, &mut x, clock);
        })
    }),
    probe("mpi.barrier_ns", |n| {
        collective(n, |c, clock| c.barrier(clock))
    }),
    probe("core.shared_get_ns", |n| shared_access(n, false)),
    probe("core.shared_set_ns", |n| shared_access(n, true)),
    probe("core.fork_join_ns", fork_join),
    probe("cluster.launch_ns", launch),
    Probe {
        name: "tasks.spawn_exec_ns",
        min_batch: 2048,
        batch: spawn_exec,
    },
];

const PAGE: usize = 4096;

/// A page and a copy with every `stride`-th 8-byte word changed.
fn page_pair(stride: usize) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..PAGE).map(|i| (i * 7) as u8).collect();
    let mut current = twin.clone();
    for w in (0..PAGE / 8).step_by(stride) {
        current[w * 8] ^= 0xFF;
    }
    (twin, current)
}

fn diff_create(n: u64, stride: usize) -> Duration {
    let (twin, current) = page_pair(stride);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Diff::create(
            std::hint::black_box(&twin),
            std::hint::black_box(&current),
        ));
    }
    t.elapsed()
}

/// A diff of 32 runs: every 16th word changed.
fn striped_diff() -> (Diff, Vec<u8>) {
    let (twin, current) = page_pair(16);
    (Diff::create(&twin, &current), twin)
}

fn diff_apply(n: u64) -> Duration {
    let (diff, mut target) = striped_diff();
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(&diff).apply(std::hint::black_box(&mut target));
    }
    t.elapsed()
}

fn diff_codec(n: u64) -> Duration {
    let (diff, _) = striped_diff();
    let t = Instant::now();
    for _ in 0..n {
        let mut w = Writer::with_capacity(diff.encoded_len());
        std::hint::black_box(&diff).encode(&mut w);
        let wire = w.finish();
        let back = Diff::decode(&mut Reader::new(&wire)).expect("a diff we just encoded");
        std::hint::black_box(back);
    }
    t.elapsed()
}

fn pingpong(n: u64) -> Duration {
    let fabric = Fabric::new(2, NetProfile::clan_via());
    let (a, b) = (fabric.endpoint(0), fabric.endpoint(1));
    let payload = Bytes::copy_from_slice(&[0u8; 8]);
    std::thread::scope(|s| {
        let echo = payload.clone();
        s.spawn(move || {
            let mut clock = VClock::manual();
            for _ in 0..n {
                b.recv(MsgClass::P2p, Match::from(0), &mut clock)
                    .expect("fabric is up");
                b.send(0, MsgClass::P2p, 0, echo.clone(), &mut clock);
            }
        });
        let mut clock = VClock::manual();
        let t = Instant::now();
        for _ in 0..n {
            a.send(1, MsgClass::P2p, 0, payload.clone(), &mut clock);
            a.recv(MsgClass::P2p, Match::from(1), &mut clock)
                .expect("fabric is up");
        }
        t.elapsed()
    })
}

fn vbarrier(n: u64) -> Duration {
    let barrier = VBarrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut clock = VClock::manual();
            for _ in 0..n {
                barrier.wait(&mut clock);
            }
        });
        let mut clock = VClock::manual();
        let t = Instant::now();
        for _ in 0..n {
            barrier.wait(&mut clock);
        }
        t.elapsed()
    })
}

/// `n` calls of one collective on 4 ranks, timed on the rank that finishes
/// last: a broadcast's root only sends, and runs far ahead of its receivers.
fn collective(n: u64, op: fn(&Communicator, &mut VClock)) -> Duration {
    let fabric = Fabric::new(4, NetProfile::clan_via());
    std::thread::scope(|s| {
        let ranks: Vec<_> = (0..4)
            .map(|rank| {
                let comm = Communicator::new(fabric.endpoint(rank));
                s.spawn(move || {
                    let mut clock = VClock::manual();
                    comm.barrier(&mut clock);
                    let t = Instant::now();
                    for _ in 0..n {
                        op(&comm, &mut clock);
                    }
                    t.elapsed()
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .max()
            .expect("four ranks")
    })
}

/// The `SharedVec` hit path on 1 node × 1 thread: no fault, no peer.
fn shared_access(n: u64, write: bool) -> Duration {
    const LEN: usize = 4096;
    cluster(1, 1).run(move |g| {
        let xs = g.alloc_f64(LEN);
        g.parallel(move |tc| {
            let v = tc.bind_f64(&xs);
            for i in 0..LEN {
                v.set(i, i as f64);
            }
            let mut acc = 0.0;
            let t = Instant::now();
            for k in 0..n as usize {
                if write {
                    v.set(k & (LEN - 1), acc);
                } else {
                    acc += v.get(k & (LEN - 1));
                }
            }
            let d = t.elapsed();
            std::hint::black_box(acc);
            d
        })
    })
}

fn fork_join(n: u64) -> Duration {
    cluster(4, 2).run(move |g| {
        g.parallel(|_| ());
        let t = Instant::now();
        for _ in 0..n {
            g.parallel(|_| ());
        }
        t.elapsed()
    })
}

fn launch(n: u64) -> Duration {
    let t = Instant::now();
    for _ in 0..n {
        cluster(4, 2).run_with_report(|_| ());
    }
    t.elapsed()
}

/// `n` empty tasks spawned across 2 nodes and drained in one phase.
fn spawn_exec(n: u64) -> Duration {
    cluster(2, 2).run(move |g| {
        g.parallel(move |tc| {
            let funcs: Vec<TaskFn> = vec![Arc::new(|_, _, _| Vec::new())];
            let t = Instant::now();
            tc.task_phase(&funcs, |scope| {
                for _ in 0..n.div_ceil(2) {
                    scope.spawn(0, Vec::new());
                }
            });
            t.elapsed()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_a_function_of_seed_and_mix() {
        assert_eq!(job_mix_text(5, 0), job_mix_text(5, 0));
        assert_ne!(job_mix_text(5, 0), job_mix_text(6, 0));
        assert_ne!(job_mix_text(5, 0), job_mix_text(5, 1));
    }

    #[test]
    fn wtime_line_is_split_off_the_output() {
        let (text, t) = split_wtime("a = 1\n@wtime 0.000123456\n").unwrap();
        assert_eq!(text, "a = 1\n");
        assert_eq!(t, 0.000123456);
        assert!(split_wtime("a = 1\n").is_none());
    }

    #[test]
    fn every_generated_program_is_clean_and_thread_count_independent() {
        let mut w = TranslateCorpus::setup(11, true).expect("serial reference runs");
        let out = w.rep(0, &mut Spans::disabled());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.ops, 6);
        assert!(out.sim_s > 0.0);
    }
}
