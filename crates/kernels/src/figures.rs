//! The paper's figures as tables.
//!
//! Every public `figN` function sweeps the same parameter grid as the
//! corresponding figure in §6 of the paper and returns a [`Table`] whose
//! rows mirror the plotted series. Absolute values depend on the simulated
//! cost model; the *shape* (who wins, how gaps scale with node count) is
//! the reproduction target — see EXPERIMENTS.md. The `figures` binary
//! prints them; `tests/paper_claims.rs` asserts their claims.

use parade_cluster::{ClusterConfig, ExecConfig, ProtocolMode};
use parade_core::{Cluster, NetProfile, TimeSource};
use parade_dsm::{DsmConfig, HomePolicy, ProtoSelect, UpdateStrategy, MIN_SHARERS, PAGE_SIZE};

use crate::cg::{cg_mpi, cg_parade, CgClass};
use crate::cost;
use crate::ep::{ep_parade, EpClass};
use crate::helmholtz::{helmholtz_parade, HelmholtzParams};
use crate::md::{md_parade, MdParams};
use crate::syncbench::{measure, Directive};

/// The figures' configurations are literals: an invalid one is a bug here.
fn cluster(cfg: ClusterConfig) -> Cluster {
    Cluster::from_config(cfg).expect("figure cluster config")
}

/// What each named column ran, read off its configuration: the rule for
/// written pages and the home policy, e.g. `ParADE: update at ≥ 2
/// sharers, migratory homes`. Every table heading ends with it.
fn ran(columns: &[(&str, &ClusterConfig)]) -> String {
    let described: Vec<String> = columns
        .iter()
        .map(|(name, cfg)| {
            let d = cfg.dsm_config();
            let rule = match d.proto_select {
                ProtoSelect::Update => format!("update at ≥ {MIN_SHARERS} sharers"),
                ProtoSelect::Invalidate => "invalidate".to_string(),
            };
            let homes = match d.home_policy {
                HomePolicy::Migratory => "migratory",
                HomePolicy::Fixed => "fixed",
            };
            format!("{name}: {rule}, {homes} homes")
        })
        .collect();
    described.join("; ")
}

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render as GitHub-flavoured markdown.
    pub fn markdown(&self) -> String {
        let mut cols = vec![0usize; self.headers.len()];
        for (i, h) in self.headers.iter().enumerate() {
            cols[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                cols[i] = cols[i].max(c.len());
            }
        }
        let mut out = format!("### {}\n\n", self.title);
        let line = |cells: &[String], cols: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(cols) {
                s.push_str(&format!(" {c:<w$} |"));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &cols));
        out.push('|');
        for w in &cols {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r, &cols));
        }
        out
    }
}

/// Sweep options shared by all figures.
#[derive(Debug, Clone)]
pub struct FigureOpts {
    /// Node counts to sweep (paper: up to 8 dual-CPU nodes).
    pub nodes: Vec<usize>,
    /// NAS class for CG/EP ('s' | 'w' | 'a').
    pub class: char,
    /// Shrink workloads for CI-speed runs.
    pub quick: bool,
}

impl Default for FigureOpts {
    fn default() -> Self {
        FigureOpts {
            nodes: vec![1, 2, 4, 8],
            class: 'w',
            quick: false,
        }
    }
}

impl FigureOpts {
    pub fn quick() -> Self {
        FigureOpts {
            class: 's',
            quick: true,
            ..FigureOpts::default()
        }
    }

    fn cg_class(&self) -> CgClass {
        match self.class {
            'a' => CgClass::A,
            's' => CgClass::S,
            _ => CgClass::W,
        }
    }

    fn ep_class(&self) -> EpClass {
        if self.quick {
            return EpClass::Custom(20);
        }
        match self.class {
            'a' => EpClass::A,
            's' => EpClass::S,
            _ => EpClass::W,
        }
    }

    /// The kernel figures' configuration: the cLAN fabric on the default
    /// `Counted` clock, where each kernel charges its loop trips at the
    /// per-unit costs of [`crate::cost`] (the 550 MHz testbed).
    fn base_cfg(&self, nodes: usize, exec: ExecConfig, mode: ProtocolMode) -> ClusterConfig {
        ClusterConfig {
            nodes,
            exec,
            protocol: mode,
            net: NetProfile::clan_via(),
            ..ClusterConfig::default()
        }
    }

    /// Deterministic, latency-dominated configuration for the
    /// microbenchmarks (Figures 6/7).
    fn sync_cfg(&self, nodes: usize, mode: ProtocolMode) -> ClusterConfig {
        ClusterConfig {
            nodes,
            exec: ExecConfig::OneThreadTwoCpu,
            protocol: mode,
            net: NetProfile::clan_via(),
            time: TimeSource::Manual,
            ..ClusterConfig::default()
        }
    }
}

fn sync_figure(opts: &FigureOpts, directive: Directive, title: &str) -> Table {
    let reps = if opts.quick { 30 } else { 100 };
    let protocols = ran(&[
        ("ParADE", &opts.sync_cfg(1, ProtocolMode::Parade)),
        ("SDSM", &opts.sync_cfg(1, ProtocolMode::SdsmOnly)),
    ]);
    let mut t = Table::new(
        format!(
            "{title} — overhead (µs/op), ParADE vs conventional SDSM (KDSM-style) — {protocols}"
        ),
        &["nodes", "ParADE (us)", "SDSM (us)", "SDSM/ParADE"],
    );
    for &n in &opts.nodes {
        let p = measure(&opts.sync_cfg(n, ProtocolMode::Parade), directive, reps);
        let s = measure(&opts.sync_cfg(n, ProtocolMode::SdsmOnly), directive, reps);
        let ratio = if p.per_op_us > 0.0 {
            s.per_op_us / p.per_op_us
        } else {
            f64::INFINITY
        };
        t.row(vec![
            n.to_string(),
            format!("{:.2}", p.per_op_us),
            format!("{:.2}", s.per_op_us),
            format!("{:.2}x", ratio),
        ]);
    }
    t
}

/// Figure 6: `critical` directive overhead, ParADE vs KDSM.
pub fn fig6(opts: &FigureOpts) -> Table {
    sync_figure(opts, Directive::Critical, "Figure 6: critical directive")
}

/// Figure 7: `single` directive overhead, ParADE vs KDSM.
pub fn fig7(opts: &FigureOpts) -> Table {
    sync_figure(opts, Directive::Single, "Figure 7: single directive")
}

fn exec_grid<F>(opts: &FigureOpts, title: &str, mut run: F) -> Table
where
    F: FnMut(&Cluster) -> f64,
{
    let mut headers = vec!["nodes".to_string()];
    for e in ExecConfig::PAPER_CONFIGS {
        headers.push(format!("{} (s)", e.label()));
    }
    let parade = opts.base_cfg(1, ExecConfig::OneThreadTwoCpu, ProtocolMode::Parade);
    let mut t = Table {
        title: format!("{title} — {}", ran(&[("ParADE", &parade)])),
        headers,
        rows: Vec::new(),
    };
    for &n in &opts.nodes {
        let mut row = vec![n.to_string()];
        for e in ExecConfig::PAPER_CONFIGS {
            let cfg = opts.base_cfg(n, e, ProtocolMode::Parade);
            let secs = run(&cluster(cfg));
            row.push(format!("{secs:.3}"));
        }
        t.row(row);
    }
    t
}

/// Figure 8: NAS CG execution time across the three configurations, and
/// the pure-MPI CG baseline (one rank per node; related-work context \[8\]).
pub fn fig8(opts: &FigureOpts) -> Table {
    let class = opts.cg_class();
    let mut t = exec_grid(
        opts,
        &format!(
            "Figure 8: NAS CG class {} execution time on cLAN (virtual seconds)",
            class.label()
        ),
        |cluster| {
            let (res, report) = cg_parade(cluster, class);
            assert!(res.verify(class), "CG failed verification");
            report.exec_time.as_secs_f64()
        },
    );
    t.headers.push("pure MPI (s)".into());
    for (i, &n) in opts.nodes.iter().enumerate() {
        let cfg = opts.base_cfg(n, ExecConfig::OneThreadTwoCpu, ProtocolMode::Parade);
        let (res, vt) = cg_mpi(cfg, class);
        assert!(res.verify(class), "pure-MPI CG failed verification");
        t.rows[i].push(format!("{:.3}", vt.as_secs_f64()));
    }
    t
}

/// Figure 9: NAS EP execution time across the three configurations.
pub fn fig9(opts: &FigureOpts) -> Table {
    let class = opts.ep_class();
    exec_grid(
        opts,
        &format!(
            "Figure 9: NAS EP class {} execution time on cLAN (virtual seconds)",
            class.label()
        ),
        |cluster| {
            let (res, report) = ep_parade(cluster, class);
            if let Some(ok) = res.verify(class) {
                assert!(ok, "EP failed verification");
            }
            report.exec_time.as_secs_f64()
        },
    )
}

/// Figure 10: Helmholtz execution time across the three configurations.
pub fn fig10(opts: &FigureOpts) -> Table {
    let mut p = if opts.quick {
        HelmholtzParams::sized(100, 100, 50)
    } else {
        // Big enough that per-iteration compute dominates the barrier +
        // reduction cost, as in the paper's testbed (they report ~1000
        // iterations on an unstated grid; 200 iterations suffice for the
        // scaling shape).
        HelmholtzParams::sized(800, 800, 200)
    };
    // Fixed iteration count for comparable runs (the tolerance would stop
    // large grids almost immediately because the residual is normalized by
    // the point count).
    p.tol = 1e-30;
    exec_grid(
        opts,
        &format!(
            "Figure 10: Helmholtz ({}x{}, {} iters) execution time on cLAN (virtual seconds)",
            p.n, p.m, p.max_iters
        ),
        |cluster| {
            let (_, report) = helmholtz_parade(cluster, p);
            report.exec_time.as_secs_f64()
        },
    )
}

/// Figure 11: MD execution time across the three configurations.
pub fn fig11(opts: &FigureOpts) -> Table {
    let p = if opts.quick {
        MdParams::sized(128, 3)
    } else {
        MdParams::sized(512, 10)
    };
    exec_grid(
        opts,
        &format!(
            "Figure 11: MD ({} particles, {} steps) execution time on cLAN (virtual seconds)",
            p.np, p.steps
        ),
        |cluster| {
            let (_, report) = md_parade(cluster, p);
            report.exec_time.as_secs_f64()
        },
    )
}

/// §5.1: the four atomic-page-update strategies on a fetch-heavy workload.
pub fn update_methods(opts: &FigureOpts) -> Table {
    let pages = if opts.quick { 64 } else { 256 };
    let base = ClusterConfig {
        nodes: 2,
        exec: ExecConfig::OneThreadTwoCpu,
        net: NetProfile::clan_via(),
        time: TimeSource::Manual,
        ..ClusterConfig::default()
    };
    let mut t = Table::new(
        format!(
            "Section 5.1: atomic page update methods (fetch-heavy microworkload) — {}",
            ran(&[("ParADE", &base)])
        ),
        &["strategy", "exec (ms)", "per-update overhead (us)"],
    );
    for strat in UpdateStrategy::ALL_SAFE {
        let cfg = ClusterConfig {
            dsm: DsmConfig {
                update_strategy: strat,
                ..DsmConfig::default()
            },
            ..base.clone()
        };
        let cluster = cluster(cfg);
        let (_, report) = cluster.run_with_report(move |g| {
            let words = pages * PAGE_SIZE / 8;
            let v = g.alloc_f64(words);
            // Touch one word per page so node 1 must fetch every page.
            g.parallel(move |tc| {
                if tc.thread_num() == 0 {
                    for p in 0..pages {
                        tc.set(&v, p * 512, 1.0);
                    }
                }
                tc.barrier();
                let mut acc = 0.0;
                if tc.node() == tc.num_nodes() - 1 {
                    for p in 0..pages {
                        acc += tc.get(&v, p * 512);
                    }
                }
                std::hint::black_box(acc);
            });
        });
        t.row(vec![
            format!("{strat:?}"),
            format!("{:.3}", report.exec_time.as_millis_f64()),
            format!("{:.2}", strat.per_update_overhead().as_micros_f64()),
        ]);
    }
    t
}

/// Ablation: migratory vs fixed home on CG (the §5.2.2 design choice).
pub fn ablation_home(opts: &FigureOpts) -> Table {
    let class = if opts.quick {
        CgClass::S
    } else {
        opts.cg_class()
    };
    let cfg = |n, home_policy| {
        let mut c = opts.base_cfg(n, ExecConfig::OneThreadTwoCpu, ProtocolMode::Parade);
        c.dsm.home_policy = home_policy;
        c
    };
    let mut t = Table::new(
        format!(
            "Ablation: migratory vs fixed home, NAS CG class {} — {}",
            class.label(),
            ran(&[
                ("migratory", &cfg(1, HomePolicy::Migratory)),
                ("fixed", &cfg(1, HomePolicy::Fixed)),
            ])
        ),
        &[
            "nodes",
            "migratory (s)",
            "fixed (s)",
            "migr fetches",
            "fixed fetches",
            "migr diffs",
            "fixed diffs",
        ],
    );
    for &n in opts.nodes.iter().filter(|&&n| n > 1) {
        let (r1, rep1) = cg_parade(&cluster(cfg(n, HomePolicy::Migratory)), class);
        assert!(r1.verify(class));
        let (r2, rep2) = cg_parade(&cluster(cfg(n, HomePolicy::Fixed)), class);
        assert!(r2.verify(class));
        let (d1, d2) = (rep1.cluster.dsm_totals(), rep2.cluster.dsm_totals());
        t.row(vec![
            n.to_string(),
            format!("{:.3}", rep1.exec_time.as_secs_f64()),
            format!("{:.3}", rep2.exec_time.as_secs_f64()),
            d1.page_fetches.to_string(),
            d2.page_fetches.to_string(),
            d1.diffs_sent.to_string(),
            d2.diffs_sent.to_string(),
        ]);
    }
    t
}

/// Ablation: VIA vs Fast-Ethernet/TCP fabric on the critical directive.
pub fn ablation_fabric(opts: &FigureOpts) -> Table {
    let reps = if opts.quick { 30 } else { 100 };
    let mut t = Table::new(
        format!(
            "Ablation: cLAN VIA vs Fast Ethernet TCP (critical directive) — {}",
            ran(&[("ParADE", &opts.sync_cfg(1, ProtocolMode::Parade))])
        ),
        &["nodes", "VIA (us)", "TCP (us)"],
    );
    for &n in &opts.nodes {
        let via = measure(
            &opts.sync_cfg(n, ProtocolMode::Parade),
            Directive::Critical,
            reps,
        );
        let mut cfg = opts.sync_cfg(n, ProtocolMode::Parade);
        cfg.net = NetProfile::fast_ethernet_tcp();
        let tcp = measure(&cfg, Directive::Critical, reps);
        t.row(vec![
            n.to_string(),
            format!("{:.2}", via.per_op_us),
            format!("{:.2}", tcp.per_op_us),
        ]);
    }
    t
}

/// Ablation: loop scheduling policies (the paper's §8 future work) on an
/// imbalanced loop.
///
/// Iteration `i` charges `i` counted spin steps ([`cost::SPIN_STEP`]).
/// The dynamic/guided queues are node-local (remote chunk stealing would
/// cost a round trip per chunk), so only *intra-node* imbalance can be
/// repaired — the limitation the paper's §8 leaves as future work — and
/// they hand chunks out in host order, not virtual-clock order (see
/// EXPERIMENTS.md).
pub fn ablation_schedules(opts: &FigureOpts) -> Table {
    let n_iters = if opts.quick { 2_000 } else { 20_000 };
    let base = ClusterConfig {
        exec: ExecConfig::TwoThreadTwoCpu,
        net: NetProfile::clan_via(),
        ..ClusterConfig::default()
    };
    let mut t = Table::new(
        format!(
            "Ablation: loop scheduling on an imbalanced loop (virtual ms) — {}",
            ran(&[("ParADE", &base)])
        ),
        &["nodes", "static (ms)", "dynamic (ms)", "guided (ms)"],
    );
    for &n in &opts.nodes {
        let mut row = vec![n.to_string()];
        for sched in ["static", "dynamic", "guided"] {
            let cfg = ClusterConfig {
                nodes: n,
                ..base.clone()
            };
            let sched = sched.to_string();
            let (_, report) = cluster(cfg).run_with_report(move |g| {
                g.parallel(move |tc| {
                    // Triangular work: iteration i costs i spin steps.
                    let body = |i: usize| tc.compute(cost::SPIN_STEP.of(i));
                    match sched.as_str() {
                        "static" => {
                            for i in tc.for_static(0..n_iters) {
                                body(i);
                            }
                        }
                        "dynamic" => tc.for_dynamic(0..n_iters, 64, |r| r.for_each(&body)),
                        _ => tc.for_guided(0..n_iters, 16, |r| r.for_each(&body)),
                    }
                    tc.barrier();
                });
            });
            row.push(format!("{:.3}", report.exec_time.as_millis_f64()));
        }
        t.row(row);
    }
    t
}

/// All figures, in paper order.
pub fn all_figures(opts: &FigureOpts) -> Vec<Table> {
    vec![
        fig6(opts),
        fig7(opts),
        fig8(opts),
        fig9(opts),
        fig10(opts),
        fig11(opts),
        update_methods(opts),
        ablation_home(opts),
        ablation_fabric(opts),
        ablation_schedules(opts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_pads_every_column() {
        let mut t = Table::new("T", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(
            t.markdown(),
            "### T\n\n| a | bb |\n|---|----|\n| 1 | 2  |\n"
        );
    }
}
