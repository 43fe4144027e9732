//! Concrete dataflow analyses: reaching definitions, postdominators, and
//! the "threads-that-reach" divergence analysis built on them. The last
//! is the analyzer's one answer to "can the team disagree on reaching
//! this point?": PC009 reports every barrier, explicit or implicit, in a
//! block it marks divergent.
//!
//! Every pass emits a `check.analyze` trace span (see [`crate::span_arg`])
//! so analyzer cost shows up in `StatsReport` next to every other
//! subsystem.

use std::collections::HashMap;

use parade_trace::{begin_arg, end, EventKind};
use parade_translator::analysis::VarScope;

use crate::body::{BlockId, MirFunc, MirStmt, Terminator};
use crate::dataflow::{fixpoint, Analysis, BitSet, Direction, FixpointResult};
use crate::{span_arg, vt_now};

fn traced<R>(arg: u64, f: impl FnOnce() -> R) -> R {
    begin_arg(EventKind::CheckAnalyze, arg, vt_now());
    let r = f();
    end(EventKind::CheckAnalyze, vt_now());
    r
}

// ---- reaching definitions ------------------------------------------------

/// One definition site. Synthetic region-entry defs (one per variable,
/// modelling the value the variable carries into the scope) have
/// `block == usize::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    pub block: usize,
    pub stmt: usize,
    pub var: usize,
}

/// Reaching definitions over one scope: which def sites can reach each
/// program point (forward may-analysis; gen/kill per scalar def).
pub struct ReachingDefs {
    /// Scalar universe, in first-seen order.
    pub vars: Vec<String>,
    var_ix: HashMap<String, usize>,
    pub sites: Vec<DefSite>,
    /// Site ids per variable (the entry def first).
    by_var: Vec<Vec<usize>>,
    /// Real def site ids per (block, stmt index).
    at: HashMap<(usize, usize), Vec<usize>>,
    /// Synthetic entry def per variable.
    pub entry: Vec<usize>,
    /// Converged facts: `input[b]` at block entry, `output[b]` at exit.
    pub result: FixpointResult<BitSet>,
}

impl ReachingDefs {
    pub fn compute(func: &MirFunc, scope: &[BlockId]) -> ReachingDefs {
        traced(span_arg::REACHING_DEFS, || {
            let (vars, var_ix) = collect_vars(func, scope);
            let mut sites = Vec::new();
            let mut by_var = vec![Vec::new(); vars.len()];
            let mut entry = Vec::new();
            for (v, per_var) in by_var.iter_mut().enumerate() {
                entry.push(sites.len());
                per_var.push(sites.len());
                sites.push(DefSite {
                    block: usize::MAX,
                    stmt: usize::MAX,
                    var: v,
                });
            }
            let mut at: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
            for b in scope {
                for (si, s) in func.blocks[b.index()].stmts.iter().enumerate() {
                    if let MirStmt::Eval(e) = s {
                        for d in &e.defs {
                            let v = var_ix[d.as_str()];
                            let id = sites.len();
                            by_var[v].push(id);
                            at.entry((b.index(), si)).or_default().push(id);
                            sites.push(DefSite {
                                block: b.index(),
                                stmt: si,
                                var: v,
                            });
                        }
                    }
                }
            }
            let core = RdCore {
                nsites: sites.len(),
                by_var: &by_var,
                at: &at,
                var_ix: &var_ix,
                entry: &entry,
            };
            let result = fixpoint(func, scope, &core);
            ReachingDefs {
                vars,
                var_ix,
                sites,
                by_var,
                at,
                entry,
                result,
            }
        })
    }

    pub fn var_index(&self, n: &str) -> Option<usize> {
        self.var_ix.get(n).copied()
    }

    /// All site ids of one variable (entry def included).
    pub fn sites_of(&self, v: usize) -> &[usize] {
        &self.by_var[v]
    }

    /// Real def site ids generated at `(block, stmt)`.
    pub fn sites_at(&self, b: usize, stmt: usize) -> &[usize] {
        self.at.get(&(b, stmt)).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Advance `fact` across one statement (kill-then-gen).
    pub fn step(&self, b: usize, si: usize, s: &MirStmt, fact: &mut BitSet) {
        apply_stmt(&self.by_var, &self.at, &self.var_ix, b, si, s, fact);
    }
}

fn collect_vars(func: &MirFunc, scope: &[BlockId]) -> (Vec<String>, HashMap<String, usize>) {
    let mut vars = Vec::new();
    let mut var_ix = HashMap::new();
    let add = |n: &String, vars: &mut Vec<String>, ix: &mut HashMap<String, usize>| {
        if !ix.contains_key(n.as_str()) {
            ix.insert(n.clone(), vars.len());
            vars.push(n.clone());
        }
    };
    for b in scope {
        let blk = &func.blocks[b.index()];
        for s in &blk.stmts {
            if let MirStmt::Eval(e) = s {
                for n in e.defs.iter().chain(&e.uses) {
                    add(n, &mut vars, &mut var_ix);
                }
            }
        }
        if let Terminator::Branch { reads, .. } = &blk.term {
            for n in reads {
                add(n, &mut vars, &mut var_ix);
            }
        }
    }
    (vars, var_ix)
}

#[allow(clippy::too_many_arguments)]
fn apply_stmt(
    by_var: &[Vec<usize>],
    at: &HashMap<(usize, usize), Vec<usize>>,
    var_ix: &HashMap<String, usize>,
    b: usize,
    si: usize,
    s: &MirStmt,
    fact: &mut BitSet,
) {
    if let MirStmt::Eval(e) = s {
        for d in &e.defs {
            if let Some(&v) = var_ix.get(d.as_str()) {
                for &site in &by_var[v] {
                    fact.remove(site);
                }
            }
        }
        if let Some(ids) = at.get(&(b, si)) {
            for &id in ids {
                fact.insert(id);
            }
        }
    }
}

struct RdCore<'a> {
    nsites: usize,
    by_var: &'a [Vec<usize>],
    at: &'a HashMap<(usize, usize), Vec<usize>>,
    var_ix: &'a HashMap<String, usize>,
    entry: &'a [usize],
}

impl Analysis for RdCore<'_> {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _func: &MirFunc) -> BitSet {
        let mut s = BitSet::new(self.nsites);
        for &e in self.entry {
            s.insert(e);
        }
        s
    }

    fn init(&self, _func: &MirFunc) -> BitSet {
        BitSet::new(self.nsites)
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, func: &MirFunc, b: BlockId, fact: &mut BitSet) {
        for (si, s) in func.blocks[b.index()].stmts.iter().enumerate() {
            apply_stmt(self.by_var, self.at, self.var_ix, b.index(), si, s, fact);
        }
    }
}

// ---- postdominators ------------------------------------------------------

/// Per-block postdominator sets (backward must-analysis; intersection
/// over successors, reflexive). Bit `j` of `result[i]` means block `j`
/// postdominates block `i` within the scope.
pub fn postdominators(func: &MirFunc, scope: &[BlockId]) -> Vec<BitSet> {
    traced(span_arg::POSTDOMINATORS, || {
        struct Pdom {
            n: usize,
        }
        impl Analysis for Pdom {
            type Fact = BitSet;
            fn direction(&self) -> Direction {
                Direction::Backward
            }
            fn boundary(&self, _func: &MirFunc) -> BitSet {
                BitSet::new(self.n)
            }
            fn init(&self, _func: &MirFunc) -> BitSet {
                BitSet::full(self.n)
            }
            fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
                into.intersect_with(from)
            }
            fn transfer(&self, _func: &MirFunc, b: BlockId, fact: &mut BitSet) {
                fact.insert(b.index());
            }
        }
        let n = func.blocks.len();
        fixpoint(func, scope, &Pdom { n }).output
    })
}

// ---- divergence ----------------------------------------------------------

/// Per-block divergence: `true` means threads of the team can disagree on
/// whether (or how often) the block executes.
///
/// A block is divergent iff it is (transitively) control-dependent on a
/// branch whose condition is thread-dependent: the condition calls
/// `omp_get_thread_num()` (as do the branches the lowering puts around
/// `single`/`master` and work-shared loop bodies), or reads a variable
/// some reaching definition of which is *tainted*. Taint sources are
/// per-thread entry values (`private`/`lastprivate`/`reduction` in the
/// region's `scope_of`), work-shared loop variable bindings, evals that
/// call `omp_get_thread_num()`, and — fed back through an outer fixpoint
/// — any def of a per-thread variable sitting in an already-divergent
/// block (control taint). A shared variable is not control-tainted: the
/// team reads one copy, so after the next barrier every thread sees the
/// value the writing threads left. Branches of already-divergent blocks
/// spread divergence to their control dependents regardless of their own
/// condition.
pub fn divergent_blocks(
    func: &MirFunc,
    scope: &[BlockId],
    scope_of: &dyn Fn(&str) -> VarScope,
) -> Vec<bool> {
    let n = func.blocks.len();
    let mut div = vec![false; n];
    if scope.is_empty() {
        return div;
    }
    let mut in_scope = vec![false; n];
    for b in scope {
        in_scope[b.index()] = true;
    }
    // Reachability from the scope entry: statically dead blocks (after
    // break/return) cannot make the team diverge.
    let mut reach = vec![false; n];
    let mut stack = vec![scope[0].index()];
    reach[scope[0].index()] = true;
    while let Some(i) = stack.pop() {
        for s in func.successors(BlockId(i as u32)) {
            let j = s.index();
            if in_scope[j] && !reach[j] {
                reach[j] = true;
                stack.push(j);
            }
        }
    }
    let rd = ReachingDefs::compute(func, scope);
    let pdom = postdominators(func, scope);
    traced(span_arg::DIVERGENCE, || {
        let mut tainted = vec![false; rd.sites.len()];
        let mut per_thread = vec![false; rd.vars.len()];
        for (v, name) in rd.vars.iter().enumerate() {
            let sc = scope_of(name);
            // `firstprivate` copies start identical on every thread.
            tainted[rd.entry[v]] = matches!(
                sc,
                VarScope::Private | VarScope::LastPrivate | VarScope::Reduction(_)
            );
            per_thread[v] = !matches!(sc, VarScope::Shared);
        }
        let any_tainted = |reads: &[String], fact: &BitSet, tainted: &[bool]| {
            reads.iter().any(|u| match rd.var_index(u) {
                Some(v) => rd
                    .sites_of(v)
                    .iter()
                    .any(|&site| tainted[site] && fact.contains(site)),
                None => false,
            })
        };
        loop {
            // Data-taint fixpoint: defs become tainted when their eval is
            // thread-dependent, reads a tainted def, or (per-thread
            // variables only) sits in a block already known divergent.
            loop {
                let mut changed = false;
                for b in scope {
                    let bi = b.index();
                    if !reach[bi] {
                        continue;
                    }
                    let mut fact = rd.result.input[bi].clone();
                    for (si, s) in func.blocks[bi].stmts.iter().enumerate() {
                        if let MirStmt::Eval(e) = s {
                            let t = e.thread_num
                                || e.tainted_def
                                || any_tainted(&e.uses, &fact, &tainted);
                            for &id in rd.sites_at(bi, si) {
                                let control = div[bi] && per_thread[rd.sites[id].var];
                                if (t || control) && !tainted[id] {
                                    tainted[id] = true;
                                    changed = true;
                                }
                            }
                        }
                        rd.step(bi, si, s, &mut fact);
                    }
                }
                if !changed {
                    break;
                }
            }
            // Branch thread-dependence.
            let mut branch_tainted = vec![false; n];
            for b in scope {
                let bi = b.index();
                if !reach[bi] {
                    continue;
                }
                if let Terminator::Branch {
                    reads, thread_num, ..
                } = &func.blocks[bi].term
                {
                    branch_tainted[bi] =
                        *thread_num || any_tainted(reads, &rd.result.output[bi], &tainted);
                }
            }
            // Control-dependence closure: block `t` is control dependent
            // on branch `b` iff `t` postdominates a successor of `b` but
            // not `b` itself.
            let mut grew = false;
            loop {
                let mut changed = false;
                for b in scope {
                    let bi = b.index();
                    if !reach[bi]
                        || !matches!(func.blocks[bi].term, Terminator::Branch { .. })
                        || !(branch_tainted[bi] || div[bi])
                    {
                        continue;
                    }
                    for s in func.successors(BlockId(bi as u32)) {
                        let si = s.index();
                        if !in_scope[si] {
                            continue;
                        }
                        for t in scope {
                            let ti = t.index();
                            if !reach[ti] || div[ti] {
                                continue;
                            }
                            if pdom[si].contains(ti) && !pdom[bi].contains(ti) {
                                div[ti] = true;
                                changed = true;
                                grew = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            // Newly-divergent blocks control-taint their defs; go again.
            if !grew {
                break;
            }
        }
        div
    })
}
