//! `parade-mir`: the dataflow machinery the flow-sensitive lints build on,
//! over the translator's basic-block MIR.
//!
//! The pipeline:
//!
//! 1. [`lower::lower_program`] turns each function into a [`body::MirFunc`]
//!    — basic blocks in lexical creation order, explicit branch/loop
//!    edges, linearized access events, and structural markers
//!    (`ParallelEnter`, `WsEnter`, `Sibling`, …) so the lexical lints run
//!    as one linear walk. The IR and its lowering live in
//!    `parade_translator::mir`, because the translator plans its storage
//!    and its directive lowerings from the same MIR; they are re-exported
//!    here unchanged.
//! 2. [`dataflow`] is the generic worklist-fixpoint framework
//!    (forward/backward, scope-restricted).
//! 3. [`analyses`] instantiates it: reaching definitions, postdominators,
//!    and [`divergent_blocks`], the analyzer's only divergence analysis —
//!    every barrier the team may disagree on reaching, explicit or
//!    implicit, is PC009 by its verdict.
//!
//! Each pipeline stage emits a `check.analyze` trace span tagged with a
//! [`span_arg`] stage id, so analyzer cost is visible in trace reports
//! alongside the runtime's own spans.

pub mod analyses;
pub mod dataflow;

pub use parade_translator::mir::{body, lower};

pub use analyses::{divergent_blocks, postdominators, DefSite, ReachingDefs};
pub use body::{
    AccessEvent, Block, BlockId, Eval, Marker, MirFunc, MirStmt, SiblingInfo, SiblingKind,
    Terminator, UpdateInfo, WsInfo,
};
pub use dataflow::{fixpoint, Analysis, BitSet, Direction, FixpointResult};
pub use lower::{lower_func, lower_program};

use std::sync::OnceLock;
use std::time::Instant;

use parade_net::VTime;

/// `check.analyze` span arg values, one per pipeline stage. 2 was the
/// live-variables pass; it is retired and not reused, so a trace's args
/// keep their meaning across versions.
pub mod span_arg {
    /// AST → MIR lowering (emitted by the check driver around
    /// `lower_program`).
    pub const LOWER: u64 = 0;
    pub const REACHING_DEFS: u64 = 1;
    pub const POSTDOMINATORS: u64 = 3;
    pub const DIVERGENCE: u64 = 4;
}

/// Wall-clock virtual time for analyzer trace spans. The analyzer runs on
/// the host (no simulated `VClock`), so spans are stamped with elapsed
/// nanoseconds since the first call.
pub fn vt_now() -> VTime {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    VTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_translator::analysis::VarScope;
    use parade_translator::parser::parse;

    fn lower_main(src: &str) -> MirFunc {
        let prog = parse(src).expect("test program parses");
        let funcs = lower_program(&prog);
        funcs
            .into_iter()
            .find(|f| f.name == "main")
            .expect("main lowered")
    }

    /// All blocks between the `ParallelEnter` and its `ParallelExit`,
    /// inclusive (block creation order is lexical, so the range is
    /// contiguous).
    fn parallel_scope(func: &MirFunc) -> Vec<BlockId> {
        let mut enter = None;
        let mut exit = None;
        for (i, blk) in func.blocks.iter().enumerate() {
            for s in &blk.stmts {
                match s {
                    MirStmt::Marker(Marker::ParallelEnter { .. }) if enter.is_none() => {
                        enter = Some(i);
                    }
                    MirStmt::Marker(Marker::ParallelExit { .. }) => exit = Some(i),
                    _ => {}
                }
            }
        }
        let (lo, hi) = (enter.expect("enter"), exit.expect("exit"));
        (lo..=hi).map(|i| BlockId(i as u32)).collect()
    }

    fn whole(func: &MirFunc) -> Vec<BlockId> {
        (0..func.blocks.len()).map(|i| BlockId(i as u32)).collect()
    }

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(129));
        assert!(a.contains(129) && !a.contains(64));
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 3);
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![64]);
        assert!(BitSet::full(3).contains(2));
        assert!(BitSet::new(3).is_empty());
    }

    #[test]
    fn if_else_lowers_to_diamond() {
        let func = lower_main(
            "int main() { int x; x = 0; if (x > 0) { x = 1; } else { x = 2; } return x; }",
        );
        let entry = func.entry();
        let succs = func.successors(entry);
        assert_eq!(succs.len(), 2, "entry branches:\n{}", func.dump());
        let join: Vec<BlockId> = func.successors(succs[0]);
        assert_eq!(join, func.successors(succs[1]), "arms rejoin");
        assert!(matches!(
            func.blocks[entry.index()].term,
            Terminator::Branch { .. }
        ));
    }

    #[test]
    fn for_loop_has_backedge() {
        let func = lower_main(
            "int main() { int i; int s; for (i = 0; i < 8; i = i + 1) { s = s + i; } return s; }",
        );
        // Find the header: the block with a Branch terminator.
        let header = (0..func.blocks.len())
            .map(|i| BlockId(i as u32))
            .find(|b| matches!(func.blocks[b.index()].term, Terminator::Branch { .. }))
            .expect("loop header");
        let preds = (0..func.blocks.len())
            .filter(|&i| func.successors(BlockId(i as u32)).contains(&header))
            .count();
        assert!(
            preds >= 2,
            "header has entry edge and backedge:\n{}",
            func.dump()
        );
    }

    #[test]
    fn ws_loop_has_no_backedge() {
        // The only branch skips the body forward (a thread may get no
        // iteration); no edge runs back to an earlier block.
        let func = lower_main(
            "int main() { int i; int a[64];\n#pragma omp parallel for\nfor (i = 0; i < 64; i = i + 1) { a[i] = i; } return 0; }",
        );
        let mut branches = 0;
        for b in parallel_scope(&func) {
            branches += matches!(
                func.blocks[b.index()].term,
                Terminator::Branch {
                    thread_num: true,
                    ..
                }
            ) as usize;
            for s in func.successors(b) {
                assert!(s.index() > b.index(), "backedge:\n{}", func.dump());
            }
        }
        assert_eq!(branches, 1, "one body skip:\n{}", func.dump());
    }

    #[test]
    fn reaching_defs_kill_earlier_defs() {
        let func = lower_main("int main() { int x; x = 1; x = 2; return x; }");
        let scope = whole(&func);
        let rd = ReachingDefs::compute(&func, &scope);
        let x = rd.var_index("x").expect("x tracked");
        // At function exit (end of bb0) only the last def of x reaches.
        let out = &rd.result.output[0];
        let live_sites: Vec<usize> = rd
            .sites_of(x)
            .iter()
            .copied()
            .filter(|&s| out.contains(s))
            .collect();
        assert_eq!(live_sites.len(), 1);
        assert_eq!(rd.sites[live_sites[0]].block, 0);
    }

    #[test]
    fn postdominators_of_diamond() {
        let func = lower_main(
            "int main() { int x; x = 0; if (x > 0) { x = 1; } else { x = 2; } return x; }",
        );
        let scope = whole(&func);
        let pdom = postdominators(&func, &scope);
        let entry = func.entry();
        let arms = func.successors(entry);
        let join = func.successors(arms[0])[0];
        // The join postdominates the entry and both arms; the arms do not
        // postdominate the entry.
        assert!(pdom[entry.index()].contains(join.index()));
        for a in &arms {
            assert!(pdom[a.index()].contains(join.index()));
            assert!(!pdom[entry.index()].contains(a.index()));
        }
    }

    #[test]
    fn thread_branch_makes_arm_divergent_but_not_join() {
        let func = lower_main(
            "int main() { int x;\n#pragma omp parallel\n{ if (omp_get_thread_num() > 0) { x = 1; } x = 2; }\nreturn 0; }",
        );
        let scope = parallel_scope(&func);
        let div = divergent_blocks(&func, &scope, &|_| VarScope::Shared);
        let branch = scope
            .iter()
            .copied()
            .find(|b| {
                matches!(
                    func.blocks[b.index()].term,
                    Terminator::Branch {
                        thread_num: true,
                        ..
                    }
                )
            })
            .expect("thread-dependent branch");
        let succs = func.successors(branch);
        let (then_bb, join) = (succs[0], succs[1]);
        assert!(div[then_bb.index()], "then-arm diverges:\n{}", func.dump());
        assert!(!div[join.index()], "join reconverges");
        assert!(!div[branch.index()], "the branch block itself is uniform");
    }

    #[test]
    fn shared_branch_is_uniform() {
        let func = lower_main(
            "int main() { int n; int x; n = 4;\n#pragma omp parallel\n{ if (n > 0) { x = 1; } }\nreturn 0; }",
        );
        let scope = parallel_scope(&func);
        let div = divergent_blocks(&func, &scope, &|_| VarScope::Shared);
        assert!(div.iter().all(|d| !d), "no thread-dependent input");
    }

    #[test]
    fn private_entry_taint_spreads_through_copies() {
        // `p` enters the region with a per-thread value; a branch on a
        // copy of it diverges.
        let func = lower_main(
            "int main() { int p; int x;\n#pragma omp parallel\n{ int q; q = p; if (q > 0) { x = 1; } }\nreturn 0; }",
        );
        let scope = parallel_scope(&func);
        let div = divergent_blocks(&func, &scope, &|name| match name {
            "p" => VarScope::Private,
            _ => VarScope::Shared,
        });
        assert!(div.iter().any(|d| *d), "copy of tainted entry diverges");
        let uniform = divergent_blocks(&func, &scope, &|_| VarScope::Shared);
        assert!(uniform.iter().all(|d| !d), "untainted entry stays uniform");
    }

    #[test]
    fn divergent_break_taints_loop_join() {
        // A break under a thread-dependent condition makes the loop's
        // continuation divergent (threads disagree on iteration count),
        // but the loop exit reconverges.
        let func = lower_main(
            "int main() { int i; int s;\n#pragma omp parallel\n{ for (i = 0; i < 8; i = i + 1) { if (omp_get_thread_num() > 0) { break; } s = s + 1; } }\nreturn 0; }",
        );
        let scope = parallel_scope(&func);
        let div = divergent_blocks(&func, &scope, &|_| VarScope::Shared);
        // The block after the divergent if (the `s = s + 1` join inside
        // the loop body) must be divergent.
        let join = scope
            .iter()
            .copied()
            .find(|b| {
                func.blocks[b.index()].stmts.iter().any(|s| {
                    matches!(s, MirStmt::Eval(e) if e.defs.contains(&"s".to_string())
                        && e.uses.contains(&"s".to_string()))
                })
            })
            .expect("loop-body join block");
        assert!(
            div[join.index()],
            "post-break join diverges:\n{}",
            func.dump()
        );
        // The loop exit (the block holding the ParallelExit marker)
        // reconverges: every thread eventually leaves the loop.
        let exit = scope
            .iter()
            .copied()
            .find(|b| {
                func.blocks[b.index()]
                    .stmts
                    .iter()
                    .any(|s| matches!(s, MirStmt::Marker(Marker::ParallelExit { .. })))
            })
            .expect("region exit block");
        assert!(
            !div[exit.index()],
            "loop exit reconverges:\n{}",
            func.dump()
        );
    }

    #[test]
    fn one_sided_bodies_taint_per_thread_defs_only() {
        // A `master` body and a work-shared loop body run on some threads
        // only: afterwards a private `k` they set differs across the
        // team, while a shared `k` is the team's one copy.
        for body in [
            "#pragma omp master\n{ k = 1; }",
            "#pragma omp for\nfor (i = 0; i < 1; i++) { k = 1; }",
        ] {
            let func = lower_main(&format!(
                "int main() {{ int i; int k;\n#pragma omp parallel\n{{ k = 0;\n{body}\nif (k > 0) {{ k = 2; }} }}\nreturn 0; }}"
            ));
            let scope = parallel_scope(&func);
            let private = divergent_blocks(&func, &scope, &|name| match name {
                "k" => VarScope::Private,
                _ => VarScope::Shared,
            });
            let shared = divergent_blocks(&func, &scope, &|_| VarScope::Shared);
            let arm = scope
                .iter()
                .find_map(|b| match &func.blocks[b.index()].term {
                    Terminator::Branch { reads, then_bb, .. } if reads == &["k"] => Some(*then_bb),
                    _ => None,
                })
                .expect("branch on k");
            assert!(private[arm.index()], "{body}:\n{}", func.dump());
            assert!(!shared[arm.index()], "{body}:\n{}", func.dump());
        }
    }

    #[test]
    fn vt_now_is_monotonic() {
        let a = vt_now();
        let b = vt_now();
        assert!(b.0 >= a.0);
    }
}
