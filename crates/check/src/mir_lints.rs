//! The analyzer's driver: runs the lexical PC001–PC007 detectors over
//! the marker stream of a lowered [`MirFunc`], then layers the
//! flow-sensitive **PC009** barrier-divergence-deadlock on top of the CFG
//! dataflow results: a barrier (or a construct with an implicit exit
//! barrier) sits in a block [`divergent_blocks`] proves thread-divergent,
//! under a thread-dependent `if` or after a thread-dependent `break`
//! alike. That analysis is the walk's only answer to "can the team
//! disagree on reaching this point?"; PC004 keeps the structural rules
//! and, where one fires, PC009 stays silent on that barrier.
//!
//! MIR blocks are created in lexical order and every construct leaves
//! paired enter/exit markers, so a linear walk over the flattened
//! statement list — with pair-indexed skips over constructs a
//! conformance error makes meaningless — visits the program in source
//! order. The detector state machine lives in [`RegionCx`]
//! (`crate::region`); this module only drives it.

use std::collections::HashMap;

use parade_mir::{
    divergent_blocks, AccessEvent, BlockId, Eval, Marker, MirFunc, MirStmt, SiblingKind,
};
use parade_translator::analysis::VarScope;
use parade_translator::ast::{DirKind, Span};

use crate::diag::{Diag, LintId};
use crate::region::{RegionCx, UpdateVerdict};

/// Flat statement position: (block index, statement index).
type Pos = (usize, usize);

/// Check one lowered function: the serial walk outside any parallel
/// region, dispatching each region to [`check_region`].
pub(crate) fn check_func(func: &MirFunc, diags: &mut Vec<Diag>) {
    let flat = flatten(func);
    let exits = exit_map(func, &flat);
    let mut i = 0;
    while i < flat.len() {
        let (bi, si) = flat[i];
        let MirStmt::Marker(m) = &func.blocks[bi].stmts[si] else {
            i += 1;
            continue;
        };
        match m {
            Marker::ParallelEnter { dir, class, pair } => {
                crate::check_clause_vars(dir, &func.syms, diags);
                let end = exits[pair];
                match class {
                    None => diags.push(Diag::new(
                        LintId::DirectiveStructure,
                        dir.span,
                        format!(
                            "`{}` directive has no statement to apply to",
                            crate::kind_name(&dir.kind)
                        ),
                    )),
                    Some(class) => {
                        check_region(func, &flat, &exits, i, end, dir, class.clone(), diags);
                    }
                }
                i = end + 1;
            }
            // Everything else that carries a directive is orphaned out
            // here; the body still walks (serially) for nested regions.
            Marker::WsEnter { dir, .. }
            | Marker::ProtectEnter { dir, .. }
            | Marker::Barrier { dir } => {
                crate::check_clause_vars(dir, &func.syms, diags);
                diags.push(Diag::new(
                    LintId::DirectiveStructure,
                    dir.span,
                    format!(
                        "`{}` directive outside a parallel region; the runtime \
                         rejects orphaned constructs",
                        crate::kind_name(&dir.kind)
                    ),
                ));
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Flatten a function's statements in lexical (block-creation) order.
fn flatten(func: &MirFunc) -> Vec<Pos> {
    let mut flat = Vec::new();
    for (bi, blk) in func.blocks.iter().enumerate() {
        for si in 0..blk.stmts.len() {
            flat.push((bi, si));
        }
    }
    flat
}

/// Map each construct pair id to the flat index of its exit marker, so a
/// walker that declines a construct can skip past it.
fn exit_map(func: &MirFunc, flat: &[Pos]) -> HashMap<u32, usize> {
    let mut map = HashMap::new();
    for (i, &(bi, si)) in flat.iter().enumerate() {
        if let MirStmt::Marker(m) = &func.blocks[bi].stmts[si] {
            if let Some(pair) = m.exit_pair() {
                map.insert(pair, i);
            }
        }
    }
    map
}

/// Replay one parallel region from its marker stream (`start` = the flat
/// index of the `ParallelEnter`, `end` = its `ParallelExit`).
#[allow(clippy::too_many_arguments)]
fn check_region(
    func: &MirFunc,
    flat: &[Pos],
    exits: &HashMap<u32, usize>,
    start: usize,
    end: usize,
    dir: &parade_translator::ast::Directive,
    class: parade_translator::analysis::RegionClassification,
    diags: &mut Vec<Diag>,
) {
    // Region blocks are contiguous (lexical creation order; the lowering
    // cuts fresh blocks at both region boundaries).
    let scope: Vec<BlockId> = (flat[start].0..=flat[end].0)
        .map(|b| BlockId(b as u32))
        .collect();
    // The region's data-sharing attributes seed the divergence analysis.
    let div = divergent_blocks(func, &scope, &|name| class.scope_of(name));

    let mut cx = RegionCx::new(class, &func.syms, diags, dir.span);
    // Per-statement-list nowait bookkeeping (PC005), pushed at BlockStart.
    let mut pending: Vec<HashMap<String, Span>> = Vec::new();
    // Directive span of the work-shared loop being entered (consumed at
    // the WsBody marker, after the bounds evaluation).
    let mut ws_spans: Vec<Span> = Vec::new();

    let mut i = start + 1;
    while i < end {
        let (bi, si) = flat[i];
        match &func.blocks[bi].stmts[si] {
            MirStmt::Eval(e) => {
                replay_eval(&mut cx, e);
                i += 1;
            }
            MirStmt::Marker(m) => match m {
                Marker::ParallelEnter { dir: d, pair, .. } => {
                    cx.cur_span = d.span;
                    cx.clause_vars(d);
                    cx.diag_nested_parallel();
                    i = exits[pair] + 1;
                }
                Marker::WsEnter {
                    dir: d,
                    canon,
                    has_body,
                    from_parallel_for,
                    pair,
                } => {
                    cx.cur_span = d.span;
                    if !from_parallel_for {
                        cx.clause_vars(d);
                        if cx.check_ws_nesting("work-sharing `for`") {
                            i = exits[pair] + 1;
                            continue;
                        }
                    }
                    if !has_body {
                        i = exits[pair] + 1;
                        continue;
                    }
                    if canon.is_none() {
                        cx.diag_non_canonical_ws();
                        i = exits[pair] + 1;
                        continue;
                    }
                    if !d.nowait() && div[bi] {
                        cx.diag_barrier_divergence(
                            "work-sharing `for` with an implicit exit barrier",
                        );
                    }
                    ws_spans.push(d.span);
                    i += 1;
                }
                Marker::WsBody { var } => {
                    cx.mark_written(var);
                    let sp = ws_spans.pop().expect("ws dir span");
                    cx.ws_push(var.clone(), sp);
                    i += 1;
                }
                Marker::WsExit { .. } => {
                    cx.ws_pop_report();
                    i += 1;
                }
                Marker::ProtectEnter {
                    dir: d,
                    atomic_ok,
                    pair,
                } => {
                    cx.cur_span = d.span;
                    cx.clause_vars(d);
                    match &d.kind {
                        DirKind::Single => {
                            if cx.check_ws_nesting("`single`") {
                                i = exits[pair] + 1;
                                continue;
                            }
                            if !d.nowait() && div[bi] {
                                cx.diag_barrier_divergence(
                                    "`single` with an implicit exit barrier",
                                );
                            }
                            cx.protect.push("single");
                        }
                        DirKind::Master => {
                            if cx.check_master_nesting() {
                                i = exits[pair] + 1;
                                continue;
                            }
                            cx.protect.push("master");
                        }
                        DirKind::Critical(_) => cx.protect.push("critical"),
                        DirKind::Atomic => {
                            if !atomic_ok {
                                cx.diag_malformed_atomic();
                            }
                            cx.protect.push("atomic");
                        }
                        _ => unreachable!("ProtectEnter carries a protecting kind"),
                    }
                    i += 1;
                }
                Marker::ProtectExit { .. } => {
                    cx.protect.pop();
                    i += 1;
                }
                Marker::Barrier { dir: d } => {
                    cx.cur_span = d.span;
                    cx.clause_vars(d);
                    if !cx.barrier_checks() && div[bi] {
                        cx.diag_barrier_divergence("barrier");
                    }
                    i += 1;
                }
                Marker::BlockStart => {
                    pending.push(HashMap::new());
                    i += 1;
                }
                Marker::BlockEnd => {
                    pending.pop();
                    i += 1;
                }
                Marker::Sibling(info) => {
                    if let Some(p) = pending.last_mut() {
                        if matches!(info.kind, SiblingKind::Barrier) {
                            // An immediate-child barrier joins the list's
                            // pending nowait writes; the Barrier marker
                            // itself handles placement checks.
                            p.clear();
                        } else {
                            let mut hit = Vec::new();
                            if !p.is_empty() {
                                for v in &info.uses {
                                    if let Some(sp) = p.remove(v) {
                                        hit.push((v.clone(), sp));
                                    }
                                }
                            }
                            let at = info.span.unwrap_or(cx.cur_span);
                            for (v, loop_span) in hit {
                                cx.diag_nowait(&v, loop_span, at);
                            }
                            match &info.kind {
                                SiblingKind::WsNowait { writes, loop_var } => {
                                    let sp = info.span.unwrap_or(cx.cur_span);
                                    let shared: Vec<String> = writes
                                        .iter()
                                        .filter(|v| {
                                            Some(*v) != loop_var.as_ref()
                                                && matches!(cx.scope(v), VarScope::Shared)
                                        })
                                        .cloned()
                                        .collect();
                                    let p = pending.last_mut().expect("pending frame");
                                    for v in shared {
                                        p.insert(v, sp);
                                    }
                                }
                                SiblingKind::WsJoin => {
                                    pending.last_mut().expect("pending frame").clear();
                                }
                                _ => {}
                            }
                        }
                    }
                    i += 1;
                }
                Marker::ParallelExit { .. } => i += 1,
            },
        }
    }
}

/// Replay one linearized evaluation through the shared state machine.
fn replay_eval(cx: &mut RegionCx, e: &Eval) {
    if let Some(sp) = e.span {
        cx.cur_span = sp;
    }
    if let Some(u) = &e.update {
        match cx.update_verdict(&u.target, u.op) {
            UpdateVerdict::Sanctioned => {
                replay_events(cx, &u.operand_events);
                cx.mark_written(&u.target);
                return;
            }
            UpdateVerdict::WrongOp => return,
            UpdateVerdict::NotReduction => {}
        }
    }
    replay_events(cx, &e.events);
}

fn replay_events(cx: &mut RegionCx, events: &[AccessEvent]) {
    for ev in events {
        match ev {
            AccessEvent::ReadVar(n) => cx.read_var(n),
            AccessEvent::WriteVar(n) => cx.write_var(n),
            AccessEvent::ReadIndexed(n, idxs) => cx.read_indexed(n, idxs),
            AccessEvent::WriteIndexed(n, idxs) => cx.write_indexed(n, idxs),
            AccessEvent::LogReadIndexed(n, idxs) => {
                if matches!(cx.scope(n), VarScope::Shared) {
                    cx.log_access(n, idxs, false);
                }
            }
            AccessEvent::MarkWritten(n) => cx.mark_written(n),
        }
    }
}
