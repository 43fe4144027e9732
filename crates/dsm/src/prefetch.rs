//! Per-thread stride prediction over the read-fault stream.
//!
//! `ReqPageRange` coalescing (PR 5) already turns a *single bulk access*
//! spanning contiguous pages into one round trip. What it cannot see is a
//! fault *stream*: CG-S and Helmholtz sweeps fault page `p`, compute, then
//! fault `p+s`, compute, fault `p+2s`… — each fault pays a full round trip
//! because the next one has not happened yet. The predictor watches the
//! per-thread sequence of faulting page ids, and once the same non-zero
//! delta repeats ([`CONFIRM`] times) it asks the engine to fetch the next
//! [`DEPTH`] predicted pages speculatively, ahead of the fault.
//!
//! The state machine is deliberately tiny and exactly unit-testable:
//!
//! * **Cold** — no confirmed stride. Each fault's delta is compared with
//!   the previous delta; a repeat confirms the stride.
//! * **Confirmed** — faults landing a whole number of strides ahead (up to
//!   `DEPTH + 1`, i.e. within or just past the prefetched window) continue
//!   the stream and re-arm prefetch; anything else is a *mispredict*,
//!   which drops back to cold and burns one unit of [`MISPREDICT_BUDGET`].
//!   Exhausting it disables the predictor for the rest of the thread's
//!   life — a thread with genuinely random accesses must stop paying
//!   speculative round trips.
//!
//! Everything here is pure bookkeeping over page ids: no clocks, no
//! randomness, so decisions replay identically on any host.

use crate::page::PageId;

/// Identical consecutive deltas required to confirm a stride.
pub const CONFIRM: u32 = 2;

/// Pages fetched ahead per confirmed prediction (further capped by
/// `DsmConfig::max_fetch_range`).
pub const DEPTH: usize = 4;

/// Consecutive-fault mispredictions tolerated before a thread's predictor
/// is disabled for the rest of its life (accuracy guard).
pub const MISPREDICT_BUDGET: u32 = 4;

/// What the engine should do after recording one read fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// No speculation: cold predictor, unconfirmed stride, or disabled.
    None,
    /// Fetch pages `fault + stride`, `fault + 2·stride`, …, `fault +
    /// count·stride` (the engine filters out pages that are already
    /// readable, home-resident, or out of pool bounds).
    Prefetch { stride: isize, count: usize },
}

/// Per-thread fault-stream predictor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct StridePredictor {
    /// Last faulting page observed.
    last: Option<PageId>,
    /// Candidate or confirmed stride (pages; may be negative).
    stride: isize,
    /// Consecutive repeats of `stride`, saturating at `CONFIRM`.
    streak: u32,
    /// Mispredictions of a confirmed stride so far.
    mispredicts: u32,
    disabled: bool,
}

impl StridePredictor {
    pub fn new() -> StridePredictor {
        StridePredictor::default()
    }

    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    pub fn mispredicts(&self) -> u32 {
        self.mispredicts
    }

    fn confirmed(&self) -> bool {
        self.stride != 0 && self.streak >= CONFIRM
    }

    /// Record one read fault on `page`; returns the engine's marching
    /// order. The engine tracks which predicted pages it actually fetched
    /// and credits `prefetch_hits` when later accesses consume them
    /// without faulting.
    pub fn record_fault(&mut self, page: PageId) -> Prediction {
        if self.disabled {
            return Prediction::None;
        }
        let Some(last) = self.last.replace(page) else {
            return Prediction::None;
        };
        let delta = page as isize - last as isize;
        if delta == 0 {
            // Re-fault on the same page (invalidation refetch): no stride
            // information either way.
            return Prediction::None;
        }
        if self.confirmed() {
            let jump = if self.stride != 0 && delta % self.stride == 0 {
                delta / self.stride
            } else {
                -1
            };
            if (1..=DEPTH as isize + 1).contains(&jump) {
                // Continuation: the fault landed inside (or one past) the
                // prefetched window.
                return Prediction::Prefetch {
                    stride: self.stride,
                    count: DEPTH,
                };
            }
            // A confirmed stride broke: burn budget, go cold with the new
            // delta as the next candidate.
            self.mispredicts += 1;
            if self.mispredicts >= MISPREDICT_BUDGET {
                self.disabled = true;
                return Prediction::None;
            }
            self.stride = delta;
            self.streak = 1;
            return Prediction::None;
        }
        if delta == self.stride {
            self.streak = (self.streak + 1).min(CONFIRM);
        } else {
            self.stride = delta;
            self.streak = 1;
        }
        if self.confirmed() {
            Prediction::Prefetch {
                stride: self.stride,
                count: DEPTH,
            }
        } else {
            Prediction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: Prediction = Prediction::None;

    fn pre(stride: isize) -> Prediction {
        Prediction::Prefetch {
            stride,
            count: DEPTH,
        }
    }

    /// Drive a fault trace through a fresh predictor; return the decision
    /// per fault.
    fn decisions(trace: &[usize]) -> Vec<Prediction> {
        let mut p = StridePredictor::new();
        trace.iter().map(|&f| p.record_fault(f)).collect()
    }

    #[test]
    fn unit_stride_confirms_on_third_fault() {
        // Faults 10, 11, 12, 13: deltas 1, 1, 1. The second identical
        // delta (fault 12) confirms; every continuation re-arms.
        assert_eq!(
            decisions(&[10, 11, 12, 13]),
            vec![NONE, NONE, pre(1), pre(1)]
        );
    }

    #[test]
    fn strided_and_reverse_traces_confirm() {
        // Stride 3 forward.
        assert_eq!(
            decisions(&[0, 3, 6, 9, 12]),
            vec![NONE, NONE, pre(3), pre(3), pre(3)]
        );
        // Stride -2 (reverse sweep).
        assert_eq!(
            decisions(&[40, 38, 36, 34]),
            vec![NONE, NONE, pre(-2), pre(-2)]
        );
    }

    #[test]
    fn jump_over_prefetched_pages_is_a_continuation() {
        // Stride 1 confirmed at fault 12. The stream then lands on 17
        // (jump 5 = DEPTH + 1, just past the prefetched window): still a
        // continuation, not a mispredict. Jump 7 breaks.
        let mut p = StridePredictor::new();
        for f in [10usize, 11, 12] {
            p.record_fault(f);
        }
        assert_eq!(p.record_fault(17), pre(1));
        assert_eq!(p.mispredicts(), 0);
        assert_eq!(p.record_fault(24), NONE, "jump 7 breaks the stride");
        assert_eq!(p.mispredicts(), 1);
    }

    #[test]
    fn random_trace_never_issues_and_eventually_disables() {
        // No delta ever repeats: the predictor must never confirm, so a
        // purely random thread costs zero speculative fetches.
        let got = decisions(&[5, 90, 2, 61, 33, 7, 44, 18]);
        assert!(got.iter().all(|d| *d == NONE), "{got:?}");
        // And with an adversarial confirm-then-break trace the budget
        // disables the predictor for good: each hundred confirms stride 1,
        // the jump to the next hundred breaks it.
        let mut p = StridePredictor::new();
        for phase in 0..MISPREDICT_BUDGET as usize {
            assert!(!p.is_disabled(), "phase {phase}: budget not yet spent");
            for f in [0usize, 1, 2] {
                p.record_fault(phase * 100 + f);
            }
        }
        p.record_fault(MISPREDICT_BUDGET as usize * 100);
        assert!(p.is_disabled(), "the last break spends the budget");
        assert_eq!(p.mispredicts(), MISPREDICT_BUDGET);
        // Disabled is sticky: even a perfect stride stays silent.
        for f in [900usize, 901, 902, 903] {
            assert_eq!(p.record_fault(f), NONE);
        }
    }

    #[test]
    fn phase_change_reconfirms_at_full_price() {
        // Phase 1: stride 1. Phase change (one mispredict). Phase 2:
        // stride 4 must re-confirm with CONFIRM repeats before issuing.
        let mut p = StridePredictor::new();
        assert_eq!(
            [10, 11, 12].map(|f| p.record_fault(f)),
            [NONE, NONE, pre(1)]
        );
        assert_eq!(p.record_fault(100), NONE, "phase change is a mispredict");
        assert_eq!(p.mispredicts(), 1);
        assert_eq!(
            [104, 108, 112].map(|f| p.record_fault(f)),
            [NONE, pre(4), pre(4)]
        );
    }

    #[test]
    fn refault_on_same_page_is_neutral() {
        // Invalidation refetches (delta 0) must neither confirm nor break.
        let mut p = StridePredictor::new();
        for f in [10usize, 11, 12] {
            p.record_fault(f);
        }
        assert_eq!(p.record_fault(12), NONE);
        assert_eq!(p.mispredicts(), 0);
        assert_eq!(p.record_fault(13), pre(1), "stride survives a refault");
    }
}
