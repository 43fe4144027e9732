//! `parade-trace` — virtual-time event tracing & overhead attribution.
//!
//! The ParADE runtime is evaluated the way the paper evaluates it (§6):
//! by attributing *virtual time* to constructs — how much of a run went
//! to DSM faults, diff shipping, barrier rounds, collective steps,
//! comm-thread queueing. End-of-run counters can't answer "when" or
//! "under which construct"; this crate records typed events into
//! per-thread fixed-capacity ring buffers and drains them at run end
//! into:
//!
//! * a Chrome `trace_event` JSON file (hand-encoded — the workspace is
//!   hermetic) loadable in `chrome://tracing` or Perfetto, and
//! * an in-process [`TraceReport`]: per-construct, per-node virtual-time
//!   breakdown with exclusive (nesting-corrected) times and exact drop
//!   accounting when a ring wraps.
//!
//! # Usage
//!
//! ```
//! use parade_net::VTime;
//! use parade_trace as trace;
//!
//! if let Some(session) = trace::start(trace::TraceConfig::default()) {
//!     trace::set_identity(0, "main");
//!     trace::begin(trace::EventKind::OmpBarrier, VTime(100));
//!     trace::end(trace::EventKind::OmpBarrier, VTime(400));
//!     let data = session.finish();
//!     assert_eq!(data.event_count(), 2);
//!     let json = data.chrome_json();
//!     trace::validate_json(&json).unwrap();
//!     assert_eq!(data.report().attributed_ns(0), 300);
//! }
//! ```
//!
//! Recording with no active session costs a single branch on a relaxed
//! atomic load — instrumentation stays compiled into every hot path.
//! The runtime starts a session automatically when `PARADE_TRACE=<path>`
//! is set (see `parade-core`), writing the Chrome JSON to `<path>`.

mod chrome;
mod event;
mod jsonck;
mod report;
mod ring;
mod session;

pub use chrome::chrome_json;
pub use event::{EventKind, Identity, Phase, TraceEvent};
pub use jsonck::{json_string, validate_json};
pub use report::{aggregate, InstantRow, SpanRow, TraceReport};
pub use ring::{Ring, ThreadTrace};
pub use session::{
    begin, begin_arg, enabled, end, instant, set_identity, start, TraceConfig, TraceData,
    TraceSession,
};
