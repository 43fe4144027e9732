//! Global trace session: enable flag, per-thread ring registry, record API.
//!
//! Cost model: when no session is active, [`begin`]/[`end`]/[`instant`]
//! are a single relaxed atomic load plus a predictable branch — cheap
//! enough to leave in every hot path of the runtime (see the
//! `trace_overhead` bench). When a session is active, a thread lazily
//! creates its ring on first record and registers it; the ring is
//! guarded by a mutex that only the owning thread touches until the
//! collector drains it at [`TraceSession::finish`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parade_net::sync::{Mutex, MutexGuard};
use parade_net::VTime;

use crate::event::{EventKind, Identity, Phase, TraceEvent};
use crate::report::{aggregate, TraceReport};
use crate::ring::{Ring, ThreadTrace};

/// Is a trace session active? Relaxed load — the disabled fast path.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Generation of the active session (0 = none).
static ACTIVE_GEN: AtomicU64 = AtomicU64::new(0);
/// Monotonic generation source; never reused, so a thread-local ring from
/// a finished session can never be mistaken for a current one.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);
/// Ring capacity for the active session.
static CAPACITY: AtomicUsize = AtomicUsize::new(TraceConfig::DEFAULT_CAPACITY);

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static R: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Serializes sessions: at most one active per process.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

struct ThreadTl {
    gen: u64,
    ring: Option<Arc<Mutex<Ring>>>,
    node: u32,
    name: Option<String>,
}

thread_local! {
    static TL: RefCell<ThreadTl> = const {
        RefCell::new(ThreadTl { gen: 0, ring: None, node: u32::MAX, name: None })
    };
}

/// Trace session parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Per-thread ring capacity in events.
    pub capacity: usize,
}

impl TraceConfig {
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Default capacity, overridable via `PARADE_TRACE_CAP=<events>`.
    pub fn from_env() -> TraceConfig {
        let capacity = std::env::var("PARADE_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(TraceConfig::DEFAULT_CAPACITY);
        TraceConfig { capacity }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: TraceConfig::DEFAULT_CAPACITY,
        }
    }
}

/// An active trace session. Dropping it without [`finish`](Self::finish)
/// stops recording and discards the collected events.
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
}

/// Start a session, or `None` if one is already active in this process
/// (sessions are process-global; nesting would interleave two runs).
pub fn start(cfg: TraceConfig) -> Option<TraceSession> {
    let guard = SESSION_LOCK.try_lock()?;
    registry().lock().clear();
    CAPACITY.store(cfg.capacity, Ordering::Relaxed);
    let gen = NEXT_GEN.fetch_add(1, Ordering::Relaxed);
    ACTIVE_GEN.store(gen, Ordering::Release);
    ENABLED.store(true, Ordering::Release);
    Some(TraceSession { _guard: guard })
}

impl TraceSession {
    /// Stop recording and drain every registered ring.
    ///
    /// Call after all traced threads have been joined; events recorded
    /// concurrently with `finish` may land in either the drained data or
    /// nowhere, but never corrupt it.
    pub fn finish(self) -> TraceData {
        ENABLED.store(false, Ordering::SeqCst);
        ACTIVE_GEN.store(0, Ordering::SeqCst);
        let rings = std::mem::take(&mut *registry().lock());
        let mut threads: Vec<ThreadTrace> = rings
            .iter()
            .map(|r| r.lock().take())
            .filter(|t| !t.events.is_empty() || t.dropped > 0)
            .collect();
        threads.sort_by(|a, b| {
            (a.identity.node, &a.identity.name).cmp(&(b.identity.node, &b.identity.name))
        });
        TraceData { threads }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Also runs at the end of `finish` (idempotent): recording must
        // stop even when a session is abandoned without draining.
        ENABLED.store(false, Ordering::SeqCst);
        ACTIVE_GEN.store(0, Ordering::SeqCst);
    }
}

/// Everything drained from one session.
#[derive(Debug, Clone)]
pub struct TraceData {
    /// Per-thread traces, sorted by (node, thread name).
    pub threads: Vec<ThreadTrace>,
}

impl TraceData {
    pub fn event_count(&self) -> u64 {
        self.threads.iter().map(|t| t.events.len() as u64).sum()
    }

    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Chrome `trace_event` JSON (see [`crate::chrome_json`]).
    pub fn chrome_json(&self) -> String {
        crate::chrome::chrome_json(self)
    }

    /// Per-construct virtual-time aggregation (see [`crate::aggregate`]).
    pub fn report(&self) -> TraceReport {
        aggregate(&self.threads)
    }
}

/// Is recording currently enabled? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the calling thread with its simulated node id and role name.
/// Cheap and idempotent; safe to call with tracing disabled.
pub fn set_identity(node: usize, name: &str) {
    let _ = TL.try_with(|tl| {
        let mut tl = tl.borrow_mut();
        tl.node = node as u32;
        tl.name = Some(name.to_string());
        if let Some(ring) = &tl.ring {
            if tl.gen == ACTIVE_GEN.load(Ordering::Acquire) {
                let id = Identity {
                    node: node as u32,
                    name: name.to_string(),
                };
                ring.lock().set_identity(id);
            }
        }
    });
}

/// Record a span begin at virtual time `vt`.
#[inline]
pub fn begin(kind: EventKind, vt: VTime) {
    if enabled() {
        record(kind, Phase::Begin, 0, vt);
    }
}

/// Record a span begin carrying an argument.
#[inline]
pub fn begin_arg(kind: EventKind, arg: u64, vt: VTime) {
    if enabled() {
        record(kind, Phase::Begin, arg, vt);
    }
}

/// Record a span end at virtual time `vt`.
#[inline]
pub fn end(kind: EventKind, vt: VTime) {
    if enabled() {
        record(kind, Phase::End, 0, vt);
    }
}

/// Record an instant event.
#[inline]
pub fn instant(kind: EventKind, arg: u64, vt: VTime) {
    if enabled() {
        record(kind, Phase::Instant, arg, vt);
    }
}

/// Host nanoseconds since the first event this process recorded: a
/// debugging stamp for host-side skew, never a virtual time.
fn wall_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

fn record(kind: EventKind, phase: Phase, arg: u64, vt: VTime) {
    let gen = ACTIVE_GEN.load(Ordering::Acquire);
    if gen == 0 {
        return;
    }
    let ev = TraceEvent {
        kind,
        phase,
        arg,
        vtime: vt,
        wall_ns: wall_ns(),
    };
    // try_with: a thread whose TLS is being torn down simply drops events.
    let _ = TL.try_with(|tl| {
        let mut tl = tl.borrow_mut();
        if tl.gen != gen || tl.ring.is_none() {
            let identity = Identity {
                node: tl.node,
                name: tl
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{:?}", std::thread::current().id())),
            };
            let cap = CAPACITY.load(Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring::with_identity(cap, identity)));
            registry().lock().push(Arc::clone(&ring));
            tl.ring = Some(ring);
            tl.gen = gen;
        }
        tl.ring.as_ref().unwrap().lock().push(ev);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sessions are process-global, so serialize these tests: record-API
    // calls from one test must not land in another test's session.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = TEST_GUARD.lock();
        let s = start(TraceConfig { capacity: 16 }).expect("session busy");
        let data = s.finish();
        // Nothing recorded between start and finish.
        assert_eq!(data.event_count(), 0);
        instant(EventKind::DsmDiff, 1, VTime(1)); // no session: must not panic
        assert!(!enabled());
    }

    #[test]
    fn records_across_threads_with_identity() {
        let _g = TEST_GUARD.lock();
        let s = start(TraceConfig { capacity: 64 }).expect("session busy");
        set_identity(0, "main");
        begin(EventKind::OmpBarrier, VTime(10));
        end(EventKind::OmpBarrier, VTime(30));
        let h = std::thread::spawn(|| {
            set_identity(1, "worker-1");
            instant(EventKind::DsmDiff, 128, VTime(5));
        });
        h.join().unwrap();
        let data = s.finish();
        assert_eq!(data.event_count(), 3);
        let nodes: Vec<u32> = data.threads.iter().map(|t| t.identity.node).collect();
        assert_eq!(nodes, vec![0, 1]);
        assert_eq!(data.threads[1].identity.name, "worker-1");
    }

    #[test]
    fn generations_do_not_leak_across_sessions() {
        let _g = TEST_GUARD.lock();
        {
            let s = start(TraceConfig { capacity: 16 }).expect("session busy");
            instant(EventKind::DsmTwin, 1, VTime(1));
            let d = s.finish();
            assert_eq!(d.event_count(), 1);
        }
        {
            let s = start(TraceConfig { capacity: 16 }).expect("session busy");
            instant(EventKind::DsmTwin, 2, VTime(2));
            let d = s.finish();
            // Only the second session's event; the ring was re-created.
            assert_eq!(d.event_count(), 1);
            assert_eq!(d.threads[0].events[0].arg, 2);
        }
    }
}
