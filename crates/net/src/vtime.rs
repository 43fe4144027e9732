//! Virtual time.
//!
//! The host machine may have a single core, so wall-clock measurements of a
//! many-threaded cluster simulation are meaningless. Instead every simulated
//! thread carries a [`VClock`]: a virtual timestamp advanced by
//!
//! * **compute** — counted costs the program charges for the work it did
//!   (a kernel's loop trips × a per-unit cost, see [`VClock::compute`]),
//!   or explicit charges; never a host clock reading; and
//! * **communication/synchronization** — analytic costs from the network
//!   profile (latency, per-byte time, service penalties), reconciled via
//!   `max()` when threads interact.
//!
//! This is the classic *direct-execution simulation* technique: data values
//! come from real execution, timing comes from the model.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

impl VTime {
    pub const ZERO: VTime = VTime(0);

    pub fn from_nanos(ns: u64) -> Self {
        VTime(ns)
    }

    pub fn from_micros(us: u64) -> Self {
        VTime(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> Self {
        VTime(ms * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        VTime((s * 1e9).round().max(0.0) as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn max(self, other: VTime) -> VTime {
        VTime(self.0.max(other.0))
    }

    pub fn saturating_sub(self, other: VTime) -> VTime {
        VTime(self.0.saturating_sub(other.0))
    }
}

impl Add for VTime {
    type Output = VTime;
    fn add(self, rhs: VTime) -> VTime {
        VTime(self.0 + rhs.0)
    }
}

impl AddAssign for VTime {
    fn add_assign(&mut self, rhs: VTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VTime {
    type Output = VTime;
    fn sub(self, rhs: VTime) -> VTime {
        VTime(self.0 - rhs.0)
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

/// How a [`VClock`] accounts for compute between communication events.
///
/// No source reads a host clock: virtual time is advanced only by the
/// program's own charges and the network cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSource {
    /// Compute costs what the program says it did: each
    /// [`VClock::compute`] call (a kernel's loop trips × its per-unit cost)
    /// advances the clock.
    Counted,
    /// Compute is free: [`VClock::compute`] charges nothing, and only
    /// explicit [`VClock::charge`] calls and communication advance the
    /// clock. Used by tests and the benchmark.
    Manual,
}

/// A per-thread virtual clock.
#[derive(Debug, Clone)]
pub struct VClock {
    now: VTime,
    source: TimeSource,
    /// Total virtual time attributed to compute (vs. communication).
    compute: VTime,
    /// Total virtual time attributed to communication/synchronization waits.
    comm: VTime,
}

impl VClock {
    pub fn new(source: TimeSource) -> Self {
        VClock {
            now: VTime::ZERO,
            source,
            compute: VTime::ZERO,
            comm: VTime::ZERO,
        }
    }

    pub fn manual() -> Self {
        VClock::new(TimeSource::Manual)
    }

    pub fn now(&self) -> VTime {
        self.now
    }

    /// Virtual time attributed to computation so far.
    pub fn compute_time(&self) -> VTime {
        self.compute
    }

    /// Virtual time attributed to communication/synchronization so far.
    pub fn comm_time(&self) -> VTime {
        self.comm
    }

    /// Charge `d` of counted application compute: under
    /// [`TimeSource::Counted`] the clock advances by `d`, under
    /// [`TimeSource::Manual`] not at all.
    pub fn compute(&mut self, d: VTime) {
        if self.source == TimeSource::Counted {
            self.charge(d);
        }
    }

    /// Explicitly charge `d` of compute time, under either source.
    pub fn charge(&mut self, d: VTime) {
        self.now += d;
        self.compute += d;
    }

    /// Charge `d` of communication time.
    pub fn charge_comm(&mut self, d: VTime) {
        self.now += d;
        self.comm += d;
    }

    /// Advance to at least `t` (e.g. a message arrival), attributing the gap
    /// to communication wait.
    pub fn sync_to(&mut self, t: VTime) {
        if t > self.now {
            self.comm += t - self.now;
            self.now = t;
        }
    }

    /// Force the clock to exactly `t` (used when a forked worker inherits
    /// the fork time).
    pub fn reset_to(&mut self, t: VTime) {
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_arithmetic() {
        let a = VTime::from_micros(3);
        let b = VTime::from_nanos(500);
        assert_eq!((a + b).as_nanos(), 3_500);
        assert_eq!((a - b).as_nanos(), 2_500);
        assert_eq!(a.max(b), a);
        assert_eq!(a.saturating_sub(a + b), VTime::ZERO);
    }

    #[test]
    fn vtime_display_units() {
        assert_eq!(format!("{}", VTime::from_nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", VTime::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", VTime::from_millis(1_500)), "1.500s");
    }

    /// Burns host CPU without touching any clock.
    fn busy_loop() {
        let mut x = 0u64;
        for i in 0..1_000_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn manual_clock_only_moves_on_charges() {
        let mut c = VClock::manual();
        busy_loop();
        c.compute(VTime::from_micros(3));
        assert_eq!(c.now(), VTime::ZERO);
        c.charge(VTime::from_micros(5));
        c.charge_comm(VTime::from_micros(7));
        assert_eq!(c.now().as_nanos(), 12_000);
        assert_eq!(c.compute_time().as_nanos(), 5_000);
        assert_eq!(c.comm_time().as_nanos(), 7_000);
    }

    #[test]
    fn counted_clock_moves_by_compute_and_charge_only() {
        let mut c = VClock::new(TimeSource::Counted);
        busy_loop();
        assert_eq!(c.now(), VTime::ZERO, "host work is not compute");
        c.compute(VTime::from_micros(3));
        busy_loop();
        c.charge(VTime::from_micros(5));
        assert_eq!(c.now(), VTime::from_micros(8));
        assert_eq!(c.compute_time(), VTime::from_micros(8));
        assert_eq!(c.comm_time(), VTime::ZERO);
    }

    #[test]
    fn sync_to_never_goes_backwards() {
        let mut c = VClock::manual();
        c.charge(VTime::from_micros(10));
        c.sync_to(VTime::from_micros(4));
        assert_eq!(c.now(), VTime::from_micros(10));
        c.sync_to(VTime::from_micros(25));
        assert_eq!(c.now(), VTime::from_micros(25));
        assert_eq!(c.comm_time(), VTime::from_micros(15));
    }
}
