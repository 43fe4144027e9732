//! Intra-node (pthread-style) barrier with virtual-time reconciliation.
//!
//! All compute threads of a node synchronize here; the barrier releases
//! everyone at `max(arrival clocks) + overhead`, which is how barrier wait
//! time shows up in virtual time. Lives in the net crate because both the
//! core runtime's thread teams and the MPI layer's shared-memory collective
//! combine (ranks co-located on one SMP node) are built on it. The runtime's
//! hierarchical constructs use the combining variant, [`VBarrier::wait_leading`]:
//! the last thread to arrive does the node's inter-node work before anyone
//! is released.

use crate::sync::{Condvar, Mutex};
use crate::vtime::{VClock, VTime};

/// Fixed CPU overhead of one node-local barrier crossing (a pthread
/// condvar round on the paper's hardware).
const NODE_BARRIER_OVERHEAD: VTime = VTime(2_000);

struct State {
    count: usize,
    generation: u64,
    max_arrival: VTime,
    release_at: VTime,
    /// Set by [`VBarrier::poison`]; never cleared.
    broken: bool,
}

/// A reusable barrier for `n` threads carrying virtual time.
pub struct VBarrier {
    n: usize,
    /// Whose threads meet here, for the poison panic.
    owner: String,
    state: Mutex<State>,
    cv: Condvar,
}

impl VBarrier {
    pub fn new(n: usize) -> Self {
        VBarrier::named(n, format!("{n} threads"))
    }

    /// A barrier whose poison panic names `owner` ("node 3").
    pub fn named(n: usize, owner: impl Into<String>) -> Self {
        assert!(n > 0);
        VBarrier {
            n,
            owner: owner.into(),
            state: Mutex::new(State {
                count: 0,
                generation: 0,
                max_arrival: VTime::ZERO,
                release_at: VTime::ZERO,
                broken: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Wait for all `n` threads; on return every clock reads the common
    /// release time, `max(arrival clocks) + overhead`.
    pub fn wait(&self, clock: &mut VClock) {
        self.cross(clock, |_, arrived| arrived);
    }

    /// One *combining* crossing, equal in virtual time to
    /// `wait(); lead on one thread; wait()`: the last thread to arrive
    /// advances to `max(arrival clocks) + overhead`, runs `lead` on its own
    /// clock while the others stay parked, and releases everyone at its
    /// clock afterwards plus the overhead of the second crossing. Returns
    /// `true` on the thread that led.
    ///
    /// The others park once instead of twice and the leader not at all. If
    /// `lead` unwinds the barrier is [poisoned](VBarrier::poison): the
    /// parked threads can no longer be released by it.
    pub fn wait_leading(&self, clock: &mut VClock, lead: impl FnOnce(&mut VClock)) -> bool {
        self.cross(clock, |clock, arrived| {
            clock.sync_to(arrived);
            let guard = self.poison_on_unwind();
            lead(clock);
            drop(guard);
            clock.now() + NODE_BARRIER_OVERHEAD
        })
    }

    /// Break the barrier for good: every thread parked on it and every
    /// later arrival panics. Called when one of the `n` threads dies and
    /// the crossing the others wait for can never complete.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.broken = true;
        st.generation += 1;
        drop(st);
        self.cv.notify_all();
    }

    /// A guard that [poisons](VBarrier::poison) the barrier if it is dropped
    /// by a panicking thread. Each of the `n` threads holds one across
    /// everything it does between crossings: any of them may be the one the
    /// others wait for, so one that unwinds must not leave them parked.
    #[must_use = "the guard acts when dropped: bind it for the scope it covers"]
    pub fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// The crossing both entry points share: the last arriver computes the
    /// release time with `last_arriver(its clock, max arrival + overhead)`
    /// — unlocked, the other `n - 1` threads are parked and nobody else
    /// can arrive — and publishes it.
    fn cross(
        &self,
        clock: &mut VClock,
        last_arriver: impl FnOnce(&mut VClock, VTime) -> VTime,
    ) -> bool {
        let mut st = self.state.lock();
        self.check(&st);
        st.max_arrival = st.max_arrival.max(clock.now());
        st.count += 1;
        let led = st.count == self.n;
        let t = if led {
            let arrived = st.max_arrival + NODE_BARRIER_OVERHEAD;
            drop(st);
            let t = last_arriver(clock, arrived);
            let mut st = self.state.lock();
            st.count = 0;
            st.max_arrival = VTime::ZERO;
            st.release_at = t;
            st.generation += 1;
            // The new generation is published; notifying with the lock
            // released lets the woken threads take it at once.
            drop(st);
            self.cv.notify_all();
            t
        } else {
            let gen = st.generation;
            while st.generation == gen {
                self.cv.wait(&mut st);
            }
            self.check(&st);
            st.release_at
        };
        clock.sync_to(t);
        led
    }

    fn check(&self, st: &State) {
        if st.broken {
            panic!(
                "node barrier of {} is broken: another of its threads panicked",
                self.owner
            );
        }
    }
}

/// See [`VBarrier::poison_on_unwind`].
pub struct PoisonOnUnwind<'a>(&'a VBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vtime::TimeSource;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn single_thread_barrier_is_trivial() {
        let b = VBarrier::new(1);
        let mut c = VClock::manual();
        c.charge(VTime::from_micros(5));
        b.wait(&mut c);
        assert_eq!(c.now(), VTime::from_micros(5) + NODE_BARRIER_OVERHEAD);
        // Alone, the thread leads: two crossings' overhead around `lead`.
        assert!(b.wait_leading(&mut c, |c| c.charge_comm(VTime::from_micros(1))));
        assert_eq!(c.now(), VTime(6_000 + 3 * NODE_BARRIER_OVERHEAD.0));
    }

    #[test]
    fn all_threads_leave_with_max_time() {
        let b = Arc::new(VBarrier::new(3));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut c = VClock::manual();
                    c.charge(VTime::from_micros(10 * (i + 1)));
                    b.wait(&mut c);
                    c.now()
                })
            })
            .collect();
        let times: Vec<VTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let expect = VTime::from_micros(30) + NODE_BARRIER_OVERHEAD;
        assert!(times.iter().all(|&t| t == expect), "{times:?}");
    }

    #[test]
    fn parked_host_time_is_not_compute() {
        // Thread 1 arrives 50 ms of host time late, so thread 0 parks that
        // long; neither interval is compute on a counted clock.
        let b = Arc::new(VBarrier::new(2));
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut c = VClock::new(TimeSource::Counted);
                    c.compute(VTime::from_micros(10 * (i + 1)));
                    if i == 1 {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    b.wait(&mut c);
                    let first = c.now();
                    b.wait(&mut c);
                    (first, c.now())
                })
            })
            .collect();
        let first = VTime::from_micros(20) + NODE_BARRIER_OVERHEAD;
        for h in handles {
            assert_eq!(h.join().unwrap(), (first, first + NODE_BARRIER_OVERHEAD));
        }
    }

    #[test]
    fn exactly_one_leader_per_crossing() {
        let b = Arc::new(VBarrier::new(4));
        for _ in 0..5 {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&b);
                    std::thread::spawn(move || {
                        let mut c = VClock::manual();
                        b.wait_leading(&mut c, |_| {})
                    })
                })
                .collect();
            let leaders = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&x| x)
                .count();
            assert_eq!(leaders, 1);
        }
    }

    /// The barrier's `count`, read the way a test may: under its lock.
    fn arrived(b: &VBarrier) -> usize {
        b.state.lock().count
    }

    #[test]
    fn poison_releases_parked_threads_and_fails_later_arrivals() {
        let b = Arc::new(VBarrier::named(3, "node 7"));
        let parked: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.wait(&mut VClock::manual()))
            })
            .collect();
        // Both have arrived (they register under the lock they park with).
        while arrived(&b) < 2 {
            std::thread::yield_now();
        }
        b.poison();
        for h in parked {
            let payload = h.join().expect_err("a parked thread must panic");
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("node barrier of node 7 is broken"), "{msg}");
        }
        let b2 = Arc::clone(&b);
        let late = std::thread::spawn(move || b2.wait(&mut VClock::manual()));
        assert!(late.join().is_err(), "a later arrival must panic too");
    }

    #[test]
    fn unwinding_leader_poisons_the_barrier() {
        let b = Arc::new(VBarrier::new(2));
        let b2 = Arc::clone(&b);
        let mate = std::thread::spawn(move || b2.wait_leading(&mut VClock::manual(), |_| {}));
        while arrived(&b) < 1 {
            std::thread::yield_now();
        }
        // This thread arrives last, leads, and dies leading.
        let b3 = Arc::clone(&b);
        let leader = std::thread::spawn(move || {
            b3.wait_leading(&mut VClock::manual(), |_| panic!("link dead"))
        });
        assert!(leader.join().is_err());
        assert!(mate.join().is_err(), "the parked mate must not be stranded");
    }

    #[test]
    fn barrier_is_reusable_by_same_threads() {
        let b = Arc::new(VBarrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut c = VClock::manual();
                    let mut ts = Vec::new();
                    for round in 0..10 {
                        c.charge(VTime::from_nanos((i as u64 + 1) * (round + 1)));
                        b.wait(&mut c);
                        ts.push(c.now());
                    }
                    ts
                })
            })
            .collect();
        let t0 = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>();
        assert_eq!(t0[0], t0[1], "both threads see identical release times");
        for w in t0[0].windows(2) {
            assert!(w[1] > w[0], "release times strictly increase");
        }
    }
}
