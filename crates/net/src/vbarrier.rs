//! Intra-node (pthread-style) barrier with virtual-time reconciliation.
//!
//! All compute threads of a node synchronize here; the barrier releases
//! everyone at `max(arrival clocks) + overhead`, which is how barrier wait
//! time shows up in virtual time. Lives in the net crate because both the
//! core runtime's thread teams and the MPI layer's shared-memory collective
//! combine (ranks co-located on one SMP node) are built on it.

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
}

/// A reusable barrier for `n` threads carrying virtual time.
pub struct VBarrier {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl VBarrier {
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        VBarrier {
            n,
            state: Mutex::new(State {
                count: 0,
                generation: 0,
                max_arrival: VTime::ZERO,
                release_at: VTime::ZERO,
            }),
            cv: Condvar::new(),
        }
    }

    pub fn parties(&self) -> usize {
        self.n
    }

    /// Wait for all `n` threads; on return every clock reads the common
    /// release time. Returns `true` on exactly one thread per crossing
    /// (the "last arriver", used to elect a node representative).
    pub fn wait(&self, clock: &mut VClock) -> bool {
        clock.sample_compute();
        let mut st = self.state.lock();
        st.max_arrival = st.max_arrival.max(clock.now());
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            st.release_at = st.max_arrival + NODE_BARRIER_OVERHEAD;
            st.max_arrival = VTime::ZERO;
            let t = st.release_at;
            // The new generation is published; wake the others with the
            // lock released, or they wake only to block on it.
            drop(st);
            self.cv.notify_all();
            clock.sync_to(t);
            true
        } else {
            let gen = st.generation;
            while st.generation == gen {
                self.cv.wait(&mut st);
            }
            let t = st.release_at;
            drop(st);
            clock.sync_to(t);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_trivial() {
        let b = VBarrier::new(1);
        let mut c = VClock::manual();
        c.charge(VTime::from_micros(5));
        assert!(b.wait(&mut c));
        assert_eq!(c.now(), VTime::from_micros(5) + NODE_BARRIER_OVERHEAD);
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
    fn exactly_one_leader_per_crossing() {
        let b = Arc::new(VBarrier::new(4));
        for _ in 0..5 {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = Arc::clone(&b);
                    std::thread::spawn(move || {
                        let mut c = VClock::manual();
                        b.wait(&mut c)
                    })
                })
                .collect();
            let leaders = handles
                .into_iter()
                .filter(|_| true)
                .map(|h| h.join().unwrap())
                .filter(|&x| x)
                .count();
            assert_eq!(leaders, 1);
        }
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
