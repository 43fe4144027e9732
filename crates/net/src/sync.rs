//! Poison-ignoring wrappers over `std::sync` primitives.
//!
//! The runtime previously used an external lock crate whose locks have no
//! poisoning and whose `Condvar::wait` takes `&mut MutexGuard`. These
//! wrappers keep that call-site shape on top of `std::sync` so the
//! workspace builds with zero external dependencies:
//!
//! * `lock()` / `read()` / `write()` return guards directly — a poisoned
//!   lock is recovered with `into_inner()` instead of panicking. Poisoning
//!   only happens when a holder panics, and every invariant the runtime
//!   protects with these locks is re-checked by the protocol state machines,
//!   so propagating the poison would just turn one test failure into a
//!   cascade of unrelated ones.
//! * [`Condvar::wait`] takes `&mut MutexGuard` (guard-centric style) by
//!   briefly moving the inner std guard out, waiting, and moving it back.

use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A mutex whose `lock` never fails (poison is swallowed).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Self {
        Mutex(sync::Mutex::new(t))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(|p| p.into_inner())),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

/// Guard for [`Mutex`]. Holds the std guard in an `Option` so
/// [`Condvar::wait`] can move it out and back while the caller keeps a
/// `&mut` borrow.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard moved during wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard moved during wait")
    }
}

/// A condition variable usable with [`MutexGuard`] held by `&mut`, which
/// makes a system call only when a thread is parked on it.
///
/// std's futex condvar wakes unconditionally — a `futex_wake` per notify,
/// whether or not anyone waits — and most notifies here find nobody: a
/// send into a mailbox whose receiver is busy, a page published before
/// anyone piled onto it. So waiters are counted, and a notify that reads
/// zero returns.
///
/// That is sound under the rule every condvar use already follows: **the
/// notifier changes the predicate while holding the mutex its waiters pass
/// to [`Condvar::wait`]** (it may release the mutex before notifying). A
/// waiter checks the predicate and registers itself under that mutex, so
/// for any change either the waiter's critical section came first — then
/// its registration is visible to the notifier, which acquired the mutex
/// after it — or it came second and the waiter saw the new predicate and
/// did not park.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads between registering in [`Condvar::wait`] and waking from
    /// it. Written only with the waiters' mutex held.
    parked: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }

    pub fn notify_one(&self) {
        if self.parked.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.parked.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }

    /// Atomically release the mutex and block until notified, reacquiring
    /// before returning (spurious wakeups possible, as with std).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard moved during wait");
        self.parked.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(|p| p.into_inner());
        self.parked.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
    }
}

/// A reader-writer lock whose acquisitions never fail (poison is swallowed).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(t: T) -> Self {
        RwLock(sync::RwLock::new(t))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|p| p.into_inner())
    }

    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|p| p.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), [1, 2, 3]);
    }

    #[test]
    fn condvar_wait_roundtrips_guard() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
            *done
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        assert!(t.join().unwrap());
    }

    #[test]
    fn notify_with_nobody_parked_is_a_no_op() {
        let cv = Condvar::new();
        cv.notify_all();
        cv.notify_one();
        assert_eq!(cv.parked.load(Ordering::SeqCst), 0);
    }

    /// Two producers and two consumers hand a single slot back and forth:
    /// every hand-off has a notifier that may find the other side not yet
    /// parked, so one skipped wake-up that mattered hangs the run (the
    /// watchdog's failure), and `taken == ROUNDS` means none was lost.
    #[test]
    fn counted_condvar_loses_no_wakeup_in_a_ping_pong() {
        const ROUNDS: usize = 100_000;
        struct Slot {
            full: bool,
            produced: usize,
            taken: usize,
        }
        let taken = parade_testkit::watchdog::run_with_timeout(
            "condvar-ping-pong",
            std::time::Duration::from_secs(120),
            || {
                let shared = (
                    Mutex::new(Slot {
                        full: false,
                        produced: 0,
                        taken: 0,
                    }),
                    Condvar::new(),
                    Condvar::new(),
                );
                let (slot, not_full, not_empty) = &shared;
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| loop {
                            let mut g = slot.lock();
                            while g.full && g.produced < ROUNDS {
                                not_full.wait(&mut g);
                            }
                            if g.produced == ROUNDS {
                                return;
                            }
                            g.full = true;
                            g.produced += 1;
                            let done = g.produced == ROUNDS;
                            drop(g);
                            not_empty.notify_one();
                            if done {
                                // The other producer may be parked on a full
                                // slot that will never drain for it.
                                not_full.notify_all();
                            }
                        });
                        s.spawn(|| loop {
                            let mut g = slot.lock();
                            while !g.full && g.taken < ROUNDS {
                                not_empty.wait(&mut g);
                            }
                            if !g.full {
                                return;
                            }
                            g.full = false;
                            g.taken += 1;
                            let done = g.taken == ROUNDS;
                            drop(g);
                            not_full.notify_one();
                            if done {
                                not_empty.notify_all();
                            }
                        });
                    }
                });
                assert_eq!(not_full.parked.load(Ordering::SeqCst), 0);
                assert_eq!(not_empty.parked.load(Ordering::SeqCst), 0);
                let g = slot.lock();
                g.taken
            },
        );
        assert_eq!(taken, ROUNDS);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A poison-ignoring lock shrugs and hands out the value.
        assert_eq!(*m.lock(), 7);
    }
}
