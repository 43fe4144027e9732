//! Host threads that outlive the job they ran.
//!
//! The paper's runtime starts a node's communication thread and compute
//! threads once and keeps them for the life of the program; this
//! simulator launches a whole cluster per `Cluster::run`, by the hundred
//! under `parade-serve`. Creating an OS thread each time — clone, a mapped
//! and guarded stack, a malloc arena, and all of it undone at exit — was a
//! sixth of that workload's host time, so a thread that finishes its job
//! parks here under its *name* and the next [`spawn_named`] with that name
//! hands it the closure. Names are the key because they are what a panic
//! message and a trace identity print: a reused thread says exactly what a
//! fresh one would.
//!
//! Order of events at the end of a job, which [`Joiner::join`] relies on:
//! the closure returns (or unwinds) and everything it captured is dropped;
//! the worker goes back on the idle list; only then is the result
//! published. So `join` returning still means nothing of that job is
//! running or held, and a caller that spawns the same name next finds the
//! thread it just used. A worker whose job panicked is not reused: it
//! publishes the payload and exits.
//!
//! There is no cap and no timeout. Idle threads are bounded by the most
//! threads ever live at once under each name, and a parked thread costs
//! its stack's touched pages and nothing else.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};

use crate::sync::{Condvar, Mutex};

/// What a worker is sent: the caller's closure wrapped with its
/// `catch_unwind` and the publishing of its result. It calls `park` between
/// the two and returns whether the worker may take another job.
type Job = Box<dyn FnOnce(&dyn Fn()) -> bool + Send>;

/// Parked workers by thread name, each waiting on the receiving end.
static IDLE: Mutex<BTreeMap<String, Vec<mpsc::Sender<Job>>>> = Mutex::new(BTreeMap::new());

/// The other end of a [`spawn_named`] job.
pub struct Joiner<R>(Arc<Outcome<R>>);

/// Where a job's result waits for its joiner. (An `mpsc` channel would do,
/// but is instantiated anew for every result type: a sixth of the
/// benchmark binary's code.)
struct Outcome<R> {
    result: Mutex<Option<std::thread::Result<R>>>,
    published: Condvar,
}

impl<R> Joiner<R> {
    /// Wait for the job to end: its value, or the payload it panicked
    /// with. By then its captures are dropped and its thread is parked.
    pub fn join(self) -> std::thread::Result<R> {
        let mut result = self.0.result.lock();
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            self.0.published.wait(&mut result);
        }
    }
}

/// Run `f` on a thread named `name`: a parked one if there is one, else a
/// new one. The drop-in for `std::thread::Builder::new().name(..).spawn(..)`.
pub fn spawn_named<R, F>(name: String, f: F) -> Joiner<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let outcome = Arc::new(Outcome {
        result: Mutex::new(None),
        published: Condvar::new(),
    });
    let publish = Arc::clone(&outcome);
    dispatch(
        name,
        Box::new(move |park| {
            // `f` is consumed by the call, so its captures are gone when
            // `catch_unwind` returns, on either path.
            let r = catch_unwind(AssertUnwindSafe(f));
            let reusable = r.is_ok();
            if reusable {
                park();
            }
            *publish.result.lock() = Some(r);
            publish.published.notify_one();
            reusable
        }),
    );
    Joiner(outcome)
}

/// Hand `job` to a parked worker called `name`, or to a new one.
fn dispatch(name: String, mut job: Job) {
    loop {
        let idle = IDLE.lock().get_mut(&name).and_then(Vec::pop);
        let Some(worker) = idle else { break };
        match worker.send(job) {
            Ok(()) => return,
            // The worker died after parking (an unjoined result whose drop
            // panicked on it): the job comes back, try the next.
            Err(mpsc::SendError(back)) => job = back,
        }
    }
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || work(name, job))
        .expect("spawn host thread");
}

/// A worker's life: its first job, then each one sent to it while it is
/// parked; the first that panics ends it.
fn work(name: String, first: Job) {
    let (tx, rx) = mpsc::channel::<Job>();
    let park = || {
        let mut idle = IDLE.lock();
        match idle.get_mut(&name) {
            Some(parked) => parked.push(tx.clone()),
            None => {
                idle.insert(name.clone(), vec![tx.clone()]);
            }
        }
    };
    let mut job = first;
    while job(&park) {
        job = rx.recv().expect("this thread holds a sender to itself");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    use parade_testkit::prelude::run_with_timeout;

    fn here() -> (ThreadId, Option<String>) {
        let t = std::thread::current();
        (t.id(), t.name().map(str::to_string))
    }

    fn idle(name: &str) -> usize {
        IDLE.lock().get(name).map_or(0, Vec::len)
    }

    #[test]
    fn the_next_spawn_under_a_name_reuses_the_thread_and_a_busy_name_gets_another() {
        let name = "threads-test-reuse".to_string();
        let (first, first_name) = spawn_named(name.clone(), here).join().unwrap();
        assert_eq!(first_name.as_deref(), Some(name.as_str()));
        assert_eq!(idle(&name), 1, "parked before join returned");
        let (second, _) = spawn_named(name.clone(), here).join().unwrap();
        assert_eq!(second, first);
        // While one job under the name is still running, the next gets a
        // thread of its own, and both finish.
        let (release, held) = mpsc::channel::<()>();
        let (started, running) = mpsc::channel::<()>();
        let busy = spawn_named(name.clone(), move || {
            started.send(()).unwrap();
            held.recv().unwrap();
            here().0
        });
        running.recv().unwrap();
        let (other, _) = spawn_named(name.clone(), here).join().unwrap();
        release.send(()).unwrap();
        assert_eq!(busy.join().unwrap(), first);
        assert_ne!(other, first);
        assert_eq!(idle(&name), 2);
    }

    #[test]
    fn a_panicked_job_hands_over_its_payload_and_its_thread_is_not_reused() {
        let name = "threads-test-n1t1".to_string();
        let (first, _) = spawn_named(name.clone(), here).join().unwrap();
        let (tx, rx) = mpsc::channel();
        let failed = spawn_named(name.clone(), move || {
            // The panic hook prints the current thread's name: the one
            // spawn_named was asked for, on a reused thread too.
            tx.send(here()).unwrap();
            panic!("boom");
        });
        let payload = failed.join().expect_err("the job panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(rx.recv().unwrap(), (first, Some(name.clone())));
        assert_eq!(idle(&name), 0, "a failed job's thread is discarded");
        let (next, next_name) = spawn_named(name.clone(), here).join().unwrap();
        assert_ne!(next, first);
        assert_eq!(next_name, Some(name));
    }

    #[test]
    fn join_returns_after_the_closure_and_its_captures_are_dropped() {
        let held = Arc::new(());
        for round in 0..20 {
            let captured = Arc::clone(&held);
            let job = spawn_named("threads-test-drop".to_string(), move || {
                if round % 2 == 1 {
                    panic!(
                        "unwinding drops captures too: {}",
                        Arc::strong_count(&captured)
                    );
                }
                Arc::strong_count(&captured)
            });
            match job.join() {
                Ok(seen) => assert_eq!(seen, 2),
                Err(_) => assert_eq!(round % 2, 1),
            }
            assert_eq!(Arc::strong_count(&held), 1, "round {round}");
        }
    }

    #[test]
    fn many_callers_over_few_names_lose_no_wakeup_and_park_no_more_than_ever_ran() {
        const CALLERS: usize = 4;
        const ROUNDS: usize = 10_000;
        let names = [
            "threads-test-soak-a",
            "threads-test-soak-b",
            "threads-test-soak-c",
        ];
        let seen = run_with_timeout("thread-cache-soak", Duration::from_secs(60), move || {
            let callers: Vec<_> = (0..CALLERS)
                .map(|c| {
                    std::thread::spawn(move || {
                        let mut seen = HashSet::new();
                        for round in 0..ROUNDS / CALLERS {
                            let which = (c + round) % names.len();
                            let got = spawn_named(names[which].to_string(), move || {
                                (round, std::thread::current().id())
                            });
                            let (echo, id) = got.join().unwrap();
                            assert_eq!(echo, round);
                            seen.insert((which, id));
                        }
                        seen
                    })
                })
                .collect();
            let mut seen = HashSet::new();
            for c in callers {
                seen.extend(c.join().unwrap());
            }
            seen
        });
        // Each caller has one job in flight, so no name ever had more than
        // CALLERS threads live at once: that bounds the threads created
        // and the senders parked.
        for (which, name) in names.iter().enumerate() {
            let threads = seen.iter().filter(|(w, _)| *w == which).count();
            assert!(
                (1..=CALLERS).contains(&threads),
                "{name}: {threads} threads"
            );
            assert_eq!(idle(name), threads, "{name}: every thread is parked once");
        }
    }
}
