//! The deterministic property runner.
//!
//! Each property runs `cases` times. Case `i` gets its own RNG seeded from
//! `base_seed + i·φ` (a single printable `u64`), so any failing case is
//! reproducible from one number. On failure the input is greedily shrunk
//! via [`Shrink`] and the runner panics with a
//! message containing:
//!
//! * the case seed, and a `PARADE_PROP_SEED=0x… cargo test <name>` line
//!   that re-runs exactly that case (same generated input, same
//!   deterministic shrink, same minimal counterexample);
//! * the minimal (shrunk) counterexample, `Debug`-printed;
//! * the original panic message of the property body.
//!
//! Environment knobs:
//!
//! * `PARADE_PROP_SEED` — run only the case with this seed (hex `0x…` or
//!   decimal). This is what the printed reproduction line sets.
//! * `PARADE_PROP_CASES` — override the number of cases for every property
//!   (e.g. crank to 10⁴ for a soak run).

use std::panic::{self, AssertUnwindSafe};

use crate::rng::TestRng;
use crate::shrink::Shrink;

/// Golden-ratio stride between case seeds: consecutive cases get
/// well-separated, individually printable seeds.
const CASE_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Cap on total shrink candidate evaluations.
    pub max_shrink_steps: u32,
    /// Base seed combined with the case index.
    pub base_seed: u64,
    /// If set, run exactly one case with this seed (from
    /// `PARADE_PROP_SEED`).
    pub forced_seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            max_shrink_steps: 4096,
            base_seed: 0x5EED_0001_4ADE_2003,
            forced_seed: None,
        }
    }
}

impl Config {
    /// Default config with environment overrides applied.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Ok(s) = std::env::var("PARADE_PROP_CASES") {
            if let Ok(n) = s.trim().parse::<u32>() {
                cfg.cases = n.max(1);
            }
        }
        if let Ok(s) = std::env::var("PARADE_PROP_SEED") {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse::<u64>().ok()
            };
            if parsed.is_none() {
                eprintln!("warning: unparsable PARADE_PROP_SEED={s:?}; ignoring");
            }
            cfg.forced_seed = parsed;
        }
        cfg
    }

    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }
}

fn case_seed(base: u64, i: u64) -> u64 {
    base.wrapping_add(i.wrapping_mul(CASE_STRIDE))
}

std::thread_local! {
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses printing for
/// panics the runner is going to catch, and delegates everything else to
/// the previous hook.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `prop` against `value`, catching panics. `Ok(())` means the property
/// held. Panic output is suppressed (the runner reports failures itself).
fn run_case<T, P: Fn(&T)>(prop: &P, value: &T) -> Result<(), String> {
    QUIET_PANICS.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET_PANICS.with(|q| q.set(false));
    r.map_err(panic_message)
}

/// Check a property: generate `cfg.cases` inputs with `gen` and run `prop`
/// (which fails by panicking) on each. See the module docs for the failure
/// report and reproduction contract.
pub fn check<T, G, P>(name: &str, cfg: &Config, gen: G, prop: P)
where
    T: std::fmt::Debug + Clone + Shrink,
    G: Fn(&mut TestRng) -> T,
    P: Fn(&T),
{
    install_quiet_hook();
    let seeds: Vec<(u64, u64)> = match cfg.forced_seed {
        Some(s) => vec![(0, s)],
        None => (0..cfg.cases as u64)
            .map(|i| (i, case_seed(cfg.base_seed, i)))
            .collect(),
    };
    let total = seeds.len();
    for (i, seed) in seeds {
        let mut rng = TestRng::new(seed);
        let value = gen(&mut rng);
        if let Err(first_msg) = run_case(&prop, &value) {
            let (minimal, msg, shrink_steps) =
                shrink_loop(value, first_msg, &prop, cfg.max_shrink_steps);
            panic!(
                "property '{name}' failed (case {}/{total}, seed 0x{seed:016x}).\n\
                 \u{20}  reproduce: PARADE_PROP_SEED=0x{seed:016x} cargo test -q {name}\n\
                 \u{20}  minimal counterexample (after {shrink_steps} shrink steps): {minimal:?}\n\
                 \u{20}  failure: {msg}",
                i + 1,
            );
        }
    }
}

/// Greedy shrink: repeatedly jump to the first still-failing candidate.
/// Deterministic for a given failing value, bounded by `max_steps`.
fn shrink_loop<T, P>(mut best: T, mut msg: String, prop: &P, max_steps: u32) -> (T, String, u32)
where
    T: Clone + Shrink,
    P: Fn(&T),
{
    let mut steps = 0u32;
    'outer: while steps < max_steps {
        for cand in best.shrink() {
            steps += 1;
            if let Err(m) = run_case(prop, &cand) {
                best = cand;
                msg = m;
                continue 'outer;
            }
            if steps >= max_steps {
                break 'outer;
            }
        }
        break;
    }
    (best, msg, steps)
}

/// Declare a property test.
///
/// ```ignore
/// prop!(fn sum_is_commutative((a, b) in |r: &mut TestRng| (r.next_u32(), r.next_u32())) {
///     assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
/// });
/// // Fewer cases for expensive properties:
/// prop!(cases = 12, fn heavy(x in |r: &mut TestRng| r.range_usize(1, 5)) { ... });
/// ```
///
/// The generator is any `Fn(&mut TestRng) -> T` where
/// `T: Debug + Clone + Shrink`; the body fails by panicking (plain
/// `assert!`/`assert_eq!`).
#[macro_export]
macro_rules! prop {
    (cases = $cases:expr, fn $name:ident($pat:pat in $gen:expr) $body:block) => {
        #[test]
        fn $name() {
            let __cfg = $crate::runner::Config::from_env().with_cases($cases);
            $crate::runner::check(stringify!($name), &__cfg, $gen, |__input| {
                let $pat = __input.clone();
                $body
            });
        }
    };
    (fn $name:ident($pat:pat in $gen:expr) $body:block) => {
        #[test]
        fn $name() {
            let __cfg = $crate::runner::Config::from_env();
            $crate::runner::check(stringify!($name), &__cfg, $gen, |__input| {
                let $pat = __input.clone();
                $body
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cases: u32) -> Config {
        Config {
            cases,
            forced_seed: None,
            ..Config::default()
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check(
            "always_true",
            &cfg(64),
            |r| r.next_u64(),
            |_| {
                counter.set(counter.get() + 1);
            },
        );
        n += counter.get();
        assert_eq!(n, 64);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            check(
                "fails_over_100",
                &cfg(256),
                |r| r.range_u64(0, 1000),
                |&v| assert!(v <= 100, "v too big"),
            );
        }));
        let msg = panic_message(r.unwrap_err());
        assert!(msg.contains("fails_over_100"), "{msg}");
        assert!(msg.contains("PARADE_PROP_SEED=0x"), "{msg}");
        // Greedy shrink on `v > 100` must land exactly on the boundary 101:
        // shrink candidates include v-1, so the minimum failing value wins.
        assert!(
            msg.contains("counterexample") && msg.contains("101"),
            "{msg}"
        );
        assert!(msg.contains("v too big"), "{msg}");
    }

    #[test]
    fn reproduction_is_deterministic() {
        // Extract the seed from a failure message, re-run with forced_seed,
        // and demand the identical minimal counterexample line.
        let fail = |which: &str, forced: Option<u64>| -> String {
            let c = Config {
                cases: 128,
                forced_seed: forced,
                ..Config::default()
            };
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                check(
                    which,
                    &c,
                    |r| r.bytes_vec(0, 40),
                    |v| assert!(!v.contains(&7), "contains 7"),
                );
            }));
            panic_message(r.unwrap_err())
        };
        let first = fail("no_sevens", None);
        let seed_hex = first
            .split("PARADE_PROP_SEED=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap();
        let seed = u64::from_str_radix(seed_hex.trim_start_matches("0x"), 16).unwrap();
        let second = fail("no_sevens", Some(seed));
        let minimal = |m: &str| {
            m.lines()
                .find(|l| l.contains("minimal counterexample"))
                .unwrap()
                .to_string()
        };
        // Same seed → same generated input → same deterministic shrink.
        assert_eq!(minimal(&first), minimal(&second));
        assert!(
            second.contains("[7]"),
            "fully shrunk to the single byte 7: {second}"
        );
    }

    prop!(fn macro_declared_property_holds(v in |r: &mut TestRng| r.range_i64(-50, 50)) {
        assert_eq!(v, v);
    });

    prop!(cases = 7, fn macro_with_cases(x in |r: &mut TestRng| r.next_bool()) {
        let _ = x;
    });
}
