//! # parade-testkit — deterministic, dependency-free test harness
//!
//! In-repo replacement for the `proptest` + `rand` stack, so
//! the workspace builds and tests **offline with zero external crates**
//! (the hermetic-build policy; see README.md).
//!
//! Two pieces:
//!
//! * [`rng::TestRng`] — a seeded generator built on the NAS 46-bit LCG
//!   (the same `a = 5^13` recurrence as `parade-kernels::nasrng`, which a
//!   property test cross-checks bit-for-bit).
//! * [`runner`] + the [`prop!`] macro — a property-testing harness: every
//!   case is derived from one printable seed, failures print a
//!   `PARADE_PROP_SEED=0x…` reproduction line, and inputs are greedily
//!   shrunk via [`shrink::Shrink`] to a deterministic minimal
//!   counterexample.
//!
//! Plus [`watchdog::run_with_timeout`], a deadlock watchdog for tests that
//! drive blocking runtimes (used by the chaos/fault-injection suite), and
//! [`wire::assert_codec`], the one contract every wire codec is held to.
//!
//! ```ignore
//! use parade_testkit::prelude::*;
//!
//! prop!(fn addition_commutes((a, b) in |r: &mut TestRng| (r.next_u32(), r.next_u32())) {
//!     assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
//! });
//! ```

pub mod rng;
pub mod runner;
pub mod shrink;
pub mod watchdog;
pub mod wire;

/// The names property tests actually use.
pub mod prelude {
    pub use crate::prop;
    pub use crate::rng::TestRng;
    pub use crate::runner::Config;
    pub use crate::shrink::Shrink;
    pub use crate::watchdog::run_with_timeout;
}
