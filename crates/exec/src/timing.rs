//! The one place the engine reads a wall clock.
//!
//! `Observations` compare timing-blind (a manual `PartialEq` skips each
//! record's elapsed time) exactly so differential tests never depend on
//! wall time. That property survives only if clock reads stay behind a
//! single seam: `clippy.toml` bans the `Instant` and `SystemTime` types
//! and their `now` everywhere in the workspace, and this module is the one
//! `#[expect]`ed exception. Operators measure durations through [`Stopwatch`]; nothing
//! else in library code may observe time.

use std::time::Duration;
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "clippy.toml bans `Instant` everywhere else; this module is the seam it points to"
)]
mod clock {
    use std::time::{Duration, Instant};

    /// A started wall-clock measurement.
    #[derive(Debug, Clone, Copy)]
    pub struct Stopwatch {
        start: Instant,
    }

    impl Stopwatch {
        /// Start measuring now.
        pub fn start() -> Stopwatch {
            Stopwatch { start: Instant::now() }
        }

        /// Wall time since [`Stopwatch::start`].
        pub fn elapsed(&self) -> Duration {
            self.start.elapsed()
        }
    }
}

pub use clock::Stopwatch;

/// Measure one closure, returning its result and its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn timed_returns_the_closure_result() {
        let (v, d) = timed(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }
}
