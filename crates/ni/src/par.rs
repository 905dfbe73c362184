//! Deterministic parallel episode runner for the randomized suites.
//!
//! The refinement and noninterference suites run many independent
//! episodes, each fully determined by its index (per-episode seeds are
//! derived from the index, never from shared RNG state). That makes them
//! embarrassingly parallel. The fan-out machinery lives in the
//! workspace's fleet scheduler ([`komodo_fleet::run_indexed`]): episodes
//! become fleet jobs on the same queue the bench harness uses,
//! rather than a bespoke thread pool here.
//!
//! The behavioral contract is unchanged and re-pinned by this module's
//! tests: every episode runs to completion regardless of other episodes'
//! failures (panics are caught per episode), failures are collected with
//! their indices, and the lowest-indexed failure is re-raised — so a
//! failing run reports the same episode with the same message as the
//! sequential loop it replaces.

pub use komodo_fleet::run_indexed;

#[cfg(test)]
mod tests {
    use super::*;
    use komodo_fleet::panic_message;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run_indexed(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_episodes_is_a_no_op() {
        run_indexed(0, |_| panic!("must not run"));
    }

    #[test]
    fn reports_the_lowest_failing_episode() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(50, |i| {
                assert!(i % 7 != 0, "episode body rejected index {i}");
            });
        }));
        let msg = panic_message(r.unwrap_err());
        assert!(
            msg.starts_with("episode 0 failed (8 of 50 episodes failed)"),
            "wrong report: {msg}"
        );
        assert!(msg.contains("episode body rejected index 0"), "{msg}");
    }
}
