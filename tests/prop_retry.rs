//! Property-based tests of [`RetryPolicy`] backoff schedules: for every
//! attempt count and seed the schedule is monotone non-decreasing, bounded
//! by the virtual-time budget, never longer than the retry count, and
//! exactly reproducible from the seed.

use aggcache::prelude::*;
use proptest::prelude::*;
// Our `Strategy` enum (from the prelude glob) shadows proptest's trait of
// the same name; re-import the trait under an alias.
use proptest::strategy::Strategy as PropStrategy;

/// Strategy: an arbitrary *valid* retry policy.
fn arb_policy() -> impl PropStrategy<Value = RetryPolicy> {
    (1u32..=50, 0u64..u64::MAX).prop_map(|(max_attempts, seed)| RetryPolicy { max_attempts, seed })
}

proptest! {
    #[test]
    fn schedule_is_monotone_non_decreasing(policy in arb_policy()) {
        prop_assert!(policy.validate().is_ok());
        let schedule = policy.backoff_schedule();
        prop_assert!(
            schedule.windows(2).all(|w| w[0] <= w[1]),
            "schedule not monotone: {schedule:?}"
        );
        prop_assert!(
            schedule.iter().all(|b| b.is_finite() && *b > 0.0),
            "backoffs must be positive and finite: {schedule:?}"
        );
    }

    #[test]
    fn schedule_is_bounded_by_budget(policy in arb_policy()) {
        let schedule = policy.backoff_schedule();
        let total: f64 = schedule.iter().sum();
        prop_assert!(
            total <= RetryPolicy::BUDGET_MS,
            "schedule sum {total} exceeds budget {}",
            RetryPolicy::BUDGET_MS
        );
        prop_assert!(
            (schedule.len() as u32) < policy.max_attempts,
            "{} backoffs for {} attempts",
            schedule.len(),
            policy.max_attempts
        );
    }

    #[test]
    fn schedule_is_reproducible_per_seed(policy in arb_policy()) {
        // Bit-exact across calls: the jitter stream is a pure function of
        // (seed, attempt index).
        let a = policy.backoff_schedule();
        let b = policy.backoff_schedule();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // And agrees step-by-step with the per-attempt accessor.
        for (i, backoff) in a.iter().enumerate() {
            let attempt = i as u32 + 1;
            prop_assert_eq!(
                policy.backoff_ms(attempt).map(f64::to_bits),
                Some(backoff.to_bits()),
                "backoff_ms({}) disagrees with the schedule", attempt
            );
        }
    }

    #[test]
    fn jitter_widens_but_never_reorders(policy in arb_policy()) {
        // The jitter-free step is a lower bound on every step: jitter only
        // ever lengthens a backoff (u >= 0), it never shortens one — and by
        // less than its fraction of the step, unless monotonicity lifted it
        // to the step before.
        let schedule = policy.backoff_schedule();
        let mut prev = 0.0f64;
        for (i, &step) in schedule.iter().enumerate() {
            let flat = (RetryPolicy::BASE_BACKOFF_MS
                * RetryPolicy::BACKOFF_MULTIPLIER.powi(i as i32))
            .min(RetryPolicy::MAX_BACKOFF_MS);
            prop_assert!(
                step >= flat,
                "jittered step {i} ({step}) below jitter-free step ({flat})"
            );
            prop_assert!(
                step < flat * (1.0 + RetryPolicy::JITTER) || step == prev,
                "step {i} ({step}) stretched past the jitter fraction of {flat}"
            );
            prev = step;
        }
    }
}
