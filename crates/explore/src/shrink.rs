//! Greedy schedule shrinking.
//!
//! Given a failing schedule, repeatedly drop one element at a time and keep
//! each drop that still reproduces the *same failure class* (the
//! [`crate::Failure::kind`] string), iterating to a fixpoint. This is
//! delta-debugging's 1-minimal reduction: the result cannot lose any single
//! element and still fail, though a smaller subset dropping several
//! elements at once may exist.
//!
//! Machine-level divergence lists (elements = `(step, core)` picks) are
//! what it minimizes; op-level traces need no shrinking, because the model
//! checker's breadth-first search already finds them at minimal depth.

/// Greedily removes elements from `items` while `still_fails` holds,
/// to a fixpoint. Returns the minimized list and how many candidate
/// executions the search spent.
pub fn shrink_items<T, F>(items: &[T], still_fails: F) -> (Vec<T>, usize)
where
    T: Clone,
    F: Fn(&[T]) -> bool,
{
    let mut kept: Vec<T> = items.to_vec();
    let mut attempts = 0;
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            attempts += 1;
            if still_fails(&candidate) {
                kept = candidate;
                progressed = true;
                // Same index now names the next element; don't advance.
            } else {
                i += 1;
            }
        }
        if !progressed {
            return (kept, attempts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_items_reaches_a_one_minimal_subset() {
        // Fails whenever both 3 and 7 are present.
        let items: Vec<u32> = (0..10).collect();
        let (kept, attempts) =
            shrink_items(&items, |c| c.contains(&3) && c.contains(&7));
        assert_eq!(kept, vec![3, 7]);
        assert!(attempts > 0);
    }

    #[test]
    fn clean_schedules_do_not_shrink() {
        // A list that never fails loses no element, after one pass.
        let picks: Vec<(u64, usize)> = vec![(3, 1), (9, 0), (14, 1)];
        let (kept, attempts) = shrink_items(&picks, |_| false);
        assert_eq!(kept, picks);
        assert_eq!(attempts, picks.len());
    }

    #[test]
    fn planted_bug_counterexample_shrinks_below_pinned_length() {
        // Rediscover the planted-defect counterexample from scratch among
        // the full interleavings and shrink it, keeping the failure class,
        // to at most its originally recorded length (7 ops). Dropping an
        // op mid-transaction breaks program order and fails with a
        // different class, so every kept candidate is still a valid trace.
        use crate::kernel::op_kernels;
        use crate::opexplore::{execute_order_checked, full_orders};
        use hmtx_types::SeedBug;

        let k = op_kernels()
            .into_iter()
            .find(|k| k.name == "migrated_line")
            .unwrap();
        let bug = Some(SeedBug::StaleMigrationReplica);
        let kind_of = |order: &[usize]| {
            execute_order_checked(&k, order, bug)
                .failure
                .map(|f| f.kind)
        };
        let failing = full_orders(&k)
            .into_iter()
            .find(|o| kind_of(o).is_some())
            .expect("exploration rediscovers the planted defect");
        let kind = kind_of(&failing);
        let (shrunk, _attempts) = shrink_items(&failing, |c| kind_of(c) == kind);
        assert!(
            shrunk.len() <= 7 && shrunk.len() < failing.len(),
            "shrunk {failing:?} to {shrunk:?}"
        );
        assert_eq!(kind_of(&shrunk), kind);
        // Still clean on the real protocol: the defect is the knob, not
        // the schedule.
        assert!(execute_order_checked(&k, &shrunk, None).failure.is_none());
    }
}
