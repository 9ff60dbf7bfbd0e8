// Structural-rule semantics: lock guards held across planning calls,
// each with the compliant idiom beside it.  This file is a test fixture
// — never compiled, never scanned by the workspace walk (`tests/` and
// `fixtures/` are skip-dirs), so the deliberate defects below stay out
// of the real report.

fn guard_across_planning(cache: &PlanCache) {
    let guard = cache.inner.lock(); // MARK:lock-held
    let plan = plan_many(&guard.requests);
    let _ = plan;
}

fn guard_dropped_first(cache: &PlanCache) {
    let guard = cache.inner.lock();
    let requests = guard.requests.clone();
    drop(guard);
    let plan = plan_many(&requests); // guard released: compliant
    let _ = plan;
}

fn guard_scope_closed(cache: &PlanCache) {
    {
        let guard = cache.inner.lock();
        let _hit = guard.requests.len();
    }
    let plan = plan_many(&[]); // guard's block already closed
    let _ = plan;
}

// Parser edge cases: these shapes must parse without confusing the
// statement spine (and without panicking — the truncation test slices
// this file at every char boundary).

fn parser_edges(items: &[u64]) -> u64 {
    let nested = items
        .iter()
        .map(|i| {
            let doubled = i * 2;
            doubled
        })
        .sum::<u64>(); // turbofish, not a comparison
    let arms = match nested {
        0 => save_plan(0).is_ok(),
        n if n < 10 => true,       // `<` here is ordering, not generics
        _ => false,
    };
    let closure_in_args = items.iter().filter(|i| **i > 1).count();
    if arms {
        nested + closure_in_args as u64
    } else {
        nested
    }
}

#[cfg(test)]
mod tests {
    // Test code holds locks across planning freely: masked.
    fn masked() {
        let guard = cache.inner.lock();
        let _p = plan_many(&guard.requests);
    }
}
