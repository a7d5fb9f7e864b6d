//! The sweep layer's worker budget.
//!
//! Every simulation-backed experiment fans a grid of independent seeded
//! runs (portfolio × sweep point × replication) out through
//! [`obm_core::pool::run_indexed`]; this module only decides how many
//! threads a sweep gets. Results come back in index order, so every
//! rendered table is identical to the serial order whatever the worker
//! count. The closure receives only the item index; experiments index
//! into their own point lists, which keeps borrows trivially `Sync`.

/// Worker-thread budget: `OBM_WORKERS` if set to a positive integer,
/// otherwise the detected core count. The experiment surfaces print the
/// effective value so sweep logs record what actually ran.
pub fn effective_workers() -> usize {
    std::env::var("OBM_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(obm_core::pool::detected_cores)
}

/// Run `f(0..n)` on [`effective_workers`] threads and return the results
/// in index order (see [`obm_core::pool::run_indexed`]).
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    obm_core::pool::run_indexed(effective_workers(), n, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_is_ignored_when_invalid() {
        // `effective_workers` falls back to the detected core count for
        // unset/invalid values; either path returns at least 1.
        assert!(effective_workers() >= 1);
    }
}
