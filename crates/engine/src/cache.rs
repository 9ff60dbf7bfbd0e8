//! The engine's LRU plan cache.

#![expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; the one scan, LRU eviction, takes a min over unique ticks, so map order never reaches a reply"
)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::Serialize;

use crate::fingerprint::Fingerprint;
use crate::request::PlanResponse;

/// Hit/miss counters and occupancy of a [`PlanCache`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Maximum number of entries.
    pub capacity: usize,
    /// Entries evicted to make room for newer ones.
    pub evictions: u64,
    /// Times a lock poisoned by a panicking planner thread was recovered
    /// instead of propagated (each post-poison lock acquisition counts).
    pub poison_recoveries: u64,
}

struct Entry {
    value: Arc<PlanResponse>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe least-recently-used cache of [`PlanResponse`]s keyed by
/// workload [`Fingerprint`].
///
/// Eviction scans for the stale entry on insert; with the engine's default
/// capacity (1024) that linear scan is far cheaper than the planning work
/// it saves.  A capacity of 0 disables storage entirely.
///
/// The cache **recovers from mutex poisoning**: if a planner thread
/// panics while holding the lock, later lookups take the inner state as
/// is instead of propagating the poison.  Every mutation the cache
/// performs under the lock keeps the map coherent at each step (plain
/// counter bumps, `HashMap` insert/remove), so the recovered state is at
/// worst missing one entry — a poisoned service keeps answering instead
/// of 500ing every subsequent request.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    poison_recoveries: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity,
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Acquires the inner lock, recovering (and counting) a poisoned
    /// mutex instead of propagating the poison.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Looks a fingerprint up, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: Fingerprint) -> Option<Arc<PlanResponse>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(&key.0).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.value)
        });
        match found {
            Some(value) => {
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a response, evicting the least-recently-used entry when the
    /// cache is full.
    pub fn insert(&self, key: Fingerprint, value: Arc<PlanResponse>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key.0) {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                inner.map.remove(&oldest);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key.0,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Current counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            capacity: self.capacity,
            evictions: inner.evictions,
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Strategy;
    use hypar_core::HierarchicalPlan;

    fn response(tag: u64) -> Arc<PlanResponse> {
        Arc::new(PlanResponse {
            network: format!("n{tag}"),
            batch: 1,
            levels: 0,
            accelerators: 1,
            strategy: Strategy::Hypar,
            fingerprint: String::new(),
            state_hash: String::new(),
            cache_hit: false,
            total_comm_elems: 0.0,
            total_comm_bytes: 0.0,
            plan: HierarchicalPlan::from_parts("n", vec![], vec![], 0.0),
            simulation: None,
            timing: None,
        })
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = PlanCache::new(4);
        assert!(cache.get(Fingerprint(1)).is_none());
        cache.insert(Fingerprint(1), response(1));
        assert!(cache.get(Fingerprint(1)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.insert(Fingerprint(1), response(1));
        cache.insert(Fingerprint(2), response(2));
        assert!(cache.get(Fingerprint(1)).is_some()); // 2 is now the LRU
        cache.insert(Fingerprint(3), response(3));
        assert!(cache.get(Fingerprint(2)).is_none());
        assert!(cache.get(Fingerprint(1)).is_some());
        assert!(cache.get(Fingerprint(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.poison_recoveries, 0);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_panicking() {
        // A planner thread that panics while holding the cache lock must
        // not condemn every later request: get/insert/stats recover the
        // inner state from the poisoned mutex.
        let cache = std::sync::Arc::new(PlanCache::new(4));
        cache.insert(Fingerprint(1), response(1));
        let poisoner = std::sync::Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the cache lock");
        })
        .join();
        assert!(cache.inner.is_poisoned(), "the lock must actually poison");

        assert!(cache.get(Fingerprint(1)).is_some());
        cache.insert(Fingerprint(2), response(2));
        assert!(cache.get(Fingerprint(2)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        // The recovery path is no longer silent: every post-poison lock
        // acquisition (get, insert, get, and the stats call itself) is
        // counted.
        assert_eq!(stats.poison_recoveries, 4);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = PlanCache::new(0);
        cache.insert(Fingerprint(1), response(1));
        assert!(cache.get(Fingerprint(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
