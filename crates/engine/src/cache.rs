//! The engine's LRU plan cache, with a request index in front of it.

#![expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; the one scan, LRU eviction, takes a min over unique ticks, so map order never reaches a reply"
)]

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::Serialize;

use crate::fingerprint::Fingerprint;
use crate::request::{PlanRequest, PlanResponse};

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

/// A 64-bit digest of a decoded [`PlanRequest`]: every field but `trace`.
///
/// It is keyed per cache by a [`RandomState`], so it means nothing outside
/// this process: it is never serialized, and never part of a reply, a
/// record entry, a fingerprint or a `state_hash`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct RequestDigest(u64);

struct Entry {
    value: Arc<PlanResponse>,
    last_used: u64,
    /// The digest of the last request spelling that reached this entry.
    spelling: Option<u64>,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Request digest → fingerprint.  `index[d] == k` only while
    /// `map[k].spelling == Some(d)`, so the index holds at most one digest
    /// per entry and never names an entry that is gone.
    index: HashMap<u64, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Counts a hit on `key` and bumps it to most recently used, or
    /// counts nothing when `key` is absent.
    fn hit(&mut self, key: u64) -> Option<Arc<PlanResponse>> {
        let entry = self.map.get_mut(&key)?;
        self.tick += 1;
        entry.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&entry.value))
    }

    /// Makes `spelling` the one digest that leads to `key`'s entry.
    fn link(&mut self, key: u64, spelling: u64) {
        let Some(entry) = self.map.get_mut(&key) else {
            return;
        };
        if let Some(old) = entry.spelling.replace(spelling) {
            self.index.remove(&old);
        }
        self.index.insert(spelling, key);
    }

    /// Drops `key`'s entry and the digest that leads to it.
    fn remove(&mut self, key: u64) {
        if let Some(Entry {
            spelling: Some(spelling),
            ..
        }) = self.map.remove(&key)
        {
            self.index.remove(&spelling);
        }
    }
}

/// A thread-safe least-recently-used cache of [`PlanResponse`]s keyed by
/// workload [`Fingerprint`].
///
/// Eviction scans for the stale entry on insert; with the engine's default
/// capacity (1024) that linear scan is far cheaper than the planning work
/// it saves.  A capacity of 0 disables storage entirely.
///
/// In front of the fingerprint map sits a **request index**: each entry
/// remembers the [`RequestDigest`] of the last request spelling that
/// reached it (`"vgg_a"` and `"VGG-A"`, or `refine: true` and
/// `strategy: "refined"`, share one fingerprint but not one digest), so
/// the engine can serve a repeated request without resolving it to a
/// fingerprint first.  Evicting or replacing an entry drops its digest,
/// so the index never outgrows the map and a capacity-0 cache indexes
/// nothing.  A lookup by digest that finds its entry counts exactly like
/// [`PlanCache::get`]: one hit and one LRU bump; one that does not counts
/// nothing, and the fingerprint lookup that follows counts the hit or
/// miss.  Every request therefore still counts exactly one of the two.
///
/// The cache **recovers from mutex poisoning**: if a planner thread
/// panics while holding the lock, later lookups take the inner state as
/// is instead of propagating the poison.  Every mutation the cache
/// performs under the lock is a counter bump or a `HashMap` insert or
/// remove, and a digest that names a missing entry is a plain miss, so
/// the recovered state is at worst missing one entry — a poisoned service
/// keeps answering instead of 500ing every subsequent request.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    poison_recoveries: AtomicU64,
    digest_keys: RandomState,
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
                index: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity,
            poison_recoveries: AtomicU64::new(0),
            digest_keys: RandomState::new(),
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

    /// The digest under which this cache indexes `request`.
    pub(crate) fn digest(&self, request: &PlanRequest) -> RequestDigest {
        // Exhaustive on purpose: a new request field fails to compile here
        // until someone decides whether it can change the plan.
        let PlanRequest {
            network,
            batch,
            levels,
            strategy,
            assignments,
            topology,
            simulate,
            refine,
            trace: _,
        } = request;
        RequestDigest(self.digest_keys.hash_one((
            network,
            batch,
            levels,
            strategy,
            assignments,
            topology,
            simulate,
            refine,
        )))
    }

    /// Looks a request up by digest.  Counts a hit when the digest leads
    /// to an entry and nothing otherwise.
    pub(crate) fn get_digest(&self, spelling: RequestDigest) -> Option<Arc<PlanResponse>> {
        let mut inner = self.lock();
        let key = *inner.index.get(&spelling.0)?;
        inner.hit(key)
    }

    /// Looks a fingerprint up, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: Fingerprint) -> Option<Arc<PlanResponse>> {
        self.get_for(key, None)
    }

    /// [`PlanCache::get`], and on a hit makes `spelling` the digest that
    /// leads to the entry.
    pub(crate) fn get_for(
        &self,
        key: Fingerprint,
        spelling: Option<RequestDigest>,
    ) -> Option<Arc<PlanResponse>> {
        let mut inner = self.lock();
        let found = inner.hit(key.0);
        if found.is_none() {
            inner.tick += 1;
            inner.misses += 1;
        } else if let Some(spelling) = spelling {
            inner.link(key.0, spelling.0);
        }
        found
    }

    /// Stores a response, evicting the least-recently-used entry when the
    /// cache is full.
    pub fn insert(&self, key: Fingerprint, value: Arc<PlanResponse>) {
        self.insert_for(key, None, value);
    }

    /// [`PlanCache::insert`], with `spelling` as the digest that leads to
    /// the new entry.
    pub(crate) fn insert_for(
        &self,
        key: Fingerprint,
        spelling: Option<RequestDigest>,
        value: Arc<PlanResponse>,
    ) {
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
                inner.remove(oldest);
                inner.evictions += 1;
            }
        }
        inner.remove(key.0);
        inner.map.insert(
            key.0,
            Entry {
                value,
                last_used: tick,
                spelling: None,
            },
        );
        if let Some(spelling) = spelling {
            inner.link(key.0, spelling.0);
        }
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
    use hypar_sim::Topology;

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
        let digest = cache.digest(&PlanRequest::zoo("sfc"));
        cache.insert_for(Fingerprint(1), Some(digest), response(1));
        assert!(cache.get_digest(digest).is_none());
        assert!(cache.lock().index.is_empty(), "capacity 0 indexes nothing");
    }

    fn network(response: Option<Arc<PlanResponse>>) -> Option<String> {
        response.map(|r| r.network.clone())
    }

    #[test]
    fn the_digest_covers_every_field_but_trace() {
        let cache = PlanCache::new(1);
        let base = PlanRequest::zoo("vgg_a");
        let digest = cache.digest(&base);
        assert_eq!(cache.digest(&base.clone().trace(true)), digest);
        for other in [
            PlanRequest::zoo("VGG-A"),
            base.clone().batch(128),
            base.clone().levels(3),
            base.clone().strategy(Strategy::Dp),
            PlanRequest {
                assignments: Some(vec!["0".to_owned()]),
                ..base.clone()
            },
            base.clone().topology(Topology::Torus),
            base.clone().simulate(true),
            base.clone().refine(true),
        ] {
            assert_ne!(cache.digest(&other), digest, "{other:?}");
        }
    }

    #[test]
    fn a_digest_hit_counts_like_get_and_a_digest_miss_counts_nothing() {
        let cache = PlanCache::new(2);
        let vgg = cache.digest(&PlanRequest::zoo("vgg_a"));
        assert!(cache.get_digest(vgg).is_none());
        assert_eq!(cache.stats(), PlanCache::new(2).stats());
        assert!(cache.get_for(Fingerprint(1), Some(vgg)).is_none());
        cache.insert_for(Fingerprint(1), Some(vgg), response(1));
        cache.insert(Fingerprint(2), response(2));
        // The digest hit bumps entry 1, so entry 2 is the one evicted.
        assert_eq!(network(cache.get_digest(vgg)), Some("n1".to_owned()));
        cache.insert(Fingerprint(3), response(3));
        assert!(cache.get(Fingerprint(2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1));
    }

    #[test]
    fn an_entry_keeps_the_last_spelling_that_reached_it() {
        let cache = PlanCache::new(4);
        let [lower, upper] = ["vgg_a", "VGG-A"].map(|name| cache.digest(&PlanRequest::zoo(name)));
        cache.insert_for(Fingerprint(1), Some(lower), response(1));
        assert!(cache.get_digest(upper).is_none());
        assert!(cache.get_for(Fingerprint(1), Some(upper)).is_some());
        assert!(cache.get_digest(lower).is_none(), "one digest per entry");
        assert!(cache.get_digest(upper).is_some());
        // Replacing the entry drops its digest with it.
        cache.insert(Fingerprint(1), response(1));
        assert!(cache.get_digest(upper).is_none());
        assert!(cache.lock().index.is_empty());
    }

    #[test]
    fn eviction_drops_the_digest_of_the_evicted_entry_only() {
        let cache = PlanCache::new(1);
        let [sfc, sconv] = ["sfc", "sconv"].map(|name| cache.digest(&PlanRequest::zoo(name)));
        cache.insert_for(Fingerprint(1), Some(sfc), response(1));
        cache.insert_for(Fingerprint(2), Some(sconv), response(2));
        assert!(cache.get_digest(sfc).is_none());
        assert_eq!(network(cache.get_digest(sconv)), Some("n2".to_owned()));
        assert_eq!(cache.lock().index.len(), 1);
    }
}
