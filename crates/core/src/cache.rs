//! A sharded, lock-striped LRU cache.
//!
//! [`ShardedLru`] is a capacity-bounded map with least-recently-used
//! eviction per shard. This is what the planning service's canonical
//! plan cache builds on: hot stencils stay resident, cold ones age out,
//! and the capacity bound holds under any workload.
//!
//! Striping keeps contention low — a key hashes to one of `shards`
//! independently locked maps, so two threads only collide when they touch
//! the same stripe at the same instant. Locks are never held across user
//! code, so the cache cannot deadlock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

fn stripe_of<Q: Hash + ?Sized>(key: &Q, mask: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & mask
}

/// One LRU shard: a map plus a monotone access clock. Eviction scans for
/// the minimum stamp — O(shard size), which stays small because capacity
/// is divided across shards, and beats an intrusive list for auditability.
#[derive(Debug)]
struct LruShard<K, V> {
    map: HashMap<K, (V, u64)>,
    clock: u64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruShard<K, V> {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let stamp = self.touch();
        self.map.get_mut(key).map(|slot| {
            slot.1 = stamp;
            slot.0.clone()
        })
    }

    fn insert(&mut self, key: K, val: V) -> bool {
        let stamp = self.touch();
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = (val, stamp);
            return false;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (val, stamp));
        true
    }
}

/// A capacity-bounded sharded map with per-shard LRU eviction (see the
/// module docs).
///
/// The total capacity is divided evenly across stripes, so the bound is
/// approximate per access pattern but hard in aggregate: the cache never
/// holds more than `capacity` entries (rounded up to a multiple of the
/// stripe count).
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    mask: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// An LRU cache holding at most ~`capacity` entries across `shards`
    /// stripes (stripe count rounded up to a power of two, per-stripe
    /// capacity at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        ShardedLru {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(LruShard {
                        map: HashMap::new(),
                        clock: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        &self.shards[stripe_of(key, self.mask)]
    }

    /// Cached value for `key`, refreshing its recency. A poisoned stripe
    /// degrades to a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.shard(key).lock() {
            Ok(mut guard) => guard.get(key),
            Err(_) => None,
        }
    }

    /// Insert (or refresh) a value, evicting the stripe's least-recently
    /// used entry if it is full. Returns whether the key is new.
    pub fn insert(&self, key: K, val: V) -> bool {
        match self.shard(&key).lock() {
            Ok(mut guard) => guard.insert(key, val),
            Err(_) => false,
        }
    }

    /// Remove an entry, returning its value. A poisoned stripe degrades
    /// to "not present".
    pub fn remove(&self, key: &K) -> Option<V> {
        match self.shard(key).lock() {
            Ok(mut guard) => guard.map.remove(key).map(|(v, _)| v),
            Err(_) => None,
        }
    }

    /// Total entries across stripes (snapshot under concurrency).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|g| g.map.len()).unwrap_or(0))
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every entry, stripe by stripe, without refreshing
    /// recency. Ordering is unspecified (callers that need determinism
    /// sort by key); under concurrent mutation each stripe is read at a
    /// slightly different instant, which is all persistence needs.
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Ok(guard) = shard.lock() {
                out.extend(guard.map.iter().map(|(k, (v, _))| (k.clone(), v.clone())));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single stripe so the eviction order is fully observable.
        let c: ShardedLru<u64, u64> = ShardedLru::new(2, 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&1), Some(1)); // refresh 1; 2 is now the LRU
        c.insert(3, 3);
        assert_eq!(c.get(&2), None, "2 was the least recently used");
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(c.get(&3), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_capacity_is_a_hard_bound() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(64, 8);
        for i in 0..10_000 {
            c.insert(i, i);
        }
        assert!(c.len() <= 64, "len {} exceeds capacity", c.len());
    }

    #[test]
    fn lru_entries_snapshot_and_remove() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(16, 4);
        for i in 0..5 {
            c.insert(i, i * 10);
        }
        let mut snap = c.entries();
        snap.sort_unstable();
        assert_eq!(snap, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
        assert_eq!(c.remove(&2), Some(20));
        assert_eq!(c.remove(&2), None);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn lru_refresh_keeps_single_entry() {
        let c: ShardedLru<u64, u64> = ShardedLru::new(4, 1);
        assert!(c.insert(7, 1));
        assert!(!c.insert(7, 2), "refresh is not a new key");
        assert_eq!(c.get(&7), Some(2));
        assert_eq!(c.len(), 1);
    }
}
