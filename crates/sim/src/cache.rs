//! A hand-rolled bounded LRU cache for memoized simulation cells.
//!
//! The [`ExperimentRunner`](crate::ExperimentRunner) originally memoized
//! cells in an unbounded `HashMap`, which is fine for the fixed paper
//! matrices but not for a serving workload where millions of distinct GEMM
//! shapes churn through the process. [`LruCache`] bounds the resident set:
//! every hit promotes the entry to most-recently-used, and inserting into a
//! full cache evicts the least-recently-used entry (returned to the caller
//! so eviction statistics can be kept).
//!
//! The implementation is an index-based doubly-linked list over a slab of
//! nodes plus a `HashMap` from key to slab index, giving O(1) lookup,
//! promotion, insertion and eviction without any unsafe code. The vendored
//! dependency set has no `lru` crate, so the structure is implemented here
//! (~a hundred lines) and unit-tested exhaustively below.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Sentinel index meaning "no node".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
///
/// Keys are cloned once on insertion (they live both in the slab and in the
/// index map's ownership via clone); values are moved in and returned on
/// eviction.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    /// Slab of nodes. It grows to `capacity` and no further: eviction
    /// recycles the least-recently-used slot in place.
    nodes: Vec<Node<K, V>>,
    /// Key -> slab index.
    index: HashMap<K, usize>,
    /// Most-recently-used node, or `NIL` when empty.
    head: usize,
    /// Least-recently-used node, or `NIL` when empty.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; callers (the runner builder) validate
    /// capacities before construction.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache capacity must be at least 1");
        LruCache {
            capacity,
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The maximum number of resident entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Unlinks node `i` from the recency list (does not free it).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links node `i` at the head (most-recently-used position).
    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks `key` up and promotes it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.nodes[i].value)
    }

    /// Looks `key` up without disturbing the recency order.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Whether `key` is resident (no recency update).
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts `key -> value` as most-recently-used.
    ///
    /// Returns the evicted least-recently-used `(key, value)` pair when the
    /// insertion pushed the cache past capacity, or the replaced value when
    /// `key` was already resident (counted as a replacement, not an
    /// eviction, by callers that track stats).
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome<K, V> {
        if let Some(&i) = self.index.get(&key) {
            let old = std::mem::replace(&mut self.nodes[i].value, value);
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return InsertOutcome::Replaced(old);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        if self.index.len() == self.capacity {
            // Full: recycle the least-recently-used slot in place — the new
            // node is swapped in, the old payload is swapped out and
            // returned to the caller.
            let lru = self.tail;
            self.unlink(lru);
            let old = std::mem::replace(&mut self.nodes[lru], node);
            self.index.remove(&old.key);
            self.index.insert(key, lru);
            self.link_front(lru);
            return InsertOutcome::Evicted(old.key, old.value);
        }
        self.nodes.push(node);
        let i = self.nodes.len() - 1;
        self.index.insert(key, i);
        self.link_front(i);
        InsertOutcome::Inserted
    }

    /// Drops every entry (capacity is unchanged).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently-used (test/diagnostic helper).
    #[must_use]
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.len());
        let mut i = self.head;
        while i != NIL {
            keys.push(self.nodes[i].key.clone());
            i = self.nodes[i].next;
        }
        keys
    }
}

/// The effect of an [`LruCache::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome<K, V> {
    /// The key was new and the cache had room.
    Inserted,
    /// The key was already resident; its previous value is returned.
    Replaced(V),
    /// The key was new and the least-recently-used entry was evicted.
    Evicted(K, V),
}

impl<K, V> InsertOutcome<K, V> {
    /// Whether this insertion evicted another entry.
    #[must_use]
    pub fn is_eviction(&self) -> bool {
        matches!(self, InsertOutcome::Evicted(..))
    }
}

/// An [`LruCache`] shared between threads that a panic cannot break for
/// good. A thread that panics while holding it may leave its links half
/// updated, so the next thread to lock it finds it cleared — a cache only
/// memoizes, so clearing it is always safe — instead of a poisoned lock.
#[derive(Debug)]
pub(crate) struct SharedLru<K, V> {
    cache: Mutex<LruCache<K, V>>,
    /// Set when a holder panicked; the next lock clears the cache. Written
    /// and read only while `cache` is locked, which orders it.
    torn: AtomicBool,
}

/// A locked [`SharedLru`]: the cache, until the guard drops.
pub(crate) struct LruGuard<'a, K, V> {
    cache: MutexGuard<'a, LruCache<K, V>>,
    torn: &'a AtomicBool,
}

impl<K: Eq + Hash + Clone, V> SharedLru<K, V> {
    /// An empty shared cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// As [`LruCache::new`], when `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        SharedLru {
            cache: Mutex::new(LruCache::new(capacity)),
            torn: AtomicBool::new(false),
        }
    }

    /// Locks the cache, cleared first if its last holder panicked.
    pub(crate) fn lock(&self) -> LruGuard<'_, K, V> {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if self.torn.swap(false, Ordering::Relaxed) {
            cache.clear();
        }
        LruGuard {
            cache,
            torn: &self.torn,
        }
    }
}

impl<K, V> Deref for LruGuard<'_, K, V> {
    type Target = LruCache<K, V>;

    fn deref(&self) -> &LruCache<K, V> {
        &self.cache
    }
}

impl<K, V> DerefMut for LruGuard<'_, K, V> {
    fn deref_mut(&mut self) -> &mut LruCache<K, V> {
        &mut self.cache
    }
}

impl<K, V> Drop for LruGuard<'_, K, V> {
    fn drop(&mut self) {
        // Runs before the lock is released, so the next holder sees it.
        if std::thread::panicking() {
            self.torn.store(true, Ordering::Relaxed);
        }
    }
}

/// Panics on another thread while holding what `lock` returns.
#[cfg(test)]
pub(crate) fn panic_holding<G>(lock: impl FnOnce() -> G + Send) {
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let _held = lock();
            panic!("a panic while a lock is held");
        });
        assert!(holder.join().is_err());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn insert_get_and_promotion() {
        let mut cache = LruCache::new(3);
        assert!(cache.is_empty());
        assert_eq!(cache.insert("a", 1), InsertOutcome::Inserted);
        assert_eq!(cache.insert("b", 2), InsertOutcome::Inserted);
        assert_eq!(cache.insert("c", 3), InsertOutcome::Inserted);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.keys_by_recency(), vec!["c", "b", "a"]);

        // A hit promotes to most-recently-used.
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.keys_by_recency(), vec!["a", "c", "b"]);

        // Peek does not disturb recency.
        assert_eq!(cache.peek(&"b"), Some(&2));
        assert_eq!(cache.keys_by_recency(), vec!["a", "c", "b"]);
        assert!(cache.contains(&"b"));
        assert!(!cache.contains(&"x"));
        assert_eq!(cache.get(&"x"), None);
    }

    #[test]
    fn capacity_bound_is_respected_and_lru_is_evicted() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        // 1 is LRU; inserting a third key evicts it.
        let outcome = cache.insert(3, "three");
        assert_eq!(outcome, InsertOutcome::Evicted(1, "one"));
        assert!(outcome.is_eviction());
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&1));

        // Touch 2 so 3 becomes LRU, then insert again.
        assert_eq!(cache.get(&2), Some(&"two"));
        assert_eq!(cache.insert(4, "four"), InsertOutcome::Evicted(3, "three"));
        assert_eq!(cache.keys_by_recency(), vec![4, 2]);
    }

    #[test]
    fn reinsert_replaces_and_promotes() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.insert("a", 10), InsertOutcome::Replaced(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.peek(&"a"), Some(&10));
        assert_eq!(cache.keys_by_recency(), vec!["a", "b"]);
        // Replacement is not an eviction.
        assert!(!InsertOutcome::<&str, i32>::Replaced(1).is_eviction());
    }

    #[test]
    fn evicted_slot_is_recycled() {
        let mut cache = LruCache::new(1);
        for i in 0..100 {
            cache.insert(i, i * 10);
            assert_eq!(cache.len(), 1);
        }
        // Eviction recycles the one slab slot in place: the slab never
        // exceeds the capacity.
        assert!(cache.nodes.len() <= 1);
        assert_eq!(cache.peek(&99), Some(&990));
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut cache = LruCache::new(4);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 4);
        assert_eq!(cache.insert("c", 3), InsertOutcome::Inserted);
        assert_eq!(cache.keys_by_recency(), vec!["c"]);
    }

    #[test]
    fn single_capacity_cache_works() {
        let mut cache = LruCache::new(1);
        assert_eq!(cache.insert("a", 1), InsertOutcome::Inserted);
        assert_eq!(cache.insert("b", 2), InsertOutcome::Evicted("a", 1));
        assert_eq!(cache.get(&"b"), Some(&2));
        assert_eq!(cache.get(&"a"), None);
    }
}
