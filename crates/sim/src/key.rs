//! Interned semantic cell keys.
//!
//! The runner identifies a simulation cell by one semantic string —
//! `"{design:?}|{shape:?}|{kernel:?}"`, rendered by
//! [`SimJob::semantic_key`](crate::SimJob::semantic_key) — and the router
//! identifies a request by a shorter one, `"{design}|{shape:?}"`, rendered
//! from the request alone
//! ([`WireRequest::route_key`](crate::net::WireRequest::route_key)).
//!
//! [`CellKey`] renders a key **once** and carries a precomputed 64-bit
//! hash — [`net::hash::ring_point`](crate::net::hash::ring_point), FNV-1a
//! plus an avalanche finalizer. The one value then serves both masters
//! with zero re-hashing:
//!
//! - `HashMap`/[`LruCache`](crate::LruCache) probes: the [`Hash`] impl
//!   feeds the precomputed value straight to the hasher, equality
//!   short-circuits on the hash before comparing bytes, and clones are
//!   `Arc` bumps, not string copies.
//! - Router placement: [`hash64`](CellKey::hash64) *is* the point
//!   [`preference_order`](crate::net::hash::preference_order) ranks the
//!   shards for, so it needs no further work.
//!
//! Interning is **aliasing-free**: equality always compares the full key
//! text (the hash only short-circuits inequality), so two distinct cells
//! colliding on the 64-bit hash still key separate cache slots. And the
//! string form is still what every JSON document and wire frame carries —
//! golden files and the wire protocol are byte-identical to the
//! pre-interning encoding.

use crate::net::hash::ring_point;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An interned cell or route key: the rendered key text plus its
/// precomputed 64-bit hash (which doubles as the routing point). Cheap to
/// clone (`Arc` bump), cheap to compare (hash short-circuit), cheap to
/// re-probe (no re-hashing).
#[derive(Debug, Clone)]
pub struct CellKey {
    text: Arc<str>,
    hash: u64,
}

impl CellKey {
    /// Interns a rendered semantic key, hashing it exactly once.
    #[must_use]
    pub fn new(text: impl Into<Arc<str>>) -> CellKey {
        let text = text.into();
        let hash = ring_point(text.as_bytes());
        CellKey { text, hash }
    }

    /// The rendered key text — exactly the legacy string key, byte for
    /// byte; this is what JSON documents and wire frames serialize.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The precomputed 64-bit hash: `mix64(fnv1a_64(text))`, identical to
    /// the [`ring_point`] of the key text, so the router places requests
    /// without re-hashing.
    #[must_use]
    pub const fn hash64(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for CellKey {
    fn eq(&self, other: &Self) -> bool {
        // The hash check rejects almost all non-equal pairs in one
        // comparison; the byte comparison keeps colliding keys distinct
        // (no aliasing on hash collisions).
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for CellKey {}

impl Hash for CellKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<String> for CellKey {
    fn from(text: String) -> Self {
        CellKey::new(text)
    }
}

impl From<&str> for CellKey {
    fn from(text: &str) -> Self {
        CellKey::new(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn interning_preserves_the_text_and_precomputes_the_ring_point() {
        let key = CellKey::new("BASELINE|Gemm { m: 512 }|Kernel");
        assert_eq!(key.as_str(), "BASELINE|Gemm { m: 512 }|Kernel");
        assert_eq!(key.hash64(), ring_point(key.as_str().as_bytes()));
        assert_eq!(key.to_string(), key.as_str());
        let again = CellKey::from(key.as_str().to_string());
        assert_eq!(key, again);
        assert_eq!(key.hash64(), again.hash64());
    }

    #[test]
    fn equality_compares_bytes_not_just_hashes() {
        let a = CellKey::new("cell-a");
        let b = CellKey::new("cell-b");
        assert_ne!(a, b);
        // A forged collision must still compare unequal on the text.
        let forged = CellKey {
            text: Arc::from("cell-x"),
            hash: a.hash64(),
        };
        assert_ne!(a, forged, "hash collisions must not alias");
        // Clones share the interned text and compare by pointer.
        let clone = a.clone();
        assert_eq!(a, clone);
    }

    #[test]
    fn map_hashing_uses_the_precomputed_value() {
        let key = CellKey::new("some-cell");
        let mut direct = DefaultHasher::new();
        key.hash(&mut direct);
        let mut expected = DefaultHasher::new();
        expected.write_u64(key.hash64());
        assert_eq!(direct.finish(), expected.finish());
    }

    #[test]
    fn cell_keys_index_lru_caches() {
        let mut cache = crate::LruCache::new(2);
        cache.insert(CellKey::new("a"), 1);
        cache.insert(CellKey::new("b"), 2);
        assert_eq!(cache.get(&CellKey::new("a")), Some(&1));
        cache.insert(CellKey::new("c"), 3);
        assert!(!cache.contains(&CellKey::new("b")), "LRU evicted");
        assert_eq!(
            cache
                .keys_by_recency()
                .iter()
                .map(CellKey::as_str)
                .collect::<Vec<_>>(),
            vec!["c", "a"]
        );
    }
}
