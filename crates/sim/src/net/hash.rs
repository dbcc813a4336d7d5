//! Deterministic rendezvous hashing for shard-warm routing.
//!
//! The router hashes a request's route key (see
//! [`WireRequest::route_key`](crate::net::WireRequest::route_key)) to a
//! 64-bit point and ranks every shard by a score mixed from that point and
//! the shard id ([`preference_order`], Thaler & Ravishankar's highest
//! random weight). Two properties make this the right rule here:
//!
//! - **Warm caches:** the same key always ranks the shards the same way,
//!   so a shard's bounded LRU cell cache sees a stable subset of shapes
//!   and its hit rate survives traffic skew. Every shard owns an equal
//!   share of the key space in expectation, with no tuning parameter.
//! - **Minimal churn on failure:** when a shard dies, only the keys it
//!   ranked first move, each to its second entry; every other key keeps
//!   its warm shard. The order is exactly the failover order.
//!
//! Everything is deterministic — no randomness, no per-process seeds, no
//! placement structure — so a router restart (or a second router) routes
//! identically.

/// FNV-1a 64-bit hash of `bytes` — small, dependency-free and stable
/// across platforms and processes, which is all routing needs (this is a
/// placement hash, not a cryptographic one).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_from(FNV_OFFSET_BASIS, bytes)
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes` continued from `hash`, so hashing a text in parts
/// from [`FNV_OFFSET_BASIS`] gives the hash of their concatenation.
pub(crate) fn fnv1a_64_from(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A 64-bit avalanche finalizer (the murmur3 `fmix64` constants). FNV-1a
/// of short, similar strings differs mostly in its low bits, and shard
/// scores are compared as full integers (high bits first), so without this
/// mix similar keys would rank the shards alike.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The routing point of an arbitrary byte string: `mix64(fnv1a_64(bytes))`.
///
/// This is also the 64-bit hash an interned [`CellKey`](crate::CellKey)
/// precomputes, so a key rendered once can probe every cache *and* rank
/// the shards without being re-hashed.
#[must_use]
pub fn ring_point(bytes: &[u8]) -> u64 {
    mix64(fnv1a_64(bytes))
}

/// Every shard id in `0..shards`, ranked for the key at `point`: shard `s`
/// scores `mix64(point ^ mix64(s + 1))`, and shards come in descending
/// score order, ties broken by ascending id. The first entry is the home
/// shard; each later entry is the next failover target.
#[must_use]
pub fn preference_order(point: u64, shards: usize) -> Vec<u32> {
    let mut ranked: Vec<(std::cmp::Reverse<u64>, u32)> = (0..shards)
        .map(|shard| {
            let shard = u32::try_from(shard).expect("shard count fits in u32");
            let score = mix64(point ^ mix64(u64::from(shard) + 1));
            (std::cmp::Reverse(score), shard)
        })
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, shard)| shard).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_point(i: usize) -> u64 {
        ring_point(format!("key-{i}").as_bytes())
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        // The finalizer is a bijection that must not fix small inputs.
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(mix64(7)), mix64(7));
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for i in 0..200 {
            let point = key_point(i);
            let order = preference_order(point, 4);
            assert!(order[0] < 4);
            assert_eq!(preference_order(point, 4), order, "a rerun must agree");
        }
        assert!(preference_order(key_point(0), 0).is_empty());
    }

    #[test]
    fn rendezvous_splits_keys_evenly_across_shards() {
        const KEYS: usize = 100_000;
        for shards in [2usize, 3, 4, 8] {
            let mut counts = vec![0usize; shards];
            for i in 0..KEYS {
                counts[preference_order(key_point(i), shards)[0] as usize] += 1;
            }
            for (shard, &count) in counts.iter().enumerate() {
                let share = count as f64 / KEYS as f64;
                assert!(
                    (share - 1.0 / shards as f64).abs() <= 0.01,
                    "shard {shard} of {shards} owns {share:.4} of the keys: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn preference_order_lists_every_shard_once() {
        for i in 0..50 {
            let order = preference_order(key_point(i), 5);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "every shard once: {order:?}");
        }
    }

    #[test]
    fn killing_a_shard_moves_only_its_keys() {
        let dead = 2u32;
        for i in 0..500 {
            let order = preference_order(key_point(i), 4);
            let rerouted = order.iter().copied().find(|&s| s != dead).unwrap();
            if order[0] == dead {
                assert_eq!(
                    rerouted, order[1],
                    "a dead home's keys go to their second entry"
                );
            } else {
                assert_eq!(rerouted, order[0], "surviving shards keep their keys");
            }
        }
    }
}
