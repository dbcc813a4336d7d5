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
//!
//! A runner's cell key is held in parts: about 95% of its text is the
//! design and kernel of its *machine*, which [`CellKey::cell`] shares
//! between every cell of that machine, so a cached cell keeps only its
//! shape, whose text it renders when asked: keying a cell, and cloning its
//! key into a cache, allocate nothing. The parts hash and compare as their
//! concatenation, so a key held in parts equals the same text held whole.
//! The machine also keeps the FNV-1a state its design part leaves, worked
//! out once when the machine is built: the design is about 70% of a key's
//! text and comes first, so a cell's key hashes only its shape and the
//! kernel from that state on, and still gets the whole text's hash.

use crate::net::hash::{fnv1a_64_from, mix64, ring_point, FNV_OFFSET_BASIS};
use rasa_numeric::GemmShape;
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The parts of a cell key's text that every cell of one machine shares:
/// `"{design:?}|"` before the cell's shape and `"|{kernel:?}"` after it.
#[derive(Debug)]
pub(crate) struct MachineKey {
    /// The design's part, up to and including the first separator.
    design: String,
    /// The kernel's part, from the second separator on.
    kernel: String,
    /// The FNV-1a state after the design's part: where every cell key of
    /// the machine goes on hashing from.
    design_state: u64,
}

impl MachineKey {
    /// The shared parts of the keys of `design`'s cells under `kernel`,
    /// hashing the design's part once.
    pub(crate) fn new(design: String, kernel: String) -> MachineKey {
        let design_state = fnv1a_64_from(FNV_OFFSET_BASIS, design.as_bytes());
        MachineKey {
            design,
            kernel,
            design_state,
        }
    }
}

/// A shape's part of a cell key: byte for byte its `Debug` text,
/// `GemmShape { m: .., k: .., n: .. }`, written on the stack without the
/// formatting machinery, since every cell key hashes one.
pub(crate) struct ShapeText {
    bytes: [u8; SHAPE_TEXT_BYTES],
    len: u8,
}

/// The longest shape text: three 20-digit sizes take 87 bytes.
const SHAPE_TEXT_BYTES: usize = 87;

impl ShapeText {
    /// `shape`'s text.
    pub(crate) fn new(shape: GemmShape) -> ShapeText {
        let mut text = ShapeText {
            bytes: [0; SHAPE_TEXT_BYTES],
            len: 0,
        };
        for (label, size) in [
            ("GemmShape { m: ", shape.m),
            (", k: ", shape.k),
            (", n: ", shape.n),
        ] {
            text.push(label.as_bytes());
            let mut digits = [0; 20];
            let mut start = digits.len();
            let mut rest = size;
            loop {
                start -= 1;
                digits[start] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            text.push(&digits[start..]);
        }
        text.push(b" }");
        text
    }

    fn push(&mut self, bytes: &[u8]) {
        let at = usize::from(self.len);
        self.bytes[at..at + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len() as u8;
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("the text is ASCII")
    }
}

/// A key's text: rendered whole, or a cell's shape between its machine's
/// shared parts.
#[derive(Debug, Clone)]
enum KeyText {
    Whole(Arc<str>),
    Cell {
        machine: Arc<MachineKey>,
        shape: GemmShape,
    },
}

/// An interned cell or route key: the rendered key text plus its
/// precomputed 64-bit hash (which doubles as the routing point). Cheap to
/// clone (`Arc` bump), cheap to compare (hash short-circuit), cheap to
/// re-probe (no re-hashing).
#[derive(Debug, Clone)]
pub struct CellKey {
    text: KeyText,
    hash: u64,
}

impl CellKey {
    /// Interns a rendered semantic key, hashing it exactly once.
    #[must_use]
    pub fn new(text: impl Into<Arc<str>>) -> CellKey {
        let text: Arc<str> = text.into();
        let hash = ring_point(text.as_bytes());
        CellKey {
            text: KeyText::Whole(text),
            hash,
        }
    }

    /// The key of a cell of `shape` on `machine`: the same text, hash and
    /// equality as the whole key `"{design:?}|{shape:?}|{kernel:?}"`,
    /// sharing the machine's parts and hashing on from the state its
    /// design part leaves.
    pub(crate) fn cell(machine: &Arc<MachineKey>, shape: GemmShape) -> CellKey {
        let hash = fnv1a_64_from(
            fnv1a_64_from(
                machine.design_state,
                ShapeText::new(shape).as_str().as_bytes(),
            ),
            machine.kernel.as_bytes(),
        );
        CellKey {
            text: KeyText::Cell {
                machine: Arc::clone(machine),
                shape,
            },
            hash: mix64(hash),
        }
    }

    /// Calls `f` with the key text in its parts, in order (a whole key is
    /// one part).
    fn with_parts<R>(&self, f: impl FnOnce([&str; 3]) -> R) -> R {
        match &self.text {
            KeyText::Whole(text) => f([text, "", ""]),
            KeyText::Cell { machine, shape } => f([
                &machine.design,
                ShapeText::new(*shape).as_str(),
                &machine.kernel,
            ]),
        }
    }

    /// The rendered key text — exactly the legacy string key, byte for
    /// byte; this is what JSON documents and wire frames serialize.
    #[must_use]
    pub fn text(&self) -> Cow<'_, str> {
        match &self.text {
            KeyText::Whole(text) => Cow::Borrowed(text),
            KeyText::Cell { .. } => Cow::Owned(self.with_parts(|parts| parts.concat())),
        }
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
        if self.hash != other.hash {
            return false;
        }
        match (&self.text, &other.text) {
            (KeyText::Whole(a), KeyText::Whole(b)) => Arc::ptr_eq(a, b) || a == b,
            (
                KeyText::Cell { machine, shape },
                KeyText::Cell {
                    machine: other_machine,
                    shape: other_shape,
                },
            ) if Arc::ptr_eq(machine, other_machine) => shape == other_shape,
            _ => self.with_parts(|a| {
                other.with_parts(|b| {
                    a.iter()
                        .flat_map(|part| part.bytes())
                        .eq(b.iter().flat_map(|part| part.bytes()))
                })
            }),
        }
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
        self.with_parts(|parts| parts.iter().try_for_each(|part| f.write_str(part)))
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
        assert_eq!(key.text(), "BASELINE|Gemm { m: 512 }|Kernel");
        assert_eq!(key.hash64(), ring_point(key.text().as_bytes()));
        assert_eq!(key.to_string(), key.text());
        let again = CellKey::from(key.text().to_string());
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
            text: KeyText::Whole(Arc::from("cell-x")),
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
    fn a_key_in_parts_is_its_whole_text() {
        // Same text, same hash, equal both ways; the machine's parts are
        // shared, and texts that differ anywhere, or that another machine
        // or a whole key holds, compare as their bytes.
        let machine = Arc::new(MachineKey::new(
            "BASELINE {…}|".to_string(),
            "|Kernel { cap: 96 }".to_string(),
        ));
        let shape = GemmShape::new(512, 64, 32);
        let whole = format!("BASELINE {{…}}|{shape:?}|Kernel {{ cap: 96 }}");
        let cell = CellKey::cell(&machine, shape);
        assert_eq!(cell.text(), whole);
        assert_eq!(cell.to_string(), whole);
        assert_eq!(cell.hash64(), CellKey::new(whole.as_str()).hash64());
        assert_eq!(cell, CellKey::new(whole.as_str()));
        assert_eq!(CellKey::new(whole.as_str()), cell);
        assert_eq!(cell, CellKey::cell(&machine, shape));
        let other = CellKey::cell(&machine, GemmShape::new(511, 64, 32));
        assert_ne!(cell, other);
        let twin = Arc::new(MachineKey::new(
            machine.design.clone(),
            machine.kernel.clone(),
        ));
        assert_eq!(cell, CellKey::cell(&twin, shape));
        let forged = CellKey {
            text: KeyText::Whole(Arc::from(whole.replace("512", "513"))),
            hash: cell.hash64(),
        };
        assert_ne!(cell, forged, "a collision in parts must not alias");
        for machine in [&machine, &twin] {
            let forged = CellKey {
                hash: cell.hash64(),
                ..CellKey::cell(machine, GemmShape::new(511, 64, 32))
            };
            assert_ne!(cell, forged, "nor one between cells");
        }
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
                .map(CellKey::to_string)
                .collect::<Vec<_>>(),
            vec!["c", "a"]
        );
    }
}
