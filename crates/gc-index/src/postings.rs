//! Packed, key-addressed postings — the storage shape of Grapes' location
//! lists and GraphCache's own query index. (GGSX's and Grapes' count
//! postings add count planes for dense features; see `ggsx.rs`.)
//!
//! Every posting lives in one flat arena, grouped by [`FeatureKey`], and a
//! `key → (offset, len)` directory resolves a feature to its contiguous
//! range. A filter resolves each query feature with one hash probe and then
//! scans packed postings linearly.

use crate::fx::FxHashMap;
use crate::paths::FeatureKey;
use gc_graph::sizing;

/// Postings of type `P`, packed per feature key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedPostings<P> {
    arena: Vec<P>,
    directory: FxHashMap<FeatureKey, (u32, u32)>,
}

impl<P> Default for KeyedPostings<P> {
    fn default() -> Self {
        KeyedPostings {
            arena: Vec::new(),
            directory: FxHashMap::default(),
        }
    }
}

impl<P> KeyedPostings<P> {
    /// Packs `(key, posting)` pairs that arrive grouped by key (callers
    /// sort one vector of them); within a key, postings keep their order.
    pub fn from_grouped(pairs: impl IntoIterator<Item = (FeatureKey, P)>) -> Self {
        let pairs = pairs.into_iter();
        let mut arena = Vec::with_capacity(pairs.size_hint().0);
        let mut directory: FxHashMap<FeatureKey, (u32, u32)> = FxHashMap::default();
        let mut current: Option<(FeatureKey, u32)> = None;
        for (key, posting) in pairs {
            match current {
                Some((k, _)) if k == key => {}
                _ => {
                    if let Some((k, start)) = current {
                        directory.insert(k, (start, arena.len() as u32 - start));
                    }
                    current = Some((key, arena.len() as u32));
                }
            }
            arena.push(posting);
        }
        if let Some((k, start)) = current {
            directory.insert(k, (start, arena.len() as u32 - start));
        }
        debug_assert_eq!(
            directory
                .values()
                .map(|&(_, len)| len as usize)
                .sum::<usize>(),
            arena.len(),
            "pairs were not grouped by key"
        );
        KeyedPostings { arena, directory }
    }

    /// The postings of `key`, if any graph holds that feature.
    #[inline]
    pub fn get(&self, key: FeatureKey) -> Option<&[P]> {
        self.directory
            .get(&key)
            .map(|&(off, len)| &self.arena[off as usize..(off + len) as usize])
    }

    /// Total postings in the arena.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when no feature is stored.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The directory's `(offset, len)` ranges, in no particular order.
    pub fn ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.directory.values().copied()
    }

    /// Approximate memory footprint: the arena plus one inline directory
    /// slot per feature.
    pub fn memory_bytes(&self) -> usize {
        sizing::slice_bytes::<P>(self.arena.len()) + self.directory.len() * sizing::MAP_SLOT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_pairs_pack_into_ranges() {
        let p = KeyedPostings::from_grouped([(7, 'a'), (7, 'b'), (3, 'c'), (9, 'd')]);
        assert_eq!(p.get(7), Some(&['a', 'b'][..]));
        assert_eq!(p.get(3), Some(&['c'][..]));
        assert_eq!(p.get(9), Some(&['d'][..]));
        assert_eq!(p.get(1), None);
        assert_eq!(p.len(), 4);
        let mut ranges: Vec<(u32, u32)> = p.ranges().collect();
        ranges.sort_unstable();
        assert_eq!(ranges, vec![(0, 2), (2, 1), (3, 1)]);
        assert!(p.memory_bytes() > 0);
    }

    #[test]
    fn empty_store() {
        let p: KeyedPostings<u32> = KeyedPostings::from_grouped([]);
        assert!(p.is_empty());
        assert_eq!(p.get(0), None);
        assert_eq!(p.memory_bytes(), 0);
    }
}
