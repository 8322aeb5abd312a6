//! Operations on sets of [`GraphId`]s.
//!
//! Candidate sets and answer sets are represented throughout GraphCache as
//! strictly ascending `Vec<GraphId>`; union / intersection / difference are
//! linear merges. The candidate-set pruner (paper §5.1, equations (1) and
//! (2)) works on an [`IdSet`]: the same sorted array while it is small,
//! a dataset bitmap once the bitmap takes fewer bytes, so pruning a large
//! candidate set is bit tests, AND-NOT and popcounts. The bitmap helpers
//! ([`word`], [`mask`], [`ones`]) are shared with GGSX's count planes.

use crate::GraphId;

/// Asserts (in debug builds) that a slice is strictly ascending.
#[inline]
pub fn debug_assert_sorted(s: &[GraphId]) {
    debug_assert!(
        s.windows(2).all(|w| w[0] < w[1]),
        "id set not sorted/unique"
    );
}

/// Sorts and deduplicates a vector in place, making it a valid id set.
pub fn normalize(v: &mut Vec<GraphId>) {
    v.sort_unstable();
    v.dedup();
}

/// `a ∩ b`.
pub fn intersect(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    debug_assert_sorted(a);
    debug_assert_sorted(b);
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// `a ∪ b`.
pub fn union(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    debug_assert_sorted(a);
    debug_assert_sorted(b);
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a \ b`.
pub fn difference(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    debug_assert_sorted(a);
    debug_assert_sorted(b);
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Whether sorted `a` contains `x` (binary search).
#[inline]
pub fn contains(a: &[GraphId], x: GraphId) -> bool {
    a.binary_search(&x).is_ok()
}

/// The full id set `{0, …, n-1}` (what SI methods use as their "candidate
/// set": every dataset graph, paper §4).
pub fn full(n: usize) -> Vec<GraphId> {
    (0..n as u32).map(GraphId).collect()
}

/// Words of a bitmap over ids `0..n`: `⌈n/64⌉`.
#[inline]
pub fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// The word of a dataset bitmap that holds index `i`.
#[inline]
pub fn word(i: usize) -> usize {
    i / 64
}

/// The bit of [`word`]`(i)` that stands for index `i`.
#[inline]
pub fn mask(i: usize) -> u64 {
    1 << (i % 64)
}

/// The indexes of the set bits of a dataset bitmap, ascending.
pub fn ones(bitmap: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bitmap.iter().enumerate().flat_map(|(w, &word)| {
        let mut m = word;
        std::iter::from_fn(move || {
            let bit = m.trailing_zeros() as usize;
            m &= m.wrapping_sub(1);
            (bit < 64).then_some(w * 64 + bit)
        })
    })
}

/// Whether sorted `small ⊆` sorted `big`: one binary search per id of
/// `small`, each in what is left of `big` after the previous one.
fn subset(small: &[GraphId], big: &[GraphId]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut rest = big;
    for x in small {
        match rest.binary_search(x) {
            Ok(i) => rest = &rest[i + 1..],
            Err(_) => return false,
        }
    }
    true
}

/// A set of dataset ids in `0..n`, in whichever of two layouts takes fewer
/// bytes — the rule GGSX's count postings use: a sorted array (4 bytes an
/// id) while it has fewer than `2·⌈n/64⌉` ids, a dataset bitmap (8 bytes a
/// word) from then on. The layout is chosen once, by
/// [`from_sorted`](Self::from_sorted), and kept by every operation that
/// shrinks the set. Every method reads or returns ids in ascending order,
/// whatever the layout.
#[derive(Debug, Clone)]
pub enum IdSet {
    /// Strictly ascending ids.
    Sparse(Vec<GraphId>),
    /// A bitmap of `⌈n/64⌉` words, bit `i` standing for `GraphId(i)`, and
    /// the number of bits set.
    Dense {
        /// The bitmap; bits past `n` are never set.
        bits: Vec<u64>,
        /// Its popcount.
        len: usize,
    },
}

impl IdSet {
    /// The set of the sorted `ids`, all below `n`.
    pub fn from_sorted(ids: Vec<GraphId>, n: usize) -> IdSet {
        debug_assert_sorted(&ids);
        let w = words(n);
        if ids.is_empty() || ids.len() < 2 * w {
            return IdSet::Sparse(ids);
        }
        let mut bits = vec![0u64; w];
        for id in &ids {
            bits[word(id.index())] |= mask(id.index());
        }
        IdSet::Dense {
            len: ids.len(),
            bits,
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        match self {
            IdSet::Sparse(v) => v.len(),
            IdSet::Dense { len, .. } => *len,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is in the set: a binary search or a bit test.
    #[inline]
    pub fn contains(&self, id: GraphId) -> bool {
        match self {
            IdSet::Sparse(v) => contains(v, id),
            IdSet::Dense { bits, .. } => bits
                .get(word(id.index()))
                .is_some_and(|w| w & mask(id.index()) != 0),
        }
    }

    /// The ids, ascending.
    pub fn to_vec(&self) -> Vec<GraphId> {
        match self {
            IdSet::Sparse(v) => v.clone(),
            IdSet::Dense { bits, len } => {
                let mut out = Vec::with_capacity(*len);
                out.extend(ones(bits).map(|i| GraphId(i as u32)));
                out
            }
        }
    }

    /// Whether sorted `a ⊆ self`.
    pub fn contains_all(&self, a: &[GraphId]) -> bool {
        match self {
            IdSet::Sparse(v) => subset(a, v),
            IdSet::Dense { len, .. } => a.len() <= *len && a.iter().all(|&x| self.contains(x)),
        }
    }

    /// Whether `self ⊆` sorted `a`. On a bitmap: the ids of `a` found in
    /// it number `|self|`.
    pub fn is_subset_of(&self, a: &[GraphId]) -> bool {
        match self {
            IdSet::Sparse(v) => subset(v, a),
            IdSet::Dense { len, .. } => {
                *len <= a.len() && a.iter().filter(|&&x| self.contains(x)).count() == *len
            }
        }
    }

    /// `self ∩ a` for sorted `a`, ascending.
    pub fn intersect(&self, a: &[GraphId]) -> Vec<GraphId> {
        match self {
            IdSet::Sparse(v) => intersect(v, a),
            IdSet::Dense { .. } => a.iter().copied().filter(|&x| self.contains(x)).collect(),
        }
    }

    /// `self \ other`, ascending: AND-NOT word by word when both are
    /// bitmaps of one size, a merge when both are arrays.
    pub fn difference(&self, other: &IdSet) -> Vec<GraphId> {
        match (self, other) {
            (IdSet::Sparse(a), IdSet::Sparse(b)) => difference(a, b),
            (IdSet::Dense { bits: a, .. }, IdSet::Dense { bits: b, .. }) if a.len() == b.len() => {
                let diff: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & !y).collect();
                ones(&diff).map(|i| GraphId(i as u32)).collect()
            }
            _ => self
                .to_vec()
                .into_iter()
                .filter(|&x| !other.contains(x))
                .collect(),
        }
    }

    /// Removes the ids of sorted `a`: `self \= a`.
    pub fn remove_all(&mut self, a: &[GraphId]) {
        match self {
            IdSet::Sparse(v) => *v = difference(v, a),
            IdSet::Dense { bits, len } => {
                for x in a {
                    if let Some(w) = bits.get_mut(word(x.index())) {
                        let m = mask(x.index());
                        *len -= usize::from(*w & m != 0);
                        *w &= !m;
                    }
                }
            }
        }
    }

    /// Keeps only the ids of sorted `a` (`self ∩= a`) and returns those it
    /// dropped, ascending. On a bitmap: the kept bits are set from `a`'s
    /// ids, and the dropped ones are the old bitmap AND-NOT the kept one.
    pub fn retain_only(&mut self, a: &[GraphId]) -> Vec<GraphId> {
        match self {
            IdSet::Sparse(v) => {
                let dropped = difference(v, a);
                if !dropped.is_empty() {
                    *v = intersect(v, a);
                }
                dropped
            }
            IdSet::Dense { bits, len } => {
                let mut kept = vec![0u64; bits.len()];
                for x in a {
                    let i = x.index();
                    if let Some(&w) = bits.get(word(i)) {
                        kept[word(i)] |= w & mask(i);
                    }
                }
                for (b, k) in bits.iter_mut().zip(&kept) {
                    *b &= !k;
                }
                let dropped: Vec<GraphId> = ones(bits).map(|i| GraphId(i as u32)).collect();
                *bits = kept;
                *len -= dropped.len();
                dropped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ids(v: &[u32]) -> Vec<GraphId> {
        v.iter().copied().map(GraphId).collect()
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(
            intersect(&ids(&[1, 3, 5, 7]), &ids(&[2, 3, 7, 9])),
            ids(&[3, 7])
        );
        assert_eq!(intersect(&ids(&[]), &ids(&[1])), ids(&[]));
    }

    #[test]
    fn union_basic() {
        assert_eq!(
            union(&ids(&[1, 3, 5]), &ids(&[2, 3, 6])),
            ids(&[1, 2, 3, 5, 6])
        );
        assert_eq!(union(&ids(&[]), &ids(&[])), ids(&[]));
        assert_eq!(union(&ids(&[1]), &ids(&[])), ids(&[1]));
    }

    #[test]
    fn difference_basic() {
        assert_eq!(
            difference(&ids(&[1, 2, 3, 4]), &ids(&[2, 4, 8])),
            ids(&[1, 3])
        );
        assert_eq!(difference(&ids(&[]), &ids(&[1])), ids(&[]));
        assert_eq!(difference(&ids(&[1, 2]), &ids(&[])), ids(&[1, 2]));
    }

    #[test]
    fn set_algebra_laws() {
        let a = ids(&[0, 2, 4, 6, 8]);
        let b = ids(&[1, 2, 3, 4]);
        // |A| = |A∩B| + |A\B|
        assert_eq!(a.len(), intersect(&a, &b).len() + difference(&a, &b).len());
        // A∪B = (A\B) ∪ B
        assert_eq!(union(&a, &b), union(&difference(&a, &b), &b));
    }

    #[test]
    fn contains_and_full() {
        let f = full(4);
        assert_eq!(f, ids(&[0, 1, 2, 3]));
        assert!(contains(&f, GraphId(2)));
        assert!(!contains(&f, GraphId(9)));
    }

    /// A random sorted set over `0..n` holding each id with probability
    /// `p`.
    fn random_set(rng: &mut StdRng, n: usize, p: f64) -> Vec<GraphId> {
        (0..n as u32)
            .filter(|_| rng.gen_bool(p))
            .map(GraphId)
            .collect()
    }

    #[test]
    fn layout_follows_the_byte_rule() {
        // 130 ids need 3 words: an array below 6 ids, a bitmap from 6 on.
        let five = IdSet::from_sorted(ids(&[0, 1, 2, 3, 129]), 130);
        assert!(matches!(five, IdSet::Sparse(_)));
        let six = IdSet::from_sorted(ids(&[0, 1, 2, 3, 64, 129]), 130);
        assert!(matches!(six, IdSet::Dense { len: 6, .. }));
        assert_eq!(six.to_vec(), ids(&[0, 1, 2, 3, 64, 129]));
        assert!(matches!(IdSet::from_sorted(vec![], 0), IdSet::Sparse(_)));
    }

    /// Every operation gives what the sorted-array merges give, in both
    /// layouts: random sets of every density over universes that end
    /// inside and on a word boundary.
    #[test]
    fn id_set_matches_the_merges_in_both_layouts() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mut sparse, mut dense) = (0, 0);
        for round in 0..400 {
            let n = [1, 63, 64, 65, 200, 640][round % 6];
            let p = [0.0, 0.01, 0.03, 0.1, 0.5, 1.0][round / 6 % 6];
            let cs = random_set(&mut rng, n, p);
            let q = rng.gen_range(0.0..1.0);
            let a = random_set(&mut rng, n, q);
            let set = IdSet::from_sorted(cs.clone(), n);
            match set {
                IdSet::Sparse(_) => sparse += 1,
                IdSet::Dense { .. } => dense += 1,
            }
            assert_eq!(set.len(), cs.len());
            assert_eq!(set.to_vec(), cs);
            assert!(
                (0..n as u32 + 2).all(|i| set.contains(GraphId(i)) == contains(&cs, GraphId(i)))
            );
            assert_eq!(set.intersect(&a), intersect(&cs, &a));
            assert_eq!(set.contains_all(&a), intersect(&cs, &a) == a);
            assert_eq!(set.is_subset_of(&a), difference(&cs, &a).is_empty());
            // A subset of the set itself, so the inclusions also hold.
            let some = intersect(&cs, &a);
            assert!(set.contains_all(&some));
            assert!(set.is_subset_of(&union(&cs, &a)));

            let mut removed = set.clone();
            removed.remove_all(&a);
            assert_eq!(removed.to_vec(), difference(&cs, &a));
            assert_eq!(removed.len(), difference(&cs, &a).len());
            assert_eq!(set.difference(&removed), intersect(&cs, &a));

            let mut kept = set.clone();
            assert_eq!(kept.retain_only(&a), difference(&cs, &a));
            assert_eq!(kept.to_vec(), intersect(&cs, &a));
            assert_eq!(kept.len(), intersect(&cs, &a).len());
        }
        assert!(
            sparse > 50 && dense > 50,
            "{sparse} arrays, {dense} bitmaps"
        );
    }

    #[test]
    fn ones_reads_the_set_bits_ascending() {
        let bitmap = [0b1010u64, 0, 1 << 63];
        assert_eq!(ones(&bitmap).collect::<Vec<_>>(), vec![1, 3, 191]);
        assert_eq!((word(191), mask(191)), (2, 1 << 63));
        assert_eq!(words(129), 3);
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut v = ids(&[5, 1, 5, 3, 1]);
        normalize(&mut v);
        assert_eq!(v, ids(&[1, 3, 5]));
    }
}
