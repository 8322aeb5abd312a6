//! Fixed-width bit fingerprints (CT-Index's per-graph bitmaps) and the
//! isomorphism-invariant whole-graph hash used by the cache's exact-match
//! fast path.

use gc_graph::LabeledGraph;

/// A fixed-width bitset. CT-Index hashes every tree/cycle feature of a graph
/// into one bit of a per-graph fingerprint; filtering is then the subset
/// test `bits(query) ⊆ bits(graph)` (paper §7.1: 4096-bit bitmaps by
/// default, 8192 in the feature-size ablation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    words: Box<[u64]>,
    bits: usize,
}

impl Fingerprint {
    /// Creates an all-zero fingerprint with the given number of bits
    /// (rounded up to a multiple of 64).
    pub fn zeros(bits: usize) -> Self {
        assert!(bits > 0, "fingerprint must have at least one bit");
        Fingerprint {
            words: vec![0u64; bits.div_ceil(64)].into_boxed_slice(),
            bits,
        }
    }

    /// Creates an all-ones fingerprint (used for graphs whose feature
    /// enumeration overflowed: they pass every subset test, conservatively).
    pub fn ones(bits: usize) -> Self {
        let mut fp = Self::zeros(bits);
        for w in fp.words.iter_mut() {
            *w = u64::MAX;
        }
        fp
    }

    /// Width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Sets the bit for a feature hash (`hash % bits`).
    pub fn set_hash(&mut self, hash: u64) {
        let bit = (hash % self.bits as u64) as usize;
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    /// Whether the bit for `hash` is set.
    pub fn test_hash(&self, hash: u64) -> bool {
        let bit = (hash % self.bits as u64) as usize;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Subset test: every set bit of `self` is also set in `other`.
    pub fn subset_of(&self, other: &Fingerprint) -> bool {
        debug_assert_eq!(self.bits, other.bits, "fingerprint width mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<usize>()
    }
}

const FNV_BASIS: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// The FNV-1a step, resumable from any accumulator (`fnv1a(&[])` is the
/// first) — the single home of the hash constants shared by [`fnv1a`], the
/// iso-hash folds and streamed folds over many byte runs.
#[inline]
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a byte slice — the deterministic feature hash (independent of
/// `std`'s randomised hasher, so fingerprints are stable across runs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_BASIS, bytes)
}

/// Folds one `u64` into an FNV-1a accumulator byte by byte.
#[inline]
fn fnv_fold(h: u64, x: u64) -> u64 {
    fnv1a_continue(h, &x.to_le_bytes())
}

/// Refinement rounds of [`iso_hash`]. Three rounds see every ≤3-hop
/// neighbourhood — enough to separate the small query graphs the cache
/// stores in practice; deeper regular structures that 1-WL cannot
/// distinguish collide and are disambiguated by the caller's iso check.
const ISO_ROUNDS: usize = 3;

/// An isomorphism-invariant 64-bit fingerprint of a labelled graph:
/// 1-dimensional Weisfeiler–Leman colour refinement (labels seed the node
/// colours, each round hashes a node's colour with the *sorted* multiset of
/// its neighbours' colours), folded order-independently into a single word
/// together with the node and edge counts.
///
/// Guarantees: isomorphic graphs always hash equal (every step depends only
/// on structure, never node numbering). The converse does not hold — equal
/// hashes are a *candidate* for isomorphism that callers must confirm with
/// an isomorphism check — but non-isomorphic collisions require either a
/// 64-bit hash collision or a 1-WL-indistinguishable pair, both vanishingly
/// rare among cached query graphs.
pub fn iso_hash(g: &LabeledGraph) -> u64 {
    let n = g.node_count();
    let mut colors: Vec<u64> = g
        .labels()
        .iter()
        .map(|&l| fnv_fold(FNV_BASIS, l as u64))
        .collect();
    let mut next = vec![0u64; n];
    let mut neigh: Vec<u64> = Vec::new();
    for round in 0..ISO_ROUNDS {
        for v in g.nodes() {
            neigh.clear();
            neigh.extend(g.neighbors(v).iter().map(|&w| colors[w as usize]));
            neigh.sort_unstable();
            let mut h = fnv_fold(FNV_BASIS, round as u64 + 1);
            h = fnv_fold(h, colors[v as usize]);
            for &c in &neigh {
                h = fnv_fold(h, c);
            }
            next[v as usize] = h;
        }
        std::mem::swap(&mut colors, &mut next);
    }
    // The final colour *multiset* is the invariant; sorting removes the
    // node-order dependence before the fold.
    colors.sort_unstable();
    let mut h = fnv_fold(fnv_fold(FNV_BASIS, n as u64), g.edge_count() as u64);
    for &c in &colors {
        h = fnv_fold(h, c);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test() {
        let mut fp = Fingerprint::zeros(128);
        assert!(!fp.test_hash(5));
        fp.set_hash(5);
        assert!(fp.test_hash(5));
        fp.set_hash(128 + 5); // wraps to the same bit
        assert_eq!(fp.count_ones(), 1);
    }

    #[test]
    fn subset_semantics() {
        let mut a = Fingerprint::zeros(64);
        let mut b = Fingerprint::zeros(64);
        a.set_hash(3);
        b.set_hash(3);
        b.set_hash(7);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.subset_of(&a));
        assert!(Fingerprint::zeros(64).subset_of(&a));
    }

    #[test]
    fn ones_pass_every_subset_test() {
        let ones = Fingerprint::ones(96);
        let mut q = Fingerprint::zeros(96);
        for h in 0..200u64 {
            q.set_hash(h * 31);
        }
        assert!(q.subset_of(&ones));
        assert_eq!(ones.count_ones(), 96usize.div_ceil(64) * 64);
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_width_rejected() {
        Fingerprint::zeros(0);
    }

    /// Relabels a graph's nodes by a permutation (perm[old] = new).
    fn permuted(g: &LabeledGraph, perm: &[u32]) -> LabeledGraph {
        let mut labels = vec![0u32; g.node_count()];
        for v in g.nodes() {
            labels[perm[v as usize] as usize] = g.label(v);
        }
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize]))
            .collect();
        LabeledGraph::from_parts(labels, &edges)
    }

    #[test]
    fn iso_hash_invariant_under_node_permutation() {
        let g = LabeledGraph::from_parts(vec![0, 1, 2, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for perm in [
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
            vec![1, 2, 3, 4, 0],
        ] {
            assert_eq!(iso_hash(&g), iso_hash(&permuted(&g, &perm)), "{perm:?}");
        }
    }

    #[test]
    fn iso_hash_separates_structure_and_labels() {
        // Same label multiset and sizes, different structure: star vs path.
        let star = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert_ne!(iso_hash(&star), iso_hash(&path));
        // Same structure, one label changed.
        let a = LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let b = LabeledGraph::from_parts(vec![0, 1, 1], &[(0, 1), (1, 2)]);
        assert_ne!(iso_hash(&a), iso_hash(&b));
        // Different sizes.
        let c = LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]);
        assert_ne!(iso_hash(&a), iso_hash(&c));
    }

    #[test]
    fn iso_hash_empty_and_singletons() {
        assert_eq!(
            iso_hash(&LabeledGraph::empty()),
            iso_hash(&LabeledGraph::empty())
        );
        let one = LabeledGraph::from_parts(vec![7], &[]);
        assert_ne!(iso_hash(&LabeledGraph::empty()), iso_hash(&one));
    }
}
