//! The snapshot format: a length-prefixed little-endian binary image that
//! mirrors the in-memory arena layout, so restore is a bulk read +
//! validate with no per-entry parsing. It is the only on-disk
//! representation of a cache (see [`crate::persist`]).
//!
//! # On-disk layout (`snapshot.bin`)
//!
//! ```text
//! magic            8 bytes   b"GCSNAP01"
//! next_serial      u64 LE
//! entry_count      u64 LE
//! profile_max_len  u64 LE    u64::MAX when no profiles are stored
//! profile_work_cap u64 LE    meaningful only when profiles are stored
//! section_count    u64 LE
//! section table    section_count × (id u64, offset u64, len u64) LE;
//!                  offsets are relative to the payload start
//! payload          concatenated section bytes
//! checksum         u64 LE    FNV-1a over every byte before it
//! ```
//!
//! Sections are struct-of-arrays columns — the same shape the shards hold
//! in memory — plus flattened arenas indexed by the per-entry count
//! columns (an entry's range is the prefix sum of the counts before it):
//!
//! | id | section        | contents                                        |
//! |----|----------------|-------------------------------------------------|
//! | 1  | META           | `u64` policy-name length + UTF-8 bytes (0 = none) |
//! | 2  | SERIALS        | `u64 × n` entry serials                         |
//! | 3  | FINGERPRINTS   | `u64 × n` iso fingerprints                      |
//! | 4  | KINDS          | `u8 × n` query kinds (0 = sub, 1 = super)       |
//! | 5  | LABEL_COUNTS   | `u32 × n` per-entry node counts                 |
//! | 6  | EDGE_COUNTS    | `u32 × n` per-entry edge counts                 |
//! | 7  | ANSWER_LENS    | `u32 × n` per-entry answer-set lengths          |
//! | 8  | LABELS         | `u32` arena: all node labels, entry-major       |
//! | 9  | EDGES          | `u32` arena: all edges as `(u, v)` pairs        |
//! | 10 | ANSWERS        | `u32` arena: all answer ids, entry-major        |
//! | 11 | PROFILES       | retired label-sequence profiles (read, ignored) |
//! | 12 | STATS          | the STATS text codec of [`crate::persist`]      |
//! | 13 | FRAGMENTS      | the FRAGMENTS text codec of [`crate::persist`]  |
//! | 14 | PROFILE_KEYS   | `u32` stream of keyed path profiles (optional)  |
//!
//! The PROFILE_KEYS stream holds, per entry, either the single word
//! `u32::MAX` (enumeration overflowed) or a feature count followed by
//! `key lo, key hi, count` words per feature, in ascending key order — so
//! an identical cache always encodes to identical bytes. A key is the
//! 64-bit label fold of [`gc_index::paths::feature_key`]; the section id
//! names that fold, so a future fold takes a new id and an old reader
//! never misreads it. Storing profiles is what makes restore fast:
//! materialisation reuses them instead of re-enumerating every graph's
//! simple paths (the dominant cost of standing a cache back up), provided
//! the restoring index configuration matches the one recorded in the
//! header.
//!
//! Snapshots written before the keyed profiles carry the label-sequence
//! PROFILES section instead (per entry `u32::MAX` or a feature count, then
//! `len, label…, count` words per feature). Its framing is still checked,
//! its contents are ignored, and the restore re-enumerates every entry.
//!
//! Decoding is strict and never panics: truncation, a bad magic, a
//! checksum mismatch or any malformed section yields
//! [`GraphError::Snapshot`] with the offending byte offset.

use crate::persist::{PersistedCache, StoredProfiles};
use gc_graph::{GraphError, GraphId, LabeledGraph};
use gc_index::fingerprint::fnv1a;
use gc_index::paths::PathProfile;
use gc_methods::QueryKind;

/// Format magic: "GC snapshot", format revision 01.
pub const MAGIC: &[u8; 8] = b"GCSNAP01";

const SEC_META: u64 = 1;
const SEC_SERIALS: u64 = 2;
const SEC_FINGERPRINTS: u64 = 3;
const SEC_KINDS: u64 = 4;
const SEC_LABEL_COUNTS: u64 = 5;
const SEC_EDGE_COUNTS: u64 = 6;
const SEC_ANSWER_LENS: u64 = 7;
const SEC_LABELS: u64 = 8;
const SEC_EDGES: u64 = 9;
const SEC_ANSWERS: u64 = 10;
const SEC_PROFILES: u64 = 11;
const SEC_STATS: u64 = 12;
const SEC_FRAGMENTS: u64 = 13;
const SEC_PROFILE_KEYS: u64 = 14;

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32s(out: &mut Vec<u8>, vs: impl IntoIterator<Item = u32>) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes the cache into the full `snapshot.bin` byte image.
pub(crate) fn encode(cache: &PersistedCache) -> Vec<u8> {
    let n = cache.entries.len();

    // Build each section as its own byte blob.
    let mut meta = Vec::new();
    let policy = cache.policy.as_deref().unwrap_or("");
    push_u64(&mut meta, policy.len() as u64);
    meta.extend_from_slice(policy.as_bytes());

    let mut serials = Vec::with_capacity(n * 8);
    let mut fingerprints = Vec::with_capacity(n * 8);
    let mut kinds = Vec::with_capacity(n);
    let mut label_counts = Vec::with_capacity(n * 4);
    let mut edge_counts = Vec::with_capacity(n * 4);
    let mut answer_lens = Vec::with_capacity(n * 4);
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    let mut answers = Vec::new();
    for (serial, graph, answer, kind, fingerprint) in &cache.entries {
        push_u64(&mut serials, *serial);
        push_u64(&mut fingerprints, *fingerprint);
        kinds.push(match kind {
            QueryKind::Subgraph => 0u8,
            QueryKind::Supergraph => 1u8,
        });
        push_u32s(&mut label_counts, [graph.node_count() as u32]);
        push_u32s(&mut edge_counts, [graph.edge_count() as u32]);
        push_u32s(&mut answer_lens, [answer.len() as u32]);
        push_u32s(&mut labels, graph.labels().iter().copied());
        push_u32s(&mut edges, graph.edges().flat_map(|(u, v)| [u, v]));
        push_u32s(&mut answers, answer.iter().map(|id| id.0));
    }

    let profiles = cache.profiles.as_ref().map(|stored| {
        let mut out = Vec::new();
        for profile in &stored.profiles {
            match profile.counts() {
                None => push_u32s(&mut out, [u32::MAX]),
                Some(counts) => {
                    push_u32s(&mut out, [counts.len() as u32]);
                    for &(key, count) in counts {
                        push_u32s(&mut out, [key as u32, (key >> 32) as u32, count]);
                    }
                }
            }
        }
        out
    });

    let mut stats = Vec::new();
    crate::persist::write_stats_text(&mut stats, &cache.stats).expect("vec write");
    let mut fragments = Vec::new();
    crate::persist::write_fragments_text(&mut fragments, &cache.fragments).expect("vec write");

    let mut sections: Vec<(u64, Vec<u8>)> = vec![
        (SEC_META, meta),
        (SEC_SERIALS, serials),
        (SEC_FINGERPRINTS, fingerprints),
        (SEC_KINDS, kinds),
        (SEC_LABEL_COUNTS, label_counts),
        (SEC_EDGE_COUNTS, edge_counts),
        (SEC_ANSWER_LENS, answer_lens),
        (SEC_LABELS, labels),
        (SEC_EDGES, edges),
        (SEC_ANSWERS, answers),
    ];
    sections.push((SEC_STATS, stats));
    sections.push((SEC_FRAGMENTS, fragments));
    if let Some(p) = profiles {
        sections.push((SEC_PROFILE_KEYS, p));
    }

    // Assemble: header, section table, payload, checksum.
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_u64(&mut out, cache.next_serial);
    push_u64(&mut out, n as u64);
    match &cache.profiles {
        Some(stored) => {
            push_u64(&mut out, stored.max_path_len as u64);
            push_u64(&mut out, stored.work_cap);
        }
        None => {
            push_u64(&mut out, u64::MAX);
            push_u64(&mut out, 0);
        }
    }
    push_u64(&mut out, sections.len() as u64);
    let mut offset = 0u64;
    for (id, bytes) in &sections {
        push_u64(&mut out, *id);
        push_u64(&mut out, offset);
        push_u64(&mut out, bytes.len() as u64);
        offset += bytes.len() as u64;
    }
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

/// A bounds-checked reader over the snapshot image. Every accessor returns
/// a typed error instead of panicking on truncated input.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], GraphError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| GraphError::snapshot(self.pos, format!("truncated {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u64(&mut self, what: &str) -> Result<u64, GraphError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

/// Decodes a `u32` column section, validating alignment.
fn u32s(bytes: &[u8], at: usize, what: &str) -> Result<Vec<u32>, GraphError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(GraphError::snapshot(
            at,
            format!("{what} section length {} not a multiple of 4", bytes.len()),
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Decodes a `u64` column section, validating alignment.
fn u64s(bytes: &[u8], at: usize, what: &str) -> Result<Vec<u64>, GraphError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(GraphError::snapshot(
            at,
            format!("{what} section length {} not a multiple of 8", bytes.len()),
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

fn expect_len<T>(col: &[T], n: usize, at: usize, what: &str) -> Result<(), GraphError> {
    if col.len() != n {
        return Err(GraphError::snapshot(
            at,
            format!("{what} column has {} entries, expected {n}", col.len()),
        ));
    }
    Ok(())
}

/// A bounds-checked reader over a `u32` profile stream.
struct Words<'a> {
    words: &'a [u32],
    pos: usize,
    at: usize,
}

impl Words<'_> {
    fn next(&mut self, what: &str) -> Result<u32, GraphError> {
        let v = self.words.get(self.pos).copied().ok_or_else(|| {
            GraphError::snapshot(self.at + 4 * self.pos, format!("truncated {what}"))
        })?;
        self.pos += 1;
        Ok(v)
    }

    fn finish(&self, what: &str) -> Result<(), GraphError> {
        if self.pos != self.words.len() {
            return Err(GraphError::snapshot(
                self.at + 4 * self.pos,
                format!("trailing bytes after last {what}"),
            ));
        }
        Ok(())
    }
}

/// Decodes the PROFILE_KEYS stream: per entry, overflow or strictly
/// ascending `(key, count)` pairs.
fn read_profile_keys(
    bytes: &[u8],
    at: usize,
    entries: usize,
) -> Result<Vec<PathProfile>, GraphError> {
    let words = u32s(bytes, at, "profile keys")?;
    let mut w = Words {
        words: &words,
        pos: 0,
        at,
    };
    let mut profiles = Vec::with_capacity(entries);
    for i in 0..entries {
        let head = w.next("profile header")?;
        if head == u32::MAX {
            profiles.push(PathProfile::Overflow);
            continue;
        }
        let mut counts: Vec<(u64, u32)> = Vec::with_capacity((head as usize).min(words.len()));
        for _ in 0..head {
            let lo = w.next("feature key")?;
            let hi = w.next("feature key")?;
            let count = w.next("feature count")?;
            let key = u64::from(lo) | u64::from(hi) << 32;
            if counts.last().is_some_and(|&(prev, _)| prev >= key) {
                return Err(GraphError::snapshot(
                    at + 4 * w.pos,
                    format!("entry {i}: profile keys not strictly ascending"),
                ));
            }
            counts.push((key, count));
        }
        profiles.push(PathProfile::Counts(counts));
    }
    w.finish("profile")?;
    Ok(profiles)
}

/// Checks the framing of a retired label-sequence PROFILES stream without
/// keeping its contents.
fn check_label_profiles(bytes: &[u8], at: usize, entries: usize) -> Result<(), GraphError> {
    let words = u32s(bytes, at, "profiles")?;
    let mut w = Words {
        words: &words,
        pos: 0,
        at,
    };
    for _ in 0..entries {
        let head = w.next("profile header")?;
        if head == u32::MAX {
            continue;
        }
        for _ in 0..head {
            let len = w.next("feature length")?;
            for _ in 0..len {
                w.next("feature label")?;
            }
            w.next("feature count")?;
        }
    }
    w.finish("profile")
}

/// Decodes a full `snapshot.bin` image back into a [`PersistedCache`].
pub(crate) fn decode(buf: &[u8]) -> Result<PersistedCache, GraphError> {
    // Trailer first: the checksum covers everything before it, so validate
    // the whole image before trusting any length field inside it.
    if buf.len() < MAGIC.len() + 5 * 8 + 8 {
        return Err(GraphError::snapshot(buf.len(), "snapshot too short"));
    }
    let body = &buf[..buf.len() - 8];
    let stored_sum = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a(body) != stored_sum {
        return Err(GraphError::snapshot(buf.len() - 8, "checksum mismatch"));
    }

    let mut cur = Cursor { buf: body, pos: 0 };
    if cur.take(8, "magic")? != MAGIC {
        return Err(GraphError::snapshot(0, "bad magic (not a gc snapshot)"));
    }
    let next_serial = cur.u64("next_serial")?;
    let entry_count = cur.u64("entry_count")? as usize;
    let profile_max_len = cur.u64("profile_max_len")?;
    let profile_work_cap = cur.u64("profile_work_cap")?;
    let section_count = cur.u64("section_count")? as usize;

    // Section table, then slice the payload.
    let mut table: Vec<(u64, usize, usize)> = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let id = cur.u64("section id")?;
        let offset = cur.u64("section offset")? as usize;
        let len = cur.u64("section length")? as usize;
        table.push((id, offset, len));
    }
    let payload_start = cur.pos;
    let payload = &body[payload_start..];
    let section = |id: u64, what: &str| -> Result<(&[u8], usize), GraphError> {
        let (_, o, l) = *table.iter().find(|&&(i, _, _)| i == id).ok_or_else(|| {
            GraphError::snapshot(payload_start, format!("missing {what} section"))
        })?;
        let end = o
            .checked_add(l)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| {
                GraphError::snapshot(payload_start + o, format!("{what} section out of bounds"))
            })?;
        Ok((&payload[o..end], payload_start + o))
    };

    let mut out = PersistedCache {
        next_serial,
        ..Default::default()
    };

    // META: optional policy name.
    let (meta, meta_at) = section(SEC_META, "meta")?;
    {
        let mut mc = Cursor { buf: meta, pos: 0 };
        let plen = mc.u64("policy length")? as usize;
        let pbytes = mc.take(plen, "policy name")?;
        if plen > 0 {
            let name = std::str::from_utf8(pbytes)
                .map_err(|_| GraphError::snapshot(meta_at, "policy name not UTF-8"))?;
            out.policy = Some(name.to_string());
        }
    }

    // Fixed-width columns.
    let (b, at) = section(SEC_SERIALS, "serials")?;
    let serials = u64s(b, at, "serials")?;
    expect_len(&serials, entry_count, at, "serials")?;
    let (b, at) = section(SEC_FINGERPRINTS, "fingerprints")?;
    let fingerprints = u64s(b, at, "fingerprints")?;
    expect_len(&fingerprints, entry_count, at, "fingerprints")?;
    let (kinds, kinds_at) = section(SEC_KINDS, "kinds")?;
    expect_len(kinds, entry_count, kinds_at, "kinds")?;
    let (b, at) = section(SEC_LABEL_COUNTS, "label counts")?;
    let label_counts = u32s(b, at, "label counts")?;
    expect_len(&label_counts, entry_count, at, "label counts")?;
    let (b, at) = section(SEC_EDGE_COUNTS, "edge counts")?;
    let edge_counts = u32s(b, at, "edge counts")?;
    expect_len(&edge_counts, entry_count, at, "edge counts")?;
    let (b, at) = section(SEC_ANSWER_LENS, "answer lengths")?;
    let answer_lens = u32s(b, at, "answer lengths")?;
    expect_len(&answer_lens, entry_count, at, "answer lengths")?;

    // Arenas, validated against the count columns' sums.
    let (b, labels_at) = section(SEC_LABELS, "labels")?;
    let labels = u32s(b, labels_at, "labels")?;
    let (b, edges_at) = section(SEC_EDGES, "edges")?;
    let edge_words = u32s(b, edges_at, "edges")?;
    let (b, answers_at) = section(SEC_ANSWERS, "answers")?;
    let answer_words = u32s(b, answers_at, "answers")?;
    let total = |counts: &[u32]| counts.iter().map(|&c| c as usize).sum::<usize>();
    if labels.len() != total(&label_counts) {
        return Err(GraphError::snapshot(
            labels_at,
            "labels arena size mismatch",
        ));
    }
    if edge_words.len() != 2 * total(&edge_counts) {
        return Err(GraphError::snapshot(edges_at, "edges arena size mismatch"));
    }
    if answer_words.len() != total(&answer_lens) {
        return Err(GraphError::snapshot(
            answers_at,
            "answers arena size mismatch",
        ));
    }

    // Reassemble entries by walking the arenas with prefix sums.
    let (mut lo, mut eo, mut ao) = (0usize, 0usize, 0usize);
    for i in 0..entry_count {
        let nl = label_counts[i] as usize;
        let ne = edge_counts[i] as usize;
        let na = answer_lens[i] as usize;
        let node_labels = labels[lo..lo + nl].to_vec();
        let mut entry_edges = Vec::with_capacity(ne);
        for pair in edge_words[2 * eo..2 * (eo + ne)].chunks_exact(2) {
            if pair[0] as usize >= nl || pair[1] as usize >= nl {
                return Err(GraphError::snapshot(
                    edges_at,
                    format!("entry {i}: edge endpoint out of node range"),
                ));
            }
            entry_edges.push((pair[0], pair[1]));
        }
        let graph = LabeledGraph::from_parts(node_labels, &entry_edges);
        let answer: Vec<GraphId> = answer_words[ao..ao + na]
            .iter()
            .map(|&w| GraphId(w))
            .collect();
        let kind = match kinds[i] {
            0 => QueryKind::Subgraph,
            1 => QueryKind::Supergraph,
            other => {
                return Err(GraphError::snapshot(
                    kinds_at + i,
                    format!("unknown query kind tag {other}"),
                ))
            }
        };
        out.entries
            .push((serials[i], graph, answer, kind, fingerprints[i]));
        lo += nl;
        eo += ne;
        ao += na;
    }

    // Profiles (optional): one per entry, the stream must terminate exactly
    // at the section end. Keyed profiles are reused; a snapshot with only
    // the retired label-sequence section restores by re-enumerating.
    if profile_max_len != u64::MAX {
        let has = |id: u64| table.iter().any(|&(i, _, _)| i == id);
        if has(SEC_PROFILE_KEYS) || !has(SEC_PROFILES) {
            let (b, at) = section(SEC_PROFILE_KEYS, "profile keys")?;
            out.profiles = Some(StoredProfiles {
                max_path_len: profile_max_len as usize,
                work_cap: profile_work_cap,
                profiles: read_profile_keys(b, at, entry_count)?,
            });
        } else {
            let (b, at) = section(SEC_PROFILES, "profiles")?;
            check_label_profiles(b, at, entry_count)?;
        }
    }

    // STATS and FRAGMENTS: the embedded text codecs.
    let (b, at) = section(SEC_STATS, "stats")?;
    crate::persist::read_stats_text(b, &mut out.stats)
        .map_err(|e| GraphError::snapshot(at, format!("stats section: {e}")))?;
    let (b, at) = section(SEC_FRAGMENTS, "fragments")?;
    out.fragments = crate::persist::read_fragments_text(b)
        .map_err(|e| GraphError::snapshot(at, format!("fragments section: {e}")))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::PersistedFragment;
    use crate::policy::PolicyRow;
    use crate::stats::StatsStore;
    use gc_index::fingerprint::iso_hash;
    use gc_index::paths::enumerate_paths;

    fn sample(with_profiles: bool) -> PersistedCache {
        let mut stats = StatsStore::new();
        stats.insert(PolicyRow {
            serial: 3,
            last_hit: 40,
            hits: 7,
            r_total: 11,
            c_total: 12.5,
        });
        stats.admit(9);
        let g3 = LabeledGraph::from_parts(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let g9 = LabeledGraph::from_parts(vec![5], &[]);
        let fp3 = iso_hash(&g3);
        let fp9 = iso_hash(&g9);
        let profiles = with_profiles.then(|| StoredProfiles {
            max_path_len: 4,
            work_cap: 5_000_000,
            profiles: vec![enumerate_paths(&g3, 4, 5_000_000), PathProfile::Overflow],
        });
        PersistedCache {
            entries: vec![
                (
                    3,
                    g3,
                    vec![GraphId(0), GraphId(4)],
                    QueryKind::Subgraph,
                    fp3,
                ),
                (9, g9, vec![], QueryKind::Supergraph, fp9),
            ],
            stats,
            next_serial: 42,
            policy: Some("hd".to_string()),
            fragments: vec![PersistedFragment {
                key: 0xdead_beef_0042_7711,
                graph: LabeledGraph::from_parts(vec![1, 2, 1], &[(0, 1), (1, 2)]),
                occs: vec![GraphId(0), GraphId(2)],
                hits: 3,
                last_hit: 40,
                r_total: 9,
                c_total: 2.25,
            }],
            profiles,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for with_profiles in [false, true] {
            let orig = sample(with_profiles);
            let bytes = encode(&orig);
            let back = decode(&bytes).unwrap();
            assert_eq!(back.next_serial, 42);
            assert_eq!(back.policy.as_deref(), Some("hd"));
            assert_eq!(back.entries.len(), 2);
            assert_eq!(back.entries[0].0, 3);
            assert_eq!(back.entries[0].1.labels(), &[0, 1, 0]);
            assert_eq!(
                back.entries[0].1.edges().collect::<Vec<_>>(),
                orig.entries[0].1.edges().collect::<Vec<_>>()
            );
            assert_eq!(back.entries[0].2, vec![GraphId(0), GraphId(4)]);
            assert_eq!(back.entries[0].3, QueryKind::Subgraph);
            assert_eq!(back.entries[0].4, orig.entries[0].4);
            assert_eq!(back.entries[1].3, QueryKind::Supergraph);
            assert_eq!(back.stats.rows(), orig.stats.rows());
            assert_eq!(back.fragments, orig.fragments);
            match (&back.profiles, with_profiles) {
                (Some(p), true) => {
                    assert_eq!(p.max_path_len, 4);
                    assert_eq!(p.work_cap, 5_000_000);
                    assert_eq!(p.profiles.len(), 2);
                    assert_eq!(
                        p.profiles[0].counts(),
                        orig.profiles.as_ref().unwrap().profiles[0].counts()
                    );
                    assert!(p.profiles[1].counts().is_none(), "overflow survives");
                }
                (None, false) => {}
                other => panic!("profiles mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        // Identical caches encode to identical bytes (sorted stats rows,
        // sorted profile features, canonical edge order) — the property
        // the byte-identical re-save test in tests/persistence.rs pins
        // end-to-end.
        let a = encode(&sample(true));
        let b = encode(&sample(true));
        assert_eq!(a, b);
        let back = decode(&a).unwrap();
        assert_eq!(encode(&back), a, "decode ∘ encode is the identity on bytes");
    }

    #[test]
    fn empty_cache_roundtrips() {
        let empty = PersistedCache {
            next_serial: 1,
            ..Default::default()
        };
        let bytes = encode(&empty);
        let back = decode(&bytes).unwrap();
        assert!(back.entries.is_empty());
        assert!(back.stats.is_empty());
        assert!(back.policy.is_none());
        assert!(back.fragments.is_empty());
        assert!(back.profiles.is_none());
    }

    #[test]
    fn corruption_yields_typed_errors_not_panics() {
        let good = encode(&sample(true));

        // Truncation at every prefix length must error, never panic.
        for len in 0..good.len().min(64) {
            assert!(decode(&good[..len]).is_err(), "prefix {len} accepted");
        }
        assert!(decode(&good[..good.len() - 1]).is_err());

        // Any single flipped byte must fail the checksum (or a stricter
        // later check) — sample a spread of positions.
        for pos in (0..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            let err = decode(&bad).expect_err("corruption accepted");
            assert!(
                matches!(err, GraphError::Snapshot { .. }),
                "wrong error type at {pos}: {err}"
            );
        }

        // Bad magic with a recomputed checksum: caught by the magic check.
        let mut bad = good.clone();
        bad[0] = b'X';
        let truncated = bad.len() - 8;
        bad.truncate(truncated);
        let sum = fnv1a(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(format!("{err}").contains("magic"), "got: {err}");
    }

    #[test]
    fn malformed_sections_rejected_after_checksum_fixup() {
        // Deeper validation than the checksum: mutate the image, then
        // recompute the trailer so the section checks themselves fire.
        let reseal = |mut body: Vec<u8>| -> Vec<u8> {
            let sum = fnv1a(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            body
        };
        let good = encode(&sample(true));
        let body = &good[..good.len() - 8];

        // Entry count inflated: column-length checks fire.
        let mut bad = body.to_vec();
        bad[16..24].copy_from_slice(&999u64.to_le_bytes());
        let err = decode(&reseal(bad)).unwrap_err();
        assert!(matches!(err, GraphError::Snapshot { .. }));

        // Kind byte out of range.
        let mut bad = body.to_vec();
        let kinds_at = find_section(body, SEC_KINDS);
        bad[kinds_at] = 7;
        let err = decode(&reseal(bad)).unwrap_err();
        assert!(format!("{err}").contains("kind"), "got: {err}");

        // Edge endpoint out of node range.
        let mut bad = body.to_vec();
        let edges_at = find_section(body, SEC_EDGES);
        bad[edges_at..edges_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&reseal(bad)).unwrap_err();
        assert!(format!("{err}").contains("endpoint"), "got: {err}");
    }

    /// Rewrites the image's last section (PROFILE_KEYS in a profiled
    /// image) to `id` with `payload`, resealing the checksum.
    fn swap_last_section(image: &[u8], id: u64, payload: &[u8]) -> Vec<u8> {
        let body = &image[..image.len() - 8];
        let section_count = u64::from_le_bytes(body[40..48].try_into().unwrap()) as usize;
        let row = 48 + (section_count - 1) * 24;
        assert_eq!(
            u64::from_le_bytes(body[row..row + 8].try_into().unwrap()),
            SEC_PROFILE_KEYS
        );
        let len = u64::from_le_bytes(body[row + 16..row + 24].try_into().unwrap()) as usize;
        let mut out = body[..body.len() - len].to_vec();
        out[row..row + 8].copy_from_slice(&id.to_le_bytes());
        out[row + 16..row + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// A snapshot that carries only the retired label-sequence PROFILES
    /// section restores everything else, and its profiles fall back to
    /// re-enumeration; a mis-framed stream is still rejected.
    #[test]
    fn legacy_label_profiles_are_checked_then_reenumerated() {
        use gc_index::paths::{enumerate_paths_located, LocatedProfile};
        let orig = sample(true);
        let LocatedProfile::Counts(seqs) =
            enumerate_paths_located(&orig.entries[0].1, 4, 5_000_000)
        else {
            panic!("unexpected overflow");
        };
        let mut features: Vec<(&Vec<u32>, u32)> = seqs.iter().map(|(k, v)| (k, v.0)).collect();
        features.sort_unstable();
        let mut legacy = vec![features.len() as u32];
        for (seq, count) in &features {
            legacy.push(seq.len() as u32);
            legacy.extend(seq.iter().copied());
            legacy.push(*count);
        }
        legacy.push(u32::MAX);
        let bytes: Vec<u8> = legacy.iter().flat_map(|w| w.to_le_bytes()).collect();

        let image = swap_last_section(&encode(&orig), SEC_PROFILES, &bytes);
        let back = decode(&image).unwrap();
        assert!(back.profiles.is_none(), "label profiles are not reused");
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].1.labels(), orig.entries[0].1.labels());
        assert_eq!(back.stats.rows(), orig.stats.rows());
        let (snapshot, _, _) =
            back.into_snapshot_sharded(crate::query_index::QueryIndexConfig::default(), 1);
        let entry = snapshot.entry(3).expect("entry 3 restored");
        assert_eq!(
            entry.profile,
            enumerate_paths(&orig.entries[0].1, 4, 5_000_000),
            "re-enumerated"
        );

        let truncated = swap_last_section(&encode(&orig), SEC_PROFILES, &bytes[..bytes.len() - 4]);
        let err = decode(&truncated).unwrap_err();
        assert!(format!("{err}").contains("truncated"), "got: {err}");
    }

    #[test]
    fn profile_keys_must_ascend() {
        let orig = sample(true);
        let counts = orig.profiles.as_ref().unwrap().profiles[0]
            .counts()
            .unwrap();
        assert!(counts.len() >= 2);
        let mut words = vec![counts.len() as u32];
        for &(key, count) in counts.iter().rev() {
            words.extend([key as u32, (key >> 32) as u32, count]);
        }
        words.push(u32::MAX);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let image = swap_last_section(&encode(&orig), SEC_PROFILE_KEYS, &bytes);
        let err = decode(&image).unwrap_err();
        assert!(format!("{err}").contains("ascending"), "got: {err}");
    }

    /// Test helper: absolute offset of a section's first payload byte.
    fn find_section(body: &[u8], id: u64) -> usize {
        let section_count = u64::from_le_bytes(body[40..48].try_into().unwrap()) as usize;
        let payload_start = 48 + section_count * 24;
        for i in 0..section_count {
            let row = 48 + i * 24;
            let sid = u64::from_le_bytes(body[row..row + 8].try_into().unwrap());
            if sid == id {
                let off = u64::from_le_bytes(body[row + 8..row + 16].try_into().unwrap()) as usize;
                return payload_start + off;
            }
        }
        panic!("section {id} not found");
    }
}
