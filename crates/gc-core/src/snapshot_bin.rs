//! The snapshot format: a length-prefixed little-endian binary image that
//! mirrors the shards' packed columns, so restore is a bulk read +
//! validate with no per-entry parsing. It is the only on-disk
//! representation of a cache (see [`crate::persist`]).
//!
//! # On-disk layout (`snapshot.bin`)
//!
//! ```text
//! magic            8 bytes   b"GCSNAP02"
//! next_serial      u64 LE
//! entry_count      u64 LE
//! profile_max_len  u64 LE    path shape the profiles were enumerated
//! profile_work_cap u64 LE    under: the query index's QUERY_INDEX_SHAPE
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
//! | 1  | META           | `u64` policy-name length + UTF-8 bytes (0 = none), then the dataset identity: `u64` graph count, `u64` fold |
//! | 2  | SERIALS        | `u64 × n` entry serials                         |
//! | 3  | FINGERPRINTS   | `u64 × n` iso fingerprints                      |
//! | 4  | KINDS          | `u8 × n` query kinds (0 = sub, 1 = super)       |
//! | 5  | LABEL_COUNTS   | `u32 × n` per-entry node counts                 |
//! | 6  | EDGE_COUNTS    | `u32 × n` per-entry edge counts                 |
//! | 7  | ANSWER_LENS    | `u32 × n` per-entry answer-set lengths          |
//! | 8  | LABELS         | `u32` arena: all node labels, entry-major       |
//! | 9  | EDGES          | `u32` arena: all edges as `(u, v)` pairs        |
//! | 10 | ANSWERS        | `u32` arena: all answer ids, entry-major        |
//! | 12 | STATS          | `u64 × k` columns serial, hits, last_hit, r_total, c_total (`f64` bits), rows in ascending serial order; `k` = length / 40 |
//! | 13 | FRAGMENTS      | `u64` count `m`; `u64 × m` columns key, hits, last_hit, r_total, c_total (`f64` bits); `u32 × m` columns occurrence lengths, node counts, edge counts; then the label, edge and occurrence arenas |
//! | 14 | PROFILE_KEYS   | `u32` stream of keyed path profiles             |
//!
//! Fragment graphs use the entry graphs' four columns (node counts, edge
//! counts, label arena, edge arena), written and read by one helper. Id 11
//! held the label-sequence profiles of format `GCSNAP01` and is not reused.
//!
//! The dataset identity in META is the graph count and the
//! [`DatasetIdentity`] fold of the dataset the answer sets index into; a
//! restore over any other dataset is refused (see
//! [`GraphCache::restore`](crate::GraphCache::restore)).
//!
//! The PROFILE_KEYS stream holds, per entry, either the single word
//! `u32::MAX` (enumeration overflowed) or a feature count followed by
//! `key lo, key hi, count` words per feature, in ascending key order — so
//! an identical cache always encodes to identical bytes. A key is the
//! 64-bit label fold of [`gc_index::paths::feature_key`]; the section id
//! names that fold, so a future fold takes a new id and an old reader
//! never misreads it. Storing profiles is what makes restore fast:
//! materialisation reuses them instead of re-enumerating every graph's
//! simple paths (the dominant cost of standing a cache back up). Every
//! image carries them, under the shape recorded in the header.
//!
//! Decoding is strict and never panics: truncation, a bad magic, a
//! checksum mismatch or any malformed section yields
//! [`GraphError::Snapshot`] with the offending byte offset. An image of
//! the earlier format `GCSNAP01` is refused with a message that says to
//! rebuild the cache, and so is one whose header records no profiles
//! (`u64::MAX`, written by earlier releases for a state without them) or
//! a shape other than [`QUERY_INDEX_SHAPE`].

use crate::persist::{DatasetIdentity, PersistedCache, PersistedFragment};
use crate::policy::PolicyRow;
use crate::query_index::QUERY_INDEX_SHAPE;
use crate::stats::StatsStore;
use gc_graph::{GraphError, GraphId, LabeledGraph};
use gc_index::fingerprint::fnv1a;
use gc_index::paths::PathProfile;
use gc_methods::QueryKind;

/// Format magic: "GC snapshot", format revision 02.
pub const MAGIC: &[u8; 8] = b"GCSNAP02";

/// The magic of the previous format, named in the error that refuses it.
const EARLIER_MAGIC: &[u8; 8] = b"GCSNAP01";

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
const SEC_STATS: u64 = 12;
const SEC_FRAGMENTS: u64 = 13;
const SEC_PROFILE_KEYS: u64 = 14;

/// A fixed-width little-endian word of a column.
trait Word: Copy {
    const BYTES: usize;
    fn put(self, out: &mut Vec<u8>);
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("one word"))
            }
        }
    )*};
}
word!(u8, u32, u64);

/// The bytes of a column.
fn bytes<T: Word>(words: impl IntoIterator<Item = T>) -> Vec<u8> {
    let mut out = Vec::new();
    for w in words {
        w.put(&mut out);
    }
    out
}

/// Decodes a column, validating alignment.
fn words<T: Word>(bytes: &[u8], at: usize, what: &str) -> Result<Vec<T>, GraphError> {
    if !bytes.len().is_multiple_of(T::BYTES) {
        let len = bytes.len();
        let why = format!("{what} length {len} not a multiple of {}", T::BYTES);
        return Err(GraphError::snapshot(at, why));
    }
    Ok(bytes.chunks_exact(T::BYTES).map(T::get).collect())
}

fn expect_len<T>(col: &[T], n: usize, at: usize, what: &str) -> Result<(), GraphError> {
    if col.len() != n {
        let why = format!("{what} column has {} entries, expected {n}", col.len());
        return Err(GraphError::snapshot(at, why));
    }
    Ok(())
}

/// Sum of a count column.
fn total(counts: &[u32]) -> usize {
    counts.iter().map(|&c| c as usize).sum()
}

/// The four columns a set of graphs is stored in, shared by entries and
/// fragments: node counts, edge counts, then the label and `(u, v)` edge
/// arenas, graph-major.
fn graph_columns<'g>(graphs: impl Iterator<Item = &'g LabeledGraph>) -> [Vec<u8>; 4] {
    let mut cols: [Vec<u8>; 4] = Default::default();
    for g in graphs {
        (g.node_count() as u32).put(&mut cols[0]);
        (g.edge_count() as u32).put(&mut cols[1]);
        cols[2].extend(bytes(g.labels().iter().copied()));
        cols[3].extend(bytes(g.edges().flat_map(|(u, v)| [u, v])));
    }
    cols
}

/// Rebuilds the graphs of [`graph_columns`], whose arenas the caller read
/// by the count columns' sums; every edge endpoint must name a node of its
/// graph (the edge arena starts at image offset `edges_at`).
fn read_graphs(
    [label_counts, edge_counts, labels, edges]: [&[u32]; 4],
    edges_at: usize,
) -> Result<Vec<LabeledGraph>, GraphError> {
    let (mut lo, mut eo) = (0usize, 0usize);
    let mut graphs = Vec::with_capacity(label_counts.len());
    for (i, (&nl, &ne)) in label_counts.iter().zip(edge_counts).enumerate() {
        let (nl, ne) = (nl as usize, ne as usize);
        let pairs: Vec<(u32, u32)> = edges[2 * eo..2 * (eo + ne)]
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
            .collect();
        if pairs.iter().any(|&(u, v)| u.max(v) as usize >= nl) {
            let why = format!("graph {i}: edge endpoint out of node range");
            return Err(GraphError::snapshot(edges_at, why));
        }
        let node_labels = labels[lo..lo + nl].to_vec();
        graphs.push(LabeledGraph::from_parts(node_labels, &pairs));
        lo += nl;
        eo += ne;
    }
    Ok(graphs)
}

/// The five usage columns STATS and FRAGMENTS share, one `u64` per row
/// each: serial or key, hits, last hit, `R`, and `C` as its `f64` bits.
type Usage = [u64; 5];

fn usage_columns(rows: &[Usage]) -> Vec<u8> {
    (0..5)
        .flat_map(|c| bytes(rows.iter().map(|r| r[c])))
        .collect()
}

/// The PROFILE_KEYS stream of `profiles` (see the module docs).
fn profile_keys<'p>(profiles: impl Iterator<Item = &'p PathProfile>) -> Vec<u8> {
    let mut out = Vec::new();
    for profile in profiles {
        match profile.counts() {
            None => u32::MAX.put(&mut out),
            Some(counts) => {
                (counts.len() as u32).put(&mut out);
                for &(key, count) in counts {
                    key.put(&mut out);
                    count.put(&mut out);
                }
            }
        }
    }
    out
}

/// Encodes the cache into the full `snapshot.bin` byte image.
pub(crate) fn encode(cache: &PersistedCache) -> Vec<u8> {
    let entries = &cache.entries;
    let policy = cache.policy.as_deref().unwrap_or("");
    let mut meta = bytes([policy.len() as u64]);
    meta.extend_from_slice(policy.as_bytes());
    meta.extend(bytes([cache.dataset.graphs, cache.dataset.fold]));

    let [label_counts, edge_counts, labels, edges] = graph_columns(entries.iter().map(|e| &e.1));
    let kinds = entries.iter().map(|e| (e.3 == QueryKind::Supergraph) as u8);

    let stats: Vec<Usage> = cache
        .stats
        .rows()
        .iter()
        .map(|r| [r.serial, r.hits, r.last_hit, r.r_total, r.c_total.to_bits()])
        .collect();

    let frags = &cache.fragments;
    let usage: Vec<Usage> = frags
        .iter()
        .map(|f| [f.key, f.hits, f.last_hit, f.r_total, f.c_total.to_bits()])
        .collect();
    let mut fragments = bytes([frags.len() as u64]);
    fragments.extend(usage_columns(&usage));
    fragments.extend(bytes(frags.iter().map(|f| f.occs.len() as u32)));
    fragments.extend(graph_columns(frags.iter().map(|f| &f.graph)).concat());
    fragments.extend(bytes(
        frags.iter().flat_map(|f| f.occs.iter().map(|id| id.0)),
    ));

    let sections: Vec<(u64, Vec<u8>)> = vec![
        (SEC_META, meta),
        (SEC_SERIALS, bytes(entries.iter().map(|e| e.0))),
        (SEC_FINGERPRINTS, bytes(entries.iter().map(|e| e.4))),
        (SEC_KINDS, bytes(kinds)),
        (SEC_LABEL_COUNTS, label_counts),
        (SEC_EDGE_COUNTS, edge_counts),
        (
            SEC_ANSWER_LENS,
            bytes(entries.iter().map(|e| e.2.len() as u32)),
        ),
        (SEC_LABELS, labels),
        (SEC_EDGES, edges),
        (
            SEC_ANSWERS,
            bytes(entries.iter().flat_map(|e| e.2.iter().map(|id| id.0))),
        ),
        (SEC_STATS, usage_columns(&stats)),
        (SEC_FRAGMENTS, fragments),
        (SEC_PROFILE_KEYS, profile_keys(entries.iter().map(|e| &e.5))),
    ];

    // Assemble: header, section table, payload, checksum.
    let shape = QUERY_INDEX_SHAPE;
    let n = entries.len() as u64;
    let mut out = MAGIC.to_vec();
    out.extend(bytes([
        cache.next_serial,
        n,
        shape.max_len as u64,
        shape.work_cap,
    ]));
    out.extend(bytes([sections.len() as u64]));
    let mut offset = 0u64;
    for (id, section) in &sections {
        out.extend(bytes([*id, offset, section.len() as u64]));
        offset += section.len() as u64;
    }
    for (_, section) in &sections {
        out.extend_from_slice(section);
    }
    let checksum = fnv1a(&out);
    out.extend(bytes([checksum]));
    out
}

/// A bounds-checked reader over a slice of the snapshot image that starts
/// at image offset `base`. Every accessor returns a typed error naming the
/// image offset instead of panicking on truncated input.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], base: usize) -> Self {
        Self { buf, pos: 0, base }
    }

    /// Image offset of the next unread byte.
    fn at(&self) -> usize {
        self.base + self.pos
    }

    /// The next `n` bytes. Nothing is allocated for a length the slice
    /// does not hold.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], GraphError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| GraphError::snapshot(self.at(), format!("truncated {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn word<T: Word>(&mut self, what: &str) -> Result<T, GraphError> {
        Ok(T::get(self.take(T::BYTES, what)?))
    }

    /// The next `n` words.
    fn words<T: Word>(&mut self, n: usize, what: &str) -> Result<Vec<T>, GraphError> {
        let at = self.at();
        words(self.take(n.saturating_mul(T::BYTES), what)?, at, what)
    }

    fn finish(&self, what: &str) -> Result<(), GraphError> {
        if self.pos != self.buf.len() {
            let why = format!("trailing bytes after {what}");
            return Err(GraphError::snapshot(self.at(), why));
        }
        Ok(())
    }
}

/// The section table over the payload, which starts at image offset
/// `start`: `(id, offset, len)` rows, offsets relative to `start`.
struct Sections<'a> {
    table: Vec<(u64, usize, usize)>,
    payload: &'a [u8],
    start: usize,
}

impl<'a> Sections<'a> {
    /// Section `id`'s bytes and their image offset.
    fn get(&self, id: u64, what: &str) -> Result<(&'a [u8], usize), GraphError> {
        let missing = || GraphError::snapshot(self.start, format!("missing {what} section"));
        let &(_, o, l) = self
            .table
            .iter()
            .find(|row| row.0 == id)
            .ok_or_else(missing)?;
        let at = self.start.saturating_add(o);
        let out_of_bounds = || GraphError::snapshot(at, format!("{what} section out of bounds"));
        let end = o.checked_add(l).ok_or_else(out_of_bounds)?;
        Ok((self.payload.get(o..end).ok_or_else(out_of_bounds)?, at))
    }

    /// Section `id` as a column of exactly `n` words.
    fn column<T: Word>(&self, id: u64, what: &str, n: usize) -> Result<Vec<T>, GraphError> {
        let (bytes, at) = self.get(id, what)?;
        let col = words(bytes, at, what)?;
        expect_len(&col, n, at, what)?;
        Ok(col)
    }
}

/// Decodes the PROFILE_KEYS stream: per entry, overflow or strictly
/// ascending `(key, count)` pairs.
fn read_profile_keys(
    bytes: &[u8],
    at: usize,
    entries: usize,
) -> Result<Vec<PathProfile>, GraphError> {
    let mut c = Cursor::new(bytes, at);
    let mut profiles = Vec::with_capacity(entries);
    for i in 0..entries {
        let head: u32 = c.word("profile header")?;
        if head == u32::MAX {
            profiles.push(PathProfile::Overflow);
            continue;
        }
        let mut counts: Vec<(u64, u32)> = Vec::with_capacity((head as usize).min(bytes.len()));
        for _ in 0..head {
            let key = c.word("feature key")?;
            if counts.last().is_some_and(|&(prev, _)| prev >= key) {
                let why = format!("entry {i}: profile keys not strictly ascending");
                return Err(GraphError::snapshot(c.at(), why));
            }
            counts.push((key, c.word("feature count")?));
        }
        profiles.push(PathProfile::Counts(counts));
    }
    c.finish("last profile")?;
    Ok(profiles)
}

/// Reads the [`Usage`] columns of `k` rows.
fn read_usage(c: &mut Cursor<'_>, k: usize, what: &str) -> Result<Vec<Usage>, GraphError> {
    let cols: Vec<Vec<u64>> = (0..5).map(|_| c.words(k, what)).collect::<Result<_, _>>()?;
    Ok((0..k)
        .map(|i| std::array::from_fn(|col| cols[col][i]))
        .collect())
}

/// Decodes the STATS columns into rows, which must ascend by serial.
fn read_stats(bytes: &[u8], at: usize) -> Result<Vec<PolicyRow>, GraphError> {
    if !bytes.len().is_multiple_of(40) {
        let why = format!("stats length {} not a multiple of 40", bytes.len());
        return Err(GraphError::snapshot(at, why));
    }
    let rows = read_usage(&mut Cursor::new(bytes, at), bytes.len() / 40, "stats")?;
    if let Some(i) = rows.windows(2).position(|w| w[0][0] >= w[1][0]) {
        let why = "stats serials not strictly ascending";
        return Err(GraphError::snapshot(at + 8 * (i + 1), why));
    }
    Ok(rows
        .into_iter()
        .map(|[serial, hits, last_hit, r_total, c]| PolicyRow {
            serial,
            hits,
            last_hit,
            r_total,
            c_total: f64::from_bits(c),
        })
        .collect())
}

/// Decodes the FRAGMENTS columns (see the module docs' layout table).
fn read_fragments(bytes: &[u8], at: usize) -> Result<Vec<PersistedFragment>, GraphError> {
    let mut c = Cursor::new(bytes, at);
    let m = c.word::<u64>("fragment count")? as usize;
    let usage = read_usage(&mut c, m, "fragment columns")?;
    let occ_lens: Vec<u32> = c.words(m, "occurrence lengths")?;
    let label_counts: Vec<u32> = c.words(m, "fragment label counts")?;
    let edge_counts: Vec<u32> = c.words(m, "fragment edge counts")?;
    let labels = c.words(total(&label_counts), "fragment labels")?;
    let edges_at = c.at();
    let edges = c.words(2 * total(&edge_counts), "fragment edges")?;
    let occs: Vec<u32> = c.words(total(&occ_lens), "occurrence arena")?;
    c.finish("occurrence arena")?;
    let graphs = read_graphs([&label_counts, &edge_counts, &labels, &edges], edges_at)?;
    let mut oo = 0usize;
    let fragments = graphs.into_iter().zip(usage).zip(occ_lens);
    Ok(fragments
        .map(|((graph, [key, hits, last_hit, r_total, c]), len)| {
            let occs = occs[oo..oo + len as usize].iter().map(|&id| GraphId(id));
            oo += len as usize;
            PersistedFragment {
                key,
                graph,
                occs: occs.collect(),
                hits,
                last_hit,
                r_total,
                c_total: f64::from_bits(c),
            }
        })
        .collect())
}

/// Decodes a full `snapshot.bin` image back into a [`PersistedCache`].
pub(crate) fn decode(buf: &[u8]) -> Result<PersistedCache, GraphError> {
    // Trailer first: the checksum covers everything before it, so validate
    // the whole image before trusting any length field inside it.
    if buf.len() < MAGIC.len() + 5 * 8 + 8 {
        return Err(GraphError::snapshot(buf.len(), "snapshot too short"));
    }
    let (body, trailer) = buf.split_at(buf.len() - 8);
    if fnv1a(body) != u64::get(trailer) {
        return Err(GraphError::snapshot(body.len(), "checksum mismatch"));
    }

    let mut cur = Cursor::new(body, 0);
    let magic = cur.take(8, "magic")?;
    if magic == EARLIER_MAGIC {
        let why = "snapshot written by an earlier release (format GCSNAP01), which this \
                   release does not read — rebuild the cache and save it again";
        return Err(GraphError::snapshot(0, why));
    }
    if magic != MAGIC {
        return Err(GraphError::snapshot(0, "bad magic (not a gc snapshot)"));
    }
    let next_serial = cur.word("next_serial")?;
    let n = cur.word::<u64>("entry_count")? as usize;
    let profile_max_len: u64 = cur.word("profile_max_len")?;
    let profile_work_cap: u64 = cur.word("profile_work_cap")?;
    let section_count = cur.word::<u64>("section_count")? as usize;

    // The table is taken whole, so a section count past the bytes left is
    // a truncation error before anything is allocated for it.
    let table: Vec<u64> = cur.words(section_count.saturating_mul(3), "section table")?;
    let s = Sections {
        table: table
            .chunks_exact(3)
            .map(|row| (row[0], row[1] as usize, row[2] as usize))
            .collect(),
        payload: &body[cur.pos..],
        start: cur.pos,
    };

    // Profiles are stored under the query index's path shape, or the
    // image is refused.
    let shape = QUERY_INDEX_SHAPE;
    if profile_max_len == u64::MAX {
        let why = "snapshot stores no path profiles, which this release requires — rebuild \
                   the cache and save it again";
        return Err(GraphError::snapshot(24, why));
    }
    if (profile_max_len, profile_work_cap) != (shape.max_len as u64, shape.work_cap) {
        let why = format!(
            "snapshot's path profiles were enumerated under max_len {profile_max_len}, \
             work_cap {profile_work_cap}; this release's query index uses max_len {}, \
             work_cap {} — rebuild the cache and save it again",
            shape.max_len, shape.work_cap
        );
        return Err(GraphError::snapshot(24, why));
    }

    // META: optional policy name, then the dataset identity.
    let (meta, meta_at) = s.get(SEC_META, "meta")?;
    let mut mc = Cursor::new(meta, meta_at);
    let policy_len = mc.word::<u64>("policy length")? as usize;
    let policy = std::str::from_utf8(mc.take(policy_len, "policy name")?)
        .map_err(|_| GraphError::snapshot(meta_at + 8, "policy name not UTF-8"))?;
    let dataset = DatasetIdentity {
        graphs: mc.word("dataset graph count")?,
        fold: mc.word("dataset fold")?,
    };
    mc.finish("meta")?;

    // Fixed-width columns, then arenas sized by the count columns' sums.
    let serials: Vec<u64> = s.column(SEC_SERIALS, "serials", n)?;
    let fingerprints: Vec<u64> = s.column(SEC_FINGERPRINTS, "fingerprints", n)?;
    let kinds: Vec<u8> = s.column(SEC_KINDS, "kinds", n)?;
    let label_counts = s.column(SEC_LABEL_COUNTS, "label counts", n)?;
    let edge_counts = s.column(SEC_EDGE_COUNTS, "edge counts", n)?;
    let answer_lens = s.column(SEC_ANSWER_LENS, "answer lengths", n)?;
    let labels = s.column(SEC_LABELS, "labels", total(&label_counts))?;
    let edges = s.column(SEC_EDGES, "edges", 2 * total(&edge_counts))?;
    let answers: Vec<u32> = s.column(SEC_ANSWERS, "answers", total(&answer_lens))?;
    let edges_at = s.get(SEC_EDGES, "edges")?.1;
    let graphs = read_graphs([&label_counts, &edge_counts, &labels, &edges], edges_at)?;
    // One profile per entry; the stream must end exactly at the section end.
    let (b, at) = s.get(SEC_PROFILE_KEYS, "profile keys")?;
    let profiles = read_profile_keys(b, at, n)?;

    let mut entries = Vec::with_capacity(n);
    let mut ao = 0usize;
    for (i, (graph, profile)) in graphs.into_iter().zip(profiles).enumerate() {
        let kind = match kinds[i] {
            0 => QueryKind::Subgraph,
            1 => QueryKind::Supergraph,
            other => {
                let at = s.get(SEC_KINDS, "kinds")?.1 + i;
                let why = format!("unknown query kind tag {other}");
                return Err(GraphError::snapshot(at, why));
            }
        };
        let answer = answers[ao..ao + answer_lens[i] as usize].iter();
        ao += answer_lens[i] as usize;
        let answer = answer.map(|&id| GraphId(id)).collect();
        entries.push((serials[i], graph, answer, kind, fingerprints[i], profile));
    }

    let mut stats = StatsStore::new();
    let (b, at) = s.get(SEC_STATS, "stats")?;
    for row in read_stats(b, at)? {
        stats.insert(row);
    }
    let (b, at) = s.get(SEC_FRAGMENTS, "fragments")?;
    Ok(PersistedCache {
        entries,
        stats,
        next_serial,
        policy: (!policy.is_empty()).then(|| policy.to_string()),
        dataset,
        fragments: read_fragments(b, at)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_index::fingerprint::iso_hash;
    use gc_index::paths::enumerate_paths;

    fn sample() -> PersistedCache {
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
        let p3 = enumerate_paths(&g3, 4, 5_000_000);
        PersistedCache {
            entries: vec![
                (
                    3,
                    g3,
                    vec![GraphId(0), GraphId(4)],
                    QueryKind::Subgraph,
                    fp3,
                    p3,
                ),
                (
                    9,
                    g9,
                    vec![],
                    QueryKind::Supergraph,
                    fp9,
                    PathProfile::Overflow,
                ),
            ],
            stats,
            next_serial: 42,
            policy: Some("hd".to_string()),
            dataset: DatasetIdentity {
                graphs: 5,
                fold: 0x0123_4567_89ab_cdef,
            },
            fragments: vec![
                PersistedFragment {
                    key: 0xdead_beef_0042_7711,
                    graph: LabeledGraph::from_parts(vec![1, 2, 1], &[(0, 1), (1, 2)]),
                    occs: vec![GraphId(0), GraphId(2)],
                    hits: 3,
                    last_hit: 40,
                    r_total: 9,
                    c_total: 2.25,
                },
                PersistedFragment {
                    key: 7,
                    graph: LabeledGraph::from_parts(vec![4, 4], &[(0, 1)]),
                    occs: vec![GraphId(3)],
                    hits: 0,
                    last_hit: 12,
                    r_total: 0,
                    c_total: 0.0,
                },
            ],
        }
    }

    /// Test helper: re-assembles `image` after `edit` rewrote its
    /// `(id, payload)` sections, with fresh offsets and a fresh checksum.
    fn with_sections(image: &[u8], edit: impl FnOnce(&mut Vec<(u64, Vec<u8>)>)) -> Vec<u8> {
        let body = &image[..image.len() - 8];
        let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let count = word(40) as usize;
        let payload = 48 + count * 24;
        let mut sections: Vec<(u64, Vec<u8>)> = (0..count)
            .map(|i| {
                let row = 48 + i * 24;
                let (o, l) = (word(row + 8) as usize, word(row + 16) as usize);
                (word(row), body[payload + o..payload + o + l].to_vec())
            })
            .collect();
        edit(&mut sections);
        let mut out = body[..40].to_vec();
        out.extend(bytes([sections.len() as u64]));
        let mut offset = 0u64;
        for (id, section) in &sections {
            out.extend(bytes([*id, offset, section.len() as u64]));
            offset += section.len() as u64;
        }
        for (_, section) in &sections {
            out.extend_from_slice(section);
        }
        reseal(out)
    }

    /// Test helper: `image` with one section's payload edited.
    fn edit_section(image: &[u8], id: u64, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        with_sections(image, |sections| {
            let (_, bytes) = sections.iter_mut().find(|(i, _)| *i == id).unwrap();
            edit(bytes);
        })
    }

    /// Test helper: appends a recomputed checksum to an image body.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body);
        body.extend(bytes([sum]));
        body
    }

    /// Test helper: `image` with the `u64` at byte `at` set to `v`.
    fn with_word(image: &[u8], at: usize, v: u64) -> Vec<u8> {
        let mut body = image[..image.len() - 8].to_vec();
        body[at..at + 8].copy_from_slice(&v.to_le_bytes());
        reseal(body)
    }

    fn err_text(image: &[u8]) -> String {
        match decode(image) {
            Err(e @ GraphError::Snapshot { .. }) => e.to_string(),
            other => panic!("expected GraphError::Snapshot, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let orig = sample();
        let bytes = encode(&orig);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.next_serial, 42);
        assert_eq!(back.policy.as_deref(), Some("hd"));
        assert_eq!(back.dataset, orig.dataset);
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
        assert_eq!(back.entries[0].5.counts(), orig.entries[0].5.counts());
        assert!(back.entries[1].5.counts().is_none(), "overflow survives");
    }

    /// An image without the PROFILE_KEYS section (header `u64::MAX`, as
    /// earlier releases wrote for a state without profiles), or whose
    /// profiles were enumerated under another path shape, is refused with
    /// a typed error that says to rebuild the cache.
    #[test]
    fn snapshot_without_query_index_profiles_is_refused() {
        let good = encode(&sample());
        let without = with_sections(&with_word(&good, 24, u64::MAX), |s| {
            s.retain(|(id, _)| *id != SEC_PROFILE_KEYS)
        });
        let err = err_text(&without);
        assert!(
            err.contains("no path profiles") && err.contains("rebuild"),
            "{err}"
        );
        let shape = QUERY_INDEX_SHAPE;
        for image in [
            with_word(&good, 24, shape.max_len as u64 + 1),
            with_word(&good, 32, shape.work_cap / 2),
        ] {
            let err = err_text(&image);
            assert!(
                err.contains("enumerated under") && err.contains("rebuild"),
                "{err}"
            );
        }
        // A header that names the shape but a missing section.
        let bad = with_sections(&good, |s| s.retain(|(id, _)| *id != SEC_PROFILE_KEYS));
        assert!(err_text(&bad).contains("missing profile keys"));
    }

    #[test]
    fn encoding_is_deterministic() {
        // Identical caches encode to identical bytes (sorted stats rows,
        // sorted profile features, canonical edge order) — the property
        // the byte-identical re-save test in tests/persistence.rs pins
        // end-to-end.
        let a = encode(&sample());
        let b = encode(&sample());
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
        assert_eq!(back.dataset, DatasetIdentity::default());
    }

    #[test]
    fn corruption_yields_typed_errors_not_panics() {
        let good = encode(&sample());

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
        let mut body = good[..good.len() - 8].to_vec();
        body[0] = b'X';
        assert!(err_text(&reseal(body.clone())).contains("magic"));

        // The earlier format's magic is named, with the way out.
        body[..8].copy_from_slice(b"GCSNAP01");
        let err = err_text(&reseal(body));
        assert!(
            err.contains("earlier release") && err.contains("rebuild"),
            "{err}"
        );
    }

    #[test]
    fn malformed_sections_rejected_after_checksum_fixup() {
        // Deeper validation than the checksum: mutate the image, then
        // recompute the trailer so the section checks themselves fire.
        let good = encode(&sample());

        // Entry count inflated: column-length checks fire.
        assert!(err_text(&with_word(&good, 16, 999)).contains("expected 999"));

        // Kind byte out of range.
        let bad = edit_section(&good, SEC_KINDS, |b| b[0] = 7);
        assert!(err_text(&bad).contains("kind"));

        // Edge endpoint out of node range, in an entry and in a fragment
        // (one graph reader serves both).
        let bad = edit_section(&good, SEC_EDGES, |b| b[..4].copy_from_slice(&[0xff; 4]));
        assert!(err_text(&bad).contains("endpoint"));
        let bad = edit_section(&good, SEC_FRAGMENTS, |b| {
            // Count, five u64 columns and three u32 columns of two
            // fragments, then five labels: the first edge word.
            let edges_at = 8 + 5 * 16 + 3 * 8 + 5 * 4;
            b[edges_at..edges_at + 4].copy_from_slice(&9u32.to_le_bytes());
        });
        assert!(err_text(&bad).contains("endpoint"));

        // STATS: a length that is not whole rows, and serials that do not
        // ascend.
        let bad = edit_section(&good, SEC_STATS, |b| b.extend_from_slice(&[0; 8]));
        assert!(err_text(&bad).contains("multiple of 40"));
        let bad = edit_section(&good, SEC_STATS, |b| b.push(0));
        assert!(err_text(&bad).contains("multiple of 40"));
        let bad = edit_section(&good, SEC_STATS, |b| {
            b[8..16].copy_from_slice(&3u64.to_le_bytes())
        });
        assert!(err_text(&bad).contains("ascending"));

        // FRAGMENTS: a count past the section, fixed columns cut short,
        // and an occurrence arena shorter or longer than its lengths say.
        let bad = edit_section(&good, SEC_FRAGMENTS, |b| {
            b[..8].copy_from_slice(&u64::MAX.to_le_bytes())
        });
        assert!(err_text(&bad).contains("truncated fragment columns"));
        let bad = edit_section(&good, SEC_FRAGMENTS, |b| b.truncate(40));
        assert!(err_text(&bad).contains("truncated"));
        let bad = edit_section(&good, SEC_FRAGMENTS, |b| b.truncate(b.len() - 4));
        assert!(err_text(&bad).contains("truncated occurrence arena"));
        let bad = edit_section(&good, SEC_FRAGMENTS, |b| b.extend_from_slice(&[0; 4]));
        assert!(err_text(&bad).contains("trailing bytes after occurrence arena"));

        // A missing section.
        let bad = with_sections(&good, |s| s.retain(|(id, _)| *id != SEC_STATS));
        assert!(err_text(&bad).contains("missing stats"));
    }

    #[test]
    fn profile_keys_must_ascend() {
        let orig = sample();
        let counts = orig.entries[0].5.counts().unwrap();
        assert!(counts.len() >= 2);
        let mut words = vec![counts.len() as u32];
        for &(key, count) in counts.iter().rev() {
            words.extend([key as u32, (key >> 32) as u32, count]);
        }
        words.push(u32::MAX);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let image = edit_section(&encode(&orig), SEC_PROFILE_KEYS, |b| *b = bytes);
        assert!(err_text(&image).contains("ascending"));
    }

    /// A 56-byte image whose header claims `u64::MAX` sections is refused
    /// before anything is allocated for its section table.
    #[test]
    fn section_count_is_bounded_by_the_image() {
        let mut body = MAGIC.to_vec();
        body.extend(bytes([1, 0, u64::MAX, 0, u64::MAX]));
        let image = reseal(body);
        assert_eq!(image.len(), 56);
        assert!(err_text(&image).contains("truncated section table"));
    }

    /// Structure-aware mutation: every header and section-table word of
    /// valid images, overwritten with 0, 1, `u64::MAX` or a pseudo-random
    /// value under a recomputed checksum, decodes to `Ok` or `Err` and
    /// never panics.
    #[test]
    fn mutated_header_words_never_panic() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let empty = PersistedCache::default();
        for image in [encode(&sample()), encode(&empty)] {
            let count = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
            let words = 5 + 3 * count;
            for w in 0..words {
                let at = 8 + 8 * w;
                for v in [0, 1, u64::MAX, random(), random() % 4096] {
                    let _ = decode(&with_word(&image, at, v));
                }
            }
        }
    }
}
