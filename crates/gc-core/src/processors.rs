//! The GraphCache<sub>sub</sub> / GraphCache<sub>super</sub> processors
//! (paper §5.1): turn the query index's candidate slots into *verified* hit
//! sets by running sub-iso tests against the cached query graphs.
//!
//! # The hit-detection pipeline
//!
//! Hit detection only pays off while it costs far less than running the
//! query uncached (§5), so candidate verification is organised as two
//! layers, cheapest first:
//!
//! 1. **Exact fingerprint probe** ([`exact_probe`]) — every cached entry
//!    carries an isomorphism-invariant fingerprint
//!    ([`gc_index::fingerprint::iso_hash`]) keyed in a per-shard
//!    `fingerprint → slots` map. An incoming query resolves exact
//!    (isomorphic) repeats with one hash lookup plus one iso
//!    *confirmation* — and needs nothing else: the probe reads the graph
//!    and its fingerprint only, so the query path calls it before it has
//!    enumerated the query's path profile and, on a hit, never does.
//! 2. **Cost-ordered, budget-arbitrated sweep** ([`sweep`]) — the miss
//!    path, run after Method M's filter so it knows `CS_M`. It continues
//!    the probe's budget pool and skips the serials the probe already
//!    refuted. Sub/super candidates from all shards merge into a single
//!    queue scored by [`gc_subiso::cost::estimate`] and are verified
//!    cheapest-first. A candidate enters the queue only if, as a hit, it
//!    could remove something from `CS_M` ([`pruner::can_prune`], by its
//!    [`pruner::role`]): an expanding candidate needs a non-empty answer
//!    inside `CS_M`, a restricting one an answer that misses part of
//!    `CS_M`, and an empty `CS_M` runs no sweep. Same-size candidates are
//!    prefiltered by fingerprint (equal-size containment is isomorphism,
//!    so a fingerprint mismatch proves a non-hit without any search) and
//!    always tested, as they hit both ways. A shared verification work
//!    pool ([`VerifyOptions::budget`]) deducts every test's
//!    `nodes_expanded`; when it runs dry the sweep degrades gracefully to
//!    a partial [`HitSet`] with [`truncated`](HitSet::truncated) set, and
//!    the sweep stops early once the request's hit budget
//!    ([`VerifyOptions::max_hits`]) is satisfied.
//!
//! The query pipeline (`query.rs`) calls [`exact_probe`] and, on a miss,
//! runs Method M's filter and hands its candidates and the probe's
//! refutations to [`sweep`].
//! [`HitSet`] serial lists are always sorted, making the output canonical
//! across shard counts. [`find_hits_naive`] keeps
//! the original flat per-shard sweep, which tests every candidate, as the
//! parity oracle (`tests/hit_path.rs`) and the baseline of
//! `benches/hit_path.rs`.

use crate::entry::CacheSnapshot;
use crate::pruner::{self, can_prune};
use crate::query_index::Probe;
use crate::stats::QuerySerial;
use gc_graph::idset::IdSet;
use gc_graph::LabeledGraph;
use gc_index::fingerprint::iso_hash;
use gc_index::fx::{FxHashMap, FxHashSet};
use gc_index::paths::PathProfile;
use gc_methods::QueryKind;
use gc_subiso::{cost, MatchConfig, Matcher};

/// Verified cache hits for one new query.
#[derive(Debug, Clone, Default)]
pub struct HitSet {
    /// Serials of cached queries `q` with `g ⊆ q` — `Result_sub(g)`.
    /// Sorted ascending (canonical across shard counts).
    pub sub: Vec<QuerySerial>,
    /// Serials of cached queries `q` with `q ⊆ g` — `Result_super(g)`.
    /// Sorted ascending.
    pub super_: Vec<QuerySerial>,
    /// A cached query isomorphic to `g`, when one exists (the first special
    /// case of §5.1). The smallest confirmed serial, so the pick is
    /// deterministic when several isomorphic copies are cached.
    pub exact: Option<QuerySerial>,
    /// Number of sub-iso tests spent verifying sweep candidates. Exact
    /// fingerprint *confirmations* are not counted here (their work still
    /// lands in [`work`](Self::work)): an exact repeat resolved through the
    /// fingerprint map completes with `tests == 0`.
    pub tests: u64,
    /// Total matcher work (recursion steps) spent on this query's hit
    /// detection, confirmations included — what the verification budget
    /// pool deducts.
    pub work: u64,
    /// The shared verification budget ran dry before every candidate was
    /// verified: the hit sets are a (still sound) subset of the full sweep.
    pub truncated: bool,
    /// The exact hit was resolved through the fingerprint map (as opposed
    /// to falling out of a full candidate sweep, as the naive path does).
    pub exact_via_fingerprint: bool,
    /// The per-query deadline expired mid-sweep: the hit sets are a sound
    /// subset, cut short by wall-clock time rather than the work pool.
    /// Implies [`truncated`](Self::truncated).
    pub deadline_exceeded: bool,
}

/// The query-side inputs of hit detection, bundled so the profile and
/// fingerprint are computed once per query and reused across shards (and
/// later for Window admission). The query path builds it field by field
/// with the fingerprint its [`exact_probe`] already computed, so a query
/// is hashed once.
#[derive(Debug, Clone, Copy)]
pub struct HitQuery<'a> {
    /// The incoming query graph.
    pub query: &'a LabeledGraph,
    /// The direction its answer is requested under.
    pub kind: QueryKind,
    /// The query's path-feature profile under the snapshot's index config.
    pub profile: &'a PathProfile,
    /// The query's iso fingerprint ([`iso_hash`]).
    pub fingerprint: u64,
}

impl<'a> HitQuery<'a> {
    /// Bundles a query with a precomputed profile, hashing the fingerprint.
    pub fn new(query: &'a LabeledGraph, kind: QueryKind, profile: &'a PathProfile) -> Self {
        HitQuery {
            query,
            kind,
            profile,
            fingerprint: iso_hash(query),
        }
    }
}

/// Knobs of the verification sweep. The default reproduces the full
/// (unbounded) sweep with the fingerprint fast path active.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Shared verification work pool for the whole query: every matcher
    /// test (confirmations included) deducts its `nodes_expanded`, and
    /// tests are clipped to the remaining pool. `None` = unbounded. When
    /// the pool runs dry the sweep stops and the result is marked
    /// [`truncated`](HitSet::truncated) — still sound, just fewer hits.
    pub budget: Option<u64>,
    /// The request's hit budget: stop verifying as soon as this many hits
    /// (sub + super together) have been confirmed. `None` = find them all.
    /// Early exit is not truncation — the caller asked for at most this.
    pub max_hits: Option<usize>,
    /// Wall-clock deadline for the sweep, checked at the same arbitration
    /// points as the work pool (between matcher tests, never inside one).
    /// Expiry stops the sweep with
    /// [`deadline_exceeded`](HitSet::deadline_exceeded) set. `None` =
    /// no deadline.
    pub deadline: Option<std::time::Instant>,
    /// Restricts the candidate sweep to these serials (must be sorted
    /// ascending; use [`candidate_serials`] to enumerate the full set).
    /// The exact fingerprint probe is *not* restricted — an exact answer
    /// supersedes pruning and costs O(1) to confirm. Restriction only ever
    /// removes candidates, so the result is always a sound subset: fewer
    /// hits mean less pruning, never a wrong answer. `None` = no filter.
    ///
    /// This is the routed fleet's merge point: the `gc route` front-end
    /// probes every peer for its slice of the candidate space and passes
    /// the merged serial set here, so a query executed on one peer sweeps
    /// exactly the candidates the whole fleet would. With every peer live
    /// the union covers the full set and the filter is a no-op (counter
    /// parity with a single process); a dead peer's slice is simply absent
    /// (degraded to miss-only).
    pub allowed: Option<Vec<QuerySerial>>,
}

/// Which direction a queued candidate is verified in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dir {
    /// `query ⊆ candidate` (candidate strictly larger).
    Sub,
    /// `candidate ⊆ query` (candidate strictly smaller).
    Super,
    /// Same size with matching fingerprint: one test decides isomorphism,
    /// i.e. both directions at once.
    Iso,
}

/// One entry of the ordered verification queue.
struct Cand<'a> {
    entry: &'a std::sync::Arc<crate::entry::CacheEntry>,
    dir: Dir,
    cost: f64,
}

/// The repeats in a sequence of `(kind, fingerprint, graph)` items: pairs
/// `(i, j)` with `j < i` where item `i` is isomorphic to the earlier item
/// `j` of the same kind (the first such `j`). Items are bucketed by kind,
/// fingerprint and node/edge count — isomorphic graphs share all four —
/// and an item is confirmed only against its bucket's earlier
/// non-repeats, one unbounded matcher test each, so a sequence without
/// fingerprint collisions runs no test at all. Backs the Window's in-batch
/// dedup, the restore dedup and the duplicates invariant.
pub(crate) fn isomorphic_repeats<'a>(
    items: impl IntoIterator<Item = (QueryKind, u64, &'a LabeledGraph)>,
    matcher: &dyn Matcher,
) -> Vec<(usize, usize)> {
    type Key = (bool, u64, usize, usize);
    let mut firsts: FxHashMap<Key, Vec<(usize, &LabeledGraph)>> = FxHashMap::default();
    let mut repeats = Vec::new();
    for (i, (kind, fingerprint, graph)) in items.into_iter().enumerate() {
        let key = (
            kind == QueryKind::Subgraph,
            fingerprint,
            graph.node_count(),
            graph.edge_count(),
        );
        let bucket = firsts.entry(key).or_default();
        match bucket
            .iter()
            .find(|(_, first)| matcher.contains(graph, first))
        {
            Some(&(j, _)) => repeats.push((i, j)),
            None => bucket.push((i, graph)),
        }
    }
    repeats
}

/// What [`exact_probe`] found, handed on to [`sweep`] on a miss.
#[derive(Debug, Clone, Default)]
pub struct ExactProbe {
    /// The hit set so far: [`exact`](HitSet::exact) and
    /// [`exact_via_fingerprint`](HitSet::exact_via_fingerprint), the
    /// confirmation [`work`](HitSet::work), and whether the budget pool or
    /// the deadline cut the probe short. `tests` is 0 and the serial lists
    /// are empty.
    pub hits: HitSet,
    /// Same-size, same-kind, same-fingerprint serials a confirmation test
    /// refuted, ascending: collisions the sweep must not test again.
    refuted: Vec<QuerySerial>,
}

/// Stage (1): probe each shard's fingerprint map for `fingerprint` (the
/// query's [`iso_hash`]), keep the slots of the same kind and size — on the
/// packed columns, before any entry is dereferenced — and confirm them in
/// ascending serial order until the first isomorphism, which is the exact
/// hit. Equal node and edge counts make containment isomorphism (§5.1), so
/// one directed test confirms. Confirmations draw on the budget pool and
/// stop at the deadline like sweep tests, but are not counted in
/// [`tests`](HitSet::tests). Needs no path profile.
pub fn exact_probe(
    snapshot: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    fingerprint: u64,
    matcher: &dyn Matcher,
    opts: &VerifyOptions,
) -> ExactProbe {
    let mut hits = HitSet::default();
    let size = (query.node_count() as u32, query.edge_count() as u32);
    let mut pool: Option<u64> = opts.budget;
    let mut bucket: Vec<&std::sync::Arc<crate::entry::CacheEntry>> = Vec::new();
    for shard in snapshot.shards() {
        for &slot in shard.exact_slots(fingerprint) {
            if shard.kind_at(slot) != kind || shard.size_at(slot) != size {
                continue;
            }
            if let Some(entry) = shard.entry_at(slot) {
                bucket.push(entry);
            }
        }
    }
    bucket.sort_unstable_by_key(|e| e.serial);
    let mut refuted: Vec<QuerySerial> = Vec::new();
    for entry in bucket {
        if pool == Some(0) {
            hits.truncated = true;
            break;
        }
        if deadline_expired(opts) {
            hits.truncated = true;
            hits.deadline_exceeded = true;
            break;
        }
        let out = matcher.contains_with(query, &entry.graph, &MatchConfig { budget: pool });
        hits.work += out.nodes_expanded;
        if let Some(p) = &mut pool {
            *p = p.saturating_sub(out.nodes_expanded);
        }
        if out.found {
            hits.exact = Some(entry.serial);
            hits.exact_via_fingerprint = true;
            break;
        }
        // The pool is a hit test's only bound: an incomplete search ran it
        // dry.
        if !out.complete {
            hits.truncated = true;
            break;
        }
        refuted.push(entry.serial); // stays sorted: bucket is serial-ordered
    }
    ExactProbe { hits, refuted }
}

/// Stages (2)–(4), the miss path: gather sub/super candidates from every
/// shard, keep those that could prune `cs_m` (Method M's candidates for
/// the query), order them by estimated cost and verify them under what is
/// left of the budget pool after `probe`. Serials the probe refuted are
/// not tested again; the one it confirmed counts as a hit in both
/// directions without a test. An empty `cs_m` tests nothing.
pub fn sweep(
    snapshot: &CacheSnapshot,
    hq: &HitQuery<'_>,
    probe: ExactProbe,
    cs_m: &IdSet,
    matcher: &dyn Matcher,
    opts: &VerifyOptions,
) -> HitSet {
    let ExactProbe { mut hits, refuted } = probe;
    if cs_m.is_empty() {
        return finalize(hits); // no hit can remove a candidate
    }
    let (sub_role, super_role) = (pruner::role(hq.kind, true), pruner::role(hq.kind, false));
    let qn = hq.query.node_count();
    let qm = hq.query.edge_count();
    // Saturating deductions in sequence leave max(0, budget − Σ work).
    let pool = opts.budget.map(|b| b.saturating_sub(hits.work));

    // (2) Gather candidates from every shard into one queue, scored by the
    // paper's §5.2 cost estimate. Same-size candidates reduce to potential
    // isomorphisms, so the fingerprint prefilters them for free; they only
    // ever surface through the sub list (isomorphism implies identical
    // feature profiles, and overflow entries are conservative in both
    // directions), so the super list's same-size slots are skipped.
    //
    // Strictly larger and strictly smaller candidates whose answer could
    // not prune CS_M in their role are dropped before they are scored.
    //
    // The candidate pass and the gather run on the shard's packed columns
    // (size, signature, kind, fingerprint, distinct-label count): a linear
    // pass over contiguous arrays. An entry is dereferenced only by a slot
    // whose size and signature survive (for the profile merge) and by a
    // candidate that survives every prefilter (for its serial, answer and
    // graph).
    let mut queue: Vec<Cand<'_>> = Vec::new();
    // Candidate restriction (routed mode): serials outside the allow set
    // never enter the queue (a sorted list and a binary search).
    let allow = opts.allowed.as_deref();
    let permitted = |serial: QuerySerial| match allow {
        None => true,
        Some(list) => list.binary_search(&serial).is_ok(),
    };
    let filter = Probe::new(hq.profile, (qn as u32, qm as u32));
    for shard in snapshot.shards() {
        let cands = shard.candidates(&filter);
        for &slot in &cands.sub {
            if shard.kind_at(slot) != hq.kind {
                continue;
            }
            // Candidate slots are always live: the pass skips tombstones.
            let Some(entry) = shard.entry_at(slot).filter(|e| permitted(e.serial)) else {
                continue;
            };
            let (cn, cm) = shard.size_at(slot);
            // Identical to `cost::estimate(query, candidate)`: the packed
            // column holds the candidate's precomputed distinct-label count.
            let cost =
                cost::estimate_raw(qn as u64, cn as u64, shard.distinct_labels_at(slot) as u64);
            let dir = if (cn, cm) == (qn as u32, qm as u32) {
                if shard.fingerprint_at(slot) != hq.fingerprint {
                    continue; // iso-invariant mismatch proves a non-hit
                }
                if hits.exact == Some(entry.serial) {
                    // Confirmed isomorphic by the probe: a hit in both
                    // directions, no further test needed.
                    hits.sub.push(entry.serial);
                    hits.super_.push(entry.serial);
                    continue;
                }
                if refuted.binary_search(&entry.serial).is_ok() {
                    continue; // probe already disproved this one
                }
                Dir::Iso
            } else if can_prune(sub_role, cs_m, &entry.answer) {
                Dir::Sub
            } else {
                continue;
            };
            queue.push(Cand { entry, dir, cost });
        }
        for &slot in &cands.super_ {
            let (cn, cm) = shard.size_at(slot);
            if shard.kind_at(slot) != hq.kind || (cn, cm) == (qn as u32, qm as u32) {
                continue; // same-size: handled through the sub list above
            }
            let Some(entry) = shard
                .entry_at(slot)
                .filter(|e| permitted(e.serial) && can_prune(super_role, cs_m, &e.answer))
            else {
                continue;
            };
            queue.push(Cand {
                entry,
                dir: Dir::Super,
                // The query is the *target* of a Super-direction test.
                cost: cost::estimate_raw(
                    cn as u64,
                    qn as u64,
                    hq.query.distinct_label_count() as u64,
                ),
            });
        }
    }

    // (3) Cheapest first; serial then direction break ties so the order —
    // and therefore budgeted truncation — is deterministic.
    queue.sort_unstable_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.entry.serial.cmp(&b.entry.serial))
            .then(a.dir.cmp(&b.dir))
    });

    // (4) Verify under the shared pool, early-exiting on the hit budget.
    verify_queue(&queue, hq, matcher, pool, opts, &mut hits);
    finalize(hits)
}

/// Enumerates the serials [`sweep`] would
/// consider for this query — the same packed-column prefilters (kind
/// match; same-size slots require fingerprint equality; the super list's
/// same-size slots are skipped) with no matcher tests, no budget
/// accounting and no statistics side effects. Each serial is paired with
/// the candidate entry's iso fingerprint so a routed peer can keep only
/// the slice of the fingerprint space it owns.
///
/// The result is sorted ascending and deduplicated, so slice-filtered
/// lists from N peers holding identical replicas merge back into exactly
/// this set — the property the router's [`VerifyOptions::allowed`] merge
/// relies on for single-process counter parity.
pub fn candidate_serials(snapshot: &CacheSnapshot, hq: &HitQuery<'_>) -> Vec<(QuerySerial, u64)> {
    let qn = hq.query.node_count() as u32;
    let qm = hq.query.edge_count() as u32;
    let probe = Probe::new(hq.profile, (qn, qm));
    let mut out: Vec<(QuerySerial, u64)> = Vec::new();
    for shard in snapshot.shards() {
        let cands = shard.candidates(&probe);
        let mut keep = |slot: u32| {
            if let Some(entry) = shard.entry_at(slot) {
                out.push((entry.serial, shard.fingerprint_at(slot)));
            }
        };
        for &slot in &cands.sub {
            if shard.kind_at(slot) != hq.kind {
                continue;
            }
            let same_size = shard.size_at(slot) == (qn, qm);
            if same_size && shard.fingerprint_at(slot) != hq.fingerprint {
                continue; // iso-invariant mismatch proves a non-hit
            }
            keep(slot);
        }
        for &slot in &cands.super_ {
            if shard.kind_at(slot) != hq.kind {
                continue;
            }
            if shard.size_at(slot) == (qn, qm) {
                continue; // same-size: only ever surfaces through the sub list
            }
            keep(slot);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Counts a verified hit into the set. An iso candidate hits both
/// directions at once (and backstops `exact`, though the probe normally
/// resolved it first).
fn apply_hit(hits: &mut HitSet, dir: Dir, serial: QuerySerial) {
    match dir {
        Dir::Sub => hits.sub.push(serial),
        Dir::Super => hits.super_.push(serial),
        Dir::Iso => {
            hits.sub.push(serial);
            hits.super_.push(serial);
            if hits.exact.is_none() {
                hits.exact = Some(serial);
            }
        }
    }
}

/// True once the request's hit budget is satisfied.
fn hit_budget_met(hits: &HitSet, opts: &VerifyOptions) -> bool {
    opts.max_hits
        .is_some_and(|m| hits.sub.len() + hits.super_.len() >= m)
}

/// True once the request's wall-clock deadline has passed.
pub(crate) fn deadline_expired(opts: &VerifyOptions) -> bool {
    opts.deadline
        .is_some_and(|d| std::time::Instant::now() >= d)
}

fn verify_queue(
    queue: &[Cand<'_>],
    hq: &HitQuery<'_>,
    matcher: &dyn Matcher,
    mut pool: Option<u64>,
    opts: &VerifyOptions,
    hits: &mut HitSet,
) {
    for cand in queue {
        if hit_budget_met(hits, opts) {
            break;
        }
        if pool == Some(0) {
            hits.truncated = true;
            break;
        }
        if deadline_expired(opts) {
            hits.truncated = true;
            hits.deadline_exceeded = true;
            break;
        }
        let (pattern, target) = match cand.dir {
            Dir::Sub | Dir::Iso => (hq.query, cand.entry.graph.as_ref()),
            Dir::Super => (cand.entry.graph.as_ref(), hq.query),
        };
        let out = matcher.contains_with(pattern, target, &MatchConfig { budget: pool });
        hits.tests += 1;
        hits.work += out.nodes_expanded;
        if let Some(p) = &mut pool {
            *p = p.saturating_sub(out.nodes_expanded);
        }
        if !out.complete {
            hits.truncated = true;
        }
        if out.found {
            apply_hit(hits, cand.dir, cand.entry.serial);
        }
    }
}

/// Sorts the serial lists so the output is canonical regardless of shard
/// count and verification order.
fn finalize(mut hits: HitSet) -> HitSet {
    hits.sub.sort_unstable();
    hits.super_.sort_unstable();
    hits
}

/// The pre-pipeline reference: a flat per-shard sweep in slot order — no
/// fingerprint fast path, no cost ordering, no budget pool, no early exit.
/// Kept as the parity oracle for `tests/hit_path.rs` and the baseline of
/// `benches/hit_path.rs`. Output is canonicalised exactly like the
/// pipeline's (sorted serials, smallest-serial exact pick).
pub fn find_hits_naive(
    snapshot: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    matcher: &dyn Matcher,
) -> HitSet {
    let profile = snapshot.profile_of(query);
    let mut hits = HitSet::default();
    let qn = query.node_count();
    let qm = query.edge_count();
    let probe = Probe::new(&profile, (qn as u32, qm as u32));
    let mut sub_set: FxHashSet<QuerySerial> = FxHashSet::default();
    for shard in snapshot.shards() {
        let candidates = shard.candidates(&probe);

        for &slot in &candidates.sub {
            let Some(entry) = shard.entry_at(slot) else {
                continue;
            };
            if entry.kind != kind {
                continue;
            }
            let out = matcher.contains_with(query, &entry.graph, &MatchConfig::UNBOUNDED);
            hits.tests += 1;
            hits.work += out.nodes_expanded;
            if out.found {
                hits.sub.push(entry.serial);
                sub_set.insert(entry.serial);
                if entry.graph.node_count() == qn && entry.graph.edge_count() == qm {
                    // Smallest serial wins, matching the pipeline's pick.
                    hits.exact = Some(hits.exact.map_or(entry.serial, |e| e.min(entry.serial)));
                }
            }
        }
        for &slot in &candidates.super_ {
            let Some(entry) = shard.entry_at(slot) else {
                continue;
            };
            if entry.kind != kind {
                continue;
            }
            // Same-size slots were already decided by the sub pass:
            // containment in either direction at equal size is isomorphism.
            let same_size = entry.graph.node_count() == qn && entry.graph.edge_count() == qm;
            if same_size {
                if sub_set.contains(&entry.serial) {
                    hits.super_.push(entry.serial);
                }
                continue;
            }
            let out = matcher.contains_with(&entry.graph, query, &MatchConfig::UNBOUNDED);
            hits.tests += 1;
            hits.work += out.nodes_expanded;
            if out.found {
                hits.super_.push(entry.serial);
            }
        }
    }
    finalize(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CacheEntry;
    use crate::pruner::{prune, HitAnswer, Role};
    use gc_graph::GraphId;
    use gc_subiso::Vf2;
    use std::sync::Arc;

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    fn snapshot_of_kind(graphs: Vec<LabeledGraph>, kind: QueryKind) -> CacheSnapshot {
        let entries = graphs
            .into_iter()
            .enumerate()
            .map(|(i, graph)| {
                let profile = gc_index::paths::enumerate_paths(&graph, 4, u64::MAX);
                Arc::new(CacheEntry::new(
                    (i as u64 + 1) * 100,
                    Arc::new(graph),
                    vec![GraphId(i as u32)],
                    kind,
                    profile,
                ))
            })
            .collect();
        CacheSnapshot::build(entries)
    }

    fn snapshot(graphs: Vec<LabeledGraph>) -> CacheSnapshot {
        snapshot_of_kind(graphs, QueryKind::Subgraph)
    }

    /// Method M's candidates in the tests below that do not gate: every
    /// id an entry's answer can hold and one more, so each expanding
    /// answer lies inside and no one-id restricting answer covers it.
    fn open_cs_m() -> IdSet {
        IdSet::from_sorted(gc_graph::idset::full(8), 8)
    }

    /// The fingerprint probe, then the sweep it hands its refutations to.
    fn pipeline(snap: &CacheSnapshot, hq: &HitQuery<'_>, opts: &VerifyOptions) -> HitSet {
        gated(snap, hq, &open_cs_m(), opts)
    }

    /// [`pipeline`] with Method M's candidates `cs_m`.
    fn gated(
        snap: &CacheSnapshot,
        hq: &HitQuery<'_>,
        cs_m: &IdSet,
        opts: &VerifyOptions,
    ) -> HitSet {
        let vf2 = Vf2::new();
        let probe = exact_probe(snap, hq.query, hq.kind, hq.fingerprint, &vf2, opts);
        sweep(snap, hq, probe, cs_m, &vf2, opts)
    }

    /// One entry of `kind` per `(graph, answer)`, serials 100, 200, ….
    fn snapshot_with_answers(
        entries: Vec<(LabeledGraph, &[u32])>,
        kind: QueryKind,
    ) -> CacheSnapshot {
        let entries = entries
            .into_iter()
            .enumerate()
            .map(|(i, (graph, answer))| {
                let profile = gc_index::paths::enumerate_paths(&graph, 4, u64::MAX);
                let answer = answer.iter().copied().map(GraphId).collect();
                Arc::new(CacheEntry::new(
                    (i as u64 + 1) * 100,
                    Arc::new(graph),
                    answer,
                    kind,
                    profile,
                ))
            })
            .collect();
        CacheSnapshot::build(entries)
    }

    fn id_set(ids: &[u32]) -> IdSet {
        IdSet::from_sorted(ids.iter().copied().map(GraphId).collect(), 8)
    }

    /// What pruning `cs_m` with the one hit `serial` in `role` removes.
    fn removed_by(
        snap: &CacheSnapshot,
        serial: QuerySerial,
        role: Role,
        cs_m: &IdSet,
    ) -> Vec<GraphId> {
        let hit = [HitAnswer {
            serial,
            answer: &snap.entry(serial).expect("cached").answer,
        }];
        let pruned = match role {
            Role::Expanding => prune(cs_m, &hit, &[]),
            Role::Restricting => prune(cs_m, &[], &hit),
        };
        pruned.contributions[0].removed.clone()
    }

    /// For both query kinds, the candidate that expands the query: one
    /// with an empty answer and one whose answer leaves CS_M are not
    /// tested, one whose answer lies inside it is tested and hits. Pruning
    /// with the empty-answer hit removes nothing; the other skip cannot
    /// be a hit when CS_M comes from a filter that keeps every answer
    /// (its answer is forged here).
    #[test]
    fn sweep_tests_no_expanding_candidate_that_cannot_prune() {
        let g = path_graph(&[0, 1, 0]);
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            // The expanding side: containers of g for a subgraph query,
            // graphs inside g for a supergraph query.
            let expanding = match kind {
                QueryKind::Subgraph => path_graph(&[0, 1, 0, 1]),
                QueryKind::Supergraph => path_graph(&[0, 1]),
            };
            let cs_m = id_set(&[1, 2, 3]);
            for (answer, tested) in [(&[][..], false), (&[2, 5][..], false), (&[2, 3][..], true)] {
                let snap = snapshot_with_answers(vec![(expanding.clone(), answer)], kind);
                let profile = snap.profile_of(&g);
                let hq = HitQuery::new(&g, kind, &profile);
                let hits = gated(&snap, &hq, &cs_m, &VerifyOptions::default());
                assert_eq!(hits.tests, u64::from(tested), "{kind:?}, answer {answer:?}");
                let found = !hits.sub.is_empty() || !hits.super_.is_empty();
                assert_eq!(found, tested, "{kind:?}, answer {answer:?}");
                // Tested, every one of them hits.
                let naive = find_hits_naive(&snap, &g, kind, &Vf2::new());
                assert_eq!((naive.tests, naive.sub.len() + naive.super_.len()), (1, 1));
                if answer.is_empty() {
                    assert!(removed_by(&snap, 100, Role::Expanding, &cs_m).is_empty());
                }
            }
        }
    }

    /// For both query kinds, the candidate that restricts the query is not
    /// tested when its answer covers CS_M — pruning with it removes
    /// nothing — and is tested when it misses part of CS_M.
    #[test]
    fn sweep_tests_no_restricting_candidate_that_covers_cs_m() {
        let g = path_graph(&[0, 1, 0]);
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let restricting = match kind {
                QueryKind::Subgraph => path_graph(&[0, 1]),
                QueryKind::Supergraph => path_graph(&[0, 1, 0, 1]),
            };
            for cs in [&[1, 2][..], &[0, 1, 2, 3, 4, 5]] {
                let cs_m = id_set(cs);
                for (answer, tested) in [
                    (cs, false),
                    (&[0, 1, 2, 3, 4, 5, 6][..], false),
                    (&cs[1..], true),
                ] {
                    let snap = snapshot_with_answers(vec![(restricting.clone(), answer)], kind);
                    let profile = snap.profile_of(&g);
                    let hq = HitQuery::new(&g, kind, &profile);
                    let hits = gated(&snap, &hq, &cs_m, &VerifyOptions::default());
                    assert_eq!(
                        hits.tests,
                        u64::from(tested),
                        "{kind:?}, CS_M {cs:?}, answer {answer:?}"
                    );
                    let removed = removed_by(&snap, 100, Role::Restricting, &cs_m);
                    assert_eq!(removed.is_empty(), !tested, "{kind:?}, answer {answer:?}");
                }
            }
        }
    }

    /// Same-size candidates hit both ways, so the gate keeps them: an
    /// isomorphic copy the probe left unconfirmed is tested though its
    /// empty answer could not expand anything.
    #[test]
    fn sweep_keeps_iso_candidates() {
        let g = path_graph(&[0, 1, 0]);
        let snap = snapshot_with_answers(
            vec![(g.clone(), &[1]), (g.clone(), &[])],
            QueryKind::Subgraph,
        );
        let profile = snap.profile_of(&g);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let hits = gated(&snap, &hq, &id_set(&[1, 2]), &VerifyOptions::default());
        assert_eq!(hits.exact, Some(100));
        assert_eq!(hits.tests, 1, "the second copy is tested");
        assert_eq!(
            (hits.sub.clone(), hits.super_.clone()),
            (vec![100, 200], vec![100, 200])
        );
    }

    /// An empty CS_M leaves nothing to prune: the sweep runs no test.
    #[test]
    fn empty_cs_m_runs_no_gc_test() {
        let snap = snapshot(vec![path_graph(&[0, 1, 0, 1]), path_graph(&[0, 1])]);
        let g = path_graph(&[0, 1, 0]);
        let profile = snap.profile_of(&g);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let none = gated(&snap, &hq, &id_set(&[]), &VerifyOptions::default());
        assert_eq!((none.tests, none.work), (0, 0));
        assert!(none.sub.is_empty() && none.super_.is_empty() && !none.truncated);
        assert_eq!(pipeline(&snap, &hq, &VerifyOptions::default()).tests, 2);
    }

    fn run_opts(snap: &CacheSnapshot, g: &LabeledGraph, opts: &VerifyOptions) -> HitSet {
        let profile = snap.profile_of(g);
        pipeline(snap, &HitQuery::new(g, QueryKind::Subgraph, &profile), opts)
    }

    /// The unbounded pipeline for a query of `kind`.
    fn hits_of(snap: &CacheSnapshot, g: &LabeledGraph, kind: QueryKind) -> HitSet {
        let profile = snap.profile_of(g);
        pipeline(
            snap,
            &HitQuery::new(g, kind, &profile),
            &VerifyOptions::default(),
        )
    }

    /// The fingerprint probe alone, as the query path runs it first.
    fn probe_of(snap: &CacheSnapshot, g: &LabeledGraph, opts: &VerifyOptions) -> HitSet {
        let fingerprint = iso_hash(g);
        exact_probe(snap, g, QueryKind::Subgraph, fingerprint, &Vf2::new(), opts).hits
    }

    #[test]
    fn sub_and_super_hits_verified() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]), // 100: g ⊆ this
            path_graph(&[0, 1]),       // 200: this ⊆ g
            path_graph(&[7, 7, 7]),    // 300: unrelated
        ]);
        let g = path_graph(&[0, 1, 0]);
        let hits = hits_of(&snap, &g, QueryKind::Subgraph);
        assert_eq!(hits.sub, vec![100]);
        assert_eq!(hits.super_, vec![200]);
        assert!(hits.exact.is_none());
        assert!(hits.tests >= 2);
        assert!(!hits.truncated);
    }

    #[test]
    fn allowed_full_candidate_set_is_a_no_op() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]), // 100: sub candidate
            path_graph(&[0, 1]),       // 200: super candidate
            path_graph(&[7, 7, 7]),    // 300: unrelated
        ]);
        let g = path_graph(&[0, 1, 0]);
        let profile = snap.profile_of(&g);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let pairs = candidate_serials(&snap, &hq);
        let full: Vec<QuerySerial> = pairs.iter().map(|&(s, _)| s).collect();

        // Slicing the pairs by any fingerprint partition and merging the
        // slices reassembles the full set — the router's merge invariant.
        let mut merged: Vec<QuerySerial> = pairs
            .iter()
            .filter(|&&(_, fp)| fp % 2 == 0)
            .chain(pairs.iter().filter(|&&(_, fp)| fp % 2 == 1))
            .map(|&(s, _)| s)
            .collect();
        merged.sort_unstable();
        assert_eq!(merged, full);

        let free = run_opts(&snap, &g, &VerifyOptions::default());
        let gated = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(full),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(gated.sub, free.sub);
        assert_eq!(gated.super_, free.super_);
        assert_eq!(gated.exact, free.exact);
        assert_eq!(gated.tests, free.tests);
        assert_eq!(gated.work, free.work);
    }

    #[test]
    fn allowed_restriction_is_a_sound_subset() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]), // 100: sub candidate
            path_graph(&[0, 1]),       // 200: super candidate
        ]);
        let g = path_graph(&[0, 1, 0]);
        // Only serial 100 allowed: the super hit vanishes (degraded slice),
        // the sub hit survives, nothing panics.
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(vec![100]),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.sub, vec![100]);
        assert!(hits.super_.is_empty());
        // The empty set sweeps nothing at all.
        let none = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(Vec::new()),
                ..VerifyOptions::default()
            },
        );
        assert!(none.sub.is_empty() && none.super_.is_empty());
        assert_eq!(none.tests, 0);
    }

    #[test]
    fn exact_probe_ignores_the_allow_filter() {
        // An exact answer supersedes pruning, so the O(1) fingerprint probe
        // stays unrestricted even under an empty allow set.
        let snap = snapshot(vec![path_graph(&[0, 1, 0])]);
        let g = path_graph(&[0, 1, 0]);
        let hits = probe_of(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(Vec::new()),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.exact, Some(100));
        assert!(hits.exact_via_fingerprint);
    }

    #[test]
    fn candidate_serials_mirror_the_sweep_prefilters() {
        // Same size but different fingerprint: excluded (the sweep proves
        // the non-hit from the packed columns alone). Cross-kind: excluded.
        let snap = snapshot(vec![
            path_graph(&[0, 1, 2]),    // 100: same size, different fingerprint
            path_graph(&[0, 2, 1, 0]), // 200: sub candidate by size
        ]);
        let g = path_graph(&[0, 2, 1]);
        let profile = snap.profile_of(&g);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let serials: Vec<QuerySerial> = candidate_serials(&snap, &hq)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert!(!serials.contains(&100), "fingerprint-mismatched same-size");
        let cross = HitQuery::new(&g, QueryKind::Supergraph, &profile);
        assert!(
            candidate_serials(&snap, &cross).is_empty(),
            "cross-kind entries are not candidates"
        );
    }

    #[test]
    fn exact_hit_detected_via_fingerprint() {
        let snap = snapshot(vec![path_graph(&[0, 1, 0])]);
        let g = path_graph(&[0, 1, 0]);
        let hits = hits_of(&snap, &g, QueryKind::Subgraph);
        assert_eq!(hits.exact, Some(100));
        assert!(hits.exact_via_fingerprint);
        assert_eq!(hits.sub, vec![100]);
        assert_eq!(hits.super_, vec![100]);
        assert_eq!(hits.tests, 0, "fingerprint confirmations are not tests");
    }

    /// The probe confirms under the pool and the deadline like any test: a
    /// zero pool or a deadline already past stops it before the one
    /// confirmation an exact repeat needs.
    #[test]
    fn exact_probe_honours_zero_budget_and_past_deadline() {
        let snap = snapshot(vec![path_graph(&[0, 1, 0])]);
        let g = path_graph(&[0, 1, 0]);
        let run = |opts: VerifyOptions| {
            exact_probe(
                &snap,
                &g,
                QueryKind::Subgraph,
                iso_hash(&g),
                &Vf2::new(),
                &opts,
            )
            .hits
        };
        let broke = run(VerifyOptions {
            budget: Some(0),
            ..VerifyOptions::default()
        });
        assert_eq!(broke.exact, None);
        assert!(broke.truncated && !broke.deadline_exceeded);
        assert_eq!(broke.work, 0);
        let late = run(VerifyOptions {
            deadline: Some(std::time::Instant::now()),
            ..VerifyOptions::default()
        });
        assert_eq!(late.exact, None);
        assert!(late.truncated && late.deadline_exceeded);
        assert_eq!(late.work, 0);
        let free = run(VerifyOptions::default());
        assert_eq!(free.exact, Some(100));
        assert!(free.work > 0 && free.tests == 0);
    }

    /// A fingerprint collision the probe refuted is not confirmed again by
    /// the sweep: a same-size entry forged to carry the query's fingerprint
    /// and profile costs one confirmation and no sweep test.
    #[test]
    fn sweep_skips_collisions_the_probe_refuted() {
        let g = path_graph(&[0, 1, 2]);
        let profile = gc_index::paths::enumerate_paths(&g, 4, u64::MAX);
        let forged = CacheEntry {
            serial: 100,
            graph: Arc::new(path_graph(&[0, 2, 1])),
            answer: Vec::new(),
            kind: QueryKind::Subgraph,
            profile: profile.clone(),
            fingerprint: iso_hash(&g),
            exact_saving: std::sync::OnceLock::new(),
        };
        let snap = CacheSnapshot::build(vec![Arc::new(forged)]);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let (vf2, opts) = (Vf2::new(), VerifyOptions::default());
        let probe = exact_probe(&snap, &g, hq.kind, hq.fingerprint, &vf2, &opts);
        assert_eq!(probe.hits.exact, None);
        assert!(probe.hits.work > 0, "one confirmation ran");
        let probe_work = probe.hits.work;
        let hits = sweep(&snap, &hq, probe, &open_cs_m(), &vf2, &opts);
        assert_eq!(hits.tests, 0, "the refuted collision is not tested again");
        assert_eq!(hits.work, probe_work);
        assert!(hits.sub.is_empty() && hits.super_.is_empty());
    }

    #[test]
    fn exact_probe_skips_candidate_verification() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0]),
            path_graph(&[0, 1, 0, 1]), // would be a sub candidate
            path_graph(&[0, 1]),       // would be a super candidate
        ]);
        let g = path_graph(&[0, 1, 0]);
        let hits = probe_of(&snap, &g, &VerifyOptions::default());
        assert_eq!(hits.exact, Some(100));
        assert!(hits.exact_via_fingerprint);
        assert_eq!(hits.tests, 0, "no candidate sweep on an exact repeat");
        assert!(hits.sub.is_empty() && hits.super_.is_empty());
    }

    #[test]
    fn same_size_non_isomorphic_skipped_without_testing() {
        // Same node and edge count, different structure/labels: the
        // fingerprint prefilter proves the non-hit with zero tests.
        let snap = snapshot(vec![path_graph(&[0, 1, 2])]);
        let g = path_graph(&[0, 2, 1]);
        let hits = hits_of(&snap, &g, QueryKind::Subgraph);
        assert!(hits.exact.is_none());
        assert!(hits.sub.is_empty());
        assert!(hits.super_.is_empty());
        assert_eq!(hits.tests, 0);
        assert_eq!(hits.work, 0);
    }

    #[test]
    fn filter_false_positives_rejected_by_verifier() {
        // Same feature counts up to length 4 may still not contain g; the
        // verifier must reject. Cycle of 6 vs two triangles sharing labels:
        let hexagon = LabeledGraph::from_parts(
            vec![0; 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let snap = snapshot(vec![hexagon]);
        let triangle = LabeledGraph::from_parts(vec![0; 3], &[(0, 1), (1, 2), (2, 0)]);
        let hits = hits_of(&snap, &triangle, QueryKind::Subgraph);
        assert!(hits.sub.is_empty(), "hexagon does not contain a triangle");
    }

    #[test]
    fn empty_cache_no_hits() {
        let snap = snapshot(vec![]);
        let hits = hits_of(&snap, &path_graph(&[0, 1]), QueryKind::Subgraph);
        assert!(hits.sub.is_empty() && hits.super_.is_empty() && hits.exact.is_none());
        assert_eq!(hits.tests, 0);
        assert!(!hits.truncated, "nothing to verify, nothing truncated");
    }

    #[test]
    fn cross_kind_entries_never_hit() {
        // Entries answered under supergraph semantics are invisible to a
        // subgraph query (and vice versa) — even an isomorphic one.
        let snap = snapshot_of_kind(
            vec![path_graph(&[0, 1, 0]), path_graph(&[0, 1])],
            QueryKind::Supergraph,
        );
        let g = path_graph(&[0, 1, 0]);
        let sub = hits_of(&snap, &g, QueryKind::Subgraph);
        assert!(sub.sub.is_empty() && sub.super_.is_empty() && sub.exact.is_none());
        assert_eq!(
            sub.tests, 0,
            "cross-kind entries are skipped before testing"
        );
        assert_eq!(sub.work, 0, "not even a fingerprint confirmation runs");
        let sup = hits_of(&snap, &g, QueryKind::Supergraph);
        assert_eq!(sup.exact, Some(100), "same-kind entries still hit");
    }

    #[test]
    fn zero_budget_truncates_without_hits() {
        let snap = snapshot(vec![path_graph(&[0, 1, 0, 1]), path_graph(&[0, 1])]);
        let g = path_graph(&[0, 1, 0]);
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                budget: Some(0),
                ..VerifyOptions::default()
            },
        );
        assert!(hits.truncated);
        assert!(hits.sub.is_empty() && hits.super_.is_empty());
        assert_eq!(hits.tests, 0);
    }

    #[test]
    fn generous_budget_matches_unbounded() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[0, 1]),
            path_graph(&[7, 7, 7]),
        ]);
        let g = path_graph(&[0, 1, 0]);
        let free = run_opts(&snap, &g, &VerifyOptions::default());
        let budgeted = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                budget: Some(1_000_000),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(budgeted.sub, free.sub);
        assert_eq!(budgeted.super_, free.super_);
        assert_eq!(budgeted.exact, free.exact);
        assert!(!budgeted.truncated);
    }

    #[test]
    fn hit_budget_early_exit_is_not_truncation() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[0, 1, 0, 1, 0]),
            path_graph(&[0, 1]),
        ]);
        let g = path_graph(&[0, 1, 0]);
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                max_hits: Some(1),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.sub.len() + hits.super_.len(), 1);
        assert!(!hits.truncated, "caller-requested early exit");
        let all = run_opts(&snap, &g, &VerifyOptions::default());
        assert!(all.sub.len() + all.super_.len() >= 3);
    }
}
