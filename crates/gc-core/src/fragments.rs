//! GraphCache-side integration of the sub-query fragment cache
//! ([`gc_fragments`]): the shared fragment state threaded through
//! [`Shared`](crate::window), the query-path probe, and the maintenance
//! upkeep phase (population + byte-budget eviction).
//!
//! The split of responsibilities: `gc-fragments` owns decomposition, keying
//! and the bounded occurrence store; this module owns everything that needs
//! the rest of the cache — the Method M handle that builds *exact*
//! occurrence sets, the eviction policy (any spec
//! [`crate::registry::build_eviction`] resolves) that ranks fragment
//! rows, and the deterministic counters.

use crate::policy::{EvictionPolicy, PolicyRow, PolicyView};
use crate::stats::QuerySerial;
use gc_fragments::{decompose, FragmentConfig, FragmentStore, ProbeResult};
use gc_graph::{idset, GraphId, LabeledGraph};
use gc_methods::{Method, QueryKind};
use parking_lot::Mutex;
use std::sync::Arc;

/// Fragment-layer state shared between the query path (probe + credit) and
/// the maintenance path (population + budget eviction). Lock order is
/// `store` before `eviction`, everywhere.
pub(crate) struct FragmentState {
    /// Decomposition and budget knobs.
    pub cfg: FragmentConfig,
    /// Method M — fragment population runs each new fragment as its own
    /// sub-query through the method's filter + verifier, which is what
    /// makes occurrence sets exact (the soundness requirement).
    pub method: Arc<Method>,
    /// The bounded fragment store.
    pub store: Mutex<FragmentStore>,
    /// Registry-built eviction policy ranking fragment rows (`lru`,
    /// `slru`, `greedy-dual`, … apply to fragments exactly as to entries).
    pub eviction: Mutex<Box<dyn EvictionPolicy>>,
}

impl FragmentState {
    pub(crate) fn new(
        cfg: FragmentConfig,
        method: Arc<Method>,
        eviction: Box<dyn EvictionPolicy>,
    ) -> Self {
        FragmentState {
            cfg,
            method,
            store: Mutex::new(FragmentStore::new()),
            eviction: Mutex::new(eviction),
        }
    }

    /// Resident bytes of the fragment store (the fragment share of
    /// [`GraphCache::memory_bytes`](crate::GraphCache::memory_bytes)).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.store.lock().memory_bytes()
    }

    /// Decomposes a query into its fragment keys for probing. `None` when
    /// path enumeration overflowed the work cap — the caller must then skip
    /// fragment pruning entirely (a truncated fragment set is never treated
    /// as complete).
    pub(crate) fn query_keys(&self, query: &LabeledGraph) -> Option<Vec<u64>> {
        decompose(query, &self.cfg).map(|frags| frags.into_iter().map(|f| f.key).collect())
    }

    /// Probes the store with a query's fragment keys (read-only).
    pub(crate) fn probe(&self, keys: &[u64]) -> ProbeResult {
        self.store.lock().probe(keys)
    }

    /// Credits a pruning outcome to the fragments that joined the
    /// intersection, in both the store rows and the eviction policy.
    pub(crate) fn credit(&self, hit_ids: &[u64], removed: u64, saved: f64, now: QuerySerial) {
        let mut store = self.store.lock();
        store.credit(hit_ids, removed, saved, now);
        let mut eviction = self.eviction.lock();
        for &id in hit_ids {
            eviction.on_hit(id, now, saved);
        }
    }

    /// Resets the fragment layer to a given snapshot of persisted
    /// fragments (restore path). Policy-private state is discarded, like
    /// the entry-store policies on restore.
    pub(crate) fn install(&self, fragments: Vec<crate::persist::PersistedFragment>) {
        let mut store = self.store.lock();
        store.clear();
        let mut eviction = self.eviction.lock();
        eviction.reset();
        for f in fragments {
            if let Some(id) = store.restore(
                f.key, f.graph, f.occs, f.hits, f.last_hit, f.r_total, f.c_total,
            ) {
                eviction.on_admit(id, f.c_total);
            }
        }
    }
}

/// A population source captured from the maintenance batch: one answered
/// subgraph query's graph and verified answer set.
pub(crate) type FragmentSource = (Arc<LabeledGraph>, Vec<GraphId>);

/// One round of fragment-store upkeep: opportunistic population from this
/// round's answered queries, then eviction down to the byte budget.
/// Returns `(fragments_built, fragments_evicted)`.
pub(crate) fn upkeep(
    state: &FragmentState,
    sources: &[FragmentSource],
    now: QuerySerial,
) -> (u64, u64) {
    let mut built = 0u64;
    'sources: for (graph, answer) in sources {
        if built >= state.cfg.max_build_per_round as u64 {
            break;
        }
        // An overflowing source is simply skipped — partial fragment sets
        // are fine on the *population* side (fewer fragments cached), the
        // completeness requirement only binds on the probe side.
        let Some(frags) = decompose(graph, &state.cfg) else {
            continue;
        };
        for frag in frags {
            if built >= state.cfg.max_build_per_round as u64 {
                break 'sources;
            }
            if state.store.lock().contains(frag.key) {
                continue;
            }
            // Exact occurrence set, built off the store lock: run the
            // fragment as its own sub-query through Method M. The
            // originating query's verified answers are known positives
            // (frag ⊆ g ⊆ G), so only the remaining filter candidates need
            // verification.
            let filter = state
                .method
                .filter_directed(&frag.graph, QueryKind::Subgraph);
            let unknown = idset::difference(&filter.candidates, answer);
            let verify = state
                .method
                .verify_directed(&frag.graph, &unknown, QueryKind::Subgraph);
            let occs = idset::union(answer, &verify.answer);
            let cost = occs.len() as f64;
            let mut store = state.store.lock();
            if let Some(id) = store.insert(frag.key, frag.graph, occs, now) {
                state.eviction.lock().on_admit(id, cost);
                built += 1;
            }
        }
    }
    (built, enforce_budget(state, now))
}

/// Evicts fragments until the store fits its byte budget. Victim counts
/// are estimated from the average fragment size; the loop re-checks after
/// every round so an under-estimate just costs another policy call.
fn enforce_budget(state: &FragmentState, now: QuerySerial) -> u64 {
    let mut evicted = 0u64;
    loop {
        let mut store = state.store.lock();
        let bytes = store.memory_bytes();
        if bytes <= state.cfg.budget_bytes || store.is_empty() {
            return evicted;
        }
        let over = bytes - state.cfg.budget_bytes;
        let avg = (bytes / store.len()).max(1);
        let need = (over.div_ceil(avg)).clamp(1, store.len());
        let rows: Vec<PolicyRow> = store
            .rows()
            .into_iter()
            .map(|r| PolicyRow {
                serial: r.id,
                last_hit: r.last_hit,
                hits: r.hits,
                r_total: r.r_total,
                c_total: r.c_total,
            })
            .collect();
        let victims = state
            .eviction
            .lock()
            .select_victims(&PolicyView::new(&rows, now), need);
        if victims.is_empty() || store.evict_ids(&victims) == 0 {
            // A policy returning nothing usable would loop forever; stop
            // and carry the excess to the next round.
            return evicted;
        }
        evicted += victims.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use gc_graph::{GraphDataset, LabeledGraph};
    use gc_methods::MethodBuilder;

    fn chain(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    fn state() -> FragmentState {
        // Dataset of labelled chains: graph 0 = [1,2,3,4], graph 1 =
        // [1,2,3,5], graph 2 = [7,8,9,9].
        let dataset = GraphDataset::new(vec![
            chain(&[1, 2, 3, 4]),
            chain(&[1, 2, 3, 5]),
            chain(&[7, 8, 9, 9]),
        ]);
        let method = Arc::new(MethodBuilder::si_vf2().build(&dataset));
        FragmentState::new(
            FragmentConfig {
                min_len: 2,
                max_len: 3,
                ..FragmentConfig::default()
            },
            method,
            Box::new(PolicyKind::Lru),
        )
    }

    #[test]
    fn upkeep_builds_exact_occurrence_sets() {
        let s = state();
        // The answered query [1,2,3] occurs in graphs 0 and 1; seed with an
        // intentionally partial answer ({0}) — the sub-query verification
        // must still find graph 1, proving occurrence sets are exact and
        // not just the seeded answers.
        let sources = vec![(Arc::new(chain(&[1, 2, 3])), vec![GraphId(0)])];
        let (built, evicted) = upkeep(&s, &sources, 1);
        assert!(built > 0);
        assert_eq!(evicted, 0);
        let keys = s.query_keys(&chain(&[1, 2, 3])).expect("no overflow");
        let probe = s.probe(&keys);
        assert!(probe.probes >= 1);
        assert!(!probe.hit_ids.is_empty());
        assert_eq!(
            probe.intersection,
            Some(vec![GraphId(0), GraphId(1)]),
            "exact occurrences of the [1,2,3] fragment"
        );
    }

    #[test]
    fn budget_eviction_shrinks_store() {
        let mut s = state();
        s.cfg.budget_bytes = 1; // everything is over budget
        let sources = vec![
            (Arc::new(chain(&[1, 2, 3, 4])), vec![GraphId(0)]),
            (Arc::new(chain(&[7, 8, 9])), vec![GraphId(2)]),
        ];
        let (built, evicted) = upkeep(&s, &sources, 2);
        assert!(built > 0);
        assert_eq!(evicted, built, "budget of 1 byte evicts everything");
        assert_eq!(s.memory_bytes(), 0);
    }

    #[test]
    fn credit_feeds_rows() {
        let s = state();
        let sources = vec![(Arc::new(chain(&[1, 2, 3])), vec![GraphId(0), GraphId(1)])];
        upkeep(&s, &sources, 1);
        let keys = s.query_keys(&chain(&[1, 2, 3])).unwrap();
        let probe = s.probe(&keys);
        s.credit(&probe.hit_ids, 3, 1.5, 9);
        let store = s.store.lock();
        let row = &store.rows()[0];
        assert_eq!(row.hits, 1);
        assert_eq!(row.last_hit, 9);
        assert_eq!(row.r_total, 3);
    }
}
