//! Path-feature keys are injective on the data the suites run: over every
//! dataset any `gc bench` suite generates (AIDS, PDBS, PCM and Synthetic
//! shapes at their suite scales and seeds), distinct label sequences of
//! simple paths up to GGSX's length fold to distinct 64-bit keys.
//!
//! A key collision would only merge two features' counts (filters stay
//! sound), but the counters the baselines pin assume none happens here.

use graphcache::harness::Suite;
use graphcache::index::fx::FxHashMap as HashMap;
use graphcache::index::paths::{extend_key, feature_key, FeatureKey};
use graphcache::index::GgsxConfig;
use graphcache::prelude::*;

/// An exact packing of a label sequence: base-65 digits `label + 1`, so
/// sequences of different lengths never coincide (labels stay below 64 on
/// every suite dataset; five digits fit in 31 bits).
fn pack(seq: &[u32]) -> u64 {
    seq.iter().fold(0, |p, &l| {
        assert!(l < 64, "label {l} exceeds the packing");
        p * 65 + u64::from(l) + 1
    })
}

/// Walks every simple path of `g` up to `max_len` edges, carrying the
/// label sequence and its incrementally folded key, and records each key's
/// (packed) sequence; panics on two sequences sharing a key. Returns false
/// when the graph exceeds `work_cap` (an index keeps no features for it).
struct Walk<'a> {
    g: &'a LabeledGraph,
    seq: Vec<u32>,
    on_path: Vec<bool>,
    seen: &'a mut HashMap<FeatureKey, u64>,
    work: u64,
    work_cap: u64,
}

impl Walk<'_> {
    fn dfs(&mut self, v: u32, key: FeatureKey, remaining: usize) -> bool {
        self.work += 1;
        if self.work > self.work_cap {
            return false;
        }
        let packed = pack(&self.seq);
        match self.seen.get(&key) {
            Some(&first) => assert_eq!(first, packed, "key {key:#x} folds two sequences"),
            None => {
                assert_eq!(key, feature_key(&self.seq));
                self.seen.insert(key, packed);
            }
        }
        if remaining == 0 {
            return true;
        }
        let g = self.g;
        for &w in g.neighbors(v) {
            if !self.on_path[w as usize] {
                self.on_path[w as usize] = true;
                self.seq.push(g.label(w));
                let ok = self.dfs(w, extend_key(key, g.label(w)), remaining - 1);
                self.seq.pop();
                self.on_path[w as usize] = false;
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

#[test]
fn feature_keys_are_injective_on_every_suite_dataset() {
    let cfg = GgsxConfig::default();
    let mut datasets: Vec<(String, u64, DatasetProfile)> = Vec::new();
    for suite in Suite::ALL {
        for s in suite.scenarios() {
            let profile = s.dataset.clone().scaled(s.dataset_scale);
            let id = (format!("{profile:?}"), s.dataset_seed);
            if !datasets
                .iter()
                .any(|(p, seed, _)| (p, seed) == (&id.0, &id.1))
            {
                datasets.push((id.0, id.1, profile));
            }
        }
    }
    let mut shapes: Vec<&str> = datasets.iter().map(|(_, _, p)| p.name).collect();
    shapes.sort_unstable();
    shapes.dedup();
    assert_eq!(shapes, vec!["AIDS", "PCM", "PDBS", "Synthetic"]);

    let mut seen: HashMap<FeatureKey, u64> = HashMap::default();
    for (_, seed, profile) in &datasets {
        let dataset = profile.generate(*seed);
        for (_, g) in dataset.iter() {
            let mut walk = Walk {
                g,
                seq: Vec::with_capacity(cfg.max_path_len + 1),
                on_path: vec![false; g.node_count()],
                seen: &mut seen,
                work: 0,
                work_cap: cfg.work_cap,
            };
            for start in g.nodes() {
                walk.on_path[start as usize] = true;
                walk.seq.push(g.label(start));
                let key = extend_key(feature_key(&[]), g.label(start));
                let complete = walk.dfs(start, key, cfg.max_path_len);
                walk.seq.pop();
                walk.on_path[start as usize] = false;
                if !complete {
                    break;
                }
            }
        }
    }
    assert!(seen.len() > 10_000, "only {} distinct features", seen.len());
}
