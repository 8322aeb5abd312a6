//! Writing a custom replacement policy: implement [`EvictionPolicy`],
//! register it by name, and select it like any built-in.
//!
//! This is the compilable version of the README's "Writing a custom
//! policy" walkthrough. The policy here is *hit-density*: retain entries
//! by hits per unit of age — a middle ground between POP (which this
//! equals) and LRU — with an optional `boost=` parameter that weights
//! recent activity.
//!
//! Run with: `cargo run --release --example custom_policy`

use graphcache::core::registry::{self, PolicyError};
use graphcache::core::{EvictionPolicy, PolicyView, QuerySerial};
use graphcache::prelude::*;

/// Retains entries with the highest hit density `H/A`, plus a recency
/// boost: an entry hit within the last `boost` serials is never evicted
/// while colder candidates remain.
#[derive(Debug, Clone)]
struct HitDensity {
    boost: u64,
}

impl EvictionPolicy for HitDensity {
    fn name(&self) -> &str {
        "hit-density"
    }

    fn select_victims(&mut self, view: &PolicyView<'_>, evict: usize) -> Vec<QuerySerial> {
        // Score every candidate: (recently-hit, hit density), lowest first;
        // ties break toward the older entry so selection is deterministic.
        let mut scored: Vec<(bool, f64, QuerySerial)> = view
            .rows()
            .iter()
            .map(|r| {
                let recent = view.now().saturating_sub(r.last_hit) < self.boost;
                (recent, r.hits as f64 / view.age(r), r.serial)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.2.cmp(&b.2))
        });
        scored
            .into_iter()
            .take(evict.min(view.len()))
            .map(|(_, _, serial)| serial)
            .collect()
    }
}

fn main() -> Result<(), PolicyError> {
    // 1. Register the policy under a name, with parameter parsing.
    registry::register_eviction("hit-density", |params| {
        let boost = params.get_usize("boost", 10)? as u64;
        Ok(Box::new(HitDensity { boost }))
    });

    // 2. Select it by name — parameters ride along in the spec string.
    let dataset = datasets::aids_like(0.2, 42);
    let method = MethodBuilder::ggsx().build(&dataset);
    let cache = GraphCache::builder()
        .capacity(50)
        .window(10)
        .eviction("hit-density:boost=25")
        .admission("adaptive")
        .try_build(method)?;

    // 3. It drives the cache like any built-in.
    let workload =
        graphcache::workload::generate_type_a(&dataset, &TypeAConfig::zz(1.4).count(200).seed(7));
    let mut hits = 0usize;
    for q in workload.graphs() {
        hits += cache.run(q).record.any_hit() as usize;
    }
    println!(
        "eviction={} admission={}: {}/{} queries cache-assisted, {} entries cached",
        cache.eviction_name(),
        cache.admission_name(),
        hits,
        workload.len(),
        cache.cache_len()
    );
    Ok(())
}
