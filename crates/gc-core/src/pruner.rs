//! The Candidate Set Pruner (paper §5.1): equations (1) and (2), the two
//! special cases, and the inverse handling for supergraph queries.
//!
//! For a **subgraph** query `g`:
//!
//! * *expanding hits* are cached queries `q ⊇ g` (`Result_sub(g)`): every
//!   graph in `Answer(q) ∩ CS_M(g)` certainly contains `g` and moves
//!   straight into the answer — equation (1);
//! * *restricting hits* are cached queries `q ⊆ g` (`Result_super(g)`):
//!   any graph outside `Answer(q)` cannot contain `g`, so the remaining
//!   candidate set is intersected with each hit's answer — equation (2);
//! * if a restricting hit has an **empty answer**, the whole result is
//!   empty (second special case).
//!
//! For a **supergraph** query the roles swap exactly (paper §5.1,
//! "Supergraph Query Processing"): answers of cached queries contained in
//! `g` expand the result; answers of cached queries containing `g`
//! restrict it; the empty-answer shortcut moves to the restricting side.
//! [`role`] is the one place that swap is made: [`sides`] splits a
//! [`HitSet`] with it for [`prune`], and the hit sweep
//! ([`crate::processors::sweep`]) reads it to decide, with
//! [`can_prune`], which candidates are worth a test at all.
//!
//! Method M's candidate set is known before the sweep runs, so pruning
//! works on it as an [`IdSet`]: a sorted array while small, a dataset
//! bitmap once that takes fewer bytes. Equation (1) is then bit tests and
//! AND-NOT, equation (2) a rebuilt bitmap per hit and an AND-NOT for its
//! removals; the test-only `reference` module keeps the merge-based
//! version on sorted arrays that this one must equal.

use crate::processors::HitSet;
use crate::stats::QuerySerial;
use gc_graph::idset::IdSet;
use gc_graph::GraphId;
use gc_methods::QueryKind;

/// How a query was resolved by the pruner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOutcome {
    /// No special case: `direct_answer` comes from cache, `remaining` still
    /// needs verification.
    Pruned,
    /// A restricting hit had an empty answer — the result is necessarily
    /// empty and verification is skipped entirely (greatest possible gain).
    EmptyShortcut(QuerySerial),
}

/// A cached query's contribution to pruning one new query — feeds the
/// statistics monitor ("the Candidate Set Pruner knows exactly which graphs
/// from the answer set of each matched cached query were removed", §5.2).
#[derive(Debug, Clone)]
pub struct Contribution {
    /// The cached query's serial.
    pub serial: QuerySerial,
    /// Dataset graphs this hit removed from the candidate set.
    pub removed: Vec<GraphId>,
}

/// Result of pruning one candidate set.
#[derive(Debug, Clone)]
pub struct PruneResult {
    /// Outcome kind.
    pub outcome: PruneOutcome,
    /// Graphs answered directly from the cache (already known positive).
    pub direct_answer: Vec<GraphId>,
    /// Candidates that still need sub-iso verification.
    pub remaining: Vec<GraphId>,
    /// Per-hit removal attribution.
    pub contributions: Vec<Contribution>,
}

/// One hit as seen by the pruner: the cached query's serial and its answer.
#[derive(Debug, Clone, Copy)]
pub struct HitAnswer<'a> {
    /// Serial of the cached query.
    pub serial: QuerySerial,
    /// Its cached (sorted) answer set.
    pub answer: &'a [GraphId],
}

/// Which equation of §5.1 a verified hit feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Its answer's candidates are answers outright — equation (1).
    Expanding,
    /// Its answer bounds the remaining candidates — equation (2).
    Restricting,
}

/// The role of a hit on a query of `kind`. `query_in_cached` is true for a
/// cached query that contains the new one ([`HitSet::sub`]) and false for
/// one contained in it ([`HitSet::super_`]). A subgraph query is expanded
/// by the first and restricted by the second; a supergraph query the
/// other way round.
pub fn role(kind: QueryKind, query_in_cached: bool) -> Role {
    if query_in_cached == (kind == QueryKind::Subgraph) {
        Role::Expanding
    } else {
        Role::Restricting
    }
}

/// The `(expanding, restricting)` serials of `hits` for a query of `kind`.
pub fn sides(kind: QueryKind, hits: &HitSet) -> (&[QuerySerial], &[QuerySerial]) {
    match role(kind, true) {
        Role::Expanding => (&hits.sub, &hits.super_),
        Role::Restricting => (&hits.super_, &hits.sub),
    }
}

/// Whether a hit in `role` whose cached answer is `answer` can remove a
/// candidate from `cs_m`, so that verifying it can pay:
///
/// * an expanding hit removes `answer ∩ CS_M`, nothing when `answer` is
///   empty; and it is no hit at all unless `answer ⊆ CS_M`, because each
///   graph of `answer` contains the cached query, hence the new one, and
///   Method M's filter never drops an answer;
/// * a restricting hit removes candidates outside `answer`, nothing when
///   `CS_M ⊆ answer`.
///
/// An empty `cs_m` leaves nothing to remove, so no hit can prune it.
pub fn can_prune(role: Role, cs_m: &IdSet, answer: &[GraphId]) -> bool {
    match role {
        Role::Expanding => !answer.is_empty() && cs_m.contains_all(answer),
        Role::Restricting => !cs_m.is_subset_of(answer),
    }
}

/// Applies equations (1) and (2) to `cs_m`.
///
/// `expanding` are the hits whose answers inject graphs into the result
/// (for subgraph queries: `Result_sub`); `restricting` are the hits whose
/// answers bound it (for subgraph queries: `Result_super`); [`sides`]
/// splits a hit set into the two. Each expanding hit is credited with
/// `CS_M ∩ answer`, each restricting hit with what it removed from the
/// candidates left after equation (1) and the restricting hits before it.
pub fn prune(
    cs_m: &IdSet,
    expanding: &[HitAnswer<'_>],
    restricting: &[HitAnswer<'_>],
) -> PruneResult {
    // Second special case first: it short-circuits everything.
    if let Some(hit) = restricting.iter().find(|h| h.answer.is_empty()) {
        return PruneResult {
            outcome: PruneOutcome::EmptyShortcut(hit.serial),
            direct_answer: Vec::new(),
            remaining: Vec::new(),
            contributions: vec![Contribution {
                serial: hit.serial,
                removed: cs_m.to_vec(),
            }],
        };
    }

    let mut contributions: Vec<Contribution> =
        Vec::with_capacity(expanding.len() + restricting.len());

    // Equation (1): every expanding answer leaves the candidates, and what
    // it held of CS_M moves directly into the answer.
    let mut remaining = cs_m.clone();
    for hit in expanding {
        contributions.push(Contribution {
            serial: hit.serial,
            removed: cs_m.intersect(hit.answer),
        });
        remaining.remove_all(hit.answer);
    }
    let direct_answer = cs_m.difference(&remaining);

    // Equation (2): intersect with each restricting hit's answer.
    for hit in restricting {
        contributions.push(Contribution {
            serial: hit.serial,
            removed: remaining.retain_only(hit.answer),
        });
    }

    PruneResult {
        outcome: PruneOutcome::Pruned,
        direct_answer,
        remaining: remaining.to_vec(),
        contributions,
    }
}

/// The merge-based pruner on sorted arrays that [`prune`] replaced, kept
/// as the reference it must equal.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use gc_graph::idset;

    pub(crate) fn prune(
        cs_m: &[GraphId],
        expanding: &[HitAnswer<'_>],
        restricting: &[HitAnswer<'_>],
    ) -> PruneResult {
        if let Some(hit) = restricting.iter().find(|h| h.answer.is_empty()) {
            return PruneResult {
                outcome: PruneOutcome::EmptyShortcut(hit.serial),
                direct_answer: Vec::new(),
                remaining: Vec::new(),
                contributions: vec![Contribution {
                    serial: hit.serial,
                    removed: cs_m.to_vec(),
                }],
            };
        }
        let mut contributions: Vec<Contribution> = Vec::new();
        let mut union_expanding: Vec<GraphId> = Vec::new();
        for hit in expanding {
            contributions.push(Contribution {
                serial: hit.serial,
                removed: idset::intersect(cs_m, hit.answer),
            });
            union_expanding = idset::union(&union_expanding, hit.answer);
        }
        let direct_answer = idset::intersect(cs_m, &union_expanding);
        let mut remaining = idset::difference(cs_m, &union_expanding);
        for hit in restricting {
            let removed = idset::difference(&remaining, hit.answer);
            if !removed.is_empty() {
                remaining = idset::intersect(&remaining, hit.answer);
            }
            contributions.push(Contribution {
                serial: hit.serial,
                removed,
            });
        }
        PruneResult {
            outcome: PruneOutcome::Pruned,
            direct_answer,
            remaining,
            contributions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::idset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ids(v: &[u32]) -> Vec<GraphId> {
        v.iter().copied().map(GraphId).collect()
    }

    /// Panics unless the two results agree field by field, contributions
    /// in order.
    fn assert_same(got: &PruneResult, want: &PruneResult, what: &str) {
        assert_eq!(got.outcome, want.outcome, "{what}: outcome");
        assert_eq!(
            got.direct_answer, want.direct_answer,
            "{what}: direct answer"
        );
        assert_eq!(got.remaining, want.remaining, "{what}: remaining");
        let pairs = |r: &PruneResult| -> Vec<(QuerySerial, Vec<GraphId>)> {
            r.contributions
                .iter()
                .map(|c| (c.serial, c.removed.clone()))
                .collect()
        };
        assert_eq!(pairs(got), pairs(want), "{what}: contributions");
    }

    /// [`prune`] over `cs` as an array and as a bitmap over `0..n`, each
    /// held to the merge-based reference; returns the reference's result.
    fn prune_both(
        cs: &[GraphId],
        n: usize,
        expanding: &[HitAnswer<'_>],
        restricting: &[HitAnswer<'_>],
    ) -> PruneResult {
        let want = reference::prune(cs, expanding, restricting);
        let sparse = IdSet::Sparse(cs.to_vec());
        assert_same(&prune(&sparse, expanding, restricting), &want, "array");
        let mut bits = vec![0u64; idset::words(n)];
        for id in cs {
            bits[idset::word(id.index())] |= idset::mask(id.index());
        }
        let dense = IdSet::Dense {
            bits,
            len: cs.len(),
        };
        assert_same(&prune(&dense, expanding, restricting), &want, "bitmap");
        want
    }

    /// The id-set pruner gives the merge-based one's result, contribution
    /// for contribution, on random candidate sets on both sides of the
    /// array/bitmap threshold and random hits, empty and covering answers
    /// included.
    #[test]
    fn id_set_prune_equals_the_merge_reference() {
        let mut rng = StdRng::seed_from_u64(30);
        let n = 640; // ten words: an array below 20 ids
        let mut layouts = [0usize; 2];
        for round in 0..600 {
            let density = [0.002, 0.01, 0.025, 0.05, 0.2, 0.6][round % 6];
            let draw = |rng: &mut StdRng, p: f64| -> Vec<GraphId> {
                (0..n as u32)
                    .filter(|_| rng.gen_bool(p))
                    .map(GraphId)
                    .collect()
            };
            let cs = draw(&mut rng, density);
            let mut answers: Vec<Vec<GraphId>> = Vec::new();
            let hits = rng.gen_range(0..7usize);
            for _ in 0..hits {
                let answer = match rng.gen_range(0..5u32) {
                    0 => Vec::new(),
                    1 => idset::union(&cs, &draw(&mut rng, 0.1)), // covers CS_M
                    2 => cs.iter().copied().filter(|_| rng.gen_bool(0.5)).collect(),
                    _ => {
                        let p = rng.gen_range(0.0..0.8);
                        draw(&mut rng, p)
                    }
                };
                answers.push(answer);
            }
            let split = rng.gen_range(0..hits + 1);
            let as_hits = |range: std::ops::Range<usize>| -> Vec<HitAnswer<'_>> {
                range
                    .map(|i| HitAnswer {
                        serial: i as QuerySerial + 1,
                        answer: &answers[i],
                    })
                    .collect()
            };
            let (expanding, restricting) = (as_hits(0..split), as_hits(split..hits));
            prune_both(&cs, n, &expanding, &restricting);
            let set = IdSet::from_sorted(cs.clone(), n);
            layouts[usize::from(matches!(set, IdSet::Dense { .. }))] += 1;
            let want = reference::prune(&cs, &expanding, &restricting);
            assert_same(
                &prune(&set, &expanding, &restricting),
                &want,
                "chosen layout",
            );
        }
        assert!(
            layouts.iter().all(|&k| k > 100),
            "array, bitmap: {layouts:?}"
        );
    }

    /// Roles swap between the two query kinds, and only there.
    #[test]
    fn roles_swap_with_the_query_kind() {
        assert_eq!(role(QueryKind::Subgraph, true), Role::Expanding);
        assert_eq!(role(QueryKind::Subgraph, false), Role::Restricting);
        assert_eq!(role(QueryKind::Supergraph, true), Role::Restricting);
        assert_eq!(role(QueryKind::Supergraph, false), Role::Expanding);
        let hits = HitSet {
            sub: vec![1],
            super_: vec![2],
            ..HitSet::default()
        };
        assert_eq!(sides(QueryKind::Subgraph, &hits), (&[1][..], &[2][..]));
        assert_eq!(sides(QueryKind::Supergraph, &hits), (&[2][..], &[1][..]));
    }

    /// `can_prune` keeps an expanding hit only when its answer lies inside
    /// CS_M and removes something, and a restricting hit only when it
    /// removes something.
    #[test]
    fn can_prune_matches_what_pruning_removes() {
        let cs = ids(&[1, 2, 3]);
        let set = IdSet::from_sorted(cs.clone(), 64);
        let answers = [
            ids(&[]),
            ids(&[2]),
            ids(&[2, 9]),
            ids(&[1, 2, 3]),
            ids(&[0, 1, 2, 3, 4]),
        ];
        for answer in &answers {
            let hit = [HitAnswer { serial: 1, answer }];
            let inside = answer.iter().all(|id| cs.contains(id));
            let expanding = prune_both(&cs, 64, &hit, &[]);
            assert_eq!(
                can_prune(Role::Expanding, &set, answer),
                inside && !expanding.contributions[0].removed.is_empty(),
                "expanding {answer:?}"
            );
            if !answer.is_empty() {
                let restricting = prune_both(&cs, 64, &[], &hit);
                assert_eq!(
                    can_prune(Role::Restricting, &set, answer),
                    !restricting.contributions[0].removed.is_empty(),
                    "restricting {answer:?}"
                );
            }
        }
        let empty = IdSet::from_sorted(Vec::new(), 64);
        assert!(answers
            .iter()
            .all(|a| !can_prune(Role::Expanding, &empty, a)));
        assert!(answers
            .iter()
            .all(|a| !can_prune(Role::Restricting, &empty, a)));
    }

    /// The worked example of Fig. 3(a): CS_M = {G1..G4}, a sub-hit with
    /// answer {G1, G2} ⇒ G1, G2 go straight to the answer, G3, G4 remain.
    #[test]
    fn paper_figure_3a_subgraph_case() {
        let cs = ids(&[1, 2, 3, 4]);
        let answer = ids(&[1, 2]);
        let hit = HitAnswer {
            serial: 42,
            answer: &answer,
        };
        let r = prune_both(&cs, 64, &[hit], &[]);
        assert_eq!(r.outcome, PruneOutcome::Pruned);
        assert_eq!(r.direct_answer, ids(&[1, 2]));
        assert_eq!(r.remaining, ids(&[3, 4]));
        assert_eq!(r.contributions.len(), 1);
        assert_eq!(r.contributions[0].removed, ids(&[1, 2]));
    }

    /// The worked example of Fig. 3(b): CS_M = {G1..G4}, a super-hit with
    /// answer {G1, G5} ⇒ only G1 can still match; G2, G3, G4 are pruned.
    #[test]
    fn paper_figure_3b_supergraph_case() {
        let cs = ids(&[1, 2, 3, 4]);
        let answer = ids(&[1, 5]);
        let hit = HitAnswer {
            serial: 43,
            answer: &answer,
        };
        let r = prune_both(&cs, 64, &[], &[hit]);
        assert_eq!(r.direct_answer, ids(&[]));
        assert_eq!(r.remaining, ids(&[1]));
        assert_eq!(r.contributions[0].removed, ids(&[2, 3, 4]));
    }

    /// Both equations together: (1) first, then (2) on what's left.
    #[test]
    fn combined_pruning() {
        let cs = ids(&[1, 2, 3, 4, 5]);
        let exp_answer = ids(&[1, 2]);
        let res_answer = ids(&[2, 3, 9]);
        let r = prune_both(
            &cs,
            64,
            &[HitAnswer {
                serial: 1,
                answer: &exp_answer,
            }],
            &[HitAnswer {
                serial: 2,
                answer: &res_answer,
            }],
        );
        assert_eq!(r.direct_answer, ids(&[1, 2]));
        // After eq (1): {3,4,5}; eq (2) keeps only those in {2,3,9}: {3}.
        assert_eq!(r.remaining, ids(&[3]));
        let removed_by_2: &Contribution = r.contributions.iter().find(|c| c.serial == 2).unwrap();
        assert_eq!(removed_by_2.removed, ids(&[4, 5]));
    }

    #[test]
    fn multiple_expanding_hits_union() {
        let cs = ids(&[1, 2, 3, 4]);
        let a1 = ids(&[1]);
        let a2 = ids(&[2, 9]);
        let r = prune_both(
            &cs,
            64,
            &[
                HitAnswer {
                    serial: 1,
                    answer: &a1,
                },
                HitAnswer {
                    serial: 2,
                    answer: &a2,
                },
            ],
            &[],
        );
        assert_eq!(r.direct_answer, ids(&[1, 2]));
        assert_eq!(r.remaining, ids(&[3, 4]));
    }

    #[test]
    fn multiple_restricting_hits_intersect() {
        let cs = ids(&[1, 2, 3, 4]);
        let a1 = ids(&[1, 2, 3]);
        let a2 = ids(&[2, 3, 4]);
        let r = prune_both(
            &cs,
            64,
            &[],
            &[
                HitAnswer {
                    serial: 1,
                    answer: &a1,
                },
                HitAnswer {
                    serial: 2,
                    answer: &a2,
                },
            ],
        );
        assert_eq!(r.remaining, ids(&[2, 3]));
    }

    /// Second special case: a restricting hit with an empty answer empties
    /// the result outright.
    #[test]
    fn empty_answer_shortcut() {
        let cs = ids(&[1, 2, 3]);
        let empty: Vec<GraphId> = vec![];
        let full = ids(&[1, 2, 3]);
        let r = prune_both(
            &cs,
            64,
            &[HitAnswer {
                serial: 9,
                answer: &full,
            }],
            &[HitAnswer {
                serial: 7,
                answer: &empty,
            }],
        );
        assert_eq!(r.outcome, PruneOutcome::EmptyShortcut(7));
        assert!(r.direct_answer.is_empty());
        assert!(r.remaining.is_empty());
        assert_eq!(r.contributions[0].serial, 7);
        assert_eq!(r.contributions[0].removed, ids(&[1, 2, 3]));
    }

    #[test]
    fn no_hits_passthrough() {
        let cs = ids(&[4, 5]);
        let r = prune_both(&cs, 64, &[], &[]);
        assert_eq!(r.outcome, PruneOutcome::Pruned);
        assert!(r.direct_answer.is_empty());
        assert_eq!(r.remaining, ids(&[4, 5]));
        assert!(r.contributions.is_empty());
    }

    /// Invariants: direct ∪ remaining ⊆ cs, direct ∩ remaining = ∅.
    #[test]
    fn partition_invariants() {
        let cs = ids(&[1, 2, 3, 4, 5, 6]);
        let a1 = ids(&[2, 4]);
        let a2 = ids(&[1, 2, 4, 5]);
        let r = prune_both(
            &cs,
            64,
            &[HitAnswer {
                serial: 1,
                answer: &a1,
            }],
            &[HitAnswer {
                serial: 2,
                answer: &a2,
            }],
        );
        assert!(idset::intersect(&r.direct_answer, &r.remaining).is_empty());
        let both = idset::union(&r.direct_answer, &r.remaining);
        assert_eq!(idset::intersect(&both, &cs), both);
    }
}
