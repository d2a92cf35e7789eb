//! The statistical failure-predictor ranking model of §5.2.
//!
//! Each run contributes one *profile*: the set of events recorded in
//! LBR/LCR at (or near) the failure site. For an event `e`:
//!
//! * **prediction precision** = `|F ∧ e| / |e|` — of the runs whose profile
//!   contains `e`, how many failed;
//! * **prediction recall** = `|F ∧ e| / |F|` — of the failing runs, how
//!   many contain `e`.
//!
//! Events are ranked by the harmonic mean of the two. The model optionally
//! also scores *absence* predictors (`¬e`), which §4.2.2 needs for
//! read-too-early order violations under the space-saving LCR
//! configuration ("failures are highly correlated with B2 *not*
//! encountering a shared state").

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Whether a predictor fires on the presence or the absence of its event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Polarity {
    /// The event's presence in a profile predicts failure.
    Present,
    /// The event's absence from a profile predicts failure.
    Absent,
}

/// A scored failure predictor, carrying the full evidence trail that
/// produced its rank: the precision/recall split, the match counts, and
/// the ids of the runs supporting (and contradicting) the prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEvent<E> {
    /// The event.
    pub event: E,
    /// Presence or absence predictor.
    pub polarity: Polarity,
    /// Prediction precision `|F∧e| / |e|`.
    pub precision: f64,
    /// Prediction recall `|F∧e| / |F|`.
    pub recall: f64,
    /// Harmonic mean of precision and recall — the ranking key.
    pub score: f64,
    /// Number of failure runs matching the predictor.
    pub failure_matches: usize,
    /// Number of success runs matching the predictor.
    pub success_matches: usize,
    /// Ids of the failure runs matching the predictor — the runs that
    /// voted for it. Empty in a [`RankingModel::scores`] list.
    pub failure_witnesses: Vec<String>,
    /// Ids of the success runs matching the predictor — the runs that
    /// dilute its precision. Empty in a [`RankingModel::scores`] list.
    pub success_witnesses: Vec<String>,
}

impl<E> RankedEvent<E> {
    /// Total number of profiles matching the predictor, `|e|` (or `|¬e|`).
    pub fn total_matches(&self) -> usize {
        self.failure_matches + self.success_matches
    }
}

/// The profiles that contained one event: indices into the per-class
/// witness-name tables, in ingest order. A list's length is the event's
/// `|F∧e|` (or `|S∧e|`) count.
#[derive(Debug, Clone, Default)]
struct Postings {
    fail: Vec<u32>,
    succ: Vec<u32>,
}

/// Accumulates profiles and ranks events.
///
/// Each profile is folded in on arrival: the profile's id joins its
/// class's witness-name table and every event it contains gains one
/// posting. No profile's event set is kept, so a ranking costs
/// `O(U log U)` over the event universe `U` plus the witness lists it
/// names, however many profiles have accumulated.
#[derive(Debug, Clone)]
pub struct RankingModel<E> {
    events: BTreeMap<E, Postings>,
    failure_ids: Vec<String>,
    success_ids: Vec<String>,
}

/// Prediction precision, recall and their harmonic mean from match
/// counts: `f` failure and `s` success profiles match the predictor, out
/// of `total_f` failure profiles.
fn score(f: usize, s: usize, total_f: usize) -> (f64, f64, f64) {
    let precision = if f + s > 0 {
        f as f64 / (f + s) as f64
    } else {
        0.0
    };
    let recall = if total_f > 0 {
        f as f64 / total_f as f64
    } else {
        0.0
    };
    let score = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    // The three values are ratios of finite counts with guarded
    // denominators; a non-finite score would silently scramble every
    // downstream sort, so fail loudly here instead.
    debug_assert!(
        precision.is_finite() && recall.is_finite() && score.is_finite(),
        "non-finite ranking score (precision {precision}, recall {recall}, score {score})"
    );
    (precision, recall, score)
}

/// The predictor order: score descending, then event ascending, then
/// `Present` before `Absent`. No two predictors of one ranking compare
/// equal, so any sort under this order yields the same list.
fn by_rank<E: Ord>(a: &RankedEvent<E>, b: &RankedEvent<E>) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.event.cmp(&b.event))
        .then_with(|| a.polarity.cmp(&b.polarity))
}

/// The names of one class's profiles matching a predictor: the posting
/// list itself for presence, its complement in ingest order for absence.
fn witness_names(ids: &[String], posting: &[u32], polarity: Polarity) -> Vec<String> {
    match polarity {
        Polarity::Present => posting.iter().map(|&i| ids[i as usize].clone()).collect(),
        Polarity::Absent => {
            let mut hits = posting.iter().copied().peekable();
            ids.iter()
                .enumerate()
                .filter(|&(i, _)| hits.next_if_eq(&(i as u32)).is_none())
                .map(|(_, id)| id.clone())
                .collect()
        }
    }
}

impl<E: Ord + Clone> RankingModel<E> {
    /// Creates an empty model.
    pub fn new() -> Self {
        RankingModel {
            events: BTreeMap::new(),
            failure_ids: Vec::new(),
            success_ids: Vec::new(),
        }
    }

    /// Adds one run's profile under an auto-generated id (`F#n` / `S#n`).
    pub fn add_profile(&mut self, is_failure: bool, events: BTreeSet<E>) {
        let id = if is_failure {
            format!("F#{}", self.failure_ids.len())
        } else {
            format!("S#{}", self.success_ids.len())
        };
        self.add_profile_named(is_failure, id, events);
    }

    /// Adds one run's profile under an explicit id (e.g. the workload and
    /// scheduler seed that produced it), so ranked events can name the
    /// exact runs that voted for them.
    pub fn add_profile_named(
        &mut self,
        is_failure: bool,
        id: impl Into<String>,
        events: BTreeSet<E>,
    ) {
        let ids = if is_failure {
            &mut self.failure_ids
        } else {
            &mut self.success_ids
        };
        let index = u32::try_from(ids.len()).expect("at most u32::MAX profiles per class");
        ids.push(id.into());
        for e in events {
            let postings = self.events.entry(e).or_default();
            if is_failure {
                postings.fail.push(index);
            } else {
                postings.succ.push(index);
            }
        }
    }

    /// Number of failure profiles collected so far.
    pub fn failure_count(&self) -> usize {
        self.failure_ids.len()
    }

    /// Number of success profiles collected so far.
    pub fn success_count(&self) -> usize {
        self.success_ids.len()
    }

    fn predictor(
        &self,
        event: &E,
        postings: &Postings,
        polarity: Polarity,
        witnesses: bool,
    ) -> RankedEvent<E> {
        let total_f = self.failure_ids.len();
        let (f, s) = match polarity {
            Polarity::Present => (postings.fail.len(), postings.succ.len()),
            Polarity::Absent => (
                total_f - postings.fail.len(),
                self.success_ids.len() - postings.succ.len(),
            ),
        };
        let (precision, recall, score) = score(f, s, total_f);
        let (failure_witnesses, success_witnesses) = if witnesses {
            (
                witness_names(&self.failure_ids, &postings.fail, polarity),
                witness_names(&self.success_ids, &postings.succ, polarity),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        RankedEvent {
            event: event.clone(),
            polarity,
            precision,
            recall,
            score,
            failure_matches: f,
            success_matches: s,
            failure_witnesses,
            success_witnesses,
        }
    }

    /// Every predictor over the observed events, best first.
    fn predictors(&self, absence: bool, witnesses: bool) -> Vec<RankedEvent<E>> {
        let mut ranked = Vec::with_capacity(self.events.len() * (1 + usize::from(absence)));
        for (event, postings) in &self.events {
            ranked.push(self.predictor(event, postings, Polarity::Present, witnesses));
            if absence {
                ranked.push(self.predictor(event, postings, Polarity::Absent, witnesses));
            }
        }
        ranked.sort_unstable_by(by_rank);
        ranked
    }

    /// Ranks all presence predictors, best first.
    ///
    /// Tie-breaking is deterministic: predictors with equal harmonic score
    /// are ordered by their event's `Ord` order (ascending). Downstream
    /// re-sorts (e.g. the failure-proximity tie-break of
    /// [`lbra`](crate::engine::CollectedProfiles::lbra)) are stable, so rank numbers are
    /// reproducible run to run for identical profile sets.
    #[must_use = "ranking computes scores without storing them; use the returned list"]
    pub fn rank(&self) -> Vec<RankedEvent<E>> {
        self.predictors(false, true)
    }

    /// Ranks presence *and* absence predictors, best first.
    ///
    /// Tie-breaking is deterministic: equal harmonic scores order by the
    /// event's `Ord` order, then `Present` before `Absent` — so a
    /// presence predictor always precedes its own absence twin when both
    /// score the same.
    #[must_use = "ranking computes scores without storing them; use the returned list"]
    pub fn rank_with_absence(&self) -> Vec<RankedEvent<E>> {
        self.predictors(true, true)
    }

    /// The ranking of [`rank`](Self::rank) (or, with `absence`,
    /// [`rank_with_absence`](Self::rank_with_absence)) with empty witness
    /// lists — the cheap form a live consumer re-reads after every
    /// profile.
    #[must_use = "scoring computes a fresh ranking; use the returned list"]
    pub fn scores(&self, absence: bool) -> Vec<RankedEvent<E>> {
        self.predictors(absence, false)
    }

    /// 1-based rank of the first predictor satisfying `pred` in the given
    /// ranking.
    #[must_use = "the computed rank is the result; use it"]
    pub fn rank_of(
        ranked: &[RankedEvent<E>],
        pred: impl FnMut(&RankedEvent<E>) -> bool,
    ) -> Option<usize> {
        ranked.iter().position(pred).map(|i| i + 1)
    }
}

impl<E: Ord + Clone> Default for RankingModel<E> {
    fn default() -> Self {
        RankingModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::rng::SplitMix64;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The naive model the incremental one replaced: every profile keeps
    /// its event set, and each predictor rescans all of them with its own
    /// copy of the float expressions — an independent oracle for the
    /// counts, the witness lists and the score bits.
    #[derive(Default)]
    struct Reference {
        failures: Vec<(String, BTreeSet<u8>)>,
        successes: Vec<(String, BTreeSet<u8>)>,
    }

    impl Reference {
        fn score_one(&self, event: &u8, polarity: Polarity) -> RankedEvent<u8> {
            let matches = |p: &&(String, BTreeSet<u8>)| match polarity {
                Polarity::Present => p.1.contains(event),
                Polarity::Absent => !p.1.contains(event),
            };
            let failure_witnesses: Vec<String> = self
                .failures
                .iter()
                .filter(matches)
                .map(|p| p.0.clone())
                .collect();
            let success_witnesses: Vec<String> = self
                .successes
                .iter()
                .filter(matches)
                .map(|p| p.0.clone())
                .collect();
            let f = failure_witnesses.len();
            let s = success_witnesses.len();
            let total_f = self.failures.len();
            let precision = if f + s > 0 {
                f as f64 / (f + s) as f64
            } else {
                0.0
            };
            let recall = if total_f > 0 {
                f as f64 / total_f as f64
            } else {
                0.0
            };
            let score = if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            };
            RankedEvent {
                event: *event,
                polarity,
                precision,
                recall,
                score,
                failure_matches: f,
                success_matches: s,
                failure_witnesses,
                success_witnesses,
            }
        }

        fn rank(&self, absence: bool) -> Vec<RankedEvent<u8>> {
            let universe: BTreeSet<u8> = self
                .failures
                .iter()
                .chain(&self.successes)
                .flat_map(|p| p.1.iter().copied())
                .collect();
            let mut ranked = Vec::new();
            for e in &universe {
                ranked.push(self.score_one(e, Polarity::Present));
                if absence {
                    ranked.push(self.score_one(e, Polarity::Absent));
                }
            }
            ranked.sort_by(|a, b| {
                b.score.total_cmp(&a.score).then_with(|| {
                    a.event
                        .cmp(&b.event)
                        .then_with(|| a.polarity.cmp(&b.polarity))
                })
            });
            ranked
        }
    }

    fn float_bits(ranked: &[RankedEvent<u8>]) -> Vec<[u64; 3]> {
        ranked
            .iter()
            .map(|r| [r.precision.to_bits(), r.recall.to_bits(), r.score.to_bits()])
            .collect()
    }

    fn strip(mut ranked: Vec<RankedEvent<u8>>) -> Vec<RankedEvent<u8>> {
        for r in &mut ranked {
            r.failure_witnesses.clear();
            r.success_witnesses.clear();
        }
        ranked
    }

    #[test]
    fn incremental_model_matches_the_naive_scan_at_every_prefix() {
        // Stream shapes: mixed classes, success-only and failure-only;
        // seed 0 of each shape is the empty stream.
        for shape in 0..3u64 {
            for seed in 0..40u64 {
                let mut rng = SplitMix64::new(seed * 3 + shape);
                let len = if seed == 0 { 0 } else { rng.next_below(24) };
                let universe = 1 + rng.next_below(10);
                let named = rng.next_below(2) == 0;
                let mut model = RankingModel::new();
                let mut reference = Reference::default();
                for step in 0..=len {
                    for absence in [false, true] {
                        let expected = reference.rank(absence);
                        let ranked = if absence {
                            model.rank_with_absence()
                        } else {
                            model.rank()
                        };
                        let at = format!("shape {shape} seed {seed} step {step} absence {absence}");
                        assert_eq!(ranked, expected, "{at}");
                        assert_eq!(float_bits(&ranked), float_bits(&expected), "{at}");
                        let scores = model.scores(absence);
                        assert_eq!(float_bits(&scores), float_bits(&ranked), "{at}");
                        assert_eq!(scores, strip(ranked), "{at}");
                    }
                    if step == len {
                        break;
                    }
                    let is_failure = match shape {
                        0 => rng.next_below(2) == 0,
                        1 => false,
                        _ => true,
                    };
                    let events: BTreeSet<u8> = (0..rng.next_below(6))
                        .map(|_| rng.next_below(universe) as u8)
                        .collect();
                    let class = if is_failure {
                        &mut reference.failures
                    } else {
                        &mut reference.successes
                    };
                    if named {
                        let id = format!("w{step}");
                        class.push((id.clone(), events.clone()));
                        model.add_profile_named(is_failure, id, events);
                    } else {
                        let prefix = if is_failure { "F" } else { "S" };
                        class.push((format!("{prefix}#{}", class.len()), events.clone()));
                        model.add_profile(is_failure, events);
                    }
                }
            }
        }
    }

    #[test]
    fn perfect_predictor_ranks_first() {
        let mut m = RankingModel::new();
        for _ in 0..10 {
            m.add_profile(true, set(&["root", "noise"]));
            m.add_profile(false, set(&["noise"]));
        }
        let ranked = m.rank();
        assert_eq!(ranked[0].event, "root");
        assert_eq!(ranked[0].precision, 1.0);
        assert_eq!(ranked[0].recall, 1.0);
        assert_eq!(ranked[0].score, 1.0);
        // Noise appears everywhere: precision 0.5, recall 1.0.
        let noise = ranked.iter().find(|r| r.event == "noise").unwrap();
        assert!((noise.score - (2.0 * 0.5 / 1.5)).abs() < 1e-9);
    }

    #[test]
    fn success_only_event_scores_zero() {
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["a"]));
        m.add_profile(false, set(&["b"]));
        let ranked = m.rank();
        let b = ranked.iter().find(|r| r.event == "b").unwrap();
        assert_eq!(b.score, 0.0);
    }

    #[test]
    fn imperfect_recall_lowers_score() {
        // Event appears in 5 of 10 failure runs, never in success runs.
        let mut m = RankingModel::new();
        for i in 0..10 {
            let p = if i < 5 { set(&["e"]) } else { set(&[]) };
            m.add_profile(true, p);
            m.add_profile(false, set(&[]));
        }
        let ranked = m.rank();
        let e = &ranked[0];
        assert_eq!(e.event, "e");
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 0.5);
        assert!((e.score - (2.0 * 0.5 / 1.5)).abs() < 1e-9);
    }

    #[test]
    fn absence_predictor_wins_when_event_vanishes_in_failures() {
        // "B2 observed Shared" appears in every success run and no failure
        // run: its absence is the perfect predictor.
        let mut m = RankingModel::new();
        for _ in 0..10 {
            m.add_profile(true, set(&["noise"]));
            m.add_profile(false, set(&["b2-shared", "noise"]));
        }
        let ranked = m.rank_with_absence();
        assert_eq!(ranked[0].event, "b2-shared");
        assert_eq!(ranked[0].polarity, Polarity::Absent);
        assert_eq!(ranked[0].score, 1.0);
    }

    #[test]
    fn rank_of_is_one_based() {
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["x"]));
        m.add_profile(false, set(&["y"]));
        let ranked = m.rank();
        assert_eq!(RankingModel::rank_of(&ranked, |r| r.event == "x"), Some(1));
    }

    #[test]
    fn multiple_failure_sites_do_not_break_relative_ranking() {
        // §5.3 "multiple failures": even when the best predictor misses
        // some failure runs (two root causes at one site), it still beats
        // noise.
        let mut m = RankingModel::new();
        for i in 0..10 {
            let p = if i % 2 == 0 {
                set(&["rootA", "noise"])
            } else {
                set(&["rootB", "noise"])
            };
            m.add_profile(true, p);
            m.add_profile(false, set(&["noise"]));
        }
        let ranked = m.rank();
        let score_of = |name: &str| ranked.iter().find(|r| r.event == name).unwrap().score;
        // Each root's perfect precision compensates for its halved recall:
        // neither falls below the omnipresent noise event.
        assert!(score_of("rootA") >= score_of("noise"));
        assert!(score_of("rootB") >= score_of("noise"));
        assert!(score_of("rootA") > 0.5);
    }

    #[test]
    fn witnesses_name_the_supporting_runs() {
        let mut m = RankingModel::new();
        m.add_profile_named(true, "fail:seed7", set(&["root", "noise"]));
        m.add_profile_named(true, "fail:seed9", set(&["root"]));
        m.add_profile_named(false, "pass:seed1", set(&["noise"]));
        let ranked = m.rank();
        let root = ranked.iter().find(|r| r.event == "root").unwrap();
        assert_eq!(root.failure_witnesses, vec!["fail:seed7", "fail:seed9"]);
        assert!(root.success_witnesses.is_empty());
        assert_eq!(root.total_matches(), 2);
        let noise = ranked.iter().find(|r| r.event == "noise").unwrap();
        assert_eq!(noise.failure_witnesses, vec!["fail:seed7"]);
        assert_eq!(noise.success_witnesses, vec!["pass:seed1"]);
    }

    #[test]
    fn auto_ids_count_per_class() {
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["a"]));
        m.add_profile(false, set(&["a"]));
        m.add_profile(true, set(&["a"]));
        let ranked = m.rank();
        let a = &ranked[0];
        assert_eq!(a.failure_witnesses, vec!["F#0", "F#1"]);
        assert_eq!(a.success_witnesses, vec!["S#0"]);
    }

    #[test]
    fn absence_witnesses_are_the_runs_missing_the_event() {
        let mut m = RankingModel::new();
        m.add_profile_named(true, "f0", set(&["noise"]));
        m.add_profile_named(false, "s0", set(&["guard", "noise"]));
        let ranked = m.rank_with_absence();
        let absent = ranked
            .iter()
            .find(|r| r.event == "guard" && r.polarity == Polarity::Absent)
            .unwrap();
        assert_eq!(absent.failure_witnesses, vec!["f0"]);
        assert!(absent.success_witnesses.is_empty());
    }

    #[test]
    fn equal_scores_tie_break_by_event_then_polarity() {
        // Two events, each in exactly one (distinct) failure profile, no
        // successes: identical precision/recall. The tie resolves by
        // event order; with absence predictors, Present precedes Absent
        // for the same event and score.
        let mut m = RankingModel::new();
        m.add_profile(true, set(&["alpha"]));
        m.add_profile(true, set(&["beta"]));
        let ranked = m.rank();
        assert_eq!(ranked[0].event, "alpha");
        assert_eq!(ranked[1].event, "beta");
        // Deterministic across repeated rankings of the same model.
        for _ in 0..5 {
            assert_eq!(m.rank(), ranked);
        }
        let with_absence = m.rank_with_absence();
        for pair in with_absence.windows(2) {
            let same_score = (pair[0].score - pair[1].score).abs() < 1e-12;
            if same_score && pair[0].event == pair[1].event {
                assert_eq!(pair[0].polarity, Polarity::Present);
                assert_eq!(pair[1].polarity, Polarity::Absent);
            }
        }
    }

    #[test]
    fn empty_model_ranks_nothing() {
        let m: RankingModel<String> = RankingModel::new();
        assert!(m.rank().is_empty());
        assert_eq!(m.failure_count(), 0);
        assert_eq!(m.success_count(), 0);
    }

    #[test]
    fn ranking_is_invariant_under_profile_insertion_order() {
        // The same profile multiset added in three different orders must
        // produce identical rankings (scores, order, and counts — witness
        // ids are position-dependent by design, so compare them by set).
        let profiles: Vec<(bool, BTreeSet<String>)> = vec![
            (true, set(&["root", "noise"])),
            (true, set(&["root"])),
            (true, set(&["noise"])),
            (false, set(&["noise", "guard"])),
            (false, set(&["guard"])),
        ];
        let build = |order: &[usize]| {
            let mut m = RankingModel::new();
            for &i in order {
                let (is_failure, events) = &profiles[i];
                m.add_profile(*is_failure, events.clone());
            }
            m
        };
        let strip = |ranked: Vec<RankedEvent<String>>| {
            ranked
                .into_iter()
                .map(|r| {
                    (
                        r.event,
                        r.polarity,
                        r.score.to_bits(),
                        r.failure_matches,
                        r.success_matches,
                    )
                })
                .collect::<Vec<_>>()
        };
        let baseline = build(&[0, 1, 2, 3, 4]);
        for order in [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1]] {
            let m = build(&order);
            assert_eq!(strip(m.rank()), strip(baseline.rank()));
            assert_eq!(
                strip(m.rank_with_absence()),
                strip(baseline.rank_with_absence())
            );
        }
    }

    #[test]
    fn zero_failing_profiles_rank_nan_free() {
        // Success-only models hit every guarded denominator (|F| = 0 and,
        // for presence predictors with no matches, |e| = 0). All scores
        // must come out finite and zero — never NaN.
        let mut m = RankingModel::new();
        m.add_profile(false, set(&["a", "b"]));
        m.add_profile(false, set(&["b"]));
        for r in m.rank().into_iter().chain(m.rank_with_absence()) {
            assert!(r.precision.is_finite(), "{:?}", r.event);
            assert!(r.recall.is_finite(), "{:?}", r.event);
            assert!(r.score.is_finite(), "{:?}", r.event);
            assert_eq!(r.score, 0.0);
        }
    }
}
