//! Online diagnosis convergence: live ranking, rank-stability tracking,
//! and the early-stop policy.
//!
//! The [`RankingModel`] is incremental by construction: each profile
//! folds into per-event postings in `O(|profile| log U)`, so a live
//! ranking over the event universe `U` costs `O(U log U)` however many
//! profiles have accumulated, and the final ranking is the model's own
//! `rank()` / `rank_with_absence()` — bit-identical to a batch model over
//! the same profile stream (pinned in `tests/engine_determinism.rs`).
//!
//! * [`SnapshotIngest`] — the one per-diagnosis state machine. It
//!   decodes ring snapshots exactly as the batch extractors do, owns the
//!   ring-typed model with the full sorted live scores of its latest
//!   ingest, and re-polls after every snapshot: the top-k as
//!   [`PredictorSummary`]s, top-k rank churn (Kendall-style
//!   discordant-pair count, [`rank_churn`]), the top-1 stability streak,
//!   the per-witness [`PollPoint`] history and per-predictor
//!   [`Trajectory`]s (pinned against a per-prefix batch rebuild in
//!   `tests/engine_determinism.rs`). It publishes nothing: the engine
//!   holds one per monitored session and publishes its gauges,
//!   `/diagnosis` document and verdict event; the fleet daemon holds one
//!   per shard and publishes per-shard series instead.
//! * [`StabilityPolicy`] — when the ingest may stop collecting early:
//!   top-1 unchanged for `stable_for` consecutive witnesses, with floor
//!   counts on both profile classes so a failure-only prefix can never
//!   declare victory.
//! * [`ConvergenceReport`] — what [`SnapshotIngest::finish`] returns:
//!   the verdict, the accumulated [`ConvergenceEvidence`] and the
//!   batch-identical [`FinalRanking`].

use crate::diagnose::{failure_profile, success_profile};
use crate::profile::{lbr_events, lcr_events, BranchOutcome, CoherenceEvent};
use crate::ranking::{Polarity, RankedEvent, RankingModel};
use crate::runner::FailureSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use stm_machine::layout::Layout;
use stm_machine::report::{ProfileData, RunReport};
use stm_telemetry::json::Json;

/// How many leading predictors the churn metric and the live document
/// track. Ten mirrors the paper's "top 10" reporting cut-off.
pub const TOP_K: usize = 10;

/// When an incremental diagnosis may stop collecting early.
///
/// The default asks for a top-1 predictor that has survived five
/// consecutive witness ingests unchanged, with at least three profiles of
/// each class seen — precision is meaningless before both populations
/// exist, and witness-mode sessions ingest all failures before the first
/// success, so the floors keep a failure-only prefix from stopping the
/// session before the success phase begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityPolicy {
    /// Consecutive witnesses the top-1 predictor must survive unchanged.
    pub stable_for: usize,
    /// Minimum failure profiles ingested before stopping is allowed.
    pub min_failures: usize,
    /// Minimum success profiles ingested before stopping is allowed.
    pub min_successes: usize,
    /// Whether the policy may stop the session at all. `false` keeps the
    /// full observability surface (gauges, trajectories, verdict) while
    /// guaranteeing the session runs to its quota.
    pub stop: bool,
}

impl Default for StabilityPolicy {
    fn default() -> Self {
        StabilityPolicy {
            stable_for: 5,
            min_failures: 3,
            min_successes: 3,
            stop: true,
        }
    }
}

impl StabilityPolicy {
    /// Monitor-only policy: track convergence but never stop early. The
    /// verdict thresholds (`stable_for` and the class floors) keep their
    /// defaults so a full-quota run still reports `stable` or `stalled`.
    pub fn never() -> StabilityPolicy {
        StabilityPolicy {
            stop: false,
            ..StabilityPolicy::default()
        }
    }

    /// Sets the required top-1 stability streak.
    pub fn stable_for(mut self, n: usize) -> Self {
        self.stable_for = n;
        self
    }

    /// Sets the failure-profile floor.
    pub fn min_failures(mut self, n: usize) -> Self {
        self.min_failures = n;
        self
    }

    /// Sets the success-profile floor.
    pub fn min_successes(mut self, n: usize) -> Self {
        self.min_successes = n;
        self
    }

    /// The policy as a JSON object (for the `/diagnosis` document).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stable_for", Json::from(self.stable_for)),
            ("min_failures", Json::from(self.min_failures)),
            ("min_successes", Json::from(self.min_successes)),
            ("stop", Json::from(self.stop)),
        ])
    }
}

/// Kendall-style displacement between two top-k rankings: the number of
/// predictor pairs whose relative order inverted. A key absent from one
/// ranking sits at virtual position `k` (below everything ranked), so an
/// entry dropping out of the top-k counts against every key it used to
/// precede.
pub fn rank_churn<K: Ord>(prev: &[K], cur: &[K]) -> u64 {
    let pos = |list: &[K], key: &K| -> usize {
        list.iter()
            .position(|k| k == key)
            .unwrap_or_else(|| list.len().max(prev.len().max(cur.len())))
    };
    let mut union: Vec<&K> = prev.iter().chain(cur.iter()).collect();
    union.sort();
    union.dedup();
    let mut churn = 0u64;
    for (i, a) in union.iter().enumerate() {
        for b in union.iter().skip(i + 1) {
            let before = pos(prev, a) as i64 - pos(prev, b) as i64;
            let after = pos(cur, a) as i64 - pos(cur, b) as i64;
            if before.signum() * after.signum() < 0 {
                churn += 1;
            }
        }
    }
    churn
}

/// One per-witness observation of the convergence state.
#[derive(Debug, Clone, PartialEq)]
pub struct PollPoint {
    /// Witnesses ingested when the poll was taken (1-based).
    pub witness: usize,
    /// Top-k discordant-pair churn against the previous poll.
    pub churn: u64,
    /// Consecutive witnesses the current top-1 has survived.
    pub top1_streak: usize,
}

/// A named predictor's score history: `(witness count, score)` samples,
/// recorded whenever the predictor sat in the top-k.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Display form of the predictor (`!` prefix = absence).
    pub predictor: String,
    /// `(witnesses ingested, harmonic score)` samples.
    pub points: Vec<(usize, f64)>,
}

/// How a monitored session ended, convergence-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The stability policy fired and stopped collection before the
    /// quota.
    ConvergedEarly,
    /// The session ran to its quota and the top-1 was stable at the end.
    Stable,
    /// The session ended with the top-1 still churning — more witnesses
    /// (or a better signal) are needed.
    Stalled,
}

impl Verdict {
    /// The verdict's wire form (`/diagnosis`, events, artifacts).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::ConvergedEarly => "converged",
            Verdict::Stable => "stable",
            Verdict::Stalled => "stalled",
        }
    }
}

impl Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One final top-k predictor, in display form.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorSummary {
    /// Display form of the predictor (`!` prefix = absence).
    pub predictor: String,
    /// Prediction precision.
    pub precision: f64,
    /// Prediction recall.
    pub recall: f64,
    /// Harmonic score.
    pub score: f64,
    /// Failure profiles matching.
    pub failure_matches: usize,
    /// Success profiles matching.
    pub success_matches: usize,
}

/// The type-erased convergence evidence a tracker accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceEvidence {
    /// Witnesses ingested (both classes).
    pub witnesses: usize,
    /// Failure profiles ingested.
    pub failures: usize,
    /// Success profiles ingested.
    pub successes: usize,
    /// Churn at the last poll.
    pub churn: u64,
    /// Final top-1 stability streak.
    pub top1_streak: usize,
    /// Whether the policy's stability conditions held at the end.
    pub stable: bool,
    /// Display form of the final top-1 predictor.
    pub top1: Option<String>,
    /// The final top-k, summarised.
    pub top: Vec<PredictorSummary>,
    /// Score history of every predictor that visited the top-k.
    pub trajectories: Vec<Trajectory>,
    /// The per-witness poll history.
    pub history: Vec<PollPoint>,
}

/// The final ranking a monitored session produced, typed by ring kind.
/// Bit-identical to the batch model over the session's collected
/// profiles.
#[derive(Debug, Clone, PartialEq)]
pub enum FinalRanking {
    /// LBRA: presence predictors over branch outcomes.
    Lbr(Vec<RankedEvent<BranchOutcome>>),
    /// LCRA: presence and absence predictors over coherence events.
    Lcr(Vec<RankedEvent<CoherenceEvent>>),
}

impl FinalRanking {
    /// Number of ranked predictors.
    pub fn len(&self) -> usize {
        match self {
            FinalRanking::Lbr(r) => r.len(),
            FinalRanking::Lcr(r) => r.len(),
        }
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a monitored [`DiagnosisSession`](crate::engine::DiagnosisSession)
/// reports about its convergence, alongside the collected profiles.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// How the session ended.
    pub verdict: Verdict,
    /// The policy that was in force.
    pub policy: StabilityPolicy,
    /// The accumulated convergence evidence.
    pub evidence: ConvergenceEvidence,
    /// The final ranking, bit-identical to the batch model.
    pub final_ranking: FinalRanking,
}

impl ConvergenceReport {
    /// The report as a JSON object (the `CONVERGENCE_<id>.json` shape,
    /// minus the harness-computed rank curve).
    pub fn to_json(&self) -> Json {
        let e = &self.evidence;
        let trajectories = e.trajectories.iter().map(|t| (&t.predictor, &t.points));
        let counts = (e.failures, e.successes, e.churn, e.top1_streak);
        document(
            self.verdict.as_str(),
            &self.policy,
            counts,
            &e.top,
            false,
            trajectories,
        )
    }
}

/// The convergence document shared by the final report and the live
/// `/diagnosis` entry: `counts` is `(failures, successes, churn, top-1
/// streak)`, and `matches` adds each top predictor's class match counts
/// (the live entry carries them, the final report does not).
fn document<'a>(
    verdict: &str,
    policy: &StabilityPolicy,
    (failures, successes, churn, top1_streak): (usize, usize, u64, usize),
    top: &[PredictorSummary],
    matches: bool,
    trajectories: impl Iterator<Item = (&'a String, &'a Vec<(usize, f64)>)>,
) -> Json {
    let top = top
        .iter()
        .map(|p| {
            let mut fields = vec![
                ("predictor", Json::from(p.predictor.clone())),
                ("precision", Json::from(p.precision)),
                ("recall", Json::from(p.recall)),
                ("score", Json::from(p.score)),
            ];
            if matches {
                fields.push(("failure_matches", Json::from(p.failure_matches)));
                fields.push(("success_matches", Json::from(p.success_matches)));
            }
            Json::obj(fields)
        })
        .collect();
    let trajectories = trajectories
        .map(|(label, points)| {
            let points = points
                .iter()
                .map(|(w, s)| Json::Arr(vec![Json::from(*w), Json::from(*s)]));
            (label.clone(), Json::Arr(points.collect()))
        })
        .collect();
    Json::obj([
        ("verdict", Json::from(verdict)),
        ("witnesses_ingested", Json::from(failures + successes)),
        ("failures", Json::from(failures)),
        ("successes", Json::from(successes)),
        ("rank_churn", Json::from(churn)),
        ("top1_stable_for", Json::from(top1_streak)),
        ("policy", policy.to_json()),
        ("top", Json::Arr(top)),
        ("trajectories", Json::Obj(trajectories)),
    ])
}

/// The snapshot-level ingest entry point, factored out of the session
/// run loop so long-lived consumers (the fleet daemon's per-shard state)
/// can feed *externally-produced* ring snapshots instead of runs the
/// engine executes itself.
///
/// One ingest owns everything a diagnosis needs — the program [`Layout`]
/// (for snapshot decoding), the [`FailureSpec`] (for profile selection),
/// the ring-appropriate [`RankingModel`] and the convergence state it
/// re-polls after every snapshot — and publishes nothing: no gauges, no
/// status documents, no structured events. The engine publishes the
/// global observability surface for the ingest it holds; a fleet shard
/// publishes per-shard series instead.
///
/// **Determinism contract** (pinned in `tests/fleet_determinism.rs`):
/// observing the same `(is_failure, witness, report)` sequence always
/// produces the same stop decision at the same snapshot, and
/// [`SnapshotIngest::finish`] returns a final ranking bit-identical to
/// the batch [`RankingModel`] over the ingested snapshots. Snapshots
/// whose profile is missing or of the wrong ring are skipped exactly as
/// the batch extractors skip them.
#[derive(Debug)]
pub struct SnapshotIngest {
    layout: Layout,
    spec: FailureSpec,
    model: Option<Model>,
    state: Convergence,
    chain_traces: Vec<(String, ProfileData)>,
}

/// How many failing-witness ring snapshots an ingest retains verbatim for
/// live causal-chain reconstruction. The first `CHAIN_TRACE_CAP` kept
/// failure snapshots are retained in consumption order, so the retained
/// set is deterministic for a deterministic stream.
pub const CHAIN_TRACE_CAP: usize = 8;

/// The ranking model of an ingest, typed by the ring kind its first
/// profile carried, with the full sorted live scores of its latest
/// ingest.
#[derive(Debug)]
enum Model {
    Lbr(RankingModel<BranchOutcome>, Vec<RankedEvent<BranchOutcome>>),
    Lcr(
        RankingModel<CoherenceEvent>,
        Vec<RankedEvent<CoherenceEvent>>,
    ),
}

/// The event-type-free convergence state of an ingest, as of its latest
/// poll, under its stability policy.
#[derive(Debug, Default)]
struct Convergence {
    policy: StabilityPolicy,
    /// Whether the policy has stopped the stream (latched).
    fired: bool,
    failures: usize,
    successes: usize,
    churn: u64,
    top1_streak: usize,
    top: Vec<PredictorSummary>,
    history: Vec<PollPoint>,
    trajectories: BTreeMap<String, Vec<(usize, f64)>>,
}

impl Convergence {
    /// Folds one witness profile into `model`, re-scores it into
    /// `scores`, re-polls churn, streak, top-k and trajectories, and
    /// latches the stop decision. Churn and the streak compare typed
    /// `(event, polarity)` keys; each top-k label is formatted once, into
    /// its summary.
    fn observe<E: Ord + Clone + Display>(
        &mut self,
        model: &mut RankingModel<E>,
        scores: &mut Vec<RankedEvent<E>>,
        absence: bool,
        is_failure: bool,
        witness: &str,
        events: BTreeSet<E>,
    ) {
        model.add_profile_named(is_failure, witness, events);
        let prev_scores = std::mem::replace(scores, model.scores(absence));
        let (prev, cur) = (top_keys(&prev_scores), top_keys(scores));
        self.churn = rank_churn(&prev, &cur);
        self.top1_streak = match (prev.first(), cur.first()) {
            (Some(prev), Some(cur)) if prev == cur => self.top1_streak + 1,
            (_, Some(_)) => 1,
            (_, None) => 0,
        };
        self.failures = model.failure_count();
        self.successes = model.success_count();
        let witness = self.failures + self.successes;
        self.top = scores[..cur.len()].iter().map(summarize).collect();
        for p in &self.top {
            match self.trajectories.get_mut(&p.predictor) {
                Some(points) => points.push((witness, p.score)),
                None => {
                    self.trajectories
                        .insert(p.predictor.clone(), vec![(witness, p.score)]);
                }
            }
        }
        self.history.push(PollPoint {
            witness,
            churn: self.churn,
            top1_streak: self.top1_streak,
        });
        // Latched, so speculative snapshots observed after the stop point
        // cannot un-stop a diagnosis.
        self.fired |= self.policy.stop && self.is_stable();
    }

    /// Whether the policy's stability conditions hold (regardless of
    /// whether the policy is allowed to stop).
    fn is_stable(&self) -> bool {
        self.top1_streak >= self.policy.stable_for
            && self.failures >= self.policy.min_failures
            && self.successes >= self.policy.min_successes
    }

    /// The verdict and the accumulated evidence.
    fn finish(self) -> (Verdict, ConvergenceEvidence) {
        let stable = self.is_stable();
        let verdict = if self.fired {
            Verdict::ConvergedEarly
        } else if stable {
            Verdict::Stable
        } else {
            Verdict::Stalled
        };
        let evidence = ConvergenceEvidence {
            witnesses: self.failures + self.successes,
            failures: self.failures,
            successes: self.successes,
            churn: self.churn,
            top1_streak: self.top1_streak,
            stable,
            top1: self.top.first().map(|p| p.predictor.clone()),
            top: self.top,
            trajectories: self
                .trajectories
                .into_iter()
                .map(|(predictor, points)| Trajectory { predictor, points })
                .collect(),
            history: self.history,
        };
        (verdict, evidence)
    }
}

/// The top-k predictor keys of a sorted score list.
fn top_keys<E>(scores: &[RankedEvent<E>]) -> Vec<(&E, Polarity)> {
    scores
        .iter()
        .take(TOP_K)
        .map(|p| (&p.event, p.polarity))
        .collect()
}

/// A scored predictor in display form (`!` prefix marks absence).
fn summarize<E: Display>(p: &RankedEvent<E>) -> PredictorSummary {
    PredictorSummary {
        predictor: match p.polarity {
            Polarity::Present => format!("{}", p.event),
            Polarity::Absent => format!("!{}", p.event),
        },
        precision: p.precision,
        recall: p.recall,
        score: p.score,
        failure_matches: p.failure_matches,
        success_matches: p.success_matches,
    }
}

/// The live scored ranking of an ingest, typed by ring kind — the
/// prefix-accurate counterpart of [`FinalRanking`] for consumers (the
/// causal-chain reconstructor) that need support scores *before* the
/// ingest finishes. Witness lists are empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveRanking<'a> {
    /// LBRA: presence predictors over branch outcomes.
    Lbr(&'a [RankedEvent<BranchOutcome>]),
    /// LCRA: presence and absence predictors over coherence events.
    Lcr(&'a [RankedEvent<CoherenceEvent>]),
}

impl SnapshotIngest {
    /// An empty ingest. The ring kind is inferred from the first
    /// profile-bearing snapshot (so unpinned witness streams work).
    pub fn new(layout: Layout, spec: FailureSpec, policy: StabilityPolicy) -> Self {
        SnapshotIngest {
            layout,
            spec,
            model: None,
            state: Convergence {
                policy,
                ..Convergence::default()
            },
            chain_traces: Vec::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &StabilityPolicy {
        &self.state.policy
    }

    /// Observes one snapshot-bearing run. Returns `true` when the run
    /// carried a usable profile and was ingested.
    pub fn observe(&mut self, is_failure: bool, witness: &str, report: &RunReport) -> bool {
        let profile = if is_failure {
            failure_profile(report, &self.spec)
        } else {
            success_profile(report, &self.spec)
        };
        let Some(profile) = profile else {
            return false;
        };
        let model = self.model.get_or_insert_with(|| match profile.data {
            ProfileData::Lbr(_) => Model::Lbr(RankingModel::new(), Vec::new()),
            ProfileData::Lcr(_) => Model::Lcr(RankingModel::new(), Vec::new()),
        });
        let state = &mut self.state;
        match (&profile.data, model) {
            (ProfileData::Lbr(records), Model::Lbr(model, scores)) => {
                let events = lbr_events(&self.layout, records);
                state.observe(model, scores, false, is_failure, witness, events);
            }
            (ProfileData::Lcr(records), Model::Lcr(model, scores)) => {
                let events = lcr_events(&self.layout, records);
                state.observe(model, scores, true, is_failure, witness, events);
            }
            // A profile of the other ring: the batch model skips it too.
            _ => return false,
        }
        if is_failure && self.chain_traces.len() < CHAIN_TRACE_CAP {
            self.chain_traces
                .push((witness.to_string(), profile.data.clone()));
        }
        true
    }

    /// The layout snapshots are decoded against.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The retained failing-witness ring snapshots (first
    /// [`CHAIN_TRACE_CAP`] kept failures, in consumption order) — the raw
    /// material a causal-chain reconstructor walks backward through.
    pub fn chain_traces(&self) -> &[(String, ProfileData)] {
        &self.chain_traces
    }

    /// The full live scored ranking as of the latest ingest, typed by
    /// ring kind. `None` before the first profile-bearing snapshot pins
    /// the kind.
    pub fn live_ranking(&self) -> Option<LiveRanking<'_>> {
        match self.model.as_ref()? {
            Model::Lbr(_, scores) => Some(LiveRanking::Lbr(scores)),
            Model::Lcr(_, scores) => Some(LiveRanking::Lcr(scores)),
        }
    }

    /// Whether the policy has decided to stop the stream. Latches once
    /// fired, so speculative snapshots observed after the stop point
    /// cannot un-stop a diagnosis.
    pub fn should_stop(&self) -> bool {
        self.state.fired
    }

    /// Snapshots ingested so far (both classes).
    pub fn witnesses(&self) -> usize {
        self.state.failures + self.state.successes
    }

    /// Failure snapshots ingested so far.
    pub fn failures(&self) -> usize {
        self.state.failures
    }

    /// Success snapshots ingested so far.
    pub fn successes(&self) -> usize {
        self.state.successes
    }

    /// Top-k churn at the latest ingest.
    pub fn churn(&self) -> u64 {
        self.state.churn
    }

    /// Consecutive snapshots the current top-1 predictor has survived.
    pub fn top1_streak(&self) -> usize {
        self.state.top1_streak
    }

    /// Live verdict string: `converged` once the policy has fired,
    /// `collecting` before.
    pub fn live_verdict(&self) -> &'static str {
        if self.state.fired {
            Verdict::ConvergedEarly.as_str()
        } else {
            "collecting"
        }
    }

    /// The live state as a `/diagnosis`-shaped JSON document.
    pub fn to_json(&self) -> Json {
        let (verdict, s) = (self.live_verdict(), &self.state);
        if self.model.is_none() {
            return Json::obj([
                ("verdict", Json::from(verdict)),
                ("witnesses_ingested", Json::from(0usize)),
                ("policy", s.policy.to_json()),
            ]);
        }
        let counts = (s.failures, s.successes, s.churn, s.top1_streak);
        document(
            verdict,
            &s.policy,
            counts,
            &s.top,
            true,
            s.trajectories.iter(),
        )
    }

    /// Finalises the ingest: computes the verdict and returns the report
    /// — pure, with no side channel. `None` when no snapshot ever
    /// carried a usable profile.
    #[must_use = "finishing consumes the ingest; use the returned report"]
    pub fn finish(self) -> Option<ConvergenceReport> {
        let final_ranking = match self.model? {
            Model::Lbr(model, _) => FinalRanking::Lbr(model.rank()),
            Model::Lcr(model, _) => FinalRanking::Lcr(model.rank_with_absence()),
        };
        let policy = self.state.policy;
        let (verdict, evidence) = self.state.finish();
        Some(ConvergenceReport {
            verdict,
            policy,
            evidence,
            final_ranking,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The ingest's convergence state driven with hand-made string
    /// events (presence-only), under a policy.
    struct Stream {
        model: RankingModel<String>,
        scores: Vec<RankedEvent<String>>,
        state: Convergence,
    }

    impl Stream {
        fn new(policy: StabilityPolicy) -> Stream {
            Stream {
                model: RankingModel::new(),
                scores: Vec::new(),
                state: Convergence {
                    policy,
                    ..Convergence::default()
                },
            }
        }

        fn observe(&mut self, is_failure: bool, id: &str, events: BTreeSet<String>) {
            let (model, scores) = (&mut self.model, &mut self.scores);
            self.state
                .observe(model, scores, false, is_failure, id, events);
        }

        fn should_stop(&self) -> bool {
            self.state.fired
        }

        fn top1(&self) -> &str {
            &self.state.top[0].predictor
        }

        fn finish(self) -> (Vec<RankedEvent<String>>, Verdict, ConvergenceEvidence) {
            let (verdict, evidence) = self.state.finish();
            (self.model.rank(), verdict, evidence)
        }
    }

    #[test]
    fn churn_counts_discordant_pairs() {
        // Identical rankings: zero churn.
        assert_eq!(rank_churn(&["a", "b", "c"], &["a", "b", "c"]), 0);
        // One adjacent swap: one discordant pair.
        assert_eq!(rank_churn(&["a", "b", "c"], &["b", "a", "c"]), 1);
        // Full reversal of 3: all 3 pairs discordant.
        assert_eq!(rank_churn(&["a", "b", "c"], &["c", "b", "a"]), 3);
        // First poll (empty previous): nothing to be discordant with.
        assert_eq!(rank_churn(&[], &["a", "b"]), 0);
        // An entry dropping out is discordant with everything it led.
        assert_eq!(rank_churn(&["a", "b"], &["b"]), 1);
    }

    #[test]
    fn stable_stream_builds_a_streak_and_stops() {
        let mut t = Stream::new(StabilityPolicy::default().stable_for(3));
        // Alternate failure/success so both class floors fill.
        for i in 0..8 {
            let is_failure = i % 2 == 0;
            let events = if is_failure {
                set(&["root", "noise"])
            } else {
                set(&["noise"])
            };
            t.observe(is_failure, &format!("w{i}"), events);
        }
        assert!(t.state.top1_streak >= 3, "streak {}", t.state.top1_streak);
        assert_eq!(t.top1(), "root");
        assert_eq!(t.scores[0].event, "root");
        assert!(t.should_stop());
        let (ranked, verdict, evidence) = t.finish();
        assert_eq!(ranked[0].event, "root");
        assert_eq!(verdict, Verdict::ConvergedEarly);
        assert!(evidence.stable);
        assert_eq!(evidence.top1.as_deref(), Some("root"));
        assert_eq!(evidence.history.len(), 8);
        assert_eq!((evidence.failures, evidence.successes), (4, 4));
        assert_eq!(evidence.witnesses, 8);
    }

    #[test]
    fn class_floors_block_early_stop() {
        // Ten failures, zero successes: however stable the top-1, the
        // success floor must hold the stop (witness mode ingests all
        // failures before the first success).
        let mut t = Stream::new(StabilityPolicy::default());
        for i in 0..10 {
            t.observe(true, &format!("f{i}"), set(&["root"]));
        }
        assert!(t.state.top1_streak >= 5);
        assert!(!t.should_stop(), "success floor must block the stop");
        t.observe(false, "s0", set(&["noise"]));
        t.observe(false, "s1", set(&["noise"]));
        assert!(!t.should_stop(), "two successes are below the floor");
        t.observe(false, "s2", set(&["noise"]));
        assert!(t.should_stop(), "three successes satisfy the floor");

        // The same floors decide the end-of-run verdict.
        let mut t = Stream::new(StabilityPolicy::never());
        for i in 0..10 {
            t.observe(true, &format!("f{i}"), set(&["root"]));
        }
        let (_, verdict, evidence) = t.finish();
        assert!(evidence.top1_streak >= 5);
        assert!(!evidence.stable, "success floor must hold the verdict");
        assert_eq!(verdict, Verdict::Stalled);
    }

    #[test]
    fn stop_latches_once_fired() {
        let mut t = Stream::new(StabilityPolicy::default().stable_for(2));
        for i in 0..6 {
            let events = if i % 2 == 0 {
                set(&["root"])
            } else {
                set(&["noise"])
            };
            t.observe(i % 2 == 0, &format!("w{i}"), events);
        }
        assert!(t.should_stop());
        // Four failures of a new event out-recall "root" (a tie at three
        // keeps "root" first): the top-1 flips and the conditions no
        // longer hold, but the decision stands.
        for i in 0..4 {
            t.observe(true, &format!("f{i}"), set(&["zz"]));
        }
        assert_eq!(t.top1(), "zz");
        assert!(!t.state.is_stable(), "the flip resets the streak");
        assert!(t.should_stop(), "a fired stop must stay fired");
        assert_eq!(t.finish().1, Verdict::ConvergedEarly);
    }

    #[test]
    fn never_policy_tracks_but_does_not_stop() {
        let mut t = Stream::new(StabilityPolicy::never());
        for i in 0..20 {
            t.observe(i % 2 == 0, &format!("w{i}"), set(&["root"]));
        }
        assert!(
            t.state.is_stable(),
            "the stability conditions themselves hold"
        );
        assert!(!t.should_stop(), "never() must not stop the session");
        let (_, verdict, evidence) = t.finish();
        assert_eq!(verdict, Verdict::Stable);
        assert!(evidence.stable);
    }

    #[test]
    fn churny_stream_resets_the_streak() {
        let mut t = Stream::new(StabilityPolicy::never());
        // Each failure profile carries a different singleton event, so
        // the top-1 keeps flipping to the newest tie-break winner or an
        // earlier event — the streak must stay short.
        let events = ["a", "b", "c", "d"];
        for (i, e) in events.iter().enumerate() {
            t.observe(true, &format!("f{i}"), set(&[e]));
        }
        // All four tie at the same score; tie-break keeps "a" first, so
        // after the first ingest the top-1 settles on "a".
        assert_eq!(t.top1(), "a");
        // Now a success profile containing "a" dilutes its precision:
        // the top-1 flips and the streak resets.
        t.observe(false, "s0", set(&["a"]));
        assert_ne!(t.top1(), "a");
        assert_eq!(t.state.top1_streak, 1, "flip must reset the streak");
        assert!(t.state.churn > 0, "the flip must register as churn");
        let (_, verdict, evidence) = t.finish();
        assert_eq!(verdict, Verdict::Stalled, "no success floor, no stability");
        assert!(!evidence.stable);
    }

    #[test]
    fn trajectories_follow_top_k_members() {
        let mut t = Stream::new(StabilityPolicy::never());
        t.observe(true, "f0", set(&["root"]));
        t.observe(false, "s0", set(&["noise"]));
        let (_, _, evidence) = t.finish();
        let names: Vec<&str> = evidence
            .trajectories
            .iter()
            .map(|t| t.predictor.as_str())
            .collect();
        assert!(names.contains(&"root"), "{names:?}");
        let root = evidence
            .trajectories
            .iter()
            .find(|t| t.predictor == "root")
            .unwrap();
        assert_eq!(root.points.len(), 2, "one sample per poll in top-k");
        assert_eq!(root.points[0].0, 1);
        assert_eq!(root.points[1].0, 2);
    }

    #[test]
    fn verdict_strings_are_wire_stable() {
        assert_eq!(Verdict::ConvergedEarly.as_str(), "converged");
        assert_eq!(Verdict::Stable.as_str(), "stable");
        assert_eq!(Verdict::Stalled.as_str(), "stalled");
    }

    #[test]
    fn ingest_json_document_is_parseable_and_complete() {
        use crate::engine::DiagnosisSession;
        use crate::runner::Workload;
        use crate::transform::InstrumentOptions;
        use stm_machine::builder::ProgramBuilder;
        use stm_machine::ir::BinOp;

        // Logs an error iff input 0 is negative.
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_function("main");
        let mut f = pb.build_function(main, "m.c");
        let (err, ok) = (f.new_block(), f.new_block());
        let x = f.read_input(0);
        let neg = f.bin(BinOp::Lt, x, 0);
        f.br(neg, err, ok);
        f.set_block(err);
        let site = f.log_error("negative input");
        f.exit(1);
        f.ret(None);
        f.set_block(ok);
        f.output(x);
        f.ret(None);
        f.finish();
        let program = pb.finish(main);
        let profiles = DiagnosisSession::new(&program)
            .instrument(&InstrumentOptions::lbra_reactive(vec![site], vec![]))
            .failure(FailureSpec::ErrorLogAt(site))
            .failing(vec![Workload::new(vec![-1])])
            .failure_profiles(1)
            .success_profiles(0)
            .collect()
            .expect("collection succeeds");

        let mut ingest = SnapshotIngest::new(
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            StabilityPolicy::default(),
        );
        let empty = Json::parse(&ingest.to_json().encode()).expect("valid JSON");
        assert_eq!(empty.get("top"), None, "no model before the first profile");
        let run = &profiles.failure_runs()[0];
        assert!(ingest.observe(true, &run.witness, &run.report));
        let round = Json::parse(&ingest.to_json().encode()).expect("valid JSON");
        assert_eq!(
            round.get("verdict").and_then(Json::as_str),
            Some("collecting")
        );
        assert_eq!(
            round.get("witnesses_ingested").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(round.get("policy").is_some());
        assert!(round.get("top").and_then(Json::as_array).is_some());
        assert!(round.get("trajectories").is_some());
    }
}
