//! Causal-chain reconstruction: from the top-ranked predictor to an
//! evidence-linked failure storyline.
//!
//! LBRA/LCRA stop at "event X best predicts the failure" (Tables 4–7
//! rank single events). A developer debugging a production failure needs
//! the *path*: what happened between the root cause and the failure
//! site. This module walks backward through the short-term hardware
//! memory the diagnosis already decoded — the LBR/LCR ring snapshots of
//! the failing witnesses — and emits an ordered **root-cause →
//! propagation → failure** chain:
//!
//! 1. **Anchor.** The walk anchors at the *deepest* ring occurrence of
//!    the top-ranked presence predictor in each failing witness
//!    ([`stm_machine::ring::deepest_position_of`]). When the top
//!    predictor is an absence predictor (§4.2.2's read-too-early
//!    signature never appears in failing rings), the walk anchors at
//!    the best *presence* predictor instead and reports both.
//! 2. **Window.** Everything between the anchor and the failure
//!    (positions 1..=anchor, [`stm_machine::ring::window`]) happened
//!    after the root cause fired — the candidate propagation events.
//! 3. **Support.** Each candidate is scored against the passing
//!    population with the same precision/recall harmonic the ranking
//!    uses (program-spectra-style, per Abreu et al.), so a link's
//!    support is directly comparable to a predictor's rank score.
//! 4. **Order.** Links sort by mean ring position across the failing
//!    witnesses, deepest (oldest, closest to the root cause) first; the
//!    anchor always leads. Ties break by support score descending, then
//!    by event display — fully deterministic, pinned across thread
//!    counts in `tests/engine_determinism.rs`.
//!
//! Every link carries typed evidence: the witnesses containing it and
//! its position in each of their rings, the branch edge or MESI
//! transition it rides on ([`crate::dossier::mesi_transition`]), and the
//! precision/recall/support triple with raw match counts.

use crate::dossier::mesi_transition;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use stm_core::converge::{LiveRanking, SnapshotIngest};
use stm_core::profile::{
    decode_lbr, decode_lcr, BranchOutcome, CoherenceEvent, DecodedLbrEntry, DecodedLcrEntry,
};
use stm_core::ranking::{Polarity, RankedEvent};
use stm_machine::ir::Program;
use stm_machine::report::ProfileData;
use stm_telemetry::json::Json;

/// Longest chain the reconstructor reports. The anchor and the
/// failure-end link always survive the cap; middle links are kept by
/// support score.
pub const MAX_LINKS: usize = 8;

/// Which ring the chain was walked from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    /// Last Branch Record — branch-outcome links.
    Lbr,
    /// Last Cache-coherence Record — coherence-event links.
    Lcr,
}

impl ChainKind {
    /// Wire form (`"lbr"` / `"lcr"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ChainKind::Lbr => "lbr",
            ChainKind::Lcr => "lcr",
        }
    }
}

/// A link's role in the storyline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRole {
    /// The anchor: the top-ranked predictor the walk started from.
    RootCause,
    /// An intermediate event between root cause and failure.
    Propagation,
    /// The window's failure end: the event nearest position 1.
    Failure,
}

impl LinkRole {
    /// Wire form (`"root-cause"` / `"propagation"` / `"failure"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LinkRole::RootCause => "root-cause",
            LinkRole::Propagation => "propagation",
            LinkRole::Failure => "failure",
        }
    }
}

/// One witness sighting of a link: which profile contains it and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessMark {
    /// The witness id (`fail:w<idx>:seed<seed>` or an endpoint-prefixed
    /// fleet form).
    pub witness: String,
    /// Deepest 1-based ring position of the event in that witness
    /// (1 = most recent, closest to the failure).
    pub position: usize,
}

/// One step of the reconstructed chain, with its typed evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLink {
    /// Role in the storyline.
    pub role: LinkRole,
    /// Canonical predictor form (`br1=true`, `load@m.c:9:S`).
    pub event: String,
    /// Human label; program-aware when a [`Program`] was available
    /// (`branch br1 at m.c:10 taken TRUE`), canonical otherwise.
    pub label: String,
    /// The hardware mechanism the link rides on: the branch edge
    /// (`edge 0x.. -> 0x..`) or the MESI transition with its meaning.
    pub mechanism: String,
    /// Mean deepest ring position across the witnesses containing the
    /// link — the chain's ordering key (larger = earlier in time).
    pub mean_position: f64,
    /// The failing witnesses containing the link, with positions.
    pub witnesses: Vec<WitnessMark>,
    /// Prediction precision against the passing population.
    pub precision: f64,
    /// Prediction recall over the failing population.
    pub recall: f64,
    /// Harmonic support score — same formula as the predictor ranking.
    pub support: f64,
    /// Failure profiles containing the event.
    pub failure_matches: usize,
    /// Success profiles containing the event.
    pub success_matches: usize,
}

/// An ordered root-cause → propagation → failure chain with per-link
/// evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalChain {
    /// Which ring was walked.
    pub kind: ChainKind,
    /// Display form of the top-ranked predictor (with `!` prefix when it
    /// is an absence predictor).
    pub top_predictor: String,
    /// Display form of the presence predictor the walk anchored at.
    /// Differs from `top_predictor` only when the top is an absence
    /// predictor.
    pub anchor: String,
    /// Failing-witness traces the walk consulted (ring-retention capped;
    /// support counts below cover the full populations).
    pub witnesses_consulted: usize,
    /// Failure profiles in the support population.
    pub failures: usize,
    /// Success profiles in the support population.
    pub successes: usize,
    /// What failed, when known (`FailureKind` display of the witness
    /// run, e.g. `assertion failed: ...`).
    pub symptom: Option<String>,
    /// The links, root cause first.
    pub links: Vec<ChainLink>,
}

/// One decoded occurrence in a failing trace: 1-based ring position, the
/// source-level event, and the mechanism string for that record.
type TraceEntry<E> = (usize, E, String);

fn lbr_trace(entries: &[DecodedLbrEntry]) -> Vec<TraceEntry<BranchOutcome>> {
    entries
        .iter()
        .filter_map(|e| {
            e.branch_outcome().map(|bo| {
                (
                    e.position,
                    bo,
                    format!(
                        "edge {:#010x} -> {:#010x} taken {}",
                        e.record.from,
                        e.record.to,
                        if bo.outcome { "TRUE" } else { "FALSE" }
                    ),
                )
            })
        })
        .collect()
}

fn lcr_trace(entries: &[DecodedLcrEntry]) -> Vec<TraceEntry<CoherenceEvent>> {
    entries
        .iter()
        .map(|e| {
            let t = mesi_transition(e.event.access, e.event.state);
            (
                e.position,
                e.event,
                format!("{}: {}", t.transition, t.meaning),
            )
        })
        .collect()
}

fn branch_label(program: Option<&Program>, e: &BranchOutcome) -> String {
    match program {
        Some(p) => {
            let loc = p
                .branches
                .iter()
                .find(|b| b.id == e.branch)
                .map(|b| p.render_loc(b.loc))
                .unwrap_or_else(|| "<unknown>".to_string());
            format!(
                "branch {} at {} taken {}",
                e.branch,
                loc,
                if e.outcome { "TRUE" } else { "FALSE" }
            )
        }
        None => e.to_string(),
    }
}

fn coherence_label(program: Option<&Program>, e: &CoherenceEvent) -> String {
    match program {
        Some(p) => format!(
            "{} at {} observed {}",
            e.access,
            p.render_loc(e.loc),
            e.state
        ),
        None => e.to_string(),
    }
}

impl CausalChain {
    /// Reconstructs an LBR chain from a batch ranking and decoded
    /// failing-witness traces. Pass the ranking *after* site-guard
    /// exclusion so the anchor is a cause, not the failure site itself.
    /// `None` when the ranking is empty or no trace contains the anchor.
    pub fn from_lbra(
        program: Option<&Program>,
        ranked: &[RankedEvent<BranchOutcome>],
        traces: &[(String, Vec<DecodedLbrEntry>)],
        failures: usize,
        successes: usize,
    ) -> Option<CausalChain> {
        let traces: Vec<(String, Vec<TraceEntry<BranchOutcome>>)> = traces
            .iter()
            .map(|(w, entries)| (w.clone(), lbr_trace(entries)))
            .collect();
        reconstruct(ChainKind::Lbr, ranked, &traces, failures, successes, |e| {
            branch_label(program, e)
        })
    }

    /// Reconstructs an LCR chain from a batch ranking and decoded
    /// failing-witness traces. `None` when the ranking is empty or no
    /// trace contains the anchor.
    pub fn from_lcra(
        program: Option<&Program>,
        ranked: &[RankedEvent<CoherenceEvent>],
        traces: &[(String, Vec<DecodedLcrEntry>)],
        failures: usize,
        successes: usize,
    ) -> Option<CausalChain> {
        let traces: Vec<(String, Vec<TraceEntry<CoherenceEvent>>)> = traces
            .iter()
            .map(|(w, entries)| (w.clone(), lcr_trace(entries)))
            .collect();
        reconstruct(ChainKind::Lcr, ranked, &traces, failures, successes, |e| {
            coherence_label(program, e)
        })
    }

    /// Reconstructs the *live* chain of a streaming ingest from scratch;
    /// [`LiveChain::rebuild`] with an empty cache.
    pub fn from_ingest(ingest: &SnapshotIngest) -> Option<CausalChain> {
        LiveChain::default().rebuild(ingest)
    }

    /// Attaches the failing run's symptom (its `FailureKind` display) to
    /// the chain — the dossier-side context of the storyline.
    pub fn with_symptom(mut self, symptom: impl Into<String>) -> Self {
        self.symptom = Some(symptom.into());
        self
    }

    /// 1-based position of the first link matching `pred` — how the
    /// chain-quality gate asks "does the chain contain the injected
    /// root-cause event".
    pub fn link_rank_of(&self, pred: impl FnMut(&ChainLink) -> bool) -> Option<usize> {
        self.links.iter().position(pred).map(|i| i + 1)
    }

    /// The smallest link support score — the chain's weakest evidence.
    pub fn min_link_support(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.support)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether two chains tell the same storyline: same ring, top
    /// predictor, anchor and ordered link events. Support scores,
    /// population counts and witness marks move with every ingested
    /// snapshot and are not part of it — this is the `diagnosis.chain`
    /// event gate, which fires only when a chain forms or changes.
    pub fn same_storyline(&self, other: &CausalChain) -> bool {
        self.kind == other.kind
            && self.top_predictor == other.top_predictor
            && self.anchor == other.anchor
            && self.links.len() == other.links.len()
            && self
                .links
                .iter()
                .zip(&other.links)
                .all(|(a, b)| a.event == b.event)
    }

    /// A stable fingerprint of the chain's observable content.
    /// Deterministic across processes (fixed-key hasher over the encoded
    /// JSON).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.to_json().encode().hash(&mut h);
        h.finish()
    }

    /// The chain as a JSON object (the `/diagnosis` and report shape).
    pub fn to_json(&self) -> Json {
        let links = self
            .links
            .iter()
            .map(|l| {
                let witnesses = l
                    .witnesses
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("witness", Json::from(m.witness.clone())),
                            ("position", Json::from(m.position)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("role", Json::from(l.role.as_str())),
                    ("event", Json::from(l.event.clone())),
                    ("label", Json::from(l.label.clone())),
                    ("mechanism", Json::from(l.mechanism.clone())),
                    ("mean_position", Json::from(l.mean_position)),
                    ("precision", Json::from(l.precision)),
                    ("recall", Json::from(l.recall)),
                    ("support", Json::from(l.support)),
                    ("failure_matches", Json::from(l.failure_matches)),
                    ("success_matches", Json::from(l.success_matches)),
                    ("witnesses", Json::Arr(witnesses)),
                ])
            })
            .collect();
        Json::obj([
            ("kind", Json::from(self.kind.as_str())),
            ("top_predictor", Json::from(self.top_predictor.clone())),
            ("anchor", Json::from(self.anchor.clone())),
            ("witnesses_consulted", Json::from(self.witnesses_consulted)),
            ("failures", Json::from(self.failures)),
            ("successes", Json::from(self.successes)),
            (
                "symptom",
                self.symptom.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
            ("links", Json::Arr(links)),
        ])
    }

    /// The chain as a markdown storyline section.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Causal chain ({})", self.kind.as_str());
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Top predictor `{}`; walk anchored at `{}` across {} failing witness trace(s) \
             ({} failure / {} success profiles in the support population).",
            self.top_predictor,
            self.anchor,
            self.witnesses_consulted,
            self.failures,
            self.successes
        );
        if let Some(symptom) = &self.symptom {
            let _ = writeln!(out, "Failure symptom: {symptom}.");
        }
        let _ = writeln!(out);
        for (i, l) in self.links.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}. **{}** — {} (rides `{}`)",
                i + 1,
                l.role.as_str(),
                l.label,
                l.mechanism
            );
            let marks: Vec<String> = l
                .witnesses
                .iter()
                .map(|m| format!("{}@{}", m.witness, m.position))
                .collect();
            let _ = writeln!(
                out,
                "   support {:.3} (precision {:.2}, recall {:.2}; {}F/{}S), \
                 mean ring position {:.1}, seen in {}",
                l.support,
                l.precision,
                l.recall,
                l.failure_matches,
                l.success_matches,
                l.mean_position,
                if marks.is_empty() {
                    "(no retained trace)".to_string()
                } else {
                    marks.join(", ")
                }
            );
        }
        if self.links.is_empty() {
            let _ = writeln!(out, "(no links)");
        }
        out
    }
}

/// The live causal chain of one streaming ingest, with its decode cache.
///
/// A [`SnapshotIngest`] retains its first [`CHAIN_TRACE_CAP`] failing
/// ring snapshots verbatim and never changes them afterwards, so each
/// one needs decoding (and its mechanism strings formatting) exactly
/// once. [`LiveChain::rebuild`] decodes only the traces retained since
/// the previous call, then reruns the backward walk over the cached
/// traces against the ingest's current live ranking. Follow one ingest
/// per `LiveChain`.
///
/// [`CHAIN_TRACE_CAP`]: stm_core::converge::CHAIN_TRACE_CAP
#[derive(Debug, Default)]
pub struct LiveChain {
    /// How many of the ingest's retained traces are decoded below.
    decoded: usize,
    lbr: Vec<(String, Vec<TraceEntry<BranchOutcome>>)>,
    lcr: Vec<(String, Vec<TraceEntry<CoherenceEvent>>)>,
}

impl LiveChain {
    /// Reconstructs the live chain of `ingest`: anchors on the current
    /// incremental top predictor and walks the retained failing traces.
    /// Labels are canonical (the ingest holds a
    /// [`Layout`](stm_machine::layout::Layout), not a [`Program`]).
    /// `None` before the first failing trace is retained or while no
    /// retained trace contains the anchor.
    pub fn rebuild(&mut self, ingest: &SnapshotIngest) -> Option<CausalChain> {
        let layout = ingest.layout();
        for (w, data) in ingest.chain_traces().iter().skip(self.decoded) {
            match data {
                ProfileData::Lbr(records) => self
                    .lbr
                    .push((w.clone(), lbr_trace(&decode_lbr(layout, records)))),
                ProfileData::Lcr(records) => self
                    .lcr
                    .push((w.clone(), lcr_trace(&decode_lcr(layout, records)))),
            }
        }
        self.decoded = ingest.chain_traces().len();
        let (failures, successes) = (ingest.failures(), ingest.successes());
        match ingest.live_ranking()? {
            LiveRanking::Lbr(scored) => reconstruct(
                ChainKind::Lbr,
                scored,
                &self.lbr,
                failures,
                successes,
                |e| branch_label(None, e),
            ),
            LiveRanking::Lcr(scored) => reconstruct(
                ChainKind::Lcr,
                scored,
                &self.lcr,
                failures,
                successes,
                |e| coherence_label(None, e),
            ),
        }
    }
}

/// Sightings of one candidate event across the failing windows.
#[derive(Debug, Default)]
struct Candidate {
    marks: Vec<WitnessMark>,
    position_sum: u64,
    mechanism: String,
}

/// The shared reconstruction walk over decoded, mechanism-annotated
/// traces. `stats` must be in ranking order (best predictor first); its
/// witness lists are not read, so a live ranking serves as well as a
/// batch one.
fn reconstruct<E: Ord + Clone + std::fmt::Display>(
    kind: ChainKind,
    stats: &[RankedEvent<E>],
    traces: &[(String, Vec<TraceEntry<E>>)],
    failures: usize,
    successes: usize,
    label: impl Fn(&E) -> String,
) -> Option<CausalChain> {
    let top = stats.first()?;
    let top_display = match top.polarity {
        Polarity::Present => format!("{}", top.event),
        Polarity::Absent => format!("!{}", top.event),
    };
    // The anchor must be a presence predictor that actually occurs in a
    // retained failing trace — an absence predictor never does, and a
    // presence predictor can be missing from the (capped) retained set.
    let anchor = stats
        .iter()
        .filter(|s| s.polarity == Polarity::Present)
        .find(|s| {
            traces
                .iter()
                .any(|(_, t)| t.iter().any(|(_, e, _)| *e == s.event))
        })?;
    let anchor_event = anchor.event.clone();

    // Per-witness window: from the anchor's deepest occurrence down to
    // the failure at position 1. Witnesses without the anchor contribute
    // no window (their snapshot starts after the root cause fired).
    let mut candidates: BTreeMap<E, Candidate> = BTreeMap::new();
    let mut consulted = 0usize;
    for (witness, trace) in traces {
        let Some(anchor_pos) = trace
            .iter()
            .filter(|(_, e, _)| *e == anchor_event)
            .map(|(p, _, _)| *p)
            .max()
        else {
            continue;
        };
        consulted += 1;
        // Deepest in-window occurrence per event in this witness.
        let mut deepest: BTreeMap<&E, (usize, &str)> = BTreeMap::new();
        for (pos, event, mechanism) in trace {
            if *pos <= anchor_pos {
                deepest.insert(event, (*pos, mechanism.as_str()));
            }
        }
        for (event, (pos, mechanism)) in deepest {
            let c = candidates.entry(event.clone()).or_default();
            c.marks.push(WitnessMark {
                witness: witness.clone(),
                position: pos,
            });
            c.position_sum += pos as u64;
            if c.mechanism.is_empty() {
                c.mechanism = mechanism.to_string();
            }
        }
    }
    if consulted == 0 {
        return None;
    }

    // An event no predictor scores has zero support.
    let support_of = |event: &E| {
        stats
            .iter()
            .find(|s| s.polarity == Polarity::Present && s.event == *event)
            .map_or((0.0, 0.0, 0.0, 0, 0), |s| {
                (
                    s.precision,
                    s.recall,
                    s.score,
                    s.failure_matches,
                    s.success_matches,
                )
            })
    };

    let mut links: Vec<ChainLink> = candidates
        .into_iter()
        .map(|(event, c)| {
            let (precision, recall, support, failure_matches, success_matches) = support_of(&event);
            ChainLink {
                role: LinkRole::Propagation,
                event: format!("{event}"),
                label: label(&event),
                mechanism: c.mechanism,
                mean_position: c.position_sum as f64 / c.marks.len() as f64,
                witnesses: c.marks,
                precision,
                recall,
                support,
                failure_matches,
                success_matches,
            }
        })
        .collect();

    // Temporal order: deepest mean position first (root cause end), ties
    // by support descending, then event display — all deterministic.
    links.sort_by(|a, b| {
        b.mean_position
            .total_cmp(&a.mean_position)
            .then_with(|| b.support.total_cmp(&a.support))
            .then_with(|| a.event.cmp(&b.event))
    });

    // The anchor leads the storyline regardless of its mean position
    // (other window events can average deeper across different witness
    // subsets).
    let anchor_display = format!("{anchor_event}");
    if let Some(i) = links.iter().position(|l| l.event == anchor_display) {
        let anchor_link = links.remove(i);
        links.insert(0, anchor_link);
    }

    // Cap: keep the anchor and the failure-end link, fill the middle
    // with the best-supported propagation links, then restore order.
    if links.len() > MAX_LINKS {
        let last = links.pop().expect("len > MAX_LINKS >= 2");
        let anchor_link = links.remove(0);
        let mut order: Vec<usize> = (0..links.len()).collect();
        order.sort_by(|&a, &b| {
            links[b]
                .support
                .total_cmp(&links[a].support)
                .then_with(|| links[a].event.cmp(&links[b].event))
        });
        let mut keep: Vec<bool> = vec![false; links.len()];
        for &i in order.iter().take(MAX_LINKS - 2) {
            keep[i] = true;
        }
        let mut kept: Vec<ChainLink> = links
            .into_iter()
            .zip(keep)
            .filter_map(|(l, k)| k.then_some(l))
            .collect();
        kept.insert(0, anchor_link);
        kept.push(last);
        links = kept;
    }

    let n = links.len();
    for (i, l) in links.iter_mut().enumerate() {
        l.role = if i == 0 {
            LinkRole::RootCause
        } else if i == n - 1 {
            LinkRole::Failure
        } else {
            LinkRole::Propagation
        };
    }

    Some(CausalChain {
        kind,
        top_predictor: top_display,
        anchor: anchor_display,
        witnesses_consulted: consulted,
        failures,
        successes,
        symptom: None,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_machine::events::{AccessKind, BranchKind, BranchRecord, CoherenceState};
    use stm_machine::ids::BranchId;
    use stm_machine::ir::SourceLoc;
    use stm_machine::layout::Decoded;

    fn bo(branch: u32, outcome: bool) -> BranchOutcome {
        BranchOutcome {
            branch: BranchId::new(branch),
            outcome,
        }
    }

    fn ranked_bo(
        branch: u32,
        outcome: bool,
        score: f64,
        f: usize,
        s: usize,
    ) -> RankedEvent<BranchOutcome> {
        RankedEvent {
            event: bo(branch, outcome),
            polarity: Polarity::Present,
            precision: score,
            recall: score,
            score,
            failure_matches: f,
            success_matches: s,
            failure_witnesses: vec![],
            success_witnesses: vec![],
        }
    }

    fn entry(position: usize, branch: u32, outcome: bool) -> DecodedLbrEntry {
        DecodedLbrEntry {
            position,
            record: BranchRecord {
                from: 0x100 + 8 * branch as u64,
                to: 0x200 + 8 * branch as u64,
                kind: BranchKind::CondJump,
            },
            decoded: Some(Decoded::SourceBranch {
                branch: BranchId::new(branch),
                outcome,
                loc: SourceLoc::UNKNOWN,
                func: stm_machine::ids::FuncId::new(0),
            }),
        }
    }

    type DemoTraces = Vec<(String, Vec<DecodedLbrEntry>)>;

    /// Two witnesses, anchor b0=true deepest, b1/b2 in the window, b9
    /// outside it (deeper than the anchor).
    fn demo_inputs() -> (Vec<RankedEvent<BranchOutcome>>, DemoTraces) {
        let ranked = vec![
            ranked_bo(0, true, 1.0, 2, 0),
            ranked_bo(1, false, 0.8, 2, 1),
            ranked_bo(2, true, 0.5, 1, 1),
            ranked_bo(9, true, 0.1, 1, 2),
        ];
        let traces = vec![
            (
                "fail:w0:seed1".to_string(),
                vec![
                    entry(1, 2, true),
                    entry(2, 1, false),
                    entry(3, 0, true),
                    entry(4, 9, true), // before the root cause: outside
                ],
            ),
            (
                "fail:w1:seed2".to_string(),
                vec![entry(1, 1, false), entry(2, 0, true)],
            ),
        ];
        (ranked, traces)
    }

    #[test]
    fn chain_orders_root_cause_to_failure() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        assert_eq!(chain.kind, ChainKind::Lbr);
        assert_eq!(chain.anchor, "br0=true");
        assert_eq!(chain.top_predictor, "br0=true");
        assert_eq!(chain.witnesses_consulted, 2);
        let events: Vec<&str> = chain.links.iter().map(|l| l.event.as_str()).collect();
        assert_eq!(events, vec!["br0=true", "br1=false", "br2=true"]);
        assert_eq!(chain.links[0].role, LinkRole::RootCause);
        assert_eq!(chain.links[1].role, LinkRole::Propagation);
        assert_eq!(chain.links[2].role, LinkRole::Failure);
        // b9 sits deeper than the anchor in w0: not part of the story.
        assert!(!events.contains(&"br9=true"));
    }

    #[test]
    fn link_evidence_carries_witness_positions_and_support() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        let root = &chain.links[0];
        assert_eq!(root.witnesses.len(), 2);
        assert_eq!(root.witnesses[0].witness, "fail:w0:seed1");
        assert_eq!(root.witnesses[0].position, 3);
        assert_eq!(root.witnesses[1].position, 2);
        assert_eq!(root.mean_position, 2.5);
        assert_eq!(root.support, 1.0);
        assert_eq!(root.failure_matches, 2);
        assert!(root.mechanism.starts_with("edge 0x"));
    }

    #[test]
    fn absence_top_predictor_anchors_at_best_presence() {
        let (mut ranked, traces) = demo_inputs();
        ranked.insert(
            0,
            RankedEvent {
                polarity: Polarity::Absent,
                ..ranked_bo(7, true, 1.0, 2, 0)
            },
        );
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        assert_eq!(chain.top_predictor, "!br7=true");
        assert_eq!(chain.anchor, "br0=true");
    }

    #[test]
    fn empty_ranking_or_unmatched_anchor_yields_no_chain() {
        let (ranked, traces) = demo_inputs();
        assert!(CausalChain::from_lbra(None, &[], &traces, 0, 0).is_none());
        // A ranking whose presence predictors never occur in any trace.
        let foreign = vec![ranked_bo(42, true, 1.0, 1, 0)];
        assert!(CausalChain::from_lbra(None, &foreign, &traces, 1, 0).is_none());
        // Empty rings: nothing to anchor in.
        let empty = vec![("fail:w0:seed1".to_string(), vec![])];
        assert!(CausalChain::from_lbra(None, &ranked, &empty, 2, 2).is_none());
    }

    #[test]
    fn cap_keeps_anchor_and_failure_end() {
        // One witness with MAX_LINKS + 3 distinct events; the middle is
        // thinned by support but the ends survive.
        let n = MAX_LINKS + 3;
        let mut ranked = vec![ranked_bo(0, true, 1.0, 1, 0)];
        let mut trace = Vec::new();
        for i in 0..n {
            let branch = i as u32;
            if branch != 0 {
                ranked.push(ranked_bo(branch, true, 0.9 - 0.01 * i as f64, 1, 1));
            }
            // Position n..1: branch 0 deepest, branch n-1 at position 1.
            trace.push(entry(n - i, branch, true));
        }
        let traces = vec![("fail:w0:seed1".to_string(), trace)];
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 1, 1).unwrap();
        assert_eq!(chain.links.len(), MAX_LINKS);
        assert_eq!(chain.links[0].event, "br0=true");
        assert_eq!(chain.links[0].role, LinkRole::RootCause);
        let last = chain.links.last().unwrap();
        assert_eq!(last.event, format!("br{}=true", n - 1));
        assert_eq!(last.role, LinkRole::Failure);
    }

    #[test]
    fn lcr_links_ride_mesi_transitions() {
        let loc = SourceLoc::UNKNOWN;
        let e = CoherenceEvent {
            loc,
            state: CoherenceState::Shared,
            access: AccessKind::Store,
        };
        let ranked = vec![RankedEvent {
            event: e,
            polarity: Polarity::Present,
            precision: 1.0,
            recall: 1.0,
            score: 1.0,
            failure_matches: 1,
            success_matches: 0,
            failure_witnesses: vec![],
            success_witnesses: vec![],
        }];
        let traces = vec![(
            "fail:w0:seed1".to_string(),
            vec![DecodedLcrEntry {
                position: 1,
                record: stm_machine::events::CoherenceRecord {
                    pc: 0x10,
                    state: CoherenceState::Shared,
                    access: AccessKind::Store,
                },
                event: e,
            }],
        )];
        let chain = CausalChain::from_lcra(None, &ranked, &traces, 1, 0).unwrap();
        assert_eq!(chain.kind, ChainKind::Lcr);
        let t = mesi_transition(AccessKind::Store, CoherenceState::Shared);
        assert!(chain.links[0].mechanism.starts_with(t.transition));
    }

    #[test]
    fn json_round_trips_and_fingerprint_tracks_content() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2)
            .unwrap()
            .with_symptom("assertion failed: demo");
        let parsed = Json::parse(&chain.to_json().encode()).expect("valid JSON");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("lbr"));
        assert_eq!(
            parsed.get("symptom").and_then(Json::as_str),
            Some("assertion failed: demo")
        );
        assert_eq!(
            parsed
                .get("links")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(3)
        );
        let same = CausalChain::from_lbra(None, &ranked, &traces, 2, 2)
            .unwrap()
            .with_symptom("assertion failed: demo");
        assert_eq!(chain.fingerprint(), same.fingerprint());
        let different = CausalChain::from_lbra(None, &ranked, &traces[..1], 2, 2).unwrap();
        assert_ne!(chain.fingerprint(), different.fingerprint());
    }

    #[test]
    fn storyline_ignores_evidence_but_tracks_links() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        // One witness fewer and other population counts: new witness
        // marks, positions and counts, same links in the same order.
        let fewer = CausalChain::from_lbra(None, &ranked, &traces[..1], 3, 5).unwrap();
        assert_ne!(chain.fingerprint(), fewer.fingerprint());
        assert!(chain.same_storyline(&fewer));
        // Rescored links alone do not change the storyline either.
        let mut rescored = ranked.clone();
        rescored[1].score = 0.7;
        let rescored = CausalChain::from_lbra(None, &rescored, &traces, 2, 2).unwrap();
        assert!(chain.same_storyline(&rescored));
        // A new top predictor does, and so does a different link set.
        let mut top = ranked.clone();
        top.insert(
            0,
            RankedEvent {
                polarity: Polarity::Absent,
                ..ranked_bo(7, true, 1.0, 2, 0)
            },
        );
        let top = CausalChain::from_lbra(None, &top, &traces, 2, 2).unwrap();
        assert!(!chain.same_storyline(&top));
        let w1_only = CausalChain::from_lbra(None, &ranked, &traces[1..], 2, 2).unwrap();
        assert!(!chain.same_storyline(&w1_only));
    }

    #[test]
    fn rank_and_support_helpers() {
        let (ranked, traces) = demo_inputs();
        let chain = CausalChain::from_lbra(None, &ranked, &traces, 2, 2).unwrap();
        assert_eq!(chain.link_rank_of(|l| l.event == "br0=true"), Some(1));
        assert_eq!(chain.link_rank_of(|l| l.event == "br2=true"), Some(3));
        assert_eq!(chain.link_rank_of(|l| l.event == "br9=true"), None);
        assert_eq!(chain.min_link_support(), 0.5);
    }
}
