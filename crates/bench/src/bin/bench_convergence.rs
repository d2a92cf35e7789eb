//! Measures how fast the incremental diagnosis converges — the
//! observatory's "witnesses-to-stable-top-1" benchmark — and writes
//! `results/BENCH_convergence.json` plus one
//! `results/CONVERGENCE_<id>.json` curve artifact per benchmark.
//!
//! For one sequential benchmark (sort, LBRA) and one concurrency
//! benchmark (apache4, LCRA Conf2) the harness runs the same witness
//! sets twice: once to full quota under `StabilityPolicy::never()`
//! (monitor-only), once under the default early-stop policy. Both
//! sessions collect at `threads(1)` and the witness seed scan runs
//! [`untracked`]: results are thread-invariant (pinned in
//! `tests/engine_determinism.rs`), but the gated `counters.*` would
//! otherwise include the speculative overshoot of a parallel pool and
//! depend on the core count of the machine running the gate. It then
//! replays the full-quota witness runs through the public
//! [`SnapshotIngest`] API to chart the rank of the ground-truth root
//! cause after every ingested witness and to find the exact witness
//! count at which the default policy fires.
//!
//! Gated metrics (all deterministic — the simulation is fully seeded —
//! and all "higher is worse" for `bench_diff`):
//!
//! * `witnesses_full` / `witnesses_early` — witnesses ingested by the
//!   full-quota and early-stopped sessions; early-stop regressing
//!   toward the quota fails CI.
//! * `witnesses_to_stable_top1` — first witness count satisfying the
//!   default policy on the full stream (`null` = never stabilised).
//! * `top1_mismatch` — 0 when the early-stopped session's top-1 equals
//!   the full-quota top-1, 1 otherwise (the acceptance invariant).
//! * `rank_full` / `rank_early` — 1-based rank of the root cause in
//!   each session's final (batch-identical) ranking.

use stm_bench::{json_rank, mark, untracked, MetricsEmitter};
use stm_core::converge::{FinalRanking, LiveRanking, SnapshotIngest, StabilityPolicy};
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_core::ranking::RankingModel;
use stm_suite::eval::{expand_workloads, lbra_runner, lcra_runner};
use stm_suite::Benchmark;
use stm_telemetry::json::Json;

fn main() {
    let mut metrics = MetricsEmitter::new("convergence");
    println!("Diagnosis convergence (witnesses to a stable top-1; lower is better)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "bench", "full", "early", "stable@", "rank_full", "rank_early", "top1_ok"
    );

    for (id, lbr) in [("sort", true), ("apache4", false)] {
        let b = stm_suite::by_id(id).expect("benchmark exists");
        let runner = if lbr {
            lbra_runner(&b)
        } else {
            lcra_runner(&b)
        };
        let (failing, passing) = untracked(|| expand_workloads(&b, &runner));

        let run = |policy: StabilityPolicy| -> CollectedProfiles {
            DiagnosisSession::from_runner(&runner)
                .failure(b.truth.spec.clone())
                .failing(failing.clone())
                .passing(passing.clone())
                .profile_kind(if lbr {
                    ProfileKind::Lbr
                } else {
                    ProfileKind::Lcr
                })
                .threads(1)
                .converge(policy)
                .collect()
                .expect("witness-mode collection cannot fail")
        };
        let full = run(StabilityPolicy::never());
        let early = run(StabilityPolicy::default());
        let full_report = full.convergence().expect("monitored session reports");
        let early_report = early.convergence().expect("monitored session reports");

        let (curve, stable_at) = replay(&b, &full);

        let witnesses_full = full_report.evidence.witnesses;
        let witnesses_early = early_report.evidence.witnesses;
        // The early session consumes a strict prefix of the full
        // session's job order, so the replayed stop point must agree
        // with where the live policy actually fired.
        if early_report.verdict == stm_core::converge::Verdict::ConvergedEarly {
            assert_eq!(
                stable_at,
                Some(witnesses_early),
                "{id}: replayed stop point diverged from the live session"
            );
        }
        let rank_full = rank_of_root_cause(&b, &full_report.final_ranking);
        let rank_early = rank_of_root_cause(&b, &early_report.final_ranking);
        let top1_mismatch = usize::from(full_report.evidence.top1 != early_report.evidence.top1);

        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            id,
            witnesses_full,
            witnesses_early,
            mark(stable_at),
            mark(rank_full),
            mark(rank_early),
            if top1_mismatch == 0 { "yes" } else { "NO" },
        );

        metrics.checkpoint(
            id,
            vec![
                ("witnesses_full", Json::from(witnesses_full)),
                ("witnesses_early", Json::from(witnesses_early)),
                ("witnesses_to_stable_top1", json_rank(stable_at)),
                ("top1_mismatch", Json::from(top1_mismatch)),
                ("rank_full", json_rank(rank_full)),
                ("rank_early", json_rank(rank_early)),
            ],
        );

        let artifact = Json::obj([
            ("benchmark", Json::from(id)),
            ("mode", Json::from(if lbr { "lbra" } else { "lcra" })),
            ("verdict_full", Json::from(full_report.verdict.as_str())),
            ("verdict_early", Json::from(early_report.verdict.as_str())),
            ("witnesses_full", Json::from(witnesses_full)),
            ("witnesses_early", Json::from(witnesses_early)),
            ("witnesses_to_stable_top1", json_rank(stable_at)),
            ("policy", early_report.policy.to_json()),
            (
                "top1_full",
                full_report
                    .evidence
                    .top1
                    .clone()
                    .map_or(Json::Null, Json::from),
            ),
            (
                "top1_early",
                early_report
                    .evidence
                    .top1
                    .clone()
                    .map_or(Json::Null, Json::from),
            ),
            (
                "curve",
                Json::Arr(
                    curve
                        .iter()
                        .map(|(w, rank)| Json::Arr(vec![Json::from(*w), json_rank(*rank)]))
                        .collect(),
                ),
            ),
            (
                "history",
                Json::Arr(
                    full_report
                        .evidence
                        .history
                        .iter()
                        .map(|p| {
                            Json::Arr(vec![
                                Json::from(p.witness),
                                Json::from(p.churn),
                                Json::from(p.top1_streak),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = format!("results/CONVERGENCE_{id}.json");
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, artifact.encode() + "\n"))
        {
            Ok(()) => println!("wrote {path}"),
            Err(e) => stm_telemetry::log::warn(
                "bench",
                "artifact.write_failed",
                vec![("path", path), ("error", e.to_string())],
            ),
        }
    }

    match metrics.finish() {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => stm_telemetry::log::warn(
            "bench",
            "metrics.write_failed",
            vec![("error", e.to_string())],
        ),
    }
}

/// 1-based rank of the benchmark's ground-truth root cause in a
/// session's final (raw batch-model) ranking.
fn rank_of_root_cause(b: &Benchmark, ranking: &FinalRanking) -> Option<usize> {
    match ranking {
        FinalRanking::Lbr(r) => rank_of_root_cause_in(b, LiveRanking::Lbr(r)),
        FinalRanking::Lcr(r) => rank_of_root_cause_in(b, LiveRanking::Lcr(r)),
    }
}

/// 1-based rank of the benchmark's ground-truth root cause in a ranking.
fn rank_of_root_cause_in(b: &Benchmark, ranking: LiveRanking<'_>) -> Option<usize> {
    match ranking {
        LiveRanking::Lbr(r) => {
            let target = b.truth.target_branch().expect("sequential target");
            RankingModel::rank_of(r, |p| p.event.branch == target)
        }
        LiveRanking::Lcr(r) => {
            let fpe = b.truth.fpe.expect("concurrency FPE");
            let state = fpe.conf2_state.expect("Conf2 state");
            RankingModel::rank_of(r, |p| p.event.loc == fpe.loc && p.event.state == state)
        }
    }
}

/// Replays a full-quota session's kept witness runs — in the engine's
/// consumption order (all failures, then all successes) — through a
/// fresh [`SnapshotIngest`] under the default policy, charting the root
/// cause's live rank after every ingested witness and finding where the
/// policy stops.
fn replay(
    b: &Benchmark,
    profiles: &CollectedProfiles,
) -> (Vec<(usize, Option<usize>)>, Option<usize>) {
    let mut ingest = SnapshotIngest::new(
        profiles.runner().machine().layout().clone(),
        b.truth.spec.clone(),
        StabilityPolicy::default(),
    );
    let runs = profiles
        .failure_runs()
        .iter()
        .map(|r| (true, r))
        .chain(profiles.success_runs().iter().map(|r| (false, r)));
    let mut curve = Vec::new();
    let mut stable_at = None;
    for (is_failure, run) in runs {
        if !ingest.observe(is_failure, &run.witness, &run.report) {
            continue;
        }
        let witness = ingest.witnesses();
        let ranking = ingest
            .live_ranking()
            .expect("an ingested witness pins the ring");
        curve.push((witness, rank_of_root_cause_in(b, ranking)));
        if stable_at.is_none() && ingest.should_stop() {
            stable_at = Some(witness);
        }
    }
    (curve, stable_at)
}
