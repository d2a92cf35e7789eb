//! The collection engine's headline guarantee: thread count never changes
//! results. `threads(1)` and `threads(8)` must produce byte-identical
//! ranking artifacts for a sequential (LBRA) and a concurrency (LCRA)
//! benchmark — same witnesses, same stats, same serialized report.

use stm::core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm::core::runner::Runner;
use stm::core::transform::instrument;
use stm::forensics::RankingReport;
use stm::machine::events::LcrConfig;
use stm::machine::interp::Machine;
use stm::suite::eval::{expand_workloads, reactive_options};
use stm::suite::Benchmark;

/// Collects one benchmark's profiles at the given thread count, with an
/// optional hardware override (perturbed sweeps reuse full-signal
/// witnesses: perturbation never changes execution or classification).
fn collect_hw(
    b: &Benchmark,
    kind: ProfileKind,
    threads: usize,
    hw: Option<stm::hardware::HwConfig>,
) -> (Runner, CollectedProfiles) {
    let opts = match kind {
        ProfileKind::Lbr => reactive_options(b, true, None),
        ProfileKind::Lcr => reactive_options(b, false, Some(LcrConfig::SPACE_CONSUMING)),
    };
    let runner = Runner::new(Machine::new(instrument(&b.program, &opts)));
    let (failing, passing) = expand_workloads(b, &runner);
    let mut session = DiagnosisSession::from_runner(&runner)
        .failure(b.truth.spec.clone())
        .failing(failing)
        .passing(passing)
        .profile_kind(kind)
        .threads(threads);
    if let Some(hw) = hw {
        session = session.hw_config(hw);
    }
    let profiles = session.collect().expect("collection succeeds");
    (runner, profiles)
}

/// Collects one benchmark's profiles at the given thread count.
fn collect(b: &Benchmark, kind: ProfileKind, threads: usize) -> (Runner, CollectedProfiles) {
    collect_hw(b, kind, threads, None)
}

/// Collects with a convergence monitor attached.
fn collect_converge(
    b: &Benchmark,
    kind: ProfileKind,
    threads: usize,
    policy: stm::core::converge::StabilityPolicy,
) -> CollectedProfiles {
    let opts = match kind {
        ProfileKind::Lbr => reactive_options(b, true, None),
        ProfileKind::Lcr => reactive_options(b, false, Some(LcrConfig::SPACE_CONSUMING)),
    };
    let runner = Runner::new(Machine::new(instrument(&b.program, &opts)));
    let (failing, passing) = expand_workloads(b, &runner);
    DiagnosisSession::from_runner(&runner)
        .failure(b.truth.spec.clone())
        .failing(failing)
        .passing(passing)
        .profile_kind(kind)
        .threads(threads)
        .converge(policy)
        .collect()
        .expect("collection succeeds")
}

fn witnesses(p: &CollectedProfiles) -> (Vec<String>, Vec<String>) {
    let names = |runs: &[stm::core::engine::CollectedRun]| {
        runs.iter().map(|r| r.witness.clone()).collect::<Vec<_>>()
    };
    (names(p.failure_runs()), names(p.success_runs()))
}

#[test]
fn lbra_ranking_json_is_identical_at_1_and_8_threads() {
    let b = stm::suite::by_id("sort").expect("sort benchmark");
    let (runner1, p1) = collect(&b, ProfileKind::Lbr, 1);
    let (_, p8) = collect(&b, ProfileKind::Lbr, 8);

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let report = |p: &CollectedProfiles| {
        let mut d = p.lbra();
        d.exclude_site_guards(runner1.machine().program(), &b.truth.spec);
        RankingReport::from_lbra(runner1.machine().program(), b.info.id, &d, 10)
            .to_json()
            .encode()
    };
    assert_eq!(
        report(&p1),
        report(&p8),
        "LBRA ranking JSON must be byte-identical"
    );
}

/// A mid-grid sensitivity setting: truncate both rings to 8 records and
/// drop each surviving record with probability 1/2.
fn perturbed_hw() -> stm::hardware::HwConfig {
    stm::hardware::HwConfig {
        perturb: stm::hardware::PerturbConfig::NONE
            .truncate_lbr(8)
            .truncate_lcr(8)
            .drop_rate(0.5),
        ..stm::hardware::HwConfig::default()
    }
}

#[test]
fn perturbed_lbra_ranking_json_is_identical_at_1_and_8_threads() {
    // Fault injection draws from a per-run RNG seeded by the workload's
    // scheduler seed, so a degraded-signal session must keep the engine's
    // headline guarantee: thread count never changes results.
    let b = stm::suite::by_id("sort").expect("sort benchmark");
    let (runner1, p1) = collect_hw(&b, ProfileKind::Lbr, 1, Some(perturbed_hw()));
    let (_, p8) = collect_hw(&b, ProfileKind::Lbr, 8, Some(perturbed_hw()));

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let report = |p: &CollectedProfiles| {
        let mut d = p.lbra();
        d.exclude_site_guards(runner1.machine().program(), &b.truth.spec);
        RankingReport::from_lbra(runner1.machine().program(), b.info.id, &d, 10)
            .to_json()
            .encode()
    };
    assert_eq!(
        report(&p1),
        report(&p8),
        "perturbed LBRA ranking JSON must be byte-identical"
    );
}

#[test]
fn perturbed_lcra_ranking_json_is_identical_at_1_and_8_threads() {
    let b = stm::suite::by_id("apache4").expect("apache4 benchmark");
    let (runner1, p1) = collect_hw(&b, ProfileKind::Lcr, 1, Some(perturbed_hw()));
    let (_, p8) = collect_hw(&b, ProfileKind::Lcr, 8, Some(perturbed_hw()));

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let report = |p: &CollectedProfiles| {
        let d = p.lcra();
        RankingReport::from_lcra(runner1.machine().program(), b.info.id, &d, 10)
            .to_json()
            .encode()
    };
    assert_eq!(
        report(&p1),
        report(&p8),
        "perturbed LCRA ranking JSON must be byte-identical"
    );
}

#[test]
fn guest_profile_is_identical_at_1_and_8_threads() {
    // The guest profiler samples on retired instructions — the machine's
    // own clock — so every profile artifact must inherit the engine's
    // thread-count invariance. (The critical-path report is wall-clock
    // and deliberately excluded from this pin.)
    let b = stm::suite::by_id("sort").expect("sort benchmark");
    let period = 64u64;
    let profile_at = |threads: usize| {
        let opts = reactive_options(&b, true, None);
        let runner = Runner::new(Machine::new(instrument(&b.program, &opts)));
        let (failing, passing) = expand_workloads(&b, &runner);
        let profiles = DiagnosisSession::from_runner(&runner)
            .run_config(stm::machine::interp::RunConfig {
                profile_period: period,
                ..runner.run_config().clone()
            })
            .failure(b.truth.spec.clone())
            .failing(failing)
            .passing(passing)
            .profile_kind(ProfileKind::Lbr)
            .threads(threads)
            .collect()
            .expect("collection succeeds");
        let mut g = stm::profiler::GuestProfile::new(runner.machine().program(), period);
        for run in profiles
            .failure_runs()
            .iter()
            .chain(profiles.success_runs())
        {
            g.add_run(&run.report);
        }
        g
    };
    let g1 = profile_at(1);
    let g8 = profile_at(8);
    assert_eq!(
        g1.folded(),
        g8.folded(),
        "folded stacks must be byte-identical"
    );
    assert_eq!(
        g1.render_md(10),
        g8.render_md(10),
        "markdown report must be byte-identical"
    );
    assert_eq!(
        g1.to_json(10).encode(),
        g8.to_json(10).encode(),
        "JSON report must be byte-identical"
    );
    assert!(!g1.folded().is_empty(), "sort must produce samples");
    // Pin sort's known hot spot: the instrumented run spends its leaf
    // samples in the hash function the bug lives around.
    let (top, _) = g1.top_frame().expect("samples exist");
    assert_eq!(top, "hash", "sort's hottest function must stay pinned");
}

#[test]
fn observatory_scrapes_do_not_change_rankings() {
    // The observability layer is read-only by construction: telemetry
    // collection on, the metrics endpoint live, and a scraper hammering
    // /metrics and /health throughout collection must leave the ranking
    // artifacts byte-identical across thread counts. (Nothing in this
    // binary asserts registry contents, so flipping the global enable
    // flag here cannot disturb the other tests.)
    use std::sync::atomic::{AtomicBool, Ordering};

    stm::telemetry::set_enabled(true);
    let server = stm::observatory::MetricsServer::start("127.0.0.1:0").expect("bind endpoint");
    let addr = server.addr();
    let stop = AtomicBool::new(false);

    let b = stm::suite::by_id("sort").expect("sort benchmark");
    let (p1, p8, scrapes) = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut scrapes = 0u64;
            let timeout = std::time::Duration::from_secs(2);
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/health"] {
                    if stm::observatory::watch::http_get(addr, path, timeout).is_ok() {
                        scrapes += 1;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            scrapes
        });
        let (_, p1) = collect(&b, ProfileKind::Lbr, 1);
        let (_, p8) = collect(&b, ProfileKind::Lbr, 8);
        stop.store(true, Ordering::Relaxed);
        (p1, p8, scraper.join().expect("scraper thread"))
    });
    stm::telemetry::set_enabled(false);

    assert!(scrapes > 0, "the endpoint must have answered live scrapes");
    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let runner = {
        let opts = reactive_options(&b, true, None);
        Runner::new(Machine::new(instrument(&b.program, &opts)))
    };
    let report = |p: &CollectedProfiles| {
        let mut d = p.lbra();
        d.exclude_site_guards(runner.machine().program(), &b.truth.spec);
        RankingReport::from_lbra(runner.machine().program(), b.info.id, &d, 10)
            .to_json()
            .encode()
    };
    assert_eq!(
        report(&p1),
        report(&p8),
        "rankings must be byte-identical with the observatory enabled"
    );
}

#[test]
fn incremental_ranking_at_quota_is_bit_identical_to_batch_rank() {
    // The tentpole invariant: a monitored session run to its full quota
    // (policy may never stop) must hand back a final ranking that is
    // bit-identical — scores, tie-break order, witness lists — to the
    // batch model over the same collected profiles, at both thread
    // counts.
    use stm::core::converge::{FinalRanking, StabilityPolicy};

    let sort = stm::suite::by_id("sort").expect("sort benchmark");
    let apache4 = stm::suite::by_id("apache4").expect("apache4 benchmark");
    for threads in [1, 8] {
        let p = collect_converge(&sort, ProfileKind::Lbr, threads, StabilityPolicy::never());
        let report = p.convergence().expect("monitored session reports");
        match &report.final_ranking {
            FinalRanking::Lbr(incremental) => {
                assert_eq!(
                    incremental,
                    &p.lbr_model().rank(),
                    "sort threads({threads}): incremental != batch rank()"
                );
            }
            FinalRanking::Lcr(_) => panic!("sort is an LBR session"),
        }

        let p = collect_converge(
            &apache4,
            ProfileKind::Lcr,
            threads,
            StabilityPolicy::never(),
        );
        let report = p.convergence().expect("monitored session reports");
        match &report.final_ranking {
            FinalRanking::Lcr(incremental) => {
                assert_eq!(
                    incremental,
                    &p.lcr_model().rank_with_absence(),
                    "apache4 threads({threads}): incremental != batch rank_with_absence()"
                );
            }
            FinalRanking::Lbr(_) => panic!("apache4 is an LCR session"),
        }
    }
}

#[test]
fn early_stop_is_identical_at_1_and_8_threads() {
    // The stability policy decides only at the strict-ordered consumption
    // seam, so an early-stopped session must keep every headline
    // determinism guarantee: same witnesses kept, same stop point, same
    // verdict and evidence, same final ranking at any thread count.
    use stm::core::converge::StabilityPolicy;

    let b = stm::suite::by_id("apache4").expect("apache4 benchmark");
    let p1 = collect_converge(&b, ProfileKind::Lcr, 1, StabilityPolicy::default());
    let p8 = collect_converge(&b, ProfileKind::Lcr, 8, StabilityPolicy::default());

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let r1 = p1.convergence().expect("monitored session reports");
    let r8 = p8.convergence().expect("monitored session reports");
    assert_eq!(r1.verdict, r8.verdict, "verdict must match");
    assert_eq!(r1.evidence, r8.evidence, "evidence must match");
    assert_eq!(r1.final_ranking, r8.final_ranking, "ranking must match");
    assert_eq!(
        r1.to_json().encode(),
        r8.to_json().encode(),
        "serialized convergence report must be byte-identical"
    );
    // The policy must actually have fired on apache4: fewer witnesses
    // than the 10 + 10 quota (the bench gate pins the exact count).
    assert_eq!(
        r1.verdict,
        stm::core::converge::Verdict::ConvergedEarly,
        "apache4 must converge early under the default policy"
    );
    assert!(
        r1.evidence.witnesses < 20,
        "early stop must ingest fewer witnesses than the quota, got {}",
        r1.evidence.witnesses
    );
}

/// The naive convergence history of a witness stream: a fresh batch
/// model over every prefix, its top-k keys, the Kendall churn and top-1
/// streak between consecutive prefixes, the score of every top-k member
/// at every prefix, and the last prefix's top-k.
fn naive_history<E: Ord + Clone + std::fmt::Display>(
    stream: &[(bool, String, std::collections::BTreeSet<E>)],
    absence: bool,
) -> (
    Vec<stm::core::converge::PollPoint>,
    Vec<stm::core::converge::Trajectory>,
    Vec<stm::core::converge::PredictorSummary>,
) {
    use stm::core::converge::{rank_churn, PollPoint, PredictorSummary, Trajectory, TOP_K};
    use stm::core::ranking::{Polarity, RankingModel};

    let mut last_top = Vec::new();
    let mut history = Vec::new();
    let mut trajectories: std::collections::BTreeMap<String, Vec<(usize, f64)>> =
        Default::default();
    let mut prev: Vec<(E, Polarity)> = Vec::new();
    let mut streak = 0;
    for witness in 1..=stream.len() {
        let mut model = RankingModel::new();
        for (is_failure, id, events) in &stream[..witness] {
            model.add_profile_named(*is_failure, id.clone(), events.clone());
        }
        let ranked = if absence {
            model.rank_with_absence()
        } else {
            model.rank()
        };
        let top = &ranked[..ranked.len().min(TOP_K)];
        let keys: Vec<(E, Polarity)> = top.iter().map(|p| (p.event.clone(), p.polarity)).collect();
        streak = match (prev.first(), keys.first()) {
            (Some(a), Some(b)) if a == b => streak + 1,
            (_, Some(_)) => 1,
            (_, None) => 0,
        };
        history.push(PollPoint {
            witness,
            churn: rank_churn(&prev, &keys),
            top1_streak: streak,
        });
        last_top.clear();
        for p in top {
            let label = match p.polarity {
                Polarity::Present => format!("{}", p.event),
                Polarity::Absent => format!("!{}", p.event),
            };
            trajectories
                .entry(label.clone())
                .or_default()
                .push((witness, p.score));
            last_top.push(PredictorSummary {
                predictor: label,
                precision: p.precision,
                recall: p.recall,
                score: p.score,
                failure_matches: p.failure_matches,
                success_matches: p.success_matches,
            });
        }
        prev = keys;
    }
    let trajectories = trajectories
        .into_iter()
        .map(|(predictor, points)| Trajectory { predictor, points })
        .collect();
    (history, trajectories, last_top)
}

#[test]
fn convergence_history_matches_a_naive_prefix_rebuild() {
    // Per-witness churn, streak and score trajectories are the live
    // convergence surface (`/diagnosis`, the CONVERGENCE_* curves); pin
    // them, and the final evidence and verdict, against a batch model
    // rebuilt over every witness prefix.
    use stm::core::converge::{StabilityPolicy, Verdict};
    use stm::core::diagnose::{failure_profile, success_profile};
    use stm::core::profile::{lbr_events, lcr_events};
    use stm::machine::report::ProfileData;

    let policy = StabilityPolicy::never();
    for (id, kind, verdict) in [
        ("sort", ProfileKind::Lbr, Verdict::Stalled),
        ("apache4", ProfileKind::Lcr, Verdict::Stable),
    ] {
        let b = stm::suite::by_id(id).expect("benchmark exists");
        let p = collect_converge(&b, kind, 1, policy);
        let layout = p.runner().machine().layout();
        let spec = p.spec();
        let runs = p
            .failure_runs()
            .iter()
            .map(|r| (true, r, failure_profile(&r.report, spec)))
            .chain(
                p.success_runs()
                    .iter()
                    .map(|r| (false, r, success_profile(&r.report, spec))),
            );
        let (history, trajectories, top) = match kind {
            ProfileKind::Lbr => {
                let stream: Vec<_> = runs
                    .map(
                        |(f, r, prof)| match &prof.expect("kept runs carry a profile").data {
                            ProfileData::Lbr(records) => {
                                (f, r.witness.clone(), lbr_events(layout, records))
                            }
                            ProfileData::Lcr(_) => panic!("{id}: LBR session kept an LCR profile"),
                        },
                    )
                    .collect();
                naive_history(&stream, false)
            }
            ProfileKind::Lcr => {
                let stream: Vec<_> = runs
                    .map(
                        |(f, r, prof)| match &prof.expect("kept runs carry a profile").data {
                            ProfileData::Lcr(records) => {
                                (f, r.witness.clone(), lcr_events(layout, records))
                            }
                            ProfileData::Lbr(_) => panic!("{id}: LCR session kept an LBR profile"),
                        },
                    )
                    .collect();
                naive_history(&stream, true)
            }
        };
        let report = p.convergence().expect("monitored session reports");
        let evidence = &report.evidence;
        assert_eq!(
            history.len(),
            20,
            "{id}: the full 10 + 10 quota is ingested"
        );
        assert_eq!(evidence.history, history, "{id}: per-witness poll history");
        assert_eq!(
            evidence.trajectories, trajectories,
            "{id}: per-predictor score trajectories"
        );

        // The final evidence is the last poll, and the verdict follows
        // the policy's stability conditions on it.
        let last = history.last().expect("non-empty history");
        assert_eq!(evidence.top, top, "{id}: final top-k");
        assert_eq!(
            evidence.top1.as_deref(),
            top.first().map(|t| t.predictor.as_str()),
            "{id}: final top-1"
        );
        assert_eq!(
            (evidence.churn, evidence.top1_streak),
            (last.churn, last.top1_streak),
            "{id}: final churn and streak"
        );
        assert_eq!(
            (evidence.witnesses, evidence.failures, evidence.successes),
            (20, 10, 10),
            "{id}: class counts"
        );
        let stable = last.top1_streak >= policy.stable_for
            && evidence.failures >= policy.min_failures
            && evidence.successes >= policy.min_successes;
        assert_eq!(evidence.stable, stable, "{id}: stability at the end");
        assert_eq!(report.verdict, verdict, "{id}: verdict");
    }
}

/// A reference hardware stack that forwards only the per-event
/// [`Hardware`](stm::machine::events::Hardware) methods, so the
/// trait-default `on_batch` replays every batch one event at a time —
/// exactly the pre-batching ingestion path the real
/// [`HardwareCtx`](stm::hardware::HardwareCtx) override must stay
/// bit-identical to.
struct PerEvent(stm::hardware::HardwareCtx);

impl stm::machine::events::Hardware for PerEvent {
    fn on_branch(
        &mut self,
        core: stm::machine::ids::CoreId,
        ev: stm::machine::events::BranchEvent,
    ) {
        self.0.on_branch(core, ev);
    }

    fn on_access(
        &mut self,
        core: stm::machine::ids::CoreId,
        thread: stm::machine::ids::ThreadId,
        ev: stm::machine::events::AccessEvent,
    ) {
        self.0.on_access(core, thread, ev);
    }

    fn ctl(
        &mut self,
        core: stm::machine::ids::CoreId,
        thread: stm::machine::ids::ThreadId,
        op: stm::machine::events::HwCtlOp,
    ) -> stm::machine::events::CtlResponse {
        self.0.ctl(core, thread, op)
    }
}

/// Collects a benchmark through the engine (batched event path, cached
/// per-thread hardware) and replays every kept witness on a fresh
/// per-event hardware stack: the full run reports — ring-snapshot
/// profiles included — must be byte-identical.
fn assert_batched_matches_per_event(
    bench: &str,
    kind: ProfileKind,
    hw: Option<stm::hardware::HwConfig>,
) {
    let b = stm::suite::by_id(bench).expect("benchmark exists");
    for threads in [1usize, 8] {
        let (runner, profiles) = collect_hw(&b, kind, threads, hw);
        let kept: Vec<_> = profiles
            .failure_runs()
            .iter()
            .chain(profiles.success_runs())
            .collect();
        assert!(!kept.is_empty(), "{bench} must keep witnesses");
        let hw_config = hw.unwrap_or_default();
        for run in kept {
            let mut reference = PerEvent(stm::hardware::HardwareCtx::new(hw_config));
            reference.0.seed_perturbations(run.workload.seed);
            let mut cfg = runner.run_config().clone();
            cfg.scheduler = stm::machine::sched::SchedPolicy::Random {
                seed: run.workload.seed,
            };
            let report = runner
                .machine()
                .run(&run.workload.inputs, &cfg, &mut reference);
            assert_eq!(
                report, run.report,
                "{bench} threads({threads}) witness {}: batched rings must \
                 equal the per-event replay",
                run.witness
            );
        }
    }
}

#[test]
fn batched_rings_match_per_event_replay_on_sort() {
    assert_batched_matches_per_event("sort", ProfileKind::Lbr, None);
}

#[test]
fn batched_rings_match_per_event_replay_on_apache4() {
    assert_batched_matches_per_event("apache4", ProfileKind::Lcr, None);
}

#[test]
fn perturbed_batched_rings_match_per_event_replay() {
    // The copy-elided (lazy) snapshot path defers the ring read past the
    // perturbation layer's loss draws; the RNG draw order must still
    // match the per-event reference exactly, or these reports diverge.
    assert_batched_matches_per_event("sort", ProfileKind::Lbr, Some(perturbed_hw()));
    assert_batched_matches_per_event("apache4", ProfileKind::Lcr, Some(perturbed_hw()));
}

#[test]
fn bts_batch_push_matches_per_event_recording() {
    // With BTS enabled, the interpreter's batched event path lands in
    // `Bts::push_batch`; the whole-history trace (and the run report)
    // must be byte-identical to the per-event reference recording.
    let b = stm::suite::by_id("sort").expect("sort benchmark");
    let opts = reactive_options(&b, true, None);
    let runner = Runner::new(Machine::new(instrument(&b.program, &opts)));
    let (failing, _) = expand_workloads(&b, &runner);
    let hw_config = stm::hardware::HwConfig {
        enable_bts: true,
        ..stm::hardware::HwConfig::default()
    };
    for w in failing.iter().take(3) {
        let mut cfg = runner.run_config().clone();
        cfg.scheduler = stm::machine::sched::SchedPolicy::Random { seed: w.seed };

        let mut batched = stm::hardware::HardwareCtx::new(hw_config);
        batched.seed_perturbations(w.seed);
        let batched_report = runner.machine().run(&w.inputs, &cfg, &mut batched);

        let mut reference = PerEvent(stm::hardware::HardwareCtx::new(hw_config));
        reference.0.seed_perturbations(w.seed);
        let reference_report = runner.machine().run(&w.inputs, &cfg, &mut reference);

        assert_eq!(
            batched_report, reference_report,
            "seed {}: run reports must match under BTS",
            w.seed
        );
        let trace = batched.bts().expect("BTS enabled").trace();
        assert_eq!(
            trace,
            reference.0.bts().expect("BTS enabled").trace(),
            "seed {}: batched BTS trace must equal per-event recording",
            w.seed
        );
        assert!(
            !trace.is_empty(),
            "seed {}: sort must retire branches",
            w.seed
        );
    }
}

#[test]
fn causal_chain_json_is_identical_at_1_and_8_threads() {
    // The causal-chain reconstruction consumes the ranking AND the raw
    // decoded rings of every failing witness, so it inherits (and must
    // preserve) the engine's thread-count invariance end to end.
    use stm::core::diagnose::failure_profile;
    use stm::core::profile::{decode_lbr, decode_lcr};
    use stm::forensics::CausalChain;
    use stm::machine::report::ProfileData;

    for (id, kind) in [("sort", ProfileKind::Lbr), ("apache4", ProfileKind::Lcr)] {
        let b = stm::suite::by_id(id).expect("benchmark exists");
        let (runner, p1) = collect(&b, kind, 1);
        let (_, p8) = collect(&b, kind, 8);

        let chain = |p: &CollectedProfiles| -> String {
            let program = runner.machine().program();
            let layout = runner.machine().layout();
            let chain = match kind {
                ProfileKind::Lbr => {
                    let mut d = p.lbra();
                    d.exclude_site_guards(program, &b.truth.spec);
                    let traces: Vec<_> = p
                        .failure_runs()
                        .iter()
                        .filter_map(|run| {
                            let prof = failure_profile(&run.report, &b.truth.spec)?;
                            match &prof.data {
                                ProfileData::Lbr(records) => {
                                    Some((run.witness.clone(), decode_lbr(layout, records)))
                                }
                                ProfileData::Lcr(_) => None,
                            }
                        })
                        .collect();
                    CausalChain::from_lbra(
                        Some(program),
                        &d.ranked,
                        &traces,
                        d.stats.failure_runs_used,
                        d.stats.success_runs_used,
                    )
                }
                ProfileKind::Lcr => {
                    let d = p.lcra();
                    let traces: Vec<_> = p
                        .failure_runs()
                        .iter()
                        .filter_map(|run| {
                            let prof = failure_profile(&run.report, &b.truth.spec)?;
                            match &prof.data {
                                ProfileData::Lcr(records) => {
                                    Some((run.witness.clone(), decode_lcr(layout, records)))
                                }
                                ProfileData::Lbr(_) => None,
                            }
                        })
                        .collect();
                    CausalChain::from_lcra(
                        Some(program),
                        &d.ranked,
                        &traces,
                        d.stats.failure_runs_used,
                        d.stats.success_runs_used,
                    )
                }
            };
            chain
                .unwrap_or_else(|| panic!("{id}: chain must reconstruct"))
                .to_json()
                .encode()
        };
        assert_eq!(
            chain(&p1),
            chain(&p8),
            "{id}: causal-chain JSON must be byte-identical across thread counts"
        );
    }
}

#[test]
fn lcra_ranking_json_is_identical_at_1_and_8_threads() {
    let b = stm::suite::by_id("apache4").expect("apache4 benchmark");
    let (runner1, p1) = collect(&b, ProfileKind::Lcr, 1);
    let (_, p8) = collect(&b, ProfileKind::Lcr, 8);

    assert_eq!(p1.stats(), p8.stats(), "run accounting must match");
    assert_eq!(witnesses(&p1), witnesses(&p8), "witness sets must match");

    let report = |p: &CollectedProfiles| {
        let d = p.lcra();
        RankingReport::from_lcra(runner1.machine().program(), b.info.id, &d, 10)
            .to_json()
            .encode()
    };
    assert_eq!(
        report(&p1),
        report(&p8),
        "LCRA ranking JSON must be byte-identical"
    );
}
