//! Pins the fleet's live surfaces against their from-scratch
//! counterparts:
//!
//! 1. A [`LiveChain`] that decodes each retained trace once rebuilds, at
//!    every prefix of a sort (LBR) and an apache4 (LCR) stream, exactly
//!    the chain a fresh [`CausalChain::from_ingest`] reconstructs — past
//!    the point where the ingest stops retaining traces.
//! 2. The `"fleet"` status document, rendered when read, shows every
//!    ingested snapshot as soon as `drain()` returns, and after
//!    `finish()` equals the document built from the shard reports.

use std::sync::{Mutex, MutexGuard};

use stm::core::converge::{SnapshotIngest, StabilityPolicy, CHAIN_TRACE_CAP};
use stm::core::diagnose::Quotas;
use stm::core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm::fleet::{FleetDaemon, ShardConfig, Snapshot, SubmitOutcome};
use stm::forensics::chain::{CausalChain, LiveChain};
use stm::machine::report::RunReport;
use stm::suite::eval::{default_threads, expand_workloads, lbra_runner, lcra_runner};
use stm::telemetry::json::Json;

/// Telemetry and the status store are process-global; tests that use
/// them serialize on this lock.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A replayable snapshot stream for one suite benchmark: failures and
/// successes alternate, so the live ranking keeps moving while failing
/// traces are still being retained.
fn stream(id: &str, lbr: bool) -> (CollectedProfiles, Vec<(bool, String, RunReport)>) {
    let b = stm::suite::by_id(id).expect("benchmark exists");
    let runner = if lbr {
        lbra_runner(&b)
    } else {
        lcra_runner(&b)
    };
    let (failing, passing) = expand_workloads(&b, &runner);
    let profiles = DiagnosisSession::from_runner(&runner)
        .failure(b.truth.spec.clone())
        .failing(failing)
        .passing(passing)
        .profile_kind(if lbr {
            ProfileKind::Lbr
        } else {
            ProfileKind::Lcr
        })
        .failure_profiles(CHAIN_TRACE_CAP + 4)
        .success_profiles(CHAIN_TRACE_CAP + 4)
        .threads(default_threads())
        .collect()
        .expect("stream collection succeeds");
    let fails = profiles.failure_runs().iter().map(|r| (true, r));
    let passes = profiles.success_runs().iter().map(|r| (false, r));
    let mut out = Vec::new();
    let (mut fails, mut passes) = (fails.peekable(), passes.peekable());
    while fails.peek().is_some() || passes.peek().is_some() {
        for (is_failure, run) in fails.next().into_iter().chain(passes.next()) {
            out.push((is_failure, run.witness.clone(), run.report.clone()));
        }
    }
    (profiles, out)
}

fn live_chain_matches_from_ingest(id: &str, lbr: bool) {
    let (profiles, snaps) = stream(id, lbr);
    let failures = snaps.iter().filter(|(f, _, _)| *f).count();
    assert!(
        failures > CHAIN_TRACE_CAP,
        "{id}: the stream must run past the trace cap ({failures} failures)"
    );
    let mut ingest = SnapshotIngest::new(
        profiles.runner().machine().layout().clone(),
        profiles.spec().clone(),
        StabilityPolicy::never(),
    );
    let mut live = LiveChain::default();
    let mut formed = 0;
    for (i, (is_failure, witness, report)) in snaps.iter().enumerate() {
        assert!(
            ingest.observe(*is_failure, witness, report),
            "{id}: snapshot {i} ingests"
        );
        let cached = live.rebuild(&ingest);
        assert_eq!(
            cached,
            CausalChain::from_ingest(&ingest),
            "{id}: prefix {} diverges",
            i + 1
        );
        formed += usize::from(cached.is_some());
    }
    assert_eq!(ingest.chain_traces().len(), CHAIN_TRACE_CAP);
    assert!(formed > 0, "{id}: a chain formed");
}

#[test]
fn live_chain_rebuild_equals_a_fresh_from_ingest_at_every_prefix_lbr() {
    live_chain_matches_from_ingest("sort", true);
}

#[test]
fn live_chain_rebuild_equals_a_fresh_from_ingest_at_every_prefix_lcr() {
    live_chain_matches_from_ingest("apache4", false);
}

fn shard_field(doc: &Json, shard: &str, key: &str) -> Option<f64> {
    doc.get("shards")?.get(shard)?.get(key)?.as_f64()
}

#[test]
fn fleet_status_is_rendered_live_and_ends_as_the_terminal_document() {
    let (sort, sort_snaps) = stream("sort", true);
    let (apache, apache_snaps) = stream("apache4", false);
    let _guard = telemetry_lock();
    stm::telemetry::reset();
    stm::telemetry::set_enabled(true);
    stm::telemetry::log::set_stderr_level(None);

    let everything = ShardConfig::default()
        .policy(StabilityPolicy::never())
        .quotas(
            Quotas::default()
                .failure_profiles(usize::MAX)
                .success_profiles(usize::MAX)
                .max_runs(usize::MAX),
        );
    let mut fleet = FleetDaemon::new();
    fleet.add_shard(
        "sort",
        sort.runner().machine().layout().clone(),
        sort.spec().clone(),
        everything,
    );
    fleet.add_shard(
        "apache4",
        apache.runner().machine().layout().clone(),
        apache.spec().clone(),
        everything,
    );
    fleet.start();
    let doc = stm::telemetry::status::get("fleet").expect("registered at start");
    assert_eq!(shard_field(&doc, "sort", "witnesses"), Some(0.0));

    for (shard, snaps) in [("sort", &sort_snaps), ("apache4", &apache_snaps)] {
        for (n, (is_failure, witness, report)) in snaps.iter().enumerate() {
            let outcome = fleet.submit(Snapshot {
                shard: shard.to_string(),
                witness: witness.clone(),
                is_failure: *is_failure,
                report: report.clone(),
            });
            assert_eq!(outcome, SubmitOutcome::Enqueued);
            fleet.drain();
            let doc = stm::telemetry::status::get("fleet").expect("live document");
            let ingested = (n + 1) as f64;
            assert_eq!(shard_field(&doc, shard, "witnesses"), Some(ingested));
            assert_eq!(shard_field(&doc, shard, "accepted"), Some(ingested));
            assert_eq!(shard_field(&doc, shard, "queue_depth"), Some(0.0));
        }
    }
    let live = stm::telemetry::status::get("fleet").expect("live document");
    for shard in ["sort", "apache4"] {
        let chain = live
            .get("shards")
            .and_then(|s| s.get(shard))
            .and_then(|e| e.get("chain"));
        let links = chain
            .and_then(|c| c.get("links"))
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        assert!(
            links > 0,
            "{shard}: the live entry carries a chain with links (chain = {chain:?})"
        );
    }

    let reports = fleet.finish();
    let terminal = Json::obj([
        (
            "shards",
            Json::Obj(
                reports
                    .iter()
                    .map(|(name, r)| (name.clone(), r.to_json()))
                    .collect(),
            ),
        ),
        ("shed_total", Json::from(0u64)),
    ]);
    assert_eq!(stm::telemetry::status::get("fleet"), Some(terminal));
    assert_eq!(reports["sort"].ingested, sort_snaps.len() as u64);
    assert_eq!(reports["apache4"].ingested, apache_snaps.len() as u64);

    stm::telemetry::set_enabled(false);
    stm::telemetry::log::set_stderr_level(Some(stm::telemetry::log::Level::Warn));
    stm::telemetry::reset();
}
