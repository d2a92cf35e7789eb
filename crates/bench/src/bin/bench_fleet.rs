//! The fleet harness: drives a [`FleetDaemon`] the way a host process
//! embeds it and gates sustained sharded ingest throughput, per-shard
//! time-to-converged, the live causal chains, and exact shed accounting
//! under forced overload. Writes `results/BENCH_fleet.json`; every
//! check below is a hard assertion, so a broken fleet exits non-zero
//! before the gate diffs the file.
//!
//! Two phases over the same snapshot pools (sort → LBRA, apache4 →
//! LCRA Conf2; both batch-collected once, then replayed by simulated
//! endpoints):
//!
//! * **Sustained** — ≥1000 seeded endpoints push snapshots at four
//!   shards (`sort-0/1`, `apache4-0/1`) through queues deep enough to
//!   never shed, so the run is deterministic. After the drain, while
//!   the daemon still runs, every shard must have logged a
//!   `fleet`/`diagnosis.chain` event and carry a causal chain with
//!   links in the live `"fleet"` status document (what `/diagnosis`
//!   serves). The wall-clock headline (`endpoints_per_sec`) is
//!   machine-dependent and stays informational; the top-level
//!   `endpoints_per_sec_floor` (lower-is-worse under `bench_diff`'s
//!   `_floor` convention) is gated against a deliberately conservative
//!   baseline, so an ingest hot path that collapses — e.g. JSON work
//!   creeping back onto the shard workers — fails CI. The per-shard
//!   witness counts to the early-stop verdict are fully deterministic —
//!   each shard is one FIFO consumer, so ingest order equals the seeded
//!   submission order — and gate against the baseline exactly.
//! * **Overload** — every shard is paused (its worker held off) and
//!   fed `capacity + overflow` snapshots, so exactly `overflow` must
//!   shed — half the shards under drop-oldest, half under reject-new —
//!   with one `fleet`/`shed` event per shed snapshot. The
//!   `fleet.shed_total` counter must equal the summed per-shard sheds
//!   and each `fleet.shed{shard=…}` series its shard's count. The exact
//!   counts gate; a shed going missing (or an extra one appearing) is a
//!   backpressure accounting bug.

use std::time::Instant;

use stm_bench::MetricsEmitter;
use stm_core::converge::StabilityPolicy;
use stm_core::diagnose::Quotas;
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_fleet::{FleetDaemon, ShardConfig, ShedPolicy, Snapshot, SubmitOutcome};
use stm_suite::eval::{default_threads, expand_workloads, lbra_runner, lcra_runner};
use stm_telemetry::json::Json;

/// Simulated endpoints in the sustained phase (≥1000 per the
/// acceptance bar; spread across all four shards by the schedule).
const ENDPOINTS: usize = 1200;
/// Queue capacity in the overload phase.
const CAPACITY: usize = 32;
/// Submissions beyond capacity per paused shard — the exact shed count.
const OVERFLOW: usize = 16;
/// Endpoint schedule seed: fixing it pins every gated metric.
const SEED: u64 = 0xF1EE7;

const SHARDS: [&str; 4] = ["sort-0", "sort-1", "apache4-0", "apache4-1"];

/// xorshift64* over the schedule seed.
struct Schedule(u64);

impl Schedule {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }
}

/// Batch-collects the replayable snapshot pool for one suite benchmark.
fn pool(
    id: &str,
    lbr: bool,
) -> (
    CollectedProfiles,
    Vec<(bool, String, stm_machine::report::RunReport)>,
) {
    let b = stm_suite::by_id(id).expect("benchmark exists");
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
        .threads(default_threads())
        .collect()
        .expect("pool collection succeeds");
    let mut snaps = Vec::new();
    for run in profiles.failure_runs() {
        snaps.push((true, run.witness.clone(), run.report.clone()));
    }
    for run in profiles.success_runs() {
        snaps.push((false, run.witness.clone(), run.report.clone()));
    }
    (profiles, snaps)
}

fn add_shards(
    fleet: &mut FleetDaemon,
    pools: &[&CollectedProfiles; 2],
    config: impl Fn(usize) -> ShardConfig,
) {
    for (i, name) in SHARDS.iter().enumerate() {
        let profiles = pools[i / 2];
        fleet.add_shard(
            *name,
            profiles.runner().machine().layout().clone(),
            profiles.spec().clone(),
            config(i),
        );
    }
}

fn main() {
    // Pools are collected before the emitter exists (telemetry off), so
    // the gated counter deltas cover only daemon activity.
    let (sort_profiles, sort_snaps) = pool("sort", true);
    let (apache_profiles, apache_snaps) = pool("apache4", false);
    let pools = [&sort_profiles, &apache_profiles];
    let snaps = [&sort_snaps, &apache_snaps];

    let mut metrics = MetricsEmitter::new("fleet");
    println!("Fleet daemon: sharded ingest with explicit backpressure");

    // ---- Phase 1: sustained ingest, no shedding ---------------------
    let mut fleet = FleetDaemon::new();
    add_shards(&mut fleet, &pools, |_| {
        // Queues deep enough that backpressure never triggers: this
        // phase measures throughput and convergence, not shedding.
        ShardConfig::default()
            .queue_capacity(ENDPOINTS)
            .policy(StabilityPolicy::default())
    });
    fleet.start();
    let started = Instant::now();
    let mut schedule = Schedule(SEED | 1);
    for endpoint in 0..ENDPOINTS {
        let r = schedule.next();
        let shard_idx = (r % SHARDS.len() as u64) as usize;
        let pool = snaps[shard_idx / 2];
        let (is_failure, witness, report) = &pool[(r >> 8) as usize % pool.len()];
        let outcome = fleet.submit(Snapshot {
            shard: SHARDS[shard_idx].to_string(),
            witness: format!("ep{endpoint}:{witness}"),
            is_failure: *is_failure,
            report: report.clone(),
        });
        assert_eq!(
            outcome,
            SubmitOutcome::Enqueued,
            "sustained phase must not shed"
        );
    }
    fleet.drain();
    let elapsed = started.elapsed();
    // The live path, checked while the daemon still runs: each shard
    // announced its chain as it formed, and the status document that
    // `/diagnosis` serves carries it.
    let events = stm_telemetry::log::take_events();
    let live = stm_telemetry::status::get("fleet").expect("fleet status registered at start");
    let live_chains = SHARDS.map(|name| {
        let chain_events = events
            .iter()
            .filter(|e| e.component == "fleet" && e.event == "diagnosis.chain")
            .filter(|e| e.fields.iter().any(|(k, v)| *k == "shard" && v == name))
            .count();
        assert!(chain_events > 0, "{name}: no diagnosis.chain event");
        let entry = live
            .get("shards")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{name}: missing from the fleet status document"));
        let links = entry
            .get("chain")
            .and_then(|c| c.get("links"))
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        assert!(links > 0, "{name}: live status entry has no causal chain");
        (chain_events, links)
    });
    let reports = fleet.finish();
    let eps = ENDPOINTS as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "  sustained: {ENDPOINTS} endpoints in {:.1} ms ({eps:.0}/s)",
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "  {:<12} {:>10} {:>12} {:>10} {:>10} {:>8} {:>6}",
        "shard", "verdict", "to-verdict", "ingested", "after-stop", "chains", "links"
    );
    for (name, (chain_events, links)) in SHARDS.into_iter().zip(live_chains) {
        let r = &reports[name];
        let witnesses = r.report.as_ref().map(|c| c.evidence.witnesses).unwrap_or(0);
        println!(
            "  {:<12} {:>10} {:>12} {:>10} {:>10} {:>8} {:>6}",
            name, r.verdict, witnesses, r.ingested, r.after_stop, chain_events, links
        );
        metrics.checkpoint(
            name,
            vec![
                ("witnesses_to_verdict", Json::from(witnesses)),
                ("ingested", Json::from(r.ingested)),
                ("skipped", Json::from(r.skipped)),
                ("after_stop", Json::from(r.after_stop)),
                ("shed", Json::from(r.shed)),
                (
                    "not_converged",
                    Json::from(u64::from(r.verdict != "converged")),
                ),
            ],
        );
    }

    // ---- Phase 2: forced overload, exact shed accounting ------------
    // Shed warnings echo to stderr by default; 64 of them would bury
    // the table. The structured events still land in the buffer.
    stm_telemetry::log::set_stderr_level(None);
    let _ = stm_telemetry::log::take_events();
    let mut fleet = FleetDaemon::new();
    add_shards(&mut fleet, &pools, |i| {
        ShardConfig::default()
            .queue_capacity(CAPACITY)
            // `never()` + roomy quotas: every kept snapshot ingests, so
            // the gated ingest count is exactly the queue capacity.
            .policy(StabilityPolicy::never())
            .quotas(
                Quotas::default()
                    .failure_profiles(usize::MAX)
                    .success_profiles(usize::MAX)
                    .max_runs(usize::MAX),
            )
            .shed(if i % 2 == 0 {
                ShedPolicy::DropOldest
            } else {
                ShedPolicy::RejectNew
            })
    });
    fleet.start();
    for name in SHARDS {
        assert!(fleet.pause(name), "shard {name} exists");
    }
    let mut schedule = Schedule(SEED.wrapping_add(0xBEEF) | 1);
    let mut shed_outcomes = [0u64; 4];
    for (i, name) in SHARDS.iter().enumerate() {
        let pool = snaps[i / 2];
        for n in 0..CAPACITY + OVERFLOW {
            let (is_failure, witness, report) = &pool[schedule.next() as usize % pool.len()];
            match fleet.submit(Snapshot {
                shard: name.to_string(),
                witness: format!("overload{n}:{witness}"),
                is_failure: *is_failure,
                report: report.clone(),
            }) {
                SubmitOutcome::Enqueued => {}
                SubmitOutcome::ShedOldest | SubmitOutcome::RejectedNew => shed_outcomes[i] += 1,
                other => panic!("overload submit returned {other:?}"),
            }
        }
    }
    for name in SHARDS {
        fleet.resume(name);
    }
    fleet.drain();
    let shed_events = stm_telemetry::log::take_events()
        .iter()
        .filter(|e| e.component == "fleet" && e.event == "shed")
        .count();
    let reports = fleet.finish();
    stm_telemetry::log::set_stderr_level(Some(stm_telemetry::log::Level::Warn));
    println!(
        "  overload: {} submissions/shard against capacity {CAPACITY} \
         ({shed_events} shed events)",
        CAPACITY + OVERFLOW
    );
    println!(
        "  {:<12} {:>12} {:>8} {:>10}",
        "shard", "policy", "shed", "ingested"
    );
    for (i, name) in SHARDS.iter().enumerate() {
        let r = &reports[*name];
        let policy = if i % 2 == 0 {
            "drop-oldest"
        } else {
            "reject-new"
        };
        println!(
            "  {:<12} {:>12} {:>8} {:>10}",
            name, policy, r.shed, r.ingested
        );
        assert_eq!(r.shed, shed_outcomes[i], "{name}: counter vs outcomes");
        metrics.checkpoint(
            &format!("{name}-overload"),
            vec![
                ("shed", Json::from(r.shed)),
                ("ingested", Json::from(r.ingested)),
                ("skipped", Json::from(r.skipped)),
                (
                    "shed_delta_vs_expected",
                    Json::from(r.shed.abs_diff(OVERFLOW as u64)),
                ),
            ],
        );
    }
    // The sustained phase shed nothing, so the process-wide counters
    // hold exactly this phase's sheds.
    let total_shed: u64 = reports.values().map(|r| r.shed).sum();
    let counters = stm_telemetry::metrics_snapshot();
    assert_eq!(
        counters.counter("fleet.shed_total"),
        Some(total_shed),
        "fleet.shed_total counter vs summed shard reports"
    );
    for name in SHARDS {
        let series = stm_telemetry::series_name("fleet.shed", "shard", name);
        assert_eq!(
            counters.counter(&series),
            Some(reports[name].shed),
            "{series} vs the shard report"
        );
    }
    metrics.checkpoint(
        "overload-events",
        vec![(
            "missing_shed_events",
            Json::from((total_shed as usize).abs_diff(shed_events)),
        )],
    );

    metrics.top_level("endpoints", Json::from(ENDPOINTS));
    metrics.top_level("endpoints_per_sec", Json::from(eps));
    metrics.top_level("endpoints_per_sec_floor", Json::from(eps.round()));
    metrics.top_level("sustained_ms", Json::from(elapsed.as_secs_f64() * 1e3));
    match metrics.finish() {
        Ok(path) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("bench_fleet: could not write results: {e}");
            std::process::exit(1);
        }
    }
}
