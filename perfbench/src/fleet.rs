//! `fleet-live`: an open loop against a live [`FleetDaemon`] deployed as
//! `stm_fleetd` deploys it (telemetry on), plus a [`MetricsServer`] on
//! `127.0.0.1:0`. Two shards — sort under LBRA, apache4 under LCRA —
//! never stop early and have unbounded quotas and queues, so every
//! snapshot is ingested. One generator submits a seeded schedule at a
//! fixed rate while one reader polls `GET /diagnosis`; then the
//! generator submits saturating bursts in rounds, each drained shard by
//! shard.

use crate::probe::Probe;
use crate::stats::{due_time, lateness, median, percentile, verdict_lags};
use crate::trace::Tracer;
use crate::{clock, latency_metrics, repeated_setup, Config, Report, Rng, ENGINE_THREADS};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use stm_core::converge::{FinalRanking, SnapshotIngest, StabilityPolicy};
use stm_core::diagnose::{failure_profile, success_profile, Quotas};
use stm_core::engine::{DiagnosisSession, ProfileKind};
use stm_core::profile::{lbr_events, lcr_events};
use stm_core::ranking::RankingModel;
use stm_core::runner::{FailureSpec, Runner};
use stm_core::transform::instrument;
use stm_fleet::{FleetDaemon, ShardConfig, ShardReport, Snapshot, SubmitOutcome};
use stm_forensics::CausalChain;
use stm_machine::events::LcrConfig;
use stm_machine::interp::Machine;
use stm_machine::layout::Layout;
use stm_machine::report::{ProfileData, RunReport};
use stm_observatory::watch::http_get;
use stm_observatory::MetricsServer;
use stm_suite::eval::{expand_workloads, reactive_options};
use stm_telemetry::json::Json;

/// Open-loop submit rate, snapshots per second.
const RATE: f64 = 1000.0;
/// Share of each window spent in the open-loop phase.
const LIVE_SHARE: f64 = 0.4;
/// Burst snapshots per measured second, sized to take under the rest of
/// each window even on a busy host (the window then idles until its
/// end).
const BURST_PER_SECOND: f64 = 2000.0;
/// Snapshots per burst round; the host-speed probe is sampled after
/// each round.
const ROUND: usize = 250;
/// Reader poll interval.
const POLL: Duration = Duration::from_millis(20);
/// Profiles of each class in each shard's snapshot pool.
const POOL_PROFILES: usize = 16;
/// Snapshots ingested during set-up, before measuring.
const WARMUP: usize = 1000;
/// Windows of open loop then burst per measured cycle; the reported
/// figures are medians over windows.
const WINDOWS: usize = 10;
/// Queue capacity: deep enough that no burst ever sheds.
const QUEUE: usize = 1 << 22;
/// Timed repetitions of the traced run's observatory probes.
const OBS_PROBES: usize = 20;
const HTTP_TIMEOUT: Duration = Duration::from_secs(5);

/// One shard's population: its deployment and snapshot pool.
struct Population {
    name: &'static str,
    layout: Layout,
    spec: FailureSpec,
    /// `(is_failure, witness, report)`.
    pool: Vec<(bool, String, RunReport)>,
}

/// A started daemon and server. Dropping it finishes the daemon (joining
/// its workers) and stops the server.
struct Live {
    pops: Vec<Population>,
    fleet: Option<FleetDaemon>,
    server: MetricsServer,
    /// Everything submitted so far, in order (warm-up included).
    stream: Vec<Item>,
    /// Warm-up submits that were enqueued.
    warm_ok: usize,
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(f) = self.fleet.take() {
            let _ = f.finish();
        }
    }
}

fn population(id: &'static str) -> Population {
    let bench = stm_suite::by_id(id).expect("suite benchmark");
    let (kind, opts) = if id == "sort" {
        (ProfileKind::Lbr, reactive_options(&bench, true, None))
    } else {
        (
            ProfileKind::Lcr,
            reactive_options(&bench, false, Some(LcrConfig::SPACE_CONSUMING)),
        )
    };
    let runner = Runner::new(Machine::new(instrument(&bench.program, &opts)));
    let (failing, passing) = expand_workloads(&bench, &runner);
    let profiles = DiagnosisSession::from_runner(&runner)
        .failure(bench.truth.spec.clone())
        .failing(failing)
        .passing(passing)
        .profile_kind(kind)
        .failure_profiles(POOL_PROFILES)
        .success_profiles(POOL_PROFILES)
        .threads(ENGINE_THREADS)
        .collect()
        .expect("pool collection succeeds");
    let mut pool = Vec::new();
    for run in profiles.failure_runs() {
        pool.push((true, run.witness.clone(), run.report.clone()));
    }
    for run in profiles.success_runs() {
        pool.push((false, run.witness.clone(), run.report.clone()));
    }
    Population {
        name: id,
        layout: runner.machine().layout().clone(),
        spec: bench.truth.spec.clone(),
        pool,
    }
}

/// Set-up: telemetry on, snapshot pools, daemon and server started,
/// then a warm-up burst of [`WARMUP`] seeded snapshots ingested.
fn start(sched: &mut Schedule) -> Live {
    stm_telemetry::reset();
    stm_telemetry::set_enabled(true);
    let pops = vec![population("sort"), population("apache4")];
    let config = ShardConfig::default()
        .policy(StabilityPolicy::never())
        .queue_capacity(QUEUE)
        .quotas(
            Quotas::default()
                .failure_profiles(usize::MAX)
                .success_profiles(usize::MAX)
                .max_runs(usize::MAX),
        );
    let mut fleet = FleetDaemon::new();
    for p in &pops {
        fleet.add_shard(p.name, p.layout.clone(), p.spec.clone(), config);
    }
    fleet.start();
    let server = MetricsServer::start("127.0.0.1:0").expect("bind 127.0.0.1:0");
    let stream = sched.take(&pops, WARMUP);
    let mut warm_ok = 0;
    for (i, &item) in stream.iter().enumerate() {
        warm_ok += (fleet.submit(snapshot(&pops, item, i)) == SubmitOutcome::Enqueued) as usize;
    }
    fleet.drain();
    Live {
        pops,
        fleet: Some(fleet),
        server,
        stream,
        warm_ok,
    }
}

/// One scheduled submission: `(shard index, pool index)`.
type Item = (usize, usize);

/// Seeded, balanced submission order. Shards take turns, and each shard
/// deals its pool like a deck that the seed reshuffles whenever it runs
/// out. The seed sets the order; every seed submits the same mix, so a
/// seed cannot make a run cheaper or dearer.
struct Schedule {
    rng: Rng,
    turn: usize,
    decks: Vec<Vec<usize>>,
}

impl Schedule {
    fn new(seed: u64) -> Schedule {
        Schedule {
            rng: Rng::new(seed),
            turn: 0,
            decks: Vec::new(),
        }
    }

    /// The next `n` submissions.
    fn take(&mut self, pops: &[Population], n: usize) -> Vec<Item> {
        self.decks.resize(pops.len(), Vec::new());
        (0..n)
            .map(|_| {
                let s = self.turn % pops.len();
                self.turn += 1;
                if self.decks[s].is_empty() {
                    let mut deck: Vec<usize> = (0..pops[s].pool.len()).collect();
                    self.rng.shuffle(&mut deck);
                    self.decks[s] = deck;
                }
                (s, self.decks[s].pop().expect("a dealt deck is not empty"))
            })
            .collect()
    }
}

fn snapshot(pops: &[Population], (s, k): Item, i: usize) -> Snapshot {
    let (is_failure, witness, report) = &pops[s].pool[k];
    Snapshot {
        shard: pops[s].name.to_string(),
        witness: format!("ep{i}:{witness}"),
        is_failure: *is_failure,
        report: report.clone(),
    }
}

/// Per-shard counts of `items`.
fn per_shard(items: &[Item], shards: usize) -> Vec<u64> {
    let mut n = vec![0u64; shards];
    for it in items {
        n[it.0] += 1;
    }
    n
}

/// One `/diagnosis` read.
struct Read {
    start: f64,
    end: f64,
    /// Per-shard witness counts; `None` when the body did not parse.
    witnesses: Option<Vec<u64>>,
    bytes: usize,
    depth: usize,
}

fn witnesses(body: &str, pops: &[Population]) -> Option<Vec<u64>> {
    let doc = Json::parse(body.trim()).ok()?;
    let shards = doc.get("fleet")?.get("shards")?;
    pops.iter()
        .map(|p| {
            let w = shards.get(p.name)?.get("witnesses")?.as_f64()?;
            Some(w as u64)
        })
        .collect()
}

/// Polls `/diagnosis` every [`POLL`] until `stop`.
fn reader(
    addr: SocketAddr,
    fleet: &FleetDaemon,
    pops: &[Population],
    epoch: Instant,
    stop: &AtomicBool,
) -> Vec<Read> {
    let mut reads = Vec::new();
    let mut next = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let start = epoch.elapsed().as_secs_f64();
        let body = http_get(addr, "/diagnosis", HTTP_TIMEOUT);
        let end = epoch.elapsed().as_secs_f64();
        let depth = pops.iter().map(|p| fleet.queue_depth(p.name)).sum();
        let (witnesses, bytes) = match &body {
            Ok(b) => (witnesses(b, pops), b.len()),
            Err(_) => (None, 0),
        };
        reads.push(Read {
            start,
            end,
            witnesses,
            bytes,
            depth,
        });
        next += POLL;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        } else {
            next = now;
        }
    }
    reads
}

/// One window of a cycle: an open-loop phase, then a burst in rounds.
struct Window {
    /// The open-loop submissions, in order.
    live: Vec<Item>,
    /// Per-shard snapshots submitted before the window.
    offset: Vec<u64>,
    /// When the open loop started and ended.
    start: f64,
    end: f64,
    /// When each open-loop submit was made.
    sends: Vec<f64>,
    /// The burst's rounds.
    rounds: Vec<Round>,
    /// Per shard: burst snapshots, and wall seconds from resuming the
    /// shard with its share of a round queued until `drain()` returned,
    /// summed over rounds.
    drains: Vec<(usize, f64)>,
}

/// One burst round: [`ROUND`] snapshots. Each shard in turn is paused,
/// has its share queued, and is resumed and drained.
struct Round {
    /// Snapshots in the round.
    n: usize,
    /// CPU seconds the process (generator, workers, reader and server
    /// together) spent from the round's first submit until its last
    /// `drain()` returned.
    cpu_s: f64,
    /// The probe's mark after the round.
    mark: usize,
}

/// What one live cycle measured.
struct Cycle {
    windows: Vec<Window>,
    reads: Vec<Read>,
    submitted: usize,
    enqueued: usize,
    submit_s: Vec<f64>,
    /// Host-speed samples taken after each burst round.
    probe: Probe,
}

/// [`WINDOWS`] windows of open loop and burst over `seconds`, with the
/// reader polling throughout.
fn cycle(
    live: &mut Live,
    sched: &mut Schedule,
    seconds: f64,
    t: &mut Tracer,
    epoch: Instant,
) -> Cycle {
    let Live {
        pops,
        fleet,
        server,
        stream,
        ..
    } = live;
    let pops = &*pops;
    let fleet = fleet.as_ref().expect("daemon running");
    let window_s = seconds / WINDOWS as f64;
    let n_live = (RATE * window_s * LIVE_SHARE).round() as usize;
    let n_rounds = ((BURST_PER_SECOND * window_s) / ROUND as f64)
        .round()
        .max(1.0) as usize;
    let stop = AtomicBool::new(false);
    let (mut submitted, mut enqueued) = (0usize, 0usize);
    let mut submit_s = Vec::new();
    let mut probe = Probe::new();
    let mut submit = |item: Item, stream: &mut Vec<Item>, t: &mut Tracer| {
        let snap = snapshot(pops, item, stream.len());
        stream.push(item);
        let a = epoch.elapsed().as_secs_f64();
        let outcome = fleet.submit(snap);
        if t.on() {
            let b = epoch.elapsed().as_secs_f64();
            t.record("fleet.submit", a, b);
            submit_s.push(b - a);
        }
        submitted += 1;
        enqueued += (outcome == SubmitOutcome::Enqueued) as usize;
        a
    };
    let addr = server.addr();
    let (windows, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(addr, fleet, pops, epoch, &stop));
        let mut windows = Vec::new();
        for _ in 0..WINDOWS {
            let offset = per_shard(stream, pops.len());
            let items = sched.take(pops, n_live);
            let start = epoch.elapsed().as_secs_f64();
            let mut sends = Vec::with_capacity(n_live);
            for (i, &item) in items.iter().enumerate() {
                let due = due_time(start, i, RATE);
                let now = epoch.elapsed().as_secs_f64();
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                sends.push(submit(item, stream, t));
            }
            let end = epoch.elapsed().as_secs_f64();
            // Each round saturates one shard at a time: its share of the
            // round is queued while the shard is paused, then the shard
            // drains a full queue. The rate is then each worker's ingest
            // speed, not how the generator and two workers happened to
            // share the host's cores.
            let mut rounds = Vec::new();
            let mut drains = vec![(0, 0.0); pops.len()];
            for _ in 0..n_rounds {
                let round = sched.take(pops, ROUND);
                let cpu0 = clock::process_s();
                for (s, p) in pops.iter().enumerate() {
                    fleet.pause(p.name);
                    for &item in round.iter().filter(|it| it.0 == s) {
                        submit(item, stream, t);
                        drains[s].0 += 1;
                    }
                    let drain_start = Instant::now();
                    fleet.resume(p.name);
                    fleet.drain();
                    drains[s].1 += drain_start.elapsed().as_secs_f64();
                }
                let cpu_s = clock::process_s() - cpu0;
                probe.sample();
                rounds.push(Round {
                    n: ROUND,
                    cpu_s,
                    mark: probe.mark(),
                });
            }
            // Idle out the window, so that a run lasts its seconds.
            let left = start + window_s - epoch.elapsed().as_secs_f64();
            if left > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(left));
            }
            windows.push(Window {
                live: items,
                offset,
                start,
                end,
                sends,
                rounds,
                drains,
            });
        }
        stop.store(true, Ordering::Relaxed);
        (windows, reader.join().expect("reader thread"))
    });
    Cycle {
        windows,
        reads,
        submitted,
        enqueued,
        submit_s,
        probe,
    }
}

/// Top-1 `(event, polarity)` of a batch model over every snapshot of
/// shard `s` in `stream`.
fn batch_top1(p: &Population, s: usize, stream: &[Item]) -> Option<String> {
    let mut lbr = RankingModel::new();
    let mut lcr = RankingModel::new();
    for (i, &(_, k)) in stream.iter().enumerate().filter(|(_, it)| it.0 == s) {
        let (is_failure, witness, report) = &p.pool[k];
        let profile = if *is_failure {
            failure_profile(report, &p.spec)
        } else {
            success_profile(report, &p.spec)
        };
        let id = format!("ep{i}:{witness}");
        match profile.map(|e| &e.data) {
            Some(ProfileData::Lbr(r)) => {
                lbr.add_profile_named(*is_failure, id, lbr_events(&p.layout, r))
            }
            Some(ProfileData::Lcr(r)) => {
                lcr.add_profile_named(*is_failure, id, lcr_events(&p.layout, r))
            }
            None => {}
        }
    }
    let show = |e: &dyn std::fmt::Display, pol: &dyn std::fmt::Debug| format!("{e} {pol:?}");
    match lcr.rank_with_absence().first() {
        Some(e) => Some(show(&e.event, &e.polarity)),
        None => lbr.rank().first().map(|e| show(&e.event, &e.polarity)),
    }
}

fn live_top1(report: &ShardReport) -> Option<String> {
    match &report.report.as_ref()?.final_ranking {
        FinalRanking::Lbr(v) => v.first().map(|e| format!("{} {:?}", e.event, e.polarity)),
        FinalRanking::Lcr(v) => v.first().map(|e| format!("{} {:?}", e.event, e.polarity)),
    }
}

/// Finishes the daemon and checks that every snapshot was ingested and
/// that each shard's final top-1 matches a batch model over its stream.
fn finish_and_check(mut live: Live, r: &mut Report) -> Vec<(String, u64)> {
    let reports = live.fleet.take().expect("daemon running").finish();
    let submitted = per_shard(&live.stream, live.pops.len());
    r.check(live.warm_ok == WARMUP, || {
        "warm-up submits not Enqueued".into()
    });
    let mut counts = Vec::new();
    for (s, p) in live.pops.iter().enumerate() {
        let Some(rep) = reports.get(p.name) else {
            r.check(false, || format!("{}: no shard report", p.name));
            continue;
        };
        let n = submitted[s];
        r.check(
            rep.ingested == n && rep.skipped == 0 && rep.after_stop == 0,
            || {
                format!(
                    "{}: submitted {n}, ingested {}, skipped {}, after-stop {}",
                    p.name, rep.ingested, rep.skipped, rep.after_stop
                )
            },
        );
        let live_top = live_top1(rep);
        let batch_top = batch_top1(p, s, &live.stream);
        r.check(live_top.is_some() && live_top == batch_top, || {
            format!(
                "{}: live top-1 {live_top:?} != batch top-1 {batch_top:?}",
                p.name
            )
        });
        let predictors = rep.report.as_ref().map_or(0, |c| c.final_ranking.len());
        counts.push((format!("fleet.{}.ingested", p.name), rep.ingested));
        counts.push((format!("fleet.{}.predictors", p.name), predictors as u64));
    }
    counts
}

/// Counts every submit and every `/diagnosis` read as a check.
fn check_cycle(c: &Cycle, r: &mut Report) {
    r.attempted += c.submitted as u64;
    r.failed += (c.submitted - c.enqueued) as u64;
    if c.enqueued != c.submitted {
        r.errors
            .push(format!("{} submits not Enqueued", c.submitted - c.enqueued));
    }
    let bad = c.reads.iter().filter(|x| x.witnesses.is_none()).count();
    r.attempted += c.reads.len() as u64;
    r.failed += bad as u64;
    if bad > 0 {
        r.errors
            .push(format!("{bad} /diagnosis bodies did not parse"));
    }
}

/// Verdict lags of one window's open-loop snapshots, all shards pooled,
/// and how many never showed.
fn window_lags(w: &Window, reads: &[Read], shards: usize) -> (Vec<f64>, usize) {
    let mut all = Vec::new();
    let mut unseen = 0;
    for s in 0..shards {
        let dues: Vec<f64> = w
            .live
            .iter()
            .enumerate()
            .filter(|(_, it)| it.0 == s)
            .map(|(i, _)| due_time(w.start, i, RATE))
            .collect();
        let polls: Vec<(f64, u64)> = reads
            .iter()
            .filter_map(|x| Some((x.end, x.witnesses.as_ref()?[s].saturating_sub(w.offset[s]))))
            .collect();
        let (l, u) = verdict_lags(&dues, &polls);
        all.extend(l);
        unseen += u;
    }
    (all, unseen)
}

/// Read latencies (seconds) of the reads made during open-loop phases.
fn live_reads(c: &Cycle) -> Vec<f64> {
    c.reads
        .iter()
        .filter(|x| {
            c.windows
                .iter()
                .any(|w| x.start >= w.start && x.end <= w.end)
        })
        .map(|x| x.end - x.start)
        .collect()
}

/// Generator lateness (seconds) of every open-loop submit.
fn late(c: &Cycle) -> Vec<f64> {
    c.windows
        .iter()
        .flat_map(|w| lateness(w.start, RATE, &w.sends))
        .collect()
}

fn sorted_ms(v: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = v.iter().map(|s| s * 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Saturated ingest of each window: its burst snapshots divided by the
/// process CPU time of its rounds, each rescaled to reference seconds
/// by the probe samples around it (`raw` leaves them unscaled).
fn window_rates(c: &Cycle, raw: bool) -> Vec<f64> {
    c.windows
        .iter()
        .map(|w| {
            let n: usize = w.rounds.iter().map(|x| x.n).sum();
            let secs: f64 = w
                .rounds
                .iter()
                .map(|x| x.cpu_s * if raw { 1.0 } else { c.probe.scale(x.mark) })
                .sum();
            n as f64 / secs
        })
        .collect()
}

/// Saturated ingest: the median of the windows' rescaled rates.
fn burst_rate(c: &Cycle) -> f64 {
    median(&window_rates(c, false)).unwrap_or(0.0)
}

/// The end-to-end metrics of a cycle: the saturated ingest rate, and
/// the medians over windows of each window's verdict-lag p50 and p95.
fn cycle_metrics(c: &Cycle, shards: usize, r: &mut Report) {
    r.e2e.insert("throughput_per_s", burst_rate(c));
    let rounded = |v: Vec<f64>| v.into_iter().map(|x| x.round()).collect::<Vec<_>>();
    r.note(format!(
        "fleet-live: median burst rate {:.0} snapshots per reference second; per window {:?}; raw per CPU second {:?}; probe median {:.1} us",
        burst_rate(c),
        rounded(window_rates(c, false)),
        rounded(window_rates(c, true)),
        c.probe.median_s() * 1e6
    ));
    let mut windows = Vec::new();
    for w in &c.windows {
        let (lag, unseen) = window_lags(w, &c.reads, shards);
        r.check(unseen == 0, || {
            format!("{unseen} snapshots never showed on /diagnosis")
        });
        windows.push(lag);
    }
    latency_metrics(r, "fleet-live verdict lag", &windows, 95.0);
    let reads = sorted_ms(&live_reads(c));
    let late = sorted_ms(&late(c));
    r.note(format!(
        "fleet-live: {} reads, read p50 {:.3} ms p99 {:.3} ms; generator late p99 {:.3} ms",
        reads.len(),
        percentile(&reads, 50.0).unwrap_or(0.0),
        percentile(&reads, 99.0).unwrap_or(0.0),
        percentile(&late, 99.0).unwrap_or(0.0),
    ));
}

/// Replays each shard's stream single-threaded through the worker's
/// public layers. Returns each shard's mean seconds per snapshot over
/// `(observe, from_ingest, fingerprint, to_json)` and the share of
/// rebuilds whose fingerprint changed.
fn replay(live: &Live, t: &mut Tracer) -> (Vec<f64>, f64) {
    let mut per_snapshot = Vec::new();
    let (mut rebuilds, mut changed) = (0u64, 0u64);
    for (s, p) in live.pops.iter().enumerate() {
        let mut ingest =
            SnapshotIngest::new(p.layout.clone(), p.spec.clone(), StabilityPolicy::never());
        let mut fp = None;
        let first = t.spans().len();
        let mut n = 0usize;
        for (i, &(_, k)) in live.stream.iter().enumerate().filter(|(_, it)| it.0 == s) {
            n += 1;
            let (is_failure, witness, report) = &p.pool[k];
            let id = format!("ep{i}:{witness}");
            let ok = t.time("converge.observe", || {
                ingest.observe(*is_failure, &id, report)
            });
            if !ok {
                continue;
            }
            let chain = t.time("chain.from_ingest", || CausalChain::from_ingest(&ingest));
            rebuilds += 1;
            if let Some(c) = chain {
                let f = t.time("chain.fingerprint", || c.fingerprint());
                std::hint::black_box(t.time("chain.to_json", || c.to_json()));
                if Some(f) != fp {
                    changed += 1;
                    fp = Some(f);
                }
            }
        }
        let spent: f64 = t.spans()[first..].iter().map(|x| x.end - x.start).sum();
        per_snapshot.push(spent / n.max(1) as f64);
    }
    (per_snapshot, changed as f64 / rebuilds.max(1) as f64)
}

fn mean_of<T>(v: &[T], f: impl Fn(&T) -> f64) -> f64 {
    v.iter().map(f).sum::<f64>() / v.len().max(1) as f64
}

pub fn run(cfg: &Config, t: &mut Tracer, r: &mut Report) {
    let epoch = Instant::now();
    let seed = cfg.seed ^ 0xF1EE7;
    let (mut live, setup_s) = repeated_setup(|| start(&mut Schedule::new(seed)));
    r.e2e.insert("setup_s", setup_s);
    let mut sched = Schedule::new(seed.rotate_left(17));

    if !cfg.trace {
        let c = cycle(&mut live, &mut sched, cfg.seconds, t, epoch);
        check_cycle(&c, r);
        cycle_metrics(&c, live.pops.len(), r);
        r.counts
            .insert("fleet.snapshots".into(), live.stream.len() as u64);
        let counts = finish_and_check(live, r);
        r.counts.extend(counts);
        return;
    }

    // Traced run: an untraced cycle for the overhead baseline, then a
    // fresh daemon for the traced cycle and the probes.
    let mut off = Tracer::new(false, epoch);
    let base = cycle(&mut live, &mut sched, cfg.seconds / 2.0, &mut off, epoch);
    check_cycle(&base, r);
    let _ = finish_and_check(live, r);
    let mut live = start(&mut Schedule::new(seed));
    let c = cycle(&mut live, &mut sched, cfg.seconds / 2.0, t, epoch);
    check_cycle(&c, r);

    let l = &mut r.layer;
    let submits = sorted_ms(&c.submit_s);
    l.insert(
        "fleet.submit_p50_us",
        percentile(&submits, 50.0).unwrap_or(0.0) * 1e3,
    );
    l.insert(
        "fleet.submit_p99_us",
        percentile(&submits, 99.0).unwrap_or(0.0) * 1e3,
    );
    l.insert(
        "fleet.queue_depth_max",
        c.reads.iter().map(|x| x.depth).max().unwrap_or(0) as f64,
    );
    l.insert(
        "fleet.drain_ms",
        mean_of(&c.windows, |w| w.drains.iter().map(|d| d.1).sum()) * 1e3,
    );
    // Live per-snapshot worker time of each shard: a paused shard's
    // burst share drains as fast as its worker ingests.
    let worker: Vec<f64> = (0..live.pops.len())
        .map(|s| {
            let (n, secs) = c
                .windows
                .iter()
                .fold((0, 0.0), |(n, t), w| (n + w.drains[s].0, t + w.drains[s].1));
            secs / n.max(1) as f64
        })
        .collect();
    let reads = sorted_ms(&live_reads(&c));
    l.insert(
        "observatory.read_p50_ms",
        percentile(&reads, 50.0).unwrap_or(0.0),
    );
    l.insert(
        "observatory.read_p99_ms",
        percentile(&reads, 99.0).unwrap_or(0.0),
    );
    l.insert(
        "observatory.diagnosis_bytes",
        mean_of(&c.reads, |x| x.bytes as f64),
    );
    let late = sorted_ms(&late(&c));
    l.insert(
        "generator.late_p99_ms",
        percentile(&late, 99.0).unwrap_or(0.0),
    );
    l.insert("generator.late_max_ms", late.last().copied().unwrap_or(0.0));
    l.insert(
        "trace_overhead_pct",
        (burst_rate(&base) / burst_rate(&c) - 1.0) * 100.0,
    );

    // Observatory probes, then the replay.
    let mut prom = Vec::new();
    let mut scrape = Vec::new();
    for _ in 0..OBS_PROBES {
        let t0 = Instant::now();
        let text = t.time("observatory.prom_render", || {
            stm_observatory::prom::render(&stm_telemetry::metrics_snapshot())
        });
        prom.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(text);
        let t0 = Instant::now();
        let ok = t.time("observatory.metrics_read", || {
            http_get(live.server.addr(), "/metrics", HTTP_TIMEOUT).is_ok()
        });
        scrape.push(t0.elapsed().as_secs_f64());
        r.check(ok, || "GET /metrics failed".into());
    }
    let (replayed, changed) = replay(&live, t);
    let l = &mut r.layer;
    l.insert("observatory.prom_render_us", mean_of(&prom, |s| *s) * 1e6);
    l.insert(
        "observatory.metrics_read_us",
        mean_of(&scrape, |s| *s) * 1e6,
    );
    l.insert("converge.observe_us", t.mean_self_us("converge.observe"));
    l.insert("chain.from_ingest_us", t.mean_self_us("chain.from_ingest"));
    l.insert("chain.fingerprint_us", t.mean_self_us("chain.fingerprint"));
    l.insert("chain.to_json_us", t.mean_self_us("chain.to_json"));
    l.insert("chain.changed_ratio", changed);
    l.insert("fleet.worker_us", mean_of(&worker, |s| *s) * 1e6);
    let residual: Vec<f64> = worker.iter().zip(&replayed).map(|(w, p)| w - p).collect();
    l.insert(
        "fleet.publish_residual_us",
        mean_of(&residual, |s| *s) * 1e6,
    );
    r.note(format!(
        "fleet-live traced: burst {:.0}/s traced vs {:.0}/s untraced; worker {:?} us vs replay {:?} us per snapshot",
        burst_rate(&c),
        burst_rate(&base),
        worker.iter().map(|s| (s * 1e6).round()).collect::<Vec<_>>(),
        replayed.iter().map(|s| (s * 1e6).round()).collect::<Vec<_>>(),
    ));
    r.counts
        .insert("fleet.snapshots".into(), live.stream.len() as u64);
    let counts = finish_and_check(live, r);
    r.counts.extend(counts);
}
