//! `scan-collect`: a closed loop of long scan-mode sessions. Each
//! operation scans the next seed range of sort (LBRA) and then of
//! apache4 (LCRA, Conf2), over every base workload with quotas that
//! never fill, and ranks every kept profile after each session. Ranges
//! start at a seed-derived offset and advance without overlap.

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::{
    clock, closed_loop_metrics, ref_rate, repeated_setup, Config, Op, Report, ENGINE_THREADS,
};
use std::ops::Range;
use std::time::Instant;
use stm_core::diagnose::{failure_profile, success_profile};
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_core::runner::{FailureSpec, Runner, Workload};
use stm_core::transform::instrument;
use stm_machine::events::LcrConfig;
use stm_machine::interp::Machine;
use stm_machine::report::ProfileData;
use stm_suite::eval::reactive_options;
use stm_suite::Benchmark;

/// Runs per session (bases × seeds), sized so an operation (one session
/// per benchmark) takes tens of milliseconds and a run holds hundreds.
const RUNS_PER_SESSION: u64 = 2000;

/// Windows the latency sample is cut into (200–300 operations each in a
/// 30 s run on the host in `README.md`; the p90 then has 20 or more
/// beyond it).
const LATENCY_WINDOWS: usize = 3;

/// Every how many operations the traced run replays the sessions
/// through the bare reference loop.
const BARE_EVERY: u64 = 4;

/// One scanned benchmark.
struct Target {
    bench: Benchmark,
    kind: ProfileKind,
    runner: Runner,
    bases: Vec<Workload>,
    seeds_per_session: u64,
    next_seed: u64,
}

/// What one session produced.
#[derive(Debug, Default, Clone, Copy)]
struct Outcome {
    top_ok: bool,
    runs: usize,
    profiles: usize,
    predictors: usize,
    snapshot_records: usize,
    collect_s: f64,
}

/// Deterministic counts of a bare `run_classified` loop.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Bare {
    runs: u64,
    steps: u64,
    branches: u64,
    accesses: u64,
    secs: f64,
    /// CPU time the engine took for the same runs.
    collect_s: f64,
}

fn target(id: &str, seed: u64) -> Target {
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
    let mut bases = bench.workloads.failing.clone();
    for w in &bench.workloads.passing {
        if !bases.contains(w) {
            bases.push(w.clone());
        }
    }
    let seeds_per_session = RUNS_PER_SESSION / bases.len() as u64;
    Target {
        kind,
        runner,
        seeds_per_session,
        // Disjoint, seed-chosen ranges: one million seeds per input seed.
        next_seed: (seed % 1_000_000) * 1_000_000,
        bases,
        bench,
    }
}

fn targets(seed: u64) -> Vec<Target> {
    vec![target("sort", seed), target("apache4", seed)]
}

impl Target {
    fn take_range(&mut self) -> Range<u64> {
        let start = self.next_seed;
        self.next_seed += self.seeds_per_session;
        start..self.next_seed
    }

    fn spec(&self) -> &FailureSpec {
        &self.bench.truth.spec
    }
}

/// Ring records over every kept profile.
fn snapshot_records(p: &CollectedProfiles) -> usize {
    let spec = p.spec();
    let len = |d: &ProfileData| match d {
        ProfileData::Lbr(r) => r.len(),
        ProfileData::Lcr(r) => r.len(),
    };
    let f = p
        .failure_runs()
        .iter()
        .filter_map(|r| failure_profile(&r.report, spec));
    let s = p
        .success_runs()
        .iter()
        .filter_map(|r| success_profile(&r.report, spec));
    f.chain(s).map(|e| len(&e.data)).sum()
}

/// One scan session plus the ranking of every kept profile.
fn session(tg: &Target, seeds: Range<u64>, t: &mut Tracer) -> Outcome {
    let b = &tg.bench;
    let op_start = clock::thread_s();
    let profiles = t.time("engine.collect", || {
        DiagnosisSession::from_runner(&tg.runner)
            .failure(b.truth.spec.clone())
            .workloads(tg.bases.clone())
            .seeds(seeds)
            .failure_profiles(usize::MAX)
            .success_profiles(usize::MAX)
            .threads(ENGINE_THREADS)
            .collect()
            .expect("scan-mode collection cannot fail")
    });
    let collect_s = clock::thread_s() - op_start;
    let (top_ok, predictors) = match tg.kind {
        ProfileKind::Lbr => {
            let d = t.time("ranking.rank", || {
                let mut d = profiles.lbra();
                d.exclude_site_guards(tg.runner.machine().program(), &b.truth.spec);
                d
            });
            let target = b.truth.target_branch().expect("sort has a target branch");
            (d.rank_of_branch(target) == Some(1), d.ranked.len())
        }
        ProfileKind::Lcr => {
            let d = t.time("ranking.rank", || profiles.lcra());
            let fpe = b.truth.fpe.expect("apache4 has an FPE");
            let state = fpe.conf2_state.expect("apache4's FPE shows under Conf2");
            (d.rank_of_event(fpe.loc, state) == Some(1), d.ranked.len())
        }
    };
    let stats = profiles.stats();
    Outcome {
        top_ok,
        runs: stats.total_runs,
        profiles: stats.failure_runs_used + stats.success_runs_used,
        predictors,
        snapshot_records: snapshot_records(&profiles),
        collect_s,
    }
}

/// The engine-free reference: the same (base, seed) runs through a bare
/// single-threaded `run_classified` loop.
fn bare_loop(tg: &Target, seeds: Range<u64>) -> Bare {
    let mut out = Bare::default();
    let start = clock::thread_s();
    for base in &tg.bases {
        for seed in seeds.clone() {
            let w = base.clone().with_seed(seed);
            let (report, _) = tg.runner.run_classified(&w, tg.spec());
            out.runs += 1;
            out.steps += report.steps;
            out.branches += report.branches_retired;
            out.accesses += report.accesses_retired;
        }
    }
    out.secs = clock::thread_s() - start;
    out
}

fn check(tg: &Target, o: &Outcome, r: &mut Report) {
    let id = tg.bench.info.id;
    r.check(o.top_ok, || {
        format!("{id}: top predictor is not the ground truth")
    });
    r.check(
        o.runs as u64 == tg.seeds_per_session * tg.bases.len() as u64,
        || format!("{id}: session consumed {} runs", o.runs),
    );
}

/// Runs operations (one session per target) for `seconds` of wall time,
/// sampling the probe after each, and returns each as an [`Op`] (work:
/// runs scanned) with its sessions. The traced run's bare loops run
/// between operations and are left out of the ops.
fn closed_loop(
    tgs: &mut [Target],
    seconds: f64,
    probe: &mut Probe,
    t: &mut Tracer,
    r: &mut Report,
    bare: &mut Vec<Bare>,
) -> (Vec<Op>, Vec<Outcome>) {
    let mut ops = Vec::new();
    let mut outs = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        op += 1;
        t.set_op(op);
        let cpu0 = clock::thread_s();
        let mut runs = 0;
        t.enter("scan.op");
        let ranges: Vec<Range<u64>> = tgs.iter_mut().map(Target::take_range).collect();
        let sessions: Vec<Outcome> = tgs
            .iter()
            .zip(ranges.clone())
            .map(|(tg, seeds)| session(tg, seeds, t))
            .collect();
        t.exit();
        let cpu_s = clock::thread_s() - cpu0;
        for ((tg, o), seeds) in tgs.iter().zip(sessions).zip(ranges) {
            check(tg, &o, r);
            if t.on() && op.is_multiple_of(BARE_EVERY) {
                bare.push(Bare {
                    collect_s: o.collect_s,
                    ..bare_loop(tg, seeds)
                });
            }
            runs += o.runs;
            outs.push(o);
        }
        ops.push(Op {
            cpu_s,
            work: runs as f64,
            mark: probe.mark(),
        });
        probe.sample();
    }
    (ops, outs)
}

pub fn run(cfg: &Config, t: &mut Tracer, r: &mut Report) {
    // Set-up: build both deployments and warm up with the first session
    // of each, whose deterministic counts the self-check compares.
    let mut count_sets = Vec::new();
    let (mut tgs, setup_s) = repeated_setup(|| {
        let tgs = targets(cfg.seed);
        let mut off = Tracer::new(false, Instant::now());
        let mut counts = Vec::new();
        for tg in &tgs {
            let seeds = tg.next_seed..tg.next_seed + tg.seeds_per_session;
            let o = session(tg, seeds.clone(), &mut off);
            let b = bare_loop(tg, seeds);
            let id = tg.bench.info.id;
            counts.push((format!("scan.{id}.runs"), o.runs as u64));
            counts.push((format!("scan.{id}.profiles"), o.profiles as u64));
            counts.push((format!("scan.{id}.predictors"), o.predictors as u64));
            counts.push((
                format!("scan.{id}.snapshot_records"),
                o.snapshot_records as u64,
            ));
            counts.push((format!("scan.{id}.steps"), b.steps));
            counts.push((format!("scan.{id}.branches"), b.branches));
            counts.push((format!("scan.{id}.accesses"), b.accesses));
        }
        count_sets.push(counts);
        // The warm-up took no range, so the measured loop starts with the
        // same sessions.
        tgs
    });
    r.e2e.insert("setup_s", setup_s);
    let same = count_sets.windows(2).all(|w| w[0] == w[1]);
    r.check(same, || {
        "deterministic counts differ between set-up passes".into()
    });
    r.counts.extend(count_sets.swap_remove(0));

    let mut bare = Vec::new();
    let mut probe = Probe::new();
    if !cfg.trace {
        let (ops, outs) = closed_loop(&mut tgs, cfg.seconds, &mut probe, t, r, &mut bare);
        r.note(format!(
            "scan-collect: {} runs in {} sessions at threads({})",
            outs.iter().map(|o| o.runs).sum::<usize>(),
            outs.len(),
            ENGINE_THREADS
        ));
        closed_loop_metrics(r, "scanned runs", &ops, &probe, LATENCY_WINDOWS, 90.0);
        return;
    }

    // Traced run: untraced half, then traced half (bare loops excluded
    // from both rates).
    let mut off = Tracer::new(false, Instant::now());
    let half = cfg.seconds / 2.0;
    let (base, _) = closed_loop(&mut tgs, half, &mut probe, &mut off, r, &mut bare);
    let (ops, outs) = closed_loop(&mut tgs, half, &mut probe, t, r, &mut bare);
    let n = outs.len() as f64;
    let sum = |f: &dyn Fn(&Outcome) -> f64| outs.iter().map(f).sum::<f64>();
    let b = bare.iter().fold(Bare::default(), |a, b| Bare {
        runs: a.runs + b.runs,
        steps: a.steps + b.steps,
        branches: a.branches + b.branches,
        accesses: a.accesses + b.accesses,
        secs: a.secs + b.secs,
        collect_s: a.collect_s + b.collect_s,
    });
    let l = &mut r.layer;
    l.insert("engine.collect_us", t.mean_self_us("engine.collect"));
    l.insert("ranking.rank_us", t.mean_self_us("ranking.rank"));
    l.insert("op.self_us", t.mean_self_us("scan.op"));
    l.insert("engine.runs", sum(&|o| o.runs as f64) / n);
    l.insert(
        "engine.profile_yield",
        sum(&|o| o.profiles as f64) / sum(&|o| o.runs as f64),
    );
    l.insert(
        "engine.efficiency",
        b.secs / (b.collect_s * ENGINE_THREADS as f64),
    );
    l.insert("ranking.profiles", sum(&|o| o.profiles as f64) / n);
    l.insert("ranking.predictors", sum(&|o| o.predictors as f64) / n);
    l.insert(
        "hardware.snapshot_records",
        sum(&|o| o.snapshot_records as f64) / sum(&|o| o.profiles as f64),
    );
    l.insert("machine.steps_per_run", b.steps as f64 / b.runs as f64);
    l.insert(
        "machine.branches_per_run",
        b.branches as f64 / b.runs as f64,
    );
    l.insert(
        "machine.accesses_per_run",
        b.accesses as f64 / b.runs as f64,
    );
    l.insert("machine.ns_per_step", b.secs * 1e9 / b.steps as f64);
    l.insert("runner.run_us", b.secs * 1e6 / b.runs as f64);
    l.insert(
        "trace_overhead_pct",
        (ref_rate(&base, &probe) / ref_rate(&ops, &probe) - 1.0) * 100.0,
    );
    r.note(format!(
        "scan-collect traced: {:.0} runs per reference second traced vs {:.0} untraced; bare loop {:.0} runs per CPU second",
        ref_rate(&ops, &probe),
        ref_rate(&base, &probe),
        b.runs as f64 / b.secs
    ));
}
