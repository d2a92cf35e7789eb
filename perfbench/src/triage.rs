//! `suite-triage`: a closed loop with one client. Each operation is the
//! paper's reactive diagnosis of one suite bug — 20 sequential bugs under
//! LBRA, 11 concurrency bugs under LCRA (Conf2) — from instrumentation to
//! rendered forensic report. Passes cover all 31 bugs in an order the
//! seed permutes.

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::{
    clock, closed_loop_metrics, ref_rate, repeated_setup, Config, Op, Report, Rng, ENGINE_THREADS,
};
use std::time::Instant;
use stm_core::diagnose::{failure_profile, success_profile};
use stm_core::engine::{CollectedProfiles, DiagnosisSession, ProfileKind};
use stm_core::profile::{decode_lbr, decode_lcr};
use stm_core::runner::{RunClass, Runner};
use stm_core::transform::{instrument, InstrumentOptions};
use stm_forensics::{CausalChain, FailureDossier, ForensicReport, RankingReport};
use stm_machine::events::LcrConfig;
use stm_machine::interp::Machine;
use stm_machine::report::ProfileData;
use stm_suite::eval::{expand_workloads, reactive_options};
use stm_suite::{Benchmark, BugClass, PaperMark};

/// Windows the latency sample is cut into (1,500–2,300 diagnoses each
/// in a 30 s run on the host in `README.md`, enough for a p99).
const LATENCY_WINDOWS: usize = 5;

/// Predictors each rendered report lists.
const TOP_K: usize = 5;

/// One suite bug, ready to diagnose.
struct Bug {
    bench: Benchmark,
    kind: ProfileKind,
    opts: InstrumentOptions,
    /// The rank Table 6/7 reproduces (`None` = not found).
    expect: Option<usize>,
    /// A paper miss whose ranking was empty when this benchmark was
    /// added; it must stay empty.
    expect_empty: bool,
    /// Runs the seed scan of `expand_workloads` executes (traced runs
    /// only; 0 otherwise).
    scan_runs: u64,
}

/// What one diagnosis produced.
#[derive(Debug, Default, Clone, PartialEq)]
struct Outcome {
    rank: Option<usize>,
    predictors: usize,
    runs: usize,
    profiles: usize,
    snapshot_records: usize,
    snapshots: usize,
    records_decoded: usize,
    report_bytes: usize,
    collect_s: f64,
    bare_s: f64,
    error: Option<String>,
}

fn expected(mark: Option<PaperMark>) -> Option<usize> {
    match mark {
        Some(PaperMark::Found(n)) | Some(PaperMark::Related(n)) => Some(n as usize),
        Some(PaperMark::Miss) | None => None,
    }
}

/// Table 7 misses whose LCRA ranking was empty when this benchmark was
/// added: no coherence event separates their failing from their passing
/// runs. `mysql1`, the fourth miss, ranks predictors that are not its
/// FPE.
const EMPTY_LCRA: &[&str] = &["apache5", "cherokee", "mozilla-js2"];

fn suite() -> Vec<Bug> {
    stm_suite::all()
        .into_iter()
        .map(|bench| {
            let (kind, opts, expect) = match bench.info.bug_class {
                BugClass::Sequential => (
                    ProfileKind::Lbr,
                    reactive_options(&bench, true, None),
                    expected(bench.info.paper.lbra),
                ),
                BugClass::Concurrency => (
                    ProfileKind::Lcr,
                    reactive_options(&bench, false, Some(LcrConfig::SPACE_CONSUMING)),
                    expected(bench.info.paper.lcra),
                ),
            };
            let expect_empty = EMPTY_LCRA.contains(&bench.info.id);
            Bug {
                bench,
                kind,
                opts,
                expect,
                expect_empty,
                scan_runs: 0,
            }
        })
        .collect()
}

/// Record count of a ring snapshot.
fn records(data: &ProfileData) -> usize {
    match data {
        ProfileData::Lbr(r) => r.len(),
        ProfileData::Lcr(r) => r.len(),
    }
}

/// Ring records per kept profile: `(records, profiles)`.
fn snapshot_records(p: &CollectedProfiles) -> (usize, usize) {
    let spec = p.spec();
    let mut out = (0, 0);
    for run in p.failure_runs() {
        if let Some(e) = failure_profile(&run.report, spec) {
            out.0 += records(&e.data);
            out.1 += 1;
        }
    }
    for run in p.success_runs() {
        if let Some(e) = success_profile(&run.report, spec) {
            out.0 += records(&e.data);
            out.1 += 1;
        }
    }
    out
}

/// One reactive diagnosis, every step in its own span. Returns the
/// outcome with the runner and profiles, for the traced run's bare
/// reference loop.
fn diagnose(bug: &Bug, t: &mut Tracer) -> (Outcome, Option<(Runner, CollectedProfiles)>) {
    let b = &bug.bench;
    let spec = &b.truth.spec;
    let program = t.time("transform.instrument", || instrument(&b.program, &bug.opts));
    let machine = t.time("machine.lower", || Machine::new(program));
    let runner = Runner::new(machine);
    let (failing, passing) = t.time("eval.expand", || expand_workloads(b, &runner));
    let collect_start = clock::thread_s();
    let profiles = t.time("engine.collect", || {
        DiagnosisSession::from_runner(&runner)
            .failure(spec.clone())
            .failing(failing)
            .passing(passing)
            .profile_kind(bug.kind)
            .threads(ENGINE_THREADS)
            .collect()
    });
    let collect_s = clock::thread_s() - collect_start;
    let profiles = match profiles {
        Ok(p) => p,
        Err(e) => {
            let error = Some(format!("{}: collection failed: {e}", b.info.id));
            return (
                Outcome {
                    error,
                    ..Outcome::default()
                },
                None,
            );
        }
    };
    let program = runner.machine().program();
    let layout = runner.machine().layout();
    let stats = *profiles.stats();
    let mut out = Outcome {
        runs: stats.total_runs,
        profiles: stats.failure_runs_used + stats.success_runs_used,
        collect_s,
        ..Outcome::default()
    };
    let (ranking, chain) = match bug.kind {
        ProfileKind::Lbr => {
            let d = t.time("ranking.rank", || {
                let mut d = profiles.lbra();
                d.exclude_site_guards(program, spec);
                d
            });
            let traces = t.time("profile.decode", || {
                profiles
                    .failure_runs()
                    .iter()
                    .filter_map(|run| match &failure_profile(&run.report, spec)?.data {
                        ProfileData::Lbr(r) => Some((run.witness.clone(), decode_lbr(layout, r))),
                        ProfileData::Lcr(_) => None,
                    })
                    .collect::<Vec<_>>()
            });
            out.records_decoded = traces.iter().map(|(_, e)| e.len()).sum();
            let chain = t.time("chain.build", || {
                CausalChain::from_lbra(
                    Some(program),
                    &d.ranked,
                    &traces,
                    d.stats.failure_runs_used,
                    d.stats.success_runs_used,
                )
            });
            out.rank = b.truth.target_branch().and_then(|br| d.rank_of_branch(br));
            out.predictors = d.ranked.len();
            t.enter("report.render");
            let ranking = RankingReport::from_lbra(program, b.info.id, &d, TOP_K);
            (ranking, chain)
        }
        ProfileKind::Lcr => {
            let d = t.time("ranking.rank", || profiles.lcra());
            let traces = t.time("profile.decode", || {
                profiles
                    .failure_runs()
                    .iter()
                    .filter_map(|run| match &failure_profile(&run.report, spec)?.data {
                        ProfileData::Lcr(r) => Some((run.witness.clone(), decode_lcr(layout, r))),
                        ProfileData::Lbr(_) => None,
                    })
                    .collect::<Vec<_>>()
            });
            out.records_decoded = traces.iter().map(|(_, e)| e.len()).sum();
            let chain = t.time("chain.build", || {
                CausalChain::from_lcra(
                    Some(program),
                    &d.ranked,
                    &traces,
                    d.stats.failure_runs_used,
                    d.stats.success_runs_used,
                )
            });
            out.rank = b
                .truth
                .fpe
                .and_then(|f| Some((f.loc, f.conf2_state?)))
                .and_then(|(loc, state)| d.rank_of_event(loc, state));
            out.predictors = d.ranked.len();
            t.enter("report.render");
            let ranking = RankingReport::from_lcra(program, b.info.id, &d, TOP_K);
            (ranking, chain)
        }
    };
    // Still inside the report.render span opened above.
    let dossier = profiles
        .failure_runs()
        .iter()
        .find_map(|run| FailureDossier::collect(&runner, &run.report, &run.workload, Some(spec)));
    out.report_bytes = match dossier {
        Some(dossier) => {
            let chain = chain.map(|c| c.with_symptom(dossier.symptom.clone()));
            let report = ForensicReport {
                dossier,
                ranking,
                chain,
            };
            report.to_json().encode().len() + report.to_markdown().len()
        }
        None => ranking.to_json().encode().len() + ranking.to_markdown().len(),
    };
    t.exit();
    (out.snapshot_records, out.snapshots) = snapshot_records(&profiles);
    (out, Some((runner, profiles)))
}

/// The engine-free reference for `engine.efficiency`: seconds to replay
/// the kept witnesses through a bare `run_classified` loop.
fn bare_replay(runner: &Runner, profiles: &CollectedProfiles) -> f64 {
    let t0 = clock::thread_s();
    for run in profiles
        .failure_runs()
        .iter()
        .chain(profiles.success_runs())
    {
        let (_, class) = runner.run_classified(&run.workload, profiles.spec());
        std::hint::black_box(class == RunClass::TargetFailure);
    }
    clock::thread_s() - t0
}

/// Checks one outcome against the paper's rank.
fn check(bug: &Bug, o: &Outcome, r: &mut Report) {
    let id = bug.bench.info.id;
    if let Some(e) = &o.error {
        r.check(false, || e.clone());
        return;
    }
    r.check(o.rank == bug.expect, || {
        format!(
            "{id}: root cause ranked {:?}, expected {:?}",
            o.rank, bug.expect
        )
    });
    if bug.expect_empty {
        r.check(o.predictors == 0, || {
            format!(
                "{id}: ranking should stay empty, has {} predictors",
                o.predictors
            )
        });
    }
}

/// Sums deterministic counts over one full pass.
fn pass_counts(outs: &[Outcome]) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&Outcome) -> usize| outs.iter().map(f).sum::<usize>() as u64;
    vec![
        ("triage.bugs", outs.len() as u64),
        ("triage.runs", sum(|o| o.runs)),
        ("triage.profiles", sum(|o| o.profiles)),
        ("triage.predictors", sum(|o| o.predictors)),
        ("triage.snapshot_records", sum(|o| o.snapshot_records)),
        ("triage.records_decoded", sum(|o| o.records_decoded)),
        ("triage.report_bytes", sum(|o| o.report_bytes)),
    ]
}

/// Counts the runs `expand_workloads` executes for each concurrency bug
/// from the engine's own `engine.runs` counter (untimed; traced runs).
fn count_scan_runs(bugs: &mut [Bug]) {
    for bug in bugs.iter_mut() {
        if bug.bench.info.bug_class != BugClass::Concurrency {
            continue;
        }
        let runner = Runner::new(Machine::new(instrument(&bug.bench.program, &bug.opts)));
        stm_telemetry::reset();
        stm_telemetry::set_enabled(true);
        let _ = expand_workloads(&bug.bench, &runner);
        stm_telemetry::set_enabled(false);
        bug.scan_runs = stm_telemetry::metrics_snapshot()
            .counter("engine.runs")
            .unwrap_or(0);
        let _ = stm_telemetry::take_spans();
        stm_telemetry::reset();
    }
}

/// Runs the closed loop for `seconds` of wall time, sampling the probe
/// after every pass, and returns each diagnosis as an [`Op`] with its
/// outcome and bug index.
fn closed_loop(
    bugs: &[Bug],
    rng: &mut Rng,
    seconds: f64,
    probe: &mut Probe,
    t: &mut Tracer,
    r: &mut Report,
) -> (Vec<Op>, Vec<(usize, Outcome)>) {
    let mut ops = Vec::new();
    let mut outs = Vec::new();
    let start = Instant::now();
    let mut op = 0u64;
    'outer: loop {
        let mut order: Vec<usize> = (0..bugs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            op += 1;
            t.set_op(op);
            let cpu0 = clock::thread_s();
            t.enter("triage.op");
            let (mut o, kept) = diagnose(&bugs[i], t);
            t.exit();
            ops.push(Op {
                cpu_s: clock::thread_s() - cpu0,
                work: 1.0,
                mark: probe.mark(),
            });
            if let (true, Some((runner, profiles))) = (t.on(), &kept) {
                o.bare_s = bare_replay(runner, profiles);
            }
            check(&bugs[i], &o, r);
            outs.push((i, o));
            if start.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
        }
        probe.sample();
    }
    (ops, outs)
}

pub fn run(cfg: &Config, t: &mut Tracer, r: &mut Report) {
    // Set-up: build the suite and warm up with one full untimed pass,
    // which also yields the pass's deterministic counts.
    let mut pass_sets = Vec::new();
    let (mut bugs, setup_s) = repeated_setup(|| {
        let bugs = suite();
        let mut off = Tracer::new(false, Instant::now());
        let outs: Vec<Outcome> = bugs.iter().map(|b| diagnose(b, &mut off).0).collect();
        pass_sets.push(pass_counts(&outs));
        bugs
    });
    r.e2e.insert("setup_s", setup_s);
    let same = pass_sets.windows(2).all(|w| w[0] == w[1]);
    r.check(same, || {
        "deterministic counts differ between set-up passes".into()
    });
    for (k, v) in &pass_sets[0] {
        r.counts.insert(k.to_string(), *v);
    }

    let mut rng = Rng::new(cfg.seed);
    let mut probe = Probe::new();
    if !cfg.trace {
        let (ops, outs) = closed_loop(&bugs, &mut rng, cfg.seconds, &mut probe, t, r);
        r.note(format!(
            "suite-triage: {} diagnoses at threads({})",
            outs.len(),
            ENGINE_THREADS
        ));
        closed_loop_metrics(r, "triages", &ops, &probe, LATENCY_WINDOWS, 99.0);
        return;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half for the per-layer numbers.
    count_scan_runs(&mut bugs);
    let mut off = Tracer::new(false, Instant::now());
    let half = cfg.seconds / 2.0;
    let (base_ops, base) = closed_loop(&bugs, &mut rng, half, &mut probe, &mut off, r);
    let (ops, outs) = closed_loop(&bugs, &mut rng, half, &mut probe, t, r);
    let (base_rate, rate) = (ref_rate(&base_ops, &probe), ref_rate(&ops, &probe));
    let n = outs.len() as f64;
    let sum = |f: &dyn Fn(&Outcome) -> f64| outs.iter().map(|(_, o)| f(o)).sum::<f64>();
    let l = &mut r.layer;
    for (metric, span) in [
        ("transform.instrument_us", "transform.instrument"),
        ("machine.lower_us", "machine.lower"),
        ("eval.expand_us", "eval.expand"),
        ("engine.collect_us", "engine.collect"),
        ("ranking.rank_us", "ranking.rank"),
        ("profile.decode_us", "profile.decode"),
        ("chain.build_us", "chain.build"),
        ("report.render_us", "report.render"),
        ("op.self_us", "triage.op"),
    ] {
        l.insert(metric, t.mean_self_us(span));
    }
    l.insert(
        "eval.scan_runs",
        outs.iter()
            .map(|(i, _)| bugs[*i].scan_runs as f64)
            .sum::<f64>()
            / n,
    );
    l.insert("engine.runs", sum(&|o| o.runs as f64) / n);
    l.insert(
        "engine.profile_yield",
        sum(&|o| o.profiles as f64) / sum(&|o| o.runs as f64),
    );
    // The bare loop replays only the kept witnesses; scale its per-run
    // time to every run the session consumed.
    let (bare, collect) =
        outs.iter()
            .filter(|(_, o)| o.profiles > 0)
            .fold((0.0, 0.0), |(b, c), (_, o)| {
                (
                    b + o.bare_s / o.profiles as f64 * o.runs as f64,
                    c + o.collect_s,
                )
            });
    l.insert(
        "engine.efficiency",
        bare / (collect * ENGINE_THREADS as f64),
    );
    l.insert(
        "hardware.snapshot_records",
        sum(&|o| o.snapshot_records as f64) / sum(&|o| o.snapshots as f64),
    );
    l.insert(
        "profile.records_decoded",
        sum(&|o| o.records_decoded as f64) / n,
    );
    l.insert("ranking.profiles", sum(&|o| o.profiles as f64) / n);
    l.insert("ranking.predictors", sum(&|o| o.predictors as f64) / n);
    l.insert("report.bytes", sum(&|o| o.report_bytes as f64) / n);
    l.insert("trace_overhead_pct", (base_rate / rate - 1.0) * 100.0);
    r.note(format!(
        "suite-triage traced: {:.2} vs {base_rate:.2} diagnoses per reference second traced and untraced, over {} + {} diagnoses",
        rate,
        outs.len(),
        base.len()
    ));
}
