//! `stm-perfbench` — the repository benchmark.
//!
//! ```text
//! stm-perfbench --workload <suite-triage|scan-collect|fleet-live>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end metrics
//! of `BENCHMARK.json`; with `--trace 1` they are the per-layer metrics,
//! taken from a separate traced run. See `README.md` beside this file.

mod clock;
mod fleet;
mod probe;
mod scan;
mod stats;
mod trace;
mod triage;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A workload that does not exercise
/// a layer reports 0 for it. `_us` times are mean self time per call.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transform.instrument_us", "us"),
    ("machine.lower_us", "us"),
    ("machine.steps_per_run", "count"),
    ("machine.branches_per_run", "count"),
    ("machine.accesses_per_run", "count"),
    ("machine.ns_per_step", "ns"),
    ("runner.run_us", "us"),
    ("hardware.snapshot_records", "count"),
    ("eval.expand_us", "us"),
    ("eval.scan_runs", "count"),
    ("engine.collect_us", "us"),
    ("engine.runs", "count"),
    ("engine.profile_yield", "ratio"),
    ("engine.efficiency", "ratio"),
    ("profile.decode_us", "us"),
    ("profile.records_decoded", "count"),
    ("ranking.rank_us", "us"),
    ("ranking.profiles", "count"),
    ("ranking.predictors", "count"),
    ("chain.build_us", "us"),
    ("chain.from_ingest_us", "us"),
    ("chain.fingerprint_us", "us"),
    ("chain.to_json_us", "us"),
    ("chain.changed_ratio", "ratio"),
    ("report.render_us", "us"),
    ("report.bytes", "bytes"),
    ("converge.observe_us", "us"),
    ("fleet.submit_p50_us", "us"),
    ("fleet.submit_p99_us", "us"),
    ("fleet.queue_depth_max", "count"),
    ("fleet.drain_ms", "ms"),
    ("fleet.worker_us", "us"),
    ("fleet.publish_residual_us", "us"),
    ("observatory.read_p50_ms", "ms"),
    ("observatory.read_p99_ms", "ms"),
    ("observatory.diagnosis_bytes", "bytes"),
    ("observatory.prom_render_us", "us"),
    ("observatory.metrics_read_us", "us"),
    ("generator.late_p99_ms", "ms"),
    ("generator.late_max_ms", "ms"),
    ("op.self_us", "us"),
    ("trace_overhead_pct", "%"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["suite-triage", "scan-collect", "fleet-live"];

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Worker threads of every engine session. One: sessions then run on
/// the driving thread, whose CPU clock times them, and a run measures
/// the program rather than how a shared host schedules two busy vCPUs.
pub const ENGINE_THREADS: usize = 1;

/// Equal windows a measured loop is cut into; throughput is the median
/// window rate, so a short stall of the host moves one window, not the
/// reported rate.
pub const WINDOWS: usize = 10;

/// Tail percentiles, highest first. A workload declares its tail
/// percentile; a window too small for it (fewer than ten samples
/// beyond) falls to the next rung.
pub const TAIL_LADDER: &[f64] = &[99.0, 95.0, 90.0, 75.0, 50.0];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations and run-level checks attempted.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Deterministic work counts over a seed-fixed unit of work.
    pub counts: BTreeMap<String, u64>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one attempted operation or check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Adds a stderr note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Seeded xorshift64* generator for inputs and schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, zero included).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median CPU time the process (every thread) spent on it, in
/// reference seconds (see [`probe`]). Earlier results are dropped (torn
/// down) before the next repeat starts.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut probe = probe::Probe::new();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (v, secs) = probe.process_time(&mut setup);
        times.push(secs);
        last = Some(v);
    }
    let median = stats::median(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

/// `(start, end, work units)` of one operation, in seconds since its
/// loop started.
pub type Done = (f64, f64, f64);

/// One operation of a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// CPU seconds the driving thread spent on it.
    pub cpu_s: f64,
    /// Work units it completed (diagnoses, runs).
    pub work: f64,
    /// The probe's mark when it ended.
    pub mark: usize,
}

/// Raw CPU rate of `ops`: work units per CPU second.
pub fn cpu_rate(ops: &[Op]) -> f64 {
    ops.iter().map(|o| o.work).sum::<f64>() / ops.iter().map(|o| o.cpu_s).sum::<f64>()
}

/// Rate of `ops` in work units per reference second.
pub fn ref_rate(ops: &[Op], probe: &probe::Probe) -> f64 {
    let secs: f64 = ops.iter().map(|o| o.cpu_s * probe.scale(o.mark)).sum();
    ops.iter().map(|o| o.work).sum::<f64>() / secs
}

/// Adds a closed loop's end-to-end metrics. Each operation's CPU time is
/// rescaled to reference seconds by the probe samples around it, and
/// the operations are laid end to end on that timeline. Throughput is
/// the median of the [`WINDOWS`] window rates; the latencies come from
/// `latency_windows` windows of the same timeline at tail `pct`.
pub fn closed_loop_metrics(
    r: &mut Report,
    what: &str,
    ops: &[Op],
    probe: &probe::Probe,
    latency_windows: usize,
    pct: f64,
) {
    let lat: Vec<f64> = ops.iter().map(|o| o.cpu_s * probe.scale(o.mark)).collect();
    let work: Vec<f64> = ops.iter().map(|o| o.work).collect();
    let done = stats::end_to_end(&lat, &work);
    let span = done.last().map_or(0.0, |d| d.1);
    throughput_metric(r, what, &done, span);
    let samples: Vec<(f64, f64)> = done.iter().map(|d| d.1).zip(lat).collect();
    let windows = stats::split_windows(&samples, span, latency_windows);
    latency_metrics(r, what, &windows, pct);
    r.note(format!(
        "{what}: raw {:.2} per CPU second; probe median {:.1} us over {} samples",
        cpu_rate(ops),
        probe.median_s() * 1e6,
        probe.mark()
    ));
}

/// Adds `throughput_per_s` as the median of the [`WINDOWS`] window rates
/// of `done` (`(start, end, work)` per operation, in seconds since the
/// loop started) over `[0, span)`.
pub fn throughput_metric(r: &mut Report, what: &str, done: &[Done], span: f64) {
    let rates = stats::window_rates(done, span, WINDOWS);
    let median = stats::median(&rates).unwrap_or(0.0);
    r.e2e.insert("throughput_per_s", median);
    r.note(format!(
        "{what}: median window rate {median:.2}/s; windows {:?}",
        rates.iter().map(|x| x.round()).collect::<Vec<_>>()
    ));
}

/// Adds the two latency metrics from per-window samples (seconds): each
/// window's p50 and its tail at `pct` — or, under the ten-beyond rule,
/// the highest lower rung of [`TAIL_LADDER`] the window supports — and
/// reports the median over windows of each, so a stall of the host
/// moves one window rather than the run's figure.
pub fn latency_metrics(r: &mut Report, what: &str, windows: &[Vec<f64>], pct: f64) {
    let ladder: Vec<f64> = TAIL_LADDER.iter().copied().filter(|p| *p <= pct).collect();
    let (mut p50s, mut tails, mut picks) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows {
        let mut v: Vec<f64> = w.iter().map(|s| s * 1e3).collect();
        v.sort_by(f64::total_cmp);
        match (stats::percentile(&v, 50.0), stats::tail(&v, &ladder, 10)) {
            (Some(p50), Some(tail)) => {
                p50s.push(p50);
                tails.push(tail.value);
                picks.push(format!("p{}/{}", tail.pct, tail.n));
            }
            _ => r.check(false, || {
                format!(
                    "{what}: a window of {} samples is too small for a tail",
                    v.len()
                )
            }),
        }
    }
    let (Some(p50), Some(tail)) = (stats::median(&p50s), stats::median(&tails)) else {
        return;
    };
    r.e2e.insert("latency_p50_ms", p50);
    r.e2e.insert("latency_tail_ms", tail);
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    r.note(format!(
        "{what}: median p50 {p50:.4} ms and tail {tail:.4} ms over windows; p50 {:?}, tails {:?} ({})",
        round(&p50s),
        round(&tails),
        picks.join(" ")
    ));
}

fn usage() -> ! {
    eprintln!(
        "usage: stm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let v = args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    Config {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// Where this run keeps its records: beside the built binary, inside
/// the build directory of the checkout.
fn record_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join("perfbench-records"))
}

/// An identity for the built binary (size and modification time), so
/// records are only ever compared between runs of the same build.
fn build_id() -> Option<String> {
    let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some(format!("{}-{}", meta.len(), mtime.as_nanos()))
}

/// The simulation-invariance self-check: the deterministic counts of a
/// (workload, seed, seconds, trace) run must equal those of every
/// earlier run of the same arguments by the same build.
fn check_invariance(cfg: &Config, r: &mut Report) {
    let encoded: String = r.counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    for line in encoded.lines() {
        eprintln!("count {line}");
    }
    let (Some(dir), Some(build)) = (record_dir(), build_id()) else {
        return;
    };
    let path = dir.join(format!(
        "counts-{build}-{}-{}-{}-{}.txt",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) => r.check(prev == encoded, || {
            format!(
                "deterministic counts differ from an earlier run of the same seed ({})",
                path.display()
            )
        }),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &encoded));
        }
    }
}

/// A metric value as a JSON number. A non-finite value has already
/// failed its check; it prints as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    format!("{:?}", if v.is_finite() { v } else { 0.0 })
}

fn main() {
    let cfg = parse_args();
    // Before any thread starts, so that every thread inherits it.
    let cpu = probe::pin_to_current_cpu();
    let mut tracer = trace::Tracer::new(cfg.trace, Instant::now());
    let mut r = Report::default();
    match cpu {
        Some(cpu) => r.note(format!("pinned to CPU {cpu}")),
        None => r.note("could not pin to one CPU; running unpinned".into()),
    }
    match cfg.workload.as_str() {
        "suite-triage" => triage::run(&cfg, &mut tracer, &mut r),
        "scan-collect" => scan::run(&cfg, &mut tracer, &mut r),
        "fleet-live" => fleet::run(&cfg, &mut tracer, &mut r),
        _ => usage(),
    }
    match peak_rss_mb() {
        Some(mb) => {
            r.e2e.insert("peak_rss_mb", mb);
        }
        None => r.check(false, || {
            "cannot read peak RSS from /proc/self/status".into()
        }),
    }
    check_invariance(&cfg, &mut r);
    if cfg.trace {
        if let Some(dir) = record_dir() {
            let path = dir.join(format!("spans-{}-{}.csv", cfg.workload, cfg.seed));
            let _ =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_csv()));
        }
    }

    let (names, values) = if cfg.trace {
        (PER_LAYER, r.layer.clone())
    } else {
        (END_TO_END, r.e2e.clone())
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = values.get(name).copied().unwrap_or(0.0);
        let ok = value.is_finite() && (cfg.trace || value > 0.0);
        r.check(ok, || format!("metric {name} is {value}"));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for line in &r.notes {
        eprintln!("{line}");
    }
    for e in &r.errors {
        eprintln!("FAILED: {e}");
    }
    eprintln!(
        "error_rate {} ({} failed of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_telemetry::json::Json;

    /// The metric and workload names this binary emits are exactly the
    /// ones `BENCHMARK.json` declares, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(END_TO_END));
        assert_eq!(list("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn rng_is_seeded_and_shuffles_a_permutation() {
        let mut a = Rng::new(0);
        let mut b = Rng::new(0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<usize> = (0..31).collect();
        Rng::new(42).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..31).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
