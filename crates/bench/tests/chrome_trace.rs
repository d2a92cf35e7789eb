//! Golden-file test for the `trace_run` export path: a full LBRA
//! diagnosis must yield a valid Chrome `trace_event` JSON document whose
//! spans cover the interpreter, the ring snapshots and all three
//! diagnosis phases, and whose flow arrows are well formed.

use std::collections::BTreeMap;
use stm_telemetry::json::Json;

/// Span names that every sequential-benchmark trace must contain.
const EXPECTED_SPANS: &[&str] = &[
    "machine.run",
    "runner.run",
    "hw.lbr.snapshot",
    "engine.collect",
    "engine.job",
    "lbra.profile_extraction",
    "lbra.ranking",
];

#[test]
fn trace_run_export_is_valid_chrome_trace() {
    stm_telemetry::set_enabled(true);
    let b = stm_suite::by_id("sort").expect("sort benchmark");
    {
        let _run = stm_telemetry::span_cat("trace_run", "harness");
        let d = stm_suite::eval::run_lbra(&b);
        assert!(d.stats.failure_runs_used > 0, "no failing runs collected");
    }
    let spans = stm_telemetry::take_spans();
    stm_telemetry::set_enabled(false);

    let text = stm_telemetry::export::chrome_trace(&spans);
    let doc = Json::parse(&text).expect("trace parses as JSON");

    // Top-level Chrome trace shape.
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );

    // Every event is a well-formed complete ("X") or instant ("i")
    // event, or a flow event ("s"/"t"/"f") — and only events named
    // `flow` may carry a flow phase.
    let mut names = std::collections::BTreeSet::new();
    // tid -> [start, end] of its complete events.
    let mut slices: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    // flow id -> (phase, tid, ts) of its events.
    let mut flows: BTreeMap<u64, Vec<(&str, u64, f64)>> = BTreeMap::new();
    for ev in events {
        let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
        names.insert(name.to_string());
        assert!(ev.get("cat").and_then(|v| v.as_str()).is_some());
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(ev.get("pid").and_then(|v| v.as_f64()).is_some());
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid") as u64;
        match ev.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
                assert!(dur >= 0.0);
                slices.entry(tid).or_default().push((ts, ts + dur));
            }
            Some("i") => {
                assert_eq!(ev.get("s").and_then(|v| v.as_str()), Some("t"));
            }
            Some(ph @ ("s" | "t" | "f")) if name == "flow" => {
                let id = ev.get("id").and_then(|v| v.as_f64()).expect("flow id") as u64;
                flows.entry(id).or_default().push((ph, tid, ts));
            }
            other => panic!("unexpected ph {other:?} on {name}"),
        }
    }

    // A pooled session stamps one flow per dispatched job: it opens with
    // exactly one `s` at enqueue, steps through execution, and closes
    // with exactly one `f` at consumption or discard. Each flow event
    // lies inside a complete event on its own thread, so Perfetto binds
    // the arrow to that slice.
    if stm_suite::eval::default_threads() > 1 {
        assert!(!flows.is_empty(), "a pooled session must stamp flows");
    }
    for (id, marks) in &flows {
        let count = |phase: &str| marks.iter().filter(|(p, ..)| *p == phase).count();
        assert_eq!(count("s"), 1, "flow {id} must open once: {marks:?}");
        assert_eq!(count("f"), 1, "flow {id} must close once: {marks:?}");
        let ts_of = |phase: &str| marks.iter().find(|(p, ..)| *p == phase).unwrap().2;
        for (_, _, ts) in marks {
            assert!(
                ts_of("s") <= *ts && *ts <= ts_of("f"),
                "flow {id} steps outside its open/close: {marks:?}"
            );
        }
        for (phase, tid, ts) in marks {
            let inside = slices
                .get(tid)
                .is_some_and(|v| v.iter().any(|(a, b)| a <= ts && ts <= b));
            assert!(
                inside,
                "flow {id} {phase} at {ts} outside any slice on tid {tid}"
            );
        }
    }

    for want in EXPECTED_SPANS {
        assert!(names.contains(*want), "missing span {want:?} in {names:?}");
    }

    // Phase nesting: every run job executes inside the engine's
    // collection window (workers are scoped threads the driver joins),
    // and extraction/ranking happen only after collection has begun.
    let range = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.start_us, s.start_us + s.dur_us.unwrap_or(0)))
            .expect(name)
    };
    let (c0, c1) = range("engine.collect");
    for s in spans.iter().filter(|s| s.name == "engine.job") {
        let (j0, j1) = (s.start_us, s.start_us + s.dur_us.unwrap_or(0));
        assert!(c0 <= j0 && j1 <= c1, "job outside collection window");
    }
    let (e0, _) = range("lbra.profile_extraction");
    let (r0, _) = range("lbra.ranking");
    assert!(c0 <= e0, "extraction before collection");
    assert!(e0 <= r0, "ranking before extraction");
}
