//! Pure measurement helpers: percentile selection, verdict lag,
//! span self time, open-loop lateness and the probe's rescaling. No
//! clocks, no I/O — every function here is a function of its arguments,
//! so the unit tests below pin the arithmetic the reported numbers rest
//! on.

/// A percentile picked from a sample, with the sample size it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The percentile, in percent (`99.0` = p99).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the pick was made from.
    pub n: usize,
}

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
fn nearest_rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), pct) - 1])
}

/// The median of an unsorted sample (mean of the middle pair for an
/// even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile of `ladder` (tried in the given order, highest
/// first) that still has at least `beyond` samples strictly above its
/// rank — the "ten samples beyond" rule for reporting a tail. `None`
/// when no rung qualifies (the sample is too small for any tail).
pub fn tail(sorted: &[f64], ladder: &[f64], beyond: usize) -> Option<Pick> {
    let n = sorted.len();
    ladder.iter().find_map(|&pct| {
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(n, pct);
        (n - rank >= beyond).then(|| Pick {
            pct,
            value: sorted[rank - 1],
            n,
        })
    })
}

/// Verdict lag of one shard's ingest stream.
///
/// `dues[k]` is when the shard's (k+1)-th snapshot was due to be sent;
/// `polls` are `(completed_at, witnesses)` pairs of the reader's
/// `/diagnosis` reads, in completion order. Snapshot k+1 is visible to
/// the reader in the first poll whose witness count (running maximum, so
/// a reordered read cannot hide progress) reaches k+1; its lag is that
/// poll's completion time minus the due time. Returns the lags of the
/// snapshots that became visible and the count that never did.
pub fn verdict_lags(dues: &[f64], polls: &[(f64, u64)]) -> (Vec<f64>, usize) {
    let mut lags = Vec::with_capacity(dues.len());
    let mut p = 0usize;
    let mut seen = 0u64;
    let mut seen_at = f64::NEG_INFINITY;
    for (k, &due) in dues.iter().enumerate() {
        let need = k as u64 + 1;
        while seen < need && p < polls.len() {
            if polls[p].1 > seen {
                seen = polls[p].1;
            }
            seen_at = polls[p].0;
            p += 1;
        }
        if seen < need {
            return (lags, dues.len() - k);
        }
        lags.push((seen_at - due).max(0.0));
    }
    (lags, 0)
}

/// Self time of a span: its duration minus the part of `[start, end)`
/// covered by its children's intervals (overlapping children — e.g. on
/// other threads — count once; parts outside the span are clipped).
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start - covered).max(0.0)
}

/// Work completed per second in each of `n` equal windows of
/// `[0, span)`. `done` holds `(start, end, work units)` per operation;
/// an operation's work is spread evenly over its interval, so an
/// operation straddling a window boundary counts in both windows in
/// proportion. Work past `span` is dropped.
pub fn window_rates(done: &[(f64, f64, f64)], span: f64, n: usize) -> Vec<f64> {
    let width = span / n as f64;
    let mut work = vec![0.0; n];
    for &(start, end, w) in done {
        let len = (end - start).max(f64::MIN_POSITIVE);
        for (i, slot) in work.iter_mut().enumerate() {
            let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
            let overlap = end.min(hi) - start.max(lo);
            if overlap > 0.0 {
                *slot += w * overlap / len;
            }
        }
    }
    work.into_iter().map(|w| w / width).collect()
}

/// Splits `(completion time, value)` samples into `n` equal windows of
/// `[0, span)` by completion time (late completions join the last).
pub fn split_windows(samples: &[(f64, f64)], span: f64, n: usize) -> Vec<Vec<f64>> {
    let width = span / n as f64;
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        out[((t / width).floor().max(0.0) as usize).min(n - 1)].push(v);
    }
    out
}

/// Reference seconds per CPU second for work that ended at probe mark
/// `mark` (the number of probe samples taken before it ended):
/// `reference` divided by the median of the probe samples
/// `[mark - half, mark + half)` — the `half` taken before the mark and
/// the `half` after it, clipped to the samples there are. NaN when there
/// are no samples.
pub fn probe_scale(samples: &[f64], mark: usize, half: usize, reference: f64) -> f64 {
    let hi = (mark + half).min(samples.len());
    let lo = mark.saturating_sub(half).min(hi.saturating_sub(1));
    median(&samples[lo..hi]).map_or(f64::NAN, |m| reference / m)
}

/// Lays operations of the given durations end to end from 0, as
/// `(start, end, work)` records.
pub fn end_to_end(durations: &[f64], work: &[f64]) -> Vec<(f64, f64, f64)> {
    let mut at = 0.0;
    durations
        .iter()
        .zip(work)
        .map(|(&d, &w)| {
            let start = at;
            at += d;
            (start, at, w)
        })
        .collect()
}

/// When the `i`-th request of an open loop at `rate` per second,
/// starting at `start`, is due.
pub fn due_time(start: f64, i: usize, rate: f64) -> f64 {
    start + i as f64 / rate
}

/// How late each send of an open loop ran: send time minus due time,
/// clamped at zero (a send is never early — the generator waits).
pub fn lateness(start: f64, rate: f64, sends: &[f64]) -> Vec<f64> {
    sends
        .iter()
        .enumerate()
        .map(|(i, &t)| (t - due_time(start, i, rate)).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ladder = [99.0, 95.0, 90.0, 50.0];
        // 1000 samples: p99 is rank 990, exactly ten beyond it.
        let p = tail(&ramp(1000), &ladder, 10).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99.0, 990.0, 1000));
        // 999 samples: p99 is rank 990 with nine beyond — fall to p95.
        let p = tail(&ramp(999), &ladder, 10).unwrap();
        assert_eq!((p.pct, p.value, p.n), (95.0, 950.0, 999));
        // 100 samples: p95 has five beyond, p90 has ten.
        let p = tail(&ramp(100), &ladder, 10).unwrap();
        assert_eq!((p.pct, p.value, p.n), (90.0, 90.0, 100));
        // Too few for any rung.
        assert_eq!(tail(&ramp(15), &ladder, 10), None);
        assert_eq!(tail(&[], &ladder, 10), None);
    }

    #[test]
    fn verdict_lag_uses_first_poll_that_shows_the_snapshot() {
        // Snapshots due at 0, 1, 2, 3; the reader saw 0, 2, 2, 4 witnesses.
        let dues = [0.0, 1.0, 2.0, 3.0];
        let polls = [(0.5, 0), (1.5, 2), (2.5, 2), (3.5, 4)];
        let (lags, unseen) = verdict_lags(&dues, &polls);
        assert_eq!(lags, vec![1.5, 0.5, 1.5, 0.5]);
        assert_eq!(unseen, 0);
    }

    #[test]
    fn verdict_lag_counts_snapshots_never_seen_and_ignores_regressions() {
        let dues = [0.0, 1.0, 2.0];
        // A late-completing read reports an older count; progress holds.
        let polls = [(1.2, 2), (1.4, 1)];
        let (lags, unseen) = verdict_lags(&dues, &polls);
        assert_eq!(lags.len(), 2);
        assert!((lags[0] - 1.2).abs() < 1e-12 && (lags[1] - 0.2).abs() < 1e-12);
        assert_eq!(unseen, 1);
        assert_eq!(verdict_lags(&dues, &[]), (vec![], 3));
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Children spilling past the span are clipped to it.
        assert_eq!(self_time(2.0, 6.0, &[(0.0, 3.0), (5.0, 9.0)]), 2.0);
        // Fully covered.
        assert_eq!(self_time(0.0, 4.0, &[(0.0, 4.0)]), 0.0);
    }

    #[test]
    fn window_rates_spread_work_over_each_operation() {
        // Two windows of 0.5 s: one op inside the first, one straddling
        // the boundary 1:3, one running past the span (half dropped).
        let done = [(0.0, 0.5, 2.0), (0.4, 0.8, 4.0), (0.9, 1.1, 2.0)];
        let rates = window_rates(&done, 1.0, 2);
        assert!((rates[0] - (2.0 + 1.0) / 0.5).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - (3.0 + 1.0) / 0.5).abs() < 1e-9, "{rates:?}");
        assert_eq!(window_rates(&[], 2.0, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn split_windows_groups_samples_by_completion_time() {
        let s = [(0.1, 1.0), (0.6, 2.0), (0.7, 3.0), (5.0, 4.0)];
        assert_eq!(
            split_windows(&s, 1.0, 2),
            vec![vec![1.0], vec![2.0, 3.0, 4.0]]
        );
    }

    #[test]
    fn probe_scale_uses_the_samples_around_the_mark() {
        let s = [2.0, 2.0, 4.0, 4.0, 4.0, 1.0];
        // Mark 2, half 1: samples 1 and 2 (2.0 and 4.0), median 3.0.
        assert_eq!(probe_scale(&s, 2, 1, 6.0), 2.0);
        // Mark 3, half 2: samples 1..5 (2, 4, 4, 4), median 4.0.
        assert_eq!(probe_scale(&s, 3, 2, 6.0), 1.5);
        // Clipped at both ends.
        assert_eq!(probe_scale(&s, 0, 1, 6.0), 3.0);
        assert_eq!(probe_scale(&s, 6, 1, 6.0), 6.0);
        assert_eq!(probe_scale(&s, 9, 1, 6.0), 6.0);
        assert!(probe_scale(&[], 0, 3, 1.0).is_nan());
    }

    #[test]
    fn end_to_end_lays_operations_back_to_back() {
        let d = end_to_end(&[0.5, 0.25, 1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(
            d,
            vec![(0.0, 0.5, 1.0), (0.5, 0.75, 2.0), (0.75, 1.75, 3.0)]
        );
        assert!(end_to_end(&[], &[]).is_empty());
    }

    #[test]
    fn lateness_is_measured_from_due_time() {
        // 10/s from t=100: due at 100.0, 100.1, 100.2, 100.3.
        let late = lateness(100.0, 10.0, &[100.0, 100.15, 100.2, 100.25]);
        let want = [0.0, 0.05, 0.0, 0.0];
        for (a, b) in late.iter().zip(want) {
            assert!((a - b).abs() < 1e-9, "{late:?}");
        }
        assert!((due_time(100.0, 3, 10.0) - 100.3).abs() < 1e-9);
    }
}
