//! The `http_max_rps` search: the highest offered request rate that a
//! trial at that rate passes (p99 within the limit, no growing backlog).

/// Geometric bisection over `[lo, hi]` requests per second with `trials`
/// probes. `trial(rate)` runs the open loop at `rate` and reports whether
/// it held. Returns the highest rate that passed, or `None` when no probe
/// passed. Pass/fail is assumed monotone in the rate, so each probe halves
/// the log-interval that holds the threshold.
pub fn max_passing_rate(
    lo: f64,
    hi: f64,
    trials: usize,
    mut trial: impl FnMut(f64) -> bool,
) -> Option<f64> {
    assert!(lo > 0.0 && hi > lo, "rate bounds must satisfy 0 < lo < hi");
    let mut best = None;
    let (mut lo, mut hi) = (lo, hi);
    for i in 0..trials {
        // The first probe checks the floor itself, so a system that holds
        // no rate at all reports None rather than the floor.
        let rate = if i == 0 { lo } else { (lo * hi).sqrt() };
        if trial(rate) {
            best = Some(rate);
            lo = rate;
        } else if i == 0 {
            return None;
        } else {
            hi = rate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_a_threshold_from_below() {
        for threshold in [700.0, 3_000.0, 12_345.0, 60_000.0] {
            let got = max_passing_rate(500.0, 64_000.0, 14, |r| r <= threshold).unwrap();
            assert!(got <= threshold, "{got} passed above {threshold}");
            assert!(got > threshold * 0.99, "{got} too far below {threshold}");
        }
    }

    #[test]
    fn never_reports_a_failed_rate() {
        let mut tried = Vec::new();
        let got = max_passing_rate(500.0, 64_000.0, 10, |r| {
            tried.push(r);
            r <= 9_000.0
        })
        .unwrap();
        assert!(tried.contains(&got));
        assert!(tried.iter().filter(|&&r| r <= 9_000.0).all(|&r| r <= got));
    }

    #[test]
    fn floor_failure_is_none_and_ceiling_is_never_exceeded() {
        assert_eq!(max_passing_rate(500.0, 64_000.0, 10, |_| false), None);
        let got = max_passing_rate(500.0, 64_000.0, 10, |_| true).unwrap();
        assert!(got < 64_000.0 && got > 60_000.0);
    }

    #[test]
    fn trial_count_is_respected() {
        let mut n = 0;
        max_passing_rate(500.0, 64_000.0, 7, |r| {
            n += 1;
            r < 2_000.0
        });
        assert_eq!(n, 7);
    }
}
