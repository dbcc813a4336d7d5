//! Serving-side counters and latency aggregation.

use crate::json::{u64_member, FromJson, JsonError, JsonValue, ToJson};

/// Monotonic counters of a [`GemmServer`](crate::serve::GemmServer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests accepted by [`submit`](crate::serve::GemmServer::submit).
    pub submitted: u64,
    /// Requests answered (success or simulation error).
    pub completed: u64,
    /// Runner calls made: one per answered request, so it always equals
    /// `completed`.
    pub batches: u64,
}

impl ToJson for ServeStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "submitted".into(),
                JsonValue::number_from_u64(self.submitted),
            ),
            (
                "completed".into(),
                JsonValue::number_from_u64(self.completed),
            ),
            ("batches".into(), JsonValue::number_from_u64(self.batches)),
        ])
    }
}

impl FromJson for ServeStats {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(ServeStats {
            submitted: u64_member(value, "submitted")?,
            completed: u64_member(value, "completed")?,
            batches: u64_member(value, "batches")?,
        })
    }
}

/// Order statistics over a set of latency samples, in seconds.
///
/// Percentiles use the nearest-rank method on the sorted samples, so every
/// reported value is an actually-observed latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples aggregated.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_seconds: f64,
    /// Median (50th percentile).
    pub p50_seconds: f64,
    /// 90th percentile.
    pub p90_seconds: f64,
    /// 99th percentile.
    pub p99_seconds: f64,
    /// 99.9th percentile.
    pub p999_seconds: f64,
    /// Largest sample.
    pub max_seconds: f64,
}

impl LatencySummary {
    /// Aggregates `samples`; returns `None` when no finite sample exists.
    ///
    /// Non-finite samples (NaN/∞, which wall-clock measurement can only
    /// produce through caller bugs) are ignored rather than poisoning the
    /// sort or the mean, so every reported statistic is a well-defined,
    /// actually-observed latency: a single-sample set reports that sample
    /// for every percentile, and the empty set reports `None` instead of
    /// NaN.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Some(LatencySummary {
            count: sorted.len(),
            mean_seconds: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_seconds: nearest_rank(&sorted, 50.0),
            p90_seconds: nearest_rank(&sorted, 90.0),
            p99_seconds: nearest_rank(&sorted, 99.0),
            p999_seconds: nearest_rank(&sorted, 99.9),
            max_seconds: *sorted.last().expect("non-empty"),
        })
    }
}

/// The nearest-rank percentile of an ascending, non-empty sample set: the
/// smallest sample at or above rank ⌈p/100 · n⌉, clamped into `[1, n]` so
/// `p = 0` returns the minimum and any `p ≥ 100` returns the maximum.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "nearest_rank needs samples");
    // The epsilon guards the ceil against representation error: p/100 · n
    // that is mathematically integral (e.g. 99.9% of 1000) must not round
    // a hair above the integer and claim the next rank.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("count".into(), JsonValue::number_from_usize(self.count)),
            (
                "mean_seconds".into(),
                JsonValue::number_from_f64(self.mean_seconds),
            ),
            (
                "p50_seconds".into(),
                JsonValue::number_from_f64(self.p50_seconds),
            ),
            (
                "p90_seconds".into(),
                JsonValue::number_from_f64(self.p90_seconds),
            ),
            (
                "p99_seconds".into(),
                JsonValue::number_from_f64(self.p99_seconds),
            ),
            (
                "p999_seconds".into(),
                JsonValue::number_from_f64(self.p999_seconds),
            ),
            (
                "max_seconds".into(),
                JsonValue::number_from_f64(self.max_seconds),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_summary() {
        assert!(LatencySummary::from_samples(&[]).is_none());
        // A set with only non-finite samples is empty after filtering.
        assert!(LatencySummary::from_samples(&[f64::NAN, f64::INFINITY]).is_none());
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let s = LatencySummary::from_samples(&[0.2, f64::NAN, 0.4, f64::NEG_INFINITY]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_seconds, 0.2);
        assert_eq!(s.p99_seconds, 0.4);
        assert_eq!(s.max_seconds, 0.4);
        assert!((s.mean_seconds - 0.3).abs() < 1e-12);
        assert!(s.mean_seconds.is_finite());
    }

    #[test]
    fn nearest_rank_clamps_extreme_percentiles() {
        let sorted = [0.1, 0.2, 0.3];
        assert_eq!(nearest_rank(&sorted, 0.0), 0.1, "p0 is the minimum");
        assert_eq!(nearest_rank(&sorted, 100.0), 0.3);
        assert_eq!(nearest_rank(&sorted, 150.0), 0.3, "out-of-range clamps");
        assert_eq!(nearest_rank(&[0.7], 50.0), 0.7);
        assert_eq!(nearest_rank(&[0.7], 99.0), 0.7);
        // p99.9 clamps exactly like every other extreme percentile: below
        // 1000 samples it reports the maximum, never reads out of bounds.
        assert_eq!(nearest_rank(&sorted, 99.9), 0.3);
        assert_eq!(nearest_rank(&[0.7], 99.9), 0.7);
    }

    #[test]
    fn p999_distinguishes_the_extreme_tail() {
        // 1..=1000 milliseconds: p99 = 990ms, p99.9 = 999ms, max = 1000ms.
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert!((s.p99_seconds - 0.990).abs() < 1e-12);
        assert!((s.p999_seconds - 0.999).abs() < 1e-12);
        assert!((s.max_seconds - 1.000).abs() < 1e-12);
        assert!(s.p99_seconds < s.p999_seconds && s.p999_seconds < s.max_seconds);
    }

    #[test]
    fn nearest_rank_percentiles() {
        // 1..=100 milliseconds: p50 = 50ms, p99 = 99ms, max = 100ms.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50_seconds - 0.050).abs() < 1e-12);
        assert!((s.p90_seconds - 0.090).abs() < 1e-12);
        assert!((s.p99_seconds - 0.099).abs() < 1e-12);
        assert!((s.max_seconds - 0.100).abs() < 1e-12);
        assert!((s.mean_seconds - 0.0505).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary() {
        let s = LatencySummary::from_samples(&[0.25]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_seconds, 0.25);
        assert_eq!(s.p99_seconds, 0.25);
        assert_eq!(s.max_seconds, 0.25);
        // Unsorted input is handled.
        let s = LatencySummary::from_samples(&[0.3, 0.1, 0.2]).unwrap();
        assert_eq!(s.p50_seconds, 0.2);
        assert_eq!(s.max_seconds, 0.3);
    }

    #[test]
    fn serve_stats_json_round_trips() {
        let stats = ServeStats {
            submitted: 10,
            completed: 9,
            batches: 9,
        };
        let json = stats.to_json().to_string_compact();
        assert_eq!(json, r#"{"submitted":10,"completed":9,"batches":9}"#);
        let back = ServeStats::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, stats);
        let lat = LatencySummary::from_samples(&[0.1]).unwrap();
        assert!(lat.to_json().to_string_compact().contains("\"count\":1"));
    }
}
