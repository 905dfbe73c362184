//! Per-request latency accounting.
//!
//! Every accepted request produces one [`RequestRecord`]: the wall time
//! it spent queued (enqueue→dispatch) and in service
//! (dispatch→complete), plus the simulated-machine counters it accrued.
//! The record stream is the ground truth — percentiles are computed
//! exactly from the sorted records, and the log2-bucketed [`Histogram`]
//! is the compact surface exported into the metrics JSON.

use komodo_fleet::Class;
use komodo_trace::MetricsSnapshot;

/// One completed (or typed-failed) request's accounting.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// Fleet job index of the request (its id).
    pub req: u64,
    /// Request kind code ([`crate::Request::kind_code`]).
    pub kind: u8,
    /// Priority class it dispatched in.
    pub class: Class,
    /// Whether it produced a [`crate::Response`] (vs a typed error).
    pub ok: bool,
    /// Wall nanoseconds from submit to dispatch (queue wait).
    pub queued_ns: u64,
    /// Wall nanoseconds from dispatch to completion (service time).
    pub service_ns: u64,
    /// Simulated-machine counters this request accrued — exactly what
    /// its job folded into the fleet metrics, so summing records equals
    /// the fleet total.
    pub sim: MetricsSnapshot,
}

impl RequestRecord {
    /// End-to-end latency: queue wait plus service time.
    pub fn total_ns(&self) -> u64 {
        self.queued_ns + self.service_ns
    }
}

/// Exact nearest-rank percentile over end-to-end latencies. Returns 0
/// for an empty record set.
pub fn percentile_ns(records: &[RequestRecord], p: f64) -> u64 {
    nearest_rank(records.iter().map(RequestRecord::total_ns).collect(), p)
}

/// Exact nearest-rank percentile of a latency sample, in its unit.
/// Returns 0 for an empty sample.
pub fn nearest_rank(mut sample: Vec<u64>, p: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = ((p / 100.0) * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

/// Power-of-two latency histogram: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 additionally holds 0 ns).
/// Fixed 64 buckets cover the full u64 range; recording is a single
/// increment, and the JSON export drops empty tail buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64] }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&mut self, ns: u64) {
        let b = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[b] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The bucket counts, trimmed after the last non-empty bucket.
    pub fn trimmed(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        &self.buckets[..last]
    }

    /// Builds the histogram from a record stream.
    pub fn from_records(records: &[RequestRecord]) -> Histogram {
        let mut h = Histogram::default();
        for r in records {
            h.record(r.total_ns());
        }
        h
    }

    /// Renders the trimmed bucket array as a JSON list.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.trimmed().iter().map(u64::to_string).collect();
        format!("[{}]", cells.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(queued_ns: u64, service_ns: u64) -> RequestRecord {
        RequestRecord {
            req: 0,
            kind: 0,
            class: Class::Batch,
            ok: true,
            queued_ns,
            service_ns,
            sim: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let records: Vec<RequestRecord> = (1..=100).map(|i| rec(0, i * 1000)).collect();
        assert_eq!(percentile_ns(&records, 50.0), 50_000);
        assert_eq!(percentile_ns(&records, 99.0), 99_000);
        assert_eq!(percentile_ns(&records, 100.0), 100_000);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        // A single record is every percentile.
        assert_eq!(percentile_ns(&[rec(3, 4)], 1.0), 7);
        assert_eq!(percentile_ns(&[rec(3, 4)], 99.0), 7);
    }

    #[test]
    fn nearest_rank_sorts_a_raw_sample() {
        let sample = vec![100, 90, 80, 70, 60, 50, 40, 30, 20, 10];
        assert_eq!(nearest_rank(sample.clone(), 50.0), 50);
        assert_eq!(nearest_rank(sample.clone(), 99.0), 100);
        assert_eq!(nearest_rank(sample, 100.0), 100);
        assert_eq!(nearest_rank(Vec::new(), 50.0), 0);
        assert_eq!(nearest_rank(vec![7], 99.0), 7);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.count(), 5);
        let t = h.trimmed();
        assert_eq!(t.len(), 11);
        assert_eq!(t[0], 2);
        assert_eq!(t[1], 2);
        assert_eq!(t[10], 1);
        assert_eq!(h.to_json(), "[2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1]");
        assert_eq!(Histogram::default().to_json(), "[]");
    }

    #[test]
    fn histogram_from_records_counts_everything() {
        let records = [rec(10, 20), rec(0, 0), rec(1 << 40, 0)];
        let h = Histogram::from_records(&records);
        assert_eq!(h.count(), 3);
    }
}
