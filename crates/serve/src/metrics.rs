//! Served-traffic counters and latency histograms for `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets. Bucket `i` has upper bound `2^i` µs,
/// so the range runs 1 µs .. `2^27` µs (~134 s) — wider than any
/// plausible request — with an overflow bucket above.
pub const LATENCY_BUCKETS: usize = 28;

/// A cumulative log2-bucketed latency histogram (lock-free).
///
/// This replaced a bounded sliding *window* of recent samples: a window
/// forgets, so a p999 read rested on whatever few tail samples happened
/// to still be in it. A cumulative histogram aggregates every request
/// since process start in fixed memory — `LATENCY_BUCKETS` relaxed
/// atomic counters — and one more request is one `fetch_add`, cheaper
/// than the mutex push it replaced. The price is resolution: a
/// percentile estimate is the *upper bound* of the bucket holding that
/// rank (a conservative over-estimate, never an under-estimate), which
/// at log2 grain means within 2× of the true value.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// Upper bound of bucket `i`, in milliseconds (`2^i` µs).
pub fn bucket_upper_ms(i: usize) -> f64 {
    (1u64 << i) as f64 / 1e3
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample, in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let mut i = 0;
        while i < LATENCY_BUCKETS && ns > (1_000u64 << i) {
            i += 1;
        }
        if i < LATENCY_BUCKETS {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one sample, in (fractional) milliseconds.
    pub fn record_ms(&self, ms: f64) {
        self.record_ns((ms.max(0.0) * 1e6) as u64);
    }

    /// A consistent-enough snapshot (relaxed reads; each bucket is
    /// individually exact, the set may straddle in-flight records).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(LATENCY_BUCKETS);
        let mut running = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            running += b.load(Ordering::Relaxed);
            cumulative.push((bucket_upper_ms(i), running));
        }
        HistogramSnapshot {
            buckets: cumulative,
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum_ms: self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], in Prometheus
/// shape: per-bucket counts are **cumulative** (`≤ upper bound`).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(upper_bound_ms, cumulative_count)` per bucket, ascending.
    pub buckets: Vec<(f64, u64)>,
    /// Samples above the last bucket's bound.
    pub overflow: u64,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, in milliseconds.
    pub sum_ms: f64,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile estimate: the upper bound of the bucket
    /// holding rank `⌈p/100 · count⌉` (0 when empty; the last bound
    /// when the rank falls in the overflow bucket).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64 - 1e-9).ceil().max(1.0) as u64;
        for &(upper_ms, cum) in &self.buckets {
            if cum >= rank {
                return upper_ms;
            }
        }
        bucket_upper_ms(LATENCY_BUCKETS - 1)
    }

    /// `(p50, p90, p99, p999)` estimates (bucket upper bounds).
    pub fn percentiles_ms(&self) -> (f64, f64, f64, f64) {
        (
            self.percentile_ms(50.0),
            self.percentile_ms(90.0),
            self.percentile_ms(99.0),
            self.percentile_ms(99.9),
        )
    }

    /// Drops leading/trailing all-zero buckets for rendering: the
    /// `(upper_ms, cumulative)` pairs from the first non-empty bucket
    /// through the last one (empty when no samples landed in bounds).
    pub fn occupied(&self) -> &[(f64, u64)] {
        let total_in_bounds = self.count - self.overflow;
        if total_in_bounds == 0 {
            return &[];
        }
        let first = self.buckets.iter().position(|&(_, c)| c > 0).unwrap_or(0);
        let last = self
            .buckets
            .iter()
            .rposition(|&(_, c)| c < total_in_bounds)
            .map_or(first, |i| (i + 1).min(self.buckets.len() - 1));
        &self.buckets[first..=last.max(first)]
    }
}

/// Monotone counters (lock-free) plus the cumulative latency histogram.
///
/// Counters are updated with relaxed atomics — they are statistics, not
/// synchronization — and every reader sees some consistent-enough
/// snapshot.
///
/// Under keep-alive, one connection carries many requests, so latency
/// is recorded **per request** — from the moment a complete request has
/// been parsed off the wire to the moment its response bytes have been
/// handed to the socket — never per connection (a per-connection timer
/// would smear every pipelined request's tail into one sample and hide
/// exactly the effects p999 exists to expose).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests fully served (any endpoint, any status).
    pub requests: AtomicU64,
    /// `POST /run` requests served.
    pub run_requests: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// `POST /run` responses answered from the in-memory report cache.
    pub cache_hits: AtomicU64,
    /// `POST /run` responses answered from the persistent store (a
    /// memory miss that skipped the run).
    pub store_hits: AtomicU64,
    /// `POST /run` responses that executed the algorithm.
    pub cache_misses: AtomicU64,
    /// Failed persistent-store writes (the daemon keeps serving; the
    /// entry is just not durable).
    pub store_errors: AtomicU64,
    /// Requests currently dispatched to the worker pool.
    pub in_flight: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests served on an already-used connection (request ≥ 2 on
    /// its connection) — the keep-alive reuse counter: `reuses /
    /// requests` close to 1 means the handshake tax is almost gone.
    pub keepalive_reuses: AtomicU64,
    /// Total response bytes (heads + bodies) handed to sockets.
    pub bytes_served: AtomicU64,
    /// Sessions created via `POST /session`.
    pub sessions: AtomicU64,
    /// Deltas applied via `POST /update` (each bumps its session's
    /// generation, invalidating the session's cache entries by
    /// construction).
    pub updates: AtomicU64,
    /// Per-request service-time histogram.
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one finished request's service time (parse-complete to
    /// response-written).
    pub fn record_latency_ms(&self, ms: f64) {
        self.latency.record_ms(ms);
    }

    /// Relaxed read of a counter.
    pub fn read(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Relaxed increment of a counter.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed add to a counter.
    pub fn add(&self, counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let m = Metrics::new();
        m.bump(&m.requests);
        m.bump(&m.requests);
        m.bump(&m.cache_hits);
        m.add(&m.bytes_served, 1000);
        m.add(&m.bytes_served, 24);
        assert_eq!(m.read(&m.requests), 2);
        assert_eq!(m.read(&m.cache_hits), 1);
        assert_eq!(m.read(&m.cache_misses), 0);
        assert_eq!(m.read(&m.store_hits), 0);
        assert_eq!(m.read(&m.bytes_served), 1024);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::new();
        h.record_ns(1); // → bucket 0 (≤ 1 µs)
        h.record_ns(1_000); // 1 µs, boundary inclusive → bucket 0
        h.record_ns(1_001); // → bucket 1 (≤ 2 µs)
        h.record_ms(1.0); // 1 ms → bucket 10 (2^10 µs = 1.024 ms)
        h.record_ms(1_000.0); // 1 s → bucket 20 (2^20 µs ≈ 1.05 s)
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.overflow, 0);
        assert_eq!(s.buckets[0], (bucket_upper_ms(0), 2));
        assert_eq!(s.buckets[1].1, 3, "cumulative");
        assert_eq!(s.buckets[10].1, 4);
        assert_eq!(s.buckets[20].1, 5);
        assert!((s.sum_ms - 1001.002002).abs() < 1e-6);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        // 990 fast samples (~0.5 ms) and 10 disasters (~500 ms): the
        // shape the sliding window could forget, held forever here.
        for _ in 0..990 {
            h.record_ms(0.5);
        }
        for _ in 0..10 {
            h.record_ms(500.0);
        }
        let s = h.snapshot();
        let (p50, _, p99, p999) = s.percentiles_ms();
        // 0.5 ms lands in the ≤ 512 µs bucket (upper bound 0.512 ms).
        assert_eq!(p50, bucket_upper_ms(9));
        assert_eq!(p99, bucket_upper_ms(9));
        // 500 ms lands in the ≤ 2^19 µs ≈ 524 ms bucket.
        assert_eq!(p999, bucket_upper_ms(19));
        // Conservative: the estimate never undershoots the true value.
        assert!(p999 >= 500.0);
    }

    #[test]
    fn histogram_overflow_and_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().percentile_ms(99.0), 0.0);
        assert!(h.snapshot().occupied().is_empty());
        h.record_ms(1e9); // far beyond the last bucket
        let s = h.snapshot();
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 1);
        assert_eq!(
            s.percentile_ms(50.0),
            bucket_upper_ms(LATENCY_BUCKETS - 1),
            "overflow ranks clamp to the last bound"
        );
    }

    #[test]
    fn occupied_trims_empty_tails() {
        let h = LatencyHistogram::new();
        h.record_ms(0.5);
        h.record_ms(0.5);
        h.record_ms(4.0);
        let s = h.snapshot();
        let occ = s.occupied();
        assert_eq!(occ.first().unwrap().1, 2, "starts at the first hit");
        assert_eq!(occ.last().unwrap().1, 3, "ends once all samples seen");
        assert!(occ.len() < LATENCY_BUCKETS);
    }
}
