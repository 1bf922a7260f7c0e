//! Open-loop arrival schedules and the accounting built on them.
//!
//! An open loop sends request `i` at its due time whatever the server is
//! doing, so a stall makes later requests wait too. Latency is therefore
//! measured from the due time, not from when the generator got round to
//! sending, and the generator's own lateness is reported separately.

use std::time::Duration;

/// When each request of an open loop is due, relative to the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Evenly spaced requests at `rate` per second.
    Steady {
        /// Requests per second.
        rate: f64,
    },
    /// Bursts of `size` requests at `rate` per second, each followed by an
    /// idle `gap`.
    Burst {
        /// Requests per burst.
        size: usize,
        /// Requests per second within a burst.
        rate: f64,
        /// Idle time after the last request of a burst.
        gap: Duration,
    },
}

impl Arrivals {
    /// Due time of request `i`.
    #[must_use]
    pub fn due(&self, i: usize) -> Duration {
        match *self {
            Arrivals::Steady { rate } => nanos(i as f64 * 1e9 / rate),
            Arrivals::Burst { size, rate, gap } => {
                let (b, k) = (i / size, i % size);
                let period = size as f64 * 1e9 / rate + gap.as_nanos() as f64;
                nanos(b as f64 * period + k as f64 * 1e9 / rate)
            }
        }
    }

    /// Burst that request `i` belongs to (a steady loop is one burst).
    #[must_use]
    pub fn burst_of(&self, i: usize) -> usize {
        match *self {
            Arrivals::Steady { .. } => 0,
            Arrivals::Burst { size, .. } => i / size,
        }
    }

    /// Number of requests due strictly before `horizon`.
    #[must_use]
    pub fn count_before(&self, horizon: Duration) -> usize {
        let mut n = 0;
        while self.due(n) < horizon {
            n += 1;
        }
        n
    }
}

/// A non-negative nanosecond count, rounded to the nearest nanosecond.
fn nanos(ns: f64) -> Duration {
    Duration::from_nanos(ns.round() as u64)
}

/// How late the generator sent a request: send time minus due time, or
/// zero when it was on time.
#[must_use]
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Latency of a request as its user sees it: from when it was due to when
/// its response was ready.
#[must_use]
pub fn latency_from_due(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// Requests completed and drain time of each burst, measured from the
/// burst's first due time to its last completion.
///
/// `requests` holds `(burst, due, done)` for every completed request, in
/// any order. Bursts are returned in ascending order as `(completed,
/// seconds)`.
#[must_use]
pub fn burst_drains(requests: &[(usize, Duration, Duration)]) -> Vec<(usize, f64)> {
    let mut spans: std::collections::BTreeMap<usize, (Duration, Duration, usize)> =
        std::collections::BTreeMap::new();
    for &(burst, due, done) in requests {
        let e = spans.entry(burst).or_insert((due, done, 0));
        e.0 = e.0.min(due);
        e.1 = e.1.max(done);
        e.2 += 1;
    }
    spans
        .values()
        .map(|&(first_due, last_done, n)| (n, last_done.saturating_sub(first_due).as_secs_f64()))
        .collect()
}

/// Requests completed per second of drain time, pooled over bursts: the
/// total completed divided by the total drain time, or 0 with no time.
#[must_use]
pub fn drain_rate(drains: &[(usize, f64)]) -> f64 {
    let n: usize = drains.iter().map(|d| d.0).sum();
    let secs: f64 = drains.iter().map(|d| d.1).sum();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn steady_schedule_is_evenly_spaced() {
        let a = Arrivals::Steady { rate: 500.0 };
        assert_eq!(a.due(0), Duration::ZERO);
        assert_eq!(a.due(1), ms(2));
        assert_eq!(a.due(500), ms(1000));
        assert_eq!(a.burst_of(12_345), 0);
        assert_eq!(a.count_before(ms(1000)), 500);
    }

    #[test]
    fn burst_schedule_inserts_gaps() {
        let a = Arrivals::Burst {
            size: 4,
            rate: 1000.0,
            gap: ms(10),
        };
        // Burst 0: 0, 1, 2, 3 ms; the period is 4 ms of sends + 10 ms idle.
        let dues: Vec<Duration> = (0..6).map(|i| a.due(i)).collect();
        assert_eq!(dues, vec![ms(0), ms(1), ms(2), ms(3), ms(14), ms(15)]);
        assert_eq!(a.burst_of(3), 0);
        assert_eq!(a.burst_of(4), 1);
        assert_eq!(a.count_before(ms(14)), 4);
        assert_eq!(a.count_before(ms(15)), 5);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_clamped() {
        // Sent 3 ms late, done 5 ms after sending: the user waited 8 ms.
        assert_eq!(lateness(ms(10), ms(13)), ms(3));
        assert_eq!(latency_from_due(ms(10), ms(18)), ms(8));
        // Early sends and impossible orderings never go negative.
        assert_eq!(lateness(ms(10), ms(9)), Duration::ZERO);
        assert_eq!(latency_from_due(ms(10), ms(9)), Duration::ZERO);
    }

    #[test]
    fn drain_spans_first_due_to_last_done() {
        // Burst 0: 4 requests due 0..3 ms, the last done at 20 ms.
        // Burst 1: 2 requests, the first due at 100 ms, done by 110 ms.
        let reqs = vec![
            (1, ms(101), ms(110)),
            (0, ms(0), ms(5)),
            (0, ms(1), ms(9)),
            (0, ms(2), ms(20)),
            (0, ms(3), ms(12)),
            (1, ms(100), ms(104)),
        ];
        let drains = burst_drains(&reqs);
        assert_eq!(drains.len(), 2);
        assert_eq!(drains[0].0, 4);
        assert!((drains[0].1 - 0.020).abs() < 1e-12, "{drains:?}");
        assert_eq!(drains[1].0, 2);
        assert!((drains[1].1 - 0.010).abs() < 1e-12, "{drains:?}");
        // Pooled: 6 requests over 30 ms of drain time.
        assert!((drain_rate(&drains) - 200.0).abs() < 1e-9);
        assert!(burst_drains(&[]).is_empty());
        // No drain time, no rate.
        assert_eq!(drain_rate(&burst_drains(&[(0, ms(5), ms(5))])), 0.0);
        assert_eq!(drain_rate(&[]), 0.0);
    }
}
