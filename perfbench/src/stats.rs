//! Order statistics and the open-loop queue model.

use workloads::entry_gen::mix;
use workloads::ArrivalSchedule;

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Mean of the best quarter of a sample (at least one value): how the
/// benchmark combines the set-ups, rounds, passes or parts of one run.
/// A shared host's speed drifts by 10–20% over seconds as other work
/// comes and goes. A slow spell that covers less than three
/// quarters of the run leaves the best quarter untouched, so the metric
/// reports the program on an undisturbed host and repeats from run to run,
/// where a mean or median would follow how much of each run the spells
/// happened to cover.
pub fn best_quarter(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let best = &v[..v.len().div_ceil(4).max(1)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// A one-server open loop: Poisson arrivals at an offered rate, served in
/// order, each op starting at `max(due, previous end)` — what a one-thread
/// open-loop load generator observes. Service times are the measured
/// sample in a shuffled order, so this is an M/G/1 queue with the
/// empirical service distribution: every measured time counts, stalls
/// included, but not how a stall of the shared host happened to cluster
/// slow ops in one stretch of one run. The arrivals and the shuffle come
/// from one fixed seed, not the workload's: they are part of the
/// measuring instrument, so two runs differ only by their measured times.
pub struct OpenLoop {
    /// Arrival times at 1 op/s; a rate divides them.
    unit_due: Vec<f64>,
    service_ns: Vec<u32>,
}

/// Seed of the queue model's arrivals and shuffle.
const MODEL_SEED: u64 = 0x0BE7_1007;

impl OpenLoop {
    pub fn new(service_ns: &[u32]) -> Self {
        let seed = MODEL_SEED;
        let mut service_ns = service_ns.to_vec();
        for i in (1..service_ns.len()).rev() {
            let j = mix(&[seed, 0x5A0F, i as u64]) % (i as u64 + 1);
            service_ns.swap(i, j as usize);
        }
        let unit_due = ArrivalSchedule::new(1.0, seed)
            .take(service_ns.len())
            .map(|ns| ns as f64 / 1e9)
            .collect();
        Self {
            unit_due,
            service_ns,
        }
    }

    /// Latency from due time (ns) of each op at `rate` ops/s.
    pub fn latencies(&self, rate: f64) -> Vec<f64> {
        let mut free_at = 0.0f64;
        self.unit_due
            .iter()
            .zip(&self.service_ns)
            .map(|(&u, &s)| {
                let due = u * 1e9 / rate;
                let end = free_at.max(due) + f64::from(s);
                free_at = end;
                end - due
            })
            .collect()
    }

    /// Whether `rate` keeps the p99 latency under `limit_ns` without a
    /// growing backlog: the p99 of the last quarter of ops, where a
    /// growing queue would be longest, must meet the limit too.
    fn meets_limit(&self, rate: f64, limit_ns: f64) -> bool {
        let lat = self.latencies(rate);
        let tail = &lat[lat.len() - lat.len() / 4..];
        percentile(tail, 0.99) < limit_ns && percentile(&lat, 0.99) < limit_ns
    }

    /// The highest offered rate meeting the limit, by bisection to a
    /// relative resolution of 0.5%. Every candidate rate scales the same
    /// arrival draws, so the test is monotone in the rate.
    pub fn max_rate(&self, limit_ns: f64) -> f64 {
        let total: f64 = self.service_ns.iter().map(|&s| f64::from(s)).sum();
        let mean = total / self.service_ns.len() as f64;
        let (mut lo, mut hi) = (1e9 / mean / 1000.0, 1e9 / mean);
        if !self.meets_limit(lo, limit_ns) {
            return lo;
        }
        while hi / lo > 1.005 {
            let mid = (lo * hi).sqrt();
            if self.meets_limit(mid, limit_ns) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Arrival draws for real paced phases: Poisson times at 1 op/s.
pub fn unit_arrivals(seed: u64, n: usize) -> Vec<f64> {
    ArrivalSchedule::new(1.0, seed)
        .take(n)
        .map(|ns| ns as f64 / 1e9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }

    #[test]
    fn best_quarter_keeps_the_best_values() {
        let v = [7.0, 2.0, 100.0, 1.0, 5.0, 6.0, 3.0, 4.0];
        assert_eq!(best_quarter(&v, Better::Lower), 1.5);
        assert_eq!(best_quarter(&v, Better::Higher), 53.5);
        assert_eq!(best_quarter(&[2.0, 4.0, 9.0], Better::Lower), 2.0);
        assert_eq!(best_quarter(&[5.0], Better::Higher), 5.0);
    }

    #[test]
    fn queue_waits_behind_a_slow_op() {
        let q = OpenLoop {
            unit_due: vec![0.0, 10e-9, 20e-9],
            service_ns: vec![30, 5, 5],
        };
        let lat: Vec<f64> = q.latencies(1.0).iter().map(|l| l.round()).collect();
        assert_eq!(lat, vec![30.0, 25.0, 20.0]);
    }

    #[test]
    fn max_rate_sits_below_saturation() {
        let r = OpenLoop::new(&vec![10_000u32; 20_000]).max_rate(1e6);
        assert!(r > 50_000.0 && r < 100_000.0, "{r}");
    }
}
