//! Property-based tests for the simulation kernel.

use fiveg_simcore::dist::Dist;
use fiveg_simcore::{Cdf, EventQueue, Histogram, OnlineStats, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO ties.
    #[test]
    fn event_queue_orders_all_schedules(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.at >= lt);
                if ev.at == lt {
                    // FIFO among equal timestamps: later insertion pops later.
                    prop_assert!(ev.payload > li || times[ev.payload] != times[li]);
                }
            }
            last = Some((ev.at, ev.payload));
        }
        prop_assert_eq!(q.executed(), times.len() as u64);
    }

    /// The clock never runs backwards, whatever mix of operations runs.
    #[test]
    fn clock_is_monotonic(ops in prop::collection::vec((0u64..1_000_000, prop::bool::ANY), 1..100)) {
        let mut q = EventQueue::new();
        let mut prev = SimTime::ZERO;
        for (t, push) in ops {
            if push {
                let at = q.now() + SimDuration::from_nanos(t);
                q.schedule_at(at, ());
            } else {
                q.pop();
            }
            prop_assert!(q.now() >= prev);
            prev = q.now();
        }
    }

    /// CDF quantiles are monotone in q and bounded by min/max.
    #[test]
    fn cdf_quantiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let c = Cdf::from_samples(samples.clone());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = c.quantile(i as f64 / 20.0);
            prop_assert!(v >= prev);
            prev = v;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(c.quantile(0.0) >= min - 1e-9);
        prop_assert!(c.quantile(1.0) <= max + 1e-9);
    }

    /// prob_le is a valid, monotone CDF.
    #[test]
    fn cdf_prob_le_monotone(samples in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let c = Cdf::from_samples(samples);
        let mut prev = 0.0;
        for i in -10..=10 {
            let p = c.prob_le(i as f64 * 100.0);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= prev);
            prev = p;
        }
    }

    /// Histogram never loses a sample.
    #[test]
    fn histogram_conserves_counts(samples in prop::collection::vec(-200f64..200.0, 0..500)) {
        let mut h = Histogram::new(vec![-100.0, -50.0, 0.0, 50.0, 100.0]);
        for &s in &samples {
            h.push(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let frac_sum: f64 = (0..h.num_buckets()).map(|i| h.fraction(i)).sum();
        prop_assert!(frac_sum <= 1.0 + 1e-9);
    }

    /// Merging statistics equals sequential accumulation.
    #[test]
    fn online_stats_merge_associative(
        a in prop::collection::vec(-1e4f64..1e4, 0..100),
        b in prop::collection::vec(-1e4f64..1e4, 0..100),
    ) {
        let mut whole = OnlineStats::new();
        for &x in a.iter().chain(&b) {
            whole.push(x);
        }
        let mut sa = OnlineStats::new();
        a.iter().for_each(|&x| sa.push(x));
        let mut sb = OnlineStats::new();
        b.iter().for_each(|&x| sb.push(x));
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((sa.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((sa.variance() - whole.variance()).abs() < 1e-3);
        }
    }

    /// Seeded streams replay identically and substreams are stable.
    #[test]
    fn rng_determinism(seed in any::<u64>(), label in "[a-z]{1,8}") {
        use rand::RngCore;
        let mut a = SimRng::new(seed).substream(&label);
        let mut b = SimRng::new(seed).substream(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Distribution samples respect their support.
    #[test]
    fn dist_support(seed in any::<u64>(), mean in 0.1f64..100.0, sd in 0.1f64..10.0) {
        let mut rng = SimRng::new(seed);
        let clamped = Dist::NormalClamped { mean, std_dev: sd, min: 0.0 };
        let pareto = Dist::Pareto { x_min: mean, alpha: 1.5 };
        let exp = Dist::Exponential { mean };
        for _ in 0..50 {
            prop_assert!(clamped.sample(&mut rng) >= 0.0);
            prop_assert!(pareto.sample(&mut rng) >= mean);
            prop_assert!(exp.sample(&mut rng) >= 0.0);
        }
    }

    /// Duration arithmetic saturates instead of wrapping.
    #[test]
    fn duration_saturates(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        let sum = da + db;
        prop_assert!(sum >= da || sum == SimDuration::MAX);
        let diff = da - db;
        prop_assert!(diff <= da);
    }
}

/// The obvious event queue: a binary heap ordered by `(at, seq)`, with
/// the same clock rules as [`EventQueue`]. The radix heap must pop
/// exactly what this pops.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl ReferenceQueue {
    fn schedule_at(&mut self, at: SimTime, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at.max(self.now), seq, payload)));
        seq
    }

    fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, usize)> {
        match self.heap.peek() {
            Some(Reverse((at, ..))) if *at <= deadline => {
                let Reverse(ev) = self.heap.pop()?;
                self.now = ev.0;
                self.popped += 1;
                Some(ev)
            }
            _ => None,
        }
    }

    fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }
}

/// How far ahead of the clock an operation reaches: mostly zero or a few
/// nanoseconds, so same-time ties are common, with some reaching far
/// enough to spread keys over many radix buckets.
fn reach(pick: u8, raw: u64) -> SimDuration {
    SimDuration::from_nanos(match pick {
        0..=2 => 0,
        3 | 4 => raw % 100,
        5 | 6 => raw,
        _ => raw * 1_000,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The radix-heap queue and a reference binary heap keyed by
    /// `(at, seq)`, driven through the same random interleaving of
    /// schedules, pops, bounded pops and clock advances, produce the same
    /// events in the same order with the same clock after every step.
    #[test]
    fn event_queue_matches_reference_heap(
        ops in prop::collection::vec((0u8..8, 0u8..8, 0u64..5_000_000), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut r = ReferenceQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        };
        for (i, &(op, pick, raw)) in ops.iter().enumerate() {
            let d = reach(pick, raw);
            match op {
                0..=3 => {
                    let at = q.now() + d;
                    prop_assert_eq!(q.schedule_at(at, i), r.schedule_at(at, i));
                }
                4 => prop_assert_eq!(q.schedule_in(d, i), r.schedule_at(r.now + d, i)),
                5 => {
                    let got = q.pop().map(|e| (e.at, e.seq, e.payload));
                    prop_assert_eq!(got, r.pop_until(SimTime::MAX));
                }
                6 => {
                    let deadline = q.now() + d;
                    let got = q.pop_until(deadline).map(|e| (e.at, e.seq, e.payload));
                    prop_assert_eq!(got, r.pop_until(deadline));
                }
                _ => {
                    // Callers advance only over idle time (`run_until`
                    // drains up to its deadline first), so stop at the
                    // next pending event.
                    let to = r.heap.peek().map_or(r.now + d, |Reverse(ev)| ev.0.min(r.now + d));
                    q.advance_to(to);
                    r.advance_to(to);
                }
            }
            prop_assert_eq!(q.now(), r.now);
            prop_assert_eq!(q.len(), r.heap.len());
            prop_assert_eq!(q.executed(), r.popped);
            prop_assert_eq!(q.peek_time(), r.heap.peek().map(|Reverse(ev)| ev.0));
        }
        // Drain what is left: the tails must match too.
        loop {
            let got = q.pop().map(|e| (e.at, e.seq, e.payload));
            let want = r.pop_until(SimTime::MAX);
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.executed(), r.popped);
        prop_assert!(q.is_empty());
    }
}
