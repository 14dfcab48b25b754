//! Order statistics and the open-loop generator's due-time accounting.

/// Median; the mean of the two middle values for an even count. `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile (`p` in `0..=100`): the smallest value with at
/// least `p`% of the sample at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Number of samples strictly above the `p`th percentile.
pub fn beyond(values: &[f64], p: f64) -> usize {
    percentile(values, p).map_or(0, |cut| values.iter().filter(|&&v| v > cut).count())
}

/// A time source for the open-loop generator, in seconds since the
/// phase started.
pub trait Clock {
    /// Current time.
    fn now(&mut self) -> f64;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&mut self, t: f64);
}

/// One open-loop request: when it was due, when it went out, when its
/// reply came back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (later than `due` when the previous reply was
    /// late or the generator overslept).
    pub sent: f64,
    /// Reply time.
    pub done: f64,
    /// Whether the previous reply came back after `due`, so the request
    /// waited behind it.
    pub queued: bool,
}

impl Timing {
    /// Latency charged to the request: from when it was due if it waited
    /// behind a late reply, so a stall is charged to every request queued
    /// behind it; otherwise from when it went out, so the generator's own
    /// timer overshoot is not.
    pub fn latency(&self) -> f64 {
        self.done - if self.queued { self.due } else { self.sent }
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> f64 {
        self.sent - self.due
    }
}

/// Drives one connection open-loop: request `i` is due at
/// `i * period` and is sent once it is due and the previous reply is in
/// (see [`Timing::latency`] for what it is charged). Stops at the first
/// request due at or after `until`.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    period: f64,
    until: f64,
    mut send: impl FnMut(&mut C, usize),
) -> Vec<Timing> {
    let mut out = Vec::new();
    let mut previous = f64::NEG_INFINITY;
    for i in 0.. {
        let due = i as f64 * period;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        send(clock, i);
        let done = clock.now();
        out.push(Timing {
            due,
            sent,
            done,
            queued: previous > due,
        });
        previous = done;
    }
    out
}

/// True when lateness grows through the phase: the median lateness of
/// the last quarter exceeds that of the first quarter by more than
/// `slack` seconds. A growing lateness means the generator fell behind
/// its schedule, so the rate was above what the connection sustains.
pub fn backlog(timings: &[Timing], slack: f64) -> bool {
    let q = timings.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |part: &[Timing]| {
        median(&part.iter().map(Timing::lateness).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    late(&timings[timings.len() - q..]) > late(&timings[..q]) + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(beyond(&v, 90.0), 10);
        assert_eq!(beyond(&v, 99.0), 1);
        // Unsorted input with ties.
        assert_eq!(percentile(&[5.0, 1.0, 5.0, 2.0], 75.0), Some(5.0));
    }

    /// A clock that moves only when told: sleeping jumps to the target
    /// plus `overshoot`, and each reply takes whatever the test's server
    /// says.
    struct FakeClock {
        t: f64,
        overshoot: f64,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.t
        }
        fn sleep_until(&mut self, t: f64) {
            if t > self.t {
                self.t = t + self.overshoot;
            }
        }
    }

    #[test]
    fn a_stalled_reply_is_charged_to_the_requests_queued_behind_it() {
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        // Every reply takes 1 ms, except request 2, which stalls for 10 ms.
        let timings = open_loop(&mut clock, 0.005, 0.05, |c, i| {
            c.t += if i == 2 { 0.010 } else { 0.001 };
        });
        assert_eq!(timings.len(), 10);
        let lat: Vec<f64> = timings
            .iter()
            .map(|t| (t.latency() * 1e6).round())
            .collect();
        // 2 is due at 10 ms and answers at 20 ms; 3 (due 15 ms) goes out at
        // 20 ms and answers at 21 ms; 4 is due at 20 ms but waits for 3.
        assert_eq!(lat, vec![1e3, 1e3, 10e3, 6e3, 2e3, 1e3, 1e3, 1e3, 1e3, 1e3]);
        let late: Vec<f64> = timings
            .iter()
            .map(|t| (t.lateness() * 1e6).round())
            .collect();
        assert_eq!(late, vec![0.0, 0.0, 0.0, 5e3, 1e3, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(!backlog(&timings, 0.001));
    }

    #[test]
    fn timer_overshoot_is_not_charged_to_the_request() {
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.003,
        };
        // Every sleep overshoots by 3 ms and every reply takes 1 ms: each
        // request after the first (due at once, no sleep) goes out 3 ms
        // late, behind no reply, and is charged 1 ms.
        let timings = open_loop(&mut clock, 0.005, 0.05, |c, _| c.t += 0.001);
        assert_eq!(timings.len(), 10);
        for (i, t) in timings.iter().enumerate() {
            assert!(!t.queued);
            assert_eq!((t.latency() * 1e6).round(), 1e3);
            let late = if i == 0 { 0.0 } else { 3e3 };
            assert_eq!((t.lateness() * 1e6).round(), late);
        }
    }

    #[test]
    fn lateness_that_grows_is_a_backlog() {
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        // Replies take longer than the period: the queue never drains.
        let timings = open_loop(&mut clock, 0.001, 0.04, |c, _| c.t += 0.0015);
        assert!(backlog(&timings, 0.001));
        let last = timings.last().unwrap();
        assert!(last.latency() > 0.015);
    }
}
