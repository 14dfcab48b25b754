//! A fixed reference computation that gauges the host's speed at the
//! moment a pass runs.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants'
//! memory traffic makes allocation- and hash-heavy work — the kind the
//! engine does — run up to 1.6× faster or slower for ten seconds or more
//! at a time, while plain arithmetic barely moves. Medians within a run
//! cannot remove a stretch that covers most of the run, so the compile
//! and infer figures are reported at a reference speed: each pass runs
//! right after one [`probe`], and its time is scaled by
//! `REFERENCE_SECS / probe time` ([`at_reference`]). The probe is the
//! benchmark's own code and calls nothing in the repository's crates, so
//! a change to the program moves the scaled figures exactly as much as
//! the raw ones. The raw medians go to the run record beside the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the reference host (Intel Xeon, 2 vCPUs),
/// so scaled figures read close to raw seconds there.
pub const REFERENCE_SECS: f64 = 2.3e-3;

/// Distinct keys the probe touches: a table of a few hundred KiB, like
/// the engine's memo tables.
const KEYS: u64 = 2048;
/// Probe iterations: about 2 ms on the reference host.
const STEPS: u64 = 40_000;

/// Runs the reference computation once and returns its duration in
/// seconds: hash-map lookups and inserts of small heap vectors over a
/// fresh table, with a logarithm and an exponential per step.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut table: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table.entry(x % KEYS).or_insert_with(|| vec![i as f64; 6]);
        v[(x % 6) as usize] += 1.0;
        acc += (v[0] + 1.0).ln() + (-v[1] / 1e4).exp();
    }
    black_box((acc, &table));
    t.elapsed().as_secs_f64()
}

/// `secs` measured while the probe took `probe_secs`, scaled to the
/// reference speed.
pub fn at_reference(secs: f64, probe_secs: f64) -> f64 {
    secs * REFERENCE_SECS / probe_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniform_slowdown_cancels() {
        let quiet = at_reference(0.010, REFERENCE_SECS);
        assert_eq!(quiet, 0.010);
        let busy = at_reference(0.015, 1.5 * REFERENCE_SECS);
        assert!((busy - quiet).abs() < 1e-15);
        // A slower program on the same host reads slower by the same ratio.
        let slower = at_reference(0.020, REFERENCE_SECS);
        assert!((slower / quiet - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_probe_measures_time() {
        let secs = probe();
        assert!(secs.is_finite() && secs > 0.0);
    }
}
