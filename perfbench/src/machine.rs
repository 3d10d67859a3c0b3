//! A probe of how fast the machine runs at the moment, so that times taken
//! on a shared host are reported at one reference speed.
//!
//! On the shared 2-vCPU virtual machines the benchmark was tuned on, the
//! same code ran up to 50% slower for tens of seconds at a time while other
//! tenants were busy. Taking each operation's best repetition hides short
//! spells but not a run that falls wholly inside a long one. An integer
//! loop did not slow down in those spells; code that allocates and walks
//! hash tables, as the search and the validator do, did. So the probe
//! times a fixed unit of that kind of work: 4 000 hash-map inserts and
//! lookups, and 3 000 B-tree inserts of small vectors. The unit is the
//! benchmark's own code, so no change to the repository changes it.
//!
//! The `search` and `validate` workloads sample the unit right before each
//! timed operation and scale their times by [`REFERENCE_UNIT_S`] over a
//! quantile of the unit's times: the lower quartile for best-of-repetition
//! figures, which come from the machine's quieter moments, and the median
//! for figures over every repetition. Over repeated runs of one seed in a
//! busy hour this cut the spread of `search`'s `pass_s` from 0.25 to 0.06.
//! `serve` is not scaled: its jobs run on worker threads, so the unit
//! cannot sit between them, and a batch of units before each pass did not
//! track its slowdowns (over ten runs, `pass_s` spread 0.10 scaled and
//! unscaled alike, and `op_ms_tail` 0.11 scaled against 0.05 unscaled).

use crate::stats::{median, quantile};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The unit's time at the reference speed: about its lower quartile on a
/// quiet vCPU of the 2.1 GHz Xeon host the benchmark was tuned on, so that
/// scaled figures stay close to that machine's seconds.
pub const REFERENCE_UNIT_S: f64 = 5e-4;

/// Quantile of the unit's times that best-of-repetition figures are
/// scaled by. The 10th percentile tracked slow spells less well over
/// repeated runs.
const QUIET_QUANTILE: f64 = 0.25;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One unit of probe work; the same work on every call and in every
/// process (the hasher has fixed keys).
fn unit() {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..4_000u64 {
        table.insert(xorshift(&mut x) % 8_000, i);
    }
    let mut sum = 0u64;
    for k in 0..4_000u64 {
        if let Some(v) = table.get(&(2 * k)) {
            sum = sum.wrapping_add(*v);
        }
    }
    let mut tree = BTreeMap::new();
    for i in 0..3_000u64 {
        let k = xorshift(&mut x) % 1_000;
        tree.insert(k, vec![i; (k % 9) as usize]);
    }
    black_box((sum, tree.len()));
}

/// The unit times sampled over one run.
#[derive(Default)]
pub struct Probe {
    units: Vec<f64>,
}

impl Probe {
    /// Time one unit.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        unit();
        self.units.push(t0.elapsed().as_secs_f64());
    }

    /// Factor that turns a best-of-repetition time into reference seconds.
    pub fn quiet_scale(&self) -> f64 {
        REFERENCE_UNIT_S / quantile(&self.units, QUIET_QUANTILE)
    }

    /// Factor that turns a time over every repetition into reference
    /// seconds.
    pub fn typical_scale(&self) -> f64 {
        REFERENCE_UNIT_S / median(&self.units)
    }

    /// One line on what the probe saw.
    pub fn note(&self) -> String {
        format!(
            "machine: probe unit p25 {:.4} ms, p50 {:.4} ms over {} samples (reference {:.4} ms)",
            quantile(&self.units, QUIET_QUANTILE) * 1e3,
            median(&self.units) * 1e3,
            self.units.len(),
            REFERENCE_UNIT_S * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_follow_the_sampled_unit_times() {
        let probe = Probe {
            units: (1..=8).map(|i| f64::from(i) * 1e-4).collect(),
        };
        // Of eight samples, p25 is the second and the median the fourth.
        assert!((probe.quiet_scale() - REFERENCE_UNIT_S / 2e-4).abs() < 1e-9);
        assert!((probe.typical_scale() - REFERENCE_UNIT_S / 4e-4).abs() < 1e-9);
    }

    #[test]
    fn sampling_records_one_time_per_call() {
        let mut probe = Probe::default();
        probe.sample();
        probe.sample();
        assert_eq!(probe.units.len(), 2);
        assert!(probe.units.iter().all(|t| *t > 0.0));
    }
}
