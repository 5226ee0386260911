//! Seeded input generation, kept apart from the program under test: the
//! fleet and the analyses only ever see the words produced here.
//!
//! Every input is a pure function of the workload seed, so one seed gives
//! byte-identical inputs on every run and every machine.

use zarf_icd::signal::{EcgConfig, EcgGen, Rhythm};

/// SplitMix64: a tiny, well-mixed generator whose whole state is one word.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, label, index)`.
    pub fn derive(seed: u64, label: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const COUNTER_LABEL: u64 = 1;
const ECG_LABEL: u64 = 2;

/// The `k`-th counter argument of session slot `slot`, in `1..=100`, so a
/// running sum stays far inside `i32` for any run length the benchmark
/// reaches.
pub fn counter_arg(seed: u64, slot: u64, k: u64) -> i32 {
    // Every (slot, k) pair has its own stream, so a lookup is O(1).
    let mut r = Rng::derive(seed, COUNTER_LABEL, slot.wrapping_mul(1 << 32) ^ k);
    r.range(1, 100) as i32
}

/// A seeded rhythm script for ECG session `slot`: sinus rhythm at a seeded
/// rate, a ramp into ventricular tachycardia at a seeded onset and rate,
/// and a recovery, with per-session noise amplitude and seed.
pub fn ecg_script(seed: u64, slot: u64) -> (EcgConfig, Vec<Rhythm>) {
    let mut r = Rng::derive(seed, ECG_LABEL, slot);
    let sinus = r.float(62.0, 90.0);
    let vt = r.float(172.0, 205.0);
    let config = EcgConfig {
        amplitude: r.range(1600, 2400) as i32,
        noise: r.range(0, 40) as i32,
        seed: r.next_u64(),
    };
    let script = vec![
        Rhythm::Steady {
            bpm: sinus,
            seconds: r.float(0.5, 4.0),
        },
        Rhythm::Ramp {
            from_bpm: sinus,
            to_bpm: vt,
            seconds: r.float(1.0, 3.0),
        },
        Rhythm::Steady {
            bpm: vt,
            seconds: r.float(4.0, 12.0),
        },
        Rhythm::Steady {
            bpm: r.float(65.0, 95.0),
            seconds: 600.0,
        },
    ];
    (config, script)
}

/// `n` ECG samples for session `slot`.
pub fn ecg_samples(seed: u64, slot: u64, n: usize) -> Vec<i32> {
    let (config, script) = ecg_script(seed, slot);
    EcgGen::new(config, script).take(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for slot in 0..8 {
            for k in 0..64 {
                out.extend_from_slice(&counter_arg(seed, slot, k).to_le_bytes());
            }
            for x in ecg_samples(seed, slot, 600) {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn generation_is_byte_identical_for_a_fixed_seed() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_eq!(stream_bytes(0), stream_bytes(0));
    }

    #[test]
    fn generation_differs_across_seeds() {
        assert_ne!(stream_bytes(7), stream_bytes(8));
        assert_ne!(stream_bytes(1), stream_bytes(2));
        // Sessions of one seed differ from each other too.
        assert_ne!(ecg_samples(7, 0, 600), ecg_samples(7, 1, 600));
    }

    #[test]
    fn counter_args_stay_in_range() {
        for k in 0..1000 {
            let a = counter_arg(3, k % 17, k);
            assert!((1..=100).contains(&a));
        }
    }
}
