//! Deterministic randomness for reproducible experiments.

/// A seeded xoshiro256++ generator, its state filled by SplitMix64.
///
/// All stochastic behaviour in the simulator (packet loss, workload
/// inter-arrival times, admin corruption draws in the quorum experiment)
/// flows through a [`DetRng`] so a single seed reproduces a whole experiment.
/// The stream for a seed is part of every recorded digest and is pinned by
/// a golden test.
///
/// # Examples
///
/// ```
/// use guillotine_types::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut s = seed;
        DetRng {
            state: std::array::from_fn(|_| splitmix64(&mut s)),
        }
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Returns a uniformly random value in `[0, bound)`. Returns 0 when
    /// `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.range(0, bound)
    }

    /// Returns a uniformly random value in `[lo, hi)`; `lo` if the range is
    /// empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo)
        }
    }

    /// Returns a uniformly random `f64` in `[0, 1)`: 53 random mantissa
    /// bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Draws a sample from an exponential distribution with the given mean.
    ///
    /// Used for open-loop workload inter-arrival times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // A unit draw in `[MIN_POSITIVE, 1)`, so the logarithm is finite.
        let u = self.unit().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.below(items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed(1);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(2);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exponential_is_positive_with_sane_mean() {
        let mut r = DetRng::seed(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let avg = sum / n as f64;
        assert!(avg > 4.0 && avg < 6.0, "avg={avg}");
    }

    /// The first draws of every sampler for one seed, taken from one
    /// generator in a fixed order.
    #[derive(Debug, PartialEq)]
    struct Pinned {
        next: [u64; 2],
        below: u64,
        range: u64,
        unit_bits: u64,
        /// Eight `chance(0.5)` draws, first draw in bit 0.
        chance: u8,
        exponential_bits: u64,
        pick: u32,
    }

    fn draw(seed: u64) -> Pinned {
        let mut r = DetRng::seed(seed);
        Pinned {
            next: [r.next_u64(), r.next_u64()],
            below: r.below(1000),
            range: r.range(10, 20),
            unit_bits: r.unit().to_bits(),
            chance: (0..8).fold(0, |bits, i| bits | u8::from(r.chance(0.5)) << i),
            exponential_bits: r.exponential(5.0).to_bits(),
            pick: *r.pick(&[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]).unwrap(),
        }
    }

    /// Every seeded artifact in the tree (arrival traces, fault plans,
    /// `sim_digests`) is a function of these streams, so the constants must
    /// never move.
    #[test]
    fn det_rng_streams_are_pinned() {
        let golden = [
            (
                0,
                Pinned {
                    next: [0x5317_5D61_490B_23DF, 0x61DA_6F3D_C380_D507],
                    below: 180,
                    range: 10,
                    unit_bits: 0x3FDF_B281_3AEB_D296,
                    chance: 0xF9,
                    exponential_bits: 0x4027_AA23_6F08_A567,
                    pick: 7,
                },
            ),
            (
                7,
                Pinned {
                    next: [0x0E2C_1A00_2AAE_913D, 0x2C0F_C8DD_FA4E_9E14],
                    below: 178,
                    range: 16,
                    unit_bits: 0x3FEE_D64C_7E5E_AF20,
                    chance: 0x75,
                    exponential_bits: 0x4025_CBCC_615F_83A0,
                    pick: 29,
                },
            ),
            (
                u64::MAX,
                Pinned {
                    next: [0x56CC_F8CE_948E_27B2, 0xE685_8843_2E5A_5B90],
                    below: 435,
                    range: 17,
                    unit_bits: 0x3FE4_FAC4_081D_524C,
                    chance: 0x25,
                    exponential_bits: 0x402C_59CB_27A7_5BBC,
                    pick: 19,
                },
            ),
        ];
        for (seed, pinned) in golden {
            assert_eq!(draw(seed), pinned, "seed {seed:#x}");
        }
    }

    /// The integer and float samplers stay inside their half-open ranges
    /// and `unit` is uniform enough to centre on one half.
    #[test]
    fn samplers_stay_in_range_and_unit_centres_on_one_half() {
        let mut r = DetRng::seed(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
            assert!((5..17).contains(&r.range(5, 17)));
            assert!((0.0..1.0).contains(&r.unit()));
            assert!(r.exponential(2.0) >= 0.0);
        }
        assert_eq!(r.range(9, 9), 9);
        let mut r = DetRng::seed(4);
        let n = 50_000;
        let mean = (0..n).map(|_| r.unit()).sum::<f64>() / f64::from(n);
        assert!((0.48..0.52).contains(&mean), "mean={mean}");
    }
}
