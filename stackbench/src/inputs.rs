//! Seeded inputs: random activations and open-loop arrival schedules.
//!
//! Everything here is a pure function of the benchmark's `--seed`, so the same
//! seed gives the same inputs on every run and machine.

use tnn::Tensor;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator keyed by `seed` and a `stream` label, so the different
    /// inputs of one run draw from independent streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` activation tensors of shape `shape`, each element uniform in
/// `[0, 2^act_bits)`.
pub fn activations(
    shape: (usize, usize, usize),
    act_bits: u8,
    count: usize,
    rng: &mut SplitMix64,
) -> Vec<Tensor<i64>> {
    let (c, h, w) = shape;
    let mask = (1u64 << act_bits) - 1;
    (0..count)
        .map(|_| {
            let data = (0..c * h * w)
                .map(|_| (rng.next_u64() & mask) as i64)
                .collect();
            Tensor::from_vec(vec![c, h, w], data).expect("shape matches data length")
        })
        .collect()
}

/// Due times, in nanoseconds from the start of the load, of `count` Poisson
/// arrivals at `rate_per_s`: exponential gaps by inversion.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, 0xA551_7A15);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = 0.0f64;
    (0..count)
        .map(|_| {
            // 1 − u lies in (0, 1], so the logarithm is finite.
            due += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
            due.round() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(11, 1000.0, 5000);
        assert_eq!(a, poisson_schedule(11, 1000.0, 5000));
        assert_ne!(a, poisson_schedule(12, 1000.0, 5000));
        // A prefix of a longer schedule is the shorter schedule.
        assert_eq!(a[..100], poisson_schedule(11, 1000.0, 100)[..]);
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let due = poisson_schedule(3, 1000.0, 20_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap_ms = *due.last().expect("non-empty") as f64 / 1e6 / due.len() as f64;
        assert!(
            (mean_gap_ms - 1.0).abs() < 0.03,
            "mean gap {mean_gap_ms} ms"
        );
        // Exponential gaps: about e^-1 of them exceed the mean.
        let long = due.windows(2).filter(|w| w[1] - w[0] > 1_000_000).count();
        let share = long as f64 / (due.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "share {share}");
    }

    #[test]
    fn activations_stay_in_range_and_follow_the_seed() {
        let mut rng = SplitMix64::new(5, 1);
        let inputs = activations((3, 4, 4), 4, 3, &mut rng);
        assert_eq!(inputs.len(), 3);
        assert!(inputs
            .iter()
            .all(|t| t.shape() == [3, 4, 4] && t.as_slice().iter().all(|&v| (0..16).contains(&v))));
        assert_ne!(inputs[0], inputs[1]);
        let again = activations((3, 4, 4), 4, 3, &mut SplitMix64::new(5, 1));
        assert_eq!(inputs, again);
    }
}
