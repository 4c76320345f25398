//! The workspace-default generator, [`StdRng`] (xoshiro256++).

use crate::{RngCore, SeedableRng};

/// splitmix64 step: the standard seed expander for xoshiro-family state.
/// Guarantees a well-mixed, never-all-zero 256-bit state from any u64 seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace-default generator: xoshiro256++ (Blackman & Vigna, 2019).
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush. Seeded through
/// splitmix64 so that similar seeds still yield decorrelated streams.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl StdRng {
    /// Exposes the raw 256-bit xoshiro256++ state, e.g. for writing a
    /// training checkpoint. Restoring via [`StdRng::from_state`] resumes
    /// the stream bit-exactly where it left off.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Reconstructs a generator from a state captured by [`StdRng::state`].
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state, which is not reachable from any seed
    /// and would make xoshiro emit zeros forever (a corrupt checkpoint is
    /// the only way to get here).
    pub fn from_state(s: [u64; 4]) -> StdRng {
        assert!(
            s.iter().any(|&w| w != 0),
            "StdRng::from_state: all-zero state is invalid"
        );
        StdRng { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_pure() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn state_roundtrip_resumes_stream_exactly() {
        let mut a = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            a.next_u64();
        }
        let snap = a.state();
        let tail: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let mut b = StdRng::from_state(snap);
        let resumed: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(tail, resumed);
    }

    #[test]
    #[should_panic]
    fn all_zero_state_is_rejected() {
        let _ = StdRng::from_state([0; 4]);
    }
}
