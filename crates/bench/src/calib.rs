//! Frozen host-speed normaliser for the perf gate.
//!
//! Not product code and never to be changed: it defines the unit every
//! gated throughput is reported in. A slice is a fixed number of
//! 768-bit Montgomery products (word-by-word CIOS over 32-bit limbs,
//! one fresh heap buffer per product), the instruction and allocation
//! mix of the protocol's RSA-bound paths. On shared hosts speed drifts
//! by tens of percent for seconds at a time; a kernel of this shape
//! drifts with the workloads, where a hash loop (or the product's own
//! SHA-256, which a faster implementation would turn into a phantom
//! regression of every other workload) does not.
//!
//! The harness samples the kernel immediately before and after every
//! measured round, so each round is normalised by the host speed of
//! its own moment.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Limbs of the kernel's modulus (768 bits).
const LIMBS: usize = 24;
/// Montgomery products per slice (about 0.8 ms on the reference host).
const PRODUCTS: usize = 600;
/// Shortest kernel sample (about 25 slices on the reference host).
pub const MIN_SAMPLE: Duration = Duration::from_millis(20);

/// Slices per second on the reference host (a 2-core x86-64 VM). A raw
/// rate `r` measured while the kernel ran at `k` slices/s is reported
/// as `r × REFERENCE_SLICES_PER_S / k`: what the run would have
/// achieved on that host.
pub const REFERENCE_SLICES_PER_S: f64 = 1300.0;

/// The kernel's fixed modulus and running operands.
pub struct Kernel {
    n: Vec<u32>,
    n_prime: u32,
    x: Vec<u32>,
    y: Vec<u32>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        let mut s = 0x9E37_79B9u32;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            s
        };
        let mut n: Vec<u32> = (0..LIMBS).map(|_| next()).collect();
        n[0] |= 1;
        n[LIMBS - 1] |= 0x8000_0000;
        // -n^-1 mod 2^32 by Newton iteration.
        let mut inv = 1u32;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let x = (0..LIMBS).map(|_| next() >> 1).collect();
        let y = (0..LIMBS).map(|_| next() >> 1).collect();
        Kernel {
            n,
            n_prime: inv.wrapping_neg(),
            x,
            y,
        }
    }
}

impl Kernel {
    /// `a · b · 2^-768 mod n`, up to one final subtraction.
    fn mont_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut t = vec![0u32; LIMBS + 2];
        for &a_i in a {
            let ai = u64::from(a_i);
            let mut carry = 0u64;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let sum = u64::from(*tj) + ai * u64::from(bj) + carry;
                *tj = sum as u32;
                carry = sum >> 32;
            }
            let sum = u64::from(t[LIMBS]) + carry;
            t[LIMBS] = sum as u32;
            t[LIMBS + 1] = (sum >> 32) as u32;
            let m = u64::from(t[0].wrapping_mul(self.n_prime));
            let mut carry = (u64::from(t[0]) + m * u64::from(self.n[0])) >> 32;
            for j in 1..LIMBS {
                let sum = u64::from(t[j]) + m * u64::from(self.n[j]) + carry;
                t[j - 1] = sum as u32;
                carry = sum >> 32;
            }
            let sum = u64::from(t[LIMBS]) + carry;
            t[LIMBS - 1] = sum as u32;
            t[LIMBS] = t[LIMBS + 1].wrapping_add((sum >> 32) as u32);
            t[LIMBS + 1] = 0;
        }
        t.truncate(LIMBS);
        t
    }

    /// Runs whole slices until at least `span` of wall time has
    /// passed; returns how many ran and the time they took.
    pub fn sample(&mut self, span: Duration) -> (u32, Duration) {
        let t0 = Instant::now();
        let mut slices = 0;
        while slices == 0 || t0.elapsed() < span {
            for _ in 0..PRODUCTS / 2 {
                let z = self.mont_mul(&self.x, &self.y);
                self.x = self.mont_mul(&z, &z);
            }
            slices += 1;
        }
        black_box(&self.x);
        (slices, t0.elapsed())
    }
}
