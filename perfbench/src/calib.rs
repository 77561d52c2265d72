//! Frozen host-speed calibration kernel.
//!
//! Not product code and never to be changed: it defines the normaliser
//! the throughput metric is divided by. A slice is a fixed number of
//! 768-bit Montgomery products (word-by-word CIOS over 32-bit limbs,
//! one fresh heap buffer per product), the instruction and allocation
//! mix that dominates the protocol's RSA-bound handlers. On shared
//! hosts a run's speed can drift by tens of percent for seconds at a
//! time; a kernel of this shape drifts with it, where a plain integer
//! loop does not. Slices are interleaved with set-up and the timed
//! phase, one every 20 ms of wall time, so they sample the same host
//! conditions the protocol runs under.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Limbs of the kernel's modulus (768 bits).
const LIMBS: usize = 24;
/// Montgomery products per slice (about 0.8 ms on the reference host).
const PRODUCTS: usize = 600;

/// Slices per second on the reference host (a 2-core x86-64 VM). Rates
/// are reported as `raw × REFERENCE_SLICES_PER_S / measured slices/s`:
/// what the run would have achieved on that host.
pub const REFERENCE_SLICES_PER_S: f64 = 1300.0;

pub struct Calib {
    n: Vec<u32>,
    n_prime: u32,
    x: Vec<u32>,
    y: Vec<u32>,
    slices: u64,
    busy: Duration,
}

impl Calib {
    pub fn new() -> Calib {
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
        Calib {
            n,
            n_prime: inv.wrapping_neg(),
            x,
            y,
            slices: 0,
            busy: Duration::ZERO,
        }
    }

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

    /// Runs one timed slice.
    pub fn slice(&mut self) {
        let t0 = Instant::now();
        for _ in 0..PRODUCTS / 2 {
            let z = self.mont_mul(&self.x, &self.y);
            self.x = self.mont_mul(&z, &z);
        }
        black_box(&self.x);
        self.busy += t0.elapsed();
        self.slices += 1;
    }

    /// Slices run and wall time spent in them so far.
    pub fn mark(&self) -> Mark {
        Mark {
            slices: self.slices,
            busy: self.busy,
        }
    }

    /// What happened since `from`.
    pub fn since(&self, from: Mark) -> Mark {
        Mark {
            slices: self.slices - from.slices,
            busy: self.busy - from.busy,
        }
    }
}

/// A count of slices and their total wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub slices: u64,
    pub busy: Duration,
}

impl Mark {
    /// Slices per wall second.
    pub fn per_s(self) -> f64 {
        self.slices as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// Factor turning a raw rate into a reference-host rate (and a
    /// wall time into a reference-host time, divided by it).
    pub fn normaliser(self) -> f64 {
        REFERENCE_SLICES_PER_S / self.per_s()
    }
}
