//! Montgomery-form modular exponentiation for odd moduli.
//!
//! Every exponentiation in the crate with an odd modulus runs here: RSA
//! public and CRT private operations, signatures and Miller–Rabin, all
//! through [`BigUint::modpow`] or [`MontgomeryCtx`] directly.
//! [`BigUint`] keeps its `u32` storage; a context converts the modulus
//! once into `u64` words, and a call converts its base in and its result
//! out, so every product in between runs on `u64` limbs with `u128`
//! intermediates.
//!
//! A product is a double-width schoolbook multiplication (or a dedicated
//! squaring, which computes each cross term once) followed by a
//! word-by-word Montgomery reduction. One scratch buffer per call holds
//! the window table, the accumulator and the double-width product, so
//! the products allocate nothing. The buffer is wiped before the call
//! returns: during a CRT private operation it holds mod-p and mod-q
//! intermediates.

use super::BigUint;
use crate::ct;
use crate::CryptoError;

/// Precomputed context for arithmetic modulo a fixed odd `n > 1`.
pub(crate) struct MontgomeryCtx<'n> {
    n: &'n BigUint,
    /// `n` as `k` little-endian `u64` words; `R = 2^(64·k)`.
    words: Vec<u64>,
    /// `R² mod n` in `k` words, for conversion into Montgomery form.
    r2: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0inv: u64,
}

impl<'n> MontgomeryCtx<'n> {
    /// Builds a context for the odd modulus `n > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] when `n` is even or `<= 1`.
    pub(crate) fn new(n: &'n BigUint) -> Result<Self, CryptoError> {
        if n.is_even() || n.is_one() {
            return Err(CryptoError::InvalidParameter(
                "montgomery modulus must be odd and greater than one",
            ));
        }
        let k = n.limb_len().div_ceil(2);
        let words = to_words(&n.limbs, k);
        // Newton iteration for n⁻¹ mod 2⁶⁴: each step doubles the number
        // of correct low bits, from 1 (n is odd) to 64.
        let n0 = words[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let mut r2 = BigUint::one().shl_bits(128 * k).rem(n)?;
        let ctx = MontgomeryCtx {
            n,
            r2: to_words(&r2.limbs, k),
            words,
            n0inv: inv.wrapping_neg(),
        };
        r2.zeroize();
        Ok(ctx)
    }

    /// Modular exponentiation `base^exp mod n`.
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> Result<BigUint, CryptoError> {
        let mut scratch = vec![0u64; self.scratch_len(window(exp.bit_len()))];
        if base < self.n {
            return Ok(self.pow_in(base, exp, &mut scratch));
        }
        let mut reduced = base.rem(self.n)?;
        let out = self.pow_in(&reduced, exp, &mut scratch);
        reduced.zeroize();
        Ok(out)
    }

    /// [`Self::pow`] for `base < n` in a caller-sized scratch buffer,
    /// which is wiped before returning.
    fn pow_in(&self, base: &BigUint, exp: &BigUint, scratch: &mut [u64]) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let w = window(exp.bit_len());
        self.pow_mont(base, exp, w, scratch);
        let (_, acc, t) = self.split(w, scratch);
        self.out_of_mont(acc, t);
        let out = from_words(acc);
        ct::zeroize_u64(scratch);
        out
    }

    /// One Miller–Rabin round: whether `n` is a strong probable prime to
    /// base `a`, where `n - 1 = d·2^s` with `d` odd and `s >= 1`. The
    /// `s - 1` squarings stay in Montgomery form.
    pub(crate) fn strong_probable_prime(&self, a: &BigUint, d: &BigUint, s: usize) -> bool {
        debug_assert!(a < self.n && d.is_odd() && s >= 1);
        let w = window(d.bit_len());
        let mut scratch = vec![0u64; self.scratch_len(w)];
        self.pow_mont(a, d, w, &mut scratch);
        let k = self.words.len();
        let (table, acc, t) = self.split(w, &mut scratch);
        // The table is spent: its first two slots hold 1 and n - 1 in
        // Montgomery form (R mod n and n - R mod n) for comparison.
        let (one, rest) = table.split_at_mut(k);
        let minus_one = &mut rest[..k];
        one.copy_from_slice(&self.r2);
        self.out_of_mont(one, t);
        sub_words(minus_one, &self.words, one);
        let prime = *acc == *one
            || *acc == *minus_one
            || (1..s).any(|_| {
                self.sqr(acc, t);
                *acc == *minus_one
            });
        ct::zeroize_u64(&mut scratch);
        prime
    }

    /// Leaves `base^exp · R mod n` in the accumulator, for `exp > 0` and
    /// `base < n`, walking `exp` in fixed `w`-bit digits from the top.
    fn pow_mont(&self, base: &BigUint, exp: &BigUint, w: usize, scratch: &mut [u64]) {
        let k = self.words.len();
        let (table, acc, t) = self.split(w, scratch);
        // table[i] = base^i · R mod n for 1 <= i < 2^w.
        load(acc, &base.limbs);
        self.mul(acc, &self.r2, t);
        table[k..2 * k].copy_from_slice(acc);
        for i in 2..1 << w {
            let (done, next) = table.split_at_mut(i * k);
            let entry = &mut next[..k];
            entry.copy_from_slice(&done[(i - 1) * k..]);
            self.mul(entry, &done[k..2 * k], t);
        }
        let digit = |d: usize| {
            (0..w)
                .rev()
                .fold(0, |x, b| x << 1 | usize::from(exp.bit(d * w + b)))
        };
        // The top digit holds the top bit, so it is nonzero: start there
        // rather than squaring a one.
        let digits = exp.bit_len().div_ceil(w);
        let top = digit(digits - 1);
        acc.copy_from_slice(&table[top * k..(top + 1) * k]);
        for d in (0..digits - 1).rev() {
            for _ in 0..w {
                self.sqr(acc, t);
            }
            let x = digit(d);
            if x != 0 {
                self.mul(acc, &table[x * k..(x + 1) * k], t);
            }
        }
    }

    /// Scratch words for a width-`w` walk: the table, the accumulator
    /// and the double-width product.
    fn scratch_len(&self, w: usize) -> usize {
        ((1 << w) + 3) * self.words.len()
    }

    /// Splits scratch into (table, accumulator, double-width product).
    fn split<'s>(
        &self,
        w: usize,
        scratch: &'s mut [u64],
    ) -> (&'s mut [u64], &'s mut [u64], &'s mut [u64]) {
        let k = self.words.len();
        let (table, rest) = scratch.split_at_mut(k << w);
        let (acc, t) = rest.split_at_mut(k);
        (table, acc, &mut t[..2 * k])
    }

    /// `acc = acc · b · R⁻¹ mod n`.
    fn mul(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        let k = self.words.len();
        let (a, b, t) = (&acc[..k], &b[..k], &mut t[..2 * k]);
        t.fill(0);
        for (i, &ai) in a.iter().enumerate() {
            let mut c = 0;
            for (tj, &bj) in t[i..i + k].iter_mut().zip(b) {
                (*tj, c) = mac(*tj, ai, bj, c);
            }
            t[i + k] = c;
        }
        self.redc(acc, t);
    }

    /// `acc = acc² · R⁻¹ mod n`: each cross term `a_i·a_j` is computed
    /// once and doubled, so a squaring costs about `k²/2` word products
    /// before the reduction instead of `k²`.
    fn sqr(&self, acc: &mut [u64], t: &mut [u64]) {
        let k = self.words.len();
        let (a, t) = (&acc[..k], &mut t[..2 * k]);
        t.fill(0);
        for (i, &ai) in a.iter().enumerate() {
            let mut c = 0;
            for (tj, &aj) in t[2 * i + 1..i + k].iter_mut().zip(&a[i + 1..]) {
                (*tj, c) = mac(*tj, ai, aj, c);
            }
            t[i + k] = c;
        }
        let mut top = 0;
        for tj in t.iter_mut() {
            (*tj, top) = (*tj << 1 | top, *tj >> 63);
        }
        let mut c = 0u64;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
            let sq = u128::from(ai) * u128::from(ai);
            let lo = u128::from(pair[0]) + u128::from(sq as u64) + u128::from(c);
            let hi = u128::from(pair[1]) + (sq >> 64) + (lo >> 64);
            (pair[0], pair[1], c) = (lo as u64, hi as u64, (hi >> 64) as u64);
        }
        self.redc(acc, t);
    }

    /// `acc = acc · R⁻¹ mod n`: out of Montgomery form.
    fn out_of_mont(&self, acc: &mut [u64], t: &mut [u64]) {
        let k = self.words.len();
        t[..k].copy_from_slice(acc);
        t[k..].fill(0);
        self.redc(acc, t);
    }

    /// Montgomery reduction of the double-width `t < n·R` into
    /// `out = t · R⁻¹ mod n`, fully reduced.
    fn redc(&self, out: &mut [u64], t: &mut [u64]) {
        let k = self.words.len();
        let (n, t, out) = (&self.words[..k], &mut t[..2 * k], &mut out[..k]);
        let mut carry = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0inv);
            let mut c = 0;
            for (tj, &nj) in t[i..i + k].iter_mut().zip(n) {
                (*tj, c) = mac(*tj, m, nj, c);
            }
            let s = u128::from(t[i + k]) + u128::from(c) + u128::from(carry);
            (t[i + k], carry) = (s as u64, (s >> 64) as u64);
        }
        // r = carry·R + t[k..] < 2n. Subtract n, and keep r instead
        // (by mask, not branch) when r < n: no carry and a borrow.
        let r = &t[k..];
        let borrow = sub_words(out, r, n);
        let keep = (borrow & !carry & 1).wrapping_neg();
        for (o, &rj) in out.iter_mut().zip(r) {
            *o = (*o & !keep) | (rj & keep);
        }
    }
}

impl Drop for MontgomeryCtx<'_> {
    fn drop(&mut self) {
        // For a CRT half the modulus is a secret prime.
        ct::zeroize_u64(&mut self.words);
        ct::zeroize_u64(&mut self.r2);
    }
}

/// Window width for a `bits`-bit exponent. A width-`w` table costs
/// `2^w - 2` products and saves products on every `w`-bit digit; these
/// break-even points minimise the expected count. The public exponent
/// 65537 gets width 1: sixteen squarings and one product.
fn window(bits: usize) -> usize {
    match bits {
        0..=24 => 1,
        25..=48 => 2,
        49..=140 => 3,
        _ => 4,
    }
}

/// `t + a·b + c` as (low word, high word); cannot overflow `u128`.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, c: u64) -> (u64, u64) {
    let s = u128::from(t) + u128::from(a) * u128::from(b) + u128::from(c);
    (s as u64, (s >> 64) as u64)
}

/// `out = a - b` over equal-length words; returns the borrow (0 or 1).
fn sub_words(out: &mut [u64], a: &[u64], b: &[u64]) -> u64 {
    let mut borrow = 0u64;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow);
        (*o, borrow) = (d, u64::from(b1 | b2));
    }
    borrow
}

/// Packs little-endian `u32` limbs into `dst`, zero-padding the top.
fn load(dst: &mut [u64], limbs: &[u32]) {
    assert!(limbs.len() <= 2 * dst.len(), "value wider than the modulus");
    dst.fill(0);
    for (d, pair) in dst.iter_mut().zip(limbs.chunks(2)) {
        *d = u64::from(pair[0]) | pair.get(1).map_or(0, |&hi| u64::from(hi) << 32);
    }
}

fn to_words(limbs: &[u32], k: usize) -> Vec<u64> {
    let mut words = vec![0; k];
    load(&mut words, limbs);
    words
}

fn from_words(words: &[u64]) -> BigUint {
    BigUint::from_limbs(
        words
            .iter()
            .flat_map(|&w| [w as u32, (w >> 32) as u32])
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    /// Plain left-to-right square-and-multiply with Knuth division.
    fn ladder(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
        let base = base.rem(n).unwrap();
        let mut acc = BigUint::one().rem(n).unwrap();
        for i in (0..exp.bit_len()).rev() {
            acc = acc.square().rem(n).unwrap();
            if exp.bit(i) {
                acc = (&acc * &base).rem(n).unwrap();
            }
        }
        acc
    }

    /// `v · R mod n` in the context's words.
    fn to_mont(c: &MontgomeryCtx<'_>, v: &BigUint) -> Vec<u64> {
        let mut words = to_words(&v.limbs, c.words.len());
        c.mul(&mut words, &c.r2, &mut vec![0; 2 * c.words.len()]);
        words
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::from(10_u64)).is_err());
        assert!(MontgomeryCtx::new(&BigUint::from(9_u64)).is_ok());
    }

    #[test]
    fn mont_round_trip() {
        let n = BigUint::from(1_000_000_007_u64);
        let c = MontgomeryCtx::new(&n).unwrap();
        for v in [0u64, 1, 2, 999_999_999, 123_456_789] {
            let x = BigUint::from(v);
            let mut m = to_mont(&c, &x);
            c.out_of_mont(&mut m, &mut [0; 2]);
            assert_eq!(from_words(&m), x, "v={v}");
        }
    }

    #[test]
    fn mont_mul_matches_plain() {
        let n = BigUint::from(0xffff_ffff_ffff_fff1_u64); // odd 64-bit modulus
        let c = MontgomeryCtx::new(&n).unwrap();
        let a = BigUint::from(0x1234_5678_9abc_def0_u64);
        let b = BigUint::from(0x0fed_cba9_8765_4321_u64);
        let (mut am, bm) = (to_mont(&c, &a), to_mont(&c, &b));
        let mut t = vec![0; 2];
        c.mul(&mut am, &bm, &mut t);
        c.out_of_mont(&mut am, &mut t);
        assert_eq!(from_words(&am), (&a * &b).rem(&n).unwrap());
        // The dedicated squaring agrees with the product.
        let (mut sq, mut prod) = (to_mont(&c, &a), to_mont(&c, &a));
        let am = to_mont(&c, &a);
        c.sqr(&mut sq, &mut t);
        c.mul(&mut prod, &am, &mut t);
        assert_eq!(sq, prod);
    }

    #[test]
    fn pow_small_cases() {
        let n = BigUint::from(97_u64);
        let c = MontgomeryCtx::new(&n).unwrap();
        // 5^96 mod 97 == 1 (Fermat)
        let r = c
            .pow(&BigUint::from(5_u64), &BigUint::from(96_u64))
            .unwrap();
        assert!(r.is_one());
        // base^0 == 1
        let r = c.pow(&BigUint::from(5_u64), &BigUint::zero()).unwrap();
        assert!(r.is_one());
        // base^1 == base
        let r = c.pow(&BigUint::from(5_u64), &BigUint::one()).unwrap();
        assert_eq!(r.to_u64(), Some(5));
        // base >= n is reduced first
        let r = c
            .pow(&BigUint::from(97 * 3 + 5_u64), &BigUint::one())
            .unwrap();
        assert_eq!(r.to_u64(), Some(5));
    }

    #[test]
    fn pow_matches_u128_reference() {
        let modulus = 0xdead_beef_0000_0001_u64; // odd
        let n = BigUint::from(modulus);
        let c = MontgomeryCtx::new(&n).unwrap();
        let mut expected = 1u128;
        let base = 0x1357_9bdf_u64;
        for e in 0..64u64 {
            let got = c
                .pow(&BigUint::from(base), &BigUint::from(e))
                .unwrap()
                .to_u64()
                .unwrap();
            assert_eq!(got as u128, expected, "e={e}");
            expected = expected * base as u128 % modulus as u128;
        }
    }

    #[test]
    fn windowed_matches_binary_ladder() {
        let mut rng = Drbg::from_seed(42);
        // Odd and even u32 limb counts, so the top u64 word is both full
        // and half-empty; exponent widths straddle every window change.
        for bits in [33usize, 64, 96, 255, 512] {
            let mut n = BigUint::random_bits(bits, &mut rng);
            n.set_bit(0);
            let c = MontgomeryCtx::new(&n).unwrap();
            for exp_bits in [1usize, 17, 24, 25, 48, 49, 140, 141, 300] {
                let base = BigUint::random_bits(bits, &mut rng);
                let exp = BigUint::random_bits(exp_bits, &mut rng);
                assert_eq!(
                    c.pow(&base, &exp).unwrap(),
                    ladder(&base, &exp, &n),
                    "bits={bits} exp_bits={exp_bits}"
                );
            }
        }
    }

    #[test]
    fn windowed_edge_exponents() {
        let n = BigUint::from(0xffff_ffff_ffff_fff1_u64);
        let c = MontgomeryCtx::new(&n).unwrap();
        let b = BigUint::from(12_345_u64);
        assert!(c.pow(&b, &BigUint::zero()).unwrap().is_one());
        assert_eq!(c.pow(&b, &BigUint::one()).unwrap(), b);
        // Exponent with long zero runs (exercises skipped digits).
        let mut sparse = BigUint::zero();
        sparse.set_bit(0);
        sparse.set_bit(77);
        sparse.set_bit(200);
        assert_eq!(c.pow(&b, &sparse).unwrap(), ladder(&b, &sparse, &n));
    }

    #[test]
    fn wide_modulus_pow() {
        // 193-bit odd modulus; verify a^(e1+e2) == a^e1 * a^e2.
        let mut n = BigUint::one().shl_bits(192);
        n.add_u32_assign(0x61); // odd tail
        let c = MontgomeryCtx::new(&n).unwrap();
        let a = BigUint::from_bytes_be(&[0x5a; 20]);
        let e1 = BigUint::from(12_345_u64);
        let e2 = BigUint::from(67_890_u64);
        let lhs = c.pow(&a, &(&e1 + &e2)).unwrap();
        let rhs = (&c.pow(&a, &e1).unwrap() * &c.pow(&a, &e2).unwrap())
            .rem(&n)
            .unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn modulus_near_word_boundary() {
        // All-ones words stress every carry chain in the product and the
        // reduction; n - 1 as the base makes each accumulator maximal.
        for words in [1usize, 2, 3, 8] {
            let n = &BigUint::one().shl_bits(64 * words) - &BigUint::from(59_u64);
            let c = MontgomeryCtx::new(&n).unwrap();
            let base = &n - &BigUint::one();
            let exp = BigUint::from_bytes_be(&[0xff; 40]);
            assert_eq!(
                c.pow(&base, &exp).unwrap(),
                ladder(&base, &exp, &n),
                "words={words}"
            );
        }
    }

    #[test]
    fn strong_probable_prime_rounds() {
        // n - 1 = d·2^s for a prime and a Carmichael number.
        let check = |n: u64, a: u64| {
            let n = BigUint::from(n);
            let n1 = &n - &BigUint::one();
            let s = (0..).find(|&i| n1.bit(i)).unwrap();
            let d = n1.shr_bits(s);
            let c = MontgomeryCtx::new(&n).unwrap();
            c.strong_probable_prime(&BigUint::from(a), &d, s)
        };
        let m61 = (1u64 << 61) - 1;
        for a in [2, 3, 5, 1_000_003, m61 - 1] {
            assert!(check(m61, a), "prime 2^61-1 to base {a}");
        }
        // 561 = 3·11·17; base 2 is a strong witness.
        assert!(!check(561, 2));
        // 2047 = 23·89 is a strong pseudoprime to base 2 only.
        assert!(check(2047, 2));
        assert!(!check(2047, 3));
    }

    #[test]
    fn pow_wipes_its_scratch() {
        let mut rng = Drbg::from_seed(7);
        let mut n = BigUint::random_bits(384, &mut rng);
        n.set_bit(0);
        let c = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::random_below(&n, &mut rng);
        let exp = BigUint::random_bits(384, &mut rng);
        let mut scratch = vec![0xA5A5_A5A5_A5A5_A5A5_u64; c.scratch_len(window(exp.bit_len()))];
        let got = c.pow_in(&base, &exp, &mut scratch);
        assert_eq!(got, ladder(&base, &exp, &n));
        assert!(scratch.iter().all(|&w| w == 0), "scratch left unwiped");
    }
}
