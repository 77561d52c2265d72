//! Property-based tests for the bignum substrate.
//!
//! These are the algebraic laws RSA correctness rests on; a bug in any
//! of them would silently corrupt every protocol handshake.

use mykil_crypto::bignum::BigUint;
use proptest::prelude::*;

/// Strategy: a BigUint from up to 24 random bytes (covers 0..2^192).
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(|v| BigUint::from_bytes_be(&v))
}

/// Strategy: an odd modulus of 1–40 `u32` limbs with a nonzero top
/// limb. Odd limb counts leave the top `u64` word of the Montgomery
/// engine half-empty.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u32>(), 1..41).prop_map(|mut limbs| {
        limbs[0] |= 1;
        let top = limbs.len() - 1;
        limbs[top] = limbs[top].max(1);
        let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
        BigUint::from_bytes_be(&bytes)
    })
}

/// Strategy: exponents 0 and 1, below 64 bits, and 64 bits or more.
fn exponent() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        Just(BigUint::zero()),
        Just(BigUint::one()),
        any::<u64>().prop_map(|e| BigUint::from((e >> 1) >> (e % 64))),
        proptest::collection::vec(any::<u8>(), 8..48).prop_map(|mut v| {
            v[0] |= 1;
            BigUint::from_bytes_be(&v)
        }),
    ]
}

/// Left-to-right square-and-multiply on plain `(a*b).rem(m)`.
fn ladder(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let base = base.rem(m).unwrap();
    let mut acc = BigUint::one().rem(m).unwrap();
    for i in (0..exp.bit_len()).rev() {
        acc = (&acc * &acc).rem(m).unwrap();
        if exp.bit(i) {
            acc = (&acc * &base).rem(m).unwrap();
        }
    }
    acc
}

/// Strategy: a nonzero BigUint.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|n| if n.is_zero() { BigUint::one() } else { n })
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_round_trips(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn square_matches_self_mul(a in biguint()) {
        prop_assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn division_invariant(a in biguint(), b in biguint_nonzero()) {
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn bytes_round_trip(data in proptest::collection::vec(any::<u8>(), 0..48)) {
        let n = BigUint::from_bytes_be(&data);
        let round = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(n, round);
    }

    #[test]
    fn shift_round_trip(a in biguint(), bits in 0usize..100) {
        prop_assert_eq!(a.shl_bits(bits).shr_bits(bits), a);
    }

    #[test]
    fn shl_is_mul_by_power(a in biguint(), bits in 0usize..64) {
        let p = BigUint::one().shl_bits(bits);
        prop_assert_eq!(a.shl_bits(bits), &a * &p);
    }

    #[test]
    fn modpow_product_law(
        a in biguint(),
        e1 in 0u64..200,
        e2 in 0u64..200,
        m in biguint_nonzero(),
    ) {
        // a^(e1+e2) == a^e1 * a^e2 (mod m), for m > 1
        prop_assume!(!m.is_one());
        let lhs = a.modpow(&BigUint::from(e1 + e2), &m).unwrap();
        let rhs = (&a.modpow(&BigUint::from(e1), &m).unwrap()
            * &a.modpow(&BigUint::from(e2), &m).unwrap())
            .rem(&m)
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_odd_matches_ladder(
        m in odd_modulus(),
        raw in proptest::collection::vec(any::<u8>(), 0..176),
        at_least_m in any::<bool>(),
        e in exponent(),
    ) {
        // Raw bases run up to 44 limbs, so some exceed m on their own;
        // `at_least_m` forces base >= m.
        let mut base = BigUint::from_bytes_be(&raw);
        if at_least_m {
            base = &base + &m;
        }
        prop_assert_eq!(base.modpow(&e, &m).unwrap(), ladder(&base, &e, &m));
    }

    #[test]
    fn modpow_is_reduced(a in biguint(), e in 0u64..50, m in biguint_nonzero()) {
        let r = a.modpow(&BigUint::from(e), &m).unwrap();
        prop_assert!(r < m);
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).unwrap().is_zero());
        prop_assert!(b.rem(&g).unwrap().is_zero());
    }

    #[test]
    fn mod_inverse_is_inverse(a in biguint_nonzero(), m in biguint_nonzero()) {
        prop_assume!(!m.is_one());
        if let Ok(inv) = a.mod_inverse(&m) {
            let prod = (&a * &inv).rem(&m).unwrap();
            prop_assert!(prod.is_one());
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in biguint(), b in biguint()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}
