//! RSA public-key cryptography (RFC 8017 style, from scratch).
//!
//! The paper's join and rejoin protocols (Figures 3 and 7) encrypt every
//! handshake message with RSA public keys and sign several of them with
//! RSA private keys; the prototype used OpenSSL's `RSA_public_encrypt` /
//! `RSA_sign` with 2048-bit keys. This module provides the same four
//! operations:
//!
//! - [`RsaPublicKey::encrypt`] — OAEP-style encryption (MGF1-SHA256),
//!   including the single-block plaintext limit the paper discusses in
//!   Section V-D (215 bytes with their SHA-1 padding; 190 bytes here with
//!   SHA-256 — either way the auxiliary-key path does not fit, forcing
//!   the hybrid one-time-key workaround that Mykil implements)
//! - [`RsaKeyPair::decrypt`] — CRT-accelerated decryption
//! - [`RsaKeyPair::sign`] / [`RsaPublicKey::verify`] — hash-then-sign
//!   signatures (PKCS#1 v1.5 layout with a SHA-256 DigestInfo)
//!
//! # Example
//!
//! ```
//! use mykil_crypto::drbg::Drbg;
//! use mykil_crypto::rsa::RsaKeyPair;
//!
//! let mut rng = Drbg::from_seed(42);
//! let pair = RsaKeyPair::generate(512, &mut rng)?;
//! let sig = pair.sign(b"key update");
//! assert!(pair.public().verify(b"key update", &sig));
//! # Ok::<(), mykil_crypto::CryptoError>(())
//! ```

mod keygen;
mod serialize;
mod oaep;
mod sign;

use crate::bignum::BigUint;
use crate::CryptoError;

/// The conventional RSA public exponent, 65537.
pub const PUBLIC_EXPONENT: u32 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

impl RsaPublicKey {
    /// Constructs a public key from raw components.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] for a modulus smaller
    /// than 256 bits, an even modulus (never a product of two odd
    /// primes) or an even/unit exponent.
    pub fn from_components(n: BigUint, e: BigUint) -> Result<Self, CryptoError> {
        if n.bit_len() < 256 {
            return Err(CryptoError::InvalidParameter("modulus below 256 bits"));
        }
        if n.is_even() {
            return Err(CryptoError::InvalidParameter("even modulus"));
        }
        if e.is_even() || e.is_one() || e.is_zero() {
            return Err(CryptoError::InvalidParameter("bad public exponent"));
        }
        Ok(RsaPublicKey { n, e })
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes (the RSA block length `k`).
    pub fn block_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Raw RSA public operation `m^e mod n` on a padded block.
    pub(crate) fn raw_public_op(&self, block: &BigUint) -> Result<BigUint, CryptoError> {
        if block >= &self.n {
            return Err(CryptoError::InvalidParameter("block exceeds modulus"));
        }
        block.modpow(&self.e, &self.n)
    }

    /// Serializes to `len(n) || n || len(e) || e` for wire transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(n.len() + e.len() + 8);
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the format produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidParameter`] on truncated or
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let err = || CryptoError::InvalidParameter("malformed public key encoding");
        let take = |bytes: &mut &[u8]| -> Result<Vec<u8>, CryptoError> {
            if bytes.len() < 4 {
                return Err(err());
            }
            let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
            *bytes = &bytes[4..];
            if bytes.len() < len {
                return Err(err());
            }
            let out = bytes[..len].to_vec();
            *bytes = &bytes[len..];
            Ok(out)
        };
        let mut cursor = bytes;
        let n = BigUint::from_bytes_be(&take(&mut cursor)?);
        let e = BigUint::from_bytes_be(&take(&mut cursor)?);
        if !cursor.is_empty() {
            return Err(err());
        }
        Self::from_components(n, e)
    }

    /// A short stable fingerprint (first 8 bytes of SHA-256 of the
    /// encoding) used for logging and key directories.
    pub fn fingerprint(&self) -> u64 {
        let digest = crate::sha256::Sha256::digest(&self.to_bytes());
        u64::from_be_bytes(digest[..8].try_into().unwrap())
    }
}

/// An RSA key pair with CRT parameters for fast private operations.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Private components must never be printed.
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl Drop for RsaKeyPair {
    fn drop(&mut self) {
        // The public half is public by definition; every CRT component
        // reveals the factorization and must be wiped.
        self.d.zeroize();
        self.p.zeroize();
        self.q.zeroize();
        self.d_p.zeroize();
        self.d_q.zeroize();
        self.q_inv.zeroize();
    }
}

impl RsaKeyPair {
    /// The public half of the pair.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA private operation `c^d mod n` using the CRT.
    pub(crate) fn raw_private_op(&self, block: &BigUint) -> Result<BigUint, CryptoError> {
        if block >= &self.public.n {
            return Err(CryptoError::InvalidParameter("block exceeds modulus"));
        }
        // CRT: m_p = c^d_p mod p ; m_q = c^d_q mod q
        let m_p = block.modpow(&self.d_p, &self.p)?;
        let m_q = block.modpow(&self.d_q, &self.q)?;
        // h = q_inv * (m_p - m_q) mod p
        let diff = if m_p >= m_q {
            &m_p - &m_q
        } else {
            // m_p - m_q mod p, computed as p - ((m_q - m_p) mod p)
            let r = (&m_q - &m_p).rem(&self.p)?;
            if r.is_zero() {
                r
            } else {
                &self.p - &r
            }
        };
        let h = (&self.q_inv * &diff).rem(&self.p)?;
        // m = m_q + h * q
        Ok(&m_q + &(&h * &self.q))
    }

    /// Slow non-CRT private operation, kept for cross-checking in tests.
    #[doc(hidden)]
    pub fn raw_private_op_no_crt(&self, block: &BigUint) -> Result<BigUint, CryptoError> {
        block.modpow(&self.d, &self.public.n)
    }
}

#[cfg(test)]
pub(crate) mod test_keys {
    use super::*;
    use crate::drbg::Drbg;
    use std::sync::OnceLock;

    /// Shared 768-bit test key (RSA keygen is the slow part of the suite;
    /// 768 bits leaves 30 bytes of OAEP plaintext room, enough for a
    /// wrapped one-time symmetric key).
    pub fn pair768() -> &'static RsaKeyPair {
        static PAIR: OnceLock<RsaKeyPair> = OnceLock::new();
        PAIR.get_or_init(|| {
            let mut rng = Drbg::from_seed(0xA11CE);
            RsaKeyPair::generate(768, &mut rng).expect("test keygen")
        })
    }

    /// A second, distinct 768-bit test key.
    pub fn pair768_b() -> &'static RsaKeyPair {
        static PAIR: OnceLock<RsaKeyPair> = OnceLock::new();
        PAIR.get_or_init(|| {
            let mut rng = Drbg::from_seed(0xB0B);
            RsaKeyPair::generate(768, &mut rng).expect("test keygen")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::test_keys::{pair768, pair768_b};
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn public_key_round_trips_through_bytes() {
        let pk = pair768().public().clone();
        let bytes = pk.to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(pk, back);
        assert_eq!(pk.fingerprint(), back.fingerprint());
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 10, 1]).is_err());
        let mut ok = pair768().public().to_bytes();
        ok.push(0); // trailing garbage
        assert!(RsaPublicKey::from_bytes(&ok).is_err());
    }

    #[test]
    fn from_bytes_rejects_even_modulus() {
        // A peer-supplied 768-bit even modulus: well-formed encoding,
        // full width, good exponent.
        let mut n = pair768().public().modulus().clone();
        n.add_u32_assign(1);
        assert_eq!(n.bit_len(), 768);
        let mut bytes = (96u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&n.to_bytes_be());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[0x01, 0x00, 0x01]);
        assert!(matches!(
            RsaPublicKey::from_bytes(&bytes),
            Err(CryptoError::InvalidParameter("even modulus"))
        ));
    }

    #[test]
    fn from_components_validation() {
        let pk = pair768().public();
        assert!(RsaPublicKey::from_components(
            BigUint::from(15_u64),
            BigUint::from(3_u64)
        )
        .is_err());
        assert!(
            RsaPublicKey::from_components(pk.modulus().clone(), BigUint::from(4_u64)).is_err()
        );
        assert!(
            RsaPublicKey::from_components(pk.modulus().clone(), BigUint::from(65_537_u64))
                .is_ok()
        );
    }

    #[test]
    fn raw_ops_invert() {
        let pair = pair768();
        let mut rng = Drbg::from_seed(77);
        let m = BigUint::random_below(pair.public().modulus(), &mut rng);
        let c = pair.public().raw_public_op(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(pair.raw_private_op(&c).unwrap(), m);
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let pair = pair768();
        let mut rng = Drbg::from_seed(78);
        for _ in 0..4 {
            let c = BigUint::random_below(pair.public().modulus(), &mut rng);
            assert_eq!(
                pair.raw_private_op(&c).unwrap(),
                pair.raw_private_op_no_crt(&c).unwrap()
            );
        }
    }

    #[test]
    fn distinct_pairs_have_distinct_moduli() {
        assert_ne!(pair768().public().modulus(), pair768_b().public().modulus());
    }

    #[test]
    fn block_exceeding_modulus_rejected() {
        let pair = pair768();
        let too_big = pair.public().modulus().clone();
        assert!(pair.public().raw_public_op(&too_big).is_err());
        assert!(pair.raw_private_op(&too_big).is_err());
    }

    #[test]
    fn debug_hides_private_parts() {
        let s = format!("{:?}", pair768());
        assert!(s.contains("public"));
        assert!(!s.contains("d_p"));
    }
}
