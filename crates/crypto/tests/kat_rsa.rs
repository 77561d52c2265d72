//! Known-answer tests for RSA: key generation, OAEP encryption and
//! signatures from fixed `Drbg` seeds.
//!
//! The pinned values were produced by the `u32`-limb exponentiation
//! that preceded the current `u64` engine. Any change to the
//! exponentiation, to Miller–Rabin's consumption of the generator or
//! to the padding shows up here as a different key, ciphertext or
//! signature, and downstream as changed wire bytes in every protocol
//! replay.

use mykil_crypto::drbg::Drbg;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_crypto::sha256::Sha256;
use rand::RngCore;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Generates a pair from `seed`, then encrypts and signs fixed
/// messages with the same generator. Returns the pair, the generator's
/// next draw after keygen, the ciphertext and the signature.
fn fixture(bits: usize, seed: u64) -> (RsaKeyPair, u64, Vec<u8>, Vec<u8>) {
    let mut rng = Drbg::from_seed(seed);
    let pair = RsaKeyPair::generate(bits, &mut rng).expect("keygen");
    let next = rng.next_u64();
    let ct = pair
        .public()
        .encrypt(b"mykil area key", &mut rng)
        .expect("oaep encrypt");
    let sig = pair.sign(b"mykil key update");
    (pair, next, ct, sig)
}

#[test]
fn rsa768_known_answers() {
    let (pair, next, ct, sig) = fixture(768, 0x4B41_5437);
    assert_eq!(pair.public().fingerprint(), 0x5f99_20eb_eee0_6568);
    // Keygen drew exactly as many values from the generator as before.
    assert_eq!(next, 0x9e55_fddd_5561_41ab);
    assert_eq!(
        hex(&ct),
        "cb929894d05f95fd57fea9b1d0fd48d918ca00ad2c33119c1bcdcf16c5982e0a\
         a44c1959fac14484f032e41254b02e1854f6d9546c7a0366c9b718be21f8589c\
         452f378532310e8e9e3381d5d75e5b631385f3a1beb47bab38fb6e1045b5c179"
    );
    assert_eq!(
        hex(&sig),
        "b9959dd492b6ad2e3d6e32408d1ba5d68d38a11b163f5528f6081945f2822683\
         18483eea97619467825a68d3a5953c5c77cbc1b9ce22ce91bfcf950c72ca6650\
         3e6ee53f95d72a1a4df96b735fe7213fd78f048bd8e1327037210b5f669b74b3"
    );
    assert_eq!(pair.decrypt(&ct).expect("decrypt"), b"mykil area key");
    assert!(pair.public().verify(b"mykil key update", &sig));
}

#[test]
fn rsa2048_known_answers() {
    let (pair, next, ct, sig) = fixture(2048, 0x4B41_5432);
    assert_eq!(pair.public().fingerprint(), 0xb74d_83f9_da33_cd13);
    assert_eq!(next, 0xd2d4_a3b0_35b4_5a8c);
    // 256-byte blocks: pinned by digest.
    assert_eq!(
        hex(&Sha256::digest(&ct)),
        "19df975649c0447d232dfb08872c328aa763a7a6636a4fa855ad53d9562737e5"
    );
    assert_eq!(
        hex(&Sha256::digest(&sig)),
        "325a6d4375e3ffb99dc35b9d314b6af124792d3215711b83883a577beeedde20"
    );
    assert_eq!(pair.decrypt(&ct).expect("decrypt"), b"mykil area key");
    assert!(pair.public().verify(b"mykil key update", &sig));
}
