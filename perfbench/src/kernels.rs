//! Layer kernels: each times one public function of one layer on
//! inputs shaped like the workloads (768-bit member keys, 2048-bit for
//! the paper's key size, key-sized envelopes, unicast-path-sized hybrid
//! ciphertexts, key-update-sized frames, and trees at the workloads'
//! area sizes). NOTES.md names the end-to-end metric each should move.

use mykil::identity::AreaId;
use mykil::msg::Msg;
use mykil::rekey::{encode_path, write_entries_from_plan, KeyState};
use mykil::wire::Writer;
use mykil_crypto::drbg::Drbg;
use mykil_crypto::envelope::{self, HybridCiphertext};
use mykil_crypto::hmac::hmac_sha256;
use mykil_crypto::keys::SymmetricKey;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_crypto::sha256::Sha256;
use mykil_tree::{KeyStore, MemberId, Tree, TreeConfig};
use std::hint::black_box;
use std::time::Instant;

/// Area size of rekey_fanout (explicit backend).
const EXPLICIT_AREA: u64 = 200;
/// Area size of failover (keyed-hash-forest backend).
const KHF_AREA: u64 = 100;

pub type Metric = (String, f64, &'static str);

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over `batches` of the per-call time (µs) of `per_batch` calls.
fn per_call_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(samples)
}

fn put(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

pub fn run() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut rng = Drbg::from_seed(0x6B65_726E_656C);
    crypto(&mut out, &mut rng);
    tree::<mykil_tree::ExplicitKeys>(&mut out, &mut rng, "explicit", EXPLICIT_AREA);
    tree::<mykil_tree::KhfKeys>(&mut out, &mut rng, "khf", KHF_AREA);
    wire_and_rekey(&mut out, &mut rng);
    out
}

fn crypto(out: &mut Vec<Metric>, rng: &mut Drbg) {
    let keygen = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(RsaKeyPair::generate(768, rng).expect("768-bit keygen"));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    put(out, "crypto.rsa768_keygen_ms", median(keygen), "ms");

    let key = SymmetricKey::random(rng);
    let pair768 = RsaKeyPair::generate(768, rng).expect("768-bit keygen");
    let pair2048 = RsaKeyPair::generate(2048, rng).expect("2048-bit keygen");
    for (bits, pair, batches, n) in [(768, &pair768, 9, 20), (2048, &pair2048, 5, 4)] {
        let ct = pair
            .public()
            .encrypt(key.as_bytes(), rng)
            .expect("oaep encrypt");
        let private = per_call_us(batches, n, || {
            black_box(pair.decrypt(&ct).expect("oaep decrypt"));
        });
        let public = per_call_us(batches, n * 4, || {
            black_box(
                pair.public()
                    .encrypt(key.as_bytes(), rng)
                    .expect("oaep encrypt"),
            );
        });
        put(out, &format!("crypto.rsa{bits}_private_us"), private, "us");
        put(out, &format!("crypto.rsa{bits}_public_us"), public, "us");
    }

    // A key-refresh unicast: a five-key tree path, RSA-wrapped.
    let path: Vec<(u32, SymmetricKey)> = (0..5).map(|i| (i, SymmetricKey::random(rng))).collect();
    let body = encode_path(&path);
    let ct = HybridCiphertext::encrypt(pair768.public(), &body, rng).expect("hybrid encrypt");
    let hybrid = per_call_us(9, 20, || {
        black_box(ct.decrypt(&pair768).expect("hybrid decrypt"));
    });
    put(out, "crypto.hybrid768_decrypt_us", hybrid, "us");

    let buf = vec![0x5Au8; 1 << 16];
    let sha = per_call_us(9, 16, || {
        black_box(Sha256::digest(black_box(&buf)));
    });
    put(
        out,
        "crypto.sha256_mib_s",
        (1u64 << 16) as f64 / sha / 1.048_576,
        "MiB/s",
    );
    let msg = [0xA5u8; 64];
    let hmac = per_call_us(9, 2000, || {
        black_box(hmac_sha256(key.as_bytes(), black_box(&msg)));
    });
    put(out, "crypto.hmac_us", hmac, "us");
    let sealed = envelope::seal(&key, key.as_bytes(), rng);
    let seal = per_call_us(9, 2000, || {
        black_box(envelope::seal(&key, key.as_bytes(), rng));
    });
    let open = per_call_us(9, 2000, || {
        black_box(envelope::open(&key, &sealed).expect("envelope open"));
    });
    put(out, "crypto.envelope_seal_us", seal, "us");
    put(out, "crypto.envelope_open_us", open, "us");
}

fn tree<S: KeyStore>(out: &mut Vec<Metric>, rng: &mut Drbg, backend: &str, area: u64) {
    let mut t = Tree::<S>::new(TreeConfig::quad(), rng);
    for m in 0..area {
        t.join(MemberId(m), rng).expect("fresh member");
    }
    let mut next = area;
    let join = per_call_us(9, 50, || {
        black_box(t.join(MemberId(next), rng).expect("fresh member"));
        next += 1;
    });
    // Each leave is of the oldest member, so the population shrinks
    // back to the area size while timing leaves.
    let mut oldest = 0;
    let leave = per_call_us(9, 50, || {
        black_box(t.leave(MemberId(oldest), rng).expect("resident member"));
        oldest += 1;
    });
    // The churn shape of one flush: two joins and two leaves.
    let batch = per_call_us(9, 20, || {
        let joins = [MemberId(next), MemberId(next + 1)];
        let leaves = [MemberId(oldest), MemberId(oldest + 1)];
        black_box(t.batch(&joins, &leaves, rng).expect("valid batch"));
        next += 2;
        oldest += 2;
    });
    put(out, &format!("tree.join_us.{backend}"), join, "us");
    put(out, &format!("tree.leave_us.{backend}"), leave, "us");
    put(out, &format!("tree.batch_us.{backend}"), batch, "us");
    if backend == "khf" {
        let snap = per_call_us(9, 20, || {
            black_box(t.snapshot());
        });
        put(out, "tree.snapshot_us.khf", snap, "us");
    }
    put(
        out,
        &format!("tree.resident_bytes.{backend}"),
        t.resident_key_bytes() as f64,
        "B",
    );
}

fn wire_and_rekey(out: &mut Vec<Metric>, rng: &mut Drbg) {
    let mut t = Tree::<mykil_tree::ExplicitKeys>::new(TreeConfig::quad(), rng);
    for m in 0..EXPLICIT_AREA {
        t.join(MemberId(m), rng).expect("fresh member");
    }
    // A member's view before a neighbour leaves, and the leave's frame.
    let mut path = Vec::new();
    t.path_keys_into(MemberId(1), &mut path)
        .expect("resident member");
    let mut before = KeyState::new();
    before.install_tree_path(&path);
    let plan = t.leave(MemberId(0), rng).expect("resident member");
    let mut w = Writer::new();
    write_entries_from_plan(&plan, rng, &mut w);
    let body = w.into_bytes();

    let apply = per_call_us(9, 200, || {
        let mut ks = before.clone();
        black_box(ks.apply_encoded(&body).expect("well-formed frame"));
    });
    let clone_only = per_call_us(9, 200, || {
        black_box(before.clone());
    });
    put(out, "rekey.apply_us", (apply - clone_only).max(0.0), "us");

    let msg = Msg::KeyUpdate {
        area: AreaId(0),
        epoch: 7,
        body,
        sig: vec![0x42; 96],
    };
    let roundtrip = per_call_us(9, 500, || {
        let bytes = msg.to_bytes();
        black_box(Msg::from_bytes(&bytes).expect("round trip"));
    });
    put(out, "wire.msg_roundtrip_us", roundtrip, "us");
}
