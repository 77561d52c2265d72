//! The `rekey` suite: the rekey hot path on both tree backends
//! (explicit keys and the keyed-hash forest), the wire codec and the
//! RSA operations at 768 bits (the key size of the whole-protocol
//! benchmark) and 2048 bits (the paper's), under the counting
//! allocator. Allocations/op, bytes/op and resident key bytes are
//! deterministic for the fixed seeds; the KHF backend's resident key
//! bytes must stay sublinear (< 1/4) relative to the explicit
//! backend's O(n) at 5000 members.

use mykil::rekey::write_entries_from_plan;
use mykil::wire::{Reader, Writer};
use mykil_bench::alloc_track::alloc_count;
use mykil_bench::harness::{Abort, Rounds, Row};
use mykil_crypto::drbg::Drbg;
use mykil_crypto::rsa::RsaKeyPair;
use mykil_tree::{ExplicitKeys, KeyStore, KhfKeys, MemberId, Tree, TreeConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub fn run(rounds: &mut Rounds) -> Result<Vec<Row>, Abort> {
    let mut rng = Drbg::from_seed(0xBE9C_0005);
    // mykil-lint: allow(L001) -- fixed-seed keygen cannot fail
    let pair = RsaKeyPair::generate(2048, &mut rng).expect("2048-bit keygen");
    let mut rng = Drbg::from_seed(0xBE9C_0008);
    // mykil-lint: allow(L001) -- fixed-seed keygen cannot fail
    let pair768 = RsaKeyPair::generate(768, &mut rng).expect("768-bit keygen");
    let rows = vec![
        rounds.measure(|| Ok(rekey_single_leave::<ExplicitKeys>("rekey_single_leave")))?,
        rounds.measure(|| Ok(rekey_single_leave::<KhfKeys>("rekey_single_leave_khf")))?,
        rounds.measure(|| Ok(rekey_batch_mixed::<ExplicitKeys>("rekey_batch_mixed")))?,
        rounds.measure(|| Ok(rekey_batch_mixed::<KhfKeys>("rekey_batch_mixed_khf")))?,
        rounds.measure(|| Ok(resident_keys_5000::<ExplicitKeys>("resident_keys_5000")))?,
        rounds.measure(|| Ok(resident_keys_5000::<KhfKeys>("resident_keys_5000_khf")))?,
        rounds.measure(|| Ok(wire_encode_decode()))?,
        rounds.measure(|| Ok(rsa_private("rsa2048_private", &pair, 10)))?,
        rounds.measure(|| Ok(rsa_public("rsa2048_public", &pair, 200)))?,
        rounds.measure(|| Ok(rsa_private("rsa768_private", &pair768, 100)))?,
        rounds.measure(|| Ok(rsa_public("rsa768_public", &pair768, 1000)))?,
    ];

    // The KHF backend's reason to exist: resident key bytes must be
    // decisively sublinear relative to the explicit store's O(n) at
    // the 5000-member scale. This is structural, not host-dependent.
    let resident = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .and_then(|r| r.get("resident_key_bytes"))
    };
    let explicit = resident("resident_keys_5000").unwrap_or(0.0);
    let khf = resident("resident_keys_5000_khf").unwrap_or(f64::MAX);
    if khf * 4.0 >= explicit {
        return Err(Abort::Regressed(format!(
            "khf resident key bytes not sublinear: khf {khf:.0} vs explicit {explicit:.0}"
        )));
    }
    Ok(rows)
}

fn row(name: &'static str, ops: u64, elapsed: Duration, bytes_per_op: f64, allocs: u64) -> Row {
    Row::new(name)
        .exact("ops", ops as f64)
        .throughput("ops_per_ref_s", ops as f64 / elapsed.as_secs_f64())
        .banded("bytes_per_op", bytes_per_op)
        .banded("allocs_per_op", allocs as f64 / ops as f64)
}

/// Single-member leave rekey, the paper's Figure 5 path: tree mutation,
/// envelope sealing and wire encoding of the key-update body. The
/// vacated slot is re-joined outside the measured region to keep the
/// population stable.
fn rekey_single_leave<S: KeyStore>(name: &'static str) -> Row {
    let mut rng = Drbg::from_seed(0xBE9C_0001);
    let mut tree = Tree::<S>::new(TreeConfig::quad(), &mut rng);
    const N: u64 = 1024;
    const OPS: u64 = 2000;
    for m in 0..N {
        // mykil-lint: allow(L001) -- bench setup with fresh ids
        tree.join(MemberId(m), &mut rng).expect("fresh id");
    }
    let mut elapsed = Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    // Frame buffer reused across rekeys, as the production flush path
    // reuses its scratch: steady-state encodes allocate nothing.
    let mut scratch: Vec<u8> = Vec::new();
    for i in 0..OPS {
        let victim = MemberId(i % N);
        let t0 = Instant::now();
        let a0 = alloc_count();
        // mykil-lint: allow(L001) -- victim resident by construction
        let plan = tree.leave(victim, &mut rng).expect("resident member");
        let mut w = Writer::into_reused(std::mem::take(&mut scratch));
        write_entries_from_plan(&plan, &mut rng, &mut w);
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += w.len() as u64;
        scratch = w.into_bytes();
        // Restore population (unmeasured).
        // mykil-lint: allow(L001) -- id vacated two lines above
        tree.join(victim, &mut rng).expect("slot just vacated");
    }
    row(name, OPS, elapsed, bytes as f64 / OPS as f64, allocs)
        .banded("resident_key_bytes", tree.resident_key_bytes() as f64)
}

/// Batched mixed join/leave (Section III-E aggregation): eight leavers
/// and eight joiners per flush, one combined plan, sealed and encoded.
fn rekey_batch_mixed<S: KeyStore>(name: &'static str) -> Row {
    let mut rng = Drbg::from_seed(0xBE9C_0002);
    let mut tree = Tree::<S>::new(TreeConfig::quad(), &mut rng);
    const N: u64 = 4096;
    const OPS: u64 = 250;
    const CHURN: u64 = 8;
    for m in 0..N {
        // mykil-lint: allow(L001) -- bench setup with fresh ids
        tree.join(MemberId(m), &mut rng).expect("fresh id");
    }
    let mut next_id = N;
    let mut oldest = 0u64;
    let mut elapsed = Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    let mut scratch: Vec<u8> = Vec::new();
    for _ in 0..OPS {
        let joins: Vec<MemberId> = (0..CHURN).map(|k| MemberId(next_id + k)).collect();
        let leaves: Vec<MemberId> = (0..CHURN).map(|k| MemberId(oldest + k)).collect();
        next_id += CHURN;
        oldest += CHURN;
        let t0 = Instant::now();
        let a0 = alloc_count();
        // mykil-lint: allow(L001) -- ids validated by construction
        let out = tree.batch(&joins, &leaves, &mut rng).expect("valid batch");
        let mut w = Writer::into_reused(std::mem::take(&mut scratch));
        write_entries_from_plan(&out.plan, &mut rng, &mut w);
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += w.len() as u64;
        scratch = w.into_bytes();
    }
    row(name, OPS, elapsed, bytes as f64 / OPS as f64, allocs)
        .banded("resident_key_bytes", tree.resident_key_bytes() as f64)
}

/// Controller storage at scale: build a 5000-member area, then one
/// mixed 64-leave/64-join batch (so the KHF override table reflects
/// realistic leave churn). The headline metric is `resident_key_bytes`
/// — O(n) for the explicit store, O(overrides) for the forest. Its
/// bytes/op is the batch's multicast size.
fn resident_keys_5000<S: KeyStore>(name: &'static str) -> Row {
    let mut rng = Drbg::from_seed(0xBE9C_0003);
    let mut tree = Tree::<S>::new(TreeConfig::quad(), &mut rng);
    const N: u64 = 5000;
    const CHURN: u64 = 64;
    let t0 = Instant::now();
    let a0 = alloc_count();
    for m in 0..N {
        // mykil-lint: allow(L001) -- bench setup with fresh ids
        tree.join(MemberId(m), &mut rng).expect("fresh id");
    }
    let joins: Vec<MemberId> = (N..N + CHURN).map(MemberId).collect();
    let leaves: Vec<MemberId> = (0..CHURN).map(MemberId).collect();
    // mykil-lint: allow(L001) -- ids validated by construction
    let out = tree.batch(&joins, &leaves, &mut rng).expect("valid batch");
    let allocs = alloc_count() - a0;
    let elapsed = t0.elapsed();
    let ops = N + 1;
    row(
        name,
        ops,
        elapsed,
        out.plan.multicast_bytes() as f64,
        allocs,
    )
    .banded("resident_key_bytes", tree.resident_key_bytes() as f64)
}

/// Wire codec round trip: a key-update-shaped frame (header plus 16
/// length-prefixed envelope fields) encoded then fully decoded.
fn wire_encode_decode() -> Row {
    const OPS: u64 = 20_000;
    const ENTRIES: usize = 16;
    let env = [0xA5u8; 44]; // sealed 16-byte key + envelope overhead
    let mut elapsed = Duration::ZERO;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    let mut checksum = 0u64;
    for i in 0..OPS {
        let t0 = Instant::now();
        let a0 = alloc_count();
        let mut w = Writer::new();
        w.u8(30).u32(7).u64(i);
        w.u32(ENTRIES as u32);
        for e in 0..ENTRIES {
            w.u32(e as u32).u8(1).u32((e * 2) as u32);
            w.bytes(&env);
        }
        let frame = w.into_bytes();
        let mut r = Reader::new(&frame);
        let mut acc = 0u64;
        acc += u64::from(r.u8().unwrap_or(0));
        acc += u64::from(r.u32().unwrap_or(0));
        acc += r.u64().unwrap_or(0);
        let n = r.u32().unwrap_or(0);
        for _ in 0..n {
            acc += u64::from(r.u32().unwrap_or(0));
            acc += u64::from(r.u8().unwrap_or(0));
            acc += u64::from(r.u32().unwrap_or(0));
            acc += r.bytes().map(|b| b.len() as u64).unwrap_or(0);
        }
        allocs += alloc_count() - a0;
        elapsed += t0.elapsed();
        bytes += frame.len() as u64;
        checksum = checksum.wrapping_add(acc);
    }
    // Keep the decode loop observable.
    assert!(checksum > 0);
    row(
        "wire_encode_decode",
        OPS,
        elapsed,
        bytes as f64 / OPS as f64,
        allocs,
    )
}

/// RSA private operation (OAEP decrypt of a wrapped 16-byte key).
/// Bytes/op is the recovered plaintext.
fn rsa_private(name: &'static str, pair: &RsaKeyPair, ops: u64) -> Row {
    let mut rng = Drbg::from_seed(0xBE9C_0006);
    // mykil-lint: allow(L001) -- a 16-byte message fits any OAEP block of 768 bits or more
    let ct = pair
        .public()
        .encrypt(&[0x42; 16], &mut rng)
        .expect("oaep encrypt");
    let mut bytes = 0u64;
    let t0 = Instant::now();
    let a0 = alloc_count();
    for _ in 0..ops {
        // mykil-lint: allow(L001) -- ciphertext made for this key above
        bytes += black_box(pair.decrypt(&ct).expect("oaep decrypt")).len() as u64;
    }
    let allocs = alloc_count() - a0;
    row(name, ops, t0.elapsed(), bytes as f64 / ops as f64, allocs)
}

/// RSA public operation (OAEP encrypt of a 16-byte key). Bytes/op is
/// the ciphertext.
fn rsa_public(name: &'static str, pair: &RsaKeyPair, ops: u64) -> Row {
    let mut rng = Drbg::from_seed(0xBE9C_0007);
    let mut bytes = 0u64;
    let t0 = Instant::now();
    let a0 = alloc_count();
    for _ in 0..ops {
        // mykil-lint: allow(L001) -- a 16-byte message fits any OAEP block of 768 bits or more
        let ct = pair
            .public()
            .encrypt(&[0x42; 16], &mut rng)
            .expect("oaep encrypt");
        bytes += black_box(ct).len() as u64;
    }
    let allocs = alloc_count() - a0;
    row(name, ops, t0.elapsed(), bytes as f64 / ops as f64, allocs)
}
