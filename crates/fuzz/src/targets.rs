//! The six fuzz targets and their structure-aware seed corpora.
//!
//! Every target is a total function of its input bytes: the contract
//! under test is "no panic, no hang, no allocation proportional to a
//! claimed (rather than actual) length" for every decoder that touches
//! network- or disk-sourced bytes. Targets may additionally assert
//! internal consistency (e.g. the fault-plan serialize→parse round
//! trip) — those asserts are *supposed* to fire when the invariant
//! breaks, which is exactly what the harness reports.

use mykil::directory::AcDirectory;
use mykil::durable::{
    replay_ac, replay_rs, AcCheckpoint, AcSnapshot, AcWalRecord, DurableMember, RsCheckpoint,
    RsWalRecord,
};
use mykil::group::GroupBuilder;
use mykil::msg::Msg;
use mykil::scale::{decode_checkpoint, encode_checkpoint, AreaState, ScaleConfig, ScaleEvent};
use mykil::welcome::Welcome;
use mykil::wire::{Reader, Writer};
use mykil_crypto::drbg::Drbg;
use mykil_crypto::envelope;
use mykil_crypto::keys::SymmetricKey;
use mykil_net::FaultPlan;

/// One fuzz target: a name (doubles as the corpus directory name under
/// `tests/corpus/`), the bytes-in entry point, and a generator for its
/// structure-aware seed corpus. Seed names are stable so `gen-corpus`
/// is idempotent and regression fixtures keep their documented paths.
pub struct Target {
    pub name: &'static str,
    pub run: fn(&[u8]),
    pub seeds: fn() -> Vec<(&'static str, Vec<u8>)>,
}

/// All registered targets, in the order CI runs them.
pub fn all() -> Vec<Target> {
    vec![
        Target {
            name: "wire-reader",
            run: run_wire_reader,
            seeds: seeds_wire_reader,
        },
        Target {
            name: "envelope",
            run: run_envelope,
            seeds: seeds_envelope,
        },
        Target {
            name: "durable-replay",
            run: run_durable_replay,
            seeds: seeds_durable_replay,
        },
        Target {
            name: "area-replay",
            run: run_area_replay,
            seeds: seeds_area_replay,
        },
        Target {
            name: "fault-plan",
            run: run_fault_plan,
            seeds: seeds_fault_plan,
        },
        Target {
            name: "tree-snapshot",
            run: run_tree_snapshot,
            seeds: seeds_tree_snapshot,
        },
    ]
}

/// Looks a target up by name.
pub fn find(name: &str) -> Option<Target> {
    all().into_iter().find(|t| t.name == name)
}

// ---------------------------------------------------------------------
// wire-reader: op-interpreted `wire::Reader` + compound decoders
// ---------------------------------------------------------------------

/// Input layout: `[n_ops][op bytes...][payload]`. The op bytes drive a
/// `Reader` over the payload through every accessor (including
/// deliberately oversized `raw` requests, which must error rather than
/// panic); the *whole* input is then fed to the two compound decoders
/// that stack on `Reader`, `Msg::from_bytes` and `Welcome::from_bytes`.
fn run_wire_reader(data: &[u8]) {
    if let Some((&n_ops, rest)) = data.split_first() {
        let n = (n_ops as usize).min(24).min(rest.len());
        let Some((ops, payload)) = rest.split_at_checked(n) else {
            return;
        };
        let mut r = Reader::new(payload);
        for &op in ops {
            match op % 8 {
                0 => {
                    let _ = r.u8();
                }
                1 => {
                    let _ = r.u32();
                }
                2 => {
                    let _ = r.u64();
                }
                3 => {
                    let _ = r.bytes();
                }
                4 => {
                    let _ = r.array::<16>();
                }
                5 => {
                    // Often more than remains: the error path.
                    let _ = r.raw(op as usize * 37);
                }
                6 => {
                    let n = r.remaining() / 2;
                    let _ = r.raw(n);
                }
                _ => {
                    let _ = r.u8().and_then(|_| r.u32());
                }
            }
        }
        let _ = r.finish();
    }
    let _ = Msg::from_bytes(data);
    let _ = Welcome::from_bytes(data);
}

fn seeds_wire_reader() -> Vec<(&'static str, Vec<u8>)> {
    // A payload exercising every field kind, prefixed by an op string
    // that decodes it exactly.
    let mut w = Writer::new();
    w.u8(7)
        .u32(0xdead_beef)
        .u64(0x0123_4567_89ab_cdef)
        .bytes(b"hello wire")
        .raw(&[0x5a; 16])
        .bytes(b"");
    let payload = w.into_bytes();
    let mut aligned = vec![6u8, 0, 1, 2, 3, 4, 3];
    aligned.extend_from_slice(&payload);

    // Length-prefix boundary probes for the compound decoders.
    let mut huge_len = vec![0u8];
    huge_len.extend_from_slice(&u32::MAX.to_be_bytes());
    huge_len.extend_from_slice(&[1, 2, 3]);

    vec![
        ("seed-aligned.bin", aligned),
        ("seed-empty.bin", Vec::new()),
        ("seed-huge-len.bin", huge_len),
        ("seed-ops-only.bin", vec![24, 0, 1, 2, 3, 4, 5, 6, 7]),
    ]
}

// ---------------------------------------------------------------------
// envelope: authenticated decryption of arbitrary bytes
// ---------------------------------------------------------------------

const KEY_LEN: usize = 16; // mykil_crypto::SYMMETRIC_KEY_LEN

/// Input layout: `[key: 16 bytes][envelope...]` (zero key if short).
/// Both `open` and the fixed-plaintext-length `open_fixed` must reject
/// arbitrary envelopes with `CryptoError`, never panic.
fn run_envelope(data: &[u8]) {
    let mut key_bytes = [0u8; KEY_LEN];
    let env = match data.split_at_checked(KEY_LEN) {
        Some((key, env)) => {
            key_bytes = key.try_into().unwrap_or(key_bytes);
            env
        }
        None => data,
    };
    let key = SymmetricKey::from_bytes(key_bytes);
    let _ = envelope::open(&key, env);
    let _ = envelope::open_fixed::<16>(&key, env);
}

fn seeds_envelope() -> Vec<(&'static str, Vec<u8>)> {
    let key_bytes = [0x42u8; KEY_LEN];
    let key = SymmetricKey::from_bytes(key_bytes);
    let mut rng = Drbg::from_seed(11);

    let mut valid = key_bytes.to_vec();
    valid.extend_from_slice(&envelope::seal(&key, b"attack at dawn", &mut rng));

    let mut fixed = key_bytes.to_vec();
    fixed.extend_from_slice(&envelope::seal(&key, &[0xa5; 16], &mut rng));

    let mut wrong_key = vec![0u8; KEY_LEN];
    wrong_key.extend_from_slice(&envelope::seal(&key, b"attack at dawn", &mut rng));

    vec![
        ("seed-valid.bin", valid),
        ("seed-valid-fixed16.bin", fixed),
        ("seed-wrong-key.bin", wrong_key),
        ("seed-truncated.bin", key_bytes.get(..8).unwrap_or(&[]).to_vec()),
    ]
}

// ---------------------------------------------------------------------
// durable-replay: AC/RS WAL + checkpoint recovery folds
// ---------------------------------------------------------------------

/// Input layout: `[flags][frame...]` where a frame is
/// `[len: u16 LE][len bytes]` and a short final frame is discarded.
/// Frame 0 is the checkpoint when `flags & 1`; the rest are WAL
/// records. The frames drive both full replay folds and every
/// individual record/checkpoint decoder. The checkpoint candidate is
/// also decoded as a bare replica snapshot, and so is the snapshot an
/// AC checkpoint embeds. Every AC format that decodes must re-encode to
/// exactly its input bytes.
fn run_durable_replay(data: &[u8]) {
    let Some((&flags, mut rest)) = data.split_first() else {
        return;
    };
    let mut frames: Vec<Vec<u8>> = Vec::new();
    while frames.len() < 64 {
        let Some(&[lo, hi]) = rest.get(..2) else {
            break;
        };
        let len = usize::from(u16::from_le_bytes([lo, hi]));
        let Some(frame) = rest.get(2..2 + len) else {
            break;
        };
        frames.push(frame.to_vec());
        rest = rest.get(2 + len..).unwrap_or(&[]);
    }
    let (ckpt, wal) = if flags & 1 != 0 && !frames.is_empty() {
        let mut it = frames.into_iter();
        (it.next(), it.collect())
    } else {
        (None, frames)
    };
    for f in &wal {
        if let Some(rec) = AcWalRecord::from_bytes(f) {
            assert_eq!(&rec.to_bytes(), f, "AC WAL record re-encodes differently");
        }
        let _ = RsWalRecord::from_bytes(f);
    }
    if let Some(c) = &ckpt {
        if let Some(cp) = AcCheckpoint::from_bytes(c) {
            assert_eq!(&cp.to_bytes(), c, "AC checkpoint re-encodes differently");
            if let Some(raw) = &cp.snapshot {
                snapshot_round_trip(raw);
            }
        }
        snapshot_round_trip(c);
        let _ = RsCheckpoint::from_bytes(c);
    }
    let _ = replay_ac(AcCheckpoint::default(), ckpt.as_deref(), &wal);
    let rs_start = RsCheckpoint {
        next_client: 1,
        next_area: 0,
        directory: AcDirectory::default(),
    };
    let _ = replay_rs(rs_start, ckpt.as_deref(), &wal);
}

/// The one replica-snapshot codec: decode → encode is the identity on
/// every input that decodes.
fn snapshot_round_trip(bytes: &[u8]) {
    if let Some(snap) = AcSnapshot::from_bytes(bytes) {
        assert_eq!(snap.to_bytes(), bytes, "replica snapshot re-encodes differently");
    }
}

fn frame_up(flags: u8, frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = vec![flags];
    for f in frames {
        let len = u16::try_from(f.len()).unwrap_or(u16::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(f.get(..usize::from(len)).unwrap_or(f));
    }
    out
}

fn seeds_durable_replay() -> Vec<(&'static str, Vec<u8>)> {
    let ac_ckpt = AcCheckpoint {
        primary: true,
        primary_node: 0,
        takeover_epoch: 3,
        peer_takeover_epoch: 2,
        sync_seq: 7,
        applied_sync_seq: 6,
        stale_peer: Some(4),
        backup: Some((5, vec![1, 2, 3, 4])),
        snapshot: Some(vec![9; 24]),
    };
    let ac_wal = [
        AcWalRecord::Join(DurableMember {
            client: 10,
            node: 2,
            pubkey: vec![7; 8],
            device: Some([1, 2, 3, 4, 5, 6]),
            valid_until_us: 1_000_000,
        }),
        AcWalRecord::Leave { client: 10 },
        AcWalRecord::Evict { client: 11 },
        AcWalRecord::Promoted {
            takeover_epoch: 4,
            old_primary: 1,
        },
        AcWalRecord::Demoted { new_primary: 1 },
    ];
    let mut ac_frames = vec![ac_ckpt.to_bytes()];
    ac_frames.extend(ac_wal.iter().map(|r| r.to_bytes()));

    let rs_ckpt = RsCheckpoint {
        next_client: 12,
        next_area: 3,
        directory: AcDirectory {
            entries: Vec::new(),
        },
    };
    let rs_wal = [
        RsWalRecord::ClientAssigned { client: 12 },
        RsWalRecord::DirectoryUpsert {
            area: 1,
            node: 6,
            pubkey: vec![3; 8],
        },
    ];
    let mut rs_frames = vec![rs_ckpt.to_bytes()];
    rs_frames.extend(rs_wal.iter().map(|r| r.to_bytes()));

    let wal_only: Vec<Vec<u8>> = ac_wal.iter().map(|r| r.to_bytes()).collect();

    vec![
        ("seed-ac.bin", frame_up(1, &ac_frames)),
        ("seed-ac-real.bin", frame_up(1, &real_primary_frames())),
        ("seed-rs.bin", frame_up(1, &rs_frames)),
        ("seed-wal-only.bin", frame_up(0, &wal_only)),
        ("seed-empty.bin", vec![0]),
    ]
}

/// A real primary's durable state: the checkpoint of a settled
/// 3-member child area (tree, member keys, parent link and parent keys
/// as the controller wrote them) and its WAL suffix, plus a `Leave` of
/// its first member so the fold has an op to apply.
fn real_primary_frames() -> Vec<Vec<u8>> {
    let mut g = GroupBuilder::new(3).rsa_bits(512).areas(2).replicated(true).build();
    // Round-robin placement: three members per area.
    for i in 0..6 {
        g.register_member(i);
    }
    g.settle();
    let Some(&primary) = g.primaries.get(1) else {
        return Vec::new();
    };
    let rec = g.sim.storage(primary).load();
    let mut frames: Vec<Vec<u8>> = rec.checkpoint.into_iter().map(|(_, c)| c).collect();
    frames.extend(rec.wal);
    if let Some(&client) = g.ac(1).member_ids().iter().next() {
        frames.push(AcWalRecord::Leave { client }.to_bytes());
    }
    frames
}

// ---------------------------------------------------------------------
// area-replay: scale checkpoint decode + journal refold
// ---------------------------------------------------------------------

/// Mirrors the validated recovery path: decode the checkpoint, and
/// only refold journals whose seeded base passes the same
/// `seeded <= cfg.members` bound `on_restarted` enforces — an
/// unvalidated `seeded` would make `AreaState::replay` loop for up to
/// 2^64 iterations, which is the bug the committed
/// `regression-huge-seeded.bin` fixture pins.
fn run_area_replay(data: &[u8]) {
    let _ = ScaleEvent::decode(data);
    if let Some((seeded, journal)) = decode_checkpoint(data) {
        let mut cfg = ScaleConfig::paper_million();
        cfg.members = 4096;
        cfg.areas = 4;
        if seeded <= cfg.members {
            let state = AreaState::replay(&cfg, seeded, &journal);
            let _ = state.live();
        }
    }
}

fn seeds_area_replay() -> Vec<(&'static str, Vec<u8>)> {
    let journal = [
        ScaleEvent::Join(1),
        ScaleEvent::Join(2),
        ScaleEvent::Demote(1),
        ScaleEvent::Promote(9),
        ScaleEvent::HotLeave(9),
        ScaleEvent::ColdBatch(2),
        ScaleEvent::MoveOut(5),
        ScaleEvent::MoveIn(6),
    ];
    let valid = encode_checkpoint(3, &journal);

    // Regression fixture: a checkpoint whose claimed event count is
    // inflated far past the actual body. The original decoder passed
    // the claimed count straight to `Vec::with_capacity` (capacity
    // overflow panic / OOM abort); `decode_checkpoint` now rejects any
    // count that disagrees with the body length.
    let mut inflated = Vec::new();
    inflated.extend_from_slice(&3u64.to_le_bytes());
    inflated.extend_from_slice(&u64::MAX.to_le_bytes());

    // Regression fixture: a well-formed checkpoint claiming a seeded
    // base population of 2^64-1. Decodes fine — the hang guard lives in
    // the recovery validation (`seeded <= cfg.members`), which this
    // target mirrors and `on_restarted` enforces before refolding.
    let huge_seeded = encode_checkpoint(u64::MAX, &[]);

    vec![
        ("seed-valid.bin", valid),
        ("seed-empty-journal.bin", encode_checkpoint(7, &[])),
        ("regression-inflated-count.bin", inflated),
        ("regression-huge-seeded.bin", huge_seeded),
    ]
}

// ---------------------------------------------------------------------
// fault-plan: chaos schedule text round trip
// ---------------------------------------------------------------------

/// Parses arbitrary (lossily decoded) text as a fault plan; any plan
/// that parses must serialize to a form that re-parses to the same
/// serialization (the dump-and-replay contract of `ChaosDriver`).
fn run_fault_plan(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(plan) = FaultPlan::parse(&text) {
        let dumped = plan.serialize();
        match FaultPlan::parse(&dumped) {
            Ok(again) => assert_eq!(
                again.serialize(),
                dumped,
                "fault plan serialize→parse→serialize diverged"
            ),
            Err(e) => panic!("serialized fault plan failed to re-parse: {e}\n{dumped}"),
        }
    }
}

fn seeds_fault_plan() -> Vec<(&'static str, Vec<u8>)> {
    let every_verb = "\
# every chaos verb, one per line
0 crash 1
1000 restart 1
2000 partition 2 3
3000 heal
4000 cut 0 1
5000 restore 0 1
6000 loss 50
7000 dup 10
8000 reorder 25 1500
9000 skew 1 200
10000 lost-tail 2
11000 torn 3
12000 ckpt-corrupt 1
13000 wal-short-read 2
14000 wal-append-fail 0
15000 ckpt-slot-corrupt 1 0
16000 storage-heal 2
";
    vec![
        ("seed-every-verb.txt", every_verb.as_bytes().to_vec()),
        (
            "seed-comments.txt",
            b"# comment only\n\n   \n17 crash 0\n".to_vec(),
        ),
        ("seed-bad-verb.txt", b"0 explode 1\n".to_vec()),
        (
            "seed-node-range.txt",
            b"0 crash 4294967296\n".to_vec(),
        ),
        // Regression: per-mille rates and partition labels are u32 in
        // the specs; a 2^32 rate used to truncate silently to 0 instead
        // of failing with a line-numbered range error.
        (
            "regression-rate-range.txt",
            b"0 loss 4294967296\n".to_vec(),
        ),
    ]
}

// ---------------------------------------------------------------------
// tree-snapshot: auxiliary-tree replica image decode (both backends)
// ---------------------------------------------------------------------

/// Feeds arbitrary bytes to [`mykil_tree::AreaTree`]'s `restore` —
/// the decoder a backup controller runs on every replicated snapshot,
/// dispatching on the `MKT1`/`MKH1` magic. Any input that restores must
/// (a) pass the tree's full structural invariant check and (b)
/// re-encode to exactly the input bytes: restore hardening makes every
/// accepted image canonical, so both oracles are safe on fuzz-shaped
/// data. The restored tree must then stay operable the way a promoted
/// backup uses it: one fresh member joins, one existing member (if
/// any) leaves, and the invariants still hold.
fn run_tree_snapshot(data: &[u8]) {
    use mykil_tree::{AreaTree, MemberId};
    if let Ok(mut tree) = AreaTree::restore(data) {
        tree.check_invariants();
        assert_eq!(
            tree.snapshot(),
            data,
            "restored tree re-encoded differently (snapshot not canonical)"
        );
        let mut rng = Drbg::from_seed(0);
        let fresh = (0..).map(MemberId).find(|m| !tree.contains(*m));
        let fresh = fresh.expect("a finite tree leaves some member id free");
        let leaver = tree.members().next();
        tree.join(fresh, &mut rng).expect("fresh member joins");
        if let Some(m) = leaver {
            tree.leave(m, &mut rng).expect("existing member leaves");
        }
        tree.check_invariants();
    }
}

fn seeds_tree_snapshot() -> Vec<(&'static str, Vec<u8>)> {
    use mykil_tree::{AreaTree, MemberId, TreeBackend, TreeConfig};
    let mut rng = Drbg::from_seed(23);

    // Explicit (MKT1) image with joins and a leave.
    let mut explicit = AreaTree::new(TreeConfig::quad(), &mut rng);
    for m in 0..12 {
        let _ = explicit.join(MemberId(m), &mut rng);
    }
    let _ = explicit.leave(MemberId(4), &mut rng);

    // KHF (MKH1) image whose override table is non-empty: leaves force
    // Fresh rotations, exercising the tail decode with override
    // entries (count, strictly-increasing node indices, key bytes).
    let mut khf = AreaTree::new(TreeConfig::quad().with_backend(TreeBackend::Khf), &mut rng);
    for m in 0..12 {
        let _ = khf.join(MemberId(m), &mut rng);
    }
    let _ = khf.leave(MemberId(2), &mut rng);
    let _ = khf.leave(MemberId(9), &mut rng);

    // Empty trees: smallest valid image of each format.
    let empty_explicit = AreaTree::new(TreeConfig::binary(), &mut rng);
    let empty_khf = AreaTree::new(TreeConfig::binary().with_backend(TreeBackend::Khf), &mut rng);

    // A truncated KHF tail: valid nodes, override count pointing past
    // the end — the exact shape the hardened restore must reject.
    let mut truncated = khf.snapshot();
    truncated.truncate(truncated.len().saturating_sub(9));

    // Regression fixture: a valid header claiming 2^64-1 nodes over a
    // tiny body. The original restore passed the claimed count straight
    // to `Vec::with_capacity` (capacity-overflow abort); restore now
    // bounds the count by what the input bytes can actually hold.
    let mut inflated = b"MKT1".to_vec();
    inflated.push(4);
    inflated.extend_from_slice(&u64::MAX.to_be_bytes());
    inflated.extend_from_slice(&[0u8; 24]);

    // A one-node image whose root is an occupied leaf: the decoder
    // accepts it though no tree writes it, and the post-restore join
    // must split the root itself.
    let mut root_occupant = b"MKH1".to_vec();
    root_occupant.push(2);
    root_occupant.extend_from_slice(&1u64.to_be_bytes());
    root_occupant.extend_from_slice(&[0u8; 16]); // no parent, version 0
    root_occupant.push(1);
    root_occupant.extend_from_slice(&0u64.to_be_bytes());
    root_occupant.extend_from_slice(&[7u8; 32]); // forest secret
    root_occupant.extend_from_slice(&0u64.to_be_bytes());

    vec![
        ("seed-explicit.bin", explicit.snapshot()),
        ("seed-khf-overrides.bin", khf.snapshot()),
        ("seed-empty-explicit.bin", empty_explicit.snapshot()),
        ("seed-empty-khf.bin", empty_khf.snapshot()),
        ("seed-khf-truncated-tail.bin", truncated),
        ("regression-inflated-count.bin", inflated),
        ("seed-root-occupant.bin", root_occupant),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed must already run clean — the corpus is a regression
    /// suite, not a crash gallery.
    #[test]
    fn builtin_seeds_run_clean() {
        for t in all() {
            for (name, bytes) in (t.seeds)() {
                (t.run)(&bytes);
                let _ = name;
            }
        }
    }

    /// The real-checkpoint seed really is a 3-member primary whose
    /// snapshot survives the codec round trip.
    #[test]
    fn real_primary_seed_is_a_three_member_primary() {
        let frames = real_primary_frames();
        let cp = frames
            .first()
            .and_then(|c| AcCheckpoint::from_bytes(c))
            .expect("seed starts with a checkpoint");
        assert!(cp.primary);
        let raw = cp.snapshot.expect("primary checkpoint embeds a snapshot");
        let snap = AcSnapshot::from_bytes(&raw).expect("snapshot decodes");
        assert_eq!(snap.members.len(), 3);
        assert!(snap.parent.is_some());
        assert_eq!(snap.to_bytes(), raw);
    }

    /// The root-occupant seed is accepted, so fuzzing reaches the
    /// post-restore split of an occupied root.
    #[test]
    fn root_occupant_seed_restores() {
        let (_, bytes) = seeds_tree_snapshot()
            .into_iter()
            .find(|(name, _)| *name == "seed-root-occupant.bin")
            .expect("seed registered");
        let tree = mykil_tree::AreaTree::restore(&bytes).expect("seed restores");
        assert_eq!(tree.leaf_of(mykil_tree::MemberId(0)), Ok(tree.root()));
    }

    #[test]
    fn target_names_are_unique_and_findable() {
        let ts = all();
        for t in &ts {
            assert!(find(t.name).is_some());
        }
        let mut names: Vec<_> = ts.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ts.len());
    }

    /// The committed corpus under `tests/corpus/` replays clean against
    /// today's decoders. This is the tier-1 guard that keeps every
    /// fixed crash fixed: a regression re-panics right here, long
    /// before any fuzzing budget is spent.
    #[test]
    fn committed_corpus_replays_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/corpus");
        if !root.is_dir() {
            return; // corpus not generated yet (fresh checkout mid-build)
        }
        for t in all() {
            let dir = root.join(t.name);
            if !dir.is_dir() {
                continue;
            }
            let mut entries: Vec<_> = std::fs::read_dir(&dir)
                .expect("read corpus dir")
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .collect();
            entries.sort();
            assert!(
                !entries.is_empty(),
                "empty committed corpus for {}",
                t.name
            );
            for path in entries {
                let bytes = std::fs::read(&path).expect("read corpus file");
                (t.run)(&bytes);
            }
        }
    }
}
