//! Stable storage: a per-node write-ahead log plus dual checkpoint
//! slots, behind the pluggable [`StableStore`] trait.
//!
//! Every simulated process owns one `Box<dyn StableStore>`, reachable
//! from any callback via [`Context::storage`](crate::Context::storage).
//! Three implementations ship:
//!
//! - [`SimStore`] — the in-memory simulated device: deterministic and
//!   honest (a crash loses exactly the unsynced tail); like
//!   [`FileStore`](crate::FileStore), it models only checkpoint bit-rot.
//! - [`FileStore`](crate::FileStore) — real files: an append-only WAL
//!   of checksummed length-prefixed records plus two ping-pong
//!   checkpoint slot files, with explicit sync barriers modeling
//!   `O_SYNC` (see `file_store.rs` for the on-disk layout).
//! - [`FaultyStore`] — a wrapper that injects every device fault
//!   (lost tail, torn write, short read, dropped appends) against *any*
//!   backend and forwards medium bit-rot to it. The simulator's default
//!   store is `FaultyStore<SimStore>`, so the whole fault matrix runs
//!   through one code path, against simulated and real files alike.
//!
//! The storage model mirrors a real fsync-based design:
//!
//! - [`StableStore::wal_append`] stages a record in the device cache;
//!   [`StableStore::sync`] makes the cached tail durable (protocol
//!   code normally uses the combined [`StableStore::wal_commit`]).
//! - [`StableStore::checkpoint`] writes a full-state snapshot into the
//!   older of two slots (classic ping-pong), records the WAL position
//!   it covers, and truncates the log prefix no longer needed by
//!   either slot. Slot metadata (sequence, WAL position) is kept apart
//!   from the payload, so payload corruption never forges a valid
//!   newer slot.
//! - [`StableStore::load`] is the recovery read path: it returns the
//!   newest *valid* checkpoint and the durable WAL suffix past it,
//!   stopping at the first record whose checksum fails.
//!
//! In [`SimStore`] checksums are modeled, not computed: a record or
//! slot carries a validity flag that bit-rot or a torn write clears,
//! exactly as a real CRC mismatch would read back. Faults are injected
//! only through [`StableStore::inject`] with a [`StoreFault`] (the
//! `torn` / `lost-tail` / `ckpt-corrupt` / `wal-short-read` /
//! `wal-append-fail` / `ckpt-slot-corrupt` chaos verbs route there).
//!
//! All buffers that may hold key material are wrapped in
//! [`SecretBytes`], which zeroizes on drop.

use mykil_crypto::ct;

/// A byte buffer that zeroizes its contents on drop. WAL records and
/// checkpoint payloads routinely contain wrapped keys and key-tree
/// snapshots; dropping them must not leave plaintext in freed memory
/// (same idiom as `mykil_crypto::keys::SymmetricKey`).
#[derive(Clone)]
pub struct SecretBytes(Vec<u8>);

impl SecretBytes {
    /// Wraps `bytes`, taking ownership.
    pub fn new(bytes: Vec<u8>) -> SecretBytes {
        SecretBytes(bytes)
    }

    /// Read access to the wrapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length of the wrapped buffer.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Drop for SecretBytes {
    fn drop(&mut self) {
        ct::zeroize(&mut self.0);
    }
}

/// Constant-time comparison: replica snapshots are compared in tests
/// and assertions, and a derived `PartialEq` would leak their contents
/// through timing.
impl PartialEq for SecretBytes {
    fn eq(&self, other: &SecretBytes) -> bool {
        ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for SecretBytes {}

impl std::fmt::Debug for SecretBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretBytes({} bytes)", self.0.len())
    }
}

/// A fault injectable into a [`StableStore`] via
/// [`StableStore::inject`]. Backends support different subsets; an
/// unsupported injection returns `false` and changes nothing (the
/// simulator surfaces it as a `storage-fault-unsupported` stat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Lying fsync: every `sync` until the next crash reports success
    /// without persisting; the crash discards the unsynced tail
    /// cleanly (a lying-fsync power loss).
    LostTail,
    /// Like [`StoreFault::LostTail`], except the crash leaves the
    /// first cached record *torn* — present but checksum-invalid, so
    /// recovery must detect and discard it.
    TornWrite,
    /// Bit-rot in the newest valid checkpoint slot's payload, applied
    /// immediately; recovery falls back to the other slot and a
    /// longer WAL replay.
    CorruptCheckpoint,
    /// Reads of the WAL come back short until healed: `load` returns
    /// the final record truncated to half its length. Models a
    /// partial read of the log tail; decoders must reject the stub.
    ShortRead,
    /// WAL appends are silently dropped until healed (a device that
    /// acknowledges writes it never performs).
    AppendFail,
    /// Bit-rot targeting a specific ping-pong slot (0 or 1),
    /// regardless of which is newest.
    CorruptSlot(u8),
}

/// What a recovering node reads back from stable storage.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Newest valid checkpoint payload, with its sequence number.
    // mykil-lint: allow(L002) -- recovery output, consumed and parsed
    // within the restart callback; at-rest copies stay SecretBytes.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Durable, checksum-valid WAL records past the checkpoint (all
    /// records when there is no checkpoint), oldest first.
    // mykil-lint: allow(L002) -- recovery output, consumed and parsed
    // within the restart callback; at-rest copies stay SecretBytes.
    pub wal: Vec<Vec<u8>>,
}

/// Pluggable stable storage for one node: WAL + ping-pong checkpoint
/// slots + crash/fault semantics. The `storage.rs` module docs describe
/// the storage model and the implementations.
///
/// Object-safe: the simulator holds one `Box<dyn StableStore>` per
/// node and a factory can swap the backend per deployment
/// ([`Simulator::set_storage_factory`](crate::Simulator::set_storage_factory)).
pub trait StableStore: std::fmt::Debug + Send {
    /// Stages a WAL record in the device cache; not durable until
    /// [`Self::sync`] (use [`Self::wal_commit`] for the common
    /// append-then-fsync pattern).
    fn wal_append(&mut self, bytes: Vec<u8>);

    /// Flushes the cache to the durable log (an fsync barrier). Under
    /// a lying-sync fault armed in a [`FaultyStore`] this *reports*
    /// success but persists nothing — the lie is only observable
    /// through the next crash.
    fn sync(&mut self);

    /// Appends one record and syncs: the write-ahead discipline
    /// protocol code uses before acknowledging a state change.
    fn wal_commit(&mut self, bytes: Vec<u8>) {
        self.wal_append(bytes);
        self.sync();
    }

    /// Writes a full-state snapshot covering everything appended so
    /// far (implicitly syncing the WAL tail first) into the older of
    /// the two ping-pong slots, then truncates the WAL prefix neither
    /// slot needs any more.
    fn checkpoint(&mut self, payload: Vec<u8>);

    /// Appends one record that is durable but reads back
    /// checksum-invalid, as a torn write would leave it. The record
    /// occupies a WAL position; [`Self::load`] stops in front of it.
    /// Used by [`FaultyStore`] to realize torn-write crashes against
    /// any backend, and by tests crafting hostile logs.
    fn append_torn(&mut self, bytes: Vec<u8>);

    /// Recovery read path: newest valid checkpoint plus the durable,
    /// checksum-valid WAL suffix past it. A checksum-invalid (torn)
    /// record ends the replayable suffix.
    fn load(&self) -> Recovered;

    /// Injects `fault`; returns whether this backend supports that
    /// fault kind. Lying-sync faults are consumed by the next crash;
    /// read-path faults persist until [`Self::heal`].
    fn inject(&mut self, fault: StoreFault) -> bool;

    /// Disarms injected device faults (lying sync, short read, append
    /// failure) and honestly flushes the cache — the device comes
    /// back well-behaved. Already-written corruption stays.
    fn heal(&mut self);

    /// Applies crash semantics to the device cache and consumes any
    /// armed lying-sync fault; returns a stat label when an armed
    /// fault actually fired. Called by the simulator when the owning
    /// node crashes; tests may call it directly to model a crash.
    fn on_crash(&mut self) -> Option<&'static str>;

    /// Whether anything durable exists (a checkpoint or WAL record).
    fn has_durable_state(&self) -> bool;

    /// Number of `sync` calls (honest or lied-to) so far.
    fn sync_count(&self) -> u64;

    /// Number of checkpoints written so far.
    fn checkpoint_count(&self) -> u64;
}

/// One durable WAL record. `valid` models the stored checksum: a torn
/// write reads back with `valid == false` and recovery discards it
/// (and, by append-only construction, everything after it).
#[derive(Debug, Clone)]
struct WalRecord {
    bytes: SecretBytes,
    valid: bool,
}

/// One checkpoint slot. Metadata (`seq`, `wal_pos`) lives outside the
/// corruptible payload: bit-rot can invalidate a slot but never promote
/// it.
#[derive(Debug, Clone)]
struct CheckpointSlot {
    /// Monotone checkpoint sequence; recovery picks the valid slot with
    /// the highest value.
    seq: u64,
    /// Absolute WAL position this snapshot covers: recovery replays
    /// durable records from here on.
    wal_pos: u64,
    payload: SecretBytes,
    /// Models the payload checksum verifying on read-back.
    valid: bool,
}

/// Simulated stable storage for one node: an honest device (model in
/// `storage.rs`); wrap it in [`FaultyStore`] for device faults.
#[derive(Debug, Default)]
pub struct SimStore {
    /// Durable log records; index 0 is absolute position `wal_base`.
    wal: Vec<WalRecord>,
    /// Absolute position of `wal[0]` (the prefix below it has been
    /// truncated away by checkpointing).
    wal_base: u64,
    /// Appended but not yet durable (device cache).
    cached: Vec<SecretBytes>,
    /// Ping-pong checkpoint slots.
    slots: [Option<CheckpointSlot>; 2],
    /// Syncs so far.
    syncs: u64,
    /// Checkpoints so far; also the newest checkpoint's sequence.
    checkpoints: u64,
}

impl SimStore {
    /// Creates empty storage (factory-fresh disk).
    pub fn new() -> SimStore {
        SimStore::default()
    }
}

impl StableStore for SimStore {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        self.cached.push(SecretBytes::new(bytes));
    }

    fn sync(&mut self) {
        self.syncs += 1;
        for rec in self.cached.drain(..) {
            self.wal.push(WalRecord {
                bytes: rec,
                valid: true,
            });
        }
    }

    /// Writes the slot over the older of the two ping-pong slots, then
    /// truncates the WAL prefix neither slot needs any more.
    fn checkpoint(&mut self, payload: Vec<u8>) {
        self.checkpoints += 1;
        self.sync();
        let slot = CheckpointSlot {
            seq: self.checkpoints,
            wal_pos: self.wal_base + self.wal.len() as u64,
            payload: SecretBytes::new(payload),
            valid: true,
        };
        let target = match &self.slots {
            [None, _] => 0,
            [_, None] => 1,
            [Some(a), Some(b)] => usize::from(a.seq > b.seq),
        };
        if let Some(t) = self.slots.get_mut(target) {
            *t = Some(slot);
        }
        let keep_from = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.wal_pos)
            .min()
            .unwrap_or(self.wal_base);
        if keep_from > self.wal_base {
            let drop_n = ((keep_from - self.wal_base) as usize).min(self.wal.len());
            self.wal.drain(..drop_n);
            self.wal_base += drop_n as u64;
        }
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        self.wal.push(WalRecord {
            bytes: SecretBytes::new(bytes),
            valid: false,
        });
    }

    fn load(&self) -> Recovered {
        let best = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.valid)
            .max_by_key(|s| s.seq);
        let from = best.map(|s| s.wal_pos).unwrap_or(0).max(self.wal_base);
        let mut wal = Vec::new();
        for rec in self.wal.iter().skip((from - self.wal_base) as usize) {
            if !rec.valid {
                break;
            }
            wal.push(rec.bytes.as_slice().to_vec());
        }
        Recovered {
            checkpoint: best.map(|s| (s.seq, s.payload.as_slice().to_vec())),
            wal,
        }
    }

    /// Medium bit-rot only: invalidates the newest valid slot
    /// ([`StoreFault::CorruptCheckpoint`]) or a given one.
    fn inject(&mut self, fault: StoreFault) -> bool {
        let slot = match fault {
            StoreFault::CorruptCheckpoint => self
                .slots
                .iter_mut()
                .flatten()
                .filter(|s| s.valid)
                .max_by_key(|s| s.seq),
            StoreFault::CorruptSlot(i) => {
                self.slots.get_mut(usize::from(i)).and_then(|s| s.as_mut())
            }
            StoreFault::LostTail
            | StoreFault::TornWrite
            | StoreFault::ShortRead
            | StoreFault::AppendFail => return false,
        };
        if let Some(slot) = slot {
            slot.valid = false;
        }
        true
    }

    fn heal(&mut self) {
        self.sync();
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        // The device cache dies with the process; the medium survives.
        self.cached.clear();
        None
    }

    fn has_durable_state(&self) -> bool {
        !self.wal.is_empty() || self.slots.iter().any(|s| s.is_some())
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }
}

/// The armed lying-sync failure mode (consumed by the next crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArmedFault {
    None,
    /// Crash discards the whole unsynced tail.
    LostTail,
    /// Crash persists the first parked record torn (checksum-invalid)
    /// and discards the rest.
    TornWrite,
}

/// A write parked in [`FaultyStore`] while a lying sync is armed; a
/// lying sync swallows slot writes together with the WAL tail.
#[derive(Debug)]
enum Parked {
    Rec(SecretBytes),
    Ckpt(SecretBytes),
}

/// The one fault-injection layer, over any [`StableStore`] backend (the
/// simulator's default store is `FaultyStore<SimStore>`).
///
/// Unarmed, every write goes straight to `inner`, with no copy or
/// allocation of its own. Once a lying sync is armed, appends and
/// checkpoints park here until an honest [`StableStore::heal`]; a
/// crash discards them, tearing the first parked record under
/// [`StoreFault::TornWrite`]. Medium bit-rot is forwarded to `inner`.
#[derive(Debug)]
pub struct FaultyStore<S> {
    inner: S,
    /// Writes parked since a lying sync was armed; empty otherwise.
    parked: Vec<Parked>,
    armed: ArmedFault,
    short_read: bool,
    append_fail: bool,
    syncs: u64,
    checkpoints: u64,
}

impl<S: StableStore> FaultyStore<S> {
    /// Wraps `inner` with no faults armed.
    pub fn new(inner: S) -> FaultyStore<S> {
        FaultyStore {
            inner,
            parked: Vec::new(),
            armed: ArmedFault::None,
            short_read: false,
            append_fail: false,
            syncs: 0,
            checkpoints: 0,
        }
    }
}

impl<S: StableStore> StableStore for FaultyStore<S> {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        if self.append_fail {
            // Acknowledged and dropped; zeroize the buffer on the way out.
            drop(SecretBytes::new(bytes));
        } else if self.armed == ArmedFault::None {
            self.inner.wal_append(bytes);
        } else {
            self.parked.push(Parked::Rec(SecretBytes::new(bytes)));
        }
    }

    fn sync(&mut self) {
        self.syncs += 1;
        if self.armed == ArmedFault::None {
            self.inner.sync();
        }
    }

    fn checkpoint(&mut self, payload: Vec<u8>) {
        self.checkpoints += 1;
        if self.armed == ArmedFault::None {
            // A checkpoint syncs the WAL tail first.
            self.syncs += 1;
            self.inner.checkpoint(payload);
            return;
        }
        // Park at the current cache position. Only the most recent
        // parked checkpoint survives to a heal: a newer snapshot
        // written into the same lying cache supersedes the older one.
        self.parked.retain(|p| matches!(p, Parked::Rec(_)));
        self.parked.push(Parked::Ckpt(SecretBytes::new(payload)));
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        self.inner.append_torn(bytes);
    }

    fn load(&self) -> Recovered {
        let mut r = self.inner.load();
        if self.short_read {
            if let Some(last) = r.wal.last_mut() {
                // The tail read comes back short: half the record.
                last.truncate(last.len() / 2);
            }
        }
        r
    }

    fn inject(&mut self, fault: StoreFault) -> bool {
        match fault {
            StoreFault::LostTail => self.armed = ArmedFault::LostTail,
            StoreFault::TornWrite => self.armed = ArmedFault::TornWrite,
            StoreFault::ShortRead => self.short_read = true,
            StoreFault::AppendFail => self.append_fail = true,
            StoreFault::CorruptCheckpoint | StoreFault::CorruptSlot(_) => {
                return self.inner.inject(fault)
            }
        }
        true
    }

    /// Disarms every fault and flushes the parked writes in order, so a
    /// parked checkpoint lands where an honest device would have put it.
    fn heal(&mut self) {
        self.armed = ArmedFault::None;
        self.short_read = false;
        self.append_fail = false;
        self.syncs += 1;
        for entry in self.parked.drain(..) {
            match entry {
                Parked::Rec(bytes) => self.inner.wal_append(bytes.as_slice().to_vec()),
                Parked::Ckpt(payload) => self.inner.checkpoint(payload.as_slice().to_vec()),
            }
        }
        self.inner.heal();
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        let armed = std::mem::replace(&mut self.armed, ArmedFault::None);
        let had_tail = !self.parked.is_empty();
        if armed == ArmedFault::TornWrite {
            if let Some(first) = self.parked.iter().find_map(|p| match p {
                Parked::Rec(b) => Some(b.as_slice().to_vec()),
                Parked::Ckpt(_) => None,
            }) {
                self.inner.append_torn(first);
            }
        }
        self.parked.clear();
        let inner_stat = self.inner.on_crash();
        match armed {
            ArmedFault::TornWrite if had_tail => Some("storage-torn-write"),
            ArmedFault::LostTail if had_tail => Some("storage-lost-tail"),
            _ => inner_stat,
        }
    }

    fn has_durable_state(&self) -> bool {
        self.inner.has_durable_state()
    }

    fn sync_count(&self) -> u64 {
        self.syncs
    }

    fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(s: &mut dyn StableStore) -> Option<&'static str> {
        s.on_crash()
    }

    #[test]
    fn commit_then_load_replays_everything() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.wal_commit(vec![2]);
        crash(&mut s);
        let r = s.load();
        assert!(r.checkpoint.is_none());
        assert_eq!(r.wal, vec![vec![1], vec![2]]);
    }

    #[test]
    fn unsynced_tail_is_lost_even_without_faults() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.wal_append(vec![2]); // never synced
        crash(&mut s);
        assert_eq!(s.load().wal, vec![vec![1]]);
    }

    #[test]
    fn checkpoint_covers_wal_and_truncates() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.checkpoint(vec![0xAA]);
        s.wal_commit(vec![2]);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert_eq!(r.wal, vec![vec![2]]);
        // Second checkpoint: the prefix below the older slot is gone,
        // but the newer slot still replays from its own position.
        s.checkpoint(vec![0xBB]);
        s.wal_commit(vec![3]);
        let r = s.load();
        assert_eq!(r.checkpoint, Some((2, vec![0xBB])));
        assert_eq!(r.wal, vec![vec![3]]);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_slot() {
        let mut s = SimStore::new();
        s.wal_commit(vec![1]);
        s.checkpoint(vec![0xAA]); // covers record 1
        s.wal_commit(vec![2]);
        s.checkpoint(vec![0xBB]); // covers records 1-2
        s.wal_commit(vec![3]);
        assert!(s.inject(StoreFault::CorruptCheckpoint));
        let r = s.load();
        // The older slot wins; its longer WAL suffix is still durable
        // because truncation only drops below the *older* position.
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert_eq!(r.wal, vec![vec![2], vec![3]]);
        // Both slots corrupt: full WAL replay from the base.
        s.inject(StoreFault::CorruptCheckpoint);
        let r = s.load();
        assert!(r.checkpoint.is_none());
        assert_eq!(r.wal, vec![vec![2], vec![3]]);
    }

    #[test]
    fn corruption_never_forges_a_newer_slot() {
        let mut s = SimStore::new();
        s.checkpoint(vec![0xAA]);
        s.checkpoint(vec![0xBB]);
        s.inject(StoreFault::CorruptCheckpoint);
        // seq 2 is invalid; seq 1 must be chosen even though slot 0
        // holds it (order of slots is irrelevant).
        assert_eq!(s.load().checkpoint, Some((1, vec![0xAA])));
    }

    #[test]
    fn secret_bytes_zeroize_on_drop() {
        // Indirect check: dropping the buffer leaves no panic and the
        // wrapper reports its contents faithfully before the drop.
        let sb = SecretBytes::new(vec![7; 32]);
        assert_eq!(sb.as_slice(), &[7; 32]);
        assert_eq!(sb.len(), 32);
        assert!(!sb.is_empty());
        drop(sb);
    }

    /// The bare device models only medium faults; device dishonesty
    /// needs the wrapper.
    #[test]
    fn sim_store_rejects_device_faults() {
        let mut s = SimStore::new();
        for fault in [
            StoreFault::LostTail,
            StoreFault::TornWrite,
            StoreFault::ShortRead,
            StoreFault::AppendFail,
        ] {
            assert!(!s.inject(fault), "{fault:?}");
        }
        s.wal_commit(vec![1]);
        s.wal_append(vec![2]);
        assert_eq!(crash(&mut s), None);
        assert_eq!(s.load().wal, vec![vec![1]]);
    }

    // ---- FaultyStore: every device fault, here over the simulator's
    // default backend. ----

    fn faulty() -> FaultyStore<SimStore> {
        FaultyStore::new(SimStore::new())
    }

    #[test]
    fn faulty_honest_path_delegates() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]);
        f.wal_commit(vec![2]);
        let r = f.load();
        assert_eq!(r.checkpoint.map(|(_, p)| p), Some(vec![0xAA]));
        assert_eq!(r.wal, vec![vec![2]]);
        assert!(f.has_durable_state());
    }

    #[test]
    fn faulty_lost_tail_matches_sim_semantics() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![2]);
        f.wal_commit(vec![3]);
        assert_eq!(f.on_crash(), Some("storage-lost-tail"));
        assert_eq!(f.load().wal, vec![vec![1]]);
        f.wal_commit(vec![4]);
        f.on_crash();
        assert_eq!(f.load().wal, vec![vec![1], vec![4]]);
    }

    #[test]
    fn faulty_torn_write_tears_first_parked_record() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::TornWrite);
        f.wal_commit(vec![2]);
        f.wal_commit(vec![3]);
        assert_eq!(f.on_crash(), Some("storage-torn-write"));
        // The torn record occupies a log position: a later commit sits
        // behind it and the replayable suffix still ends at record 1.
        f.wal_commit(vec![4]);
        assert_eq!(f.load().wal, vec![vec![1]]);
    }

    #[test]
    fn torn_write_leaves_invalid_record_that_load_discards() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::TornWrite);
        f.wal_commit(vec![2]);
        f.wal_commit(vec![3]);
        assert_eq!(f.on_crash(), Some("storage-torn-write"));
        // Record 2 is present-but-torn: the replayable suffix ends
        // before it, record 3 is gone entirely.
        assert_eq!(f.load().wal, vec![vec![1]]);
        assert_eq!(f.inner.wal.len(), 2, "torn record occupies the log");
    }

    #[test]
    fn lying_sync_swallows_checkpoints_too() {
        let mut f = faulty();
        f.checkpoint(vec![0xAA]);
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xBB]); // parked in the cache
        assert_eq!(f.on_crash(), Some("storage-lost-tail"));
        let r = f.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert!(r.wal.is_empty());
    }

    #[test]
    fn heal_installs_the_parked_tail() {
        let mut f = faulty();
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]);
        f.heal();
        f.on_crash();
        let r = f.load();
        assert_eq!(r.checkpoint, Some((1, vec![0xAA])));
        assert!(r.wal.is_empty(), "checkpoint covers the healed record");
    }

    #[test]
    fn faulty_heal_installs_parked_checkpoint_at_original_position() {
        let mut f = faulty();
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]); // parks after record 1
        f.wal_commit(vec![2]); // parks after the checkpoint
        f.heal();
        let r = f.load();
        assert_eq!(r.checkpoint.map(|(_, p)| p), Some(vec![0xAA]));
        assert_eq!(r.wal, vec![vec![2]], "post-checkpoint record replays");
    }

    #[test]
    fn faulty_short_read_truncates_the_tail_record() {
        let mut f = faulty();
        f.wal_commit(vec![1, 2, 3, 4]);
        f.wal_commit(vec![5, 6, 7, 8]);
        f.inject(StoreFault::ShortRead);
        let r = f.load();
        assert_eq!(r.wal, vec![vec![1, 2, 3, 4], vec![5, 6]]);
        f.heal();
        assert_eq!(f.load().wal, vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
    }

    #[test]
    fn faulty_append_fail_drops_writes_until_heal() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.inject(StoreFault::AppendFail);
        f.wal_commit(vec![2]);
        assert_eq!(f.load().wal, vec![vec![1]]);
        f.heal();
        f.wal_commit(vec![3]);
        assert_eq!(f.load().wal, vec![vec![1], vec![3]]);
    }

    #[test]
    fn faulty_corruption_verbs_reach_the_inner_store() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.checkpoint(vec![0xAA]);
        f.wal_commit(vec![2]);
        f.checkpoint(vec![0xBB]);
        assert!(f.inject(StoreFault::CorruptCheckpoint));
        let r = f.load();
        assert_eq!(r.checkpoint.map(|(_, p)| p), Some(vec![0xAA]));
        assert!(f.inject(StoreFault::CorruptSlot(0)));
        assert!(f.inject(StoreFault::CorruptSlot(1)));
        assert!(f.load().checkpoint.is_none());
    }

    /// The wrapper counts every sync and checkpoint it is asked for,
    /// honest or lied to; on the honest path that is exactly the
    /// device's own count.
    #[test]
    fn faulty_counters_mirror_sim_counting() {
        let mut f = faulty();
        f.wal_commit(vec![1]);
        f.checkpoint(vec![2]);
        assert_eq!(f.sync_count(), f.inner.sync_count());
        assert_eq!(f.checkpoint_count(), f.inner.checkpoint_count());
        f.inject(StoreFault::LostTail);
        f.wal_commit(vec![3]); // lied to: counted, not forwarded
        f.checkpoint(vec![4]); // parked: no sync bump
        assert_eq!((f.sync_count(), f.checkpoint_count()), (3, 2));
        assert_eq!(f.inner.checkpoint_count(), 1);
        f.heal();
        assert_eq!((f.sync_count(), f.checkpoint_count()), (4, 2));
    }
}
