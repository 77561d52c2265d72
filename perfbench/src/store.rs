//! A delegating `StableStore` that counts and times the storage calls
//! protocol code makes. Installed through `GroupBuilder::storage_factory`
//! in the traced run only; every call forwards to the default
//! `SimStore`, so the protocol sees identical storage behaviour.

use mykil_net::{Recovered, SimStore, StableStore, StorageFactory, StoreFault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const WAL_N: usize = 0;
const WAL_NS: usize = 1;
const SYNC_N: usize = 2;
const SYNC_NS: usize = 3;
const CKPT_N: usize = 4;
const CKPT_NS: usize = 5;
const BYTES: usize = 6;

/// Counters shared by every node's store (statistics only, so the
/// atomics are `Relaxed`).
#[derive(Debug, Clone, Default)]
pub struct Counters(Arc<[AtomicU64; 7]>);

impl Counters {
    fn add(&self, n: usize, ns: usize, t0: Instant) {
        self.0[n].fetch_add(1, Ordering::Relaxed);
        self.0[ns].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn get(&self, i: usize) -> u64 {
        self.0[i].load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        for c in self.0.iter() {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// `(name, value, unit)` per storage metric.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let us = |i| self.get(i) as f64 / 1000.0;
        vec![
            ("storage.wal_append.n", self.get(WAL_N) as f64, "count"),
            ("storage.wal_append.us", us(WAL_NS), "us"),
            ("storage.sync.n", self.get(SYNC_N) as f64, "count"),
            ("storage.sync.us", us(SYNC_NS), "us"),
            ("storage.checkpoint.n", self.get(CKPT_N) as f64, "count"),
            ("storage.checkpoint.us", us(CKPT_NS), "us"),
            ("storage.bytes", self.get(BYTES) as f64, "B"),
        ]
    }

    /// A storage factory wrapping a fresh `SimStore` per node.
    pub fn factory(&self) -> StorageFactory {
        let c = self.clone();
        Box::new(move |_| {
            Box::new(Timed {
                inner: SimStore::new(),
                c: c.clone(),
            })
        })
    }
}

#[derive(Debug)]
struct Timed {
    inner: SimStore,
    c: Counters,
}

impl StableStore for Timed {
    fn wal_append(&mut self, bytes: Vec<u8>) {
        self.c.0[BYTES].fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        StableStore::wal_append(&mut self.inner, bytes);
        self.c.add(WAL_N, WAL_NS, t0);
    }

    fn sync(&mut self) {
        let t0 = Instant::now();
        StableStore::sync(&mut self.inner);
        self.c.add(SYNC_N, SYNC_NS, t0);
    }

    fn checkpoint(&mut self, payload: Vec<u8>) {
        self.c.0[BYTES].fetch_add(payload.len() as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        StableStore::checkpoint(&mut self.inner, payload);
        self.c.add(CKPT_N, CKPT_NS, t0);
    }

    fn append_torn(&mut self, bytes: Vec<u8>) {
        self.inner.append_torn(bytes);
    }

    fn load(&self) -> Recovered {
        StableStore::load(&self.inner)
    }

    fn inject(&mut self, fault: StoreFault) -> bool {
        StableStore::inject(&mut self.inner, fault)
    }

    fn heal(&mut self) {
        StableStore::heal(&mut self.inner);
    }

    fn on_crash(&mut self) -> Option<&'static str> {
        StableStore::on_crash(&mut self.inner)
    }

    fn has_durable_state(&self) -> bool {
        StableStore::has_durable_state(&self.inner)
    }

    fn sync_count(&self) -> u64 {
        StableStore::sync_count(&self.inner)
    }

    fn checkpoint_count(&self) -> u64 {
        StableStore::checkpoint_count(&self.inner)
    }
}
