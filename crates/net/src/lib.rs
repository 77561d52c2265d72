//! Deterministic discrete-event network simulator.
//!
//! The Mykil paper evaluated its prototype on "a network of Linux
//! workstations" connected by TCP. This crate replaces that testbed with
//! a single-threaded, deterministic discrete-event simulator:
//!
//! - **Virtual time** in microseconds ([`Time`]), advanced only by the
//!   event loop — runs are bit-for-bit reproducible from a seed.
//! - **Nodes** implement the [`Node`] trait (message + timer callbacks)
//!   and communicate by unicast [`Context::send`] or group
//!   [`Context::multicast`].
//! - **Failure injection**: network partitions, node crashes and
//!   restarts, per-link drops ([`Simulator::partition`],
//!   [`Simulator::crash`], …) — exactly the fault model of Section IV of
//!   the paper.
//! - **Byte accounting** ([`Stats`]): every unicast/multicast is counted
//!   by kind, which is how the reproduction regenerates the bandwidth
//!   figures (Figures 8–10).
//! - **Compute delays**: protocol code charges virtual CPU time for
//!   cryptographic operations ([`Context::charge_compute`]) so that
//!   join/rejoin latency measurements (Section V-D) reflect both network
//!   round trips and crypto cost.
//!
//! # Example
//!
//! ```
//! use mykil_net::{Context, Node, NodeId, Simulator, Time};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
//!         if bytes == b"ping" {
//!             ctx.send(from, "pong", b"pong".to_vec());
//!         }
//!     }
//! }
//!
//! struct Probe { target: NodeId, got_pong: bool }
//! impl Node for Probe {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(self.target, "ping", b"ping".to_vec());
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
//!         self.got_pong = bytes == b"pong";
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let echo = sim.add_node(Echo);
//! let probe = sim.add_node(Probe { target: echo, got_pong: false });
//! sim.run_until(Time::from_millis(10));
//! assert!(sim.node::<Probe>(probe).got_pong);
//! ```

mod chaos;
mod context;
mod event;
mod file_store;
mod id;
mod latency;
mod sim;
mod stats;
mod storage;
mod time;
mod topology;
mod trace;

pub use chaos::{ChaosDriver, ChaosOptions, FaultPlan, FaultSpec, TimedFault};
pub use context::{Context, MsgToken, TimerToken};
pub use file_store::{crc32, scratch_dir, FileStore};
pub use id::{GroupId, NodeId};
pub use latency::LatencyModel;
pub use sim::{Node, Simulator, StorageFactory};
pub use stats::Stats;
pub use storage::{FaultyStore, Recovered, SecretBytes, SimStore, StableStore, StoreFault};
pub use time::{Duration, Time};
pub use trace::{DropReason, TraceEvent};
