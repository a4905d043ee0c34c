//! Simulation kernel shared by every device model and benchmark in the
//! workspace.
//!
//! The reproduction runs entirely on *simulated time*: device models compute
//! when an operation would complete on real hardware and return that
//! completion timestamp. Nothing in this workspace sleeps or reads the wall
//! clock, which makes every experiment deterministic under a fixed RNG seed.
//!
//! This crate provides:
//!
//! * [`Nanos`] / [`Micros`] — strongly-typed simulated time,
//! * [`LatencyHistogram`] — log-bucketed percentile tracking (p50/p99/...),
//! * [`io`] — the [`io::BlockDevice`] trait all block-addressed devices
//!   implement, plus a latency-model [`io::RamDisk`] used for filesystem
//!   metadata devices (the paper's `nullblk` stand-in),
//! * [`driver`] — a closed-loop multi-worker executor that turns per-op
//!   simulated latencies into throughput numbers.
//!
//! # Example
//!
//! ```
//! use sim::{Nanos, LatencyHistogram};
//!
//! let hist = LatencyHistogram::new();
//! for us in [100u64, 200, 300, 400, 50_000] {
//!     hist.record(Nanos::from_micros(us));
//! }
//! assert!(hist.percentile(50.0).as_micros() >= 200);
//! assert!(hist.percentile(99.0).as_micros() >= 40_000);
//! ```

pub mod checksum;
pub mod driver;
pub mod fault;
pub mod histogram;
pub mod io;
pub mod stats;
pub mod time;
pub mod trace;

pub use checksum::{crc32, Crc32};
pub use driver::{ClosedLoop, DriverReport};
pub use fault::{FaultInjector, FaultOp, FaultSpec, Injection};
pub use histogram::LatencyHistogram;
pub use io::{BlockDevice, IoError, IoResult, Lba, RamDisk, BLOCK_SIZE};
pub use stats::Counter;
pub use time::{Micros, Nanos};
