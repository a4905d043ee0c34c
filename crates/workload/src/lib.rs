//! Workload generators for the cache and KV-store experiments.
//!
//! * [`Zipf`] — skewed key popularity, the standard model for cache
//!   workloads (rejection-inversion sampling, exact for any `s > 0`).
//! * [`ExpRange`] — db_bench's `read_random_exp_range` style skew used by
//!   the paper's RocksDB evaluation (§4.2): larger ER values concentrate
//!   reads on fewer keys.
//! * [`CacheBench`] — a CacheBench-style op-mix generator reproducing the
//!   paper's `feature_stress/navy/bc` workload: 50% get / 30% set /
//!   20% delete over a Zipf-popular key space with a CacheLib-like object
//!   size mixture.
//! * [`value_for_key`] — deterministic value synthesis, so integrity can
//!   be verified without storing expected values.

pub mod cachebench;
pub mod dist;
pub mod values;

pub use cachebench::{CacheBench, CacheBenchConfig, Op};
pub use dist::{ExpRange, Zipf};
pub use values::{value_for_key, value_len_for_key};
