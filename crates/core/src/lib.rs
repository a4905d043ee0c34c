//! `zns-cache`: a log-structured persistent cache for ZNS SSDs.
//!
//! This crate is the reproduction of the paper's subject system: a
//! CacheLib-style flash cache (DRAM index + region-packed flash log,
//! region-granular eviction) that can run on four different storage
//! arrangements — the paper's three ZNS schemes plus the regular-SSD
//! baseline (Fig. 1):
//!
//! | Scheme | Backend | Paper section |
//! |--------|---------|---------------|
//! | Block-Cache  | [`backend::BlockBackend`] over an FTL SSD          | baseline |
//! | File-Cache   | [`backend::FileBackend`] over `f2fs-lite`          | §3.1 |
//! | Zone-Cache   | [`backend::ZoneBackend`], region == zone           | §3.2 |
//! | Region-Cache | [`backend::MiddleLayerBackend`], region → zone map | §3.3 |
//!
//! The engine ([`LogCache`]) is shared by all four: objects are packed into
//! an in-memory region buffer; full buffers are flushed to a region slot on
//! the backend; when no slot is free the least-recently-used region is
//! evicted wholesale (its index entries dropped, its storage discarded) —
//! the design CacheLib uses to amortize flash-cache churn (§2.1).
//!
//! The Region-Cache middle layer also implements the paper's §3.4
//! *co-design* discussion: its zone GC can consult cache-temperature hints
//! and drop cold regions instead of migrating them
//! ([`backend::GcMode::Hinted`]), trading a bounded hit-ratio loss for
//! write amplification ≈ 1.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use zns_cache::{CacheConfig, LogCache};
//! use zns_cache::backend::ZoneBackend;
//! use zns::{ZnsConfig, ZnsDevice};
//! use sim::Nanos;
//!
//! let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
//! let backend = Arc::new(ZoneBackend::new(dev));
//! let cache = LogCache::new(backend, CacheConfig::small_test()).unwrap();
//!
//! let t = cache.set(b"key", b"value", Nanos::ZERO).unwrap();
//! let (hit, _t) = cache.get(b"key", t).unwrap();
//! assert_eq!(hit.as_deref(), Some(&b"value"[..]));
//! ```

// The unsafe core (engine::RegionBuffer) is held to an explicit-contract
// standard: every unsafe operation sits in its own `unsafe` block inside
// `unsafe fn`s, and every block carries a `// SAFETY:` justification.
// Checked by Miri (scripts/miri.sh) and by clippy respectively.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod dram;
pub mod engine;
pub mod index;
pub mod maintainer;
pub mod metrics;
pub mod policy;
pub mod protocol;
pub mod recovery;
pub mod scheme;
pub mod sync;
pub mod trace;
pub mod types;

pub use engine::{CacheConfig, LogCache, RetryPolicy, ScrubReport};
pub use maintainer::{Maintainer, MaintainerHandle};
pub use metrics::CacheMetricsSnapshot;
pub use policy::{Admission, EvictionPolicy};
pub use scheme::{Scheme, SchemeCache};
pub use types::{CacheError, RegionId};
