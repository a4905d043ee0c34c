//! The log-structured cache engine.
//!
//! Objects are appended into an in-memory *region buffer*; a full buffer is
//! flushed as one large sequential write to a region slot on the backend.
//! When no slot is free, a whole region is evicted (CacheLib's design: the
//! paper's §2.1 "evicts entire regions rather than individual cache
//! objects"). Lookups resolve entirely in the DRAM index and touch flash
//! only for the object bytes.
//!
//! # Concurrency architecture
//!
//! Foreground operations scale with threads (see DESIGN.md §8 for the full
//! model):
//!
//! * **Reads take no engine-wide lock.** A lookup resolves `(region,
//!   offset, len)` under one index-shard lock, *pins* the region (a
//!   per-region reader count), re-confirms the location, performs the
//!   device read and CRC verification completely unlocked, and revalidates
//!   the region's generation counter afterwards. A read that raced an
//!   eviction retries (bounded by `READ_RETRY_ATTEMPTS`) and otherwise
//!   degrades to a miss — never to wrong bytes.
//! * **Writes reserve, then copy outside the lock.** The writer mutex is
//!   held only to bump the active region's append cursor; the payload copy
//!   into the shared region buffer and the index insert happen after the
//!   lock is dropped. Sealing quiesces on a `committed` byte counter so a
//!   region image is never flushed with a reservation's copy still in
//!   flight. Seals carry a monotone sequence number so recovery restores
//!   FIFO eviction order exactly.
//! * **Eviction runs in a maintainer.** With `clean_region_watermark > 0`,
//!   a [`crate::maintainer::Maintainer`] (a real background thread, or a
//!   test driving it deterministically in simulated time) refills the
//!   clean-region pool. The foreground write path still evicts inline when
//!   the pool runs dry — that is the backpressure contract.
//!
//! Two timing mechanisms matter for reproducing the paper:
//!
//! * **Bounded flush pipeline** — up to `in_memory_buffers` region flushes
//!   may be in flight; sealing a buffer while all slots are busy stalls the
//!   inserter until the oldest flush completes. With zone-sized regions
//!   this is the long "filling time" of Fig. 3.
//! * **Serialized eviction cleanup** — evicting a region removes each of
//!   its index entries under shard locks at a per-entry CPU cost
//!   (`index_remove_cpu`); evicting a 1 GiB region with tens of thousands
//!   of objects visibly stalls insertion, the Fig. 3 jump at the onset of
//!   eviction.

use std::cell::UnsafeCell;
use std::collections::VecDeque;

use bytes::Bytes;
use sim::trace::{self, EventKind};
use sim::{crc32, Crc32, LatencyHistogram, Nanos};

use crate::backend::{RegionBackend, RegionHealth};
use crate::dram::{DramCache, DramEntry};
use crate::index::{Index, IndexEntry};
use crate::metrics::{CacheMetrics, CacheMetricsSnapshot, CounterTable};
use crate::policy::{Admission, AdmissionGate, EvictionPolicy};
use crate::protocol::{CleanPool, CommitWindow, Generation, InflightCell, Pins};
use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, RwLock};
use crate::types::{fingerprint, hash_key, CacheError, RegionId};

/// On-flash object header: `u16 key_len`, `u16 flags` (reserved),
/// `u32 value_len`, `u32 crc` (CRC32 over key + value).
pub const OBJECT_HEADER: usize = 12;

/// Byte offset of the CRC field within [`OBJECT_HEADER`].
pub(crate) const HEADER_CRC_OFFSET: usize = 8;

/// CPU cost to serialize and index one inserted object.
pub(crate) const INSERT_CPU: Nanos = Nanos::from_nanos(2_000);

/// CPU cost of one index lookup.
pub(crate) const LOOKUP_CPU: Nanos = Nanos::from_nanos(1_000);

/// Eviction cleanups larger than this many entries saturate every index
/// shard and stall the whole engine; smaller cleanups cost only the
/// evicting thread (sharded locks absorb them).
pub(crate) const EVICTION_LOCK_THRESHOLD: usize = 4096;

/// Attempts for a lookup whose unlocked flash read raced an eviction (the
/// entry's region generation changed mid-read). Exhaustion degrades to a
/// miss — under that much churn the object is as good as evicted.
pub(crate) const READ_RETRY_ATTEMPTS: u32 = 3;

/// Bounded retry for transient backend I/O failures, with exponential
/// backoff in *simulated* time (the delay is charged to the operation's
/// completion timestamp; nothing sleeps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per I/O (1 = no retry).
    pub attempts: u32,
    /// Delay before the first retry; doubles on each subsequent one.
    pub backoff: Nanos,
    /// Spread each backoff by a deterministic pseudo-random increment of
    /// up to half the delay, derived from (simulated time, attempt,
    /// per-retry-sequence salt, config seed). Without it, N threads that
    /// fail together retry together, collide again, and double in
    /// lockstep — the classic synchronized retry storm. Pure integer
    /// hashing keeps runs reproducible and the policy `Eq`.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: Nanos::from_micros(10),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// No retries: every backend error is treated as permanent.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Nanos::ZERO,
            jitter: false,
        }
    }

    /// The default budget with jitter disabled, for tests that assert
    /// exact retry timing.
    pub fn no_jitter() -> Self {
        RetryPolicy {
            jitter: false,
            ..RetryPolicy::default()
        }
    }
}

/// Configuration for a [`LogCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Region-level eviction policy (paper: LRU).
    pub eviction: EvictionPolicy,
    /// Flash admission policy.
    pub admission: Admission,
    /// DRAM tier capacity in bytes (0 disables the tier).
    pub dram_bytes: usize,
    /// Lock shards for the DRAM tier (rounded up to a power of two). Each
    /// shard is an independent byte-capped LRU holding an equal split of
    /// `dram_bytes`.
    pub dram_shards: usize,
    /// Run the DRAM tier write-back instead of as a read mirror: a set is
    /// absorbed in DRAM (any flash copy is invalidated up front) and only
    /// entries *evicted* from DRAM are demoted into the flash log, so hot
    /// overwrites never touch the device — CacheLib's DRAM→flash demotion
    /// pipeline. The DRAM copy is authoritative and lookups consult it
    /// before the index. A crash loses the DRAM tier, so a snapshot-less
    /// device-scan recovery may resurface the last *demoted* version of a
    /// key (the bounded staleness any write-back tier accepts); mirror
    /// mode (`false`) keeps the strict flash-authoritative semantics.
    pub dram_write_back: bool,
    /// Region buffers that may be in flight at once (CacheLib default: a
    /// small clean-region pool; 2 here).
    pub in_memory_buffers: usize,
    /// CPU cost to remove one index entry during region eviction, paid by
    /// the evicting thread.
    pub index_remove_cpu: Nanos,
    /// Per-entry cost of an *oversized* eviction (more entries than
    /// `EVICTION_LOCK_THRESHOLD`): the cleanup then saturates every index
    /// shard and stalls the whole engine — the Fig. 3 contention. This is
    /// a scale-compensation parameter: scaled-down regions hold fewer
    /// objects than the paper's, so the per-object charge is raised to
    /// keep the eviction-stall-to-fill-time ratio at the paper's level.
    pub index_remove_contended_cpu: Nanos,
    /// Verify full keys against flash on lookup (requires a payload-backed
    /// store; disable for sparse-store experiments).
    pub verify_keys: bool,
    /// Fraction of an evicted region's objects that may be *reinserted*
    /// instead of dropped, chosen among objects read since insertion —
    /// CacheLib's hits-based reinsertion policy. 0.0 disables it.
    pub reinsertion_fraction: f64,
    /// Run backend maintenance (middle-layer GC) every N sets.
    pub maintenance_interval_sets: u32,
    /// Retry budget for transient backend I/O failures.
    pub retry: RetryPolicy,
    /// Keep at least this many clean (free) regions available, refilled by
    /// the [`crate::maintainer::Maintainer`]. 0 disables background
    /// eviction entirely: every eviction then runs inline on the write
    /// path (the pre-maintainer behavior, and what deterministic
    /// single-thread tests use).
    pub clean_region_watermark: usize,
    /// RNG seed for the admission gate.
    pub seed: u64,
}

impl CacheConfig {
    /// Defaults mirroring the paper's setup (LRU, admit-all, no DRAM tier).
    pub fn small_test() -> Self {
        CacheConfig {
            eviction: EvictionPolicy::Lru,
            admission: Admission::Always,
            dram_bytes: 0,
            dram_shards: 4,
            dram_write_back: false,
            in_memory_buffers: 2,
            index_remove_cpu: Nanos::from_nanos(300),
            index_remove_contended_cpu: Nanos::from_nanos(300),
            verify_keys: true,
            reinsertion_fraction: 0.0,
            maintenance_interval_sets: 16,
            retry: RetryPolicy::default(),
            clean_region_watermark: 0,
            seed: 42,
        }
    }
}

/// One region's dumped index state, as recovery snapshots carry it:
/// `(region, entries as (hash, byte offset), live objects, last-access
/// sequence, sealed?, seal sequence)`.
pub(crate) type RegionDumpEntry = (u32, Vec<(u64, u32)>, u32, u64, bool, u64);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RegionState {
    /// Unused slot.
    Free,
    /// The active in-memory buffer is bound to this slot.
    Active,
    /// Flushed to the backend and readable.
    Sealed,
    /// Taken out of service after a permanent write/discard failure; never
    /// allocated again for the lifetime of this engine.
    Quarantined,
}

/// Mutable region metadata, guarded by the slot's own small mutex (lock
/// order: writer → slot meta → index/DRAM shard; never the reverse).
#[derive(Debug)]
struct RegionMeta {
    state: RegionState,
    /// (key hash, object offset) of every object written to this region.
    entries: Vec<(u64, u32)>,
    /// Monotone seal order, preserved by recovery so FIFO eviction order
    /// survives a restart.
    seal_seq: u64,
    /// Completion cell of the seal that produced this region's image,
    /// set at seal time. The pipeline ticket holding the same cell can
    /// be popped as overflow and resolved by *another* thread, making
    /// the in-flight flush invisible to `w.in_flight` scans — so an
    /// evictor must consult this handle too, wait it out, and recheck
    /// the state: a failed flush's lock-free cleanup quarantines the
    /// slot before completing the cell, and discarding or reusing the
    /// slot before that cleanup finishes would let the quarantine
    /// clobber the slot's next life (seen as an Active region turning
    /// Quarantined mid-write under fault torture). Stale completed
    /// cells are harmless: waiting on one returns immediately.
    flush_cell: Option<Arc<InflightCell>>,
}

/// One region slot: a small mutex for structural metadata plus lock-free
/// fields the hot paths touch.
struct RegionSlot {
    meta: Mutex<RegionMeta>,
    /// Bumped whenever the slot's contents stop being trustworthy: at
    /// eviction start (before index cleanup), on GC drop, on quarantine,
    /// and when the slot is re-activated. Unlocked readers revalidate
    /// against it. See [`crate::protocol::generation`] for the ordering
    /// contract (SeqCst against the pin/drain pair).
    generation: Generation,
    /// Global access sequence at last touch (LRU key).
    last_access: AtomicU64,
    /// Objects not yet superseded or deleted.
    live_objects: AtomicU32,
    /// In-flight unlocked reads. Eviction drains this to zero before the
    /// region's storage is discarded, so a pinned read never observes
    /// reclaimed media.
    pins: Pins,
}

impl RegionSlot {
    fn new() -> Self {
        RegionSlot {
            meta: Mutex::new(RegionMeta {
                state: RegionState::Free,
                entries: Vec::new(),
                seal_seq: 0,
                flush_cell: None,
            }),
            generation: Generation::new(),
            last_access: AtomicU64::new(0),
            live_objects: AtomicU32::new(0),
            pins: Pins::new(),
        }
    }
}

/// The shared in-memory image of the active region. Writers copy into
/// disjoint reserved ranges without any lock; readers serve committed
/// ranges concurrently.
///
/// This is the crate's unsafe core. Its contract, in one paragraph: the
/// writer mutex grants each append a *reservation* — an exclusive,
/// never-reused byte range `offset..offset + size`. Until the owner
/// calls [`CommitWindow::commit`] for it, that range is written by the
/// owner alone and read by nobody. After the commit (and only through an
/// edge that observes it: the index-shard lock of the entry insert, or
/// the `committed` acquire) the range is immutable and may be read
/// freely. Every unsafe method below states which side of that contract
/// the caller must be on. The whole type is exercised under Miri by
/// `scripts/miri.sh` (tests named `buffer_*`), and the reservation /
/// commit / quiesce protocol is model-checked in miniature by
/// `tests/loom.rs`.
struct RegionBuffer {
    region: RegionId,
    data: Box<[UnsafeCell<u8>]>,
    /// Bytes whose payload copy has completed. Sealing quiesces on this
    /// before flushing the image; see [`crate::protocol::commit`].
    commit: CommitWindow,
}

// SAFETY: `Send` — a `RegionBuffer` owns its storage (`Box`) and holds no
// thread-affine state, so moving the (Arc'd) buffer between threads is
// sound. `Sync` — `&self` access is disciplined by the reservation
// contract above: every byte range is written by exactly one thread (the
// reservation owner; ranges are disjoint by construction since the append
// cursor only moves forward under the writer mutex) and becomes immutable
// once committed. Readers only dereference ranges whose commit they
// observed through a synchronizing edge (index-shard lock, or the
// `CommitWindow` release/acquire pair on the seal path), so no byte is
// ever read while it may still be written. `UnsafeCell<u8>` (rather than
// `&mut` aliasing) makes the disjoint-range concurrent writes defined
// behavior. This argument cannot be expressed to the type system — hence
// the manual impls — but it is checked two ways: Miri validates the
// pointer discipline (scripts/miri.sh), and the loom suite explores every
// interleaving of the reserve/commit/read protocol (tests/loom.rs).
unsafe impl Send for RegionBuffer {}
// SAFETY: see the `Send` justification above — the same reservation
// contract covers shared (`&self`) access from multiple threads.
unsafe impl Sync for RegionBuffer {}

impl RegionBuffer {
    fn new(region: RegionId, size: usize) -> Self {
        RegionBuffer {
            region,
            data: (0..size).map(|_| UnsafeCell::new(0u8)).collect(),
            commit: CommitWindow::new(),
        }
    }

    /// Base pointer with provenance for the whole buffer.
    ///
    /// Derived from the slice, not from one element: `self.data[i].get()`
    /// would carry single-element provenance and make any multi-byte
    /// copy through it undefined behavior under Stacked Borrows (the
    /// original form of this code was exactly that bug — Miri catches
    /// it). `UnsafeCell<u8>` is `repr(transparent)`, so the cast is
    /// layout-sound.
    fn base(&self) -> *mut u8 {
        self.data.as_ptr() as *mut u8
    }

    /// Copies `bytes` into the buffer at `offset`.
    ///
    /// # Safety
    ///
    /// The caller must own the (uncommitted) reservation covering
    /// `offset..offset + bytes.len()`: the range was granted to this
    /// thread under the writer mutex, has not been committed, and no
    /// other thread writes or reads it. `offset + bytes.len()` must not
    /// exceed the buffer size (reservations never do; debug-asserted).
    unsafe fn write(&self, offset: usize, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        debug_assert!(
            offset.checked_add(bytes.len()).is_some_and(|end| end <= self.data.len()),
            "write past buffer end: {offset}+{} > {}",
            bytes.len(),
            self.data.len()
        );
        // SAFETY: per the function contract the destination range is
        // in-bounds and exclusively ours; `bytes` is a live shared
        // borrow, so the source cannot overlap the (unaliased,
        // reservation-owned) destination.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.base().add(offset), bytes.len());
        }
    }

    /// Borrows the committed range `offset..offset + len`.
    ///
    /// # Safety
    ///
    /// The range must be committed — e.g. it belongs to an object whose
    /// index entry the caller just observed (the insert happens after
    /// the commit, under a shard lock) — and therefore immutable for the
    /// buffer's remaining lifetime. The range must be in-bounds
    /// (debug-asserted).
    unsafe fn slice(&self, offset: usize, len: usize) -> &[u8] {
        if len == 0 {
            return &[];
        }
        debug_assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.data.len()),
            "slice past buffer end: {offset}+{len} > {}",
            self.data.len()
        );
        // SAFETY: in-bounds per the contract; the range is committed,
        // hence no longer written by anyone, so a shared borrow for the
        // buffer's lifetime cannot alias a mutation.
        unsafe { std::slice::from_raw_parts(self.base().add(offset) as *const u8, len) }
    }

    /// Borrows the whole buffer image (the seal path).
    ///
    /// # Safety
    ///
    /// All reservations must be committed and no further reservation may
    /// be granted while the slice is alive: the sealer holds the writer
    /// mutex (blocking new reservations) and has quiesced on the commit
    /// window (`commit.quiesce(used)`), so every byte is immutable.
    unsafe fn as_slice(&self) -> &[u8] {
        // SAFETY: quiesced and reservation-blocked per the contract —
        // the entire buffer is immutable while the borrow lives. Length
        // is exact by construction.
        unsafe { std::slice::from_raw_parts(self.base() as *const u8, self.data.len()) }
    }
}

struct ActiveRegion {
    buf: Arc<RegionBuffer>,
    /// Append cursor (bytes reserved so far).
    used: usize,
    entries: Vec<(u64, u32)>,
}

/// Everything the append path mutates, behind one small mutex. Device
/// writes (seal) and inline evictions run under it by design: when the
/// clean-region pool is dry, writers must feel the reclamation cost —
/// that is the backpressure contract with the maintainer.
struct WriterState {
    active: Option<ActiveRegion>,
    free: CleanPool,
    /// Seal order for FIFO eviction.
    fifo: VecDeque<u32>,
    /// Tickets of detached region flushes, oldest first. Resolved (waited
    /// and retired) when the pipeline exceeds `in_memory_buffers`, at a
    /// `flush()` barrier, or before the region is evicted — never
    /// opportunistically, so the pipeline stall is charged to the
    /// threads the paper charges it to.
    in_flight: VecDeque<FlushTicket>,
    sets_since_maintenance: u32,
    /// Objects rescued from the last evicted region, waiting to be
    /// appended into the next buffer (reinsertion policy).
    pending_reinserts: Vec<(Vec<u8>, Vec<u8>, Nanos)>,
    next_seal_seq: u64,
}

/// Pipeline handle to one detached region flush.
///
/// Created by [`LogCache::seal_detach`] under the writer mutex; resolved by
/// whoever needs the flush's outcome (next sealer over depth, `flush()`
/// barrier, or the evictor of that region). The cell is completed by the
/// submitter after the device call returns — success or failure alike, so
/// a waiter can never hang on a flush whose submission path already
/// unwound.
struct FlushTicket {
    /// Region slot the detached image is bound for.
    region: u32,
    /// Completion cell the submitter fills.
    cell: Arc<InflightCell>,
}

/// A detached flush: the sealed region image plus the completion cell its
/// submitter fills. Created under the writer mutex by
/// [`LogCache::seal_detach`]; the device call runs in
/// [`LogCache::submit_flush`] with *no engine lock held*.
struct SealJob {
    buf: Arc<RegionBuffer>,
    cell: Arc<InflightCell>,
}

enum TryGet {
    Hit(Bytes),
    Miss,
    /// The unlocked read raced an eviction/seal; retry the lookup.
    Stale,
}

/// What one [`LogCache::scrub`] pass found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Sealed regions walked.
    pub regions_scanned: u64,
    /// Objects whose stored CRC no longer matched (invalidated: they are
    /// served as misses from now on, never as bad bytes).
    pub corrupt_objects: u64,
    /// Live objects migrated off degrading (read-only) regions.
    pub salvaged_objects: u64,
    /// Bytes of key+value payload salvaged.
    pub salvaged_bytes: u64,
    /// Regions retired (quarantined) because their media degraded.
    pub retired_regions: u64,
    /// Completion time of the pass.
    pub done: Nanos,
}

/// A hybrid (DRAM + flash) log-structured cache over a [`RegionBackend`].
///
/// All methods take `&self` and are safe to call from many threads; see
/// the module docs for the concurrency model.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct LogCache {
    backend: Arc<dyn RegionBackend>,
    config: CacheConfig,
    index: Index,
    slots: Vec<RegionSlot>,
    writer: Mutex<WriterState>,
    /// Read-side handle to the active region buffer, kept only while the
    /// region is actually active (cleared at seal) so sealed regions are
    /// served from flash like before.
    active_ro: RwLock<Option<Arc<RegionBuffer>>>,
    /// Detached flush images whose tickets are unresolved. Reads of these
    /// regions are served from RAM: until the ticket resolves the data is
    /// not guaranteed on flash (correctness), and afterwards the image is
    /// dropped only at resolution, keeping the most recently sealed — and
    /// hottest — region at DRAM latency (the Zone-Cache p99 lever).
    /// Bounded by the flush pipeline depth (`in_memory_buffers`).
    sealing_ro: RwLock<Vec<Arc<RegionBuffer>>>,
    /// Lock-striped DRAM tier; empty when `dram_bytes == 0`.
    dram: Vec<Mutex<DramCache>>,
    /// Per-DRAM-shard supersession epochs, one per shard (write-back
    /// mode's demote/invalidate crossing, DESIGN.md §10): every set or
    /// delete touching a shard bumps its epoch *under the shard lock,
    /// before* touching the flash index; a demotion samples the epoch
    /// when its entry is evicted and, after publishing to the index,
    /// un-publishes if the epoch moved — the demoted version may have
    /// been superseded while the demotion was in flight.
    dram_epochs: Vec<Generation>,
    admission: Mutex<AdmissionGate>,
    /// Fast path: `Admission::Always` never needs the gate's RNG.
    admit_all: bool,
    access_seq: AtomicU64,
    /// Index-wide stall deadline (ns) from oversized region-eviction
    /// cleanup: every operation entering the engine waits for it. This is
    /// the shared-index lock contention the paper holds responsible for
    /// the Fig. 3 insertion jump.
    stall_until: AtomicU64,
    /// High-water mark of observed simulated time, so a wall-clock
    /// background maintainer can run "at" a meaningful sim timestamp.
    clock_hwm: AtomicU64,
    /// `inline_evictions` count as of the last maintenance pass. The
    /// delta since then is the backpressure signal: each inline eviction
    /// means a foreground writer found the clean pool dry, so the next
    /// pass raises its target above the static watermark to get ahead.
    pressure_seen: AtomicU64,
    /// Per-retry-sequence salt: each `retry_io` call draws a fresh value
    /// so two operations that fail at the same simulated instant still
    /// jitter apart (see [`RetryPolicy::jitter`]).
    retry_salt: AtomicU64,
    metrics: CacheMetrics,
    /// Seal count per region slot (sized at construction).
    region_seals: CounterTable,
    /// Eviction count per region slot (sized at construction).
    region_evictions: CounterTable,
}

impl core::fmt::Debug for LogCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LogCache")
            .field("scheme", &self.backend.label())
            .field("regions", &self.backend.num_regions())
            .field("metrics", &self.metrics.snapshot())
            .finish()
    }
}

impl LogCache {
    /// Builds a cache over `backend`.
    ///
    /// # Errors
    ///
    /// [`CacheError::BackendTooSmall`] when fewer than 3 region slots are
    /// available (one active + one sealed + one to evict).
    pub fn new(backend: Arc<dyn RegionBackend>, config: CacheConfig) -> Result<Self, CacheError> {
        if backend.num_regions() < 3 {
            return Err(CacheError::BackendTooSmall);
        }
        let n = backend.num_regions();
        let slots = (0..n).map(|_| RegionSlot::new()).collect();
        let dram = if config.dram_bytes == 0 {
            Vec::new()
        } else {
            let shards = config.dram_shards.max(1).next_power_of_two();
            let per_shard = config.dram_bytes.div_ceil(shards);
            (0..shards).map(|_| Mutex::new(DramCache::new(per_shard))).collect()
        };
        let dram_epochs = (0..dram.len()).map(|_| Generation::new()).collect();
        Ok(LogCache {
            index: Index::new(),
            slots,
            writer: Mutex::new(WriterState {
                active: None,
                free: (0..n).collect(),
                fifo: VecDeque::new(),
                in_flight: VecDeque::new(),
                sets_since_maintenance: 0,
                pending_reinserts: Vec::new(),
                next_seal_seq: 0,
            }),
            active_ro: RwLock::new(None),
            sealing_ro: RwLock::new(Vec::new()),
            dram,
            dram_epochs,
            admission: Mutex::new(AdmissionGate::new(config.admission, config.seed)),
            admit_all: config.admission == Admission::Always,
            access_seq: AtomicU64::new(0),
            stall_until: AtomicU64::new(0),
            clock_hwm: AtomicU64::new(0),
            pressure_seen: AtomicU64::new(0),
            retry_salt: AtomicU64::new(0),
            metrics: CacheMetrics::default(),
            region_seals: CounterTable::new(n as usize),
            region_evictions: CounterTable::new(n as usize),
            backend,
            config,
        })
    }

    /// The backend (for scheme-level statistics).
    pub fn backend(&self) -> &Arc<dyn RegionBackend> {
        &self.backend
    }

    /// Cache metrics snapshot.
    pub fn metrics(&self) -> CacheMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Per-region seal counts, indexed by region id.
    pub fn region_seal_counts(&self) -> Vec<u64> {
        self.region_seals.snapshot()
    }

    /// Per-region eviction counts, indexed by region id.
    pub fn region_eviction_counts(&self) -> Vec<u64> {
        self.region_evictions.snapshot()
    }

    /// Lookup-latency histogram (copied).
    pub fn get_latency(&self) -> LatencyHistogram {
        self.metrics.get_latency_snapshot()
    }

    /// Insert-latency histogram (copied).
    pub fn set_latency(&self) -> LatencyHistogram {
        self.metrics.set_latency_snapshot()
    }

    /// End-to-end write amplification (media bytes / cache flush bytes).
    pub fn write_amplification(&self) -> f64 {
        self.backend.write_amplification()
    }

    /// Live object count in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no objects.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Latest simulated timestamp any foreground operation has presented.
    /// Background maintenance uses this as its notion of "now".
    pub fn observed_clock(&self) -> Nanos {
        // relaxed-ok: monotone high-water mark; any recent value serves.
        Nanos::from_nanos(self.clock_hwm.load(Ordering::Relaxed))
    }

    /// Clean (immediately allocatable) region slots.
    pub fn clean_regions(&self) -> usize {
        self.writer.lock().free.len()
    }

    fn observe_clock(&self, now: Nanos) {
        // relaxed-ok: monotone max; no other memory is published with it.
        self.clock_hwm.fetch_max(now.as_nanos(), Ordering::Relaxed);
    }

    fn stall_deadline(&self) -> Nanos {
        // relaxed-ok: advisory deadline; a late read only shortens a
        // simulated stall, it cannot corrupt state.
        Nanos::from_nanos(self.stall_until.load(Ordering::Relaxed))
    }

    fn raise_stall(&self, until: Nanos) {
        // relaxed-ok: monotone max of an advisory deadline.
        self.stall_until.fetch_max(until.as_nanos(), Ordering::Relaxed);
    }

    fn admit(&self) -> bool {
        self.admit_all || self.admission.lock().admit()
    }

    fn dram_shard(&self, hash: u64) -> Option<&Mutex<DramCache>> {
        if self.dram.is_empty() {
            None
        } else {
            // High bits: the index shards already consume the low bits.
            Some(&self.dram[(hash >> 32) as usize & (self.dram.len() - 1)])
        }
    }

    /// The supersession epoch of `hash`'s DRAM shard (same indexing as
    /// [`Self::dram_shard`]; the two vectors are sized together).
    fn dram_epoch(&self, hash: u64) -> Option<&Generation> {
        if self.dram_epochs.is_empty() {
            None
        } else {
            Some(&self.dram_epochs[(hash >> 32) as usize & (self.dram_epochs.len() - 1)])
        }
    }

    fn dec_live(&self, region: RegionId) {
        // relaxed-ok: statistics counter (eviction scoring input only).
        let _ = self.slots[region.0 as usize].live_objects.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(1)),
        );
    }

    /// Drops an invalidated entry's per-region and DRAM footprint.
    fn on_entry_invalidated(&self, hash: u64, region: RegionId) {
        self.dec_live(region);
        // Mirror mode: the DRAM copy is a replica of the flash entry and
        // dies with it. Write-back mode: a resident DRAM copy is *newer*
        // than any flash entry (the authority rule, DESIGN.md §10) and
        // must survive the flash copy's invalidation.
        if !self.config.dram_write_back {
            if let Some(shard) = self.dram_shard(hash) {
                shard.lock().remove(hash);
            }
        }
    }

    fn object_size(key: &[u8], value: &[u8]) -> usize {
        OBJECT_HEADER + key.len() + value.len()
    }

    /// Deterministic backoff jitter: a splitmix64-style hash of the
    /// simulated time, attempt number, per-sequence salt and config seed,
    /// scaled to `[0, delay/2]`. No wall clock, no shared RNG: identical
    /// runs produce identical jitter, but concurrent retry sequences
    /// (distinct salts) spread out instead of re-colliding in lockstep.
    fn retry_jitter(&self, delay: Nanos, t: Nanos, attempt: u32, salt: u64) -> Nanos {
        let span = delay.as_nanos() / 2;
        if !self.config.retry.jitter || span == 0 {
            return Nanos::ZERO;
        }
        let mut x = t
            .as_nanos()
            .wrapping_add((attempt as u64) << 48)
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ self.config.seed;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        Nanos::from_nanos(x % (span + 1))
    }

    /// Runs a backend I/O under the configured retry budget. Transient
    /// device errors ([`CacheError::Io`]) are retried with exponential
    /// simulated-time backoff (jittered; see [`RetryPolicy::jitter`]);
    /// anything else — and exhaustion of the budget — propagates.
    fn retry_io(
        &self,
        mut t: Nanos,
        mut op: impl FnMut(Nanos) -> Result<Nanos, CacheError>,
    ) -> Result<Nanos, CacheError> {
        let attempts = self.config.retry.attempts.max(1);
        let mut delay = self.config.retry.backoff;
        let mut attempt = 1;
        // relaxed-ok: the salt only needs to be distinct per sequence;
        // no ordering with any other memory is required.
        let salt = self.retry_salt.fetch_add(1, Ordering::Relaxed);
        // A `loop` rather than `for attempt in 1..=attempts`: every arm
        // returns or continues, so exhaustion is handled in-band and no
        // `unreachable!()` is needed after the loop (the public API must
        // not have panic paths; `cargo xtask lint` enforces this).
        loop {
            match op(t) {
                Ok(done) => return Ok(done),
                Err(CacheError::Io(msg)) => {
                    if attempt >= attempts {
                        self.metrics.retries_exhausted.incr();
                        return Err(CacheError::Io(msg));
                    }
                    attempt += 1;
                    self.metrics.retries.incr();
                    let pause = delay + self.retry_jitter(delay, t, attempt, salt);
                    trace::emit(EventKind::IoRetry, t, attempt as u64, pause.as_nanos());
                    t += pause;
                    delay = delay * 2;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Takes a region slot permanently out of service. The slot is never
    /// returned to the free list; capacity shrinks by one region.
    fn quarantine(&self, w: &mut WriterState, region: u32) {
        w.fifo.retain(|&r| r != region);
        self.quarantine_slot(region);
    }

    /// The writer-lock-free part of quarantine, used by the flush
    /// submitter's error path, which by contract holds no engine lock.
    /// Any stale fifo entry for the slot is harmless: `pick_victim` only
    /// accepts `Sealed` slots, and a quarantined slot never is again.
    fn quarantine_slot(&self, region: u32) {
        let slot = &self.slots[region as usize];
        {
            let mut meta = slot.meta.lock();
            meta.state = RegionState::Quarantined;
            meta.entries.clear();
        }
        slot.live_objects.store(0, Ordering::Relaxed); // relaxed-ok: statistic
        trace::emit(
            EventKind::RegionQuarantine,
            self.observed_clock(),
            region as u64,
            0,
        );
        self.metrics.quarantined_regions.incr();
        self.metrics
            .quarantined_bytes
            .add(self.backend.region_size() as u64);
    }

    /// CRC32 over an object's key + value, as stored in its header.
    fn object_crc(key: &[u8], value: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(key);
        c.update(value);
        c.finalize()
    }

    /// The stored CRC field of a serialized object header, or `None` when
    /// the slice is too short to hold one (a torn/short read must surface
    /// as corruption, not as an index-out-of-bounds panic).
    fn header_crc(obj: &[u8]) -> Option<u32> {
        obj.get(HEADER_CRC_OFFSET..OBJECT_HEADER)?
            .try_into()
            .ok()
            .map(u32::from_le_bytes)
    }

    /// Picks an eviction victim among sealed regions.
    fn pick_victim(&self, w: &mut WriterState) -> Option<u32> {
        match self.config.eviction {
            EvictionPolicy::Fifo => {
                while let Some(r) = w.fifo.pop_front() {
                    if self.slots[r as usize].meta.lock().state == RegionState::Sealed {
                        return Some(r);
                    }
                }
                None
            }
            EvictionPolicy::Lru => self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.meta.lock().state == RegionState::Sealed)
                // relaxed-ok: recency stamp; LRU choice may be approximate.
                .min_by_key(|(_, s)| s.last_access.load(Ordering::Relaxed))
                .map(|(i, _)| i as u32),
        }
    }

    /// Evicts one sealed region and returns its (now clean) slot id plus
    /// the time after the serialized cleanup. The caller decides whether
    /// the slot goes to the free pool (maintainer) or straight into use
    /// (inline backpressure path).
    ///
    /// A victim whose discard keeps failing through the retry budget is
    /// quarantined and the next victim is tried — one bad region must not
    /// wedge the whole cache. Eviction metrics are counted only after the
    /// discard succeeds.
    fn evict_one(&self, w: &mut WriterState, now: Nanos) -> Result<(u32, Nanos), CacheError> {
        let mut now = now;
        loop {
            let victim = self.pick_victim(w).ok_or_else(|| {
                CacheError::Io("no region available: nothing sealed to evict".into())
            })?;
            // A victim whose flush is still in flight must land before its
            // storage is discarded. Reap its ticket first; waiting here
            // cannot deadlock because the submitter completes the cell
            // without ever taking the writer lock.
            if let Some(pos) = w.in_flight.iter().position(|tk| tk.region == victim) {
                if let Some(ticket) = w.in_flight.remove(pos) {
                    now = now.max(ticket.cell.wait_done());
                }
            }
            // The ticket may already have been popped as pipeline
            // overflow and be mid-resolve on another thread, so the scan
            // above can miss a still-unresolved flush. The slot's own
            // cell covers that window; after the wait, recheck the state:
            // a *failed* flush's lock-free cleanup quarantines the slot
            // (completing the cell only afterwards), and that victim must
            // be skipped, not discarded and reused.
            let flush_cell = self.slots[victim as usize].meta.lock().flush_cell.clone();
            if let Some(cell) = flush_cell {
                now = now.max(cell.wait_done());
            }
            if self.slots[victim as usize].meta.lock().state != RegionState::Sealed {
                continue;
            }
            self.drop_sealing(victim);
            let slot = &self.slots[victim as usize];
            // Invalidate *before* the index cleanup: an unlocked read that
            // sampled the old generation will refuse data from this slot.
            slot.generation.invalidate();
            let entries = {
                let mut meta = slot.meta.lock();
                meta.state = RegionState::Free;
                std::mem::take(&mut meta.entries)
            };
            slot.live_objects.store(0, Ordering::Relaxed); // relaxed-ok: statistic
            // Reinsertion policy: rescue a bounded share of still-referenced
            // objects by reading them back before the region is discarded.
            // Rescue is best-effort: unreadable or corrupt objects are
            // simply not rescued.
            if self.config.reinsertion_fraction > 0.0 {
                let budget = ((entries.len() as f64) * self.config.reinsertion_fraction) as usize;
                let mut rescued = 0usize;
                for &(hash, offset) in &entries {
                    if rescued >= budget {
                        break;
                    }
                    let Some(e) = self.index.get_at(hash, RegionId(victim), offset) else {
                        continue;
                    };
                    if !e.accessed || e.expiry <= now {
                        continue;
                    }
                    let len = OBJECT_HEADER + e.key_len as usize + e.value_len as usize;
                    let mut obj = vec![0u8; len];
                    match self.retry_io(now, |t| {
                        self.backend.read(RegionId(victim), offset as usize, &mut obj, t)
                    }) {
                        Ok(t) => now = t,
                        Err(_) => continue,
                    }
                    let key = &obj[OBJECT_HEADER..OBJECT_HEADER + e.key_len as usize];
                    let value = &obj[OBJECT_HEADER + e.key_len as usize..];
                    let Some(stored_crc) = Self::header_crc(&obj) else {
                        self.metrics.corrupt_reads.incr();
                        continue;
                    };
                    if stored_crc != Self::object_crc(key, value) {
                        self.metrics.corrupt_reads.incr();
                        continue;
                    }
                    w.pending_reinserts.push((key.to_vec(), value.to_vec(), e.expiry));
                    rescued += 1;
                }
                self.metrics.reinserted_objects.add(rescued as u64);
            }
            // Serialized index cleanup: the eviction cost that grows with
            // region size (Fig. 3's jump).
            let mut removed = 0u64;
            for &(hash, offset) in &entries {
                if self.index.remove_if_at(hash, RegionId(victim), offset) {
                    removed += 1;
                }
            }
            let mut t = now + self.config.index_remove_cpu * entries.len() as u64;
            // Small cleanups hide behind sharded index locks; a huge one (a
            // zone-sized region) touches every shard continuously and stalls
            // the whole engine — the paper's Fig. 3 contention.
            if entries.len() > EVICTION_LOCK_THRESHOLD {
                let stall = now + self.config.index_remove_contended_cpu * entries.len() as u64;
                self.raise_stall(stall);
                t = t.max(stall);
            }
            // Wait out in-flight pinned reads: nobody may be mid-read on
            // storage we are about to reclaim.
            slot.pins.drain();
            match self.retry_io(t, |t| self.backend.discard_region(RegionId(victim), t)) {
                Ok(t) => {
                    self.metrics.evicted_objects.add(removed);
                    self.metrics.evicted_regions.incr();
                    self.region_evictions.incr(victim as usize);
                    trace::emit(EventKind::RegionEvict, t, victim as u64, removed);
                    return Ok((victim, t));
                }
                Err(_) => {
                    // Permanent discard failure: the slot's storage cannot
                    // be reclaimed safely. Quarantine it and evict another.
                    self.quarantine(w, victim);
                    now = t;
                }
            }
        }
    }

    /// Acquires a free region slot, evicting inline if the clean pool is
    /// dry (the maintainer's backpressure path).
    fn acquire_region(&self, w: &mut WriterState, now: Nanos) -> Result<(u32, Nanos), CacheError> {
        if let Some(r) = w.free.pop() {
            debug_assert_eq!(self.slots[r as usize].meta.lock().state, RegionState::Free);
            return Ok((r, now));
        }
        self.metrics.inline_evictions.incr();
        let (victim, t) = self.evict_one(w, now)?;
        trace::emit(EventKind::InlineEviction, t, victim as u64, 0);
        Ok((victim, t))
    }

    /// Evicts until at least `clean_region_watermark` free regions exist,
    /// then runs one backend maintenance pass (GC / filesystem cleaning).
    /// Driven by the [`crate::maintainer::Maintainer`] — either its
    /// background thread or a test calling it at a chosen simulated time.
    /// Returns the evicted regions in order (deterministic for a given
    /// cache state, which the maintainer determinism test relies on).
    ///
    /// The eviction target adapts to backpressure: every inline eviction
    /// since the previous pass means a foreground writer drained the pool
    /// faster than this thread refilled it, so the target grows by that
    /// delta (bounded to a quarter of all slots). With no inline
    /// evictions the target is exactly the configured watermark, which
    /// keeps single-threaded runs and determinism tests bit-identical.
    ///
    /// # Errors
    ///
    /// Backend maintenance failures. Running out of sealed victims is not
    /// an error — the pass simply stops.
    pub fn maintain(&self, now: Nanos) -> Result<Vec<RegionId>, CacheError> {
        let watermark = self.config.clean_region_watermark;
        let mut evicted = Vec::new();
        if watermark == 0 {
            return Ok(evicted);
        }
        // relaxed-ok: pacing heuristic; a stale count only shifts work
        // between consecutive passes.
        let inline_now = self.metrics.inline_evictions.get();
        // relaxed-ok: see above.
        let prev = self.pressure_seen.swap(inline_now, Ordering::Relaxed);
        let pressure = inline_now.saturating_sub(prev) as usize;
        let target = watermark + pressure.min(self.slots.len() / 4);
        let mut w = self.writer.lock();
        let mut t = now;
        while w.free.len() < target {
            // lock-ok: eviction rewrites the free list and slot states,
            // which only the writer lock owns; the backend discard it
            // issues is metadata-only on the simulated device.
            match self.evict_one(&mut w, t) {
                Ok((victim, t2)) => {
                    w.free.push(victim);
                    evicted.push(RegionId(victim));
                    self.metrics.maintainer_evictions.incr();
                    trace::emit(EventKind::MaintainerEviction, t2, victim as u64, 0);
                    t = t2;
                }
                // Nothing sealed left to evict: the pass is done.
                Err(_) => break,
            }
        }
        // Backend-level maintenance (middle-layer GC, filesystem
        // cleaning) also belongs to the background thread. Before this
        // ran only on the foreground set path every
        // `maintenance_interval_sets` inserts, so File-Cache's cleaner
        // dug writers into the free-zone floor and they cleaned inline
        // under their own op latency.
        // lock-ok: deliberate backpressure — holding the writer lock
        // through backend GC stalls foreground writers instead of letting
        // them outrun the empty-zone floor.
        self.run_maintenance(&mut w, t)?;
        Ok(evicted)
    }

    /// One scrubber pass: walk every sealed region, CRC-verify its live
    /// objects, and salvage-migrate data off degrading media before it
    /// goes dark (see DESIGN.md §7). Driven by the
    /// [`crate::maintainer::Maintainer`] on a simulated-time cadence.
    ///
    /// Invariants the pass maintains:
    ///
    /// * An object that fails its checksum is invalidated on the spot —
    ///   after a scrub pass no latent corruption in a sealed region can
    ///   ever be served (it becomes a miss).
    /// * A region whose backend reports [`RegionHealth::Degraded`] has
    ///   every live, verified object re-inserted through the normal write
    ///   path (landing in a fresh region) and is then retired; one whose
    ///   backend reports [`RegionHealth::Dead`] is retired immediately —
    ///   its objects are unreachable and become misses.
    /// * Retired regions are quarantined: capacity shrinks and the slot
    ///   is never allocated again, so eviction watermarks stay correct.
    ///
    /// [`RegionHealth::Degraded`]: crate::backend::RegionHealth::Degraded
    /// [`RegionHealth::Dead`]: crate::backend::RegionHealth::Dead
    ///
    /// # Errors
    ///
    /// Salvage re-insertion failures (backend write errors after the
    /// retry budget and reroute). Read failures and corruption are
    /// handled in-band, not errors.
    pub fn scrub(&self, now: Nanos) -> Result<ScrubReport, CacheError> {
        self.observe_clock(now);
        let mut report = ScrubReport::default();
        let mut t = now;
        let sealed: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&r| self.slots[r as usize].meta.lock().state == RegionState::Sealed)
            .collect();
        trace::emit(EventKind::ScrubStart, now, sealed.len() as u64, 0);
        for region in sealed {
            self.scrub_region(region, &mut report, &mut t)?;
        }
        self.metrics.scrub_passes.incr();
        trace::emit(
            EventKind::ScrubStop,
            t,
            report.regions_scanned,
            report.corrupt_objects,
        );
        report.done = t;
        Ok(report)
    }

    /// Scrubs one region: verify, salvage, retire as its health demands.
    fn scrub_region(
        &self,
        region: u32,
        report: &mut ScrubReport,
        t: &mut Nanos,
    ) -> Result<(), CacheError> {
        let slot = &self.slots[region as usize];
        let entries = {
            let meta = slot.meta.lock();
            if meta.state != RegionState::Sealed {
                return Ok(()); // raced with eviction since the snapshot
            }
            meta.entries.clone()
        };
        report.regions_scanned += 1;
        let health = self.backend.region_health(RegionId(region));
        if health == RegionHealth::Dead {
            // Nothing below a dead zone's surface is reachable: every
            // remaining object becomes a miss, the slot leaves service.
            self.retire_region(region);
            self.metrics.zones_offline.incr();
            report.retired_regions += 1;
            trace::emit(EventKind::ScrubSalvage, *t, region as u64, 0);
            return Ok(());
        }
        let salvage = health == RegionHealth::Degraded;
        let mut salvaged_bytes = 0u64;
        for (hash, offset) in entries {
            let Some(e) = self.index.get_at(hash, RegionId(region), offset) else {
                continue; // superseded or deleted since the seal
            };
            if e.expiry <= *t {
                continue; // already dead weight; lazy reclamation handles it
            }
            let len = OBJECT_HEADER + e.key_len as usize + e.value_len as usize;
            let mut obj = vec![0u8; len];
            // Pin only for the read: the salvage insert below takes the
            // writer lock, and an eviction draining our own pin while we
            // wait there would deadlock.
            let read = {
                let _pin = slot.pins.pin();
                let gen = slot.generation.sample();
                let r = self.retry_io(*t, |t| {
                    self.backend.read(RegionId(region), offset as usize, &mut obj, t)
                });
                if slot.generation.changed_since(gen) {
                    return Ok(()); // region evicted mid-scrub; its entries are gone
                }
                r
            };
            let verified = match read {
                Ok(done) => {
                    *t = done;
                    let key_end = OBJECT_HEADER + e.key_len as usize;
                    Self::header_crc(&obj) == Some(crc32(&obj[OBJECT_HEADER..]))
                        && obj.len() >= key_end
                }
                // Unreadable: treat like corruption — the object can no
                // longer be proven intact, so it must not be served.
                Err(_) => false,
            };
            if !verified {
                if self.index.remove_if_at(hash, RegionId(region), offset) {
                    self.on_entry_invalidated(hash, RegionId(region));
                }
                self.metrics.corrupt_reads.incr();
                self.metrics.scrub_corrupt_objects.incr();
                report.corrupt_objects += 1;
                continue;
            }
            if salvage {
                let key = &obj[OBJECT_HEADER..OBJECT_HEADER + e.key_len as usize];
                let value = &obj[OBJECT_HEADER + e.key_len as usize..];
                let ttl = if e.expiry == Nanos::MAX {
                    None
                } else {
                    Some(e.expiry - *t)
                };
                *t = self.set_with_ttl(key, value, ttl, *t)?;
                salvaged_bytes += (key.len() + value.len()) as u64;
                self.metrics.scrub_salvaged_objects.incr();
                report.salvaged_objects += 1;
            }
        }
        if salvage {
            // Every live object now has a fresh copy; take the region out
            // of service before the zone falls all the way to offline.
            self.retire_region(region);
            self.metrics.zones_readonly.incr();
            self.metrics.scrub_salvaged_bytes.add(salvaged_bytes);
            report.salvaged_bytes += salvaged_bytes;
            report.retired_regions += 1;
            trace::emit(EventKind::ScrubSalvage, *t, region as u64, salvaged_bytes);
        }
        Ok(())
    }

    /// Takes a sealed region whose media degraded out of service:
    /// invalidates its remaining index entries, waits out pinned readers,
    /// and quarantines the slot (capacity shrinks permanently).
    fn retire_region(&self, region: u32) {
        let mut w = self.writer.lock();
        let slot = &self.slots[region as usize];
        let entries = {
            let mut meta = slot.meta.lock();
            if meta.state != RegionState::Sealed {
                return; // raced with eviction; nothing left to retire
            }
            std::mem::take(&mut meta.entries)
        };
        // Invalidate before the index cleanup, exactly like eviction: an
        // unlocked read that sampled the old generation must refuse data
        // from this slot.
        slot.generation.invalidate();
        for &(hash, offset) in &entries {
            if self.index.remove_if_at(hash, RegionId(region), offset) {
                self.on_entry_invalidated(hash, RegionId(region));
            }
        }
        slot.pins.drain();
        // lock-ok: quarantining edits the slot table, which the writer
        // lock owns; no foreground progress is possible for a region
        // that just failed its media check anyway.
        self.quarantine(&mut w, region);
    }

    /// Detaches the active buffer as a flush job, all under the writer
    /// lock and with zero device I/O: quiesce the commit window, mark the
    /// slot sealed, enqueue a pipeline ticket, and publish the image for
    /// RAM serves. Also pops any tickets beyond the pipeline depth; the
    /// caller must resolve those — and submit the job — *after* releasing
    /// the writer lock, so the device never runs under it.
    fn seal_detach(&self, w: &mut WriterState) -> (Option<SealJob>, Vec<FlushTicket>) {
        let Some(active) = w.active.take() else {
            return (None, Vec::new());
        };
        let ActiveRegion { buf, used, entries } = active;
        // Quiesce: every granted reservation's payload copy must land
        // before the image is flushed (reservations are only granted under
        // the writer lock, which we hold, so no new ones can start).
        buf.commit.quiesce(used);
        // Flush pipeline: hand the caller the oldest tickets once all
        // buffers are busy; resolving them is the stall the inserter pays.
        let mut over = Vec::new();
        while w.in_flight.len() >= self.config.in_memory_buffers.max(1) {
            match w.in_flight.pop_front() {
                Some(oldest) => over.push(oldest),
                None => break,
            }
        }
        let slot = &self.slots[buf.region.0 as usize];
        let live = entries.len() as u32;
        let cell = Arc::new(InflightCell::new());
        {
            let mut meta = slot.meta.lock();
            debug_assert_eq!(meta.state, RegionState::Active);
            meta.state = RegionState::Sealed;
            meta.entries = entries;
            meta.seal_seq = w.next_seal_seq;
            // Evictors wait on this before touching the slot, so a
            // failed flush's cleanup can never race a reuse (see the
            // field's doc).
            meta.flush_cell = Some(Arc::clone(&cell));
        }
        w.next_seal_seq += 1;
        slot.live_objects.store(live, Ordering::Relaxed); // relaxed-ok: statistic
        // relaxed-ok: recency stamps for approximate LRU scoring.
        slot.last_access
            .store(self.access_seq.load(Ordering::Relaxed), Ordering::Relaxed);
        w.fifo.push_back(buf.region.0);
        w.in_flight.push_back(FlushTicket {
            region: buf.region.0,
            cell: Arc::clone(&cell),
        });
        // Publish the image for RAM serves *before* clearing the active
        // handle: a reader that sees `active_ro == None` then also sees
        // this push (both edges go through the `active_ro` lock), so no
        // read can fall through to flash before the flush has landed.
        self.sealing_ro.write().push(Arc::clone(&buf));
        *self.active_ro.write() = None;
        (Some(SealJob { buf, cell }), over)
    }

    /// Submits a detached flush to the backend. Holds no engine lock —
    /// that is the submit-to-complete contract (`cargo xtask lint`) and
    /// what lets other writers fill the next buffer while the device
    /// programs this one. Always completes the job's cell, success or
    /// failure, so a pipeline waiter can never hang.
    fn submit_flush(&self, job: SealJob, now: Nanos) -> Result<Nanos, CacheError> {
        let SealJob { buf, cell } = job;
        let region = buf.region;
        // The buffer was zero-initialized, so the tail past `used` is
        // already padding.
        // SAFETY: quiesced in `seal_detach`, and the buffer is detached
        // from the writer state — no reservation can ever target it again.
        let image = unsafe { buf.as_slice() };
        let write = self.retry_io(now, |t| self.backend.write_region(region, image, t));
        match write {
            Ok(done) => {
                self.metrics.flushes.incr();
                self.metrics
                    .bytes_flushed
                    .add(self.backend.region_size() as u64);
                self.region_seals.incr(region.0 as usize);
                trace::emit(
                    EventKind::RegionSeal,
                    done,
                    region.0 as u64,
                    self.backend.region_size() as u64,
                );
                cell.complete(done);
                Ok(done)
            }
            Err(e) => {
                // Permanent flush failure: this is a cache, so the buffered
                // objects may be dropped — but the index must not point at
                // unwritten storage, and the slot (whose media just proved
                // unwritable) is quarantined rather than recycled. Cleanup
                // deliberately avoids the writer lock (a pipeline waiter
                // may hold it while waiting on this very cell).
                let slot = &self.slots[region.0 as usize];
                slot.generation.invalidate();
                let entries = std::mem::take(&mut slot.meta.lock().entries);
                for &(hash, offset) in &entries {
                    self.index.remove_if_at(hash, region, offset);
                }
                self.quarantine_slot(region.0);
                self.drop_sealing(region.0);
                self.metrics.flush_failures.incr();
                cell.complete(now);
                Err(e)
            }
        }
    }

    /// Reaps one detached flush: waits for its completion, retires its
    /// RAM image, and returns the later of `t` and the completion time.
    /// Callers hold no engine lock.
    fn resolve_ticket(&self, ticket: FlushTicket, t: Nanos) -> Nanos {
        let done = ticket.cell.wait_done();
        self.drop_sealing(ticket.region);
        t.max(done)
    }

    /// Drops a region's detached flush image from the RAM-serve set.
    fn drop_sealing(&self, region: u32) {
        self.sealing_ro.write().retain(|b| b.region.0 != region);
    }

    /// Allocates a region slot (evicting inline if the pool is dry) and
    /// binds a fresh active buffer to it, draining pending reinserts while
    /// keeping `need` bytes free for the caller's object.
    fn bind_fresh_buffer(
        &self,
        w: &mut WriterState,
        need: usize,
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        let region_size = self.backend.region_size();
        let (slot_id, t) = self.acquire_region(w, now)?;
        let slot = &self.slots[slot_id as usize];
        slot.meta.lock().state = RegionState::Active;
        // Re-activation bump: a reader still pinned to the slot's previous
        // life must not trust its location again.
        slot.generation.invalidate();
        // relaxed-ok: recency stamps for approximate LRU scoring.
        slot.last_access
            .store(self.access_seq.load(Ordering::Relaxed), Ordering::Relaxed);
        let buf = Arc::new(RegionBuffer::new(RegionId(slot_id), region_size));
        w.active = Some(ActiveRegion {
            buf: Arc::clone(&buf),
            used: 0,
            entries: Vec::new(),
        });
        *self.active_ro.write() = Some(buf);
        // Drain rescued objects into the fresh buffer, always preserving
        // room for the caller's object (reinsertion is best-effort).
        let pending = std::mem::take(&mut w.pending_reinserts);
        for (key, value, expiry) in pending {
            let size = Self::object_size(&key, &value);
            let fits = match &w.active {
                Some(a) => region_size - a.used >= size + need,
                None => false,
            };
            if !fits {
                continue;
            }
            self.append_locked(w, &key, &value, expiry)?;
        }
        Ok(t)
    }

    /// Appends one object while holding the writer lock (reinsertion
    /// drain): reserve, copy, commit, and index in place. The caller has
    /// verified it fits.
    ///
    /// # Errors
    ///
    /// [`CacheError::Internal`] if no active buffer is bound (an engine
    /// bug, surfaced instead of panicking).
    fn append_locked(
        &self,
        w: &mut WriterState,
        key: &[u8],
        value: &[u8],
        expiry: Nanos,
    ) -> Result<(), CacheError> {
        let hash = hash_key(key);
        let fp = fingerprint(key);
        let size = Self::object_size(key, value);
        let crc = Self::object_crc(key, value);
        let active = w
            .active
            .as_mut()
            .ok_or_else(|| CacheError::Internal("append without an active buffer".into()))?;
        let offset = active.used as u32;
        active.used += size;
        active.entries.push((hash, offset));
        let buf = Arc::clone(&active.buf);
        let region = buf.region;
        // SAFETY: we own the reservation we just granted ourselves.
        unsafe {
            Self::write_object(&buf, offset as usize, key, value, crc);
        }
        buf.commit.commit(size);
        let old = self.index.insert(
            hash,
            IndexEntry {
                region,
                offset,
                key_len: key.len() as u16,
                value_len: value.len() as u32,
                fingerprint: fp,
                expiry,
                accessed: false,
            },
        );
        if let Some(old) = old {
            self.dec_live(old.region);
        }
        Ok(())
    }

    /// # Safety
    ///
    /// The caller must own the (uncommitted) reservation at `offset` for
    /// the full serialized object.
    unsafe fn write_object(buf: &RegionBuffer, offset: usize, key: &[u8], value: &[u8], crc: u32) {
        let mut header = [0u8; OBJECT_HEADER];
        header[0..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
        // Bytes 2..4: reserved flags, zero.
        header[4..8].copy_from_slice(&(value.len() as u32).to_le_bytes());
        header[HEADER_CRC_OFFSET..OBJECT_HEADER].copy_from_slice(&crc.to_le_bytes());
        // SAFETY: the caller owns the reservation covering the whole
        // serialized object (header + key + value); the three writes
        // target disjoint subranges of it.
        unsafe {
            buf.write(offset, &header);
            buf.write(offset + OBJECT_HEADER, key);
            buf.write(offset + OBJECT_HEADER + key.len(), value);
        }
    }

    /// Runs backend maintenance with LRU-derived temperatures and recycles
    /// any regions the backend dropped (hinted GC).
    fn run_maintenance(&self, w: &mut WriterState, now: Nanos) -> Result<(), CacheError> {
        // Rank-based recency: the coldest region scores 0, the hottest 1.
        // (A raw last_access/now ratio saturates near 1 for everything
        // that was touched at all; ranks keep the hint discriminative.)
        // Snapshot the access stamps before sorting: concurrent gets keep
        // bumping `last_access`, and a sort whose key mutates mid-run
        // violates total order (std::sort panics on that).
        let mut order: Vec<(u64, u32)> = (0..self.slots.len() as u32)
            // relaxed-ok: recency snapshot for temperature ranking.
            .map(|r| (self.slots[r as usize].last_access.load(Ordering::Relaxed), r))
            .collect();
        order.sort_unstable();
        let n = order.len().max(1) as f64;
        let mut scores = vec![0.0f64; order.len()];
        for (rank, &(_, r)) in order.iter().enumerate() {
            scores[r as usize] = rank as f64 / n;
        }
        let temperature = move |r: RegionId| scores.get(r.0 as usize).copied().unwrap_or(0.0);
        let outcome = self.backend.maintenance(now, &temperature)?;
        for region in outcome.dropped_regions {
            let slot = &self.slots[region.0 as usize];
            let entries = {
                let mut meta = slot.meta.lock();
                if meta.state != RegionState::Sealed {
                    continue; // raced with eviction; nothing to recycle
                }
                // Invalidate before the index cleanup, exactly like
                // eviction: the storage is already gone.
                slot.generation.invalidate();
                meta.state = RegionState::Free;
                std::mem::take(&mut meta.entries)
            };
            let mut removed = 0u64;
            for &(hash, offset) in &entries {
                if self.index.remove_if_at(hash, region, offset) {
                    removed += 1;
                }
            }
            slot.live_objects.store(0, Ordering::Relaxed); // relaxed-ok: statistic
            // The slot must not be re-activated under a pinned reader.
            slot.pins.drain();
            w.free.push(region.0);
            w.fifo.retain(|&r| r != region.0);
            self.metrics.gc_dropped_objects.add(removed);
        }
        Ok(())
    }

    /// Inserts a key/value pair with no expiry.
    ///
    /// Returns the operation's completion time.
    ///
    /// # Errors
    ///
    /// [`CacheError::ObjectTooLarge`] when the object cannot fit one
    /// region; [`CacheError::KeyTooLarge`] beyond 64 KiB keys; backend I/O
    /// errors otherwise.
    pub fn set(&self, key: &[u8], value: &[u8], now: Nanos) -> Result<Nanos, CacheError> {
        self.set_with_ttl(key, value, None, now)
    }

    /// Inserts a key/value pair that expires `ttl` after `now` (CacheLib
    /// items carry TTLs; expired entries are treated as misses and
    /// reclaimed lazily on lookup).
    ///
    /// # Errors
    ///
    /// As [`LogCache::set`].
    pub fn set_with_ttl(
        &self,
        key: &[u8],
        value: &[u8],
        ttl: Option<Nanos>,
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        self.observe_clock(now);
        if key.len() > u16::MAX as usize {
            return Err(CacheError::KeyTooLarge { len: key.len() });
        }
        let size = Self::object_size(key, value);
        let region_size = self.backend.region_size();
        if size > region_size {
            return Err(CacheError::ObjectTooLarge { size, region_size });
        }
        if !self.admit() {
            self.metrics.rejected.incr();
            return Ok(now + INSERT_CPU);
        }
        let hash = hash_key(key);
        let fp = fingerprint(key);
        let expiry = ttl.map_or(Nanos::MAX, |ttl| now + ttl);

        // Write-back DRAM (DESIGN.md §10): absorb the insert in the DRAM
        // tier; only entries *evicted* from it are demoted to the flash
        // log, so a hot key overwritten in place never reaches the device.
        if self.config.dram_write_back {
            // The two vectors are sized together, so both or neither.
            if let (Some(shard), Some(epoch)) = (self.dram_shard(hash), self.dram_epoch(hash)) {
                let (absorbed, demote_epoch) = {
                    let mut tier = shard.lock();
                    let absorbed = tier.insert(
                        hash,
                        DramEntry {
                            key: Bytes::copy_from_slice(key),
                            value: Bytes::copy_from_slice(value),
                            expiry,
                            accessed: false,
                        },
                    );
                    if absorbed.is_none() {
                        // Too large for the tier: the write-through below
                        // will publish the new version to flash. A resident
                        // older copy must not stay behind to shadow it —
                        // DRAM is authoritative in this mode.
                        tier.remove(hash);
                    }
                    // This set supersedes any in-flight demotion of an
                    // older version of the key: bump the shard's epoch
                    // (under the lock, *before* we touch the index) so the
                    // demoter's post-publish check sees it. Our own
                    // demotions sample *after* the bump, so a demotion only
                    // ever undoes itself on someone else's supersession.
                    epoch.invalidate();
                    (absorbed, epoch.sample())
                };
                if let Some(evicted) = absorbed {
                    // The DRAM copy is now the authoritative version; drop
                    // any flash entry up front so losing the DRAM tier can
                    // only surface as a miss, never as an older flash copy
                    // resurfacing behind a newer value.
                    if let Some(old) = self.index.remove(hash, fp) {
                        self.dec_live(old.region);
                    }
                    let mut t = now.max(self.stall_deadline()) + INSERT_CPU;
                    for (demoted_hash, entry) in evicted {
                        t = self.demote(demoted_hash, entry, demote_epoch, t)?;
                    }
                    self.metrics.sets.incr();
                    self.metrics.record_set(t - now);
                    return Ok(t);
                }
                // Larger than a whole DRAM shard: write through to flash.
            }
        }

        let crc = Self::object_crc(key, value);
        let (t, _, _) = self.log_write(key, value, expiry, hash, fp, crc, now)?;
        self.metrics.sets.incr();
        self.metrics.record_set(t - now);
        Ok(t)
    }

    /// Writes a DRAM-evicted entry into the flash log (write-back mode's
    /// demotion pipeline). Entries that expired while resident — or that
    /// could never fit a region — are dropped instead of persisted:
    /// eviction is always legal for a cache.
    ///
    /// `epoch_sampled` is the shard's supersession epoch as sampled when
    /// the entry left DRAM (under the shard lock, after the evicting
    /// set's own bump). If a concurrent set or delete bumps the epoch
    /// before the index publish lands, the demoted version may be stale
    /// — it is un-published rather than left to shadow the newer value.
    fn demote(
        &self,
        hash: u64,
        entry: DramEntry,
        epoch_sampled: u64,
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        if entry.expiry <= now {
            return Ok(now);
        }
        if !entry.accessed {
            // Reject-first admission (CacheLib): an entry never looked up
            // during its whole DRAM residency is a one-hit-wonder; burning
            // a flash write (and later flash reads) on it costs more than
            // the rare miss it would save.
            return Ok(now);
        }
        if Self::object_size(&entry.key, &entry.value) > self.backend.region_size() {
            return Ok(now);
        }
        let fp = fingerprint(&entry.key);
        let crc = Self::object_crc(&entry.key, &entry.value);
        self.metrics.dram_demotions.incr();
        let (t, region, offset) =
            self.log_write(&entry.key, &entry.value, entry.expiry, hash, fp, crc, now)?;
        // The demote/invalidate crossing: a set or delete that touched the
        // shard between this entry's eviction and the publish above has
        // already removed the key's flash entry — re-publishing behind it
        // would resurrect a superseded (or deleted) version. The writers'
        // bump-before-index-remove and our sample-then-recheck discipline
        // guarantee one side sees the other, whichever publishes first.
        // (Per-shard granularity: an unrelated key's set can undo a fresh
        // demotion — that is an eviction, which a cache may always take.)
        if let Some(epoch) = self.dram_epoch(hash) {
            if epoch.changed_since(epoch_sampled) && self.index.remove_if_at(hash, region, offset)
            {
                self.metrics.dram_demote_undos.incr();
                self.on_entry_invalidated(hash, region);
            }
        }
        Ok(t)
    }

    /// Appends one object to the flash log and publishes its index entry:
    /// Phase 1 reserves a range under the writer lock (sealing and
    /// flushing full buffers as needed), Phase 2 copies the payload with
    /// no lock held, Phase 3 publishes the index (and, in mirror mode,
    /// DRAM) entry. Common to write-through sets and write-back
    /// demotions. Returns the completion time plus the log location the
    /// entry was published at, so a demotion can un-publish itself
    /// (location-checked) if its version was superseded mid-flight.
    fn log_write(
        &self,
        key: &[u8],
        value: &[u8],
        expiry: Nanos,
        hash: u64,
        fp: u32,
        crc: u32,
        now: Nanos,
    ) -> Result<(Nanos, RegionId, u32), CacheError> {
        let size = Self::object_size(key, value);
        let region_size = self.backend.region_size();

        // Phase 1, under the writer lock: reserve an append range. Any
        // eviction needed to make room also runs here — writers pay the
        // reclamation cost when the clean pool is dry (backpressure). A
        // seal, however, only *detaches* the full buffer under the lock;
        // its device write is submitted after the lock is dropped, so
        // other writers fill the next buffer while the flush programs.
        let mut w = self.writer.lock();
        let mut t = now.max(self.stall_deadline()) + INSERT_CPU;
        loop {
            if let Some(active) = &w.active {
                if region_size - active.used >= size {
                    break;
                }
            }
            let (job, tickets) = self.seal_detach(&mut w);
            // ticket-ok: `seal_detach` returns no tickets when there is no
            // job — with no active buffer there was nothing sealed, hence
            // nothing in flight to resolve on this path.
            let Some(job) = job else {
                // No active buffer at all: bind a fresh one and re-check.
                // lock-ok: allocating the replacement buffer must happen
                // under the writer lock (it installs `w.active`); eviction
                // backpressure on a dry pool is intentional.
                t = self.bind_fresh_buffer(&mut w, size, t)?;
                continue;
            };
            drop(w);
            for ticket in tickets {
                t = self.resolve_ticket(ticket, t);
            }
            match self.submit_flush(job, t) {
                // Pipelined: the writer does not wait for the flush; the
                // completion is reaped from the ticket later.
                Ok(_done) => {}
                // Permanent flush failure (e.g. the region's zone fell
                // read-only mid-life): `submit_flush` already dropped the
                // buffered entries and quarantined the slot. A cache
                // insert must not fail because one region died — reroute
                // this write into a fresh region and keep serving.
                Err(CacheError::Io(_)) => {
                    self.metrics.write_reroutes.incr();
                }
                Err(other) => return Err(other),
            }
            w = self.writer.lock();
        }
        // relaxed-ok: access sequence is a recency counter, not a publish.
        let seq = self.access_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let active = w
            .active
            .as_mut()
            .ok_or_else(|| CacheError::Internal("active buffer vanished after ensure".into()))?;
        let offset = active.used as u32;
        active.used += size;
        active.entries.push((hash, offset));
        let buf = Arc::clone(&active.buf);
        let region = buf.region;
        let slot = &self.slots[region.0 as usize];
        slot.last_access.store(seq, Ordering::Relaxed); // relaxed-ok: recency stamp, approximate by design
        let reserved_gen = slot.generation.sample();
        w.sets_since_maintenance += 1;
        if w.sets_since_maintenance >= self.config.maintenance_interval_sets {
            w.sets_since_maintenance = 0;
            self.run_maintenance(&mut w, t)?;
        }
        drop(w);

        // Phase 2, no locks: copy the payload into the reserved range and
        // publish it.
        // SAFETY: the reservation above is exclusively ours.
        unsafe {
            Self::write_object(&buf, offset as usize, key, value, crc);
        }
        buf.commit.commit(size);

        // Phase 3: index under one shard lock, DRAM under one shard lock.
        let old = self.index.insert(
            hash,
            IndexEntry {
                region,
                offset,
                key_len: key.len() as u16,
                value_len: value.len() as u32,
                fingerprint: fp,
                expiry,
                accessed: false,
            },
        );
        if let Some(old) = old {
            self.dec_live(old.region);
        }
        if slot.generation.changed_since(reserved_gen) {
            // The region was sealed *and* evicted between our reservation
            // and the index insert (extreme churn): the entry points at
            // reclaimed storage. Undo it — the object counts as evicted
            // immediately, which a cache is always allowed to do.
            self.index.remove_if_at(hash, region, offset);
        } else if !self.config.dram_write_back {
            // DRAM tier mirrors the newest version (mirror mode only —
            // write-back demotions must not bounce back into DRAM).
            if let Some(shard) = self.dram_shard(hash) {
                shard.lock().insert(
                    hash,
                    DramEntry {
                        key: Bytes::copy_from_slice(key),
                        value: Bytes::copy_from_slice(value),
                        expiry,
                        accessed: false,
                    },
                );
            }
        }
        Ok((t, region, offset))
    }

    /// Looks up a key.
    ///
    /// Returns the value (if cached) and the completion time.
    ///
    /// # Errors
    ///
    /// Backend I/O failures (never "miss" — a miss is `Ok(None)`).
    pub fn get(&self, key: &[u8], now: Nanos) -> Result<(Option<Bytes>, Nanos), CacheError> {
        self.observe_clock(now);
        let hash = hash_key(key);
        let fp = fingerprint(key);
        self.metrics.gets.incr();
        let mut t = now + LOOKUP_CPU;

        for _ in 0..READ_RETRY_ATTEMPTS {
            match self.try_get(key, hash, fp, now, &mut t)? {
                TryGet::Hit(value) => {
                    self.index.touch(hash, fp);
                    self.metrics.hits.incr();
                    self.metrics.record_get(t - now);
                    return Ok((Some(value), t));
                }
                TryGet::Miss => {
                    self.metrics.record_get(t - now);
                    return Ok((None, t));
                }
                TryGet::Stale => {
                    self.metrics.stale_reads.incr();
                }
            }
        }
        // The entry kept moving under eviction churn through the whole
        // retry budget: it is as good as evicted. Serve a miss.
        self.metrics.record_get(t - now);
        Ok((None, t))
    }

    /// One lookup attempt. `Stale` means an unlocked read raced a
    /// seal/eviction and the caller should retry from the index.
    fn try_get(
        &self,
        key: &[u8],
        hash: u64,
        fp: u32,
        now: Nanos,
        t: &mut Nanos,
    ) -> Result<TryGet, CacheError> {
        // Write-back mode: the DRAM tier is authoritative and write-back
        // entries have no index entry at all, so DRAM is consulted before
        // the index (DESIGN.md §10). `DramCache::get` expiry-checks and
        // rejects hash collisions itself.
        if self.config.dram_write_back {
            if let Some(shard) = self.dram_shard(hash) {
                if let Some(v) = shard.lock().get(hash, key, now) {
                    return Ok(TryGet::Hit(v));
                }
            }
        }
        let entry = match self.index.lookup(hash, fp) {
            Some(e) => e,
            None => return Ok(TryGet::Miss),
        };
        if entry.expiry <= now {
            // Lazy TTL reclamation: drop the entry, report a miss. The
            // removal is location-checked so a racing re-insert of the
            // same key is never clobbered.
            if self.index.remove_if_at(hash, entry.region, entry.offset) {
                self.on_entry_invalidated(hash, entry.region);
            }
            self.metrics.expired.incr();
            return Ok(TryGet::Miss);
        }
        // Index-wide stall from oversized eviction cleanup.
        *t = (*t).max(self.stall_deadline() + LOOKUP_CPU);
        // relaxed-ok: access sequence is a recency counter, not a publish.
        let seq = self.access_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[entry.region.0 as usize];
        slot.last_access.store(seq, Ordering::Relaxed); // relaxed-ok: recency stamp

        // DRAM tier first (mirror mode; write-back already checked it
        // above, before the index).
        if !self.config.dram_write_back {
            if let Some(shard) = self.dram_shard(hash) {
                if let Some(v) = shard.lock().get(hash, key, now) {
                    // A DRAM hit is still a reference to the flash copy.
                    return Ok(TryGet::Hit(v));
                }
            }
        }

        // Serve from the active buffer without touching flash.
        let active = self.active_ro.read().clone();
        if let Some(buf) = &active {
            if buf.region == entry.region {
                // Re-confirm the location against the buffer we hold: the
                // entry cannot name this buffer's region unless it was
                // inserted for this incarnation (eviction removes a
                // region's entries before the slot can be reused).
                if self.index.get_at(hash, entry.region, entry.offset).is_none() {
                    return Ok(TryGet::Stale);
                }
                let start = entry.offset as usize + OBJECT_HEADER + entry.key_len as usize;
                // SAFETY: an indexed object's bytes are committed before
                // the entry is published.
                let value = unsafe { buf.slice(start, entry.value_len as usize) };
                return Ok(TryGet::Hit(Bytes::copy_from_slice(value)));
            }
        }

        // Serve from a detached (sealing) flush image. Mandatory while the
        // flush is in flight — the data is not yet guaranteed on flash —
        // and kept until the ticket resolves, which holds the most
        // recently sealed (hottest) region at DRAM latency.
        let sealing = self
            .sealing_ro
            .read()
            .iter()
            .find(|b| b.region == entry.region)
            .cloned();
        if let Some(buf) = &sealing {
            if self.index.get_at(hash, entry.region, entry.offset).is_none() {
                return Ok(TryGet::Stale);
            }
            let start = entry.offset as usize + OBJECT_HEADER + entry.key_len as usize;
            // SAFETY: the image was quiesced at detach, so every byte is
            // committed and immutable for the buffer's remaining lifetime.
            let value = unsafe { buf.slice(start, entry.value_len as usize) };
            return Ok(TryGet::Hit(Bytes::copy_from_slice(value)));
        }

        // Flash path — entirely outside any engine lock. Pin the region
        // so eviction cannot reclaim its storage mid-read, then confirm
        // nothing moved before trusting the location.
        let _pin = slot.pins.pin();
        let gen = slot.generation.sample();
        if self.index.get_at(hash, entry.region, entry.offset).is_none() {
            return Ok(TryGet::Stale);
        }
        if let Some(buf) = self.active_ro.read().as_ref() {
            if buf.region == entry.region {
                // The slot was recycled into the active buffer between the
                // first check and the pin; retry through the buffer path.
                return Ok(TryGet::Stale);
            }
        }
        if self.sealing_ro.read().iter().any(|b| b.region == entry.region) {
            // The slot was recycled *and re-sealed* between the first
            // check and the pin: its new image may not be on flash yet.
            // Retry — the next attempt serves it from the sealing buffer.
            return Ok(TryGet::Stale);
        }
        let stale = |e: Option<CacheError>| {
            if slot.generation.changed_since(gen) {
                Ok(TryGet::Stale)
            } else {
                match e {
                    Some(err) => Err(err),
                    None => Ok(TryGet::Stale),
                }
            }
        };
        if self.config.verify_keys {
            // Read header + key + value; verify identity + checksum.
            let len = OBJECT_HEADER + entry.key_len as usize + entry.value_len as usize;
            let mut obj = vec![0u8; len];
            match self.retry_io(*t, |t| {
                self.backend.read(entry.region, entry.offset as usize, &mut obj, t)
            }) {
                Ok(done) => *t = done,
                // A read error on a region that was invalidated mid-read
                // (e.g. a reset zone) is staleness, not device failure.
                Err(e) => return stale(Some(e)),
            }
            let stored_key = &obj[OBJECT_HEADER..OBJECT_HEADER + entry.key_len as usize];
            // `obj` always holds at least a header here, but corruption
            // handling must not rely on that — a malformed length is
            // treated as a failed checksum, not a panic.
            let stored_crc = Self::header_crc(&obj);
            if stored_crc != Some(crc32(&obj[OBJECT_HEADER..])) {
                if slot.generation.changed_since(gen) {
                    return Ok(TryGet::Stale);
                }
                // Bit rot or a torn flush: the entry is poison.
                // Invalidate it and serve a miss — never bad bytes.
                if self.index.remove_if_at(hash, entry.region, entry.offset) {
                    self.on_entry_invalidated(hash, entry.region);
                }
                self.metrics.corrupt_reads.incr();
                return Ok(TryGet::Miss);
            }
            if stored_key != key {
                if slot.generation.changed_since(gen) {
                    return Ok(TryGet::Stale);
                }
                // Fingerprint collision with a different key.
                self.index.remove_if_at(hash, entry.region, entry.offset);
                return Ok(TryGet::Miss);
            }
            Ok(TryGet::Hit(Bytes::copy_from_slice(
                &obj[OBJECT_HEADER + entry.key_len as usize..],
            )))
        } else {
            // Sparse-store mode: payloads are not retained, so neither key
            // nor checksum can be verified — the generation revalidation
            // is the only guard against serving a reclaimed location.
            let start = entry.offset as usize + OBJECT_HEADER + entry.key_len as usize;
            let mut value = vec![0u8; entry.value_len as usize];
            match self.retry_io(*t, |t| self.backend.read(entry.region, start, &mut value, t)) {
                Ok(done) => *t = done,
                Err(e) => return stale(Some(e)),
            }
            if slot.generation.changed_since(gen) {
                return Ok(TryGet::Stale);
            }
            Ok(TryGet::Hit(Bytes::from(value)))
        }
    }

    /// Deletes a key. Returns whether it existed, and the completion time.
    ///
    /// # Errors
    ///
    /// None today — deletion is pure DRAM-state invalidation (the flash
    /// copy dies with its region). The typed `Result` is the contract for
    /// callers so a future trim-on-delete path can surface backend
    /// failures instead of swallowing them.
    pub fn delete(&self, key: &[u8], now: Nanos) -> Result<(bool, Nanos), CacheError> {
        self.observe_clock(now);
        let hash = hash_key(key);
        let fp = fingerprint(key);
        let t = now + LOOKUP_CPU;
        // The DRAM tier is purged unconditionally: in write-back mode the
        // resident copy may be the *only* copy, with no index entry to
        // lead here (mirror mode reaches the same state — no stale DRAM
        // entry may outlive a delete).
        let dram_removed = match self.dram_shard(hash) {
            Some(shard) => {
                let mut tier = shard.lock();
                let removed = tier.remove(hash);
                // Bump the shard's supersession epoch even when the key is
                // absent: in write-back mode an in-flight demotion may hold
                // the key's only copy (already evicted from the shard), and
                // the bump — ordered under the lock, before the index
                // remove below — is what keeps it from re-publishing the
                // deleted key behind us.
                if let Some(epoch) = self.dram_epoch(hash) {
                    epoch.invalidate();
                }
                removed
            }
            None => false,
        };
        let removed = self.index.remove(hash, fp);
        if let Some(entry) = &removed {
            self.dec_live(entry.region);
        }
        let existed = removed.is_some() || dram_removed;
        if existed {
            self.metrics.deletes.incr();
        }
        Ok((existed, t))
    }

    /// Seals and flushes the active buffer even if partially full, then
    /// drains the whole flush pipeline: on return every sealed region has
    /// landed on the backend (a true barrier) and the returned time
    /// covers the slowest in-flight flush.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    pub fn flush(&self, now: Nanos) -> Result<Nanos, CacheError> {
        self.observe_clock(now);
        let mut w = self.writer.lock();
        let (job, mut tickets) = self.seal_detach(&mut w);
        // Barrier: drain everything, including the ticket of the job
        // detached above (its cell is filled by the submit below, before
        // any resolve waits on it).
        tickets.extend(w.in_flight.drain(..));
        drop(w);
        let submit = match job {
            Some(job) => self.submit_flush(job, now).map(Some),
            None => Ok(None),
        };
        let mut t = now;
        for ticket in tickets {
            t = self.resolve_ticket(ticket, t);
        }
        // Error only after every cell is resolved: waiters never hang on
        // a failed submission, and the barrier semantics still hold.
        if let Some(done) = submit? {
            t = t.max(done);
        }
        Ok(t)
    }

    /// Resolves every in-flight flush ticket without sealing the active
    /// buffer. Unlike [`LogCache::flush`] this is not a durability
    /// barrier — the partially-filled active region keeps accepting
    /// writes. Benchmarks call it at the end of warmup so the measured
    /// phase starts with an idle flush pipeline instead of inheriting a
    /// half-finished program window.
    pub fn drain_flushes(&self, now: Nanos) -> Nanos {
        self.observe_clock(now);
        let tickets: Vec<_> = {
            let mut w = self.writer.lock();
            w.in_flight.drain(..).collect()
        };
        let mut t = now;
        for ticket in tickets {
            t = self.resolve_ticket(ticket, t);
        }
        t
    }

    /// Runs backend maintenance immediately (tests and shutdown paths).
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    pub fn force_maintenance(&self, now: Nanos) -> Result<(), CacheError> {
        let mut w = self.writer.lock();
        // lock-ok: the explicit stop-the-world knob — callers ask for
        // maintenance to displace foreground writes.
        self.run_maintenance(&mut w, now)
    }

    pub(crate) fn index(&self) -> &Index {
        &self.index
    }

    pub(crate) fn metrics_internal(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Internal: region metadata dump for recovery snapshots.
    pub(crate) fn region_dump(&self) -> Vec<RegionDumpEntry> {
        // Hold the writer lock so no seal/eviction mutates region tables
        // mid-dump.
        let _w = self.writer.lock();
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let meta = s.meta.lock();
                (
                    i as u32,
                    meta.entries.clone(),
                    s.live_objects.load(Ordering::Relaxed), // relaxed-ok: statistic
                    s.last_access.load(Ordering::Relaxed),  // relaxed-ok: statistic
                    meta.state == RegionState::Sealed,
                    meta.seal_seq,
                )
            })
            .collect()
    }

    /// Internal: restore region metadata from a recovery snapshot. Sealed
    /// regions re-enter the FIFO in their recorded seal order, so a
    /// restarted cache evicts in exactly the pre-shutdown order.
    pub(crate) fn region_restore(&self, regions: Vec<RegionDumpEntry>) -> Result<(), CacheError> {
        let mut w = self.writer.lock();
        if regions.len() != self.slots.len() {
            return Err(CacheError::BadSnapshot(format!(
                "snapshot has {} regions, backend has {}",
                regions.len(),
                self.slots.len()
            )));
        }
        w.free.clear();
        w.fifo.clear();
        let mut max_seq = 0;
        let mut sealed: Vec<(u64, u32)> = Vec::new();
        for (i, entries, live, last_access, is_sealed, seal_seq) in regions {
            // A zone that degraded while the cache was down must not
            // re-enter service: a dead region serves nothing, and a
            // read-only region can keep serving sealed data but never
            // host a fresh write. Quarantine instead of freeing, and drop
            // any restored index entries a snapshot may still list.
            // lock-ok: recovery runs single-threaded before the cache is
            // open; the writer lock is held for invariant convenience,
            // nobody contends it.
            let health = self.backend.region_health(RegionId(i));
            let unusable = health == RegionHealth::Dead
                || (health == RegionHealth::Degraded && !is_sealed);
            if unusable {
                for &(hash, offset) in &entries {
                    if self.index.remove_if_at(hash, RegionId(i), offset) {
                        self.on_entry_invalidated(hash, RegionId(i));
                    }
                }
                // lock-ok: same single-threaded recovery scan as above.
                self.quarantine(&mut w, i);
                continue;
            }
            let slot = &self.slots[i as usize];
            {
                let mut meta = slot.meta.lock();
                meta.entries = entries;
                meta.seal_seq = seal_seq;
                meta.state = if is_sealed {
                    RegionState::Sealed
                } else {
                    RegionState::Free
                };
            }
            // relaxed-ok: restore runs under the writer lock, single writer.
            slot.live_objects.store(live, Ordering::Relaxed);
            slot.last_access.store(last_access, Ordering::Relaxed); // relaxed-ok: see above
            max_seq = max_seq.max(last_access);
            if is_sealed {
                sealed.push((seal_seq, i));
            } else {
                w.free.push(i);
            }
        }
        sealed.sort_unstable();
        w.next_seal_seq = sealed.last().map_or(0, |&(s, _)| s + 1);
        for (_, i) in sealed {
            w.fifo.push_back(i);
        }
        self.access_seq.store(max_seq, Ordering::Relaxed); // relaxed-ok: recency counter
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BlockBackend;
    use sim::{RamDisk, BLOCK_SIZE};

    /// 16 regions of 16 KiB on a RAM disk.
    fn cache() -> LogCache {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        LogCache::new(backend, CacheConfig::small_test()).unwrap()
    }

    #[test]
    fn set_get_round_trip_from_buffer_and_flash() {
        let c = cache();
        let t = c.set(b"alpha", b"one", Nanos::ZERO).unwrap();
        // Still in the active buffer.
        let (v, t) = c.get(b"alpha", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"one"[..]));
        // Force it to flash and read again.
        let t = c.flush(t).unwrap();
        let (v, _) = c.get(b"alpha", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"one"[..]));
        assert_eq!(c.metrics().hits, 2);
    }

    #[test]
    fn miss_returns_none() {
        let c = cache();
        let (v, _) = c.get(b"nope", Nanos::ZERO).unwrap();
        assert!(v.is_none());
        assert_eq!(c.metrics().gets, 1);
        assert_eq!(c.metrics().hits, 0);
    }

    #[test]
    fn overwrite_returns_latest() {
        let c = cache();
        let t = c.set(b"k", b"v1", Nanos::ZERO).unwrap();
        let t = c.set(b"k", b"v2", t).unwrap();
        let (v, _) = c.get(b"k", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"v2"[..]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn delete_removes() {
        let c = cache();
        let t = c.set(b"k", b"v", Nanos::ZERO).unwrap();
        let (existed, t) = c.delete(b"k", t).unwrap();
        assert!(existed);
        let (v, _) = c.get(b"k", t).unwrap();
        assert!(v.is_none());
        let (existed, _) = c.delete(b"k", t).unwrap();
        assert!(!existed);
    }

    #[test]
    fn object_too_large_rejected() {
        let c = cache();
        let huge = vec![0u8; 5 * BLOCK_SIZE];
        assert!(matches!(
            c.set(b"k", &huge, Nanos::ZERO),
            Err(CacheError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn eviction_kicks_in_when_regions_exhausted() {
        let c = cache();
        // 16 regions of 16 KiB; write ~2x the capacity in 1 KiB objects.
        let value = vec![7u8; 1024 - 32];
        let mut t = Nanos::ZERO;
        let total = 2 * 16 * 16; // objects ≈ 2x capacity
        for i in 0..total {
            let key = format!("key-{i:06}");
            t = c.set(key.as_bytes(), &value, t).unwrap();
        }
        let m = c.metrics();
        assert!(m.evicted_regions > 0, "no eviction: {m:?}");
        assert!(m.evicted_objects > 0);
        assert!(m.inline_evictions > 0, "foreground evictions not counted");
        // Recently inserted keys must be present; the oldest must be gone.
        let last = format!("key-{:06}", total - 1);
        let (v, _) = c.get(last.as_bytes(), t).unwrap();
        assert!(v.is_some(), "most recent key evicted");
        let (v, _) = c.get(b"key-000000", t).unwrap();
        assert!(v.is_none(), "oldest key survived 2x-capacity churn");
    }

    #[test]
    fn lru_eviction_prefers_cold_regions() {
        let c = cache();
        let value = vec![1u8; 3 * 1024];
        let mut t = Nanos::ZERO;
        // Fill all 16 regions (4 objects each).
        for i in 0..64 {
            let key = format!("k{i:04}");
            t = c.set(key.as_bytes(), &value, t).unwrap();
        }
        t = c.flush(t).unwrap();
        // Keep early keys hot.
        for i in 0..8 {
            let key = format!("k{i:04}");
            let (v, t2) = c.get(key.as_bytes(), t).unwrap();
            assert!(v.is_some());
            t = t2;
        }
        // Insert more to force evictions.
        for i in 64..96 {
            let key = format!("k{i:04}");
            t = c.set(key.as_bytes(), &value, t).unwrap();
        }
        // Hot early keys should have survived longer than cold middle keys.
        let (hot, t2) = c.get(b"k0000", t).unwrap();
        let (cold, _) = c.get(b"k0020", t2).unwrap();
        assert!(hot.is_some() || cold.is_none(), "LRU inverted");
    }

    #[test]
    fn admission_rejects_probabilistically() {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            admission: Admission::Random { probability: 0.0 },
            ..CacheConfig::small_test()
        };
        let c = LogCache::new(backend, config).unwrap();
        let t = c.set(b"k", b"v", Nanos::ZERO).unwrap();
        let (v, _) = c.get(b"k", t).unwrap();
        assert!(v.is_none());
        assert_eq!(c.metrics().rejected, 1);
    }

    #[test]
    fn dram_tier_serves_hot_objects() {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            dram_bytes: 64 * 1024,
            ..CacheConfig::small_test()
        };
        let c = LogCache::new(backend, config).unwrap();
        let t = c.set(b"k", b"v", Nanos::ZERO).unwrap();
        let t = c.flush(t).unwrap();
        let (v, t_done) = c.get(b"k", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"v"[..]));
        // DRAM hit: no device latency beyond CPU cost.
        assert_eq!(t_done - t, LOOKUP_CPU);
    }

    /// Write-back rig: one DRAM shard sized for exactly two 31-byte
    /// entries (1-byte key + 30-byte value), so the third insert evicts,
    /// plus a handle on the backend to observe flash traffic.
    fn write_back_cache(dram_bytes: usize) -> (LogCache, Arc<BlockBackend>) {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            dram_bytes,
            dram_shards: 1,
            dram_write_back: true,
            ..CacheConfig::small_test()
        };
        let c = LogCache::new(Arc::clone(&backend) as Arc<dyn RegionBackend>, config).unwrap();
        (c, backend)
    }

    #[test]
    fn write_back_absorbs_sets_without_flash_writes() {
        let (c, backend) = write_back_cache(64 * 1024);
        let mut t = Nanos::ZERO;
        for i in 0..50u32 {
            t = c.set(format!("wb{i:02}").as_bytes(), &[i as u8; 100], t).unwrap();
        }
        t = c.flush(t).unwrap();
        assert_eq!(backend.host_bytes_written(), 0, "sets must be absorbed in DRAM");
        assert_eq!(c.len(), 0, "absorbed keys must have no flash index entry");
        assert_eq!(c.metrics().dram_demotions, 0);
        let (v, _) = c.get(b"wb07", t).unwrap();
        assert_eq!(v.as_deref(), Some(&[7u8; 100][..]));
    }

    #[test]
    fn write_back_demotes_accessed_and_drops_one_hit_wonders() {
        let (c, _backend) = write_back_cache(62);
        let val = |b: u8| vec![b; 30];
        let mut t = Nanos::ZERO;
        t = c.set(b"a", &val(1), t).unwrap();
        t = c.set(b"b", &val(2), t).unwrap();
        // Touch `a`: it is now both accessed and most-recent.
        let (v, t2) = c.get(b"a", t).unwrap();
        assert_eq!(v.as_deref(), Some(&val(1)[..]));
        t = t2;
        // Evicts `b` — never accessed, so reject-first drops it cold.
        t = c.set(b"c", &val(3), t).unwrap();
        assert_eq!(c.metrics().dram_demotions, 0, "one-hit-wonder must not demote");
        // Evicts `a` — accessed, so it demotes into the flash log.
        t = c.set(b"d", &val(4), t).unwrap();
        assert_eq!(c.metrics().dram_demotions, 1, "accessed evictee must demote");
        let (v, t3) = c.get(b"a", t).unwrap();
        assert_eq!(v.as_deref(), Some(&val(1)[..]), "demoted entry must stay readable");
        t = t3;
        let (v, _) = c.get(b"b", t).unwrap();
        assert!(v.is_none(), "dropped one-hit-wonder must miss");
    }

    #[test]
    fn write_back_overwrite_never_resurfaces_old_flash_copy() {
        let (c, _backend) = write_back_cache(62);
        let val = |b: u8| vec![b; 30];
        let mut t = Nanos::ZERO;
        t = c.set(b"a", &val(1), t).unwrap();
        let (_, t2) = c.get(b"a", t).unwrap(); // mark accessed
        t = t2;
        // Push `a` (v1) out to flash, then overwrite it in DRAM with v2.
        t = c.set(b"b", &val(2), t).unwrap();
        t = c.set(b"c", &val(3), t).unwrap();
        assert_eq!(c.metrics().dram_demotions, 1);
        t = c.set(b"a", &val(9), t).unwrap();
        let (v, t2) = c.get(b"a", t).unwrap();
        assert_eq!(v.as_deref(), Some(&val(9)[..]), "resident copy is authoritative");
        t = t2;
        // The stale flash copy of v1 must be gone, not shadowed: after a
        // delete nothing may resurface.
        let (existed, t2) = c.delete(b"a", t).unwrap();
        assert!(existed);
        let (v, _) = c.get(b"a", t2).unwrap();
        assert!(v.is_none(), "old flash version resurfaced after delete");
    }

    #[test]
    fn write_back_write_through_purges_stale_resident_copy() {
        // A value too large for the whole DRAM tier writes through to
        // flash; an older *resident* version of the same key must not
        // stay behind to shadow it (DRAM is authoritative in this mode).
        let (c, _backend) = write_back_cache(62);
        let mut t = Nanos::ZERO;
        t = c.set(b"a", &[1u8; 30], t).unwrap();
        t = c.set(b"a", &[9u8; 200], t).unwrap();
        let (v, _) = c.get(b"a", t).unwrap();
        assert_eq!(
            v.as_deref(),
            Some(&[9u8; 200][..]),
            "stale DRAM copy shadowed the written-through version"
        );
    }

    #[test]
    fn write_back_delete_removes_dram_only_entry() {
        let (c, _backend) = write_back_cache(64 * 1024);
        let t = c.set(b"k", b"v", Nanos::ZERO).unwrap();
        let (existed, t) = c.delete(b"k", t).unwrap();
        assert!(existed, "DRAM-resident entry must count as existing");
        let (v, _) = c.get(b"k", t).unwrap();
        assert!(v.is_none());
    }

    #[test]
    fn write_back_ttl_expires_in_dram() {
        let (c, _backend) = write_back_cache(64 * 1024);
        let t = c
            .set_with_ttl(b"k", b"v", Some(Nanos::from_millis(5)), Nanos::ZERO)
            .unwrap();
        let (v, t) = c.get(b"k", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"v"[..]));
        let late = t + Nanos::from_millis(10);
        let (v, _) = c.get(b"k", late).unwrap();
        assert!(v.is_none(), "expired DRAM-resident entry served");
    }

    #[test]
    fn write_back_expired_evictee_is_not_demoted() {
        let (c, _backend) = write_back_cache(62);
        let val = |b: u8| vec![b; 30];
        let mut t = Nanos::ZERO;
        t = c
            .set_with_ttl(b"a", &val(1), Some(Nanos::from_millis(1)), t)
            .unwrap();
        let (_, t2) = c.get(b"a", t).unwrap(); // accessed — would demote if alive
        t = t2 + Nanos::from_millis(5);
        t = c.set(b"b", &val(2), t).unwrap();
        c.set(b"c", &val(3), t).unwrap();
        assert_eq!(
            c.metrics().dram_demotions,
            0,
            "an entry that expired while resident must not reach flash"
        );
    }

    #[test]
    fn too_small_backend_rejected() {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(8)),
            4 * BLOCK_SIZE,
        ));
        assert!(matches!(
            LogCache::new(backend, CacheConfig::small_test()),
            Err(CacheError::BackendTooSmall)
        ));
    }

    #[test]
    fn flush_pipeline_stalls_when_saturated() {
        // One in-flight buffer: the second seal must wait for the first.
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            in_memory_buffers: 1,
            ..CacheConfig::small_test()
        };
        let c = LogCache::new(backend, config).unwrap();
        let value = vec![1u8; 15 * 1024];
        let t1 = c.set(b"a", &value, Nanos::ZERO).unwrap();
        // Second large set seals buffer 1 (flush in flight) and the third
        // seals buffer 2, which must wait for flush 1.
        let t2 = c.set(b"b", &value, t1).unwrap();
        let t3 = c.set(b"c", &value, t2).unwrap();
        assert!(t3 - t2 >= t2 - t1, "no pipeline stall observed");
    }

    #[test]
    fn ttl_expiry_turns_hits_into_misses() {
        let c = cache();
        let t = c
            .set_with_ttl(b"short", b"v", Some(Nanos::from_millis(5)), Nanos::ZERO)
            .unwrap();
        let t = c.set_with_ttl(b"long", b"v", None, t).unwrap();
        // Before expiry: both hit.
        let (v, t) = c.get(b"short", t).unwrap();
        assert!(v.is_some());
        // Jump past the TTL.
        let late = t + Nanos::from_millis(10);
        let (v, late) = c.get(b"short", late).unwrap();
        assert!(v.is_none(), "expired object served");
        let (v, _) = c.get(b"long", late).unwrap();
        assert!(v.is_some(), "unexpiring object lost");
        assert_eq!(c.metrics().expired, 1);
        // The expired entry is reclaimed from the index.
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expired_key_can_be_reinserted() {
        let c = cache();
        let t = c
            .set_with_ttl(b"k", b"v1", Some(Nanos::from_millis(1)), Nanos::ZERO)
            .unwrap();
        let late = t + Nanos::from_millis(2);
        let (v, late) = c.get(b"k", late).unwrap();
        assert!(v.is_none());
        let late = c.set(b"k", b"v2", late).unwrap();
        let (v, _) = c.get(b"k", late).unwrap();
        assert_eq!(v.as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn reinsertion_rescues_hot_objects_across_eviction() {
        // Two caches, identical churn; one rescues accessed objects.
        let run = |fraction: f64| {
            let backend = Arc::new(BlockBackend::new(
                Arc::new(RamDisk::new(64)),
                4 * BLOCK_SIZE,
            ));
            let config = CacheConfig {
                reinsertion_fraction: fraction,
                eviction: EvictionPolicy::Fifo, // deterministic victim order
                ..CacheConfig::small_test()
            };
            let c = LogCache::new(backend, config).unwrap();
            let value = vec![1u8; 3 * 1024];
            let mut t = Nanos::ZERO;
            t = c.set(b"hot", &value, t).unwrap();
            // Keep "hot" referenced.
            let (v, t2) = c.get(b"hot", t).unwrap();
            assert!(v.is_some());
            t = t2;
            // Churn through more than full capacity so "hot"'s region gets evicted.
            for i in 0..90u32 {
                let key = format!("cold-{i:04}");
                t = c.set(key.as_bytes(), &value, t).unwrap();
            }
            let (v, _) = c.get(b"hot", t).unwrap();
            (v.is_some(), c.metrics().reinserted_objects)
        };
        let (survived_without, reinserted_without) = run(0.0);
        let (survived_with, reinserted_with) = run(0.5);
        assert!(!survived_without, "FIFO churn should evict without policy");
        assert_eq!(reinserted_without, 0);
        assert!(survived_with, "reinsertion should rescue the hot object");
        assert!(reinserted_with > 0);
    }

    #[test]
    fn len_tracks_live_objects() {
        let c = cache();
        assert!(c.is_empty());
        let t = c.set(b"a", b"1", Nanos::ZERO).unwrap();
        let t = c.set(b"b", b"2", t).unwrap();
        c.delete(b"a", t).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn maintain_refills_clean_pool_to_watermark() {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            clean_region_watermark: 4,
            eviction: EvictionPolicy::Fifo,
            ..CacheConfig::small_test()
        };
        let c = LogCache::new(backend, config).unwrap();
        // Seal every region: free pool empty afterwards.
        let value = vec![1u8; 15 * 1024];
        let mut t = Nanos::ZERO;
        for i in 0..16u32 {
            let key = format!("k{i:02}");
            t = c.set(key.as_bytes(), &value, t).unwrap();
        }
        t = c.flush(t).unwrap();
        assert_eq!(c.clean_regions(), 0);
        let evicted = c.maintain(t).unwrap();
        assert_eq!(evicted.len(), 4, "maintainer should evict to the watermark");
        assert_eq!(c.clean_regions(), 4);
        assert_eq!(c.metrics().maintainer_evictions, 4);
        // FIFO: the oldest sealed regions go first, in order.
        let ids: Vec<u32> = evicted.iter().map(|r| r.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Already at the watermark: a second pass is a no-op.
        assert!(c.maintain(t).unwrap().is_empty());
    }

    #[test]
    fn concurrent_sets_and_gets_preserve_committed_values() {
        // A smoke-level version of tests/concurrency.rs: hammer one small
        // cache from several threads and require every surviving read to
        // return the exact bytes its key was last acked with.
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(256)),
            4 * BLOCK_SIZE,
        ));
        let c = Arc::new(LogCache::new(backend, CacheConfig::small_test()).unwrap());
        std::thread::scope(|s| {
            for thread in 0..4u32 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let mut t = Nanos::ZERO;
                    for i in 0..200u32 {
                        let key = format!("t{thread}-k{:02}", i % 16);
                        let value = format!("t{thread}-v{i:04}");
                        t = c.set(key.as_bytes(), value.as_bytes(), t).unwrap();
                        let (got, t2) = c.get(key.as_bytes(), t).unwrap();
                        t = t2;
                        if let Some(got) = got {
                            // Keys are thread-private: a hit must be the
                            // value this thread just wrote.
                            assert_eq!(got.as_ref(), value.as_bytes(), "{key} served wrong bytes");
                        }
                    }
                });
            }
        });
        assert!(c.metrics().sets > 0);
    }

    // ------------------------------------------------------------------
    // Unsafe-core tests — the Miri targets. `scripts/miri.sh` runs
    // `cargo miri test -p zns-cache buffer_` so every unsafe entry point
    // of RegionBuffer (write, slice, as_slice, write_object) is validated
    // under Stacked Borrows, including the cross-thread disjoint-write
    // pattern the engine relies on.
    // ------------------------------------------------------------------

    #[test]
    fn buffer_write_then_slice_roundtrip() {
        let buf = RegionBuffer::new(RegionId(0), 64);
        // SAFETY: single-threaded test; we own the whole buffer.
        unsafe { buf.write(3, b"hello") };
        buf.commit.commit(8);
        // SAFETY: the range was just committed.
        let got = unsafe { buf.slice(3, 5) };
        assert_eq!(got, b"hello");
        // SAFETY: zero-length reads are always in-contract.
        assert_eq!(unsafe { buf.slice(60, 0) }, b"");
    }

    #[test]
    fn buffer_disjoint_concurrent_writes_then_sealed_image() {
        // The engine's phase-2 pattern in miniature: four writers copy
        // into disjoint reservations with no lock, commit, and a sealer
        // quiesces before taking the full image.
        let buf = Arc::new(RegionBuffer::new(RegionId(0), 32));
        std::thread::scope(|s| {
            for i in 0..4usize {
                let buf = Arc::clone(&buf);
                s.spawn(move || {
                    let fill = [i as u8 + 1; 8];
                    // SAFETY: reservation i*8..i*8+8 is exclusively ours.
                    unsafe { buf.write(i * 8, &fill) };
                    buf.commit.commit(8);
                });
            }
        });
        buf.commit.quiesce(32);
        // SAFETY: all 32 reserved bytes are committed and no writer is
        // alive (scope joined), matching the seal contract.
        let image = unsafe { buf.as_slice() };
        for i in 0..4 {
            assert!(image[i * 8..(i + 1) * 8].iter().all(|&b| b == i as u8 + 1));
        }
    }

    #[test]
    fn buffer_write_object_serializes_parseable_header() {
        let buf = RegionBuffer::new(RegionId(1), 128);
        let crc = LogCache::object_crc(b"key", b"value");
        // SAFETY: single-threaded test; the object's range is ours.
        unsafe { LogCache::write_object(&buf, 0, b"key", b"value", crc) };
        buf.commit.commit(OBJECT_HEADER + 8);
        // SAFETY: committed above.
        let obj = unsafe { buf.slice(0, OBJECT_HEADER + 8) };
        assert_eq!(u16::from_le_bytes([obj[0], obj[1]]), 3, "key length");
        assert_eq!(
            u32::from_le_bytes([obj[4], obj[5], obj[6], obj[7]]),
            5,
            "value length"
        );
        assert_eq!(LogCache::header_crc(obj), Some(crc));
        assert_eq!(&obj[OBJECT_HEADER..OBJECT_HEADER + 3], b"key");
        assert_eq!(&obj[OBJECT_HEADER + 3..], b"value");
    }

    #[test]
    fn buffer_empty_write_is_a_noop() {
        let buf = RegionBuffer::new(RegionId(0), 8);
        // SAFETY: empty writes touch no bytes; any offset is in-contract.
        unsafe { buf.write(8, &[]) };
        assert_eq!(buf.commit.committed(), 0);
    }

    #[test]
    fn header_crc_rejects_short_slices_without_panicking() {
        assert_eq!(LogCache::header_crc(&[0u8; OBJECT_HEADER - 1]), None);
        assert_eq!(LogCache::header_crc(&[]), None);
    }

    /// Pins the on-flash object checksum: `object_crc` for one object of
    /// each of the paper mix's eight value sizes, with the values computed
    /// by the byte-at-a-time CRC kernel. Objects written by any earlier
    /// build must keep verifying, so these may never change.
    #[test]
    fn object_crc_golden_values_pin_the_on_flash_format() {
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        // The bytes of `workload::value_for_key(id, 0)`, regenerated here
        // because this crate does not depend on `workload`.
        fn value_for_key(id: u64, len: usize) -> Vec<u8> {
            let mut state = splitmix64(id ^ 0xA5A5_5A5A);
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                state = splitmix64(state);
                out.extend_from_slice(&state.to_le_bytes());
            }
            out.truncate(len);
            out
        }
        for (id, len, crc) in [
            (29u64, 64usize, 0xEBE8_CC2Au32),
            (2, 128, 0xF8F4_84A7),
            (5, 256, 0xF540_CF6B),
            (0, 512, 0x242C_6926),
            (1, 1024, 0x89F8_9847),
            (7, 2048, 0x5EDC_421A),
            (6, 4096, 0x4C1B_79FA),
            (40, 8192, 0x577B_EC9A),
        ] {
            let key = format!("key-{id:016x}");
            assert_eq!(
                LogCache::object_crc(key.as_bytes(), &value_for_key(id, len)),
                crc,
                "key {id}, {len} B value"
            );
        }
    }

    // ------------------------------------------------------------------
    // Panic regression: every failure reachable from the public API must
    // surface as a typed error, never a panic (satellite of the
    // verification-layer PR; `cargo xtask lint` enforces the static side).
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // Dying-device robustness: retry jitter, write reroute, scrubber.
    // ------------------------------------------------------------------

    /// A Zone-Cache rig over a fault-injectable ZNS device.
    fn zoned_cache() -> (
        Arc<sim::fault::FaultInjector>,
        Arc<zns::ZnsDevice>,
        LogCache,
    ) {
        let inj = Arc::new(sim::fault::FaultInjector::with_seed(7));
        let dev = Arc::new(
            zns::ZnsDevice::new(zns::ZnsConfig::small_test())
                .with_fault_injector(Arc::clone(&inj)),
        );
        let backend = Arc::new(crate::backend::ZoneBackend::new(Arc::clone(&dev)));
        let c = LogCache::new(backend, CacheConfig::small_test()).unwrap();
        (inj, dev, c)
    }

    /// Runs one failing-then-succeeding retry sequence and returns the
    /// timestamp presented to each attempt.
    fn retry_attempt_times(c: &LogCache, fails: u32) -> Vec<Nanos> {
        let mut seen = Vec::new();
        let mut left = fails;
        c.retry_io(Nanos::ZERO, |t| {
            seen.push(t);
            if left > 0 {
                left -= 1;
                Err(CacheError::Io("transient".into()))
            } else {
                Ok(t)
            }
        })
        .unwrap();
        seen
    }

    #[test]
    fn retry_backoff_jitter_decorrelates_concurrent_sequences() {
        // Two retry sequences starting at the same instant (the 8-thread
        // retry-storm shape) must not back off in lockstep: each draws a
        // fresh salt, so their pause schedules diverge.
        let c = cache();
        assert!(c.config().retry.jitter, "jitter must default on");
        let a = retry_attempt_times(&c, 2);
        let b = retry_attempt_times(&c, 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0], b[0], "first attempts are un-delayed");
        assert_ne!(
            &a[1..],
            &b[1..],
            "jittered retry sequences re-collided in lockstep"
        );
        // And the jitter is bounded: never more than 1.5x the base delay.
        let base = c.config().retry.backoff;
        assert!(a[1] <= Nanos::ZERO + base + base / 2);

        // With jitter disabled the schedule is exact and repeatable.
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            retry: RetryPolicy::no_jitter(),
            ..CacheConfig::small_test()
        };
        let c = LogCache::new(backend, config).unwrap();
        let a = retry_attempt_times(&c, 2);
        let b = retry_attempt_times(&c, 2);
        assert_eq!(a, b, "no_jitter schedules must be identical");
        assert_eq!(a[1] - a[0], c.config().retry.backoff);
    }

    #[test]
    fn set_survives_permanent_region_flush_failure() {
        use sim::fault::{FaultKind, FaultyDevice};
        let faulty = Arc::new(FaultyDevice::new(Arc::new(RamDisk::new(64))));
        let backend = Arc::new(BlockBackend::new(
            Arc::clone(&faulty) as Arc<dyn sim::BlockDevice>,
            4 * BLOCK_SIZE,
        ));
        let c = LogCache::new(backend, CacheConfig::small_test()).unwrap();
        let value = vec![9u8; 15 * 1024];
        let t = c.set(b"doomed", &value, Nanos::ZERO).unwrap();
        // The next seal's flush fails through the entire retry budget.
        faulty.arm(FaultKind::Writes, u64::from(c.config().retry.attempts));
        // This set seals the full buffer; the flush dies permanently, the
        // region is quarantined, and the set reroutes to a fresh region
        // instead of surfacing the dead region's error.
        let t = c.set(b"survivor", &value, t).unwrap();
        let m = c.metrics();
        assert_eq!(m.write_reroutes, 1, "{m:?}");
        assert_eq!(m.flush_failures, 1);
        assert_eq!(m.quarantined_regions, 1);
        let t = c.flush(t).unwrap();
        let (v, t) = c.get(b"doomed", t).unwrap();
        assert!(v.is_none(), "objects of a failed flush must not resurface");
        let (v, _) = c.get(b"survivor", t).unwrap();
        assert_eq!(v.as_deref(), Some(&value[..]), "rerouted set lost");
    }

    #[test]
    fn scrub_invalidates_latent_corruption_before_it_is_served() {
        let (inj, _dev, c) = zoned_cache();
        // One write persists with a silently flipped bit; nothing fails
        // until the data is read back. The object fills its whole region
        // so the flip must land inside it.
        inj.push(sim::fault::FaultSpec::latent_corruption(1));
        let value = vec![3u8; c.backend.region_size() - OBJECT_HEADER - 6];
        let t = c.set(b"rotten", &value, Nanos::ZERO).unwrap();
        let t = c.flush(t).unwrap();
        let report = c.scrub(t).unwrap();
        assert_eq!(report.corrupt_objects, 1, "{report:?}");
        assert_eq!(report.regions_scanned, 1);
        assert_eq!(c.metrics().scrub_corrupt_objects, 1);
        assert_eq!(c.metrics().scrub_passes, 1);
        // After the scrub the object is a miss — bad bytes never surface.
        let (v, _) = c.get(b"rotten", report.done).unwrap();
        assert!(v.is_none(), "corrupt object served after scrub");
    }

    #[test]
    fn scrub_salvages_live_data_off_a_readonly_zone() {
        let (_inj, dev, c) = zoned_cache();
        let value = vec![5u8; 15 * 1024];
        let t = c.set(b"precious", &value, Nanos::ZERO).unwrap();
        let t = c.flush(t).unwrap();
        let full = (0..dev.num_zones())
            .map(zns::ZoneId)
            .find(|&z| dev.zone_state(z) == Ok(zns::ZoneState::Full))
            .expect("flush sealed a zone");
        dev.degrade(full, false, t).unwrap();
        let report = c.scrub(t).unwrap();
        assert_eq!(report.salvaged_objects, 1, "{report:?}");
        assert_eq!(report.retired_regions, 1);
        assert!(report.salvaged_bytes > 0);
        let m = c.metrics();
        assert_eq!(m.zones_readonly, 1);
        assert_eq!(m.quarantined_regions, 1, "retired region not quarantined");
        assert_eq!(m.scrub_salvaged_bytes, report.salvaged_bytes);
        // The object survives its zone: served from the salvage copy.
        let (v, _) = c.get(b"precious", report.done).unwrap();
        assert_eq!(v.as_deref(), Some(&value[..]), "salvage lost the object");
    }

    #[test]
    fn scrub_retires_an_offline_zone_and_its_objects_miss() {
        let (_inj, dev, c) = zoned_cache();
        let value = vec![6u8; 15 * 1024];
        let t = c.set(b"gone", &value, Nanos::ZERO).unwrap();
        let t = c.flush(t).unwrap();
        let full = (0..dev.num_zones())
            .map(zns::ZoneId)
            .find(|&z| dev.zone_state(z) == Ok(zns::ZoneState::Full))
            .expect("flush sealed a zone");
        dev.degrade(full, true, t).unwrap();
        let report = c.scrub(t).unwrap();
        assert_eq!(report.retired_regions, 1, "{report:?}");
        assert_eq!(report.salvaged_objects, 0);
        let m = c.metrics();
        assert_eq!(m.zones_offline, 1);
        assert_eq!(m.quarantined_regions, 1);
        // Miss, not an error and not stale bytes.
        let (v, t) = c.get(b"gone", report.done).unwrap();
        assert!(v.is_none(), "offline zone's object served");
        // The engine keeps working at reduced capacity.
        let t = c.set(b"after", b"ok", t).unwrap();
        let (v, _) = c.get(b"after", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn io_exhaustion_surfaces_as_error_never_panic() {
        use sim::fault::{FaultKind, FaultyDevice};
        let faulty = Arc::new(FaultyDevice::new(Arc::new(RamDisk::new(64))));
        let backend = Arc::new(BlockBackend::new(
            Arc::clone(&faulty) as Arc<dyn sim::BlockDevice>,
            4 * BLOCK_SIZE,
        ));
        let c = LogCache::new(backend, CacheConfig::small_test()).unwrap();
        let t = c.set(b"k", b"v", Nanos::ZERO).unwrap();
        // Permanent faults: the whole retry budget fails. The old
        // retry_io ended in `unreachable!()` after its for-loop; this
        // pins the loop-shaped replacement to the error path.
        faulty.arm(FaultKind::All, u64::MAX);
        let err = c.flush(t).unwrap_err();
        assert!(matches!(err, CacheError::Io(_)), "got {err:?}");
        // The failed region was quarantined, its index entries dropped;
        // the engine stays usable once the device recovers.
        faulty.disarm();
        let (v, t) = c.get(b"k", t).unwrap();
        assert_eq!(v, None, "entries of a failed flush must not resurface");
        let t = c.set(b"k2", b"v2", t).unwrap();
        let (v, _) = c.get(b"k2", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"v2"[..]));
    }
}
