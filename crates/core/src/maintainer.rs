//! Background maintenance: keeping the clean-region pool at its watermark.
//!
//! CacheLib's Navy runs region reclamation on dedicated threads so that
//! foreground inserts almost never pay an eviction inline — they pop a
//! pre-cleaned region and move on. [`Maintainer`] reproduces that split:
//!
//! * [`Maintainer::run_once`] performs one maintenance pass at an explicit
//!   simulated timestamp. Tests and simulations call this directly, which
//!   keeps background work **deterministic** — the victim sequence depends
//!   only on cache state, never on thread scheduling.
//! * [`Maintainer::spawn`] starts a real OS thread that periodically runs
//!   the same pass at the engine's observed simulated clock. Benchmarks use
//!   this to overlap reclamation with foreground traffic on real cores.
//!
//! The backpressure contract: the maintainer is an *optimization*, not a
//! correctness requirement. If it falls behind (or is not running), the
//! write path evicts inline under the writer lock and the inserter absorbs
//! the reclamation latency — visible as `inline_evictions` in the metrics
//! versus `maintainer_evictions` for pre-cleaned pools.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sim::Nanos;

use crate::engine::LogCache;
use crate::types::{CacheError, RegionId};

/// Drives [`LogCache::maintain`]: refills the clean-region pool to the
/// configured `clean_region_watermark` by evicting sealed regions, and —
/// when a scrub interval is configured — periodically runs
/// [`LogCache::scrub`] to verify sealed data and salvage live objects
/// off degrading media (DESIGN.md §7).
#[derive(Clone)]
pub struct Maintainer {
    cache: Arc<LogCache>,
    /// Scrub cadence in simulated time; `Nanos::ZERO` disables scrubbing.
    scrub_every: Nanos,
    /// Simulated timestamp of the last scrub, shared across clones so
    /// concurrent drivers never double-scrub one due slot.
    last_scrub: Arc<AtomicU64>,
}

impl Maintainer {
    /// Creates a maintainer for `cache` (scrubbing disabled).
    pub fn new(cache: Arc<LogCache>) -> Self {
        Maintainer {
            cache,
            scrub_every: Nanos::ZERO,
            last_scrub: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Enables a scrubber pass every `every` of *simulated* time: any
    /// maintenance pass whose `now` is at least that far past the last
    /// scrub runs one.
    #[must_use]
    pub fn with_scrub_interval(mut self, every: Nanos) -> Self {
        self.scrub_every = every;
        self
    }

    /// Runs one maintenance pass at simulated time `now`, evicting until
    /// the clean-region pool reaches the watermark, then a scrub pass if
    /// one is due. Returns the evicted regions in eviction order. A
    /// watermark of 0 skips eviction refill.
    ///
    /// # Errors
    ///
    /// Propagates [`LogCache::maintain`] and [`LogCache::scrub`] failures.
    pub fn run_once(&self, now: Nanos) -> Result<Vec<RegionId>, CacheError> {
        let evicted = self.cache.maintain(now)?;
        self.scrub_if_due(now)?;
        Ok(evicted)
    }

    /// Runs a scrub pass when `now` is at least one interval past the
    /// last pass. The claim is a compare-exchange, so of several
    /// concurrent drivers exactly one scrubs a due slot.
    fn scrub_if_due(&self, now: Nanos) -> Result<(), CacheError> {
        if self.scrub_every == Nanos::ZERO {
            return Ok(());
        }
        // ordering-ok: acquire pairs with the AcqRel claim below so a
        // driver that loses the race also sees the winner's timestamp.
        let last = self.last_scrub.load(Ordering::Acquire);
        if now.as_nanos() < last.saturating_add(self.scrub_every.as_nanos()) {
            return Ok(());
        }
        // ordering-ok: the CAS is the claim ticket for this scrub slot;
        // AcqRel publishes the new deadline to the losing drivers.
        if self
            .last_scrub
            .compare_exchange(last, now.as_nanos(), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Ok(()); // another driver claimed this slot
        }
        let report = self.cache.scrub(now);
        report.map(|_| ())
    }

    /// Starts a background thread that runs [`Maintainer::run_once`] every
    /// `poll` of wall-clock time, using the engine's observed simulated
    /// clock as "now" — so a configured scrub interval applies too. The
    /// thread stops when the returned handle is dropped or
    /// [`MaintainerHandle::stop`] is called.
    ///
    /// Maintenance I/O errors inside the thread are swallowed by design:
    /// eviction failures quarantine the offending region and the next
    /// foreground operation will surface any persistent backend breakage
    /// through its own typed error.
    pub fn spawn(self, poll: Duration) -> MaintainerHandle {
        let signal = Arc::new(StopSignal {
            stopped: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::spawn(move || {
            // ordering-ok: acquire pairs with the Release store in
            // `stop()`; the flag is a plain shutdown latch.
            while !thread_signal.stopped.load(Ordering::Acquire) {
                let _ = self.run_once(self.cache.observed_clock());
                let guard = thread_signal.lock.lock().expect("maintainer lock poisoned");
                // ordering-ok: same stop-latch pairing as above.
                if thread_signal.stopped.load(Ordering::Acquire) {
                    break;
                }
                // Condvar timeout is the poll cadence; stop() short-circuits it.
                let _unused = thread_signal
                    .cv
                    .wait_timeout(guard, poll)
                    .expect("maintainer lock poisoned");
            }
        });
        MaintainerHandle {
            signal,
            thread: Some(handle),
        }
    }
}

struct StopSignal {
    stopped: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Owns a spawned maintainer thread; stops and joins it on drop.
pub struct MaintainerHandle {
    signal: Arc<StopSignal>,
    thread: Option<JoinHandle<()>>,
}

impl MaintainerHandle {
    /// Signals the thread to stop and joins it. Idempotent.
    pub fn stop(&mut self) {
        // ordering-ok: release half of the stop latch read by the
        // maintainer thread's Acquire loads.
        self.signal.stopped.store(true, Ordering::Release);
        // Take the lock so the wake-up cannot slip between the thread's
        // stopped-check and its wait.
        {
            let _guard = self.signal.lock.lock().expect("maintainer lock poisoned");
            self.signal.cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MaintainerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BlockBackend;
    use crate::engine::CacheConfig;
    use crate::policy::EvictionPolicy;
    use sim::{RamDisk, BLOCK_SIZE};

    fn watermark_cache(watermark: usize) -> Arc<LogCache> {
        let backend = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ));
        let config = CacheConfig {
            clean_region_watermark: watermark,
            eviction: EvictionPolicy::Fifo,
            ..CacheConfig::small_test()
        };
        Arc::new(LogCache::new(backend, config).unwrap())
    }

    fn fill_all_regions(c: &LogCache) -> Nanos {
        let value = vec![1u8; 15 * 1024];
        let mut t = Nanos::ZERO;
        for i in 0..16u32 {
            let key = format!("k{i:02}");
            t = c.set(key.as_bytes(), &value, t).unwrap();
        }
        c.flush(t).unwrap()
    }

    #[test]
    fn run_once_is_deterministic() {
        // Two identical caches must evict the exact same victim sequence.
        let victims = |_: u32| {
            let c = watermark_cache(3);
            let t = fill_all_regions(&c);
            Maintainer::new(Arc::clone(&c)).run_once(t).unwrap()
        };
        assert_eq!(victims(0), victims(1));
        assert_eq!(victims(0).len(), 3);
    }

    #[test]
    fn background_thread_refills_pool() {
        let c = watermark_cache(4);
        let t = fill_all_regions(&c);
        assert_eq!(c.clean_regions(), 0);
        let mut handle = Maintainer::new(Arc::clone(&c)).spawn(Duration::from_millis(1));
        // Wall-clock wait for the background pass (bounded).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.clean_regions() < 4 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        handle.stop();
        assert_eq!(c.clean_regions(), 4, "background maintainer never refilled");
        assert!(c.metrics().maintainer_evictions >= 4);
        let _ = t;
    }

    #[test]
    fn scrub_interval_gates_scrub_passes() {
        let c = watermark_cache(0);
        let t = fill_all_regions(&c);
        let m = Maintainer::new(Arc::clone(&c)).with_scrub_interval(Nanos::from_millis(1));
        // First due pass scrubs; a pass inside the interval does not.
        let base = t + Nanos::from_millis(1);
        m.run_once(base).unwrap();
        assert_eq!(c.metrics().scrub_passes, 1);
        m.run_once(base).unwrap();
        assert_eq!(c.metrics().scrub_passes, 1, "scrubbed inside the interval");
        m.run_once(base + Nanos::from_millis(2)).unwrap();
        assert_eq!(c.metrics().scrub_passes, 2);
        // Without an interval the maintainer never scrubs.
        let plain = Maintainer::new(Arc::clone(&c));
        plain.run_once(base + Nanos::from_millis(10)).unwrap();
        assert_eq!(c.metrics().scrub_passes, 2);
    }

    #[test]
    fn background_thread_scrubs_on_its_interval() {
        let c = watermark_cache(0);
        let mut t = fill_all_regions(&c);
        let mut handle = Maintainer::new(Arc::clone(&c))
            .with_scrub_interval(Nanos::from_millis(1))
            .spawn(Duration::from_millis(1));
        // Advance the engine's observed clock past the interval until the
        // background pass scrubs (bounded wall-clock wait).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.metrics().scrub_passes == 0 && std::time::Instant::now() < deadline {
            t = c.get(b"k00", t + Nanos::from_millis(2)).unwrap().1;
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.stop();
        assert!(
            c.metrics().scrub_passes >= 1,
            "spawned maintainer never scrubbed"
        );
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let c = watermark_cache(0);
        let mut handle = Maintainer::new(c).spawn(Duration::from_secs(3600));
        handle.stop();
        handle.stop();
        drop(handle);
    }
}
