//! Proves the `stale_reads` counter is wired: an unlocked flash read that
//! races a region eviction must detect the region-generation change,
//! count one stale read, and degrade to a miss — never return the
//! evicted bytes.
//!
//! The race window (between a reader sampling the region generation and
//! revalidating it after the device read) is nanoseconds wide in normal
//! runs, which is why `stale_reads` shows 0 in every benchmark. This
//! test holds the window open deterministically: a gated backend blocks
//! the reader inside its device read while a writer thread evicts the
//! region underneath it. Eviction invalidates the generation *before*
//! waiting out pinned readers, so once the gate opens the reader is
//! guaranteed to see the change.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

use sim::Nanos;
use zns_cache::backend::RegionBackend;
use zns_cache::{CacheConfig, CacheError, EvictionPolicy, LogCache, RegionId};

const REGION_SIZE: usize = 4096;
const NUM_REGIONS: u32 = 4;

/// In-memory backend whose next read (after [`GatedBackend::arm`]) parks
/// until [`GatedBackend::release`], reporting the parked reader through a
/// channel so the test can sequence the eviction around it.
struct GatedBackend {
    regions: Vec<Mutex<Vec<u8>>>,
    armed: AtomicBool,
    parked_tx: Mutex<Option<mpsc::Sender<()>>>,
    gate: Mutex<bool>,
    opened: Condvar,
    host_bytes: AtomicU64,
}

impl GatedBackend {
    fn new() -> Self {
        GatedBackend {
            regions: (0..NUM_REGIONS)
                .map(|_| Mutex::new(vec![0u8; REGION_SIZE]))
                .collect(),
            armed: AtomicBool::new(false),
            parked_tx: Mutex::new(None),
            gate: Mutex::new(false),
            opened: Condvar::new(),
            host_bytes: AtomicU64::new(0),
        }
    }

    /// The next read parks; the parked reader is announced on `tx`.
    fn arm(&self, tx: mpsc::Sender<()>) {
        *self.parked_tx.lock().unwrap() = Some(tx);
        *self.gate.lock().unwrap() = false;
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Unparks the gated reader.
    fn release(&self) {
        *self.gate.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl RegionBackend for GatedBackend {
    fn region_size(&self) -> usize {
        REGION_SIZE
    }

    fn num_regions(&self) -> u32 {
        NUM_REGIONS
    }

    fn write_region(
        &self,
        region: RegionId,
        data: &[u8],
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        self.regions[region.0 as usize].lock().unwrap().copy_from_slice(data);
        self.host_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(now)
    }

    fn read(
        &self,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        // Single-shot: only the armed read parks; the announcement lets
        // the test start the eviction while this reader is mid-flight.
        if self.armed.swap(false, Ordering::SeqCst) {
            if let Some(tx) = self.parked_tx.lock().unwrap().take() {
                let _ = tx.send(());
            }
            let mut opened = self.gate.lock().unwrap();
            while !*opened {
                opened = self.opened.wait(opened).unwrap();
            }
        }
        let data = self.regions[region.0 as usize].lock().unwrap();
        buf.copy_from_slice(&data[offset..offset + buf.len()]);
        Ok(now)
    }

    fn discard_region(&self, region: RegionId, now: Nanos) -> Result<Nanos, CacheError> {
        // Poison the storage: if a raced read ever trusted a discarded
        // region, key verification would surface it as corruption.
        self.regions[region.0 as usize].lock().unwrap().fill(0xA5);
        Ok(now)
    }

    fn host_bytes_written(&self) -> u64 {
        self.host_bytes.load(Ordering::Relaxed)
    }

    fn media_bytes_written(&self) -> u64 {
        self.host_bytes.load(Ordering::Relaxed)
    }

    fn label(&self) -> &'static str {
        "gated-test"
    }
}

#[test]
fn read_racing_eviction_counts_a_stale_read_and_misses() {
    let backend = Arc::new(GatedBackend::new());
    let mut config = CacheConfig::small_test();
    // FIFO makes the victim deterministic: the first-sealed region is
    // evicted first, no matter how reads restamp recency meanwhile.
    config.eviction = EvictionPolicy::Fifo;
    // Sparse-store mode is what every benchmark profile runs (payloads
    // not verifiable), and it is the path where the generation
    // revalidation is the *only* guard — the one `stale_reads` counts.
    // (With `verify_keys` a raced read that still checksums clean is
    // served as a legitimate hit: the pin kept its storage alive.)
    config.verify_keys = false;
    let cache = Arc::new(LogCache::new(backend.clone(), config).unwrap());

    // Fill until the first region seals; every key set before the seal
    // lives in that sealed region (the last set opened the next buffer).
    let value = vec![7u8; 900];
    let mut t = Nanos::ZERO;
    let mut keys = Vec::new();
    while cache.metrics().flushes == 0 {
        let key = format!("a{}", keys.len());
        t = cache.set(key.as_bytes(), &value, t).unwrap();
        keys.push(key);
    }
    assert!(keys.len() >= 3, "need several keys in the sealed region");
    let victim_key = keys[0].clone();
    let probe_key = keys[1].clone();

    // Drain the flush pipeline: a freshly sealed region is served from its
    // detached RAM image until the flush ticket resolves, and this test
    // needs the reader on the *flash* path. The barrier retires the image.
    t = cache.flush(t).unwrap();

    // Park a reader inside the device read of the sealed region. It has
    // already pinned the region and sampled its generation.
    let (parked_tx, parked_rx) = mpsc::channel();
    backend.arm(parked_tx);
    let reader = {
        let cache = Arc::clone(&cache);
        let key = victim_key.clone();
        std::thread::spawn(move || cache.get(key.as_bytes(), t).unwrap().0)
    };
    parked_rx.recv().expect("reader never reached the device read");

    // Churn new sets until the writer must evict. LRU picks the sealed
    // region under the parked reader (every other region was written
    // later). The evicting thread invalidates the generation, drops the
    // region's index entries, then blocks draining the reader's pin.
    let evictor = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            let mut t = t;
            let mut i = 0u32;
            while cache.metrics().evicted_regions == 0 {
                let key = format!("b{i}");
                t = cache.set(key.as_bytes(), &value, t).unwrap();
                i += 1;
                assert!(i < 64, "eviction never triggered");
            }
        })
    };

    // Wait until eviction has dropped the sealed region's index entries
    // (a probe key from the same region stops resolving) — that happens
    // strictly before the evictor blocks on the reader's pin, so this
    // terminates even while the reader is still parked.
    loop {
        let (hit, _) = cache.get(probe_key.as_bytes(), t).unwrap();
        if hit.is_none() {
            break;
        }
        std::thread::yield_now();
    }

    // Unpark the reader: its post-read revalidation must see the bumped
    // generation, count a stale read, and retry into a clean miss.
    backend.release();
    let read_result = reader.join().unwrap();
    evictor.join().unwrap();

    assert_eq!(
        read_result, None,
        "a read that raced its region's eviction must miss, not serve evicted bytes"
    );
    let m = cache.metrics();
    assert!(
        m.stale_reads >= 1,
        "the raced read must be counted: stale_reads = {}",
        m.stale_reads
    );
    assert!(m.evicted_regions >= 1);
}
