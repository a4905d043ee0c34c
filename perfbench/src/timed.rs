//! A timing wrapper around a scheme's region backend.
//!
//! [`TimedBackend`] implements `RegionBackend` by forwarding every call
//! to the scheme's own backend. It sits between `LogCache::new` and that
//! backend, in the server as in the one-thread replays, so the backend
//! layer is timed from the benchmark's files without tracing inside the
//! program. Timing is off until [`TimedBackend::set_tracing`] turns it
//! on; off, a call costs one relaxed load on top of the forward. On, it
//! records into lock-free histograms, so shards calling the backend at
//! once do not serialise on the timer.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sim::{LatencyHistogram, Nanos};
use zns_cache::backend::{MaintenanceOutcome, RegionBackend, RegionHealth};
use zns_cache::{CacheError, RegionId};

// relaxed-ok(file): the switch and the counters publish no other data;
// a call racing the switch or a snapshot is counted or not, either is
// fine.

thread_local! {
    static THREAD_BACKEND_NS: Cell<u64> = const { Cell::new(0) };
}

/// Wall nanoseconds this thread has spent in timed backend calls. The
/// difference across one engine call is that call's backend time.
pub fn thread_backend_ns() -> u64 {
    THREAD_BACKEND_NS.with(Cell::get)
}

/// Wall durations of backend calls since the last snapshot.
#[derive(Debug, Default, Clone)]
pub struct BackendTimes {
    pub write_region: LatencyHistogram,
    pub read: LatencyHistogram,
    pub discard: LatencyHistogram,
    pub maintenance_ns: u64,
    /// Sum over every timed call.
    pub busy_ns: u64,
}

#[derive(Clone, Copy)]
enum Call {
    Write,
    Read,
    Discard,
    Maintenance,
}

pub struct TimedBackend {
    inner: Arc<dyn RegionBackend>,
    on: AtomicBool,
    write_region: LatencyHistogram,
    read: LatencyHistogram,
    discard: LatencyHistogram,
    maintenance_ns: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn RegionBackend>) -> Self {
        TimedBackend {
            inner,
            on: AtomicBool::new(false),
            write_region: LatencyHistogram::new(),
            read: LatencyHistogram::new(),
            discard: LatencyHistogram::new(),
            maintenance_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// The durations recorded since the last call, which starts afresh.
    pub fn take_times(&self) -> BackendTimes {
        let t = BackendTimes {
            write_region: self.write_region.clone(),
            read: self.read.clone(),
            discard: self.discard.clone(),
            maintenance_ns: self.maintenance_ns.swap(0, Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
        };
        self.write_region.reset();
        self.read.reset();
        self.discard.reset();
        t
    }

    fn timed<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        THREAD_BACKEND_NS.with(|c| c.set(c.get() + ns));
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        match call {
            Call::Write => self.write_region.record(Nanos::from_nanos(ns)),
            Call::Read => self.read.record(Nanos::from_nanos(ns)),
            Call::Discard => self.discard.record(Nanos::from_nanos(ns)),
            Call::Maintenance => {
                self.maintenance_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
        out
    }
}

impl RegionBackend for TimedBackend {
    fn region_size(&self) -> usize {
        self.inner.region_size()
    }

    fn num_regions(&self) -> u32 {
        self.inner.num_regions()
    }

    fn write_region(&self, region: RegionId, data: &[u8], now: Nanos) -> Result<Nanos, CacheError> {
        self.timed(Call::Write, || self.inner.write_region(region, data, now))
    }

    fn read(
        &self,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        self.timed(Call::Read, || self.inner.read(region, offset, buf, now))
    }

    fn readable_bytes(&self, region: RegionId) -> usize {
        self.inner.readable_bytes(region)
    }

    fn region_health(&self, region: RegionId) -> RegionHealth {
        self.inner.region_health(region)
    }

    fn discard_region(&self, region: RegionId, now: Nanos) -> Result<Nanos, CacheError> {
        self.timed(Call::Discard, || self.inner.discard_region(region, now))
    }

    fn maintenance(
        &self,
        now: Nanos,
        temperature: &dyn Fn(RegionId) -> f64,
    ) -> Result<MaintenanceOutcome, CacheError> {
        self.timed(Call::Maintenance, || {
            self.inner.maintenance(now, temperature)
        })
    }

    fn host_bytes_written(&self) -> u64 {
        self.inner.host_bytes_written()
    }

    fn media_bytes_written(&self) -> u64 {
        self.inner.media_bytes_written()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn write_amplification(&self) -> f64 {
        self.inner.write_amplification()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend with canned answers: region 0 works, region 1 fails.
    struct Canned;

    impl RegionBackend for Canned {
        fn region_size(&self) -> usize {
            8
        }
        fn num_regions(&self) -> u32 {
            2
        }
        fn write_region(
            &self,
            region: RegionId,
            _: &[u8],
            now: Nanos,
        ) -> Result<Nanos, CacheError> {
            match region.0 {
                0 => Ok(now + Nanos::from_nanos(5)),
                _ => Err(CacheError::Io("write refused".into())),
            }
        }
        fn read(
            &self,
            region: RegionId,
            offset: usize,
            buf: &mut [u8],
            now: Nanos,
        ) -> Result<Nanos, CacheError> {
            if region.0 != 0 {
                return Err(CacheError::Io("read refused".into()));
            }
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (offset + i) as u8;
            }
            Ok(now + Nanos::from_nanos(7))
        }
        fn region_health(&self, region: RegionId) -> RegionHealth {
            if region.0 == 0 {
                RegionHealth::Healthy
            } else {
                RegionHealth::Dead
            }
        }
        fn discard_region(&self, region: RegionId, now: Nanos) -> Result<Nanos, CacheError> {
            match region.0 {
                0 => Ok(now),
                _ => Err(CacheError::Io("discard refused".into())),
            }
        }
        fn maintenance(
            &self,
            now: Nanos,
            t: &dyn Fn(RegionId) -> f64,
        ) -> Result<MaintenanceOutcome, CacheError> {
            let dropped = if t(RegionId(1)) < 0.5 {
                vec![RegionId(1)]
            } else {
                vec![]
            };
            Ok(MaintenanceOutcome {
                dropped_regions: dropped,
                done: now + Nanos::from_nanos(3),
            })
        }
        fn host_bytes_written(&self) -> u64 {
            100
        }
        fn media_bytes_written(&self) -> u64 {
            250
        }
        fn label(&self) -> &'static str {
            "Canned"
        }
    }

    fn check_pass_through(timed: &TimedBackend) {
        let now = Nanos::from_nanos(1_000);
        assert_eq!(
            timed.write_region(RegionId(0), &[0; 8], now).unwrap(),
            Nanos::from_nanos(1_005)
        );
        let err = timed.write_region(RegionId(1), &[0; 8], now).unwrap_err();
        assert_eq!(err, CacheError::Io("write refused".into()));
        let mut buf = [0u8; 4];
        assert_eq!(
            timed.read(RegionId(0), 3, &mut buf, now).unwrap(),
            Nanos::from_nanos(1_007)
        );
        assert_eq!(buf, [3, 4, 5, 6]);
        assert!(timed.read(RegionId(1), 0, &mut buf, now).is_err());
        assert!(timed.discard_region(RegionId(1), now).is_err());
        assert_eq!(timed.discard_region(RegionId(0), now).unwrap(), now);
        let out = timed.maintenance(now, &|_| 0.0).unwrap();
        assert_eq!(out.dropped_regions, vec![RegionId(1)]);
        assert_eq!(out.done, Nanos::from_nanos(1_003));
        assert_eq!(timed.region_health(RegionId(1)), RegionHealth::Dead);
        assert_eq!((timed.region_size(), timed.num_regions()), (8, 2));
        assert_eq!(
            (timed.host_bytes_written(), timed.media_bytes_written()),
            (100, 250)
        );
        assert_eq!(timed.label(), "Canned");
        assert!((timed.write_amplification() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn results_and_errors_pass_through_with_timing_off() {
        let timed = TimedBackend::new(Arc::new(Canned));
        check_pass_through(&timed);
        let t = timed.take_times();
        assert!(t.write_region.count() == 0 && t.read.count() == 0 && t.busy_ns == 0);
    }

    #[test]
    fn results_and_errors_pass_through_with_timing_on() {
        let timed = TimedBackend::new(Arc::new(Canned));
        timed.set_tracing(true);
        let before = thread_backend_ns();
        check_pass_through(&timed);
        let t = timed.take_times();
        // Failed calls are timed too: they cost the caller as much.
        assert_eq!(t.write_region.count(), 2);
        assert_eq!(t.read.count(), 2);
        assert_eq!(t.discard.count(), 2);
        assert_eq!(thread_backend_ns() - before, t.busy_ns);
        assert!(t.busy_ns >= t.maintenance_ns && t.busy_ns > 0);
        let again = timed.take_times();
        assert_eq!(
            (again.write_region.count(), again.busy_ns),
            (0, 0),
            "take starts afresh"
        );
    }
}
