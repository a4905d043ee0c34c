//! The `scheme-sweep` workload: the paper's four schemes in turn.
//!
//! In-process and single-threaded, with inline maintenance (no
//! `Maintainer`), as the repository's reproduction harness runs them:
//! CacheBench's paper mix (50% GET / 30% SET / 20% DEL, zipf 0.9, 64 B
//! to 8 KiB values) over 200k keys with look-aside miss fills, on the
//! 8-zone RAM-store device, write-through DRAM. Every backend and device
//! model runs at full load, and every count repeats exactly for a seed.

use std::time::Instant;

use sim::Nanos;
use workload::{value_for_key, CacheBench, CacheBenchConfig, Op};
use zns_cache::Scheme;
use zns_cache_bench::profile::DeviceProfile;

use crate::schemes::{self, short, DEVICE_ZONES};
use crate::serve::{backend_metrics, engine_counters, EngineTimes};
use crate::stats::{frac, peak_rss_mib, percentile, Metrics, Outcome};
use crate::timed::{thread_backend_ns, BackendTimes};

pub const KEYS: u64 = 200_000;
pub const WARMUP_OPS: u64 = 400_000;
/// Measured operations per scheme for each second of `--seconds`.
pub const OPS_PER_SECOND: u64 = 30_000;

/// The latest version a key holds, as far as the workload knows.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    Absent,
    Version(u32),
    /// An engine error left the key's state unknown.
    Unknown,
}

struct SchemeRun {
    scheme: Scheme,
    setup_s: f64,
    ops: u64,
    gets: u64,
    hits: u64,
    errors: u64,
    wrong: u64,
    /// Wall ns per SET, DEL or miss fill.
    write_ns: Vec<u64>,
    /// GETs (without their miss fill), the SET and miss-fill subset of
    /// `write_ns` with its self time, and simulated GET latency.
    times: EngineTimes,
    engine_ns: u64,
    host_bytes: u64,
    media_bytes: u64,
    write_amp: f64,
    engine: zns_cache::CacheMetricsSnapshot,
    backend: BackendTimes,
    devices: Metrics,
}

struct Engine<'a> {
    cache: &'a zns_cache::LogCache,
    bench: CacheBench,
    expect: Vec<Expect>,
    now: Nanos,
}

/// What one workload operation cost.
#[derive(Default)]
struct OpCost {
    get_ns: Option<u64>,
    write_ns: Option<u64>,
    /// For a SET or miss fill: (wall ns, backend ns) of the set.
    set: Option<(u64, u64)>,
    sim_get_ns: Option<u64>,
    hit: Option<bool>,
    error: bool,
    wrong: bool,
}

impl Engine<'_> {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        let b = thread_backend_ns();
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_nanos() as u64, thread_backend_ns() - b)
    }

    /// A set whose expected outcome is `version` of `id`.
    fn set(&mut self, id: u64, key: &[u8], value: &[u8], cost: &mut OpCost) {
        let (res, ns, backend_ns) = Self::timed(|| self.cache.set(key, value, self.now));
        cost.write_ns = Some(ns);
        cost.set = Some((ns, backend_ns));
        match res {
            Ok(done) => {
                self.now = done;
                self.expect[id as usize] = Expect::Version(self.bench.version_of(id));
            }
            Err(_) => {
                cost.error = true;
                self.expect[id as usize] = Expect::Unknown;
            }
        }
    }

    /// Runs the next operation with look-aside miss fills, checking
    /// every hit against the latest version of its key.
    fn step(&mut self) -> OpCost {
        let mut cost = OpCost::default();
        match self.bench.next_op() {
            Op::Get { id, key } => {
                let (res, ns, _) = Self::timed(|| self.cache.get(&key, self.now));
                cost.get_ns = Some(ns);
                match res {
                    Ok((Some(v), done)) => {
                        cost.sim_get_ns = Some((done - self.now).as_nanos());
                        self.now = done;
                        cost.hit = Some(true);
                        cost.wrong = match self.expect[id as usize] {
                            Expect::Version(ver) => v.as_ref() != value_for_key(id, ver).as_slice(),
                            Expect::Absent => true,
                            Expect::Unknown => false,
                        };
                    }
                    Ok((None, done)) => {
                        cost.sim_get_ns = Some((done - self.now).as_nanos());
                        self.now = done;
                        cost.hit = Some(false);
                        let fill = value_for_key(id, self.bench.version_of(id));
                        self.set(id, &key, &fill, &mut cost);
                    }
                    Err(_) => {
                        cost.error = true;
                        self.expect[id as usize] = Expect::Unknown;
                    }
                }
            }
            Op::Set { id, key, value } => self.set(id, &key, &value, &mut cost),
            Op::Delete { id, key } => {
                let (res, ns, _) = Self::timed(|| self.cache.delete(&key, self.now));
                cost.write_ns = Some(ns);
                match res {
                    Ok((_, done)) => {
                        self.now = done;
                        self.expect[id as usize] = Expect::Absent;
                    }
                    Err(_) => {
                        cost.error = true;
                        self.expect[id as usize] = Expect::Unknown;
                    }
                }
            }
        }
        cost
    }
}

fn run_scheme(scheme: Scheme, seed: u64, ops: u64, trace: bool) -> SchemeRun {
    let t = Instant::now();
    let built = schemes::build(DeviceProfile::ram(DEVICE_ZONES), scheme, false);
    let mut e = Engine {
        cache: &built.cache,
        bench: CacheBench::new(CacheBenchConfig::paper_mix(KEYS, seed)),
        expect: vec![Expect::Absent; KEYS as usize],
        now: Nanos::ZERO,
    };
    let mut wrong = 0;
    let mut errors = 0;
    for _ in 0..WARMUP_OPS {
        let c = e.step();
        wrong += u64::from(c.wrong);
        errors += u64::from(c.error);
    }
    e.now = built.cache.drain_flushes(e.now);
    let setup_s = t.elapsed().as_secs_f64();

    built.timer.set_tracing(trace);
    built.timer.take_times();
    let start = e.now;
    let mut r = SchemeRun {
        scheme,
        setup_s,
        ops,
        gets: 0,
        hits: 0,
        errors,
        wrong,
        write_ns: Vec::with_capacity(ops as usize),
        times: EngineTimes::default(),
        engine_ns: 0,
        host_bytes: 0,
        media_bytes: 0,
        write_amp: 0.0,
        engine: Default::default(),
        backend: Default::default(),
        devices: Metrics::default(),
    };
    for _ in 0..ops {
        let c = e.step();
        if let Some(ns) = c.get_ns {
            r.times.get_ns.push(ns);
            r.engine_ns += ns;
        }
        if let Some(ns) = c.write_ns {
            r.write_ns.push(ns);
            r.engine_ns += ns;
        }
        if let Some((ns, backend_ns)) = c.set {
            r.times.set_ns.push(ns);
            r.times.self_set_ns.push(ns.saturating_sub(backend_ns));
        }
        if let Some(ns) = c.sim_get_ns {
            r.times.sim_get_ns.push(ns);
        }
        if let Some(hit) = c.hit {
            r.gets += 1;
            r.hits += u64::from(hit);
        }
        r.errors += u64::from(c.error);
        r.wrong += u64::from(c.wrong);
    }
    r.times.makespan = e.now - start;
    r.backend = built.timer.take_times();
    built.timer.set_tracing(false);
    let backend = built.cache.backend();
    r.host_bytes = backend.host_bytes_written();
    r.media_bytes = backend.media_bytes_written();
    r.write_amp = built.cache.write_amplification();
    r.engine = built.cache.metrics();
    built.device_metrics(&mut r.devices);
    eprintln!(
        "{}: setup {:.2}s, {} ops in {:.2}s of engine time, hit ratio {:.4}, WA {:.3}, errors {}, wrong {}",
        scheme.label(),
        r.setup_s,
        r.ops,
        r.engine_ns as f64 / 1e9,
        frac(r.hits, r.gets, 1.0),
        r.write_amp,
        r.errors,
        r.wrong
    );
    r
}

fn sweep(seed: u64, ops: u64, trace: bool) -> Vec<SchemeRun> {
    Scheme::ALL
        .iter()
        .map(|&s| run_scheme(s, seed, ops, trace))
        .collect()
}

fn capacity_rps(runs: &[SchemeRun]) -> f64 {
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let ns: u64 = runs.iter().map(|r| r.engine_ns).sum();
    frac(ops, ns, 0.0) * 1e9
}

fn sorted(runs: &[SchemeRun], f: impl Fn(&SchemeRun) -> &Vec<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = runs.iter().flat_map(|r| f(r).iter().copied()).collect();
    v.sort_unstable();
    v
}

fn check(o: &mut Outcome, runs: &[SchemeRun]) {
    for r in runs {
        if r.wrong > 0 {
            o.problem(format!(
                "{}: {} hits were not the latest value",
                r.scheme.label(),
                r.wrong
            ));
        }
        if r.scheme == Scheme::Zone && r.write_amp != 1.0 {
            o.problem(format!(
                "Zone-Cache write amplification {} is not 1",
                r.write_amp
            ));
        }
        o.attempted += r.ops;
        o.failed += r.errors;
    }
}

/// Runs the sweep. Untraced, it reports the end-to-end metrics.
/// Traced, it times the backend too; the overhead is measured against
/// `reference_rps`, the `capacity_rps` of an untraced run (the traced
/// sweep's own when `None`).
pub fn run(seed: u64, seconds: f64, trace: bool, reference_rps: Option<f64>) -> Outcome {
    let ops = (seconds * OPS_PER_SECOND as f64) as u64;
    let mut o = Outcome {
        correct: true,
        ..Default::default()
    };
    let runs = sweep(seed, ops, trace);
    check(&mut o, &runs);
    let m = &mut o.metrics;
    let gets = sorted(&runs, |r| &r.times.get_ns);
    let (ops, errors) = runs
        .iter()
        .fold((0, 0), |(a, b), r| (a + r.ops, b + r.errors));
    if !trace {
        m.put("get_p50_us", percentile(&gets, 50.0) as f64 / 1e3, "us");
        m.put("get_p95_us", percentile(&gets, 95.0) as f64 / 1e3, "us");
        let writes = sorted(&runs, |r| &r.write_ns);
        m.put("write_p95_us", percentile(&writes, 95.0) as f64 / 1e3, "us");
        m.put("capacity_rps", capacity_rps(&runs), "1/s");
        m.put("ok_frac", 1.0 - frac(errors, ops, 0.0), "fraction");
        let (hits, gets) = runs
            .iter()
            .fold((0, 0), |(a, b), r| (a + r.hits, b + r.gets));
        m.put("hit_ratio", frac(hits, gets, 1.0), "ratio");
        let (media, host) = runs
            .iter()
            .fold((0, 0), |(a, b), r| (a + r.media_bytes, b + r.host_bytes));
        m.put("write_amp", frac(media, host, 1.0), "ratio");
        m.put("setup_s", runs.iter().map(|r| r.setup_s).sum::<f64>(), "s");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        return o;
    }

    m.put(
        "tail.get_p99_us",
        percentile(&gets, 99.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "tail.get_p999_us",
        percentile(&gets, 99.9) as f64 / 1e3,
        "us",
    );
    m.put("failed_frac", frac(errors, ops, 0.0), "fraction");
    let traced_rps = capacity_rps(&runs);
    m.put(
        "trace.overhead_frac",
        reference_rps.unwrap_or(traced_rps) / traced_rps - 1.0,
        "fraction",
    );
    for r in runs {
        let s = short(r.scheme);
        m.put(format!("hit_ratio.{s}"), frac(r.hits, r.gets, 1.0), "ratio");
        if r.scheme != Scheme::Zone {
            m.put(format!("write_amp.{s}"), r.write_amp, "ratio");
        }
        engine_counters(m, s, &r.engine);
        backend_metrics(m, s, &r.backend, r.engine_ns);
        m.extend(r.devices);
        r.times.put(m, s);
    }
    o
}
