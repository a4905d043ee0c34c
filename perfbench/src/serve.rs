//! The serving workloads: `hot-get` and `churn`.
//!
//! A `CacheServer` with [`server_config`] over one scheme on the
//! 8-zone RAM-store device, driven open-loop over loopback TCP: a steady
//! phase at a fixed rate, then an overload phase at 400k/s.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sim::Nanos;
use zns_cache::Scheme;
use zns_cache_bench::profile::DeviceProfile;
use zns_cache_server::wire::{
    append_reply_frame, append_request_frame, decode_request_ref, split_frame, FrameSplit, Reply,
    Request,
};
use zns_cache_server::{BindAddr, CacheServer, ServerConfig, ServerStatsSnapshot};

use crate::loadgen::{
    self, check_value, fill_value, key_bytes, Kind, Mix, Phase, PhaseReport, Req,
};
use crate::schemes::{self, short, Built, DEVICE_ZONES};
use crate::stats::{frac, median, peak_rss_mib, percentile, Metrics, Outcome};
use crate::timed::{thread_backend_ns, BackendTimes};

/// Offered rate of the overload phase.
pub const OVERLOAD_RATE: f64 = 400_000.0;
/// Share of the run's seconds given to the steady phase.
const STEADY_SHARE: f64 = 0.6;
/// How long after the last scheduled arrival replies are awaited.
const GRACE: Duration = Duration::from_secs(2);
/// An untraced run sets up at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_TIME` has passed; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warm {
    /// Every key once.
    AllKeys,
    /// Keys in turn until the engine has evicted a region: flash full.
    UntilEviction,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub scheme: Scheme,
    pub profile: DeviceProfile,
    pub mix: Mix,
    pub steady_rate: f64,
    pub warm: Warm,
}

/// Zone-Cache under a read-mostly mix whose working set (48 MiB) stays
/// in DRAM: the wire, connection and shard path does the work.
pub fn hot_get() -> Spec {
    Spec {
        scheme: Scheme::Zone,
        profile: DeviceProfile::ram(DEVICE_ZONES),
        mix: Mix {
            keys: 12_000,
            zipf: 0.9,
            get: 0.9,
            set: 0.1,
        },
        steady_rate: 64_000.0,
        warm: Warm::AllKeys,
    }
}

/// Region-Cache under a write-heavy mix (50/40/10) whose working set
/// (240 MiB) exceeds both the 8 MiB DRAM budget and the 96 MiB flash
/// cache: demotion, seals, eviction, middle-layer GC and zone resets all
/// run behind the server.
pub fn churn() -> Spec {
    Spec {
        scheme: Scheme::Region,
        profile: DeviceProfile::ram(DEVICE_ZONES).with_dram_budget(8 * 1024 * 1024),
        mix: Mix {
            keys: 60_000,
            zipf: 0.9,
            get: 0.5,
            set: 0.4,
        },
        steady_rate: 16_000.0,
        warm: Warm::UntilEviction,
    }
}

/// `ServerConfig::default()` with a deeper shard queue. The default 128
/// jobs per shard are 8 ms of `hot-get` steady-phase arrivals: a host
/// pause of that length, on the server or on the sender (which then
/// sends its backlog at once), sheds requests with BUSY at a load far
/// below capacity. 4096 jobs ride out pauses of a quarter second; the
/// overload phase still fills the queues and sheds.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 4096,
        ..ServerConfig::default()
    }
}

pub fn phases(spec: &Spec, seconds: f64) -> [Phase; 2] {
    [
        Phase {
            rate: spec.steady_rate,
            secs: seconds * STEADY_SHARE,
        },
        Phase {
            rate: OVERLOAD_RATE,
            secs: seconds * (1.0 - STEADY_SHARE),
        },
    ]
}

/// A built and warmed cache.
struct Warmed {
    built: Built,
    /// Keys that hold their warm value (sequence 0).
    warmed: Vec<bool>,
    /// Simulated time at the end of warmup.
    now: Nanos,
}

/// Builds the scheme and warms it directly on the engine.
///
/// # Panics
///
/// Panics on an engine error during warmup, or if flash never fills.
fn setup(spec: &Spec, seed: u64) -> Warmed {
    let built = schemes::build(spec.profile, spec.scheme, true);
    let cache = &built.cache;
    let keys = spec.mix.keys;
    let mut warmed = vec![false; keys as usize];
    let mut value = vec![0u8; loadgen::VALUE_LEN];
    let mut now = Nanos::ZERO;
    match spec.warm {
        Warm::AllKeys => {
            for k in 0..keys {
                fill_value(k, 0, &mut value);
                now = cache.set(&key_bytes(k), &value, now).expect("warmup set");
                warmed[k as usize] = true;
            }
        }
        Warm::UntilEviction => {
            // The workload's own mix: DRAM write-back demotes only entries
            // that were read, so SETs alone would never reach flash.
            let mut gen = loadgen::MixStream::new(spec.mix, seed ^ 0x5741_524d);
            let mut ops = 0u64;
            while cache.metrics().evicted_regions == 0 {
                assert!(ops < 40 * u64::from(keys), "warmup never filled flash");
                for _ in 0..256 {
                    let (k, kind) = gen.next();
                    let key = key_bytes(k);
                    now = match kind {
                        Kind::Get => cache.get(&key, now).expect("warmup get").1,
                        Kind::Set => {
                            fill_value(k, 0, &mut value);
                            warmed[k as usize] = true;
                            cache.set(&key, &value, now).expect("warmup set")
                        }
                        Kind::Del => {
                            warmed[k as usize] = false;
                            cache.delete(&key, now).expect("warmup delete").1
                        }
                    };
                }
                ops += 256;
            }
        }
    }
    now = cache.drain_flushes(now);
    Warmed { built, warmed, now }
}

/// One server run over a warmed cache.
struct Pass {
    steady: PhaseReport,
    overload: PhaseReport,
    stale: Vec<loadgen::StaleHit>,
    /// Server stats at the start, at the phase boundary and at the end.
    snaps: Vec<ServerStatsSnapshot>,
    wall_ns: u64,
    backend: BackendTimes,
    engine: zns_cache::CacheMetricsSnapshot,
    write_amp: f64,
}

/// Drops the server on a helper thread and waits up to `limit`; a
/// server wedged past that is left behind (the process exit ends it).
fn stop_server(server: CacheServer, limit: Duration) -> bool {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(server);
        let _ = tx.send(());
    });
    rx.recv_timeout(limit).is_ok()
}

fn serve(spec: &Spec, w: &Warmed, reqs: &[Req], trace: bool) -> Pass {
    w.built.timer.set_tracing(trace);
    w.built.timer.take_times();
    let server = CacheServer::start(
        Arc::clone(&w.built.cache),
        server_config(),
        BindAddr::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind a loopback server");
    let addr = server.tcp_addr().expect("tcp address");
    let mut snaps = vec![server.stats()];
    let started = Instant::now();
    let run = loadgen::run(addr, reqs, GRACE, |_| snaps.push(server.stats()))
        .expect("connect to the loopback server");
    let wall_ns = started.elapsed().as_nanos() as u64;
    let steady = loadgen::account(reqs, &run, 0);
    let overload = loadgen::account(reqs, &run, 1);
    let stale = loadgen::stale_hits(reqs, &run, spec.mix.keys, &w.warmed);
    let backend = w.built.timer.take_times();
    w.built.timer.set_tracing(false);
    let engine = w.built.cache.metrics();
    let write_amp = w.built.cache.write_amplification();
    if !stop_server(server, Duration::from_secs(5)) {
        eprintln!("server did not shut down within 5 s; left running");
    }
    Pass {
        steady,
        overload,
        stale,
        snaps,
        wall_ns,
        backend,
        engine,
        write_amp,
    }
}

/// Correctness and accounting shared by both modes.
fn check(o: &mut Outcome, p: &Pass) {
    let wrong = p.steady.wrong + p.overload.wrong;
    if wrong > 0 {
        o.problem(format!(
            "{wrong} GET replies carried bytes that are not a value of their key"
        ));
    }
    if let Some(h) = p.stale.first() {
        o.problem(format!(
            "{} GET hits returned a value that was stale or never stored; the first: key {} \
             returned sequence {} (its SET: {:?}), newest acknowledged {}, newest issued {}",
            p.stale.len(),
            h.key,
            h.returned,
            h.write,
            h.floor,
            h.issued
        ));
    }
    o.attempted += p.steady.sent;
    o.failed += p.steady.failed();
}

fn end_to_end(m: &mut Metrics, p: &mut Pass) {
    m.put("get_p50_us", p.steady.get_lat.median_us(50.0), "us");
    m.put("get_p95_us", p.steady.get_lat.median_us(95.0), "us");
    m.put("write_p95_us", p.steady.write_lat.median_us(95.0), "us");
    m.put("capacity_rps", p.overload.capacity_rps(), "1/s");
    m.put("ok_frac", p.steady.ok_frac(), "fraction");
    m.put(
        "hit_ratio",
        frac(p.steady.hits, p.steady.gets, 1.0),
        "ratio",
    );
    m.put("write_amp", p.write_amp, "ratio");
}

fn log_pass(name: &str, p: &Pass) {
    for (label, ph) in [("steady", &p.steady), ("overload", &p.overload)] {
        eprintln!(
            "{name} {label}: sent {} served {} busy {} errors {} unanswered {} wrong {} hits {}/{}",
            ph.sent, ph.served, ph.busy, ph.errors, ph.unanswered, ph.wrong, ph.hits, ph.gets
        );
    }
}

/// Runs a serving workload. Untraced, it reports the end-to-end
/// metrics. Traced, it replays the steady phase on the engine and times
/// the wire codec first, then serves with the backend timed; the
/// overhead is measured against `reference_p50_us`, the `get_p50_us` of
/// an untraced run (the traced pass's own when `None`).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference_p50_us: Option<f64>,
) -> Outcome {
    let mut o = Outcome {
        correct: true,
        ..Default::default()
    };
    let reqs = loadgen::schedule(spec.mix, &phases(spec, seconds), seed);
    if !trace {
        let mut setup_s = Vec::new();
        let mut warm = None;
        let first = Instant::now();
        while setup_s.len() < SETUP_MIN_REPS || first.elapsed() < SETUP_MIN_TIME {
            drop(warm.take());
            let t = Instant::now();
            warm = Some(setup(spec, seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let w = warm.expect("at least one set-up");
        let mut p = serve(spec, &w, &reqs, false);
        log_pass("measured", &p);
        check(&mut o, &p);
        end_to_end(&mut o.metrics, &mut p);
        o.metrics.put("setup_s", median(setup_s), "s");
        o.metrics.put("peak_rss_mib", peak_rss_mib(), "MiB");
        return o;
    }

    // The server pass comes last: a server it wedges keeps spinning.
    let steady: Vec<Req> = reqs.iter().filter(|r| r.phase == 0).copied().collect();
    let replay = replay(spec, seed, &steady);
    if replay.wrong > 0 {
        o.problem(format!(
            "engine replay: {} hits were not the latest value",
            replay.wrong
        ));
    }
    if replay.errors > 0 {
        o.problem(format!("engine replay: {} engine errors", replay.errors));
    }
    let (decode_ns, encode_ns) = wire_costs(&steady);
    let w = setup(spec, seed);
    let mut p = serve(spec, &w, &reqs, true);
    log_pass("traced", &p);
    check(&mut o, &p);

    let m = &mut o.metrics;
    let s = short(spec.scheme);
    let mut late = p.steady.late_ns.clone();
    late.sort_unstable();
    m.put(
        "loadgen.late_p50_us",
        percentile(&late, 50.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "loadgen.late_p99_us",
        percentile(&late, 99.0) as f64 / 1e3,
        "us",
    );
    m.put("wire.decode_ns_per_frame", decode_ns, "ns");
    m.put("wire.encode_ns_per_reply", encode_ns, "ns");
    server_metrics(m, &p.snaps);
    let traced_p50 = p.steady.get_lat.median_us(50.0);
    let reference_p50 = reference_p50_us.unwrap_or(traced_p50);
    let engine_get_p50 = percentile(&replay.get_ns, 50.0) as f64;
    m.put(
        "server.overhead_p50_us",
        reference_p50 - engine_get_p50 / 1e3,
        "us",
    );
    m.put(
        "trace.overhead_frac",
        traced_p50 / reference_p50 - 1.0,
        "fraction",
    );
    m.put(
        "tail.get_p99_us",
        p.steady.get_lat.all.percentile_us(99.0),
        "us",
    );
    m.put(
        "tail.get_p999_us",
        p.steady.get_lat.all.percentile_us(99.9),
        "us",
    );
    m.put(
        "failed_frac",
        frac(p.steady.failed(), p.steady.sent, 0.0),
        "fraction",
    );
    m.put(
        format!("hit_ratio.{s}"),
        frac(p.steady.hits, p.steady.gets, 1.0),
        "ratio",
    );
    if spec.scheme != Scheme::Zone {
        m.put(format!("write_amp.{s}"), p.write_amp, "ratio");
    }
    replay.put(m, s);
    engine_counters(m, s, &p.engine);
    backend_metrics(m, s, &p.backend, p.wall_ns);
    w.built.device_metrics(m);
    o
}

fn server_metrics(m: &mut Metrics, snaps: &[ServerStatsSnapshot]) {
    let (mid, end) = (snaps[1], snaps[snaps.len() - 1]);
    // Batching in the overload phase, where it sets capacity.
    let mean = |a: zns_cache_server::BatchStatSnapshot, b: zns_cache_server::BatchStatSnapshot| {
        frac(b.items - a.items, b.events - a.events, 0.0)
    };
    m.put(
        "server.frames_per_read",
        mean(mid.frames_per_read, end.frames_per_read),
        "frames",
    );
    m.put(
        "server.jobs_per_dispatch",
        mean(mid.jobs_per_dispatch, end.jobs_per_dispatch),
        "jobs",
    );
    m.put(
        "server.replies_per_flush",
        mean(mid.replies_per_flush, end.replies_per_flush),
        "replies",
    );
    m.put(
        "server.bytes_copied_per_req",
        frac(end.bytes_copied, end.requests, 0.0),
        "bytes",
    );
    m.put("server.reply_allocs", end.reply_allocs as f64, "count");
    m.put(
        "server.busy_frac",
        frac(end.busy_replies, end.requests, 0.0),
        "fraction",
    );
    m.put(
        "server.shed_sets_frac",
        frac(end.shed_sets, end.requests, 0.0),
        "fraction",
    );
    m.put("server.max_queue_depth", end.max_queue_depth as f64, "jobs");
    m.put("server.engine_errors", end.engine_errors as f64, "count");
    m.put("server.dead_replies", end.dead_replies as f64, "count");
}

/// Engine counters, named `<scheme>.engine.<counter>`.
pub fn engine_counters(m: &mut Metrics, s: &str, e: &zns_cache::CacheMetricsSnapshot) {
    let mut put = |name: &str, v: u64| m.put(format!("{s}.engine.{name}"), v as f64, "count");
    put("dram_demotions", e.dram_demotions);
    put("flushes", e.flushes);
    put("evicted_regions", e.evicted_regions);
    put("inline_evictions", e.inline_evictions);
    put("maintainer_evictions", e.maintainer_evictions);
    put("stale_reads", e.stale_reads);
}

/// Backend timings, named `<scheme>.backend.<metric>`; `busy_frac` is
/// backend time over `wall_ns`.
pub fn backend_metrics(m: &mut Metrics, s: &str, t: &BackendTimes, wall_ns: u64) {
    let pct = |h: &sim::LatencyHistogram, p: f64| h.percentile(p).as_nanos() as f64;
    let mut put = |name: &str, v: f64, unit| m.put(format!("{s}.backend.{name}"), v, unit);
    put(
        "write_region_us_p50",
        pct(&t.write_region, 50.0) / 1e3,
        "us",
    );
    put(
        "write_region_us_p99",
        pct(&t.write_region, 99.0) / 1e3,
        "us",
    );
    put("read_ns_p50", pct(&t.read, 50.0), "ns");
    put("discard_us_p50", pct(&t.discard, 50.0) / 1e3, "us");
    put("maintenance_us_total", t.maintenance_ns as f64 / 1e3, "us");
    put("busy_frac", frac(t.busy_ns, wall_ns, 0.0), "fraction");
}

/// Wall times of engine calls made from one thread, and the simulated
/// time they took.
#[derive(Debug, Default)]
pub struct EngineTimes {
    pub get_ns: Vec<u64>,
    pub set_ns: Vec<u64>,
    pub self_set_ns: Vec<u64>,
    pub sim_get_ns: Vec<u64>,
    pub makespan: Nanos,
    pub wrong: u64,
    pub errors: u64,
}

impl EngineTimes {
    /// Latency and simulated-time metrics, named `<scheme>.engine.*` and
    /// `<scheme>.sim.*`.
    pub fn put(mut self, m: &mut Metrics, s: &str) {
        for v in [
            &mut self.get_ns,
            &mut self.set_ns,
            &mut self.self_set_ns,
            &mut self.sim_get_ns,
        ] {
            v.sort_unstable();
        }
        let mut put = |name: &str, v: f64, unit| m.put(format!("{s}.{name}"), v, unit);
        put(
            "engine.get_ns_p50",
            percentile(&self.get_ns, 50.0) as f64,
            "ns",
        );
        put(
            "engine.get_ns_p99",
            percentile(&self.get_ns, 99.0) as f64,
            "ns",
        );
        put(
            "engine.set_ns_p50",
            percentile(&self.set_ns, 50.0) as f64,
            "ns",
        );
        put(
            "engine.set_ns_p99",
            percentile(&self.set_ns, 99.0) as f64,
            "ns",
        );
        put(
            "engine.self_set_ns_p50",
            percentile(&self.self_set_ns, 50.0) as f64,
            "ns",
        );
        put(
            "sim.get_p99_us",
            percentile(&self.sim_get_ns, 99.0) as f64 / 1e3,
            "sim_us",
        );
        put("sim.makespan_s", self.makespan.as_secs_f64(), "sim_s");
    }
}

/// Replays `reqs` in order on a freshly warmed cache from one thread,
/// timing each engine call (backend timing on) and checking that every
/// hit is exactly the latest value of its key.
fn replay(spec: &Spec, seed: u64, reqs: &[Req]) -> EngineTimes {
    let w = setup(spec, seed);
    let cache = &w.built.cache;
    w.built.timer.set_tracing(true);
    let mut latest: Vec<Option<u32>> = w.warmed.iter().map(|&k| k.then_some(0)).collect();
    let mut out = EngineTimes::default();
    let mut value = vec![0u8; loadgen::VALUE_LEN];
    let start = w.now;
    let mut now = w.now;
    for r in reqs {
        let key = key_bytes(r.key);
        let k = r.key as usize;
        if r.kind == Kind::Set {
            fill_value(r.key, r.seq, &mut value);
        }
        let backend_before = thread_backend_ns();
        let t = Instant::now();
        match r.kind {
            Kind::Get => match cache.get(&key, now) {
                Ok((hit, done)) => {
                    out.get_ns.push(t.elapsed().as_nanos() as u64);
                    out.sim_get_ns.push((done - now).as_nanos());
                    now = done;
                    if let Some(v) = hit {
                        let expect = latest[k].map(|seq| (r.key, seq));
                        out.wrong += u64::from(check_value(&v) != expect || expect.is_none());
                    }
                }
                Err(_) => out.errors += 1,
            },
            Kind::Set => match cache.set(&key, &value, now) {
                Ok(done) => {
                    let ns = t.elapsed().as_nanos() as u64;
                    out.set_ns.push(ns);
                    out.self_set_ns
                        .push(ns.saturating_sub(thread_backend_ns() - backend_before));
                    now = done;
                    latest[k] = Some(r.seq);
                }
                Err(_) => out.errors += 1,
            },
            Kind::Del => match cache.delete(&key, now) {
                Ok((_, done)) => {
                    now = done;
                    latest[k] = None;
                }
                Err(_) => out.errors += 1,
            },
        }
    }
    out.makespan = now - start;
    out
}

/// Wire codec cost over the workload's own frames: request decode
/// (`split_frame` + `decode_request_ref`) per frame and reply encode
/// (`append_reply_frame`) per reply, in ns.
fn wire_costs(reqs: &[Req]) -> (f64, f64) {
    const MIN_TIME: Duration = Duration::from_millis(200);
    let sample = &reqs[..reqs.len().min(50_000)];
    let mut frames = Vec::new();
    let mut value = vec![0u8; loadgen::VALUE_LEN];
    let mut replies = Vec::with_capacity(sample.len());
    for (i, r) in sample.iter().enumerate() {
        let (id, key) = (i as u64, key_bytes(r.key).to_vec());
        fill_value(r.key, r.seq, &mut value);
        let (req, reply) = match r.kind {
            Kind::Get => (
                Request::Get { id, key },
                Reply::Value {
                    id,
                    value: Bytes::copy_from_slice(&value),
                },
            ),
            Kind::Set => (
                Request::Set {
                    id,
                    key,
                    value: value.clone(),
                },
                Reply::Stored { id },
            ),
            Kind::Del => (
                Request::Del { id, key },
                Reply::Deleted { id, existed: true },
            ),
        };
        append_request_frame(&req, &mut frames);
        replies.push(reply);
    }

    let (mut decoded, t) = (0u64, Instant::now());
    while decoded == 0 || t.elapsed() < MIN_TIME {
        let mut at = 0;
        while let Ok(FrameSplit::Frame { payload, advance }) = split_frame(&frames[at..]) {
            let req = decode_request_ref(&frames[at + payload.start..at + payload.end])
                .expect("a frame this benchmark encoded decodes");
            std::hint::black_box(req);
            at += advance;
            decoded += 1;
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / decoded as f64;

    let mut out = Vec::with_capacity(1 << 20);
    let (mut encoded, t) = (0u64, Instant::now());
    while encoded == 0 || t.elapsed() < MIN_TIME {
        for chunk in replies.chunks(64) {
            out.clear();
            for reply in chunk {
                append_reply_frame(reply, &mut out);
            }
            std::hint::black_box(&out);
            encoded += chunk.len() as u64;
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / encoded as f64;
    (decode_ns, encode_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server slowed to ~1 ms per engine op cannot keep up with 4k/s:
    /// the run must still end at its deadline, with the backlog counted
    /// as unanswered and charged the penalty, and the counts closing.
    #[test]
    fn a_slow_server_ends_at_the_deadline_with_failures_counted() {
        let spec = Spec {
            scheme: Scheme::Zone,
            profile: DeviceProfile::ram(DEVICE_ZONES),
            mix: Mix {
                keys: 200,
                zipf: 0.9,
                get: 0.9,
                set: 0.1,
            },
            steady_rate: 2_000.0,
            warm: Warm::AllKeys,
        };
        let w = setup(&spec, 1);
        let server = CacheServer::start(
            Arc::clone(&w.built.cache),
            ServerConfig {
                shards: 1,
                queue_capacity: 100_000,
                op_wall_delay: Duration::from_millis(1),
                ..ServerConfig::default()
            },
            BindAddr::Tcp("127.0.0.1:0".into()),
        )
        .unwrap();
        let reqs = loadgen::schedule(
            spec.mix,
            &[Phase {
                rate: 4_000.0,
                secs: 0.5,
            }],
            1,
        );
        let grace = Duration::from_millis(300);
        let t = Instant::now();
        let run = loadgen::run(server.tcp_addr().unwrap(), &reqs, grace, |_| {}).unwrap();
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(500 + 300 + 400),
            "run took {took:?}"
        );
        let mut p = loadgen::account(&reqs, &run, 0);
        assert_eq!(p.sent, reqs.len() as u64);
        assert!(
            p.unanswered > p.sent / 2,
            "only {} of {} unanswered",
            p.unanswered,
            p.sent
        );
        assert!(p.served > 0);
        assert_eq!(
            p.sent,
            p.served + p.busy + p.errors + p.unanswered + p.wrong
        );
        assert_eq!(p.wrong, 0);
        assert!(loadgen::stale_hits(&reqs, &run, spec.mix.keys, &w.warmed).is_empty());
        // Over half went unanswered: the median GET reads the penalty,
        // the time from the phase's first arrival to the deadline.
        assert_eq!(
            p.get_lat.all.percentile_ns(50.0),
            run.deadline_ns - reqs[0].at_ns
        );
        assert!(p.ok_frac() < 0.5);
        stop_server(server, Duration::from_secs(10));
    }

    #[test]
    fn a_healthy_server_answers_everything() {
        let spec = Spec {
            scheme: Scheme::Region,
            profile: DeviceProfile::ram(DEVICE_ZONES),
            mix: Mix {
                keys: 500,
                zipf: 0.9,
                get: 0.5,
                set: 0.4,
            },
            steady_rate: 5_000.0,
            warm: Warm::AllKeys,
        };
        let w = setup(&spec, 1);
        let phases = [
            Phase {
                rate: 5_000.0,
                secs: 0.3,
            },
            Phase {
                rate: 20_000.0,
                secs: 0.2,
            },
        ];
        let reqs = loadgen::schedule(spec.mix, &phases, 9);
        let p = serve(&spec, &w, &reqs, true);
        assert_eq!(p.steady.unanswered + p.overload.unanswered, 0);
        assert_eq!(p.steady.wrong + p.overload.wrong, 0);
        assert!(p.stale.is_empty());
        assert!(p.steady.hits > 0);
        assert!(p.overload.capacity_rps() > 0.0);
        assert_eq!(p.snaps.len(), 3);
        assert_eq!(p.snaps[2].requests, reqs.len() as u64);
    }
}
