//! The open-loop load generator, its accounting and output checks.
//!
//! One process, one TCP connection and two threads: a sender that paces
//! a Poisson schedule generated up front from the seed, and a receiver
//! that matches replies to requests by correlation id. Each request's
//! latency runs from its *scheduled* arrival, so a stall is charged to
//! every request queued behind it. The run has a deadline: whatever is
//! unanswered by then counts as failed, and neither thread ever blocks
//! past it (both sockets carry timeouts), so a wedged server shows as
//! failures, not as a hang.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use workload::Zipf;
use zns_cache_server::wire::{
    append_request_frame, decode_reply, split_frame, FrameSplit, Reply, Request,
};

use crate::stats::{frac, Windowed};

/// Value size of every serving request.
pub const VALUE_LEN: usize = 4096;

/// Fixed-width key bytes for a key id.
pub fn key_bytes(key: u32) -> [u8; 12] {
    let mut k = *b"obj-00000000";
    let mut v = key;
    for slot in (4..12).rev() {
        k[slot] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    k
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fills `out` (a multiple of 8 bytes, at least 16) with the value of
/// `(key, seq)`: the key id and sequence number, then words derived
/// from both, so any wrong byte is detectable.
pub fn fill_value(key: u32, seq: u32, out: &mut [u8]) {
    out[..8].copy_from_slice(&u64::from(key).to_le_bytes());
    out[8..16].copy_from_slice(&u64::from(seq).to_le_bytes());
    let base = mix64((u64::from(key) << 32) | u64::from(seq));
    for (i, w) in out[16..].chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&(base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes());
    }
}

/// Decodes a value written by [`fill_value`]: `Some((key, seq))` when
/// every byte is what that pair writes, `None` otherwise.
pub fn check_value(v: &[u8]) -> Option<(u32, u32)> {
    if v.len() != VALUE_LEN {
        return None;
    }
    let key = u32::try_from(u64::from_le_bytes(v[..8].try_into().ok()?)).ok()?;
    let seq = u32::try_from(u64::from_le_bytes(v[8..16].try_into().ok()?)).ok()?;
    let base = mix64((u64::from(key) << 32) | u64::from(seq));
    let body_ok = v[16..]
        .chunks_exact(8)
        .enumerate()
        .all(|(i, w)| w == (base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).to_le_bytes());
    body_ok.then_some((key, seq))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Del,
}

/// One scheduled request.
///
/// Every SET and DEL of a key takes the key's next sequence number (the
/// warm value is 0). For a GET, `seq` is the newest number issued for
/// its key before it: no hit may return a newer one.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub at_ns: u64,
    pub key: u32,
    pub kind: Kind,
    pub seq: u32,
    pub phase: u8,
}

/// Key space and operation mix; DEL takes what GET and SET leave.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub keys: u32,
    pub zipf: f64,
    pub get: f64,
    pub set: f64,
}

/// One open-loop phase: a Poisson arrival rate held for `secs`.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub rate: f64,
    pub secs: f64,
}

/// An endless stream of (key, kind) draws from a [`Mix`].
pub struct MixStream {
    mix: Mix,
    zipf: Zipf,
    rng: StdRng,
}

impl MixStream {
    pub fn new(mix: Mix, seed: u64) -> Self {
        MixStream {
            mix,
            zipf: Zipf::new(u64::from(mix.keys), mix.zipf),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next(&mut self) -> (u32, Kind) {
        let key = self.zipf.sample(&mut self.rng) as u32;
        let roll: f64 = self.rng.gen();
        let kind = if roll < self.mix.get {
            Kind::Get
        } else if roll < self.mix.get + self.mix.set {
            Kind::Set
        } else {
            Kind::Del
        };
        (key, kind)
    }

    /// A Poisson inter-arrival gap at `rate` per second, in ns.
    fn gap_ns(&mut self, rate: f64) -> f64 {
        let u: f64 = self.rng.gen();
        -(1.0 - u).max(1e-12).ln() / rate * 1e9
    }
}

/// The request stream for `phases` back to back, from `seed`.
pub fn schedule(mix: Mix, phases: &[Phase], seed: u64) -> Vec<Req> {
    let mut gen = MixStream::new(mix, seed);
    let mut seqs = vec![0u32; mix.keys as usize];
    let mut out = Vec::new();
    let mut phase_start = 0.0f64;
    for (p, ph) in phases.iter().enumerate() {
        let end = phase_start + ph.secs * 1e9;
        let mut at = phase_start + gen.gap_ns(ph.rate);
        while at < end {
            let (key, kind) = gen.next();
            let seq = &mut seqs[key as usize];
            if kind != Kind::Get {
                *seq += 1;
            }
            out.push(Req {
                at_ns: at as u64,
                key,
                kind,
                seq: *seq,
                phase: p as u8,
            });
            at += gen.gap_ns(ph.rate);
        }
        phase_start = end;
    }
    out
}

/// What happened to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// No reply by the deadline (or never sent).
    Unanswered,
    /// A GET answered with a value whose bytes check out.
    Hit,
    Miss,
    Stored,
    Deleted,
    Busy,
    Error,
    /// A GET answered with bytes that are not a value of its key.
    Wrong,
}

impl Status {
    pub fn served(self) -> bool {
        matches!(
            self,
            Status::Hit | Status::Miss | Status::Stored | Status::Deleted
        )
    }
}

/// Raw per-request record of one run.
#[derive(Debug)]
pub struct Run {
    pub status: Vec<Status>,
    /// Reply receipt, ns since the schedule's origin.
    pub ack_ns: Vec<u64>,
    /// When the request entered the send buffer, ns since the origin.
    pub send_ns: Vec<u64>,
    /// Sequence number a hit returned.
    pub hit_seq: Vec<u32>,
    /// Deadline, ns since the origin.
    pub deadline_ns: u64,
}

/// Socket timeout: the longest either thread blocks before it looks at
/// the deadline again.
const POLL: Duration = Duration::from_millis(20);

/// Writes all of `buf`, giving up at `deadline` (since `origin`).
fn write_until(
    w: &mut TcpStream,
    mut buf: &[u8],
    origin: Instant,
    deadline: Duration,
) -> io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if origin.elapsed() > deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sends `reqs` on their schedule and collects replies until all are in
/// or `grace` after the last arrival. `at_phase(p)` runs on the calling
/// thread once the schedule reaches the start of phase `p > 0`, and once
/// more with `p == phases` when the run ends (used for stats snapshots).
pub fn run(
    addr: SocketAddr,
    reqs: &[Req],
    grace: Duration,
    mut at_phase: impl FnMut(usize),
) -> io::Result<Run> {
    let n = reqs.len();
    let last_at = reqs.last().map_or(0, |r| r.at_ns);
    let deadline = Duration::from_nanos(last_at) + grace;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(POLL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream;

    let mut status = vec![Status::Unanswered; n];
    let mut ack_ns = vec![0u64; n];
    let mut hit_seq = vec![0u32; n];
    let mut send_ns = vec![0u64; n];
    let origin = Instant::now();
    std::thread::scope(|s| {
        let send_ns = &mut send_ns;
        s.spawn(move || {
            // Requests are buffered and written whenever the sender is
            // ahead of schedule (so none is held past its arrival) or the
            // buffer is large; behind schedule, the backlog leaves in one
            // write. Pacing is a plain sleep to the next arrival: the
            // timer's slack (about 50 us on Linux) wakes the sender a
            // little late, charged to latency and reported as lateness.
            // Spinning to the exact instant instead takes a core from the
            // server on a small host and made latency unsteady run to run.
            const FLUSH_BYTES: usize = 32 * 1024;
            let mut wbuf = Vec::with_capacity(2 * FLUSH_BYTES);
            let mut value = vec![0u8; VALUE_LEN];
            for (i, r) in reqs.iter().enumerate() {
                let due = Duration::from_nanos(r.at_ns);
                let now = origin.elapsed();
                if now > deadline {
                    break;
                }
                if due > now {
                    if !wbuf.is_empty() {
                        if write_until(&mut writer, &wbuf, origin, deadline).is_err() {
                            break;
                        }
                        wbuf.clear();
                    }
                    let now = origin.elapsed();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                send_ns[i] = origin.elapsed().as_nanos() as u64;
                let id = i as u64;
                let key = key_bytes(r.key).to_vec();
                let req = match r.kind {
                    Kind::Get => Request::Get { id, key },
                    Kind::Del => Request::Del { id, key },
                    Kind::Set => {
                        fill_value(r.key, r.seq, &mut value);
                        Request::Set {
                            id,
                            key,
                            value: value.clone(),
                        }
                    }
                };
                append_request_frame(&req, &mut wbuf);
                if wbuf.len() >= FLUSH_BYTES {
                    if write_until(&mut writer, &wbuf, origin, deadline).is_err() {
                        break;
                    }
                    wbuf.clear();
                }
            }
            // No write shutdown: the server closes a connection on EOF,
            // which would drop replies still queued in its shards.
            let _ = write_until(&mut writer, &wbuf, origin, deadline);
        });

        let (status, ack_ns, hit_seq) = (&mut status, &mut ack_ns, &mut hit_seq);
        let receiver = s.spawn(move || {
            let mut buf = vec![0u8; 256 * 1024];
            let (mut start, mut end) = (0usize, 0usize);
            let mut answered = 0usize;
            'recv: while answered < n && origin.elapsed() <= deadline {
                loop {
                    let frame = match split_frame(&buf[start..end]) {
                        Ok(FrameSplit::Frame { payload, advance }) => {
                            let p = start + payload.start..start + payload.end;
                            start += advance;
                            p
                        }
                        Ok(FrameSplit::Incomplete) => break,
                        Err(_) => break 'recv,
                    };
                    let Ok(reply) = decode_reply(&buf[frame]) else {
                        break 'recv;
                    };
                    let now = origin.elapsed().as_nanos() as u64;
                    let i = reply.id() as usize;
                    if i >= n || status[i] != Status::Unanswered {
                        continue;
                    }
                    answered += 1;
                    ack_ns[i] = now;
                    status[i] = match reply {
                        Reply::Value { value, .. } => match check_value(&value) {
                            Some((key, seq)) if key == reqs[i].key && reqs[i].kind == Kind::Get => {
                                hit_seq[i] = seq;
                                Status::Hit
                            }
                            _ => Status::Wrong,
                        },
                        Reply::NotFound { .. } => Status::Miss,
                        Reply::Stored { .. } => Status::Stored,
                        Reply::Deleted { .. } => Status::Deleted,
                        Reply::Busy { .. } => Status::Busy,
                        Reply::Error { .. } => Status::Error,
                    };
                }
                if start == end {
                    (start, end) = (0, 0);
                } else if buf.len() - end < 64 * 1024 {
                    buf.copy_within(start..end, 0);
                    (start, end) = (0, end - start);
                    if buf.len() - end < 64 * 1024 {
                        buf.resize(end + 64 * 1024, 0);
                    }
                }
                match reader.read(&mut buf[end..]) {
                    Ok(0) => break,
                    Ok(got) => end += got,
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) => {}
                    Err(_) => break,
                }
            }
        });

        // The calling thread only marks phase boundaries.
        let phases = reqs.iter().map(|r| r.phase as usize + 1).max().unwrap_or(0);
        for p in 1..phases {
            let first = reqs
                .iter()
                .find(|r| r.phase as usize == p)
                .map_or(0, |r| r.at_ns);
            let due = Duration::from_nanos(first);
            while origin.elapsed() < due && !receiver.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            at_phase(p);
        }
        while !receiver.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        at_phase(phases);
    });
    Ok(Run {
        status,
        ack_ns,
        send_ns,
        hit_seq,
        deadline_ns: deadline.as_nanos() as u64,
    })
}

/// Accounting of one phase of a run.
#[derive(Debug)]
pub struct PhaseReport {
    pub sent: u64,
    pub served: u64,
    pub busy: u64,
    pub errors: u64,
    pub unanswered: u64,
    pub wrong: u64,
    pub gets: u64,
    pub hits: u64,
    pub get_lat: Windowed,
    pub write_lat: Windowed,
    /// How late the sender put each request in its buffer, ns.
    pub late_ns: Vec<u64>,
    pub start_ns: u64,
    /// The phase's last scheduled arrival, ns since the origin.
    pub last_arrival_ns: u64,
    /// Receipt of the phase's last served reply, ns since the origin.
    pub last_served_ns: u64,
}

/// Width of the windows a phase's arrival span is cut into for its
/// medians.
const WINDOW_NS: u64 = 250_000_000;

/// How many whole windows (at least one) fit in `span_ns`.
fn windows(span_ns: u64) -> usize {
    (span_ns / WINDOW_NS).max(1) as usize
}

impl PhaseReport {
    /// Requests that were not served: shed, failed, wrong or unanswered.
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.unanswered + self.wrong
    }

    pub fn ok_frac(&self) -> f64 {
        frac(self.served, self.sent, 1.0)
    }

    /// Served requests per wall second: every request of the phase that
    /// was served, over the span from its first arrival to its last
    /// arrival or last served reply, whichever is later. A server that
    /// stops answering partway is charged the whole phase.
    pub fn capacity_rps(&self) -> f64 {
        let end = self.last_served_ns.max(self.last_arrival_ns);
        let secs = end.saturating_sub(self.start_ns) as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.served as f64 / secs
        }
    }
}

/// Accounts phase `phase` of `run`.
///
/// # Panics
///
/// Panics if the counts do not close (sent = served + busy + errors +
/// unanswered + wrong), which would be a bug in this accounting.
pub fn account(reqs: &[Req], run: &Run, phase: u8) -> PhaseReport {
    let start_ns = reqs
        .iter()
        .find(|r| r.phase == phase)
        .map_or(0, |r| r.at_ns);
    let last_arrival_ns = reqs
        .iter()
        .rev()
        .find(|r| r.phase == phase)
        .map_or(0, |r| r.at_ns);
    let span = last_arrival_ns - start_ns;
    // Beyond every latency a served request of this phase can have.
    let penalty = run.deadline_ns.saturating_sub(start_ns);
    let mut rep = PhaseReport {
        sent: 0,
        served: 0,
        busy: 0,
        errors: 0,
        unanswered: 0,
        wrong: 0,
        gets: 0,
        hits: 0,
        get_lat: Windowed::new(penalty, start_ns, span, windows(span)),
        write_lat: Windowed::new(penalty, start_ns, span, windows(span)),
        late_ns: Vec::new(),
        start_ns,
        last_arrival_ns,
        last_served_ns: start_ns,
    };
    for (i, r) in reqs.iter().enumerate().filter(|(_, r)| r.phase == phase) {
        let st = run.status[i];
        rep.sent += 1;
        match st {
            Status::Unanswered => rep.unanswered += 1,
            Status::Busy => rep.busy += 1,
            Status::Error => rep.errors += 1,
            Status::Wrong => rep.wrong += 1,
            _ => rep.served += 1,
        }
        if run.send_ns[i] > 0 {
            rep.late_ns.push(run.send_ns[i].saturating_sub(r.at_ns));
        }
        let lat = if r.kind == Kind::Get {
            &mut rep.get_lat
        } else {
            &mut rep.write_lat
        };
        if st.served() {
            lat.served(r.at_ns, run.ack_ns[i].saturating_sub(r.at_ns));
            rep.last_served_ns = rep.last_served_ns.max(run.ack_ns[i]);
        } else {
            lat.failed(r.at_ns);
        }
        if r.kind == Kind::Get {
            rep.gets += 1;
            rep.hits += u64::from(st == Status::Hit);
        }
    }
    assert_eq!(
        rep.sent,
        rep.served + rep.busy + rep.errors + rep.unanswered + rep.wrong,
        "request accounting does not close"
    );
    rep
}

/// A GET hit that failed the freshness check.
#[derive(Debug)]
pub struct StaleHit {
    pub key: u32,
    /// Sequence number the hit returned.
    pub returned: u32,
    /// Newest SET/DEL acknowledged before the GET was sent.
    pub floor: u32,
    /// Newest SET/DEL issued before the GET.
    pub issued: u32,
    /// What happened to the SET whose value came back (`None` for the
    /// warm value or a sequence number that was never a SET).
    pub write: Option<Status>,
}

/// Checks every GET hit of `run` for freshness and returns those that
/// fail. A hit must return a value some SET of its key carried — the
/// warm value (sequence 0, only for `warmed` keys) or a SET that was not
/// shed — no newer than the newest SET or DEL
/// issued before the GET, and no older than the newest SET or DEL
/// acknowledged before the GET entered the send buffer.
pub fn stale_hits(reqs: &[Req], run: &Run, keys: u32, warmed: &[bool]) -> Vec<StaleHit> {
    // Request index of each key's SET/DEL, by sequence number - 1.
    let mut writes: Vec<Vec<u32>> = vec![Vec::new(); keys as usize];
    for (i, r) in reqs.iter().enumerate() {
        if r.kind != Kind::Get {
            writes[r.key as usize].push(i as u32);
        }
    }
    // Acks of served writes and sends of hits, in time order; a send
    // sorts before an ack at the same instant (not acked *before* it).
    let mut events: Vec<(u64, bool, u32)> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        match (r.kind, run.status[i]) {
            (Kind::Get, Status::Hit) => events.push((run.send_ns[i], false, i as u32)),
            (Kind::Set, Status::Stored) | (Kind::Del, Status::Deleted) => {
                events.push((run.ack_ns[i], true, i as u32))
            }
            _ => {}
        }
    }
    events.sort_unstable();
    let mut floor = vec![0u32; keys as usize];
    let mut stale = Vec::new();
    for (_, is_ack, i) in events {
        let r = &reqs[i as usize];
        let k = r.key as usize;
        if is_ack {
            floor[k] = floor[k].max(r.seq);
            continue;
        }
        let s = run.hit_seq[i as usize];
        let write = (s > 0)
            .then(|| writes[k].get(s as usize - 1))
            .flatten()
            .filter(|&&j| reqs[j as usize].kind == Kind::Set)
            .map(|&j| run.status[j as usize]);
        let from_a_set = match write {
            None => s == 0 && warmed[k],
            // An engine error on a SET does not promise that nothing was
            // written, so its value may be read back like an unanswered
            // one; a SET shed with BUSY never reached the engine.
            Some(st) => matches!(st, Status::Stored | Status::Unanswered | Status::Error),
        };
        if !from_a_set || s > r.seq || s < floor[k] {
            stale.push(StaleHit {
                key: r.key,
                returned: s,
                floor: floor[k],
                issued: r.seq,
                write,
            });
        }
    }
    stale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_any_wrong_byte_fails() {
        let mut v = vec![0u8; VALUE_LEN];
        fill_value(77, 5, &mut v);
        assert_eq!(check_value(&v), Some((77, 5)));
        for at in [0, 9, 16, 2000, VALUE_LEN - 1] {
            let mut bad = v.clone();
            bad[at] ^= 1;
            assert_eq!(check_value(&bad), None, "flipped byte {at} went unnoticed");
        }
        assert_eq!(check_value(&v[..VALUE_LEN - 8]), None);
        let mut other = vec![0u8; VALUE_LEN];
        fill_value(77, 6, &mut other);
        assert_ne!(v, other);
    }

    #[test]
    fn schedule_is_seeded_phased_and_sequenced() {
        let mix = Mix {
            keys: 100,
            zipf: 0.9,
            get: 0.5,
            set: 0.4,
        };
        let phases = [
            Phase {
                rate: 10_000.0,
                secs: 0.5,
            },
            Phase {
                rate: 40_000.0,
                secs: 0.25,
            },
        ];
        let a = schedule(mix, &phases, 3);
        let b = schedule(mix, &phases, 3);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at_ns == y.at_ns && x.key == y.key && x.seq == y.seq));
        let p0 = a.iter().filter(|r| r.phase == 0).count() as f64;
        let p1 = a.iter().filter(|r| r.phase == 1).count() as f64;
        assert!((4_500.0..5_500.0).contains(&p0), "phase 0 had {p0}");
        assert!((9_000.0..11_000.0).contains(&p1), "phase 1 had {p1}");
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let mut last = vec![0u32; 100];
        for r in &a {
            if r.kind == Kind::Get {
                assert_eq!(r.seq, last[r.key as usize]);
            } else {
                assert_eq!(r.seq, last[r.key as usize] + 1);
                last[r.key as usize] = r.seq;
            }
        }
        assert_ne!(schedule(mix, &phases, 4)[0].at_ns, a[0].at_ns);
    }

    fn req(at_ns: u64, key: u32, kind: Kind, seq: u32, phase: u8) -> Req {
        Req {
            at_ns,
            key,
            kind,
            seq,
            phase,
        }
    }

    #[test]
    fn accounting_charges_failures_and_computes_rates() {
        // Phase 1 sends four requests from t = 1 s: two served (acked at
        // 1.1 s and 1.5 s), one shed, one unanswered.
        let reqs = vec![
            req(0, 0, Kind::Get, 0, 0),
            req(1_000_000_000, 0, Kind::Get, 0, 1),
            req(1_000_000_000, 1, Kind::Set, 1, 1),
            req(1_200_000_000, 2, Kind::Get, 0, 1),
            req(1_300_000_000, 3, Kind::Get, 0, 1),
        ];
        let run = Run {
            status: vec![
                Status::Hit,
                Status::Miss,
                Status::Stored,
                Status::Busy,
                Status::Unanswered,
            ],
            ack_ns: vec![10, 1_100_000_000, 1_500_000_000, 1_200_000_100, 0],
            send_ns: vec![5, 1_000_000_000, 1_000_000_000, 1_200_000_000, 0],
            hit_seq: vec![0; 5],
            deadline_ns: 3_000_000_000,
        };
        let mut p = account(&reqs, &run, 1);
        assert_eq!(
            (p.sent, p.served, p.busy, p.unanswered, p.failed()),
            (4, 2, 1, 1, 2)
        );
        assert_eq!(p.ok_frac(), 0.5);
        // Two served from the first arrival (1.0 s) to the last reply
        // (1.5 s).
        assert!((p.capacity_rps() - 4.0).abs() < 1e-9);
        assert_eq!((p.gets, p.hits), (3, 0));
        // GETs: one served at 100 ms, two failed at the 2 s penalty.
        assert_eq!(p.get_lat.all.percentile_ns(33.0), 100_000_000);
        assert_eq!(p.get_lat.all.percentile_ns(50.0), 2_000_000_000);
        assert_eq!(p.write_lat.all.percentile_ns(95.0), 500_000_000);
        let p0 = account(&reqs, &run, 0);
        assert_eq!((p0.sent, p0.served, p0.hits, p0.failed()), (1, 1, 1, 0));
    }

    /// 1600 arrivals 1 ms apart, each answered 1 us later unless
    /// `answered(i)` says otherwise.
    fn paced_phase(answered: impl Fn(u64) -> bool) -> PhaseReport {
        let reqs: Vec<Req> = (0..1600)
            .map(|i| req(i * 1_000_000, 0, Kind::Get, 0, 0))
            .collect();
        let ok: Vec<bool> = (0..1600).map(answered).collect();
        let run = Run {
            status: ok
                .iter()
                .map(|&a| if a { Status::Miss } else { Status::Unanswered })
                .collect(),
            ack_ns: reqs.iter().map(|r| r.at_ns + 1_000).collect(),
            send_ns: reqs.iter().map(|r| r.at_ns).collect(),
            hit_seq: vec![0; 1600],
            deadline_ns: 3_000_000_000,
        };
        account(&reqs, &run, 0)
    }

    #[test]
    fn capacity_counts_served_requests_over_the_phase_span() {
        let all = paced_phase(|_| true);
        // 1600 served from the first arrival (0) to the last reply
        // (1.599001 s).
        assert!((all.capacity_rps() - 1600.0 / 1.599_001).abs() < 1e-6);
        // A server that stops answering a quarter of the way in is
        // charged the whole phase.
        let wedged = paced_phase(|i| i < 400);
        assert!((wedged.capacity_rps() - 400.0 / 1.599).abs() < 1e-6);
        assert_eq!(wedged.ok_frac(), 0.25);
        assert_eq!(wedged.failed(), 1200);
    }

    #[test]
    fn capacity_of_a_phase_with_nothing_served_is_zero() {
        let reqs = vec![req(5, 0, Kind::Get, 0, 0)];
        let run = Run {
            status: vec![Status::Unanswered],
            ack_ns: vec![0],
            send_ns: vec![5],
            hit_seq: vec![0],
            deadline_ns: 100,
        };
        let p = account(&reqs, &run, 0);
        assert_eq!((p.capacity_rps(), p.ok_frac()), (0.0, 0.0));
    }

    #[test]
    fn stale_hits_follow_acks_and_sheds() {
        // key 0: SET seq1 acked at 10, DEL seq2 acked at 30, SET seq3 shed.
        let reqs = vec![
            req(0, 0, Kind::Set, 1, 0),
            req(0, 0, Kind::Get, 1, 0),
            req(0, 0, Kind::Del, 2, 0),
            req(0, 0, Kind::Set, 3, 0),
            req(0, 0, Kind::Get, 3, 0),
            req(0, 0, Kind::Get, 3, 0),
            req(0, 0, Kind::Get, 3, 0),
            req(0, 1, Kind::Get, 0, 0),
        ];
        let hit = Status::Hit;
        let run = Run {
            status: vec![
                Status::Stored,
                hit,
                Status::Deleted,
                Status::Busy,
                hit,
                hit,
                hit,
                hit,
            ],
            ack_ns: vec![10, 12, 30, 31, 40, 41, 42, 43],
            //        GET@5 sees seq1 (fine, acked later at 10 is no floor).
            //        GET@35 sees seq1 after the DEL was acked: stale.
            //        GET@36 sees seq3, which was shed: never stored.
            //        GET@20 sees warm value 0 for key 0, older than seq1: stale.
            //        key 1 GET sees warm 0: fine only if key 1 was warmed.
            send_ns: vec![1, 5, 2, 3, 35, 36, 20, 50],
            hit_seq: vec![0, 1, 0, 0, 1, 3, 0, 0],
            deadline_ns: 100,
        };
        let stale = stale_hits(&reqs, &run, 2, &[true, true]);
        assert_eq!(stale.len(), 3);
        assert_eq!(
            (stale[0].returned, stale[0].floor, stale[0].write),
            (0, 1, None)
        );
        assert_eq!((stale[1].returned, stale[1].floor), (1, 2));
        assert_eq!((stale[2].returned, stale[2].write), (3, Some(Status::Busy)));
        assert_eq!(stale_hits(&reqs, &run, 2, &[true, false]).len(), 4);
    }
}
