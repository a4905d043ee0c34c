//! Thread-scaling sweep: aggregate ops/s at 1/2/4/8 threads per scheme.
//!
//! Emits `BENCH_throughput.json` so later changes have a perf trajectory
//! to compare against. Unlike the `repro_*` binaries (single-threaded
//! simulated figures), this one runs N OS threads against one shared
//! engine and reports the aggregate **simulated** throughput (total ops
//! over the slowest thread's simulated makespan — see `mt` module docs
//! for why wall-clock is not the headline on a single-core CI host).
//!
//! Two device profiles per sweep:
//!
//! * `flash` — realistic NAND timing. Curves flatten once the media is
//!   the bottleneck (~64 MB/s of programs at the scaled geometry), which
//!   is the honest end-to-end number.
//! * `fast_device` — near-instant media (the simulation analogue of the
//!   paper's nullblk runs). Isolates the engine's own scalability: this
//!   is the section the lock-striping acceptance criterion reads.
//! * `flash_dram_pressured` — realistic NAND with the DRAM budget
//!   squeezed to 8 MiB (`--pressured-dram-bytes`). The default 48 MiB
//!   budget absorbs the whole working set in the DRAM tier, making every
//!   scheme identical; this section is where per-scheme device behavior
//!   (GC, cleaning, zone appends) shows up in the numbers.
//!
//! ```text
//! bench_threads                        # full sweep -> BENCH_throughput.json
//! bench_threads --smoke 1 --threads 8  # all schemes at 1 and 8 threads,
//!                                      # asserting scaling floors; no file
//! bench_threads --floor 1              # flash Zone-Cache @8T model regression
//!                                      # gate (simulated ops/s, not host
//!                                      # performance)
//! bench_threads --scheme Region-Cache --threads 8
//! bench_threads --stripe-dies 4 --append-depth 1   # narrower stripe, QD1
//! bench_threads --trace-out trace.jsonl --scheme File-Cache --threads 8
//! ```
//!
//! `--stripe-dies` (1/2/4/8, default 8) and `--append-depth` (default 16)
//! shape the zoned device: how many dies a zone stripes over and how many
//! zone-append commands a region flush keeps in flight. Both are recorded
//! in the artifact's `device` header. `--dram-bytes <n>` caps the DRAM
//! budget for the whole run (0 disables the DRAM tier).
//!
//! `--trace-out <file.jsonl>` enables the event tracer for the whole
//! sweep and dumps the merged timeline (zone resets, cleaner passes,
//! seals, evictions — see `zns_cache::trace`) as JSONL on exit.

use zns_cache::backend::GcMode;
use zns_cache::Scheme;
use zns_cache_bench::{
    build_scheme_on, run_mt, throughput_json, DeviceProfile, Flags, MtConfig, MtReport,
};

const DEVICE_ZONES: u32 = 8;

fn scheme_cache_zones(scheme: Scheme) -> u32 {
    // Zone-Cache uses the whole device; the others leave OP (§4.1).
    match scheme {
        Scheme::Zone => DEVICE_ZONES,
        // The f2fs cleaner's 2-zone free floor is 8% of the paper's
        // 25-zone budget but 25% of this sweep's 8-zone device; at 6
        // cache zones the floor would eat the whole reserve and
        // foreground cleaning thrashes (~50x WA). One extra OP zone
        // restores a healthy dead-block slack at this scale.
        Scheme::File => DEVICE_ZONES - 3,
        _ => DEVICE_ZONES - 2,
    }
}

fn run_one(scheme: Scheme, cfg: &MtConfig, profile: DeviceProfile, label: &str) -> MtReport {
    let sc = build_scheme_on(profile, scheme, scheme_cache_zones(scheme), GcMode::Migrate);
    let report = run_mt(&sc, cfg);
    println!(
        "{:<20} {:<14} threads={} ops/s={:>10.0} hit={:.3} wa={:.2} p50={}us p99={}us stale={} inline_ev={} maint_ev={}",
        label,
        report.scheme,
        report.threads,
        report.ops_per_sec(),
        report.hit_ratio(),
        report.write_amplification,
        report.get_latency.percentile(50.0).as_micros(),
        report.get_latency.percentile(99.0).as_micros(),
        report.stale_reads,
        report.inline_evictions,
        report.maintainer_evictions,
    );
    report
}

fn main() {
    let flags = Flags::from_env();
    let smoke = flags.u64("smoke", 0) != 0;
    let floor = flags.u64("floor", 0) != 0;
    let out = flags.str("out", "BENCH_throughput.json");
    let trace_out = zns_cache_bench::start_trace(&flags);
    let mut profile = DeviceProfile::sparse(DEVICE_ZONES)
        .with_stripe_dies(flags.u64("stripe-dies", 8) as u32)
        .with_append_depth(flags.u64("append-depth", 16) as usize);
    // `--dram-bytes` caps the per-scheme DRAM budget (0 disables the
    // DRAM tier). u64::MAX is the "not given" sentinel so 0 stays
    // expressible.
    let dram_bytes = flags.u64("dram-bytes", u64::MAX);
    if dram_bytes != u64::MAX {
        profile = profile.with_dram_budget(dram_bytes as usize);
    }

    if floor {
        // CI model regression gate (simulated ops/s, not host
        // performance): the async flush pipeline must hold flash
        // Zone-Cache at (or near) the media bound at 8 threads, with get
        // tail latency in microseconds — the regression gate for the
        // submit/complete I/O core. Realistic NAND timing on purpose:
        // this is the end-to-end number the paper's Fig. 3 argument
        // hinges on.
        let threads = flags.u64("threads", 8) as usize;
        let report = run_one(Scheme::Zone, &MtConfig::throughput(threads), profile, "flash");
        let ops = report.ops_per_sec();
        let p99 = report.get_latency.percentile(99.0);
        assert!(
            ops >= 110_000.0,
            "flash Zone-Cache @{threads}T fell to {ops:.0} ops/s (floor: 110k)"
        );
        assert!(
            p99 < sim::Nanos::from_micros(100),
            "flash Zone-Cache @{threads}T get p99 ballooned to {}ns (floor: <100us)",
            p99.as_nanos()
        );
        zns_cache_bench::finish_trace(&trace_out);
        println!(
            "model regression gate OK: {ops:.0} sim ops/s, get p99 {}us",
            p99.as_micros()
        );
        return;
    }

    if smoke {
        // CI gate: every scheme must complete a short mixed run at 1 and
        // N threads, stay self-consistent, offer the same workload at
        // both thread counts, and keep at least half its single-thread
        // throughput — the floor that catches a multi-thread collapse
        // (File-Cache once dropped 108.6k -> 4.7k ops/s at >= 4 threads).
        // Fast media keeps the gate seconds-scale.
        let threads = flags.u64("threads", 8) as usize;
        for scheme in Scheme::ALL {
            let base = run_one(scheme, &MtConfig::smoke(1), profile.fast(), "fast_device");
            let multi = run_one(scheme, &MtConfig::smoke(threads), profile.fast(), "fast_device");
            assert_eq!(multi.ops, MtConfig::smoke(threads).ops);
            assert!(multi.hits <= multi.gets);
            assert_eq!(
                base.gets, multi.gets,
                "{scheme}: offered workload changed with thread count"
            );
            assert!(
                (base.hit_ratio() - multi.hit_ratio()).abs() < 0.02,
                "{scheme}: hit ratio drifted with threads: {:.4} -> {:.4}",
                base.hit_ratio(),
                multi.hit_ratio()
            );
            assert!(
                multi.ops_per_sec() >= 0.5 * base.ops_per_sec(),
                "{scheme}: {threads}-thread throughput {:.0} ops/s fell below half \
                 of single-thread {:.0} ops/s",
                multi.ops_per_sec(),
                base.ops_per_sec()
            );
            // Wall-clock sanity: the barriered window (started at the
            // post-setup barrier, stopped at last-worker-done) must not
            // collapse as threads are added. On a single-core host
            // wall-clock *scaling* is impossible, so this is a
            // non-collapse floor, not a monotonicity requirement — it
            // catches the class of bug where setup cost (histogram
            // allocation, spawn overhead) leaks back into the timed
            // window and grows with the thread count.
            assert!(
                multi.wall_ops_per_sec() >= 0.4 * base.wall_ops_per_sec(),
                "{scheme}: wall ops/s collapsed with threads: {:.0} at 1T -> {:.0} at {threads}T",
                base.wall_ops_per_sec(),
                multi.wall_ops_per_sec()
            );
        }
        zns_cache_bench::finish_trace(&trace_out);
        println!("smoke OK");
        return;
    }

    let scheme_filter = flags.str("scheme", "");
    let thread_counts: Vec<usize> = match flags.u64("threads", 0) {
        0 => vec![1, 2, 4, 8],
        n => vec![n as usize],
    };
    let mut template = MtConfig::throughput(1);
    template.ops = flags.u64("ops", template.ops);
    template.keys = flags.u64("keys", template.keys);
    template.zipf = flags.f64("zipf", template.zipf);
    template.get_ratio = flags.f64("get-ratio", template.get_ratio);

    // Three sections: realistic flash, near-instant media, and flash
    // under a pressured DRAM budget. The default 48 MiB budget absorbs
    // the whole 12k x 4 KiB working set in the DRAM tier, which made
    // every scheme's row byte-identical (~97% DRAM hits; the device never
    // spoke). The pressured section squeezes the budget to 8 MiB so most
    // gets reach flash and the schemes separate.
    let pressured = profile.with_dram_budget(
        flags.u64("pressured-dram-bytes", 8 * 1024 * 1024) as usize,
    );
    let sections: [(&str, DeviceProfile); 3] = [
        ("flash", profile),
        ("fast_device", profile.fast()),
        ("flash_dram_pressured", pressured),
    ];
    let mut section_runs: Vec<Vec<MtReport>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for (si, (label, section_profile)) in sections.iter().enumerate() {
        for scheme in Scheme::ALL {
            if !scheme_filter.is_empty() && scheme.label() != scheme_filter {
                continue;
            }
            for &threads in &thread_counts {
                let cfg = MtConfig {
                    threads,
                    ..template.clone()
                };
                section_runs[si].push(run_one(scheme, &cfg, *section_profile, label));
            }
        }
    }

    let json = throughput_json(
        &template,
        &profile,
        &[
            ("flash", &section_runs[0][..]),
            ("fast_device", &section_runs[1][..]),
            ("flash_dram_pressured", &section_runs[2][..]),
        ],
    );
    std::fs::write(&out, &json).expect("write throughput artifact");
    println!("wrote {out}");
    zns_cache_bench::finish_trace(&trace_out);
}
