//! The per-layer metric names and units every traced run reports.
//!
//! Each workload exercises only some layers; a metric of a layer the
//! workload does not reach (the load generator in the in-process sweep,
//! File-Cache's filesystem in a Zone-Cache serving run) reads 0.

use zns_cache::Scheme;

use crate::schemes::short;
use crate::stats::Metrics;

const SHARED: [(&str, &str); 19] = [
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.encode_ns_per_reply", "ns"),
    ("server.frames_per_read", "frames"),
    ("server.jobs_per_dispatch", "jobs"),
    ("server.replies_per_flush", "replies"),
    ("server.bytes_copied_per_req", "bytes"),
    ("server.reply_allocs", "count"),
    ("server.busy_frac", "fraction"),
    ("server.shed_sets_frac", "fraction"),
    ("server.max_queue_depth", "jobs"),
    ("server.engine_errors", "count"),
    ("server.dead_replies", "count"),
    ("server.overhead_p50_us", "us"),
    ("tail.get_p99_us", "us"),
    ("tail.get_p999_us", "us"),
    ("failed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

const PER_SCHEME: [(&str, &str); 19] = [
    ("engine.get_ns_p50", "ns"),
    ("engine.get_ns_p99", "ns"),
    ("engine.set_ns_p50", "ns"),
    ("engine.set_ns_p99", "ns"),
    ("engine.self_set_ns_p50", "ns"),
    ("engine.dram_demotions", "count"),
    ("engine.flushes", "count"),
    ("engine.evicted_regions", "count"),
    ("engine.inline_evictions", "count"),
    ("engine.maintainer_evictions", "count"),
    ("engine.stale_reads", "count"),
    ("backend.write_region_us_p50", "us"),
    ("backend.write_region_us_p99", "us"),
    ("backend.read_ns_p50", "ns"),
    ("backend.discard_us_p50", "us"),
    ("backend.maintenance_us_total", "us"),
    ("backend.busy_frac", "fraction"),
    ("sim.get_p99_us", "sim_us"),
    ("sim.makespan_s", "sim_s"),
];

const DEVICES: [(&str, &str); 15] = [
    ("region.middle.gc_cycles", "count"),
    ("region.middle.gc_migrated_regions", "count"),
    ("region.middle.gc_dropped_regions", "count"),
    ("region.zns.zone_resets", "count"),
    ("region.zns.zone_finishes", "count"),
    ("zone.zns.zone_resets", "count"),
    ("zone.zns.zone_finishes", "count"),
    ("file.f2fs.gc_data_moved", "blocks"),
    ("file.f2fs.gc_node_moved", "blocks"),
    ("file.f2fs.zones_cleaned", "count"),
    ("file.f2fs.checkpoints", "count"),
    ("file.zns.zone_resets", "count"),
    ("file.zns.zone_finishes", "count"),
    ("block.ftl.gc_pages_moved", "pages"),
    ("block.ftl.blocks_erased", "count"),
];

/// Every per-layer metric, with its unit.
pub fn all() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        SHARED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for scheme in Scheme::ALL {
        let s = short(scheme);
        out.push((format!("hit_ratio.{s}"), "ratio"));
        if scheme != Scheme::Zone {
            // Zone-Cache's write amplification is checked to be 1.
            out.push((format!("write_amp.{s}"), "ratio"));
        }
        out.extend(PER_SCHEME.iter().map(|&(n, u)| (format!("{s}.{n}"), u)));
    }
    out.extend(DEVICES.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Completes `m` to exactly the per-layer set: layers the workload did
/// not reach read 0.
///
/// # Panics
///
/// Panics on a name outside the set, which is a bug in this benchmark.
pub fn complete(m: Metrics) -> Metrics {
    let all = all();
    for name in m.names() {
        assert!(
            all.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not declared"
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in all {
        let value = m.get(&name).unwrap_or(0.0);
        out.put(name, value, unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_limit() {
        let all = all();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.len() <= 128);
    }

    /// BENCHMARK.json at the repository root must declare exactly these.
    #[test]
    fn benchmark_json_declares_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer list")..];
        for (name, unit) in all() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), all().len());
    }
}
