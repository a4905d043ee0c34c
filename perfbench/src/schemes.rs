//! Scheme construction with the backend timing wrapper interposed.
//!
//! Mirrors `zns_cache_bench::build_scheme_on` (same devices, budgets and
//! File-Cache sizing), but builds each scheme's backend by hand so a
//! [`TimedBackend`] can sit between it and `LogCache::new`.

use std::sync::Arc;

use f2fs_lite::FileSystem;
use ftl::BlockSsd;
use nand::StoreKind;
use sim::Nanos;
use zns::ZnsDevice;
use zns_cache::backend::{
    BlockBackend, FileBackend, GcMode, MiddleLayerBackend, RegionBackend, ZoneBackend,
};
use zns_cache::{LogCache, Scheme};
use zns_cache_bench::profile::{
    experiment_cache_config, experiment_cache_config_with_dram, middle_config, DeviceProfile,
    REGION_BYTES, ZONE_MIB,
};

use crate::stats::Metrics;
use crate::timed::TimedBackend;

/// Zones of the device every workload runs on.
pub const DEVICE_ZONES: u32 = 8;

/// Zone-equivalents of cache per scheme on the 8-zone device: Zone-Cache
/// takes every zone, the others leave over-provisioning.
pub fn cache_zones(scheme: Scheme) -> u32 {
    match scheme {
        Scheme::Zone => DEVICE_ZONES,
        Scheme::File => DEVICE_ZONES - 3,
        Scheme::Region | Scheme::Block => DEVICE_ZONES - 2,
    }
}

/// Lower-case scheme name used as a metric prefix.
pub fn short(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Region => "region",
        Scheme::Zone => "zone",
        Scheme::File => "file",
        Scheme::Block => "block",
    }
}

/// A cache whose backend is timed, plus the devices beneath it.
pub struct Built {
    pub scheme: Scheme,
    pub cache: Arc<LogCache>,
    pub timer: Arc<TimedBackend>,
    zns: Option<Arc<ZnsDevice>>,
    ftl: Option<Arc<BlockSsd>>,
    fs: Option<Arc<FileSystem>>,
    middle: Option<Arc<MiddleLayerBackend>>,
}

/// Builds `scheme` on `profile` with its [`cache_zones`] budget.
/// `write_back` selects the DRAM tier's write-back mode.
///
/// # Panics
///
/// Panics when the scheme cannot be built: a fixed configuration of the
/// benchmark that fails to build is a bug, not a measurement.
pub fn build(profile: DeviceProfile, scheme: Scheme, write_back: bool) -> Built {
    let zones = cache_zones(scheme);
    let zone_bytes = ZONE_MIB * 1024 * 1024;
    let cache_bytes = zones as u64 * zone_bytes;
    let region_size = match scheme {
        Scheme::Zone => zone_bytes as usize,
        _ => REGION_BYTES,
    };
    let mut config = match profile.dram_budget {
        Some(budget) => {
            experiment_cache_config_with_dram(region_size, budget.saturating_sub(2 * region_size))
        }
        None => experiment_cache_config(region_size),
    };
    config.verify_keys = profile.store == StoreKind::Ram;
    config.dram_write_back = write_back;

    let (mut zns, mut ftl, mut fs, mut middle) = (None, None, None, None);
    let inner: Arc<dyn RegionBackend> = match scheme {
        Scheme::Zone => {
            let dev = profile.zns();
            zns = Some(Arc::clone(&dev));
            Arc::new(
                ZoneBackend::new(dev)
                    .with_append_depth(profile.append_depth)
                    .with_zone_limit(zones),
            )
        }
        Scheme::Region => {
            let dev = profile.zns();
            zns = Some(Arc::clone(&dev));
            let backend = Arc::new(MiddleLayerBackend::new(
                dev,
                middle_config(profile.zones, cache_bytes, GcMode::Migrate),
            ));
            middle = Some(Arc::clone(&backend));
            backend
        }
        Scheme::File => {
            let filesystem = profile.f2fs(profile.zones - zones);
            zns = Some(filesystem.device());
            fs = Some(Arc::clone(&filesystem));
            // One zone of slack beyond the 8-region trim, as the
            // repository's experiments size File-Cache.
            let zone_slack = (zone_bytes / REGION_BYTES as u64) as u32;
            let regions = (cache_bytes / REGION_BYTES as u64) as u32 - zone_slack - 8;
            Arc::new(
                FileBackend::create(
                    filesystem,
                    "cachelib.data",
                    REGION_BYTES,
                    regions,
                    Nanos::ZERO,
                )
                .expect("file scheme construction")
                .with_punch_on_discard(true),
            )
        }
        Scheme::Block => {
            let op_ratio = (1.0 - zones as f64 / profile.zones as f64).max(0.05);
            let dev = profile.block_ssd(op_ratio);
            ftl = Some(Arc::clone(&dev));
            let stats_dev = Arc::clone(&dev);
            Arc::new(
                BlockBackend::new(dev, REGION_BYTES)
                    .with_media_counter(move || stats_dev.stats().media_bytes_written),
            )
        }
    };
    let timer = Arc::new(TimedBackend::new(inner));
    let cache = Arc::new(
        LogCache::new(Arc::clone(&timer) as Arc<dyn RegionBackend>, config)
            .expect("scheme construction"),
    );
    Built {
        scheme,
        cache,
        timer,
        zns,
        ftl,
        fs,
        middle,
    }
}

impl Built {
    /// Device-model counters, named `<scheme>.<device>.<counter>`.
    pub fn device_metrics(&self, m: &mut Metrics) {
        let s = short(self.scheme);
        let mut put = |name: &str, v: u64, unit| m.put(format!("{s}.{name}"), v as f64, unit);
        if let Some(mid) = &self.middle {
            let st = mid.stats();
            put("middle.gc_cycles", st.gc_cycles, "count");
            put(
                "middle.gc_migrated_regions",
                st.gc_migrated_regions,
                "count",
            );
            put("middle.gc_dropped_regions", st.gc_dropped_regions, "count");
        }
        if let Some(fs) = &self.fs {
            let st = fs.stats();
            put("f2fs.gc_data_moved", st.gc_data_moved, "blocks");
            put("f2fs.gc_node_moved", st.gc_node_moved, "blocks");
            put("f2fs.zones_cleaned", st.zones_cleaned, "count");
            put("f2fs.checkpoints", st.checkpoints, "count");
        }
        if let Some(ftl) = &self.ftl {
            let st = ftl.stats();
            put("ftl.gc_pages_moved", st.gc_pages_moved, "pages");
            put("ftl.blocks_erased", st.blocks_erased, "count");
        }
        if let Some(zns) = &self.zns {
            let st = zns.stats();
            put("zns.zone_resets", st.zone_resets, "count");
            put("zns.zone_finishes", st.zone_finishes, "count");
        }
    }
}
