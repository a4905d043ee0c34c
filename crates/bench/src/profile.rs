//! Scaled device profiles.
//!
//! The paper's testbed: 1 TB WD ZN540 (904 zones × 1077 MiB), a
//! hardware-compatible 1 TB SN540 regular SSD, a nullblk metadata device
//! and a 6 TB HDD. The host here has 15 GiB of DRAM and one core, so every
//! experiment runs at **1/64 scale**: 16 MiB zones, 256 KiB cache regions
//! (the paper's 16 MiB regions : 1077 MiB zones ≈ our 256 KiB : 16 MiB),
//! with zone counts per experiment chosen to preserve the paper's
//! cache-to-device and working-set-to-cache ratios.

use std::sync::Arc;

use f2fs_lite::{FileSystem, FsConfig};
use ftl::{BlockSsd, FtlConfig};
use hdd::{Hdd, HddConfig};
use nand::{Geometry, NandConfig, NandTiming, StoreKind};
use sim::BLOCK_SIZE;
use zns::{ZnsConfig, ZnsDevice};
use zns_cache::backend::{GcMode, MiddleConfig};
use zns_cache::{Admission, CacheConfig, EvictionPolicy};

/// Scaled zone size in MiB (paper: 1077 MiB).
pub const ZONE_MIB: u64 = 16;

/// Scaled cache region size in bytes (paper: 16 MiB).
pub const REGION_BYTES: usize = 256 * 1024;

/// 4 KiB blocks per zone.
pub const ZONE_BLOCKS: u64 = ZONE_MIB * 1024 * 1024 / BLOCK_SIZE as u64;

/// A device family at the scaled geometry.
#[derive(Clone, Copy, Debug)]
pub struct DeviceProfile {
    /// Zones on the device.
    pub zones: u32,
    /// Whether flash payloads are retained (RAM) or discarded (Sparse).
    pub store: StoreKind,
    /// Flash timing. Defaults to flash-realistic; [`DeviceProfile::fast`]
    /// swaps in a near-instant device (the simulation analogue of running
    /// on nullblk, as the paper does for metadata) so a benchmark measures
    /// the cache software stack rather than NAND bandwidth.
    pub timing: NandTiming,
    /// Dies a zone stripes over (must divide the geometry's 8 dies and
    /// the zone's 8 erase blocks: 1, 2, 4 or 8).
    pub stripe_dies: u32,
    /// Zone-append commands kept in flight during a region flush.
    pub append_depth: usize,
    /// Overrides the per-scheme DRAM budget ([`DRAM_BUDGET`] when
    /// `None`). The default 48 MiB budget swallows the standard 12k-key ×
    /// 4 KiB working set whole, which makes every scheme serve ~97% of
    /// gets from DRAM and report byte-identical throughput — a pressured
    /// budget (see [`DeviceProfile::with_dram_budget`]) is what forces
    /// traffic to the device where the schemes actually differ.
    pub dram_budget: Option<usize>,
}

impl DeviceProfile {
    /// A profile with `zones` zones, discarding payloads (experiments).
    pub fn sparse(zones: u32) -> Self {
        DeviceProfile {
            zones,
            store: StoreKind::Sparse,
            timing: NandTiming::default(),
            stripe_dies: 8,
            append_depth: zns_cache::backend::DEFAULT_APPEND_DEPTH,
            dram_budget: None,
        }
    }

    /// A payload-retaining profile (integrity tests, small runs).
    pub fn ram(zones: u32) -> Self {
        DeviceProfile {
            zones,
            store: StoreKind::Ram,
            timing: NandTiming::default(),
            stripe_dies: 8,
            append_depth: zns_cache::backend::DEFAULT_APPEND_DEPTH,
            dram_budget: None,
        }
    }

    /// Same geometry on a near-instant device, for engine-bound runs.
    pub fn fast(mut self) -> Self {
        self.timing = NandTiming::fast_test();
        self
    }

    /// Narrows (or widens) the zone stripe.
    ///
    /// # Panics
    ///
    /// Panics unless `dies` is 1, 2, 4 or 8 — the divisors the 8-die
    /// geometry and 8-block zones admit.
    pub fn with_stripe_dies(mut self, dies: u32) -> Self {
        assert!(
            matches!(dies, 1 | 2 | 4 | 8),
            "stripe width {dies} does not divide 8 dies / 8 zone blocks"
        );
        self.stripe_dies = dies;
        self
    }

    /// Overrides the flush append queue depth (1 = synchronous QD1).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_append_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "append depth must be at least 1");
        self.append_depth = depth;
        self
    }

    /// Caps the per-scheme DRAM budget at `bytes` (region buffers are
    /// still paid out of it first; what remains — possibly nothing — is
    /// the hot-object pool). Use this to pressure the DRAM tier so the
    /// working set spills to the device and per-scheme differences become
    /// visible; 0 disables the DRAM tier outright.
    pub fn with_dram_budget(mut self, bytes: usize) -> Self {
        self.dram_budget = Some(bytes);
        self
    }

    fn geometry(&self) -> Geometry {
        // 4 channels × 2 dies; 2 MiB erase blocks; zones of 8 blocks
        // striped over all 8 dies → one die group, blocks_per_die ==
        // zone count exactly for any count.
        Geometry::new(4, 2, self.zones, 512)
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.zones as u64 * ZONE_MIB * 1024 * 1024
    }

    /// ZNS device at this profile.
    pub fn zns(&self) -> Arc<ZnsDevice> {
        Arc::new(ZnsDevice::new(ZnsConfig {
            nand: NandConfig {
                geometry: self.geometry(),
                timing: self.timing,
                store: self.store,
            },
            zone_blocks: 8,
            stripe_dies: self.stripe_dies,
            max_open_zones: 14,
            max_active_zones: 28,
            zone_cap_blocks: None,
        }))
    }

    /// Hardware-compatible conventional SSD (same flash, FTL interface)
    /// reserving `op_ratio` of raw capacity.
    pub fn block_ssd(&self, op_ratio: f64) -> Arc<BlockSsd> {
        Arc::new(BlockSsd::new(FtlConfig {
            nand: NandConfig {
                geometry: self.geometry(),
                timing: self.timing,
                store: self.store,
            },
            op_ratio,
            // Watermarks scale with the device so small experiment
            // configurations do not thrash.
            gc_low_water: (self.zones / 4).max(4),
            gc_high_water: (self.zones / 2).max(8),
            gc_pages_per_host_write: 8,
        }))
    }

    /// `f2fs-lite` over this ZNS profile with `reserved_zones` of cleaning
    /// reserve (the paper cites ~20% for F2FS) and a nullblk-like metadata
    /// disk (paper: 6 GiB → scaled 96 MiB).
    pub fn f2fs(&self, reserved_zones: u32) -> Arc<FileSystem> {
        Arc::new(FileSystem::format(FsConfig {
            zns: ZnsConfig {
                nand: NandConfig {
                    geometry: self.geometry(),
                    timing: self.timing,
                    store: self.store,
                },
                zone_blocks: 8,
                stripe_dies: self.stripe_dies,
                max_open_zones: 14,
                max_active_zones: 28,
                zone_cap_blocks: None,
            },
            meta_blocks: 96 * 256, // 96 MiB of 4 KiB blocks
            reserved_zones,
            // The cleaner's floor must stay well inside the reserve or the
            // filesystem cleans on every write.
            min_free_zones: 2,
            node_fanout: 1024,
            dirty_node_flush_threshold: 64,
            // F2FS checkpoints periodically; every 32 MiB of data writes
            // is a conservative stand-in for its time+dirty-threshold
            // trigger, charging the metadata writes File-Cache really pays.
            checkpoint_interval_blocks: 8192,
        }))
    }

    /// The HDD under the LSM store (paper: 6 TB ST6000NM0115 → scaled).
    pub fn lsm_hdd(blocks: u64) -> Arc<Hdd> {
        Arc::new(Hdd::new(HddConfig::enterprise_7200rpm(blocks)))
    }
}

/// Middle-layer (Region-Cache) configuration for a device of
/// `device_zones` with `cache_bytes` exposed to the cache.
///
/// # Panics
///
/// Panics when the cache would leave no GC reserve (configuration bug in
/// the experiment).
pub fn middle_config(device_zones: u32, cache_bytes: u64, gc_mode: GcMode) -> MiddleConfig {
    let slots_per_zone = (ZONE_BLOCKS * BLOCK_SIZE as u64 / REGION_BYTES as u64) as u32;
    let total_slots = device_zones as u64 * slots_per_zone as u64;
    let user_regions = (cache_bytes / REGION_BYTES as u64) as u32;
    let reserve_slots = total_slots
        .checked_sub(user_regions as u64)
        .expect("cache larger than device");
    let reserve_zones = (reserve_slots / slots_per_zone as u64) as u32;
    assert!(
        reserve_zones >= 1,
        "Region-Cache needs at least one zone of OP (got {cache_bytes} bytes on {device_zones} zones)"
    );
    MiddleConfig {
        region_size: REGION_BYTES,
        user_regions,
        min_empty_zones: (reserve_zones / 2).max(1),
        victim_valid_ratio: 0.2,
        concurrent_open_zones: 4,
        // Region writes go down as zone appends: queued page programs the
        // controller can suspend at page granularity, so cache reads on
        // the same dies pay `program_suspend` instead of `read_suspend`.
        use_append: true,
        gc_mode,
    }
}

/// Total DRAM budget per scheme (hot-object pool + region buffers). The
/// paper's comparisons hold hardware cost equal, so a scheme's in-flight
/// region buffers are paid out of the same budget as its DRAM pool —
/// this is what makes zone-sized (giant) region buffers expensive.
pub const DRAM_BUDGET: usize = 48 * 1024 * 1024;

/// Cache engine configuration for experiments: payload verification off
/// (sparse stores), LRU regions, admit-all — the paper's setup. The DRAM
/// pool is the budget minus the scheme's two region buffers: one active
/// plus one detached in-flight flush image (the pipeline serves reads
/// from that image at DRAM latency until its flush ticket resolves).
pub fn experiment_cache_config(region_size: usize) -> CacheConfig {
    let buffers = 2 * region_size;
    let dram_bytes = DRAM_BUDGET.saturating_sub(buffers).max(1024 * 1024);
    experiment_cache_config_with_dram(region_size, dram_bytes)
}

/// [`experiment_cache_config`] with an explicit DRAM *pool* size (bytes
/// actually given to the hot-object tier, after any buffer accounting
/// the caller chooses to do). 0 disables the DRAM tier.
pub fn experiment_cache_config_with_dram(_region_size: usize, dram_bytes: usize) -> CacheConfig {
    CacheConfig {
        eviction: EvictionPolicy::Lru,
        admission: Admission::Always,
        // CacheLib always fronts flash with a DRAM pool (scaled from the
        // multi-GiB pools CacheBench provisions), net of region buffers.
        dram_bytes,
        in_memory_buffers: 1,
        index_remove_cpu: sim::Nanos::from_nanos(2_000),
        index_remove_contended_cpu: sim::Nanos::from_nanos(80_000),
        verify_keys: false,
        reinsertion_fraction: 0.0,
        maintenance_interval_sets: 64,
        retry: Default::default(),
        // Keep a small clean pool ahead of the writers so the maintainer
        // (when running) absorbs eviction cost off the foreground path.
        clean_region_watermark: 2,
        dram_shards: 16,
        // The DRAM pool runs write-back (CacheLib's demotion pipeline):
        // hot overwrites are absorbed in DRAM and only DRAM-evicted
        // entries are demoted into the flash log, which is what keeps the
        // flash program stream near the irreducible working-set churn
        // instead of the full set rate.
        dram_write_back: true,
        seed: 42,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zns_profile_shape() {
        let p = DeviceProfile::ram(25);
        let dev = p.zns();
        assert_eq!(dev.num_zones(), 25);
        assert_eq!(dev.zone_cap_bytes(), ZONE_MIB * 1024 * 1024);
        assert_eq!(dev.capacity_bytes(), p.capacity_bytes());
    }

    #[test]
    fn block_ssd_capacity_reflects_op() {
        let p = DeviceProfile::ram(25);
        let ssd = p.block_ssd(0.2);
        let logical = sim::BlockDevice::block_count(ssd.as_ref()) * BLOCK_SIZE as u64;
        let expect = (p.capacity_bytes() as f64 * 0.8) as u64;
        assert!((logical as i64 - expect as i64).unsigned_abs() < 4 * BLOCK_SIZE as u64);
    }

    #[test]
    fn f2fs_capacity_excludes_reserve() {
        let p = DeviceProfile::ram(25);
        let fs = p.f2fs(5);
        assert_eq!(fs.capacity_bytes(), 20 * ZONE_MIB * 1024 * 1024);
    }

    #[test]
    fn middle_config_math() {
        // 25 zones, 20 zones of cache → 5 zones reserve.
        let cfg = middle_config(25, 20 * ZONE_MIB * 1024 * 1024, GcMode::Migrate);
        assert_eq!(cfg.user_regions, 20 * 64);
        assert_eq!(cfg.min_empty_zones, 2);
        assert_eq!(cfg.region_size, REGION_BYTES);
    }

    #[test]
    #[should_panic(expected = "OP")]
    fn middle_config_rejects_full_device() {
        let _ = middle_config(25, 25 * ZONE_MIB * 1024 * 1024, GcMode::Migrate);
    }
}
