//! Randomized property tests over the core invariants: the cache behaves
//! like a map (modulo evictions), the zoned device enforces its contract
//! under arbitrary op streams, the FTL never loses acknowledged writes, and
//! the filesystem is read-your-writes under random I/O.
//!
//! Each property runs against a battery of seeded random op streams (the
//! offline toolchain has no proptest, so shrinking is replaced by printing
//! the failing seed — rerun with that seed to reproduce).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zns_cache_repro::f2fs_lite::{FileSystem, FsConfig};
use zns_cache_repro::ftl::{BlockSsd, FtlConfig};
use zns_cache_repro::sim::{BlockDevice, Lba, Nanos, BLOCK_SIZE};
use zns_cache_repro::zns::{ZnsConfig, ZnsDevice, ZoneId};
use zns_cache_repro::zns_cache::backend::{MiddleConfig, MiddleLayerBackend};
use zns_cache_repro::zns_cache::{recovery, CacheConfig, LogCache};

const SEEDS: std::ops::Range<u64> = 0..12;

#[derive(Clone, Debug)]
enum CacheOp {
    Set(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
}

fn cache_ops(rng: &mut StdRng, max_len: usize) -> Vec<CacheOp> {
    let n = rng.gen_range(1..max_len);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..256u64) as u8;
            match rng.gen_range(0..3u32) {
                0 => {
                    let len = rng.gen_range(1..300usize);
                    let v = (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect();
                    CacheOp::Set(k, v)
                }
                1 => CacheOp::Get(k),
                _ => CacheOp::Delete(k),
            }
        })
        .collect()
}

/// A cache hit must always return the *latest* value for the key; a key
/// that was deleted (and not re-set) must never hit.
#[test]
fn cache_is_a_subset_of_a_map() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = cache_ops(&mut rng, 300);
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let backend = Arc::new(MiddleLayerBackend::new(dev, MiddleConfig::small_test()));
        let cache = LogCache::new(backend, CacheConfig::small_test()).unwrap();
        let mut model: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        let mut t = Nanos::ZERO;
        for op in ops {
            match op {
                CacheOp::Set(k, v) => {
                    t = cache.set(&[k], &v, t).unwrap();
                    model.insert(k, Some(v));
                }
                CacheOp::Get(k) => {
                    let (got, t2) = cache.get(&[k], t).unwrap();
                    t = t2;
                    if let Some(got) = got {
                        match model.get(&k) {
                            Some(Some(expect)) => assert_eq!(
                                got.as_ref(),
                                expect.as_slice(),
                                "seed {seed}: stale value for key {k}"
                            ),
                            _ => panic!("seed {seed}: hit for a deleted/never-set key {k}"),
                        }
                    }
                }
                CacheOp::Delete(k) => {
                    t = cache.delete(&[k], t).unwrap().1;
                    model.insert(k, None);
                }
            }
        }
    }
}

/// Arbitrary zone op sequences never corrupt the device: every accepted
/// write is readable, every rejected op leaves state intact.
#[test]
fn zns_state_machine_is_sound() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let dev = ZnsDevice::new(ZnsConfig::small_test());
        let mut t = Nanos::ZERO;
        // Shadow write pointers per zone.
        let mut wp = vec![0u64; dev.num_zones() as usize];
        let mut full = vec![false; dev.num_zones() as usize];
        let n = rng.gen_range(1..200usize);
        for _ in 0..n {
            let zone = ZoneId(rng.gen_range(0..8u32) % dev.num_zones());
            let z = zone.0 as usize;
            match rng.gen_range(0..4u32) {
                0 => {
                    // write one block
                    let data = vec![zone.0 as u8; BLOCK_SIZE];
                    if let Ok(t2) = dev.write(zone, &data, t) {
                        t = t2;
                        assert!(!full[z], "seed {seed}: write accepted on full zone");
                        wp[z] += 1;
                        if wp[z] == dev.zone_cap_blocks() {
                            full[z] = true;
                        }
                    }
                }
                1 => {
                    t = dev.reset(zone, t).unwrap();
                    wp[z] = 0;
                    full[z] = false;
                }
                2 => {
                    if dev.finish(zone, t).is_ok() {
                        full[z] = true;
                    }
                }
                _ => {
                    // read below wp must succeed; at/above must fail
                    if wp[z] > 0 {
                        let mut buf = vec![0u8; BLOCK_SIZE];
                        assert!(dev.read(zone, wp[z] - 1, &mut buf, t).is_ok());
                    }
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    assert!(dev.read(zone, wp[z], &mut buf, t).is_err());
                }
            }
            let info = dev.zone_info(zone).unwrap();
            assert_eq!(info.write_pointer, wp[z], "seed {seed}: wp diverged on {zone}");
        }
    }
}

/// The FTL is read-your-writes for every LBA under random overwrites and
/// trims, even while GC runs.
#[test]
fn ftl_read_your_writes() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ssd = BlockSsd::new(FtlConfig::small_test());
        let mut model: HashMap<u64, Option<u8>> = HashMap::new();
        let mut t = Nanos::ZERO;
        let n = rng.gen_range(1..400usize);
        for _ in 0..n {
            let lba = rng.gen_range(0..200u64);
            let fill = rng.gen_range(0..256u64) as u8;
            if rng.gen_bool(0.5) {
                t = ssd.trim(Lba(lba), 1, t).unwrap();
                model.insert(lba, None);
            } else {
                let data = vec![fill; BLOCK_SIZE];
                t = ssd.write(Lba(lba), &data, t).unwrap();
                model.insert(lba, Some(fill));
            }
        }
        for (lba, expect) in model {
            let mut buf = vec![0u8; BLOCK_SIZE];
            t = ssd.read(Lba(lba), &mut buf, t).unwrap();
            let want = expect.unwrap_or(0);
            assert!(
                buf.iter().all(|&b| b == want),
                "seed {seed}: lba {lba} corrupt"
            );
        }
    }
}

/// Snapshot + recover is lossless: whatever a cache would serve before a
/// clean shutdown, the recovered cache serves identically.
#[test]
fn recovery_is_lossless() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = cache_ops(&mut rng, 150);
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let backend = Arc::new(MiddleLayerBackend::new(dev, MiddleConfig::small_test()));
        let cache = LogCache::new(backend.clone(), CacheConfig::small_test()).unwrap();
        let mut t = Nanos::ZERO;
        for op in ops {
            match op {
                CacheOp::Set(k, v) => t = cache.set(&[k], &v, t).unwrap(),
                CacheOp::Get(k) => t = cache.get(&[k], t).unwrap().1,
                CacheOp::Delete(k) => t = cache.delete(&[k], t).unwrap().1,
            }
        }
        // What does the original serve right before shutdown?
        let (snap, t2) = recovery::snapshot(&cache, t).unwrap();
        let mut before: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        let mut t3 = t2;
        for k in 0..=255u8 {
            let (v, tn) = cache.get(&[k], t3).unwrap();
            t3 = tn;
            before.insert(k, v.map(|b| b.to_vec()));
        }
        drop(cache);
        let recovered = recovery::recover(backend, CacheConfig::small_test(), &snap).unwrap();
        for (k, expect) in before {
            let (v, tn) = recovered.get(&[k], t3).unwrap();
            t3 = tn;
            assert_eq!(
                v.map(|b| b.to_vec()),
                expect,
                "seed {seed}: key {k} diverged"
            );
        }
    }
}

/// The filesystem is read-your-writes at block granularity under random
/// writes to a file, across enough churn to trigger cleaning.
#[test]
fn f2fs_read_your_writes() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let fs = FileSystem::format(FsConfig::small_test());
        let ino = fs.create("f", Nanos::ZERO).unwrap();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut t = Nanos::ZERO;
        let n = rng.gen_range(1..250usize);
        for _ in 0..n {
            let block = rng.gen_range(0..64u64);
            let fill = rng.gen_range(0..256u64) as u8;
            let data = vec![fill; BLOCK_SIZE];
            t = fs.pwrite(ino, block * BLOCK_SIZE as u64, &data, t).unwrap();
            model.insert(block, fill);
        }
        for (block, fill) in model {
            let mut buf = vec![0u8; BLOCK_SIZE];
            t = fs.pread(ino, block * BLOCK_SIZE as u64, &mut buf, t).unwrap();
            assert!(
                buf.iter().all(|&b| b == fill),
                "seed {seed}: block {block} corrupt"
            );
        }
    }
}
