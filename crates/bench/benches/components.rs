//! Criterion micro-benchmarks of the hot components: the object checksum,
//! the Zipf sampler, the DRAM index, ZNS append/reset, FTL writes under GC
//! pressure, HDD seeks, and the filesystem write path. These guard the
//! simulator's own performance (host CPU per simulated op), not the
//! simulated results.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{BlockDevice, Lba, Nanos, BLOCK_SIZE};

fn bench_crc32(c: &mut Criterion) {
    // Every object written to or read from flash is checksummed over its
    // key + value. 64 B to 4 KiB span most of the paper mix's value sizes
    // (median 512 B); 256 KiB shows the kernel's steady-state throughput.
    for (name, len) in [
        ("crc32_64b", 64),
        ("crc32_1k", 1024),
        ("crc32_4k", 4096),
        ("crc32_256k", 256 * 1024),
    ] {
        let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        c.bench_function(name, |b| {
            b.iter(|| sim::checksum::crc32(std::hint::black_box(&data)))
        });
    }
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = workload::Zipf::new(10_000_000, 0.9);
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("zipf_sample_10m_keys", |b| {
        b.iter(|| std::hint::black_box(zipf.sample(&mut rng)))
    });
}

fn bench_index(c: &mut Criterion) {
    use zns_cache::index::{Index, IndexEntry};
    use zns_cache::RegionId;
    let index = Index::new();
    for i in 0..100_000u64 {
        index.insert(
            i.wrapping_mul(0x9e3779b97f4a7c15),
            IndexEntry {
                region: RegionId((i % 64) as u32),
                offset: (i % 4096) as u32,
                key_len: 16,
                value_len: 100,
                fingerprint: i as u32,
                expiry: Nanos::MAX,
                accessed: false,
            },
        );
    }
    let mut i = 0u64;
    c.bench_function("index_lookup_100k_entries", |b| {
        b.iter(|| {
            i = i.wrapping_add(1) % 100_000;
            std::hint::black_box(index.lookup(i.wrapping_mul(0x9e3779b97f4a7c15), i as u32))
        })
    });
}

fn bench_zns(c: &mut Criterion) {
    use zns::{ZnsConfig, ZnsDevice, ZoneId};
    c.bench_function("zns_write_4k_plus_reset_cycle", |b| {
        let dev = ZnsDevice::new(ZnsConfig::small_test());
        let data = vec![7u8; BLOCK_SIZE];
        let cap = dev.zone_cap_blocks();
        let mut t = Nanos::ZERO;
        let mut written = 0u64;
        b.iter(|| {
            t = dev.write(ZoneId(0), &data, t).unwrap();
            written += 1;
            if written == cap {
                t = dev.reset(ZoneId(0), t).unwrap();
                written = 0;
            }
        })
    });
}

fn bench_ftl(c: &mut Criterion) {
    use ftl::{BlockSsd, FtlConfig};
    c.bench_function("ftl_write_4k_under_gc_pressure", |b| {
        let ssd = BlockSsd::new(FtlConfig::small_test());
        let span = ssd.block_count() * 3 / 4;
        let data = vec![7u8; BLOCK_SIZE];
        let mut t = Nanos::ZERO;
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 7919) % span;
            t = ssd.write(Lba(lba), &data, t).unwrap();
        })
    });
}

fn bench_hdd(c: &mut Criterion) {
    use hdd::{Hdd, HddConfig};
    c.bench_function("hdd_random_read_4k", |b| {
        let disk = Hdd::new(HddConfig::small_test());
        let data = vec![1u8; BLOCK_SIZE];
        let mut t = disk.write(Lba(0), &data, Nanos::ZERO).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        let mut lba = 0u64;
        b.iter(|| {
            lba = (lba + 997) % 4096;
            // Reads of unwritten space still cost a seek on the model.
            t = disk.read(Lba(0), &mut buf, t).unwrap();
        })
    });
}

fn bench_f2fs(c: &mut Criterion) {
    use f2fs_lite::{FileSystem, FsConfig};
    c.bench_function("f2fs_overwrite_4k", |b| {
        let fs = FileSystem::format(FsConfig::small_test());
        let ino = fs.create("bench", Nanos::ZERO).unwrap();
        let data = vec![3u8; BLOCK_SIZE];
        let mut t = Nanos::ZERO;
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 1) % 64;
            t = fs.pwrite(ino, block * BLOCK_SIZE as u64, &data, t).unwrap();
        })
    });
}

fn bench_middle_layer(c: &mut Criterion) {
    use zns::{ZnsConfig, ZnsDevice};
    use zns_cache::backend::{MiddleConfig, MiddleLayerBackend, RegionBackend};
    use zns_cache::RegionId;
    c.bench_function("middle_layer_region_rewrite", |b| {
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let backend = MiddleLayerBackend::new(dev, MiddleConfig::small_test());
        let image = vec![1u8; backend.region_size()];
        let hot = |_: RegionId| 1.0;
        let mut t = Nanos::ZERO;
        let mut region = 0u32;
        b.iter(|| {
            region = (region + 1) % backend.num_regions();
            t = backend.write_region(RegionId(region), &image, t).unwrap();
            let out = backend.maintenance(t, &hot).unwrap();
            t = out.done;
        })
    });
}

criterion_group!(
    name = components;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_crc32, bench_zipf, bench_index, bench_zns, bench_ftl, bench_hdd, bench_f2fs, bench_middle_layer
);
criterion_main!(components);
