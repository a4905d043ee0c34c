//! Warm-restart persistence for the cache.
//!
//! CacheLib persists its index and region metadata on clean shutdown so a
//! restarted process serves its flash contents without rewarming. We mirror
//! that: [`snapshot`] flushes the active buffer and serializes the index +
//! region tables; [`recover`] rebuilds a cache over the *same* backend
//! (whose devices retain their data across the restart).
//!
//! The snapshot blob carries a CRC32 trailer, so a torn or bit-flipped
//! snapshot is detected rather than deserialized into garbage. When the
//! snapshot is unusable for any reason — corrupt, truncated, absent —
//! [`recover_or_scan`] falls back to rebuilding the index by scanning the
//! on-flash regions themselves: every object carries a self-describing
//! header with its own checksum, so durably-written entries survive even a
//! power cut that destroyed all DRAM state.

use std::sync::Arc;

use bytes::{Buf, BufMut};
use sim::{crc32, Nanos};

use crate::engine::{CacheConfig, LogCache, HEADER_CRC_OFFSET, OBJECT_HEADER};
use crate::backend::RegionBackend;
use crate::index::IndexEntry;
use crate::types::{fingerprint, hash_key, CacheError, RegionId};

/// Snapshot format tag. Bumped (v2) when region records gained a seal
/// sequence number; v1 snapshots fail the magic check and recovery
/// degrades to the device scan, by design.
const MAGIC: u64 = 0xCAC4_E5A7_2024_0709;

/// Serializes the cache's DRAM state after flushing in-flight data.
///
/// Returns the snapshot bytes and the completion time of the final flush.
///
/// # Errors
///
/// Backend I/O failures while flushing.
pub fn snapshot(cache: &LogCache, now: Nanos) -> Result<(Vec<u8>, Nanos), CacheError> {
    let t = cache.flush(now)?;
    let mut buf = Vec::with_capacity(64 * 1024);
    buf.put_u64_le(MAGIC);
    buf.put_u64_le(cache.backend().region_size() as u64);
    buf.put_u32_le(cache.backend().num_regions());

    let entries = cache.index().dump();
    buf.put_u64_le(entries.len() as u64);
    for (hash, e) in entries {
        buf.put_u64_le(hash);
        buf.put_u32_le(e.region.0);
        buf.put_u32_le(e.offset);
        buf.put_u16_le(e.key_len);
        buf.put_u32_le(e.value_len);
        buf.put_u32_le(e.fingerprint);
        buf.put_u64_le(e.expiry.as_nanos());
    }

    let regions = cache.region_dump();
    buf.put_u32_le(regions.len() as u32);
    for (id, entries, live, last_access, sealed, seal_seq) in regions {
        buf.put_u32_le(id);
        buf.put_u32_le(entries.len() as u32);
        for (hash, offset) in entries {
            buf.put_u64_le(hash);
            buf.put_u32_le(offset);
        }
        buf.put_u32_le(live);
        buf.put_u64_le(last_access);
        buf.put_u8(sealed as u8);
        buf.put_u64_le(seal_seq);
    }
    // Whole-blob checksum trailer: recovery refuses corrupt snapshots.
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    Ok((buf, t))
}

/// Rebuilds a cache from a snapshot over the same backend.
///
/// # Errors
///
/// [`CacheError::BadSnapshot`] when the snapshot is truncated or does not
/// match the backend's shape.
pub fn recover(
    backend: Arc<dyn RegionBackend>,
    config: CacheConfig,
    snapshot: &[u8],
) -> Result<LogCache, CacheError> {
    if snapshot.len() < 4 {
        return Err(CacheError::BadSnapshot(format!(
            "{} bytes is too short to carry a checksum",
            snapshot.len()
        )));
    }
    let (body, trailer) = snapshot.split_at(snapshot.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(CacheError::BadSnapshot(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    let mut buf = body;
    let need = |buf: &[u8], n: usize| -> Result<(), CacheError> {
        if buf.remaining() < n {
            Err(CacheError::BadSnapshot(format!(
                "truncated: need {n} bytes, have {}",
                buf.remaining()
            )))
        } else {
            Ok(())
        }
    };

    need(buf, 20)?;
    if buf.get_u64_le() != MAGIC {
        return Err(CacheError::BadSnapshot("missing magic".into()));
    }
    let region_size = buf.get_u64_le() as usize;
    let num_regions = buf.get_u32_le();
    if region_size != backend.region_size() || num_regions != backend.num_regions() {
        return Err(CacheError::BadSnapshot(format!(
            "backend shape changed: snapshot {}x{}B, backend {}x{}B",
            num_regions,
            region_size,
            backend.num_regions(),
            backend.region_size()
        )));
    }

    let cache = LogCache::new(backend, config)?;
    need(buf, 8)?;
    let n_entries = buf.get_u64_le();
    for _ in 0..n_entries {
        need(buf, 34)?;
        let hash = buf.get_u64_le();
        let entry = IndexEntry {
            region: RegionId(buf.get_u32_le()),
            offset: buf.get_u32_le(),
            key_len: buf.get_u16_le(),
            value_len: buf.get_u32_le(),
            fingerprint: buf.get_u32_le(),
            expiry: Nanos::from_nanos(buf.get_u64_le()),
            // Access recency is not persisted; a restarted cache restarts
            // its reinsertion signal cold.
            accessed: false,
        };
        cache.index().insert(hash, entry);
    }

    need(buf, 4)?;
    let n_regions = buf.get_u32_le() as usize;
    let mut regions = Vec::with_capacity(n_regions);
    for _ in 0..n_regions {
        need(buf, 8)?;
        let id = buf.get_u32_le();
        let n = buf.get_u32_le() as usize;
        need(buf, n * 12 + 21)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let hash = buf.get_u64_le();
            let offset = buf.get_u32_le();
            entries.push((hash, offset));
        }
        let live = buf.get_u32_le();
        let last_access = buf.get_u64_le();
        let sealed = buf.get_u8() != 0;
        let seal_seq = buf.get_u64_le();
        regions.push((id, entries, live, last_access, sealed, seal_seq));
    }
    cache.region_restore(regions)?;
    Ok(cache)
}

/// Recovers from a snapshot when possible, otherwise rebuilds the index by
/// scanning the backend's regions.
///
/// This is the full recovery ladder: a valid snapshot gives back the exact
/// pre-shutdown cache (TTLs, recency, region tables); a corrupt, truncated,
/// or absent snapshot degrades to [`scan_rebuild`], which recovers every
/// durably-written, checksum-valid object.
///
/// # Errors
///
/// Backend I/O failures during the scan. Snapshot problems never error —
/// they trigger the fallback.
pub fn recover_or_scan(
    backend: Arc<dyn RegionBackend>,
    config: CacheConfig,
    snapshot: Option<&[u8]>,
    now: Nanos,
) -> Result<LogCache, CacheError> {
    if let Some(snap) = snapshot {
        match recover(Arc::clone(&backend), config.clone(), snap) {
            Ok(cache) => return Ok(cache),
            Err(CacheError::BadSnapshot(_)) => {}
            Err(other) => return Err(other),
        }
    }
    scan_rebuild(backend, config, now)
}

/// Rebuilds a cache index by walking every region's on-flash log.
///
/// Objects are parsed from each region's durably-readable prefix (zones
/// expose their write pointer, so a torn zone write yields its persisted
/// prefix). Parsing a region stops at the first hole (`key_len == 0`, the
/// flush padding), malformed length, or checksum failure — after a torn
/// write, everything before the tear is still served.
///
/// Scan limitations, by design: per-object TTLs lived only in the DRAM
/// index, so recovered objects never expire; and without write sequence
/// numbers, a key duplicated across regions keeps whichever copy is
/// scanned last. Both are acceptable for a cache (stale data is legal,
/// lost data is a miss).
///
/// # Errors
///
/// Engine construction failures ([`CacheError::BackendTooSmall`]). Regions
/// that cannot be read are skipped, not fatal.
pub fn scan_rebuild(
    backend: Arc<dyn RegionBackend>,
    config: CacheConfig,
    now: Nanos,
) -> Result<LogCache, CacheError> {
    let cache = LogCache::new(Arc::clone(&backend), config)?;
    let mut region_tables = Vec::with_capacity(backend.num_regions() as usize);
    let mut recovered = 0u64;
    let mut t = now;
    // Without a snapshot the true seal order is unknown; region-id order is
    // a deterministic stand-in for the recovered FIFO.
    let mut next_seal_seq = 0u64;
    for r in 0..backend.num_regions() {
        let region = RegionId(r);
        let readable = backend.readable_bytes(region).min(backend.region_size());
        let mut entries = Vec::new();
        if readable >= OBJECT_HEADER {
            let mut image = vec![0u8; readable];
            match backend.read(region, 0, &mut image, t) {
                Ok(done) => {
                    t = done;
                    entries = scan_region(&cache, region, &image);
                }
                Err(_) => {
                    // Unreadable region: recover nothing from it.
                }
            }
        }
        recovered += entries.len() as u64;
        let live = entries.len() as u32;
        let sealed = !entries.is_empty();
        let seal_seq = if sealed {
            next_seal_seq += 1;
            next_seal_seq - 1
        } else {
            0
        };
        region_tables.push((r, entries, live, 0u64, sealed, seal_seq));
    }
    cache.region_restore(region_tables)?;
    cache.metrics_internal().scan_recovered_objects.add(recovered);
    Ok(cache)
}

/// Parses one region image, inserting valid objects into the cache index.
/// Returns the region's `(hash, offset)` table.
fn scan_region(cache: &LogCache, region: RegionId, image: &[u8]) -> Vec<(u64, u32)> {
    let mut entries = Vec::new();
    let mut off = 0usize;
    while off + OBJECT_HEADER <= image.len() {
        let key_len = u16::from_le_bytes([image[off], image[off + 1]]) as usize;
        if key_len == 0 {
            break; // flush padding: end of the region's log
        }
        let value_len = u32::from_le_bytes([
            image[off + 4],
            image[off + 5],
            image[off + 6],
            image[off + 7],
        ]) as usize;
        let crc_base = off + HEADER_CRC_OFFSET;
        let stored_crc = u32::from_le_bytes([
            image[crc_base],
            image[crc_base + 1],
            image[crc_base + 2],
            image[crc_base + 3],
        ]);
        let end = off + OBJECT_HEADER + key_len + value_len;
        if end > image.len() {
            break; // truncated tail (torn write)
        }
        let key = &image[off + OBJECT_HEADER..off + OBJECT_HEADER + key_len];
        let payload = &image[off + OBJECT_HEADER..end];
        if crc32(payload) != stored_crc {
            break; // corrupt or torn: nothing after this point is trusted
        }
        let hash = hash_key(key);
        cache.index().insert(
            hash,
            IndexEntry {
                region,
                offset: off as u32,
                key_len: key_len as u16,
                value_len: value_len as u32,
                fingerprint: fingerprint(key),
                // TTLs are DRAM-only state; a scanned object never expires.
                expiry: Nanos::MAX,
                accessed: false,
            },
        );
        entries.push((hash, off as u32));
        off = end;
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BlockBackend;
    use sim::{RamDisk, BLOCK_SIZE};

    fn backend() -> Arc<BlockBackend> {
        Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            4 * BLOCK_SIZE,
        ))
    }

    #[test]
    fn warm_restart_preserves_contents() {
        let be = backend();
        let cache = LogCache::new(be.clone(), CacheConfig::small_test()).unwrap();
        let mut t = Nanos::ZERO;
        for i in 0..50 {
            let key = format!("key-{i}");
            let value = format!("value-{i}");
            t = cache.set(key.as_bytes(), value.as_bytes(), t).unwrap();
        }
        let (snap, t) = snapshot(&cache, t).unwrap();
        drop(cache);

        let cache2 = recover(be, CacheConfig::small_test(), &snap).unwrap();
        for i in 0..50 {
            let key = format!("key-{i}");
            let (v, _) = cache2.get(key.as_bytes(), t).unwrap();
            assert_eq!(
                v.as_deref(),
                Some(format!("value-{i}").as_bytes()),
                "key-{i} lost across restart"
            );
        }
        // The recovered cache keeps working (evictions included).
        let big = vec![0u8; 8 * 1024];
        let mut t = t;
        for i in 0..64 {
            let key = format!("post-{i}");
            t = cache2.set(key.as_bytes(), &big, t).unwrap();
        }
        assert!(cache2.metrics().evicted_regions > 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let be = backend();
        let cache = LogCache::new(be, CacheConfig::small_test()).unwrap();
        let (snap, _) = snapshot(&cache, Nanos::ZERO).unwrap();
        // Different region size.
        let other = Arc::new(BlockBackend::new(
            Arc::new(RamDisk::new(64)),
            8 * BLOCK_SIZE,
        ));
        assert!(matches!(
            recover(other, CacheConfig::small_test(), &snap),
            Err(CacheError::BadSnapshot(_))
        ));
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let be = backend();
        let cache = LogCache::new(be.clone(), CacheConfig::small_test()).unwrap();
        cache.set(b"k", b"v", Nanos::ZERO).unwrap();
        let (snap, _) = snapshot(&cache, Nanos::ZERO).unwrap();
        for cut in [0, 10, snap.len() / 2] {
            assert!(
                recover(be.clone(), CacheConfig::small_test(), &snap[..cut]).is_err(),
                "accepted cut at {cut}"
            );
        }
    }

    #[test]
    fn garbage_rejected() {
        let be = backend();
        assert!(matches!(
            recover(be, CacheConfig::small_test(), &[0u8; 64]),
            Err(CacheError::BadSnapshot(_))
        ));
    }

    /// Pins the snapshot format's CRC trailer for a small fixed cache, as
    /// computed by the byte-at-a-time CRC kernel: a snapshot written by any
    /// earlier build must keep passing the checksum.
    #[test]
    fn snapshot_crc_trailer_golden_value() {
        let cache = LogCache::new(backend(), CacheConfig::small_test()).unwrap();
        let mut t = Nanos::ZERO;
        // The three keys hash to distinct index shards, so the index dump
        // (and with it the blob) has one order on every run.
        for (k, v) in [
            (&b"alpha"[..], &b"one"[..]),
            (b"bravo", b"two"),
            (b"charlie", b"three"),
        ] {
            t = cache.set(k, v, t).unwrap();
        }
        let (snap, _) = snapshot(&cache, t).unwrap();
        assert_eq!(snap.len(), 638);
        let trailer = u32::from_le_bytes(snap[snap.len() - 4..].try_into().unwrap());
        assert_eq!(trailer, 0x5A86_FC13);
        assert!(recover(backend(), CacheConfig::small_test(), &snap).is_ok());
    }

    #[test]
    fn snapshot_bit_flip_detected_by_checksum() {
        let be = backend();
        let cache = LogCache::new(be.clone(), CacheConfig::small_test()).unwrap();
        cache.set(b"k", b"v", Nanos::ZERO).unwrap();
        let (mut snap, _) = snapshot(&cache, Nanos::ZERO).unwrap();
        let mid = snap.len() / 2;
        snap[mid] ^= 0x40;
        let err = recover(be, CacheConfig::small_test(), &snap).unwrap_err();
        assert!(matches!(err, CacheError::BadSnapshot(ref m) if m.contains("checksum")), "{err}");
    }

    #[test]
    fn scan_rebuild_serves_flushed_objects_without_snapshot() {
        let be = backend();
        let cache = LogCache::new(be.clone(), CacheConfig::small_test()).unwrap();
        let mut t = Nanos::ZERO;
        for i in 0..20 {
            let key = format!("key-{i}");
            let value = format!("value-{i}");
            t = cache.set(key.as_bytes(), value.as_bytes(), t).unwrap();
        }
        t = cache.flush(t).unwrap();
        // Crash: no snapshot survives. The device keeps its contents.
        drop(cache);
        let cache2 = recover_or_scan(be, CacheConfig::small_test(), None, t).unwrap();
        for i in 0..20 {
            let key = format!("key-{i}");
            let (v, t2) = cache2.get(key.as_bytes(), t).unwrap();
            t = t2;
            assert_eq!(
                v.as_deref(),
                Some(format!("value-{i}").as_bytes()),
                "key-{i} lost without snapshot"
            );
        }
        assert_eq!(cache2.metrics().scan_recovered_objects, 20);
        // The rebuilt cache keeps accepting writes.
        cache2.set(b"post", b"crash", t).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_scan() {
        let be = backend();
        let cache = LogCache::new(be.clone(), CacheConfig::small_test()).unwrap();
        let t = cache.set(b"durable", b"yes", Nanos::ZERO).unwrap();
        let (mut snap, t) = snapshot(&cache, t).unwrap();
        snap.truncate(snap.len() / 3); // torn snapshot write
        drop(cache);
        let cache2 = recover_or_scan(be, CacheConfig::small_test(), Some(&snap), t).unwrap();
        let (v, _) = cache2.get(b"durable", t).unwrap();
        assert_eq!(v.as_deref(), Some(&b"yes"[..]));
        assert!(cache2.metrics().scan_recovered_objects >= 1);
    }

    #[test]
    fn scan_stops_at_corrupt_object_but_keeps_prefix() {
        let be = backend();
        let cache = LogCache::new(be.clone(), CacheConfig::small_test()).unwrap();
        let mut t = Nanos::ZERO;
        for i in 0..4 {
            let key = format!("k{i}");
            t = cache.set(key.as_bytes(), b"val", t).unwrap();
        }
        t = cache.flush(t).unwrap();
        drop(cache);
        // Corrupt the third object's value on the media: read the region
        // image, flip a byte, write it back through a fresh device view.
        // Easier here: corrupt via a second cache write is impossible
        // (regions are write-once per flush), so flip a bit in RAM directly
        // using the block device under the backend.
        // Object layout: four objects of 12 + 2 + 3 = 17 bytes each.
        let mut block = vec![0u8; 4096];
        be.read(RegionId(0), 0, &mut block, t).unwrap();
        // Corrupt inside the third object's value (offset 2*17 + 14).
        let target = 2 * 17 + 14;
        block[target] ^= 0xFF;
        // No general rewrite path exists; emulate by scanning the damaged
        // image directly.
        let cache2 = LogCache::new(be, CacheConfig::small_test()).unwrap();
        let entries = scan_region(&cache2, RegionId(0), &block);
        assert_eq!(entries.len(), 2, "scan should stop at the corrupt third object");
    }
}
