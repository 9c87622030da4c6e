//! Self-contained binary persistence for catalog histograms.
//!
//! The sanctioned dependency set includes `serde` but no serialisation
//! *format* crate, so the catalog ships its own little-endian,
//! length-prefixed codec built on [`bytes`]. The format is versioned by a
//! magic header and deliberately simple: it encodes exactly the compact
//! §4 layout of [`StoredHistogram`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      : b"VOH3"
//! n_buckets  : u32
//! avgs       : n_buckets × u64
//! default    : u32
//! n_except   : u64
//! exceptions : n_except × (u64 value, u32 bucket)
//! bounds     : n_buckets × (u64 lo, u64 hi, u64 distinct)
//! ```
//!
//! `VOH3` supersedes the bounds-less `VOH1`: every bucket now persists
//! its value span `[lo, hi)` and distinct-count so range and band-join
//! interpolation survive a snapshot round-trip. Old `VOH1` blobs are
//! rejected with the typed [`StoreError::UnsupportedSnapshot`] — they
//! decode to histograms that cannot answer range predicates, so forcing
//! a re-ANALYZE is strictly safer than guessing spans.

use crate::catalog::StoredHistogram;
use crate::catalog2d::StoredMatrixHistogram;
use crate::error::{Result, StoreError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use vopt_hist::{BuilderSpec, ValueBounds};

const MAGIC: &[u8; 4] = b"VOH3";
const MAGIC_2D: &[u8; 4] = b"VOH2";
/// 1-D magics this build recognises but no longer reads.
const RETIRED_1D: [&[u8; 4]; 1] = [b"VOH1"];
/// Catalog magics this build recognises but no longer reads (`VOHF`
/// was never shipped; it is listed so a blob stamped with it still
/// gets the "re-run ANALYZE" error instead of "corrupted").
const RETIRED_CATALOG: [&[u8; 4]; 4] = [b"VOHC", b"VOHD", b"VOHE", b"VOHF"];

/// Encodes a stored histogram into its binary catalog representation.
pub fn encode_histogram(hist: &StoredHistogram) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        4 + 4
            + hist.bucket_avgs().len() * 8
            + 4
            + 8
            + hist.exceptions().len() * 12
            + hist.bounds().len() * 24,
    );
    buf.put_slice(MAGIC);
    buf.put_u32_le(hist.bucket_avgs().len() as u32);
    for &avg in hist.bucket_avgs() {
        buf.put_u64_le(avg);
    }
    buf.put_u32_le(hist.default_bucket());
    buf.put_u64_le(hist.exceptions().len() as u64);
    for &(value, bucket) in hist.exceptions() {
        buf.put_u64_le(value);
        buf.put_u32_le(bucket);
    }
    for b in hist.bounds() {
        buf.put_u64_le(b.lo);
        buf.put_u64_le(b.hi);
        buf.put_u64_le(b.distinct);
    }
    buf.freeze()
}

/// Guard used by every decoder in this module (and by the wire-protocol
/// codec in `netserve`, which reuses these primitives): a typed
/// "truncated input" error instead of a panic when `buf` runs short.
pub fn need(buf: &impl Buf, bytes: usize, what: &str) -> Result<()> {
    if buf.remaining() < bytes {
        return Err(StoreError::Codec(format!(
            "truncated input: need {bytes} byte(s) for {what}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Decodes a histogram previously produced by [`encode_histogram`].
pub fn decode_histogram(mut data: Bytes) -> Result<StoredHistogram> {
    need(&data, 4, "magic")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if RETIRED_1D.contains(&&magic) {
        return Err(StoreError::UnsupportedSnapshot {
            found: String::from_utf8_lossy(&magic).into_owned(),
            supported: String::from_utf8_lossy(MAGIC).into_owned(),
        });
    }
    if &magic != MAGIC {
        return Err(StoreError::Codec(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    need(&data, 4, "bucket count")?;
    let n_buckets = data.get_u32_le() as usize;
    need(&data, n_buckets * 8, "bucket averages")?;
    let mut avgs = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        avgs.push(data.get_u64_le());
    }
    need(&data, 4, "default bucket")?;
    let default = data.get_u32_le();
    if (default as usize) >= n_buckets {
        return Err(StoreError::Codec(format!(
            "default bucket {default} out of range 0..{n_buckets}"
        )));
    }
    need(&data, 8, "exception count")?;
    let n_except = data.get_u64_le() as usize;
    need(&data, n_except * 12, "exceptions")?;
    let mut exceptions = Vec::with_capacity(n_except);
    let mut prev: Option<u64> = None;
    for _ in 0..n_except {
        let value = data.get_u64_le();
        let bucket = data.get_u32_le();
        if (bucket as usize) >= n_buckets {
            return Err(StoreError::Codec(format!(
                "exception bucket {bucket} out of range 0..{n_buckets}"
            )));
        }
        if prev.is_some_and(|p| p >= value) {
            return Err(StoreError::Codec(
                "exception values must be strictly increasing".into(),
            ));
        }
        prev = Some(value);
        exceptions.push((value, bucket));
    }
    need(&data, n_buckets * 24, "bucket value spans")?;
    let mut bounds = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        let lo = data.get_u64_le();
        let hi = data.get_u64_le();
        let distinct = data.get_u64_le();
        bounds.push(ValueBounds { lo, hi, distinct });
    }
    if data.has_remaining() {
        return Err(StoreError::Codec(format!(
            "{} trailing byte(s) after histogram",
            data.remaining()
        )));
    }
    StoredHistogram::from_parts(avgs, default, exceptions, bounds)
}

/// Encodes a 2-D stored histogram. Same layout as the 1-D format except
/// the magic is `VOH2` and each exception carries two values.
pub fn encode_matrix_histogram(hist: &StoredMatrixHistogram) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        4 + 4 + hist.bucket_avgs().len() * 8 + 4 + 8 + hist.exceptions().len() * 20,
    );
    buf.put_slice(MAGIC_2D);
    buf.put_u32_le(hist.bucket_avgs().len() as u32);
    for &avg in hist.bucket_avgs() {
        buf.put_u64_le(avg);
    }
    buf.put_u32_le(hist.default_bucket());
    buf.put_u64_le(hist.exceptions().len() as u64);
    for &(a, b, bucket) in hist.exceptions() {
        buf.put_u64_le(a);
        buf.put_u64_le(b);
        buf.put_u32_le(bucket);
    }
    buf.freeze()
}

/// Decodes a 2-D histogram produced by [`encode_matrix_histogram`].
pub fn decode_matrix_histogram(mut data: Bytes) -> Result<StoredMatrixHistogram> {
    need(&data, 4, "magic")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC_2D {
        return Err(StoreError::Codec(format!(
            "bad magic {magic:?}, expected {MAGIC_2D:?}"
        )));
    }
    need(&data, 4, "bucket count")?;
    let n_buckets = data.get_u32_le() as usize;
    need(&data, n_buckets * 8, "bucket averages")?;
    let mut avgs = Vec::with_capacity(n_buckets);
    for _ in 0..n_buckets {
        avgs.push(data.get_u64_le());
    }
    need(&data, 4, "default bucket")?;
    let default = data.get_u32_le();
    need(&data, 8, "exception count")?;
    let n_except = data.get_u64_le() as usize;
    need(&data, n_except * 20, "exceptions")?;
    let mut exceptions = Vec::with_capacity(n_except);
    for _ in 0..n_except {
        let a = data.get_u64_le();
        let b = data.get_u64_le();
        let bucket = data.get_u32_le();
        exceptions.push((a, b, bucket));
    }
    if data.has_remaining() {
        return Err(StoreError::Codec(format!(
            "{} trailing byte(s) after histogram",
            data.remaining()
        )));
    }
    StoredMatrixHistogram::from_parts(avgs, default, exceptions)
}

/// Encodes a builder spec as a one-byte tag plus parameters. Tag 0 is
/// "unrecorded" (raw `put`s); every other tag mirrors a
/// [`BuilderSpec`] variant.
pub(crate) fn put_spec(buf: &mut BytesMut, spec: Option<BuilderSpec>) {
    match spec {
        None => buf.put_u8(0),
        Some(BuilderSpec::Trivial) => buf.put_u8(1),
        Some(BuilderSpec::EquiWidth(b)) => {
            buf.put_u8(2);
            buf.put_u64_le(b as u64);
        }
        Some(BuilderSpec::EquiDepth(b)) => {
            buf.put_u8(3);
            buf.put_u64_le(b as u64);
        }
        Some(BuilderSpec::VOptSerial(b)) => {
            buf.put_u8(4);
            buf.put_u64_le(b as u64);
        }
        Some(BuilderSpec::VOptSerialExhaustive(b)) => {
            buf.put_u8(5);
            buf.put_u64_le(b as u64);
        }
        Some(BuilderSpec::VOptEndBiased(b)) => {
            buf.put_u8(6);
            buf.put_u64_le(b as u64);
        }
        Some(BuilderSpec::EndBiased { high, low }) => {
            buf.put_u8(7);
            buf.put_u64_le(high as u64);
            buf.put_u64_le(low as u64);
        }
        Some(BuilderSpec::MaxDiff(b)) => {
            buf.put_u8(8);
            buf.put_u64_le(b as u64);
        }
    }
}

pub(crate) fn get_spec(data: &mut Bytes) -> Result<Option<BuilderSpec>> {
    need(data, 1, "builder spec tag")?;
    let tag = data.get_u8();
    let buckets = |data: &mut Bytes| -> Result<usize> {
        need(data, 8, "builder spec buckets")?;
        Ok(data.get_u64_le() as usize)
    };
    Ok(match tag {
        0 => None,
        1 => Some(BuilderSpec::Trivial),
        2 => Some(BuilderSpec::EquiWidth(buckets(data)?)),
        3 => Some(BuilderSpec::EquiDepth(buckets(data)?)),
        4 => Some(BuilderSpec::VOptSerial(buckets(data)?)),
        5 => Some(BuilderSpec::VOptSerialExhaustive(buckets(data)?)),
        6 => Some(BuilderSpec::VOptEndBiased(buckets(data)?)),
        7 => {
            let high = buckets(data)?;
            let low = buckets(data)?;
            Some(BuilderSpec::EndBiased { high, low })
        }
        8 => Some(BuilderSpec::MaxDiff(buckets(data)?)),
        other => {
            return Err(StoreError::Codec(format!(
                "unknown builder spec tag {other}"
            )))
        }
    })
}

/// FxHash-64 of a snapshot's payload bytes: the integrity checksum the
/// `VOHG` format appends so that *any* byte corruption — including one
/// that would still parse into structurally valid entries (e.g. a
/// flipped bit inside a bucket average) — is detected at load time as a
/// typed [`StoreError::Codec`] instead of silently producing wrong
/// estimates.
pub fn catalog_checksum(payload: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = crate::fxhash::FxHasher::default();
    h.write(payload);
    h.finish()
}

/// Length-prefixed (u32 le) string, the workspace-wide wire idiom.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn put_key(buf: &mut BytesMut, key: &crate::catalog::StatKey) {
    put_str(buf, &key.relation);
    buf.put_u16_le(key.columns.len() as u16);
    for c in &key.columns {
        put_str(buf, c);
    }
}

/// Reads a [`put_str`]-encoded string, validating UTF-8.
pub fn get_str(data: &mut Bytes) -> Result<String> {
    need(data, 4, "string length")?;
    let len = data.get_u32_le() as usize;
    need(data, len, "string bytes")?;
    let bytes = data.split_to(len);
    String::from_utf8(bytes.to_vec()).map_err(|e| StoreError::Codec(format!("bad utf8: {e}")))
}

pub(crate) fn get_key(data: &mut Bytes) -> Result<crate::catalog::StatKey> {
    let relation = get_str(data)?;
    need(data, 2, "column count")?;
    let n = data.get_u16_le() as usize;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        columns.push(get_str(data)?);
    }
    Ok(crate::catalog::StatKey { relation, columns })
}

pub(crate) fn get_blob(data: &mut Bytes) -> Result<Bytes> {
    need(data, 4, "blob length")?;
    let len = data.get_u32_le() as usize;
    need(data, len, "blob bytes")?;
    Ok(data.split_to(len))
}

/// Encodes an entire catalog snapshot (all 1-D and 2-D histograms with
/// their keys and construction specs) as one binary blob. Staleness
/// counters are deliberately not persisted: reloaded statistics start
/// fresh, exactly as after an ANALYZE.
///
/// Layout: magic `VOHG`, `u32` 1-D entry count, entries, `u32` 2-D
/// entry count, entries, then a trailing `u64` FxHash-64 checksum of
/// every preceding byte. Each entry is `key` (relation + column list as
/// length-prefixed UTF-8), a builder-spec tag (how the histogram was
/// built — see [`BuilderSpec`]), and a length-prefixed histogram blob
/// in the `VOH3`/`VOH2` format.
///
/// Format lineage: `VOHC` (spec-less) → `VOHD` (specs) → `VOHE`
/// (checksum) → `VOHG` (per-bucket value bounds inside the `VOH3`
/// blobs; `VOHF` was reserved and never shipped). Retired magics decode
/// to the typed [`StoreError::UnsupportedSnapshot`] — "re-run ANALYZE"
/// — never to a catalog that silently lacks range statistics.
pub fn encode_catalog(catalog: &crate::catalog::Catalog) -> Bytes {
    let ones = catalog.snapshot_1d();
    let twos = catalog.snapshot_2d();
    let mut buf = BytesMut::new();
    buf.put_slice(b"VOHG");
    buf.put_u32_le(ones.len() as u32);
    for (key, hist, spec) in &ones {
        put_key(&mut buf, key);
        put_spec(&mut buf, *spec);
        let blob = encode_histogram(hist);
        buf.put_u32_le(blob.len() as u32);
        buf.put_slice(&blob);
    }
    buf.put_u32_le(twos.len() as u32);
    for (key, hist, spec) in &twos {
        put_key(&mut buf, key);
        put_spec(&mut buf, *spec);
        let blob = encode_matrix_histogram(hist);
        buf.put_u32_le(blob.len() as u32);
        buf.put_slice(&blob);
    }
    let checksum = catalog_checksum(&buf);
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Decodes a catalog snapshot produced by [`encode_catalog`] into a
/// fresh catalog (all statistics start unstale).
///
/// The trailing checksum is verified before any entry is parsed, so a
/// corrupted snapshot always surfaces as [`StoreError::Codec`] — never
/// as a catalog that loads but estimates wrongly.
pub fn decode_catalog(mut data: Bytes) -> Result<crate::catalog::Catalog> {
    need(&data, 4 + 8, "catalog checksum")?;
    // Checksum before magic classification: a bit flip that lands the
    // magic on a retired format string must still read as corruption,
    // not as "old snapshot, re-run ANALYZE". Authentic retired
    // snapshots (`VOHE` onward) carry the same trailing checksum and
    // pass this gate, then get the typed rejection below.
    let body = data.split_to(data.len() - 8);
    let expected = catalog_checksum(&body);
    let recorded = data.get_u64_le();
    if recorded != expected {
        return Err(StoreError::Codec(format!(
            "catalog checksum mismatch: snapshot records {recorded:#018x} \
             but payload hashes to {expected:#018x} (corrupted snapshot)"
        )));
    }
    let mut data = body;
    if RETIRED_CATALOG.iter().any(|m| &data[..4] == *m) {
        return Err(StoreError::UnsupportedSnapshot {
            found: String::from_utf8_lossy(&data[..4]).into_owned(),
            supported: "VOHG".to_string(),
        });
    }
    if &data[..4] != b"VOHG" {
        return Err(StoreError::Codec(format!(
            "bad catalog magic {:?}, expected VOHG",
            &data[..4]
        )));
    }
    data.advance(4); // magic, already verified
    let catalog = crate::catalog::Catalog::new();
    need(&data, 4, "1-D entry count")?;
    let n1 = data.get_u32_le() as usize;
    for _ in 0..n1 {
        let key = get_key(&mut data)?;
        let spec = get_spec(&mut data)?;
        let hist = decode_histogram(get_blob(&mut data)?)?;
        catalog.put_with_spec(key, hist, spec);
    }
    need(&data, 4, "2-D entry count")?;
    let n2 = data.get_u32_le() as usize;
    for _ in 0..n2 {
        let key = get_key(&mut data)?;
        let spec = get_spec(&mut data)?;
        let hist = decode_matrix_histogram(get_blob(&mut data)?)?;
        catalog.put_matrix_with_spec(key, hist, spec);
    }
    if data.has_remaining() {
        return Err(StoreError::Codec(format!(
            "{} trailing byte(s) after catalog",
            data.remaining()
        )));
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vopt_hist::construct::end_biased;

    fn sample() -> StoredHistogram {
        let freqs = [90u64, 10, 9, 8, 2, 7];
        let hist = end_biased(&freqs, 2, 1).unwrap();
        let values: Vec<u64> = (0..6).map(|i| i * 100).collect();
        StoredHistogram::from_histogram(&values, &hist).unwrap()
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let encoded = encode_histogram(&h);
        let decoded = decode_histogram(encoded).unwrap();
        assert_eq!(h, decoded);
    }

    #[test]
    fn round_trip_preserves_estimates() {
        let h = sample();
        let decoded = decode_histogram(encode_histogram(&h)).unwrap();
        for v in [0u64, 100, 200, 300, 400, 500, 12345] {
            assert_eq!(h.approx_frequency(v), decoded.approx_frequency(v));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_histogram(&sample()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            decode_histogram(Bytes::from(bytes)),
            Err(StoreError::Codec(_))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let bytes = encode_histogram(&sample()).to_vec();
        for cut in 0..bytes.len() {
            let truncated = Bytes::copy_from_slice(&bytes[..cut]);
            assert!(
                decode_histogram(truncated).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_histogram(&sample()).to_vec();
        bytes.push(0);
        assert!(decode_histogram(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn out_of_range_default_bucket_rejected() {
        // Hand-craft: 1 bucket, default id 7.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(1);
        buf.put_u64_le(42);
        buf.put_u32_le(7);
        buf.put_u64_le(0);
        assert!(decode_histogram(buf.freeze()).is_err());
    }

    #[test]
    fn round_trip_preserves_bounds() {
        let h = sample();
        assert_eq!(h.bounds().len(), h.num_buckets());
        let decoded = decode_histogram(encode_histogram(&h)).unwrap();
        assert_eq!(h.bounds(), decoded.bounds());
    }

    #[test]
    fn retired_voh1_magic_gets_typed_rejection() {
        let mut bytes = encode_histogram(&sample()).to_vec();
        bytes[3] = b'1';
        match decode_histogram(Bytes::from(bytes)) {
            Err(StoreError::UnsupportedSnapshot { found, supported }) => {
                assert_eq!(found, "VOH1");
                assert_eq!(supported, "VOH3");
            }
            other => panic!("expected UnsupportedSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bounds_rejected() {
        // Corrupt a span so lo >= hi: flip the hi of the last bucket to 0.
        let h = sample();
        let mut bytes = encode_histogram(&h).to_vec();
        let tail = h.num_buckets() * 24;
        let hi_off = bytes.len() - tail + 8; // first bucket's hi
        bytes[hi_off..hi_off + 8].fill(0);
        assert!(matches!(
            decode_histogram(Bytes::from(bytes)),
            Err(StoreError::InvalidParameter(_))
        ));
    }

    fn sample_2d() -> StoredMatrixHistogram {
        use freqdist::FreqMatrix;
        use vopt_hist::construct::v_opt_end_biased;
        use vopt_hist::MatrixHistogram;
        let m = FreqMatrix::from_rows(2, 3, vec![90, 5, 6, 4, 5, 70]).unwrap();
        let mh = MatrixHistogram::build(&m, |c| Ok(v_opt_end_biased(c, 3)?.histogram)).unwrap();
        StoredMatrixHistogram::from_matrix_histogram(&[10, 20], &[1, 2, 3], &mh).unwrap()
    }

    #[test]
    fn matrix_round_trip() {
        let h = sample_2d();
        let decoded = decode_matrix_histogram(encode_matrix_histogram(&h)).unwrap();
        assert_eq!(h, decoded);
        for (a, b) in [(10u64, 1u64), (10, 2), (20, 3), (7, 7)] {
            assert_eq!(h.approx_frequency(a, b), decoded.approx_frequency(a, b));
        }
    }

    #[test]
    fn matrix_magic_is_distinct_from_1d() {
        let h1 = sample();
        let h2 = sample_2d();
        assert!(decode_matrix_histogram(encode_histogram(&h1)).is_err());
        assert!(decode_histogram(encode_matrix_histogram(&h2)).is_err());
    }

    #[test]
    fn matrix_truncation_rejected() {
        let bytes = encode_matrix_histogram(&sample_2d()).to_vec();
        for cut in [0usize, 3, 7, bytes.len() - 1] {
            assert!(decode_matrix_histogram(Bytes::copy_from_slice(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn retired_catalog_magic_gets_typed_rejection() {
        let catalog = crate::catalog::Catalog::new();
        catalog.put(crate::catalog::StatKey::new("r", &["a"]), sample());
        for retired in ["VOHC", "VOHD", "VOHE", "VOHF"] {
            // Re-stamp the magic and recompute the checksum so the blob
            // is exactly what an authentic old writer would produce.
            let mut bytes = encode_catalog(&catalog).to_vec();
            bytes[..4].copy_from_slice(retired.as_bytes());
            let body_len = bytes.len() - 8;
            let checksum = catalog_checksum(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
            match decode_catalog(Bytes::from(bytes)) {
                Err(StoreError::UnsupportedSnapshot { found, supported }) => {
                    assert_eq!(found, retired);
                    assert_eq!(supported, "VOHG");
                }
                other => panic!("{retired}: expected UnsupportedSnapshot, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsorted_exceptions_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(2);
        buf.put_u64_le(1);
        buf.put_u64_le(2);
        buf.put_u32_le(0);
        buf.put_u64_le(2);
        buf.put_u64_le(10);
        buf.put_u32_le(1);
        buf.put_u64_le(5); // decreasing
        buf.put_u32_le(1);
        assert!(decode_histogram(buf.freeze()).is_err());
    }
}
