//! Batch compression — the paper's §4.5/§7 future-work item
//! ("Some techniques can be adopted to reduce convergence time, i.e.
//! compression"), implemented as an ablation.
//!
//! Three stacked ideas, each togglable:
//!
//! 1. **Id instead of URL** — within a batch both endpoints are known page
//!    ids; sending `u32` ids instead of ~40-byte URLs already shrinks a
//!    record from ~100 to 16 bytes (receivers share the crawl's id space).
//! 2. **Delta + varint** — sorting records by `(to_page, from_page)` makes
//!    id deltas tiny; LEB128 varints encode most deltas in 1 byte.
//! 3. **Score quantization + thresholding** — scores ship as `f32`, and
//!    records whose |score| falls below a threshold are dropped entirely
//!    (they cannot move the fixed point by more than the threshold — the
//!    Theorem 3.3 error bound absorbs the loss).

use bytes::{Buf, BufMut, BytesMut};

use crate::codec::{RankUpdate, PAPER_RECORD_BYTES};

/// The fewest bytes one encoded record takes: two one-byte varint deltas
/// and an `f32` score.
const MIN_RECORD_BYTES: usize = 1 + 1 + 4;

/// Compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompressConfig {
    /// Drop records with `|score| < threshold` (0.0 keeps everything).
    pub threshold: f64,
}

impl Default for CompressConfig {
    fn default() -> Self {
        Self { threshold: 0.0 }
    }
}

/// Encodes a batch with delta + varint compression. Returns the encoded
/// bytes; records below the threshold are dropped (lossy by design —
/// callers choose a threshold below their solver tolerance).
#[must_use]
pub fn encode_batch(updates: &[RankUpdate], cfg: &CompressConfig) -> Vec<u8> {
    let mut kept: Vec<&RankUpdate> =
        updates.iter().filter(|u| u.score.abs() >= cfg.threshold).collect();
    kept.sort_unstable_by_key(|u| (u.to_page, u.from_page));

    let mut out = BytesMut::with_capacity(kept.len() * 8 + 8);
    put_varint(&mut out, kept.len() as u64);
    let mut prev_to = 0u32;
    let mut prev_from = 0u32;
    for u in kept {
        let dto = u64::from(u.to_page - prev_to);
        // When `to` advances, `from` restarts; delta within the same `to`.
        let dfrom = if dto == 0 {
            u64::from(u.from_page.wrapping_sub(prev_from))
        } else {
            u64::from(u.from_page)
        };
        put_varint(&mut out, dto);
        put_varint(&mut out, dfrom);
        out.put_f32(u.score as f32);
        prev_to = u.to_page;
        prev_from = u.from_page;
    }
    out.to_vec()
}

/// Decodes a batch produced by [`encode_batch`]. Returns `None` on corrupt
/// input, including a count the remaining bytes cannot hold (a record is
/// at least two one-byte varints and an `f32`), so a hostile count never
/// sizes an allocation. Scores come back as `f32`-rounded values; record
/// order is the canonical sorted order.
#[must_use]
pub fn decode_batch(mut buf: &[u8]) -> Option<Vec<RankUpdate>> {
    let count = get_varint(&mut buf)?;
    if count > (buf.remaining() / MIN_RECORD_BYTES) as u64 {
        return None;
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut prev_to = 0u32;
    let mut prev_from = 0u32;
    for _ in 0..count {
        let dto = u32::try_from(get_varint(&mut buf)?).ok()?;
        let dfrom = u32::try_from(get_varint(&mut buf)?).ok()?;
        if buf.remaining() < 4 {
            return None;
        }
        let score = f64::from(buf.get_f32());
        let to_page = prev_to.checked_add(dto)?;
        let from_page = if dto == 0 { prev_from.wrapping_add(dfrom) } else { dfrom };
        out.push(RankUpdate { from_page, to_page, score });
        prev_to = to_page;
        prev_from = from_page;
    }
    if buf.has_remaining() {
        return None; // trailing garbage
    }
    Some(out)
}

/// Size of the *uncompressed* URL-based wire form of the same batch, for
/// ratio reporting (§4.5's [`PAPER_RECORD_BYTES`] per record).
#[must_use]
pub fn baseline_size(updates: &[RankUpdate]) -> usize {
    updates.len() * PAPER_RECORD_BYTES
}

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch(n: u32) -> Vec<RankUpdate> {
        (0..n)
            .map(|i| RankUpdate {
                from_page: (i * 7) % 1000,
                to_page: (i * 3) % 500,
                score: f64::from(i) * 0.01 + 0.001,
            })
            .collect()
    }

    #[test]
    fn roundtrip_lossless_ids() {
        let batch = sample_batch(200);
        let enc = encode_batch(&batch, &CompressConfig::default());
        let dec = decode_batch(&enc).unwrap();
        assert_eq!(dec.len(), batch.len());
        // Canonical order: sorted by (to, from); compare as sets of id pairs.
        let mut want: Vec<(u32, u32)> = batch.iter().map(|u| (u.to_page, u.from_page)).collect();
        want.sort_unstable();
        let got: Vec<(u32, u32)> = dec.iter().map(|u| (u.to_page, u.from_page)).collect();
        assert_eq!(got, want);
        // Scores round-trip at f32 precision.
        for u in &dec {
            let orig = batch
                .iter()
                .find(|o| o.from_page == u.from_page && o.to_page == u.to_page)
                .unwrap();
            assert!((u.score - orig.score).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_batch() {
        let enc = encode_batch(&[], &CompressConfig::default());
        assert_eq!(decode_batch(&enc).unwrap(), vec![]);
    }

    #[test]
    fn threshold_drops_small_scores() {
        let batch = vec![
            RankUpdate { from_page: 1, to_page: 2, score: 0.5 },
            RankUpdate { from_page: 3, to_page: 4, score: 1e-9 },
        ];
        let enc = encode_batch(&batch, &CompressConfig { threshold: 1e-6 });
        let dec = decode_batch(&enc).unwrap();
        assert_eq!(dec.len(), 1);
        assert_eq!(dec[0].from_page, 1);
    }

    #[test]
    fn compression_ratio_exceeds_10x_vs_url_wire_form() {
        let batch = sample_batch(1000);
        let enc = encode_batch(&batch, &CompressConfig::default());
        let ratio = baseline_size(&batch) as f64 / enc.len() as f64;
        assert!(ratio > 10.0, "ratio {ratio}");
    }

    #[test]
    fn corrupt_input_rejected() {
        let batch = sample_batch(50);
        let enc = encode_batch(&batch, &CompressConfig::default());
        assert!(decode_batch(&enc[..enc.len() - 1]).is_none());
        let mut extended = enc.clone();
        extended.push(0);
        assert!(decode_batch(&extended).is_none());
    }

    fn claiming(count: u64) -> BytesMut {
        let mut b = BytesMut::new();
        put_varint(&mut b, count);
        b
    }

    #[test]
    fn ten_bytes_claiming_u64_max_records_are_rejected() {
        // Reserved as claimed, this is a capacity-overflow panic.
        let b = claiming(u64::MAX);
        assert_eq!(b.len(), 10);
        assert!(decode_batch(&b).is_none());
    }

    #[test]
    fn five_bytes_claiming_2_pow_32_records_are_rejected() {
        // Reserved as claimed, this aborts on a 68.7 GB allocation.
        let b = claiming(1 << 32);
        assert_eq!(b.len(), 5);
        assert!(decode_batch(&b).is_none());
    }

    #[test]
    fn minimal_records_fill_the_count_bound_exactly() {
        // Two 6-byte records: the bound admits exactly what the bytes hold.
        let mut b = claiming(2);
        b.put_slice(&[0; 2 * MIN_RECORD_BYTES]);
        assert_eq!(decode_batch(&b).map(|v| v.len()), Some(2));
        let mut b = claiming(3);
        b.put_slice(&[0; 2 * MIN_RECORD_BYTES]);
        assert!(decode_batch(&b).is_none());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::from(u32::MAX), u64::MAX] {
            let mut b = BytesMut::new();
            put_varint(&mut b, v);
            let mut s: &[u8] = &b;
            assert_eq!(get_varint(&mut s), Some(v));
            assert!(s.is_empty());
        }
    }
}
