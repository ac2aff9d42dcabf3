//! Wire encoding of rank-exchange records.
//!
//! The paper (§4.5, Eq 4.5) assumes `<url_from, url_to, score>` records of
//! ≈ 100 bytes (two ≈ 40-byte URLs \[16\] plus framing and the score). The
//! binary layout here is length-prefixed UTF-8 URLs plus an `f64` score.
//! The `PAPER_*` constants are the one place §4.5's prices live; netrun
//! prices its messages by them.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// §4.5's `l`: bytes per uncompressed `<url_from, url_to, score>` record
/// (two ≈ 40-byte URLs plus framing and the score).
pub const PAPER_RECORD_BYTES: usize = 100;

/// Bytes per DHT lookup message (request or response hop). The paper never
/// pins this; a node id + key + addressing info fits in ~50 bytes.
pub const PAPER_LOOKUP_BYTES: usize = 50;

/// Fixed per-message framing overhead (headers, destination key).
pub const PAPER_HEADER_BYTES: usize = 40;

/// A single rank-transfer record: page `from_page` (in the sending group)
/// confers rank `score` on `to_page` (in the receiving group) through a
/// hyperlink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankUpdate {
    /// Global id of the linking page.
    pub from_page: u32,
    /// Global id of the linked-to page.
    pub to_page: u32,
    /// Rank amount transferred along this link this iteration.
    pub score: f64,
}

/// Appends one record to `buf` without allocating. Layout:
/// `u16 from_len | from_url | u16 to_len | to_url | f64 score`.
pub fn encode_update_into(buf: &mut BytesMut, u: &RankUpdate, from_url: &str, to_url: &str) {
    buf.put_u16(from_url.len() as u16);
    buf.put_slice(from_url.as_bytes());
    buf.put_u16(to_url.len() as u16);
    buf.put_slice(to_url.as_bytes());
    buf.put_f64(u.score);
}

/// Encodes one record with explicit URL strings into a fresh buffer. The
/// message hot path should prefer an [`UpdateEncoder`], which reuses one
/// scratch buffer across calls instead of allocating per record.
#[must_use]
pub fn encode_update(u: &RankUpdate, from_url: &str, to_url: &str) -> Bytes {
    let mut b = BytesMut::with_capacity(2 + from_url.len() + 2 + to_url.len() + 8);
    encode_update_into(&mut b, u, from_url, to_url);
    b.freeze()
}

/// Decodes one record from the front of `*buf`, advancing it past the
/// consumed bytes; `None` on truncated input.
fn decode_update_from(buf: &mut &[u8]) -> Option<(String, String, f64)> {
    if buf.remaining() < 2 {
        return None;
    }
    let fl = buf.get_u16() as usize;
    if buf.remaining() < fl {
        return None;
    }
    let from = String::from_utf8(buf[..fl].to_vec()).ok()?;
    buf.advance(fl);
    if buf.remaining() < 2 {
        return None;
    }
    let tl = buf.get_u16() as usize;
    if buf.remaining() < tl + 8 {
        return None;
    }
    let to = String::from_utf8(buf[..tl].to_vec()).ok()?;
    buf.advance(tl);
    let score = buf.get_f64();
    Some((from, to, score))
}

/// Decodes a record encoded by [`encode_update`]; returns the URLs and the
/// score, or `None` on truncated input.
#[must_use]
pub fn decode_update(mut buf: &[u8]) -> Option<(String, String, f64)> {
    decode_update_from(&mut buf)
}

/// Decodes a frame produced by [`UpdateEncoder::encode_batch`] — records
/// back to back, no count prefix — or `None` if any record is truncated.
#[must_use]
pub fn decode_batch(mut buf: &[u8]) -> Option<Vec<(String, String, f64)>> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(decode_update_from(&mut buf)?);
    }
    Some(out)
}

/// Reusable encoder for the message hot path: one scratch buffer, cleared
/// and refilled per package, so steady-state encoding performs **zero**
/// allocations (the scratch grows to the largest package seen and stays
/// there). A coalesced package encodes as one frame of back-to-back
/// records — the wire format §4.5's `l·W` prices per update, sharing one
/// message header instead of paying it per record.
#[derive(Debug, Default)]
pub struct UpdateEncoder {
    scratch: BytesMut,
}

impl UpdateEncoder {
    /// A fresh encoder (scratch grows on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh encoder with pre-sized scratch.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self { scratch: BytesMut::with_capacity(capacity) }
    }

    /// Encodes one record into the scratch buffer; the returned slice is
    /// valid until the next call.
    pub fn encode(&mut self, u: &RankUpdate, from_url: &str, to_url: &str) -> &[u8] {
        self.scratch.clear();
        encode_update_into(&mut self.scratch, u, from_url, to_url);
        &self.scratch
    }

    /// Encodes a whole package as one frame (records back to back); the
    /// returned slice is valid until the next call. Byte-identical to
    /// concatenating [`encode_update`] outputs, without their per-record
    /// allocations.
    pub fn encode_batch<S, T, I>(&mut self, updates: I) -> &[u8]
    where
        S: AsRef<str>,
        T: AsRef<str>,
        I: IntoIterator<Item = (RankUpdate, S, T)>,
    {
        self.scratch.clear();
        for (u, from, to) in updates {
            encode_update_into(&mut self.scratch, &u, from.as_ref(), to.as_ref());
        }
        &self.scratch
    }

    /// Copies the scratch's current frame out as an owned [`Bytes`] (the
    /// one place an allocation is unavoidable: handing the frame off).
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        Bytes::copy_from_slice(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let u = RankUpdate { from_page: 1, to_page: 2, score: 0.375 };
        let enc = encode_update(&u, "http://a.edu/x.html", "http://b.edu/y.html");
        let (f, t, s) = decode_update(&enc).unwrap();
        assert_eq!(f, "http://a.edu/x.html");
        assert_eq!(t, "http://b.edu/y.html");
        assert_eq!(s, 0.375);
    }

    #[test]
    fn truncated_input_rejected() {
        let u = RankUpdate { from_page: 1, to_page: 2, score: 1.0 };
        let enc = encode_update(&u, "http://a.edu/", "http://b.edu/");
        for cut in [0, 1, 3, enc.len() - 1] {
            assert!(decode_update(&enc[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn batch_frame_matches_concatenated_records() {
        let updates = [
            (RankUpdate { from_page: 1, to_page: 2, score: 0.5 }, "http://a.edu/", "http://b.edu/"),
            (
                RankUpdate { from_page: 3, to_page: 4, score: 0.25 },
                "http://c.edu/",
                "http://d.edu/",
            ),
            (
                RankUpdate { from_page: 5, to_page: 6, score: 0.125 },
                "http://e.edu/",
                "http://f.edu/",
            ),
        ];
        let mut enc = UpdateEncoder::new();
        let frame = enc.encode_batch(updates.iter().map(|(u, f, t)| (*u, *f, *t))).to_vec();
        let mut reference = Vec::new();
        for (u, f, t) in &updates {
            reference.extend_from_slice(&encode_update(u, f, t));
        }
        assert_eq!(frame, reference, "batch frame must be byte-identical to concatenation");
        let decoded = decode_batch(&frame).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[1], ("http://c.edu/".to_string(), "http://d.edu/".to_string(), 0.25));
    }

    #[test]
    fn encoder_scratch_is_reusable() {
        let u = RankUpdate { from_page: 9, to_page: 10, score: 1.5 };
        let mut enc = UpdateEncoder::with_capacity(64);
        let first = enc.encode(&u, "http://a.edu/", "http://b.edu/").to_vec();
        // A second, larger encode then a repeat of the first: the scratch
        // must reset cleanly between calls.
        let _ = enc.encode_batch(vec![
            (u, "http://long-url.example.edu/path/x", "http://long-url.example.edu/path/y"),
            (u, "http://a.edu/", "http://b.edu/"),
        ]);
        let again = enc.encode(&u, "http://a.edu/", "http://b.edu/").to_vec();
        assert_eq!(first, again);
        assert_eq!(first, encode_update(&u, "http://a.edu/", "http://b.edu/").to_vec());
        assert_eq!(enc.to_bytes().to_vec(), again);
    }

    #[test]
    fn truncated_batch_rejected() {
        let u = RankUpdate { from_page: 1, to_page: 2, score: 1.0 };
        let mut enc = UpdateEncoder::new();
        let frame = enc.encode_batch(vec![(u, "http://a.edu/", "http://b.edu/"); 2]).to_vec();
        assert!(decode_batch(&frame[..frame.len() - 1]).is_none());
        assert_eq!(decode_batch(&[]).unwrap().len(), 0);
    }
}
