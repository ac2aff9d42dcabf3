//! Rank-vector persistence.
//!
//! A deployment re-ranks the web continuously (see `dpr-graph::refresh` and
//! the warm-start machinery); persisting converged ranks between sessions
//! is what makes warm starts possible across process restarts. The format
//! is line-oriented text, like the graph format, so rank files diff and
//! version cleanly:
//!
//! ```text
//! dpr-ranks v1
//! <n>
//! <rank of page 0>
//! …
//! ```

use std::io::{self, BufRead, Write};

/// Writes a rank vector.
pub fn write_ranks<W: Write>(ranks: &[f64], mut w: W) -> io::Result<()> {
    writeln!(w, "dpr-ranks v1")?;
    writeln!(w, "{}", ranks.len())?;
    for r in ranks {
        // Shortest round-trip form: `{:e}` with no precision prints the
        // fewest digits that parse back to the identical f64 (the previous
        // `{:.17e}` printed 17 digits *after* the point — 18 significant —
        // while claiming "17 significant digits"; correct but mislabeled
        // and ~40% larger on disk).
        writeln!(w, "{r:e}")?;
    }
    Ok(())
}

/// Reads a rank vector; errors carry a line-context message.
pub fn read_ranks<R: BufRead>(r: R) -> Result<Vec<f64>, String> {
    let mut lines = r.lines().enumerate();
    let mut next = |what: &str| -> Result<(usize, String), String> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(format!("line {}: {e}", i + 1)),
            None => Err(format!("unexpected end of file, wanted {what}")),
        }
    };
    let (ln, header) = next("header")?;
    if header.trim() != "dpr-ranks v1" {
        return Err(format!("line {ln}: bad header {header:?}"));
    }
    let (ln, count) = next("count")?;
    let n: usize =
        count.trim().parse().map_err(|e| format!("line {ln}: bad count {count:?}: {e}"))?;
    // The count is a claim the value lines must back: reserve at most a
    // bounded guess and let the vector grow as values arrive, so a short
    // file with a huge count is a clean "unexpected end of file".
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let (ln, v) = next("rank value")?;
        let value: f64 =
            v.trim().parse().map_err(|e| format!("line {ln}: bad value {v:?}: {e}"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("line {ln}: rank {value} is not a finite non-negative number"));
        }
        out.push(value);
    }
    Ok(out)
}

/// Writes to a file path.
pub fn save(ranks: &[f64], path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_ranks(ranks, io::BufWriter::new(f))
}

/// Reads from a file path.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<Vec<f64>, String> {
    let f = std::fs::File::open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.as_ref().display()))?;
    read_ranks(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_roundtrip_bits(ranks: &[f64]) {
        let mut buf = Vec::new();
        write_ranks(ranks, &mut buf).unwrap();
        let back = read_ranks(buf.as_slice()).unwrap();
        assert_eq!(back.len(), ranks.len());
        for (a, b) in ranks.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        assert_roundtrip_bits(&[0.0, 1.5, 0.2483, 1e-300, 12345.6789, f64::MIN_POSITIVE]);
    }

    #[test]
    fn roundtrip_edge_values() {
        // Negative zero is "not < 0.0", so the reader accepts it and the
        // sign bit must survive; subnormals (down to the very smallest)
        // and f64::MAX exercise both ends of the exponent range.
        let edges = [
            -0.0,
            f64::from_bits(1), // smallest positive subnormal, 5e-324
            f64::from_bits(0xF_FFFF_FFFF_FFFF), // largest subnormal
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 + f64::EPSILON,
        ];
        assert_roundtrip_bits(&edges);
        assert!(edges[0].to_bits() != 0.0f64.to_bits(), "-0.0 must keep its sign bit");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        // Pin the shortest-round-trip claim at the bit level: any finite
        // non-negative f64 (uniform over bit patterns, so subnormals and
        // extreme exponents are routinely hit) must survive write → read
        // exactly.
        #[test]
        fn roundtrip_preserves_arbitrary_bit_patterns(bits in any::<u64>()) {
            // Clear the sign bit (ranks are non-negative; -0.0 is covered
            // by `roundtrip_edge_values`), then fold the non-finite
            // exponent into the subnormal range instead of discarding the
            // case.
            let magnitude = bits & !(1u64 << 63);
            let v = f64::from_bits(magnitude);
            let v = if v.is_finite() { v } else { f64::from_bits(magnitude & 0xF_FFFF_FFFF_FFFF) };
            let mut buf = Vec::new();
            write_ranks(&[v], &mut buf).unwrap();
            let back = read_ranks(buf.as_slice()).unwrap();
            prop_assert_eq!(back.len(), 1);
            prop_assert_eq!(back[0].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn empty_vector() {
        let mut buf = Vec::new();
        write_ranks(&[], &mut buf).unwrap();
        assert_eq!(read_ranks(buf.as_slice()).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn bad_header_rejected() {
        assert!(read_ranks("nope\n0\n".as_bytes()).unwrap_err().contains("bad header"));
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        write_ranks(&[1.0, 2.0], &mut buf).unwrap();
        // Drop the entire final value line.
        let cut =
            buf.len() - 1 - buf[..buf.len() - 1].iter().rev().position(|&b| b == b'\n').unwrap();
        buf.truncate(cut);
        assert!(read_ranks(buf.as_slice()).is_err());
    }

    #[test]
    fn huge_counts_are_errors_not_allocations() {
        // Each count used to size the vector before any value was read:
        // the first aborted on an 800 TB allocation, the second panicked
        // with "capacity overflow".
        for count in ["100000000000000", "18446744073709551615"] {
            let file = format!("dpr-ranks v1\n{count}\n0.5\n");
            let err = read_ranks(file.as_bytes()).unwrap_err();
            assert!(err.contains("unexpected end of file"), "{count}: {err}");
        }
    }

    #[test]
    fn negative_and_nan_rejected() {
        assert!(read_ranks("dpr-ranks v1\n1\n-1.0\n".as_bytes()).unwrap_err().contains("finite"));
        assert!(read_ranks("dpr-ranks v1\n1\nNaN\n".as_bytes()).unwrap_err().contains("finite"));
    }
}
