//! Little-endian framing for the small stream codecs that remain beside
//! the mapped index format: the delta overlay a snapshot carries.
//!
//! A [`Persist`] value is written as a 4-byte magic tag, a `u32` codec
//! version, and its payload. Readers validate the tag and the version
//! and treat every length as untrusted, so corrupted inputs fail with
//! typed I/O errors rather than panics or allocator aborts.

use std::io::{self, Read, Write};

/// Codec version written after each magic tag.
const VERSION: u32 = 1;

/// Serializable structure.
pub trait Persist: Sized {
    /// Magic tag identifying the structure kind.
    const MAGIC: [u8; 4];

    /// Writes the payload (after the magic/version header).
    fn write_payload(&self, w: &mut impl Write) -> io::Result<()>;

    /// Reads the payload (after the magic/version header).
    fn read_payload(r: &mut impl Read) -> io::Result<Self>;

    /// Writes magic, version and payload.
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&Self::MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        self.write_payload(w)
    }

    /// Reads and validates magic and version, then the payload.
    fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != Self::MAGIC {
            return Err(bad_data(format!(
                "bad magic: expected {:?}, found {:?}",
                Self::MAGIC,
                magic
            )));
        }
        let mut version = [0u8; 4];
        r.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(bad_data(format!(
                "unsupported format version {version} (expected {VERSION})"
            )));
        }
        Self::read_payload(r)
    }
}

/// `InvalidData` error helper.
pub fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a `u64` little-endian.
pub fn write_u64(w: &mut impl Write, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a `u64` little-endian.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a `u64` and checks it fits `usize` and a sanity bound.
pub fn read_len(r: &mut impl Read, max: u64) -> io::Result<usize> {
    let n = read_u64(r)?;
    if n > max {
        return Err(bad_data(format!("length {n} exceeds sanity bound {max}")));
    }
    usize::try_from(n).map_err(|_| bad_data("length does not fit in usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal codec: a length-prefixed list of words.
    #[derive(Debug, PartialEq)]
    struct Words(Vec<u64>);

    impl Persist for Words {
        const MAGIC: [u8; 4] = *b"Tst1";

        fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
            write_u64(w, self.0.len() as u64)?;
            self.0.iter().try_for_each(|&x| write_u64(w, x))
        }

        fn read_payload(r: &mut impl Read) -> io::Result<Self> {
            let n = read_len(r, 1 << 20)?;
            (0..n)
                .map(|_| read_u64(r))
                .collect::<io::Result<_>>()
                .map(Words)
        }
    }

    fn encoded() -> Vec<u8> {
        let mut buf = Vec::new();
        Words(vec![3, 1, 4]).write_to(&mut buf).unwrap();
        buf
    }

    /// A future format bump must fail in an old binary with an error that
    /// names both versions, not a decode panic.
    #[test]
    fn future_format_version_is_a_clear_error() {
        let mut buf = encoded();
        buf[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        let err = Words::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{}", VERSION + 1))
                && msg.contains(&format!("expected {VERSION}")),
            "unhelpful version error: {msg}"
        );
    }

    #[test]
    fn corrupted_inputs_fail_cleanly() {
        let buf = encoded();
        assert_eq!(
            Words::read_from(&mut buf.as_slice()).unwrap(),
            Words(vec![3, 1, 4])
        );

        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(Words::read_from(&mut bad.as_slice()).is_err());

        // Truncated payload.
        let bad = &buf[..buf.len() - 3];
        assert!(Words::read_from(&mut &bad[..]).is_err());

        // Absurd length: rejected by the sanity bound, not allocated.
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Words::read_from(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("sanity bound"), "{err}");
    }
}
