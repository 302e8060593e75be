//! Trivial zero-detection "compression", the lower bound among the compared
//! algorithms: an entry is either entirely zero (1-bit code) or stored raw.
//!
//! The paper notes that many discarded benchmarks "seemed to have large
//! portions of their working sets be zero" (§2.1); this codec quantifies how
//! much of a workload's compressibility is explained by zeros alone, which
//! the ablation benches use to contextualize BPC's advantage.

use crate::bits::BitReader;
use crate::{Codec, CompressedBuf, DecodeError, Entry, ENTRY_BYTES};

/// The zero-run codec: 1 bit for an all-zero entry, `1 + 1024` bits otherwise.
///
/// # Example
///
/// ```
/// use bpc::{Codec, CompressedBuf, ZeroRle};
///
/// let codec = ZeroRle::new();
/// let mut buf = CompressedBuf::new();
/// codec.compress_into(&[0u8; 128], &mut buf);
/// assert_eq!(buf.bits(), 1);
/// codec.compress_into(&[1u8; 128], &mut buf);
/// assert_eq!(buf.bits(), 1 + 1024);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroRle;

impl ZeroRle {
    /// Algorithm name reported by [`crate::CompressedBuf::algorithm`].
    pub const NAME: &'static str = "zero";

    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl Codec for ZeroRle {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn compress_into(&self, entry: &Entry, out: &mut CompressedBuf) {
        let mut w = out.begin();
        if entry.iter().all(|&b| b == 0) {
            w.push_bit(false);
        } else {
            w.push_bit(true);
            for &b in entry.iter() {
                w.push_bits(b as u64, 8);
            }
        }
        out.finish(Self::NAME, w);
    }

    fn decompress_into(
        &self,
        data: &[u8],
        bits: usize,
        out: &mut Entry,
    ) -> Result<(), DecodeError> {
        let mut r = BitReader::new(data, bits);
        *out = [0u8; ENTRY_BYTES];
        if r.read_bit()? {
            for b in out.iter_mut() {
                *b = r.read_bits(8)? as u8;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_round_trip, decode};

    #[test]
    fn zero_round_trip() {
        assert_eq!(assert_round_trip(&ZeroRle, &[0u8; 128]), 1);
    }

    #[test]
    fn nonzero_round_trip() {
        let mut entry = [0u8; 128];
        entry[127] = 1;
        assert_eq!(assert_round_trip(&ZeroRle, &entry), 1025);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            decode(&ZeroRle, &[], 0),
            Err(DecodeError::Truncated)
        ));
    }
}
