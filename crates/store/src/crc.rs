//! Hand-rolled CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) —
//! the checksum guarding every chunk frame of the store format.
//!
//! Slicing-by-16: sixteen 256-entry tables, built at compile time, fold
//! sixteen input bytes per step, and the bytewise table loop finishes
//! the tail. The digest is the bytewise one bit for bit (the test module
//! keeps that loop as the oracle). No registry dependency, no hardware
//! intrinsics and no `unsafe`, so the digest is identical on every
//! platform.

/// The reflected CRC32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// The slicing tables, computed at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so one step looks up each of sixteen
/// bytes in the table for its distance from the end of the block.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < SLICE {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// An incremental CRC32 digest.
///
/// # Examples
///
/// ```
/// use cascade_store::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"123456789");
/// assert_eq!(crc.finish(), 0xCBF43926);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh digest.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut blocks = bytes.chunks_exact(SLICE);
        for block in &mut blocks {
            let b: &[u8; SLICE] = block.try_into().expect("chunks_exact yields full blocks");
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_util::{check, prop_assert_eq, DetRng};

    /// The bytewise table loop the sliced `update` replaced: the oracle.
    fn reference_update(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        let mut bytes: Vec<u8> = (0..len.div_ceil(8))
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        bytes.truncate(len);
        bytes
    }

    #[test]
    fn check_value_matches_standard() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn a_seeded_mebibyte_keeps_its_digest() {
        // Recorded with the bytewise loop before the sliced one replaced
        // it (and equal to zlib's `crc32` of the same bytes): stores and
        // WALs written before the change still verify.
        assert_eq!(crc32(&seeded_bytes(1, 1 << 20)), 0xB982_0FDD);
    }

    #[test]
    fn sliced_update_matches_the_bytewise_loop_at_every_length_and_offset() {
        // Lengths 0..=4096 from each of the 16 start offsets of one
        // buffer, so every tail length meets every alignment.
        let buf = seeded_bytes(7, 4096 + SLICE);
        for offset in 0..SLICE {
            for len in 0..=4096 {
                let bytes = &buf[offset..offset + len];
                let mut crc = Crc32::new();
                crc.update(bytes);
                assert_eq!(
                    crc.state,
                    reference_update(0xFFFF_FFFF, bytes),
                    "offset {offset} length {len}"
                );
            }
        }
    }

    #[test]
    fn split_updates_match_the_bytewise_loop_at_every_split_point() {
        // A frame feeds its header and its payload separately.
        check("crc32_split_updates", |g| {
            let bytes = seeded_bytes(g.u64(), g.usize_in(0..600));
            let whole = reference_update(0xFFFF_FFFF, &bytes);
            for split in 0..=bytes.len() {
                let mut crc = Crc32::new();
                crc.update(&bytes[..split]);
                crc.update(&bytes[split..]);
                prop_assert_eq!(crc.state, whole);
            }
            // And a run of random-length pieces.
            let mut crc = Crc32::new();
            let mut at = 0;
            while at < bytes.len() {
                let end = (at + g.usize_in(0..40)).min(bytes.len());
                crc.update(&bytes[at..end]);
                at = end;
            }
            prop_assert_eq!(crc.state, whole);
            Ok(())
        });
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let a = crc32(&[0x00, 0x01, 0x02, 0x03]);
        let b = crc32(&[0x00, 0x01, 0x02, 0x83]);
        assert_ne!(a, b);
    }
}
