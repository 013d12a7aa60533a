//! The workspace's one byte codec and its one checkpoint container.
//!
//! Everything that turns state into bytes — model checkpoints, stream
//! checkpoints, optimizer and scheduler state, dist round frames — writes
//! through [`ByteWriter`] and reads through [`ByteReader`]. Values are
//! little-endian; a *counted* field is a `u64` element count followed by
//! the elements.
//!
//! The reader's one rule: **bounds before allocation**. Every count read
//! from input is multiplied by its element width with `checked_mul` and
//! compared with the bytes that remain *before* anything is sliced or
//! reserved, so no decoder built on it can be made to allocate more than
//! the input it was handed, and none of them indexes past it.
//!
//! The container is `MAGIC · VERSION · section* · END`, a section being
//! `tag u32 · len u64 · body` and `END` a bare zero tag, so a file cut
//! short anywhere — between sections included — is refused. Sections
//! appear in ascending [`tag`] order; a reader asks for each section it
//! understands in that order ([`ByteReader::section`]) and then calls
//! [`ByteReader::end`], so an unknown, repeated or out-of-order section
//! is an error, not skipped.
//! Adding an optional section keeps [`VERSION`]; changing the body of an
//! existing one bumps it, and old files are refused, not migrated.

use std::fmt;

/// Magic of the checkpoint container.
pub const MAGIC: [u8; 4] = *b"CASC";

/// Container version this build reads and writes.
pub const VERSION: u32 = 1;

/// Section tags of the checkpoint container, in file order.
pub mod tag {
    /// Closes a container; carries no length and no body.
    pub const END: u32 = 0;
    /// Model parameters (required in every container).
    pub const PARAMS: u32 = 1;
    /// Node memories, last-update times and mailboxes.
    pub const NODE_STATE: u32 = 2;
    /// Events-applied watermark of a serving snapshot.
    pub const WATERMARK: u32 = 3;
    /// Stream checkpoint: epoch, chunk and next event.
    pub const POSITION: u32 = 4;
    /// Stream checkpoint: optimizer moments.
    pub const OPTIMIZER: u32 = 5;
    /// Stream checkpoint: batching-strategy monitors.
    pub const STRATEGY: u32 = 6;
    /// Stream checkpoint: the train step's accumulators.
    pub const PROGRESS: u32 = 7;
}

/// Why a byte string was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A field or counted run needs more bytes than remain.
    Truncated {
        /// Bytes the field declares (saturated at `u64::MAX`).
        needed: u64,
        /// Bytes left in the input.
        remaining: usize,
    },
    /// Bytes (or sections) are left over after the last expected field.
    Trailing {
        /// Bytes left in the input.
        remaining: usize,
    },
    /// The input does not start with the container [`MAGIC`].
    BadMagic,
    /// The container was written by a different format version.
    UnsupportedVersion(u32),
    /// A required section is absent (or not where the order puts it).
    MissingSection(u32),
    /// Well-formed bytes carrying a value the receiver cannot accept.
    Invalid(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => {
                write!(f, "truncated: needs {needed} bytes, {remaining} remain")
            }
            DecodeError::Trailing { remaining } => write!(f, "{remaining} trailing bytes"),
            DecodeError::BadMagic => write!(f, "not a cascade checkpoint container"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "container version {v}, this build reads {VERSION}")
            }
            DecodeError::MissingSection(tag) => write!(f, "section {tag} is missing"),
            DecodeError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends little-endian fields to a growing buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer holding the container header.
    pub fn container() -> Self {
        let mut w = ByteWriter::new();
        w.raw(&MAGIC);
        w.u32(VERSION);
        w
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes as they are, no length.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A flag, as the byte 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64` (counts, ids, positions).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f32`, bit for bit.
    pub fn f32(&mut self, v: f32) {
        self.raw(&v.to_le_bytes());
    }

    /// An `f64`, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// `values` with no count (the reader knows it).
    pub fn f32_array(&mut self, values: &[f32]) {
        self.buf.reserve(values.len() * 4);
        for v in values {
            self.f32(*v);
        }
    }

    /// Counted `f32`s.
    pub fn f32s(&mut self, values: &[f32]) {
        self.usize(values.len());
        self.f32_array(values);
    }

    /// Counted `u32`s.
    pub fn words(&mut self, values: &[u32]) {
        self.usize(values.len());
        for v in values {
            self.u32(*v);
        }
    }

    /// Counted bytes.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.raw(bytes);
    }

    /// One container section: `tag`, then whatever `body` writes, as a
    /// blob (the length is filled in once `body` returns).
    pub fn section(&mut self, tag: u32, body: impl FnOnce(&mut ByteWriter)) {
        self.u32(tag);
        let len_at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Closes a container and returns its bytes.
    pub fn end(mut self) -> Vec<u8> {
        self.u32(tag::END);
        self.buf
    }
}

/// Reads little-endian fields off the front of untrusted bytes.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { rest: bytes }
    }

    /// A reader positioned after the container header of `bytes`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`], [`DecodeError::UnsupportedVersion`],
    /// or truncation inside the header.
    pub fn container(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes.strip_prefix(&MAGIC).ok_or(DecodeError::BadMagic)?);
        match r.u32()? {
            VERSION => Ok(r),
            other => Err(DecodeError::UnsupportedVersion(other)),
        }
    }

    /// The unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer remain; this is the only
    /// place the reader slices its input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated {
                needed: n as u64,
                remaining: self.rest.len(),
            });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// Truncation (as for every fixed-width read below).
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A flag; any byte but 0 or 1 is [`DecodeError::Invalid`].
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Invalid(format!("flag byte {other}"))),
        }
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` that must fit `usize` (an id or position, not a count —
    /// counts go through [`count`](Self::count)).
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Invalid(format!("{v} exceeds usize")))
    }

    /// An `f32`, bit for bit.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An `f64`, bit for bit.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u64` element count whose elements take at least `elem_bytes`
    /// each, refused unless that many bytes remain — so the caller may
    /// reserve `count` elements.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when `count * elem_bytes` overflows or
    /// exceeds the bytes remaining.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        self.fits(n, elem_bytes)?;
        Ok(n as usize)
    }

    /// Checks that `n` elements of `elem_bytes` fit the bytes remaining.
    fn fits(&self, n: u64, elem_bytes: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(elem_bytes as u64) {
            Some(bytes) if bytes <= self.rest.len() as u64 => Ok(bytes as usize),
            needed => Err(DecodeError::Truncated {
                needed: needed.unwrap_or(u64::MAX),
                remaining: self.rest.len(),
            }),
        }
    }

    /// `n` uncounted `f32`s.
    pub fn f32_array(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let bytes = self.fits(n as u64, 4)?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Counted `f32`s.
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.count(4)?;
        self.f32_array(n)
    }

    /// Counted `u32`s.
    pub fn words(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Counted bytes, borrowed from the input.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// The body of the next section if it carries `tag`; `None` (and
    /// nothing consumed) if the input is exhausted or the next section
    /// is a different one.
    ///
    /// # Errors
    ///
    /// Truncation inside the section header or body.
    pub fn section(&mut self, tag: u32) -> Result<Option<ByteReader<'a>>, DecodeError> {
        if self.rest.is_empty() || ByteReader::new(self.rest).u32()? != tag {
            return Ok(None);
        }
        self.u32()?;
        Ok(Some(ByteReader::new(self.blob()?)))
    }

    /// The body of the next section, which must carry `tag`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::MissingSection`], or as [`section`](Self::section).
    pub fn require(&mut self, tag: u32) -> Result<ByteReader<'a>, DecodeError> {
        self.section(tag)?.ok_or(DecodeError::MissingSection(tag))
    }

    /// Declares a container fully read: [`tag::END`], then nothing.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Trailing`] when a section is left unread, and
    /// truncation when the end marker is cut off.
    pub fn end(mut self) -> Result<(), DecodeError> {
        let remaining = self.rest.len();
        match self.u32()? {
            tag::END => self.finish(),
            _ => Err(DecodeError::Trailing { remaining }),
        }
    }

    /// Declares the input fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Trailing`] when bytes remain.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            remaining => Err(DecodeError::Trailing { remaining }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::check_decoder;

    fn sample() -> Vec<u8> {
        let mut w = ByteWriter::container();
        w.section(tag::PARAMS, |body| {
            body.u8(7);
            body.bool(true);
            body.u32(0xdead_beef);
            body.usize(41);
            body.f32(1.5);
            body.f64(-2.25);
            body.f32s(&[0.5, f32::NAN]);
            body.words(&[1, 2, 3]);
            body.blob(b"xyz");
        });
        w.section(tag::WATERMARK, |body| body.u64(9));
        w.end()
    }

    /// Decodes [`sample`]'s layout and writes it back.
    fn reencode(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut r = ByteReader::container(bytes)?;
        let mut p = r.require(tag::PARAMS)?;
        let fields = (p.u8()?, p.bool()?, p.u32()?, p.usize()?, p.f32()?, p.f64()?);
        let runs = (p.f32s()?, p.words()?, p.blob()?);
        p.finish()?;
        let state = r.section(tag::NODE_STATE)?.map(|s| s.rest().to_vec());
        let mut mark = r.require(tag::WATERMARK)?;
        let events = mark.u64()?;
        mark.finish()?;
        r.end()?;
        let mut w = ByteWriter::container();
        w.section(tag::PARAMS, |body| {
            body.u8(fields.0);
            body.bool(fields.1);
            body.u32(fields.2);
            body.usize(fields.3);
            body.f32(fields.4);
            body.f64(fields.5);
            body.f32s(&runs.0);
            body.words(&runs.1);
            body.blob(runs.2);
        });
        if let Some(state) = state {
            w.section(tag::NODE_STATE, |body| body.raw(&state));
        }
        w.section(tag::WATERMARK, |body| body.u64(events));
        Ok(w.end())
    }

    #[test]
    fn container_survives_the_hostile_input_battery() {
        check_decoder("bytes_container", &sample(), |b| reencode(b).ok());
    }

    #[test]
    fn header_and_section_errors_are_typed() {
        assert_eq!(
            ByteReader::container(b"nope").unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            ByteReader::container(b"CA").unwrap_err(),
            DecodeError::BadMagic
        );
        let mut v2 = sample();
        v2[4] = 2;
        assert_eq!(
            ByteReader::container(&v2).unwrap_err(),
            DecodeError::UnsupportedVersion(2)
        );

        let sample = sample();
        let mut r = ByteReader::container(&sample).unwrap();
        assert_eq!(
            r.require(tag::NODE_STATE).unwrap_err(),
            DecodeError::MissingSection(tag::NODE_STATE),
            "sections are asked for in file order"
        );
        assert!(r.section(tag::PARAMS).unwrap().is_some());
        assert_eq!(
            r.end().unwrap_err(),
            DecodeError::Trailing { remaining: 24 },
            "an unread section is trailing bytes"
        );
    }

    #[test]
    fn counts_are_checked_against_the_bytes_remaining() {
        for huge in [u64::MAX, u64::MAX / 4 + 1, 1 << 40, 9] {
            let mut bytes = huge.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 8]);
            for read in [
                |r: &mut ByteReader| r.f32s().map(drop),
                |r: &mut ByteReader| r.words().map(drop),
                |r: &mut ByteReader| r.blob().map(drop),
                |r: &mut ByteReader| r.count(16).map(drop),
            ] {
                let got = read(&mut ByteReader::new(&bytes));
                assert!(matches!(got, Err(DecodeError::Truncated { .. })), "{huge}");
            }
        }
        assert!(ByteReader::new(&[0; 8]).f32_array(usize::MAX).is_err());
        assert_eq!(ByteReader::new(&[0; 8]).f32_array(2).unwrap(), [0.0; 2]);
    }
}
