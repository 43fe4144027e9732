//! Wire encoding: the one module that knows how a frame is cut.
//!
//! Payloads are hand-encoded little-endian byte strings — the mini-MPI the
//! paper's authors built on VIA moves raw buffers the same way. Every
//! protocol frame in the workspace (DSM requests and replies, diffs,
//! scheduler messages, fork-join commands, the allgather blob) is composed
//! with [`Writer`] and parsed with [`Reader`], whose every read checks the
//! bytes left first: a decoder built on it cannot index past its buffer,
//! and a malformed frame is a [`DecodeError`], never a panic. DESIGN.md
//! "Wire format" lists the frames.

use parade_net::Bytes;

/// Encode a slice of `f64` values.
pub fn f64s_to_bytes(xs: &[f64]) -> Bytes {
    let mut b = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        b.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(b)
}

/// Decode a byte string into `f64` values.
///
/// # Panics
/// If the length is not a multiple of 8.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert!(
        b.len().is_multiple_of(8),
        "payload is not a whole number of f64s"
    );
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

/// Decode into a caller-provided buffer (no allocation).
pub fn read_f64s_into(b: &[u8], out: &mut [f64]) {
    assert_eq!(b.len(), out.len() * 8, "payload/buffer length mismatch");
    for (c, o) in b.chunks_exact(8).zip(out.iter_mut()) {
        *o = f64::from_le_bytes(c.try_into().expect("chunk of 8"));
    }
}

/// Encode a slice of `i64` values.
pub fn i64s_to_bytes(xs: &[i64]) -> Bytes {
    let mut b = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        b.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(b)
}

/// Decode a byte string into `i64` values.
pub fn bytes_to_i64s(b: &[u8]) -> Vec<i64> {
    assert!(
        b.len().is_multiple_of(8),
        "payload is not a whole number of i64s"
    );
    b.chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

/// A little-endian cursor for composing protocol messages.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.extend_from_slice(&[v]);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed byte string.
    pub fn lp_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.bytes(v)
    }

    /// `u32`-counted list of `u64`s, read back by [`Reader::u64s`].
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    /// `u32`-counted list of `f64`s, read back by [`Reader::f64s`].
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
        self
    }

    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A malformed frame: fail-stop with a structured error instead of an
/// indexing panic or an allocation sized by a corrupted count (in the
/// style of `parade_net::FabricError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside the field being read.
    Truncated {
        what: &'static str,
        need: usize,
        have: usize,
    },
    /// An element count cannot fit in the remaining bytes (OOM guard: the
    /// count sizes a `Vec` allocation and must be backed by real bytes).
    Count { count: u32, have: usize },
    /// Unknown message kind byte.
    BadKind(u8),
    /// Bytes left over after a complete frame.
    Trailing(usize),
    /// A run of ids `first..first + len` reaches past the receiver's table
    /// of `extent` entries (the DSM's page runs, checked against its page
    /// table before the run is expanded).
    RunExtent { first: u64, len: u32, extent: usize },
    /// A run that names nothing: no id, or no node.
    EmptyRun { first: u64 },
    /// A run that starts before the previous run's end (overlap or descent).
    RunOrder { first: u64, prev_end: u64 },
    /// A run that continues the previous one with the same attributes: a
    /// canonical frame holds the two as one.
    RunSplit { first: u64 },
    /// A node id at or past the receiver's node count.
    NodeRange { node: u32, nnodes: usize },
    /// A node list that is not strictly ascending.
    NodeOrder { node: u32, after: u32 },
    /// A one-page frame whose data is not one `page_size`-byte page.
    NotAPage { len: usize, page_size: usize },
    /// A page-range frame whose data is not a non-empty whole number of
    /// `page_size`-byte pages.
    NotWholePages { len: usize, page_size: usize },
    /// A range frame that names one page: a lone page has a frame of its
    /// own (the DSM's page fetches).
    LoneRun { first: u64 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { what, need, have } => {
                write!(f, "truncated frame: {what} needs {need} bytes, {have} left")
            }
            DecodeError::Count { count, have } => {
                write!(f, "element count {count} exceeds frame ({have} bytes left)")
            }
            DecodeError::BadKind(k) => write!(f, "unknown message kind byte {k:#04x}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after the frame"),
            DecodeError::RunExtent { first, len, extent } => write!(
                f,
                "pages {first}..{} reach past the page table's extent of {extent} pages",
                *first as u128 + *len as u128
            ),
            DecodeError::EmptyRun { first } => write!(f, "empty run at page {first}"),
            DecodeError::RunOrder { first, prev_end } => write!(
                f,
                "run at page {first} starts before the previous run's end {prev_end}"
            ),
            DecodeError::RunSplit { first } => write!(
                f,
                "run at page {first} continues the previous run with the same attributes"
            ),
            DecodeError::NodeRange { node, nnodes } => {
                write!(f, "frame names node {node} of a {nnodes}-node cluster")
            }
            DecodeError::NodeOrder { node, after } => {
                write!(f, "node list not strictly ascending: {node} after {after}")
            }
            DecodeError::NotAPage { len, page_size } => {
                write!(
                    f,
                    "page data of {len} bytes is not one {page_size}-byte page"
                )
            }
            DecodeError::NotWholePages { len, page_size } => write!(
                f,
                "page range data of {len} bytes is not a non-empty whole number \
                 of {page_size}-byte pages"
            ),
            DecodeError::LoneRun { first } => write!(
                f,
                "range frame names page {first} alone (a lone page has a frame of its own)"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A little-endian cursor for parsing protocol messages. Check and read
/// are one step: the private `take` is the only place the buffer is indexed,
/// and every other read goes through it.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return Err(DecodeError::Truncated {
                what,
                need: n,
                have: self.buf.len(),
            });
        };
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let bytes = self.take(N, what)?;
        Ok(bytes.try_into().expect("take returned N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>("u8")?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array("f64")?))
    }

    /// Length-prefixed byte string written by [`Writer::lp_bytes`].
    pub fn lp_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n, "byte string")
    }

    /// A `u32` element count, checked against the bytes left (every
    /// element takes at least `min_each`) so that it may size a `Vec`.
    pub fn count(&mut self, min_each: usize) -> Result<usize, DecodeError> {
        let count = self.u32()?;
        let have = self.buf.len();
        if count as usize > have / min_each {
            return Err(DecodeError::Count { count, have });
        }
        Ok(count as usize)
    }

    /// A `u32`-counted list, pre-sized from the checked count. `E` lets a
    /// caller's item decoder add its own semantic errors.
    pub fn list<T, E: From<DecodeError>>(
        &mut self,
        min_each: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let count = self.count(min_each)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    pub fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        self.list(8, Self::u64)
    }

    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        self.list(8, Self::f64)
    }

    /// The frame is complete: anything still unread is an error.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// The allgather blob: each rank's byte string with its length, in rank
/// order. The part count is not on the wire: every rank knows it.
pub fn encode_parts(parts: &[Bytes]) -> Bytes {
    let mut w = Writer::new();
    for p in parts {
        w.lp_bytes(p);
    }
    w.finish()
}

/// Decode a blob of exactly `n` parts written by [`encode_parts`]: a
/// missing part is `Truncated`, an extra one `Trailing`.
pub fn decode_parts(blob: &[u8], n: usize) -> Result<Vec<Bytes>, DecodeError> {
    let mut r = Reader::new(blob);
    let parts = (0..n)
        .map(|_| r.lp_bytes().map(Bytes::copy_from_slice))
        .collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_testkit::wire::{assert_codec, hex};

    #[test]
    fn f64_roundtrip() {
        let xs = [1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&xs)), xs.to_vec());
    }

    #[test]
    fn i64_roundtrip() {
        let xs = [0i64, -1, i64::MAX, i64::MIN, 42];
        assert_eq!(bytes_to_i64s(&i64s_to_bytes(&xs)), xs.to_vec());
    }

    #[test]
    fn read_into_buffer() {
        let xs = [3.25, 4.5];
        let b = f64s_to_bytes(&xs);
        let mut out = [0.0; 2];
        read_f64s_into(&b, &mut out);
        assert_eq!(out, xs);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = Writer::new();
        w.u8(7).u32(1234).u64(u64::MAX).f64(2.75).lp_bytes(b"hello");
        w.u64s(&[3, 4]).f64s(&[-0.0]);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(1234));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f64(), Ok(2.75));
        assert_eq!(r.lp_bytes(), Ok(&b"hello"[..]));
        assert_eq!(r.u64s(), Ok(vec![3, 4]));
        assert_eq!(r.f64s().map(|v| v[0].to_bits()), Ok((-0.0f64).to_bits()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_and_unbacked_counts_are_errors_that_consume_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32(),
            Err(DecodeError::Truncated {
                what: "u32",
                need: 4,
                have: 3
            })
        );
        // The failed read left the cursor put.
        assert_eq!(r.finish(), Err(DecodeError::Trailing(3)));
        // A count that would size a multi-gigabyte `Vec` if trusted.
        let mut w = Writer::new();
        w.u32(u32::MAX).u64(0);
        let b = w.finish();
        assert_eq!(
            Reader::new(&b).u64s(),
            Err(DecodeError::Count {
                count: u32::MAX,
                have: 8
            })
        );
        assert_eq!(
            Reader::new(&b).lp_bytes(),
            Err(DecodeError::Truncated {
                what: "byte string",
                need: u32::MAX as usize,
                have: 8
            })
        );
        assert_eq!(
            DecodeError::BadKind(0xEE).to_string(),
            "unknown message kind byte 0xee"
        );
    }

    fn parts() -> Vec<Vec<Bytes>> {
        vec![
            vec![
                Bytes::new(),
                Bytes::from(&b"ab"[..]),
                Bytes::from(vec![1, 2, 3]),
            ],
            vec![],
        ]
    }

    #[test]
    fn allgather_blob_codec_is_checked() {
        for sample in parts() {
            let n = sample.len();
            assert_codec(&[sample], |p| encode_parts(p), |b| decode_parts(b, n));
        }
        // The receiver knows the part count: one part short or one over is
        // refused.
        let blob = encode_parts(&parts()[0]);
        assert_eq!(
            decode_parts(&blob, 4),
            Err(DecodeError::Truncated {
                what: "u32",
                need: 4,
                have: 0
            })
        );
        assert_eq!(decode_parts(&blob, 2), Err(DecodeError::Trailing(7)));
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test. The
    /// blob's leading part count has since gone from the wire.
    #[test]
    fn wire_bytes_are_pinned() {
        assert_eq!(
            hex(&encode_parts(&parts()[0])),
            "0000000002000000616203000000010203"
        );
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn misaligned_payload_panics() {
        bytes_to_f64s(&[1, 2, 3]);
    }
}
