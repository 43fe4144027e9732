//! Twins and diffs (HLRC §5.2).
//!
//! On the first write to a clean page a *twin* (pristine copy) is made. At
//! a release point the runtime compares the working page against its twin
//! and encodes the modified words as a *diff*, which is shipped to the
//! page's home and merged there. Homes never need twins — all diffs merge
//! into the home copy (one of the paper's arguments for home-based LRC).
//!
//! Decoding treats the wire as untrusted: a corrupted run table yields a
//! structured [`DiffError`], never an out-of-bounds panic at the home,
//! and every run of a successfully decoded diff is guaranteed in-bounds
//! and word-aligned, so [`Diff::apply`] cannot index outside the page.

use parade_mpi::datatype::{DecodeError, Reader, Writer};

use crate::page::PAGE_SIZE;

const WORD: usize = 8;

/// A frame the DSM refuses: one that does not parse, or a diff whose runs
/// parse but could not be applied to a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The bytes are not a frame (truncated, unbacked count, unknown kind,
    /// trailing bytes).
    Frame(DecodeError),
    /// A run lands outside the page.
    RunOutOfBounds { offset: u32, len: u32 },
    /// A run is not aligned to the diff word granularity.
    Misaligned { offset: u32, len: u32 },
}

impl From<DecodeError> for DiffError {
    fn from(e: DecodeError) -> Self {
        DiffError::Frame(e)
    }
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Frame(e) => e.fmt(f),
            DiffError::RunOutOfBounds { offset, len } => write!(
                f,
                "diff run [{offset}, {offset}+{len}) outside page of {PAGE_SIZE} bytes"
            ),
            DiffError::Misaligned { offset, len } => write!(
                f,
                "diff run offset {offset} len {len} not aligned to {WORD}-byte words"
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// One run of modified bytes within a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset within the page (word aligned).
    pub offset: u32,
    /// Modified bytes.
    pub data: Vec<u8>,
}

/// A page diff: the set of word runs that differ from the twin.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    pub runs: Vec<DiffRun>,
}

impl Diff {
    /// Compare `current` against `twin` and collect modified word runs.
    ///
    /// The comparison walks both pages one 64-bit word at a time (the diff
    /// granularity), not byte-by-byte slice compares — the release path
    /// diffs every dirty page, so this is hot. A trailing partial word
    /// (page sizes that are not a multiple of 8) is compared byte-wise:
    /// the word loop must never read past `len`, and the tail bytes still
    /// have to make it into the diff.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len());
        let len = twin.len();
        #[inline(always)]
        fn word(p: &[u8], w: usize) -> u64 {
            // Equality is endianness-agnostic; `from_ne_bytes` compiles to
            // a single unaligned load.
            u64::from_ne_bytes(p[w * WORD..(w + 1) * WORD].try_into().expect("word"))
        }
        let mut runs = Vec::new();
        let words = len / WORD;
        let mut w = 0;
        while w < words {
            if word(twin, w) != word(current, w) {
                let start = w;
                while w < words && word(twin, w) != word(current, w) {
                    w += 1;
                }
                runs.push(DiffRun {
                    offset: (start * WORD) as u32,
                    data: current[start * WORD..w * WORD].to_vec(),
                });
            } else {
                w += 1;
            }
        }
        let tail = words * WORD;
        if tail < len && twin[tail..] != current[tail..] {
            // Ship the whole partial word as one run; merge with a run
            // that already ends at the tail boundary.
            match runs.last_mut() {
                Some(last) if last.offset as usize + last.data.len() == tail => {
                    last.data.extend_from_slice(&current[tail..]);
                }
                _ => runs.push(DiffRun {
                    offset: tail as u32,
                    data: current[tail..].to_vec(),
                }),
            }
        }
        Diff { runs }
    }

    /// Apply this diff to `target` (the home's copy of the page).
    ///
    /// Runs of a decoded diff are validated in-bounds by [`Diff::decode`];
    /// locally created diffs are in-bounds for the page they were created
    /// from by construction.
    pub fn apply(&self, target: &mut [u8]) {
        for run in &self.runs {
            let off = run.offset as usize;
            target[off..off + run.data.len()].copy_from_slice(&run.data);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total modified bytes carried.
    pub fn payload_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.data.len()).sum()
    }

    /// Encoded wire size.
    pub fn encoded_len(&self) -> usize {
        4 + self.runs.iter().map(|r| 8 + r.data.len()).sum::<usize>()
    }

    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.runs.len() as u32);
        for run in &self.runs {
            w.u32(run.offset);
            w.lp_bytes(&run.data);
        }
    }

    /// Decode a diff, validating every run against the page bounds and the
    /// word granularity.
    pub fn decode(r: &mut Reader<'_>) -> Result<Diff, DiffError> {
        // Every run occupies at least 8 header bytes on the wire.
        let runs = r.list(8, |r| {
            let offset = r.u32()?;
            let data = r.lp_bytes()?;
            let len = data.len() as u32;
            if offset as u64 + data.len() as u64 > PAGE_SIZE as u64 {
                return Err(DiffError::RunOutOfBounds { offset, len });
            }
            if !(offset as usize).is_multiple_of(WORD) || !data.len().is_multiple_of(WORD) {
                return Err(DiffError::Misaligned { offset, len });
            }
            Ok(DiffRun {
                offset,
                data: data.to_vec(),
            })
        })?;
        Ok(Diff { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_testkit::wire::{assert_codec, hex};

    fn page_with(vals: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        for &(i, v) in vals {
            p[i] = v;
        }
        p
    }

    /// A diff alone on the wire (in production it sits inside a
    /// `DiffBatch`, whose decoder calls `finish`).
    fn decode_bytes(b: &[u8]) -> Result<Diff, DiffError> {
        let mut r = Reader::new(b);
        let d = Diff::decode(&mut r)?;
        r.finish()?;
        Ok(d)
    }

    fn encode_bytes(d: &Diff) -> parade_net::Bytes {
        let mut w = Writer::new();
        d.encode(&mut w);
        w.finish()
    }

    fn sample() -> Diff {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (64, 2), (72, 3), (4088, 9)]);
        Diff::create(&twin, &cur)
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let twin = page_with(&[(3, 7)]);
        let cur = twin.clone();
        let d = Diff::create(&twin, &cur);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn single_word_change() {
        let twin = page_with(&[]);
        let cur = page_with(&[(17, 9)]);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 16); // word containing byte 17
        assert_eq!(d.runs[0].data.len(), WORD);
        assert_eq!(d.payload_bytes(), 8);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = page_with(&[]);
        let cur = page_with(&[(8, 1), (16, 2), (24, 3)]);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 8);
        assert_eq!(d.runs[0].data.len(), 24);
    }

    #[test]
    fn separated_changes_make_separate_runs() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (100, 2), (4000, 3)]);
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 3);
    }

    #[test]
    fn apply_reproduces_modified_page() {
        let twin = page_with(&[(5, 5), (2000, 20)]);
        let cur = page_with(&[(5, 6), (900, 9), (2000, 20), (4095, 255)]);
        let d = Diff::create(&twin, &cur);
        let mut other = twin.clone();
        d.apply(&mut other);
        assert_eq!(other, cur);
    }

    #[test]
    fn codec_is_checked_and_encoded_len_is_exact() {
        let d = sample();
        assert_eq!(d.runs.len(), 3);
        assert_eq!(encode_bytes(&d).len(), d.encoded_len());
        assert_codec(&[d, Diff::default()], encode_bytes, decode_bytes);
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test.
    #[test]
    fn wire_bytes_are_pinned() {
        assert_eq!(
            hex(&encode_bytes(&sample())),
            "0300000000000000080000000100000000000000400000001000000002000000\
             000000000300000000000000f80f0000080000000900000000000000"
        );
    }

    #[test]
    fn decode_rejects_out_of_bounds_run() {
        // One run: offset 4088, len 16 — offset + len > PAGE_SIZE. The old
        // decoder accepted this and `apply` panicked at the home.
        let mut w = Writer::new();
        w.u32(1).u32(4088).lp_bytes(&[0u8; 16]);
        let b = w.finish();
        assert_eq!(
            decode_bytes(&b),
            Err(DiffError::RunOutOfBounds {
                offset: 4088,
                len: 16
            })
        );
    }

    #[test]
    fn decode_rejects_offset_overflowing_u32() {
        let mut w = Writer::new();
        w.u32(1).u32(u32::MAX - 4).lp_bytes(&[0u8; 8]);
        let b = w.finish();
        assert!(matches!(
            decode_bytes(&b),
            Err(DiffError::RunOutOfBounds { .. })
        ));
    }

    #[test]
    fn decode_rejects_unbacked_run_count() {
        // Count claims 2^28 runs in a 12-byte payload: must error before
        // any allocation sized by the count.
        let mut w = Writer::new();
        w.u32(1 << 28).u32(0).u32(0);
        let b = w.finish();
        assert_eq!(
            decode_bytes(&b),
            Err(DiffError::Frame(DecodeError::Count {
                count: 1 << 28,
                have: 8
            }))
        );
    }

    #[test]
    fn decode_rejects_misaligned_run() {
        let mut w = Writer::new();
        w.u32(1).u32(13).lp_bytes(&[0u8; 8]);
        let b = w.finish();
        assert_eq!(
            decode_bytes(&b),
            Err(DiffError::Misaligned { offset: 13, len: 8 })
        );
    }

    #[test]
    fn odd_page_size_tail_is_diffed_not_read_past() {
        // 4097 bytes: 512 whole words plus one tail byte. The word loop
        // must stop at byte 4096 and the tail byte still diff.
        let mut twin = vec![0u8; PAGE_SIZE + 1];
        twin[100] = 7;
        let mut cur = twin.clone();
        cur[PAGE_SIZE] = 0xEE; // only the partial word changed
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset as usize, PAGE_SIZE);
        assert_eq!(d.runs[0].data, vec![0xEE]);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn odd_page_size_tail_merges_with_adjacent_run() {
        // Last whole word and the tail both change: one contiguous run.
        let len = 19; // 2 words + 3 tail bytes
        let twin = vec![0u8; len];
        let mut cur = twin.clone();
        for b in &mut cur[8..] {
            *b = 5;
        }
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].offset, 8);
        assert_eq!(d.runs[0].data.len(), 11);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn diff_merging_from_two_writers_disjoint_words() {
        // Two nodes write disjoint words of the same page; applying both
        // diffs at the home must merge cleanly (the multiple-writer
        // property LRC depends on).
        let base = page_with(&[]);
        let a = page_with(&[(8, 1)]);
        let b = page_with(&[(4000, 2)]);
        let da = Diff::create(&base, &a);
        let db = Diff::create(&base, &b);
        let mut home = base.clone();
        da.apply(&mut home);
        db.apply(&mut home);
        assert_eq!(home[8], 1);
        assert_eq!(home[4000], 2);
    }
}
