//! Wire format of the SDSM protocol messages.
//!
//! Requests travel on `MsgClass::Dsm` and are serviced by the destination
//! node's communication thread; replies travel on `MsgClass::Ctl` tagged
//! with a requester-chosen reply tag (tags ≥ [`REPLY_TAG_BASE`] so they
//! never collide with cluster control tags).
//!
//! Release-path traffic is batched: a flush groups the diffs of all dirty
//! pages homed on one node into a single [`DsmMsg::DiffBatch`] answered by
//! one [`DsmReply::DiffBatchAck`] — the HLRC amortization argument (§5.2)
//! applied to the wire. [`DsmMsg::ReqPageRange`] likewise coalesces fetches
//! of contiguous pages with a common home into one round trip.

use parade_net::Bytes;

use parade_mpi::datatype::{DecodeError, Reader, Writer};

use crate::diff::{Diff, DiffError};
use crate::page::PageId;

/// Reply tags live above this base; cluster control uses tags below it.
pub const REPLY_TAG_BASE: u64 = 1 << 32;

const K_REQ_PAGE: u8 = 1;
const K_PAGE_PUSH: u8 = 3;
const K_BARRIER_ARRIVE: u8 = 4;
const K_LOCK_ACQ: u8 = 5;
const K_LOCK_REL: u8 = 6;
const K_NUDGE: u8 = 7;
const K_DIFF_BATCH: u8 = 8;
const K_REQ_PAGE_RANGE: u8 = 9;
const K_BARRIER_UP: u8 = 10;
const K_PUSH_REQ: u8 = 11;

/// A request handled by a communication thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmMsg {
    /// Fetch the up-to-date copy of `page` from its home.
    ReqPage {
        page: PageId,
        requester: usize,
        reply_tag: u64,
    },
    /// Fetch `count` contiguous pages starting at `first`, all homed on the
    /// destination (fault-storm coalescing; one round trip per run).
    ReqPageRange {
        first: PageId,
        count: u32,
        requester: usize,
        reply_tag: u64,
    },
    /// Merge diffs for several pages homed here, acknowledged as one unit
    /// (`pages[i]` pairs with `diffs[i]`; one ack per batch, not per page).
    DiffBatch {
        requester: usize,
        reply_tag: u64,
        pages: Vec<PageId>,
        diffs: Vec<Diff>,
    },
    /// Full-page content pushed to a migrated home (multi-writer case).
    PagePush {
        page: PageId,
        barrier_seq: u64,
        data: Bytes,
    },
    /// A migrated-to home discovered its own copy was invalid at the
    /// departure (a lock-grant write notice can invalidate even the single
    /// writer's copy under false sharing) and asks the old home — which
    /// still holds the merged bytes — to [`DsmMsg::PagePush`] them over.
    PushReq {
        page: PageId,
        barrier_seq: u64,
        requester: usize,
    },
    /// Barrier arrival at the master, write notices piggybacked (§5.2.2).
    /// `reads` carries the pages this node fetched since its previous
    /// arrival — the sharer observations feeding the root's per-page
    /// protocol table (adaptive update/invalidate selection).
    BarrierArrive {
        seq: u64,
        node: usize,
        reply_tag: u64,
        notices: Vec<PageId>,
        reads: Vec<PageId>,
    },
    /// Hierarchical barrier: a subtree's aggregated arrivals, sent by a
    /// communication thread to its parent in the binomial tree. `members`
    /// lists every (node, reply tag) in the subtree awaiting the departure;
    /// `writers` carries the merged write notices as flat (page, writer
    /// node) pairs and `readers` the merged read observations in the same
    /// shape. On the wire each run of pairs sharing a page travels as one
    /// (page, nodes) group.
    BarrierUp {
        seq: u64,
        members: Vec<(usize, u64)>,
        writers: Vec<(PageId, usize)>,
        readers: Vec<(PageId, usize)>,
    },
    /// Acquire a distributed lock (baseline SDSM path); the manager queues
    /// the request until the lock is free.
    LockAcq {
        lock: u64,
        node: usize,
        reply_tag: u64,
        last_seen: u64,
    },
    /// Release a distributed lock, carrying write notices for the pages
    /// modified in the critical section.
    LockRel {
        lock: u64,
        node: usize,
        notices: Vec<PageId>,
    },
    /// Local self-message: retry deferred requests after a barrier depart.
    Nudge,
}

fn encode_pages(w: &mut Writer, pages: &[PageId]) {
    w.u32(pages.len() as u32);
    for p in pages {
        w.u64(*p as u64);
    }
}

fn decode_pages(r: &mut Reader<'_>) -> Result<Vec<PageId>, DecodeError> {
    r.list(8, |r| Ok(r.u64()? as PageId))
}

/// Encode a `(page, node)` pair list — the shared shape of `BarrierUp`
/// writers and readers — as (page, node count, nodes) groups, one per run
/// of consecutive pairs naming the same page.
fn encode_page_nodes(w: &mut Writer, pairs: &[(PageId, usize)]) {
    let groups = pairs.chunk_by(|a, b| a.0 == b.0);
    w.u32(groups.clone().count() as u32);
    for group in groups {
        w.u64(group[0].0 as u64).u32(group.len() as u32);
        for &(_, node) in group {
            w.u32(node as u32);
        }
    }
}

fn decode_page_nodes(r: &mut Reader<'_>) -> Result<Vec<(PageId, usize)>, DecodeError> {
    // Each group is at least a page id and a node count.
    let groups = r.count(12)?;
    let mut out = Vec::with_capacity(groups);
    for _ in 0..groups {
        let page = r.u64()? as PageId;
        for _ in 0..r.count(4)? {
            out.push((page, r.u32()? as usize));
        }
    }
    Ok(out)
}

impl DsmMsg {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            DsmMsg::ReqPage {
                page,
                requester,
                reply_tag,
            } => {
                w.u8(K_REQ_PAGE)
                    .u64(*page as u64)
                    .u32(*requester as u32)
                    .u64(*reply_tag);
            }
            DsmMsg::ReqPageRange {
                first,
                count,
                requester,
                reply_tag,
            } => {
                w.u8(K_REQ_PAGE_RANGE)
                    .u64(*first as u64)
                    .u32(*count)
                    .u32(*requester as u32)
                    .u64(*reply_tag);
            }
            DsmMsg::DiffBatch {
                requester,
                reply_tag,
                pages,
                diffs,
            } => {
                debug_assert_eq!(pages.len(), diffs.len());
                w.u8(K_DIFF_BATCH)
                    .u32(*requester as u32)
                    .u64(*reply_tag)
                    .u32(pages.len() as u32);
                for (page, diff) in pages.iter().zip(diffs) {
                    w.u64(*page as u64);
                    diff.encode(&mut w);
                }
            }
            DsmMsg::PagePush {
                page,
                barrier_seq,
                data,
            } => {
                w.u8(K_PAGE_PUSH)
                    .u64(*page as u64)
                    .u64(*barrier_seq)
                    .lp_bytes(data);
            }
            DsmMsg::PushReq {
                page,
                barrier_seq,
                requester,
            } => {
                w.u8(K_PUSH_REQ)
                    .u64(*page as u64)
                    .u64(*barrier_seq)
                    .u32(*requester as u32);
            }
            DsmMsg::BarrierArrive {
                seq,
                node,
                reply_tag,
                notices,
                reads,
            } => {
                w.u8(K_BARRIER_ARRIVE)
                    .u64(*seq)
                    .u32(*node as u32)
                    .u64(*reply_tag);
                encode_pages(&mut w, notices);
                encode_pages(&mut w, reads);
            }
            DsmMsg::BarrierUp {
                seq,
                members,
                writers,
                readers,
            } => {
                w.u8(K_BARRIER_UP).u64(*seq).u32(members.len() as u32);
                for (node, tag) in members {
                    w.u32(*node as u32).u64(*tag);
                }
                encode_page_nodes(&mut w, writers);
                encode_page_nodes(&mut w, readers);
            }
            DsmMsg::LockAcq {
                lock,
                node,
                reply_tag,
                last_seen,
            } => {
                w.u8(K_LOCK_ACQ)
                    .u64(*lock)
                    .u32(*node as u32)
                    .u64(*reply_tag)
                    .u64(*last_seen);
            }
            DsmMsg::LockRel {
                lock,
                node,
                notices,
            } => {
                w.u8(K_LOCK_REL).u64(*lock).u32(*node as u32);
                encode_pages(&mut w, notices);
            }
            DsmMsg::Nudge => {
                w.u8(K_NUDGE);
            }
        }
        w.finish()
    }

    /// Decode an untrusted payload. Every length, count, and run is
    /// validated; malformed bytes yield a [`DiffError`], never a panic
    /// or an unbounded allocation.
    pub fn try_decode(b: &[u8]) -> Result<DsmMsg, DiffError> {
        let mut r = Reader::new(b);
        let msg = match r.u8()? {
            K_REQ_PAGE => DsmMsg::ReqPage {
                page: r.u64()? as PageId,
                requester: r.u32()? as usize,
                reply_tag: r.u64()?,
            },
            K_REQ_PAGE_RANGE => DsmMsg::ReqPageRange {
                first: r.u64()? as PageId,
                count: r.u32()?,
                requester: r.u32()? as usize,
                reply_tag: r.u64()?,
            },
            K_DIFF_BATCH => {
                let requester = r.u32()? as usize;
                let reply_tag = r.u64()?;
                // Each entry is at least a page id plus an empty diff.
                let n = r.count(12)?;
                let mut pages = Vec::with_capacity(n);
                let mut diffs = Vec::with_capacity(n);
                for _ in 0..n {
                    pages.push(r.u64()? as PageId);
                    diffs.push(Diff::decode(&mut r)?);
                }
                DsmMsg::DiffBatch {
                    requester,
                    reply_tag,
                    pages,
                    diffs,
                }
            }
            K_PAGE_PUSH => DsmMsg::PagePush {
                page: r.u64()? as PageId,
                barrier_seq: r.u64()?,
                data: Bytes::copy_from_slice(r.lp_bytes()?),
            },
            K_BARRIER_ARRIVE => DsmMsg::BarrierArrive {
                seq: r.u64()?,
                node: r.u32()? as usize,
                reply_tag: r.u64()?,
                notices: decode_pages(&mut r)?,
                reads: decode_pages(&mut r)?,
            },
            K_BARRIER_UP => DsmMsg::BarrierUp {
                seq: r.u64()?,
                members: r.list(12, |r| Ok::<_, DecodeError>((r.u32()? as usize, r.u64()?)))?,
                writers: decode_page_nodes(&mut r)?,
                readers: decode_page_nodes(&mut r)?,
            },
            K_LOCK_ACQ => DsmMsg::LockAcq {
                lock: r.u64()?,
                node: r.u32()? as usize,
                reply_tag: r.u64()?,
                last_seen: r.u64()?,
            },
            K_LOCK_REL => DsmMsg::LockRel {
                lock: r.u64()?,
                node: r.u32()? as usize,
                notices: decode_pages(&mut r)?,
            },
            K_PUSH_REQ => DsmMsg::PushReq {
                page: r.u64()? as PageId,
                barrier_seq: r.u64()?,
                requester: r.u32()? as usize,
            },
            K_NUDGE => DsmMsg::Nudge,
            k => return Err(DecodeError::BadKind(k).into()),
        };
        r.finish()?;
        Ok(msg)
    }
}

const R_PAGE_DATA: u8 = 1;
const R_BARRIER_DEPART: u8 = 3;
const R_LOCK_GRANT: u8 = 4;
const R_DIFF_BATCH_ACK: u8 = 6;
const R_PAGE_RANGE_DATA: u8 = 7;

/// One per-page record in a barrier departure message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepartEntry {
    pub page: PageId,
    pub old_home: usize,
    pub new_home: usize,
    /// More than one node wrote the page this interval.
    pub multi_writer: bool,
    /// Update protocol: the home pushes the merged page to `sharers`
    /// (which park on `BLOCKED` awaiting it); every other cached copy
    /// invalidates as usual. `false` → classic invalidate write notice.
    pub update: bool,
    /// Sorted push set for `update` entries (never contains the home).
    pub sharers: Vec<usize>,
}

impl DepartEntry {
    /// An invalidate-protocol entry (the pre-adaptive shape).
    pub fn invalidate(
        page: PageId,
        old_home: usize,
        new_home: usize,
        multi_writer: bool,
    ) -> DepartEntry {
        DepartEntry {
            page,
            old_home,
            new_home,
            multi_writer,
            update: false,
            sharers: Vec::new(),
        }
    }
}

/// A reply sent back to a waiting application thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmReply {
    PageData {
        page: PageId,
        data: Bytes,
    },
    /// `count` contiguous pages starting at `first`, concatenated.
    PageRangeData {
        first: PageId,
        data: Bytes,
    },
    /// Acknowledges a whole [`DsmMsg::DiffBatch`] — the one-ack-per-home
    /// invariant of the batched release path.
    DiffBatchAck {
        pages: u32,
    },
    /// Global write-notice/migration summary; every node derives its own
    /// invalidations, home updates, and push duties from it (§5.2.2).
    BarrierDepart {
        seq: u64,
        entries: Vec<DepartEntry>,
    },
    LockGrant {
        cur_seq: u64,
        notices: Vec<PageId>,
    },
}

impl DsmReply {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            DsmReply::PageData { page, data } => {
                w.u8(R_PAGE_DATA).u64(*page as u64).lp_bytes(data);
            }
            DsmReply::PageRangeData { first, data } => {
                w.u8(R_PAGE_RANGE_DATA).u64(*first as u64).lp_bytes(data);
            }
            DsmReply::DiffBatchAck { pages } => {
                w.u8(R_DIFF_BATCH_ACK).u32(*pages);
            }
            DsmReply::BarrierDepart { seq, entries } => {
                w.u8(R_BARRIER_DEPART).u64(*seq).u32(entries.len() as u32);
                for e in entries {
                    let flags = e.multi_writer as u8 | (e.update as u8) << 1;
                    w.u64(e.page as u64)
                        .u32(e.old_home as u32)
                        .u32(e.new_home as u32)
                        .u8(flags)
                        .u32(e.sharers.len() as u32);
                    for s in &e.sharers {
                        w.u32(*s as u32);
                    }
                }
            }
            DsmReply::LockGrant { cur_seq, notices } => {
                w.u8(R_LOCK_GRANT).u64(*cur_seq);
                encode_pages(&mut w, notices);
            }
        }
        w.finish()
    }

    /// Decode an untrusted payload, as [`DsmMsg::try_decode`] does.
    pub fn try_decode(b: &[u8]) -> Result<DsmReply, DecodeError> {
        let mut r = Reader::new(b);
        let reply = match r.u8()? {
            R_PAGE_DATA => DsmReply::PageData {
                page: r.u64()? as PageId,
                data: Bytes::copy_from_slice(r.lp_bytes()?),
            },
            R_PAGE_RANGE_DATA => DsmReply::PageRangeData {
                first: r.u64()? as PageId,
                data: Bytes::copy_from_slice(r.lp_bytes()?),
            },
            R_DIFF_BATCH_ACK => DsmReply::DiffBatchAck { pages: r.u32()? },
            R_BARRIER_DEPART => DsmReply::BarrierDepart {
                seq: r.u64()?,
                // Each entry is at least page + homes + flags + count.
                entries: r.list(21, |r| {
                    let page = r.u64()? as PageId;
                    let old_home = r.u32()? as usize;
                    let new_home = r.u32()? as usize;
                    let flags = r.u8()?;
                    Ok::<_, DecodeError>(DepartEntry {
                        page,
                        old_home,
                        new_home,
                        multi_writer: flags & 1 != 0,
                        update: flags & 2 != 0,
                        sharers: r.list(4, |r| Ok::<_, DecodeError>(r.u32()? as usize))?,
                    })
                })?,
            },
            R_LOCK_GRANT => DsmReply::LockGrant {
                cur_seq: r.u64()?,
                notices: decode_pages(&mut r)?,
            },
            k => return Err(DecodeError::BadKind(k)),
        };
        r.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use parade_testkit::wire::{assert_codec, hex};

    fn page_diff(touch: &[usize]) -> Diff {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        for &i in touch {
            cur[i] = 3;
        }
        Diff::create(&twin, &cur)
    }

    /// One request of every kind (two `BarrierUp`s: grouped pairs and
    /// empty lists).
    fn sample_msgs() -> Vec<DsmMsg> {
        vec![
            DsmMsg::ReqPage {
                page: 42,
                requester: 3,
                reply_tag: REPLY_TAG_BASE + 7,
            },
            DsmMsg::ReqPageRange {
                first: 40,
                count: 6,
                requester: 2,
                reply_tag: REPLY_TAG_BASE + 9,
            },
            DsmMsg::DiffBatch {
                requester: 2,
                reply_tag: REPLY_TAG_BASE + 3,
                pages: vec![4, 9],
                diffs: vec![page_diff(&[8]), page_diff(&[0, 4088])],
            },
            DsmMsg::PagePush {
                page: 5,
                barrier_seq: 12,
                data: Bytes::from(vec![7u8; 16]),
            },
            DsmMsg::PushReq {
                page: 5,
                barrier_seq: 12,
                requester: 1,
            },
            DsmMsg::BarrierArrive {
                seq: 4,
                node: 2,
                reply_tag: REPLY_TAG_BASE + 1,
                notices: vec![1, 2, 30],
                reads: vec![5, 6],
            },
            DsmMsg::BarrierUp {
                seq: 9,
                members: vec![(2, REPLY_TAG_BASE + 4), (3, REPLY_TAG_BASE + 5)],
                writers: vec![(7, 2), (8, 2), (8, 3)],
                readers: vec![(7, 3)],
            },
            DsmMsg::BarrierUp {
                seq: 10,
                members: vec![(1, REPLY_TAG_BASE)],
                writers: vec![],
                readers: vec![],
            },
            DsmMsg::LockAcq {
                lock: 6,
                node: 0,
                reply_tag: REPLY_TAG_BASE + 2,
                last_seen: 11,
            },
            DsmMsg::LockRel {
                lock: 6,
                node: 0,
                notices: vec![99],
            },
            DsmMsg::Nudge,
        ]
    }

    /// One reply of every kind.
    fn sample_replies() -> Vec<DsmReply> {
        vec![
            DsmReply::PageData {
                page: 1,
                data: Bytes::from(vec![1u8, 2, 3]),
            },
            DsmReply::PageRangeData {
                first: 12,
                data: Bytes::from(vec![9u8; 16]),
            },
            DsmReply::DiffBatchAck { pages: 17 },
            DsmReply::BarrierDepart {
                seq: 3,
                entries: vec![
                    DepartEntry::invalidate(10, 0, 2, false),
                    DepartEntry::invalidate(11, 1, 1, true),
                    DepartEntry {
                        page: 12,
                        old_home: 2,
                        new_home: 2,
                        multi_writer: false,
                        update: true,
                        sharers: vec![0, 1, 3],
                    },
                ],
            },
            DsmReply::LockGrant {
                cur_seq: 5,
                notices: vec![4, 5],
            },
        ]
    }

    #[test]
    fn request_and_reply_codecs_are_checked() {
        assert_codec(&sample_msgs(), DsmMsg::encode, DsmMsg::try_decode);
        assert_codec(&sample_replies(), DsmReply::encode, DsmReply::try_decode);
        // Whole pages travel too (the samples above stay short for the pins).
        let page = DsmReply::PageRangeData {
            first: 12,
            data: Bytes::from(vec![9u8; 2 * PAGE_SIZE]),
        };
        assert_eq!(DsmReply::try_decode(&page.encode()), Ok(page));
        assert_eq!(
            DsmMsg::try_decode(&[0xEE]),
            Err(DecodeError::BadKind(0xEE).into())
        );
        assert_eq!(
            DsmReply::try_decode(&[0xEE]),
            Err(DecodeError::BadKind(0xEE))
        );
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test. The one
    /// exception is `LockAcq`, one byte shorter than at the parent: the
    /// trailing `polling` flag (`00`) went with `LockKind::Polling`.
    #[test]
    fn wire_bytes_are_pinned() {
        let msgs = [
            "012a00000000000000030000000700000001000000",
            "09280000000000000006000000020000000900000001000000",
            "0802000000030000000100000002000000040000000000000001000000080000\
             0008000000030000000000000009000000000000000200000000000000080000\
             000300000000000000f80f0000080000000300000000000000",
            "0305000000000000000c00000000000000100000000707070707070707070707\
             0707070707",
            "0b05000000000000000c0000000000000001000000",
            "0404000000000000000200000001000000010000000300000001000000000000\
             0002000000000000001e00000000000000020000000500000000000000060000\
             0000000000",
            "0a09000000000000000200000002000000040000000100000003000000050000\
             0001000000020000000700000000000000010000000200000008000000000000\
             0002000000020000000300000001000000070000000000000001000000030000\
             00",
            "0a0a000000000000000100000001000000000000000100000000000000000000\
             00",
            "0506000000000000000000000002000000010000000b00000000000000",
            "06060000000000000000000000010000006300000000000000",
            "07",
        ];
        let replies = [
            "01010000000000000003000000010203",
            "070c000000000000001000000009090909090909090909090909090909",
            "0611000000",
            "030300000000000000030000000a000000000000000000000002000000000000\
             00000b00000000000000010000000100000001000000000c0000000000000002\
             000000020000000203000000000000000100000003000000",
            "0405000000000000000200000004000000000000000500000000000000",
        ];
        let got: Vec<String> = sample_msgs().iter().map(|m| hex(&m.encode())).collect();
        assert_eq!(got, msgs);
        let got: Vec<String> = sample_replies().iter().map(|r| hex(&r.encode())).collect();
        assert_eq!(got, replies);
    }

    #[test]
    fn try_decode_rejects_unbacked_counts() {
        // Each count would size a multi-gigabyte allocation if trusted;
        // none is backed by bytes.
        let unbacked = |build: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            build(&mut w);
            w.u32(u32::MAX);
            w.finish()
        };
        let requests = [
            // BarrierUp member count.
            unbacked(&|w| {
                w.u8(K_BARRIER_UP).u64(3);
            }),
            // BarrierUp writer-node count of the one group.
            unbacked(&|w| {
                w.u8(K_BARRIER_UP).u64(3).u32(0).u32(1).u64(5);
            }),
            // BarrierUp reader-group count (after an empty writer list).
            unbacked(&|w| {
                w.u8(K_BARRIER_UP).u64(3).u32(0).u32(0);
            }),
            // DiffBatch entry count.
            unbacked(&|w| {
                w.u8(K_DIFF_BATCH).u32(0).u64(REPLY_TAG_BASE);
            }),
        ];
        for b in requests {
            assert_eq!(
                DsmMsg::try_decode(&b),
                Err(DiffError::Frame(DecodeError::Count {
                    count: u32::MAX,
                    have: 0
                })),
                "unbacked count accepted: {b:?}"
            );
        }
        let replies = [
            // BarrierDepart entry count.
            unbacked(&|w| {
                w.u8(R_BARRIER_DEPART).u64(3);
            }),
            // BarrierDepart sharer count of the one entry.
            unbacked(&|w| {
                w.u8(R_BARRIER_DEPART).u64(3).u32(1);
                w.u64(9).u32(0).u32(0).u8(2);
            }),
            // LockGrant notice count.
            unbacked(&|w| {
                w.u8(R_LOCK_GRANT).u64(5);
            }),
        ];
        for b in replies {
            assert_eq!(
                DsmReply::try_decode(&b),
                Err(DecodeError::Count {
                    count: u32::MAX,
                    have: 0
                }),
                "unbacked count accepted: {b:?}"
            );
        }
        // A byte-string length is not a count: it is simply not there.
        let b = unbacked(&|w| {
            w.u8(R_PAGE_DATA).u64(1);
        });
        assert!(matches!(
            DsmReply::try_decode(&b),
            Err(DecodeError::Truncated { have: 0, .. })
        ));
    }
}
