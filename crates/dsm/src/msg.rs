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

use parade_mpi::datatype::{Reader, Writer};

use crate::diff::{need, need_count, DecodeError, Diff};
use crate::page::{PageId, PAGE_SIZE};

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
    /// Acquire a distributed lock (baseline SDSM path). `polling` requests
    /// an immediate grant-or-busy answer instead of queueing.
    LockAcq {
        lock: u64,
        node: usize,
        reply_tag: u64,
        last_seen: u64,
        polling: bool,
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

fn decode_notices(r: &mut Reader<'_>) -> Result<Vec<PageId>, DecodeError> {
    need(r, 4, "notice count")?;
    let n = r.u32() as usize;
    need_count(r, n, 8)?;
    Ok((0..n).map(|_| r.u64() as PageId).collect())
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
    need(r, 4, "page-nodes count")?;
    let n = r.u32() as usize;
    need_count(r, n, 12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        need(r, 12, "page-nodes entry")?;
        let page = r.u64() as PageId;
        let count = r.u32() as usize;
        need_count(r, count, 4)?;
        out.extend((0..count).map(|_| (page, r.u32() as usize)));
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
                w.u32(notices.len() as u32);
                for p in notices {
                    w.u64(*p as u64);
                }
                w.u32(reads.len() as u32);
                for p in reads {
                    w.u64(*p as u64);
                }
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
                polling,
            } => {
                w.u8(K_LOCK_ACQ)
                    .u64(*lock)
                    .u32(*node as u32)
                    .u64(*reply_tag)
                    .u64(*last_seen)
                    .u8(*polling as u8);
            }
            DsmMsg::LockRel {
                lock,
                node,
                notices,
            } => {
                w.u8(K_LOCK_REL).u64(*lock).u32(*node as u32);
                w.u32(notices.len() as u32);
                for p in notices {
                    w.u64(*p as u64);
                }
            }
            DsmMsg::Nudge => {
                w.u8(K_NUDGE);
            }
        }
        w.finish()
    }

    /// Decode a trusted (in-process) payload; panics with the structured
    /// error on corruption — the fabric delivers messages intact, so this
    /// indicates a local protocol bug, not a remote peer's bytes.
    pub fn decode(b: &[u8]) -> DsmMsg {
        match DsmMsg::try_decode(b) {
            Ok(m) => m,
            Err(e) => panic!("bad dsm message: {e}"),
        }
    }

    /// Decode an untrusted payload. Every length, count, and run is
    /// validated; malformed bytes yield a [`DecodeError`], never a panic
    /// or an unbounded allocation.
    pub fn try_decode(b: &[u8]) -> Result<DsmMsg, DecodeError> {
        let mut r = Reader::new(b);
        need(&r, 1, "message kind")?;
        match r.u8() {
            K_REQ_PAGE => {
                need(&r, 20, "ReqPage body")?;
                Ok(DsmMsg::ReqPage {
                    page: r.u64() as PageId,
                    requester: r.u32() as usize,
                    reply_tag: r.u64(),
                })
            }
            K_REQ_PAGE_RANGE => {
                need(&r, 24, "ReqPageRange body")?;
                Ok(DsmMsg::ReqPageRange {
                    first: r.u64() as PageId,
                    count: r.u32(),
                    requester: r.u32() as usize,
                    reply_tag: r.u64(),
                })
            }
            K_DIFF_BATCH => {
                need(&r, 16, "DiffBatch header")?;
                let requester = r.u32() as usize;
                let reply_tag = r.u64();
                let n = r.u32() as usize;
                // Each entry is at least a page id plus an empty diff.
                need_count(&r, n, 12)?;
                let mut pages = Vec::with_capacity(n);
                let mut diffs = Vec::with_capacity(n);
                for _ in 0..n {
                    need(&r, 8, "DiffBatch page id")?;
                    pages.push(r.u64() as PageId);
                    diffs.push(Diff::decode(&mut r)?);
                }
                Ok(DsmMsg::DiffBatch {
                    requester,
                    reply_tag,
                    pages,
                    diffs,
                })
            }
            K_PAGE_PUSH => {
                need(&r, 20, "PagePush header")?;
                let page = r.u64() as PageId;
                let barrier_seq = r.u64();
                let len = r.u32() as usize;
                need(&r, len, "PagePush data")?;
                Ok(DsmMsg::PagePush {
                    page,
                    barrier_seq,
                    data: Bytes::copy_from_slice(r.bytes(len)),
                })
            }
            K_BARRIER_ARRIVE => {
                need(&r, 20, "BarrierArrive header")?;
                let seq = r.u64();
                let node = r.u32() as usize;
                let reply_tag = r.u64();
                let notices = decode_notices(&mut r)?;
                let reads = decode_notices(&mut r)?;
                Ok(DsmMsg::BarrierArrive {
                    seq,
                    node,
                    reply_tag,
                    notices,
                    reads,
                })
            }
            K_BARRIER_UP => {
                need(&r, 12, "BarrierUp header")?;
                let seq = r.u64();
                let nm = r.u32() as usize;
                need_count(&r, nm, 12)?;
                let members = (0..nm)
                    .map(|_| need(&r, 12, "BarrierUp member").map(|_| (r.u32() as usize, r.u64())))
                    .collect::<Result<Vec<_>, _>>()?;
                let writers = decode_page_nodes(&mut r)?;
                let readers = decode_page_nodes(&mut r)?;
                Ok(DsmMsg::BarrierUp {
                    seq,
                    members,
                    writers,
                    readers,
                })
            }
            K_LOCK_ACQ => {
                need(&r, 29, "LockAcq body")?;
                Ok(DsmMsg::LockAcq {
                    lock: r.u64(),
                    node: r.u32() as usize,
                    reply_tag: r.u64(),
                    last_seen: r.u64(),
                    polling: r.u8() != 0,
                })
            }
            K_LOCK_REL => {
                need(&r, 12, "LockRel header")?;
                let lock = r.u64();
                let node = r.u32() as usize;
                let notices = decode_notices(&mut r)?;
                Ok(DsmMsg::LockRel {
                    lock,
                    node,
                    notices,
                })
            }
            K_PUSH_REQ => {
                need(&r, 20, "PushReq body")?;
                Ok(DsmMsg::PushReq {
                    page: r.u64() as PageId,
                    barrier_seq: r.u64(),
                    requester: r.u32() as usize,
                })
            }
            K_NUDGE => Ok(DsmMsg::Nudge),
            k => Err(DecodeError::BadKind(k)),
        }
    }
}

const R_PAGE_DATA: u8 = 1;
const R_BARRIER_DEPART: u8 = 3;
const R_LOCK_GRANT: u8 = 4;
const R_LOCK_BUSY: u8 = 5;
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
    LockBusy,
}

impl DsmReply {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            DsmReply::PageData { page, data } => {
                w.u8(R_PAGE_DATA).u64(*page as u64).lp_bytes(data);
            }
            DsmReply::PageRangeData { first, data } => {
                debug_assert_eq!(data.len() % PAGE_SIZE, 0);
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
                w.u8(R_LOCK_GRANT).u64(*cur_seq).u32(notices.len() as u32);
                for p in notices {
                    w.u64(*p as u64);
                }
            }
            DsmReply::LockBusy => {
                w.u8(R_LOCK_BUSY);
            }
        }
        w.finish()
    }

    /// Decode a trusted (in-process) payload; panics with the structured
    /// error on corruption, like [`DsmMsg::decode`].
    pub fn decode(b: &[u8]) -> DsmReply {
        match DsmReply::try_decode(b) {
            Ok(r) => r,
            Err(e) => panic!("bad dsm reply: {e}"),
        }
    }

    /// Decode an untrusted payload: every length and count is checked
    /// against the bytes actually present before it is indexed or sizes an
    /// allocation, as in [`DsmMsg::try_decode`].
    pub fn try_decode(b: &[u8]) -> Result<DsmReply, DecodeError> {
        let mut r = Reader::new(b);
        need(&r, 1, "reply kind")?;
        match r.u8() {
            kind @ (R_PAGE_DATA | R_PAGE_RANGE_DATA) => {
                need(&r, 12, "page data header")?;
                let page = r.u64() as PageId;
                let len = r.u32() as usize;
                need(&r, len, "page data")?;
                let data = Bytes::copy_from_slice(r.bytes(len));
                Ok(if kind == R_PAGE_DATA {
                    DsmReply::PageData { page, data }
                } else {
                    DsmReply::PageRangeData { first: page, data }
                })
            }
            R_DIFF_BATCH_ACK => {
                need(&r, 4, "DiffBatchAck body")?;
                Ok(DsmReply::DiffBatchAck { pages: r.u32() })
            }
            R_BARRIER_DEPART => {
                need(&r, 12, "BarrierDepart header")?;
                let seq = r.u64();
                let n = r.u32() as usize;
                // Each entry is at least page + homes + flags + count.
                need_count(&r, n, 21)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    need(&r, 21, "BarrierDepart entry")?;
                    let page = r.u64() as PageId;
                    let old_home = r.u32() as usize;
                    let new_home = r.u32() as usize;
                    let flags = r.u8();
                    let ns = r.u32() as usize;
                    need_count(&r, ns, 4)?;
                    entries.push(DepartEntry {
                        page,
                        old_home,
                        new_home,
                        multi_writer: flags & 1 != 0,
                        update: flags & 2 != 0,
                        sharers: (0..ns).map(|_| r.u32() as usize).collect(),
                    });
                }
                Ok(DsmReply::BarrierDepart { seq, entries })
            }
            R_LOCK_GRANT => {
                need(&r, 8, "LockGrant header")?;
                let cur_seq = r.u64();
                let notices = decode_notices(&mut r)?;
                Ok(DsmReply::LockGrant { cur_seq, notices })
            }
            R_LOCK_BUSY => Ok(DsmReply::LockBusy),
            k => Err(DecodeError::BadKind(k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn page_diff(touch: &[usize]) -> Diff {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        for &i in touch {
            cur[i] = 3;
        }
        Diff::create(&twin, &cur)
    }

    #[test]
    fn msg_roundtrips() {
        let msgs = vec![
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
                pages: vec![4, 9, 11],
                diffs: vec![page_diff(&[8]), page_diff(&[0, 4088]), page_diff(&[16])],
            },
            DsmMsg::PagePush {
                page: 5,
                barrier_seq: 12,
                data: Bytes::from(vec![7u8; PAGE_SIZE]),
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
                polling: true,
            },
            DsmMsg::LockRel {
                lock: 6,
                node: 0,
                notices: vec![99],
            },
            DsmMsg::Nudge,
        ];
        for m in msgs {
            assert_eq!(DsmMsg::decode(&m.encode()), m);
        }
    }

    #[test]
    fn try_decode_rejects_bad_kind_and_truncation() {
        assert_eq!(DsmMsg::try_decode(&[0xEE]), Err(DecodeError::BadKind(0xEE)));
        assert!(matches!(
            DsmMsg::try_decode(&[]),
            Err(DecodeError::Truncated { .. })
        ));
        let full = DsmMsg::DiffBatch {
            requester: 1,
            reply_tag: REPLY_TAG_BASE,
            pages: vec![3, 7],
            diffs: vec![page_diff(&[8]), page_diff(&[24, 32])],
        }
        .encode();
        for cut in 0..full.len() {
            // No prefix may panic; (decoding a shorter valid message is
            // impossible here because the batch count is pinned early).
            let _ = DsmMsg::try_decode(&full[..cut]);
        }
    }

    #[test]
    fn try_decode_rejects_oversized_barrier_up_counts() {
        // Member count not backed by bytes.
        let mut w = Writer::new();
        w.u8(10).u64(3).u32(u32::MAX);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { .. })
        ));
        // Writer-node count not backed by bytes.
        let mut w = Writer::new();
        w.u8(10).u64(3).u32(0).u32(1).u64(5).u32(u32::MAX);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { .. })
        ));
        // Reader-list count not backed by bytes (after an empty writer
        // list).
        let mut w = Writer::new();
        w.u8(10).u64(3).u32(0).u32(0).u32(u32::MAX);
        assert!(matches!(
            DsmMsg::try_decode(&w.finish()),
            Err(DecodeError::RunCount { .. })
        ));
        // No truncation of a valid message may panic.
        let full = DsmMsg::BarrierUp {
            seq: 2,
            members: vec![(0, REPLY_TAG_BASE), (1, REPLY_TAG_BASE + 1)],
            writers: vec![(4, 0), (4, 1), (6, 1)],
            readers: vec![(5, 0)],
        }
        .encode();
        for cut in 0..full.len() {
            let _ = DsmMsg::try_decode(&full[..cut]);
        }
    }

    #[test]
    fn try_decode_rejects_unbacked_batch_count() {
        let mut w = Writer::new();
        w.u8(8).u32(0).u64(REPLY_TAG_BASE).u32(u32::MAX);
        let b = w.finish();
        assert!(matches!(
            DsmMsg::try_decode(&b),
            Err(DecodeError::RunCount { .. })
        ));
    }

    fn sample_replies() -> Vec<DsmReply> {
        vec![
            DsmReply::PageData {
                page: 1,
                data: Bytes::from(vec![1u8, 2, 3]),
            },
            DsmReply::PageRangeData {
                first: 12,
                data: Bytes::from(vec![9u8; 2 * PAGE_SIZE]),
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
            DsmReply::LockBusy,
        ]
    }

    #[test]
    fn reply_roundtrips() {
        for r in sample_replies() {
            assert_eq!(DsmReply::decode(&r.encode()), r);
        }
    }

    #[test]
    fn reply_try_decode_rejects_every_truncation_and_a_bad_kind() {
        assert_eq!(
            DsmReply::try_decode(&[0xEE]),
            Err(DecodeError::BadKind(0xEE))
        );
        for r in sample_replies() {
            let full = r.encode();
            assert_eq!(DsmReply::try_decode(&full), Ok(r));
            // Every field of every reply is pinned by a length or a count
            // ahead of it, so no proper prefix is itself a valid reply.
            for cut in 0..full.len() {
                assert!(
                    matches!(
                        DsmReply::try_decode(&full[..cut]),
                        Err(DecodeError::Truncated { .. } | DecodeError::RunCount { .. })
                    ),
                    "prefix {cut}/{} of {:?} decoded",
                    full.len(),
                    full[0]
                );
            }
        }
    }

    #[test]
    fn reply_try_decode_rejects_unbacked_counts() {
        // Each count below would size a multi-gigabyte allocation if it
        // were trusted; none is backed by bytes.
        let unbacked: [Bytes; 4] = [
            // PageData length.
            {
                let mut w = Writer::new();
                w.u8(R_PAGE_DATA).u64(1).u32(u32::MAX);
                w.finish()
            },
            // BarrierDepart entry count.
            {
                let mut w = Writer::new();
                w.u8(R_BARRIER_DEPART).u64(3).u32(u32::MAX);
                w.finish()
            },
            // BarrierDepart sharer count of the one entry.
            {
                let mut w = Writer::new();
                w.u8(R_BARRIER_DEPART).u64(3).u32(1);
                w.u64(9).u32(0).u32(0).u8(2).u32(u32::MAX);
                w.finish()
            },
            // LockGrant notice count.
            {
                let mut w = Writer::new();
                w.u8(R_LOCK_GRANT).u64(5).u32(u32::MAX);
                w.finish()
            },
        ];
        for b in unbacked {
            assert!(
                matches!(
                    DsmReply::try_decode(&b),
                    Err(DecodeError::Truncated { .. } | DecodeError::RunCount { .. })
                ),
                "unbacked count accepted: {b:?}"
            );
        }
    }
}
