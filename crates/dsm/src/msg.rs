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
//! applied to the wire. A page fetch is one [`DsmMsg::ReqPages`] answered
//! by one [`DsmReply::Pages`], whether it names one page or a run of
//! contiguous pages with a common home. Only this module tells the two
//! apart: a lone page travels in the short frames (kind 1 each way, no
//! length), a run of two or more in the long ones (request kind 9, reply
//! kind 7), and a long frame holding one page is refused.
//!
//! Every page list of the barrier and lock frames travels as maximal runs
//! of consecutive pages that share their attributes, ascending:
//!
//! * `BarrierArrive` notices and reads, `LockRel` and `LockGrant` notices:
//!   `(first, len)`;
//! * `BarrierUp` writers and readers: `(first, len, [node])`;
//! * `BarrierDepart` entries: `(first, len, old home, new home, flags,
//!   [sharers])`.
//!
//! A node that writes 490 contiguous pages in an interval (Helmholtz on
//! four nodes) sends one run instead of 490 notices; a strided write
//! pattern costs 12 bytes a page instead of 8. The in-memory shapes stay
//! flat lists. The decoders take the receiver's page-table extent and node
//! count and accept only canonical frames: runs non-empty, strictly
//! ascending, disjoint, maximal and inside the extent; node lists strictly
//! ascending and inside the cluster. So a run never expands past `extent`
//! entries (`extent × nnodes` pairs for `BarrierUp`), and a frame that
//! decodes re-encodes to itself. The request frames are held to the same
//! table and cluster: every page they name lies below the extent, a fetch
//! is one such run, and every requester or sender is a node of the
//! cluster, so the server never indexes its page table with a number
//! straight off the wire. A `PagePush` carries one whole page of the table,
//! a `Pages` reply its fetch's run of them.

use parade_net::Bytes;

use parade_mpi::datatype::{DecodeError, Reader, Writer};

use crate::diff::{Diff, DiffError};
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

/// A page fetch: `count` contiguous pages from `first`, all homed on the
/// destination. A fault asks for one page; a bulk read coalesces a run of
/// misses into one round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct PageReq {
    pub first: PageId,
    pub count: u32,
    pub requester: usize,
    pub reply_tag: u64,
}

/// A request handled by a communication thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmMsg {
    /// Fetch the up-to-date copies of a run of pages from their home.
    ReqPages(PageReq),
    /// Merge diffs for several pages homed here, acknowledged as one unit
    /// (`pages[i]` pairs with `diffs[i]`; one ack per batch, not per page).
    DiffBatch {
        requester: usize,
        reply_tag: u64,
        pages: Vec<PageId>,
        diffs: Vec<Diff>,
    },
    /// Full-page content pushed by a home: the merged page to a migrated
    /// home (multi-writer migration, or the answer to a
    /// [`DsmMsg::PushReq`]), or to the page's sharers when the departure
    /// chose the update protocol for it.
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
    /// shape, both sorted. On the wire each page's pairs form its node
    /// list, and consecutive pages with equal node lists one run.
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

/// The maximal runs of `items`, each as its head and length: an item
/// joins the open run when `joins(head, len, item)`.
fn runs<T>(
    items: impl IntoIterator<Item = T>,
    joins: impl Fn(&T, u32, &T) -> bool,
) -> Vec<(T, u32)> {
    let mut out: Vec<(T, u32)> = Vec::new();
    for item in items {
        match out.last_mut() {
            Some((head, len)) if joins(head, *len, &item) => *len += 1,
            _ => out.push((item, 1)),
        }
    }
    out
}

/// Check one run head against the page table and the previous run of its
/// list: non-empty, inside `extent`, and starting at or past the previous
/// end. Tracks that end; `adjacent` says the run starts exactly there, so
/// its caller must find its attributes different from the previous run's.
struct RunCheck {
    extent: usize,
    prev_end: Option<u64>,
}

/// A checked run: pages `first..end`.
struct Run {
    first: u64,
    end: u64,
    adjacent: bool,
}

impl RunCheck {
    fn new(extent: usize) -> Self {
        RunCheck {
            extent,
            prev_end: None,
        }
    }

    fn next(&mut self, r: &mut Reader<'_>) -> Result<Run, DecodeError> {
        let first = r.u64()?;
        let len = r.u32()?;
        if len == 0 {
            return Err(DecodeError::EmptyRun { first });
        }
        let end = run_end(first, len, self.extent)?;
        let adjacent = match self.prev_end {
            Some(prev_end) if first < prev_end => {
                return Err(DecodeError::RunOrder { first, prev_end })
            }
            prev_end => prev_end == Some(first),
        };
        self.prev_end = Some(end);
        Ok(Run {
            first,
            end,
            adjacent,
        })
    }
}

/// A page set as `(first, len)` runs of consecutive pages, ascending.
fn encode_pages(w: &mut Writer, pages: &[PageId]) {
    let runs = runs(pages, |&&head, len, &&page| page == head + len as usize);
    if !runs.is_sorted_by(|a, b| a.0 + a.1 as usize <= *b.0) {
        // Not ascending: the runs overlap or go back. Every list the
        // protocol builds is already in order; the check costs one pass
        // over the runs, not the pages.
        let mut sorted = pages.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        return encode_pages(w, &sorted);
    }
    w.u32(runs.len() as u32);
    for (&first, len) in runs {
        w.u64(first as u64).u32(len);
    }
}

fn decode_pages(r: &mut Reader<'_>, extent: usize) -> Result<Vec<PageId>, DecodeError> {
    // Each run is a first page and a length.
    let runs = r.count(12)?;
    let mut check = RunCheck::new(extent);
    let mut out = Vec::new();
    for _ in 0..runs {
        let run = check.next(r)?;
        if run.adjacent {
            return Err(DecodeError::RunSplit { first: run.first });
        }
        out.extend(run.first as PageId..run.end as PageId);
    }
    Ok(out)
}

/// One page of the receiver's table: a run of one that travels without
/// its length.
fn decode_page(r: &mut Reader<'_>, extent: usize) -> Result<PageId, DecodeError> {
    let page = r.u64()?;
    run_end(page, 1, extent)?;
    Ok(page as PageId)
}

/// The end of the run `first..first + len`, if it lies inside the table.
fn run_end(first: u64, len: u32, extent: usize) -> Result<u64, DecodeError> {
    (first.checked_add(len as u64))
        .filter(|&end| end <= extent as u64)
        .ok_or(DecodeError::RunExtent { first, len, extent })
}

/// The run a fetch frame names: one page in a short frame (`one`), two or
/// more in a long one, inside the table.
fn fetch_run(first: u64, count: u32, one: bool, extent: usize) -> Result<PageId, DecodeError> {
    match count {
        0 => return Err(DecodeError::EmptyRun { first }),
        1 if !one => return Err(DecodeError::LoneRun { first }),
        _ => {}
    }
    run_end(first, count, extent)?;
    Ok(first as PageId)
}

/// Page data: exactly one whole page (`one`), or a non-empty run of them.
fn decode_page_data(r: &mut Reader<'_>, one: bool) -> Result<Bytes, DecodeError> {
    let data = r.lp_bytes()?;
    let (len, page_size) = (data.len(), PAGE_SIZE);
    if one && len != page_size {
        return Err(DecodeError::NotAPage { len, page_size });
    }
    if len == 0 || !len.is_multiple_of(page_size) {
        return Err(DecodeError::NotWholePages { len, page_size });
    }
    Ok(Bytes::copy_from_slice(data))
}

fn decode_node(r: &mut Reader<'_>, nnodes: usize) -> Result<usize, DecodeError> {
    let node = r.u32()?;
    if node as usize >= nnodes {
        return Err(DecodeError::NodeRange { node, nnodes });
    }
    Ok(node as usize)
}

/// A counted, strictly ascending list of nodes of the cluster.
fn decode_nodes(r: &mut Reader<'_>, nnodes: usize) -> Result<Vec<usize>, DecodeError> {
    let n = r.count(4)?;
    let mut out: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..n {
        let node = decode_node(r, nnodes)?;
        if let Some(&after) = out.last() {
            if node <= after {
                return Err(DecodeError::NodeOrder {
                    node: node as u32,
                    after: after as u32,
                });
            }
        }
        out.push(node);
    }
    Ok(out)
}

fn encode_nodes(w: &mut Writer, nodes: impl ExactSizeIterator<Item = usize>) {
    w.u32(nodes.len() as u32);
    for node in nodes {
        w.u32(node as u32);
    }
}

/// Encode a `(page, node)` pair set — the shared shape of `BarrierUp`
/// writers and readers — as `(first, len, [node])` runs, ascending: the
/// pairs of each page form its node list, and consecutive pages with equal
/// node lists form one run.
fn encode_page_nodes(w: &mut Writer, pairs: &[(PageId, usize)]) {
    // Each page's pairs. (`chunk_by` says the same, at several times the
    // cost in an unoptimised build.)
    let mut rest = pairs;
    let pages = std::iter::from_fn(|| {
        let page = rest.first()?.0;
        let mut n = 1;
        while n < rest.len() && rest[n].0 == page {
            n += 1;
        }
        let (head, tail) = rest.split_at(n);
        rest = tail;
        Some(head)
    });
    let same_nodes = |a: &[(PageId, usize)], b: &[(PageId, usize)]| {
        a.len() == b.len() && (0..a.len()).all(|i| a[i].1 == b[i].1)
    };
    let runs = runs(pages, |head, len, page| {
        page[0].0 == head[0].0 + len as usize && same_nodes(head, page)
    });
    let ascending = runs.is_sorted_by(|a, b| a.0[0].0 + a.1 as usize <= b.0[0].0)
        && runs
            .iter()
            .all(|(head, _)| head.is_sorted_by(|a, b| a.1 < b.1));
    if !ascending {
        // As in `encode_pages`: order the set once, then encode it.
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        return encode_page_nodes(w, &sorted);
    }
    w.u32(runs.len() as u32);
    for (head, len) in runs {
        w.u64(head[0].0 as u64).u32(len);
        encode_nodes(w, head.iter().map(|&(_, node)| node));
    }
}

/// The inverse of [`encode_page_nodes`]: at most `extent × nnodes` pairs.
fn decode_page_nodes(
    r: &mut Reader<'_>,
    extent: usize,
    nnodes: usize,
) -> Result<Vec<(PageId, usize)>, DecodeError> {
    // Each run is a first page, a length and a node count.
    let runs = r.count(16)?;
    let mut check = RunCheck::new(extent);
    let mut out = Vec::new();
    let mut prev: Vec<usize> = Vec::new();
    for _ in 0..runs {
        let run = check.next(r)?;
        let nodes = decode_nodes(r, nnodes)?;
        if nodes.is_empty() {
            return Err(DecodeError::EmptyRun { first: run.first });
        }
        if run.adjacent && nodes == prev {
            return Err(DecodeError::RunSplit { first: run.first });
        }
        out.reserve((run.end - run.first) as usize * nodes.len());
        for page in run.first as PageId..run.end as PageId {
            for &node in &nodes {
                out.push((page, node));
            }
        }
        prev = nodes;
    }
    Ok(out)
}

impl DsmMsg {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            DsmMsg::ReqPages(req) => {
                // A lone page travels without its count.
                if req.count == 1 {
                    w.u8(K_REQ_PAGE).u64(req.first as u64);
                } else {
                    w.u8(K_REQ_PAGE_RANGE).u64(req.first as u64).u32(req.count);
                }
                w.u32(req.requester as u32).u64(req.reply_tag);
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

    /// Decode an untrusted payload for a receiver whose page table holds
    /// `extent` pages in a cluster of `nnodes` nodes. Every length, count,
    /// and run is validated; every frame names only pages of the table and
    /// nodes of the cluster (a fetch is a run inside the table, of one page
    /// in the short frame and more in the long one), and a barrier or lock
    /// frame's page lists must be canonical (see the module doc). Malformed bytes yield a [`DiffError`], never a
    /// panic or an allocation past what `extent` and `nnodes` bound.
    pub fn try_decode(b: &[u8], extent: usize, nnodes: usize) -> Result<DsmMsg, DiffError> {
        let mut r = Reader::new(b);
        let msg = match r.u8()? {
            k @ (K_REQ_PAGE | K_REQ_PAGE_RANGE) => {
                let (first, one) = (r.u64()?, k == K_REQ_PAGE);
                let count = if one { 1 } else { r.u32()? };
                DsmMsg::ReqPages(PageReq {
                    first: fetch_run(first, count, one, extent)?,
                    count,
                    requester: decode_node(&mut r, nnodes)?,
                    reply_tag: r.u64()?,
                })
            }
            K_DIFF_BATCH => {
                let requester = decode_node(&mut r, nnodes)?;
                let reply_tag = r.u64()?;
                // Each entry is at least a page id plus an empty diff.
                let n = r.count(12)?;
                let mut pages = Vec::with_capacity(n);
                let mut diffs = Vec::with_capacity(n);
                for _ in 0..n {
                    pages.push(decode_page(&mut r, extent)?);
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
                page: decode_page(&mut r, extent)?,
                barrier_seq: r.u64()?,
                data: decode_page_data(&mut r, true)?,
            },
            K_BARRIER_ARRIVE => DsmMsg::BarrierArrive {
                seq: r.u64()?,
                node: decode_node(&mut r, nnodes)?,
                reply_tag: r.u64()?,
                notices: decode_pages(&mut r, extent)?,
                reads: decode_pages(&mut r, extent)?,
            },
            K_BARRIER_UP => DsmMsg::BarrierUp {
                seq: r.u64()?,
                members: r.list(12, |r| {
                    Ok::<_, DecodeError>((decode_node(r, nnodes)?, r.u64()?))
                })?,
                writers: decode_page_nodes(&mut r, extent, nnodes)?,
                readers: decode_page_nodes(&mut r, extent, nnodes)?,
            },
            K_LOCK_ACQ => DsmMsg::LockAcq {
                lock: r.u64()?,
                node: decode_node(&mut r, nnodes)?,
                reply_tag: r.u64()?,
                last_seen: r.u64()?,
            },
            K_LOCK_REL => DsmMsg::LockRel {
                lock: r.u64()?,
                node: decode_node(&mut r, nnodes)?,
                notices: decode_pages(&mut r, extent)?,
            },
            K_PUSH_REQ => DsmMsg::PushReq {
                page: decode_page(&mut r, extent)?,
                barrier_seq: r.u64()?,
                requester: decode_node(&mut r, nnodes)?,
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

    /// Everything but the page is equal: consecutive pages with the same
    /// decision travel as one run.
    fn same_decision(&self, other: &DepartEntry) -> bool {
        self.old_home == other.old_home
            && self.new_home == other.new_home
            && self.multi_writer == other.multi_writer
            && self.update == other.update
            // Element by element, not `==` on the slices: that is a `memcmp`
            // call, and on an empty vector's dangling pointer glibc's
            // AVX-512 `memcmp` pays a masked-load assist. Once per entry of
            // every departure, it cost `stencil_local` 6 % of its host CPU.
            && self.sharers.iter().eq(&other.sharers)
    }
}

/// The inverse of the departure's run encoding: at most `extent` entries.
fn decode_depart_entries(
    r: &mut Reader<'_>,
    extent: usize,
    nnodes: usize,
) -> Result<Vec<DepartEntry>, DecodeError> {
    // Each run is a first page, a length, two homes, flags and a count.
    let runs = r.count(25)?;
    let mut check = RunCheck::new(extent);
    let mut out: Vec<DepartEntry> = Vec::new();
    for _ in 0..runs {
        let run = check.next(r)?;
        let old_home = decode_node(r, nnodes)?;
        let new_home = decode_node(r, nnodes)?;
        let flags = r.u8()?;
        let e = DepartEntry {
            page: run.first as PageId,
            old_home,
            new_home,
            multi_writer: flags & 1 != 0,
            update: flags & 2 != 0,
            sharers: decode_nodes(r, nnodes)?,
        };
        if run.adjacent && out.last().is_some_and(|prev| prev.same_decision(&e)) {
            return Err(DecodeError::RunSplit { first: run.first });
        }
        out.reserve((run.end - run.first) as usize);
        for page in run.first as PageId..run.end as PageId {
            out.push(DepartEntry { page, ..e.clone() });
        }
    }
    Ok(out)
}

/// A reply sent back to a waiting application thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmReply {
    /// The answer to a [`DsmMsg::ReqPages`]: its pages from `first`,
    /// concatenated.
    Pages {
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
            DsmReply::Pages { first, data } => {
                let kind = if data.len() == PAGE_SIZE {
                    R_PAGE_DATA
                } else {
                    R_PAGE_RANGE_DATA
                };
                w.u8(kind).u64(*first as u64).lp_bytes(data);
            }
            DsmReply::DiffBatchAck { pages } => {
                w.u8(R_DIFF_BATCH_ACK).u32(*pages);
            }
            DsmReply::BarrierDepart { seq, entries } => {
                let runs = runs(entries, |head, len, e| {
                    e.page == head.page + len as usize && head.same_decision(e)
                });
                w.u8(R_BARRIER_DEPART).u64(*seq).u32(runs.len() as u32);
                for (e, len) in runs {
                    let flags = e.multi_writer as u8 | (e.update as u8) << 1;
                    w.u64(e.page as u64)
                        .u32(len)
                        .u32(e.old_home as u32)
                        .u32(e.new_home as u32)
                        .u8(flags);
                    encode_nodes(&mut w, e.sharers.iter().copied());
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
    pub fn try_decode(b: &[u8], extent: usize, nnodes: usize) -> Result<DsmReply, DecodeError> {
        let mut r = Reader::new(b);
        let reply = match r.u8()? {
            k @ (R_PAGE_DATA | R_PAGE_RANGE_DATA) => {
                let (first, one) = (r.u64()?, k == R_PAGE_DATA);
                let data = decode_page_data(&mut r, one)?;
                // At most `u32::MAX` bytes, so the page count fits a `u32`.
                let count = (data.len() / PAGE_SIZE) as u32;
                DsmReply::Pages {
                    first: fetch_run(first, count, one, extent)?,
                    data,
                }
            }
            R_DIFF_BATCH_ACK => DsmReply::DiffBatchAck { pages: r.u32()? },
            R_BARRIER_DEPART => DsmReply::BarrierDepart {
                seq: r.u64()?,
                entries: decode_depart_entries(&mut r, extent, nnodes)?,
            },
            R_LOCK_GRANT => DsmReply::LockGrant {
                cur_seq: r.u64()?,
                notices: decode_pages(&mut r, extent)?,
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
            DsmMsg::ReqPages(PageReq {
                first: 42,
                count: 1,
                requester: 3,
                reply_tag: REPLY_TAG_BASE + 7,
            }),
            DsmMsg::ReqPages(PageReq {
                first: 40,
                count: 6,
                requester: 2,
                reply_tag: REPLY_TAG_BASE + 9,
            }),
            DsmMsg::DiffBatch {
                requester: 2,
                reply_tag: REPLY_TAG_BASE + 3,
                pages: vec![4, 9],
                diffs: vec![page_diff(&[8]), page_diff(&[0, 4088])],
            },
            DsmMsg::PagePush {
                page: 5,
                barrier_seq: 12,
                data: Bytes::from(vec![7u8; PAGE_SIZE]),
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

    /// One reply of every kind (two `Pages`: one page, and a run).
    fn sample_replies() -> Vec<DsmReply> {
        vec![
            DsmReply::Pages {
                first: 1,
                data: Bytes::from(vec![1u8; PAGE_SIZE]),
            },
            DsmReply::Pages {
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
        ]
    }

    /// The receiving node's page-table extent and node count the samples
    /// are decoded against.
    const EXTENT: usize = 4100;
    const NNODES: usize = 4;

    fn decode_msg(b: &[u8]) -> Result<DsmMsg, DiffError> {
        DsmMsg::try_decode(b, EXTENT, NNODES)
    }

    fn decode_reply(b: &[u8]) -> Result<DsmReply, DecodeError> {
        DsmReply::try_decode(b, EXTENT, NNODES)
    }

    /// The three barrier frames over one run of `pages` contiguous pages,
    /// each written by node 1 alone.
    fn one_run(pages: usize) -> (DsmMsg, DsmMsg, DsmReply) {
        let run = 4..4 + pages;
        let arrive = DsmMsg::BarrierArrive {
            seq: 7,
            node: 1,
            reply_tag: REPLY_TAG_BASE,
            notices: run.clone().collect(),
            reads: vec![],
        };
        let up = DsmMsg::BarrierUp {
            seq: 7,
            members: vec![(1, REPLY_TAG_BASE)],
            writers: run.clone().map(|p| (p, 1)).collect(),
            readers: vec![],
        };
        let depart = DsmReply::BarrierDepart {
            seq: 7,
            entries: run
                .map(|p| DepartEntry::invalidate(p, 0, 1, false))
                .collect(),
        };
        (arrive, up, depart)
    }

    #[test]
    fn request_and_reply_codecs_are_checked() {
        assert_codec(&sample_msgs(), DsmMsg::encode, decode_msg);
        assert_codec(&sample_replies(), DsmReply::encode, decode_reply);
        assert_eq!(decode_msg(&[0xEE]), Err(DecodeError::BadKind(0xEE).into()));
        assert_eq!(decode_reply(&[0xEE]), Err(DecodeError::BadKind(0xEE)));
    }

    /// The codec contract over frames that expand to one long run, decoded
    /// against an extent that ends where the run does: a mutated length or
    /// first page rarely decodes, and never to more than the run's end.
    /// Apart from the samples above, as each mutated `seq` re-expands the
    /// whole run.
    #[test]
    fn a_long_run_keeps_the_codec_contract() {
        const PAGES: usize = 256;
        let extent = 4 + PAGES;
        let (arrive, up, depart) = one_run(PAGES);
        assert_codec(&[arrive, up], DsmMsg::encode, |b| {
            DsmMsg::try_decode(b, extent, NNODES)
        });
        assert_codec(&[depart], DsmReply::encode, |b| {
            DsmReply::try_decode(b, extent, NNODES)
        });
    }

    #[test]
    fn a_contiguous_run_costs_what_one_page_costs() {
        let sizes = |pages| {
            let (arrive, up, depart) = one_run(pages);
            [arrive.encode(), up.encode(), depart.encode()].map(|b| b.len())
        };
        assert_eq!(sizes(1), sizes(4096));
    }

    /// Page and pair lists are sets: one given out of order, or with a
    /// repeat, travels as the ordered set's runs.
    #[test]
    fn an_unordered_set_travels_in_order() {
        let arrive = |notices: Vec<PageId>| DsmMsg::BarrierArrive {
            seq: 1,
            node: 1,
            reply_tag: REPLY_TAG_BASE,
            notices,
            reads: vec![],
        };
        let up = |writers: Vec<(PageId, usize)>| DsmMsg::BarrierUp {
            seq: 1,
            members: vec![],
            writers,
            readers: vec![],
        };
        for (given, ordered) in [
            (arrive(vec![9, 5, 6, 5]), arrive(vec![5, 6, 9])),
            (arrive(vec![6, 7, 4, 5]), arrive(vec![4, 5, 6, 7])),
            (up(vec![(9, 2), (5, 3)]), up(vec![(5, 3), (9, 2)])),
            (
                up(vec![(5, 3), (5, 1), (6, 1)]),
                up(vec![(5, 1), (5, 3), (6, 1)]),
            ),
        ] {
            assert_eq!(given.encode(), ordered.encode());
            assert_eq!(decode_msg(&given.encode()), Ok(ordered));
        }
    }

    /// Every non-canonical or out-of-range run or node list is a named
    /// error, found before a run is expanded.
    #[test]
    fn hostile_runs_and_node_lists_are_refused() {
        // A `BarrierArrive` whose write notices are the `(first, len)` runs.
        let arrive = |node: u32, runs: &[(u64, u32)]| {
            let mut w = Writer::new();
            w.u8(K_BARRIER_ARRIVE).u64(1).u32(node).u64(REPLY_TAG_BASE);
            w.u32(runs.len() as u32);
            for &(first, len) in runs {
                w.u64(first).u32(len);
            }
            w.u32(0);
            decode_msg(&w.finish())
        };
        let refused = |e: DecodeError| Err(DiffError::Frame(e));
        let extent = EXTENT;
        assert!(arrive(1, &[(4, 2), (9, 1)]).is_ok());
        assert_eq!(
            arrive(1, &[(4099, 2)]),
            refused(DecodeError::RunExtent {
                first: 4099,
                len: 2,
                extent
            })
        );
        // A length that would size a 32 GB expansion, and a first page
        // whose end wraps: both past the extent, neither allocated.
        assert_eq!(
            arrive(1, &[(0, u32::MAX)]),
            refused(DecodeError::RunExtent {
                first: 0,
                len: u32::MAX,
                extent
            })
        );
        assert_eq!(
            arrive(1, &[(u64::MAX, 1)]),
            refused(DecodeError::RunExtent {
                first: u64::MAX,
                len: 1,
                extent
            })
        );
        assert_eq!(
            arrive(1, &[(5, 0)]),
            refused(DecodeError::EmptyRun { first: 5 })
        );
        assert_eq!(
            arrive(1, &[(5, 3), (6, 1)]),
            refused(DecodeError::RunOrder {
                first: 6,
                prev_end: 8
            })
        );
        assert_eq!(
            arrive(1, &[(9, 1), (5, 1)]),
            refused(DecodeError::RunOrder {
                first: 5,
                prev_end: 10
            })
        );
        assert_eq!(
            arrive(1, &[(5, 2), (7, 1)]),
            refused(DecodeError::RunSplit { first: 7 })
        );
        assert_eq!(
            arrive(4, &[]),
            refused(DecodeError::NodeRange { node: 4, nnodes: 4 })
        );

        // A `BarrierUp` whose writers are the `(first, len, [node])` runs.
        let up = |member: u32, runs: &[(u64, u32, &[u32])]| {
            let mut w = Writer::new();
            w.u8(K_BARRIER_UP)
                .u64(1)
                .u32(1)
                .u32(member)
                .u64(REPLY_TAG_BASE);
            w.u32(runs.len() as u32);
            for &(first, len, nodes) in runs {
                w.u64(first).u32(len).u32(nodes.len() as u32);
                for &n in nodes {
                    w.u32(n);
                }
            }
            w.u32(0);
            decode_msg(&w.finish())
        };
        assert!(up(1, &[(4, 2, &[1, 3]), (6, 1, &[1])]).is_ok());
        assert_eq!(
            up(1, &[(4, 2, &[1]), (6, 1, &[1])]),
            refused(DecodeError::RunSplit { first: 6 })
        );
        assert_eq!(
            up(1, &[(4, 1, &[])]),
            refused(DecodeError::EmptyRun { first: 4 })
        );
        assert_eq!(
            up(1, &[(4, 1, &[2, 1])]),
            refused(DecodeError::NodeOrder { node: 1, after: 2 })
        );
        assert_eq!(
            up(1, &[(4, 1, &[1, 1])]),
            refused(DecodeError::NodeOrder { node: 1, after: 1 })
        );
        assert_eq!(
            up(1, &[(4, 1, &[1, 4])]),
            refused(DecodeError::NodeRange { node: 4, nnodes: 4 })
        );
        assert_eq!(
            up(7, &[]),
            refused(DecodeError::NodeRange { node: 7, nnodes: 4 })
        );
        assert_eq!(
            up(1, &[(4100, 1, &[1])]),
            refused(DecodeError::RunExtent {
                first: 4100,
                len: 1,
                extent
            })
        );

        // A `BarrierDepart` of `(first, len, old home, new home, flags,
        // [sharers])` runs.
        type DepartRun<'a> = (u64, u32, u32, u32, u8, &'a [u32]);
        let depart = |runs: &[DepartRun]| {
            let mut w = Writer::new();
            w.u8(R_BARRIER_DEPART).u64(1).u32(runs.len() as u32);
            for &(first, len, old, new, flags, sharers) in runs {
                w.u64(first).u32(len).u32(old).u32(new).u8(flags);
                w.u32(sharers.len() as u32);
                for &n in sharers {
                    w.u32(n);
                }
            }
            decode_reply(&w.finish())
        };
        assert!(depart(&[(4, 2, 0, 1, 0, &[]), (6, 1, 0, 1, 2, &[2, 3])]).is_ok());
        assert_eq!(
            depart(&[(4, 2, 0, 1, 2, &[2]), (6, 1, 0, 1, 2, &[2])]),
            Err(DecodeError::RunSplit { first: 6 })
        );
        assert_eq!(
            depart(&[(4, 2, 0, 1, 0, &[]), (5, 1, 0, 2, 0, &[])]),
            Err(DecodeError::RunOrder {
                first: 5,
                prev_end: 6
            })
        );
        assert_eq!(
            depart(&[(4, 1, 0, 1, 2, &[3, 2])]),
            Err(DecodeError::NodeOrder { node: 2, after: 3 })
        );
        assert_eq!(
            depart(&[(4, 1, 0, 9, 0, &[])]),
            Err(DecodeError::NodeRange { node: 9, nnodes: 4 })
        );
        assert_eq!(
            depart(&[(4, 0, 0, 1, 0, &[])]),
            Err(DecodeError::EmptyRun { first: 4 })
        );
    }

    /// Every page a request names lies in the receiver's table, and every
    /// node in the cluster: the last page and node keep the codec
    /// contract, one past either is refused by name.
    #[test]
    fn requests_are_held_to_the_table_and_the_cluster() {
        let (page, node) = (EXTENT - 1, NNODES - 1);
        let tag = REPLY_TAG_BASE;
        let range = |first, count, requester| {
            DsmMsg::ReqPages(PageReq {
                first,
                count,
                requester,
                reply_tag: tag,
            })
        };
        let req = |page, requester| range(page, 1, requester);
        let batch = |page, requester| DsmMsg::DiffBatch {
            requester,
            reply_tag: tag,
            pages: vec![3, page],
            diffs: vec![page_diff(&[8]), page_diff(&[0])],
        };
        let push = |page| DsmMsg::PagePush {
            page,
            barrier_seq: 2,
            data: Bytes::from(vec![1u8; PAGE_SIZE]),
        };
        let push_req = |page, requester| DsmMsg::PushReq {
            page,
            barrier_seq: 2,
            requester,
        };
        let acq = |node| DsmMsg::LockAcq {
            lock: 1,
            node,
            reply_tag: tag,
            last_seen: 0,
        };
        let rel = |node| DsmMsg::LockRel {
            lock: 1,
            node,
            notices: vec![page],
        };
        let edge = [
            req(page, node),
            range(EXTENT - 6, 6, node),
            batch(page, node),
            push(page),
            push_req(page, node),
            acq(node),
            rel(node),
        ];
        assert_codec(&edge, DsmMsg::encode, decode_msg);

        let extent = |first, len| DecodeError::RunExtent {
            first,
            len,
            extent: EXTENT,
        };
        let node_range = DecodeError::NodeRange {
            node: NNODES as u32,
            nnodes: NNODES,
        };
        let past = EXTENT as u64;
        for (msg, want) in [
            (req(EXTENT, 0), extent(past, 1)),
            (req(0, NNODES), node_range.clone()),
            (range(EXTENT - 5, 6, 0), extent(past - 5, 6)),
            (range(usize::MAX, 2, 0), extent(u64::MAX, 2)),
            (range(7, 0, 0), DecodeError::EmptyRun { first: 7 }),
            (range(0, 2, NNODES), node_range.clone()),
            (batch(EXTENT, 0), extent(past, 1)),
            (batch(0, NNODES), node_range.clone()),
            (push(EXTENT), extent(past, 1)),
            (push_req(EXTENT, 0), extent(past, 1)),
            (push_req(0, NNODES), node_range.clone()),
            (acq(NNODES), node_range.clone()),
            (rel(NNODES), node_range),
        ] {
            assert_eq!(decode_msg(&msg.encode()), Err(want.into()), "{msg:?}");
        }
        // A lone page in the range frame: no encoder writes it.
        let mut w = Writer::new();
        w.u8(K_REQ_PAGE_RANGE).u64(7).u32(1).u32(0).u64(tag);
        assert_eq!(
            decode_msg(&w.finish()),
            Err(DecodeError::LoneRun { first: 7 }.into())
        );
    }

    /// A page-carrying frame carries whole pages of the table: at the last
    /// page it keeps the codec contract; one byte short, one page past the
    /// extent, or a lone page in the range frame, it is refused by name.
    #[test]
    fn page_frames_carry_whole_pages_inside_the_table() {
        let last = EXTENT - 1;
        let pages = |n: usize, short: usize| Bytes::from(vec![5u8; n * PAGE_SIZE - short]);
        let push = |page, data| DsmMsg::PagePush {
            page,
            barrier_seq: 2,
            data,
        };
        let reply = |first, data| DsmReply::Pages { first, data };
        // The last-page `PagePush` is `requests_are_held_to_the_table_and_the_cluster`'s.
        assert_codec(
            &[reply(last - 1, pages(2, 0))],
            DsmReply::encode,
            decode_reply,
        );
        let one = reply(last, pages(1, 0));
        assert_eq!(decode_reply(&one.encode()), Ok(one));

        let not_a_page = DecodeError::NotAPage {
            len: PAGE_SIZE - 1,
            page_size: PAGE_SIZE,
        };
        let not_whole = |len| DecodeError::NotWholePages {
            len,
            page_size: PAGE_SIZE,
        };
        let extent = |first, len| DecodeError::RunExtent {
            first,
            len,
            extent: EXTENT,
        };
        assert_eq!(
            decode_msg(&push(last, pages(1, 1)).encode()),
            Err(not_a_page.clone().into())
        );
        assert_eq!(
            decode_msg(&push(EXTENT, pages(1, 0)).encode()),
            Err(extent(EXTENT as u64, 1).into())
        );
        // A reply frame of either kind, whatever its data.
        let frame = |kind, first: usize, data: Bytes| {
            let mut w = Writer::new();
            w.u8(kind).u64(first as u64).lp_bytes(&data);
            w.finish()
        };
        for (bytes, want) in [
            (frame(R_PAGE_DATA, last, pages(1, 1)), not_a_page),
            (
                frame(R_PAGE_DATA, EXTENT, pages(1, 0)),
                extent(EXTENT as u64, 1),
            ),
            (
                frame(R_PAGE_RANGE_DATA, last - 1, pages(2, 1)),
                not_whole(2 * PAGE_SIZE - 1),
            ),
            (frame(R_PAGE_RANGE_DATA, last, pages(0, 0)), not_whole(0)),
            (
                frame(R_PAGE_RANGE_DATA, last, pages(1, 0)),
                DecodeError::LoneRun { first: last as u64 },
            ),
            (
                frame(R_PAGE_RANGE_DATA, last, pages(2, 0)),
                extent(last as u64, 2),
            ),
            (
                frame(R_PAGE_RANGE_DATA, usize::MAX, pages(2, 0)),
                extent(u64::MAX, 2),
            ),
        ] {
            assert_eq!(decode_reply(&bytes), Err(want));
        }
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test. The
    /// exceptions: `LockAcq`, one byte shorter than at the parent (the
    /// trailing `polling` flag `00` went with `LockKind::Polling`), the
    /// `PagePush` and one-page `Pages` samples, which carry one whole page
    /// since the decoders refuse anything else (the header bytes but the
    /// length are as they were), and the range-frame `Pages` sample, which
    /// carries two: a lone page has its own frame, and the range frame
    /// refuses one.
    #[test]
    fn wire_bytes_are_pinned() {
        // The page-carrying frames: a header, then pages of one byte.
        let page = |header: &str, byte: &str| header.to_string() + &byte.repeat(PAGE_SIZE);
        let push = page("0305000000000000000c0000000000000000100000", "07");
        let page_data = page("01010000000000000000100000", "01");
        let range_data = page("070c0000000000000000200000", "0909");
        let msgs = [
            "012a00000000000000030000000700000001000000",
            "09280000000000000006000000020000000900000001000000",
            "0802000000030000000100000002000000040000000000000001000000080000\
             0008000000030000000000000009000000000000000200000000000000080000\
             000300000000000000f80f0000080000000300000000000000",
            &push,
            "0b05000000000000000c0000000000000001000000",
            "0404000000000000000200000001000000010000000200000001000000000000\
             00020000001e0000000000000001000000010000000500000000000000020000\
             00",
            "0a09000000000000000200000002000000040000000100000003000000050000\
             0001000000020000000700000000000000010000000100000002000000080000\
             0000000000010000000200000002000000030000000100000007000000000000\
             00010000000100000003000000",
            "0a0a000000000000000100000001000000000000000100000000000000000000\
             00",
            "0506000000000000000000000002000000010000000b00000000000000",
            "0606000000000000000000000001000000630000000000000001000000",
            "07",
        ];
        let replies = [
            &page_data,
            &range_data,
            "0611000000",
            "030300000000000000030000000a000000000000000100000000000000020000\
             0000000000000b0000000000000001000000010000000100000001000000000c\
             0000000000000001000000020000000200000002030000000000000001000000\
             03000000",
            "04050000000000000001000000040000000000000002000000",
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
            // BarrierUp node count of the one writer run.
            unbacked(&|w| {
                w.u8(K_BARRIER_UP).u64(3).u32(0).u32(1).u64(5).u32(1);
            }),
            // BarrierUp reader-run count (after an empty writer list).
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
                decode_msg(&b),
                Err(DiffError::Frame(DecodeError::Count {
                    count: u32::MAX,
                    have: 0
                })),
                "unbacked count accepted: {b:?}"
            );
        }
        let replies = [
            // BarrierDepart run count.
            unbacked(&|w| {
                w.u8(R_BARRIER_DEPART).u64(3);
            }),
            // BarrierDepart sharer count of the one run.
            unbacked(&|w| {
                w.u8(R_BARRIER_DEPART).u64(3).u32(1);
                w.u64(9).u32(1).u32(0).u32(0).u8(2);
            }),
            // LockGrant notice-run count.
            unbacked(&|w| {
                w.u8(R_LOCK_GRANT).u64(5);
            }),
        ];
        for b in replies {
            assert_eq!(
                decode_reply(&b),
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
            decode_reply(&b),
            Err(DecodeError::Truncated { have: 0, .. })
        ));
    }
}
