//! Wire format of the scheduler protocol.
//!
//! All scheduler traffic shares one reserved point-to-point tag
//! ([`TAG_SCHED`]) with a message-kind byte in the payload; collectives are
//! never concurrent with task-phase pumping, so the scheduler can share the
//! node's communicator. The codec is the same hand-rolled little-endian
//! style as the DSM message layer — no external serialization.

use parade_net::Bytes;

/// Reserved point-to-point tag for all scheduler messages.
pub const TAG_SCHED: u32 = 0x0054_534B; // "TSK"

/// One task: everything needed to execute it on any node.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDesc {
    /// Schedule-independent id (see `NodeSched::spawn` / `TaskCtx::spawn`).
    pub id: u64,
    /// Id of the spawning task context (root contexts use a per-node
    /// sentinel); completion decrements this parent's outstanding count.
    pub parent: u64,
    /// Node holding this task's dependency/outstanding bookkeeping — the
    /// node it was spawned on. Completions are routed here.
    pub home: u32,
    /// Kernel- or translator-defined function index.
    pub func: u32,
    /// Device node for `target` offload: the task is shipped there and is
    /// never stolen.
    pub pinned: Option<u32>,
    /// Append each dependency's result (as f64 bit patterns, in `deps`
    /// order) to `args` when the task is released — dataflow pipelines.
    pub inject: bool,
    /// Opaque argument words (captured scalars, map ranges, ...).
    pub args: Vec<u64>,
    /// Sibling task ids this task waits on (`depend` clauses, resolved to
    /// ids by the spawner).
    pub deps: Vec<u64>,
    /// DSM release notices (page ids) accumulated from completed
    /// dependencies; the executor applies them before the body runs.
    pub notices: Vec<u64>,
}

/// Scheduler protocol messages.
///
/// `Task`, `StealReq`, `StealReply` and `Complete` are *counted* by the
/// termination detector (they can create or signal work); `Token`, `Done`,
/// `Result` and `Merged` form the termination/merge protocol itself and are
/// not counted.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedMsg {
    /// Ship a ready task to another node's deque.
    Task(TaskDesc),
    /// An idle node asks a victim for work.
    StealReq,
    /// The victim's answer: half its stealable deque, up to the grain
    /// (possibly empty).
    StealReply(Vec<TaskDesc>),
    /// A task finished executing; routed to its home.
    Complete {
        id: u64,
        parent: u64,
        result: Vec<f64>,
        notices: Vec<u64>,
    },
    /// Safra's termination token.
    Token { count: i64, black: bool },
    /// Root → all: the phase terminated; send your results.
    Done,
    /// Node → root: locally-homed results plus spawn/execute counters for
    /// the exactly-once audit.
    Result {
        results: Vec<(u64, Vec<f64>)>,
        spawned: u64,
        executed: u64,
    },
    /// Root → all: the id-sorted merge of every task's result.
    Merged(Vec<(u64, Vec<f64>)>),
}

const K_TASK: u8 = 1;
const K_STEAL_REQ: u8 = 2;
const K_STEAL_REPLY: u8 = 3;
const K_COMPLETE: u8 = 4;
const K_TOKEN: u8 = 5;
const K_DONE: u8 = 6;
const K_RESULT: u8 = 7;
const K_MERGED: u8 = 8;

struct Wr(Vec<u8>);

impl Wr {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v.to_bits());
        }
    }
    fn desc(&mut self, d: &TaskDesc) {
        self.u64(d.id);
        self.u64(d.parent);
        self.u32(d.home);
        self.u32(d.func);
        match d.pinned {
            Some(p) => {
                self.u8(1);
                self.u32(p);
            }
            None => self.u8(0),
        }
        self.u8(d.inject as u8);
        self.u64s(&d.args);
        self.u64s(&d.deps);
        self.u64s(&d.notices);
    }
    fn results(&mut self, rs: &[(u64, Vec<f64>)]) {
        self.u32(rs.len() as u32);
        for (id, vals) in rs {
            self.u64(*id);
            self.f64s(vals);
        }
    }
}

/// A malformed scheduler frame (fail-stop instead of an indexing panic,
/// like `parade_dsm::DecodeError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced field.
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
    /// Bytes left over after a complete message.
    Trailing(usize),
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
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after the message"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Rd<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Rd<'a> {
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let have = self.b.len() - self.p;
        let Some(bytes) = self.b[self.p..].first_chunk::<N>() else {
            return Err(DecodeError::Truncated {
                what,
                need: N,
                have,
            });
        };
        self.p += N;
        Ok(*bytes)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>("u8")?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take("u32")?))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take("u64")?))
    }
    /// A `u32`-counted list. The count is checked against the bytes left
    /// (every element takes at least `min_each`) before it sizes the `Vec`.
    fn list<T>(
        &mut self,
        min_each: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.u32()?;
        let have = self.b.len() - self.p;
        if count as usize > have / min_each {
            return Err(DecodeError::Count { count, have });
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }
    fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        self.list(8, Self::u64)
    }
    fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        self.list(8, |r| r.u64().map(f64::from_bits))
    }
    fn desc(&mut self) -> Result<TaskDesc, DecodeError> {
        let id = self.u64()?;
        let parent = self.u64()?;
        let home = self.u32()?;
        let func = self.u32()?;
        let pinned = if self.u8()? == 1 {
            Some(self.u32()?)
        } else {
            None
        };
        let inject = self.u8()? == 1;
        Ok(TaskDesc {
            id,
            parent,
            home,
            func,
            pinned,
            inject,
            args: self.u64s()?,
            deps: self.u64s()?,
            notices: self.u64s()?,
        })
    }
    fn descs(&mut self) -> Result<Vec<TaskDesc>, DecodeError> {
        self.list(MIN_DESC_BYTES, Self::desc)
    }
    fn results(&mut self) -> Result<Vec<(u64, Vec<f64>)>, DecodeError> {
        // At least an id and an empty list each.
        self.list(8 + 4, |r| Ok((r.u64()?, r.f64s()?)))
    }
}

/// Encoded size of a [`TaskDesc`] with no pin and three empty lists.
const MIN_DESC_BYTES: usize = 8 + 8 + 4 + 4 + 1 + 1 + 3 * 4;

impl SchedMsg {
    /// True for messages the termination detector must count.
    pub fn counted(&self) -> bool {
        matches!(
            self,
            SchedMsg::Task(_)
                | SchedMsg::StealReq
                | SchedMsg::StealReply(_)
                | SchedMsg::Complete { .. }
        )
    }

    pub fn encode(&self) -> Bytes {
        let mut w = Wr(Vec::with_capacity(32));
        match self {
            SchedMsg::Task(d) => {
                w.u8(K_TASK);
                w.desc(d);
            }
            SchedMsg::StealReq => w.u8(K_STEAL_REQ),
            SchedMsg::StealReply(ds) => {
                w.u8(K_STEAL_REPLY);
                w.u32(ds.len() as u32);
                for d in ds {
                    w.desc(d);
                }
            }
            SchedMsg::Complete {
                id,
                parent,
                result,
                notices,
            } => {
                w.u8(K_COMPLETE);
                w.u64(*id);
                w.u64(*parent);
                w.f64s(result);
                w.u64s(notices);
            }
            SchedMsg::Token { count, black } => {
                w.u8(K_TOKEN);
                w.u64(*count as u64);
                w.u8(*black as u8);
            }
            SchedMsg::Done => w.u8(K_DONE),
            SchedMsg::Result {
                results,
                spawned,
                executed,
            } => {
                w.u8(K_RESULT);
                w.results(results);
                w.u64(*spawned);
                w.u64(*executed);
            }
            SchedMsg::Merged(rs) => {
                w.u8(K_MERGED);
                w.results(rs);
            }
        }
        Bytes::from(w.0)
    }

    /// Decode a scheduler frame. Every length and count is checked against
    /// the bytes actually present before it is indexed or sizes an
    /// allocation; malformed bytes yield a [`DecodeError`], never a panic.
    pub fn try_decode(b: &[u8]) -> Result<SchedMsg, DecodeError> {
        let mut r = Rd { b, p: 0 };
        let msg = match r.take::<1>("message kind")?[0] {
            K_TASK => SchedMsg::Task(r.desc()?),
            K_STEAL_REQ => SchedMsg::StealReq,
            K_STEAL_REPLY => SchedMsg::StealReply(r.descs()?),
            K_COMPLETE => SchedMsg::Complete {
                id: r.u64()?,
                parent: r.u64()?,
                result: r.f64s()?,
                notices: r.u64s()?,
            },
            K_TOKEN => SchedMsg::Token {
                count: r.u64()? as i64,
                black: r.u8()? == 1,
            },
            K_DONE => SchedMsg::Done,
            K_RESULT => SchedMsg::Result {
                results: r.results()?,
                spawned: r.u64()?,
                executed: r.u64()?,
            },
            K_MERGED => SchedMsg::Merged(r.results()?),
            k => return Err(DecodeError::BadKind(k)),
        };
        if r.p != b.len() {
            return Err(DecodeError::Trailing(b.len() - r.p));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_testkit::prelude::*;

    fn desc() -> TaskDesc {
        TaskDesc {
            id: 0x0102_0304_0506_0708,
            parent: 7,
            home: 3,
            func: 2,
            pinned: Some(5),
            inject: true,
            args: vec![1, u64::MAX, 0],
            deps: vec![9, 11],
            notices: vec![42],
        }
    }

    /// One message of every kind (two `StealReply`s: full and empty).
    fn samples() -> Vec<SchedMsg> {
        vec![
            SchedMsg::Task(desc()),
            SchedMsg::StealReq,
            SchedMsg::StealReply(vec![desc(), desc()]),
            SchedMsg::StealReply(vec![]),
            SchedMsg::Complete {
                id: 3,
                parent: 1,
                result: vec![1.5, -0.0, f64::MAX],
                notices: vec![8, 9],
            },
            SchedMsg::Token {
                count: -3,
                black: true,
            },
            SchedMsg::Done,
            SchedMsg::Result {
                results: vec![(1, vec![2.0]), (5, vec![])],
                spawned: 2,
                executed: 2,
            },
            SchedMsg::Merged(vec![(1, vec![0.25])]),
        ]
    }

    #[test]
    fn roundtrip_is_exact_and_no_prefix_decodes() {
        for m in samples() {
            let bytes = m.encode();
            assert_eq!(SchedMsg::try_decode(&bytes).as_ref(), Ok(&m));
            // Every field is pinned by a kind, a length or a count ahead of
            // it, so no proper prefix is itself a message.
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        SchedMsg::try_decode(&bytes[..cut]),
                        Err(DecodeError::Truncated { .. } | DecodeError::Count { .. })
                    ),
                    "prefix {cut}/{} of {m:?} decoded",
                    bytes.len()
                );
            }
        }
    }

    prop!(fn decode_survives_mutation((which, flips) in |r: &mut TestRng| {
        let n = r.range_usize(1, 8);
        let flips: Vec<(usize, u8)> = (0..n)
            .map(|_| (r.range_usize(0, 1 << 16), r.next_byte()))
            .collect();
        (r.range_usize(0, 1 << 16), flips)
    }) {
        let samples = samples();
        let mut bytes = samples[which % samples.len()].encode().to_vec();
        for &(pos, v) in &flips {
            let p = pos % bytes.len();
            bytes[p] ^= v;
        }
        // A structured error or some message — never a panic, and whatever
        // decodes survives its own round trip.
        if let Ok(m) = SchedMsg::try_decode(&bytes) {
            let again = m.encode();
            assert_eq!(SchedMsg::try_decode(&again).map(|m| m.encode()), Ok(again));
        }
    });

    #[test]
    fn try_decode_names_the_offending_byte_and_rejects_unbacked_counts() {
        assert_eq!(
            SchedMsg::try_decode(&[0xEE]),
            Err(DecodeError::BadKind(0xEE))
        );
        assert_eq!(
            DecodeError::BadKind(0xEE).to_string(),
            "unknown message kind byte 0xee"
        );
        assert!(matches!(
            SchedMsg::try_decode(&[]),
            Err(DecodeError::Truncated {
                need: 1,
                have: 0,
                ..
            })
        ));
        assert_eq!(
            SchedMsg::try_decode(&[K_DONE, 0]),
            Err(DecodeError::Trailing(1))
        );
        // Each count would size a multi-gigabyte allocation if trusted.
        for kind in [K_STEAL_REPLY, K_RESULT, K_MERGED] {
            let mut w = Wr(vec![kind]);
            w.u32(u32::MAX);
            assert_eq!(
                SchedMsg::try_decode(&w.0),
                Err(DecodeError::Count {
                    count: u32::MAX,
                    have: 0
                }),
                "kind {kind}"
            );
        }
    }

    #[test]
    fn counted_split_matches_termination_protocol() {
        assert!(SchedMsg::Task(desc()).counted());
        assert!(SchedMsg::StealReq.counted());
        assert!(SchedMsg::StealReply(vec![]).counted());
        assert!(SchedMsg::Complete {
            id: 0,
            parent: 0,
            result: vec![],
            notices: vec![]
        }
        .counted());
        assert!(!SchedMsg::Token {
            count: 0,
            black: false
        }
        .counted());
        assert!(!SchedMsg::Done.counted());
        assert!(!SchedMsg::Merged(vec![]).counted());
    }
}
