//! Wire format of the scheduler protocol.
//!
//! All scheduler traffic shares one reserved point-to-point tag
//! ([`TAG_SCHED`]) with a message-kind byte in the payload; collectives are
//! never concurrent with task-phase pumping, so the scheduler can share the
//! node's communicator. Frames are cut with the workspace's one
//! `Writer`/`Reader` pair (DESIGN.md "Wire format").

use parade_mpi::datatype::{DecodeError, Reader, Writer};
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
    /// The victim's answer: half its stealable deque, up to `sched::GRAIN`
    /// tasks (possibly empty).
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

fn encode_desc(w: &mut Writer, d: &TaskDesc) {
    w.u64(d.id).u64(d.parent).u32(d.home).u32(d.func);
    match d.pinned {
        Some(p) => w.u8(1).u32(p),
        None => w.u8(0),
    };
    w.u8(d.inject as u8);
    w.u64s(&d.args).u64s(&d.deps).u64s(&d.notices);
}

fn decode_desc(r: &mut Reader<'_>) -> Result<TaskDesc, DecodeError> {
    let id = r.u64()?;
    let parent = r.u64()?;
    let home = r.u32()?;
    let func = r.u32()?;
    let pinned = if r.u8()? == 1 { Some(r.u32()?) } else { None };
    let inject = r.u8()? == 1;
    Ok(TaskDesc {
        id,
        parent,
        home,
        func,
        pinned,
        inject,
        args: r.u64s()?,
        deps: r.u64s()?,
        notices: r.u64s()?,
    })
}

fn encode_results(w: &mut Writer, rs: &[(u64, Vec<f64>)]) {
    w.u32(rs.len() as u32);
    for (id, vals) in rs {
        w.u64(*id).f64s(vals);
    }
}

fn decode_results(r: &mut Reader<'_>) -> Result<Vec<(u64, Vec<f64>)>, DecodeError> {
    // At least an id and an empty list each.
    r.list(8 + 4, |r| Ok((r.u64()?, r.f64s()?)))
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
        let mut w = Writer::with_capacity(32);
        match self {
            SchedMsg::Task(d) => {
                w.u8(K_TASK);
                encode_desc(&mut w, d);
            }
            SchedMsg::StealReq => {
                w.u8(K_STEAL_REQ);
            }
            SchedMsg::StealReply(ds) => {
                w.u8(K_STEAL_REPLY).u32(ds.len() as u32);
                for d in ds {
                    encode_desc(&mut w, d);
                }
            }
            SchedMsg::Complete {
                id,
                parent,
                result,
                notices,
            } => {
                w.u8(K_COMPLETE).u64(*id).u64(*parent);
                w.f64s(result).u64s(notices);
            }
            SchedMsg::Token { count, black } => {
                w.u8(K_TOKEN).u64(*count as u64).u8(*black as u8);
            }
            SchedMsg::Done => {
                w.u8(K_DONE);
            }
            SchedMsg::Result {
                results,
                spawned,
                executed,
            } => {
                w.u8(K_RESULT);
                encode_results(&mut w, results);
                w.u64(*spawned).u64(*executed);
            }
            SchedMsg::Merged(rs) => {
                w.u8(K_MERGED);
                encode_results(&mut w, rs);
            }
        }
        w.finish()
    }

    /// Decode a scheduler frame; malformed bytes yield a [`DecodeError`],
    /// never a panic or an allocation the frame does not back.
    pub fn try_decode(b: &[u8]) -> Result<SchedMsg, DecodeError> {
        let mut r = Reader::new(b);
        let msg = match r.u8()? {
            K_TASK => SchedMsg::Task(decode_desc(&mut r)?),
            K_STEAL_REQ => SchedMsg::StealReq,
            K_STEAL_REPLY => SchedMsg::StealReply(r.list(MIN_DESC_BYTES, decode_desc)?),
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
                results: decode_results(&mut r)?,
                spawned: r.u64()?,
                executed: r.u64()?,
            },
            K_MERGED => SchedMsg::Merged(decode_results(&mut r)?),
            k => return Err(DecodeError::BadKind(k)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parade_testkit::wire::{assert_codec, hex};

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
    fn codec_is_checked() {
        assert_codec(&samples(), SchedMsg::encode, SchedMsg::try_decode);
        assert_eq!(
            SchedMsg::try_decode(&[0xEE]),
            Err(DecodeError::BadKind(0xEE))
        );
        // Each count would size a multi-gigabyte allocation if trusted.
        for kind in [K_STEAL_REPLY, K_RESULT, K_MERGED] {
            let mut w = Writer::new();
            w.u8(kind).u32(u32::MAX);
            assert_eq!(
                SchedMsg::try_decode(&w.finish()),
                Err(DecodeError::Count {
                    count: u32::MAX,
                    have: 0
                }),
                "kind {kind}"
            );
        }
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test.
    #[test]
    fn wire_bytes_are_pinned() {
        let pinned = [
            "0108070605040302010700000000000000030000000200000001050000000103\
             0000000100000000000000ffffffffffffffff00000000000000000200000009\
             000000000000000b00000000000000010000002a00000000000000",
            "02",
            "0302000000080706050403020107000000000000000300000002000000010500\
             000001030000000100000000000000ffffffffffffffff000000000000000002\
             00000009000000000000000b00000000000000010000002a0000000000000008\
             0706050403020107000000000000000300000002000000010500000001030000\
             000100000000000000ffffffffffffffff000000000000000002000000090000\
             00000000000b00000000000000010000002a00000000000000",
            "0300000000",
            "040300000000000000010000000000000003000000000000000000f83f000000\
             0000000080ffffffffffffef7f02000000080000000000000009000000000000\
             00",
            "05fdffffffffffffff01",
            "06",
            "0702000000010000000000000001000000000000000000004005000000000000\
             000000000002000000000000000200000000000000",
            "0801000000010000000000000001000000000000000000d03f",
        ];
        let got: Vec<String> = samples().iter().map(|m| hex(&m.encode())).collect();
        assert_eq!(got, pinned);
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
