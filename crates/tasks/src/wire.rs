//! Wire format of the scheduler protocol.
//!
//! All scheduler traffic shares one reserved point-to-point tag
//! ([`TAG_SCHED`]) with a message-kind byte in the payload; collectives are
//! never concurrent with task-phase pumping, so the scheduler can share the
//! node's communicator. Frames are cut with the workspace's one
//! `Writer`/`Reader` pair (DESIGN.md "Wire format").
//!
//! A task travels as a [`TaskDesc`] of 16 + 8·n bytes (id, function, n
//! argument words) in a `Task` frame, once, from the node that spawned it
//! to the node its placement names. Nothing travels back per task — its
//! result joins the executing node's one `Result` frame at the end of the
//! phase.

use parade_mpi::datatype::{DecodeError, Reader, Writer};
use parade_net::Bytes;

/// Reserved point-to-point tag for all scheduler messages.
pub const TAG_SCHED: u32 = 0x0054_534B; // "TSK"

/// One task: everything needed to execute it on any node.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDesc {
    /// Schedule-independent id (see `NodeSched::spawn` / `TaskCtx::spawn`).
    pub id: u64,
    /// Kernel- or translator-defined function index.
    pub func: u32,
    /// Opaque argument words (captured scalars, block bounds, ...).
    pub args: Vec<u64>,
}

/// Scheduler protocol messages.
///
/// `Task` is *counted* by the termination detector (it moves work);
/// `Token`, `Done` and `Result` form the termination/merge protocol itself
/// and are not counted.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedMsg {
    /// Ship a spawned task to the node its placement names.
    Task(TaskDesc),
    /// Safra's termination token.
    Token { count: i64, black: bool },
    /// Root → all: the phase terminated; send your results.
    Done,
    /// Node → every other node: the results of the tasks this node ran,
    /// spawn/execute counters for the exactly-once audit, and whether the
    /// node wrote a shared page during the phase. Each node merges the
    /// `nnodes` contributions itself.
    Result {
        results: Vec<(u64, Vec<f64>)>,
        spawned: u64,
        executed: u64,
        wrote: bool,
    },
}

// Kind bytes are pinned by `wire_bytes_are_pinned`; 2, 3 and 4 are retired.
const K_TASK: u8 = 1;
const K_TOKEN: u8 = 5;
const K_DONE: u8 = 6;
const K_RESULT: u8 = 7;

fn encode_desc(w: &mut Writer, d: &TaskDesc) {
    w.u64(d.id).u32(d.func).u64s(&d.args);
}

fn decode_desc(r: &mut Reader<'_>) -> Result<TaskDesc, DecodeError> {
    Ok(TaskDesc {
        id: r.u64()?,
        func: r.u32()?,
        args: r.u64s()?,
    })
}

impl SchedMsg {
    /// True for messages the termination detector must count.
    pub fn counted(&self) -> bool {
        matches!(self, SchedMsg::Task(_))
    }

    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(32);
        match self {
            SchedMsg::Task(d) => {
                w.u8(K_TASK);
                encode_desc(&mut w, d);
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
                wrote,
            } => {
                w.u8(K_RESULT).u32(results.len() as u32);
                for (id, vals) in results {
                    w.u64(*id).f64s(vals);
                }
                w.u64(*spawned).u64(*executed).u8(*wrote as u8);
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
            K_TOKEN => SchedMsg::Token {
                count: r.u64()? as i64,
                black: r.u8()? == 1,
            },
            K_DONE => SchedMsg::Done,
            K_RESULT => SchedMsg::Result {
                // At least an id and an empty list each.
                results: r.list(8 + 4, |r| Ok((r.u64()?, r.f64s()?)))?,
                spawned: r.u64()?,
                executed: r.u64()?,
                wrote: r.u8()? == 1,
            },
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
            func: 2,
            args: vec![1, u64::MAX, 0],
        }
    }

    /// One message of every kind.
    fn samples() -> Vec<SchedMsg> {
        vec![
            SchedMsg::Task(desc()),
            SchedMsg::Token {
                count: -3,
                black: true,
            },
            SchedMsg::Done,
            SchedMsg::Result {
                results: vec![(1, vec![2.0]), (5, vec![])],
                spawned: 2,
                executed: 2,
                wrote: true,
            },
        ]
    }

    #[test]
    fn codec_is_checked() {
        assert_codec(&samples(), SchedMsg::encode, SchedMsg::try_decode);
        // The retired kinds (the steal request and reply among them) are
        // no frame at all.
        for kind in [0xEE, 2, 3, 4] {
            assert_eq!(
                SchedMsg::try_decode(&[kind]),
                Err(DecodeError::BadKind(kind))
            );
        }
        // The count would size a multi-gigabyte allocation if trusted.
        let mut w = Writer::new();
        w.u8(K_RESULT).u32(u32::MAX);
        assert_eq!(
            SchedMsg::try_decode(&w.finish()),
            Err(DecodeError::Count {
                count: u32::MAX,
                have: 0
            })
        );
    }

    /// Captured at the parent of the commit that introduced the checked
    /// `Reader` (0c3e7fa), before any edit: "same bytes" as a test. Since
    /// then `Result` has gained its trailing `wrote` byte (here `01`), a
    /// task descriptor has shrunk to its id, function and args (16 + 8·n
    /// bytes), which re-cut the `Task` sample, and the steal request and
    /// reply (kinds 2 and 3) have been retired with their samples.
    #[test]
    fn wire_bytes_are_pinned() {
        let pinned = [
            "01080706050403020102000000030000000100000000000000ffffffffffffffff\
             0000000000000000",
            "05fdffffffffffffff01",
            "06",
            "0702000000010000000000000001000000000000000000004005000000000000\
             00000000000200000000000000020000000000000001",
        ];
        let got: Vec<String> = samples().iter().map(|m| hex(&m.encode())).collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn counted_split_matches_termination_protocol() {
        assert!(SchedMsg::Task(desc()).counted());
        assert!(!SchedMsg::Token {
            count: 0,
            black: false
        }
        .counted());
        assert!(!SchedMsg::Done.counted());
        assert!(!SchedMsg::Result {
            results: vec![],
            spawned: 0,
            executed: 0,
            wrote: false
        }
        .counted());
    }
}
