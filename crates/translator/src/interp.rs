//! Interpreter: executes a translated OpenMP program on the ParADE
//! runtime.
//!
//! The real ParADE emits C that is compiled and linked against the runtime
//! library; this reproduction instead *interprets* the lowered program
//! directly against `parade-core`, which exercises exactly the same
//! directive lowerings end-to-end (allocation protocol selection,
//! collectives vs locks, work-sharing, barriers) without needing a C
//! toolchain inside the simulation.
//!
//! [`Interp::new`] lowers the AST once to the resolved form of
//! `resolve.rs`; a run walks that form with environments indexed by
//! symbol, so nothing is hashed, cloned or re-analysed per statement.
//!
//! Supported subset: the mini-C of the parser; `double`/`int`/`long`
//! scalars and fixed-size arrays; functions without OpenMP directives
//! callable from anywhere; OpenMP 1.0 directives inside `main`.

use std::sync::Arc;

use parade_net::sync::Mutex;

use parade_core::{Cluster, MasterCtx, SharedScalar, SharedVec, ThreadCtx};
use parade_dsm::AllocError;

use crate::analysis::{StorageKind, DEFAULT_SMALL_THRESHOLD};
use crate::ast::{BinOp, Program, Sched, Span, Type, UnOp};
use crate::oracle::{Oracle, RaceReport};
use crate::resolve::{
    resolve, Code, DimsId, OmpFn, RAtomic, RBody, RDecl, RDirective, RExpr, RLock, RLoop, ROmp,
    RPrivate, RStmt, RUpdate, RegionId, Shape, StrId, Sym,
};

/// Interpreter failure.
#[derive(Debug, Clone)]
pub struct RuntimeError {
    pub message: String,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

#[cold]
fn rte<T>(msg: impl Into<String>) -> RtResult<T> {
    Err(Box::new(RuntimeError {
        message: msg.into(),
    }))
}

/// What every evaluation step returns. The error is boxed so the `Ok`
/// path does not pay for it: a `RuntimeError` holds a `String`, which
/// makes `Result<Val, RuntimeError>` 24 bytes, returned through memory on
/// every `eval`; boxed, `RtResult<Val>` and `RtResult<Flow>` are 16 bytes
/// and come back in two registers, although no run that succeeds ever
/// builds an error (`error_abi_stays_in_registers` pins the sizes).
type RtResult<T> = Result<T, Box<RuntimeError>>;

/// The stack a program's user-function calls may take on one thread,
/// measured from where the thread started interpreting. It sits safely
/// below the 2 MiB every node and pool thread gets, so a runaway recursion
/// is a named error instead of a stack overflow that aborts the process.
/// The limit is on bytes, not on a call count: one call level costs 2 to
/// 12 KB of stack in an optimised build and several times that in a debug
/// one, growing with how deeply the function's body nests.
const CALL_STACK_LIMIT: usize = 1 << 20;

/// Where this thread's stack is now: the address of a local.
#[inline(always)]
fn stack_addr() -> usize {
    let here = 0u8;
    std::hint::black_box(&here) as *const u8 as usize
}

/// Runtime value. A string is only ever a `printf` argument; its text
/// stays in the resolved program's table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Val {
    I(i64),
    D(f64),
    S(StrId),
}

impl Val {
    fn as_f64(self) -> f64 {
        match self {
            Val::I(v) => v as f64,
            Val::D(v) => v,
            Val::S(_) => f64::NAN,
        }
    }

    fn as_i64(self) -> i64 {
        match self {
            Val::I(v) => v,
            Val::D(v) => v as i64,
            Val::S(_) => 0,
        }
    }

    fn truthy(self) -> bool {
        match self {
            Val::I(v) => v != 0,
            Val::D(v) => v != 0.0,
            Val::S(s) => s != StrId::EMPTY,
        }
    }
}

fn coerce(ty: &Type, v: Val) -> Val {
    match ty {
        Type::Double => Val::D(v.as_f64()),
        Type::Int | Type::Long => Val::I(v.as_i64()),
        Type::Void => v,
    }
}

/// Shared storage of a variable, allocated from the resolver's storage plan.
/// A scalar on HLRC is a one-element `ArrF`/`ArrI` with no dimensions, so an
/// integer one keeps all 64 bits; update-protocol scalars are `f64`.
enum Shared {
    ArrF(SharedVec<f64>, DimsId),
    ArrI(SharedVec<i64>, DimsId),
    ScalarUpd(SharedScalar<f64>, Type),
}

/// Private storage (master frame or a thread's frame).
enum Local {
    Scalar(Type, Val),
    ArrF(DimsId, Vec<f64>),
    ArrI(DimsId, Vec<i64>),
}

impl Local {
    fn zeroed(shape: &Shape) -> Local {
        if !shape.is_array {
            Local::Scalar(shape.ty.clone(), coerce(&shape.ty, Val::I(0)))
        } else if shape.ty.is_float() {
            Local::ArrF(shape.dims, vec![0.0; shape.elems])
        } else {
            Local::ArrI(shape.dims, vec![0; shape.elems])
        }
    }
}

/// A local and the call frame that owns it.
type Binding = Option<(u32, Local)>;

/// Flow control outcome of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Val>),
}

/// Output of a program run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub exit: i64,
    pub stdout: String,
    /// Dynamic races found by the happens-before oracle (empty unless the
    /// interpreter was built [`Interp::with_oracle`]).
    pub races: Vec<RaceReport>,
}

/// Execution context: serial (master) or inside a parallel region.
enum Exec<'a> {
    Master(&'a mut MasterCtx),
    Thread(&'a ThreadCtx),
}

impl Exec<'_> {
    fn vec_get_f(&mut self, v: &SharedVec<f64>, i: usize) -> f64 {
        match self {
            Exec::Master(g) => g.get(v, i),
            Exec::Thread(tc) => tc.get(v, i),
        }
    }

    fn vec_set_f(&mut self, v: &SharedVec<f64>, i: usize, x: f64) {
        match self {
            Exec::Master(g) => g.set(v, i, x),
            Exec::Thread(tc) => tc.set(v, i, x),
        }
    }

    fn vec_get_i(&mut self, v: &SharedVec<i64>, i: usize) -> i64 {
        match self {
            Exec::Master(g) => g.get(v, i),
            Exec::Thread(tc) => tc.get(v, i),
        }
    }

    fn vec_set_i(&mut self, v: &SharedVec<i64>, i: usize, x: i64) {
        match self {
            Exec::Master(g) => g.set(v, i, x),
            Exec::Thread(tc) => tc.set(v, i, x),
        }
    }

    fn scalar_get(&mut self, s: &SharedScalar<f64>) -> f64 {
        match self {
            Exec::Master(g) => g.scalar_get_f64(s),
            Exec::Thread(tc) => tc.scalar_get(s),
        }
    }

    fn thread_num(&self) -> usize {
        match self {
            Exec::Master(_) => 0,
            Exec::Thread(tc) => tc.thread_num(),
        }
    }

    fn num_threads(&self) -> usize {
        match self {
            Exec::Master(_) => 1,
            Exec::Thread(tc) => tc.num_threads(),
        }
    }

    fn wtime(&mut self) -> f64 {
        match self {
            Exec::Master(g) => g.now().as_secs_f64(),
            Exec::Thread(tc) => tc.now().as_secs_f64(),
        }
    }
}

/// The interpreter for one program.
pub struct Interp {
    prog: Program,
    code: Arc<Code>,
    oracle: bool,
}

impl Interp {
    pub fn new(prog: Program) -> Self {
        Interp {
            code: Arc::new(resolve(&prog, DEFAULT_SMALL_THRESHOLD)),
            prog,
            oracle: false,
        }
    }

    /// The threshold decides lowerings, so the program is resolved again.
    pub fn with_threshold(mut self, t: usize) -> Self {
        self.code = Arc::new(resolve(&self.prog, t));
        self
    }

    /// Enable the happens-before race oracle: every shared access inside a
    /// parallel region is checked against FastTrack-style shadow state, and
    /// detected races land in [`RunOutput::races`].
    pub fn with_oracle(mut self) -> Self {
        self.oracle = true;
        self
    }

    /// Run `main` on the given cluster; returns the exit code and captured
    /// `printf` output.
    pub fn run(&self, cluster: &Cluster) -> Result<RunOutput, RuntimeError> {
        let pool = cluster.config().dsm_config().pool_bytes;
        let code = Arc::clone(&self.code);
        let oracle_enabled = self.oracle;
        let result: RtResult<(i64, String, Vec<RaceReport>)> = cluster.run(move |g| {
            let Some(main) = code.main else {
                return rte("program has no main()");
            };
            let mut env = Env {
                code: &code,
                shared: alloc_shared(g, &code, pool)?,
                io: Arc::new(Mutex::new(String::new())),
                locals: unbound(&code),
                undo: Vec::new(),
                args: Vec::new(),
                frame: 0,
                stack_base: stack_addr(),
                lp_scratch: None,
                in_update_body: false,
                cur_span: Span::default(),
                oracle_enabled,
                oracle: None,
                oracle_tid: 0,
                races: Arc::new(Mutex::new(Vec::new())),
            };
            // Globals live in shared storage; run their initializers.
            let mut exec = Exec::Master(g);
            for d in &code.globals {
                env.declare(&mut exec, d)?;
            }
            let flow = env.exec_stmt(&mut exec, &code.funcs[main.idx()].body)?;
            let exit = match flow {
                Flow::Return(Some(v)) => v.as_i64(),
                _ => 0,
            };
            let out = env.io.lock().clone();
            let races = env.races.lock().clone();
            Ok((exit, out, races))
        });
        let (exit, stdout, races) = result.map_err(|e| *e)?;
        Ok(RunOutput {
            exit,
            stdout,
            races,
        })
    }
}

/// Allocate every shared variable, in declaration order. The allocator
/// decides what fits: a variable it refuses is a runtime error naming it,
/// before any node allocates it. A variable larger than the whole pool of
/// `pool` bytes says so; one that fits it but not what the variables before
/// it left says how much is left.
fn alloc_shared(g: &mut MasterCtx, code: &Code, pool: usize) -> RtResult<Arc<[Option<Shared>]>> {
    let mut out: Vec<Option<Shared>> = (0..code.nsyms()).map(|_| None).collect();
    for s in &code.storage {
        let shape = &s.shape;
        let shared = match s.kind {
            StorageKind::SharedArr | StorageKind::ScalarHlrc if shape.ty.is_float() => g
                .try_alloc_vec(shape.elems)
                .map(|v| Shared::ArrF(v, shape.dims)),
            StorageKind::SharedArr | StorageKind::ScalarHlrc => g
                .try_alloc_vec::<i64>(shape.elems)
                .map(|v| Shared::ArrI(v, shape.dims)),
            StorageKind::ScalarUpdate => g
                .try_alloc_scalar()
                .map(|v| Shared::ScalarUpd(v, shape.ty.clone())),
        };
        let refused = |e: AllocError| {
            // Every shared element is an 8-byte `f64` or `i64`.
            let asked = shape.elems.checked_mul(8).map_or_else(
                || format!("more than {} bytes", usize::MAX),
                |b| format!("{b} bytes"),
            );
            let name = code.name(s.sym);
            Box::new(RuntimeError {
                message: if e.requested > pool {
                    format!("shared variable `{name}` needs {asked}, more than the {pool}-byte shared pool")
                } else {
                    format!(
                        "shared variable `{name}` needs {asked}, but {} bytes of the \
                         {pool}-byte shared pool are left",
                        e.available
                    )
                },
            })
        };
        out[s.sym.idx()] = Some(shared.map_err(refused)?);
    }
    Ok(out.into())
}

/// A frame with no local bound.
fn unbound(code: &Code) -> Vec<Binding> {
    (0..code.nsyms()).map(|_| None).collect()
}

/// Subscripts of one element access, on the stack up to [`Subs::INLINE`].
struct Subs {
    len: usize,
    inline: [i64; Subs::INLINE],
    spill: Vec<i64>,
}

impl Subs {
    const INLINE: usize = 4;

    fn as_slice(&self) -> &[i64] {
        if self.len <= Subs::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// One interpreter environment (master frame or a thread frame).
///
/// Names are resolved to [`Sym`]s, but which storage a `Sym` denotes is
/// decided here, as the program runs: a local bound in the current call
/// frame if there is one, else the shared storage of that name. Block
/// scopes are an undo log over the dense `locals` table: entering a block
/// remembers the log's length, a declaration logs the binding it replaces,
/// and leaving the block unwinds to the mark.
struct Env<'c> {
    code: &'c Arc<Code>,
    shared: Arc<[Option<Shared>]>,
    io: Arc<Mutex<String>>,
    /// Innermost binding of every symbol, by `Sym`.
    locals: Vec<Binding>,
    /// Bindings replaced since the enclosing scopes were entered.
    undo: Vec<(Sym, Binding)>,
    /// Evaluated call arguments awaiting their callee's frame.
    args: Vec<Val>,
    /// Depth of user-function calls. A callee sees the shared variables but
    /// none of its caller's locals: those carry the caller's depth.
    frame: u32,
    /// [`stack_addr`] where this environment was made: calls may take
    /// [`CALL_STACK_LIMIT`] bytes past it.
    stack_base: usize,
    /// Scratch vector receiving lastprivate values. The master frame holds
    /// the run's one scratch ([`Env::lastprivate_scratch`]); a thread frame holds it
    /// when its region has lastprivates.
    lp_scratch: Option<SharedVec<f64>>,
    /// Inside the body of a `single`/analyzable construct: stores to
    /// update-protocol scalars are sanctioned and go to the local copy.
    in_update_body: bool,
    /// Source position of the statement currently executing (for oracle
    /// race reports).
    cur_span: Span,
    /// Whether `Interp::with_oracle` was requested for this run.
    oracle_enabled: bool,
    /// The per-region happens-before oracle (thread frames only).
    oracle: Option<Arc<Oracle>>,
    /// This frame's global thread number (thread frames only).
    oracle_tid: usize,
    /// Race reports accumulated across all regions of the run.
    races: Arc<Mutex<Vec<RaceReport>>>,
}

impl<'c> Env<'c> {
    /// The program, borrowed for as long as it lives rather than from
    /// `self`, so its nodes can be walked while `self` is mutated.
    fn code(&self) -> &'c Code {
        self.code
    }

    fn name(&self, sym: Sym) -> &'c str {
        self.code().name(sym)
    }

    // ---- scopes ------------------------------------------------------------

    /// Bind `sym` in the current scope.
    fn bind(&mut self, sym: Sym, local: Local) {
        let old = self.locals[sym.idx()].replace((self.frame, local));
        self.undo.push((sym, old));
    }

    /// Leave every scope entered since the undo log was `mark` long.
    fn pop_scope(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let (sym, old) = self.undo.pop().expect("longer than mark");
            self.locals[sym.idx()] = old;
        }
    }

    fn local(&self, sym: Sym) -> Option<&Local> {
        match &self.locals[sym.idx()] {
            Some((frame, l)) if *frame == self.frame => Some(l),
            _ => None,
        }
    }

    fn local_mut(&mut self, sym: Sym) -> Option<&mut Local> {
        match &mut self.locals[sym.idx()] {
            Some((frame, l)) if *frame == self.frame => Some(l),
            _ => None,
        }
    }

    // ---- oracle --------------------------------------------------------------

    fn oracle_read(&self, sym: Sym, idx: usize, scalar: bool) {
        if let Some(o) = &self.oracle {
            o.read(self.oracle_tid, self.name(sym), idx, scalar, self.cur_span);
        }
    }

    fn oracle_write(&self, sym: Sym, idx: usize, scalar: bool) {
        if let Some(o) = &self.oracle {
            o.write(self.oracle_tid, self.name(sym), idx, scalar, self.cur_span);
        }
    }

    /// Oracle bookkeeping for an `atomic` update. Must stay indivisible:
    /// the runtime atomic that follows serializes the data, not this
    /// bookkeeping, so issuing acquire/read/write/release as separate calls
    /// lets two threads interleave and yields false races (see
    /// [`Oracle::atomic_rmw`]).
    fn oracle_rmw(&self, sym: Sym) {
        if let Some(o) = &self.oracle {
            o.atomic_rmw(self.oracle_tid, self.name(sym), self.cur_span);
        }
    }

    /// Runtime barrier bracketed by the oracle's two-phase clock exchange.
    fn sync_barrier(&self, tc: &ThreadCtx) {
        match &self.oracle {
            Some(o) => {
                o.pre_barrier(self.oracle_tid);
                tc.barrier();
                o.post_barrier(self.oracle_tid);
            }
            None => tc.barrier(),
        }
    }

    /// Run `body` holding the cluster lock `lock`, with the matching
    /// acquire/release edges for the oracle.
    fn locked<R>(
        &mut self,
        tc: &ThreadCtx,
        lock: &RLock,
        body: impl FnOnce(&mut Self, &ThreadCtx) -> R,
    ) -> R {
        tc.critical(lock.id, |tc2| {
            if let Some(o) = &self.oracle {
                o.lock_acquire(self.oracle_tid, &lock.key);
            }
            let r = body(self, tc2);
            if let Some(o) = &self.oracle {
                o.lock_release(self.oracle_tid, &lock.key);
            }
            r
        })
    }

    // ---- variable access ---------------------------------------------------

    /// Declare a variable in the current scope (unless it lives in shared
    /// storage, in which case only its initializer runs).
    fn declare(&mut self, exec: &mut Exec<'_>, d: &RDecl) -> RtResult<()> {
        if self.shared[d.sym.idx()].is_some() {
            if let Some(init) = &d.init {
                let v = self.eval(exec, init)?;
                self.write_var(exec, d.sym, v)?;
            }
            return Ok(());
        }
        // Arrays with initializers are not in the subset.
        let local = match &d.init {
            Some(init) if !d.shape.is_array => Local::Scalar(
                d.shape.ty.clone(),
                coerce(&d.shape.ty, self.eval(exec, init)?),
            ),
            _ => Local::zeroed(&d.shape),
        };
        self.bind(d.sym, local);
        Ok(())
    }

    fn read_var(&mut self, exec: &mut Exec<'_>, sym: Sym) -> RtResult<Val> {
        if let Some(l) = self.local(sym) {
            return match l {
                Local::Scalar(_, v) => Ok(*v),
                _ => rte(format!("array {} used as a scalar", self.name(sym))),
            };
        }
        match &self.shared[sym.idx()] {
            Some(Shared::ScalarUpd(s, ty)) => {
                self.oracle_read(sym, 0, true);
                Ok(coerce(ty, Val::D(exec.scalar_get(s))))
            }
            Some(Shared::ArrF(vec, dims)) if self.code().dims(*dims).is_empty() => {
                self.oracle_read(sym, 0, true);
                Ok(Val::D(exec.vec_get_f(vec, 0)))
            }
            Some(Shared::ArrI(vec, dims)) if self.code().dims(*dims).is_empty() => {
                self.oracle_read(sym, 0, true);
                Ok(Val::I(exec.vec_get_i(vec, 0)))
            }
            Some(_) => rte(format!("array {} used as a scalar", self.name(sym))),
            None => rte(format!("undefined variable {}", self.name(sym))),
        }
    }

    /// Store `v` converted to the variable's type; returns the value stored,
    /// which is what a C assignment expression evaluates to.
    fn write_var(&mut self, exec: &mut Exec<'_>, sym: Sym, v: Val) -> RtResult<Val> {
        if let Some(l) = self.local_mut(sym) {
            return match l {
                Local::Scalar(ty, slot) => {
                    *slot = coerce(ty, v);
                    Ok(*slot)
                }
                _ => rte(format!("array {} used as a scalar", self.name(sym))),
            };
        }
        match (&self.shared[sym.idx()], &mut *exec) {
            (Some(Shared::ScalarUpd(s, ty)), Exec::Master(g)) => {
                let v = coerce(ty, v);
                g.scalar_set_f64(s, v.as_f64());
                Ok(v)
            }
            (Some(Shared::ScalarUpd(s, ty)), Exec::Thread(tc)) => {
                if self.in_update_body {
                    let v = coerce(ty, v);
                    self.oracle_write(sym, 0, true);
                    tc.scalar_set_in_construct(s, v.as_f64());
                    Ok(v)
                } else {
                    rte(format!(
                        "unsynchronized write to update-protocol variable {} inside a region \
                         (the translator routes such writes through atomic/critical/single)",
                        self.name(sym)
                    ))
                }
            }
            (Some(Shared::ArrF(vec, dims)), exec) if self.code().dims(*dims).is_empty() => {
                let x = v.as_f64();
                self.oracle_write(sym, 0, true);
                exec.vec_set_f(vec, 0, x);
                Ok(Val::D(x))
            }
            (Some(Shared::ArrI(vec, dims)), exec) if self.code().dims(*dims).is_empty() => {
                let x = v.as_i64();
                self.oracle_write(sym, 0, true);
                exec.vec_set_i(vec, 0, x);
                Ok(Val::I(x))
            }
            (Some(_), _) => rte(format!("array {} used as a scalar", self.name(sym))),
            (None, _) => rte(format!("undefined variable {}", self.name(sym))),
        }
    }

    fn flat_index(dims: &[usize], idx: &[i64]) -> RtResult<usize> {
        if let ([d], [i]) = (dims, idx) {
            // A negative subscript wraps to far above any dimension.
            if (*i as u64) < *d as u64 {
                return Ok(*i as usize);
            }
        }
        if dims.len() != idx.len() {
            return rte(format!(
                "array indexed with {} subscripts, has {} dims",
                idx.len(),
                dims.len()
            ));
        }
        let mut flat = 0usize;
        for (d, i) in dims.iter().zip(idx) {
            if *i < 0 || *i as usize >= *d {
                return rte(format!("index {i} out of bounds for dimension {d}"));
            }
            flat = flat * d + *i as usize;
        }
        Ok(flat)
    }

    fn eval_subs(&mut self, exec: &mut Exec<'_>, subs: &[RExpr]) -> RtResult<Subs> {
        let mut out = Subs {
            len: subs.len(),
            inline: [0; Subs::INLINE],
            spill: Vec::new(),
        };
        for (k, e) in subs.iter().enumerate() {
            let i = self.eval(exec, e)?.as_i64();
            if subs.len() <= Subs::INLINE {
                out.inline[k] = i;
            } else {
                out.spill.push(i);
            }
        }
        Ok(out)
    }

    /// Evaluate an element access's subscripts and hand them to `then`:
    /// a single subscript straight to an `i64`, more through [`Subs`].
    #[inline]
    fn with_subs<R>(
        &mut self,
        exec: &mut Exec<'_>,
        subs: &[RExpr],
        then: impl FnOnce(&mut Self, &mut Exec<'_>, &[i64]) -> RtResult<R>,
    ) -> RtResult<R> {
        if let [sub] = subs {
            let i = self.eval(exec, sub)?.as_i64();
            return then(self, exec, std::slice::from_ref(&i));
        }
        let idx = self.eval_subs(exec, subs)?;
        then(self, exec, idx.as_slice())
    }

    fn read_elem(&mut self, exec: &mut Exec<'_>, sym: Sym, idx: &[i64]) -> RtResult<Val> {
        let code = self.code();
        if let Some(l) = self.local(sym) {
            return match l {
                Local::ArrF(dims, data) => {
                    Ok(Val::D(data[Self::flat_index(code.dims(*dims), idx)?]))
                }
                Local::ArrI(dims, data) => {
                    Ok(Val::I(data[Self::flat_index(code.dims(*dims), idx)?]))
                }
                _ => rte(format!("scalar {} indexed", code.name(sym))),
            };
        }
        match &self.shared[sym.idx()] {
            Some(Shared::ArrF(v, dims)) if !code.dims(*dims).is_empty() => {
                let i = Self::flat_index(code.dims(*dims), idx)?;
                self.oracle_read(sym, i, false);
                Ok(Val::D(exec.vec_get_f(v, i)))
            }
            Some(Shared::ArrI(v, dims)) if !code.dims(*dims).is_empty() => {
                let i = Self::flat_index(code.dims(*dims), idx)?;
                self.oracle_read(sym, i, false);
                Ok(Val::I(exec.vec_get_i(v, i)))
            }
            Some(_) => rte(format!("scalar {} indexed", code.name(sym))),
            None => rte(format!("undefined array {}", code.name(sym))),
        }
    }

    /// Store `v` converted to the element type; returns the value stored.
    fn write_elem(&mut self, exec: &mut Exec<'_>, sym: Sym, idx: &[i64], v: Val) -> RtResult<Val> {
        let code = self.code();
        if let Some(l) = self.local_mut(sym) {
            return match l {
                Local::ArrF(dims, data) => {
                    let x = v.as_f64();
                    data[Self::flat_index(code.dims(*dims), idx)?] = x;
                    Ok(Val::D(x))
                }
                Local::ArrI(dims, data) => {
                    let x = v.as_i64();
                    data[Self::flat_index(code.dims(*dims), idx)?] = x;
                    Ok(Val::I(x))
                }
                _ => rte(format!("scalar {} indexed", code.name(sym))),
            };
        }
        match &self.shared[sym.idx()] {
            Some(Shared::ArrF(vec, dims)) if !code.dims(*dims).is_empty() => {
                let i = Self::flat_index(code.dims(*dims), idx)?;
                let x = v.as_f64();
                self.oracle_write(sym, i, false);
                exec.vec_set_f(vec, i, x);
                Ok(Val::D(x))
            }
            Some(Shared::ArrI(vec, dims)) if !code.dims(*dims).is_empty() => {
                let i = Self::flat_index(code.dims(*dims), idx)?;
                let x = v.as_i64();
                self.oracle_write(sym, i, false);
                exec.vec_set_i(vec, i, x);
                Ok(Val::I(x))
            }
            Some(_) => rte(format!("scalar {} indexed", code.name(sym))),
            None => rte(format!("undefined array {}", code.name(sym))),
        }
    }

    // ---- expressions ---------------------------------------------------------

    fn eval(&mut self, exec: &mut Exec<'_>, e: &RExpr) -> RtResult<Val> {
        match e {
            RExpr::Int(v) => Ok(Val::I(*v)),
            RExpr::Float(v) => Ok(Val::D(*v)),
            RExpr::Str(s) => Ok(Val::S(*s)),
            RExpr::Var(sym) => self.read_var(exec, *sym),
            RExpr::Index(sym, subs) => {
                self.with_subs(exec, subs, |env, exec, idx| env.read_elem(exec, *sym, idx))
            }
            RExpr::Unary(op, a) => {
                let v = self.eval(exec, a)?;
                Ok(match op {
                    UnOp::Neg => match v {
                        Val::I(x) => Val::I(x.wrapping_neg()),
                        Val::D(x) => Val::D(-x),
                        Val::S(_) => return rte("cannot negate a string"),
                    },
                    UnOp::Not => Val::I(i64::from(!v.truthy())),
                })
            }
            RExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short-circuit logicals: `a` alone decides when it is the
                // operator's absorbing value.
                let absorbing = *op == BinOp::Or;
                if self.eval(exec, a)?.truthy() == absorbing {
                    return Ok(Val::I(i64::from(absorbing)));
                }
                Ok(Val::I(i64::from(self.eval(exec, b)?.truthy())))
            }
            RExpr::Binary(op, a, b) => {
                let av = self.eval(exec, a)?;
                let bv = self.eval(exec, b)?;
                binop(*op, av, bv)
            }
            RExpr::Cond(c, a, b) => {
                if self.eval(exec, c)?.truthy() {
                    self.eval(exec, a)
                } else {
                    self.eval(exec, b)
                }
            }
            RExpr::Assign(op, lhs, rhs) => {
                let rv = self.eval(exec, rhs)?;
                let newv = match op {
                    None => rv,
                    Some(o) => {
                        let old = match lhs.as_ref() {
                            RExpr::Var(sym) => self.read_var(exec, *sym)?,
                            RExpr::Index(sym, subs) => {
                                self.with_subs(exec, subs, |env, exec, idx| {
                                    env.read_elem(exec, *sym, idx)
                                })?
                            }
                            _ => return rte("bad assignment target"),
                        };
                        binop(*o, old, rv)?
                    }
                };
                match lhs.as_ref() {
                    RExpr::Var(sym) => self.write_var(exec, *sym, newv),
                    // Evaluated a second time after a compound read, as the
                    // two accesses of `a[i] += x` always were.
                    RExpr::Index(sym, subs) => self.with_subs(exec, subs, |env, exec, idx| {
                        env.write_elem(exec, *sym, idx, newv)
                    }),
                    _ => rte("bad assignment target"),
                }
            }
            RExpr::Omp(OmpFn::ThreadNum) => Ok(Val::I(exec.thread_num() as i64)),
            RExpr::Omp(OmpFn::NumThreads) => Ok(Val::I(exec.num_threads() as i64)),
            RExpr::Omp(OmpFn::Wtime) => Ok(Val::D(exec.wtime())),
            RExpr::Math(f, args) => {
                let mut xy = [0.0; 2];
                for (k, a) in args.iter().enumerate() {
                    let x = self.eval(exec, a)?.as_f64();
                    if let Some(slot) = xy.get_mut(k) {
                        *slot = x;
                    }
                }
                if args.len() != f.arity() {
                    return rte(format!("bad arity for builtin {}", f.name()));
                }
                Ok(Val::D(f.apply(xy[0], xy[1])))
            }
            RExpr::Printf(fmt, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args.iter() {
                    vals.push(self.eval(exec, a)?);
                }
                let text = format_c(self.code(), self.code().string(*fmt), &vals)?;
                self.io.lock().push_str(&text);
                Ok(Val::I(text.len() as i64))
            }
            RExpr::Call(id, args) => {
                let f = &self.code().funcs[id.idx()];
                self.check_stack(&f.name)?;
                // The arguments run in the caller's frame, all of them
                // before the first parameter is bound.
                let base = self.args.len();
                for a in args.iter() {
                    let v = self.eval(exec, a)?;
                    self.args.push(v);
                }
                self.frame += 1;
                let mark = self.undo.len();
                for (k, p) in f.params.iter().enumerate() {
                    let v = coerce(&p.ty, self.args[base + k]);
                    self.bind(p.sym, Local::Scalar(p.ty.clone(), v));
                }
                self.args.truncate(base);
                let flow = self.exec_stmt(exec, &f.body)?;
                self.pop_scope(mark);
                self.frame -= 1;
                match flow {
                    Flow::Return(Some(v)) => Ok(coerce(&f.ret, v)),
                    _ => Ok(Val::I(0)),
                }
            }
            RExpr::Fail(f) => rte(&*f.message),
        }
    }

    /// A call to `name` may not take the thread past [`CALL_STACK_LIMIT`].
    /// Out of line, so `eval` carries neither the probe nor the message.
    #[inline(never)]
    fn check_stack(&self, name: &str) -> RtResult<()> {
        if stack_addr().abs_diff(self.stack_base) <= CALL_STACK_LIMIT {
            return Ok(());
        }
        rte(format!(
            "call to {name}() at call depth {} passes the {} KiB call stack limit",
            self.frame + 1,
            CALL_STACK_LIMIT >> 10
        ))
    }

    // ---- statements -----------------------------------------------------------

    fn exec_stmt(&mut self, exec: &mut Exec<'_>, s: &RStmt) -> RtResult<Flow> {
        match s {
            RStmt::Empty => Ok(Flow::Normal),
            RStmt::Decl(d) => {
                self.cur_span = d.span;
                self.declare(exec, d)?;
                Ok(Flow::Normal)
            }
            RStmt::Expr(e, span) => {
                self.cur_span = *span;
                self.eval(exec, e)?;
                Ok(Flow::Normal)
            }
            RStmt::Block(ss) => {
                let mark = self.undo.len();
                for s in ss.iter() {
                    match self.exec_stmt(exec, s)? {
                        Flow::Normal => {}
                        other => {
                            self.pop_scope(mark);
                            return Ok(other);
                        }
                    }
                }
                self.pop_scope(mark);
                Ok(Flow::Normal)
            }
            RStmt::If(c, a, b) => {
                if self.eval(exec, c)?.truthy() {
                    self.exec_stmt(exec, a)
                } else if let Some(b) = b {
                    self.exec_stmt(exec, b)
                } else {
                    Ok(Flow::Normal)
                }
            }
            RStmt::While(c, b) => {
                while self.eval(exec, c)?.truthy() {
                    match self.exec_stmt(exec, b)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(e) = init {
                    self.eval(exec, e)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval(exec, c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_stmt(exec, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if let Some(e) = step {
                        self.eval(exec, e)?;
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(exec, e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Break => Ok(Flow::Break),
            RStmt::Continue => Ok(Flow::Continue),
            RStmt::Parallel(id) => match exec {
                Exec::Master(g) => {
                    self.run_parallel(g, *id)?;
                    Ok(Flow::Normal)
                }
                Exec::Thread(_) => rte("nested parallel regions are not supported"),
            },
            RStmt::Omp(dir) => self.exec_directive(exec, dir),
        }
    }

    // ---- directives inside regions ---------------------------------------------

    fn exec_directive(&mut self, exec: &mut Exec<'_>, dir: &RDirective) -> RtResult<Flow> {
        self.cur_span = dir.span;
        let Exec::Thread(tc) = exec else {
            return rte(format!(
                "directive {:?} outside a parallel region",
                dir.kind
            ));
        };
        let tc: &ThreadCtx = tc;
        match &dir.op {
            ROmp::Barrier => self.sync_barrier(tc),
            ROmp::Master(body) => {
                if tc.thread_num() == 0 {
                    self.exec_stmt(&mut Exec::Thread(tc), body)?;
                }
            }
            ROmp::For(lp) => self.worksharing_loop(tc, lp)?,
            ROmp::Critical {
                collective: Some(updates),
                ..
            } => self.collective_updates(tc, updates)?,
            // Lock fallback (hierarchical).
            ROmp::Critical { lock, body, .. } | ROmp::Atomic(RAtomic::Lock(lock, body)) => {
                return self.locked(tc, lock, |env, tc2| {
                    env.exec_stmt(&mut Exec::Thread(tc2), body)
                });
            }
            ROmp::Atomic(RAtomic::Bad(why)) => return rte(*why),
            ROmp::Atomic(RAtomic::Collective(u, _)) => {
                self.collective_updates(tc, std::slice::from_ref(u))?
            }
            ROmp::Single { broadcast, body } => self.exec_single(tc, broadcast.as_deref(), body)?,
        }
        Ok(Flow::Normal)
    }

    /// Each `target ⊕= operand` as one collective on an update-protocol
    /// scalar.
    fn collective_updates(&mut self, tc: &ThreadCtx, updates: &[RUpdate]) -> RtResult<()> {
        for u in updates {
            let operand = self.eval(&mut Exec::Thread(tc), &u.operand)?.as_f64();
            let Some(Shared::ScalarUpd(s, _)) = &self.shared[u.target.idx()] else {
                unreachable!("the resolver checked the storage plan");
            };
            self.oracle_rmw(u.target);
            tc.atomic_f64(s, u.op, operand);
        }
        Ok(())
    }

    fn exec_single(
        &mut self,
        tc: &ThreadCtx,
        broadcast: Option<&[Sym]>,
        body: &RStmt,
    ) -> RtResult<()> {
        let mut err = None;
        let mut run_body = |env: &mut Self, tc2: &ThreadCtx| {
            env.in_update_body = true;
            let r = env.exec_stmt(&mut Exec::Thread(tc2), body);
            env.in_update_body = false;
            if let Some(o) = &env.oracle {
                o.single_done(env.oracle_tid);
            }
            err = r.err();
            err.is_none()
        };
        match broadcast {
            Some(targets) => {
                // Broadcast path: the body runs on the earliest thread of
                // node 0; targets propagate by bcast.
                let scalars: Vec<SharedScalar<f64>> = targets
                    .iter()
                    .map(|t| match &self.shared[t.idx()] {
                        Some(Shared::ScalarUpd(s, _)) => *s,
                        _ => unreachable!("the resolver checked the storage plan"),
                    })
                    .collect();
                tc.single_update(&scalars, |tc2| {
                    if !run_body(self, tc2) {
                        return vec![0.0; scalars.len()];
                    }
                    // Read back the values the body stored.
                    scalars.iter().map(|s| tc2.scalar_get(s)).collect()
                });
                if let Some(o) = &self.oracle {
                    o.single_join(self.oracle_tid);
                }
            }
            None => {
                // Execute-once + barrier (targets live on HLRC).
                tc.single_update(&[], |tc2| {
                    run_body(self, tc2);
                    Vec::new()
                });
                if let Some(o) = &self.oracle {
                    o.single_join(self.oracle_tid);
                }
                self.sync_barrier(tc);
            }
        }
        err.map_or(Ok(()), Err)
    }

    // ---- parallel region execution -------------------------------------------

    fn run_parallel(&mut self, g: &mut MasterCtx, id: RegionId) -> RtResult<()> {
        let region = &self.code().regions[id.idx()];
        // Firstprivate snapshots (captured by value at fork, §4.1).
        let mut fp = Vec::with_capacity(region.firstprivates.len());
        for sym in region.firstprivates.iter() {
            fp.push(self.read_var(&mut Exec::Master(g), *sym)?);
        }
        let lp_scratch = if region.lastprivates.is_empty() {
            None
        } else {
            Some(self.lastprivate_scratch(g, region.lastprivates.len())?)
        };

        let code = Arc::clone(self.code);
        let shared = Arc::clone(&self.shared);
        let io = Arc::clone(&self.io);
        // A fresh oracle per region: the fork provides happens-before from
        // all earlier serial code, so shadow state starts empty.
        let oracle = self.oracle_enabled.then(|| Arc::new(Oracle::new()));
        let oracle_tl = oracle.clone();
        let races = Arc::clone(&self.races);

        let result: RtResult<Vec<Val>> = g.parallel(move |tc| {
            let region = &code.regions[id.idx()];
            let mut env = Env {
                code: &code,
                shared: Arc::clone(&shared),
                io: Arc::clone(&io),
                locals: unbound(&code),
                undo: Vec::new(),
                args: Vec::new(),
                frame: 0,
                stack_base: stack_addr(),
                lp_scratch,
                in_update_body: false,
                cur_span: Span::default(),
                oracle_enabled: oracle_tl.is_some(),
                oracle: oracle_tl.clone(),
                oracle_tid: tc.thread_num(),
                races: Arc::clone(&races),
            };
            // Private variables: loop vars and clause-private names get
            // fresh locals; firstprivate get snapshots; reduction vars get
            // identity-initialized locals.
            for (sym, how) in region.privates.iter() {
                let local = match how {
                    RPrivate::Zero(shape) => Local::zeroed(shape),
                    RPrivate::First { slot, ty } => {
                        Local::Scalar(ty.clone(), coerce(ty, fp[*slot]))
                    }
                    RPrivate::Reduction { identity, ty } => {
                        Local::Scalar(ty.clone(), coerce(ty, Val::D(*identity)))
                    }
                };
                env.bind(*sym, local);
            }

            match &region.body {
                RBody::Loop(lp) => env.worksharing_loop(tc, lp)?,
                RBody::Stmt(body) => {
                    env.exec_stmt(&mut Exec::Thread(tc), body)?;
                }
            }

            // Reduction epilogue: combine thread contributions; every
            // thread returns the totals (lead's return reaches the master).
            // Lastprivate needs nothing here: the owner of the final
            // iteration stored into the scratch during the loop.
            // An integer variable reduces as `i64`: exact past 2^53.
            let mut totals = Vec::with_capacity(region.reductions.len());
            for (op, sym) in region.reductions.iter() {
                totals.push(match env.local(*sym) {
                    Some(Local::Scalar(_, Val::I(v))) => Val::I(tc.reduce_i64(*op, *v)),
                    Some(Local::Scalar(_, v)) => Val::D(tc.reduce_f64(*op, v.as_f64())),
                    _ => Val::D(tc.reduce_f64(*op, 0.0)),
                });
            }
            Ok(totals)
        });
        let totals = result?;

        // Region join: collect the oracle's findings for this region.
        if let Some(o) = &oracle {
            self.races.lock().extend(o.drain());
        }

        // Fold reduction totals into the master's variables.
        for ((op, sym), total) in region.reductions.iter().zip(totals) {
            let mut exec = Exec::Master(g);
            let old = self.read_var(&mut exec, *sym)?;
            let new = match total {
                Val::I(t) => Val::I(op.fold_i64(old.as_i64(), t)),
                t => Val::D(op.fold_f64(old.as_f64(), t.as_f64())),
            };
            self.write_var(&mut exec, *sym, new)?;
        }
        // Lastprivate writeback.
        if let Some(scratch) = lp_scratch {
            for (k, sym) in region.lastprivates.iter().enumerate() {
                let v = g.get(&scratch, k);
                self.write_var(&mut Exec::Master(g), *sym, Val::D(v))?;
            }
        }
        Ok(())
    }

    /// The run's lastprivate scratch, with room for `slots` values: the
    /// first region with lastprivates allocates it and later ones reuse it,
    /// so a loop of such regions takes nothing more from the pool. It is
    /// allocated anew only when a region needs more slots than it has. A
    /// refusal is a runtime error, as for a shared variable.
    fn lastprivate_scratch(&mut self, g: &mut MasterCtx, slots: usize) -> RtResult<SharedVec<f64>> {
        if let Some(s) = self.lp_scratch.filter(|s| s.len() >= slots) {
            return Ok(s);
        }
        let s = g.try_alloc_vec(slots).map_err(|e: AllocError| {
            Box::new(RuntimeError {
                message: format!(
                    "the lastprivate scratch needs {} bytes, but {} bytes of the \
                     shared pool are left",
                    e.requested, e.available
                ),
            })
        })?;
        self.lp_scratch = Some(s);
        Ok(s)
    }

    /// Execute a work-shared canonical loop on this thread.
    fn worksharing_loop(&mut self, tc: &ThreadCtx, lp: &RLoop) -> RtResult<()> {
        let Some(cl) = &lp.canon else {
            return rte("work-shared loop is not in canonical form");
        };
        let (lo, hi) = {
            let mut exec = Exec::Thread(tc);
            let lo = self.eval(&mut exec, &cl.lo)?.as_i64();
            let hi = self.eval(&mut exec, &cl.hi)?.as_i64();
            (lo, hi)
        };
        let count = if hi > lo {
            ((hi - lo) as usize).div_ceil(cl.step as usize)
        } else {
            0
        };
        let last_iter_val = if count > 0 {
            Some(lo + ((count - 1) as i64) * cl.step)
        } else {
            None
        };

        let run_iter = |env: &mut Self, k: usize| -> RtResult<()> {
            let i = lo + (k as i64) * cl.step;
            let mut exec = Exec::Thread(tc);
            env.write_var(&mut exec, cl.var, Val::I(i))?;
            env.exec_stmt(&mut exec, &cl.body)?;
            if Some(i) == last_iter_val {
                // Owner of the last iteration publishes lastprivate values.
                if let Some(scratch) = env.lp_scratch {
                    for (slot, sym) in lp.lastprivates.iter().enumerate() {
                        let v = env.read_var(&mut exec, *sym)?.as_f64();
                        tc.set(&scratch, slot, v);
                    }
                }
            }
            Ok(())
        };

        // OpenMP 1.0 §2.4.1: the control variable of a work-shared loop is
        // implicitly private to each thread, even when it is shared in the
        // enclosing region. Shadow it with a thread-local for the loop.
        let mark = self.undo.len();
        self.bind(cl.var, Local::Scalar(Type::Long, Val::I(lo)));
        let schedule = |env: &mut Self| -> RtResult<()> {
            match lp.sched {
                Sched::Static => {
                    for k in tc.for_static(0..count) {
                        run_iter(env, k)?;
                    }
                }
                Sched::StaticChunk(c) => {
                    for chunk in tc.for_static_chunks(0..count, c) {
                        for k in chunk {
                            run_iter(env, k)?;
                        }
                    }
                }
                Sched::Dynamic(c) | Sched::Guided(c) => {
                    let mut err = None;
                    let body = |r: std::ops::Range<usize>| {
                        for k in r {
                            if err.is_some() {
                                return;
                            }
                            if let Err(e) = run_iter(env, k) {
                                err = Some(e);
                            }
                        }
                    };
                    if matches!(lp.sched, Sched::Dynamic(_)) {
                        tc.for_dynamic(0..count, c, body);
                    } else {
                        tc.for_guided(0..count, c, body);
                    }
                    if let Some(e) = err {
                        return Err(e);
                    }
                }
            }
            Ok(())
        };
        let scheduled = schedule(self);
        self.pop_scope(mark);
        scheduled?;
        if !lp.nowait {
            self.sync_barrier(tc);
        }
        Ok(())
    }
}

fn binop(op: BinOp, a: Val, b: Val) -> RtResult<Val> {
    use BinOp::*;
    if let (Val::D(x), Val::D(y)) = (a, b) {
        match op {
            Add => return Ok(Val::D(x + y)),
            Sub => return Ok(Val::D(x - y)),
            Mul => return Ok(Val::D(x * y)),
            Div => return Ok(Val::D(x / y)),
            _ => {}
        }
    }
    let float = matches!(a, Val::D(_)) || matches!(b, Val::D(_));
    Ok(match op {
        Add | Sub | Mul | Div => {
            if float {
                let (x, y) = (a.as_f64(), b.as_f64());
                Val::D(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                })
            } else {
                let (x, y) = (a.as_i64(), b.as_i64());
                Val::I(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return rte("integer division by zero");
                        }
                        // `i64::MIN / -1` overflows; C leaves it undefined,
                        // this interpreter wraps like its other operators.
                        x.wrapping_div(y)
                    }
                    _ => unreachable!(),
                })
            }
        }
        Rem => {
            let (x, y) = (a.as_i64(), b.as_i64());
            if y == 0 {
                return rte("modulo by zero");
            }
            Val::I(x.wrapping_rem(y))
        }
        Eq | Ne | Lt | Gt | Le | Ge => {
            let r = if float {
                let (x, y) = (a.as_f64(), b.as_f64());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Gt => x > y,
                    Le => x <= y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (a.as_i64(), b.as_i64());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Gt => x > y,
                    Le => x <= y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            };
            Val::I(i64::from(r))
        }
        And | Or => unreachable!("handled by short-circuit in eval"),
    })
}

/// A small C-style formatter supporting %d %ld %f %e %g %s %% with
/// optional width/precision on the float forms.
fn format_c(code: &Code, fmt: &str, args: &[Val]) -> RtResult<String> {
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    let mut next = 0usize;
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            out.push('%');
            continue;
        }
        // Parse width[.precision] flags (digits and '.').
        let mut spec = String::new();
        while matches!(chars.peek(), Some(c) if c.is_ascii_digit() || *c == '.' || *c == '-') {
            spec.push(chars.next().expect("peeked"));
        }
        // Skip length modifiers.
        while matches!(chars.peek(), Some('l') | Some('h')) {
            chars.next();
        }
        let Some(conv) = chars.next() else {
            return rte("dangling % in format string");
        };
        let arg = args.get(next).copied().unwrap_or(Val::I(0));
        next += 1;
        let prec: Option<usize> = spec.split('.').nth(1).and_then(|p| p.parse().ok());
        match conv {
            'd' | 'i' | 'u' => out.push_str(&arg.as_i64().to_string()),
            'f' | 'F' => {
                let p = prec.unwrap_or(6);
                out.push_str(&format!("{:.*}", p, arg.as_f64()));
            }
            'e' | 'E' => out.push_str(&c_exp(arg.as_f64(), prec.unwrap_or(6), conv == 'E')),
            'g' | 'G' => {
                out.push_str(&format!("{}", arg.as_f64()));
            }
            's' => match arg {
                Val::S(s) => out.push_str(code.string(s)),
                other => out.push_str(&format!("{other:?}")),
            },
            other => return rte(format!("unsupported conversion %{other}")),
        }
    }
    Ok(out)
}

/// `%e` as C prints it: the exponent carries a sign and at least two
/// digits (`5.669773e-02`, where Rust's `{:e}` gives `5.669773e-2`), and
/// `%E` is upper case throughout.
fn c_exp(v: f64, prec: usize, upper: bool) -> String {
    let rust = format!("{v:.prec$e}");
    let s = match rust.split_once('e') {
        Some((mantissa, exp)) => {
            let exp: i32 = exp.parse().expect("Rust's exponent is an integer");
            let sign = if exp < 0 { '-' } else { '+' };
            format!("{mantissa}e{sign}{:02}", exp.unsigned_abs())
        }
        None => rust, // inf, NaN
    };
    if upper {
        s.to_uppercase()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_e_prints_the_c_exponent() {
        // `%e`, and `%.3E` (precision 3, upper case).
        assert_eq!(c_exp(0.0, 6, false), "0.000000e+00");
        assert_eq!(c_exp(-0.05669773, 6, false), "-5.669773e-02");
        assert_eq!(c_exp(1e-10, 6, false), "1.000000e-10");
        assert_eq!(c_exp(1.5e100, 6, false), "1.500000e+100");
        assert_eq!(c_exp(12345.678, 3, true), "1.235E+04");
    }

    /// `eval` and `exec_stmt` return these on every step: two registers,
    /// not a stack slot. An error type that grows them fails here.
    #[test]
    fn error_abi_stays_in_registers() {
        assert_eq!(std::mem::size_of::<RtResult<Val>>(), 16);
        assert_eq!(std::mem::size_of::<RtResult<Flow>>(), 16);
        assert_eq!(std::mem::size_of::<RtResult<i64>>(), 16);
    }

    /// The resolved tree the interpreter walks: what only the C printer
    /// reads lives behind a box (`RDirective`, `RFail`), not in these.
    #[test]
    fn resolved_tree_nodes_keep_their_size() {
        assert_eq!(std::mem::size_of::<RExpr>(), 32);
        assert_eq!(std::mem::size_of::<RStmt>(), 104);
    }
}
