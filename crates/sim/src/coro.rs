//! Sim-thread (coroutine) runtime.
//!
//! Simulated FUGU programs — application main threads, message handlers,
//! the synthetic workloads — are written as plain Rust closures that *block*
//! on simulator calls ("charge 500 cycles", "inject this message", ...).
//! Stable Rust has no native stackful coroutines, so this module provides
//! them: each sim-thread runs on a stack of its own inside the engine's OS
//! thread, and [`CoRuntime::resume`] / [`CoCtx::call`] switch between the
//! engine's stack and the sim-thread's by saving and restoring the
//! callee-saved registers and the stack pointer. A switch is a function
//! call; no other OS thread, lock or system call is involved.
//!
//! The engine resumes one sim-thread at a time and gets control back when
//! that thread issues its next request or finishes, so the whole simulation
//! executes as a single thread of control: fully deterministic, no data
//! races, and no locks needed in simulated code for state shared between a
//! program's main thread and its handler context (which never run
//! concurrently).
//!
//! Lifetimes:
//!
//! - A stack (2 MiB, std's default thread stack size, with a `PROT_NONE`
//!   guard page below it) is mapped on a thread's first resume and unmapped
//!   as soon as the thread finishes or panics.
//! - A panic inside a sim-thread is caught on its own stack and reported as
//!   [`CoEvent::Panicked`]; no unwind ever crosses a stack switch.
//! - Dropping the runtime resumes every suspended thread one last time, and
//!   its pending [`CoCtx::call`] unwinds silently, freeing everything the
//!   thread's closure captured. Closures that never started are dropped
//!   without running.
//!
//! A suspended stack belongs to the OS thread that runs the engine, so a
//! [`CoRuntime`] cannot be sent to another thread:
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<fugu_sim::coro::CoRuntime<u32, u32>>();
//! ```
//!
//! # Example
//!
//! ```
//! use fugu_sim::coro::{CoEvent, CoRuntime};
//!
//! // Requests are u32s, responses are u32s: a trivial "double it" service.
//! let mut rt: CoRuntime<u32, u32> = CoRuntime::new();
//! let id = rt.spawn(|ctx| {
//!     let x = ctx.call(21);
//!     assert_eq!(x, 42);
//! });
//! // First resume starts the thread; the value passed is discarded.
//! let ev = rt.resume(id, 0);
//! assert_eq!(ev, CoEvent::Request(21));
//! let ev = rt.resume(id, 42);
//! assert_eq!(ev, CoEvent::Finished);
//! ```

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "fugu_sim::coro has a stack-switch routine (and stack mapping) only for x86_64 Linux"
);

use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

/// Marker payload used to unwind a sim-thread silently when its runtime has
/// been dropped. `resume_unwind` with this payload skips the panic hook, so
/// tearing down a runtime with live threads produces no console noise.
struct RuntimeGone;

/// Identifier of a sim-thread within its [`CoRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoId(usize);

impl CoId {
    /// The slot index of this thread inside its runtime.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a sim-thread did when it was last resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoEvent<Req> {
    /// The thread issued a simulator call and is now blocked awaiting the
    /// response that will be supplied by the next [`CoRuntime::resume`].
    Request(Req),
    /// The thread's closure returned; it may not be resumed again.
    Finished,
    /// The thread's closure panicked with the given message; it may not be
    /// resumed again. The engine is expected to propagate this.
    Panicked(String),
}

type Body<Req, Resp> = Box<dyn FnOnce(&mut CoCtx<Req, Resp>)>;

/// The values passed between the engine and one sim-thread. Boxed, so its
/// address stays fixed while both stacks hold a pointer to it, and only
/// ever accessed through that raw pointer by whichever side is running.
struct Mailbox<Req, Resp> {
    /// The engine's stack pointer while the thread runs.
    engine_sp: *mut u8,
    /// The thread's stack pointer while it is suspended.
    thread_sp: *mut u8,
    /// The closure, until the thread starts.
    body: Option<Body<Req, Resp>>,
    /// Engine → thread: the response to the pending call.
    resp: Option<Resp>,
    /// Thread → engine: what the thread did.
    event: Option<CoEvent<Req>>,
    /// Set by the runtime's `Drop`: the pending call must unwind.
    cancel: bool,
}

/// Handle given to sim-thread closures for issuing simulator calls.
///
/// It is reachable only as the `&mut` argument of the running closure, so
/// [`CoCtx::call`] always runs on its own sim-thread's stack.
pub struct CoCtx<Req, Resp> {
    mailbox: *mut Mailbox<Req, Resp>,
}

impl<Req, Resp> std::fmt::Debug for CoCtx<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoCtx").finish_non_exhaustive()
    }
}

impl<Req, Resp> CoCtx<Req, Resp> {
    /// Issues a simulator call and blocks until the engine responds.
    ///
    /// # Panics
    ///
    /// Unwinds (silently) if the owning [`CoRuntime`] has been dropped.
    pub fn call(&mut self, req: Req) -> Resp {
        let mb = self.mailbox;
        // SAFETY: the runtime frees the mailbox only after this thread has
        // finished, and this code runs on the thread's own stack (see the
        // type's documentation), so the mailbox is live and the engine is
        // suspended in `resume` or `drop`, which saved `engine_sp`.
        unsafe {
            if (*mb).cancel {
                resume_unwind(Box::new(RuntimeGone));
            }
            (*mb).event = Some(CoEvent::Request(req));
            switch(&raw mut (*mb).thread_sp, (*mb).engine_sp);
            if (*mb).cancel {
                resume_unwind(Box::new(RuntimeGone));
            }
            (*mb)
                .resp
                .take()
                .expect("sim-thread resumed without a response")
        }
    }
}

/// A sim-thread's position in its life.
enum Thread {
    /// Spawned; its closure waits in the mailbox and it has no stack yet.
    Unstarted,
    /// Blocked in [`CoCtx::call`] on this stack.
    Suspended(Stack),
    /// Returned or panicked: resuming is a logic error.
    Done,
}

struct Slot<Req, Resp> {
    /// From `Box::leak` in `spawn`; freed by the runtime's `Drop`.
    mailbox: NonNull<Mailbox<Req, Resp>>,
    thread: Thread,
}

/// A collection of sim-threads coordinated with the engine in lock-step.
///
/// `Req` is the simulator-call request type, `Resp` the response type. See
/// the [module documentation](self) for the execution model.
pub struct CoRuntime<Req, Resp> {
    slots: Vec<Slot<Req, Resp>>,
}

impl<Req, Resp> std::fmt::Debug for CoRuntime<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoRuntime")
            .field("threads", &self.slots.len())
            .finish()
    }
}

impl<Req, Resp> Default for CoRuntime<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> CoRuntime<Req, Resp> {
    /// Creates a runtime with no threads.
    pub fn new() -> Self {
        CoRuntime { slots: Vec::new() }
    }

    /// Number of threads ever spawned (including finished ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no threads have been spawned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Spawns a sim-thread running `f`.
    ///
    /// The thread does **not** begin executing until the first
    /// [`CoRuntime::resume`]; the response value passed to that first resume
    /// is discarded.
    pub fn spawn<F>(&mut self, f: F) -> CoId
    where
        F: FnOnce(&mut CoCtx<Req, Resp>) + 'static,
    {
        let mailbox = Box::new(Mailbox {
            engine_sp: ptr::null_mut(),
            thread_sp: ptr::null_mut(),
            body: Some(Box::new(f)),
            resp: None,
            event: None,
            cancel: false,
        });
        self.slots.push(Slot {
            mailbox: NonNull::from(Box::leak(mailbox)),
            thread: Thread::Unstarted,
        });
        CoId(self.slots.len() - 1)
    }

    /// Returns `true` if the thread may still be resumed.
    pub fn is_resumable(&self, id: CoId) -> bool {
        !matches!(self.slots[id.0].thread, Thread::Done)
    }

    /// Resumes the thread with `resp` and runs it until it issues its next
    /// request, finishes, or panics.
    ///
    /// # Panics
    ///
    /// Panics if the thread already finished or panicked (engine logic
    /// error).
    pub fn resume(&mut self, id: CoId, resp: Resp) -> CoEvent<Req> {
        let slot = &mut self.slots[id.0];
        let mb = slot.mailbox.as_ptr();
        let stack = match std::mem::replace(&mut slot.thread, Thread::Done) {
            Thread::Done => panic!("resumed finished sim-thread {id:?}"),
            Thread::Unstarted => {
                let stack = Stack::map();
                // SAFETY: the mailbox is live until the runtime drops, and
                // no sim-thread runs while the engine holds `&mut self`.
                unsafe { (*mb).thread_sp = stack.start_frame(mb) };
                stack
            }
            Thread::Suspended(stack) => {
                // SAFETY: as above.
                unsafe { (*mb).resp = Some(resp) };
                stack
            }
        };
        // SAFETY: `thread_sp` was saved by this thread's last `switch` (or
        // built by `start_frame`) on `stack`, which is still mapped; the
        // thread switches back through `engine_sp` before this returns.
        let event = unsafe {
            switch(&raw mut (*mb).engine_sp, (*mb).thread_sp);
            (*mb).event.take()
        }
        .expect("sim-thread switched back without an event");
        if matches!(event, CoEvent::Request(_)) {
            slot.thread = Thread::Suspended(stack);
        }
        event
    }
}

impl<Req, Resp> Drop for CoRuntime<Req, Resp> {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            let mb = slot.mailbox.as_ptr();
            if let Thread::Suspended(_stack) = std::mem::replace(&mut slot.thread, Thread::Done) {
                // SAFETY: as in `resume`. With `cancel` set, the thread's
                // pending `call` unwinds to `entry`, which switches back
                // for good; `_stack` is unmapped after that.
                unsafe {
                    (*mb).cancel = true;
                    switch(&raw mut (*mb).engine_sp, (*mb).thread_sp);
                }
            }
            // SAFETY: `mailbox` came from `Box::leak` in `spawn`, and its
            // thread is no longer running or suspended, so nothing else
            // points to it. This drops a closure that never started.
            drop(unsafe { Box::from_raw(mb) });
        }
    }
}

/// Runs a sim-thread's closure. It is the first function on every sim-thread
/// stack, entered from [`start`] with the thread's mailbox, and it never
/// returns: it switches back to the engine for the last time instead.
///
/// # Safety
///
/// `mb` must point to the live mailbox of the thread whose stack this is,
/// holding the thread's closure, and `engine_sp` must be the engine's saved
/// stack pointer.
unsafe extern "C" fn entry<Req, Resp>(mb: *mut Mailbox<Req, Resp>) -> ! {
    // SAFETY: guaranteed by the caller; the engine is suspended.
    let body = unsafe { (*mb).body.take() }.expect("sim-thread started twice");
    let mut ctx = CoCtx { mailbox: mb };
    let event = match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
        Ok(()) => CoEvent::Finished,
        Err(payload) if payload.is::<RuntimeGone>() => CoEvent::Finished,
        Err(payload) => CoEvent::Panicked(panic_message(payload.as_ref())),
    };
    // Everything this frame owns is dropped by now: the stack is unmapped
    // without ever returning here.
    // SAFETY: the mailbox is live (the runtime frees it only after this
    // last switch), and the engine is suspended at `engine_sp`.
    unsafe {
        (*mb).event = Some(event);
        switch(&raw mut (*mb).thread_sp, (*mb).engine_sp);
    }
    unreachable!("finished sim-thread was resumed")
}

/// Saves the callee-saved registers on the current stack and the stack
/// pointer in `*save`, then loads the stack pointer `load` and restores the
/// registers saved there, returning into the `switch` call (or [`start`])
/// that stack was suspended in. The control words (MXCSR, x87 FPU) are not
/// switched: no code in this program changes them.
///
/// # Safety
///
/// `save` must be writable, and `load` must be a stack pointer saved by
/// `switch` (or built by [`Stack::start_frame`]) on a stack that is still
/// mapped and is not running.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The first code on a new sim-thread stack, entered by `switch`'s `ret`
/// with the registers laid out by [`Stack::start_frame`]: calls the entry
/// function in `r13` with the mailbox in `r12`. Its unwind info marks the
/// return address undefined, so backtraces and unwinding stop here.
///
/// # Safety
///
/// Never call it: it is entered only through a frame built by
/// [`Stack::start_frame`].
#[unsafe(naked)]
unsafe extern "C" fn start() -> ! {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// Usable bytes of a sim-thread stack: std's default thread stack size.
const STACK_SIZE: usize = 2 << 20;
/// The guard page below the stack. Pages are 4 KiB on x86_64 Linux.
const GUARD_SIZE: usize = 4 << 10;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// One sim-thread stack mapping, guard page included; unmapped on drop.
struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    fn map() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "cannot map a sim-thread stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack {
            base: NonNull::new(base.cast()).expect("mmap returned null"),
        };
        // SAFETY: the first page lies inside the mapping just made, which
        // nothing uses yet.
        let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert!(
            rc == 0,
            "cannot protect a sim-thread stack guard page: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// Lays out the frame that `switch` pops to enter [`start`], which then
    /// calls `entry::<Req, Resp>(mb)` on a 16-byte-aligned stack, and
    /// returns its stack pointer.
    fn start_frame<Req, Resp>(&self, mb: *mut Mailbox<Req, Resp>) -> *mut u8 {
        let entry: unsafe extern "C" fn(*mut Mailbox<Req, Resp>) -> ! = entry::<Req, Resp>;
        let start: unsafe extern "C" fn() -> ! = start;
        // Popped by `switch` in order: r15, r14, r13, r12, rbx, rbp, then
        // the return address. Two zero words above keep `start`'s stack
        // pointer 16-byte aligned at its call.
        let frame: [usize; 9] = [
            0,
            0,
            entry as usize,
            mb as usize,
            0,
            0,
            start as usize,
            0,
            0,
        ];
        // SAFETY: the top of the mapping is 16-byte aligned (mmap returns
        // page-aligned memory) and the frame fits far inside the stack.
        unsafe {
            let top = self.base.as_ptr().add(GUARD_SIZE + STACK_SIZE);
            let sp = top.sub(std::mem::size_of_val(&frame)).cast::<[usize; 9]>();
            sp.write(frame);
            sp.cast()
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of exactly this length,
        // and its thread has finished, so nothing refers into it.
        unsafe { munmap(self.base.as_ptr().cast(), GUARD_SIZE + STACK_SIZE) };
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "sim-thread panicked with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_request_response_cycle() {
        let mut rt: CoRuntime<u32, u32> = CoRuntime::new();
        let id = rt.spawn(|ctx| {
            let mut acc = 0;
            for i in 0..5 {
                acc += ctx.call(i);
            }
            assert_eq!(acc, 10);
        });
        let mut ev = rt.resume(id, 0);
        for i in 0..5 {
            assert_eq!(ev, CoEvent::Request(i));
            ev = rt.resume(id, 2); // 5 responses of 2 sum to 10
        }
        assert_eq!(ev, CoEvent::Finished);
    }

    #[test]
    fn finished_event_after_return() {
        let mut rt: CoRuntime<(), ()> = CoRuntime::new();
        let id = rt.spawn(|_| {});
        assert_eq!(rt.resume(id, ()), CoEvent::Finished);
        assert!(!rt.is_resumable(id));
    }

    #[test]
    fn interleaves_many_threads_deterministically() {
        let mut rt: CoRuntime<usize, usize> = CoRuntime::new();
        let ids: Vec<CoId> = (0..8)
            .map(|n| {
                rt.spawn(move |ctx| {
                    for k in 0..3 {
                        let got = ctx.call(n * 10 + k);
                        assert_eq!(got, n * 10 + k + 1);
                    }
                })
            })
            .collect();
        // Start all threads.
        let mut pending: Vec<(CoId, usize)> = Vec::new();
        for (n, &id) in ids.iter().enumerate() {
            match rt.resume(id, 0) {
                CoEvent::Request(r) => {
                    assert_eq!(r, n * 10);
                    pending.push((id, r));
                }
                other => panic!("unexpected {:?}", other),
            }
        }
        // Round-robin them to completion.
        let mut finished = 0;
        while finished < ids.len() {
            let mut next = Vec::new();
            for (id, r) in pending.drain(..) {
                match rt.resume(id, r + 1) {
                    CoEvent::Request(r2) => next.push((id, r2)),
                    CoEvent::Finished => finished += 1,
                    CoEvent::Panicked(m) => panic!("thread panicked: {m}"),
                }
            }
            pending = next;
        }
    }

    #[test]
    fn panic_is_reported_not_propagated() {
        let mut rt: CoRuntime<(), ()> = CoRuntime::new();
        let id = rt.spawn(|_| panic!("boom {}", 7));
        match rt.resume(id, ()) {
            CoEvent::Panicked(msg) => assert!(msg.contains("boom 7")),
            other => panic!("unexpected {:?}", other),
        }
        assert!(!rt.is_resumable(id));
    }

    #[test]
    fn dropping_runtime_with_blocked_threads_is_clean() {
        let state = Arc::new(0u8);
        let mut rt: CoRuntime<u8, u8> = CoRuntime::new();
        let held = Arc::clone(&state);
        let id = rt.spawn(move |ctx| {
            let _ = ctx.call(*held);
            let _ = ctx.call(2); // never answered
        });
        assert_eq!(rt.resume(id, 0), CoEvent::Request(0));
        assert_eq!(Arc::strong_count(&state), 2);
        drop(rt); // must not hang or print panics
        assert_eq!(
            Arc::strong_count(&state),
            1,
            "suspended closure leaked its captures"
        );
    }

    #[test]
    fn dropping_runtime_with_unstarted_threads_is_clean() {
        let state = Arc::new(0u8);
        let mut rt: CoRuntime<u8, u8> = CoRuntime::new();
        let held = Arc::clone(&state);
        let _ = rt.spawn(move |ctx| {
            let _ = ctx.call(*held);
        });
        drop(rt);
        assert_eq!(
            Arc::strong_count(&state),
            1,
            "unstarted closure leaked its captures"
        );
    }

    #[test]
    #[should_panic(expected = "resumed finished sim-thread")]
    fn resuming_finished_thread_panics() {
        let mut rt: CoRuntime<(), ()> = CoRuntime::new();
        let id = rt.spawn(|_| {});
        assert_eq!(rt.resume(id, ()), CoEvent::Finished);
        let _ = rt.resume(id, ());
    }

    /// Recurses until the frames span at least `bytes` below `top`, and
    /// returns the depth reached.
    fn recurse(top: usize, bytes: usize) -> usize {
        let frame = std::hint::black_box([0u8; 512]);
        let here = frame.as_ptr() as usize;
        let depth = if top - here >= bytes {
            0
        } else {
            recurse(top, bytes) + 1
        };
        std::hint::black_box(&frame);
        depth
    }

    #[test]
    fn sim_thread_recurses_through_a_mebibyte_of_stack() {
        let mut rt: CoRuntime<usize, ()> = CoRuntime::new();
        let id = rt.spawn(|ctx| {
            let top = std::hint::black_box(0u8);
            let depth = recurse(&top as *const u8 as usize, 1 << 20);
            ctx.call(depth);
        });
        match rt.resume(id, ()) {
            CoEvent::Request(depth) => assert!(depth > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rt.resume(id, ()), CoEvent::Finished);
    }

    #[test]
    fn backtrace_inside_sim_thread_returns() {
        let mut rt: CoRuntime<usize, ()> = CoRuntime::new();
        let id = rt.spawn(|ctx| {
            let trace = std::backtrace::Backtrace::force_capture();
            ctx.call(trace.to_string().len());
        });
        match rt.resume(id, ()) {
            CoEvent::Request(len) => assert!(len > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rt.resume(id, ()), CoEvent::Finished);
    }
}
