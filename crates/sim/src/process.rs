//! Simulated processes: application code as stackful coroutines on the
//! kernel's own thread.
//!
//! A simulated process is an ordinary Rust closure (for us: a Splash-2-style
//! program against the SVM API). It interacts with the simulation
//! exclusively by calling [`ProcessPort::request`], which hands a request to
//! the kernel and returns when the kernel resumes it with a response. The
//! kernel side ([`SimProcess::resume`]) symmetrically returns when the
//! process either issues its next request or finishes.
//!
//! The discipline is *strict alternation*: at any moment either the kernel
//! or exactly one process body is running, never both — from
//! [`spawn_process`] on: a body first runs inside the kernel's first
//! [`SimProcess::next_yield`]. That is a fact about one thread, not a
//! convention between several: a body runs on a stack of its own, and
//! `request`, `next_yield` and `resume` put a value in a one-request,
//! one-response cell and `switch` stacks — a few dozen instructions, no
//! system call, no thread to wake. What one side wrote before a switch the
//! other reads after it in program order, so the two share state through
//! plain `Rc<Cell<_>>`/`Rc<RefCell<_>>`: no bound here asks for `Send`, and
//! [`SimProcess`] is `!Send`. None of it can change a virtual-time result:
//! which stack runs a body is invisible to the kernel, which observes only
//! the sequence of yields.
//!
//! A stack is a mapping of its own, not from the global allocator: a guard
//! page (running off the end is a bare `SIGSEGV`), then `STACK_BYTES` with
//! the `Start` record at the top and the first `switch`'s frame below it
//! (DESIGN §17). Mappings come from a per-thread LIFO pool of at most
//! `POOL_CAP` (module `stacks`), so a spawn after a drop costs no system
//! call. `entry` runs exactly once per spawn: it drops the body and any
//! panic payload, posts the final yield, switches out and is never resumed.
//! A `SimProcess` dropped before that sets `kernel_gone` and switches in: a
//! parked `request` raises the quiet `KernelShutdown` panic for `entry` to
//! catch, a body never started is dropped uncalled. Then the stack goes back
//! to the pool, or is unmapped if the pool is full or already destroyed.

use std::arch::naked_asm;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "svm-sim runs process bodies as coroutines and needs x86-64 Linux. A port must supply, in \
     crates/sim/src/process.rs: `switch`, the `trampoline`, the initial frame (and mmap's flags)."
);

/// Panic payload used to unwind a process body when the kernel has shut
/// down while the process was parked in [`ProcessPort::request`]. This is
/// the *expected* teardown path for a halted simulation (e.g., a run ended
/// early by a protocol error), so it is raised with `resume_unwind`, which
/// bypasses the panic hook — no stderr message, no backtrace.
struct KernelShutdown;

/// What a process produced when control returned to the kernel.
#[derive(Debug)]
pub enum Yielded<Req> {
    /// The process issued a request and is now blocked awaiting the response.
    Request(Req),
    /// The process body returned (`Ok`) or panicked (`Err(panic message)`).
    Finished(Result<(), String>),
}

/// Usable bytes of a process stack: what a `std` thread gets by default.
const STACK_BYTES: usize = 2 << 20;
/// The inaccessible page below a stack (x86-64 pages are 4 KiB).
const GUARD_BYTES: usize = 4096;

/// Where process stacks come from and go back to: a per-thread LIFO pool of
/// whole mappings. The only code in the workspace that maps memory.
mod stacks {
    use super::{GUARD_BYTES, STACK_BYTES};
    use std::cell::RefCell;
    use std::ffi::{c_int, c_void};
    use std::ptr;

    /// One mapping: the guard page, then the stack.
    pub(super) const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;
    /// Most mappings a thread keeps: the widest cell any workload runs
    /// (64 nodes). The cap bounds the resident memory of idle stacks to the
    /// pages 64 bodies touched, so nothing is `madvise`d away.
    pub(super) const POOL_CAP: usize = 64;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`, Linux values.
    const MAP_FLAGS: c_int = 0x2 | 0x20 | 0x4000 | 0x2_0000;
    const PROT_NONE: c_int = 0;
    const PROT_READ_WRITE: c_int = 1 | 2;

    // std already links libc, so no new dependency. `mmap`'s arguments are
    // (addr, length, prot, flags, fd, offset).
    extern "C" {
        fn mmap(_: *mut c_void, _: usize, _: c_int, _: c_int, _: c_int, _: i64) -> *mut c_void;
        fn mprotect(addr: *mut c_void, length: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    /// Bases of mappings no frame is live on; unmapped at thread exit.
    struct Pool(Vec<*mut u8>);

    impl Drop for Pool {
        fn drop(&mut self) {
            for &base in &self.0 {
                // SAFETY: every pooled base came from `take` and was given
                // back with nothing live on it; the pool is its only owner.
                unsafe { munmap(base.cast(), MAP_BYTES) };
            }
        }
    }

    thread_local! {
        static POOL: RefCell<Pool> = const { RefCell::new(Pool(Vec::new())) };
    }

    /// A mapping for a new process: the one given back last on this
    /// thread, or a fresh one.
    pub(super) fn take() -> *mut u8 {
        let pooled = POOL.try_with(|pool| pool.borrow_mut().0.pop());
        pooled.ok().flatten().unwrap_or_else(map)
    }

    /// A fresh mapping with its guard page protected.
    fn map() -> *mut u8 {
        // SAFETY: a fresh anonymous mapping, placed by the OS, aliases
        // nothing; its first page, the guard, is not in use yet.
        unsafe {
            let map = mmap(
                ptr::null_mut(),
                MAP_BYTES,
                PROT_READ_WRITE,
                MAP_FLAGS,
                -1,
                0,
            );
            assert!(map as isize != -1, "cannot map a process stack");
            let guarded = mprotect(map, GUARD_BYTES, PROT_NONE);
            assert!(guarded == 0, "cannot protect a process stack's guard page");
            map.cast()
        }
    }

    /// Keep `base` for the next [`take`] on this thread, or unmap it if the
    /// pool is full or this thread's pool is already destroyed.
    ///
    /// # Safety
    ///
    /// `base` came from [`take`], no frame on it is live, and nothing
    /// touches it again.
    pub(super) unsafe fn give(base: *mut u8) {
        let kept = POOL.try_with(|pool| {
            let stacks = &mut pool.borrow_mut().0;
            let room = stacks.len() < POOL_CAP;
            if room {
                stacks.push(base);
            }
            room
        });
        if !kept.unwrap_or(false) {
            // SAFETY: the caller's contract; a failed `munmap` would only leak it.
            unsafe { munmap(base.cast(), MAP_BYTES) };
        }
    }

    /// This thread's pooled bases, oldest first; `None` once its pool is
    /// destroyed.
    #[cfg(test)]
    pub(super) fn pooled() -> Option<Vec<*mut u8>> {
        POOL.try_with(|pool| pool.borrow().0.clone()).ok()
    }
}

/// Push the running side's callee-saved registers, store its stack pointer
/// in `*save_sp`, make `load_sp` the stack pointer and pop what the other
/// side pushed there; "returns" when a later `switch` loads what this stored.
///
/// # Safety
///
/// `load_sp` is the initial frame of [`spawn_process`] or was stored by a
/// `switch` on this thread that has not been returned to since. Alternation
/// is the rest: the sides share only the [`Chan`], through raw pointers.
// SAFETY: only `rsp` and the System V callee-saved integer registers carry
// state across a call, and both sides save and restore exactly those. MXCSR
// and the x87 control word are *not* saved: nothing in this workspace changes
// them, so every stack on a thread runs with the same values.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save_sp: *mut *mut u8, load_sp: *mut u8) {
    naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov [rdi], rsp; mov rsp, rsi",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

/// Where the first [`switch`] to a process "returns": calls `rbx(r12)`, which
/// is [`entry`] on its [`Start`] record.
// SAFETY: reached only through the frame `spawn_process` writes, which puts
// `entry` in `rbx`, its argument in `r12`, and leaves `rsp` 16-byte aligned
// here, as the ABI wants at a `call`; `entry` never returns. Nothing called
// this, which `.cfi_undefined rip` tells unwinders and backtraces.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() {
    naked_asm!(
        ".cfi_startproc; .cfi_undefined rip",
        "mov rdi, r12; call rbx; ud2",
        ".cfi_endproc",
    )
}

/// The cell both sides share: one request slot, one response slot, and the
/// stack pointer of whichever side is not running.
struct Chan<Req, Resp> {
    /// Process -> kernel: the pending yield (at most one, by alternation).
    yielded: Option<Yielded<Req>>,
    /// Kernel -> process: the pending resume value (at most one).
    resp: Option<Resp>,
    /// The kernel endpoint is being dropped; the process must unwind.
    kernel_gone: bool,
    /// Stored by the `switch` that suspends the kernel.
    kernel_sp: *mut u8,
    /// The initial frame, then stored by each `switch` that suspends the body.
    body_sp: *mut u8,
}

/// What [`spawn_process`] writes at the top of a process's stack; [`entry`]
/// moves `body` out.
struct Start<Req, Resp, F> {
    chan: Chan<Req, Resp>,
    body: F,
}

/// The process-side endpoint: issue requests, receive responses.
pub struct ProcessPort<Req, Resp> {
    chan: *mut Chan<Req, Resp>,
}

impl<Req, Resp> ProcessPort<Req, Resp> {
    /// Hand `req` to the kernel and block until it responds.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has shut down (its [`SimProcess`] was dropped);
    /// the panic unwinds the process body so what it holds is freed. It is
    /// raised past the panic hook, so this expected teardown produces no
    /// stderr noise.
    pub fn request(&self, req: Req) -> Resp {
        // SAFETY: a port is made only by `entry`, lent to the body, and is
        // `!Send + !Sync`, so this runs on the process's own stack while the
        // kernel is suspended in the `switch` that stored `kernel_sp`: the
        // cell is ours until we switch, and again once we are switched to.
        let resp = unsafe {
            debug_assert!((*self.chan).yielded.is_none(), "a yield is pending");
            (*self.chan).yielded = Some(Yielded::Request(req));
            switch(&raw mut (*self.chan).body_sp, (*self.chan).kernel_sp);
            (*self.chan).resp.take()
        };
        // Resumed without a response: the kernel endpoint is being dropped.
        resp.unwrap_or_else(|| panic::resume_unwind(Box::new(KernelShutdown)))
    }
}

/// The one function on a process stack: run the body (unless the kernel is
/// gone already), post the final yield, leave for good.
///
/// # Safety
///
/// Called once, through [`trampoline`], on the stack whose top holds `*start`.
unsafe extern "sysv64" fn entry<Req, Resp, F>(start: *mut Start<Req, Resp, F>) -> !
where
    F: FnOnce(&ProcessPort<Req, Resp>),
{
    // SAFETY: `spawn_process` initialised `*start`, and this is the one read
    // of `body`. The kernel is suspended until the `switch` below, so outside
    // the body's own `request`s the cell is ours.
    unsafe {
        let chan = &raw mut (*start).chan;
        let body = ptr::read(&raw const (*start).body);
        let outcome = if (*chan).kernel_gone {
            drop(body); // dropped before its first `next_yield`: never called
            Ok(())
        } else {
            let port = ProcessPort { chan };
            // `&*payload` derefs the box: passing `&payload` would unsize
            // the `Box` itself into `dyn Any` and the downcasts would miss.
            panic::catch_unwind(AssertUnwindSafe(|| body(&port)))
                .map_err(|payload| panic_message(&*payload))
        };
        // The body, what it captured and any panic payload are dropped by
        // now: this stack owns nothing, and is never switched to again.
        (*chan).yielded = Some(Yielded::Finished(outcome));
        switch(&raw mut (*chan).body_sp, (*chan).kernel_sp);
    }
    std::process::abort() // a finished process was resumed
}

/// The kernel-side endpoint of a simulated process. `!Send`: a body that
/// has started must be resumed on the thread that started it.
pub struct SimProcess<Req, Resp> {
    /// The mapping from the pool: guard page, then the stack, with `*chan`
    /// at its top.
    base: *mut u8,
    chan: *mut Chan<Req, Resp>,
    /// True while the process is blocked in `request()` awaiting a resume.
    awaiting_resume: bool,
    finished: bool,
    name: String,
}

/// Create a simulated process that will run `body`.
///
/// Nothing of the body runs yet: the first [`SimProcess::next_yield`]
/// switches to it and returns its first request, so alternation with the
/// kernel is strict from the start (the kernel may build its world between
/// the two calls without a body running beside it). Panics inside the body
/// are caught and reported as [`Yielded::Finished`]`(Err(..))`.
pub fn spawn_process<Req, Resp, F>(name: &str, body: F) -> SimProcess<Req, Resp>
where
    Req: 'static,
    Resp: 'static,
    F: FnOnce(&ProcessPort<Req, Resp>) + 'static,
{
    let align = align_of::<Start<Req, Resp, F>>().max(16);
    let size = size_of::<Start<Req, Resp, F>>().next_multiple_of(align);
    // Memory safety needs the record to fit, and its alignment to be met by
    // the page-aligned end of the mapping.
    let fits = size <= STACK_BYTES / 2 && align <= GUARD_BYTES;
    assert!(fits, "body captures {size} bytes, aligned to {align}");
    let base = stacks::take();
    // SAFETY: the mapping is ours alone, fresh or given back with no frame
    // live on it. `size` below its end is aligned for the record and 16-byte
    // aligned for the frame under it (asserted above); both lie in the
    // writable part, far above the guard page.
    let chan = unsafe {
        let start: *mut Start<Req, Resp, F> = base.add(stacks::MAP_BYTES - size).cast();
        let entry = entry::<Req, Resp, F> as *const () as usize;
        let ret = trampoline as *const () as usize;
        // What the first `switch` pops: r15 r14 r13 r12 rbx rbp, return address.
        let frame: *mut [usize; 7] = start.cast::<[usize; 7]>().sub(1);
        frame.write([0, 0, 0, start as usize, entry, 0, ret]);
        let chan = Chan {
            yielded: None,
            resp: None,
            kernel_gone: false,
            kernel_sp: ptr::null_mut(),
            body_sp: frame.cast(),
        };
        start.write(Start { chan, body });
        &raw mut (*start).chan
    };
    SimProcess {
        base,
        chan,
        awaiting_resume: false,
        finished: false,
        name: name.to_string(),
    }
}

// The one-thread contract, held by rustc (DESIGN §17): were either endpoint
// `Send`, both impls would apply and `_` could not be inferred.
const _: fn() = || {
    trait AmbiguousIfSend<A> {
        fn check() {}
    }
    impl<T: ?Sized> AmbiguousIfSend<()> for T {}
    impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
    <SimProcess<(), ()> as AmbiguousIfSend<_>>::check();
    <ProcessPort<(), ()> as AmbiguousIfSend<_>>::check();
};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if payload.downcast_ref::<KernelShutdown>().is_some() {
        "unwound by kernel shutdown".to_string()
    } else {
        "process panicked (non-string payload)".to_string()
    }
}

impl<Req, Resp> SimProcess<Req, Resp> {
    /// Process name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the process body has finished.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether the process is parked inside `request()` awaiting a resume.
    pub fn awaiting_resume(&self) -> bool {
        self.awaiting_resume
    }

    /// Start the freshly spawned process and run it until it yields.
    ///
    /// Use this once after [`spawn_process`] to obtain the first request;
    /// afterwards use [`SimProcess::resume`].
    pub fn next_yield(&mut self) -> Yielded<Req> {
        assert!(!self.finished, "process {} already finished", self.name);
        assert!(
            !self.awaiting_resume,
            "process {} is awaiting a resume, not running",
            self.name
        );
        // SAFETY: not finished, so `body_sp` is the initial frame or what the
        // body's last `switch` stored, on this thread (`Self: !Send`). The
        // body is suspended: the cell is ours before the switch and after.
        let yielded = unsafe {
            switch(&raw mut (*self.chan).kernel_sp, (*self.chan).body_sp);
            (*self.chan).yielded.take()
        };
        let y = yielded.expect("a process switches to the kernel only with a yield posted");
        match &y {
            Yielded::Request(_) => self.awaiting_resume = true,
            Yielded::Finished(_) => self.finished = true,
        }
        y
    }

    /// Deliver `resp` to the blocked process and run it to its next yield.
    ///
    /// # Panics
    ///
    /// Panics if the process is not currently awaiting a resume.
    pub fn resume(&mut self, resp: Resp) -> Yielded<Req> {
        assert!(
            self.awaiting_resume,
            "resume() on process {} that is not awaiting one",
            self.name
        );
        self.awaiting_resume = false;
        // SAFETY: the body is suspended in `request`; the cell is ours.
        let pending = unsafe { (*self.chan).resp.replace(resp) };
        debug_assert!(pending.is_none(), "resume while a response is pending");
        self.next_yield()
    }
}

impl<Req, Resp> Drop for SimProcess<Req, Resp> {
    fn drop(&mut self) {
        // SAFETY: the body is suspended or not started; the cell is ours.
        unsafe { (*self.chan).kernel_gone = true };
        // Run the body to its final yield (see the module doc; a second round
        // only if the body caught the panic itself and asked again).
        while !self.finished {
            self.awaiting_resume = false;
            self.next_yield();
        }
        // SAFETY: `entry` has switched out for good, so no frame on the stack
        // is live and this is the last use of the cell and of `base`, the
        // mapping `spawn_process` took.
        unsafe {
            ptr::drop_in_place(self.chan);
            stacks::give(self.base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::thread::ThreadId;

    #[test]
    fn request_response_roundtrip() {
        let mut p = spawn_process("adder", |port: &ProcessPort<u32, u32>| {
            let a = port.request(1);
            let b = port.request(a + 1);
            assert_eq!(b, 12);
        });
        match p.next_yield() {
            Yielded::Request(r) => assert_eq!(r, 1),
            other => panic!("unexpected {other:?}"),
        }
        match p.resume(10) {
            Yielded::Request(r) => assert_eq!(r, 11),
            other => panic!("unexpected {other:?}"),
        }
        match p.resume(12) {
            Yielded::Finished(Ok(())) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.finished());
    }

    #[test]
    fn immediate_finish() {
        let mut p = spawn_process("noop", |_port: &ProcessPort<(), ()>| {});
        match p.next_yield() {
            Yielded::Finished(Ok(())) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn panic_is_reported() {
        let mut p = spawn_process("bomb", |port: &ProcessPort<u8, u8>| {
            let _ = port.request(0);
            panic!("kaboom {}", 42);
        });
        let _ = p.next_yield();
        match p.resume(0) {
            Yielded::Finished(Err(msg)) => assert!(msg.contains("kaboom 42")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_while_parked_shuts_down_cleanly() {
        let mut p = spawn_process("parked", |port: &ProcessPort<u8, u8>| {
            let _ = port.request(0);
            let _ = port.request(1); // never resumed
        });
        let _ = p.next_yield();
        drop(p); // must not hang
    }

    /// A body whose requests carry the thread it runs on.
    type Probe = SimProcess<(ThreadId, u32), u32>;

    /// Run a two-request body to completion, checking every value that
    /// crosses the port; returns the thread the body ran on.
    fn fresh_body_runs(base: u32) -> ThreadId {
        let mut p: Probe = spawn_process("fresh", move |port| {
            let me = std::thread::current().id();
            let a = port.request((me, base));
            let b = port.request((me, a + 1));
            assert_eq!(b, base + 12);
        });
        let Yielded::Request((thread, r)) = p.next_yield() else {
            panic!("no first request");
        };
        assert_eq!(r, base);
        assert!(
            matches!(p.resume(base + 10), Yielded::Request((t, r)) if t == thread && r == base + 11)
        );
        assert!(matches!(p.resume(base + 12), Yielded::Finished(Ok(()))));
        thread
    }

    #[test]
    fn a_body_runs_on_the_kernels_thread() {
        assert_eq!(fresh_body_runs(0), std::thread::current().id());
    }

    /// Runs alone in a child process (see `unwinds_leave_the_thread_usable`),
    /// so stderr is its own: one loud panic, one silent shutdown, and bodies
    /// before, between and after them all on this thread.
    #[test]
    #[ignore = "child process of unwinds_leave_the_thread_usable"]
    fn child_unwinds_then_fresh_bodies() {
        let kernel = std::thread::current().id();
        let mut bomb: Probe = spawn_process("bomb", |port| {
            port.request((std::thread::current().id(), 0));
            panic!("kaboom-loud");
        });
        assert!(matches!(bomb.next_yield(), Yielded::Request((t, 0)) if t == kernel));
        assert!(
            matches!(bomb.resume(0), Yielded::Finished(Err(msg)) if msg.contains("kaboom-loud"))
        );
        assert_eq!(fresh_body_runs(100), kernel);

        let mut parked: Probe = spawn_process("parked", |port| {
            port.request((std::thread::current().id(), 0));
            port.request((std::thread::current().id(), 1)); // never resumed
        });
        assert!(matches!(parked.next_yield(), Yielded::Request((t, 0)) if t == kernel));
        drop(parked); // the KernelShutdown unwind
        assert_eq!(fresh_body_runs(200), kernel);
    }

    #[test]
    fn unwinds_leave_the_thread_usable() {
        let exe = std::env::current_exe().expect("path of this test binary");
        let child = std::process::Command::new(exe)
            .args(["--ignored", "--exact", "--nocapture"])
            .arg("process::tests::child_unwinds_then_fresh_bodies")
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("run the child test");
        let stderr = String::from_utf8_lossy(&child.stderr);
        // `success()` is false for a death by signal too: a backtrace that
        // walked off the top of a process stack would end in one.
        assert!(child.status.success(), "child failed:\n{stderr}");
        // The hook is still loud for the real panic and still silent for
        // the KernelShutdown unwind that followed it on the same thread.
        assert_eq!(stderr.matches("panicked at").count(), 1, "{stderr}");
        assert!(stderr.contains("kaboom-loud"), "{stderr}");
        // The backtrace was printed, and ended at `entry`, the last frame
        // with unwind information on a process stack.
        assert_eq!(stderr.matches("stack backtrace:").count(), 1, "{stderr}");
    }

    #[test]
    fn body_runs_only_from_the_first_next_yield() {
        let ran = Rc::new(Cell::new(false));
        let flag = ran.clone();
        let mut p = spawn_process("lazy", move |_port: &ProcessPort<(), ()>| flag.set(true));
        // Not "not yet": nothing can run the body before next_yield().
        assert!(!ran.get());
        assert!(matches!(p.next_yield(), Yielded::Finished(Ok(()))));
        assert!(ran.get());
    }

    #[test]
    fn drop_before_first_yield_never_runs_the_body() {
        let held = Rc::new(());
        let captured = held.clone();
        let p = spawn_process("early-drop", move |_port: &ProcessPort<u8, u8>| {
            let _captured = captured;
            unreachable!("dropped before next_yield()");
        });
        drop(p); // must not hang, and drops what the body captured
        assert_eq!(Rc::strong_count(&held), 1);
    }

    #[test]
    fn kernel_panic_with_a_process_parked_frees_the_body() {
        let held = Rc::new(());
        let captured = held.clone();
        // The kernel unwinds through `p`'s Drop, which unwinds the body: a
        // second panic on this thread, caught on the process stack.
        let caught = panic::catch_unwind(AssertUnwindSafe(move || {
            let mut p = spawn_process("parked", move |port: &ProcessPort<u8, u8>| {
                let _captured = captured;
                port.request(0);
                unreachable!("never resumed");
            });
            assert!(matches!(p.next_yield(), Yielded::Request(0)));
            panic!("kernel-side failure");
        }));
        let payload = caught.expect_err("the kernel closure panics");
        assert_eq!(panic_message(&*payload), "kernel-side failure");
        assert_eq!(Rc::strong_count(&held), 1);
    }

    #[test]
    fn a_thousand_parked_processes_resume_in_any_order() {
        const PROCS: usize = 1024;
        const TRIPS: usize = 10;
        let mut procs: Vec<SimProcess<usize, usize>> = (0..PROCS)
            .map(|i| {
                spawn_process(&format!("p{i}"), move |port: &ProcessPort<usize, usize>| {
                    let mut v = i;
                    for _ in 0..TRIPS {
                        v = port.request(v) + 1;
                    }
                    assert_eq!(port.request(v), 0);
                })
            })
            .collect();
        let mut last: Vec<usize> = procs
            .iter_mut()
            .map(|p| match p.next_yield() {
                Yielded::Request(r) => r,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let mut rng = SplitMix64::new(0x1024);
        let mut order: Vec<usize> = (0..PROCS * TRIPS).map(|k| k % PROCS).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k as u64 + 1) as usize);
        }
        for i in order {
            match procs[i].resume(last[i] + 2) {
                Yielded::Request(r) => {
                    assert_eq!(r, last[i] + 3);
                    last[i] = r;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        for (i, mut p) in procs.into_iter().enumerate() {
            assert_eq!(last[i], i + 3 * TRIPS);
            assert!(matches!(p.resume(0), Yielded::Finished(Ok(()))));
        }
        // 64 of the 1,024 stacks stay for the next spawns, the rest are gone.
        assert_eq!(pooled().len(), stacks::POOL_CAP);
    }

    /// This thread's pooled stacks, oldest first.
    fn pooled() -> Vec<*mut u8> {
        stacks::pooled().expect("this thread's pool is alive")
    }

    /// A process parked on its first request, which was the address of one
    /// of its body's locals.
    fn parked_at_local() -> (SimProcess<usize, ()>, usize) {
        let mut p = spawn_process("where", |port: &ProcessPort<usize, ()>| {
            let local = 0u8;
            port.request(&raw const local as usize);
        });
        let Yielded::Request(local) = p.next_yield() else {
            panic!("no first request");
        };
        (p, local)
    }

    #[test]
    fn a_spawn_after_a_drop_runs_in_the_dropped_mapping() {
        let (first, first_local) = parked_at_local();
        let stack = first.base as usize + GUARD_BYTES..first.base as usize + stacks::MAP_BYTES;
        assert!(stack.contains(&first_local));
        drop(first);
        let (second, second_local) = parked_at_local();
        assert!(
            stack.contains(&second_local),
            "{second_local:#x} not in {stack:#x?}"
        );
        // Same body, same stack top: the very same frame.
        assert_eq!(second_local, first_local);
        drop(second);
    }

    /// Runs alone in a child process (see
    /// `running_off_a_reused_stack_hits_the_guard_page`): a body on a
    /// pooled stack recurses past its end, into a live stack mapped right
    /// below it, so only the guard page between them can stop it.
    #[test]
    #[ignore = "child process of running_off_a_reused_stack_hits_the_guard_page"]
    fn child_overflows_a_reused_stack() {
        let mut parked: Vec<_> = (0..8).map(|_| parked_at_local().0).collect();
        let bases: Vec<usize> = parked.iter().map(|p| p.base as usize).collect();
        let upper = (0..bases.len())
            .find(|&i| bases.contains(&(bases[i] - stacks::MAP_BYTES)))
            .expect("the OS maps stacks top-down, each right below the last");
        let base = parked[upper].base;
        drop(parked.swap_remove(upper));
        let mut deep = spawn_process("deep", |port: &ProcessPort<usize, ()>| {
            let anchor = 0u8;
            port.request(recurse_to(&raw const anchor as usize, stacks::MAP_BYTES));
        });
        assert_eq!(deep.base, base, "the body did not reuse the dropped stack");
        let _ = deep.next_yield();
        // Reached only if the guard page is missing. The stack below is
        // clobbered: exit before anything resumes it.
        std::process::exit(0);
    }

    #[test]
    fn running_off_a_reused_stack_hits_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        const SIGSEGV: i32 = 11;
        let exe = std::env::current_exe().expect("path of this test binary");
        let child = std::process::Command::new(exe)
            .args(["--ignored", "--exact"])
            .arg("process::tests::child_overflows_a_reused_stack")
            .output()
            .expect("run the child test");
        let stderr = String::from_utf8_lossy(&child.stderr);
        // Not an exit (no fault) and not SIGABRT (a failed assertion, or
        // std's overflow handler claiming the page as its own).
        assert_eq!(
            child.status.signal(),
            Some(SIGSEGV),
            "{:?}\n{stderr}",
            child.status
        );
    }

    #[test]
    fn a_process_dropped_after_its_threads_pool_unmaps_its_stack() {
        use std::cell::RefCell;
        use std::sync::atomic::{AtomicBool, Ordering};
        /// Whether the pool was gone when the parked body unwound.
        static POOL_GONE: AtomicBool = AtomicBool::new(false);
        struct Witness;
        impl Drop for Witness {
            fn drop(&mut self) {
                POOL_GONE.store(stacks::pooled().is_none(), Ordering::Relaxed);
            }
        }
        thread_local! {
            static PARKED: RefCell<Option<SimProcess<u8, u8>>> = const { RefCell::new(None) };
        }
        std::thread::spawn(|| {
            // Thread-locals are destroyed in reverse order of first use:
            // touching the slot before the first spawn makes the pool go first.
            PARKED.with(|_| {});
            let mut p = spawn_process("parked", |port: &ProcessPort<u8, u8>| {
                let _witness = Witness;
                port.request(0);
            });
            assert!(matches!(p.next_yield(), Yielded::Request(0)));
            PARKED.with(|slot| *slot.borrow_mut() = Some(p));
        })
        .join()
        .expect("the thread exits cleanly");
        assert!(POOL_GONE.load(Ordering::Relaxed));
    }

    /// One step of [`the_pool_matches_a_model`].
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Spawn a process and run it to its first request.
        Spawn,
        /// Resume the `n`th live process (modulo the live count) so that it
        /// returns, or panics, then drop it.
        Finish(usize),
        Panic(usize),
        /// Drop the `n`th live process while it is parked.
        DropParked(usize),
    }

    #[test]
    fn the_pool_matches_a_model() {
        svm_testkit::check(
            "the_pool_matches_a_model",
            |src| {
                // Spawns outnumber the rest, so long cases end with more
                // than `POOL_CAP` live processes for the teardown.
                src.vec(1..400, |s| {
                    let n = s.usize_in(0..1 << 16);
                    match s.below(10) {
                        0..=5 => Op::Spawn,
                        6 | 7 => Op::Finish(n),
                        8 => Op::Panic(n),
                        _ => Op::DropParked(n),
                    }
                })
            },
            |ops| {
                let held = Rc::new(());
                // The model: the pool as a LIFO of bases, starting from what
                // earlier cases on this thread left in it.
                let mut model = pooled();
                let give_back = |model: &mut Vec<*mut u8>, p: SimProcess<usize, bool>| {
                    if model.len() < stacks::POOL_CAP {
                        model.push(p.base);
                    }
                    drop(p);
                };
                let mut live: Vec<(SimProcess<usize, bool>, usize)> = Vec::new();
                for (id, &op) in ops.iter().enumerate() {
                    match op {
                        Op::Spawn => {
                            let captured = held.clone();
                            let mut p =
                                spawn_process("model", move |port: &ProcessPort<usize, bool>| {
                                    let _captured = captured;
                                    assert!(port.request(id), "process {id} panics");
                                });
                            match model.pop() {
                                Some(base) => {
                                    assert_eq!(p.base, base, "not the last one given back")
                                }
                                None => assert!(live.iter().all(|(q, _)| q.base != p.base)),
                            }
                            assert!(matches!(p.next_yield(), Yielded::Request(r) if r == id));
                            live.push((p, id));
                        }
                        Op::Finish(n) | Op::Panic(n) | Op::DropParked(n) => {
                            if live.is_empty() {
                                continue;
                            }
                            let (mut p, pid) = live.swap_remove(n % live.len());
                            match op {
                                Op::Finish(_) => {
                                    assert!(matches!(p.resume(true), Yielded::Finished(Ok(()))));
                                }
                                Op::Panic(_) => assert!(matches!(
                                    p.resume(false),
                                    Yielded::Finished(Err(msg)) if msg == format!("process {pid} panics")
                                )),
                                _ => {}
                            }
                            give_back(&mut model, p);
                        }
                    }
                    assert_eq!(pooled(), model);
                    for (p, _) in &live {
                        assert!(!model.contains(&p.base), "a live stack is pooled");
                    }
                }
                // Past the cap, a dropped process's stack is unmapped.
                while let Some((p, _)) = live.pop() {
                    give_back(&mut model, p);
                    assert_eq!(pooled(), model);
                }
                // Every body, finished or unwound, dropped what it captured.
                assert_eq!(Rc::strong_count(&held), 1);
            },
        );
    }

    /// Recurse until the stack is `bytes` below `base`; returns the depth in bytes.
    fn recurse_to(base: usize, bytes: usize) -> usize {
        let pad = std::hint::black_box([0u8; 256]);
        let used = base - pad.as_ptr() as usize;
        if used >= bytes {
            return used;
        }
        let deepest = recurse_to(base, bytes);
        std::hint::black_box(&pad); // live across the call: no tail call
        deepest
    }

    #[test]
    fn a_body_may_use_a_megabyte_of_stack() {
        const MIB: usize = 1 << 20;
        let mut p = spawn_process("deep", |port: &ProcessPort<usize, ()>| {
            let anchor = 0u8;
            port.request(recurse_to(&raw const anchor as usize, MIB));
        });
        assert!(matches!(p.next_yield(), Yielded::Request(used) if used >= MIB));
        assert!(matches!(p.resume(()), Yielded::Finished(Ok(()))));
    }

    #[test]
    fn many_processes_interleave_deterministically() {
        let mut procs: Vec<SimProcess<usize, usize>> = (0..8)
            .map(|i| {
                spawn_process(&format!("p{i}"), move |port: &ProcessPort<usize, usize>| {
                    let mut acc = i;
                    for _ in 0..100 {
                        acc = port.request(acc);
                    }
                    assert_eq!(acc, i + 100);
                })
            })
            .collect();
        // Round-robin resume; the kernel decides all interleaving.
        let mut yields: Vec<Yielded<usize>> = procs.iter_mut().map(|p| p.next_yield()).collect();
        for _round in 0..100 {
            for (p, y) in procs.iter_mut().zip(yields.iter_mut()) {
                let req = match y {
                    Yielded::Request(r) => *r,
                    Yielded::Finished(_) => continue,
                };
                *y = p.resume(req + 1);
            }
        }
        for y in &yields {
            assert!(matches!(y, Yielded::Finished(Ok(()))));
        }
    }
}
