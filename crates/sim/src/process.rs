//! Simulated processes: application code on real threads, in strict
//! rendezvous with the event kernel.
//!
//! A simulated process is an ordinary Rust closure (for us: a Splash-2-style
//! program against the SVM API) running on an OS thread. It interacts with
//! the simulation exclusively by calling [`ProcessPort::request`], which
//! hands a request to the kernel and blocks until the kernel resumes it with
//! a response. The kernel side ([`SimProcess::resume`]) symmetrically blocks
//! until the process either issues its next request or finishes.
//!
//! The discipline is *strict alternation*: at any moment either the kernel
//! thread or exactly one process thread is running, never both — from
//! [`spawn_process`] on: a body first runs inside the kernel's first
//! [`SimProcess::next_yield`]. The exchange is a single `Mutex`+`Condvar`
//! rendezvous cell — one request and one response slot — rather than a pair
//! of mpsc channels: strict alternation means the slots never hold more than
//! one value, the mutex provides the happens-before edges (see
//! [`crate::HandoffCell`]), and no allocation happens per request.
//!
//! Two things keep a round trip at the cost of the two context switches it
//! cannot avoid. *Wake after unlock*: an endpoint changes a slot under the
//! mutex, releases the mutex, and only then calls `notify_one`, so the woken
//! thread never runs into a held lock and bounces back. No wake-up can be
//! lost, because a waiter re-checks its slot under the mutex before it
//! sleeps: a change made before that check is seen by it, and a change made
//! after it is followed by a `notify_one` that finds the waiter asleep (or
//! about to be — `Condvar::wait` releases the mutex and sleeps atomically).
//! Alternation leaves at most one sleeper per cell, so `notify_one` wakes
//! everyone `notify_all` would. *Worker reuse*: bodies run on a process-wide
//! list of parked worker threads, so after warm-up a process costs no thread
//! spawn; the list is as long as the largest number of processes that were
//! ever live at once. A body is handed to its worker through the worker's own
//! mutex-guarded slot (or the thread spawn), which orders everything the
//! kernel did before the first `next_yield` before the body. Neither can
//! change a virtual-time result: which OS thread runs a body, and when it is
//! woken, are invisible to the kernel, which observes only the sequence of
//! yields.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

/// Panic payload used to unwind a process body when the kernel has shut
/// down while the process was parked in [`ProcessPort::request`]. This is
/// the *expected* teardown path for a halted simulation (e.g., a run ended
/// early by a protocol error), so the global panic hook is taught to stay
/// silent for it — no stderr message, no backtrace.
struct KernelShutdown;

/// Install (once, process-wide) a panic hook that suppresses output for
/// [`KernelShutdown`] unwinds and delegates everything else to the
/// previously installed hook.
fn install_quiet_shutdown_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KernelShutdown>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// What a process produced when control returned to the kernel.
#[derive(Debug)]
pub enum Yielded<Req> {
    /// The process issued a request and is now blocked awaiting the response.
    Request(Req),
    /// The process body returned (`Ok`) or panicked (`Err(panic message)`).
    Finished(Result<(), String>),
}

/// Lock `m`, ignoring poison.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock means a thread panicked *while holding it*; every
    // critical section here only moves plain data, and panics happen
    // outside them, so this is unreachable in practice.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleep on `cv`, ignoring poison (see [`lock`]).
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The rendezvous cell both endpoints share.
struct Chan<Req, Resp> {
    state: Mutex<ChanState<Req, Resp>>,
    cv: Condvar,
}

struct ChanState<Req, Resp> {
    /// Process -> kernel: the pending yield (at most one, by alternation).
    yielded: Option<Yielded<Req>>,
    /// Kernel -> process: the pending resume value (at most one).
    resp: Option<Resp>,
    /// The kernel endpoint was dropped; a parked process must unwind.
    kernel_gone: bool,
}

impl<Req, Resp> Chan<Req, Resp> {
    fn new() -> Self {
        Chan {
            state: Mutex::new(ChanState {
                yielded: None,
                resp: None,
                kernel_gone: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Change the state under the mutex, then wake the other endpoint
    /// *after* releasing it (module doc: "wake after unlock").
    fn publish(&self, change: impl FnOnce(&mut ChanState<Req, Resp>)) {
        change(&mut lock(&self.state));
        self.cv.notify_one();
    }
}

/// What a worker runs: one process body, up to and including its final
/// yield. It is handed its worker so that it can put the worker back on
/// [`IDLE`] itself, before that yield (see [`spawn_process`]).
type Job = Box<dyn FnOnce(&Arc<Worker>) + Send>;

/// A reusable OS thread, parked on a one-job slot between processes.
struct Worker {
    job: Mutex<Option<Job>>,
    cv: Condvar,
}

/// The workers that have no process to run. Process-wide; it holds at most
/// the peak number of simultaneously live processes, and its threads are
/// never joined: they stay parked until the host process exits.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// Run `job` on an idle worker, or on a new one when none is idle.
fn start(job: Job) {
    let idle = lock(&IDLE).pop();
    let worker = idle.unwrap_or_else(spawn_worker);
    *lock(&worker.job) = Some(job);
    worker.cv.notify_one();
}

/// A new worker thread: run the job in the slot, sleep until the next one.
fn spawn_worker() -> Arc<Worker> {
    let worker = Arc::new(Worker {
        job: Mutex::new(None),
        cv: Condvar::new(),
    });
    let me = worker.clone();
    std::thread::Builder::new()
        .name("sim-process".to_string())
        .spawn(move || loop {
            let mut slot = lock(&me.job);
            let job = loop {
                match slot.take() {
                    Some(job) => break job,
                    None => slot = wait(&me.cv, slot),
                }
            };
            drop(slot);
            job(&me);
        })
        .expect("failed to spawn simulated process thread");
    worker
}

/// The process-side endpoint: issue requests, receive responses.
pub struct ProcessPort<Req, Resp> {
    chan: Arc<Chan<Req, Resp>>,
}

impl<Req, Resp> ProcessPort<Req, Resp> {
    /// Hand `req` to the kernel and block until it responds.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has shut down (its [`SimProcess`] was dropped);
    /// the panic unwinds the process body so its worker is free again. The
    /// payload is a private marker the panic hook recognizes, so this
    /// expected teardown produces no stderr noise.
    pub fn request(&self, req: Req) -> Resp {
        self.chan.publish(|st| {
            debug_assert!(st.yielded.is_none(), "request while a yield is pending");
            st.yielded = Some(Yielded::Request(req));
        });
        let mut st = lock(&self.chan.state);
        loop {
            // Take a response even if the kernel dropped right after
            // sending it — the resume must not be lost.
            if let Some(resp) = st.resp.take() {
                return resp;
            }
            if st.kernel_gone {
                drop(st);
                panic::panic_any(KernelShutdown);
            }
            st = wait(&self.chan.cv, st);
        }
    }

    /// Post the final yield (body returned or panicked).
    fn finish(&self, outcome: Result<(), String>) {
        self.chan
            .publish(|st| st.yielded = Some(Yielded::Finished(outcome)));
    }
}

/// The kernel-side endpoint of a simulated process.
pub struct SimProcess<Req, Resp> {
    chan: Arc<Chan<Req, Resp>>,
    /// The body, until the first `next_yield` hands it to a worker.
    job: Option<Job>,
    /// True while the process is blocked in `request()` awaiting a resume.
    awaiting_resume: bool,
    finished: bool,
    name: String,
}

/// Create a simulated process that will run `body`.
///
/// Nothing of the body runs yet: the first [`SimProcess::next_yield`] hands
/// it to a worker thread and returns its first request, so alternation with
/// the kernel is strict from the start (the kernel may build its world
/// between the two calls without a body running beside it). Panics inside
/// the body are caught and reported as [`Yielded::Finished(Err(..))`].
pub fn spawn_process<Req, Resp, F>(name: &str, body: F) -> SimProcess<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
    F: FnOnce(&ProcessPort<Req, Resp>) + Send + 'static,
{
    install_quiet_shutdown_hook();
    let chan = Arc::new(Chan::new());
    let port = ProcessPort { chan: chan.clone() };
    let job: Job = Box::new(move |worker| {
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&port)));
        let outcome = match result {
            Ok(()) => Ok(()),
            // `&*payload` derefs the box: passing `&payload` would unsize
            // the `Box` itself into `dyn Any` and the downcasts would miss.
            Err(payload) => Err(panic_message(&*payload)),
        };
        // Idle again *before* the final yield: a kernel that has seen this
        // process finish finds the worker listed, so runs of processes that
        // never overlap never grow the thread count. A job posted to the
        // slot meanwhile is picked up when this one returns.
        lock(&IDLE).push(worker.clone());
        // Posted even when the kernel is gone: its Drop waits for this.
        port.finish(outcome);
    });
    SimProcess {
        chan,
        job: Some(job),
        awaiting_resume: false,
        finished: false,
        name: name.to_string(),
    }
}

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

    /// Start the freshly spawned process and block until it yields.
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
        if let Some(job) = self.job.take() {
            start(job);
        }
        let mut st = lock(&self.chan.state);
        let y = loop {
            match st.yielded.take() {
                Some(y) => break y,
                None => st = wait(&self.chan.cv, st),
            }
        };
        drop(st);
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
        self.chan.publish(|st| {
            debug_assert!(st.resp.is_none(), "resume while a response is pending");
            st.resp = Some(resp);
        });
        self.next_yield()
    }
}

impl<Req, Resp> Drop for SimProcess<Req, Resp> {
    fn drop(&mut self) {
        // A body that was never started, or has posted its final yield, has
        // nothing left to unwind.
        if self.job.is_some() || self.finished {
            return;
        }
        // Flagging the kernel gone unblocks the parked process: its wait
        // loop observes the flag, request() panics, catch_unwind catches,
        // and the worker posts the final yield. Waiting for that yield
        // means the body and everything it captured are dropped before
        // this returns.
        self.chan.publish(|st| st.kernel_gone = true);
        let mut st = lock(&self.chan.state);
        while !matches!(st.yielded, Some(Yielded::Finished(_))) {
            st = wait(&self.chan.cv, st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A body whose requests carry the worker thread it runs on.
    type Probe = SimProcess<(ThreadId, u32), u32>;

    /// Run a two-request body to completion, checking every value that
    /// crosses the port; returns the worker it ran on.
    fn fresh_body_runs(base: u32) -> ThreadId {
        let mut p: Probe = spawn_process("fresh", move |port| {
            let me = std::thread::current().id();
            let a = port.request((me, base));
            let b = port.request((me, a + 1));
            assert_eq!(b, base + 12);
        });
        let Yielded::Request((worker, r)) = p.next_yield() else {
            panic!("no first request");
        };
        assert_eq!(r, base);
        assert!(
            matches!(p.resume(base + 10), Yielded::Request((w, r)) if w == worker && r == base + 11)
        );
        assert!(matches!(p.resume(base + 12), Yielded::Finished(Ok(()))));
        worker
    }

    /// Runs alone in a child process (see `workers_survive_unwinds`), so
    /// the worker list and stderr are its own: one worker, used four times.
    #[test]
    #[ignore = "child process of workers_survive_unwinds"]
    fn child_unwinds_then_fresh_bodies() {
        let mut bomb: Probe = spawn_process("bomb", |port| {
            port.request((std::thread::current().id(), 0));
            panic!("kaboom-loud");
        });
        let Yielded::Request((worker, _)) = bomb.next_yield() else {
            panic!("no first request");
        };
        assert!(
            matches!(bomb.resume(0), Yielded::Finished(Err(msg)) if msg.contains("kaboom-loud"))
        );
        assert_eq!(fresh_body_runs(100), worker);

        let mut parked: Probe = spawn_process("parked", |port| {
            port.request((std::thread::current().id(), 0));
            port.request((std::thread::current().id(), 1)); // never resumed
        });
        assert!(matches!(parked.next_yield(), Yielded::Request((w, 0)) if w == worker));
        drop(parked); // the KernelShutdown unwind
        assert_eq!(fresh_body_runs(200), worker);
    }

    #[test]
    fn workers_survive_unwinds() {
        let exe = std::env::current_exe().expect("path of this test binary");
        let child = std::process::Command::new(exe)
            .args(["--ignored", "--exact", "--nocapture"])
            .arg("process::tests::child_unwinds_then_fresh_bodies")
            .output()
            .expect("run the child test");
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(child.status.success(), "child failed:\n{stderr}");
        // The hook is still loud for the real panic and still silent for
        // the KernelShutdown unwind that followed it on the same worker.
        assert_eq!(stderr.matches("panicked at").count(), 1, "{stderr}");
        assert!(stderr.contains("kaboom-loud"), "{stderr}");
    }

    #[test]
    fn body_runs_only_from_the_first_next_yield() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        let mut p = spawn_process("lazy", move |_port: &ProcessPort<(), ()>| {
            flag.store(true, Ordering::SeqCst);
        });
        // Not "not yet": nothing can run the body before next_yield().
        assert!(!ran.load(Ordering::SeqCst));
        assert!(matches!(p.next_yield(), Yielded::Finished(Ok(()))));
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_before_first_yield_never_runs_the_body() {
        let held = Arc::new(());
        let captured = held.clone();
        let p = spawn_process("early-drop", move |_port: &ProcessPort<u8, u8>| {
            let _captured = captured;
            unreachable!("dropped before next_yield()");
        });
        drop(p); // must not hang, and drops what the body captured
        assert_eq!(Arc::strong_count(&held), 1);
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
