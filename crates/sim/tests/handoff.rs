//! What a process costs the host, and a long random interleaving.

use svm_sim::{spawn_process, ProcessPort, SimProcess, SplitMix64, Yielded};

/// Whether this process runs `test` and nothing else (the harness was given
/// `--exact`); otherwise run such a child and require it to pass. The
/// harness's threads for the other tests come and go — and their stacks are
/// mappings — so what `/proc/self` says is only a fact about `test` in a
/// process of its own.
#[cfg(target_os = "linux")]
fn alone_in_a_child(test: &str) -> bool {
    if std::env::args().any(|arg| arg == "--exact") {
        return true;
    }
    let exe = std::env::current_exe().expect("path of this test binary");
    let child = std::process::Command::new(exe)
        .args(["--exact", test, "--test-threads=1"])
        .output()
        .expect("run the child test");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "{test}, alone:\n{stdout}");
    assert!(stdout.contains("1 passed"), "{test} did not run:\n{stdout}");
    false
}

/// Run 64 processes, all live at once, to completion.
#[cfg(target_os = "linux")]
fn run_64_to_completion() {
    let mut procs: Vec<SimProcess<usize, usize>> = (0..64)
        .map(|i| {
            spawn_process(&format!("p{i}"), move |port: &ProcessPort<usize, usize>| {
                assert_eq!(port.request(i), i + 1);
            })
        })
        .collect();
    let first: Vec<Yielded<usize>> = procs.iter_mut().map(|p| p.next_yield()).collect();
    for (i, (p, y)) in procs.iter_mut().zip(first).enumerate() {
        assert!(matches!(y, Yielded::Request(r) if r == i));
        assert!(matches!(p.resume(i + 1), Yielded::Finished(Ok(()))));
    }
}

#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[cfg(target_os = "linux")]
#[test]
fn second_round_of_64_processes_spawns_no_thread() {
    if !alone_in_a_child("second_round_of_64_processes_spawns_no_thread") {
        return;
    }
    // Bodies run on the kernel's thread: 64 live processes are 64 stacks.
    let before = os_threads();
    run_64_to_completion();
    assert_eq!(os_threads(), before);
    run_64_to_completion();
    assert_eq!(os_threads(), before);
}

#[cfg(target_os = "linux")]
#[test]
fn a_finished_or_dropped_process_leaves_no_mapping() {
    if !alone_in_a_child("a_finished_or_dropped_process_leaves_no_mapping") {
        return;
    }
    fn mappings() -> usize {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        maps.lines().count()
    }
    let cycles = |n: usize| {
        for i in 0..n {
            let mut p = spawn_process("cycle", move |port: &ProcessPort<usize, ()>| {
                port.request(i);
                port.request(i); // reached by the odd ones only
            });
            assert!(matches!(p.next_yield(), Yielded::Request(r) if r == i));
            if i % 2 == 1 {
                assert!(matches!(p.resume(()), Yielded::Request(r) if r == i));
            }
            drop(p); // parked in its first or second request
            let mut q = spawn_process("cycle", |_port: &ProcessPort<(), ()>| {});
            assert!(matches!(q.next_yield(), Yielded::Finished(Ok(()))));
        }
    };
    cycles(10); // whatever the first use maps (allocator arenas) is mapped
    let before = mappings();
    cycles(1_000);
    // A stack is two lines (guard page, stack): a leak would add 4 000.
    let after = mappings();
    assert!(after <= before, "{before} mappings grew to {after}");
}

#[test]
fn long_random_interleaving_then_drop_while_parked() {
    const ROUNDS: usize = 10_000;
    // Each body echoes what it is resumed with, plus one, until told 0.
    let mut procs: Vec<SimProcess<usize, usize>> = (0..8)
        .map(|i| {
            spawn_process(&format!("p{i}"), move |port: &ProcessPort<usize, usize>| {
                let mut v = i + 1;
                loop {
                    v = port.request(v);
                    if v == 0 {
                        break;
                    }
                    v += 1;
                }
            })
        })
        .collect();
    let mut last: Vec<usize> = procs
        .iter_mut()
        .enumerate()
        .map(|(i, p)| match p.next_yield() {
            Yielded::Request(r) => {
                assert_eq!(r, i + 1);
                r
            }
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    // The kernel alone decides who runs next; a lost wake-up hangs here.
    let mut rng = SplitMix64::new(0x5eed);
    let mut trips = [0usize; 8];
    while trips.iter().any(|&t| t < ROUNDS) {
        let i = rng.below(8) as usize;
        if trips[i] == ROUNDS {
            continue;
        }
        trips[i] += 1;
        match procs[i].resume(last[i] + 7) {
            Yielded::Request(r) => {
                assert_eq!(r, last[i] + 8);
                last[i] = r;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Half are dropped while parked, half are told to return.
    for (i, mut p) in procs.into_iter().enumerate() {
        if i % 2 == 0 {
            drop(p);
        } else {
            assert!(matches!(p.resume(0), Yielded::Finished(Ok(()))));
        }
    }
}
