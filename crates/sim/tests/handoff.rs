//! Worker reuse and lost-wakeup stress for the process rendezvous.
//!
//! An integration test is its own host process, so the process-wide worker
//! list of `svm_sim::process` is shared with nothing but the tests below —
//! which take `ALONE` so that they do not share it with each other either.

use std::sync::{Mutex, PoisonError};
use svm_sim::{spawn_process, ProcessPort, SimProcess, SplitMix64, Yielded};

static ALONE: Mutex<()> = Mutex::new(());

/// Run 64 processes, all live at once, to completion.
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
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    run_64_to_completion();
    let after_one = os_threads();
    assert!(
        after_one >= 64,
        "{after_one} threads cannot hold 64 workers"
    );
    run_64_to_completion();
    // Workers never exit, so any thread spawned in round two would show.
    assert!(os_threads() <= after_one);
}

#[test]
fn long_random_interleaving_then_drop_while_parked() {
    const ROUNDS: usize = 10_000;
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
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
