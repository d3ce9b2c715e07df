//! Exploration smoke: tiny spaces exhaust cleanly and deterministically.

use svm_core::ProtocolName;
use svm_explore::{
    base_config, parse_schedule, replay_schedule, ExploreOptions, Explorer, Program,
};

#[test]
fn lrc_two_node_lock_counter_explores_clean() {
    let cfg = base_config(ProtocolName::Lrc, 2, false, 256);
    let ex = Explorer::new(cfg, Program::LockCounter { rounds: 1 });
    let r = ex.run();
    eprintln!(
        "states={} transitions={} replays={} terminals={} peak_depth={}",
        r.states, r.transitions, r.replays, r.terminals, r.peak_depth
    );
    if let Some(c) = &r.counterexample {
        panic!("unexpected counterexample: {:?}\n{:?}", c.what, c.schedule);
    }
    assert!(r.clean(), "error: {:?}", r.error);
    assert!(r.terminals >= 1);
    assert!(r.states > 1);
}

#[test]
fn hlrc_two_node_lock_counter_explores_clean() {
    let cfg = base_config(ProtocolName::Hlrc, 2, false, 256);
    let ex = Explorer::new(cfg, Program::LockCounter { rounds: 1 });
    let r = ex.run();
    eprintln!(
        "states={} transitions={} replays={} terminals={} peak_depth={}",
        r.states, r.transitions, r.replays, r.terminals, r.peak_depth
    );
    assert!(
        r.clean(),
        "cex: {:?} error: {:?}",
        r.counterexample.map(|c| c.what),
        r.error
    );
}

#[test]
fn sleep_sets_preserve_the_visited_state_set() {
    let cfg = base_config(ProtocolName::Hlrc, 2, false, 256);
    let mut with = Explorer::new(cfg.clone(), Program::LockCounter { rounds: 1 });
    with.opts = ExploreOptions {
        sleep_sets: true,
        ..ExploreOptions::default()
    };
    let mut without = Explorer::new(cfg, Program::LockCounter { rounds: 1 });
    without.opts = ExploreOptions {
        sleep_sets: false,
        ..ExploreOptions::default()
    };
    let a = with.run();
    let b = without.run();
    eprintln!(
        "with sleep: states={} transitions={}; without: states={} transitions={}",
        a.states, a.transitions, b.states, b.transitions
    );
    assert!(a.clean() && b.clean());
    assert_eq!(
        a.visited, b.visited,
        "sleep sets must not change the state set"
    );
    assert!(a.transitions <= b.transitions);
}

/// `detect` has one enabledness predicate: replay accepts it exactly where
/// the explorer can produce it — the node is crashed and drained, recovery
/// is armed, and the node is not yet declared dead.
#[test]
fn detect_replays_only_where_the_explorer_enumerates_it() {
    let schedule = parse_schedule("crash 1\ndeliver 1c 0c\ndetect 1\n").unwrap();
    let replay = |recovery| {
        let cfg = base_config(ProtocolName::Hlrc, 2, recovery, 256);
        replay_schedule(&cfg, Program::LockCounter { rounds: 1 }, &schedule)
    };
    let off = replay(false);
    assert!(
        off.diverged && off.applied == 2,
        "no detector, no detection: {off:?}"
    );
    let on = replay(true);
    assert!(!on.diverged && on.applied == 3, "{on:?}");
}
