//! `svm-bench <command> [options]`: every table, figure and robustness
//! gate of the evaluation behind one executable.
//!
//! A command is a module under `src/cmd/` with a `run(Args)`, or one of the
//! paper's tables and figures, a function of `src/cmd/paper.rs`; it asks
//! [`svm_bench::cli`] for exactly the options it honours, so a word it does
//! not know is a usage error (exit status 2), and so is a missing or
//! unknown command, which lists every command on stderr. Run as
//! `cargo run --release -p svm-bench -- table2 --scale 0.05`.

use svm_bench::cli::Args;

mod cmd {
    pub mod explore;
    pub mod fig12_trace;
    pub mod paper;
    pub mod robust;
    pub mod serve;
}

/// The dispatch table: each command under the name of its module, or of its
/// function in `paper` (one left out is dead code, which `clippy -D warnings`
/// in `verify.sh` refuses).
macro_rules! commands {
    ($($module:ident $(::$view:ident)?)*) => {
        &[$(commands!(@one $module $(::$view)?)),*]
    };
    (@one paper::$view:ident) => {
        (stringify!($view), cmd::paper::$view)
    };
    (@one $module:ident) => {
        (stringify!($module), cmd::$module::run)
    };
}

type Command = (&'static str, fn(Args));

const COMMANDS: &[Command] = commands! {
    paper::table1 paper::table2 paper::table3 paper::table4 paper::table5 paper::table6
    fig12_trace paper::fig3 paper::fig4 paper::sor48 paper::aurc paper::sensitivity
    robust explore serve
};

fn main() {
    let mut words = std::env::args().skip(1);
    let name = words.next();
    match COMMANDS.iter().find(|(n, _)| Some(*n) == name.as_deref()) {
        Some((_, run)) => run(Args::new(words)),
        None => {
            let what = name.map_or("no command".to_string(), |n| format!("unknown command {n}"));
            let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "error: {what}; usage: svm-bench <command> [options]; commands: {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
}
