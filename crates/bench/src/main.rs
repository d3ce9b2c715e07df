//! `svm-bench <command> [options]`: every table, figure and robustness
//! gate of the evaluation behind one executable.
//!
//! A command is a module under `src/cmd/` with a `run(Args)`; it asks
//! [`svm_bench::cli`] for exactly the options it honours, so a word it does
//! not know is a usage error (exit status 2), and so is a missing or
//! unknown command, which lists every command on stderr. Run as
//! `cargo run --release -p svm-bench -- table2 --scale 0.05`.

use svm_bench::cli::Args;

mod cmd {
    pub mod aurc;
    pub mod chaos;
    pub mod check;
    pub mod crash;
    pub mod explore;
    pub mod fig12_trace;
    pub mod fig3;
    pub mod fig4;
    pub mod sensitivity;
    pub mod serve;
    pub mod sor48;
    pub mod table1;
    pub mod table2;
    pub mod table3;
    pub mod table4;
    pub mod table5;
    pub mod table6;
}

/// The dispatch table: each command under the name of its module (one left
/// out is dead code, which `clippy -D warnings` in `verify.sh` refuses).
macro_rules! commands {
    ($($name:ident)*) => {
        &[$((stringify!($name), cmd::$name::run)),*]
    };
}

type Command = (&'static str, fn(Args));

const COMMANDS: &[Command] = commands! {
    table1 table2 table3 table4 table5 table6 fig12_trace fig3 fig4 sor48 aurc sensitivity
    chaos crash check explore serve
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
