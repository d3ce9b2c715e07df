//! Schedules: the serialized form of an explored path.
//!
//! A schedule is the complete record of one explored execution — one line
//! per controller decision. Because explore-mode runs are deterministic
//! given the decision sequence, a schedule replays bit-identically through
//! the real machine: the committed counterexample corpus
//! (`results/explore_*.txt`) is nothing but schedules in this format.

use std::fmt;

use svm_machine::{NodeId, ProcAddr, ProcKind};

/// One controller decision, identified structurally (not by hold-pool
/// index): a channel's FIFO head is unique given the path so far, so
/// `(from, to)` pins exactly one deliverable message.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Deliver the FIFO head of the `from -> to` channel.
    Deliver {
        /// Sending processor.
        from: ProcAddr,
        /// Receiving processor.
        to: ProcAddr,
    },
    /// Crash-stop a node (recovery configurations only).
    Crash(NodeId),
    /// Run the failure-detection verdict for an already-crashed node.
    /// Enabled only with recovery armed, while the node is not yet declared
    /// dead, and once its outbound backlog has drained.
    Detect(NodeId),
}

fn fmt_proc(p: ProcAddr) -> String {
    let k = match p.kind {
        ProcKind::Cpu => 'c',
        ProcKind::CoProc => 'x',
    };
    format!("{}{}", p.node.0, k)
}

fn parse_proc(s: &str) -> Result<ProcAddr, String> {
    let (num, kind) = s.split_at(s.len().saturating_sub(1));
    let node = num
        .parse::<u16>()
        .map_err(|_| format!("bad processor {s:?}"))?;
    let kind = match kind {
        "c" => ProcKind::Cpu,
        "x" => ProcKind::CoProc,
        _ => return Err(format!("bad processor kind in {s:?} (want c or x)")),
    };
    Ok(ProcAddr {
        node: NodeId(node),
        kind,
    })
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { from, to } => {
                write!(f, "deliver {} {}", fmt_proc(*from), fmt_proc(*to))
            }
            Action::Crash(n) => write!(f, "crash {}", n.0),
            Action::Detect(n) => write!(f, "detect {}", n.0),
        }
    }
}

impl Action {
    /// Parse one schedule line (the [`fmt::Display`] form).
    pub fn parse(line: &str) -> Result<Action, String> {
        let mut w = line.split_whitespace();
        match w.next() {
            Some("deliver") => {
                let from = parse_proc(w.next().ok_or("deliver: missing sender")?)?;
                let to = parse_proc(w.next().ok_or("deliver: missing receiver")?)?;
                Ok(Action::Deliver { from, to })
            }
            Some(verb @ ("crash" | "detect")) => {
                let n = w
                    .next()
                    .ok_or_else(|| format!("{verb}: missing node"))?
                    .parse::<u16>()
                    .map_err(|_| format!("{verb}: bad node"))?;
                Ok(if verb == "crash" {
                    Action::Crash(NodeId(n))
                } else {
                    Action::Detect(NodeId(n))
                })
            }
            other => Err(format!("unknown action {other:?} in {line:?}")),
        }
    }
}

/// Render a schedule, one action per line.
pub fn format_schedule(schedule: &[Action]) -> String {
    let mut out = String::new();
    for a in schedule {
        out.push_str(&a.to_string());
        out.push('\n');
    }
    out
}

/// Parse a schedule: one action per line, `#` comments and blanks skipped.
pub fn parse_schedule(text: &str) -> Result<Vec<Action>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(Action::parse)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_round_trip_through_text() {
        let sched = vec![
            Action::Deliver {
                from: ProcAddr::cpu(NodeId(0)),
                to: ProcAddr::coproc(NodeId(1)),
            },
            Action::Crash(NodeId(2)),
            Action::Detect(NodeId(2)),
            Action::Deliver {
                from: ProcAddr::coproc(NodeId(1)),
                to: ProcAddr::cpu(NodeId(0)),
            },
        ];
        let text = format_schedule(&sched);
        assert_eq!(parse_schedule(&text).unwrap(), sched);
        assert_eq!(
            parse_schedule("# comment\n\ndeliver 0c 1x\n").unwrap(),
            vec![Action::Deliver {
                from: ProcAddr::cpu(NodeId(0)),
                to: ProcAddr::coproc(NodeId(1)),
            }]
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_schedule("deliver 0c").is_err());
        assert!(parse_schedule("deliver 0q 1c").is_err());
        assert!(parse_schedule("crash x").is_err());
        assert!(parse_schedule("frobnicate 1").is_err());
    }
}
