//! Counterexample case files: the committed regression corpus.
//!
//! A case file (`results/explore_*.txt`) pins one found counterexample:
//! the bounded configuration, the seeded mutation (if any), the minimal
//! schedule, the violation the schedule demonstrates, and the canonical
//! digest of the violating state. The corpus pinning test replays every
//! committed case through the real machine and the trace checker and
//! asserts all three reproduce bit-identically.

use svm_core::{ProtocolName, SeededBug, SvmConfig};

use crate::engine::{replay_schedule, ReplayReport};
use crate::program::{base_config, Program};
use crate::schedule::{format_schedule, parse_schedule, Action};

/// One committed counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// Protocol under test.
    pub protocol: ProtocolName,
    /// Node count.
    pub nodes: usize,
    /// Page size the bounded config ran with.
    pub page_size: usize,
    /// Recovery machinery armed?
    pub recovery: bool,
    /// The seeded mutation the schedule exposes (`None` = genuine bug).
    pub mutation: Option<SeededBug>,
    /// Workload.
    pub program: Program,
    /// Substring expected in the replayed violation report.
    pub violation: String,
    /// Canonical digest of the state the replay stops in.
    pub final_digest: u64,
    /// The minimal schedule.
    pub schedule: Vec<Action>,
}

/// The seeded bug's catalogue name (`SeededBug`'s `Display`), or `none`.
fn mutation_to_text(m: Option<SeededBug>) -> String {
    m.map_or_else(|| "none".into(), |b| b.to_string())
}

fn mutation_parse(s: &str) -> Result<Option<SeededBug>, String> {
    (s != "none").then(|| s.parse()).transpose()
}

impl Case {
    /// The bounded [`SvmConfig`] this case ran under.
    pub fn config(&self) -> SvmConfig {
        let mut cfg = base_config(self.protocol, self.nodes, self.recovery, self.page_size);
        cfg.mutation = self.mutation;
        cfg
    }

    /// Replay this case through the real machine + trace checker.
    pub fn replay(&self) -> ReplayReport {
        replay_schedule(&self.config(), self.program, &self.schedule)
    }

    /// Serialize to the corpus file format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# svm-explore counterexample case (see DESIGN.md §16)\n");
        out.push_str(&format!("protocol = {}\n", self.protocol));
        out.push_str(&format!("nodes = {}\n", self.nodes));
        out.push_str(&format!("page_size = {}\n", self.page_size));
        out.push_str(&format!(
            "recovery = {}\n",
            if self.recovery { "on" } else { "off" }
        ));
        out.push_str(&format!("mutation = {}\n", mutation_to_text(self.mutation)));
        out.push_str(&format!("program = {}\n", self.program.name()));
        out.push_str(&format!("violation = {}\n", self.violation));
        out.push_str(&format!("final_digest = {:#018x}\n", self.final_digest));
        out.push_str("schedule:\n");
        out.push_str(&format_schedule(&self.schedule));
        out
    }

    /// Parse the [`Self::to_text`] form.
    pub fn parse(text: &str) -> Result<Case, String> {
        let mut fields: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
        let mut schedule_text = String::new();
        let mut in_schedule = false;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if in_schedule {
                schedule_text.push_str(line);
                schedule_text.push('\n');
                continue;
            }
            if line == "schedule:" {
                in_schedule = true;
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("bad case line {line:?}"))?;
            fields.insert(k.trim(), v.trim());
        }
        let get = |k: &str| {
            fields
                .get(k)
                .copied()
                .ok_or_else(|| format!("case missing field {k:?}"))
        };
        let digest_text = get("final_digest")?;
        let digest_text = digest_text
            .strip_prefix("0x")
            .ok_or_else(|| format!("final_digest {digest_text:?} must be hex"))?;
        Ok(Case {
            protocol: get("protocol")?.parse()?,
            nodes: get("nodes")?.parse().map_err(|_| "bad nodes".to_string())?,
            page_size: get("page_size")?
                .parse()
                .map_err(|_| "bad page_size".to_string())?,
            recovery: match get("recovery")? {
                "on" => true,
                "off" => false,
                other => return Err(format!("bad recovery {other:?}")),
            },
            mutation: mutation_parse(get("mutation")?)?,
            program: Program::parse(get("program")?)?,
            violation: get("violation")?.to_string(),
            final_digest: u64::from_str_radix(digest_text, 16)
                .map_err(|_| "bad final_digest".to_string())?,
            schedule: parse_schedule(&schedule_text)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm_machine::{NodeId, ProcAddr};

    #[test]
    fn cases_round_trip_through_text() {
        let case = Case {
            protocol: ProtocolName::Hlrc,
            nodes: 2,
            page_size: 256,
            recovery: true,
            mutation: Some(SeededBug::LeakDeadLockGrant),
            program: Program::LockCounter { rounds: 2 },
            violation: "trace: ReadMismatch".into(),
            final_digest: 0xdead_beef_0bad_cafe,
            schedule: vec![
                Action::Deliver {
                    from: ProcAddr::cpu(NodeId(0)),
                    to: ProcAddr::cpu(NodeId(1)),
                },
                Action::Crash(NodeId(1)),
            ],
        };
        assert_eq!(Case::parse(&case.to_text()).unwrap(), case);
    }

    #[test]
    fn every_seeded_bug_has_a_stable_coding() {
        for m in SeededBug::ALL.map(Some).into_iter().chain([None]) {
            assert_eq!(mutation_parse(&mutation_to_text(m)).unwrap(), m);
        }
        // A bug that counts occurrences takes an index, and only such a bug.
        for bug in SeededBug::ALL {
            let (stem, counted) = (bug.stem(), bug.nth().is_some());
            assert_eq!(mutation_parse(stem).is_ok(), !counted, "{stem}");
            let later = mutation_parse(&format!("{stem}:7"));
            let nth = later.is_ok_and(|m| m.and_then(SeededBug::nth) == Some(7));
            assert_eq!(nth, counted, "{stem}");
        }
        assert!(mutation_parse("skip-diff-apply:x").is_err());
    }
}
