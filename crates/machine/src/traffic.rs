//! Message classification and traffic counters (paper Table 5).

use crate::types::NodeId;

/// Traffic class of a message, for the paper's Table-5 split.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Update-related data: diffs and page contents.
    Data,
    /// Protocol control: requests, write notices, lock/barrier traffic.
    Protocol,
}

/// Implemented by the protocol's message type so the machine can price and
/// classify it.
///
/// A simulation lives on one thread (a `World` is `!Send`), so no `Send`
/// bound: protocols may share payloads via `Rc`.
pub trait Message: 'static {
    /// Payload bytes on the wire (drives transfer time and traffic totals).
    fn wire_bytes(&self) -> usize;
    /// Data vs protocol classification.
    fn class(&self) -> TrafficClass;
    /// The label a fault plan's targeted drop matches
    /// ([`crate::NetFaultConfig::drop_first_kind`]). Default: none, so the
    /// message is never targeted.
    fn kind(&self) -> Option<&'static str> {
        None
    }
}

/// Counters for one traffic class.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ClassCounters {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

/// Per-node and aggregate traffic statistics.
#[derive(Clone, Debug)]
pub struct TrafficStats {
    data: Vec<ClassCounters>,
    protocol: Vec<ClassCounters>,
}

impl TrafficStats {
    /// Counters for `nodes` nodes, all zero.
    pub fn new(nodes: usize) -> Self {
        TrafficStats {
            data: vec![ClassCounters::default(); nodes],
            protocol: vec![ClassCounters::default(); nodes],
        }
    }

    /// Record a message sent by `from`.
    pub fn record(&mut self, from: NodeId, class: TrafficClass, bytes: usize) {
        let c = match class {
            TrafficClass::Data => &mut self.data[from.index()],
            TrafficClass::Protocol => &mut self.protocol[from.index()],
        };
        c.messages += 1;
        c.bytes += bytes as u64;
    }

    /// A node's counters for one class.
    pub fn node(&self, n: NodeId, class: TrafficClass) -> ClassCounters {
        match class {
            TrafficClass::Data => self.data[n.index()],
            TrafficClass::Protocol => self.protocol[n.index()],
        }
    }

    /// Machine-wide counters for one class.
    pub fn total(&self, class: TrafficClass) -> ClassCounters {
        let v = match class {
            TrafficClass::Data => &self.data,
            TrafficClass::Protocol => &self.protocol,
        };
        v.iter()
            .fold(ClassCounters::default(), |acc, c| ClassCounters {
                messages: acc.messages + c.messages,
                bytes: acc.bytes + c.bytes,
            })
    }

    /// Machine-wide totals over both classes.
    pub fn grand_total(&self) -> ClassCounters {
        let d = self.total(TrafficClass::Data);
        let p = self.total(TrafficClass::Protocol);
        ClassCounters {
            messages: d.messages + p.messages,
            bytes: d.bytes + p.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut t = TrafficStats::new(2);
        t.record(NodeId(0), TrafficClass::Data, 100);
        t.record(NodeId(0), TrafficClass::Data, 50);
        t.record(NodeId(1), TrafficClass::Protocol, 8);
        assert_eq!(t.node(NodeId(0), TrafficClass::Data).messages, 2);
        assert_eq!(t.node(NodeId(0), TrafficClass::Data).bytes, 150);
        assert_eq!(t.total(TrafficClass::Protocol).messages, 1);
        assert_eq!(t.grand_total().messages, 3);
        assert_eq!(t.grand_total().bytes, 158);
    }
}
