//! Spans recorded by the driver around every call into a layer.
//!
//! `workload -> cell -> {Benchmark::run | ServeSpec::run | check_trace |
//! Explorer::run | expected_checksum}`. Spans stay in memory and are
//! written when the run ends, as Chrome trace-event JSON (open it in
//! `chrome://tracing` or Perfetto). A cell's self time — its span minus
//! its child calls — is driver overhead: checks and bookkeeping. Spans
//! *inside* the program are a later change (ROADMAP item 3).

use std::collections::BTreeMap;

use svm_bench::json::Json;

/// One span: a named interval on the run clock, with the span that
/// caused it and the counts of the call it covers.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the cell this span belongs to (shared by its children).
    pub cell: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        cell: Option<usize>,
        name: impl Into<String>,
        (start_ns, end_ns): (u64, u64),
        args: Vec<(&'static str, f64)>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            cell,
            name: name.into(),
            start_ns,
            end_ns,
            args,
        });
        id
    }

    /// Reserve an id for a span whose end is not known yet; finish it
    /// with [`Tracer::close`].
    pub fn open(
        &mut self,
        parent: Option<u32>,
        cell: Option<usize>,
        name: &str,
        start: u64,
    ) -> u32 {
        self.record(parent, cell, name, (start, start), Vec::new())
    }

    pub fn close(&mut self, id: u32, end_ns: u64, args: Vec<(&'static str, f64)>) {
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.args = args;
    }

    /// Self time of a span: its duration minus what its children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args: BTreeMap<String, Json> = s
                    .args
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect();
                args.insert("span_id".into(), Json::int(s.id as u64));
                if let Some(p) = s.parent {
                    args.insert("parent_id".into(), Json::int(p as u64));
                }
                if let Some(c) = s.cell {
                    args.insert("cell_id".into(), Json::int(c as u64));
                }
                args.insert("self_us".into(), Json::Num(self.self_ns(s.id) as f64 / 1e3));
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("cat", Json::str("driver")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::int(1)),
                    ("tid", Json::int(1)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let w = t.open(None, None, "workload", 0);
        let c = t.open(Some(w), Some(0), "cell", 10);
        t.record(Some(c), Some(0), "Benchmark::run", (12, 90), vec![]);
        t.record(Some(c), Some(0), "check_trace", (90, 100), vec![]);
        t.close(c, 105, vec![("sim.events", 7.0)]);
        t.close(w, 110, vec![]);
        assert_eq!(t.self_ns(c), 95 - 88);
        assert_eq!(t.self_ns(w), 110 - 95);
        let text = t.to_chrome_json().pretty();
        let doc = svm_bench::json::parse(&text).expect("well-formed");
        match doc.get("traceEvents") {
            Some(Json::Arr(ev)) => assert_eq!(ev.len(), 4),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
