//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. They are kept in memory and written out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `op`; `parent` is the
/// span that caused this one (0 for a root). Ids are positions in the
/// log, from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        parent: u32,
        op: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover (children clipped to the parent,
    /// overlapping children counted once). Indexed like [`Self::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0;
                let mut reach = s.start_ns;
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_unstable();
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The log as a JSON array of `{id, parent, op, name, start_ns,
    /// end_ns}` objects, one per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

/// A clock for spans around synchronous calls: nanoseconds since it was
/// made.
pub struct SpanClock(Instant);

impl SpanClock {
    pub fn new() -> SpanClock {
        SpanClock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut log = SpanLog::default();
        let root = log.push(0, 1, "request", 0, 1_000);
        let send = log.push(root, 1, "send", 100, 200);
        log.push(root, 1, "wait", 200, 900);
        log.push(send, 1, "encode", 100, 150);
        // a child that overlaps `wait` and runs past the parent's end
        // adds only what is new and inside the parent
        log.push(root, 1, "decode", 850, 1_200);
        // an unrelated root
        log.push(0, 2, "request", 0, 50);
        assert_eq!(log.self_times(), vec![100, 50, 700, 50, 350, 50]);
    }

    #[test]
    fn json_lists_every_field() {
        let mut log = SpanLog::default();
        log.push(0, 9, "send", 5, 8);
        assert_eq!(
            log.to_json(),
            "[\n{\"id\":1,\"parent\":0,\"op\":9,\"name\":\"send\",\"start_ns\":5,\"end_ns\":8}\n]\n"
        );
    }
}
