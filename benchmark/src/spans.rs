//! Bench-side spans: one per call into a layer, recorded from outside the
//! program under test. Kept in memory; written out when the workload ends.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed interval. `name` is `<layer>.<call>` (`sql.parse`,
/// `engine.eval`, …) or one of the harness's own `round` / `stmt`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Statement id the span belongs to (`""` outside statements).
    pub stmt: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at the top.
    pub parent: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer (crate) a span is charged to; `None` for the harness's own
    /// `round` / `stmt` spans, whose self time is the unattributed residual.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// What the round runner records into. [`Off`] compiles to nothing, and the
/// recorder of measured rounds (`calibrate::Paced`) keeps no span either,
/// so the end-to-end numbers are measured with tracing off, not merely
/// unused.
pub trait Rec {
    fn begin(&mut self, name: &'static str) -> u32;
    fn end(&mut self, token: u32);
    /// Tag following spans with a round and a statement id.
    fn at(&mut self, round: u32, stmt: &'static str);
}

/// The recorder of untraced, unmeasured rounds (warm-up, verify pass).
pub struct Off;

impl Rec for Off {
    #[inline(always)]
    fn begin(&mut self, _: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: u32) {}
    #[inline(always)]
    fn at(&mut self, _: u32, _: &'static str) {}
}

/// The recorder of traced rounds.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    stmt: &'static str,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            // Room for a few ad-hoc rounds; growth later is amortized.
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            round: 0,
            stmt: "",
        }
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] = own[s.parent as usize].saturating_sub(s.nanos());
            }
        }
        own
    }

    /// Σ duration and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.nanos();
            e.1 += 1;
        }
        out
    }

    /// Σ duration of spans named `name`, per round, in round order.
    pub fn per_round(&self, name: &str) -> Vec<u64> {
        let mut out: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.round).or_default() += s.nanos();
        }
        out.into_values().collect()
    }

    /// Chrome Trace Event JSON (load at <https://ui.perfetto.dev>) of the
    /// spans of the first `rounds` rounds.
    pub fn chrome_trace(&self, workload: &str, rounds: u32) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let first = self.spans.first().map_or(0, |s| s.round);
        let mut sep = "";
        for (i, s) in self.spans.iter().enumerate() {
            if s.round >= first + rounds {
                continue;
            }
            out.push_str(&format!(
                "{sep}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\
                 \"round\":{},\"stmt\":\"{}\",\"workload\":\"{workload}\"}}}}",
                s.name,
                s.layer().unwrap_or("bench"),
                s.start_ns as f64 / 1e3,
                s.nanos() as f64 / 1e3,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                },
                s.round,
                s.stmt,
            ));
            sep = ",\n";
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Rec for SpanLog {
    fn begin(&mut self, name: &'static str) -> u32 {
        let token = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            stmt: self.stmt,
            round: self.round,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
        });
        self.open.push(token);
        token
    }

    fn end(&mut self, token: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token), "spans close innermost first");
        self.spans[token as usize].end_ns = now;
    }

    fn at(&mut self, round: u32, stmt: &'static str) {
        self.round = round;
        self.stmt = stmt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            stmt: "",
            round: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut log = SpanLog::new();
        log.spans = vec![
            span("round", 0, 100, NO_PARENT),
            span("stmt", 10, 90, 0),
            span("sql.parse", 10, 30, 1),
            span("engine.eval", 30, 80, 1),
        ];
        assert_eq!(log.self_nanos(), vec![20, 10, 20, 50]);
        assert_eq!(log.spans[2].layer(), Some("sql"));
        assert_eq!(log.spans[0].layer(), None);
        assert_eq!(log.totals()["engine.eval"], (50, 1));
    }

    #[test]
    fn recorded_spans_nest_and_export() {
        let mut log = SpanLog::new();
        log.at(4, "pk_join");
        let outer = log.begin("stmt");
        let inner = log.begin("engine.eval");
        log.end(inner);
        log.end(outer);
        assert_eq!(log.spans[1].parent, 0);
        assert_eq!(log.spans[0].parent, NO_PARENT);
        assert!(log.spans[0].nanos() >= log.spans[1].nanos());
        assert_eq!(log.per_round("engine.eval").len(), 1);
        let json = log.chrome_trace("w", 1);
        assert!(json.contains("\"stmt\":\"pk_join\"") && json.contains("\"round\":4"));
        assert!(crate::json::parse(&json).is_ok());
    }
}
