//! Chrome Trace Format document builder, shared by the simulator's trace
//! exporter and `pqbench`'s native span timelines so both render in the
//! same UI (`chrome://tracing`, <https://ui.perfetto.dev>).
//!
//! One row per event, compact JSON (a trace can hold hundreds of
//! thousands of rows). The builder owns the row shapes — metadata rows,
//! `X` complete slices, `B`/`E` span pairs, `i` instants, `C` counters —
//! and the document framing; callers decide pids/tids and what the rows
//! mean. Timestamps are written as microseconds because that is the unit
//! Perfetto assumes; the label is cosmetic, so callers map their own time
//! base onto it (the simulator writes cycles, `pqbench` writes
//! nanoseconds).

use crate::json::esc;

/// Typed argument value for a row's `args` object.
pub enum Arg {
    /// Unsigned integer argument.
    U64(u64),
    /// Float argument, fixed three decimal places (counter samples).
    F3(f64),
    /// Escaped string argument.
    Str(String),
}

fn push_args(row: &mut String, args: &[(&str, Arg)]) {
    if args.is_empty() {
        return;
    }
    row.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            row.push(',');
        }
        row.push('"');
        row.push_str(&esc(k));
        row.push_str("\":");
        match v {
            Arg::U64(n) => row.push_str(&n.to_string()),
            Arg::F3(x) => row.push_str(&format!("{x:.3}")),
            Arg::Str(s) => {
                row.push('"');
                row.push_str(&esc(s));
                row.push('"');
            }
        }
    }
    row.push('}');
}

/// Accumulates trace rows and renders the final document.
#[derive(Default)]
pub struct ChromeTrace {
    items: Vec<String>,
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows accumulated so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Metadata row naming a process track.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.items.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            pid,
            esc(name)
        ));
    }

    /// Metadata row naming a thread track within a process.
    pub fn thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.items.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            pid,
            tid,
            esc(name)
        ));
    }

    /// `X` complete slice: `[ts, ts+dur)` on one track.
    ///
    /// The parameter list mirrors the trace-row fields one-to-one; a
    /// grouping struct would only rename them.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u64,
        ts: u64,
        dur: u64,
        args: &[(&str, Arg)],
    ) {
        let mut row = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{}",
            esc(name),
            esc(cat),
            ts,
            dur,
            pid,
            tid,
        );
        push_args(&mut row, args);
        row.push('}');
        self.items.push(row);
    }

    /// `B` span-begin marker (pair with [`ChromeTrace::end`]).
    pub fn begin(&mut self, name: &str, cat: &str, pid: u32, tid: u64, ts: u64) {
        self.items.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
            esc(name),
            esc(cat),
            ts,
            pid,
            tid,
        ));
    }

    /// `E` span-end marker.
    pub fn end(&mut self, name: &str, cat: &str, pid: u32, tid: u64, ts: u64) {
        self.items.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
            esc(name),
            esc(cat),
            ts,
            pid,
            tid,
        ));
    }

    /// `i` thread-scoped instant marker.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u64,
        ts: u64,
        args: &[(&str, Arg)],
    ) {
        let mut row = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":{},\"tid\":{}",
            esc(name),
            esc(cat),
            ts,
            pid,
            tid,
        );
        push_args(&mut row, args);
        row.push('}');
        self.items.push(row);
    }

    /// `C` counter sample (no category — Chrome ignores it on counters).
    pub fn counter(&mut self, name: &str, pid: u32, tid: u64, ts: u64, args: &[(&str, Arg)]) {
        let mut row = format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{}",
            esc(name),
            ts,
            pid,
            tid,
        );
        push_args(&mut row, args);
        row.push('}');
        self.items.push(row);
    }

    /// Renders the document: `traceEvents` array, one row per line, no
    /// trailing comma.
    pub fn finish(self) -> String {
        let mut out =
            String::with_capacity(self.items.iter().map(|s| s.len() + 2).sum::<usize>() + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, item) in self.items.iter().enumerate() {
            out.push_str(item);
            if i + 1 < self.items.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_shapes() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "processors");
        t.thread_name(0, 3, "proc 3");
        t.complete("cas", "txn", 0, 3, 10, 16, &[("queued", Arg::U64(2))]);
        t.begin("hold", "span", 0, 3, 10);
        t.end("hold", "span", 0, 3, 26);
        t.instant("spawn", "sched", 0, 3, 5, &[]);
        t.counter("depth: lock", 2, 0, 0, &[("depth", Arg::F3(0.5))]);
        assert_eq!(t.len(), 7);
        let j = t.finish();
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(j.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"processors\"}}"
        ));
        assert!(j.contains(
            "{\"name\":\"cas\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":10,\"dur\":16,\
             \"pid\":0,\"tid\":3,\"args\":{\"queued\":2}}"
        ));
        assert!(j.contains("\"ph\":\"B\"") && j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":5,\"pid\":0,\"tid\":3}"));
        assert!(j.contains("{\"name\":\"depth: lock\",\"ph\":\"C\",\"ts\":0,\"pid\":2,\"tid\":0,\"args\":{\"depth\":0.500}}"));
        assert!(!j.contains(",\n]"));
        assert!(j.ends_with("]}\n"));
    }

    #[test]
    fn empty_document_is_valid() {
        let j = ChromeTrace::new().finish();
        assert_eq!(j, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
    }
}
