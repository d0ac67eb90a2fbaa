//! Span recording for the traced pass.
//!
//! Spans are taken from the benchmark's own code, around its calls into
//! each layer: `workload` → `slice` → sampled `op`. Each thread owns one
//! pre-allocated [`SpanBuf`], so recording is two clock reads and a push
//! that never reallocates; the buffers are merged and written as a Chrome
//! trace only after every slice has ended.

use std::path::Path;

use funnelpq_util::chrome::{Arg, ChromeTrace};
use funnelpq_util::mono_ns;

/// One recorded interval on the [`mono_ns`] timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`insert`, `delete_min`, `submit`, `slice`, …).
    pub name: &'static str,
    /// Subject the span belongs to (algorithm or backend name).
    pub subject: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, same timeline.
    pub end_ns: u64,
    /// This span's id, unique within one trace file.
    pub id: u64,
    /// Id of the span that caused this one (0 for the root).
    pub parent: u64,
    /// Recording thread (0 = coordinator, 1.. = workers).
    pub thread: u32,
}

/// Only every `SAMPLE_PERIOD`-th operation is stamped, so the two clock
/// reads cost the traced slice ~1/64 of what stamping every op would.
pub const SAMPLE_PERIOD: u32 = 64;

/// A per-thread, fixed-capacity span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    thread: u32,
    next: u64,
    /// Spans refused because the buffer was full (reported, never silent).
    pub dropped: u64,
}

impl SpanBuf {
    /// A buffer for `thread` holding at most `capacity` spans.
    pub fn new(thread: u32, capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            thread,
            next: 0,
            dropped: 0,
        }
    }

    /// Records one finished span under `parent`; returns its id (0 when
    /// the buffer was full and the span was dropped).
    pub fn push(
        &mut self,
        name: &'static str,
        subject: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
    ) -> u64 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.reserve_id();
        self.spans.push(Span {
            name,
            subject,
            start_ns,
            end_ns,
            id,
            parent,
            thread: self.thread,
        });
        id
    }

    /// Allocates an id for a span that is opened now and pushed later with
    /// [`SpanBuf::close`], so children can name it as parent meanwhile.
    pub fn reserve_id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.thread) + 1) << 40 | self.next
    }

    /// Pushes a span whose id was reserved when it opened.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        subject: &'static str,
        start_ns: u64,
        parent: u64,
    ) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            subject,
            start_ns,
            end_ns: mono_ns(),
            id,
            parent,
            thread: self.thread,
        });
    }

    /// Durations (ns) of the recorded spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Hands the recorded spans over for merging.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Moves every span of `other` into this buffer (merging a worker's
    /// buffer into the coordinator's after a slice). Absorbed spans get
    /// fresh ids from this buffer — they are leaves, nothing names them as
    /// parent — so ids stay unique however many buffers a trace merges.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.id = self.reserve_id();
            self.spans.push(s);
        }
    }
}

/// Samples one operation in [`SAMPLE_PERIOD`]; monomorphized away entirely
/// in the end-to-end pass ([`NoProbe`]).
pub trait OpProbe: Send {
    /// Whether this probe records anything at all.
    const ENABLED: bool;
    /// Whether the next operation should be stamped.
    fn due(&mut self) -> bool;
    /// Records one stamped operation.
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64);
}

/// The end-to-end pass's probe: nothing, at zero cost.
pub struct NoProbe;

impl OpProbe for NoProbe {
    const ENABLED: bool = false;
    #[inline(always)]
    fn due(&mut self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&mut self, _name: &'static str, _start_ns: u64, _end_ns: u64) {}
}

/// The traced pass's probe: 1-in-[`SAMPLE_PERIOD`] op spans into a
/// per-thread buffer, all children of one `slice` span.
pub struct SpanProbe {
    /// The thread's buffer.
    pub buf: SpanBuf,
    subject: &'static str,
    parent: u64,
    countdown: u32,
}

impl SpanProbe {
    /// A probe recording under `parent` (the slice span) for `subject`.
    pub fn new(thread: u32, capacity: usize, subject: &'static str, parent: u64) -> Self {
        SpanProbe {
            buf: SpanBuf::new(thread, capacity),
            subject,
            parent,
            // Stagger threads so they do not stamp in lock-step.
            countdown: 1 + thread % SAMPLE_PERIOD,
        }
    }
}

impl OpProbe for SpanProbe {
    const ENABLED: bool = true;
    #[inline]
    fn due(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = SAMPLE_PERIOD;
            true
        } else {
            false
        }
    }
    #[inline]
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.buf
            .push(name, self.subject, start_ns, end_ns, self.parent);
    }
}

/// Runs `f` and, when the probe says this operation is due, stamps it.
#[inline(always)]
pub fn probed<P: OpProbe, O>(probe: &mut P, name: &'static str, f: impl FnOnce() -> O) -> O {
    if P::ENABLED && probe.due() {
        let start = mono_ns();
        let out = f();
        probe.record(name, start, mono_ns());
        out
    } else {
        f()
    }
}

/// Writes `spans` as a Chrome trace (`chrome://tracing`, Perfetto) to
/// `path`. Timestamps are nanoseconds relative to the earliest span (the
/// viewer labels them µs; the label is cosmetic, as in the rest of the
/// workspace); `id`/`parent`/`subject` ride in each row's `args`.
pub fn write_chrome(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut trace = ChromeTrace::new();
    trace.process_name(1, &format!("pqbench {workload}"));
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let label = if t == 0 {
            "coordinator".to_string()
        } else {
            format!("worker {t}")
        };
        trace.thread_name(1, u64::from(t), &label);
    }
    for s in spans {
        trace.complete(
            s.name,
            workload,
            1,
            u64::from(s.thread),
            s.start_ns - origin,
            s.end_ns - s.start_ns,
            &[
                ("id", Arg::U64(s.id)),
                ("parent", Arg::U64(s.parent)),
                ("subject", Arg::Str(s.subject.to_string())),
            ],
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_never_grows_and_counts_drops() {
        let mut b = SpanBuf::new(1, 2);
        let cap = b.spans.capacity();
        assert_ne!(b.push("insert", "X", 1, 2, 0), 0);
        assert_ne!(b.push("insert", "X", 2, 3, 0), 0);
        assert_eq!(b.push("insert", "X", 3, 4, 0), 0);
        assert_eq!(b.dropped, 1);
        assert_eq!(b.spans.capacity(), cap);
        assert_eq!(b.durations("insert"), vec![1, 1]);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let mut a = SpanBuf::new(0, 4);
        let mut b = SpanBuf::new(1, 4);
        let ids = [
            a.push("x", "S", 0, 1, 0),
            a.reserve_id(),
            b.push("x", "S", 0, 1, 0),
            b.reserve_id(),
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert!(ids.iter().all(|&i| i != 0));
    }

    #[test]
    fn span_probe_samples_one_in_period() {
        let mut p = SpanProbe::new(0, 16, "S", 7);
        let due = (0..SAMPLE_PERIOD * 4).filter(|_| p.due()).count();
        assert_eq!(due, 4);
        let mut calls = 0;
        let mut np = NoProbe;
        probed(&mut np, "x", || calls += 1);
        assert_eq!(calls, 1);
    }
}
