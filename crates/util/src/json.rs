//! Hand-rolled JSON writer shared by every emitter in the workspace: the
//! simulator's `TimeSeries`, the native `MetricsSnapshot`, the bench
//! `BENCH_*.json` files, and the server's `TelemetrySnapshot`. The
//! container builds fully offline, so there is no serde — instead every
//! crate used to carry its own `push_str` loop; this module is the one
//! copy of the escaping, separator, float and NaN rules they all share.
//!
//! One house style is covered, **spaced** (`"k": v`, `", "` separators).
//! Layout is explicit at the call site: a container opened with
//! `block = true` puts each element on its own line at two-space
//! indentation per depth; `block = false` packs the container on one
//! line. [`JsonWriter::begin_arr_compact`] additionally drops the space
//! after commas inside a single array (the time-series windows pack
//! hundreds of numeric samples per row).

/// Version stamp written into every machine-read JSON artifact
/// (`MetricsSnapshot`, `TelemetrySnapshot`). CI
/// validators assert it so a parser and an emitter cannot silently drift
/// apart. Bump on any breaking layout change.
///
/// History: 2 added the server resilience fields (`restarts`, `requeued`,
/// `shed` in `TelemetrySnapshot`) and the supervision counter events.
/// 3 added the NUMA controller surface (`numa_mode` / `mode_switches`
/// totals and the per-shard `numa` block in `TelemetrySnapshot`).
/// 4 dropped the four server events (`deadline_miss`, `shard_restart`,
/// `jobs_requeued`, `job_shed`) from `MetricsSnapshot`'s `events`: the
/// server files those facts in its telemetry only.
pub const SCHEMA_VERSION: u32 = 4;

/// Minimal JSON string escaping for names (labels contain no exotic
/// characters, but quoting must never break the document).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Block,
    Inline,
    CompactArr,
}

struct Ctx {
    kind: Kind,
    obj: bool,
    has_elems: bool,
}

/// Streaming JSON builder: explicit `begin`/`end` containers, keys, and
/// typed values, with separator and indentation bookkeeping done here so
/// call sites only state layout intent.
pub struct JsonWriter {
    out: String,
    stack: Vec<Ctx>,
    pending_value: bool,
}

impl JsonWriter {
    /// Writer in the spaced house style (`"k": v`, `", "`).
    pub fn spaced() -> Self {
        Self {
            out: String::new(),
            stack: Vec::new(),
            pending_value: false,
        }
    }

    fn indent(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..2 * depth {
            self.out.push(' ');
        }
    }

    /// Separator + layout before the next element (a key in an object, a
    /// value in an array). A value directly after `key()` skips this.
    fn elem(&mut self) {
        if self.pending_value {
            self.pending_value = false;
            return;
        }
        let depth = self.stack.len();
        if let Some(ctx) = self.stack.last_mut() {
            if ctx.has_elems {
                self.out.push(',');
                if ctx.kind == Kind::Inline {
                    self.out.push(' ');
                }
            }
            ctx.has_elems = true;
            if ctx.kind == Kind::Block {
                self.indent(depth);
            }
        }
    }

    /// Object key: separator, quoted escaped name, colon.
    pub fn key(&mut self, k: &str) {
        debug_assert!(self.stack.last().map(|c| c.obj).unwrap_or(false));
        self.elem();
        self.out.push('"');
        self.out.push_str(&esc(k));
        self.out.push_str("\": ");
        self.pending_value = true;
    }

    fn open(&mut self, obj: bool, kind: Kind) {
        self.elem();
        self.out.push(if obj { '{' } else { '[' });
        self.stack.push(Ctx {
            kind,
            obj,
            has_elems: false,
        });
    }

    /// Opens an object; `block` lays each member out on its own line.
    pub fn begin_obj(&mut self, block: bool) {
        self.open(true, if block { Kind::Block } else { Kind::Inline });
    }

    /// Opens an array; `block` lays each element out on its own line.
    pub fn begin_arr(&mut self, block: bool) {
        self.open(false, if block { Kind::Block } else { Kind::Inline });
    }

    /// Opens an inline array with no space after commas even in a spaced
    /// writer (dense numeric sample rows).
    pub fn begin_arr_compact(&mut self) {
        self.open(false, Kind::CompactArr);
    }

    /// Closes the innermost container.
    pub fn end(&mut self) {
        let ctx = self.stack.pop().expect("end without begin");
        if ctx.kind == Kind::Block && ctx.has_elems {
            let depth = self.stack.len();
            self.indent(depth);
        }
        self.out.push(if ctx.obj { '}' } else { ']' });
    }

    /// Unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.elem();
        self.out.push_str(&v.to_string());
    }

    /// Signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.elem();
        self.out.push_str(&v.to_string());
    }

    /// Float in shortest form; JSON has no NaN/Inf, so non-finite values
    /// clamp to `null`, which readers treat as missing.
    pub fn f64(&mut self, v: f64) {
        self.elem();
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Float with fixed decimal places (non-finite clamps to `null`).
    pub fn f64_fixed(&mut self, v: f64, places: usize) {
        self.elem();
        if v.is_finite() {
            self.out.push_str(&format!("{v:.places$}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Quoted, escaped string value.
    pub fn str(&mut self, v: &str) {
        self.elem();
        self.out.push('"');
        self.out.push_str(&esc(v));
        self.out.push('"');
    }

    /// Boolean value.
    pub fn bool(&mut self, v: bool) {
        self.elem();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Preformatted value appended verbatim (caller guarantees validity).
    pub fn raw(&mut self, v: &str) {
        self.elem();
        self.out.push_str(v);
    }

    /// `key` + [`JsonWriter::u64`].
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// `key` + [`JsonWriter::f64`].
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// `key` + [`JsonWriter::f64_fixed`].
    pub fn field_f64_fixed(&mut self, k: &str, v: f64, places: usize) {
        self.key(k);
        self.f64_fixed(v, places);
    }

    /// `key` + [`JsonWriter::str`].
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str(v);
    }

    /// Finishes the document and returns it. Panics if containers are
    /// still open — an unbalanced emitter is a bug, not a formatting
    /// choice.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        assert!(!self.pending_value, "key without value");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn spaced_block_layout() {
        let mut w = JsonWriter::spaced();
        w.begin_obj(true);
        w.field_str("benchmark", "t");
        w.field_u64("scale_percent", 100);
        w.key("results");
        w.begin_arr(true);
        w.begin_obj(false);
        w.field_str("name", "a");
        w.field_f64("x", 1.5);
        w.field_f64("bad", f64::NAN);
        w.end();
        w.end();
        w.end();
        let j = w.finish();
        assert_eq!(
            j,
            "{\n  \"benchmark\": \"t\",\n  \"scale_percent\": 100,\n  \"results\": [\n    \
             {\"name\": \"a\", \"x\": 1.5, \"bad\": null}\n  ]\n}"
        );
    }

    #[test]
    fn compact_and_dense_arrays() {
        let mut w = JsonWriter::spaced();
        w.begin_obj(false);
        w.field_u64("a", 1);
        w.key("b");
        w.begin_arr_compact();
        w.u64(1);
        w.u64(2);
        w.end();
        w.end();
        assert_eq!(w.finish(), "{\"a\": 1, \"b\": [1,2]}");

        let mut w = JsonWriter::spaced();
        w.begin_arr_compact();
        w.f64_fixed(0.5, 3);
        w.u64(7);
        w.end();
        assert_eq!(w.finish(), "[0.500,7]");
    }

    #[test]
    fn empty_block_containers_stay_inline() {
        let mut w = JsonWriter::spaced();
        w.begin_obj(true);
        w.key("xs");
        w.begin_arr(true);
        w.end();
        w.end();
        assert_eq!(w.finish(), "{\n  \"xs\": []\n}");
    }
}
