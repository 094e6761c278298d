//! Provenance ledger — deterministic, ordered structured events.
//!
//! [`EventLog`] is the analysis-side sibling of [`crate::Registry`]: where
//! the registry aggregates *counters* for the generation pipeline, the
//! ledger records *ordered events* for the analysis pipeline — which
//! exhibit ran, how many units went in, which caliper rejected which
//! candidates, what n/positives fed each sign test. Like the registry it
//! is zero-dependency and byte-stable: events serialise to JSONL with
//! fields in emission order, floats in shortest-roundtrip form, and logs
//! merge by appending in shard order. Because every field is a pure
//! function of the (plan-invariant) dataset, a ledger written by
//! `reproduce --ledger` is byte-identical for any `(shards, threads)`
//! plan — pinned next to the metrics invariance tests.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::Log2Histogram;

/// A single field value attached to a provenance [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned count.
    U64(u64),
    /// Signed integer (bucket indices, deltas).
    I64(i64),
    /// Float, serialised in shortest-roundtrip form (non-finite → `null`).
    F64(f64),
    /// Free-form label (exhibit ids, covariate names, directions).
    Str(String),
    /// Flag (e.g. "did this row survive the MIN_PAIRS filter").
    Bool(bool),
    /// Log₂ histogram, serialised as `{"nonpositive": n, "buckets": [[k, c], ...]}`.
    Hist(Log2Histogram),
    /// Ordered label → count map (e.g. per-covariate caliper rejections),
    /// serialised as a JSON object in insertion order.
    Counts(Vec<(String, u64)>),
}

impl Value {
    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (also converts integer variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(v) => write_json_string(out, v),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Hist(h) => {
                let _ = write!(
                    out,
                    "{{\"nonpositive\": {}, \"buckets\": [",
                    h.nonpositive()
                );
                let mut first = true;
                for (bucket, count) in h.buckets() {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(out, "[{bucket}, {count}]");
                }
                out.push_str("]}");
            }
            Value::Counts(pairs) => {
                out.push('{');
                let mut first = true;
                for (label, count) in pairs {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    write_json_string(out, label);
                    let _ = write!(out, ": {count}");
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` as a quoted JSON string literal: quotes,
/// backslashes and every control character escaped.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One ledger entry: a kind plus fields in emission order.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// The event kind (`"exhibit"`, `"match_audit"`, `"sign_test"`, ...).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// `(key, value)` pairs in the order they were emitted.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, &Value)> + '_ {
        self.fields.iter().map(|(k, v)| (*k, v))
    }

    /// First field with key `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"event\": ");
        write_json_string(out, self.kind);
        for (key, value) in &self.fields {
            out.push_str(", ");
            write_json_string(out, key);
            out.push_str(": ");
            value.write_json(out);
        }
        out.push_str("}\n");
    }

    /// The event as one JSONL line (without the trailing newline) —
    /// exactly the bytes [`EventLog::to_jsonl`] would emit for it, so a
    /// tail subscriber can forward lines that match the batch ledger.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out);
        out.truncate(out.trim_end().len());
        out
    }
}

/// Chainable field builder returned by [`EventLog::emit`]. The event is
/// appended to the log when the builder is dropped (end of statement),
/// so an emit can never be half-finished or forgotten.
pub struct EventBuilder<'a> {
    log: &'a mut EventLog,
    event: Option<Event>,
}

impl EventBuilder<'_> {
    fn push(mut self, key: &'static str, value: Value) -> Self {
        self.event
            .as_mut()
            .expect("event present until drop")
            .fields
            .push((key, value));
        self
    }

    /// Attach an unsigned count.
    pub fn u64(self, key: &'static str, v: u64) -> Self {
        self.push(key, Value::U64(v))
    }

    /// Attach a signed integer.
    pub fn i64(self, key: &'static str, v: i64) -> Self {
        self.push(key, Value::I64(v))
    }

    /// Attach a float (non-finite serialises as `null`).
    pub fn f64(self, key: &'static str, v: f64) -> Self {
        self.push(key, Value::F64(v))
    }

    /// Attach a string label.
    pub fn str(self, key: &'static str, v: impl Into<String>) -> Self {
        self.push(key, Value::Str(v.into()))
    }

    /// Attach a flag.
    pub fn bool(self, key: &'static str, v: bool) -> Self {
        self.push(key, Value::Bool(v))
    }

    /// Attach a log₂ histogram.
    pub fn hist(self, key: &'static str, v: Log2Histogram) -> Self {
        self.push(key, Value::Hist(v))
    }

    /// Attach an ordered label → count map.
    pub fn counts(self, key: &'static str, v: Vec<(String, u64)>) -> Self {
        self.push(key, Value::Counts(v))
    }
}

impl Drop for EventBuilder<'_> {
    fn drop(&mut self) {
        if let Some(event) = self.event.take() {
            if let Some(tail) = &self.log.tail {
                tail(&event);
            }
            self.log.events.push(event);
        }
    }
}

/// A tail subscriber: called with each event as it lands in the log.
pub type EventTail = Arc<dyn Fn(&Event) + Send + Sync>;

/// Ordered provenance ledger: append-only, mergeable in shard order,
/// serialised as byte-stable JSONL. An optional [`EventTail`] subscriber
/// observes each event as it is appended (emit or merge) — the serve
/// gateway sources its SSE ledger stream from it. The tail is pure
/// observation: it never alters the recorded events, and logs compare
/// equal (and clone/serialise identically) regardless of subscription.
#[derive(Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    tail: Option<EventTail>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog")
            .field("events", &self.events)
            .field("tail", &self.tail.is_some())
            .finish()
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl EventLog {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribe `tail` to every event appended from now on (one
    /// subscriber at a time; a second call replaces the first). Events
    /// already in the log are not replayed.
    pub fn set_tail(&mut self, tail: EventTail) {
        self.tail = Some(tail);
    }

    /// Remove the tail subscriber, if any.
    pub fn clear_tail(&mut self) {
        self.tail = None;
    }

    /// Start an event of `kind`; chain field setters on the returned
    /// builder. The event lands in the log at end of statement.
    pub fn emit(&mut self, kind: &'static str) -> EventBuilder<'_> {
        EventBuilder {
            log: self,
            event: Some(Event {
                kind,
                fields: Vec::new(),
            }),
        }
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events in emission order.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter()
    }

    /// Append `other`'s events after `self`'s. Callers merge shards in
    /// shard-index order, which keeps the ledger plan-invariant for the
    /// same reason the engine's sketch merges are.
    pub fn merge(&mut self, other: Self) {
        if let Some(tail) = &self.tail {
            for event in &other.events {
                tail(event);
            }
        }
        self.events.extend(other.events);
    }

    /// One JSON object per line, fields in emission order, trailing
    /// newline. Byte-stable: equal logs serialise to equal bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            event.write_jsonl(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_preserves_field_order_and_serialises_each_type() {
        let mut log = EventLog::new();
        let mut h = Log2Histogram::new();
        h.push(3.0, 1.0);
        h.push(-1.0, 1.0);
        log.emit("exhibit")
            .str("id", "fig2")
            .u64("n", 7)
            .i64("bucket", -3)
            .f64("p_value", 0.5)
            .bool("kept", true)
            .hist("dist", h);
        assert_eq!(log.len(), 1);
        assert_eq!(
            log.to_jsonl(),
            "{\"event\": \"exhibit\", \"id\": \"fig2\", \"n\": 7, \"bucket\": -3, \
             \"p_value\": 0.5, \"kept\": true, \
             \"dist\": {\"nonpositive\": 1, \"buckets\": [[2, 1]]}}\n"
        );
    }

    #[test]
    fn counts_serialise_as_an_ordered_object() {
        let mut log = EventLog::new();
        log.emit("match_audit").counts(
            "caliper_rejections",
            vec![("latency".into(), 3), ("price".into(), 0)],
        );
        assert_eq!(
            log.to_jsonl(),
            "{\"event\": \"match_audit\", \
             \"caliper_rejections\": {\"latency\": 3, \"price\": 0}}\n"
        );
    }

    #[test]
    fn strings_are_escaped_and_nonfinite_floats_become_null() {
        let mut log = EventLog::new();
        log.emit("note")
            .str("label", "a\"b\\c\nd\u{1}")
            .f64("bad", f64::NAN);
        assert_eq!(
            log.to_jsonl(),
            "{\"event\": \"note\", \"label\": \"a\\\"b\\\\c\\nd\\u0001\", \"bad\": null}\n"
        );
    }

    #[test]
    fn merge_appends_in_order() {
        let mut a = EventLog::new();
        a.emit("first").u64("n", 1);
        let mut b = EventLog::new();
        b.emit("second").u64("n", 2);
        a.merge(b);
        let kinds: Vec<_> = a.events().map(Event::kind).collect();
        assert_eq!(kinds, ["first", "second"]);
        // Byte-stability: same events, same bytes.
        let again = a.clone();
        assert_eq!(a.to_jsonl(), again.to_jsonl());
    }

    #[test]
    fn tail_observes_emits_and_merges_without_changing_the_log() {
        use std::sync::Mutex;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut log = EventLog::new();
        log.emit("before_subscribe").u64("n", 0);
        log.set_tail(Arc::new(move |e: &Event| {
            let mut out = String::new();
            e.write_jsonl(&mut out);
            sink.lock().unwrap().push(out);
        }));
        log.emit("emitted").u64("n", 1);
        let mut other = EventLog::new();
        other.emit("merged").u64("n", 2);
        log.merge(other);

        let frames = seen.lock().unwrap().clone();
        assert_eq!(frames.len(), 2, "no replay of pre-subscription events");
        assert!(frames[0].contains("\"emitted\""));
        assert!(frames[1].contains("\"merged\""));
        // The tail is pure observation: the serialised log is exactly
        // what an unsubscribed log would have recorded.
        let mut plain = EventLog::new();
        plain.emit("before_subscribe").u64("n", 0);
        plain.emit("emitted").u64("n", 1);
        plain.emit("merged").u64("n", 2);
        assert_eq!(log, plain);
        assert_eq!(log.to_jsonl(), plain.to_jsonl());

        log.clear_tail();
        log.emit("after_clear").u64("n", 3);
        assert_eq!(seen.lock().unwrap().len(), 2);
    }

    #[test]
    fn get_finds_fields_by_key() {
        let mut log = EventLog::new();
        log.emit("sign_test").u64("positives", 9).f64("p", 0.25);
        let e = log.events().next().unwrap();
        assert_eq!(e.get("positives").and_then(Value::as_u64), Some(9));
        assert_eq!(e.get("p").and_then(Value::as_f64), Some(0.25));
        assert_eq!(e.get("missing"), None);
    }
}
