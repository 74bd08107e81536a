//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's own calls into each layer (encode, socket write/read,
//! decode, phase boundaries), kept in a preallocated buffer, and written
//! out as JSON lines when the run ends. With tracing off every call is a
//! branch on a `bool` and records nothing.

use crate::stats::now_ns;
use std::io::Write;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, `u32::MAX` for a root.
    pub parent: u32,
    pub session: u64,
    pub round: u64,
}

pub const ROOT: u32 = u32::MAX;

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    cap: usize,
    /// Spans not kept because the buffer was full.
    pub overflow: u64,
    /// Parent given to spans opened with `ROOT` (the enclosing phase).
    pub parent: u32,
}

impl Tracer {
    pub fn new(on: bool, cap: usize) -> Self {
        Tracer {
            on,
            spans: if on {
                Vec::with_capacity(cap)
            } else {
                Vec::new()
            },
            cap,
            overflow: 0,
            parent: ROOT,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; returns its index (or `ROOT` when not recorded).
    pub fn begin(&mut self, name: &'static str, parent: u32, session: u64, round: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let parent = if parent == ROOT { self.parent } else { parent };
        if self.spans.len() == self.cap {
            self.overflow += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            session,
            round,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, idx: u32) {
        if idx != ROOT {
            self.spans[idx as usize].end_ns = now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in (up to this buffer's capacity),
    /// re-basing their parent links; spans linked to `other.parent` already
    /// point into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let room = self.cap - self.spans.len();
        self.overflow += other.overflow + other.spans.len().saturating_sub(room) as u64;
        for mut s in other.spans.into_iter().take(room) {
            if s.parent != ROOT && s.parent != other.parent {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    /// Per-name (count, total ns, self ns): a span's self time is its
    /// duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT && s.end_ns >= s.start_ns {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.session, s.round
            )?;
        }
        out.flush()
    }
}

impl Tracer {
    /// Drops a span opened by [`Tracer::begin`] that turned out to cover
    /// no work (only the most recent span can be cancelled).
    pub fn cancel(&mut self, idx: u32) {
        if idx != ROOT && idx as usize + 1 == self.spans.len() {
            self.spans.pop();
        }
    }
}
