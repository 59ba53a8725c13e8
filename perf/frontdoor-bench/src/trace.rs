//! In-memory wall-clock spans around the calls the ladder makes, written
//! out as one JSON file per workload when the traced run ends.
//!
//! Spans are recorded from outside the program under test: around each call
//! into a crate's public API, never inside one.

use crate::json::Json;
use crate::meter::{self, Lap};
use std::time::Instant;

/// One recorded call (or a container around several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the file; ids are dense from 0.
    pub id: u32,
    /// The span this one ran inside; `None` only for the file's root.
    pub parent: Option<u32>,
    /// `<layer>.<call>`, e.g. `door.submit_at` or `fleet.serve_batch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Which replay of the episode the span belongs to (0 = door pass,
    /// then one per rung).
    pub episode: u32,
    /// Batch (or request) index within the episode, when there is one.
    pub batch: Option<u32>,
}

/// Collects spans while `recording`; always returns what a call cost, so
/// later passes can keep timing without growing the file.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether calls are recorded as spans (timings are returned either
    /// way).
    pub recording: bool,
}

impl Recorder {
    /// A recorder whose root span (`id 0`) is open.
    pub fn new(root: &'static str) -> Self {
        let mut recorder = Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            recording: true,
        };
        recorder.open(root, None, 0);
        recorder
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a container span; [`Recorder::close`] stamps its end. Returns
    /// the id children should name as parent (the root's while not
    /// recording).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, episode: u32) -> u32 {
        if !self.recording {
            return 0;
        }
        let id = self.spans.len() as u32;
        let now = self.since_origin(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            episode,
            batch: None,
        });
        id
    }

    /// Stamps the end of a container span.
    pub fn close(&mut self, id: u32) {
        if self.recording {
            let now = self.since_origin(Instant::now());
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end_ns = now;
            }
        }
    }

    /// Times one call and records it as a child of `parent`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        episode: u32,
        batch: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Lap) {
        let (out, lap, start, end) = meter::lap(f);
        if self.recording {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name,
                start_ns: self.since_origin(start),
                end_ns: self.since_origin(end),
                episode,
                batch: Some(batch),
            });
        }
        (out, lap)
    }

    /// Closes the root and returns every span.
    pub fn finish(mut self) -> Vec<Span> {
        self.recording = true;
        self.close(0);
        self.spans
    }
}

/// Spans whose parent id names no span in `spans` (the root aside).
pub fn unresolved(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|span| match span.parent {
            Some(parent) => parent as usize >= spans.len() || parent >= span.id,
            None => span.id != 0,
        })
        .count()
}

/// The span file: `{"workload": .., "spans": [..]}`.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let items = spans
        .iter()
        .map(|span| {
            Json::object()
                .with("id", Json::Num(f64::from(span.id)))
                .with(
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                )
                .with("name", Json::Str(span.name.to_string()))
                .with("start_ns", Json::Num(span.start_ns as f64))
                .with("end_ns", Json::Num(span.end_ns as f64))
                .with("episode", Json::Num(f64::from(span.episode)))
                .with(
                    "batch",
                    span.batch.map_or(Json::Null, |b| Json::Num(f64::from(b))),
                )
        })
        .collect();
    Json::object()
        .with("workload", Json::Str(workload.to_string()))
        .with("spans", Json::Arr(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_recorded_span_has_a_resolvable_parent() {
        let mut recorder = Recorder::new("trace");
        let pass = recorder.open("door_pass", Some(0), 0);
        let (value, lap) = recorder.call("door.submit_at", pass, 0, 7, || 41 + 1);
        assert_eq!(value, 42);
        recorder.close(pass);
        // Later passes still time calls but add nothing to the file.
        recorder.recording = false;
        let silent = recorder.open("door_pass", Some(0), 0);
        recorder.call("door.submit_at", silent, 0, 8, || ());
        let spans = recorder.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(unresolved(&spans), 0);
        assert_eq!(spans[2].parent, Some(pass));
        assert_eq!(spans[2].batch, Some(7));
        assert!(spans[2].end_ns - spans[2].start_ns == lap.ns);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut broken = spans.clone();
        broken[2].parent = Some(9);
        assert_eq!(unresolved(&broken), 1);
    }
}
