//! Exploration sessions: the focus set, the event history, and
//! save/restore — the §4.1 scenario ends with the analyst saving "the
//! current Foresight state to revisit later and to share with her
//! colleagues".

use crate::error::Result;
use crate::query::InsightQuery;
use foresight_insight::{AttrTuple, InsightInstance};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// The most history events a session holds. A full history drops its
/// oldest quarter, so a long-lived handle's memory and `save` size stay
/// bounded and at least the latest three quarters of this many events are
/// always there; ample for interactive use (a scripted analyst session is
/// tens of steps).
pub const MAX_HISTORY_EVENTS: usize = 1024;

/// One step of the exploration history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// A query was executed.
    Queried {
        /// The full query, replayable via
        /// [`crate::foresight::Foresight::replay_session`].
        query: InsightQuery,
        /// Number of results returned.
        results: usize,
    },
    /// An insight was brought into focus.
    Focused(InsightInstance),
    /// An insight was removed from focus.
    Unfocused(AttrTuple),
    /// The focus set was cleared.
    Cleared,
}

/// A user's exploration state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// Dataset name the session belongs to.
    pub dataset: String,
    /// Column names of the dataset the session was created against, in
    /// schema order — the fingerprint
    /// [`SessionHandle::restore_session_checked`] validates before letting
    /// a restored session's attribute indices touch a different core.
    /// `None` for sessions saved by older releases (validation then falls
    /// back to bounds checks alone).
    ///
    /// [`SessionHandle::restore_session_checked`]: crate::SessionHandle::restore_session_checked
    #[serde(default)]
    pub schema: Option<Vec<String>>,
    /// Currently focused insights (drive neighborhood re-ranking).
    pub focus: Vec<InsightInstance>,
    /// The most recent events (at most [`MAX_HISTORY_EVENTS`]), oldest
    /// first.
    pub history: Vec<SessionEvent>,
    /// Events dropped from the front of `history` to keep it bounded —
    /// non-zero means the log (and a replay of it) is a suffix of what
    /// happened. Absent from files saved before the bound existed.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub history_dropped: u64,
}

fn is_zero(n: &u64) -> bool {
    *n == 0
}

impl Session {
    /// A fresh session for `dataset`.
    pub fn new(dataset: impl Into<String>) -> Self {
        Self {
            dataset: dataset.into(),
            ..Default::default()
        }
    }

    /// Adds an insight to the focus set (§4.1: "she brings this insight
    /// into focus by clicking on it"). Duplicate tuples of the same class
    /// are ignored.
    pub fn focus(&mut self, instance: InsightInstance) {
        if self
            .focus
            .iter()
            .any(|f| f.class_id == instance.class_id && f.attrs == instance.attrs)
        {
            return;
        }
        self.record(SessionEvent::Focused(instance.clone()));
        self.focus.push(instance);
    }

    /// Removes any focused insight with the given tuple; returns whether
    /// something was removed.
    pub fn unfocus(&mut self, attrs: &AttrTuple) -> bool {
        let before = self.focus.len();
        self.focus.retain(|f| f.attrs != *attrs);
        if self.focus.len() != before {
            self.record(SessionEvent::Unfocused(*attrs));
            true
        } else {
            false
        }
    }

    /// Clears the focus set.
    pub fn clear_focus(&mut self) {
        if !self.focus.is_empty() {
            self.focus.clear();
            self.record(SessionEvent::Cleared);
        }
    }

    /// Records a query in the history.
    pub fn record_query(&mut self, query: &InsightQuery, results: usize) {
        self.record(SessionEvent::Queried {
            query: query.clone(),
            results,
        });
    }

    /// Appends one event; a full history first drops its oldest quarter.
    ///
    /// A quarter at a time, not one event per append: the steady trickle of
    /// small frees that one-in-one-out produces, interleaved with the query
    /// path's own allocations, cost the benchmark's 16 never-closed
    /// `stream_mixed` sessions a tenth of their throughput, while trimming
    /// in blocks measures the same as never trimming.
    fn record(&mut self, event: SessionEvent) {
        if self.history.len() >= MAX_HISTORY_EVENTS {
            let drop = MAX_HISTORY_EVENTS / 4;
            self.history.drain(..drop);
            self.history_dropped += drop as u64;
        }
        self.history.push(event);
    }

    /// The queries in the retained history, in execution order.
    pub fn queries(&self) -> Vec<&InsightQuery> {
        self.history
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Queried { query, .. } => Some(query),
                _ => None,
            })
            .collect()
    }

    /// Serializes the session to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Restores a session from JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        Ok(serde_json::from_str(json)?)
    }

    /// Writes the session to any writer.
    pub fn save(&self, mut writer: impl Write) -> Result<()> {
        writer.write_all(self.to_json()?.as_bytes())?;
        Ok(())
    }

    /// Reads a session from any reader.
    pub fn load(mut reader: impl Read) -> Result<Self> {
        let mut buf = String::new();
        reader.read_to_string(&mut buf)?;
        Self::from_json(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(attrs: AttrTuple) -> InsightInstance {
        InsightInstance {
            class_id: "linear-relationship".into(),
            attrs,
            score: 0.9,
            metric: "|pearson|".into(),
            detail: "test".into(),
        }
    }

    #[test]
    fn focus_unfocus_lifecycle() {
        let mut s = Session::new("oecd");
        s.focus(inst(AttrTuple::Two(1, 2)));
        s.focus(inst(AttrTuple::Two(1, 2))); // duplicate ignored
        assert_eq!(s.focus.len(), 1);
        s.focus(inst(AttrTuple::Two(3, 4)));
        assert_eq!(s.focus.len(), 2);
        assert!(s.unfocus(&AttrTuple::Two(1, 2)));
        assert!(!s.unfocus(&AttrTuple::Two(1, 2)));
        assert_eq!(s.focus.len(), 1);
        s.clear_focus();
        assert!(s.focus.is_empty());
        // history recorded everything except the duplicate
        assert_eq!(s.history.len(), 4);
    }

    #[test]
    fn json_round_trip() {
        let mut s = Session::new("imdb");
        s.focus(inst(AttrTuple::Two(0, 5)));
        s.record_query(&InsightQuery::class("skew"), 5);
        let json = s.to_json().unwrap();
        let back = Session::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn queries_extractable_from_history() {
        let mut s = Session::new("q");
        s.record_query(&InsightQuery::class("skew").top_k(2), 2);
        s.focus(inst(AttrTuple::One(1)));
        s.record_query(&InsightQuery::class("outliers"), 5);
        let qs = s.queries();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].class_id, "skew");
        assert_eq!(qs[1].class_id, "outliers");
    }

    #[test]
    fn history_is_bounded_and_keeps_the_newest() {
        let mut s = Session::new("long-lived");
        let total = 10 * MAX_HISTORY_EVENTS;
        for i in 0..total {
            s.record_query(&InsightQuery::class("skew").top_k(i + 1), i);
            assert!(s.history.len() <= MAX_HISTORY_EVENTS);
            assert_eq!(s.history.len() as u64 + s.history_dropped, i as u64 + 1);
        }
        // never fewer than the latest three quarters of the bound
        let kept = s.history.len();
        assert!(kept >= MAX_HISTORY_EVENTS - MAX_HISTORY_EVENTS / 4);
        // the retained suffix, oldest first, is what queries() / replay see
        let ks: Vec<usize> = s.queries().iter().map(|q| q.top_k).collect();
        let expected: Vec<usize> = (total - kept + 1..=total).collect();
        assert_eq!(ks, expected);
        // the counter survives a save; an untruncated session does not
        // mention it, and a file from before the bound still loads
        let back = Session::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(back, s);
        let short = Session::new("short");
        let json = short.to_json().unwrap();
        assert!(!json.contains("history_dropped"), "{json}");
        assert_eq!(Session::from_json(&json).unwrap(), short);
    }

    #[test]
    fn save_load_via_io() {
        let mut s = Session::new("parkinson");
        s.focus(inst(AttrTuple::One(7)));
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let back = Session::load(buf.as_slice()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(Session::from_json("{not json").is_err());
    }
}
