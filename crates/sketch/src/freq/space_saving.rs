//! The SpaceSaving frequent-items sketch (Metwally et al. 2005).
//!
//! Keeps `m` counters; an unseen item replaces the current minimum counter
//! and inherits its count (+1), recording that count as the item's maximum
//! overestimation. Counts are **upper bounds** with error ≤ `n/m`.

use crate::traits::{MergeError, Mergeable, Sketch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Counter {
    count: u64,
    /// Maximum possible overestimation inherited at takeover time.
    error: u64,
}

/// A SpaceSaving sketch with `m` counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceSaving {
    m: usize,
    counters: HashMap<String, Counter>,
    n: u64,
}

impl SpaceSaving {
    /// Creates a sketch with `m ≥ 1` counters.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one counter");
        Self {
            m,
            counters: HashMap::with_capacity(m),
            n: 0,
        }
    }

    /// Number of counters.
    pub fn capacity(&self) -> usize {
        self.m
    }

    /// Absorbs one occurrence of `item`.
    pub fn insert(&mut self, item: &str) {
        self.insert_weighted(item, 1);
    }

    /// Absorbs `weight` occurrences of `item`.
    pub fn insert_weighted(&mut self, item: &str, weight: u64) {
        self.n += weight;
        if let Some(c) = self.counters.get_mut(item) {
            c.count += weight;
            return;
        }
        if self.counters.len() < self.m {
            self.counters.insert(
                item.to_owned(),
                Counter {
                    count: weight,
                    error: 0,
                },
            );
            return;
        }
        // evict the minimum counter; the newcomer inherits its count
        let (min_key, min_count) = self
            .counters
            .iter()
            .min_by_key(|(k, c)| (c.count, std::cmp::Reverse(k.as_str())))
            .map(|(k, c)| (k.clone(), c.count))
            .expect("counters non-empty");
        self.counters.remove(&min_key);
        self.counters.insert(
            item.to_owned(),
            Counter {
                count: min_count + weight,
                error: min_count,
            },
        );
    }

    /// Estimated count (an upper bound; true count ≥ estimate − error).
    pub fn estimate(&self, item: &str) -> u64 {
        self.counters.get(item).map(|c| c.count).unwrap_or(0)
    }

    /// The guaranteed overestimation bound for `item` (0 when untracked).
    pub fn error_of(&self, item: &str) -> u64 {
        self.counters.get(item).map(|c| c.error).unwrap_or(0)
    }

    /// Tracked items, most frequent first: `(item, count, error)`.
    pub fn top(&self) -> Vec<(String, u64, u64)> {
        let mut v: Vec<(String, u64, u64)> = self
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.count, c.error))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Approximate `RelFreq(k)`: relative frequency of the top-`k` items
    /// (an upper bound).
    pub fn rel_freq(&self, k: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let top: u64 = self.top().iter().take(k).map(|(_, c, _)| c).sum();
        (top as f64 / self.n as f64).min(1.0)
    }
}

impl Sketch<str> for SpaceSaving {
    fn update(&mut self, item: &str) {
        self.insert(item);
    }

    fn count(&self) -> u64 {
        self.n
    }
}

impl Mergeable for SpaceSaving {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.m != other.m {
            return Err(MergeError::SizeMismatch(self.m, other.m));
        }
        // Combine counters (counts and errors add for shared items; an item
        // absent from one side could have count up to that side's min).
        let self_min = self.min_count();
        let other_min = other.min_count();
        let mut combined: HashMap<String, Counter> = HashMap::new();
        for (k, c) in &self.counters {
            let entry = combined
                .entry(k.clone())
                .or_insert(Counter { count: 0, error: 0 });
            entry.count += c.count;
            entry.error += c.error;
            if !other.counters.contains_key(k) {
                entry.count += other_min;
                entry.error += other_min;
            }
        }
        for (k, c) in &other.counters {
            let known_here = self.counters.contains_key(k);
            let entry = combined
                .entry(k.clone())
                .or_insert(Counter { count: 0, error: 0 });
            entry.count += c.count;
            entry.error += c.error;
            if !known_here {
                entry.count += self_min;
                entry.error += self_min;
            }
        }
        let mut items: Vec<(String, Counter)> = combined.into_iter().collect();
        items.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(&b.0)));
        items.truncate(self.m);
        self.counters = items.into_iter().collect();
        self.n += other.n;
        Ok(())
    }
}

impl SpaceSaving {
    fn min_count(&self) -> u64 {
        if self.counters.len() < self.m {
            0
        } else {
            self.counters.values().map(|c| c.count).min().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_stream() -> (Vec<String>, HashMap<String, u64>) {
        let mut items = Vec::new();
        let mut exact: HashMap<String, u64> = HashMap::new();
        for round in 0..2_000u64 {
            for i in 0..100u64 {
                if round % (i + 1) == 0 {
                    let label = format!("v{i}");
                    items.push(label.clone());
                    *exact.entry(label).or_insert(0) += 1;
                }
            }
        }
        (items, exact)
    }

    #[test]
    fn counts_are_upper_bounds_with_bounded_error() {
        let (items, exact) = zipf_stream();
        let mut ss = SpaceSaving::new(32);
        for it in &items {
            ss.insert(it);
        }
        let global_bound = ss.count() / 32;
        for (item, count, error) in ss.top() {
            let true_count = exact.get(&item).copied().unwrap_or(0);
            assert!(count >= true_count, "{item}: {count} < {true_count}");
            assert!(count - true_count <= error, "{item}: error bound violated");
            assert!(error <= global_bound, "{item}: error above n/m");
        }
    }

    #[test]
    fn top_items_found() {
        let (items, exact) = zipf_stream();
        let mut ss = SpaceSaving::new(32);
        for it in &items {
            ss.insert(it);
        }
        let mut truth: Vec<(&String, &u64)> = exact.iter().collect();
        truth.sort_by(|a, b| b.1.cmp(a.1));
        let reported: Vec<String> = ss.top().into_iter().map(|(k, _, _)| k).collect();
        for (item, _) in truth.iter().take(5) {
            assert!(reported.contains(item), "missing heavy hitter {item}");
        }
    }

    #[test]
    fn rel_freq_upper_bounds_exact() {
        let (items, exact) = zipf_stream();
        let mut ss = SpaceSaving::new(64);
        for it in &items {
            ss.insert(it);
        }
        let mut counts: Vec<u64> = exact.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let exact_rf = counts.iter().take(5).sum::<u64>() as f64 / items.len() as f64;
        let est = ss.rel_freq(5);
        assert!(est + 1e-12 >= exact_rf, "est {est} < exact {exact_rf}");
        assert!(est - exact_rf < 0.1, "est {est} too loose vs {exact_rf}");
    }

    #[test]
    fn small_stream_exact() {
        let mut ss = SpaceSaving::new(10);
        for it in ["a", "b", "a", "c", "a", "b"] {
            ss.insert(it);
        }
        assert_eq!(ss.estimate("a"), 3);
        assert_eq!(ss.estimate("b"), 2);
        assert_eq!(ss.error_of("a"), 0);
        assert_eq!(ss.estimate("nope"), 0);
    }

    #[test]
    fn merge_still_upper_bounds() {
        let (items, exact) = zipf_stream();
        let mid = items.len() / 2;
        let mut a = SpaceSaving::new(48);
        let mut b = SpaceSaving::new(48);
        for it in &items[..mid] {
            a.insert(it);
        }
        for it in &items[mid..] {
            b.insert(it);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.count(), items.len() as u64);
        for (item, count, _) in a.top().into_iter().take(10) {
            let true_count = exact.get(&item).copied().unwrap_or(0);
            assert!(count >= true_count, "{item}: merged {count} < {true_count}");
        }
    }

    #[test]
    fn merge_size_mismatch() {
        let mut a = SpaceSaving::new(4);
        assert!(a.merge(&SpaceSaving::new(5)).is_err());
    }
}
