//! Per-table prepared columns: the centred values and centred fractional
//! ranks every correlation-shaped batch scorer needs, built at most once
//! per column and shared by every query that reads the same table.
//!
//! Centring is the column-local half of Pearson's ρ, rank-then-centre the
//! column-local half of Spearman's. A batch scorer used to build both per
//! call and drop them; [`PreparedColumns`] keeps them for as long as its
//! owner keeps the table — one slot per (column, [`Transform`],
//! [`KernelMode`]), filled on first demand, read without a lock afterwards.
//!
//! The kernel mode is part of the key because [`CenteredColumn`]'s
//! bit-identity contract (`pearson_centered` ≡ `pearson_complete`) holds
//! only when both sides ran under one mode, and the mode is thread-local: a
//! slot filled on a `Scalar` thread must never answer a `Vectorized` one.
//!
//! There is no eviction and no invalidation. The store derives from exactly
//! one table; whoever owns that table owns the store and drops both
//! together. Its size is bounded by two `f64` vectors per numeric column
//! actually asked for (per kernel mode in use — one in production).

use crate::correlation::{center, CenteredColumn};
use crate::kernel::{self, KernelMode};
use crate::rank::fractional_ranks;
use foresight_data::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Which per-column transform a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// `xᵢ − μx` — what Pearson's ρ shares across pairs.
    Centered,
    /// Fractional ranks of the column, centred — what Spearman's ρ shares
    /// across pairs.
    CenteredRanks,
}

/// `None` once filled = the column cannot share the transform (missing
/// values, fewer than two rows, not numeric); pairs touching it take the
/// caller's pairwise-deletion path.
type Slot = OnceLock<Option<CenteredColumn>>;

/// The slots of one column: `[transform][kernel mode]`.
type ColumnSlots = [[Slot; 2]; 2];

/// A lazily filled store of [`CenteredColumn`]s over the columns of one
/// table. See the [module docs](self).
#[derive(Debug, Default)]
pub struct PreparedColumns {
    /// One entry per table column, allocated on first use so a store that
    /// is never asked for anything costs nothing.
    columns: OnceLock<Box<[ColumnSlots]>>,
    /// Heap bytes of the filled slots.
    bytes: AtomicUsize,
}

impl PreparedColumns {
    /// An empty store. Every [`get`](Self::get) on it must pass the same
    /// table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Column `col` of `table` under `transform`, prepared for the calling
    /// thread's kernel mode — built on first call, shared afterwards.
    ///
    /// `None` when the column cannot share the transform: it has missing
    /// values (pairwise deletion makes the mean and the ranks
    /// pair-dependent), fewer than two rows, is not numeric, or is out of
    /// range. That answer is remembered too.
    pub fn get(&self, table: &Table, col: usize, transform: Transform) -> Option<&CenteredColumn> {
        let columns = self.columns.get_or_init(|| {
            (0..table.n_cols())
                .map(|_| ColumnSlots::default())
                .collect()
        });
        let by_mode = &columns.get(col)?[transform as usize];
        let slot = &by_mode[match kernel::mode() {
            KernelMode::Vectorized => 0,
            KernelMode::Scalar => 1,
        }];
        let prepared = slot
            .get_or_init(|| {
                let values = table.numeric(col).ok()?.values();
                let prepared = match transform {
                    Transform::Centered => center(values)?,
                    Transform::CenteredRanks => {
                        if values.iter().any(|v| v.is_nan()) {
                            return None;
                        }
                        center(&fractional_ranks(values))?
                    }
                };
                self.bytes.fetch_add(
                    prepared.centered.capacity() * std::mem::size_of::<f64>(),
                    Ordering::Relaxed,
                );
                Some(prepared)
            })
            .as_ref()?;
        debug_assert_eq!(
            prepared.centered.len(),
            table.n_rows(),
            "a prepared-column store serves exactly one table"
        );
        Some(prepared)
    }

    /// Number of slots holding a prepared vector under `transform`, over
    /// all columns and kernel modes.
    pub fn filled(&self, transform: Transform) -> usize {
        self.columns.get().map_or(0, |columns| {
            columns
                .iter()
                .flat_map(|slots| &slots[transform as usize])
                .filter(|slot| matches!(slot.get(), Some(Some(_))))
                .count()
        })
    }

    /// Approximate resident bytes: the prepared vectors plus the slot table.
    pub fn approx_bytes(&self) -> usize {
        let table = self
            .columns
            .get()
            .map_or(0, |columns| std::mem::size_of_val(&**columns));
        table + self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{pearson_centered, pearson_complete, spearman};
    use crate::kernel::with_mode;
    use foresight_data::TableBuilder;

    fn table() -> Table {
        let n = 131;
        TableBuilder::new("t")
            .numeric(
                "wave",
                (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect(),
            )
            .numeric("ties", (0..n).map(|i| (i % 7) as f64).collect())
            .numeric(
                "holes",
                (0..n)
                    .map(|i| if i % 9 == 4 { f64::NAN } else { i as f64 })
                    .collect(),
            )
            .categorical("label", (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }))
            .build()
            .unwrap()
    }

    fn bits(c: &CenteredColumn) -> (Vec<u64>, u64) {
        (
            c.centered.iter().map(|v| v.to_bits()).collect(),
            c.sxx.to_bits(),
        )
    }

    #[test]
    fn slot_equals_fresh_center_under_both_modes() {
        let t = table();
        for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
            with_mode(mode, || {
                let store = PreparedColumns::new();
                for col in 0..2 {
                    let values = t.numeric(col).unwrap().values();
                    let fresh = center(values).unwrap();
                    let slot = store.get(&t, col, Transform::Centered).unwrap();
                    assert_eq!(bits(slot), bits(&fresh), "{mode:?} col {col}");
                    let fresh = center(&fractional_ranks(values)).unwrap();
                    let slot = store.get(&t, col, Transform::CenteredRanks).unwrap();
                    assert_eq!(bits(slot), bits(&fresh), "{mode:?} ranks col {col}");
                }
                // and the prepared pair reproduces the scalar entry points
                let (x, y) = (
                    t.numeric(0).unwrap().values(),
                    t.numeric(1).unwrap().values(),
                );
                let px = store.get(&t, 0, Transform::Centered).unwrap();
                let py = store.get(&t, 1, Transform::Centered).unwrap();
                assert_eq!(
                    pearson_centered(px, py).to_bits(),
                    pearson_complete(x, y).to_bits()
                );
                let rx = store.get(&t, 0, Transform::CenteredRanks).unwrap();
                let ry = store.get(&t, 1, Transform::CenteredRanks).unwrap();
                assert_eq!(pearson_centered(rx, ry).to_bits(), spearman(x, y).to_bits());
            });
        }
    }

    #[test]
    fn unshareable_columns_are_none_and_cost_nothing() {
        let t = table();
        let store = PreparedColumns::new();
        assert_eq!(store.approx_bytes(), 0, "an untouched store is free");
        for transform in [Transform::Centered, Transform::CenteredRanks] {
            assert!(store.get(&t, 2, transform).is_none(), "missing values");
            assert!(store.get(&t, 3, transform).is_none(), "categorical");
            assert!(store.get(&t, 4, transform).is_none(), "out of range");
            assert_eq!(store.filled(transform), 0);
        }
        let slots_only = store.approx_bytes();
        store.get(&t, 0, Transform::CenteredRanks).unwrap();
        assert_eq!(store.filled(Transform::CenteredRanks), 1);
        assert_eq!(store.filled(Transform::Centered), 0);
        assert!(store.approx_bytes() >= slots_only + t.n_rows() * 8);
        // a second read fills nothing more
        let bytes = store.approx_bytes();
        store.get(&t, 0, Transform::CenteredRanks).unwrap();
        assert_eq!(store.approx_bytes(), bytes);
    }

    #[test]
    fn a_scalar_threads_slot_is_never_served_to_a_vectorized_one() {
        let t = table();
        let store = PreparedColumns::new();
        let (scalar, vectorized) = std::thread::scope(|scope| {
            let scalar = scope
                .spawn(|| {
                    with_mode(KernelMode::Scalar, || {
                        store.get(&t, 0, Transform::Centered).unwrap() as *const CenteredColumn
                            as usize
                    })
                })
                .join()
                .unwrap();
            // filled second, so a store keyed by column alone would hand
            // this thread the scalar slot
            let vectorized = scope
                .spawn(|| {
                    with_mode(KernelMode::Vectorized, || {
                        let slot = store.get(&t, 0, Transform::Centered).unwrap();
                        let fresh = center(t.numeric(0).unwrap().values()).unwrap();
                        assert_eq!(bits(slot), bits(&fresh));
                        slot as *const CenteredColumn as usize
                    })
                })
                .join()
                .unwrap();
            (scalar, vectorized)
        });
        assert_ne!(scalar, vectorized, "one slot per kernel mode");
        assert_eq!(store.filled(Transform::Centered), 2);
    }
}
