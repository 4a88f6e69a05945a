//! Where a table's rows live: one resident block, or disjoint row shards.
//!
//! [`TableSource`] is the ingest-side abstraction the partition-native
//! pipeline is built on. A `Materialized` source is the classic case — all
//! rows in one [`Table`]. A `Sharded` source holds disjoint row partitions
//! sharing one schema, in global row order, the shape produced by chunked
//! ingest, partitioned files, or per-node scans; the sketch layer consumes
//! the shards independently (each at its global row offset) and merges the
//! per-shard catalogs, so the engine can answer approximate-mode queries
//! without ever concatenating the shards.
//!
//! A sharded source may also drop its raw rows after sketching
//! ([`TableSource::drop_raw`]), becoming *sketch-only*: approximate queries
//! keep working off the merged catalog, while exact-mode access fails with
//! a typed [`DataError::SketchOnly`] instead of silently recomputing from
//! partial data.
//!
//! A `TableSource` is plain owned data — `Send + Sync` (asserted below),
//! so the engine can hold one inside an `Arc`-shared core snapshot and
//! answer any number of concurrent read-only sessions from it.

use crate::column::ColumnType;
use crate::error::{DataError, Result};
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use std::sync::Arc;

/// A table's rows: materialized in one block, or split into disjoint row
/// shards that share one schema. See the module docs.
///
/// Shards are held behind [`Arc`] so cloning a source — which the engine's
/// writer path does on every republish while readers still hold the old
/// snapshot — shares the row data instead of deep-copying it. Appends
/// always add a *new* shard; resident shards are never mutated, so the
/// sharing is safe.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum TableSource {
    /// All rows resident in a single table.
    Materialized(Table),
    /// Disjoint row partitions in global row order.
    Sharded {
        /// Dataset name (from the first shard).
        name: String,
        /// The schema every shard shares.
        schema: Schema,
        /// The resident shards, in global row order after `dropped_rows`.
        shards: Vec<Arc<Table>>,
        /// Total rows across resident *and* dropped shards.
        total_rows: usize,
        /// Rows whose raw shards were dropped after sketching; they precede
        /// every resident shard in the global row order.
        dropped_rows: usize,
    },
}

impl TableSource {
    /// Wraps a fully materialized table.
    pub fn materialized(table: Table) -> Self {
        TableSource::Materialized(table)
    }

    /// Builds a sharded source from disjoint row partitions, in global row
    /// order.
    ///
    /// # Errors
    /// [`DataError::Empty`] for an empty shard list (a source must have a
    /// schema); a schema error when any shard disagrees with the first on
    /// column names, order, or types.
    pub fn sharded(shards: Vec<Table>) -> Result<Self> {
        let first = shards
            .first()
            .ok_or(DataError::Empty("sharded source needs at least one shard"))?;
        let schema = first.schema().clone();
        let name = first.name().to_owned();
        for shard in &shards[1..] {
            check_schema(&schema, shard)?;
        }
        let total_rows = shards.iter().map(Table::n_rows).sum();
        Ok(TableSource::Sharded {
            name,
            schema,
            shards: shards.into_iter().map(Arc::new).collect(),
            total_rows,
            dropped_rows: 0,
        })
    }

    /// A source that never held raw rows: only a schema and a row count.
    /// This is the shape of a *derived* core whose answers come entirely
    /// from a sketch catalog built elsewhere and restored into it. `rows`
    /// must be ≥ 1 (a catalog that covers no data answers nothing).
    ///
    /// # Panics
    /// When `rows` is zero.
    pub fn sketch_only(name: impl Into<String>, schema: Schema, rows: usize) -> Self {
        assert!(
            rows >= 1,
            "a sketch-only source must cover at least one row"
        );
        TableSource::Sharded {
            name: name.into(),
            schema,
            shards: Vec::new(),
            total_rows: rows,
            dropped_rows: rows,
        }
    }

    /// The dataset name.
    pub fn name(&self) -> &str {
        match self {
            TableSource::Materialized(t) => t.name(),
            TableSource::Sharded { name, .. } => name,
        }
    }

    /// The schema shared by every row of the source.
    pub fn schema(&self) -> &Schema {
        match self {
            TableSource::Materialized(t) => t.schema(),
            TableSource::Sharded { schema, .. } => schema,
        }
    }

    /// Total rows, including rows whose raw shards were dropped.
    pub fn n_rows(&self) -> usize {
        match self {
            TableSource::Materialized(t) => t.n_rows(),
            TableSource::Sharded { total_rows, .. } => *total_rows,
        }
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.schema().len()
    }

    /// Number of resident shards (1 for a materialized source).
    pub fn shard_count(&self) -> usize {
        match self {
            TableSource::Materialized(_) => 1,
            TableSource::Sharded { shards, .. } => shards.len(),
        }
    }

    /// Iterates the resident shards in global row order. A materialized
    /// source yields its single table.
    pub fn shards(&self) -> impl Iterator<Item = &Table> {
        let (single, many): (Option<&Table>, &[Arc<Table>]) = match self {
            TableSource::Materialized(t) => (Some(t), &[]),
            TableSource::Sharded { shards, .. } => (None, shards),
        };
        single.into_iter().chain(many.iter().map(Arc::as_ref))
    }

    /// Global row offset of each resident shard, aligned with
    /// [`TableSource::shards`] (dropped rows shift every offset up).
    pub fn shard_offsets(&self) -> Vec<usize> {
        let mut offset = match self {
            TableSource::Materialized(_) => 0,
            TableSource::Sharded { dropped_rows, .. } => *dropped_rows,
        };
        self.shards()
            .map(|s| {
                let at = offset;
                offset += s.n_rows();
                at
            })
            .collect()
    }

    /// Appends a new shard of rows and returns its global row offset. A
    /// materialized source is promoted to a sharded one in place.
    ///
    /// # Errors
    /// A schema error when the shard disagrees with the source's schema on
    /// column names, order, or types.
    pub fn append_shard(&mut self, shard: Table) -> Result<usize> {
        check_schema(self.schema(), &shard)?;
        let offset = self.n_rows();
        match self {
            TableSource::Materialized(t) => {
                let first = std::mem::replace(t, TableBuilder::new("").build()?);
                *self = TableSource::Sharded {
                    name: first.name().to_owned(),
                    schema: first.schema().clone(),
                    total_rows: first.n_rows() + shard.n_rows(),
                    shards: vec![Arc::new(first), Arc::new(shard)],
                    dropped_rows: 0,
                };
            }
            TableSource::Sharded {
                shards, total_rows, ..
            } => {
                *total_rows += shard.n_rows();
                shards.push(Arc::new(shard));
            }
        }
        Ok(offset)
    }

    /// The table itself when the source is materialized.
    pub fn as_materialized(&self) -> Option<&Table> {
        match self {
            TableSource::Materialized(t) => Some(t),
            TableSource::Sharded { .. } => None,
        }
    }

    /// Concatenates every resident shard into one table (exact-mode
    /// fallback). For a materialized source this is a cheap clone of the
    /// resident table.
    ///
    /// # Errors
    /// [`DataError::SketchOnly`] when raw shards were dropped — the rows no
    /// longer exist to concatenate.
    pub fn materialize(&self) -> Result<Table> {
        if self.is_sketch_only() {
            return Err(DataError::SketchOnly(
                "raw shards were dropped after sketching; exact rows are gone",
            ));
        }
        match self {
            TableSource::Materialized(t) => Ok(t.clone()),
            TableSource::Sharded { shards, .. } => {
                let mut stacked = Table::clone(&shards[0]);
                for shard in &shards[1..] {
                    stacked = stacked.vstack(shard)?;
                }
                Ok(stacked)
            }
        }
    }

    /// A zero-row table with this source's name, schema, and semantic tags —
    /// enough for schema-driven candidate enumeration without touching rows.
    pub fn schema_table(&self) -> Table {
        let mut builder = TableBuilder::new(self.name());
        for field in self.schema().fields() {
            builder = match field.ty {
                ColumnType::Numeric => builder.numeric(field.name.clone(), Vec::new()),
                ColumnType::Categorical => {
                    builder.categorical(field.name.clone(), std::iter::empty::<&str>())
                }
            };
            if let Some(tag) = &field.semantic {
                builder = builder.semantic(tag.clone());
            }
        }
        builder
            .build()
            .expect("a schema-derived empty table is always valid")
    }

    /// Drops the raw rows of a sharded source, keeping only schema and row
    /// count — the shards live on solely through whatever sketches were
    /// built from them. A no-op on a materialized source.
    pub fn drop_raw(&mut self) {
        if let TableSource::Sharded {
            shards,
            total_rows,
            dropped_rows,
            ..
        } = self
        {
            *dropped_rows = *total_rows;
            shards.clear();
        }
    }

    /// Were raw rows dropped after sketching?
    pub fn is_sketch_only(&self) -> bool {
        match self {
            TableSource::Materialized(_) => false,
            TableSource::Sharded { dropped_rows, .. } => *dropped_rows > 0,
        }
    }
}

impl From<Table> for TableSource {
    fn from(table: Table) -> Self {
        TableSource::Materialized(table)
    }
}

// The engine shares one source across every session thread; keep it plain
// owned data so this holds.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TableSource>();
    assert_send_sync::<Table>();
};

/// Shards must agree with the source schema on names, order, and types
/// (semantic tags follow the source, as in [`Table::vstack`]).
fn check_schema(schema: &Schema, shard: &Table) -> Result<()> {
    if schema.len() != shard.schema().len() {
        return Err(DataError::LengthMismatch {
            name: "<schema>".to_owned(),
            len: shard.schema().len(),
            expected: schema.len(),
        });
    }
    for (a, b) in schema.fields().iter().zip(shard.schema().fields()) {
        if a.name != b.name || a.ty != b.ty {
            return Err(DataError::TypeMismatch {
                name: b.name.clone(),
                actual: b.ty.name(),
                expected: a.ty.name(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(name: &str, xs: Vec<f64>, cs: Vec<&str>) -> Table {
        TableBuilder::new(name)
            .numeric("x", xs)
            .semantic("measure")
            .categorical("c", cs)
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_source_dimensions_and_offsets() {
        let s = TableSource::sharded(vec![
            shard("d", vec![1.0, 2.0], vec!["a", "b"]),
            shard("other", vec![3.0], vec!["a"]),
            shard("d", vec![], vec![]),
        ])
        .unwrap();
        assert_eq!(s.name(), "d");
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.n_cols(), 2);
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.shard_offsets(), vec![0, 2, 3]);
        assert!(!s.is_sketch_only());
    }

    #[test]
    fn materialized_source_is_one_shard() {
        let s = TableSource::materialized(shard("d", vec![1.0, 2.0], vec!["a", "b"]));
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.shard_offsets(), vec![0]);
        assert_eq!(s.shards().count(), 1);
        assert!(s.as_materialized().is_some());
    }

    #[test]
    fn empty_and_mismatched_shards_rejected() {
        assert!(matches!(
            TableSource::sharded(vec![]),
            Err(DataError::Empty(_))
        ));
        let bad = TableBuilder::new("d")
            .numeric("y", vec![1.0])
            .build()
            .unwrap();
        assert!(TableSource::sharded(vec![shard("d", vec![1.0], vec!["a"]), bad]).is_err());
    }

    #[test]
    fn append_promotes_and_offsets_grow() {
        let mut s = TableSource::materialized(shard("d", vec![1.0, 2.0], vec!["a", "b"]));
        let off = s.append_shard(shard("d", vec![3.0], vec!["c"])).unwrap();
        assert_eq!(off, 2);
        assert_eq!(s.shard_count(), 2);
        assert_eq!(s.n_rows(), 3);
        // semantic tags survive the promotion
        assert_eq!(s.schema().fields()[0].semantic.as_deref(), Some("measure"));
        let off = s
            .append_shard(shard("d", vec![4.0, 5.0], vec!["a", "a"]))
            .unwrap();
        assert_eq!(off, 3);
        assert_eq!(s.n_rows(), 5);
        let bad = TableBuilder::new("d")
            .categorical("x", ["nope"])
            .categorical("c", ["a"])
            .build()
            .unwrap();
        assert!(s.append_shard(bad).is_err());
        assert_eq!(s.n_rows(), 5, "failed append must not change the source");
    }

    #[test]
    fn materialize_restores_row_order() {
        let s = TableSource::sharded(vec![
            shard("d", vec![1.0, 2.0], vec!["a", "b"]),
            shard("d", vec![3.0], vec!["c"]),
        ])
        .unwrap();
        let t = s.materialize().unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.numeric_by_name("x").unwrap().values(), &[1.0, 2.0, 3.0]);
        assert_eq!(t.categorical_by_name("c").unwrap().get(2), Some("c"));
    }

    #[test]
    fn schema_table_is_zero_row_same_shape() {
        let s = TableSource::sharded(vec![shard("d", vec![1.0], vec!["a"])]).unwrap();
        let t = s.schema_table();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.name(), "d");
        assert_eq!(t.numeric_indices(), vec![0]);
        assert_eq!(t.semantic(0), Some("measure"));
    }

    #[test]
    fn clones_share_shard_storage() {
        let mut s = TableSource::sharded(vec![shard("d", vec![1.0, 2.0], vec!["a", "b"])]).unwrap();
        let snapshot = s.clone();
        // republish-style clone: the shard Arc is shared, not deep-copied
        match (&s, &snapshot) {
            (TableSource::Sharded { shards: a, .. }, TableSource::Sharded { shards: b, .. }) => {
                assert!(Arc::ptr_eq(&a[0], &b[0]))
            }
            _ => panic!("both sources are sharded"),
        }
        // appends touch only the clone they run on
        s.append_shard(shard("d", vec![3.0], vec!["c"])).unwrap();
        assert_eq!(s.n_rows(), 3);
        assert_eq!(snapshot.n_rows(), 2);
    }

    #[test]
    fn sketch_only_constructor_never_had_rows() {
        let schema = shard("d", vec![1.0], vec!["a"]).schema().clone();
        let s = TableSource::sketch_only("window", schema, 250);
        assert!(s.is_sketch_only());
        assert_eq!(s.n_rows(), 250);
        assert_eq!(s.n_cols(), 2);
        assert_eq!(s.shard_count(), 0);
        assert!(matches!(s.materialize(), Err(DataError::SketchOnly(_))));
        let t = s.schema_table();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.name(), "window");
    }

    #[test]
    fn sketch_only_sources_refuse_materialization() {
        let mut s = TableSource::sharded(vec![
            shard("d", vec![1.0, 2.0], vec!["a", "b"]),
            shard("d", vec![3.0], vec!["c"]),
        ])
        .unwrap();
        s.drop_raw();
        assert!(s.is_sketch_only());
        assert_eq!(s.n_rows(), 3, "row count survives the drop");
        assert_eq!(s.shard_count(), 0);
        assert!(matches!(s.materialize(), Err(DataError::SketchOnly(_))));
        // appending after a drop lands at the right global offset
        let off = s.append_shard(shard("d", vec![4.0], vec!["d"])).unwrap();
        assert_eq!(off, 3);
        assert_eq!(s.shard_offsets(), vec![3]);
        assert!(
            matches!(s.materialize(), Err(DataError::SketchOnly(_))),
            "still sketch-only: the dropped rows are gone for good"
        );
    }
}
