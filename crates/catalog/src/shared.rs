//! Shared, concurrently readable catalog state.
//!
//! [`SharedCatalog`] wraps a [`Catalog`] for multi-threaded serving: readers
//! take an immutable [`CatalogSnapshot`] (an `Arc<Catalog>` plus the *epoch*
//! at which it was published) under a brief read lock, and then bind,
//! optimize and execute against the snapshot, never against shared mutable
//! state. Writers copy the current catalog, apply their change, and publish
//! the result under a short write lock, bumping the epoch.
//!
//! The epoch is the invalidation token for everything derived from catalog
//! contents (statistics, plans): a cached artifact stamped with epoch `e` is
//! valid exactly while `shared.epoch() == e`. The plan cache in
//! `els-optimizer` keys on it. [`SharedCatalog::epoch`] is one atomic load,
//! so a reader that needs only the epoch — a plan-cache hit — takes no lock
//! and writes nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use els_storage::Table;

use els_core::sync::{read_recovering, write_recovering};

use crate::catalog::Catalog;
use crate::collect::{collect_table_stats, CollectOptions};
use crate::error::CatalogResult;

/// An immutable view of the catalog as of one publication.
///
/// Cloning is one `Arc`-count bump; holding a snapshot never blocks
/// writers (they publish a *new* catalog instead of mutating this one).
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    catalog: Arc<Catalog>,
    epoch: u64,
}

impl CatalogSnapshot {
    /// The catalog contents at this epoch.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::ops::Deref for CatalogSnapshot {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.catalog
    }
}

/// A catalog shared between serving threads: snapshot-on-read,
/// copy-on-write with a monotonically increasing epoch.
///
/// ```
/// use els_catalog::SharedCatalog;
/// use els_storage::datagen::{TableSpec, ColumnSpec, Distribution};
///
/// let shared = SharedCatalog::default();
/// let before = shared.snapshot();
/// shared.register(
///     TableSpec::new("t", 100)
///         .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
///         .generate(1),
///     &Default::default(),
/// ).unwrap();
/// let after = shared.snapshot();
/// assert_eq!(before.len(), 0);        // old snapshots are immutable
/// assert_eq!(after.len(), 1);
/// assert!(after.epoch() > before.epoch());
/// ```
#[derive(Debug, Default)]
pub struct SharedCatalog {
    /// The published catalog, replaced whole under the write lock.
    state: RwLock<Arc<Catalog>>,
    /// The epoch `state` was published at. Written only while the write
    /// lock is held, so under the read lock it is the catalog's own.
    ///
    /// Publication: a writer puts the new catalog in place and then stores
    /// the new epoch with `Release`; [`SharedCatalog::epoch`] loads it with
    /// `Acquire`. A reader that sees epoch `e` therefore sees everything
    /// published before `e`, and any snapshot it takes afterwards is at `e`
    /// or later, never older. A reader that needs no more than `e` — a
    /// plan cache comparing it with the epoch a plan was made at — needs
    /// nothing else to be visible: a plan stamped `e` was made against the
    /// snapshot taken at `e`, and carries what it read from it.
    epoch: AtomicU64,
}

impl SharedCatalog {
    /// The current contents + epoch, under a brief read lock. Readers do
    /// not block each other, but every snapshot writes the lock's word and
    /// the catalog's reference count, which all readers share.
    pub fn snapshot(&self) -> CatalogSnapshot {
        let state = read_recovering(&self.state);
        CatalogSnapshot { catalog: Arc::clone(&state), epoch: self.epoch.load(Ordering::Acquire) }
    }

    /// The current epoch (advances by at least 1 on every mutation). One
    /// atomic load: no lock, no write.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bump the epoch. Callers hold the write lock, after putting in place
    /// whatever the new epoch publishes.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Register a table (copy-on-write publish; bumps the epoch on
    /// success). Existing snapshots are unaffected. The statistics are
    /// collected before the write lock is taken, so readers never wait on
    /// the scan; only the insert and the publication hold the lock.
    pub fn register(&self, table: Table, options: &CollectOptions) -> CatalogResult<()> {
        let collected = collect_table_stats(&table, options);
        self.try_update(|catalog| catalog.insert(table, collected))
    }

    /// Apply a mutation to a private copy of the catalog and publish it,
    /// bumping the epoch, only when the mutation succeeds: multi-table
    /// changes appear atomically or not at all.
    pub(crate) fn try_update<R, E>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<R, E>,
    ) -> Result<R, E> {
        let mut state = write_recovering(&self.state);
        let mut next = (**state).clone();
        let out = f(&mut next)?;
        *state = Arc::new(next);
        self.bump_epoch();
        Ok(out)
    }

    /// Bump the epoch without changing contents, forcing every consumer of
    /// epoch-stamped artifacts (e.g. cached plans) to rebuild. The escape
    /// hatch for invalidation causes the epoch cannot see, such as edited
    /// cost-model constants.
    pub fn invalidate(&self) {
        let _state = write_recovering(&self.state);
        self.bump_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};

    fn table(name: &str, rows: usize) -> Table {
        TableSpec::new(name, rows)
            .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
            .generate(7)
    }

    #[test]
    fn snapshots_are_immutable_and_epoch_advances() {
        let shared = SharedCatalog::default();
        assert_eq!(shared.epoch(), 0);
        let s0 = shared.snapshot();
        shared.register(table("a", 10), &CollectOptions::default()).unwrap();
        let s1 = shared.snapshot();
        shared.register(table("b", 20), &CollectOptions::default()).unwrap();
        assert_eq!(s0.len(), 0);
        assert_eq!(s1.len(), 1);
        assert_eq!(shared.snapshot().len(), 2);
        assert!(s0.epoch() < s1.epoch());
        assert_eq!(shared.epoch(), 2);
    }

    #[test]
    fn failed_mutation_does_not_bump_the_epoch() {
        let shared = SharedCatalog::default();
        shared.register(table("a", 10), &CollectOptions::default()).unwrap();
        let before = shared.epoch();
        let dup = shared.register(table("a", 10), &CollectOptions::default());
        assert!(dup.is_err());
        assert_eq!(shared.epoch(), before);
    }

    #[test]
    fn invalidate_bumps_without_content_change() {
        let shared = SharedCatalog::default();
        let before = shared.epoch();
        shared.invalidate();
        assert_eq!(shared.epoch(), before + 1);
        assert_eq!(shared.snapshot().len(), 0);
    }

    #[test]
    fn update_publishes_atomically() {
        let shared = SharedCatalog::default();
        shared
            .try_update(|catalog| {
                catalog.register(table("a", 5), &CollectOptions::default())?;
                catalog.register(table("b", 5), &CollectOptions::default())
            })
            .unwrap();
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.snapshot().len(), 2);
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let shared = SharedCatalog::default();
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let shared = &shared;
                scope.spawn(move || {
                    shared
                        .register(table(&format!("t{i}"), 10), &CollectOptions::default())
                        .unwrap();
                });
            }
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let snap = shared.snapshot();
                        // A snapshot is internally consistent: every listed
                        // table resolves.
                        for name in snap.table_names() {
                            assert!(snap.table_data(name).is_ok());
                        }
                    }
                });
            }
        });
        assert_eq!(shared.snapshot().len(), 4);
        assert_eq!(shared.epoch(), 4);
    }

    #[test]
    fn a_snapshot_is_never_older_than_an_epoch_read_before_it() {
        let shared = SharedCatalog::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..50 {
                    shared
                        .register(table(&format!("t{i}"), 1), &CollectOptions::default())
                        .unwrap();
                    shared.invalidate();
                }
            });
            scope.spawn(|| {
                for _ in 0..2_000 {
                    let epoch = shared.epoch();
                    let snap = shared.snapshot();
                    assert!(snap.epoch() >= epoch);
                    // Registrations and invalidations alternate from epoch 0.
                    assert_eq!(snap.len() as u64, snap.epoch().div_ceil(2));
                }
            });
        });
        assert_eq!(shared.epoch(), 100);
    }
}
