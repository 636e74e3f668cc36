//! An LRU buffer pool simulation.
//!
//! The paper's experiment ran "using the same buffer size" for every plan
//! (Section 8): part of a nested-loops rescan is absorbed by the buffer
//! whenever the inner relation fits. This module simulates exactly that: a
//! fixed-capacity LRU cache of `(table, page)` identifiers. The executor
//! threads a [`PageIo`] through every *base-table* access; logical page
//! reads are always counted ([`crate::ExecMetrics::pages_read`]) while
//! *physical* reads ([`crate::ExecMetrics::physical_pages_read`]) are only
//! charged on buffer misses.
//!
//! Note the classic LRU pathology this makes visible: repeated sequential
//! scans of a relation **larger** than the buffer miss on every page
//! (sequential flooding), so an unindexed giant inner is just as
//! catastrophic as with no buffer at all — while an inner that fits is read
//! once. Experiment F8 sweeps this boundary.

use std::collections::{BTreeMap, HashMap};

/// A fixed-capacity LRU cache over `(table, page)` identifiers.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    /// page -> last-use stamp.
    stamps: HashMap<(usize, u64), u64>,
    /// last-use stamp -> page (stamps are unique).
    order: BTreeMap<u64, (usize, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// A pool holding `capacity` pages (0 caches nothing — every access
    /// misses).
    pub(crate) fn new(capacity: usize) -> BufferPool {
        BufferPool {
            capacity,
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touch one page; returns `true` on a hit.
    pub(crate) fn access(&mut self, table: usize, page: u64) -> bool {
        self.clock += 1;
        let key = (table, page);
        if let Some(old) = self.stamps.get(&key).copied() {
            self.order.remove(&old);
            self.order.insert(self.clock, key);
            self.stamps.insert(key, self.clock);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.stamps.len() >= self.capacity {
            // Evict the least recently used page.
            if let Some((&stamp, &victim)) = self.order.iter().next() {
                self.order.remove(&stamp);
                self.stamps.remove(&victim);
            }
        }
        self.order.insert(self.clock, key);
        self.stamps.insert(key, self.clock);
        false
    }
}

/// The page-I/O path handed to base-table accesses: counts logical reads
/// always, physical reads only on misses (or always, with no pool).
#[derive(Debug, Default)]
pub struct PageIo {
    /// The optional buffer pool; `None` means every logical read is
    /// physical (the pre-buffer behaviour).
    pub pool: Option<BufferPool>,
}

impl PageIo {
    /// An I/O path without buffering.
    pub(crate) fn unbuffered() -> PageIo {
        PageIo { pool: None }
    }

    /// An I/O path with an LRU pool of `capacity` pages.
    pub(crate) fn with_pool(capacity: usize) -> PageIo {
        PageIo { pool: Some(BufferPool::new(capacity)) }
    }

    /// Read pages `0..pages` of `table` sequentially (a full scan or one
    /// nested-loops rescan pass).
    pub(crate) fn scan_table(
        &mut self,
        table: usize,
        pages: u64,
        metrics: &mut crate::metrics::ExecMetrics,
    ) {
        metrics.pages_read += pages;
        match &mut self.pool {
            None => metrics.physical_pages_read += pages,
            Some(pool) => {
                for p in 0..pages {
                    if !pool.access(table, p) {
                        metrics.physical_pages_read += 1;
                    }
                }
            }
        }
    }

    /// Read one specific page of `table` (an index probe landing on a data
    /// page).
    pub(crate) fn read_page(
        &mut self,
        table: usize,
        page: u64,
        metrics: &mut crate::metrics::ExecMetrics,
    ) {
        metrics.pages_read += 1;
        match &mut self.pool {
            None => metrics.physical_pages_read += 1,
            Some(pool) => {
                if !pool.access(table, page) {
                    metrics.physical_pages_read += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;

    #[test]
    fn hits_and_misses() {
        let mut p = BufferPool::new(2);
        assert!(!p.access(0, 1)); // miss
        assert!(!p.access(0, 2)); // miss
        assert!(p.access(0, 1)); // hit
        assert!(!p.access(0, 3)); // miss, evicts page 2 (LRU)
        assert!(p.access(0, 1)); // still resident
        assert!(!p.access(0, 2)); // was evicted
        assert_eq!(p.hits, 2);
        assert_eq!(p.misses, 4);
        assert_eq!(p.stamps.len(), 2);
    }

    #[test]
    fn tables_do_not_collide() {
        let mut p = BufferPool::new(4);
        assert!(!p.access(0, 1));
        assert!(!p.access(1, 1));
        assert!(p.access(0, 1));
        assert!(p.access(1, 1));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut p = BufferPool::new(0);
        assert!(!p.access(0, 1));
        assert!(!p.access(0, 1));
        assert_eq!(p.stamps.len(), 0);
    }

    #[test]
    fn fitting_relation_is_read_once_across_rescans() {
        // 10-page table, 16-page pool, 5 sequential rescans: 10 physical
        // reads total.
        let mut io = PageIo::with_pool(16);
        let mut m = ExecMetrics::default();
        for _ in 0..5 {
            io.scan_table(7, 10, &mut m);
        }
        assert_eq!(m.pages_read, 50);
        assert_eq!(m.physical_pages_read, 10);
    }

    #[test]
    fn sequential_flooding_defeats_a_small_pool() {
        // 20-page table, 10-page pool, repeated sequential scans: classic
        // LRU flooding — every access misses.
        let mut io = PageIo::with_pool(10);
        let mut m = ExecMetrics::default();
        for _ in 0..3 {
            io.scan_table(7, 20, &mut m);
        }
        assert_eq!(m.pages_read, 60);
        assert_eq!(m.physical_pages_read, 60);
    }

    #[test]
    fn unbuffered_is_all_physical() {
        let mut io = PageIo::unbuffered();
        let mut m = ExecMetrics::default();
        io.scan_table(0, 7, &mut m);
        io.read_page(0, 3, &mut m);
        assert_eq!(m.pages_read, 8);
        assert_eq!(m.physical_pages_read, 8);
    }

    #[test]
    fn point_reads_cache() {
        let mut io = PageIo::with_pool(4);
        let mut m = ExecMetrics::default();
        io.read_page(0, 3, &mut m);
        io.read_page(0, 3, &mut m);
        assert_eq!(m.pages_read, 2);
        assert_eq!(m.physical_pages_read, 1);
    }
}
