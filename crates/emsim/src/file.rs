//! Typed block files: collections of pages of one node type sharing the
//! device's buffer pool and counters.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex, RwLock};

use crate::device::{Device, FileId, PageAddr};
use crate::page::Page;

/// Identifier of a page within a [`BlockFile`]. Page ids are stable for the
/// lifetime of the page (until [`BlockFile::free`]) and may be stored inside
/// other pages as "child pointers".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// A sentinel id that is never allocated; useful for "null pointer" slots
    /// inside fixed-layout pages.
    pub const NULL: PageId = PageId(u32::MAX);

    /// Whether this id is the null sentinel.
    pub fn is_null(&self) -> bool {
        *self == Self::NULL
    }
}

type Slot<P> = Arc<RwLock<Option<P>>>;

/// A file of pages of type `P` on a [`Device`].
///
/// Every [`with`](BlockFile::with) / [`with_mut`](BlockFile::with_mut) call is a
/// logical page access charged through the device's buffer pool. Accessing a
/// page therefore costs one read I/O the first time (and after eviction), and is
/// free while the page stays resident — exactly the EM model.
///
/// Thread safety: a `BlockFile<P>` is `Send + Sync` whenever `P` is. The slot
/// table grows under a `RwLock`, each page sits behind its own `RwLock` (so
/// `with` on distinct pages — and concurrent `with` on the same page — never
/// serialise on page contents), and the free list has a `Mutex`. Concurrent
/// `with_mut` calls to the *same* page are mutually exclusive but their
/// interleaving is the caller's responsibility, as is the torn-structure
/// problem of multi-page operations — see `topk_core::ConcurrentTopK` and
/// DESIGN.md §4 for the structure-level locking that builds on this.
#[derive(Debug)]
pub struct BlockFile<P> {
    device: Device,
    file_id: FileId,
    slots: RwLock<Vec<Slot<P>>>,
    free_list: Mutex<Vec<u32>>,
    _marker: PhantomData<P>,
}

impl<P: Page> BlockFile<P> {
    pub(crate) fn new(device: Device, file_id: FileId) -> Self {
        Self {
            device,
            file_id,
            slots: RwLock::new(Vec::new()),
            free_list: Mutex::new(Vec::new()),
            _marker: PhantomData,
        }
    }

    /// The file's identifier on its device.
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// The device this file lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn addr(&self, id: PageId) -> PageAddr {
        PageAddr {
            file: self.file_id,
            page: id.0,
        }
    }

    fn slot(&self, id: PageId) -> Slot<P> {
        let slots = self.slots.read().unwrap();
        slots
            .get(id.0 as usize)
            // audit: allow(panic_path, reason = "out-of-range PageId means a caller bug or corruption; fail fast with the id")
            .unwrap_or_else(|| panic!("page {:?} out of range in file {}", id, self.file_id))
            .clone()
    }

    fn check_capacity(&self, page: &P) {
        let words = page.words();
        if words > self.device.block_words() {
            self.device.record_capacity_violation(words);
        }
    }

    /// Allocate a new page holding `page`, charging one write access.
    pub fn alloc(&self, page: P) -> PageId {
        self.check_capacity(&page);
        // Pop outside the match so the free-list lock is released before any
        // slot lock is taken (lock order: free_list and slot locks never nest).
        let recycled = self.free_list.lock().unwrap().pop();
        let id = match recycled {
            Some(r) => {
                let slot = self.slot(PageId(r));
                *slot.write().unwrap() = Some(page);
                PageId(r)
            }
            None => {
                let mut slots = self.slots.write().unwrap();
                let idx = slots.len() as u32;
                slots.push(Arc::new(RwLock::new(Some(page))));
                PageId(idx)
            }
        };
        self.device.record_alloc(self.file_id);
        self.device.record_access(self.addr(id), true);
        id
    }

    /// Free a page. Its id may later be recycled by `alloc`.
    pub fn free(&self, id: PageId) {
        let slot = self.slot(id);
        let was = slot.write().unwrap().take();
        assert!(was.is_some(), "double free of page {:?}", id);
        // Discard from the pool *before* publishing the id for reuse: once the
        // id is on the free list a racing `alloc` may recycle it, and a
        // delayed discard would evict the recycler's freshly written page,
        // skewing the dirty write-back accounting.
        self.device.record_free(self.addr(id));
        self.free_list.lock().unwrap().push(id.0);
    }

    /// Whether `id` refers to a live page.
    pub fn is_live(&self, id: PageId) -> bool {
        if id.is_null() {
            return false;
        }
        let slots = self.slots.read().unwrap();
        slots
            .get(id.0 as usize)
            .map(|s| s.read().unwrap().is_some())
            .unwrap_or(false)
    }

    /// Read access to a page: charges one logical access (a physical read if
    /// the page is not resident).
    pub fn with<R>(&self, id: PageId, f: impl FnOnce(&P) -> R) -> R {
        self.device.record_access(self.addr(id), false);
        let slot = self.slot(id);
        let guard = slot.read().unwrap();
        let page = guard
            .as_ref()
            // audit: allow(panic_path, reason = "use-after-free of a page is a caller bug; fail fast with the id")
            .unwrap_or_else(|| panic!("access to freed page {:?} in file {}", id, self.file_id));
        f(page)
    }

    /// Write access to a page: charges one logical access and marks the page
    /// dirty (a physical write happens when it is evicted or flushed).
    pub fn with_mut<R>(&self, id: PageId, f: impl FnOnce(&mut P) -> R) -> R {
        self.device.record_access(self.addr(id), true);
        let slot = self.slot(id);
        let mut guard = slot.write().unwrap();
        let page = guard
            .as_mut()
            // audit: allow(panic_path, reason = "use-after-free of a page is a caller bug; fail fast with the id")
            .unwrap_or_else(|| panic!("access to freed page {:?} in file {}", id, self.file_id));
        let r = f(page);
        let words = page.words();
        drop(guard);
        if words > self.device.block_words() {
            self.device.record_capacity_violation(words);
        }
        r
    }

    /// Convenience: clone the page contents out (still one read access).
    pub fn get(&self, id: PageId) -> P
    where
        P: Clone,
    {
        self.with(id, |p| p.clone())
    }

    /// Replace the contents of a page (one write access).
    pub fn put(&self, id: PageId, page: P) {
        self.check_capacity(&page);
        self.with_mut(id, |slot| *slot = page);
    }

    /// Number of live pages in this file.
    pub fn live_pages(&self) -> usize {
        let slots = self.slots.read().unwrap();
        slots.iter().filter(|s| s.read().unwrap().is_some()).count()
    }

    /// Ids of all live pages (mainly for debugging and invariant checks).
    pub fn live_ids(&self) -> Vec<PageId> {
        let slots = self.slots.read().unwrap();
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.read().unwrap().is_some())
            .map(|(i, _)| PageId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmConfig;

    #[derive(Clone, Debug, PartialEq)]
    struct Node {
        vals: Vec<u64>,
    }
    impl Page for Node {
        fn words(&self) -> usize {
            1 + self.vals.len()
        }
    }

    fn device() -> Device {
        Device::new(EmConfig::small())
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        let id = f.alloc(Node { vals: vec![1, 2] });
        f.with_mut(id, |n| n.vals.push(3));
        assert_eq!(f.get(id).vals, vec![1, 2, 3]);
        assert_eq!(f.live_pages(), 1);
    }

    #[test]
    fn free_then_realloc_recycles_ids() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        let a = f.alloc(Node { vals: vec![] });
        let b = f.alloc(Node { vals: vec![] });
        f.free(a);
        assert!(!f.is_live(a));
        assert!(f.is_live(b));
        let c = f.alloc(Node { vals: vec![9] });
        assert_eq!(c, a, "freed id is recycled");
        assert_eq!(f.get(c).vals, vec![9]);
    }

    #[test]
    #[should_panic(expected = "access to freed page")]
    fn access_after_free_panics() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        let a = f.alloc(Node { vals: vec![] });
        f.free(a);
        f.with(a, |_| ());
    }

    #[test]
    fn null_page_id_is_never_live() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        assert!(!f.is_live(PageId::NULL));
        assert!(PageId::NULL.is_null());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn oversized_page_counts_violation() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        let huge = Node {
            vals: vec![0; 1000],
        };
        let _ = f.alloc(huge);
        assert!(dev.stats().capacity_violations > 0);
    }

    #[test]
    fn live_ids_reports_current_pages() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        let a = f.alloc(Node { vals: vec![] });
        let b = f.alloc(Node { vals: vec![] });
        f.free(a);
        assert_eq!(f.live_ids(), vec![b]);
    }

    #[test]
    fn concurrent_alloc_free_and_access_stay_consistent() {
        let dev = device();
        let f: BlockFile<Node> = dev.open_file("nodes");
        let keep: Vec<PageId> = (0..32).map(|i| f.alloc(Node { vals: vec![i] })).collect();
        std::thread::scope(|scope| {
            // Churners allocate and free private pages; readers hammer the
            // stable ones; a writer mutates one shared page.
            for _ in 0..2 {
                let f = &f;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let id = f.alloc(Node { vals: vec![i] });
                        f.with(id, |n| assert_eq!(n.vals, vec![i]));
                        f.free(id);
                    }
                });
            }
            for t in 0..4 {
                let f = &f;
                let keep = &keep;
                scope.spawn(move || {
                    for i in 0..2_000usize {
                        let id = keep[(i * 5 + t) % keep.len()];
                        f.with(id, |n| assert_eq!(n.vals.len(), 1));
                    }
                });
            }
            let f = &f;
            let shared = keep[0];
            scope.spawn(move || {
                for _ in 0..500 {
                    f.with_mut(shared, |n| n.vals[0] = n.vals[0].wrapping_add(1));
                }
            });
        });
        assert_eq!(f.live_pages(), 32, "churned pages must all be freed again");
        let s = dev.stats();
        assert_eq!(s.allocs - s.frees, 32);
        assert_eq!(dev.space_blocks(), 32);
    }
}
