//! Copy-on-write paged row storage for incremental-decode caches.
//!
//! A decode session's cached state is a set of append-only `len × width`
//! row matrices (key rows, value rows, positional rows). Snapshot-forking
//! such a session — the serve crate's prefix trie does it once per
//! admitted request — deep-copies every row if the storage is a flat
//! `Vec<f32>`: ~0.6 MB per fork at a 512-token prefix for the
//! constructed-weights transformer. [`PagedRows`] stores the rows in
//! fixed-size pages behind [`Arc`]s instead, so:
//!
//! * **fork is O(pages)** — cloning bumps one refcount per page and copies
//!   no row bytes;
//! * **divergence un-shares lazily** — the first append after a fork
//!   copies only the shared *tail* page ([`Arc::make_mut`]), never the
//!   full prefix. Rows are append-only, so a full page can never be
//!   written again and stays shared for the lifetime of every fork;
//! * **parent bytes never move** — a fork's appends materialize into the
//!   fork's own tail-page copy, leaving every parent page untouched (the
//!   aliasing suite below pins this).
//!
//! Reads go through [`PagedRows::row`] (one division per access) or the
//! allocation-free in-order [`PagedRows::rows`] iterator for full scans.

use std::sync::Arc;

/// Rows per page. 64 rows × 96 floats (the transformer's `d_sig`) is 24 KB
/// — large enough that fork cost is a few refcounts even at multi-thousand
/// token contexts, small enough that the copy-on-write of a shared tail
/// page stays cheap.
pub const ROWS_PER_PAGE: usize = 64;

/// An append-only `len × width` f32 row matrix in copy-on-write pages.
///
/// `Clone` is the fork operation: O(pages) refcount bumps, no row copies.
#[derive(Debug, Clone)]
pub struct PagedRows {
    width: usize,
    pages: Vec<Arc<Vec<f32>>>,
    len: usize,
}

impl PagedRows {
    /// Empty storage of `width`-float rows.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "row width must be positive");
        Self {
            width,
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Row width in floats.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// True if page `idx` is the same allocation in both storages (i.e.
    /// still shared after a fork). Out-of-range pages are not shared.
    pub fn shares_page(&self, other: &PagedRows, idx: usize) -> bool {
        match (self.pages.get(idx), other.pages.get(idx)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Append one row.
    ///
    /// Appending to a *shared* non-full tail page copies that single page
    /// first (copy-on-write); full pages and unshared tails are never
    /// copied.
    ///
    /// # Panics
    /// Panics if `row.len() != width`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        if self.len.is_multiple_of(ROWS_PER_PAGE) {
            let mut page = Vec::with_capacity(ROWS_PER_PAGE * self.width);
            page.extend_from_slice(row);
            self.pages.push(Arc::new(page));
        } else {
            let tail = self.pages.last_mut().expect("non-empty by len invariant");
            // CoW point: clones the tail page iff another fork still
            // aliases it.
            Arc::make_mut(tail).extend_from_slice(row);
        }
        self.len += 1;
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            i < self.len,
            "row index {i} out of bounds (len {})",
            self.len
        );
        let page = &self.pages[i / ROWS_PER_PAGE];
        let off = (i % ROWS_PER_PAGE) * self.width;
        &page[off..off + self.width]
    }

    /// In-order iterator over all rows — allocation-free and cheaper than
    /// repeated [`PagedRows::row`] calls for full scans (no per-row page
    /// division).
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        let width = self.width;
        self.pages
            .iter()
            .flat_map(move |p| p.chunks_exact(width))
            .take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, width: usize) -> PagedRows {
        let mut p = PagedRows::new(width);
        for i in 0..rows {
            let row: Vec<f32> = (0..width).map(|j| (i * width + j) as f32).collect();
            p.push_row(&row);
        }
        p
    }

    #[test]
    fn rows_round_trip_across_page_boundaries() {
        let w = 5;
        let n = ROWS_PER_PAGE * 2 + 7;
        let p = filled(n, w);
        assert_eq!(p.len(), n);
        assert_eq!(p.page_count(), 3);
        for i in 0..n {
            let expect: Vec<f32> = (0..w).map(|j| (i * w + j) as f32).collect();
            assert_eq!(p.row(i), &expect[..], "row {i}");
        }
        let via_iter: Vec<&[f32]> = p.rows().collect();
        assert_eq!(via_iter.len(), n);
        for (i, r) in via_iter.iter().enumerate() {
            assert_eq!(*r, p.row(i));
        }
    }

    #[test]
    fn fork_shares_every_page_and_copies_no_bytes() {
        let p = filled(ROWS_PER_PAGE * 3 + 10, 4);
        let f = p.clone();
        for i in 0..p.page_count() {
            assert!(p.shares_page(&f, i), "page {i} must be shared after fork");
        }
    }

    #[test]
    fn divergent_append_unshares_only_the_tail_page() {
        let p = filled(ROWS_PER_PAGE + 10, 4);
        let mut f = p.clone();
        f.push_row(&[1.0, 2.0, 3.0, 4.0]);
        assert!(
            p.shares_page(&f, 0),
            "full prefix page must stay shared after the fork diverges"
        );
        assert!(
            !p.shares_page(&f, 1),
            "the shared tail page must be un-shared by the first divergent write"
        );
    }

    #[test]
    fn appends_on_a_page_boundary_touch_no_shared_page() {
        // When the tail page is exactly full, a fork's append opens a new
        // page: nothing is copied and everything stays shared.
        let p = filled(ROWS_PER_PAGE, 3);
        let mut f = p.clone();
        f.push_row(&[9.0, 9.0, 9.0]);
        assert!(p.shares_page(&f, 0), "full page stays shared");
        assert_eq!(f.page_count(), 2);
        assert_eq!(p.page_count(), 1);
    }

    #[test]
    fn parent_bytes_never_move_under_fork_appends() {
        let p = filled(ROWS_PER_PAGE + 5, 4);
        let before: Vec<Vec<f32>> = (0..p.len()).map(|i| p.row(i).to_vec()).collect();
        let mut f = p.clone();
        for i in 0..ROWS_PER_PAGE {
            f.push_row(&[i as f32, 0.5, -1.0, 2.0]);
        }
        for (i, b) in before.iter().enumerate() {
            assert_eq!(
                p.row(i),
                &b[..],
                "parent row {i} changed under fork appends"
            );
        }
        // And the fork sees the parent prefix plus its own tail.
        assert_eq!(f.row(3), p.row(3));
        assert_eq!(f.row(ROWS_PER_PAGE + 5), &[0.0, 0.5, -1.0, 2.0]);
    }

    #[test]
    fn parent_appends_do_not_disturb_forks_either() {
        // Symmetric case: the *parent* keeps appending after the fork; the
        // fork's view is frozen.
        let mut p = filled(10, 2);
        let f = p.clone();
        p.push_row(&[7.0, 8.0]);
        assert_eq!(f.len(), 10);
        assert_eq!(f.row(9), p.row(9));
        assert_eq!(p.row(10), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut p = PagedRows::new(3);
        p.push_row(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_row_panics() {
        let p = filled(2, 2);
        let _ = p.row(2);
    }
}
