//! [`InlineVec`]: a list that holds up to `N` items in place and spills
//! to the heap only past that.
//!
//! What a one-sided call lists per op on its way to the NIC model —
//! physical pieces, pins, work requests, plans, grants — fits inline for
//! a chain of up to [`CHAIN_INLINE`] ops, so a warm verb allocates
//! nothing; a longer chain pays one allocation per list.

use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// Ops (or verbs) a chain may hold before its per-op lists spill to the
/// heap.
pub const CHAIN_INLINE: usize = 8;

/// Up to `N` items in place, more on the heap.
///
/// The slots are left uninitialized until pushed: filling eight of a
/// work-request plan with defaults on every verb cost a single write
/// ~115 host ns of a ~275 ns verb, which is the measured gain the unsafe
/// code below is for.
pub struct InlineVec<T, const N: usize = CHAIN_INLINE> {
    /// Items pushed. While `len <= N` they are `inline[..len]`, each
    /// initialized, and `spill` is empty; past `N` they are all in
    /// `spill` and no inline slot holds a value.
    len: usize,
    inline: [MaybeUninit<T>; N],
    spill: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty list (no allocation, nothing initialized).
    #[inline]
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [const { MaybeUninit::uninit() }; N],
            spill: Vec::new(),
        }
    }

    /// Appends `item`; the `N + 1`-th moves the list to the heap.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len].write(item);
        } else {
            if self.len == N {
                // Reserved first, so moving the inline items out cannot
                // fail half-way.
                self.spill.reserve(2 * N);
                // SAFETY: `len == N`, so every inline slot is initialized;
                // each is read exactly once, and from here on `len > N`
                // marks the slots as holding nothing, so they are never
                // read or dropped again.
                let moved = self.inline.iter().map(|s| unsafe { s.assume_init_read() });
                self.spill.extend(moved);
            }
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Removes every item, keeping any heap buffer for reuse.
    pub fn clear(&mut self) {
        if self.len <= N {
            let live: *mut [T] = &mut **self;
            self.len = 0;
            // SAFETY: `live` is the initialized prefix `inline[..len]`;
            // `len` is already 0, so a panicking destructor cannot lead
            // to a second drop of any of them.
            unsafe { std::ptr::drop_in_place(live) };
        } else {
            self.len = 0;
            self.spill.clear();
        }
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        if self.len <= N {
            // SAFETY: `inline[..len]` is initialized (see `len`), and
            // `MaybeUninit<T>` has `T`'s layout.
            unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast(), self.len) }
        } else {
            &self.spill
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            // SAFETY: as in `deref`, through a unique borrow.
            unsafe { std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast(), self.len) }
        } else {
            &mut self.spill
        }
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = Self::new();
        list.extend(items);
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn holds_n_in_place_then_spills_in_order() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        assert_eq!(&*v, &[0, 1, 2, 3]);
        assert_eq!(v.spill.capacity(), 0);
        v.push(4);
        v.extend([5, 6]);
        assert_eq!(&*v, &[0, 1, 2, 3, 4, 5, 6]);
        v[6] = 9;
        assert_eq!(v.last(), Some(&9));
        v.clear();
        assert!(v.is_empty());
        v.push(1);
        assert_eq!(&*v, &[1]);
        assert!(InlineVec::<u8, 2>::new().is_empty());
    }

    #[test]
    fn drops_each_item_once_inline_spilled_and_cleared() {
        let token = Rc::new(());
        for n in [0, 3, 4, 5, 9] {
            let mut v: InlineVec<Rc<()>, 4> = (0..n).map(|_| Rc::clone(&token)).collect();
            assert_eq!(Rc::strong_count(&token), 1 + n);
            v.clear();
            assert_eq!(Rc::strong_count(&token), 1);
            v.extend((0..n).map(|_| Rc::clone(&token)));
            drop(v);
            assert_eq!(Rc::strong_count(&token), 1, "{n} items");
        }
    }
}
