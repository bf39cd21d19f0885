//! Dense, index-keyed containers for optimizer hot loops.
//!
//! The SSAPRE kernel and the HSSA passes key almost everything by small
//! dense integers — block index, SSA version, occurrence index, Φ index,
//! redundancy class. Hashing those through a `HashMap` costs a hash + probe
//! per access and scatters the data; these containers replace that with a
//! direct `Vec` index. Two shapes cover every use:
//!
//! * [`DenseMap`] — a partial map `u32 → V` over `Vec<Option<V>>`, for
//!   keys that are dense but sparsely populated (memory-version def
//!   tables, block → Φ-index);
//! * [`InlineVec`] — a small-vector that keeps up to `N` `Copy` elements
//!   inline and spills to the heap only past that, for the per-statement
//!   χ/μ operator lists and per-occurrence operand-version lists whose
//!   typical length is 0–2 (SoA-style: the common case costs no
//!   allocation at all).
//!
//! Both are deliberately minimal — exactly the API the optimizer uses,
//! nothing speculative.

/// A partial map from a dense `u32` key space to `V`.
///
/// Reads of unset keys return `None` like a `HashMap`; writes grow the
/// backing store on demand, so callers may size it up-front
/// ([`DenseMap::with_len`]) or not at all.
#[derive(Clone, Debug)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        DenseMap { slots: Vec::new() }
    }
}

impl<V> DenseMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with `n` pre-allocated slots.
    pub fn with_len(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        DenseMap { slots }
    }

    /// Inserts `v` at `k`, growing as needed; returns the previous value.
    ///
    /// `u32::MAX` is rejected: it is the pervasive "unrenamed" sentinel,
    /// and growing the table to it would allocate 2³² slots.
    pub fn insert(&mut self, k: u32, v: V) -> Option<V> {
        assert_ne!(k, u32::MAX, "DenseMap key is the unrenamed sentinel");
        let i = k as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].replace(v)
    }

    /// The value at `k`, if set.
    #[inline]
    pub fn get(&self, k: u32) -> Option<&V> {
        self.slots.get(k as usize).and_then(|s| s.as_ref())
    }

    /// Whether `k` is set.
    #[inline]
    pub fn contains_key(&self, k: u32) -> bool {
        matches!(self.slots.get(k as usize), Some(Some(_)))
    }

    /// Mutable access to the value at `k`, if set.
    pub fn get_mut(&mut self, k: u32) -> Option<&mut V> {
        self.slots.get_mut(k as usize).and_then(|s| s.as_mut())
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
    }
}

/// A small-vector of `Copy` elements: up to `N` inline, spilling to a heap
/// `Vec` only beyond that.
#[derive(Clone)]
pub struct InlineVec<T: Copy, const N: usize> {
    len: usize,
    inline: [Option<T>; N],
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec {
            len: 0,
            inline: [None; N],
            spill: Vec::new(),
        }
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// A vector holding `n` copies of `v` (the `vec![v; n]` idiom).
    pub fn filled(v: T, n: usize) -> Self {
        let mut out = Self::new();
        for _ in 0..n {
            out.push(v);
        }
        out
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element.
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = Some(v);
        } else {
            self.spill.push(v);
        }
        self.len += 1;
    }

    /// The element at `i`, if in bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            None
        } else if i < N {
            self.inline[i].as_ref()
        } else {
            self.spill.get(i - N)
        }
    }

    /// Mutable access to the element at `i`, if in bounds.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            None
        } else if i < N {
            self.inline[i].as_mut()
        } else {
            self.spill.get_mut(i - N)
        }
    }

    /// The first element, if any.
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inline: self.inline[..self.len.min(N)].iter(),
            spill: self.spill.iter(),
        }
    }

    /// Iterates mutably over the elements in order.
    pub fn iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut {
            inline: self.inline[..self.len.min(N)].iter_mut(),
            spill: self.spill.iter_mut(),
        }
    }

    /// Removes every element, keeping the spill allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        self.inline = [None; N];
        self.spill.clear();
    }
}

impl<T: Copy, const N: usize> std::ops::Index<usize> for InlineVec<T, N> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i).expect("InlineVec index out of bounds")
    }
}

impl<T: Copy, const N: usize> std::ops::IndexMut<usize> for InlineVec<T, N> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i).expect("InlineVec index out of bounds")
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

/// The in-order iterator of an [`InlineVec`]: the inline slots, then the
/// spill. It borrows both in place, so a `for` over a χ/μ list allocates
/// nothing.
pub struct Iter<'a, T> {
    inline: std::slice::Iter<'a, Option<T>>,
    spill: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        match self.inline.next() {
            Some(slot) => Some(slot.as_ref().expect("inline slot below len is set")),
            None => self.spill.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.inline.len() + self.spill.len();
        (n, Some(n))
    }
}

/// The in-order mutable iterator of an [`InlineVec`] (see [`Iter`]).
pub struct IterMut<'a, T> {
    inline: std::slice::IterMut<'a, Option<T>>,
    spill: std::slice::IterMut<'a, T>,
}

impl<'a, T> Iterator for IterMut<'a, T> {
    type Item = &'a mut T;

    #[inline]
    fn next(&mut self) -> Option<&'a mut T> {
        match self.inline.next() {
            Some(slot) => Some(slot.as_mut().expect("inline slot below len is set")),
            None => self.spill.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.inline.len() + self.spill.len();
        (n, Some(n))
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = IterMut<'a, T>;

    fn into_iter(self) -> IterMut<'a, T> {
        self.iter_mut()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_map_basics() {
        let mut m: DenseMap<&'static str> = DenseMap::with_len(4);
        assert_eq!(m.get(0), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(2, "TWO"), Some("two"));
        assert_eq!(m.get(2), Some(&"TWO"));
        assert!(m.contains_key(2));
        // auto-grow past the pre-sized length
        m.insert(100, "hundred");
        assert_eq!(m.get(100), Some(&"hundred"));
        assert_eq!(m.get(99), None);
        m.clear();
        assert_eq!(m.get(2), None);
    }

    #[test]
    fn inline_vec_stays_inline_then_spills() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(10);
        v.push(20);
        v.push(30); // spills
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 10);
        assert_eq!(v[2], 30);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![10, 20, 30]);
        for x in &mut v {
            *x += 1;
        }
        let mut seen = Vec::new();
        for x in &v {
            seen.push(*x);
        }
        assert_eq!(seen, vec![11, 21, 31], "inline slots, then the spill");
        assert_eq!(v.iter().size_hint(), (3, Some(3)));
        v[0] = 10;
        assert_eq!(v.first(), Some(&10));
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.get(0), None);
    }

    #[test]
    fn inline_vec_eq_and_collect() {
        let a: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        let b: InlineVec<u32, 2> = [1, 2, 3].into_iter().collect();
        let c: InlineVec<u32, 2> = [1, 2].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(InlineVec::<u32, 2>::filled(7, 3)[2], 7);
    }
}
