//! A free-list slab for in-flight session state.
//!
//! At city scale the broker has 100k–1M sessions *offered*, but only the
//! in-flight subset — arrived and not yet drained — needs live state
//! (RNG, reservation handle, open trace spans). `Slab` stores exactly
//! that working set in one contiguous arena: `insert` hands back a dense
//! `u32` slot that is recycled in LIFO order after `remove`, so a run
//! whose arrivals and departures overlap holds `O(peak concurrent)`
//! entries regardless of the total session count. All operations are
//! O(1) and the recycling order is deterministic, preserving the
//! broker's replay contract.

/// A contiguous arena with LIFO slot reuse.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `cap` entries before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the slab empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (the arena's high-water mark).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Store `value`, reusing the most recently freed slot if any.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.entries[slot as usize].is_none());
            self.entries[slot as usize] = Some(value);
            slot
        } else {
            let slot = u32::try_from(self.entries.len()).expect("slab overflow");
            self.entries.push(Some(value));
            slot
        }
    }

    /// The entry at `slot`, if occupied.
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.entries.get(slot as usize).and_then(Option::as_ref)
    }

    /// The entry at `slot`, mutably, if occupied.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.entries.get_mut(slot as usize).and_then(Option::as_mut)
    }

    /// The occupied entries, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().flatten()
    }

    /// Free `slot` and return its value. Panics on a vacant slot — the
    /// broker's bookkeeping must never double-free a session.
    pub fn remove(&mut self, slot: u32) -> T {
        let value = self.entries[slot as usize]
            .take()
            .expect("slab: remove of a vacant slot");
        self.free.push(slot);
        self.len -= 1;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_returns_dense_indices() {
        let mut slab: Slab<&str> = Slab::new();
        assert_eq!(slab.insert("a"), 0);
        assert_eq!(slab.insert("b"), 1);
        assert_eq!(slab.insert("c"), 2);
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(1), Some(&"b"));
    }

    #[test]
    fn removed_slots_are_reused_lifo() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        let c = slab.insert(30);
        assert_eq!(slab.remove(b), 20);
        assert_eq!(slab.remove(a), 10);
        assert_eq!(slab.len(), 1);
        // LIFO: the last-freed slot (a) comes back first, then b.
        assert_eq!(slab.insert(40), a);
        assert_eq!(slab.insert(50), b);
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(a), Some(&40));
        assert_eq!(slab.get(b), Some(&50));
        assert_eq!(slab.get(c), Some(&30));
        // No growth happened: three live entries, three slots ever used.
        assert_eq!(slab.capacity(), 3);
    }

    #[test]
    fn interleaved_churn_keeps_capacity_at_the_peak() {
        let mut slab: Slab<usize> = Slab::new();
        // 1000 sequential insert/remove pairs with at most 2 live: the
        // arena must stay at its peak occupancy, not grow with volume.
        let mut held = slab.insert(0);
        for i in 1..1_000 {
            let next = slab.insert(i);
            slab.remove(held);
            held = next;
        }
        assert_eq!(slab.len(), 1);
        assert!(slab.capacity() <= 2, "arena grew: {}", slab.capacity());
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn double_remove_panics() {
        let mut slab: Slab<u8> = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        slab.remove(a);
    }
}
