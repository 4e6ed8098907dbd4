//! Flat row-major provenance arena.
//!
//! DeltaGrad's provenance is two `T × m` matrices — the per-iteration
//! parameters `w_t` and minibatch gradients `∇F(w_t, B_t)` — that the
//! replay reads back row by row. Storing them as `Vec<Vec<f64>>` costs
//! one heap allocation per iteration (2·T allocations per training run),
//! scatters rows across the heap so the replay's sequential reads miss
//! cache, and doubles the bookkeeping (`T` lengths + capacities that are
//! all equal anyway). [`TraceStore`] packs the rows into **one**
//! contiguous allocation: `row(t)` is a slice at offset `t·m`,
//! [`TraceStore::reserve_rows`] sizes the arena once up front, and the
//! checkpoint serializer streams the whole arena with a single
//! `push_f64s` — byte-identical to the old per-row loop, because
//! every checkpoint version has stored the rows concatenated.

/// A dense `rows × m` matrix of provenance rows in one allocation.
///
/// Rows are append-only and all share the fixed width `m` fixed at
/// construction (the model's `num_params()`); a debug assertion on every
/// [`TraceStore::push`] catches width mismatches at the insertion site.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStore {
    data: Vec<f64>,
    m: usize,
}

impl TraceStore {
    /// Empty store for rows of width `m`.
    ///
    /// # Panics
    /// Panics if `m == 0` (a row must hold at least one parameter).
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "TraceStore: row width must be ≥ 1");
        Self {
            data: Vec::new(),
            m,
        }
    }

    /// Empty store with capacity for `rows` rows pre-reserved.
    pub fn with_capacity(m: usize, rows: usize) -> Self {
        let mut s = Self::new(m);
        s.reserve_rows(rows);
        s
    }

    /// Adopt an already-flat row-major buffer (deserialization path).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `m` (or `m == 0`).
    pub fn from_flat(m: usize, data: Vec<f64>) -> Self {
        assert!(m >= 1, "TraceStore: row width must be ≥ 1");
        assert_eq!(
            data.len() % m,
            0,
            "TraceStore: flat length {} not a multiple of row width {m}",
            data.len()
        );
        Self { data, m }
    }

    /// Grow the arena so `additional` more rows fit without reallocating.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.m);
    }

    /// Append one row (copied).
    ///
    /// Debug builds assert the row width matches the store — this is the
    /// guard that every pushed row is exactly `model.num_params()` long.
    #[inline]
    pub fn push(&mut self, row: &[f64]) {
        debug_assert_eq!(
            row.len(),
            self.m,
            "TraceStore: pushed row width {} != store width {}",
            row.len(),
            self.m
        );
        self.data.extend_from_slice(row);
    }

    /// Row `t` as a slice.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[inline]
    pub fn row(&self, t: usize) -> &[f64] {
        &self.data[t * self.m..(t + 1) * self.m]
    }

    /// Number of rows stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.m
    }

    /// Whether no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Fixed row width `m`.
    #[inline]
    pub fn row_len(&self) -> usize {
        self.m
    }

    /// The whole arena, rows concatenated in order — exactly the byte
    /// layout `checkpoint.v2` stores, so serialization is one call.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Heap bytes held by the arena's payload (`len·m·8`, excluding any
    /// reserved-but-unused capacity). Reported by the `train_kernels`
    /// bench.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Iterate over the rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_row_round_trip() {
        let mut s = TraceStore::new(3);
        assert!(s.is_empty());
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(s.payload_bytes(), 6 * 8);
    }

    #[test]
    fn from_flat_matches_pushes() {
        let mut pushed = TraceStore::new(2);
        pushed.push(&[1.0, 2.0]);
        pushed.push(&[3.0, 4.0]);
        let flat = TraceStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(pushed, flat);
        assert_eq!(flat.row_len(), 2);
    }

    #[test]
    fn rows_iterates_in_order() {
        let s = TraceStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f64]> = s.rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn reserve_prevents_growth_reallocations() {
        let mut s = TraceStore::with_capacity(4, 10);
        let cap = s.data.capacity();
        for t in 0..10 {
            s.push(&[t as f64; 4]);
        }
        assert_eq!(s.data.capacity(), cap, "reserve-once must hold");
        assert_eq!(s.len(), 10);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged_input() {
        let _ = TraceStore::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed row width")]
    fn push_rejects_wrong_width_in_debug() {
        let mut s = TraceStore::new(3);
        s.push(&[1.0, 2.0]);
    }
}
