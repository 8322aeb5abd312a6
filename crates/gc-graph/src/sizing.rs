//! Shared memory-accounting vocabulary for the workspace's `memory_bytes`
//! estimators.
//!
//! Every store that reports an approximate resident size (cache entries,
//! query-index arenas, the Window buffer, the fragment store) used to carry
//! its own hard-coded overhead constants (`+ 32`, `+ 96`, …), which drifted
//! independently and made the space-overhead comparison (paper §7.3) hard
//! to audit. This module is the single home for those constants and the
//! slice-sizing helper, so the accounting stays honest across layers: a
//! store never invents its own magic number, it names one of these.
//!
//! The numbers are deliberately *estimates* — stable, deterministic
//! approximations of allocator-resident bytes, not exact heap measurements.
//! They only ever feed relative comparisons (budgets, eviction pressure,
//! baseline-gated counters), so determinism matters more than precision.

/// Bytes of a contiguous slice of `len` elements of `T` (the payload of a
/// `Vec<T>`, an arena segment, or a fixed-size array).
pub fn slice_bytes<T>(len: usize) -> usize {
    len * std::mem::size_of::<T>()
}

/// Per-node bookkeeping of a hash-map entry that owns heap payloads
/// (bucket slot, hashes, and the key/value headers around the payload).
pub const MAP_NODE_OVERHEAD: usize = 48;

/// A small inline hash-map slot: fixed-size key and value with no owned
/// heap payload (e.g. `serial → slot` lookup tables).
pub const MAP_SLOT_BYTES: usize = 16;

/// Fixed overhead of one cached entry beyond its graph, answer range and
/// profile: the `Arc` headers, enum tags and slot metadata.
pub const ENTRY_OVERHEAD: usize = 32;

/// Fixed overhead of one Window-buffer entry beyond its graph, answer and
/// profile (timing fields, kind, fingerprint, expensiveness).
pub const WINDOW_ENTRY_OVERHEAD: usize = 72;

/// Fixed overhead of one stored fragment beyond its graph and occurrence
/// set (key, id, statistics row).
pub const FRAGMENT_OVERHEAD: usize = 96;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_bytes_scales_with_element_size() {
        assert_eq!(slice_bytes::<u32>(4), 16);
        assert_eq!(slice_bytes::<u64>(4), 32);
        assert_eq!(slice_bytes::<(u32, u32)>(3), 24);
        assert_eq!(slice_bytes::<u8>(0), 0);
    }

    #[test]
    fn overheads_are_nonzero_and_ordered() {
        // The constants are estimates, but their relative order encodes
        // real structure: a fragment row carries more bookkeeping than a
        // window entry, which carries more than a bare cache entry slot.
        const {
            assert!(ENTRY_OVERHEAD < WINDOW_ENTRY_OVERHEAD);
            assert!(WINDOW_ENTRY_OVERHEAD < FRAGMENT_OVERHEAD);
            assert!(MAP_SLOT_BYTES < MAP_NODE_OVERHEAD);
        }
    }
}
