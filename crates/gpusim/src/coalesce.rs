//! Memory-coalescing analysis.
//!
//! A warp's global access touches some set of transaction-sized segments;
//! the memory system issues one transaction per touched segment.

/// Transactions for a warp reading `lanes` consecutive elements of
/// `elem_bytes` starting at element offset `start_elem` (a coalesced access).
pub fn contiguous_transactions(
    start_elem: usize,
    lanes: usize,
    elem_bytes: usize,
    transaction_bytes: usize,
) -> u64 {
    if lanes == 0 {
        return 0;
    }
    let first = start_elem * elem_bytes / transaction_bytes;
    let last = (start_elem + lanes) * elem_bytes - 1;
    (last / transaction_bytes - first + 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_aligned_warp_is_one_transaction() {
        // 32 lanes * 4B = 128B = exactly one transaction
        assert_eq!(contiguous_transactions(0, 32, 4, 128), 1);
        // misaligned start straddles two
        assert_eq!(contiguous_transactions(1, 32, 4, 128), 2);
        // 64 lanes -> 2
        assert_eq!(contiguous_transactions(0, 64, 4, 128), 2);
        assert_eq!(contiguous_transactions(0, 0, 4, 128), 0);
    }
}
