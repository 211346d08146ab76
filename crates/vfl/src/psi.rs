//! Private-set-intersection row alignment (functional simulation).
//!
//! The paper assumes clients align their rows to the same individuals via
//! PSI before training. This module implements the *functional* step: each
//! client hashes its user identifiers with a shared salt, the hash sets are
//! intersected, and every client receives the positions of its rows in a
//! canonical (hash-sorted) order. Only salted hashes are exchanged — raw
//! identifiers never leave a client.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashMap;

/// Salted 64-bit hash (FNV-1a over the id and salt).
fn salted_hash(id: u64, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_le_bytes().iter().chain(salt.to_le_bytes().iter()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Result of PSI alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsiAlignment {
    /// For each client, the row indices (into its local table) of the shared
    /// individuals, in the canonical shared order.
    pub row_orders: Vec<Vec<usize>>,
    /// Number of shared individuals.
    pub intersection_size: usize,
}

/// Aligns clients on the intersection of their user-id sets.
///
/// `client_ids[c][r]` is the identifier of row `r` at client `c`. Returns
/// per-client row orders such that row `row_orders[c][k]` at every client `c`
/// belongs to the same individual `k`.
///
/// # Panics
///
/// Panics if `client_ids` is empty or any client has duplicate ids.
pub fn psi_align(client_ids: &[Vec<u64>], salt: u64) -> PsiAlignment {
    assert!(!client_ids.is_empty(), "psi_align requires at least one client");
    // Hash ids per client; detect duplicates.
    let mut maps: Vec<HashMap<u64, usize>> = Vec::with_capacity(client_ids.len());
    for (c, ids) in client_ids.iter().enumerate() {
        let mut m = HashMap::with_capacity(ids.len());
        for (r, &id) in ids.iter().enumerate() {
            let h = salted_hash(id, salt);
            assert!(m.insert(h, r).is_none(), "client {c} has duplicate ids");
        }
        maps.push(m);
    }
    // Intersect hash sets.
    let mut shared: Vec<u64> = client_ids[0].iter().map(|&id| salted_hash(id, salt)).collect();
    shared.retain(|h| maps[1..].iter().all(|m| m.contains_key(h)));
    shared.sort_unstable(); // canonical order known to every client
    let row_orders = maps.iter().map(|m| shared.iter().map(|h| m[h]).collect()).collect();
    PsiAlignment { row_orders, intersection_size: shared.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_shared_individuals() {
        let a = vec![10, 20, 30, 40];
        let b = vec![40, 99, 10, 30];
        let al = psi_align(&[a.clone(), b.clone()], 7);
        assert_eq!(al.intersection_size, 3);
        for k in 0..3 {
            let ra = al.row_orders[0][k];
            let rb = al.row_orders[1][k];
            assert_eq!(a[ra], b[rb], "row {k} must point at the same individual");
        }
    }

    #[test]
    fn disjoint_sets_intersect_empty() {
        let al = psi_align(&[vec![1, 2], vec![3, 4]], 0);
        assert_eq!(al.intersection_size, 0);
        assert!(al.row_orders[0].is_empty());
    }

    #[test]
    fn salt_changes_order_but_not_membership() {
        let a = vec![1, 2, 3];
        let b = vec![3, 2, 1];
        let al1 = psi_align(&[a.clone(), b.clone()], 1);
        let al2 = psi_align(&[a.clone(), b.clone()], 2);
        assert_eq!(al1.intersection_size, 3);
        assert_eq!(al2.intersection_size, 3);
        // Alignment correctness holds under any salt.
        for al in [&al1, &al2] {
            for k in 0..3 {
                assert_eq!(a[al.row_orders[0][k]], b[al.row_orders[1][k]]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate ids")]
    fn rejects_duplicate_ids() {
        let _ = psi_align(&[vec![1, 1]], 0);
    }

    #[test]
    fn three_clients() {
        let al = psi_align(&[vec![5, 6, 7], vec![7, 5], vec![9, 5, 7, 8]], 3);
        assert_eq!(al.intersection_size, 2);
        assert_eq!(al.row_orders.len(), 3);
    }
}
