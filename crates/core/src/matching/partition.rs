//! Vertex-based random partitioning (paper, Sections 3.2 and 4.3).
//!
//! The paper's MPC algorithms distribute *vertices* (not edges)
//! uniformly at random across machines and have each machine work on the
//! induced subgraph of its share — the technique introduced for matching in
//! [CŁM+18]. This module implements that primitive deterministically from a
//! seed.

use mmvc_graph::rng::hash2;
use mmvc_graph::VertexId;

/// Partitions `vertices` into `m` groups by assigning each vertex to a
/// machine independently and uniformly at random (derived statelessly from
/// `seed`, so any simulated machine can recompute the assignment).
///
/// Returns `parts` with `parts.len() == m`; every input vertex appears in
/// exactly one part.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Examples
///
/// ```
/// use mmvc_core::matching::random_vertex_partition;
/// let verts: Vec<u32> = (0..100).collect();
/// let parts = random_vertex_partition(&verts, 4, 7);
/// assert_eq!(parts.len(), 4);
/// assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 100);
/// ```
pub fn random_vertex_partition(vertices: &[VertexId], m: usize, seed: u64) -> Vec<Vec<VertexId>> {
    assert!(m > 0, "cannot partition into zero machines");
    let mut parts: Vec<Vec<VertexId>> = vec![Vec::with_capacity(vertices.len() / m + 1); m];
    for &v in vertices {
        let machine = (hash2(seed, v as u64) % m as u64) as usize;
        parts[machine].push(v);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let verts: Vec<u32> = (0..1000).collect();
        let parts = random_vertex_partition(&verts, 7, 3);
        let mut seen = vec![false; 1000];
        for part in &parts {
            for &v in part {
                assert!(!seen[v as usize], "vertex {v} appears twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn balanced_in_expectation() {
        let verts: Vec<u32> = (0..10_000).collect();
        let m = 10;
        let parts = random_vertex_partition(&verts, m, 99);
        let expected = 10_000 / m;
        for (i, part) in parts.iter().enumerate() {
            let len = part.len();
            assert!(
                (len as f64 - expected as f64).abs() < 0.15 * expected as f64,
                "part {i} has {len}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let verts: Vec<u32> = (0..100).collect();
        assert_eq!(
            random_vertex_partition(&verts, 4, 1),
            random_vertex_partition(&verts, 4, 1)
        );
        assert_ne!(
            random_vertex_partition(&verts, 4, 1),
            random_vertex_partition(&verts, 4, 2)
        );
    }

    #[test]
    fn single_machine_gets_everything() {
        let verts: Vec<u32> = (0..50).collect();
        let parts = random_vertex_partition(&verts, 1, 0);
        assert_eq!(parts[0].len(), 50);
    }

    #[test]
    #[should_panic(expected = "zero machines")]
    fn zero_machines_panics() {
        random_vertex_partition(&[1, 2, 3], 0, 0);
    }

    #[test]
    fn empty_vertex_list() {
        let parts = random_vertex_partition(&[], 3, 0);
        assert!(parts.iter().all(Vec::is_empty));
    }
}
