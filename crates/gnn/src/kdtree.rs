//! A 3-D kd-tree over spatiotemporal points.
//!
//! The batch neighbour-search baseline: §IV notes that incorporating events
//! into a continuously evolving graph is "generally based on tree-search
//! methods" and identifies their (re)construction latency as the key
//! roadblock. This implementation supports k-nearest-neighbour and radius
//! queries and is compared against the naive scan and the incremental
//! spatial hash in `build`.

use evlab_util::par;

/// A static kd-tree over `[x, y, scaled_t]` points.
#[derive(Debug, Clone, PartialEq)]
pub struct KdTree3 {
    /// Points in build order (indices refer to the caller's original
    /// order).
    points: Vec<[f64; 3]>,
    /// Tree as an implicit structure: `order` is a permutation of point
    /// indices arranged as a balanced kd-tree in array form.
    order: Vec<u32>,
}

fn dist_sq(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

impl KdTree3 {
    /// Builds a tree from points. O(N log² N).
    ///
    /// The top levels are split serially until there is one subtree per
    /// [`par::threads`] worker (subtrees of at most `MIN_PAR_SUBTREE`
    /// points are not split further); those subtrees then build in one
    /// [`par::for_each_task`] region. Each median depends only on its own
    /// subslice, so the tree is identical for every thread count.
    pub fn build(points: Vec<[f64; 3]>) -> Self {
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        let mut subtrees = Vec::new();
        split_top(&points, &mut order, 0, par::threads(), &mut subtrees);
        par::for_each_task(&mut subtrees, |_, (sub, axis)| {
            build_recursive(&points, sub, *axis);
        });
        KdTree3 { points, order }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points within `radius` of `query`, unordered. Also
    /// returns the number of tree nodes visited (the search cost).
    pub fn within_radius(&self, query: &[f64; 3], radius: f64) -> (Vec<u32>, usize) {
        let mut out = Vec::new();
        let mut visited = 0usize;
        if !self.order.is_empty() {
            self.radius_recursive(query, radius * radius, 0, self.order.len(), 0, &mut out, &mut visited);
        }
        (out, visited)
    }

    #[allow(clippy::too_many_arguments)]
    fn radius_recursive(
        &self,
        query: &[f64; 3],
        r_sq: f64,
        lo: usize,
        hi: usize,
        axis: usize,
        out: &mut Vec<u32>,
        visited: &mut usize,
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let idx = self.order[mid];
        let p = &self.points[idx as usize];
        *visited += 1;
        if dist_sq(p, query) <= r_sq {
            out.push(idx);
        }
        let diff = query[axis] - p[axis];
        let next_axis = (axis + 1) % 3;
        // Search the near side always; the far side only if the splitting
        // plane is within range.
        if diff <= 0.0 {
            self.radius_recursive(query, r_sq, lo, mid, next_axis, out, visited);
            if diff * diff <= r_sq {
                self.radius_recursive(query, r_sq, mid + 1, hi, next_axis, out, visited);
            }
        } else {
            self.radius_recursive(query, r_sq, mid + 1, hi, next_axis, out, visited);
            if diff * diff <= r_sq {
                self.radius_recursive(query, r_sq, lo, mid, next_axis, out, visited);
            }
        }
    }

    /// The `k` nearest neighbours of `query` (excluding exact index matches
    /// is the caller's concern), sorted by distance then index. Returns the
    /// pairs `(index, dist_sq)` and the visit count.
    pub fn knn(&self, query: &[f64; 3], k: usize) -> (Vec<(u32, f64)>, usize) {
        let mut best: Vec<(u32, f64)> = Vec::with_capacity(k + 1);
        let mut visited = 0usize;
        if !self.order.is_empty() && k > 0 {
            self.knn_recursive(query, k, 0, self.order.len(), 0, &mut best, &mut visited);
        }
        best.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal) // distances are finite
                .then(a.0.cmp(&b.0))
        });
        (best, visited)
    }

    #[allow(clippy::too_many_arguments)]
    fn knn_recursive(
        &self,
        query: &[f64; 3],
        k: usize,
        lo: usize,
        hi: usize,
        axis: usize,
        best: &mut Vec<(u32, f64)>,
        visited: &mut usize,
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let idx = self.order[mid];
        let p = &self.points[idx as usize];
        *visited += 1;
        let d = dist_sq(p, query);
        let by_dist = |a: &(u32, f64), b: &(u32, f64)| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
        };
        if best.len() < k {
            best.push((idx, d));
            best.sort_by(by_dist);
        } else if d < best[k - 1].1 {
            best[k - 1] = (idx, d);
            best.sort_by(by_dist);
        }
        let diff = query[axis] - p[axis];
        let next_axis = (axis + 1) % 3;
        let worst = if best.len() < k {
            f64::INFINITY
        } else {
            best[k - 1].1
        };
        if diff <= 0.0 {
            self.knn_recursive(query, k, lo, mid, next_axis, best, visited);
            let worst = if best.len() < k {
                f64::INFINITY
            } else {
                best[k - 1].1
            };
            if diff * diff <= worst {
                self.knn_recursive(query, k, mid + 1, hi, next_axis, best, visited);
            }
        } else {
            self.knn_recursive(query, k, mid + 1, hi, next_axis, best, visited);
            let worst2 = if best.len() < k {
                f64::INFINITY
            } else {
                best[k - 1].1
            };
            if diff * diff <= worst2.min(worst) {
                self.knn_recursive(query, k, lo, mid, next_axis, best, visited);
            }
        }
    }
}

/// Subtrees of at most this many points are not split off for a worker:
/// they finish faster than a dispatch costs.
const MIN_PAR_SUBTREE: usize = 1024;

/// Partitions `order` around its median on `axis` and returns the halves
/// on either side of it. This is the same median as the query side's
/// implicit `(lo + hi) / 2`: `floor((lo + hi) / 2) - lo ==
/// floor((hi - lo) / 2)` for all lo <= hi.
fn split<'a>(points: &[[f64; 3]], order: &'a mut [u32], axis: usize) -> [&'a mut [u32]; 2] {
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        points[a as usize][axis]
            .partial_cmp(&points[b as usize][axis])
            .unwrap_or(std::cmp::Ordering::Equal) // coordinates are finite
    });
    let (left, rest) = order.split_at_mut(mid);
    [left, &mut rest[1..]]
}

fn build_recursive(points: &[[f64; 3]], order: &mut [u32], axis: usize) {
    if order.len() <= 1 {
        return;
    }
    let [left, right] = split(points, order, axis);
    build_recursive(points, left, (axis + 1) % 3);
    build_recursive(points, right, (axis + 1) % 3);
}

/// Splits the top levels serially until each subtree is meant for one of
/// `parts` workers or has at most `MIN_PAR_SUBTREE` points, and collects
/// the subtrees still to build, each with the axis it splits on.
fn split_top<'a>(
    points: &[[f64; 3]],
    order: &'a mut [u32],
    axis: usize,
    parts: usize,
    out: &mut Vec<(&'a mut [u32], usize)>,
) {
    if parts <= 1 || order.len() <= MIN_PAR_SUBTREE {
        out.push((order, axis));
        return;
    }
    let [left, right] = split(points, order, axis);
    split_top(points, left, (axis + 1) % 3, parts.div_ceil(2), out);
    split_top(points, right, (axis + 1) % 3, parts.div_ceil(2), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use evlab_util::Rng64;

    fn random_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.range_f64(0.0, 100.0),
                    rng.range_f64(0.0, 100.0),
                    rng.range_f64(0.0, 100.0),
                ]
            })
            .collect()
    }

    fn brute_radius(points: &[[f64; 3]], q: &[f64; 3], r: f64) -> Vec<u32> {
        let mut out: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| dist_sq(p, q) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn radius_matches_brute_force() {
        let points = random_points(500, 1);
        let tree = KdTree3::build(points.clone());
        let mut rng = Rng64::seed_from_u64(2);
        for _ in 0..50 {
            let q = [
                rng.range_f64(0.0, 100.0),
                rng.range_f64(0.0, 100.0),
                rng.range_f64(0.0, 100.0),
            ];
            let (mut got, _) = tree.within_radius(&q, 15.0);
            got.sort_unstable();
            assert_eq!(got, brute_radius(&points, &q, 15.0));
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let points = random_points(300, 3);
        let tree = KdTree3::build(points.clone());
        let mut rng = Rng64::seed_from_u64(4);
        for _ in 0..30 {
            let q = [
                rng.range_f64(0.0, 100.0),
                rng.range_f64(0.0, 100.0),
                rng.range_f64(0.0, 100.0),
            ];
            let (got, _) = tree.knn(&q, 7);
            let mut brute: Vec<(u32, f64)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u32, dist_sq(p, &q)))
                .collect();
            brute.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
            brute.truncate(7);
            let got_ids: Vec<u32> = got.iter().map(|&(i, _)| i).collect();
            let brute_ids: Vec<u32> = brute.iter().map(|&(i, _)| i).collect();
            assert_eq!(got_ids, brute_ids);
        }
    }

    #[test]
    fn search_visits_sublinear_nodes() {
        let points = random_points(10_000, 5);
        let tree = KdTree3::build(points);
        let (_, visited) = tree.within_radius(&[50.0, 50.0, 50.0], 3.0);
        assert!(
            visited < 3_000,
            "kd-tree should prune most of the space: visited {visited}"
        );
    }

    #[test]
    fn empty_and_degenerate_trees() {
        let tree = KdTree3::build(vec![]);
        assert!(tree.is_empty());
        assert_eq!(tree.within_radius(&[0.0; 3], 1.0).0, Vec::<u32>::new());
        assert_eq!(tree.knn(&[0.0; 3], 3).0, Vec::new());
        let one = KdTree3::build(vec![[1.0, 2.0, 3.0]]);
        assert_eq!(one.knn(&[1.0, 2.0, 3.0], 1).0, vec![(0, 0.0)]);
    }

    #[test]
    fn build_is_thread_invariant() {
        // Enough points that the top levels split for every thread count;
        // 3 threads split into 4 subtrees, more than there are workers.
        let points = random_points(10_000, 6);
        let serial = par::with_threads(1, || KdTree3::build(points.clone()));
        for t in [2, 3, 4, 8] {
            let tree = par::with_threads(t, || KdTree3::build(points.clone()));
            assert_eq!(tree, serial, "threads = {t}");
        }
    }

    #[test]
    fn duplicate_points_are_all_found() {
        let points = vec![[5.0, 5.0, 5.0]; 4];
        let tree = KdTree3::build(points);
        let (found, _) = tree.within_radius(&[5.0, 5.0, 5.0], 0.1);
        assert_eq!(found.len(), 4);
    }
}
