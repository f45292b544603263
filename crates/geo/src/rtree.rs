//! An R-tree over envelope-keyed items.
//!
//! Two construction paths:
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive packing, used when a store
//!   indexes a batch of geometries at once (catalogue ingest, E2/E3 data
//!   loads). Produces near-100% node utilisation.
//! * [`RTree::insert`] — classic Guttman insertion with quadratic split,
//!   used for incremental updates (streaming product ingest in E9).
//!
//! Queries: envelope intersection search. The tree stores `(Envelope, T)` pairs; `T` is the
//! caller's identifier (a dictionary id in `ee-rdf`, a product id in the
//! catalogue).

use crate::geometry::Envelope;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = MAX_ENTRIES / 4;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf {
        entries: Vec<(Envelope, T)>,
    },
    Inner {
        children: Vec<(Envelope, Box<Node<T>>)>,
    },
}

impl<T> Node<T> {
    fn envelope(&self) -> Envelope {
        match self {
            Node::Leaf { entries } => entries
                .iter()
                .fold(Envelope::empty(), |acc, (e, _)| acc.union(e)),
            Node::Inner { children } => children
                .iter()
                .fold(Envelope::empty(), |acc, (e, _)| acc.union(e)),
        }
    }

}

/// A spatial index over items of type `T`.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    size: usize,
    height: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf { entries: Vec::new() },
            size: 0,
            height: 1,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

}

impl<T: Clone> RTree<T> {
    /// Bulk-load with Sort-Tile-Recursive packing.
    pub fn bulk_load(mut items: Vec<(Envelope, T)>) -> Self {
        let size = items.len();
        if size == 0 {
            return Self::new();
        }
        // STR: sort by centre x, slice into vertical strips, sort each strip
        // by centre y, pack runs of MAX_ENTRIES.
        items.sort_by(|a, b| {
            a.0.center()
                .x
                .partial_cmp(&b.0.center().x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let leaf_count = size.div_ceil(MAX_ENTRIES);
        let strip_count = (leaf_count as f64).sqrt().ceil() as usize;
        let strip_size = size.div_ceil(strip_count);
        let mut leaves: Vec<Node<T>> = Vec::with_capacity(leaf_count);
        for strip in items.chunks_mut(strip_size.max(1)) {
            strip.sort_by(|a, b| {
                a.0.center()
                    .y
                    .partial_cmp(&b.0.center().y)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for run in strip.chunks(MAX_ENTRIES) {
                leaves.push(Node::Leaf {
                    entries: run.to_vec(),
                });
            }
        }
        let mut height = 1;
        let mut level = leaves;
        while level.len() > 1 {
            let mut parents: Vec<Node<T>> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            // Pack siblings by x-order of their envelopes (they are already
            // spatially coherent from the STR pass).
            let mut nodes: Vec<(Envelope, Box<Node<T>>)> = level
                .into_iter()
                .map(|n| (n.envelope(), Box::new(n)))
                .collect();
            nodes.sort_by(|a, b| {
                a.0.center()
                    .x
                    .partial_cmp(&b.0.center().x)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for run in nodes.chunks(MAX_ENTRIES) {
                parents.push(Node::Inner {
                    children: run.to_vec(),
                });
            }
            level = parents;
            height += 1;
        }
        Self {
            root: level.pop().expect("non-empty input yields a root"),
            size,
            height,
        }
    }

    /// Insert one item (Guttman, quadratic split).
    pub fn insert(&mut self, env: Envelope, item: T) {
        self.size += 1;
        if let Some((e1, n1, e2, n2)) = insert_rec(&mut self.root, env, item) {
            // Root split: grow the tree.
            let old = std::mem::replace(&mut self.root, Node::Inner { children: Vec::new() });
            drop(old); // placeholder swap; rebuild root below
            self.root = Node::Inner {
                children: vec![(e1, n1), (e2, n2)],
            };
            self.height += 1;
        }
    }

}

impl<T> RTree<T> {
    /// All items whose envelope intersects `query`.
    pub fn search(&self, query: &Envelope) -> Vec<&T> {
        let mut out = Vec::new();
        self.visit(query, &mut |item| out.push(item));
        out
    }

    /// Visit each item whose envelope intersects `query` without
    /// materialising a result vector.
    pub fn visit<'a, F: FnMut(&'a T)>(&'a self, query: &Envelope, f: &mut F) {
        self.visit_entries(query, &mut |_, item| f(item));
    }

    /// [`visit`](RTree::visit) that also hands over each item's own
    /// envelope, as stored in its leaf — the hot path in the RDF store,
    /// which decides some spatial predicates from the envelope alone and
    /// never fetches those items' geometries.
    pub fn visit_entries<'a, F: FnMut(&'a Envelope, &'a T)>(&'a self, query: &Envelope, f: &mut F) {
        fn rec<'a, T, F: FnMut(&'a Envelope, &'a T)>(
            node: &'a Node<T>,
            query: &Envelope,
            f: &mut F,
        ) {
            match node {
                Node::Leaf { entries } => {
                    for (e, item) in entries {
                        if e.intersects(query) {
                            f(e, item);
                        }
                    }
                }
                Node::Inner { children } => {
                    for (e, child) in children {
                        if e.intersects(query) {
                            rec(child, query, f);
                        }
                    }
                }
            }
        }
        rec(&self.root, query, f);
    }

    /// Count of items whose envelope intersects `query` (no allocation).
    pub fn count(&self, query: &Envelope) -> usize {
        let mut n = 0;
        self.visit(query, &mut |_| n += 1);
        n
    }
}

/// Recursive insert; returns the two halves if the node split.
#[allow(clippy::type_complexity)]
fn insert_rec<T: Clone>(
    node: &mut Node<T>,
    env: Envelope,
    item: T,
) -> Option<(Envelope, Box<Node<T>>, Envelope, Box<Node<T>>)> {
    match node {
        Node::Leaf { entries } => {
            entries.push((env, item));
            if entries.len() > MAX_ENTRIES {
                let (a, b) = quadratic_split(std::mem::take(entries));
                let ea = a.iter().fold(Envelope::empty(), |acc, (e, _)| acc.union(e));
                let eb = b.iter().fold(Envelope::empty(), |acc, (e, _)| acc.union(e));
                return Some((
                    ea,
                    Box::new(Node::Leaf { entries: a }),
                    eb,
                    Box::new(Node::Leaf { entries: b }),
                ));
            }
            None
        }
        Node::Inner { children } => {
            // Choose the child needing least enlargement (ties: least area).
            let mut best = 0usize;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for (i, (e, _)) in children.iter().enumerate() {
                let enl = e.enlargement(&env);
                let area = e.area();
                if enl < best_enl || (enl == best_enl && area < best_area) {
                    best = i;
                    best_enl = enl;
                    best_area = area;
                }
            }
            let split = insert_rec(&mut children[best].1, env, item);
            // Refresh the chosen child's envelope.
            children[best].0 = children[best].1.envelope();
            if let Some((e1, n1, e2, n2)) = split {
                children[best] = (e1, n1);
                children.push((e2, n2));
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split_nodes(std::mem::take(children));
                    let ea = a.iter().fold(Envelope::empty(), |acc, (e, _)| acc.union(e));
                    let eb = b.iter().fold(Envelope::empty(), |acc, (e, _)| acc.union(e));
                    return Some((
                        ea,
                        Box::new(Node::Inner { children: a }),
                        eb,
                        Box::new(Node::Inner { children: b }),
                    ));
                }
            }
            None
        }
    }
}

/// Two halves of a split node.
type Split<V> = (Vec<(Envelope, V)>, Vec<(Envelope, V)>);

/// Guttman's quadratic split over leaf entries.
fn quadratic_split<T>(entries: Vec<(Envelope, T)>) -> Split<T> {
    split_generic(entries)
}

fn quadratic_split_nodes<T>(children: Vec<(Envelope, Box<Node<T>>)>) -> Split<Box<Node<T>>> {
    split_generic(children)
}

fn split_generic<V>(mut items: Vec<(Envelope, V)>) -> Split<V> {
    debug_assert!(items.len() >= 2);
    // Pick seeds: the pair wasting the most area if grouped together.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in i + 1..items.len() {
            let waste = items[i].0.union(&items[j].0).area() - items[i].0.area() - items[j].0.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Move seeds out (remove higher index first).
    let seed2 = items.remove(s2);
    let seed1 = items.remove(s1);
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];
    let mut e1 = g1[0].0;
    let mut e2 = g2[0].0;
    while let Some(next) = items.pop() {
        let remaining = items.len() + 1;
        // Force assignment if a group must take everything left to reach MIN.
        if g1.len() + remaining <= MIN_ENTRIES {
            e1 = e1.union(&next.0);
            g1.push(next);
            continue;
        }
        if g2.len() + remaining <= MIN_ENTRIES {
            e2 = e2.union(&next.0);
            g2.push(next);
            continue;
        }
        let d1 = e1.enlargement(&next.0);
        let d2 = e2.enlargement(&next.0);
        if d1 < d2 || (d1 == d2 && e1.area() <= e2.area()) {
            e1 = e1.union(&next.0);
            g1.push(next);
        } else {
            e2 = e2.union(&next.0);
            g2.push(next);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_util::Rng;

    fn random_envelopes(n: usize, seed: u64) -> Vec<(Envelope, usize)> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|i| {
                let x = rng.range_f64(0.0, 1000.0);
                let y = rng.range_f64(0.0, 1000.0);
                let w = rng.range_f64(0.0, 5.0);
                let h = rng.range_f64(0.0, 5.0);
                (Envelope::new(x, y, x + w, y + h), i)
            })
            .collect()
    }

    fn brute_force(items: &[(Envelope, usize)], q: &Envelope) -> Vec<usize> {
        let mut v: Vec<usize> = items
            .iter()
            .filter(|(e, _)| e.intersects(q))
            .map(|(_, i)| *i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.search(&Envelope::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        let t2: RTree<u32> = RTree::bulk_load(vec![]);
        assert!(t2.is_empty());
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = random_envelopes(2000, 42);
        let tree = RTree::bulk_load(items.clone());
        assert_eq!(tree.len(), 2000);
        let mut rng = Rng::seed_from(7);
        for _ in 0..50 {
            let x = rng.range_f64(0.0, 1000.0);
            let y = rng.range_f64(0.0, 1000.0);
            let q = Envelope::new(x, y, x + rng.range_f64(0.0, 100.0), y + rng.range_f64(0.0, 100.0));
            let mut got: Vec<usize> = tree.search(&q).into_iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, &q));
        }
    }

    #[test]
    fn insert_matches_brute_force() {
        let items = random_envelopes(500, 99);
        let mut tree = RTree::new();
        for (e, i) in items.iter() {
            tree.insert(*e, *i);
        }
        assert_eq!(tree.len(), 500);
        let mut rng = Rng::seed_from(3);
        for _ in 0..50 {
            let x = rng.range_f64(0.0, 1000.0);
            let y = rng.range_f64(0.0, 1000.0);
            let q = Envelope::new(x, y, x + 80.0, y + 80.0);
            let mut got: Vec<usize> = tree.search(&q).into_iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&items, &q));
        }
    }

    #[test]
    fn mixed_bulk_then_insert() {
        let items = random_envelopes(300, 5);
        let (a, b) = items.split_at(150);
        let mut tree = RTree::bulk_load(a.to_vec());
        for (e, i) in b {
            tree.insert(*e, *i);
        }
        let q = Envelope::new(0.0, 0.0, 1000.0, 1000.0);
        assert_eq!(tree.count(&q), 300);
    }

    #[test]
    fn tree_height_is_logarithmic() {
        let tree = RTree::bulk_load(random_envelopes(10_000, 1));
        // 10k items, fanout 16 → height around ceil(log16(10000/16))+1 = 4.
        assert!(tree.height() <= 5, "height {}", tree.height());
    }

    #[test]
    fn visit_entries_yields_each_hit_with_its_own_envelope() {
        let items = random_envelopes(600, 17);
        let tree = RTree::bulk_load(items.clone());
        let q = Envelope::new(200.0, 200.0, 500.0, 450.0);
        let mut got = Vec::new();
        tree.visit_entries(&q, &mut |e, &i| got.push((i, *e)));
        got.sort_unstable_by_key(|&(i, _)| i);
        let ids: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, brute_force(&items, &q));
        for (i, e) in got {
            assert_eq!(e, items[i].0, "item {i}");
        }
    }

    #[test]
    fn count_equals_search_len() {
        let items = random_envelopes(400, 13);
        let tree = RTree::bulk_load(items);
        let q = Envelope::new(100.0, 100.0, 400.0, 400.0);
        assert_eq!(tree.count(&q), tree.search(&q).len());
    }
}
