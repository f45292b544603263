//! The end-to-end link-discovery driver.

use crate::blocking;
use crate::entity::{LinkRule, SpatialEntity};
use crate::meta::{prune, Pruning};
use crate::LinkError;
use ee_geo::grid::Grid;

/// Configuration of a discovery run.
#[derive(Debug, Clone, Copy)]
pub struct DiscoverConfig {
    /// Grid cells per axis for blocking.
    pub grid_cells: usize,
    /// Worker threads for verification.
    pub threads: usize,
    /// Meta-blocking pruning scheme.
    pub pruning: Pruning,
}

impl Default for DiscoverConfig {
    fn default() -> Self {
        Self {
            grid_cells: 64,
            threads: 1,
            pruning: Pruning::WeightedEdge,
        }
    }
}

/// Outcome of a discovery run.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Discovered links as (source id, target id).
    pub links: Vec<(u64, u64)>,
    /// Candidate pairs before pruning.
    pub candidates_before: usize,
    /// Candidate pairs actually verified.
    pub comparisons: usize,
    /// The exhaustive comparison count (|source| × |target|).
    pub exhaustive_comparisons: usize,
}

impl LinkReport {
    /// Recall against a reference link set.
    pub fn recall_against(&self, truth: &[(u64, u64)]) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let set: std::collections::HashSet<(u64, u64)> = self.links.iter().copied().collect();
        truth.iter().filter(|l| set.contains(l)).count() as f64 / truth.len() as f64
    }
}

/// Exhaustive all-pairs discovery (the baseline).
pub fn exhaustive(
    source: &[SpatialEntity],
    target: &[SpatialEntity],
    rule: LinkRule,
) -> LinkReport {
    let mut links = Vec::new();
    for s in source {
        for t in target {
            if rule.verify(s, t) {
                links.push((s.id, t.id));
            }
        }
    }
    let n = source.len() * target.len();
    LinkReport {
        links,
        candidates_before: n,
        comparisons: n,
        exhaustive_comparisons: n,
    }
}

/// Blocked (and optionally meta-blocked) multi-core discovery.
pub fn discover(
    source: &[SpatialEntity],
    target: &[SpatialEntity],
    rule: LinkRule,
    config: DiscoverConfig,
) -> Result<LinkReport, LinkError> {
    if config.grid_cells == 0 || config.threads == 0 {
        return Err(LinkError::Config("grid_cells and threads must be > 0".into()));
    }
    let exhaustive_comparisons = source.len() * target.len();
    if source.is_empty() || target.is_empty() {
        return Ok(LinkReport {
            links: Vec::new(),
            candidates_before: 0,
            comparisons: 0,
            exhaustive_comparisons,
        });
    }
    let slack = rule.blocking_slack();
    let extent = blocking::common_extent(source, target, slack);
    let grid = Grid::new(extent, config.grid_cells, config.grid_cells);
    let source_blocks = blocking::assign(source, &grid, slack);
    let target_blocks = blocking::assign(target, &grid, 0.0);
    let weighted = blocking::candidates(&source_blocks, &target_blocks);
    let candidates_before = weighted.len();
    // Jaccard-normalise the CBS weights: shared / (|cells(s)| + |cells(t)| - shared).
    let mut s_cells = vec![0u32; source.len()];
    for cell in &source_blocks.cells {
        for &i in cell {
            s_cells[i as usize] += 1;
        }
    }
    let mut t_cells = vec![0u32; target.len()];
    for cell in &target_blocks.cells {
        for &i in cell {
            t_cells[i as usize] += 1;
        }
    }
    let weighted: Vec<(u32, u32, f64)> = weighted
        .into_iter()
        .map(|(si, ti, shared)| {
            let union = s_cells[si as usize] + t_cells[ti as usize] - shared;
            (si, ti, shared as f64 / union.max(1) as f64)
        })
        .collect();
    let pruned = prune(weighted, config.pruning);
    let comparisons = pruned.len();

    // Verify on `threads` workers, chunked contiguously; per-chunk
    // results concatenate in chunk order, so the final (sorted) link set
    // is identical for any thread count.
    let results: Vec<Vec<(u64, u64)>> =
        ee_util::par::map_chunks(&pruned, config.threads, |_, chunk| {
            verify_chunk(chunk, source, target, rule)
        });
    let mut links: Vec<(u64, u64)> = results.into_iter().flatten().collect();
    links.sort_unstable();
    Ok(LinkReport {
        links,
        candidates_before,
        comparisons,
        exhaustive_comparisons,
    })
}

fn verify_chunk(
    pairs: &[(u32, u32, f64)],
    source: &[SpatialEntity],
    target: &[SpatialEntity],
    rule: LinkRule,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for &(si, ti, _) in pairs {
        let s = &source[si as usize];
        let t = &target[ti as usize];
        if rule.verify(s, t) {
            out.push((s.id, t.id));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::SpatialRelation;
    use ee_geo::{Point, Polygon};
    use ee_util::Rng;

    /// Random rectangles in [0,100)²; source ids 0.., target ids 1000..
    fn random_sets(n: usize, seed: u64) -> (Vec<SpatialEntity>, Vec<SpatialEntity>) {
        let mut rng = Rng::seed_from(seed);
        let mk = |base: u64, i: usize, rng: &mut Rng| {
            let x = rng.range_f64(0.0, 97.0);
            let y = rng.range_f64(0.0, 97.0);
            let w = rng.range_f64(0.2, 3.0);
            let h = rng.range_f64(0.2, 3.0);
            SpatialEntity::new(base + i as u64, Polygon::rectangle(x, y, x + w, y + h).into())
        };
        let source = (0..n).map(|i| mk(0, i, &mut rng)).collect();
        let target = (0..n).map(|i| mk(1000, i, &mut rng)).collect();
        (source, target)
    }

    #[test]
    fn blocked_matches_exhaustive_without_pruning() {
        let (src, tgt) = random_sets(150, 3);
        let rule = LinkRule::spatial(SpatialRelation::Intersects);
        let truth = exhaustive(&src, &tgt, rule);
        let blocked = discover(
            &src,
            &tgt,
            rule,
            DiscoverConfig {
                grid_cells: 32,
                threads: 1,
                pruning: Pruning::None,
            },
        )
        .unwrap();
        let mut t = truth.links.clone();
        t.sort_unstable();
        assert_eq!(blocked.links, t, "blocking alone must be lossless");
        assert!(
            blocked.comparisons < truth.exhaustive_comparisons / 10,
            "{} vs {}",
            blocked.comparisons,
            truth.exhaustive_comparisons
        );
    }

    #[test]
    fn near_within_rule_is_lossless_with_slack() {
        let (src, tgt) = random_sets(100, 4);
        let rule = LinkRule::spatial(SpatialRelation::NearWithin(2.0));
        let truth = exhaustive(&src, &tgt, rule);
        let blocked = discover(
            &src,
            &tgt,
            rule,
            DiscoverConfig {
                grid_cells: 24,
                threads: 2,
                pruning: Pruning::None,
            },
        )
        .unwrap();
        let mut t = truth.links.clone();
        t.sort_unstable();
        assert_eq!(blocked.links, t);
    }

    #[test]
    fn meta_blocking_trades_recall_for_comparisons() {
        let (src, tgt) = random_sets(200, 5);
        let rule = LinkRule::spatial(SpatialRelation::Intersects);
        let truth = exhaustive(&src, &tgt, rule);
        // Finer grids give true matches more shared blocks, which is what
        // the CBS weighting rewards.
        let plain = discover(
            &src,
            &tgt,
            rule,
            DiscoverConfig {
                grid_cells: 96,
                threads: 1,
                pruning: Pruning::None,
            },
        )
        .unwrap();
        let pruned = discover(
            &src,
            &tgt,
            rule,
            DiscoverConfig {
                grid_cells: 96,
                threads: 1,
                pruning: Pruning::WeightedEdge,
            },
        )
        .unwrap();
        assert!(pruned.comparisons < plain.comparisons);
        let recall = pruned.recall_against(&truth.links);
        assert!(recall > 0.6, "meta-blocking keeps the strong edges: recall {recall}");
    }

    #[test]
    fn multicore_equals_single_core() {
        let (src, tgt) = random_sets(150, 6);
        let rule = LinkRule::spatial(SpatialRelation::Intersects);
        let base = DiscoverConfig {
            grid_cells: 32,
            threads: 1,
            pruning: Pruning::WeightedEdge,
        };
        let one = discover(&src, &tgt, rule, base).unwrap();
        for threads in [2, 4, 8] {
            let multi = discover(&src, &tgt, rule, DiscoverConfig { threads, ..base }).unwrap();
            assert_eq!(multi.links, one.links, "threads={threads}");
            assert_eq!(multi.comparisons, one.comparisons);
        }
    }

    #[test]
    fn empty_inputs() {
        let rule = LinkRule::spatial(SpatialRelation::Intersects);
        let (src, _) = random_sets(5, 7);
        let r = discover(&src, &[], rule, DiscoverConfig::default()).unwrap();
        assert!(r.links.is_empty());
        assert_eq!(r.comparisons, 0);
        let r2 = discover(&[], &src, rule, DiscoverConfig::default()).unwrap();
        assert!(r2.links.is_empty());
    }

    #[test]
    fn config_validation() {
        let (src, tgt) = random_sets(5, 8);
        let rule = LinkRule::spatial(SpatialRelation::Intersects);
        assert!(discover(
            &src,
            &tgt,
            rule,
            DiscoverConfig {
                grid_cells: 0,
                ..DiscoverConfig::default()
            }
        )
        .is_err());
        assert!(discover(
            &src,
            &tgt,
            rule,
            DiscoverConfig {
                threads: 0,
                ..DiscoverConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn point_in_polygon_linking() {
        // The A1 use case: link farm sensors (points) to parcels (polygons).
        let parcels: Vec<SpatialEntity> = (0..10)
            .map(|i| {
                let x = (i % 5) as f64 * 10.0;
                let y = (i / 5) as f64 * 10.0;
                SpatialEntity::new(i, Polygon::rectangle(x, y, x + 9.0, y + 9.0).into())
            })
            .collect();
        let sensors = vec![
            SpatialEntity::new(100, Point::new(4.0, 4.0).into()),
            SpatialEntity::new(101, Point::new(14.0, 4.0).into()),
            SpatialEntity::new(102, Point::new(44.0, 14.0).into()),
        ];
        let rule = LinkRule::spatial(SpatialRelation::Within);
        let r = discover(&sensors, &parcels, rule, DiscoverConfig {
            pruning: Pruning::None,
            ..DiscoverConfig::default()
        })
        .unwrap();
        assert_eq!(r.links, vec![(100, 0), (101, 1), (102, 9)]);
    }
}
