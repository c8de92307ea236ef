//! R-MAT synthetic power-law graph generation.
//!
//! The paper evaluates graph workloads on the friendster social network
//! (65.6 M vertices, 1.8 B edges) — tens of gigabytes of input we replace
//! with recursive-matrix (R-MAT) graphs, which reproduce the property that
//! drives graph-workload memory behaviour: a heavily skewed degree
//! distribution where a few hub vertices absorb a large share of edge
//! endpoints (giving natural cache reuse) while the long tail forces
//! irregular, unprefetchable accesses.

use cochar_trace::Lcg;

/// R-MAT generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Average out-degree; edge count is `edge_factor << scale`.
    pub edge_factor: u32,
    /// Quadrant probabilities in parts-per-thousand; `a + b + c + d` must
    /// be 1000. The classic skewed setting is (570, 190, 190, 50).
    pub a: u32,
    /// Top-right quadrant probability, parts-per-thousand.
    pub b: u32,
    /// Bottom-left quadrant probability, parts-per-thousand.
    pub c: u32,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// The Graph500-style skewed default.
    pub fn skewed(scale: u32, edge_factor: u32, seed: u64) -> Self {
        RmatConfig { scale, edge_factor, a: 570, b: 190, c: 190, seed }
    }

    /// Nearly uniform (Erdős–Rényi-like) setting for comparison tests.
    pub fn uniform(scale: u32, edge_factor: u32, seed: u64) -> Self {
        RmatConfig { scale, edge_factor, a: 250, b: 250, c: 250, seed }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        1u32 << self.scale
    }

    /// Number of generated edges.
    pub fn edges(&self) -> u64 {
        u64::from(self.edge_factor) << self.scale
    }

    /// Generates the edge list (directed; may contain duplicates and
    /// self-loops, as real R-MAT output does).
    pub fn generate(&self) -> Vec<(u32, u32)> {
        assert!(self.scale >= 1 && self.scale <= 28, "scale out of range");
        assert!(self.a + self.b + self.c < 1000, "quadrant probabilities exceed 1000");
        let mut rng = Lcg::new(self.seed);
        let m = self.edges() as usize;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push(self.one_edge(&mut rng));
        }
        edges
    }

    fn one_edge(&self, rng: &mut Lcg) -> (u32, u32) {
        let mut src = 0u32;
        let mut dst = 0u32;
        for _ in 0..self.scale {
            let (row, col) = self.quadrant_bits(rng.next_below(1000) as u32);
            src = (src << 1) | row;
            dst = (dst << 1) | col;
        }
        (src, dst)
    }

    /// The row (src) and column (dst) bit one recursion level adds for a
    /// draw `r` in `0..1000`. The quadrants top-left, top-right (column
    /// bit), bottom-left (row bit) and bottom-right (both) own the
    /// consecutive ranges `a`, `b`, `c` and the rest. The bits come from
    /// comparisons against the cumulative thresholds, not from a branch per
    /// quadrant: the draws are random, so such branches mispredict on most
    /// levels.
    #[inline]
    fn quadrant_bits(&self, r: u32) -> (u32, u32) {
        let ab = self.a + self.b;
        let row = u32::from(r >= ab);
        let col = u32::from(r >= self.a) ^ row ^ u32::from(r >= ab + self.c);
        (row, col)
    }
}

/// Out-degree histogram helper: counts per vertex.
pub fn out_degrees(n: u32, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut deg = vec![0u32; n as usize];
    for &(s, _) in edges {
        deg[s as usize] += 1;
    }
    deg
}

/// Gini coefficient of a degree vector — a scalar skew measure used in
/// tests to verify R-MAT skew (≈0 uniform, →1 maximally skewed).
pub fn degree_gini(degrees: &[u32]) -> f64 {
    if degrees.is_empty() {
        return 0.0;
    }
    let mut d: Vec<u64> = degrees.iter().map(|&x| u64::from(x)).collect();
    d.sort_unstable();
    let n = d.len() as f64;
    let total: u64 = d.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut cum = 0.0f64;
    let mut weighted = 0.0f64;
    for (i, &x) in d.iter().enumerate() {
        cum += x as f64;
        weighted += cum;
        let _ = i;
    }
    (n + 1.0 - 2.0 * weighted / cum) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_and_bounds() {
        let cfg = RmatConfig::skewed(10, 8, 42);
        let edges = cfg.generate();
        assert_eq!(edges.len(), 8 << 10);
        let n = cfg.vertices();
        for &(s, d) in &edges {
            assert!(s < n && d < n);
        }
    }

    #[test]
    fn quadrant_bits_follow_the_quadrant_ranges() {
        let configs = [
            RmatConfig::skewed(4, 1, 0),
            RmatConfig::uniform(4, 1, 0),
            RmatConfig { a: 0, b: 0, c: 999, ..RmatConfig::skewed(4, 1, 0) },
            RmatConfig { a: 999, b: 0, c: 0, ..RmatConfig::skewed(4, 1, 0) },
        ];
        for cfg in configs {
            for r in 0..1000 {
                let expected = if r < cfg.a {
                    (0, 0)
                } else if r < cfg.a + cfg.b {
                    (0, 1)
                } else if r < cfg.a + cfg.b + cfg.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                assert_eq!(cfg.quadrant_bits(r), expected, "{cfg:?} r={r}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RmatConfig::skewed(8, 4, 7).generate();
        let b = RmatConfig::skewed(8, 4, 7).generate();
        let c = RmatConfig::skewed(8, 4, 8).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_is_more_skewed_than_uniform() {
        let sk = out_degrees(1 << 12, &RmatConfig::skewed(12, 8, 1).generate());
        let un = out_degrees(1 << 12, &RmatConfig::uniform(12, 8, 1).generate());
        let g_sk = degree_gini(&sk);
        let g_un = degree_gini(&un);
        assert!(
            g_sk > g_un + 0.2,
            "skewed gini {g_sk:.3} should clearly exceed uniform {g_un:.3}"
        );
    }

    #[test]
    fn skewed_graph_has_hubs() {
        let cfg = RmatConfig::skewed(12, 8, 3);
        let deg = out_degrees(cfg.vertices(), &cfg.generate());
        let max = *deg.iter().max().unwrap() as u64;
        let avg = cfg.edges() / u64::from(cfg.vertices());
        assert!(
            max > avg * 10,
            "hub degree {max} should dwarf the average {avg}"
        );
    }

    #[test]
    fn gini_of_constant_vector_is_zero() {
        let g = degree_gini(&[5; 100]);
        assert!(g.abs() < 0.02, "gini of uniform degrees should be ~0, got {g}");
    }

    #[test]
    fn gini_handles_edge_cases() {
        assert_eq!(degree_gini(&[]), 0.0);
        assert_eq!(degree_gini(&[0, 0, 0]), 0.0);
    }
}
