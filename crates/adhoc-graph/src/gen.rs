//! Network generators.
//!
//! The paper's workload (§4): `N` nodes placed uniformly at random in a
//! 100×100 area, identical transmission ranges, the range tuned so the
//! **average node degree** hits a target `D` (6 for the sparse series,
//! 10 for the dense one), and instances resampled until connected.
//! [`geometric`] reproduces exactly that. Deterministic topologies for
//! tests live in [`path`], [`cycle`], [`grid`], [`star`], [`complete`].
//!
//! For *changing* positions (mobility, churn experiments),
//! [`SpatialGrid`] maintains the unit-disk graph incrementally and
//! reports each step's edge changes as a [`TopologyDelta`].

use crate::connectivity;
use crate::delta::TopologyDelta;
use crate::geom::{self, Point};
use crate::graph::{Graph, NodeId};
use rand::Rng;
use std::collections::HashMap;

/// Configuration of the random geometric network workload.
#[derive(Clone, Debug)]
pub struct GeometricConfig {
    /// Number of nodes `N`.
    pub n: usize,
    /// Side length of the square deployment area (paper: 100).
    pub side: f64,
    /// Target average node degree `D` (paper: 6 or 10).
    pub target_degree: f64,
    /// Require the sampled network to be connected, resampling node
    /// positions until it is (the paper's theorems assume a connected
    /// `G`). Default `true`.
    pub require_connected: bool,
    /// Iterations of degree calibration (correcting the border effect
    /// of the analytic range formula). Default 3.
    pub calibration_rounds: usize,
    /// Cap on resampling attempts before panicking; guards against
    /// configurations that are almost never connected. Default 10 000.
    pub max_attempts: usize,
}

/// Node count above which [`GeometricConfig::at_scale`] stops
/// requiring a connected sample: at fixed density, large random
/// geometric graphs are almost surely disconnected, so insisting
/// would resample until the attempt cap panics. Every pipeline phase
/// is well-defined per component.
pub const CONNECTED_SAMPLING_LIMIT: usize = 1000;

impl GeometricConfig {
    /// Convenience constructor for the paper's parameters.
    pub fn new(n: usize, side: f64, target_degree: f64) -> Self {
        GeometricConfig {
            n,
            side,
            target_degree,
            require_connected: true,
            calibration_rounds: 3,
            max_attempts: 10_000,
        }
    }

    /// As [`Self::new`], with the workspace's large-`N` sampling
    /// convention applied: connectivity is only required below
    /// [`CONNECTED_SAMPLING_LIMIT`] nodes. The scaling benches and the
    /// CLI use this so `N ∈ 10⁴..10⁵` instances generate instead of
    /// resampling forever.
    pub fn at_scale(n: usize, side: f64, target_degree: f64) -> Self {
        let mut cfg = Self::new(n, side, target_degree);
        cfg.require_connected = n < CONNECTED_SAMPLING_LIMIT;
        cfg
    }
}

/// A generated geometric network: positions, the calibrated range, and
/// the unit-disk connectivity graph.
#[derive(Clone, Debug)]
pub struct GeometricNetwork {
    /// Node positions, indexed by `NodeId`.
    pub positions: Vec<Point>,
    /// Common transmission range after calibration.
    pub range: f64,
    /// Connectivity graph: edge iff Euclidean distance ≤ `range`.
    pub graph: Graph,
    /// How many position sets were rejected (disconnected) before this
    /// one was accepted.
    pub rejected: usize,
}

/// Builds the unit-disk graph of `positions` with range `r`.
///
/// Uses a uniform cell grid with cell side `r`: each node is bucketed,
/// and only the 3×3 block of neighboring cells is scanned per node, so
/// the expected cost is `O(n · expected degree)` instead of the naive
/// all-pairs `O(n²)`. Falls back to the quadratic scan for tiny inputs
/// or degenerate ranges where the grid bookkeeping costs more than it
/// saves. Output is identical to the all-pairs scan (tested).
pub fn unit_disk_graph(positions: &[Point], r: f64) -> Graph {
    if positions.len() < 64 || !r.is_finite() || r <= 0.0 {
        return unit_disk_graph_naive(positions, r);
    }
    let (min_x, max_x) = positions
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.x), hi.max(p.x))
        });
    let (min_y, max_y) = positions
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.y), hi.max(p.y))
        });
    let cols = (((max_x - min_x) / r).floor() as usize + 1).max(1);
    let rows = (((max_y - min_y) / r).floor() as usize + 1).max(1);
    if cols.saturating_mul(rows) > 4 * positions.len() + 1024 {
        // Very sparse deployments relative to r: the grid would be
        // mostly empty cells; the naive scan is cheaper to set up.
        return unit_disk_graph_naive(positions, r);
    }
    let cell_of = |p: &Point| -> (usize, usize) {
        let c = (((p.x - min_x) / r).floor() as usize).min(cols - 1);
        let rw = (((p.y - min_y) / r).floor() as usize).min(rows - 1);
        (rw, c)
    };
    // Counting sort of nodes into cells (flat CSR-style buckets).
    let mut counts = vec![0u32; rows * cols + 1];
    for p in positions {
        let (rw, c) = cell_of(p);
        counts[rw * cols + c + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut bucket: Vec<u32> = vec![0; positions.len()];
    let mut cursor = counts.clone();
    for (i, p) in positions.iter().enumerate() {
        let (rw, c) = cell_of(p);
        let slot = &mut cursor[rw * cols + c];
        bucket[*slot as usize] = i as u32;
        *slot += 1;
    }
    let mut g = Graph::new(positions.len());
    for rw in 0..rows {
        for c in 0..cols {
            let here = &bucket[counts[rw * cols + c] as usize..cursor[rw * cols + c] as usize];
            // Within-cell pairs.
            for (a_idx, &a) in here.iter().enumerate() {
                for &b in &here[a_idx + 1..] {
                    if positions[a as usize].in_range(&positions[b as usize], r) {
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        g.add_edge(NodeId(lo), NodeId(hi));
                    }
                }
            }
            // Forward half of the 8-neighborhood (E, SW, S, SE): each
            // unordered cell pair is visited exactly once.
            for (dr, dc) in [(0i64, 1i64), (1, -1), (1, 0), (1, 1)] {
                let (nr, nc) = (rw as i64 + dr, c as i64 + dc);
                if nr < 0 || nc < 0 || nr as usize >= rows || nc as usize >= cols {
                    continue;
                }
                let idx = nr as usize * cols + nc as usize;
                let there = &bucket[counts[idx] as usize..cursor[idx] as usize];
                for &a in here {
                    for &b in there {
                        if positions[a as usize].in_range(&positions[b as usize], r) {
                            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                            g.add_edge(NodeId(lo), NodeId(hi));
                        }
                    }
                }
            }
        }
    }
    g
}

/// A persistent spatial-hash grid over node positions, maintaining the
/// unit-disk graph **incrementally** as nodes move.
///
/// [`unit_disk_graph`] answers "what is the topology of these
/// positions" from scratch; under mobility that question is asked every
/// beacon period about positions that barely changed. `SpatialGrid`
/// keeps the cell buckets and the graph alive between steps:
/// [`SpatialGrid::update`] re-examines only the nodes that actually
/// moved (an edge can change only if an endpoint moved), scanning the
/// 3×3 cell block around each — `O(moved · local density)` instead of a
/// full rebuild — and reports exactly which edges appeared and vanished
/// as a [`TopologyDelta`], the input of every incremental consumer
/// above (`HeadLabels::advance`, `pipeline::update_all_after`).
///
/// Cells are hashed by integer cell coordinates, so the grid covers an
/// unbounded plane with memory proportional to *occupied* cells only —
/// unlike the bounding-box counting grid inside [`unit_disk_graph`],
/// it never degrades on sparse deployments.
///
/// The maintained graph is always identical to
/// `unit_disk_graph(positions, r)` on the current positions (tested).
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    r: f64,
    positions: Vec<Point>,
    cells: HashMap<(i64, i64), Vec<u32>>,
    graph: Graph,
}

impl SpatialGrid {
    /// Builds the grid and its unit-disk graph from scratch.
    ///
    /// # Panics
    /// Panics unless `r` is positive and finite (a fixed transmission
    /// range is the model's invariant).
    pub fn build(positions: &[Point], r: f64) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "range must be positive and finite"
        );
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, p) in positions.iter().enumerate() {
            cells.entry(Self::cell(r, p)).or_default().push(i as u32);
        }
        SpatialGrid {
            r,
            positions: positions.to_vec(),
            cells,
            graph: unit_disk_graph(positions, r),
        }
    }

    #[inline]
    fn cell(r: f64, p: &Point) -> (i64, i64) {
        ((p.x / r).floor() as i64, (p.y / r).floor() as i64)
    }

    /// The maintained unit-disk graph of the current positions.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current node positions.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The transmission range.
    #[inline]
    pub fn range(&self) -> f64 {
        self.r
    }

    /// Moves the nodes to `new_positions` and updates the adjacency
    /// incrementally, returning the edge delta. Cost is proportional to
    /// the number of *moved* nodes times their local density, not to
    /// the network size.
    ///
    /// # Panics
    /// Panics if `new_positions` has a different length than the grid
    /// was built with (the node set is fixed).
    pub fn update(&mut self, new_positions: &[Point]) -> TopologyDelta {
        assert_eq!(
            new_positions.len(),
            self.positions.len(),
            "the node set is fixed; deltas only move nodes"
        );
        let r = self.r;
        // Pass 1: re-bucket every moved node and commit its position,
        // so all range tests below see the *new* geometry.
        let mut moved: Vec<u32> = Vec::new();
        for (i, (&new_p, old_p)) in new_positions
            .iter()
            .zip(self.positions.iter_mut())
            .enumerate()
        {
            if new_p == *old_p {
                continue;
            }
            moved.push(i as u32);
            let (old_c, new_c) = (Self::cell(r, old_p), Self::cell(r, &new_p));
            if old_c != new_c {
                let bucket = self.cells.get_mut(&old_c).expect("node was bucketed");
                let pos = bucket
                    .iter()
                    .position(|&x| x == i as u32)
                    .expect("node in its bucket");
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.cells.remove(&old_c);
                }
                self.cells.entry(new_c).or_default().push(i as u32);
            }
            *old_p = new_p;
        }
        // Pass 2: an edge can change only if an endpoint moved. Each
        // moved node checks its current neighbors for broken links and
        // its 3×3 cell block for new ones; edges whose both endpoints
        // moved are visited twice and deduplicated by `normalize`.
        let mut delta = TopologyDelta::new();
        for &u in &moved {
            let u_id = NodeId(u);
            let pu = self.positions[u as usize];
            for &v in self.graph.neighbors(u_id) {
                if !pu.in_range(&self.positions[v.index()], r) {
                    delta.push_removed(u_id, v);
                }
            }
            let (cx, cy) = Self::cell(r, &pu);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) else {
                        continue;
                    };
                    for &v in bucket {
                        let v_id = NodeId(v);
                        if v != u
                            && pu.in_range(&self.positions[v as usize], r)
                            && !self.graph.has_edge(u_id, v_id)
                        {
                            delta.push_added(u_id, v_id);
                        }
                    }
                }
            }
        }
        delta.normalize();
        delta.apply_to(&mut self.graph);
        delta
    }
}

/// The reference all-pairs unit-disk construction (`O(n²)`), kept for
/// tiny inputs and as the oracle the grid version is tested against.
pub fn unit_disk_graph_naive(positions: &[Point], r: f64) -> Graph {
    let mut g = Graph::new(positions.len());
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            if positions[i].in_range(&positions[j], r) {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    g
}

/// Why [`try_geometric`] or [`try_quasi_geometric`] could not sample a
/// network.
#[derive(Clone, Debug, PartialEq)]
pub enum GenError {
    /// Fewer than two nodes were requested.
    TooFewNodes(usize),
    /// The target degree is not a finite positive number.
    BadDegree(f64),
    /// The quasi-UDG gray zone is degenerate: `outer_ratio` is not a
    /// finite number `>= 1`, or `p_gray` is outside `[0, 1]`.
    BadGrayZone {
        /// Requested ratio of the outer to the inner radius.
        outer_ratio: f64,
        /// Requested gray-zone link probability.
        p_gray: f64,
    },
    /// Connectivity was required, and `attempts` consecutive samples
    /// were disconnected.
    TooSparse {
        /// Samples drawn before giving up (`cfg.max_attempts`).
        attempts: usize,
        /// Requested node count.
        n: usize,
        /// Requested average degree.
        target_degree: f64,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::TooFewNodes(n) => write!(f, "need at least two nodes (got {n})"),
            GenError::BadDegree(d) => {
                write!(f, "target degree must be finite and positive (got {d})")
            }
            GenError::BadGrayZone {
                outer_ratio,
                p_gray,
            } => write!(
                f,
                "gray zone needs a finite outer_ratio >= 1 and p_gray in [0, 1] \
                 (got outer_ratio {outer_ratio}, p_gray {p_gray})"
            ),
            GenError::TooSparse {
                attempts,
                n,
                target_degree,
            } => write!(
                f,
                "exceeded {attempts} attempts without a connected instance \
                 (n={n}, D={target_degree}): the configuration is too sparse"
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// Samples a random geometric network per `cfg`.
///
/// The transmission range starts at the analytic estimate
/// [`geom::range_for_target_degree`] and is then calibrated: the border
/// effect of a finite square makes the measured mean degree fall short
/// of the analytic one by 10–25%, so each calibration round rescales
/// `r` by `sqrt(target / measured)` and rebuilds the edge set from the
/// *same* positions. After calibration, if connectivity is required and
/// the instance is disconnected, fresh positions are drawn.
///
/// # Errors
/// [`GenError::TooSparse`] if `cfg.max_attempts` consecutive instances
/// are disconnected; [`GenError::TooFewNodes`] / [`GenError::BadDegree`]
/// on degenerate configurations (`n < 2`, a degree that is not finite
/// and positive).
pub fn try_geometric<R: Rng + ?Sized>(
    cfg: &GeometricConfig,
    rng: &mut R,
) -> Result<GeometricNetwork, GenError> {
    sample(cfg, rng, |positions, r, _| unit_disk_graph(positions, r))
}

/// The sampling loop both generators share: draws positions, calibrates
/// the range over `edges(positions, r, rng)` and resamples until the
/// instance is connected (if required). The edge builder may draw from
/// `rng`; it is called in the same order on every path.
fn sample<R: Rng + ?Sized>(
    cfg: &GeometricConfig,
    rng: &mut R,
    mut edges: impl FnMut(&[Point], f64, &mut R) -> Graph,
) -> Result<GeometricNetwork, GenError> {
    if cfg.n < 2 {
        return Err(GenError::TooFewNodes(cfg.n));
    }
    if !(cfg.target_degree.is_finite() && cfg.target_degree > 0.0) {
        return Err(GenError::BadDegree(cfg.target_degree));
    }
    let mut rejected = 0usize;
    loop {
        let positions: Vec<Point> = (0..cfg.n)
            .map(|_| Point::new(rng.gen::<f64>() * cfg.side, rng.gen::<f64>() * cfg.side))
            .collect();
        let mut r = geom::range_for_target_degree(cfg.n, cfg.side, cfg.target_degree);
        let mut graph = edges(&positions, r, rng);
        for _ in 0..cfg.calibration_rounds {
            let measured = graph.average_degree();
            if measured <= 0.0 {
                r *= 1.5;
            } else {
                let ratio = (cfg.target_degree / measured).sqrt();
                // Damp extreme corrections so calibration cannot
                // oscillate on small instances.
                r *= ratio.clamp(0.5, 2.0);
            }
            graph = edges(&positions, r, rng);
        }
        if cfg.require_connected && !connectivity::is_connected(&graph) {
            rejected += 1;
            if rejected >= cfg.max_attempts {
                return Err(GenError::TooSparse {
                    attempts: cfg.max_attempts,
                    n: cfg.n,
                    target_degree: cfg.target_degree,
                });
            }
            continue;
        }
        return Ok(GeometricNetwork {
            positions,
            range: r,
            graph,
            rejected,
        });
    }
}

/// [`try_geometric`] for configurations known to be satisfiable (the
/// paper's workloads, tests, benches).
///
/// # Panics
/// Panics with the [`GenError`] message where [`try_geometric`] would
/// return it.
pub fn geometric<R: Rng + ?Sized>(cfg: &GeometricConfig, rng: &mut R) -> GeometricNetwork {
    try_geometric(cfg, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Quasi-unit-disk parameters: links are certain up to `inner`,
/// impossible beyond `outer`, and exist with probability `p_gray` in
/// the gray zone between — the standard model for radios whose
/// coverage is not a perfect disk (fading, obstacles, antenna
/// anisotropy).
#[derive(Clone, Copy, Debug)]
pub struct QuasiUdgConfig {
    /// Certain-link radius.
    pub inner: f64,
    /// Maximum-link radius (`>= inner`).
    pub outer: f64,
    /// Link probability in the gray zone `[inner, outer]`.
    pub p_gray: f64,
}

impl QuasiUdgConfig {
    /// Validates and builds the config.
    ///
    /// # Panics
    /// Panics on `outer < inner`, non-finite radii, or `p_gray`
    /// outside `[0, 1]`.
    pub fn new(inner: f64, outer: f64, p_gray: f64) -> Self {
        assert!(
            inner.is_finite() && outer.is_finite() && inner >= 0.0 && outer >= inner,
            "need 0 <= inner <= outer"
        );
        assert!((0.0..=1.0).contains(&p_gray), "p_gray must be in [0, 1]");
        QuasiUdgConfig {
            inner,
            outer,
            p_gray,
        }
    }
}

/// Builds a quasi-unit-disk graph over `positions`.
///
/// With `inner == outer` (or `p_gray ∈ {0, 1}` degenerating the gray
/// zone) this reduces exactly to [`unit_disk_graph`]. The result is
/// still an *undirected* graph: a gray-zone link is either present in
/// both directions or absent (one Bernoulli draw per pair, drawn in
/// `(i, j)` order so runs are reproducible).
pub fn quasi_unit_disk_graph<R: Rng + ?Sized>(
    positions: &[Point],
    cfg: &QuasiUdgConfig,
    rng: &mut R,
) -> Graph {
    let mut g = Graph::new(positions.len());
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            let d = positions[i].distance(&positions[j]);
            let connect = if d <= cfg.inner {
                true
            } else if d <= cfg.outer {
                rng.gen::<f64>() < cfg.p_gray
            } else {
                false
            };
            if connect {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    g
}

/// Samples a quasi-UDG network: positions drawn like [`geometric`],
/// the *inner* radius calibrated to the target degree with the gray
/// zone scaled by `outer_ratio` (`outer = inner * outer_ratio`),
/// positions resampled until connected if `cfg` requires it.
///
/// # Errors
/// As [`try_geometric`], plus [`GenError::BadGrayZone`] for an
/// `outer_ratio` that is not a finite number `>= 1` or a `p_gray`
/// outside `[0, 1]`.
pub fn try_quasi_geometric<R: Rng + ?Sized>(
    cfg: &GeometricConfig,
    outer_ratio: f64,
    p_gray: f64,
    rng: &mut R,
) -> Result<GeometricNetwork, GenError> {
    if !(outer_ratio.is_finite() && outer_ratio >= 1.0 && (0.0..=1.0).contains(&p_gray)) {
        return Err(GenError::BadGrayZone {
            outer_ratio,
            p_gray,
        });
    }
    sample(cfg, rng, |positions, r, rng| {
        quasi_unit_disk_graph(
            positions,
            &QuasiUdgConfig::new(r, r * outer_ratio, p_gray),
            rng,
        )
    })
}

/// [`try_quasi_geometric`] for configurations known to be satisfiable.
///
/// # Panics
/// Panics with the [`GenError`] message where [`try_quasi_geometric`]
/// would return it.
pub fn quasi_geometric<R: Rng + ?Sized>(
    cfg: &GeometricConfig,
    outer_ratio: f64,
    p_gray: f64,
    rng: &mut R,
) -> GeometricNetwork {
    try_quasi_geometric(cfg, outer_ratio, p_gray, rng).unwrap_or_else(|e| panic!("{e}"))
}

/// Path graph `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    g
}

/// Cycle graph on `n >= 3` nodes.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = path(n);
    g.add_edge(NodeId(0), NodeId(n as u32 - 1));
    g
}

/// `rows x cols` grid graph; node `(r, c)` has ID `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = (r * cols + c) as u32;
            if c + 1 < cols {
                g.add_edge(NodeId(id), NodeId(id + 1));
            }
            if r + 1 < rows {
                g.add_edge(NodeId(id), NodeId(id + cols as u32));
            }
        }
    }
    g
}

/// Star: node 0 is the hub of `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i as u32));
    }
    g
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unit_disk_edges_respect_range() {
        let pos = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let g = unit_disk_graph(&pos, 1.5);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn geometric_hits_target_degree_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = GeometricConfig::new(150, 100.0, 6.0);
        let net = geometric(&cfg, &mut rng);
        let d = net.graph.average_degree();
        assert!(
            (d - 6.0).abs() < 1.0,
            "calibrated degree {d} too far from target 6"
        );
        assert!(connectivity::is_connected(&net.graph));
        net.graph.check_invariants().unwrap();
    }

    #[test]
    fn geometric_dense_variant() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GeometricConfig::new(100, 100.0, 10.0);
        let net = geometric(&cfg, &mut rng);
        let d = net.graph.average_degree();
        assert!((d - 10.0).abs() < 1.5, "calibrated degree {d}");
    }

    #[test]
    fn geometric_without_connectivity_requirement() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cfg = GeometricConfig::new(30, 100.0, 3.0);
        cfg.require_connected = false;
        let net = geometric(&cfg, &mut rng);
        assert_eq!(net.rejected, 0);
        assert_eq!(net.graph.len(), 30);
    }

    #[test]
    fn geometric_is_reproducible_from_seed() {
        let cfg = GeometricConfig::new(50, 100.0, 6.0);
        let a = geometric(&cfg, &mut StdRng::seed_from_u64(9));
        let b = geometric(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.range, b.range);
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn geometric_rejects_tiny_n() {
        let mut rng = StdRng::seed_from_u64(0);
        geometric(&GeometricConfig::new(1, 100.0, 6.0), &mut rng);
    }

    #[test]
    fn try_geometric_reports_typed_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = GeometricConfig::new(1, 100.0, 6.0);
        assert_eq!(
            try_geometric(&cfg, &mut rng).unwrap_err(),
            GenError::TooFewNodes(1)
        );
        for d in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let cfg = GeometricConfig::new(10, 100.0, d);
            assert!(matches!(
                try_geometric(&cfg, &mut rng),
                Err(GenError::BadDegree(_))
            ));
        }
        // Degree 0.2 on 40 nodes is essentially never connected.
        let mut cfg = GeometricConfig::new(40, 100.0, 0.2);
        cfg.max_attempts = 5;
        let err = try_geometric(&cfg, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            GenError::TooSparse {
                attempts: 5,
                n: 40,
                ..
            }
        ));
        assert!(err.to_string().contains("too sparse"), "{err}");
        // Satisfiable configurations sample exactly what `geometric` does.
        let cfg = GeometricConfig::new(50, 100.0, 6.0);
        let a = try_geometric(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = geometric(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.range, b.range);
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn deterministic_topologies() {
        let p = path(4);
        assert_eq!(p.edge_count(), 3);
        let c = cycle(4);
        assert_eq!(c.edge_count(), 4);
        assert!(c.has_edge(NodeId(0), NodeId(3)));
        let g = grid(2, 3);
        assert_eq!(g.edge_count(), 7);
        assert!(g.has_edge(NodeId(0), NodeId(3)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
        let s = star(5);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.degree(NodeId(0)), 4);
        let k = complete(4);
        assert_eq!(k.edge_count(), 6);
        for t in [&p, &c, &g, &s, &k] {
            t.check_invariants().unwrap();
            assert!(connectivity::is_connected(t));
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn cycle_too_small_panics() {
        cycle(2);
    }

    #[test]
    fn grid_udg_matches_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [64usize, 150, 400] {
            for r in [3.0f64, 9.0, 25.0, 80.0, 200.0] {
                let pos: Vec<Point> = (0..n)
                    .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
                    .collect();
                let fast = unit_disk_graph(&pos, r);
                let slow = unit_disk_graph_naive(&pos, r);
                assert_eq!(
                    fast.edges().collect::<Vec<_>>(),
                    slow.edges().collect::<Vec<_>>(),
                    "n={n} r={r}"
                );
                fast.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn grid_udg_handles_collinear_and_identical_points() {
        // All nodes on one horizontal line (degenerate y-extent) plus
        // exact duplicates.
        let mut pos: Vec<Point> = (0..70).map(|i| Point::new(i as f64, 5.0)).collect();
        pos.push(Point::new(3.0, 5.0)); // duplicate position of node 3
        let fast = unit_disk_graph(&pos, 1.5);
        let slow = unit_disk_graph_naive(&pos, 1.5);
        assert_eq!(
            fast.edges().collect::<Vec<_>>(),
            slow.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn grid_udg_zero_and_infinite_range() {
        let pos: Vec<Point> = (0..80).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(unit_disk_graph(&pos, 0.0).edge_count(), 0);
        let all = unit_disk_graph(&pos, 1e9);
        assert_eq!(all.edge_count(), 80 * 79 / 2);
    }

    /// Random-walks a point set and checks after every step that the
    /// incrementally maintained grid graph equals a from-scratch
    /// rebuild and that the reported delta is exactly the difference.
    #[test]
    fn spatial_grid_matches_rebuild_under_random_motion() {
        let mut rng = StdRng::seed_from_u64(12);
        for (n, r, step) in [(40usize, 12.0, 3.0), (120, 9.0, 1.5), (80, 25.0, 10.0)] {
            let mut pos: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
                .collect();
            let mut grid = SpatialGrid::build(&pos, r);
            assert_eq!(
                grid.graph().edges().collect::<Vec<_>>(),
                unit_disk_graph(&pos, r).edges().collect::<Vec<_>>()
            );
            for round in 0..12 {
                let before = grid.graph().clone();
                // Move a random subset (sometimes everyone, sometimes
                // a handful; every third round nobody).
                let movers = match round % 3 {
                    0 => 0,
                    1 => n / 8 + 1,
                    _ => n,
                };
                for _ in 0..movers {
                    let i = rng.gen_range(0..n);
                    pos[i].x = (pos[i].x + (rng.gen::<f64>() - 0.5) * step).clamp(0.0, 100.0);
                    pos[i].y = (pos[i].y + (rng.gen::<f64>() - 0.5) * step).clamp(0.0, 100.0);
                }
                let delta = grid.update(&pos);
                let oracle = unit_disk_graph(&pos, r);
                assert_eq!(
                    grid.graph().edges().collect::<Vec<_>>(),
                    oracle.edges().collect::<Vec<_>>(),
                    "n={n} r={r} round={round}"
                );
                assert_eq!(
                    delta,
                    crate::delta::TopologyDelta::between(&before, &oracle)
                );
                if movers == 0 {
                    assert!(delta.is_empty());
                }
                grid.graph().check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn spatial_grid_handles_cell_crossings_and_duplicates() {
        // Nodes stacked on one point, then dispersed across many cells.
        let pos = vec![Point::new(5.0, 5.0); 6];
        let mut grid = SpatialGrid::build(&pos, 2.0);
        assert_eq!(grid.graph().edge_count(), 15);
        let spread: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let delta = grid.update(&spread);
        assert_eq!(delta.removed.len(), 15);
        assert!(delta.added.is_empty());
        assert_eq!(grid.graph().edge_count(), 0);
        assert_eq!(grid.positions(), &spread[..]);
        assert_eq!(grid.range(), 2.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn spatial_grid_rejects_degenerate_range() {
        SpatialGrid::build(&[Point::new(0.0, 0.0)], 0.0);
    }

    #[test]
    fn quasi_udg_reduces_to_udg_when_zone_empty() {
        let mut rng = StdRng::seed_from_u64(5);
        let pos: Vec<Point> = (0..30)
            .map(|_| Point::new(rng.gen::<f64>() * 50.0, rng.gen::<f64>() * 50.0))
            .collect();
        let udg = unit_disk_graph(&pos, 12.0);
        let q = quasi_unit_disk_graph(&pos, &QuasiUdgConfig::new(12.0, 12.0, 0.5), &mut rng);
        let eu: Vec<_> = udg.edges().collect();
        let eq: Vec<_> = q.edges().collect();
        assert_eq!(eu, eq);
    }

    #[test]
    fn quasi_udg_bracketed_by_inner_and_outer_disks() {
        let mut rng = StdRng::seed_from_u64(6);
        let pos: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.gen::<f64>() * 60.0, rng.gen::<f64>() * 60.0))
            .collect();
        let cfg = QuasiUdgConfig::new(8.0, 16.0, 0.5);
        let q = quasi_unit_disk_graph(&pos, &cfg, &mut rng);
        let lower = unit_disk_graph(&pos, 8.0);
        let upper = unit_disk_graph(&pos, 16.0);
        for (u, v) in lower.edges() {
            assert!(q.has_edge(u, v), "certain link ({u:?},{v:?}) missing");
        }
        for (u, v) in q.edges() {
            assert!(upper.has_edge(u, v), "link ({u:?},{v:?}) beyond outer");
        }
        q.check_invariants().unwrap();
    }

    #[test]
    fn quasi_udg_gray_probabilities_are_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let pos: Vec<Point> = (0..30)
            .map(|_| Point::new(rng.gen::<f64>() * 60.0, rng.gen::<f64>() * 60.0))
            .collect();
        let all = quasi_unit_disk_graph(&pos, &QuasiUdgConfig::new(8.0, 16.0, 1.0), &mut rng);
        let none = quasi_unit_disk_graph(&pos, &QuasiUdgConfig::new(8.0, 16.0, 0.0), &mut rng);
        let outer: Vec<_> = unit_disk_graph(&pos, 16.0).edges().collect();
        let inner: Vec<_> = unit_disk_graph(&pos, 8.0).edges().collect();
        assert_eq!(all.edges().collect::<Vec<_>>(), outer);
        assert_eq!(none.edges().collect::<Vec<_>>(), inner);
    }

    #[test]
    fn quasi_geometric_is_connected_and_calibrated() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = GeometricConfig::new(100, 100.0, 6.0);
        let net = quasi_geometric(&cfg, 1.5, 0.5, &mut rng);
        assert!(connectivity::is_connected(&net.graph));
        let d = net.graph.average_degree();
        assert!((d - 6.0).abs() < 1.5, "calibrated quasi-UDG degree {d}");
    }

    #[test]
    #[should_panic(expected = "p_gray")]
    fn quasi_udg_rejects_bad_probability() {
        QuasiUdgConfig::new(1.0, 2.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "inner <= outer")]
    fn quasi_udg_rejects_inverted_radii() {
        QuasiUdgConfig::new(3.0, 2.0, 0.5);
    }

    /// FNV-1a over a network's node count, edge list, range bits and
    /// rejection count.
    fn fingerprint(net: &GeometricNetwork) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(net.graph.len() as u64);
        for (u, v) in net.graph.edges() {
            eat(u64::from(u.0) << 32 | u64::from(v.0));
        }
        eat(net.range.to_bits());
        eat(net.rejected as u64);
        h
    }

    /// Both generators run one sampling loop; it must draw the very
    /// networks the two separate loops drew before they were merged,
    /// resampled instances included (fingerprints of those loops'
    /// output).
    #[test]
    fn shared_sampler_keeps_both_generators_bit_identical() {
        let cfg = GeometricConfig::new(80, 100.0, 6.0);
        for (seed, geometric_fp, quasi_fp) in [
            (1u64, 0x94eb_a381_0204_a097u64, 0xb42c_aed2_2e54_d098u64),
            (2, 0x2f8f_ff25_2fcc_b78a, 0xec59_5963_ca11_f29f),
            (3, 0x986e_ea69_542d_6234, 0x895a_a4df_6812_7aa9),
        ] {
            let g = geometric(&cfg, &mut StdRng::seed_from_u64(seed));
            assert_eq!(fingerprint(&g), geometric_fp, "geometric, seed {seed}");
            let q = quasi_geometric(&cfg, 1.5, 0.5, &mut StdRng::seed_from_u64(seed));
            assert_eq!(fingerprint(&q), quasi_fp, "quasi, seed {seed}");
        }
    }

    #[test]
    fn try_quasi_geometric_reports_typed_errors() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = GeometricConfig::new(60, 100.0, 6.0);
        for (outer_ratio, p_gray) in [
            (0.5, 0.5),
            (f64::NAN, 0.5),
            (f64::INFINITY, 0.5),
            (1.5, 1.5),
        ] {
            assert_eq!(
                try_quasi_geometric(&cfg, outer_ratio, p_gray, &mut rng)
                    .unwrap_err()
                    .to_string(),
                GenError::BadGrayZone {
                    outer_ratio,
                    p_gray
                }
                .to_string()
            );
        }
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = GeometricConfig::new(60, 100.0, d);
            assert!(matches!(
                try_quasi_geometric(&bad, 1.5, 0.5, &mut rng),
                Err(GenError::BadDegree(_))
            ));
        }
        assert_eq!(
            try_quasi_geometric(&GeometricConfig::new(1, 100.0, 6.0), 1.5, 0.5, &mut rng)
                .unwrap_err(),
            GenError::TooFewNodes(1)
        );
        let mut sparse = GeometricConfig::new(200, 100.0, 0.5);
        sparse.max_attempts = 3;
        assert!(matches!(
            try_quasi_geometric(&sparse, 1.5, 0.5, &mut rng),
            Err(GenError::TooSparse { attempts: 3, .. })
        ));
    }
}
