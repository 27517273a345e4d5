//! Node mobility models and topology rebuilds.
//!
//! The paper motivates small `k` by topology churn ("in ad hoc
//! networks, network topology changes frequently") and leaves a
//! movement-sensitive maintenance policy as future work. This module
//! provides the movement substrate for those experiments, behind the
//! [`Mobility`] trait:
//!
//! * [`RandomWaypoint`] — the classic MANET benchmark model: pick a
//!   uniform waypoint, travel at a per-trip random speed, pause, repeat;
//! * [`RandomDirection`] — travel in a uniform random direction for an
//!   exponential-ish (uniform) leg duration, reflecting off the area
//!   boundary; avoids random waypoint's well-known center-density bias;
//! * [`GaussMarkov`] — temporally correlated speed/heading (AR(1) with
//!   memory `alpha`), so velocity changes smoothly instead of jumping
//!   per leg.
//!
//! All models preserve the invariant that positions stay inside the
//! deployment square.

use adhoc_graph::gen::SpatialGrid;
use adhoc_graph::geom::Point;
use adhoc_graph::graph::Graph;
use rand::Rng;

pub use adhoc_graph::delta::TopologyDelta;

/// A mobility process: advances node positions by `dt` time units.
pub trait Mobility {
    /// Moves every node, updating `positions` in place.
    fn advance<R: Rng + ?Sized>(&mut self, positions: &mut [Point], dt: f64, rng: &mut R);
}

/// Random-waypoint parameters.
#[derive(Clone, Copy, Debug)]
pub struct WaypointConfig {
    /// Side of the square deployment area.
    pub side: f64,
    /// Minimum trip speed (distance units per time unit), > 0.
    pub min_speed: f64,
    /// Maximum trip speed.
    pub max_speed: f64,
    /// Pause duration at each waypoint, in time units.
    pub pause: f64,
}

impl WaypointConfig {
    /// A typical MANET setting scaled to the paper's 100×100 area.
    pub fn default_for_side(side: f64) -> Self {
        WaypointConfig {
            side,
            min_speed: 1.0,
            max_speed: 5.0,
            pause: 2.0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct NodeMotion {
    target: Point,
    speed: f64,
    pause_left: f64,
}

/// A random-waypoint mobility process over a set of node positions.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    cfg: WaypointConfig,
    motions: Vec<NodeMotion>,
}

impl RandomWaypoint {
    /// Initializes motion state for `n` nodes (each immediately en
    /// route to a fresh waypoint).
    ///
    /// # Panics
    /// Panics on degenerate speeds.
    pub fn new<R: Rng + ?Sized>(n: usize, cfg: WaypointConfig, rng: &mut R) -> Self {
        assert!(
            cfg.min_speed > 0.0 && cfg.max_speed >= cfg.min_speed,
            "speeds must satisfy 0 < min <= max"
        );
        let motions = (0..n)
            .map(|_| NodeMotion {
                target: random_point(cfg.side, rng),
                speed: rng.gen_range(cfg.min_speed..=cfg.max_speed),
                pause_left: 0.0,
            })
            .collect();
        RandomWaypoint { cfg, motions }
    }

    /// Advances every node by `dt` time units, updating `positions` in
    /// place. Nodes that reach their waypoint pause, then head to a new
    /// one.
    ///
    /// # Panics
    /// Panics if `positions.len()` differs from the initialized count.
    pub fn step<R: Rng + ?Sized>(&mut self, positions: &mut [Point], dt: f64, rng: &mut R) {
        assert_eq!(positions.len(), self.motions.len());
        for (pos, m) in positions.iter_mut().zip(self.motions.iter_mut()) {
            let mut left = dt;
            while left > 0.0 {
                if m.pause_left > 0.0 {
                    let used = m.pause_left.min(left);
                    m.pause_left -= used;
                    left -= used;
                    continue;
                }
                let to_target = pos.distance(&m.target);
                let reach = m.speed * left;
                if reach >= to_target {
                    // Arrive, pause, then re-target.
                    *pos = m.target;
                    left -= if m.speed > 0.0 {
                        to_target / m.speed
                    } else {
                        left
                    };
                    m.pause_left = self.cfg.pause;
                    m.target = random_point(self.cfg.side, rng);
                    m.speed = rng.gen_range(self.cfg.min_speed..=self.cfg.max_speed);
                } else {
                    let f = reach / to_target;
                    pos.x += (m.target.x - pos.x) * f;
                    pos.y += (m.target.y - pos.y) * f;
                    left = 0.0;
                }
            }
        }
    }
}

impl Mobility for RandomWaypoint {
    fn advance<R: Rng + ?Sized>(&mut self, positions: &mut [Point], dt: f64, rng: &mut R) {
        self.step(positions, dt, rng);
    }
}

fn random_point<R: Rng + ?Sized>(side: f64, rng: &mut R) -> Point {
    Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side)
}

/// Reflects `x` into `[0, side]` (mirror at both walls) and flips the
/// corresponding velocity sign when a reflection happened.
fn reflect(x: &mut f64, v: &mut f64, side: f64) {
    if *x < 0.0 {
        *x = -*x;
        *v = -*v;
    }
    if *x > side {
        *x = 2.0 * side - *x;
        *v = -*v;
    }
    // One reflection suffices for the step sizes the models produce;
    // clamp defensively against extreme dt.
    *x = x.clamp(0.0, side);
}

/// Random-direction parameters.
#[derive(Clone, Copy, Debug)]
pub struct DirectionConfig {
    /// Side of the square deployment area.
    pub side: f64,
    /// Minimum leg speed, > 0.
    pub min_speed: f64,
    /// Maximum leg speed.
    pub max_speed: f64,
    /// Leg duration bounds (uniform), > 0.
    pub min_leg: f64,
    /// Upper leg duration bound.
    pub max_leg: f64,
}

impl DirectionConfig {
    /// Defaults matched to [`WaypointConfig::default_for_side`] speeds.
    pub fn default_for_side(side: f64) -> Self {
        DirectionConfig {
            side,
            min_speed: 1.0,
            max_speed: 5.0,
            min_leg: 2.0,
            max_leg: 10.0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Leg {
    vx: f64,
    vy: f64,
    time_left: f64,
}

/// The random-direction model: straight legs in uniform directions,
/// reflecting off the boundary. Unlike random waypoint it keeps the
/// spatial node distribution (asymptotically) uniform.
#[derive(Clone, Debug)]
pub struct RandomDirection {
    cfg: DirectionConfig,
    legs: Vec<Leg>,
}

impl RandomDirection {
    /// Initializes `n` nodes, each on a fresh leg.
    ///
    /// # Panics
    /// Panics on degenerate speeds or leg durations.
    pub fn new<R: Rng + ?Sized>(n: usize, cfg: DirectionConfig, rng: &mut R) -> Self {
        assert!(
            cfg.min_speed > 0.0 && cfg.max_speed >= cfg.min_speed,
            "speeds must satisfy 0 < min <= max"
        );
        assert!(
            cfg.min_leg > 0.0 && cfg.max_leg >= cfg.min_leg,
            "leg durations must satisfy 0 < min <= max"
        );
        let legs = (0..n).map(|_| Self::fresh_leg(&cfg, rng)).collect();
        RandomDirection { cfg, legs }
    }

    fn fresh_leg<R: Rng + ?Sized>(cfg: &DirectionConfig, rng: &mut R) -> Leg {
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        let speed = rng.gen_range(cfg.min_speed..=cfg.max_speed);
        Leg {
            vx: speed * theta.cos(),
            vy: speed * theta.sin(),
            time_left: rng.gen_range(cfg.min_leg..=cfg.max_leg),
        }
    }
}

impl Mobility for RandomDirection {
    fn advance<R: Rng + ?Sized>(&mut self, positions: &mut [Point], dt: f64, rng: &mut R) {
        assert_eq!(positions.len(), self.legs.len());
        for (pos, leg) in positions.iter_mut().zip(self.legs.iter_mut()) {
            let mut left = dt;
            while left > 0.0 {
                let used = leg.time_left.min(left);
                pos.x += leg.vx * used;
                pos.y += leg.vy * used;
                reflect(&mut pos.x, &mut leg.vx, self.cfg.side);
                reflect(&mut pos.y, &mut leg.vy, self.cfg.side);
                leg.time_left -= used;
                left -= used;
                if leg.time_left <= 0.0 {
                    *leg = Self::fresh_leg(&self.cfg, rng);
                }
            }
        }
    }
}

/// Gauss-Markov parameters.
#[derive(Clone, Copy, Debug)]
pub struct GaussMarkovConfig {
    /// Side of the square deployment area.
    pub side: f64,
    /// Memory parameter in `[0, 1]`: `1` = constant velocity, `0` =
    /// memoryless (new speed/heading each step).
    pub alpha: f64,
    /// Long-run mean speed, > 0.
    pub mean_speed: f64,
    /// Standard deviation of the speed innovation.
    pub speed_sigma: f64,
    /// Standard deviation of the heading innovation (radians).
    pub heading_sigma: f64,
    /// Update interval: velocity is re-sampled every `tick` time units.
    pub tick: f64,
}

impl GaussMarkovConfig {
    /// A moderately correlated default (`alpha = 0.85`).
    pub fn default_for_side(side: f64) -> Self {
        GaussMarkovConfig {
            side,
            alpha: 0.85,
            mean_speed: 3.0,
            speed_sigma: 1.0,
            heading_sigma: 0.4,
            tick: 1.0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct VelocityState {
    speed: f64,
    heading: f64,
}

/// The Gauss-Markov model: speed and heading follow AR(1) processes, so
/// consecutive velocities are correlated (`alpha` controls how much).
#[derive(Clone, Debug)]
pub struct GaussMarkov {
    cfg: GaussMarkovConfig,
    states: Vec<VelocityState>,
    /// Per-node long-run mean heading; steered toward the area center
    /// when a node reflects, preventing boundary clinging.
    mean_heading: Vec<f64>,
}

impl GaussMarkov {
    /// Initializes `n` nodes at mean speed with uniform headings.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `[0, 1]` or speeds/tick degenerate.
    pub fn new<R: Rng + ?Sized>(n: usize, cfg: GaussMarkovConfig, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&cfg.alpha), "alpha must be in [0, 1]");
        assert!(cfg.mean_speed > 0.0, "mean speed must be positive");
        assert!(cfg.tick > 0.0, "tick must be positive");
        let states = (0..n)
            .map(|_| VelocityState {
                speed: cfg.mean_speed,
                heading: rng.gen::<f64>() * std::f64::consts::TAU,
            })
            .collect();
        let mean_heading = (0..n)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        GaussMarkov {
            cfg,
            states,
            mean_heading,
        }
    }

    /// A standard-normal draw (Box-Muller; two uniforms per call keeps
    /// the stream deterministic and allocation-free).
    fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Mobility for GaussMarkov {
    fn advance<R: Rng + ?Sized>(&mut self, positions: &mut [Point], dt: f64, rng: &mut R) {
        assert_eq!(positions.len(), self.states.len());
        let cfg = self.cfg;
        let a = cfg.alpha;
        let comp = (1.0 - a * a).max(0.0).sqrt();
        for ((pos, st), mh) in positions
            .iter_mut()
            .zip(self.states.iter_mut())
            .zip(self.mean_heading.iter_mut())
        {
            let mut left = dt;
            while left > 0.0 {
                let used = cfg.tick.min(left);
                let mut vx = st.speed * st.heading.cos();
                let mut vy = st.speed * st.heading.sin();
                pos.x += vx * used;
                pos.y += vy * used;
                let bounced_x = pos.x < 0.0 || pos.x > cfg.side;
                let bounced_y = pos.y < 0.0 || pos.y > cfg.side;
                reflect(&mut pos.x, &mut vx, cfg.side);
                reflect(&mut pos.y, &mut vy, cfg.side);
                if bounced_x || bounced_y {
                    st.heading = vy.atan2(vx);
                    // Re-aim the mean heading at the area center so the
                    // AR(1) drift pulls away from the wall.
                    *mh = (cfg.side / 2.0 - pos.y).atan2(cfg.side / 2.0 - pos.x);
                }
                // AR(1) updates.
                st.speed = a * st.speed
                    + (1.0 - a) * cfg.mean_speed
                    + comp * cfg.speed_sigma * Self::gaussian(rng);
                st.speed = st.speed.max(0.0);
                st.heading = a * st.heading
                    + (1.0 - a) * *mh
                    + comp * cfg.heading_sigma * Self::gaussian(rng);
                left -= used;
            }
        }
    }
}

/// A mobile network: positions, a fixed transmission range, and the
/// induced unit-disk topology, advanced by a [`Mobility`] model
/// (random waypoint by default).
///
/// The topology lives in a [`SpatialGrid`], so each [`Self::step`]
/// updates the adjacency **incrementally** from the moved positions
/// (`O(moved · local density)`) and returns the exact edge churn as a
/// [`TopologyDelta`] — the input the incremental maintenance engine
/// (`adhoc_sim::churn`) consumes.
#[derive(Clone, Debug)]
pub struct MobileNetwork<M: Mobility = RandomWaypoint> {
    grid: SpatialGrid,
    /// Position scratch the mobility model advances each step (the
    /// grid owns the committed positions).
    next_positions: Vec<Point>,
    model: M,
}

impl MobileNetwork<RandomWaypoint> {
    /// Wraps an initial deployment in a random-waypoint process.
    pub fn new<R: Rng + ?Sized>(
        positions: Vec<Point>,
        range: f64,
        cfg: WaypointConfig,
        rng: &mut R,
    ) -> Self {
        let model = RandomWaypoint::new(positions.len(), cfg, rng);
        Self::with_model(positions, range, model)
    }
}

impl<M: Mobility> MobileNetwork<M> {
    /// Wraps an initial deployment in an arbitrary mobility model.
    pub fn with_model(positions: Vec<Point>, range: f64, model: M) -> Self {
        MobileNetwork {
            next_positions: positions.clone(),
            grid: SpatialGrid::build(&positions, range),
            model,
        }
    }

    /// Current connectivity graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.grid.graph()
    }

    /// Current node positions.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        self.grid.positions()
    }

    /// Common transmission range.
    #[inline]
    pub fn range(&self) -> f64 {
        self.grid.range()
    }

    /// Moves every node by `dt`, updates the topology incrementally,
    /// and reports the exact edge churn.
    pub fn step<R: Rng + ?Sized>(&mut self, dt: f64, rng: &mut R) -> TopologyDelta {
        self.next_positions.copy_from_slice(self.grid.positions());
        self.model.advance(&mut self.next_positions, dt, rng);
        self.grid.update(&self.next_positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn positions_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = WaypointConfig::default_for_side(100.0);
        let mut positions: Vec<Point> = (0..20)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let mut wp = RandomWaypoint::new(20, cfg, &mut rng);
        for _ in 0..200 {
            wp.step(&mut positions, 1.0, &mut rng);
            for p in &positions {
                assert!(p.x >= 0.0 && p.x <= 100.0);
                assert!(p.y >= 0.0 && p.y <= 100.0);
            }
        }
    }

    #[test]
    fn movement_bounded_by_max_speed() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = WaypointConfig {
            side: 100.0,
            min_speed: 1.0,
            max_speed: 3.0,
            pause: 0.0,
        };
        let mut positions = vec![Point::new(50.0, 50.0); 5];
        let mut wp = RandomWaypoint::new(5, cfg, &mut rng);
        let before = positions.clone();
        let dt = 2.0;
        wp.step(&mut positions, dt, &mut rng);
        for (b, a) in before.iter().zip(&positions) {
            // A node may chain several trips within dt; total distance
            // traveled is still at most max_speed * dt (+ float slop).
            assert!(b.distance(a) <= cfg.max_speed * dt + 1e-9);
        }
    }

    #[test]
    fn pause_halts_motion() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = WaypointConfig {
            side: 10.0,
            min_speed: 100.0, // reach waypoint almost immediately
            max_speed: 100.0,
            pause: 1e6, // then pause ~forever
        };
        let mut positions = vec![Point::new(5.0, 5.0)];
        let mut wp = RandomWaypoint::new(1, cfg, &mut rng);
        wp.step(&mut positions, 1.0, &mut rng); // arrives, starts pausing
        let frozen = positions[0];
        wp.step(&mut positions, 10.0, &mut rng);
        assert_eq!(positions[0], frozen);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn bad_speeds_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        RandomWaypoint::new(
            1,
            WaypointConfig {
                side: 10.0,
                min_speed: 5.0,
                max_speed: 1.0,
                pause: 0.0,
            },
            &mut rng,
        );
    }

    #[test]
    fn topology_delta_counts() {
        use adhoc_graph::graph::NodeId;
        let a = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let b = Graph::from_edges(4, &[(1, 2), (2, 3)]);
        let d = TopologyDelta::between(&a, &b);
        assert_eq!(d.added, vec![(NodeId(2), NodeId(3))]);
        assert_eq!(d.removed, vec![(NodeId(0), NodeId(1))]);
        assert_eq!(d.churn(), 2);
        assert_eq!(TopologyDelta::between(&a, &a).churn(), 0);
    }

    /// The incrementally maintained mobile topology equals a from-
    /// scratch unit-disk rebuild after every step, and the reported
    /// delta is exactly the edge difference.
    #[test]
    fn mobile_network_topology_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(91);
        let positions: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let mut net = MobileNetwork::new(
            positions,
            20.0,
            WaypointConfig::default_for_side(100.0),
            &mut rng,
        );
        for _ in 0..15 {
            let before = net.graph().clone();
            let delta = net.step(1.0, &mut rng);
            let oracle = gen::unit_disk_graph(net.positions(), net.range());
            assert_eq!(
                net.graph().edges().collect::<Vec<_>>(),
                oracle.edges().collect::<Vec<_>>()
            );
            assert_eq!(delta, TopologyDelta::between(&before, &oracle));
        }
    }

    #[test]
    fn random_direction_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = DirectionConfig::default_for_side(100.0);
        let mut positions: Vec<Point> = (0..25)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let mut model = RandomDirection::new(25, cfg, &mut rng);
        for _ in 0..300 {
            model.advance(&mut positions, 1.0, &mut rng);
            for p in &positions {
                assert!(p.x >= 0.0 && p.x <= 100.0, "x = {}", p.x);
                assert!(p.y >= 0.0 && p.y <= 100.0, "y = {}", p.y);
            }
        }
    }

    #[test]
    fn random_direction_moves_nodes() {
        let mut rng = StdRng::seed_from_u64(22);
        let cfg = DirectionConfig::default_for_side(100.0);
        let mut positions = vec![Point::new(50.0, 50.0); 10];
        let before = positions.clone();
        let mut model = RandomDirection::new(10, cfg, &mut rng);
        model.advance(&mut positions, 5.0, &mut rng);
        let moved = positions
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.distance(b) > 1e-9)
            .count();
        assert_eq!(moved, 10, "random direction has no pauses");
    }

    #[test]
    #[should_panic(expected = "leg durations")]
    fn random_direction_bad_legs_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        RandomDirection::new(
            1,
            DirectionConfig {
                side: 10.0,
                min_speed: 1.0,
                max_speed: 2.0,
                min_leg: 5.0,
                max_leg: 1.0,
            },
            &mut rng,
        );
    }

    #[test]
    fn gauss_markov_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = GaussMarkovConfig::default_for_side(100.0);
        let mut positions: Vec<Point> = (0..25)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let mut model = GaussMarkov::new(25, cfg, &mut rng);
        for _ in 0..300 {
            model.advance(&mut positions, 1.0, &mut rng);
            for p in &positions {
                assert!(p.x >= 0.0 && p.x <= 100.0, "x = {}", p.x);
                assert!(p.y >= 0.0 && p.y <= 100.0, "y = {}", p.y);
            }
        }
    }

    #[test]
    fn gauss_markov_alpha_one_keeps_speed_constant() {
        let mut rng = StdRng::seed_from_u64(24);
        let cfg = GaussMarkovConfig {
            side: 1000.0,
            alpha: 1.0, // full memory: velocity never changes (until a wall)
            mean_speed: 2.0,
            speed_sigma: 5.0,
            heading_sigma: 5.0,
            tick: 1.0,
        };
        let mut positions = vec![Point::new(500.0, 500.0)];
        let mut model = GaussMarkov::new(1, cfg, &mut rng);
        let before = positions[0];
        model.advance(&mut positions, 3.0, &mut rng);
        // Far from walls, three ticks at constant speed 2 ⇒ distance 6.
        assert!((before.distance(&positions[0]) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn gauss_markov_velocity_correlation_increases_with_alpha() {
        // Smoothness metric: mean per-tick displacement-direction
        // change. High alpha must turn less than low alpha.
        let turn = |alpha: f64| {
            let mut rng = StdRng::seed_from_u64(77);
            let cfg = GaussMarkovConfig {
                side: 10_000.0, // effectively wall-free
                alpha,
                mean_speed: 3.0,
                speed_sigma: 1.0,
                heading_sigma: 0.5,
                tick: 1.0,
            };
            let mut positions = vec![Point::new(5000.0, 5000.0); 20];
            let mut model = GaussMarkov::new(20, cfg, &mut rng);
            let mut prev = positions.clone();
            let mut headings: Vec<f64> = vec![f64::NAN; 20];
            let mut total = 0.0;
            let mut count = 0usize;
            for _ in 0..100 {
                model.advance(&mut positions, 1.0, &mut rng);
                for i in 0..20 {
                    let dx = positions[i].x - prev[i].x;
                    let dy = positions[i].y - prev[i].y;
                    if dx.hypot(dy) > 1e-12 {
                        let h = dy.atan2(dx);
                        if headings[i].is_finite() {
                            let mut dh = (h - headings[i]).abs();
                            if dh > std::f64::consts::PI {
                                dh = std::f64::consts::TAU - dh;
                            }
                            total += dh;
                            count += 1;
                        }
                        headings[i] = h;
                    }
                }
                prev.clone_from(&positions);
            }
            total / count as f64
        };
        assert!(
            turn(0.95) < turn(0.1),
            "alpha=0.95 should turn less than alpha=0.1"
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn gauss_markov_bad_alpha_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        GaussMarkov::new(
            1,
            GaussMarkovConfig {
                alpha: 1.5,
                ..GaussMarkovConfig::default_for_side(10.0)
            },
            &mut rng,
        );
    }

    #[test]
    fn mobile_network_with_alternative_models() {
        let mut rng = StdRng::seed_from_u64(31);
        let positions: Vec<Point> = (0..30)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let model = RandomDirection::new(30, DirectionConfig::default_for_side(100.0), &mut rng);
        let mut net = MobileNetwork::with_model(positions.clone(), 25.0, model);
        let mut churn = 0;
        for _ in 0..20 {
            churn += net.step(5.0, &mut rng).churn();
        }
        assert!(churn > 0);
        net.graph().check_invariants().unwrap();

        let model = GaussMarkov::new(30, GaussMarkovConfig::default_for_side(100.0), &mut rng);
        let mut net = MobileNetwork::with_model(positions, 25.0, model);
        let mut churn = 0;
        for _ in 0..20 {
            churn += net.step(5.0, &mut rng).churn();
        }
        assert!(churn > 0);
        net.graph().check_invariants().unwrap();
    }

    #[test]
    fn reflect_maps_into_range_and_flips_velocity() {
        let mut x = -3.0;
        let mut v = -1.0;
        reflect(&mut x, &mut v, 10.0);
        assert_eq!((x, v), (3.0, 1.0));
        let mut x = 12.0;
        let mut v = 2.0;
        reflect(&mut x, &mut v, 10.0);
        assert_eq!((x, v), (8.0, -2.0));
        let mut x = 5.0;
        let mut v = 1.0;
        reflect(&mut x, &mut v, 10.0);
        assert_eq!((x, v), (5.0, 1.0));
    }

    #[test]
    fn mobile_network_steps_and_reports_churn() {
        let mut rng = StdRng::seed_from_u64(77);
        let positions: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let mut net = MobileNetwork::new(
            positions,
            25.0,
            WaypointConfig::default_for_side(100.0),
            &mut rng,
        );
        let mut total_churn = 0;
        for _ in 0..20 {
            total_churn += net.step(5.0, &mut rng).churn();
        }
        assert!(total_churn > 0, "forty mobile nodes must churn some edges");
        net.graph().check_invariants().unwrap();
    }
}
