//! FLOOR's base-connectivity certificate over its static sensors.
//!
//! §4.1's test asks, every period, whether each movable sensor still
//! reaches the base. Fixed and movable sensors never move, so a path of
//! `rc` links through them, once found, stands until one of them starts
//! to move. [`StaticReach`] keeps the base flood over those sensors
//! alone, as a forest of the links that found each one, and answers
//! from it; only a movable it does not reach asks the world's full
//! flood, which forces a repair of every moved sensor's neighbor list.

use super::FState;
use msn_net::within_range;
use msn_sim::World;

/// Whether a sensor in state `s` holds still: fixed and movable
/// sensors never move, walkers and recruits do.
fn is_static(s: FState) -> bool {
    matches!(s, FState::Fixed | FState::Movable)
}

/// `via` of a sensor linked to the base itself.
const BASE: usize = usize::MAX;

/// The base flood over the static sensors, with range queries at `rc`
/// on the world's buckets (the link rule of the adjacency lists, which
/// it never syncs).
///
/// Once flooded, `reach` is always exactly that flood over the current
/// static set: a sensor joining the set extends it
/// ([`StaticReach::join`]); a reached one leaving it
/// ([`StaticReach::leave`]) cuts the sensors the flood found through
/// it and floods those back in through the rest.
#[derive(Debug)]
pub(super) struct StaticReach {
    flooded: bool,
    reach: Vec<bool>,
    /// `via[v]`: the reached sensor (or [`BASE`]) through which the
    /// flood found reached sensor `v`.
    via: Vec<usize>,
    /// The reached sensors, each after its `via`.
    order: Vec<usize>,
    /// Reused BFS queue.
    queue: Vec<usize>,
    /// Reused range-query buffer.
    nbrs: Vec<usize>,
}

impl StaticReach {
    /// A certificate for `n` sensors, flooded on its first question.
    pub(super) fn new(n: usize) -> Self {
        StaticReach {
            flooded: false,
            reach: vec![false; n],
            via: vec![BASE; n],
            order: Vec::new(),
            queue: Vec::new(),
            nbrs: Vec::new(),
        }
    }

    /// Whether movable `i` reaches the base — always equal to
    /// [`World::connected_tracked`]. A movable the static flood reaches
    /// is connected through its certifying path; any other is asked of
    /// the world's flood, which also sees paths through walkers and
    /// recruits.
    pub(super) fn connected(&mut self, i: usize, world: &mut World, state: &[FState]) -> bool {
        if !self.flooded {
            self.flood(world, state);
        }
        if self.reach[i] {
            msn_obs::counter("floor.conn_static", 1);
            debug_assert!(
                world.connected_tracked(i),
                "static flood certified movable {i}, which is cut off"
            );
            return true;
        }
        msn_obs::counter("floor.conn_flood", 1);
        world.connected_tracked(i)
    }

    /// Static sensor `i` starts to move (`state[i]` is no longer
    /// fixed or movable). Only the sensors the flood found through `i`
    /// lose their path: they are cut, and those still linked to the
    /// base or to a sensor that kept its path flood back in.
    pub(super) fn leave(&mut self, i: usize, world: &mut World, state: &[FState]) {
        debug_assert!(!is_static(state[i]));
        if !self.reach[i] {
            return;
        }
        // Cut `i` and everything found through it: `order` lists each
        // sensor after its `via`, so one pass sees every cut parent
        // before its children.
        self.reach[i] = false;
        let mut cut = Vec::new();
        for &v in &self.order {
            let p = self.via[v];
            if v != i && p != BASE && !self.reach[p] {
                self.reach[v] = false;
                cut.push(v);
            }
        }
        let reach = &self.reach;
        self.order.retain(|&v| reach[v]);
        msn_obs::counter("floor.static_cut", cut.len() as u64 + 1);
        // Re-seed the cut sensors linked to the base or to an uncut
        // reached sensor; the flood from them finds the rest.
        let (base, rc) = (world.cfg().base, world.cfg().rc);
        self.queue.clear();
        for &v in &cut {
            if within_range(world.pos(v), base, rc) {
                self.reach_via(v, BASE);
                continue;
            }
            world.neighbors_tracked_into(v, rc, &mut self.nbrs);
            if let Some(&j) = self.nbrs.iter().find(|&&j| self.reach[j]) {
                self.reach_via(v, j);
            }
        }
        self.spread(world, state);
    }

    /// Sensor `i` became static (`state[i]` fixed or movable). The
    /// flood stays the flood of the grown set: `i` is reached if it is
    /// within `rc` of the base or of a reached sensor, and then reaches
    /// on through the unreached static sensors around it.
    pub(super) fn join(&mut self, i: usize, world: &mut World, state: &[FState]) {
        debug_assert!(is_static(state[i]));
        if !self.flooded {
            return;
        }
        let (base, rc) = (world.cfg().base, world.cfg().rc);
        self.queue.clear();
        if within_range(world.pos(i), base, rc) {
            self.reach_via(i, BASE);
        } else {
            world.neighbors_tracked_into(i, rc, &mut self.nbrs);
            if let Some(&j) = self.nbrs.iter().find(|&&j| self.reach[j]) {
                self.reach_via(i, j);
            }
        }
        self.spread(world, state);
    }

    /// Floods from the base over the static sensors.
    fn flood(&mut self, world: &mut World, state: &[FState]) {
        let (base, rc) = (world.cfg().base, world.cfg().rc);
        self.queue.clear();
        for (i, &p) in world.positions().iter().enumerate() {
            if is_static(state[i]) && within_range(p, base, rc) {
                self.reach_via(i, BASE);
            }
        }
        self.spread(world, state);
        self.flooded = true;
    }

    /// Marks `v` reached through `via` and queues it.
    fn reach_via(&mut self, v: usize, via: usize) {
        self.reach[v] = true;
        self.via[v] = via;
        self.order.push(v);
        self.queue.push(v);
    }

    /// Breadth-first from the queued (reached) sensors to every static
    /// sensor they reach.
    fn spread(&mut self, world: &mut World, state: &[FState]) {
        let rc = world.cfg().rc;
        let mut nbrs = std::mem::take(&mut self.nbrs);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            world.neighbors_tracked_into(u, rc, &mut nbrs);
            for &v in &nbrs {
                if !self.reach[v] && is_static(state[v]) {
                    self.reach_via(v, u);
                }
            }
        }
        self.nbrs = nbrs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_field::Field;
    use msn_geom::Point;
    use msn_sim::SimConfig;
    use proptest::prelude::*;

    /// A world with sensors at `pts`, rc = 20 from a base at the origin.
    fn world(pts: Vec<Point>) -> World {
        let cfg = SimConfig::paper(20.0, 15.0)
            .with_duration(10.0)
            .with_coverage_cell(10.0);
        World::new(Field::open(200.0, 200.0), cfg, pts, None)
    }

    /// A world with sensors on the x axis at `xs`.
    fn line(xs: &[f64]) -> World {
        world(xs.iter().map(|&x| Point::new(x, 0.0)).collect())
    }

    /// The static flood computed afresh.
    fn fresh(world: &mut World, state: &[FState]) -> Vec<bool> {
        let mut reach = StaticReach::new(state.len());
        reach.flood(world, state);
        reach.reach
    }

    /// Runs `f` under a fresh profile collector and returns the
    /// `(floor.conn_static, floor.conn_flood, floor.static_cut)`
    /// counts it recorded.
    fn counted(f: impl FnOnce()) -> (u64, u64, u64) {
        msn_obs::start();
        f();
        let r = msn_obs::finish().expect("collector installed");
        (
            r.counter_total("floor.conn_static"),
            r.counter_total("floor.conn_flood"),
            r.counter_total("floor.static_cut"),
        )
    }

    #[test]
    fn a_movable_reached_only_through_a_walker_falls_back() {
        // fixed 0 by the base, walker 1 bridging to movable 2
        let mut world = line(&[10.0, 25.0, 40.0]);
        let state = [FState::Fixed, FState::Walking, FState::Movable];
        let mut reach = StaticReach::new(3);
        let counts = counted(|| assert!(reach.connected(2, &mut world, &state)));
        assert_eq!(counts, (0, 1, 0), "the static flood cannot reach 2");
        // the walker walks off: the fallback sees the cut
        world.set_pos(1, Point::new(25.0, 60.0));
        let counts = counted(|| assert!(!reach.connected(2, &mut world, &state)));
        assert_eq!(counts, (0, 1, 0));
    }

    #[test]
    fn a_recruit_leaving_the_static_set_recuts_the_flood() {
        // a static chain base - 0 - 1 - 2
        let mut world = line(&[10.0, 25.0, 40.0]);
        let mut state = [FState::Fixed, FState::Movable, FState::Movable];
        let mut reach = StaticReach::new(3);
        let counts = counted(|| assert!(reach.connected(2, &mut world, &state)));
        assert_eq!(counts, (1, 0, 0), "certified by the static flood");
        // movable 1 is recruited and walks away: the certificate of 2
        // went through it
        state[1] = FState::Relocating;
        let counts = counted(|| reach.leave(1, &mut world, &state));
        assert_eq!(
            counts,
            (0, 0, 2),
            "1 and the sensor found through it are cut"
        );
        assert_eq!(reach.reach, [true, false, false]);
        world.set_pos(1, Point::new(25.0, 60.0));
        let counts = counted(|| assert!(!reach.connected(2, &mut world, &state)));
        assert_eq!(counts, (0, 1, 0), "the fallback sees the cut");
        // it arrives back and becomes fixed: joining extends the flood
        world.set_pos(1, Point::new(25.0, 0.0));
        state[1] = FState::Fixed;
        reach.join(1, &mut world, &state);
        let counts = counted(|| assert!(reach.connected(2, &mut world, &state)));
        assert_eq!(counts, (1, 0, 0), "certified again");
    }

    #[test]
    fn a_cut_sensor_with_a_second_path_floods_back_in() {
        // 0 by the base; 1 and 2 both bridge it to 3
        let mut world = world(vec![
            Point::new(10.0, 0.0),
            Point::new(20.0, 10.0),
            Point::new(24.0, 0.0),
            Point::new(35.0, 0.0),
        ]);
        // whichever bridge the flood went through, 3 keeps a path
        for leaver in [1, 2] {
            let mut state = [FState::Fixed; 4];
            let mut reach = StaticReach::new(4);
            assert!(reach.connected(3, &mut world, &state));
            state[leaver] = FState::Relocating;
            reach.leave(leaver, &mut world, &state);
            assert!(reach.reach[3], "bridge {leaver} left");
            assert_eq!(reach.reach, fresh(&mut world, &state));
        }
    }

    #[test]
    fn an_unreached_sensor_leaving_cuts_nothing() {
        // 2 is cut off from the static chain 0 - 1
        let mut world = line(&[10.0, 25.0, 90.0]);
        let mut state = [FState::Fixed, FState::Movable, FState::Movable];
        let mut reach = StaticReach::new(3);
        let counts = counted(|| {
            assert!(reach.connected(1, &mut world, &state));
            assert!(!reach.connected(2, &mut world, &state));
        });
        assert_eq!(counts, (1, 1, 0));
        state[2] = FState::Walking;
        let counts = counted(|| reach.leave(2, &mut world, &state));
        assert_eq!(counts, (0, 0, 0), "no certified path ran through 2");
        world.set_pos(2, Point::new(70.0, 0.0));
        let counts = counted(|| assert!(reach.connected(1, &mut world, &state)));
        assert_eq!(counts, (1, 0, 0));
    }

    proptest! {
        #[test]
        fn leaves_and_joins_keep_the_exact_static_flood(
            pts in prop::collection::vec((0.0..90.0f64, 0.0..90.0f64), 1..40),
            moving in prop::collection::vec(0u8..2, 40),
            steps in prop::collection::vec((0usize..40, 0.0..90.0f64, 0.0..90.0f64), 1..30),
        ) {
            // Sensors go in and out of the static set, moving only while
            // out of it; after every step the maintained flood equals a
            // fresh one, and every answer equals the world's flood.
            let n = pts.len();
            let mut world = world(pts.iter().map(|&(x, y)| Point::new(x, y)).collect());
            let mut state: Vec<FState> = (0..n)
                .map(|i| if moving[i] == 1 { FState::Walking } else { FState::Movable })
                .collect();
            let mut reach = StaticReach::new(n);
            reach.flood(&mut world, &state);
            for &(k, x, y) in &steps {
                let i = k % n;
                if is_static(state[i]) {
                    state[i] = FState::Relocating;
                    reach.leave(i, &mut world, &state);
                } else {
                    world.set_pos(i, Point::new(x, y));
                    state[i] = FState::Fixed;
                    reach.join(i, &mut world, &state);
                }
                prop_assert_eq!(&reach.reach, &fresh(&mut world, &state));
                for j in 0..n {
                    prop_assert_eq!(
                        reach.connected(j, &mut world, &state),
                        world.connected_tracked(j)
                    );
                }
            }
        }
    }
}
