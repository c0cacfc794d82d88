//! Floor-header bookkeeping (§5.4).
//!
//! Each floor's *header node* (the fixed node with the smallest x on
//! that floor) records the locations of the floor's nodes, letting any
//! sensor determine the coverage status of a point beyond its own
//! sensing range with a couple of tree-routed query messages instead
//! of flooding.

use super::FloorLines;
use msn_geom::Point;

/// A token identifying a virtual place-holder node, returned by
/// [`FloorRegistry::add_virtual`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualToken {
    floor: usize,
    slot: usize,
}

#[derive(Debug, Clone)]
struct FloorData {
    /// `(position, sensor id)` of fixed nodes registered on this floor.
    real: Vec<(Point, usize)>,
    /// Virtual place-holder nodes `(position, claiming recruit id)`;
    /// `None` slots were released or fulfilled.
    virtuals: Vec<Option<(Point, usize)>>,
}

/// Per-floor node location records plus header-node identification.
///
/// # Examples
///
/// ```
/// use msn_deploy::floor::{FloorLines, FloorRegistry};
/// use msn_geom::{Point, Rect};
///
/// let lines = FloorLines::new(Rect::new(0.0, 0.0, 400.0, 400.0), 40.0);
/// let mut reg = FloorRegistry::new(lines);
/// reg.register_real(7, Point::new(100.0, 40.0));
/// assert!(reg.covers(Point::new(120.0, 50.0), 40.0));
/// assert_eq!(reg.header(0), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct FloorRegistry {
    lines: FloorLines,
    floors: Vec<FloorData>,
}

impl FloorRegistry {
    /// An empty registry over the given floor decomposition.
    pub fn new(lines: FloorLines) -> Self {
        let floors = vec![
            FloorData {
                real: Vec::new(),
                virtuals: Vec::new(),
            };
            lines.count()
        ];
        FloorRegistry { lines, floors }
    }

    /// The floor decomposition.
    pub fn lines(&self) -> &FloorLines {
        &self.lines
    }

    /// Registers a fixed node at `pos` (floor derived from the
    /// position).
    pub fn register_real(&mut self, id: usize, pos: Point) {
        let k = self.lines.floor_index(pos.y);
        self.floors[k].real.push((pos, id));
    }

    /// Reserves `pos` with a virtual place-holder node (§5.5.2) for
    /// the recruit `claimed_by`; returns a token to release or fulfill
    /// it later.
    pub fn add_virtual(&mut self, pos: Point, claimed_by: usize) -> VirtualToken {
        let k = self.lines.floor_index(pos.y);
        let data = &mut self.floors[k];
        if let Some(slot) = data.virtuals.iter().position(Option::is_none) {
            data.virtuals[slot] = Some((pos, claimed_by));
            return VirtualToken { floor: k, slot };
        }
        data.virtuals.push(Some((pos, claimed_by)));
        VirtualToken {
            floor: k,
            slot: data.virtuals.len() - 1,
        }
    }

    /// Releases a virtual node (recruit gave up).
    pub fn release_virtual(&mut self, token: VirtualToken) {
        self.floors[token.floor].virtuals[token.slot] = None;
    }

    /// Replaces a virtual node with the arrived recruit's real
    /// registration.
    pub fn fulfill_virtual(&mut self, token: VirtualToken, id: usize, pos: Point) {
        self.release_virtual(token);
        self.register_real(id, pos);
    }

    /// Returns `true` if any registered node (real or virtual) covers
    /// `p` with sensing radius `rs`.
    pub fn covers(&self, p: Point, rs: f64) -> bool {
        self.covers_excluding(p, rs, &[])
    }

    /// Like [`FloorRegistry::covers`] but ignoring the registrations of
    /// the given sensor ids — §5.4 asks whether a point is covered *by
    /// other sensors*, so the querier (and, for IFLG, its child)
    /// must not answer for itself. Virtual nodes always count.
    pub fn covers_excluding(&self, p: Point, rs: f64, exclude: &[usize]) -> bool {
        let rs_sq = rs * rs;
        self.lines.floors_covering(p.y).any(|k| {
            let data = &self.floors[k];
            data.real
                .iter()
                .any(|(q, id)| !exclude.contains(id) && q.dist_sq(p) <= rs_sq)
                || data
                    .virtuals
                    .iter()
                    .flatten()
                    .any(|(q, id)| !exclude.contains(id) && q.dist_sq(p) <= rs_sq)
        })
    }

    /// Returns `true` if a registered node (real or virtual) sits
    /// within `tol` of `p` — used to refuse double-claiming an EP.
    pub fn is_reserved(&self, p: Point, tol: f64) -> bool {
        let tol_sq = tol * tol;
        self.lines.floors_covering(p.y).any(|k| {
            let data = &self.floors[k];
            data.real.iter().any(|(q, _)| q.dist_sq(p) <= tol_sq)
                || data
                    .virtuals
                    .iter()
                    .flatten()
                    .any(|(q, _)| q.dist_sq(p) <= tol_sq)
        })
    }

    /// The header node of floor `k`: the registered fixed node with
    /// the smallest x (ties by id). `None` while the floor is empty.
    pub fn header(&self, k: usize) -> Option<usize> {
        self.floors[k]
            .real
            .iter()
            .min_by(|(a, ia), (b, ib)| a.x.partial_cmp(&b.x).expect("finite").then(ia.cmp(ib)))
            .map(|&(_, id)| id)
    }

    /// Floors a coverage query for `p` must consult (§5.4): those
    /// whose band could hold a covering node.
    pub fn query_floors(&self, p: Point) -> Vec<usize> {
        self.lines.floors_covering(p.y).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msn_geom::Rect;

    fn registry() -> FloorRegistry {
        FloorRegistry::new(FloorLines::new(Rect::new(0.0, 0.0, 400.0, 400.0), 40.0))
    }

    #[test]
    fn register_and_cover() {
        let mut reg = registry();
        reg.register_real(1, Point::new(100.0, 40.0));
        assert!(reg.covers(Point::new(130.0, 40.0), 40.0));
        assert!(!reg.covers(Point::new(200.0, 40.0), 40.0));
        assert_eq!(reg.header(0), Some(1));
        assert_eq!(reg.header(1), None);
    }

    #[test]
    fn header_is_min_x() {
        let mut reg = registry();
        reg.register_real(5, Point::new(100.0, 40.0));
        reg.register_real(9, Point::new(60.0, 50.0));
        assert_eq!(reg.header(0), Some(9));
        assert_eq!(reg.header(1), None);
    }

    #[test]
    fn virtual_lifecycle() {
        let mut reg = registry();
        let ep = Point::new(80.0, 40.0);
        let token = reg.add_virtual(ep, 42);
        assert!(reg.is_reserved(ep, 1.0));
        assert!(reg.covers(ep, 10.0));
        // fulfilled: becomes a real registration
        reg.fulfill_virtual(token, 3, ep);
        assert!(reg.is_reserved(ep, 1.0));
        assert_eq!(reg.header(0), Some(3));
    }

    #[test]
    fn released_virtual_frees_the_spot() {
        let mut reg = registry();
        let ep = Point::new(80.0, 40.0);
        let token = reg.add_virtual(ep, 42);
        reg.release_virtual(token);
        assert!(!reg.is_reserved(ep, 1.0));
        // slot is recycled
        let t2 = reg.add_virtual(Point::new(90.0, 40.0), 43);
        assert_eq!(t2, VirtualToken { floor: 0, slot: 0 });
    }

    #[test]
    fn cross_floor_coverage() {
        let mut reg = registry();
        // node near the top of floor 0 can cover points in floor 1
        reg.register_real(2, Point::new(100.0, 75.0));
        assert!(reg.covers(Point::new(100.0, 100.0), 40.0));
        let floors = reg.query_floors(Point::new(100.0, 100.0));
        assert!(floors.contains(&0) && floors.contains(&1));
    }
}
