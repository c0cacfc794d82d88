//! Property-based tests for the geometry substrate.

use msn_geom::{min_enclosing_circle, Circle, HalfPlane, Point, Polygon, Rect, Segment};
use proptest::prelude::*;

fn pt() -> impl Strategy<Value = Point> {
    (-1000.0..1000.0f64, -1000.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn mec_contains_all_points(pts in prop::collection::vec(pt(), 1..40)) {
        let mec = min_enclosing_circle(&pts).unwrap();
        for p in &pts {
            prop_assert!(mec.center.dist(*p) <= mec.radius + 1e-5);
        }
    }

    #[test]
    fn mec_not_larger_than_diametral_or_centroid_circle(
        pts in prop::collection::vec(pt(), 2..30)
    ) {
        let mec = min_enclosing_circle(&pts).unwrap();
        let centroid = pts.iter().fold(Point::ORIGIN, |s, p| s + *p) / pts.len() as f64;
        let r = pts.iter().map(|p| p.dist(centroid)).fold(0.0, f64::max);
        prop_assert!(mec.radius <= r + 1e-6);
    }

    #[test]
    fn halfplane_clip_shrinks_area(c0 in pt(), c1 in pt(), a in pt(), b in pt()) {
        prop_assume!(a.dist(b) > 1e-6);
        let rect = Rect::from_corners(c0, c1);
        prop_assume!(rect.width() > 1e-6 && rect.height() > 1e-6);
        let before = rect.area();
        let hp = HalfPlane::bisector(a, b);
        let clipped = hp.clip(&rect.corners());
        if clipped.len() >= 3 {
            let after = Polygon::new(clipped.clone()).area();
            prop_assert!(after <= before + 1e-6);
            for p in &clipped {
                prop_assert!(hp.value(*p) <= 1e-6 * hp.normal.norm().max(1.0));
            }
        }
    }

    #[test]
    fn segment_closest_point_is_closest(s_a in pt(), s_b in pt(), p in pt()) {
        let seg = Segment::new(s_a, s_b);
        let c = seg.closest_point(p);
        // sample the segment; none may be closer
        for i in 0..=20 {
            let q = seg.at(i as f64 / 20.0);
            prop_assert!(p.dist(c) <= p.dist(q) + 1e-9);
        }
    }

    #[test]
    fn segment_intersection_is_on_both(a in pt(), b in pt(), c in pt(), d in pt()) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        if let Some(p) = s1.intersect(&s2) {
            prop_assert!(s1.dist_to_point(p) < 1e-6);
            prop_assert!(s2.dist_to_point(p) < 1e-6);
        }
    }

    #[test]
    fn circle_clip_points_inside(center in pt(), r in 1.0..500.0f64, a in pt(), b in pt()) {
        let c = Circle::new(center, r);
        if let Some(chord) = c.clip_segment(Segment::new(a, b)) {
            prop_assert!(c.center.dist(chord.a) <= r + 1e-6);
            prop_assert!(c.center.dist(chord.b) <= r + 1e-6);
            prop_assert!(c.center.dist(chord.midpoint()) <= r + 1e-6);
        }
    }

    #[test]
    fn circle_circle_points_on_both(c1 in pt(), r1 in 1.0..400.0f64, c2 in pt(), r2 in 1.0..400.0f64) {
        let a = Circle::new(c1, r1);
        let b = Circle::new(c2, r2);
        for p in a.intersect_circle(&b) {
            prop_assert!((p.dist(a.center) - r1).abs() < 1e-5);
            prop_assert!((p.dist(b.center) - r2).abs() < 1e-5);
        }
    }

    #[test]
    fn rect_clamp_is_inside(p in pt()) {
        let r = Rect::new(-100.0, -50.0, 100.0, 50.0);
        prop_assert!(r.contains(r.clamp_point(p)));
    }

    /// Appendix-A lemma of the paper: if two sensors are within `rc` of
    /// each other at the start and at the end of an interval during which
    /// both move in straight lines at constant speed, they are within
    /// `rc` at every intermediate time.
    #[test]
    fn appendix_a_connectivity_lemma(
        a0 in pt(), a1 in pt(),
        (ang0, frac0) in (0.0..std::f64::consts::TAU, 0.0..1.0f64),
        (ang1, frac1) in (0.0..std::f64::consts::TAU, 0.0..1.0f64),
        rc in 1.0..300.0f64,
    ) {
        // Construct b endpoints within rc of the a endpoints by design.
        let b0 = a0 + Point::from_angle(ang0) * (rc * frac0);
        let b1 = a1 + Point::from_angle(ang1) * (rc * frac1);
        for i in 0..=32 {
            let t = i as f64 / 32.0;
            let pa = a0.lerp(a1, t);
            let pb = b0.lerp(b1, t);
            prop_assert!(pa.dist(pb) <= rc + 1e-9,
                "distance {} exceeds rc {} at t={}", pa.dist(pb), rc, t);
        }
    }
}
