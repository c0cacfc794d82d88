//! Property-based tests for Voronoi cells.

use msn_geom::{Point, Rect};
use msn_voronoi::{cells_match, restricted_cell, voronoi_cell, VoronoiDiagram};
use proptest::prelude::*;

fn sites_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((1.0..999.0f64, 1.0..999.0f64), 2..25)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

fn bounds() -> Rect {
    Rect::new(0.0, 0.0, 1000.0, 1000.0)
}

proptest! {
    #[test]
    fn single_cell_equals_diagram_cell(sites in sites_strategy(), dup in 0usize..25) {
        // A duplicate of some site too: only its lower index keeps a cell.
        let mut sites = sites;
        sites.push(sites[dup % sites.len()]);
        let vd = VoronoiDiagram::compute(&sites, bounds());
        for i in 0..sites.len() {
            let cell = voronoi_cell(i, &sites, bounds());
            prop_assert_eq!(cell.site(), vd.cell(i).site());
            prop_assert_eq!(cell.vertices(), vd.cell(i).vertices(),
                "cell {} must equal the diagram's, vertex for vertex", i);
        }
    }

    #[test]
    fn cells_tile_the_bounds(sites in sites_strategy()) {
        let vd = VoronoiDiagram::compute(&sites, bounds());
        let total: f64 = vd.cells().iter().map(|c| c.area()).sum();
        prop_assert!((total - bounds().area()).abs() < 1.0,
            "cells must tile the field, got {total}");
    }

    #[test]
    fn each_cell_contains_its_site(sites in sites_strategy()) {
        let vd = VoronoiDiagram::compute(&sites, bounds());
        for (i, c) in vd.cells().iter().enumerate() {
            if !c.is_degenerate() {
                prop_assert!(c.contains(sites[i]),
                    "cell {i} must contain its own site");
            }
        }
    }

    #[test]
    fn restricted_cell_is_superset(sites in sites_strategy(), k in 0usize..5) {
        let vd = VoronoiDiagram::compute(&sites, bounds());
        // site 0 with only the first k other sites as neighbors
        let neighbors: Vec<usize> = (1..sites.len()).take(k).collect();
        let r = restricted_cell(0, &sites, &neighbors, bounds());
        prop_assert!(r.area() >= vd.cell(0).area() - 1e-6);
    }

    #[test]
    fn full_neighbor_set_matches_diagram(sites in sites_strategy()) {
        let vd = VoronoiDiagram::compute(&sites, bounds());
        let all: Vec<usize> = (1..sites.len()).collect();
        let r = restricted_cell(0, &sites, &all, bounds());
        prop_assert!(cells_match(&r, vd.cell(0), 1e-6));
    }

    #[test]
    fn minimax_point_no_worse_than_site(sites in sites_strategy()) {
        let vd = VoronoiDiagram::compute(&sites, bounds());
        for c in vd.cells() {
            if let (Some(mp), Some(site_max)) = (c.minimax_point(), c.max_vertex_dist(c.site())) {
                let mp_max = c.max_vertex_dist(mp).unwrap();
                prop_assert!(mp_max <= site_max + 1e-6,
                    "minimax point must not increase the max vertex distance");
            }
        }
    }
}
