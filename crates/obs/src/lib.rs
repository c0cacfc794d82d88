//! Zero-perturbation observability: hierarchical spans, named
//! counters and value statistics behind a thread-local collector.
//!
//! The simulation loop needs a profiler (crates.io is unreachable, so
//! this is hand-rolled in the shim spirit) that is *incapable* of
//! changing simulation output:
//!
//! * probes never touch RNG state and never feed back into the code
//!   under observation — they only read the monotonic clock and write
//!   into a side table;
//! * when no collector is installed on the current thread every probe
//!   is a cheap early-out (one thread-local check, no clock read), so
//!   instrumented crates pay near-nothing in unprofiled runs.
//!
//! # Model
//!
//! A collector is installed per thread with [`start`] and drained
//! with [`finish`], which returns a [`Report`]. In between:
//!
//! * [`span`] opens a named, timed region; the returned [`SpanGuard`]
//!   closes it on drop. Spans nest: a span opened while another is
//!   active becomes its child, and repeated entries of the same name
//!   under the same parent accumulate into one node (total/count/max)
//!   — so a per-tick phase probed 3 000 times is one tree node, not
//!   3 000. A span's time includes its own probe bookkeeping, so the
//!   gaps between sibling spans hold only the caller's code.
//! * [`counter`] bumps a named monotonic counter.
//! * [`value`] records a sample into a named running statistic
//!   (count/sum/min/max), e.g. dirty-set sizes or move distances.
//!
//! Reports [`merge`](Report::merge) associatively, so per-run reports
//! aggregate into per-cell profiles. Names are `&'static str` by
//! design: probes allocate nothing on the hot path except the first
//! time a span name appears under a new parent.
//!
//! ```
//! msn_obs::start();
//! {
//!     let _t = msn_obs::span("tick");
//!     let _p = msn_obs::span("plan");
//!     msn_obs::counter("planned", 1);
//!     msn_obs::value("dirty", 17.0);
//! }
//! let report = msn_obs::finish();
//! assert_eq!(report.unwrap().spans[0].children[0].name, "plan");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

// ---------------------------------------------------------------- report

/// One node of a finished span tree: accumulated wall time, entry
/// count and worst single entry for a named region, plus children in
/// first-entered order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Total nanoseconds across all entries (children included).
    pub total_ns: u64,
    /// Number of times the span was entered.
    pub count: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
    /// Child spans, in first-entered order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time spent in this span but outside its children: `total_ns`
    /// minus the children's totals (saturating — clock jitter can put
    /// a child a hair over its parent).
    pub fn self_ns(&self) -> u64 {
        let inner: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(inner)
    }
}

/// A named monotonic counter's final value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Counter name as passed to [`counter`].
    pub name: String,
    /// Sum of all deltas.
    pub total: u64,
}

/// Running statistic of a named value stream (count/sum/min/max).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueStat {
    /// Value name as passed to [`value`].
    pub name: String,
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl ValueStat {
    /// Mean sample, or 0 when no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything one collector gathered between [`start`] and
/// [`finish`]. Counters and values are sorted by name; spans keep
/// first-entered order (deterministic for deterministic code paths).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Wall-clock nanoseconds between [`start`] and [`finish`].
    pub wall_ns: u64,
    /// Top-level spans.
    pub spans: Vec<SpanNode>,
    /// Final counter values, sorted by name.
    pub counters: Vec<Counter>,
    /// Value statistics, sorted by name.
    pub values: Vec<ValueStat>,
}

impl Report {
    /// Folds `other` into `self`: wall times add, span trees merge by
    /// name (position-independent), counters and value stats combine.
    /// Associative, so per-run reports aggregate into per-cell
    /// profiles in any grouping — merge them in a fixed order when
    /// byte-stable output matters.
    pub fn merge(&mut self, other: &Report) {
        self.wall_ns += other.wall_ns;
        merge_spans(&mut self.spans, &other.spans);
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.name == c.name) {
                Some(mine) => mine.total += c.total,
                None => self.counters.push(c.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        for v in &other.values {
            match self.values.iter_mut().find(|mine| mine.name == v.name) {
                Some(mine) => {
                    mine.count += v.count;
                    mine.sum += v.sum;
                    mine.min = mine.min.min(v.min);
                    mine.max = mine.max.max(v.max);
                }
                None => self.values.push(v.clone()),
            }
        }
        self.values.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// A counter's total, or 0 when it never fired.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.total)
    }

    /// A value stream's statistics, if any sample was recorded.
    pub fn value_stat(&self, name: &str) -> Option<&ValueStat> {
        self.values.iter().find(|v| v.name == name)
    }

    /// A top-level span by name.
    pub fn span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find(|s| s.name == name)
    }
}

fn merge_spans(into: &mut Vec<SpanNode>, from: &[SpanNode]) {
    for node in from {
        match into.iter_mut().find(|mine| mine.name == node.name) {
            Some(mine) => {
                mine.total_ns += node.total_ns;
                mine.count += node.count;
                mine.max_ns = mine.max_ns.max(node.max_ns);
                merge_spans(&mut mine.children, &node.children);
            }
            None => into.push(node.clone()),
        }
    }
}

// ------------------------------------------------------------- collector

struct Node {
    name: &'static str,
    total_ns: u64,
    count: u64,
    max_ns: u64,
    children: Vec<usize>,
}

struct Collector {
    started: Instant,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    // (count, sum, min, max)
    values: BTreeMap<&'static str, (u64, f64, f64, f64)>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Installs a fresh collector on the current thread, replacing (and
/// discarding) any previous one. Probes on this thread record until
/// [`finish`] drains it.
pub fn start() {
    COLLECTOR.with(|slot| {
        *slot.borrow_mut() = Some(Collector {
            started: Instant::now(),
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            values: BTreeMap::new(),
        });
    });
}

/// Uninstalls the current thread's collector and returns its
/// [`Report`]; `None` when no collector was installed. Call with no
/// [`SpanGuard`] alive — a guard outliving its collector closes
/// silently without recording.
pub fn finish() -> Option<Report> {
    COLLECTOR.with(|slot| slot.borrow_mut().take()).map(|col| {
        fn convert(col: &Collector, idx: usize) -> SpanNode {
            let node = &col.nodes[idx];
            SpanNode {
                name: node.name.to_string(),
                total_ns: node.total_ns,
                count: node.count,
                max_ns: node.max_ns,
                children: node.children.iter().map(|&c| convert(col, c)).collect(),
            }
        }
        Report {
            wall_ns: col.started.elapsed().as_nanos() as u64,
            spans: col.roots.iter().map(|&i| convert(&col, i)).collect(),
            counters: col
                .counters
                .iter()
                .map(|(&name, &total)| Counter {
                    name: name.to_string(),
                    total,
                })
                .collect(),
            values: col
                .values
                .iter()
                .map(|(&name, &(count, sum, min, max))| ValueStat {
                    name: name.to_string(),
                    count,
                    sum,
                    min,
                    max,
                })
                .collect(),
        }
    })
}

/// Whether a collector is installed on the current thread (probes are
/// recording).
pub fn is_active() -> bool {
    COLLECTOR.with(|slot| slot.borrow().is_some())
}

/// Closes its [`span`] on drop. Inert (drop does nothing) when no
/// collector was installed at open time.
#[must_use = "a span measures the region until the guard drops"]
pub struct SpanGuard {
    opened: Option<Instant>,
}

/// Opens the named span on the current thread's collector; the region
/// lasts until the returned guard drops. Spans nest lexically;
/// repeated entries of one name under the same parent accumulate into
/// a single tree node. Inert when no collector is installed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let opened = COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        let col = slot.as_mut()?;
        // the clock is read *before* the bookkeeping (and, on
        // close, after it), so a span owns its probe's cost and
        // the gaps between sibling spans hold only the caller's
        // own code
        let opened = Instant::now();
        let parent = col.stack.last().copied();
        let siblings = match parent {
            Some(top) => &col.nodes[top].children,
            None => &col.roots,
        };
        let existing = siblings
            .iter()
            .copied()
            .find(|&i| col.nodes[i].name == name);
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = col.nodes.len();
                col.nodes.push(Node {
                    name,
                    total_ns: 0,
                    count: 0,
                    max_ns: 0,
                    children: Vec::new(),
                });
                match parent {
                    Some(top) => col.nodes[top].children.push(i),
                    None => col.roots.push(i),
                }
                i
            }
        };
        col.stack.push(idx);
        Some(opened)
    });
    SpanGuard { opened }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(opened) = self.opened {
            COLLECTOR.with(|slot| {
                let mut slot = slot.borrow_mut();
                // a guard can outlive its collector (finish() inside a
                // span): close silently rather than corrupt a newer one
                let Some(col) = slot.as_mut() else { return };
                let Some(idx) = col.stack.pop() else { return };
                let elapsed = opened.elapsed().as_nanos() as u64;
                let node = &mut col.nodes[idx];
                node.total_ns += elapsed;
                node.count += 1;
                node.max_ns = node.max_ns.max(elapsed);
            });
        }
    }
}

/// Adds `delta` to the named counter. Inert when no collector is
/// installed.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    COLLECTOR.with(|slot| {
        if let Some(col) = slot.borrow_mut().as_mut() {
            *col.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// Records one sample into the named value statistic. Inert when no
/// collector is installed.
#[inline]
pub fn value(name: &'static str, sample: f64) {
    COLLECTOR.with(|slot| {
        if let Some(col) = slot.borrow_mut().as_mut() {
            let entry =
                col.values
                    .entry(name)
                    .or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
            entry.0 += 1;
            entry.1 += sample;
            entry.2 = entry.2.min(sample);
            entry.3 = entry.3.max(sample);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_without_collector_are_inert() {
        assert!(!is_active());
        let _g = span("orphan");
        counter("orphan", 1);
        value("orphan", 1.0);
        assert_eq!(finish(), None);
    }

    /// Probes with a collector installed.
    mod active {
        use super::super::*;

        #[test]
        fn spans_nest_and_accumulate() {
            start();
            assert!(is_active());
            for i in 0..3 {
                let _t = span("tick");
                {
                    let _p = span("plan");
                }
                if i == 0 {
                    let _m = span("motion");
                }
            }
            let report = finish().expect("collector installed");
            assert!(!is_active());
            assert_eq!(report.spans.len(), 1);
            let tick = report.span("tick").unwrap();
            assert_eq!(tick.count, 3);
            assert_eq!(tick.children.len(), 2);
            let plan = &tick.children[0];
            assert_eq!((plan.name.as_str(), plan.count), ("plan", 3));
            let motion = &tick.children[1];
            assert_eq!((motion.name.as_str(), motion.count), ("motion", 1));
            assert!(tick.total_ns >= plan.total_ns + motion.total_ns);
            assert!(plan.max_ns <= plan.total_ns);
            assert!(report.wall_ns >= tick.total_ns);
            // self time never exceeds the total
            assert!(tick.self_ns() <= tick.total_ns);
        }

        #[test]
        fn recursion_nests_under_itself() {
            fn walk(depth: usize) {
                let _g = span("walk");
                if depth > 0 {
                    walk(depth - 1);
                }
            }
            start();
            walk(2);
            let report = finish().unwrap();
            let outer = report.span("walk").unwrap();
            assert_eq!(outer.count, 1);
            assert_eq!(outer.children[0].name, "walk");
            assert_eq!(outer.children[0].count, 1);
        }

        #[test]
        fn counters_and_values_aggregate_sorted() {
            start();
            counter("b.syncs", 2);
            counter("a.rebuilds", 1);
            counter("b.syncs", 3);
            value("dirty", 4.0);
            value("dirty", 10.0);
            let report = finish().unwrap();
            assert_eq!(report.counter_total("b.syncs"), 5);
            assert_eq!(report.counter_total("a.rebuilds"), 1);
            assert_eq!(report.counter_total("absent"), 0);
            assert_eq!(report.counters[0].name, "a.rebuilds");
            let dirty = report.value_stat("dirty").unwrap();
            assert_eq!((dirty.count, dirty.sum), (2, 14.0));
            assert_eq!((dirty.min, dirty.max), (4.0, 10.0));
            assert_eq!(dirty.mean(), 7.0);
        }

        #[test]
        fn start_discards_previous_collector() {
            start();
            counter("old", 1);
            start();
            counter("new", 1);
            let report = finish().unwrap();
            assert_eq!(report.counter_total("old"), 0);
            assert_eq!(report.counter_total("new"), 1);
            assert_eq!(finish(), None, "second finish drains nothing");
        }

        #[test]
        fn merge_combines_reports() {
            start();
            {
                let _t = span("tick");
                let _p = span("plan");
                counter("syncs", 2);
                value("dirty", 3.0);
            }
            let mut a = finish().unwrap();
            start();
            {
                let _t = span("tick");
                let _m = span("motion");
                counter("syncs", 1);
                counter("rebuilds", 1);
                value("dirty", 9.0);
            }
            let b = finish().unwrap();
            let wall = a.wall_ns + b.wall_ns;
            a.merge(&b);
            assert_eq!(a.wall_ns, wall);
            let tick = a.span("tick").unwrap();
            assert_eq!(tick.count, 2);
            assert_eq!(tick.children.len(), 2, "children union under one parent");
            assert_eq!(a.counter_total("syncs"), 3);
            assert_eq!(a.counter_total("rebuilds"), 1);
            let dirty = a.value_stat("dirty").unwrap();
            assert_eq!((dirty.count, dirty.min, dirty.max), (2, 3.0, 9.0));
        }
    }
}
