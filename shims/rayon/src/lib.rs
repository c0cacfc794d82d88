//! Offline stand-in for the `rayon` crate.
//!
//! Provides the one scheduling seam the workspace uses:
//! [`run_indexed`], which maps a function over a list of items on a
//! few threads and returns the outputs **in input order**, regardless
//! of the thread count. Parallel output is therefore byte-identical
//! to sequential output for deterministic work functions.
//!
//! # Scheduling
//!
//! A call starts `threads.min(items)` participants with
//! [`std::thread::scope`]; the calling thread is one of them. Every
//! participant repeatedly claims the next index from one shared
//! atomic cursor, runs that item and writes its output into the
//! item's slot, until the cursor passes the end. Items are therefore
//! started in input order, one at a time: a caller that lists its
//! longest items first gets greedy longest-first scheduling, and no
//! participant idles while an item is still unclaimed.
//!
//! The batches this serves are a few dozen coarse simulation runs,
//! so threads are spawned per call rather than kept parked in a
//! pool. Nested calls are safe for the same reason: an inner call
//! spawns its own participants and never waits on anyone else's.
//!
//! Thread count comes from `RAYON_NUM_THREADS` (like rayon's default
//! pool) or `std::thread::available_parallelism`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker-thread count: `RAYON_NUM_THREADS` if set and positive,
/// else the machine's available parallelism.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over `items` on up to `threads` participants (the calling
/// thread included), claiming items in input order from one shared
/// cursor and returning the outputs in input order. `threads <= 1`
/// runs fully sequential on the calling thread.
///
/// # Panics
///
/// If `f` panics, no further items are claimed, and once every
/// participant has stopped the first panic payload is re-raised on
/// the calling thread with its original message.
pub fn run_indexed<I, O, F>(items: Vec<I>, f: &F, threads: usize) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let participants = threads.min(n);
    if participants <= 1 {
        return items.into_iter().map(f).collect();
    }
    // No lock below is held while `f` runs, so none can be poisoned.
    const UNPOISONED: &str = "no lock is held across a call of f";
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The cursor publishes no data (items and outputs pass through
    // their mutexes, and the scope's joins order every write before
    // the collect), so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let panic = Mutex::new(None);
    let participate = || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = inputs[i]
                .lock()
                .expect(UNPOISONED)
                .take()
                .expect("each index claimed once");
            let out = f(item);
            *outputs[i].lock().expect(UNPOISONED) = Some(out);
        }));
        if let Err(payload) = outcome {
            // stop handing out items: the batch is lost anyway
            cursor.store(n, Ordering::Relaxed);
            panic.lock().expect(UNPOISONED).get_or_insert(payload);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..participants {
            s.spawn(participate);
        }
        participate();
    });
    if let Some(payload) = panic.into_inner().expect(UNPOISONED) {
        std::panic::resume_unwind(payload);
    }
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect(UNPOISONED)
                .expect("every item ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::run_indexed;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_item_runs_once_in_input_order_at_any_thread_count() {
        for threads in 1..=8 {
            for n in [0usize, 1, 2, 3, 7, 8, 9, 100] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                let out = run_indexed(
                    items,
                    &|i: usize| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        i * 3
                    },
                    threads,
                );
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "n={n} threads={threads}: every item exactly once"
                );
            }
        }
    }

    #[test]
    fn borrowed_items_map_in_order() {
        let v: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let lens = run_indexed(v.iter().collect(), &|s: &String| s.len(), 4);
        assert_eq!(lens.len(), 100);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[99], 2);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let v: Vec<u64> = (0..257).collect();
        let seq = run_indexed(v.clone(), &|x| x + 1, 1);
        let par = run_indexed(v, &|x| x + 1, 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_survives_many_batches() {
        // Back-to-back batches of assorted sizes must neither wedge
        // nor drop indices.
        for round in 0..50u64 {
            let n = (round as usize % 7) * 13 + 1;
            let v: Vec<u64> = (0..n as u64).collect();
            let out = run_indexed(v.clone(), &|x| x + round, 4);
            assert_eq!(out, v.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn back_to_back_tiny_batches_never_deadlock() {
        // Many tiny batches make participants run dry at the same
        // instant. The batches run on a helper thread so a deadlock
        // fails the test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let batches = std::thread::spawn(move || {
            for round in 0..20_000u64 {
                let v: Vec<u64> = (0..8).collect();
                let out = run_indexed(v, &|x| x ^ round, 4);
                assert_eq!(out.len(), 8);
            }
            tx.send(()).expect("test thread waits for completion");
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("20k tiny batches must complete without deadlocking");
        batches.join().expect("batch thread finished cleanly");
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        // An inner call from inside an item spawns its own
        // participants, so it completes even while every outer
        // participant is busy.
        let outer: Vec<u64> = (0..32).collect();
        let sums = run_indexed(
            outer,
            &|base| {
                let inner: Vec<u64> = (0..64).collect();
                run_indexed(inner, &|x| x + base, 3).iter().sum::<u64>()
            },
            3,
        );
        for (base, sum) in sums.iter().enumerate() {
            assert_eq!(*sum, (0..64).sum::<u64>() + 64 * base as u64);
        }
    }

    #[test]
    fn uneven_work_is_stolen_to_completion() {
        // Front-loaded heavy items occupy some participants while the
        // others drain the light tail; every index must still complete
        // exactly once.
        let v: Vec<usize> = (0..400).collect();
        let out = run_indexed(
            v,
            &|i| {
                let spins = if i < 8 { 20_000 } else { 10 };
                (0..spins).fold(i as u64, |a, _| a.wrapping_mul(31).wrapping_add(7))
            },
            4,
        );
        assert_eq!(out.len(), 400);
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                let v: Vec<u64> = (0..100).collect();
                run_indexed(
                    v,
                    &|x| {
                        assert!(x != 57, "boom at 57");
                        x
                    },
                    threads,
                )
            });
            let payload = caught.expect_err("panic in an item must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .expect("string payload");
            assert_eq!(
                message, "boom at 57",
                "original message at {threads} thread(s)"
            );
        }
    }
}
