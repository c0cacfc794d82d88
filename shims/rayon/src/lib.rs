//! Offline stand-in for the `rayon` crate.
//!
//! Implements the small slice of rayon's API the workspace uses —
//! `vec.into_par_iter().map(f).collect::<Vec<_>>()`, slice
//! `par_iter().map(f).collect()` and the [`run_indexed`] seam the
//! scenario batch runner schedules on — on top of a **persistent
//! work-stealing pool**. Results are written back by input index, so
//! **collect order always equals input order**, regardless of the
//! number of worker threads: parallel output is byte-identical to
//! sequential output for deterministic work functions.
//!
//! # Pool architecture
//!
//! Worker threads are spawned once, on first parallel call, and kept
//! parked between batches (rayon's global-pool model; the old shim
//! spawned fresh scoped threads per batch, which at 10k-sensor batch
//! sizes spent measurable time in thread setup). A batch splits its
//! index range into chunks of roughly `n / (4 * participants)` items;
//! each participant seeds a private deque with a contiguous stripe of
//! chunks, pops its own work from the front and, when empty, steals
//! from the *back* of a victim's deque — the classic chunked-deque
//! discipline that keeps each thread on cache-adjacent items until
//! load imbalance actually materializes.
//!
//! The submitting thread is always participant 0 of its own batch and
//! drains it alongside the pool. That rule makes nested parallelism
//! deadlock-free by construction: a worker that submits an inner
//! batch while every other worker is busy simply executes the inner
//! batch itself.
//!
//! Thread count comes from `RAYON_NUM_THREADS` (like rayon's default
//! pool) or `std::thread::available_parallelism`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

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

mod pool {
    //! The persistent work-stealing pool behind every parallel call.

    use std::any::Any;
    use std::collections::VecDeque;
    use std::ops::Range;
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// One submitted batch: an index-addressed job plus the stealing
    /// state its participants share.
    struct BatchState {
        /// The job, lifetime-erased for the 'static worker threads.
        /// See the SAFETY argument in [`run`]: it is never invoked
        /// after `pending` reaches zero, and [`run`] does not return
        /// before that.
        job: &'static (dyn Fn(usize) + Sync),
        /// One chunk deque per participant; owners pop from the
        /// front, thieves steal from the back.
        queues: Vec<Mutex<VecDeque<Range<usize>>>>,
        /// Worker participation slots still unclaimed (the submitter
        /// holds slot 0 implicitly).
        tickets: Mutex<usize>,
        /// Chunks not yet fully executed; the completion latch.
        pending: Mutex<usize>,
        /// Signalled when `pending` reaches zero.
        done: Condvar,
        /// First panic payload raised by any chunk, re-raised on the
        /// submitting thread.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    impl BatchState {
        /// Claims the next free participant slot, if any remain.
        fn claim(&self) -> Option<usize> {
            let mut t = self.tickets.lock().unwrap();
            if *t == 0 {
                None
            } else {
                let slot = self.queues.len() - *t;
                *t -= 1;
                Some(slot)
            }
        }

        fn has_tickets(&self) -> bool {
            *self.tickets.lock().unwrap() > 0
        }
    }

    /// Pool state shared between the injector and the workers.
    struct PoolInner {
        /// Batches with unclaimed participation tickets.
        injector: Mutex<VecDeque<Arc<BatchState>>>,
        /// Signalled when a batch is submitted.
        work_ready: Condvar,
    }

    /// The process-wide pool, spawned on first use and kept for the
    /// process lifetime (workers park between batches).
    fn global() -> &'static Arc<PoolInner> {
        static POOL: OnceLock<Arc<PoolInner>> = OnceLock::new();
        POOL.get_or_init(|| {
            let inner = Arc::new(PoolInner {
                injector: Mutex::new(VecDeque::new()),
                work_ready: Condvar::new(),
            });
            for w in 0..crate::current_num_threads().max(1) {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("msn-par-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker");
            }
            inner
        })
    }

    /// A pool worker: park until a batch has a free slot, drain it,
    /// repeat forever.
    fn worker_loop(inner: &PoolInner) {
        loop {
            let (batch, slot) = {
                let mut q = inner.injector.lock().unwrap();
                loop {
                    q.retain(|b| b.has_tickets());
                    let claimed = q
                        .iter()
                        .find_map(|b| b.claim().map(|slot| (Arc::clone(b), slot)));
                    match claimed {
                        Some(c) => break c,
                        None => q = inner.work_ready.wait(q).unwrap(),
                    }
                }
            };
            participate(&batch, slot);
        }
    }

    /// Drains `state` as participant `slot`: own deque first, then
    /// steal from the back of the other participants' deques.
    fn participate(state: &BatchState, slot: usize) {
        let p = state.queues.len();
        loop {
            // Pop the own deque in its own statement: the guard must be
            // dropped before stealing, or two participants running dry
            // together would each hold their deque while locking the
            // other's (ABBA deadlock).
            let own = state.queues[slot].lock().unwrap().pop_front();
            let chunk = own.or_else(|| {
                (1..p).find_map(|off| state.queues[(slot + off) % p].lock().unwrap().pop_back())
            });
            let Some(r) = chunk else { break };
            // A panicking chunk must still release the latch, or the
            // submitter would wait forever; the payload is re-raised
            // on the submitting thread instead.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in r {
                    (state.job)(i);
                }
            }));
            if let Err(payload) = outcome {
                let mut first = state.panic.lock().unwrap();
                if first.is_none() {
                    *first = Some(payload);
                }
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        }
    }

    /// Erases the job's lifetime so 'static workers can share it.
    ///
    /// SAFETY: callers must guarantee the returned reference is never
    /// used after the original borrow ends. [`run`] upholds this: it
    /// blocks until `pending == 0`, `pending` only reaches zero after
    /// the last chunk execution returns, and chunk execution is the
    /// only place the job is invoked — a worker finding every deque
    /// empty exits without touching the job again.
    #[allow(unsafe_code)]
    fn erase<'a>(job: &'a (dyn Fn(usize) + Sync)) -> &'static (dyn Fn(usize) + Sync) {
        unsafe {
            std::mem::transmute::<&'a (dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        }
    }

    /// Runs `job(i)` for every `i in 0..n` on up to `limit`
    /// participants (the calling thread plus pool workers), returning
    /// once every index has executed. `limit <= 1` runs inline.
    pub fn run(n: usize, limit: usize, job: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if limit <= 1 || n == 1 {
            for i in 0..n {
                job(i);
            }
            return;
        }
        let p = limit.min(n);
        let chunk = n.div_ceil(p * 4).max(1);
        let chunks: Vec<Range<usize>> = (0..n.div_ceil(chunk))
            .map(|c| c * chunk..((c + 1) * chunk).min(n))
            .collect();
        let m = chunks.len();
        let queues: Vec<Mutex<VecDeque<Range<usize>>>> = (0..p)
            .map(|k| Mutex::new(chunks[k * m / p..(k + 1) * m / p].iter().cloned().collect()))
            .collect();
        let state = Arc::new(BatchState {
            job: erase(job),
            queues,
            tickets: Mutex::new(p - 1),
            pending: Mutex::new(m),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let pool = global();
        {
            let mut q = pool.injector.lock().unwrap();
            q.push_back(Arc::clone(&state));
            pool.work_ready.notify_all();
        }
        participate(&state, 0);
        let mut pending = state.pending.lock().unwrap();
        while *pending > 0 {
            pending = state.done.wait(pending).unwrap();
        }
        drop(pending);
        // Retire unclaimed tickets so the injector's next sweep drops
        // its reference to this (finished) batch.
        *state.tickets.lock().unwrap() = 0;
        let payload = state.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs `f` over `items` on up to `threads` participants of the
/// shared pool (the calling thread included), preserving input order
/// in the output. This is the scheduling seam the scenario batch
/// runner and the `par_iter` adapters share; `threads <= 1` runs
/// fully sequential on the calling thread.
pub fn run_indexed<I, O, F>(items: Vec<I>, f: &F, threads: usize) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    pool::run(n, threads, &|i| {
        let item = inputs[i]
            .lock()
            .unwrap()
            .take()
            .expect("each index dispatched once");
        let out = f(item);
        *slots[i].lock().unwrap() = Some(out);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker completed every job")
        })
        .collect()
}

/// An order-preserving parallel iterator over owned items.
#[derive(Debug)]
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Maps every item through `f` in parallel.
    pub fn map<O: Send, F: Fn(I) -> O + Sync>(self, f: F) -> ParMap<I, O, F> {
        ParMap {
            items: self.items,
            f,
            _out: std::marker::PhantomData,
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(I) + Sync>(self, f: F) {
        self.map(f).collect::<Vec<()>>();
    }
}

/// A mapped parallel iterator, executed on `collect`.
#[derive(Debug)]
pub struct ParMap<I, O, F> {
    items: Vec<I>,
    f: F,
    _out: std::marker::PhantomData<fn() -> O>,
}

impl<I: Send, O: Send, F: Fn(I) -> O + Sync> ParMap<I, O, F> {
    /// Executes the map on the shared pool; output preserves input order.
    pub fn collect<C: FromParOutput<O>>(self) -> C {
        C::from_par_output(run_indexed(self.items, &self.f, current_num_threads()))
    }
}

/// Conversion from the ordered output vector of a parallel map.
pub trait FromParOutput<O> {
    /// Builds the collection from in-order outputs.
    fn from_par_output(v: Vec<O>) -> Self;
}

impl<O> FromParOutput<O> for Vec<O> {
    fn from_par_output(v: Vec<O>) -> Self {
        v
    }
}

/// Conversion into a parallel iterator (subset of rayon's trait).
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Borrowing conversion (subset of rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// A parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.as_slice().par_iter()
    }
}

/// Common imports, mirroring `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_preserves_input_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, v.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let v: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = v.par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 100);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[99], 2);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let v: Vec<u64> = (0..257).collect();
        let seq = super::run_indexed(v.clone(), &|x| x + 1, 1);
        let par = super::run_indexed(v, &|x| x + 1, 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_survives_many_batches() {
        // The persistent pool must serve back-to-back batches of
        // assorted sizes (including ones smaller than the chunk
        // granularity) without wedging or dropping indices.
        for round in 0..50u64 {
            let n = (round as usize % 7) * 13 + 1;
            let v: Vec<u64> = (0..n as u64).collect();
            let out: Vec<u64> = v.clone().into_par_iter().map(|x| x + round).collect();
            assert_eq!(out, v.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn back_to_back_tiny_batches_never_deadlock() {
        // Many batches of single-item chunks make participants run dry
        // at the same instant and steal from each other; the stealing
        // path must never hold one deque's lock while taking another's.
        // The batches run on a helper thread so a deadlock fails the
        // test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let batches = std::thread::spawn(move || {
            for round in 0..20_000u64 {
                let v: Vec<u64> = (0..8).collect();
                let out = super::run_indexed(v, &|x| x ^ round, 4);
                assert_eq!(out.len(), 8);
            }
            tx.send(()).expect("test thread waits for completion");
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("20k tiny batches must complete without deadlocking the pool");
        batches.join().expect("batch thread finished cleanly");
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        // Submitters participate in their own batches, so an inner
        // collect issued from a pool worker always makes progress
        // even when every other worker is busy with the outer batch.
        let outer: Vec<u64> = (0..32).collect();
        let sums: Vec<u64> = outer
            .into_par_iter()
            .map(|base| {
                let inner: Vec<u64> = (0..64).collect();
                let mapped: Vec<u64> = inner.into_par_iter().map(move |x| x + base).collect();
                mapped.iter().sum()
            })
            .collect();
        for (base, sum) in sums.iter().enumerate() {
            assert_eq!(*sum, (0..64).sum::<u64>() + 64 * base as u64);
        }
    }

    #[test]
    fn uneven_work_is_stolen_to_completion() {
        // Front-loaded heavy items force thieves onto the early
        // stripes; every index must still complete exactly once.
        let v: Vec<usize> = (0..400).collect();
        let out: Vec<u64> = v
            .into_par_iter()
            .map(|i| {
                let spins = if i < 8 { 20_000 } else { 10 };
                (0..spins).fold(i as u64, |a, _| a.wrapping_mul(31).wrapping_add(7))
            })
            .collect();
        assert_eq!(out.len(), 400);
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let caught = std::panic::catch_unwind(|| {
            let v: Vec<u64> = (0..100).collect();
            let _: Vec<u64> = v
                .into_par_iter()
                .map(|x| {
                    assert!(x != 57, "boom at 57");
                    x
                })
                .collect();
        });
        assert!(caught.is_err(), "panic in a job must reach the caller");
    }
}
