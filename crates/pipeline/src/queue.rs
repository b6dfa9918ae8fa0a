//! Batch dispatch: one bounded FIFO between the feeders and the worker
//! pool.
//!
//! The feeder side (the engine's calling thread, the service's ingest
//! pool) [`push`](DispatchQueue::push)es batches in input order and blocks
//! while the queue is full, which is the engine's end-to-end backpressure.
//! Every worker [`pop`](DispatchQueue::pop)s the oldest batch. Which worker
//! maps a batch never shows downstream: the ordered emitters reassemble
//! output by batch index, so SAM bytes are identical for any thread count,
//! batch size or worker schedule (`tests/e2e_pipeline.rs`).
//!
//! One lock guards the items and both flags. Every transition that can
//! unblock a waiter notifies under it, so no wake-up is lost and no wait
//! needs a timeout.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the queue's lock guards.
struct State<T> {
    items: VecDeque<T>,
    /// No more pushes will arrive (normal end of input).
    closed: bool,
    /// The queue was torn down (emitter I/O error, or a thread unwinding):
    /// pushes fail instead of blocking on a queue nobody will drain.
    aborted: bool,
}

/// A bounded multi-producer, multi-consumer FIFO of batches. Shared by
/// reference across the feeders and every worker; all methods take
/// `&self`.
pub(crate) struct DispatchQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the queue closes or aborts.
    work_available: Condvar,
    /// Signalled when a slot frees up or the queue aborts.
    space_available: Condvar,
    capacity: usize,
}

impl<T> DispatchQueue<T> {
    /// An empty queue holding at most `capacity` items (at least 1).
    pub(crate) fn new(capacity: usize) -> DispatchQueue<T> {
        DispatchQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                aborted: false,
            }),
            work_available: Condvar::new(),
            space_available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("dispatch queue poisoned")
    }

    /// Appends `item`, blocking while the queue is full. Returns `false`
    /// (dropping `item`) once the queue was aborted: the worker side has
    /// gone and will never drain it.
    ///
    /// # Panics
    ///
    /// Panics if called after [`close`](DispatchQueue::close).
    pub(crate) fn push(&self, item: T) -> bool {
        let mut state = self.lock();
        if state.aborted {
            return false;
        }
        assert!(!state.closed, "push after close");
        while state.items.len() >= self.capacity && !state.aborted {
            state = self
                .space_available
                .wait(state)
                .expect("dispatch queue poisoned");
        }
        if state.aborted {
            return false;
        }
        state.items.push_back(item);
        self.work_available.notify_one();
        true
    }

    /// Takes the oldest item, blocking while the queue is empty but input
    /// may still arrive; `None` once it is closed and empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.space_available.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .work_available
                .wait(state)
                .expect("dispatch queue poisoned");
        }
    }

    /// Marks the end of input: once the queue drains,
    /// [`pop`](DispatchQueue::pop) returns `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.work_available.notify_all();
    }

    /// Tears the queue down: drops every queued item, makes further pushes
    /// fail and wakes every parked feeder and worker. A batch a worker has
    /// already popped may still be mapped; its result is discarded
    /// downstream.
    pub(crate) fn abort(&self) {
        let mut state = self.lock();
        state.aborted = true;
        state.closed = true;
        state.items.clear();
        self.space_available.notify_all();
        self.work_available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Pops everything the queue will ever deliver to one worker. Plain
    /// `assert!`s only around it: it runs on spawned threads, where a
    /// panic propagates through the scope join.
    fn drain(q: &DispatchQueue<u64>) -> Vec<u64> {
        let mut got = Vec::new();
        while let Some(item) = q.pop() {
            got.push(item);
        }
        got
    }

    #[test]
    fn a_full_queue_blocks_push_until_a_pop() {
        let q = DispatchQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        let pushed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (q, pushed) = (&q, &pushed);
            scope.spawn(move || {
                assert!(q.push(3));
                pushed.store(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(pushed.load(Ordering::SeqCst), 0, "push did not block");
            assert_eq!(q.pop(), Some(1));
            while pushed.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        });
        // Abort drops queued work and fails further pushes at once.
        q.abort();
        assert!(!q.push(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn every_item_dispatched_exactly_once_across_threads() {
        const ITEMS: u64 = 500;
        let q = DispatchQueue::new(8);
        let delivered: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| drain(&q))).collect();
            for i in 0..ITEMS {
                assert!(q.push(i));
            }
            q.close();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = delivered.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }

    #[test]
    fn pop_blocks_until_work_or_close() {
        let q = DispatchQueue::new(4);
        std::thread::scope(|scope| {
            let qr = &q;
            let got = scope.spawn(move || qr.pop());
            std::thread::sleep(Duration::from_millis(20));
            assert!(q.push(7));
            assert_eq!(got.join().unwrap(), Some(7));
            let done = scope.spawn(move || qr.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(done.join().unwrap(), None);
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Workers racing a live feeder: every pushed item is delivered
        /// exactly once, for any worker count and capacity. Items are
        /// distinct, so multiset equality is both loss- and
        /// duplication-sensitive.
        #[test]
        fn nothing_lost_nothing_duplicated(
            workers in 1usize..6,
            items in 0u64..400,
            capacity in 1usize..12,
        ) {
            let q = DispatchQueue::new(capacity);
            let collected: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let q = &q;
                        scope.spawn(move || drain(q))
                    })
                    .collect();
                for i in 0..items {
                    assert!(q.push(i), "push failed on a live queue");
                }
                q.close();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut all: Vec<u64> = collected.into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..items).collect::<Vec<_>>());
        }

        /// One thread pushing and popping in any interleaving gets the
        /// items back in push order.
        #[test]
        fn a_single_threaded_drain_returns_push_order(
            capacity in 1usize..12,
            // 1 pushes, 0 pops.
            schedule in prop::collection::vec(0u8..2, 0..200),
        ) {
            let q = DispatchQueue::new(capacity);
            let (mut pushed, mut held, mut got) = (0u64, 0usize, Vec::new());
            for op in schedule {
                // A push on a full queue would block this thread forever.
                if op == 1 && held < capacity {
                    assert!(q.push(pushed));
                    pushed += 1;
                    held += 1;
                } else if held > 0 {
                    got.extend(q.pop());
                    held -= 1;
                }
            }
            q.close();
            got.extend(drain(&q));
            prop_assert_eq!(got, (0..pushed).collect::<Vec<_>>());
        }

        /// Abort wakes every worker parked on an open, empty queue, and
        /// what was delivered before it is duplicate-free. A missed wake-up
        /// hangs this test rather than failing an assertion.
        #[test]
        fn abort_wakes_all_parked_workers(
            workers in 1usize..6,
            pre_items in 0u64..12,
            consumed in 0usize..6,
        ) {
            let q = DispatchQueue::new(16);
            for i in 0..pre_items {
                assert!(q.push(i));
            }
            // Eat a few here so some workers find the queue empty at once.
            let consumed = consumed.min(pre_items as usize);
            let mut all: Vec<u64> = (0..consumed).filter_map(|_| q.pop()).collect();
            let entered = AtomicUsize::new(0);
            let delivered: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (q, entered) = (&q, &entered);
                        scope.spawn(move || {
                            entered.fetch_add(1, Ordering::SeqCst);
                            drain(q)
                        })
                    })
                    .collect();
                // Let every worker start, drain the leftovers and park.
                while entered.load(Ordering::SeqCst) < workers {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(2));
                q.abort();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            prop_assert!(!q.push(999));
            prop_assert_eq!(q.pop(), None);
            all.extend(delivered.into_iter().flatten());
            all.sort_unstable();
            let delivered = all.len();
            all.dedup();
            // Items the abort dropped are expected; duplicates are not.
            prop_assert_eq!(all.len(), delivered, "an item was delivered twice");
            prop_assert!(all.iter().all(|&i| i < pre_items));
        }

        /// A feeder parked on a full queue is released by abort, with
        /// `push` reporting failure.
        #[test]
        fn abort_releases_a_blocked_feeder(capacity in 1usize..4) {
            let q = DispatchQueue::new(capacity);
            for i in 0..capacity as u64 {
                assert!(q.push(i));
            }
            std::thread::scope(|scope| {
                let qr = &q;
                let blocked = scope.spawn(move || qr.push(capacity as u64));
                std::thread::sleep(Duration::from_millis(2));
                q.abort();
                assert!(!blocked.join().unwrap());
            });
            prop_assert_eq!(q.pop(), None);
        }
    }
}
