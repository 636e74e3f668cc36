//! Bounded admission queue: the backpressure primitive.
//!
//! A `Mutex<VecDeque>` + `Condvar` channel with a hard capacity.
//! [`AdmissionQueue::try_push`] never blocks — a full queue hands the item
//! straight back so the acceptor can reject with a typed
//! [`crate::ServerError::Overloaded`] instead of queueing unboundedly.
//! [`AdmissionQueue::pop`] blocks with a timeout so worker threads can
//! re-check the shutdown flag on a fixed cadence.
//!
//! The queue's live depth doubles as the load signal: the connection
//! handler flips to cached-plan-only (shed) mode when
//! [`AdmissionQueue::depth`] reaches the configured watermark — clients
//! waiting for a worker is exactly the condition under which spending
//! optimizer time on never-seen queries stops being affordable.
//!
//! Poisoned locks recover (the engine-wide policy, see `els_core::sync`):
//! the state is a plain deque + flag with no partial-update window.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use els_core::sync::{lock_recovering, wait_timeout_recovering};

/// What a blocking pop observed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Popped<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue empty; caller re-checks shutdown
    /// and typically retries.
    Empty,
    /// The queue was closed and drained — the worker should exit.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with non-blocking admission and timed pops.
pub(crate) struct AdmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` waiting items (minimum 1).
    pub(crate) fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item` if there is room; hand it back (`Err`) when the queue
    /// is full or closed. Never blocks — this is the admission-control
    /// decision point.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = lock_recovering(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, waiting up to `timeout` for an item.
    pub(crate) fn pop(&self, timeout: Duration) -> Popped<T> {
        let mut state = lock_recovering(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Popped::Item(item);
            }
            if state.closed {
                return Popped::Closed;
            }
            let (next, timed_out) = wait_timeout_recovering(&self.ready, state, timeout);
            state = next;
            if timed_out {
                return match state.items.pop_front() {
                    Some(item) => Popped::Item(item),
                    None if state.closed => Popped::Closed,
                    None => Popped::Empty,
                };
            }
        }
    }

    /// Number of items currently waiting — the shed-mode load signal.
    pub(crate) fn depth(&self) -> usize {
        lock_recovering(&self.state).items.len()
    }

    /// Close the queue: future pushes fail, waiting poppers drain what is
    /// left and then observe [`Popped::Closed`].
    pub(crate) fn close(&self) {
        lock_recovering(&self.state).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_push_hands_back_on_full() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(3), "full queue must reject, not block");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(Duration::from_millis(1)), Popped::Item(1));
        assert_eq!(q.try_push(3), Ok(()), "pop frees a slot");
    }

    #[test]
    fn pop_times_out_empty_and_drains_after_close() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(4);
        assert_eq!(q.pop(Duration::from_millis(1)), Popped::Empty);
        q.try_push(7).expect("room");
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue admits nothing");
        assert_eq!(q.pop(Duration::from_millis(1)), Popped::Item(7), "drain continues");
        assert_eq!(q.pop(Duration::from_millis(1)), Popped::Closed);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity, 1);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Err(2));
    }
}
