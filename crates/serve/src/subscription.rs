//! Client-side subscription objects and the bounded, coalescing delta
//! queues connecting them to the dispatcher.

use crate::dispatch::Msg;
use crate::error::ServeError;
use kspr::KsprResult;
use kspr_monitor::{QueryId, ResultDelta, UpdateClass};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};

/// Upper bound on the deltas a single [`Subscription`] may hold pending.  A
/// subscriber that stops draining its notifications would otherwise grow
/// dispatcher memory without bound (the dispatcher keeps emitting deltas
/// for every update batch); past this bound newer deltas are **coalesced**
/// into the newest pending one instead of enqueued — deltas chain (`after`
/// of one is `before` of the next), so merging keeps the oldest `before`
/// and newest `after` state and loses nothing but the intermediate steps.
pub const MAX_PENDING_DELTAS: usize = 64;

/// Outcome of a [`DeltaQueue::push`].
pub(crate) enum DeltaPush {
    /// Appended as a new pending delta.
    Queued,
    /// Merged into the newest pending delta (the queue was at
    /// [`MAX_PENDING_DELTAS`]).
    Coalesced,
    /// Dropped: the queue was closed (subscription unregistered or the
    /// registry invalidated).
    Closed,
}

/// The per-subscription notification queue: a bounded, coalescing channel
/// between the dispatcher (producer) and a [`Subscription`] (consumer).
pub(crate) struct DeltaQueue {
    state: Mutex<DeltaQueueState>,
    ready: Condvar,
}

struct DeltaQueueState {
    pending: VecDeque<ResultDelta>,
    closed: bool,
}

impl DeltaQueue {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(DeltaQueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Enqueues a delta, coalescing it into the newest pending one when the
    /// subscriber has fallen [`MAX_PENDING_DELTAS`] behind.
    pub(crate) fn push(&self, delta: ResultDelta) -> DeltaPush {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return DeltaPush::Closed;
        }
        let outcome = if state.pending.len() >= MAX_PENDING_DELTAS {
            // Consecutive deltas of one query chain exactly: keep the oldest
            // `before` state and take the newest `after` state.  A re-run
            // anywhere in the merged span means the surviving state was
            // obtained through a re-run.
            let newest = state.pending.back_mut().expect("the cap is at least 1");
            if delta.class == UpdateClass::Rerun {
                newest.class = UpdateClass::Rerun;
            }
            newest.regions_after = delta.regions_after;
            newest.ranks_after = delta.ranks_after;
            DeltaPush::Coalesced
        } else {
            state.pending.push_back(delta);
            DeltaPush::Queued
        };
        drop(state);
        self.ready.notify_one();
        outcome
    }

    /// Closes the queue: pending deltas stay drainable, every later `push`
    /// is dropped, and a blocked [`DeltaQueue::pop`] wakes with `None`.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Non-blocking pop.
    pub(crate) fn try_pop(&self) -> Option<ResultDelta> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .pop_front()
    }

    /// Blocks until a delta is pending (or the queue closes: `None`).
    pub(crate) fn pop(&self) -> Option<ResultDelta> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(delta) = state.pending.pop_front() {
                return Some(delta);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A pending [`Subscription`]: resolves once the dispatcher has registered
/// (and initially answered) the standing query.
pub struct SubscribeTicket {
    pub(crate) rx: mpsc::Receiver<Result<(QueryId, KsprResult), ServeError>>,
    pub(crate) deltas: Arc<DeltaQueue>,
    pub(crate) control: mpsc::Sender<Msg>,
}

impl SubscribeTicket {
    /// Blocks until the standing query is registered (or rejected).
    pub fn wait(self) -> Result<Subscription, ServeError> {
        match self.rx.recv() {
            Ok(Ok((id, initial))) => Ok(Subscription {
                id,
                initial,
                deltas: self.deltas,
                control: self.control,
            }),
            Ok(Err(err)) => Err(err),
            Err(mpsc::RecvError) => Err(ServeError::ServerClosed),
        }
    }
}

/// A live standing query: holds the initial result and receives a
/// [`ResultDelta`] for every update batch that changed it.
///
/// At most [`MAX_PENDING_DELTAS`] notifications are held pending; a slower
/// consumer still sees a delta chain whose final `after` state is current,
/// with the oldest backlog steps merged together (see [`MAX_PENDING_DELTAS`]).
///
/// Dropping the subscription unregisters the standing query with the
/// dispatcher, freeing its maintenance state — a long-lived
/// [`crate::Server`] never accumulates state for subscribers that went
/// away.
pub struct Subscription {
    id: QueryId,
    initial: KsprResult,
    deltas: Arc<DeltaQueue>,
    control: mpsc::Sender<Msg>,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("initial_regions", &self.initial.num_regions())
            .finish_non_exhaustive()
    }
}

impl Subscription {
    /// The standing query's registry id (usable with
    /// [`crate::ServeHandle::unsubscribe`]).
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The result at registration time; later states are communicated as
    /// deltas.
    pub fn initial(&self) -> &KsprResult {
        &self.initial
    }

    /// Drains every notification delivered so far without blocking.
    pub fn poll(&self) -> Vec<ResultDelta> {
        let mut out = Vec::new();
        while let Some(delta) = self.deltas.try_pop() {
            out.push(delta);
        }
        out
    }

    /// Blocks until the next notification.  `None` means this subscription
    /// will never be notified again: either the server shut down, or a
    /// maintenance pass failed and the dispatcher invalidated the standing
    /// registry (see the `server` module docs) — in the latter case the
    /// server is still serving and re-subscribing resumes watching.
    pub fn recv(&self) -> Option<ResultDelta> {
        self.deltas.pop()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Fire-and-forget: if the server is already gone the registry died
        // with it.
        let _ = self.control.send(Msg::Unsubscribe {
            id: self.id,
            tx: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_queue_caps_and_coalesces_slow_consumers() {
        let queue = DeltaQueue::new();
        let delta = |i: usize, class: UpdateClass| ResultDelta {
            query: 7,
            class,
            regions_before: i,
            regions_after: i + 1,
            ranks_before: vec![i],
            ranks_after: vec![i + 1],
        };
        for i in 0..MAX_PENDING_DELTAS {
            assert!(matches!(
                queue.push(delta(i, UpdateClass::Patched)),
                DeltaPush::Queued
            ));
        }
        // The queue is at its cap: further deltas merge into the newest
        // pending one, keeping its oldest `before` and the latest `after`.
        assert!(matches!(
            queue.push(delta(MAX_PENDING_DELTAS, UpdateClass::Rerun)),
            DeltaPush::Coalesced
        ));
        assert!(matches!(
            queue.push(delta(MAX_PENDING_DELTAS + 1, UpdateClass::Patched)),
            DeltaPush::Coalesced
        ));
        let mut drained = Vec::new();
        while let Some(d) = queue.try_pop() {
            drained.push(d);
        }
        assert_eq!(drained.len(), MAX_PENDING_DELTAS, "the cap held");
        let tail = drained.last().expect("cap is at least 1");
        assert_eq!(
            tail.regions_before,
            MAX_PENDING_DELTAS - 1,
            "the merged delta keeps the oldest before state"
        );
        assert_eq!(
            tail.regions_after,
            MAX_PENDING_DELTAS + 2,
            "the merged delta takes the newest after state"
        );
        assert_eq!(
            tail.class,
            UpdateClass::Rerun,
            "a re-run anywhere in the merged span survives later patches"
        );
        assert_eq!(tail.ranks_after, vec![MAX_PENDING_DELTAS + 2]);
        // The chain is still intact: the merged tail continues from the last
        // unmerged delta.
        assert_eq!(
            drained[drained.len() - 2].regions_after,
            tail.regions_before
        );
        // Closing keeps pending deltas drainable, drops later pushes, and
        // unblocks `pop`.
        assert!(matches!(
            queue.push(delta(0, UpdateClass::Patched)),
            DeltaPush::Queued
        ));
        queue.close();
        assert!(matches!(
            queue.push(delta(1, UpdateClass::Patched)),
            DeltaPush::Closed
        ));
        assert!(queue.pop().is_some(), "drained before the closed marker");
        assert!(queue.pop().is_none());
    }
}
