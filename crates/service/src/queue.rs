//! The bounded run queue with non-blocking, priority-aware admission.
//!
//! Backpressure policy: producers never block and never buffer without
//! bound — [`BoundedQueue::try_push`] fails fast when the queue is full so
//! the connection layer can answer `503 busy` immediately. Consumers
//! (workers) block on [`BoundedQueue::pop`] until a job arrives or the
//! queue is closed *and* drained, which is exactly the graceful-shutdown
//! contract: close, let workers finish what was admitted, exit.
//!
//! One `Mutex<VecDeque>` and one `Condvar` guard admission, shedding and
//! drain. The event-loop thread is the only producer and each pop hands a
//! worker a job that runs for milliseconds, so the lock is taken once per
//! job on each side and is rarely contended.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// How far past the capacity control-plane pushes may overflow. The
/// queued control ops (a peer's `replicate`, a clustered node's
/// `set-window` broadcast) are tiny, bounded in number by the connection
/// count, and are exactly what keeps the mesh consistent *during* an
/// overload — so they are never shed and get this much headroom before
/// even they hit `Full`.
const CONTROL_SLACK: usize = 64;

/// How [`BoundedQueue::try_push`] treats an item under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedClass {
    /// Control-plane: never shed, admitted into the overflow slack even
    /// at capacity.
    Control,
    /// Work: shed earliest-deadline-impossible first. `deadline` is the
    /// absolute instant after which the job's answer is worthless
    /// (`None` = no deadline; such work is never chosen as a victim).
    Work {
        /// Absolute completion deadline, if the job carries one.
        deadline: Option<Instant>,
    },
}

/// Why [`BoundedQueue::try_push`] rejected an item (the item is handed
/// back so the caller can report on it).
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue has been closed for shutdown.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity thread-safe FIFO.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` work items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The maximum number of queued work items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current number of queued items.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Attempts to enqueue without blocking, with priority-aware load
    /// shedding when the queue is at capacity:
    ///
    /// * **control** items ([`ShedClass::Control`]) are never shed and
    ///   are admitted into a small overflow slack past capacity, so
    ///   operator and mesh commands keep landing while the data plane is
    ///   saturated;
    /// * **work** items at capacity evict the queued work item with the
    ///   earliest deadline that has *already expired* (it would only be
    ///   dequeued to answer `deadline exceeded` anyway) — the evicted
    ///   victim is handed back so the caller can answer it immediately,
    ///   and the new item takes its slot. With no expired victim the
    ///   push fails `Full`.
    ///
    /// On success returns the depth *after* insertion (for high-water-mark
    /// accounting) and the shed victim, if any.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity with no sheddable victim
    /// (or a control push exhausted even the slack), [`PushError::Closed`]
    /// after [`BoundedQueue::close`]; both return the rejected item.
    pub fn try_push(
        &self,
        item: T,
        now: Instant,
        class_of: impl Fn(&T) -> ShedClass,
    ) -> Result<(usize, Option<T>), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        let depth = inner.items.len();
        let mut shed = None;
        match class_of(&item) {
            ShedClass::Control if depth >= self.capacity + CONTROL_SLACK => {
                return Err(PushError::Full(item));
            }
            ShedClass::Work { .. } if depth >= self.capacity => {
                let victim = inner
                    .items
                    .iter()
                    .enumerate()
                    .filter_map(|(i, it)| match class_of(it) {
                        ShedClass::Work { deadline: Some(d) } if d <= now => Some((i, d)),
                        _ => None,
                    })
                    .min_by_key(|&(_, d)| d);
                match victim {
                    Some((i, _)) => shed = inner.items.remove(i),
                    None => return Err(PushError::Full(item)),
                }
            }
            _ => {}
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.available.notify_one();
        Ok((depth, shed))
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: future pushes fail, and consumers drain what
    /// remains before seeing `None`. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        drop(inner);
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Pushes deadline-free work, returning the depth after insertion.
    fn push<T>(q: &BoundedQueue<T>, item: T) -> Result<usize, PushError<T>> {
        let eternal = |_: &T| ShedClass::Work { deadline: None };
        q.try_push(item, Instant::now(), eternal)
            .map(|(depth, shed)| {
                assert!(shed.is_none(), "deadline-free work was shed");
                depth
            })
    }

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(push(&q, 1), Ok(1));
        assert_eq!(push(&q, 2), Ok(2));
        assert_eq!(push(&q, 3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(push(&q, 3), Ok(2));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        push(&q, "a").unwrap();
        push(&q, "b").unwrap();
        q.close();
        assert_eq!(push(&q, "c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays ended
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            loop {
                match push(&q, i) {
                    Ok(_) => break,
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[derive(Debug, PartialEq, Eq)]
    struct Job(&'static str, ShedClass);

    fn class(j: &Job) -> ShedClass {
        j.1
    }

    #[test]
    fn control_pushes_overflow_capacity_but_work_does_not() {
        let now = Instant::now();
        let q = BoundedQueue::new(1);
        let work = ShedClass::Work { deadline: None };
        q.try_push(Job("w", work), now, class).unwrap();
        // Work at capacity with no expired victim: Full.
        assert!(matches!(
            q.try_push(Job("w2", work), now, class),
            Err(PushError::Full(Job("w2", _)))
        ));
        // Control rides the overflow slack.
        let (depth, shed) = q
            .try_push(Job("ctl", ShedClass::Control), now, class)
            .unwrap();
        assert!(shed.is_none());
        assert!(depth > q.capacity());
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn control_slack_is_bounded() {
        let now = Instant::now();
        let q = BoundedQueue::new(1);
        let mut admitted = 0;
        loop {
            match q.try_push(Job("c", ShedClass::Control), now, class) {
                Ok(_) => admitted += 1,
                Err(PushError::Full(_)) => break,
                Err(PushError::Closed(_)) => unreachable!(),
            }
        }
        assert_eq!(admitted, q.capacity() + CONTROL_SLACK);
        // Past the slack, work is still turned away at capacity.
        assert!(matches!(
            q.try_push(Job("w", ShedClass::Work { deadline: None }), now, class),
            Err(PushError::Full(_))
        ));
    }

    #[test]
    fn work_at_capacity_sheds_the_expired_victim() {
        let now = Instant::now();
        let expired = ShedClass::Work {
            deadline: Some(now - Duration::from_millis(1)),
        };
        let live = ShedClass::Work {
            deadline: Some(now + Duration::from_secs(60)),
        };
        let q = BoundedQueue::new(2);
        q.try_push(Job("live", live), now, class).unwrap();
        q.try_push(Job("expired", expired), now, class).unwrap();
        // At capacity: the expired item is evicted, the live one stays.
        let (depth, shed) = q.try_push(Job("new", live), now, class).unwrap();
        assert_eq!(shed, Some(Job("expired", expired)));
        assert_eq!(depth, 2, "slot swapped, not grown");
        assert_eq!(q.depth(), 2);
        let drained: Vec<_> = [q.pop().unwrap(), q.pop().unwrap()]
            .into_iter()
            .map(|j| j.0)
            .collect();
        assert_eq!(drained, ["live", "new"]);
        // No expired victims left: back to plain Full.
        assert!(q.try_push(Job("x", live), now, class).is_ok());
        assert!(q.try_push(Job("y", live), now, class).is_ok());
        assert!(matches!(
            q.try_push(Job("z", live), now, class),
            Err(PushError::Full(_))
        ));
    }

    #[test]
    fn shedding_picks_the_earliest_expired_deadline_in_the_queue() {
        let now = Instant::now();
        let expired = |ms| ShedClass::Work {
            deadline: Some(now - Duration::from_millis(ms)),
        };
        let live = ShedClass::Work {
            deadline: Some(now + Duration::from_secs(60)),
        };
        let q = BoundedQueue::new(3);
        q.try_push(Job("1ms", expired(1)), now, class).unwrap();
        q.try_push(Job("live", live), now, class).unwrap();
        q.try_push(Job("5ms", expired(5)), now, class).unwrap();
        let (_, shed) = q.try_push(Job("new", live), now, class).unwrap();
        assert_eq!(shed, Some(Job("5ms", expired(5))));
        let (_, shed) = q.try_push(Job("newer", live), now, class).unwrap();
        assert_eq!(shed, Some(Job("1ms", expired(1))));
        let drained: Vec<_> = (0..3).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(drained, ["live", "new", "newer"]);
    }

    #[test]
    fn deadline_free_work_is_never_shed() {
        let now = Instant::now();
        let q = BoundedQueue::new(1);
        let eternal = ShedClass::Work { deadline: None };
        q.try_push(Job("eternal", eternal), now, class).unwrap();
        assert!(matches!(
            q.try_push(Job("new", eternal), now, class),
            Err(PushError::Full(_))
        ));
        assert_eq!(q.pop(), Some(Job("eternal", eternal)));
    }

    #[test]
    fn shed_push_respects_close() {
        let now = Instant::now();
        let q = BoundedQueue::new(4);
        q.close();
        assert!(matches!(
            q.try_push(Job("c", ShedClass::Control), now, class),
            Err(PushError::Closed(_))
        ));
    }
}
