//! Thread-local statevector buffer arena.
//!
//! Characterization sweeps simulate thousands of *small* circuits; at 5
//! qubits the `vec![C64::ZERO; 32]` per circuit is noise, but a Melbourne
//! sweep at 14 qubits allocates and faults in 256 KB per trajectory. The
//! arena recycles amplitude buffers per thread: [`StateVector::recycle`]
//! parks a spent buffer here, and [`StateVector::zero`] reuses one instead
//! of allocating when a parked buffer is big enough. Because the worker
//! pool's threads are persistent, each pool worker keeps its arena warm
//! across every circuit of a batch — that is what turns per-circuit
//! allocation into amortized, page-warm reuse.
//!
//! Reuse is an allocation-level optimization only: a recycled buffer is
//! zeroed through the same `resize` path a fresh one is, so simulation
//! results are unaffected. The process-wide [`arena_reuse_hits`] counter
//! feeds `qmetrics` / `svc status`.
//!
//! Ideal-state checkpoints ([`crate::Checkpoint`]) use a second,
//! process-wide pool: a sweep's checkpoints are read by every worker, and
//! service jobs alternate between workers, so per-thread parking would
//! keep one copy per worker.
//!
//! [`StateVector::recycle`]: crate::StateVector::recycle
//! [`StateVector::zero`]: crate::StateVector::zero

use crate::c64::C64;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-wide count of allocations avoided by arena reuse.
static ARENA_REUSE_HITS: AtomicU64 = AtomicU64::new(0);

/// Total amplitude-buffer allocations this process avoided via reuse.
pub fn arena_reuse_hits() -> u64 {
    ARENA_REUSE_HITS.load(Ordering::Relaxed)
}

/// Parked buffers kept per thread. Small on purpose, so a width change
/// can't strand hundreds of megabytes in idle threads. A gate-noise run
/// holds one base state and then one trajectory state in the same buffer;
/// its checkpoint is parked process-wide instead ([`take_shared`]). The
/// spare slots cover a batch's prefix states and scratch.
const MAX_PER_THREAD: usize = 4;

thread_local! {
    static PARKED: RefCell<Vec<Vec<C64>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zeroed buffer of exactly `len` amplitudes from this thread's
/// arena, or `None` when no parked buffer has the capacity.
pub(crate) fn take(len: usize) -> Option<Vec<C64>> {
    let mut buf = take_empty(len)?;
    buf.resize(len, C64::ZERO);
    Some(buf)
}

/// Takes an empty buffer with capacity for `len` amplitudes from this
/// thread's arena, for a caller that fills it by copying.
pub(crate) fn take_empty(len: usize) -> Option<Vec<C64>> {
    PARKED.with(|parked| take_from(&mut parked.borrow_mut(), len))
}

fn take_from(parked: &mut Vec<Vec<C64>>, len: usize) -> Option<Vec<C64>> {
    let idx = parked.iter().position(|b| b.capacity() >= len)?;
    let mut buf = parked.swap_remove(idx);
    buf.clear();
    ARENA_REUSE_HITS.fetch_add(1, Ordering::Relaxed);
    Some(buf)
}

/// Parks a spent amplitude buffer for reuse by this thread. When the
/// arena is full the smallest buffer is evicted so repeated sweeps at a
/// larger width converge to keeping the large buffers.
pub(crate) fn recycle(buf: Vec<C64>) {
    PARKED.with(|parked| park(&mut parked.borrow_mut(), buf, MAX_PER_THREAD));
}

fn park(parked: &mut Vec<Vec<C64>>, buf: Vec<C64>, max: usize) {
    if buf.capacity() == 0 {
        return;
    }
    if parked.len() < max {
        parked.push(buf);
        return;
    }
    let (smallest, _) = parked
        .iter()
        .enumerate()
        .min_by_key(|(_, b)| b.capacity())
        .expect("arena is non-empty when full");
    if parked[smallest].capacity() < buf.capacity() {
        parked[smallest] = buf;
    }
}

/// Checkpoint buffers parked process-wide. Checkpoints of one sweep are
/// read by every worker and outlive the job that took them, so they are
/// not parked per thread: two alternating service workers would each keep
/// their own copies. One shared pool holds what one or two concurrent
/// jobs need.
const MAX_SHARED: usize = 4;

static SHARED: Mutex<Vec<Vec<C64>>> = Mutex::new(Vec::new());

/// Takes an empty checkpoint buffer with capacity for `len` amplitudes
/// from the process-wide pool, allocating when none fits.
pub(crate) fn take_shared(len: usize) -> Vec<C64> {
    let mut shared = SHARED.lock().unwrap_or_else(|e| e.into_inner());
    take_from(&mut shared, len).unwrap_or_else(|| Vec::with_capacity(len))
}

/// Parks a spent checkpoint buffer in the process-wide pool.
pub(crate) fn recycle_shared(buf: Vec<C64>) {
    let mut shared = SHARED.lock().unwrap_or_else(|e| e.into_inner());
    park(&mut shared, buf, MAX_SHARED);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_recycled_capacity() {
        // Use a distinctive length to dodge buffers other tests parked on
        // this thread.
        let len = 1 << 9;
        let buf = vec![C64::new(0.25, -1.0); len];
        let ptr = buf.as_ptr();
        recycle(buf);
        let before = arena_reuse_hits();
        let reused = take(len).expect("a parked buffer fits");
        assert_eq!(reused.as_ptr(), ptr, "same allocation comes back");
        assert_eq!(reused.len(), len);
        assert!(reused
            .iter()
            .all(|a| a.re.to_bits() == 0 && a.im.to_bits() == 0));
        assert!(arena_reuse_hits() > before);
    }

    #[test]
    fn smaller_parked_buffers_do_not_satisfy_larger_requests() {
        recycle(vec![C64::ZERO; 8]);
        // Anything parked by this test is ≤ 2^9; a 2^20 request misses
        // unless a *larger* buffer happens to be parked, which recycling a
        // small vec cannot cause.
        let big = 1 << 20;
        if let Some(buf) = take(big) {
            assert_eq!(buf.len(), big);
        }
    }

    #[test]
    fn arena_is_bounded_and_prefers_large_buffers() {
        // Fill the arena beyond its cap with distinguishable capacities.
        for i in 0..(MAX_PER_THREAD + 2) {
            recycle(vec![C64::ZERO; 64 << i]);
        }
        // A buffer bigger than everything parked evicts the smallest.
        let huge_len = 64 << (MAX_PER_THREAD + 3);
        recycle(vec![C64::ZERO; huge_len]);
        assert!(
            take(huge_len).is_some(),
            "the largest recycled buffer must survive eviction"
        );
        PARKED.with(|parked| {
            assert!(parked.borrow().len() <= MAX_PER_THREAD);
        });
    }
}
