//! # invmeas-faults — deterministic fault injection for chaos testing
//!
//! A production mitigation service has to survive more than the happy
//! path: disks tear writes, characterization stalls, workers panic, and
//! profiles rot on disk. This crate scripts those failures so the rest of
//! the workspace can *rehearse* them deterministically:
//!
//! * [`FaultInjector`] — the hook trait production code is written
//!   against. The default implementation, [`NoFaults`], is a zero-sized
//!   type whose check inlines to `None`, so the production path pays
//!   nothing when injection is disabled.
//! * [`FaultPlan`] — a seeded, scripted injector: "on the 2nd arrival at
//!   the `characterize` site, fail; on the 3rd job, panic". Faults fire by
//!   *arrival count* at a [`FaultSite`], not by wall-clock time, so the
//!   same plan replays the same fault sequence on every run and under any
//!   thread count (as long as the driving requests are issued in a fixed
//!   order).
//! * a line-oriented text format (`faultplan v1`) so chaos scenarios can
//!   be checked into CI and replayed against a release binary;
//! * [`LineReader`] — the header check, line numbering and [`LineError`]
//!   shared by every line-oriented text format in the workspace, these
//!   scripts and the core crate's profiles and journals alike.
//!
//! ```
//! use invmeas_faults::{Fault, FaultInjector, FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::new(42)
//!     .on_nth(FaultSite::Characterize, 2, Fault::Error("injected".into()))
//!     .on_nth(FaultSite::Worker, 1, Fault::Panic("chaos".into()));
//! assert_eq!(plan.check(FaultSite::Characterize), None); // arrival 1
//! assert!(plan.check(FaultSite::Characterize).is_some()); // arrival 2
//! assert_eq!(plan.injected(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod lines;
mod netplan;
mod plan;
mod script;

pub use lines::{LineError, LineReader};
pub use netplan::{jitter, ConnectDecision, NetFault, NetFaultPlan};
pub use plan::{Fault, FaultPlan, FaultSite, SITE_COUNT};

/// The hook production code calls at each instrumented site.
///
/// Implementations must be cheap and thread-safe: `check` is called on hot
/// paths (executor entry, worker dispatch, profile I/O) from many threads.
/// The contract is *consume-on-arrival*: each call counts as one arrival
/// at `site`, and the injector decides whether a fault fires for that
/// arrival. Callers apply the returned [`Fault`] themselves (sleep, error
/// out, panic, tear the write), which keeps this crate free of any I/O.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Registers one arrival at `site`; returns the fault to apply, if any.
    fn check(&self, site: FaultSite) -> Option<Fault>;

    /// Total faults fired so far (0 for injectors that do not count).
    fn injected(&self) -> u64 {
        0
    }
}

/// The production injector: never fires, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline(always)]
    fn check(&self, _site: FaultSite) -> Option<Fault> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fires() {
        for site in FaultSite::ALL {
            assert_eq!(NoFaults.check(site), None);
        }
        assert_eq!(NoFaults.injected(), 0);
    }

    #[test]
    fn trait_objects_work() {
        let plan: std::sync::Arc<dyn FaultInjector> =
            std::sync::Arc::new(FaultPlan::new(7).on_nth(FaultSite::Worker, 1, Fault::Latency(5)));
        assert_eq!(plan.check(FaultSite::Worker), Some(Fault::Latency(5)));
        assert_eq!(plan.injected(), 1);
    }
}
