//! Next-event cycle skipping — the vocabulary type.
//!
//! Stall-dominated runs spend most of their simulated cycles in ticks
//! where *nothing architectural can change*: every stage is parked
//! waiting on a timer (a cache miss in flight, a scratchpad transfer, a
//! decode pipe) or on another stage. Walking all six stages through such
//! a cycle costs full per-cycle work for zero state change.
//!
//! The simulator therefore makes quiescence an explicit, auditable
//! property: every timed structure reports a [`Wake`] — *can you act
//! this cycle, and if not, when is the earliest cycle you could?* The
//! pipeline folds the reports with [`Wake::earliest`]; when the combined
//! answer is not [`Wake::Now`], `Simulator::run` fast-forwards the cycle
//! counter straight to the wake point (bounded by `max_cycles` and the
//! watchdog deadline), bulk-accounting the per-cycle counters the
//! skipped ticks would have incremented.
//!
//! Reporters (one per timed structure, each documented at its source):
//!
//! * `Rob::commit_wake` — is the head ready to retire?
//! * the completion calendar — earliest due event's cycle;
//! * `Lsq::wake_since` — did the store queue change since the last
//!   replay pass while loads are parked?
//! * the issue queue — any ready (woken) entry?
//! * rename — drain timers, decode-ready cycle of the frontend head,
//!   structural hazards (via the same gate the rename stage itself
//!   uses);
//! * fetch — redirect/halt blocks, i-cache stall timer, queue pressure;
//! * `MemHierarchy::wake` and `SempeUnit::next_event_cycle` — both
//!   always idle, by contract: their timed effects are charged into the
//!   pipeline's own timers at access/commit time.
//!
//! Skipping is semantically invisible: cycles, statistics, outputs and
//! `Strictness::Full` observation traces are bit-for-bit identical to
//! classic 1-cycle stepping (select
//! [`Stepping::Classic`](crate::config::Stepping::Classic) to force the
//! latter). The equivalence is enforced by the golden cycle tables,
//! `tests/skip.rs`, and the fuzzer's skip differential. Skipping also
//! stays on inside the detailed portions of
//! [`Stepping::Tiered`](crate::config::Stepping::Tiered) runs — the two
//! fast-forwards compose (see [`crate::tier`]).

/// When a timed structure can next affect the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Nothing pending inside the structure: only an event elsewhere in
    /// the machine can change it. Never bounds a skip.
    Idle,
    /// The structure cannot act before this cycle (which must be in the
    /// reporter's future — stale timers report [`Wake::Idle`]).
    At(u64),
    /// The structure can act in the current cycle; skipping is illegal.
    Now,
}

impl Wake {
    /// Fold two reports: the machine may sleep only until the earliest
    /// wake, and not at all if anything can act now.
    #[must_use]
    pub fn earliest(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::Now, _) | (_, Wake::Now) => Wake::Now,
            (Wake::Idle, w) | (w, Wake::Idle) => w,
            (Wake::At(a), Wake::At(b)) => Wake::At(a.min(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_folds_like_a_min_with_now_dominant() {
        assert_eq!(Wake::Idle.earliest(Wake::Idle), Wake::Idle);
        assert_eq!(Wake::Idle.earliest(Wake::At(7)), Wake::At(7));
        assert_eq!(Wake::At(9).earliest(Wake::At(7)), Wake::At(7));
        assert_eq!(Wake::At(7).earliest(Wake::At(9)), Wake::At(7));
        assert_eq!(Wake::Now.earliest(Wake::Idle), Wake::Now);
        assert_eq!(Wake::At(7).earliest(Wake::Now), Wake::Now);
    }
}
