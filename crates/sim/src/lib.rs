//! # sempe-sim — a cycle-level out-of-order core with SeMPE support
//!
//! The evaluation substrate of the SeMPE reproduction: a Haswell-like
//! out-of-order pipeline configured per the paper's Table II (8-wide
//! front end, 192-entry ROB, 256+256 physical registers, 60+60 issue
//! buffers, 32+32 load/store queues, 12-wide retire, TAGE + ITTAGE
//! prediction, 16 KB IL1 / 32 KB DL1 / 256 KB L2 with stride and stream
//! prefetchers).
//!
//! The SeMPE mechanisms themselves (jump-back table, ArchRS snapshots,
//! scratchpad) come from [`sempe_core`]; this crate drives them from the
//! pipeline:
//!
//! * run the same binary with [`config::SecurityMode::Baseline`] and the
//!   front end decodes legacy-style — sJMP is a plain predicted branch
//!   (the vulnerable baseline);
//! * run it with [`config::SecurityMode::Sempe`] and secure branches
//!   execute **both paths**, not-taken first, with the three pipeline
//!   drains and scratchpad spills of Figure 6.
//!
//! ```
//! use sempe_isa::asm::Asm;
//! use sempe_isa::reg::abi;
//! use sempe_sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // if (secret) a1 = 1 else a1 = 2
//! let mut a = Asm::new();
//! let then_ = a.label("then");
//! let join = a.label("join");
//! a.movi(abi::A[0], 1);
//! a.sbne(abi::A[0], abi::ZERO, then_);
//! a.movi(abi::A[1], 2);
//! a.jmp(join);
//! a.bind(then_)?;
//! a.movi(abi::A[1], 1);
//! a.bind(join)?;
//! a.eosjmp();
//! a.halt();
//! let prog = a.assemble()?;
//!
//! let mut sim = Simulator::new(&prog, SimConfig::paper())?;
//! sim.run(1_000_000)?;
//! assert_eq!(sim.arch_reg(abi::A[1]), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// `Clone` for a struct of tables whose `clone_from` copies field by
/// field, so every vector inside reuses the destination's allocation
/// (the derived `Clone` has no `clone_from` of its own; the default one
/// allocates a whole new copy and frees the old). Both methods destructure
/// the struct without `..`, so a field added later and left out here is
/// a compile error, not a field a restore forgets.
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty { $($field: self.$field.clone()),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),+ } = self;
                $($field.clone_from(&source.$field);)+
            }
        }
    };
}

pub mod bpred;
pub mod cache;
mod calendar;
pub mod config;
pub mod lsq;
pub mod pipeline;
pub mod rename;
pub mod rob;
pub mod skip;
pub mod stats;
pub mod tier;

pub use config::{Roi, SecurityMode, SimConfig, Stepping};
pub use pipeline::{Checkpoint, HostProfile, SimError, Simulator, DEADLINE_QUANTUM};
pub use stats::{SimResult, SimStats};
