//! Deterministic, seeded fault injection for the service stack.
//!
//! A [`FaultPlan`] is a pure description — per-site firing rates (in
//! per-mille) plus magnitudes (stall durations) and a seed. The running
//! daemon wraps it in a [`FaultInjector`], which rolls a seeded,
//! per-site counter-based hash at every labelled fault site:
//!
//! | site | where it bites |
//! |---|---|
//! | `accept_drop` | the connection is dropped right after `accept` |
//! | `read_stall` | the handler stalls before reading a request frame |
//! | `write_stall` | the response is written in two halves with a stall between |
//! | `write_trunc` | the response is truncated mid-frame and the socket closed |
//! | `panic_pre` | the worker panics at the `pre-execute` checkpoint (job in hand) |
//! | `panic_post` | the worker panics at the `post-execute` checkpoint (reply unsent) |
//! | `wedge` | the worker busy-waits as if the simulation wedged (honours the deadline) |
//! | `cache_fail` | the result-cache insert is dropped on the floor |
//! | `arena_corrupt` | the worker's arena is quarantined after the job (forces rebuild) |
//!
//! Decisions are deterministic given the seed: site `s` fires on its
//! `n`-th visit iff `mix(seed, s, n) % 1000 < rate(s)`. Which *request*
//! lands on the `n`-th visit still depends on thread interleaving — the
//! point is a reproducible fault *budget* per site, not a reproducible
//! schedule, and the chaos harness asserts convergence regardless of
//! interleaving.
//!
//! Plans parse from a compact `key=value,key=value` spec (the hidden
//! `sempe-serve --fault-plan` flag and `sempe-fuzz --service`):
//!
//! ```text
//! seed=7,accept_drop=30,read_stall=50,read_stall_ms=5,panic_pre=20
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sempe_core::json::Json;
use sempe_core::telemetry::{Counter, Registry};

/// Labelled fault sites, in counter/report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Drop a freshly accepted connection.
    AcceptDrop,
    /// Stall before reading a request frame.
    ReadStall,
    /// Stall mid-way through writing a response frame.
    WriteStall,
    /// Truncate a response frame and close the socket.
    WriteTrunc,
    /// Panic the worker before executing the job.
    PanicPre,
    /// Panic the worker after executing, before the reply is sent.
    PanicPost,
    /// Busy-wait in the worker as if the simulation wedged.
    Wedge,
    /// Drop the result-cache insert.
    CacheFail,
    /// Quarantine the worker's arena after the job.
    ArenaCorrupt,
    /// Drop every connection in the current accept burst.
    AcceptStorm,
    /// Fail poller registration of a fresh connection (crashes the event
    /// loop thread; exercises loop supervision/restart).
    RegisterFail,
    /// Lose a worker completion wake-up (the event loop's bounded-timeout
    /// fallback tick must still deliver the response).
    WakeLost,
}

impl FaultSite {
    /// How many sites exist (array dimension of rates and ledgers).
    pub const COUNT: usize = 12;

    /// Every site, in report order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::AcceptDrop,
        FaultSite::ReadStall,
        FaultSite::WriteStall,
        FaultSite::WriteTrunc,
        FaultSite::PanicPre,
        FaultSite::PanicPost,
        FaultSite::Wedge,
        FaultSite::CacheFail,
        FaultSite::ArenaCorrupt,
        FaultSite::AcceptStorm,
        FaultSite::RegisterFail,
        FaultSite::WakeLost,
    ];

    /// Stable name (spec keys and health report members).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::AcceptDrop => "accept_drop",
            FaultSite::ReadStall => "read_stall",
            FaultSite::WriteStall => "write_stall",
            FaultSite::WriteTrunc => "write_trunc",
            FaultSite::PanicPre => "panic_pre",
            FaultSite::PanicPost => "panic_post",
            FaultSite::Wedge => "wedge",
            FaultSite::CacheFail => "cache_fail",
            FaultSite::ArenaCorrupt => "arena_corrupt",
            FaultSite::AcceptStorm => "accept_storm",
            FaultSite::RegisterFail => "register_fail",
            FaultSite::WakeLost => "wake_lost",
        }
    }

    const fn index(self) -> usize {
        match self {
            FaultSite::AcceptDrop => 0,
            FaultSite::ReadStall => 1,
            FaultSite::WriteStall => 2,
            FaultSite::WriteTrunc => 3,
            FaultSite::PanicPre => 4,
            FaultSite::PanicPost => 5,
            FaultSite::Wedge => 6,
            FaultSite::CacheFail => 7,
            FaultSite::ArenaCorrupt => 8,
            FaultSite::AcceptStorm => 9,
            FaultSite::RegisterFail => 10,
            FaultSite::WakeLost => 11,
        }
    }
}

/// A pure fault-injection description: seed, per-site per-mille rates,
/// and stall magnitudes. The zero plan (the default) injects nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-site decision sequences.
    pub seed: u64,
    /// Per-mille firing rate per site, indexed by site in
    /// declaration order.
    pub rates: [u16; FaultSite::COUNT],
    /// Stall duration for `read_stall`, milliseconds.
    pub read_stall_ms: u64,
    /// Stall duration for `write_stall`, milliseconds.
    pub write_stall_ms: u64,
    /// Busy-wait duration for `wedge`, milliseconds (clipped by the
    /// request deadline when one is armed).
    pub wedge_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            rates: [0; FaultSite::COUNT],
            read_stall_ms: 5,
            write_stall_ms: 5,
            wedge_ms: 50,
        }
    }
}

impl FaultPlan {
    /// Does any site have a non-zero rate?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0)
    }

    /// The firing rate of one site, per mille.
    #[must_use]
    pub fn rate(&self, site: FaultSite) -> u16 {
        self.rates[site.index()]
    }

    /// Set one site's firing rate (per mille, clamped to 1000).
    pub fn set_rate(&mut self, site: FaultSite, per_mille: u16) {
        self.rates[site.index()] = per_mille.min(1000);
    }

    /// Builder-style [`FaultPlan::set_rate`].
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, per_mille: u16) -> Self {
        self.set_rate(site, per_mille);
        self
    }

    /// Parse a compact spec: comma-separated `key=value` pairs where
    /// `key` is `seed`, a site name (value = per-mille rate 0..=1000),
    /// or `read_stall_ms` / `write_stall_ms` / `wedge_ms`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown keys or bad values.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry `{pair}` is not key=value"))?;
            let parse_u64 =
                |v: &str| v.trim().parse::<u64>().map_err(|e| format!("fault-plan `{key}`: {e}"));
            match key.trim() {
                "seed" => plan.seed = parse_u64(value)?,
                "read_stall_ms" => plan.read_stall_ms = parse_u64(value)?,
                "write_stall_ms" => plan.write_stall_ms = parse_u64(value)?,
                "wedge_ms" => plan.wedge_ms = parse_u64(value)?,
                name => {
                    let site = FaultSite::ALL
                        .into_iter()
                        .find(|s| s.name() == name)
                        .ok_or_else(|| format!("unknown fault-plan key `{name}`"))?;
                    let rate = parse_u64(value)?;
                    if rate > 1000 {
                        return Err(format!("fault-plan `{name}` rate {rate} exceeds 1000‰"));
                    }
                    #[allow(clippy::cast_possible_truncation)] // just range-checked
                    plan.set_rate(site, rate as u16);
                }
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 finalizer — the per-site decision hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The runtime half: a [`FaultPlan`] plus per-site visit and injection
/// counters. Shared by the accept loop, connection handlers, and
/// workers; all methods are lock-free.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    visits: [AtomicU64; FaultSite::COUNT],
    /// Per-site injection ledger. With [`FaultInjector::with_registry`]
    /// these are the registry's `faults_injected_total{site="…"}`
    /// counters, so the `health` fault report and the `metrics` op read
    /// the same atomics.
    injected: [Arc<Counter>; FaultSite::COUNT],
}

impl FaultInjector {
    /// Wrap a plan for runtime use with private (unregistered) counters.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            visits: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| Arc::new(Counter::new())),
        }
    }

    /// Wrap a plan whose injection ledger lives in `registry` as
    /// `faults_injected_total{site="<name>"}` — the single source of
    /// truth behind both the `health` fault report and the `metrics` op.
    #[must_use]
    pub fn with_registry(plan: FaultPlan, registry: &Registry) -> Self {
        FaultInjector {
            plan,
            visits: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|i| {
                registry.counter(&format!(
                    "faults_injected_total{{site=\"{}\"}}",
                    FaultSite::ALL[i].name()
                ))
            }),
        }
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Is any fault armed?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Visit `site`: roll the seeded decision and say whether the fault
    /// fires. Counts the visit either way and the injection when it
    /// fires.
    pub fn fire(&self, site: FaultSite) -> bool {
        let rate = self.plan.rate(site);
        if rate == 0 {
            return false;
        }
        let i = site.index();
        let n = self.visits[i].fetch_add(1, Ordering::Relaxed);
        let roll = mix(self.plan.seed ^ ((i as u64) << 56) ^ n) % 1000;
        let hit = roll < u64::from(rate);
        if hit {
            self.injected[i].inc();
        }
        hit
    }

    /// [`FaultInjector::fire`] for a stall site: returns the stall
    /// duration when the fault fires.
    pub fn stall(&self, site: FaultSite) -> Option<Duration> {
        if !self.fire(site) {
            return None;
        }
        let ms = match site {
            FaultSite::ReadStall => self.plan.read_stall_ms,
            FaultSite::WriteStall => self.plan.write_stall_ms,
            FaultSite::Wedge => self.plan.wedge_ms,
            _ => 0,
        };
        Some(Duration::from_millis(ms))
    }

    /// Panic at a labelled worker checkpoint when the site fires. The
    /// panic deliberately escapes the per-job `catch_unwind` — it models
    /// a worker-thread crash, and the supervisor must respawn the
    /// worker.
    pub fn checkpoint_panic(&self, site: FaultSite) {
        if self.fire(site) {
            panic!("fault-injected worker crash at checkpoint `{}`", site.name());
        }
    }

    /// Busy-wait as if the simulation wedged, honouring `deadline`:
    /// returns `true` when the wedge consumed the whole deadline (the
    /// caller should answer `E_DEADLINE`).
    pub fn wedge(&self, deadline: Option<Instant>) -> bool {
        let Some(span) = self.stall(FaultSite::Wedge) else { return false };
        let until = Instant::now() + span;
        loop {
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    return true;
                }
            }
            if now >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Times each site actually fired, in [`FaultSite::ALL`] order.
    #[must_use]
    pub fn injected(&self) -> [(FaultSite, u64); FaultSite::COUNT] {
        std::array::from_fn(|i| (FaultSite::ALL[i], self.injected[i].get()))
    }

    /// Total injections across all sites.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.get()).sum()
    }

    /// The health-report fragment: activity flag, seed, per-site counts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut counts = Json::obj();
        for (site, n) in self.injected() {
            counts.set(site.name(), n);
        }
        Json::obj()
            .with("active", self.is_active())
            .with("seed", self.plan.seed)
            .with("injected", counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default());
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(!inj.fire(site));
            }
        }
        assert_eq!(inj.total_injected(), 0);
        assert!(!inj.is_active());
    }

    #[test]
    fn rates_are_respected_and_deterministic() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::AcceptDrop, 250)
            .with_rate(FaultSite::PanicPre, 1000);
        let run = || {
            let inj = FaultInjector::new(plan.clone());
            let drops = (0..1000).filter(|_| inj.fire(FaultSite::AcceptDrop)).count();
            let panics = (0..50).filter(|_| inj.fire(FaultSite::PanicPre)).count();
            (drops, panics)
        };
        let (drops, panics) = run();
        assert_eq!(panics, 50, "rate 1000‰ fires every visit");
        assert!((150..350).contains(&drops), "rate 250‰ fired {drops}/1000");
        assert_eq!((drops, panics), run(), "same seed, same decisions");
        let mut reseeded = plan;
        reseeded.seed = 999;
        let inj = FaultInjector::new(reseeded);
        let other = (0..1000).filter(|_| inj.fire(FaultSite::AcceptDrop)).count();
        assert!(other != drops || other > 0, "different seed may differ, still fires");
    }

    #[test]
    fn spec_round_trip_and_errors() {
        let plan = FaultPlan::parse(
            "seed=7, accept_drop=30, read_stall=50, read_stall_ms=9, panic_pre=20, wedge_ms=120",
        )
        .expect("spec parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rate(FaultSite::AcceptDrop), 30);
        assert_eq!(plan.rate(FaultSite::ReadStall), 50);
        assert_eq!(plan.read_stall_ms, 9);
        assert_eq!(plan.rate(FaultSite::PanicPre), 20);
        assert_eq!(plan.wedge_ms, 120);
        assert!(plan.is_active());
        assert!(FaultPlan::parse("warp=1").is_err());
        assert!(FaultPlan::parse("accept_drop").is_err());
        assert!(FaultPlan::parse("accept_drop=1001").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert_eq!(FaultPlan::parse("").expect("empty spec"), FaultPlan::default());
    }

    #[test]
    fn wedge_honours_the_deadline() {
        let mut plan = FaultPlan::default().with_rate(FaultSite::Wedge, 1000);
        plan.wedge_ms = 5_000;
        let inj = FaultInjector::new(plan);
        let start = Instant::now();
        let expired = inj.wedge(Some(Instant::now() + Duration::from_millis(30)));
        assert!(expired, "deadline must cut the wedge short");
        assert!(start.elapsed() < Duration::from_millis(2_000), "wedge must not run to 5s");
    }

    #[test]
    fn registry_backed_ledger_is_shared() {
        let reg = Registry::new();
        let inj = FaultInjector::with_registry(
            FaultPlan::default().with_rate(FaultSite::CacheFail, 1000),
            &reg,
        );
        assert!(inj.fire(FaultSite::CacheFail));
        assert_eq!(
            reg.counter("faults_injected_total{site=\"cache_fail\"}").get(),
            1,
            "health ledger and registry counter are the same atomic"
        );
        assert_eq!(inj.total_injected(), 1);
    }

    #[test]
    fn counters_report_per_site() {
        let inj = FaultInjector::new(FaultPlan::default().with_rate(FaultSite::CacheFail, 1000));
        assert!(inj.fire(FaultSite::CacheFail));
        assert!(!inj.fire(FaultSite::AcceptDrop));
        let injected = inj.injected();
        assert_eq!(injected[FaultSite::CacheFail.index()].1, 1);
        assert_eq!(injected[FaultSite::AcceptDrop.index()].1, 0);
        let j = inj.to_json();
        assert_eq!(j.get("active").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("injected").and_then(|i| i.get("cache_fail")).and_then(Json::as_u64),
            Some(1)
        );
    }
}
