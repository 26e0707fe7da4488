//! Deterministic, seeded fault injection.
//!
//! A [`FaultInjector`] is shared (via `Arc`) between a test harness and
//! one or more backends. Backends consult it at well-defined *sites* —
//! kernel output, DMA transfer, PCIe transfer, kernel launch, worker
//! body — and the injector decides, deterministically, whether that
//! occasion fails. Two trigger mechanisms exist:
//!
//! * **scheduled** one-shot faults: "the 3rd DMA transfer fails" —
//!   exact and consumed once, so a retry of the same call succeeds;
//! * **rate-based** faults: every roll at a site fails with probability
//!   `p`, decided by hashing `(seed, site, roll index)` — independent
//!   of thread interleaving, so concurrent backends stay reproducible
//!   in *which* roll numbers fire even when threads race.
//!
//! The environment knobs `PLF_FAULT_SEED`, `PLF_FAULT_CORRUPT_RATE`,
//! `PLF_FAULT_DMA_RATE`, `PLF_FAULT_PCIE_RATE`, `PLF_FAULT_LAUNCH_RATE`,
//! `PLF_FAULT_PANIC_RATE`, `PLF_FAULT_WORKER_KILL_RATE` and
//! `PLF_FAULT_BLACKOUT_RATE` build an injector without code changes
//! (see [`FaultInjector::from_env`]).
//!
//! The last two sites are *service-level*: they are consulted by the
//! `plfd` dispatch layer rather than by a backend. A worker-kill roll
//! makes a dispatch worker thread die before its next job (exercising
//! the watchdog respawn path); a blackout roll makes a worker's backend
//! refuse a run of consecutive jobs (exercising the circuit breaker).

use crate::splitmix64;
use std::sync::Mutex;

/// Where in a backend a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The CLV a kernel wrote (corruption).
    KernelOutput,
    /// A Cell/BE DMA command.
    DmaTransfer,
    /// A GPU PCIe transfer.
    PcieTransfer,
    /// A GPU kernel launch.
    KernelLaunch,
    /// A thread-pool worker body (injected panic).
    Worker,
    /// A `plfd` dispatch worker thread dying outright (service-level;
    /// exercises the watchdog respawn path).
    WorkerKill,
    /// A `plfd` worker's backend going dark for a run of jobs
    /// (service-level; exercises the circuit breaker).
    BackendBlackout,
}

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::KernelOutput => 0,
            FaultSite::DmaTransfer => 1,
            FaultSite::PcieTransfer => 2,
            FaultSite::KernelLaunch => 3,
            FaultSite::Worker => 4,
            FaultSite::WorkerKill => 5,
            FaultSite::BackendBlackout => 6,
        }
    }
}

const N_SITES: usize = 7;

/// A `PLF_FAULT_*` environment variable held a value that cannot
/// configure fault injection (unparsable, or a probability outside
/// `[0, 1]`). Surfaced by [`FaultInjector::from_env`] so a typo fails
/// loudly instead of silently disarming the injector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEnvError {
    /// The offending variable name.
    pub var: &'static str,
    /// Its raw value as found in the environment.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl std::fmt::Display for FaultEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid fault-injection knob {}={:?}: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for FaultEnvError {}

/// Flavor of value written into a corrupted CLV entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// `f32::NAN`.
    Nan,
    /// `f32::INFINITY`.
    Inf,
    /// A subnormal `f32` (silent-precision-loss class; only caught by a
    /// strict validation policy).
    Denormal,
}

impl CorruptionKind {
    /// The poisoned value itself.
    pub fn value(self) -> f32 {
        match self {
            CorruptionKind::Nan => f32::NAN,
            CorruptionKind::Inf => f32::INFINITY,
            CorruptionKind::Denormal => 1e-41,
        }
    }
}

#[derive(Debug, Clone)]
struct Scheduled {
    site: FaultSite,
    at_roll: u64,
    corruption: CorruptionKind,
    armed: bool,
}

#[derive(Debug, Default)]
struct Inner {
    /// Rolls seen per site.
    counters: [u64; N_SITES],
    scheduled: Vec<Scheduled>,
    /// `(site, probability, corruption flavor)` rate rules.
    rates: Vec<(FaultSite, f64, CorruptionKind)>,
    fired: u64,
}

/// Deterministic seeded fault source, shared between harness and
/// backends via `Arc<FaultInjector>`.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    inner: Mutex<Inner>,
}

impl FaultInjector {
    /// A quiet injector (no faults until scheduled or rated).
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            seed,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Schedule a one-shot fault: the `at_roll`-th roll (0-based) at
    /// `site` fails, exactly once. For [`FaultSite::KernelOutput`] the
    /// corruption flavor is NaN; use
    /// [`FaultInjector::schedule_corruption`] to choose another.
    pub fn schedule(self, site: FaultSite, at_roll: u64) -> FaultInjector {
        self.schedule_with(site, at_roll, CorruptionKind::Nan)
    }

    /// Schedule a one-shot output corruption with an explicit flavor.
    pub fn schedule_corruption(self, at_roll: u64, flavor: CorruptionKind) -> FaultInjector {
        self.schedule_with(FaultSite::KernelOutput, at_roll, flavor)
    }

    fn schedule_with(self, site: FaultSite, at_roll: u64, flavor: CorruptionKind) -> FaultInjector {
        self.inner.lock().expect("injector lock").scheduled.push(Scheduled {
            site,
            at_roll,
            corruption: flavor,
            armed: true,
        });
        self
    }

    /// Add a rate rule: each roll at `site` fails with probability `p`.
    pub fn with_rate(self, site: FaultSite, p: f64) -> FaultInjector {
        self.with_rate_flavor(site, p, CorruptionKind::Nan)
    }

    /// Rate rule with an explicit corruption flavor (output site only).
    pub fn with_rate_flavor(self, site: FaultSite, p: f64, flavor: CorruptionKind) -> FaultInjector {
        assert!((0.0..=1.0).contains(&p), "rate {p} outside [0, 1]");
        self.inner.lock().expect("injector lock").rates.push((site, p, flavor));
        self
    }

    /// Build an injector from `PLF_FAULT_*` environment variables, or
    /// `Ok(None)` when no knob is set. `PLF_FAULT_SEED` defaults to 0;
    /// `PLF_FAULT_{CORRUPT,DMA,PCIE,LAUNCH,PANIC}_RATE` set per-site
    /// probabilities in `[0, 1]`.
    ///
    /// A malformed or out-of-range value is an error, not a silently
    /// disarmed knob: a typo like `PLF_FAULT_DMA_RATE=0,5` used to turn
    /// fault injection off with no signal at all.
    pub fn from_env() -> Result<Option<FaultInjector>, FaultEnvError> {
        FaultInjector::from_env_with(|name| std::env::var(name).ok())
    }

    /// [`FaultInjector::from_env`] over an arbitrary variable source, so
    /// parsing is testable without mutating the process environment.
    pub fn from_env_with(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<Option<FaultInjector>, FaultEnvError> {
        let rate = |name: &'static str| -> Result<Option<f64>, FaultEnvError> {
            let Some(raw) = lookup(name) else {
                return Ok(None);
            };
            let p: f64 = raw.parse().map_err(|_| FaultEnvError {
                var: name,
                value: raw.clone(),
                reason: "not a number".into(),
            })?;
            if !(0.0..=1.0).contains(&p) {
                return Err(FaultEnvError {
                    var: name,
                    value: raw,
                    reason: "probability outside [0, 1]".into(),
                });
            }
            Ok(Some(p))
        };
        let seed = match lookup("PLF_FAULT_SEED") {
            None => None,
            Some(raw) => Some(raw.parse::<u64>().map_err(|_| FaultEnvError {
                var: "PLF_FAULT_SEED",
                value: raw,
                reason: "not an unsigned integer".into(),
            })?),
        };
        let knobs = [
            (FaultSite::KernelOutput, rate("PLF_FAULT_CORRUPT_RATE")?),
            (FaultSite::DmaTransfer, rate("PLF_FAULT_DMA_RATE")?),
            (FaultSite::PcieTransfer, rate("PLF_FAULT_PCIE_RATE")?),
            (FaultSite::KernelLaunch, rate("PLF_FAULT_LAUNCH_RATE")?),
            (FaultSite::Worker, rate("PLF_FAULT_PANIC_RATE")?),
            (FaultSite::WorkerKill, rate("PLF_FAULT_WORKER_KILL_RATE")?),
            (FaultSite::BackendBlackout, rate("PLF_FAULT_BLACKOUT_RATE")?),
        ];
        if seed.is_none() && knobs.iter().all(|(_, p)| p.is_none()) {
            return Ok(None);
        }
        let mut inj = FaultInjector::new(seed.unwrap_or(0));
        for (site, p) in knobs {
            if let Some(p) = p {
                inj = inj.with_rate(site, p);
            }
        }
        Ok(Some(inj))
    }

    /// Roll at a non-output site; `true` means the occasion fails.
    pub fn fire(&self, site: FaultSite) -> bool {
        self.decide(site).is_some()
    }

    /// Roll at the kernel-output site; `Some(flavor)` means corrupt.
    pub fn fire_corruption(&self) -> Option<CorruptionKind> {
        self.decide(FaultSite::KernelOutput)
    }

    fn decide(&self, site: FaultSite) -> Option<CorruptionKind> {
        let mut inner = self.inner.lock().expect("injector lock");
        let roll = inner.counters[site.index()];
        inner.counters[site.index()] += 1;
        // Scheduled one-shots take priority and are consumed.
        if let Some(s) = inner
            .scheduled
            .iter_mut()
            .find(|s| s.armed && s.site == site && s.at_roll == roll)
        {
            s.armed = false;
            let flavor = s.corruption;
            inner.fired += 1;
            return Some(flavor);
        }
        // Rate rules: hash (seed, site, roll) so the decision depends
        // only on the roll index, never on thread interleaving.
        let rates: Vec<(f64, CorruptionKind)> = inner
            .rates
            .iter()
            .filter(|(s, _, _)| *s == site)
            .map(|&(_, p, f)| (p, f))
            .collect();
        for (p, flavor) in rates {
            let h = splitmix64(self.seed ^ ((site.index() as u64) << 56) ^ roll);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < p {
                inner.fired += 1;
                return Some(flavor);
            }
        }
        None
    }

    /// Corrupt a handful of entries of `out` with `flavor`, at positions
    /// derived deterministically from the seed and the fire count.
    pub fn corrupt(&self, out: &mut [f32], flavor: CorruptionKind) {
        if out.is_empty() {
            return;
        }
        let salt = self.inner.lock().expect("injector lock").fired;
        let n = 1 + (splitmix64(self.seed ^ salt) % 3) as usize;
        for k in 0..n {
            let idx = splitmix64(self.seed ^ salt ^ ((k as u64) << 32)) as usize % out.len();
            out[idx] = flavor.value();
        }
    }

    /// Faults fired so far (for test assertions).
    pub fn fired(&self) -> u64 {
        self.inner.lock().expect("injector lock").fired
    }

    /// Rolls observed at `site` so far.
    pub fn rolls(&self, site: FaultSite) -> u64 {
        self.inner.lock().expect("injector lock").counters[site.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_injector_never_fires() {
        let inj = FaultInjector::new(1);
        for _ in 0..100 {
            assert!(!inj.fire(FaultSite::DmaTransfer));
            assert!(inj.fire_corruption().is_none());
        }
        assert_eq!(inj.fired(), 0);
    }

    #[test]
    fn scheduled_fault_fires_exactly_once() {
        let inj = FaultInjector::new(7).schedule(FaultSite::KernelLaunch, 2);
        let fired: Vec<bool> = (0..5).map(|_| inj.fire(FaultSite::KernelLaunch)).collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn sites_count_independently() {
        let inj = FaultInjector::new(7).schedule(FaultSite::DmaTransfer, 0);
        assert!(!inj.fire(FaultSite::PcieTransfer));
        assert!(inj.fire(FaultSite::DmaTransfer));
        assert_eq!(inj.rolls(FaultSite::PcieTransfer), 1);
        assert_eq!(inj.rolls(FaultSite::DmaTransfer), 1);
    }

    #[test]
    fn rate_decisions_are_deterministic_in_roll_index() {
        let a = FaultInjector::new(3).with_rate(FaultSite::Worker, 0.5);
        let b = FaultInjector::new(3).with_rate(FaultSite::Worker, 0.5);
        let fa: Vec<bool> = (0..200).map(|_| a.fire(FaultSite::Worker)).collect();
        let fb: Vec<bool> = (0..200).map(|_| b.fire(FaultSite::Worker)).collect();
        assert_eq!(fa, fb);
        let hits = fa.iter().filter(|&&x| x).count();
        assert!(hits > 50 && hits < 150, "rate 0.5 fired {hits}/200");
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let hot = FaultInjector::new(9).with_rate(FaultSite::DmaTransfer, 1.0);
        let cold = FaultInjector::new(9).with_rate(FaultSite::DmaTransfer, 0.0);
        for _ in 0..20 {
            assert!(hot.fire(FaultSite::DmaTransfer));
            assert!(!cold.fire(FaultSite::DmaTransfer));
        }
    }

    #[test]
    fn corruption_poisons_entries() {
        let inj = FaultInjector::new(11).schedule_corruption(0, CorruptionKind::Nan);
        let flavor = inj.fire_corruption().expect("scheduled");
        let mut data = vec![0.5f32; 64];
        inj.corrupt(&mut data, flavor);
        assert!(data.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn denormal_value_is_subnormal() {
        let v = CorruptionKind::Denormal.value();
        assert!(v.is_subnormal());
        assert!(CorruptionKind::Inf.value().is_infinite());
    }

    #[test]
    fn from_env_without_knobs_is_none() {
        // The test environment does not set PLF_FAULT_*.
        assert!(FaultInjector::from_env().unwrap().is_none());
    }

    #[test]
    fn from_env_with_empty_lookup_is_none() {
        assert!(FaultInjector::from_env_with(|_| None).unwrap().is_none());
    }

    #[test]
    fn from_env_builds_injector_from_knobs() {
        let inj = FaultInjector::from_env_with(|name| match name {
            "PLF_FAULT_SEED" => Some("42".into()),
            "PLF_FAULT_DMA_RATE" => Some("1.0".into()),
            _ => None,
        })
        .unwrap()
        .expect("knobs set");
        assert!(inj.fire(FaultSite::DmaTransfer));
        assert!(!inj.fire(FaultSite::PcieTransfer));
    }

    #[test]
    fn from_env_seed_alone_arms_a_quiet_injector() {
        let inj = FaultInjector::from_env_with(|name| {
            (name == "PLF_FAULT_SEED").then(|| "7".to_string())
        })
        .unwrap()
        .expect("seed set");
        assert!(!inj.fire(FaultSite::Worker));
    }

    #[test]
    fn from_env_builds_service_level_sites() {
        let inj = FaultInjector::from_env_with(|name| match name {
            "PLF_FAULT_WORKER_KILL_RATE" => Some("1.0".into()),
            "PLF_FAULT_BLACKOUT_RATE" => Some("1.0".into()),
            _ => None,
        })
        .unwrap()
        .expect("knobs set");
        assert!(inj.fire(FaultSite::WorkerKill));
        assert!(inj.fire(FaultSite::BackendBlackout));
        // Backend-level sites stay quiet.
        assert!(!inj.fire(FaultSite::DmaTransfer));
    }

    #[test]
    fn service_sites_count_independently_of_backend_sites() {
        let inj = FaultInjector::new(13).schedule(FaultSite::WorkerKill, 0);
        assert!(!inj.fire(FaultSite::Worker));
        assert!(inj.fire(FaultSite::WorkerKill));
        assert_eq!(inj.rolls(FaultSite::Worker), 1);
        assert_eq!(inj.rolls(FaultSite::WorkerKill), 1);
        assert_eq!(inj.rolls(FaultSite::BackendBlackout), 0);
    }

    #[test]
    fn from_env_rejects_unparsable_rate() {
        // The old implementation swallowed this typo ("0,5" for "0.5")
        // and silently disabled injection.
        let err = FaultInjector::from_env_with(|name| {
            (name == "PLF_FAULT_DMA_RATE").then(|| "0,5".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PLF_FAULT_DMA_RATE");
        assert_eq!(err.value, "0,5");
        assert!(err.to_string().contains("not a number"), "{err}");
    }

    #[test]
    fn from_env_rejects_out_of_range_rate() {
        let err = FaultInjector::from_env_with(|name| {
            (name == "PLF_FAULT_CORRUPT_RATE").then(|| "1.5".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PLF_FAULT_CORRUPT_RATE");
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn from_env_rejects_bad_seed() {
        let err = FaultInjector::from_env_with(|name| {
            (name == "PLF_FAULT_SEED").then(|| "-1".to_string())
        })
        .unwrap_err();
        assert_eq!(err.var, "PLF_FAULT_SEED");
        assert!(err.to_string().contains("unsigned"), "{err}");
    }
}
