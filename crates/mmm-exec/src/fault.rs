//! Deterministic fault injection for the execution seam and the index.
//!
//! A [`FaultPlan`] tells a backend to misbehave on chosen `submit` calls —
//! the chaos plane the supervisor (DESIGN.md §10) is tested against — and
//! the shard loader to fail chosen load attempts (DESIGN.md §15.4). Plans
//! are pure data: given the same plan and the same submit index the same
//! fault fires, so a failing chaos run is replayable from its plan string
//! alone (pass it back via `--inject-backend-fault`).
//!
//! # Grammar
//!
//! ```text
//! plan    := rule (';' rule)*
//! rule    := class (':' param)*
//! class   := 'launch-fail' | 'mempool-full' | 'hang' | 'wrong-len'        (backend)
//!          | 'corrupt-section' | 'missing-shard' | 'torn-tail' | 'slow-io' (shard)
//! param   := 'batches=' N ['..' M]   fire on submit indices [N, M)   (backend rules)
//!          | 'shards=' N ['..' M]    fire on shard ids [N, M)        (shard rules)
//!                                    (a bare N selects exactly id N)
//!          | 'every=' K              fire on every K-th submit/shard (0, K, 2K…)
//!          | 'p=' F ':seed=' S       fire with probability F, seeded
//!          | 'ms=' N                 hang / slow-io duration (default 1000 / 50)
//!          | 'section=' name        corrupt-section target: a CONTAINER_SECTIONS name
//!          | 'attempts=' K           fire on load attempts [0, K) (default: all)
//! ```
//!
//! With no selector a rule fires on every submit. The first matching rule
//! wins. Examples: `launch-fail` (every submit fails),
//! `hang:ms=400:batches=0..1`, `wrong-len:every=3`,
//! `mempool-full:p=0.25:seed=7`.
//!
//! Each fault has one type. A backend rule holds a [`FaultClass`], which
//! [`FaultPlan::action`] hands the backend's `submit`. A shard rule holds
//! the index crate's own [`ShardLoadFault`], keyed by *shard id* and *load
//! attempt*: the plan is itself the loader's [`ShardFaultHook`]
//! ([`FaultPlan::shard_hook`]). Neither plane sees the other's rules.
//! Examples: `missing-shard:shards=1..2` (shard 1 is gone),
//! `corrupt-section:section=pool:shards=0..1` (flip a byte of shard 0's
//! block pool), `slow-io:ms=20:attempts=1` (first load attempt of every
//! shard is slow), `torn-tail:every=2` (even shards truncated).

use std::sync::Arc;
use std::time::Duration;

use mmm_index::{ShardFaultHook, ShardLoadFault, CONTAINER_SECTIONS};

use crate::{splitmix64_mix, SPLITMIX64_GAMMA};

/// A backend failure to inject, with its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// The stream launch fails: `submit` returns a typed error without
    /// executing anything.
    LaunchFail,
    /// The device memory pool is exhausted: `submit` returns a typed error.
    MempoolFull,
    /// The backend wedges mid-submit for this long, then completes
    /// normally — the case the watchdog deadline exists for, and the source
    /// of results that arrive after their slot was poisoned.
    Hang(Duration),
    /// The backend returns one result fewer than it was given jobs — the
    /// wrong-length contract violation the supervisor must catch.
    WrongLen,
}

impl FaultClass {
    /// Name as written in a plan string.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::LaunchFail => "launch-fail",
            FaultClass::MempoolFull => "mempool-full",
            FaultClass::Hang(_) => "hang",
            FaultClass::WrongLen => "wrong-len",
        }
    }

    /// All classes with their default parameters, for the parser and
    /// chaos-matrix tests.
    pub fn all() -> [FaultClass; 4] {
        [
            FaultClass::LaunchFail,
            FaultClass::MempoolFull,
            FaultClass::Hang(Duration::from_millis(1_000)),
            FaultClass::WrongLen,
        ]
    }
}

/// The shard classes a plan names, with their default parameters.
const SHARD_CLASSES: [(&str, ShardLoadFault); 4] = [
    // The default target is the bucket map.
    ("corrupt-section", ShardLoadFault::CorruptSection(2)),
    ("missing-shard", ShardLoadFault::Missing),
    ("torn-tail", ShardLoadFault::TornTail),
    ("slow-io", ShardLoadFault::SlowIo(Duration::from_millis(50))),
];

/// When a rule fires, relative to the backend's own submit counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Selector {
    /// Every submit.
    All,
    /// Submit indices in `[start, end)`.
    Range(u64, u64),
    /// Every `k`-th submit (0, k, 2k, …).
    Every(u64),
    /// Seeded Bernoulli draw per submit index; `p_ppm` is parts-per-million
    /// so the selector stays `Eq` and exactly replayable.
    Seeded { p_ppm: u64, seed: u64 },
}

impl Selector {
    fn fires(self, submit: u64) -> bool {
        match self {
            Selector::All => true,
            Selector::Range(a, b) => (a..b).contains(&submit),
            Selector::Every(k) => k > 0 && submit.is_multiple_of(k),
            Selector::Seeded { p_ppm, seed } => {
                // splitmix64 keyed by (seed, submit): the same pair always
                // draws the same value, independent of call order.
                let z = splitmix64_mix(seed ^ submit.wrapping_mul(SPLITMIX64_GAMMA));
                (z % 1_000_000) < p_ppm
            }
        }
    }
}

/// One parsed backend rule.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultRule {
    class: FaultClass,
    sel: Selector,
}

/// One parsed shard rule: the selector is keyed by shard id, and the rule
/// only fires on load attempts `< attempts`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShardFaultRule {
    fault: ShardLoadFault,
    sel: Selector,
    attempts: u64,
}

/// A deterministic, replayable fault schedule for one backend session
/// (submit-keyed rules) and/or the sharded index (shard-keyed rules).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    shard_rules: Vec<ShardFaultRule>,
}

impl FaultPlan {
    /// Parse a plan string (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        let mut shard_rules = Vec::new();
        for rule_text in text.split(';') {
            let rule_text = rule_text.trim();
            if rule_text.is_empty() {
                continue;
            }
            let mut parts = rule_text.split(':');
            let name = parts.next().map_or("", str::trim);
            let class = FaultClass::all().into_iter().find(|c| c.label() == name);
            let shard = SHARD_CLASSES
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, f)| f);
            if class.is_none() && shard.is_none() {
                let mut names: Vec<&str> = FaultClass::all().map(FaultClass::label).to_vec();
                names.extend(SHARD_CLASSES.map(|(n, _)| n));
                let last = names.pop().unwrap_or_default();
                return Err(format!(
                    "fault plan: unknown class {name:?} (expected {} or {last})",
                    names.join(", ")
                ));
            }
            let is_shard = shard.is_some();
            let mut sel = Selector::All;
            let mut ms: Option<u64> = None;
            let mut p_ppm: Option<u64> = None;
            let mut seed = 0u64;
            let mut attempts = u64::MAX;
            let mut section: Option<usize> = None;
            for param in parts {
                let (key, value) = param
                    .split_once('=')
                    .ok_or_else(|| format!("fault plan: parameter {param:?} is not key=value"))?;
                let key = key.trim();
                // The range selector is spelled per-family so a plan reads
                // unambiguously: batches= keys backend submits, shards=
                // keys shard ids.
                if (key == "batches" && is_shard) || (key == "shards" && !is_shard) {
                    return Err(format!(
                        "fault plan: {key}= does not apply to a {} rule",
                        if is_shard { "shard" } else { "backend" }
                    ));
                }
                if (key == "section" || key == "attempts") && !is_shard {
                    return Err(format!("fault plan: {key}= only applies to shard rules"));
                }
                match key {
                    "batches" | "shards" => {
                        // `N..M` is a half-open range; a bare `N` selects
                        // exactly that id.
                        let (a, b) = match value.split_once("..") {
                            Some((a, b)) => (parse_u64(key, a)?, parse_u64(key, b)?),
                            None => {
                                let n = parse_u64(key, value)?;
                                (n, n + 1)
                            }
                        };
                        if b <= a {
                            return Err(format!("fault plan: empty range {key}={value}"));
                        }
                        sel = Selector::Range(a, b);
                    }
                    "every" => {
                        let k = parse_u64("every", value)?;
                        if k == 0 {
                            return Err("fault plan: every=0 never fires".into());
                        }
                        sel = Selector::Every(k);
                    }
                    "p" => {
                        let p: f64 = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault plan: p={value:?} is not a number"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("fault plan: p={p} outside [0, 1]"));
                        }
                        p_ppm = Some((p * 1_000_000.0) as u64);
                    }
                    "seed" => seed = parse_u64("seed", value)?,
                    "ms" => ms = Some(parse_u64("ms", value)?),
                    "attempts" => {
                        attempts = parse_u64("attempts", value)?;
                        if attempts == 0 {
                            return Err("fault plan: attempts=0 never fires".into());
                        }
                    }
                    "section" => {
                        let found = CONTAINER_SECTIONS.iter().position(|&n| n == value.trim());
                        section = Some(found.ok_or_else(|| {
                            format!(
                                "fault plan: section={value:?} (expected one of {})",
                                CONTAINER_SECTIONS.join(", ")
                            )
                        })?);
                    }
                    other => return Err(format!("fault plan: unknown parameter {other:?}")),
                }
            }
            if let Some(p_ppm) = p_ppm {
                sel = Selector::Seeded { p_ppm, seed };
            }
            let with_ms = |default| ms.map_or(default, Duration::from_millis);
            if let Some(fault) = shard {
                let fault = match fault {
                    ShardLoadFault::CorruptSection(s) => {
                        ShardLoadFault::CorruptSection(section.unwrap_or(s))
                    }
                    ShardLoadFault::SlowIo(d) => ShardLoadFault::SlowIo(with_ms(d)),
                    other => other,
                };
                shard_rules.push(ShardFaultRule {
                    fault,
                    sel,
                    attempts,
                });
            } else if let Some(class) = class {
                let class = match class {
                    FaultClass::Hang(d) => FaultClass::Hang(with_ms(d)),
                    other => other,
                };
                rules.push(FaultRule { class, sel });
            }
        }
        if rules.is_empty() && shard_rules.is_empty() {
            return Err("fault plan: empty plan".into());
        }
        Ok(FaultPlan { rules, shard_rules })
    }

    /// The fault (first matching rule) for the backend's `submit` number
    /// `submit`, counted from zero per session. Shard rules never match
    /// here.
    pub fn action(&self, submit: u64) -> Option<FaultClass> {
        self.rules
            .iter()
            .find(|r| r.sel.fires(submit))
            .map(|r| r.class)
    }

    /// The plan as the shard loader's fault hook, or `None` when it has no
    /// shard rules, so clean loads never consult it.
    pub fn shard_hook(&self) -> Option<Arc<dyn ShardFaultHook>> {
        (!self.shard_rules.is_empty()).then(|| Arc::new(self.clone()) as Arc<dyn ShardFaultHook>)
    }
}

/// The shard-load fault (first matching shard rule) for load attempt
/// `attempt` of shard `shard`. Backend rules never match here, so one plan
/// can drive both fault planes at once.
impl ShardFaultHook for FaultPlan {
    fn on_load(&self, shard: usize, attempt: u32) -> Option<ShardLoadFault> {
        self.shard_rules
            .iter()
            .find(|r| r.sel.fires(shard as u64) && u64::from(attempt) < r.attempts)
            .map(|r| r.fault)
    }
}

/// Per-session fault state: the plan plus this backend's own submit
/// counter. Backends consult it at the top of `submit`; the internal
/// executors (e.g. the gpu backend's embedded host executor) bypass it, so one
/// fired rule maps to exactly one failed `submit`.
#[derive(Debug, Default)]
pub(crate) struct FaultHook {
    plan: Option<FaultPlan>,
    submits: std::sync::atomic::AtomicU64,
}

impl FaultHook {
    pub(crate) fn new(plan: Option<FaultPlan>) -> Self {
        FaultHook {
            plan,
            submits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Advance the submit counter and act on any scheduled fault: typed
    /// errors return early, a hang sleeps here (inside the backend call, so
    /// the watchdog sees a wedged submit). Returns whether the completed
    /// batch must drop its last result (`wrong-len`).
    pub(crate) fn begin_submit(&self) -> Result<bool, crate::BackendError> {
        let submit = self
            .submits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match self.plan.as_ref().and_then(|p| p.action(submit)) {
            None => Ok(false),
            Some(class @ (FaultClass::LaunchFail | FaultClass::MempoolFull)) => {
                Err(crate::BackendError::Injected { class, submit })
            }
            Some(FaultClass::Hang(d)) => {
                std::thread::sleep(d);
                Ok(false)
            }
            Some(FaultClass::WrongLen) => Ok(true),
        }
    }
}

fn parse_u64(what: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("fault plan: {what}={value:?} is not an integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_class_fires_always() {
        let p = FaultPlan::parse("launch-fail").unwrap();
        for i in [0, 1, 17, 1_000_000] {
            assert_eq!(p.action(i), Some(FaultClass::LaunchFail));
        }
    }

    #[test]
    fn range_selector_is_half_open() {
        let p = FaultPlan::parse("wrong-len:batches=2..4").unwrap();
        assert_eq!(p.action(1), None);
        assert_eq!(p.action(2), Some(FaultClass::WrongLen));
        assert_eq!(p.action(3), Some(FaultClass::WrongLen));
        assert_eq!(p.action(4), None);
    }

    #[test]
    fn every_selector_includes_zero() {
        let p = FaultPlan::parse("mempool-full:every=3").unwrap();
        assert_eq!(p.action(0), Some(FaultClass::MempoolFull));
        assert_eq!(p.action(1), None);
        assert_eq!(p.action(3), Some(FaultClass::MempoolFull));
    }

    #[test]
    fn hang_duration_is_configurable() {
        let p = FaultPlan::parse("hang:ms=250:batches=0..1").unwrap();
        assert_eq!(
            p.action(0),
            Some(FaultClass::Hang(Duration::from_millis(250)))
        );
        assert_eq!(p.action(1), None);
        let p = FaultPlan::parse("hang").unwrap();
        assert_eq!(p.action(0), Some(FaultClass::Hang(Duration::from_secs(1))));
    }

    #[test]
    fn seeded_selector_is_replayable_and_roughly_calibrated() {
        let p = FaultPlan::parse("launch-fail:p=0.5:seed=42").unwrap();
        let q = FaultPlan::parse("launch-fail:p=0.5:seed=42").unwrap();
        let hits: usize = (0..1_000).filter(|&i| p.action(i).is_some()).count();
        for i in 0..1_000 {
            assert_eq!(p.action(i), q.action(i), "submit {i} not replayable");
        }
        assert!((350..650).contains(&hits), "p=0.5 drew {hits}/1000");
        // A different seed draws a different schedule.
        let r = FaultPlan::parse("launch-fail:p=0.5:seed=43").unwrap();
        assert!((0..1_000).any(|i| p.action(i) != r.action(i)));
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = FaultPlan::parse("hang:batches=0..1; launch-fail").unwrap();
        assert!(matches!(p.action(0), Some(FaultClass::Hang(_))));
        assert_eq!(p.action(1), Some(FaultClass::LaunchFail));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for (text, needle) in [
            ("", "empty plan"),
            ("gpu-on-fire", "unknown class"),
            ("hang:ms", "not key=value"),
            ("launch-fail:batches=3..3", "empty range"),
            ("launch-fail:every=0", "never fires"),
            ("launch-fail:p=1.5", "outside [0, 1]"),
            ("launch-fail:frequency=2", "unknown parameter"),
            // Family mismatches are rejected, not silently ignored.
            ("launch-fail:shards=0..1", "does not apply"),
            ("missing-shard:batches=0..1", "does not apply"),
            ("launch-fail:section=map", "only applies to shard rules"),
            ("launch-fail:attempts=1", "only applies to shard rules"),
            ("corrupt-section:section=tail", "expected one of"),
            ("slow-io:attempts=0", "never fires"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
        // The list of names is built from the class tables.
        assert_eq!(
            FaultPlan::parse("gpu-on-fire").unwrap_err(),
            "fault plan: unknown class \"gpu-on-fire\" (expected launch-fail, \
             mempool-full, hang, wrong-len, corrupt-section, missing-shard, \
             torn-tail or slow-io)"
        );
    }

    #[test]
    fn shard_rules_are_keyed_by_shard_and_attempt() {
        let p = FaultPlan::parse("missing-shard:shards=1..3").unwrap();
        assert_eq!(p.on_load(0, 0), None);
        assert_eq!(p.on_load(1, 0), Some(ShardLoadFault::Missing));
        assert_eq!(p.on_load(2, 7), Some(ShardLoadFault::Missing));
        assert_eq!(p.on_load(3, 0), None);
        // Shard rules never leak into the backend plane, nor vice versa.
        assert_eq!(p.action(1), None);
        assert!(p.shard_hook().is_some());
        let b = FaultPlan::parse("launch-fail:batches=0..1").unwrap();
        assert_eq!(b.on_load(0, 0), None);
        assert!(b.shard_hook().is_none(), "no hook without shard rules");
    }

    #[test]
    fn shard_rule_parameters_round_trip() {
        let p = FaultPlan::parse("corrupt-section:section=pool:shards=0..1").unwrap();
        assert_eq!(p.on_load(0, 0), Some(ShardLoadFault::CorruptSection(3)));
        // Default section is the bucket map.
        let p = FaultPlan::parse("corrupt-section").unwrap();
        assert_eq!(p.on_load(5, 0), Some(ShardLoadFault::CorruptSection(2)));

        // attempts=K fires only on the first K load attempts: the shape of
        // a transient fault the retry ladder should absorb, whose final
        // attempt succeeds.
        let p = FaultPlan::parse("slow-io:ms=20:attempts=2").unwrap();
        assert_eq!(
            p.on_load(0, 0),
            Some(ShardLoadFault::SlowIo(Duration::from_millis(20)))
        );
        assert!(p.on_load(0, 1).is_some());
        assert_eq!(p.on_load(0, 2), None);
        assert_eq!(p.on_load(0, 3), None);

        let p = FaultPlan::parse("torn-tail:every=2").unwrap();
        assert_eq!(p.on_load(0, 0), Some(ShardLoadFault::TornTail));
        assert_eq!(p.on_load(1, 0), None);
        assert_eq!(p.on_load(2, 0), Some(ShardLoadFault::TornTail));
    }

    #[test]
    fn one_plan_drives_both_fault_planes() {
        let p = FaultPlan::parse("hang:ms=5:batches=0..1; missing-shard:shards=2..3").unwrap();
        assert!(matches!(p.action(0), Some(FaultClass::Hang(_))));
        assert_eq!(p.action(1), None);
        assert_eq!(p.on_load(2, 0), Some(ShardLoadFault::Missing));
        assert_eq!(p.on_load(0, 0), None);
    }

    #[test]
    fn every_shard_class_and_section_parses() {
        for (class, _) in SHARD_CLASSES {
            let p = FaultPlan::parse(class).unwrap();
            assert!(p.on_load(0, 0).is_some(), "{class}");
        }
        for (i, section) in CONTAINER_SECTIONS.iter().enumerate() {
            let p = FaultPlan::parse(&format!("corrupt-section:section={section}")).unwrap();
            assert_eq!(p.on_load(0, 0), Some(ShardLoadFault::CorruptSection(i)));
        }
    }
}
