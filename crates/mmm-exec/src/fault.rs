//! Deterministic fault injection for the execution seam.
//!
//! A [`FaultPlan`] tells a backend to misbehave on chosen `submit` calls —
//! the chaos plane the supervisor (DESIGN.md §10) is tested against. Plans
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
//!          | 'section=' name        corrupt-section target: header|seqs|map|pool
//!          | 'attempts=' K           fire on load attempts [0, K) (default: all)
//! ```
//!
//! With no selector a rule fires on every submit. The first matching rule
//! wins. Examples: `launch-fail` (every submit fails),
//! `hang:ms=400:batches=0..1`, `wrong-len:every=3`,
//! `mempool-full:p=0.25:seed=7`.
//!
//! Shard rules drive the sharded-index fault domains instead of the
//! backend `submit` path: they are keyed by *shard id* and *load attempt*
//! and surface through [`FaultPlan::shard_action`], which the mapper
//! bridges into the shard loader's fault hook. Backend accessors
//! ([`FaultPlan::action`]) never see them, and vice versa. Examples:
//! `missing-shard:shards=1..2` (shard 1 is gone),
//! `corrupt-section:section=pool:shards=0..1` (flip a byte of shard 0's
//! block pool), `slow-io:ms=20:attempts=1` (first load attempt of every
//! shard is slow), `torn-tail:every=2` (even shards truncated).

use std::time::Duration;

use crate::{splitmix64_mix, SPLITMIX64_GAMMA};

/// What kind of backend failure to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// The stream launch fails: `submit` returns a typed error without
    /// executing anything.
    LaunchFail,
    /// The device memory pool is exhausted: `submit` returns a typed error.
    MempoolFull,
    /// The backend wedges mid-submit for the configured duration, then
    /// completes normally — the case the watchdog deadline exists for, and
    /// the source of results that arrive after their slot was poisoned.
    Hang,
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
            FaultClass::Hang => "hang",
            FaultClass::WrongLen => "wrong-len",
        }
    }

    /// All classes, for chaos-matrix tests.
    pub fn all() -> [FaultClass; 4] {
        [
            FaultClass::LaunchFail,
            FaultClass::MempoolFull,
            FaultClass::Hang,
            FaultClass::WrongLen,
        ]
    }
}

/// Shard sections addressable by `section=`, in on-disk order.
pub const SHARD_SECTION_NAMES: [&str; 4] = ["header", "seqs", "map", "pool"];

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

/// One parsed plan rule.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultRule {
    class: FaultClass,
    sel: Selector,
    hang: Duration,
}

/// One parsed shard rule: the selector is keyed by shard id, and the rule
/// only fires on load attempts `< attempts`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShardFaultRule {
    action: ShardFaultAction,
    sel: Selector,
    attempts: u64,
}

/// What the shard loader should do for one `(shard, attempt)`, if anything
/// (the sharded-index fault domains, DESIGN.md §15). The mapper crate
/// converts this into the index crate's fault hook — `mmm-exec`
/// deliberately does not depend on the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFaultAction {
    /// Flip a byte of section `0..4` ([`SHARD_SECTION_NAMES`] order).
    CorruptSection(usize),
    /// Report the shard file missing.
    Missing,
    /// Truncate the shard bytes before validation.
    TornTail,
    /// Sleep this long, then load normally.
    SlowIo(Duration),
}

/// What the backend should do for the current submit, if anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Return [`BackendError::Injected`] with [`FaultClass::LaunchFail`].
    ///
    /// [`BackendError::Injected`]: crate::BackendError::Injected
    FailLaunch,
    /// Return [`BackendError::Injected`] with [`FaultClass::MempoolFull`].
    ///
    /// [`BackendError::Injected`]: crate::BackendError::Injected
    FailMempool,
    /// Sleep this long before executing the batch normally.
    Hang(Duration),
    /// Execute normally but drop the last result.
    DropResult,
}

/// A deterministic, replayable fault schedule for one backend session
/// (submit-keyed rules) and/or the sharded index (shard-keyed rules).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    shard_rules: Vec<ShardFaultRule>,
}

/// Which rule family a parsed class belongs to. A shard class names its
/// action; `section=` and `ms=` fill in its parameter once the rule is read.
enum ParsedClass {
    Backend(FaultClass),
    Shard(ShardFaultAction),
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
            let class = match parts.next().map(str::trim) {
                Some("launch-fail") => ParsedClass::Backend(FaultClass::LaunchFail),
                Some("mempool-full") => ParsedClass::Backend(FaultClass::MempoolFull),
                Some("hang") => ParsedClass::Backend(FaultClass::Hang),
                Some("wrong-len") => ParsedClass::Backend(FaultClass::WrongLen),
                Some("corrupt-section") => ParsedClass::Shard(ShardFaultAction::CorruptSection(0)),
                Some("missing-shard") => ParsedClass::Shard(ShardFaultAction::Missing),
                Some("torn-tail") => ParsedClass::Shard(ShardFaultAction::TornTail),
                Some("slow-io") => ParsedClass::Shard(ShardFaultAction::SlowIo(Duration::ZERO)),
                other => {
                    return Err(format!(
                        "fault plan: unknown class {:?} (expected launch-fail, \
                         mempool-full, hang, wrong-len, corrupt-section, \
                         missing-shard, torn-tail or slow-io)",
                        other.unwrap_or("")
                    ))
                }
            };
            let is_shard = matches!(class, ParsedClass::Shard(_));
            let mut sel = Selector::All;
            let mut ms: Option<u64> = None;
            let mut p_ppm: Option<u64> = None;
            let mut seed = 0u64;
            let mut attempts = u64::MAX;
            let mut section = 2usize; // default: the bucket map
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
                        section = SHARD_SECTION_NAMES
                            .iter()
                            .position(|&n| n == value.trim())
                            .ok_or_else(|| {
                                format!(
                                    "fault plan: section={value:?} (expected one of \
                                     header, seqs, map, pool)"
                                )
                            })?;
                    }
                    other => return Err(format!("fault plan: unknown parameter {other:?}")),
                }
            }
            if let Some(p_ppm) = p_ppm {
                sel = Selector::Seeded { p_ppm, seed };
            }
            match class {
                ParsedClass::Backend(class) => rules.push(FaultRule {
                    class,
                    sel,
                    hang: Duration::from_millis(ms.unwrap_or(1_000)),
                }),
                ParsedClass::Shard(action) => shard_rules.push(ShardFaultRule {
                    action: match action {
                        ShardFaultAction::CorruptSection(_) => {
                            ShardFaultAction::CorruptSection(section)
                        }
                        ShardFaultAction::SlowIo(_) => {
                            ShardFaultAction::SlowIo(Duration::from_millis(ms.unwrap_or(50)))
                        }
                        other => other,
                    },
                    sel,
                    attempts,
                }),
            }
        }
        if rules.is_empty() && shard_rules.is_empty() {
            return Err("fault plan: empty plan".into());
        }
        Ok(FaultPlan { rules, shard_rules })
    }

    /// The action (first matching rule) for the backend's `submit` number
    /// `submit`, counted from zero per session. Shard rules never match
    /// here.
    pub fn action(&self, submit: u64) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|r| r.sel.fires(submit))
            .map(|r| match r.class {
                FaultClass::LaunchFail => FaultAction::FailLaunch,
                FaultClass::MempoolFull => FaultAction::FailMempool,
                FaultClass::Hang => FaultAction::Hang(r.hang),
                FaultClass::WrongLen => FaultAction::DropResult,
            })
    }

    /// The shard-load action (first matching shard rule) for load attempt
    /// `attempt` of shard `shard`. Backend rules never match here, so one
    /// plan can drive both fault planes at once.
    pub fn shard_action(&self, shard: u64, attempt: u64) -> Option<ShardFaultAction> {
        self.shard_rules
            .iter()
            .find(|r| r.sel.fires(shard) && attempt < r.attempts)
            .map(|r| r.action)
    }

    /// True when the plan contains at least one shard rule (the mapper
    /// uses this to decide whether to install the shard fault hook).
    pub fn has_shard_rules(&self) -> bool {
        !self.shard_rules.is_empty()
    }
}

/// Per-session fault state: the plan plus this backend's own submit
/// counter. Backends consult it at the top of `submit`; the internal
/// executors (e.g. the gpu backend's host fallback path) bypass it, so one
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
            Some(FaultAction::FailLaunch) => Err(crate::BackendError::Injected {
                class: FaultClass::LaunchFail,
                submit,
            }),
            Some(FaultAction::FailMempool) => Err(crate::BackendError::Injected {
                class: FaultClass::MempoolFull,
                submit,
            }),
            Some(FaultAction::Hang(d)) => {
                std::thread::sleep(d);
                Ok(false)
            }
            Some(FaultAction::DropResult) => Ok(true),
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
            assert_eq!(p.action(i), Some(FaultAction::FailLaunch));
        }
    }

    #[test]
    fn range_selector_is_half_open() {
        let p = FaultPlan::parse("wrong-len:batches=2..4").unwrap();
        assert_eq!(p.action(1), None);
        assert_eq!(p.action(2), Some(FaultAction::DropResult));
        assert_eq!(p.action(3), Some(FaultAction::DropResult));
        assert_eq!(p.action(4), None);
    }

    #[test]
    fn every_selector_includes_zero() {
        let p = FaultPlan::parse("mempool-full:every=3").unwrap();
        assert_eq!(p.action(0), Some(FaultAction::FailMempool));
        assert_eq!(p.action(1), None);
        assert_eq!(p.action(3), Some(FaultAction::FailMempool));
    }

    #[test]
    fn hang_duration_is_configurable() {
        let p = FaultPlan::parse("hang:ms=250:batches=0..1").unwrap();
        assert_eq!(
            p.action(0),
            Some(FaultAction::Hang(Duration::from_millis(250)))
        );
        assert_eq!(p.action(1), None);
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
        assert!(matches!(p.action(0), Some(FaultAction::Hang(_))));
        assert_eq!(p.action(1), Some(FaultAction::FailLaunch));
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
    }

    #[test]
    fn shard_rules_are_keyed_by_shard_and_attempt() {
        let p = FaultPlan::parse("missing-shard:shards=1..3").unwrap();
        assert_eq!(p.shard_action(0, 0), None);
        assert_eq!(p.shard_action(1, 0), Some(ShardFaultAction::Missing));
        assert_eq!(p.shard_action(2, 7), Some(ShardFaultAction::Missing));
        assert_eq!(p.shard_action(3, 0), None);
        // Shard rules never leak into the backend plane, nor vice versa.
        assert_eq!(p.action(1), None);
        assert!(p.has_shard_rules());
        let b = FaultPlan::parse("launch-fail").unwrap();
        assert_eq!(b.shard_action(0, 0), None);
        assert!(!b.has_shard_rules());
    }

    #[test]
    fn shard_rule_parameters_round_trip() {
        let p = FaultPlan::parse("corrupt-section:section=pool:shards=0..1").unwrap();
        assert_eq!(
            p.shard_action(0, 0),
            Some(ShardFaultAction::CorruptSection(3))
        );
        // Default section is the bucket map.
        let p = FaultPlan::parse("corrupt-section").unwrap();
        assert_eq!(
            p.shard_action(5, 0),
            Some(ShardFaultAction::CorruptSection(2))
        );

        // attempts=K fires only on the first K load attempts: the shape of
        // a transient fault the retry ladder should absorb.
        let p = FaultPlan::parse("slow-io:ms=20:attempts=2").unwrap();
        assert_eq!(
            p.shard_action(0, 0),
            Some(ShardFaultAction::SlowIo(Duration::from_millis(20)))
        );
        assert!(p.shard_action(0, 1).is_some());
        assert_eq!(p.shard_action(0, 2), None);

        let p = FaultPlan::parse("torn-tail:every=2").unwrap();
        assert_eq!(p.shard_action(0, 0), Some(ShardFaultAction::TornTail));
        assert_eq!(p.shard_action(1, 0), None);
        assert_eq!(p.shard_action(2, 0), Some(ShardFaultAction::TornTail));
    }

    #[test]
    fn one_plan_drives_both_fault_planes() {
        let p = FaultPlan::parse("hang:ms=5:batches=0..1; missing-shard:shards=2..3").unwrap();
        assert!(matches!(p.action(0), Some(FaultAction::Hang(_))));
        assert_eq!(p.action(1), None);
        assert_eq!(p.shard_action(2, 0), Some(ShardFaultAction::Missing));
        assert_eq!(p.shard_action(0, 0), None);
    }

    #[test]
    fn shard_class_labels_cover_the_chaos_matrix() {
        for class in ["corrupt-section", "missing-shard", "torn-tail", "slow-io"] {
            let p = FaultPlan::parse(class).unwrap();
            assert!(p.shard_action(0, 0).is_some(), "{class}");
        }
        assert_eq!(SHARD_SECTION_NAMES, ["header", "seqs", "map", "pool"]);
    }
}
