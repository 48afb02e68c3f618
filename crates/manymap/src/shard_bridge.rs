//! Bridge from the [`mmm_exec::FaultPlan`] shard grammar to the
//! [`mmm_index::ShardFaultHook`] injection point.
//!
//! `mmm-exec` owns the fault-plan grammar but deliberately does not depend
//! on the index crate, and `mmm-index` owns the hook but knows nothing
//! about plans. The mapper crate sees both, so the one-to-one translation
//! lives here: `--inject-backend-fault corrupt-section:shards=1:section=map`
//! parses in `mmm-exec` and fires inside `mmm-index`'s shard loader.

use std::sync::Arc;

use mmm_exec::{FaultPlan, ShardFaultAction};
use mmm_index::{ShardFaultHook, ShardLoadFault};

/// A [`ShardFaultHook`] driven by a parsed [`FaultPlan`]'s shard rules.
#[derive(Debug)]
pub struct PlanShardFaults {
    plan: FaultPlan,
}

impl PlanShardFaults {
    /// Wrap a plan for the shard loader. Returns `None` when the plan has
    /// no shard rules, so clean runs never pay for the hook.
    pub fn from_plan(plan: &FaultPlan) -> Option<Arc<dyn ShardFaultHook>> {
        plan.has_shard_rules()
            .then(|| Arc::new(PlanShardFaults { plan: plan.clone() }) as Arc<dyn ShardFaultHook>)
    }
}

impl ShardFaultHook for PlanShardFaults {
    fn on_load(&self, shard: usize, attempt: u32) -> Option<ShardLoadFault> {
        match self.plan.shard_action(shard as u64, u64::from(attempt))? {
            ShardFaultAction::CorruptSection(s) => Some(ShardLoadFault::CorruptSection(s)),
            ShardFaultAction::Missing => Some(ShardLoadFault::Missing),
            ShardFaultAction::TornTail => Some(ShardLoadFault::TornTail),
            ShardFaultAction::SlowIo(d) => Some(ShardLoadFault::SlowIo(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_without_shard_rules_yields_no_hook() {
        let plan = FaultPlan::parse("launch-fail:batches=0..1").unwrap();
        assert!(PlanShardFaults::from_plan(&plan).is_none());
    }

    #[test]
    fn shard_rules_translate_one_to_one() {
        let plan = FaultPlan::parse(
            "corrupt-section:shards=1:section=pool;missing-shard:shards=2;\
             torn-tail:shards=3;slow-io:shards=4:ms=7",
        )
        .unwrap();
        let hook = PlanShardFaults::from_plan(&plan).unwrap();
        assert!(hook.on_load(0, 1).is_none());
        assert!(matches!(
            hook.on_load(1, 1),
            Some(ShardLoadFault::CorruptSection(3))
        ));
        assert!(matches!(hook.on_load(2, 1), Some(ShardLoadFault::Missing)));
        assert!(matches!(hook.on_load(3, 1), Some(ShardLoadFault::TornTail)));
        match hook.on_load(4, 1) {
            Some(ShardLoadFault::SlowIo(d)) => assert_eq!(d.as_millis(), 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attempts_bound_limits_injection_to_early_attempts() {
        // `attempts=2` fires on 0-based attempts 0 and 1 only, so the
        // loader's final retry succeeds — the transient-recovery scenario.
        let plan = FaultPlan::parse("slow-io:shards=0:attempts=2").unwrap();
        let hook = PlanShardFaults::from_plan(&plan).unwrap();
        assert!(hook.on_load(0, 1).is_some());
        assert!(hook.on_load(0, 3).is_none());
    }
}
