//! The `AlignBackend` trait and backend selection.

use std::sync::Arc;

use mmm_align::{best_engine, AlignResult, AlignScratch, Engine, Scoring};
use mmm_pipeline::WorkerPool;

use crate::error::BackendError;
use crate::fault::FaultPlan;
use crate::host::HostBackend;
use crate::job::AlignJob;
use crate::stats::BackendStats;
use crate::supervisor::{SupervisedBackend, SupervisorConfig};

/// A batched alignment executor. One session is prepared per run (scoring
/// is fixed up front, like a device context) and then fed job batches; the
/// pipeline's compute stage is backend-agnostic above this trait, which is
/// the seam a real GPU or KNL backend drops into.
pub trait AlignBackend: Send + Sync {
    /// Short name for summaries ("cpu", "gpu-sim").
    fn label(&self) -> &'static str;

    /// Execute a batch. Returns one result per job, in job order, plus the
    /// batch's statistics. Errors are whole-batch (bad configuration, a
    /// kernel bug) — per-job size limits never fail, they fall back.
    fn submit(&self, jobs: Vec<AlignJob>)
        -> Result<(Vec<AlignResult>, BackendStats), BackendError>;

    /// [`submit`](Self::submit) for a batch the caller keeps (the
    /// supervisor still needs the jobs if the attempt fails). The default
    /// copies them into `submit`; a backend that only reads its jobs
    /// overrides it to skip the copy.
    fn submit_borrowed(
        &self,
        jobs: &[AlignJob],
    ) -> Result<(Vec<AlignResult>, BackendStats), BackendError> {
        self.submit(jobs.to_vec())
    }

    /// Whether this backend's device holds `job`, rather than counting it
    /// as a host fallback. The batch scheduler
    /// (`crate::sched`) uses this to send statically ineligible jobs —
    /// footprints past device memory — straight to the host executor
    /// instead of letting them stall a device batch. The default claims
    /// everything, which is correct for host backends.
    fn device_eligible(&self, _job: &AlignJob) -> bool {
        true
    }

    /// The workers `submit` computes on. A caller may run its own batches on
    /// them between submits, never from inside one (one batch runs at a time).
    fn pool(&self) -> &WorkerPool<AlignScratch>;
}

/// Which backend implementation to prepare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Host SIMD lanes across the worker pool.
    Cpu,
    /// The host executor, metered by the simulated GPU/SIMT device
    /// (streams, memory pool, CPU fallback).
    GpuSim,
}

impl BackendKind {
    /// Parse a `--backend` value.
    pub fn parse(name: &str) -> Result<Self, BackendError> {
        match name {
            "cpu" => Ok(BackendKind::Cpu),
            "gpu-sim" | "gpu" => Ok(BackendKind::GpuSim),
            other => Err(BackendError::UnknownKind(other.to_string())),
        }
    }

    /// Name as accepted by [`parse`](Self::parse).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Cpu => "cpu",
            BackendKind::GpuSim => "gpu-sim",
        }
    }
}

/// Session parameters shared by every backend kind.
#[derive(Clone, Debug)]
pub struct BackendOptions {
    pub scoring: Scoring,
    /// Host engine every backend computes its jobs with.
    pub engine: Engine,
    /// Worker threads of the session's host executor.
    pub threads: usize,
    /// Override the simulated device's global memory (bytes); small values
    /// force the oversized-pair fallback path. `None` keeps the V100 16 GB.
    pub device_mem: Option<u64>,
    /// Deterministic fault-injection schedule for this session's `submit`
    /// calls (chaos testing). `None` in production.
    pub fault: Option<FaultPlan>,
}

impl BackendOptions {
    /// Defaults: given scoring, best host engine, single-threaded.
    pub fn new(scoring: Scoring) -> Self {
        BackendOptions {
            scoring,
            engine: best_engine(),
            threads: 1,
            device_mem: None,
            fault: None,
        }
    }
}

/// Prepare a backend session: validate the scoring once, stand up the
/// device meter (streams + resident memory pool) if needed.
pub fn prepare(
    kind: BackendKind,
    opts: &BackendOptions,
) -> Result<Box<dyn AlignBackend>, BackendError> {
    Ok(Box::new(open(kind, opts)?))
}

fn open(kind: BackendKind, opts: &BackendOptions) -> Result<HostBackend, BackendError> {
    if !opts.scoring.fits_i8() {
        return Err(BackendError::ScoringOverflow);
    }
    Ok(HostBackend::new(kind, opts))
}

/// Prepare a backend under the supervisor (DESIGN.md §10): the primary
/// session is wrapped in retry/deadline/circuit-breaker handling. A
/// `gpu-sim` primary gets a standby for demotion over its own executor,
/// with no meter and no fault plan; a `cpu` session has none. This is what
/// the CLI uses; [`prepare`] remains the raw seam.
pub fn prepare_supervised(
    kind: BackendKind,
    opts: &BackendOptions,
    cfg: SupervisorConfig,
) -> Result<SupervisedBackend, BackendError> {
    let primary = open(kind, opts)?;
    let standby =
        (kind == BackendKind::GpuSim).then(|| Arc::new(primary.standby()) as Arc<dyn AlignBackend>);
    Ok(SupervisedBackend::new(Arc::new(primary), standby, cfg))
}
