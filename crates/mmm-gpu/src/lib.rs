//! `mmm-gpu` — a placement and cost model of manymap's GPU backend.
//!
//! The paper evaluates manymap on a Tesla V100 (Figures 4, 7, 8; §4.5). We
//! do not have that hardware; this crate decides where each job would run
//! and what it would cost there, from the job's shape alone. It computes
//! no alignment values: those come from the host executor (`mmm-exec`),
//! whose every kernel tier returns the scalar gold's bytes. The model
//! prices:
//!
//! * one sequence pair per kernel, one thread block of ≤512 threads
//!   (§4.5.1), each diagonal processed in `⌈width/threads⌉` lock-step
//!   chunks;
//! * the minimap2-layout kernel pays the `tid == 0` branch divergence and a
//!   `__syncthreads` barrier per chunk (Figure 4a); the manymap-layout
//!   kernel is branch-free (Figure 4b);
//! * DP state lives in shared memory when it fits (96 KiB/block on Volta),
//!   otherwise in global memory at higher access cost (§4.5.2);
//! * concurrent kernel execution over CUDA streams with the Volta limits:
//!   80 SMs, 128 resident grids, 16 GB device memory (§4.5.1, Figure 7);
//! * a per-stream memory pool removes the per-launch allocation latency
//!   (§4.5.2), and a kernel past device memory falls back to the CPU
//!   ([`DeviceSpec::fits`]).
//!
//! [`simt`] alone executes: it runs Figure 4's two kernels lane by lane to
//! show their difference and to check the model's chunk count.

pub mod device;
pub mod error;
pub mod kernel;
pub mod mempool;
pub mod simt;
pub mod stream;

pub use device::DeviceSpec;
pub use error::GpuError;
pub use kernel::{price_kernel, GpuKernelKind, KernelJob, KernelRun};
pub use mempool::MemoryPool;
pub use simt::{execute_block, SimtTrace};
pub use stream::{price_jobs, schedule_runs, simulate_batch, BatchReport, StreamConfig};
