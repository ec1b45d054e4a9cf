//! End-to-end simulation cost of small SnackNoC kernels — the whole
//! pipeline (compile once, then CPM fetch/issue, RCU execution, transient
//! tokens, result writeback) per iteration. Cases are registered as
//! [`TimedJob`]s on the deterministic sweep pool
//! (`snacknoc_bench::sweep`); set `SNACKNOC_BENCH_THREADS` to time them
//! concurrently.

use snacknoc_bench::harness::Harness;
use snacknoc_bench::sweep::TimedJob;
use snacknoc_compiler::{build, MapperConfig};
use snacknoc_core::{Fixed, Instruction, Op, Operand, Rcu, ResultDest, SnackPlatform};
use snacknoc_noc::{NocConfig, NodeId};
use snacknoc_workloads::kernels::Kernel;

/// A MAC-fusion inner product as one long single-block MAC chain on a
/// bare RCU — every cycle asks "can the active block advance?", which
/// the RCU answers from the front slot of the block's instruction ring.
/// `n` is the vector length.
fn mac_fusion_rcu(n: u32) -> Rcu {
    let mut rcu = Rcu::new();
    for seq in 0..n {
        rcu.accept_instruction(Instruction {
            op: Op::Mac,
            pe: NodeId::new(0),
            vl: Operand::Imm(Fixed::from_f64(f64::from(seq % 7) + 1.0)),
            vr: Operand::Imm(Fixed::from_f64(f64::from(seq % 5) + 1.0)),
            dest: if seq + 1 == n {
                ResultDest::Output { index: 0 }
            } else {
                ResultDest::Accumulate
            },
            sub_block: 0,
            seq,
            ends_block: seq + 1 == n,
        });
    }
    rcu
}

fn main() {
    let mut h = Harness::from_env("kernel_latency");
    let mut jobs = Vec::new();
    // The RCU-only inner product (no network): measures the instruction
    // scheduler itself, whose per-cycle question is answered in O(1).
    for n in [256u32, 4096] {
        jobs.push(TimedJob::batched(
            &format!("kernel_sim/mac_fusion_rcu/{n}"),
            move || mac_fusion_rcu(n),
            |mut rcu| {
                let mut out = Vec::new();
                let mut cycle = 0u64;
                while out.is_empty() {
                    cycle += 1;
                    rcu.tick_into(
                        cycle,
                        0,
                        &mut snacknoc_trace::TracerHandle::Nop,
                        &mut out,
                    );
                }
                assert!(rcu.is_idle(), "chain fully retired");
                (cycle, out.len())
            },
        ));
    }
    for kernel in Kernel::ALL {
        let size = match kernel {
            Kernel::Sgemm => 8,
            Kernel::Reduction => 1024,
            Kernel::Mac => 512,
            Kernel::Spmv => 24,
        };
        let built = build(kernel, size, 42);
        let sample = SnackPlatform::new(NocConfig::default()).unwrap();
        let compiled =
            built.context.compile(built.root, &MapperConfig::for_mesh(sample.mesh())).unwrap();
        jobs.push(TimedJob::batched(
            &format!("kernel_sim/run/{kernel}-{size}"),
            || SnackPlatform::new(NocConfig::default()).unwrap(),
            move |mut platform| {
                platform
                    .run_kernel(&compiled, 1_000_000)
                    .expect("kernel finishes")
            },
        ));
    }
    h.bench_jobs(jobs);
    h.finish();
}
