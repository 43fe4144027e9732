//! Microbenchmarks of the implementation's hot primitives (real wall-clock
//! performance of this library, not simulated time): diff
//! creation/application, the NAS RNG, the shared-access fast path, the
//! collective algorithms at zero network cost, and the loop partitioner.
//!
//! Runs on the `parade-testkit` bench harness (no external crates): calibrated
//! batches, warmup, median-of-N. `cargo bench -p parade-bench --bench
//! primitives [filter]`; set `PARADE_BENCH_JSON=1` to also write
//! `BENCH_primitives.json`.

use parade_core::partition;
use parade_dsm::{Diff, PAGE_SIZE};
use parade_kernels::nasrng::NasRng;
use parade_testkit::bench::Bench;

fn bench_diff(b: &mut Bench) {
    let twin = vec![0u8; PAGE_SIZE];
    let mut cur = twin.clone();
    // Sparse modification: 16 scattered words.
    for i in 0..16 {
        cur[i * 256] = 1;
    }
    b.bench("diff/create_sparse_page", || {
        std::hint::black_box(Diff::create(
            std::hint::black_box(&twin),
            std::hint::black_box(&cur),
        ));
    });
    let mut dense = twin.clone();
    for v in dense.iter_mut() {
        *v = 7;
    }
    b.bench("diff/create_dense_page", || {
        std::hint::black_box(Diff::create(
            std::hint::black_box(&twin),
            std::hint::black_box(&dense),
        ));
    });
    let d = Diff::create(&twin, &cur);
    b.bench_batched(
        "diff/apply_sparse_page",
        || twin.clone(),
        |mut t| d.apply(std::hint::black_box(&mut t)),
    );
}

fn bench_rng(b: &mut Bench) {
    let mut r = NasRng::nas(314159265);
    b.bench("nasrng/next_f64", move || {
        std::hint::black_box(r.next_f64());
    });
    let r = NasRng::nas(314159265);
    b.bench("nasrng/skip_2^40", move || {
        std::hint::black_box(r.at_offset(1 << 40));
    });
}

fn bench_partition(b: &mut Bench) {
    b.bench("scheduler/partition", || {
        let mut acc = 0usize;
        for i in 0..16 {
            let r = partition(std::hint::black_box(0..1_000_000), 16, i);
            acc += r.len();
        }
        std::hint::black_box(acc);
    });
}

fn bench_shared_access(b: &mut Bench) {
    use parade_core::{Cluster, NetProfile, TimeSource};
    // One-node cluster: measures the software fault-check fast path.
    let cluster = Cluster::builder()
        .nodes(1)
        .threads_per_node(1)
        .net(NetProfile::zero())
        .time(TimeSource::Manual)
        .build()
        .unwrap();
    b.bench("dsm/fast_path_read_1M", move || {
        cluster.run(|g| {
            let v = g.alloc_f64(4096);
            g.parallel(move |tc| {
                let bv = tc.bind_f64(&v);
                for i in 0..4096 {
                    bv.set(i, i as f64);
                }
                let mut acc = 0.0;
                for _ in 0..256 {
                    for i in 0..4096 {
                        acc += bv.get(i);
                    }
                }
                std::hint::black_box(acc);
            });
        });
    });
}

fn bench_collectives(b: &mut Bench) {
    use parade_mpi::{Communicator, ReduceOp};
    use parade_net::{Fabric, NetProfile, VClock};
    use std::sync::Arc;
    // Real wall-time cost of an 8-way allreduce through the fabric.
    b.bench("mpi/allreduce_8ranks_wallclock", || {
        let fabric = Fabric::new(8, NetProfile::zero());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let comm = Communicator::new(fabric.endpoint(i));
                std::thread::spawn(move || {
                    let mut clk = VClock::manual();
                    let mut acc = 0.0;
                    for k in 0..16 {
                        acc += comm.allreduce_f64(k as f64, ReduceOp::Sum, &mut clk);
                    }
                    acc
                })
            })
            .collect();
        let out: f64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        std::hint::black_box(out);
        std::hint::black_box(Arc::strong_count(&fabric));
    });
}

fn main() {
    let mut b = Bench::from_args("primitives");
    bench_diff(&mut b);
    bench_rng(&mut b);
    bench_partition(&mut b);
    bench_shared_access(&mut b);
    bench_collectives(&mut b);
    b.finish();
}
