//! Stress test: repeated reductions under the conventional-SDSM lowering
//! (distributed lock + DSM scratch + barrier) must stay exact across many
//! trials — a regression canary for the release/acquire races the test
//! suite pins down deterministically.
use parade_core::*;
fn main() {
    for trial in 0..20 {
        let c = Cluster::builder()
            .nodes(3)
            .threads_per_node(2)
            .protocol(ProtocolMode::SdsmOnly)
            .net(NetProfile::zero())
            .time(TimeSource::Manual)
            .build()
            .unwrap();
        let bad = c.run(move |g| {
            g.parallel(move |tc| {
                let mut bad = 0usize;
                for round in 0..200 {
                    let v = (tc.thread_num() + 1) as f64 * (round + 1) as f64;
                    let total = tc.reduce_f64_sum(v);
                    let expect = 21.0 * (round + 1) as f64; // sum tid+1 = 21 for 6 threads
                    if (total - expect).abs() > 1e-9 {
                        bad += 1;
                    }
                }
                tc.reduce_i64(ReduceOp::Sum, bad as i64)
            })
        });
        println!("trial {trial}: bad={bad}");
        if bad > 0 {
            std::process::exit(1);
        }
    }
    println!("all good");
}
