//! Cross-representation regression tests for the exact solver: the same
//! model solved through the materialized (reachable states + flat CSR) and factored
//! (implicit Kronecker) generator representations must agree — on the
//! stationary vector under the state-index mapping, on the ladder rung the
//! sparse engine reports, and on every published performance metric.

use mapqn_core::exact::{solve_exact_with, ExactOptions, GeneratorRepresentation};
use mapqn_core::statespace::build_state_space;
use mapqn_core::templates::{figure5_network, tpcw_network, TpcwParameters};
use mapqn_core::FactoredGenerator;
use mapqn_markov::{
    stationary_sparse, stationary_sparse_op, SparsePreconditioner, SparseSteadyOptions,
};

/// π agreement at 1e-10 and the *same reported rung* when both
/// representations run the sparse engine on the same rung of the ladder.
#[test]
fn pi_agrees_across_representations_on_every_common_rung() {
    let net = figure5_network(5, 16.0, 0.5).unwrap();
    let space = build_state_space(&net, 100_000).unwrap();
    let op = FactoredGenerator::new(&net, 100_000).unwrap();
    // Every rung is common: the implicit operator relaxes its synthesized
    // rows on the Gauss–Seidel rung.
    for pre in [
        SparsePreconditioner::GaussSeidel,
        SparsePreconditioner::Jacobi,
        SparsePreconditioner::Power,
    ] {
        let opts = SparseSteadyOptions {
            preconditioner: pre,
            ..SparseSteadyOptions::default()
        };
        let materialized = stationary_sparse(space.ctmc(), &opts).unwrap();
        let implicit = stationary_sparse_op(&op, &opts).unwrap();
        assert_eq!(materialized.used, implicit.used, "rung mismatch for {pre:?}");
        for (mat, state) in space.states().iter().enumerate() {
            let fac = op.index_of(state).unwrap();
            let diff = (materialized.pi[mat] - implicit.pi[fac]).abs();
            assert!(diff <= 1e-10, "{pre:?}: pi diff {diff} at state {mat}");
        }
    }
}

/// Factored Gauss–Seidel is bitwise worker-count invariant: block
/// boundaries come from `block_len` alone (64 here, cutting compositions
/// mid-block), never from the worker count. The TPC-W generator carries
/// aggregation levels, so this covers the coarse step too: its level flows
/// are summed over the same fixed blocks in block order.
#[test]
fn factored_gauss_seidel_is_bitwise_worker_count_invariant() {
    use mapqn_linalg::{GeneratorOp, LevelFlows};
    let net = tpcw_network(&TpcwParameters {
        browsers: 12,
        ..TpcwParameters::default()
    })
    .unwrap();
    let op = FactoredGenerator::new(&net, 100_000).unwrap();
    assert!(
        op.left_apply_rows_into(0, &[], &mut [], Some(&mut LevelFlows::default())),
        "the TPC-W generator must carry levels"
    );
    let base = SparseSteadyOptions {
        block_len: 64,
        parallel_threshold: 0,
        ..SparseSteadyOptions::default()
    };
    let serial = stationary_sparse_op(&op, &SparseSteadyOptions { workers: 1, ..base }).unwrap();
    assert_eq!(serial.used, SparsePreconditioner::GaussSeidel);
    for workers in [2, 4] {
        let parallel =
            stationary_sparse_op(&op, &SparseSteadyOptions { workers, ..base }).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(serial.pi.as_slice()),
            bits(parallel.pi.as_slice()),
            "workers = {workers} must reproduce the serial bits"
        );
        assert_eq!(serial.sweeps, parallel.sweeps);
        assert_eq!(serial.used, parallel.used);
    }
}

/// End-to-end `solve_exact_with` metric agreement on the TPC-W template —
/// delay station, MAP queues and non-trivial routing all at once.
#[test]
fn tpcw_metrics_agree_across_representations() {
    let net = tpcw_network(&TpcwParameters {
        browsers: 6,
        ..TpcwParameters::default()
    })
    .unwrap();
    let materialized = solve_exact_with(
        &net,
        &ExactOptions {
            representation: GeneratorRepresentation::Materialized,
            ..ExactOptions::default()
        },
    )
    .unwrap();
    let implicit = solve_exact_with(
        &net,
        &ExactOptions {
            representation: GeneratorRepresentation::Factored,
            ..ExactOptions::default()
        },
    )
    .unwrap();
    for k in 0..net.num_stations() {
        let dx = (materialized.throughput[k] - implicit.throughput[k]).abs();
        let dq = (materialized.mean_queue_length[k] - implicit.mean_queue_length[k]).abs();
        let du = (materialized.utilization[k] - implicit.utilization[k]).abs();
        assert!(dx <= 1e-8, "throughput diff {dx} at station {k}");
        assert!(dq <= 1e-8, "queue-length diff {dq} at station {k}");
        assert!(du <= 1e-8, "utilization diff {du} at station {k}");
    }
    assert!((materialized.system_throughput - implicit.system_throughput).abs() <= 1e-8);
    assert!((implicit.total_jobs() - 6.0).abs() <= 1e-8);
}

/// The factored operator's memory accounting is what the implicit tier is
/// for: block-sized, while the flat CSR of the same chain grows with nnz.
#[test]
fn factored_memory_is_a_small_fraction_of_the_flat_csr() {
    use mapqn_linalg::GeneratorOp;
    let net = figure5_network(30, 16.0, 0.5).unwrap();
    let space = build_state_space(&net, 200_000).unwrap();
    let op = FactoredGenerator::new(&net, 200_000).unwrap();
    let flat = space.generator_memory_bytes();
    let factored = op.memory_bytes();
    assert!(
        factored * 5 <= flat,
        "factored {factored} B should be at least 5x below the flat CSR {flat} B"
    );
    // And the routing estimate brackets the real materialized footprint.
    assert!(op.flat_csr_bytes_estimate() >= flat);
}
