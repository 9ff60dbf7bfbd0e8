//! Integration tests of the DAG planning path: branchy zoo and inline
//! graph requests end to end through the engine, cache semantics, chain
//! equivalence of branch-free DAGs, and fingerprint stability.

#![expect(
    clippy::float_cmp,
    clippy::let_underscore_must_use,
    clippy::disallowed_types,
    reason = "assertions compare exact values; results a test does not inspect are discarded; hash sets only count distinct items"
)]

use hypar_engine::{
    CustomNetwork, EngineError, GraphNodeSpec, GraphSpec, InputSpec, LayerSpec, PlanEngine,
    PlanRequest, Strategy,
};
use proptest::prelude::*;

fn graph_node(name: &str, kind: &str, inputs: &[&str]) -> GraphNodeSpec {
    GraphNodeSpec {
        name: name.to_owned(),
        kind: kind.to_owned(),
        out: None,
        kernel: None,
        stride: None,
        padding: None,
        pool: None,
        inputs: Some(inputs.iter().map(|s| (*s).to_owned()).collect()),
    }
}

fn conv_node(name: &str, out: u64, kernel: u64, inputs: &[&str]) -> GraphNodeSpec {
    GraphNodeSpec {
        out: Some(out),
        kernel: Some(kernel),
        ..graph_node(name, "conv", inputs)
    }
}

fn fc_node(name: &str, out: u64, inputs: &[&str]) -> GraphNodeSpec {
    GraphNodeSpec {
        out: Some(out),
        ..graph_node(name, "fc", inputs)
    }
}

/// The tiny residual block's four nodes, fully wired (so any listing
/// order is valid), selected by `order`.
fn tiny_res_spec(order: &[usize]) -> GraphSpec {
    let nodes = [
        conv_node("stem", 8, 3, &["input"]),
        conv_node("body", 8, 3, &["stem"]),
        graph_node("join", "add", &["stem", "body"]),
        fc_node("fc", 10, &["join"]),
    ];
    GraphSpec {
        name: Some("tiny-res".to_owned()),
        input: InputSpec {
            channels: 8,
            height: 16,
            width: 16,
        },
        nodes: order.iter().map(|&i| nodes[i].clone()).collect(),
    }
}

#[test]
fn branchy_zoo_requests_plan_and_cache() {
    let engine = PlanEngine::new();
    let request = PlanRequest::zoo("resnet18").levels(4).batch(64);

    let first = engine.plan(&request).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(first.network, "ResNet-18");
    assert_eq!(first.accelerators, 16);
    assert_eq!(first.plan.num_layers(), 21);
    assert!(first.total_comm_elems > 0.0);
    assert!(first.simulation.is_none());

    let second = engine.plan(&request).unwrap();
    assert!(second.cache_hit, "identical DAG request must hit the cache");
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(first.plan, second.plan);

    // Forgiving spelling resolves to the same cached workload.
    let spelled = engine
        .plan(&PlanRequest::zoo("ResNet-18").levels(4).batch(64))
        .unwrap();
    assert!(spelled.cache_hit);
    assert_eq!(spelled.fingerprint, first.fingerprint);
}

#[test]
fn dag_strategies_are_ordered_sensibly() {
    let engine = PlanEngine::new();
    let base = PlanRequest::zoo("inception-mini").levels(4).batch(128);
    let hybrid = engine.plan(&base.clone()).unwrap();
    let dp = engine.plan(&base.clone().strategy(Strategy::Dp)).unwrap();
    let mp = engine.plan(&base.clone().strategy(Strategy::Mp)).unwrap();
    // Hybrid optimizes the intra-segment traffic the baselines fix, so it
    // must not lose to both extremes at once.
    assert!(hybrid.total_comm_elems <= dp.total_comm_elems.max(mp.total_comm_elems));
    // Each strategy is its own cache entry.
    let fingerprints = [&hybrid, &dp, &mp]
        .iter()
        .map(|r| r.fingerprint.clone())
        .collect::<std::collections::HashSet<_>>();
    assert_eq!(fingerprints.len(), 3);
}

#[test]
fn inline_graph_request_round_trips_and_plans() {
    let request = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
        .batch(32)
        .levels(3);
    let text = serde_json::to_string(&request).unwrap();
    let back: PlanRequest = serde_json::from_str(&text).unwrap();
    assert_eq!(back, request);

    let engine = PlanEngine::new();
    let response = engine.plan(&request).unwrap();
    assert_eq!(response.network, "tiny-res");
    assert_eq!(response.plan.num_layers(), 3);
    assert_eq!(response.levels, 3);
}

#[test]
fn chain_shaped_dag_linearizes_into_the_chain_pipeline() {
    // A DAG spec with no joins and a CustomNetwork with identical layers
    // must resolve to the *same* workload — same fingerprint, shared
    // cache entry.
    let engine = PlanEngine::new();
    let custom = engine
        .plan(&PlanRequest::custom(CustomNetwork {
            name: Some("chain".to_owned()),
            input: InputSpec {
                channels: 8,
                height: 16,
                width: 16,
            },
            layers: vec![
                LayerSpec {
                    name: Some("stem".to_owned()),
                    kind: "conv".to_owned(),
                    out: 8,
                    kernel: Some(3),
                    stride: None,
                    padding: None,
                    pool: None,
                },
                LayerSpec {
                    name: Some("fc".to_owned()),
                    kind: "fc".to_owned(),
                    out: 10,
                    kernel: None,
                    stride: None,
                    padding: None,
                    pool: None,
                },
            ],
        }))
        .unwrap();
    let dag = engine
        .plan(&PlanRequest::graph(GraphSpec {
            name: Some("chain-as-dag".to_owned()),
            input: InputSpec {
                channels: 8,
                height: 16,
                width: 16,
            },
            nodes: vec![
                conv_node("stem", 8, 3, &["input"]),
                fc_node("fc", 10, &["stem"]),
            ],
        }))
        .unwrap();
    assert_eq!(dag.fingerprint, custom.fingerprint);
    assert!(
        dag.cache_hit,
        "a branch-free DAG must share the chain's entry"
    );
    assert_eq!(dag.total_comm_elems, custom.total_comm_elems);
}

#[test]
fn chain_shaped_dag_supports_every_chain_strategy() {
    // A branch-free DAG spec is its chain's one-segment graph, so every
    // chain strategy, exhaustive and explicit included, plans it.
    let engine = PlanEngine::new();
    let spec = GraphSpec {
        name: None,
        input: InputSpec {
            channels: 1,
            height: 1,
            width: 64,
        },
        nodes: vec![fc_node("fc1", 32, &["input"]), fc_node("fc2", 8, &["fc1"])],
    };
    let exhaustive = engine
        .plan(
            &PlanRequest::graph(spec.clone())
                .levels(2)
                .strategy(Strategy::Exhaustive),
        )
        .unwrap();
    let hypar = engine.plan(&PlanRequest::graph(spec).levels(2)).unwrap();
    assert!(exhaustive.total_comm_elems <= hypar.total_comm_elems);
}

#[test]
fn branchy_exhaustive_plans_through_the_engine_and_caches() {
    // tiny-res has 3 weighted layers: 3 x 4 = 12 slots, 4096 joint plans.
    let engine = PlanEngine::new();
    let base = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
        .batch(32)
        .levels(4);

    let joint = engine
        .plan(&base.clone().strategy(Strategy::Exhaustive))
        .unwrap();
    assert!(!joint.cache_hit);
    assert_eq!(joint.network, "tiny-res");
    assert_eq!(joint.plan.num_layers(), 3);
    assert_eq!(joint.plan.num_levels(), 4);
    assert!(joint.total_comm_elems > 0.0);

    // The joint optimum lower-bounds every other strategy's plan.
    let hybrid = engine.plan(&base.clone()).unwrap();
    let dp = engine.plan(&base.clone().strategy(Strategy::Dp)).unwrap();
    for other in [&hybrid, &dp] {
        assert!(
            joint.total_comm_elems <= other.total_comm_elems * (1.0 + 1e-12),
            "joint {} vs {} {}",
            joint.total_comm_elems,
            other.strategy.name(),
            other.total_comm_elems
        );
        assert_ne!(joint.fingerprint, other.fingerprint);
    }

    // Fingerprinted, cached, and simulatable like every other DAG plan.
    let again = engine
        .plan(&base.clone().strategy(Strategy::Exhaustive))
        .unwrap();
    assert!(again.cache_hit, "identical exhaustive request must hit");
    assert_eq!(again.fingerprint, joint.fingerprint);
    let simulated = engine
        .plan(&base.strategy(Strategy::Exhaustive).simulate(true))
        .unwrap();
    let sim = simulated
        .simulation
        .expect("simulate attaches a StepReport");
    assert!(sim.step_time.value() > 0.0);
}

#[test]
fn branchy_explicit_assignments_plan_through_the_engine() {
    let engine = PlanEngine::new();
    // Three layers (stem, body, fc in canonical order), two levels:
    // all-dp at the top, fc flipped to mp below.
    let request = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
        .batch(32)
        .levels(2)
        .assignments(vec!["000".to_owned(), "001".to_owned()]);
    let response = engine.plan(&request).unwrap();
    assert_eq!(response.strategy, Strategy::Explicit);
    assert_eq!(response.plan.level_bits(0), "000");
    assert_eq!(response.plan.level_bits(1), "001");

    // A different assignment is a different workload (own cache entry).
    let other = engine
        .plan(
            &PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
                .batch(32)
                .levels(2)
                .assignments(vec!["000".to_owned(), "000".to_owned()]),
        )
        .unwrap();
    assert!(!other.cache_hit);
    assert_ne!(other.fingerprint, response.fingerprint);

    // The exhaustive joint optimum can only be at least as good as any
    // explicit point of the same space.
    let joint = engine
        .plan(
            &PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
                .batch(32)
                .levels(2)
                .strategy(Strategy::Exhaustive),
        )
        .unwrap();
    assert!(joint.total_comm_elems <= response.total_comm_elems * (1.0 + 1e-12));
}

#[test]
fn branchy_strategy_misuse_is_a_typed_error() {
    let engine = PlanEngine::new();

    // ResNet-18 has 21 layers: 21 x 2 = 42 slots, over the 24-slot bound.
    let err = engine
        .plan(
            &PlanRequest::zoo("resnet18")
                .levels(2)
                .batch(16)
                .strategy(Strategy::Exhaustive),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidRequest(_)), "{err}");
    assert!(err.to_string().contains("42 slots"), "{err}");

    // Explicit without assignments (and with malformed ones) stays typed.
    let err = engine
        .plan(
            &PlanRequest::zoo("resnet18")
                .levels(2)
                .batch(16)
                .strategy(Strategy::Explicit),
        )
        .unwrap_err();
    assert!(err.to_string().contains("assignments"), "{err}");
    let err = engine
        .plan(
            &PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
                .batch(32)
                .levels(2)
                .assignments(vec!["00".to_owned(), "00".to_owned()]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("3 layers"), "{err}");
}

#[test]
fn no_dag_request_reaches_a_panic_whatever_the_strategy_or_shape() {
    // The whole DAG planning path — resolution, per-segment planning,
    // stitching, refinement, joint search, explicit evaluation,
    // simulation — must answer every request with Ok or a typed error.
    // Any panic unwinds this test and fails it.
    let engine = PlanEngine::new();
    for strategy in Strategy::ALL {
        for levels in [0usize, 1, 4, 17] {
            for batch in [0u64, 1, 32] {
                for simulate in [false, true] {
                    let mut request = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
                        .batch(batch)
                        .levels(levels)
                        .strategy(strategy)
                        .simulate(simulate);
                    if strategy == Strategy::Explicit {
                        // Deliberately wrong arity half the time.
                        request.assignments = Some(vec!["000".to_owned(); levels.max(1) - 1]);
                    }
                    let _ = engine.plan(&request);
                    let _ = engine.plan(&request.clone().refine(true));
                }
            }
        }
    }
}

#[test]
fn branchy_requests_simulate_end_to_end() {
    let engine = PlanEngine::new();
    let request = PlanRequest::zoo("resnet18")
        .levels(4)
        .batch(32)
        .simulate(true);

    let first = engine.plan(&request).unwrap();
    assert!(!first.cache_hit);
    let sim = first
        .simulation
        .as_ref()
        .expect("simulate: true attaches a StepReport");
    assert!(sim.step_time.value() > 0.0);
    assert_eq!(sim.num_accelerators, 16);
    // The simulator's traffic accounting matches the stitched plan's
    // analytic total.
    assert!(
        (sim.comm_bytes.value() - first.total_comm_bytes).abs()
            <= 1e-6 * first.total_comm_bytes.max(1.0),
        "sim {} vs model {}",
        sim.comm_bytes,
        first.total_comm_bytes
    );

    // The StepReport rides the DAG fingerprint-cached path.
    let second = engine.plan(&request).unwrap();
    assert!(
        second.cache_hit,
        "identical simulate request must hit the cache"
    );
    assert_eq!(second.simulation, first.simulation);

    // Simulation is part of the workload fingerprint: the analytic-only
    // request is its own entry.
    let analytic = engine.plan(&request.clone().simulate(false)).unwrap();
    assert!(!analytic.cache_hit);
    assert_ne!(analytic.fingerprint, first.fingerprint);
    assert!(analytic.simulation.is_none());
}

#[test]
fn branchy_simulation_beats_its_data_parallel_baseline() {
    // The Figures 6-8-style check the ROADMAP asked for: on the residual
    // network the hybrid plan's simulated step is no slower than dp's.
    let engine = PlanEngine::new();
    let base = PlanRequest::zoo("resnet18")
        .levels(4)
        .batch(64)
        .simulate(true);
    let hybrid = engine.plan(&base.clone()).unwrap();
    let dp = engine.plan(&base.strategy(Strategy::Dp)).unwrap();
    let hybrid_sim = hybrid.simulation.expect("simulated");
    let dp_sim = dp.simulation.expect("simulated");
    assert!(
        hybrid_sim.performance_gain_over(&dp_sim) >= 1.0,
        "hybrid {} vs dp {}",
        hybrid_sim.step_time,
        dp_sim.step_time
    );
}

#[test]
fn inline_branchy_graph_simulates() {
    let engine = PlanEngine::new();
    let request = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
        .batch(32)
        .levels(3)
        .simulate(true);
    let response = engine.plan(&request).unwrap();
    let sim = response.simulation.expect("simulated");
    assert_eq!(sim.num_accelerators, 8);
    assert!(sim.step_time.value() > 0.0);
    assert!(sim.energy.value() > 0.0);
}

#[test]
fn refined_strategy_plans_branchy_dags_and_never_loses_to_hypar() {
    let engine = PlanEngine::new();
    let base = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
        .batch(32)
        .levels(4);
    let stitched = engine.plan(&base.clone()).unwrap();
    let refined = engine
        .plan(&base.clone().strategy(Strategy::Refined))
        .unwrap();
    assert_eq!(refined.strategy, Strategy::Refined);
    assert!(
        refined.total_comm_elems <= stitched.total_comm_elems,
        "refined {} vs stitched {}",
        refined.total_comm_elems,
        stitched.total_comm_elems
    );
    // On this 12-slot net the joint optimum is certifiable: refinement
    // must reach it.
    let joint = engine
        .plan(&base.clone().strategy(Strategy::Exhaustive))
        .unwrap();
    assert!(
        (refined.total_comm_elems - joint.total_comm_elems).abs()
            <= 1e-9 * joint.total_comm_elems.max(1.0),
        "refined {} vs joint {}",
        refined.total_comm_elems,
        joint.total_comm_elems
    );

    // Its own cache entry, distinct from hypar's.
    let again = engine.plan(&base.strategy(Strategy::Refined)).unwrap();
    assert!(again.cache_hit);
    assert_ne!(again.fingerprint, stitched.fingerprint);
}

#[test]
fn refine_modifier_resolves_to_the_refined_strategy() {
    let engine = PlanEngine::new();
    let base = PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3]))
        .batch(32)
        .levels(3);
    let refined = engine
        .plan(&base.clone().strategy(Strategy::Refined))
        .unwrap();
    // `hypar` + `refine: true` is the same workload — and the same cache
    // entry (the second request must hit).
    let modifier = engine.plan(&base.clone().refine(true)).unwrap();
    assert_eq!(modifier.strategy, Strategy::Refined);
    assert_eq!(modifier.fingerprint, refined.fingerprint);
    assert!(modifier.cache_hit);
    assert_eq!(modifier.plan, refined.plan);

    // The modifier on any other strategy is a typed rejection.
    let err = engine
        .plan(&base.strategy(Strategy::Dp).refine(true))
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidRequest(_)), "{err}");
    assert!(err.to_string().contains("refine"), "{err}");
}

#[test]
fn refined_strategy_simulates_and_scales_past_the_exhaustive_bound() {
    let engine = PlanEngine::new();
    // ResNet-18 at H=4 is 84 slots: exhaustive is a typed rejection...
    let base = PlanRequest::zoo("resnet18").levels(4).batch(64);
    let err = engine
        .plan(&base.clone().strategy(Strategy::Exhaustive))
        .unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");
    // ...while refined plans and simulates end to end.
    let refined = engine
        .plan(&base.clone().strategy(Strategy::Refined).simulate(true))
        .unwrap();
    let stitched = engine.plan(&base.simulate(true)).unwrap();
    assert!(refined.total_comm_elems <= stitched.total_comm_elems);
    let sim = refined.simulation.expect("simulated");
    assert_eq!(sim.num_accelerators, 16);
    assert!(sim.step_time.value() > 0.0);
}

#[test]
fn refined_strategy_works_on_chains_too() {
    // A chain-shaped request (zoo chain and branch-free DAG alike) refines
    // as its one-segment graph: never worse than Algorithm 2's plan.
    let engine = PlanEngine::new();
    let base = PlanRequest::zoo("lenet_c").levels(4);
    let hypar = engine.plan(&base.clone()).unwrap();
    let refined = engine
        .plan(&base.clone().strategy(Strategy::Refined))
        .unwrap();
    assert!(refined.total_comm_elems <= hypar.total_comm_elems);
    // Lenet-c at H=4 is 16 slots: certify against the joint optimum.
    let joint = engine.plan(&base.strategy(Strategy::Exhaustive)).unwrap();
    assert!(
        (refined.total_comm_elems - joint.total_comm_elems).abs()
            <= 1e-9 * joint.total_comm_elems.max(1.0),
        "refined {} vs joint {}",
        refined.total_comm_elems,
        joint.total_comm_elems
    );
}

#[test]
fn unknown_network_error_lists_both_zoos() {
    let engine = PlanEngine::new();
    let err = engine
        .plan(&PlanRequest::zoo("resnet-51"))
        .unwrap_err()
        .to_string();
    assert!(err.contains("VGG-E"), "{err}");
    assert!(err.contains("ResNet-18"), "{err}");
    assert!(err.contains("Inception-Mini"), "{err}");
}

#[test]
fn malformed_graph_specs_surface_typed_errors() {
    let engine = PlanEngine::new();
    // Dangling edge.
    let mut spec = tiny_res_spec(&[0, 1, 2, 3]);
    spec.nodes[1].inputs = Some(vec!["ghost".to_owned()]);
    let err = engine.plan(&PlanRequest::graph(spec)).unwrap_err();
    assert!(matches!(err, EngineError::InvalidNetwork(_)), "{err}");
    assert!(err.to_string().contains("ghost"));

    // Cycle.
    let mut spec = tiny_res_spec(&[0, 1, 2, 3]);
    spec.nodes[0].inputs = Some(vec!["fc".to_owned()]);
    let err = engine.plan(&PlanRequest::graph(spec)).unwrap_err();
    assert!(err.to_string().contains("cycle"), "{err}");

    // Join shape mismatch.
    let mut spec = tiny_res_spec(&[0, 1, 2, 3]);
    spec.nodes[1].out = Some(16);
    let err = engine.plan(&PlanRequest::graph(spec)).unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");

    // Layer-only fields on a join are rejected, not silently dropped.
    let mut spec = tiny_res_spec(&[0, 1, 2, 3]);
    spec.nodes[2].pool = Some(2);
    let err = engine.plan(&PlanRequest::graph(spec)).unwrap_err();
    assert!(err.to_string().contains("do not apply"), "{err}");

    // Conv-only fields on an fc node are rejected too.
    let mut spec = tiny_res_spec(&[0, 1, 2, 3]);
    spec.nodes[3].kernel = Some(3);
    let err = engine.plan(&PlanRequest::graph(spec)).unwrap_err();
    assert!(err.to_string().contains("do not apply"), "{err}");

    // Zero input dimensions are a typed error, not a panic — on both
    // inline paths.
    let mut spec = tiny_res_spec(&[0, 1, 2, 3]);
    spec.input.channels = 0;
    let err = engine.plan(&PlanRequest::graph(spec)).unwrap_err();
    assert!(err.to_string().contains("must be positive"), "{err}");
    let err = engine
        .plan(&PlanRequest::custom(CustomNetwork {
            name: None,
            input: InputSpec {
                channels: 0,
                height: 16,
                width: 16,
            },
            layers: vec![LayerSpec {
                name: None,
                kind: "fc".to_owned(),
                out: 10,
                kernel: None,
                stride: None,
                padding: None,
                pool: None,
            }],
        }))
        .unwrap_err();
    assert!(err.to_string().contains("must be positive"), "{err}");
}

proptest! {
    /// DAG fingerprints are stable across node-insertion order: any
    /// listing order of the same fully-wired nodes resolves to the same
    /// cache entry.
    #[test]
    fn dag_fingerprints_stable_across_insertion_order(
        keys in proptest::collection::vec(any::<u64>(), 4..5)
    ) {
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by_key(|&i| keys[i]);

        let engine = PlanEngine::new();
        let canonical = engine
            .plan(&PlanRequest::graph(tiny_res_spec(&[0, 1, 2, 3])).batch(32))
            .unwrap();
        let permuted = engine
            .plan(&PlanRequest::graph(tiny_res_spec(&order)).batch(32))
            .unwrap();
        prop_assert_eq!(&canonical.fingerprint, &permuted.fingerprint);
        prop_assert!(permuted.cache_hit, "order {:?} must share the entry", order);
        prop_assert_eq!(&canonical.plan, &permuted.plan);
    }
}
