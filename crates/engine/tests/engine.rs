//! Integration tests of the planning engine: cache semantics, fingerprint
//! stability, batch determinism, and wire-format round-trips.

#![expect(
    clippy::float_cmp,
    clippy::disallowed_types,
    reason = "assertions compare exact values; hash sets only count distinct items"
)]

use hypar_engine::{
    CustomNetwork, EngineError, InputSpec, LayerSpec, PlanEngine, PlanRequest, PlanResponse,
    Strategy,
};
use hypar_sim::Topology;

fn conv_layer() -> LayerSpec {
    LayerSpec {
        name: None,
        kind: "conv".to_owned(),
        out: 4,
        kernel: Some(3),
        stride: None,
        padding: None,
        pool: None,
    }
}

fn fc_layer(out: u64) -> LayerSpec {
    LayerSpec {
        name: None,
        kind: "fc".to_owned(),
        out,
        kernel: None,
        stride: None,
        padding: None,
        pool: None,
    }
}

/// An inline spec identical (in tensor sizes) to the zoo's `SFC`:
/// `784-8192-8192-8192-10`.
fn sfc_as_custom() -> CustomNetwork {
    CustomNetwork {
        name: Some("my-sfc".to_owned()),
        input: InputSpec {
            channels: 1,
            height: 1,
            width: 784,
        },
        layers: vec![fc_layer(8192), fc_layer(8192), fc_layer(8192), fc_layer(10)],
    }
}

#[test]
fn identical_requests_hit_the_cache() {
    let engine = PlanEngine::new();
    let request = PlanRequest::zoo("Lenet-c").levels(4).batch(256);

    let first = engine.plan(&request).unwrap();
    assert!(!first.cache_hit, "first query must compute");

    let second = engine.plan(&request).unwrap();
    assert!(second.cache_hit, "repeated query must be served from cache");
    assert_eq!(first.plan, second.plan);
    assert_eq!(first.fingerprint, second.fingerprint);

    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn different_workloads_miss_the_cache() {
    let engine = PlanEngine::new();
    let base = PlanRequest::zoo("Lenet-c");
    let variants = [
        base.clone(),
        base.clone().batch(128),
        base.clone().levels(2),
        base.clone().strategy(Strategy::Dp),
        base.clone().topology(Topology::Torus),
        base.clone().simulate(true),
    ];
    let mut fingerprints = std::collections::HashSet::new();
    for request in &variants {
        let response = engine.plan(request).unwrap();
        assert!(
            !response.cache_hit,
            "{request:?} must be a distinct workload"
        );
        assert!(fingerprints.insert(response.fingerprint.clone()));
    }
    assert_eq!(engine.cache_stats().misses, variants.len() as u64);
    assert_eq!(engine.cache_stats().hits, 0);
}

#[test]
fn equivalent_requests_share_a_fingerprint() {
    let engine = PlanEngine::new();

    // Forgiving zoo spellings resolve to the same workload...
    let canonical = engine.plan(&PlanRequest::zoo("VGG-A")).unwrap();
    let snake = engine.plan(&PlanRequest::zoo("vgg_a")).unwrap();
    assert_eq!(canonical.fingerprint, snake.fingerprint);
    assert!(snake.cache_hit, "equivalent spelling must be a cache hit");

    // ...and so does an inline custom network with identical tensor sizes
    // (fingerprints hash shapes, not names).
    let zoo_sfc = engine.plan(&PlanRequest::zoo("SFC")).unwrap();
    let custom_sfc = engine.plan(&PlanRequest::custom(sfc_as_custom())).unwrap();
    assert_eq!(zoo_sfc.fingerprint, custom_sfc.fingerprint);
    assert!(custom_sfc.cache_hit);
    // The cached answer is the zoo one: same plan, same totals.
    assert_eq!(zoo_sfc.total_comm_elems, custom_sfc.total_comm_elems);
}

#[test]
fn plan_many_matches_serial_planning() {
    let mut requests = Vec::new();
    for name in ["SFC", "SCONV", "Lenet-c", "Cifar-c", "AlexNet", "VGG-A"] {
        for strategy in [Strategy::Hypar, Strategy::Dp, Strategy::Owt] {
            requests.push(PlanRequest::zoo(name).levels(4).strategy(strategy));
        }
    }

    let parallel_engine = PlanEngine::new();
    let parallel: Vec<PlanResponse> = parallel_engine
        .plan_many(&requests)
        .into_iter()
        .map(|r| r.expect("zoo requests plan"))
        .collect();

    let serial_engine = PlanEngine::new();
    let serial: Vec<PlanResponse> = requests
        .iter()
        .map(|r| serial_engine.plan(r).expect("zoo requests plan"))
        .collect();

    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.plan, s.plan);
        assert_eq!(p.fingerprint, s.fingerprint);
        assert_eq!(p.total_comm_elems, s.total_comm_elems);
        assert_eq!(p.network, s.network);
    }
}

#[test]
fn plan_many_shares_the_cache_across_the_batch() {
    let engine = PlanEngine::new();
    let request = PlanRequest::zoo("Cifar-c").levels(3);
    engine.plan(&request).unwrap();
    let repeats: Vec<PlanRequest> = (0..8).map(|_| request.clone()).collect();
    for response in engine.plan_many(&repeats) {
        assert!(response.unwrap().cache_hit);
    }
    assert_eq!(engine.cache_stats().hits, 8);
}

#[test]
fn request_json_round_trips() {
    let request = PlanRequest::zoo("vgg_a")
        .batch(64)
        .levels(3)
        .strategy(Strategy::Owt)
        .topology(Topology::Torus)
        .simulate(true);
    let text = serde_json::to_string(&request).unwrap();
    let back: PlanRequest = serde_json::from_str(&text).unwrap();
    assert_eq!(back, request);

    let custom = PlanRequest::custom(sfc_as_custom()).assignments(vec!["0101".to_owned(); 4]);
    let text = serde_json::to_string(&custom).unwrap();
    let back: PlanRequest = serde_json::from_str(&text).unwrap();
    assert_eq!(back, custom);
}

#[test]
fn request_fields_default_like_the_paper() {
    let request: PlanRequest = serde_json::from_str(r#"{"network": "lenet_c"}"#).unwrap();
    assert_eq!(request.batch, 256);
    assert_eq!(request.levels, 4);
    assert_eq!(request.strategy, Strategy::Hypar);
    assert_eq!(request.topology, Topology::HTree);
    assert!(!request.simulate);
}

#[test]
fn response_json_round_trips_with_simulation() {
    let engine = PlanEngine::new();
    let response = engine
        .plan(&PlanRequest::zoo("Lenet-c").levels(2).simulate(true))
        .unwrap();
    assert!(response.simulation.is_some());
    let text = serde_json::to_string(&response).unwrap();
    let back: PlanResponse = serde_json::from_str(&text).unwrap();
    assert_eq!(back, response);
}

#[test]
fn explicit_assignments_reproduce_baselines() {
    let engine = PlanEngine::new();
    // Lenet-c has four weighted layers; all-zeros is Data Parallelism.
    let explicit = engine
        .plan(
            &PlanRequest::zoo("Lenet-c")
                .levels(2)
                .assignments(vec!["0000".to_owned(); 2]),
        )
        .unwrap();
    let dp = engine
        .plan(&PlanRequest::zoo("Lenet-c").levels(2).strategy(Strategy::Dp))
        .unwrap();
    assert_eq!(explicit.total_comm_elems, dp.total_comm_elems);
    assert_eq!(explicit.plan.levels(), dp.plan.levels());
}

#[test]
fn exhaustive_meets_or_beats_the_greedy_search() {
    let engine = PlanEngine::new();
    let greedy = engine.plan(&PlanRequest::zoo("Lenet-c").levels(3)).unwrap();
    let joint = engine
        .plan(
            &PlanRequest::zoo("Lenet-c")
                .levels(3)
                .strategy(Strategy::Exhaustive),
        )
        .unwrap();
    assert!(joint.total_comm_elems <= greedy.total_comm_elems + 1e-9);
}

#[test]
fn simulation_is_attached_and_consistent() {
    let engine = PlanEngine::new();
    let response = engine
        .plan(&PlanRequest::zoo("SCONV").levels(4).simulate(true))
        .unwrap();
    let report = response.simulation.expect("simulation requested");
    assert!(report.step_time.value() > 0.0);
    assert_eq!(report.num_accelerators, 16);
    let model_bytes = response.total_comm_bytes;
    assert!((report.comm_bytes.value() - model_bytes).abs() <= 1e-6 * model_bytes.max(1.0));
}

#[test]
fn errors_are_reported_not_panicked() {
    let engine = PlanEngine::new();
    assert!(matches!(
        engine.plan(&PlanRequest::zoo("ResNet-50")),
        Err(EngineError::UnknownNetwork(_))
    ));
    assert!(matches!(
        engine.plan(&PlanRequest::zoo("SFC").strategy(Strategy::Explicit)),
        Err(EngineError::InvalidRequest(_))
    ));
    assert!(matches!(
        engine.plan(
            &PlanRequest::zoo("SFC")
                .levels(2)
                .assignments(vec!["01".to_owned(); 2])
        ),
        Err(EngineError::InvalidRequest(_)) // SFC has 4 layers, not 2
    ));
    assert!(matches!(
        engine.plan(&PlanRequest::zoo("SFC").levels(17)),
        Err(EngineError::InvalidRequest(_)) // beyond the 2^16-accelerator cap
    ));
    let zero_kernel = CustomNetwork {
        name: None,
        input: InputSpec {
            channels: 1,
            height: 8,
            width: 8,
        },
        layers: vec![LayerSpec {
            kernel: Some(0),
            ..conv_layer()
        }],
    };
    assert!(matches!(
        engine.plan(&PlanRequest::custom(zero_kernel)),
        Err(EngineError::InvalidNetwork(_)) // kernel = 0 must not underflow
    ));
    assert!(matches!(
        engine.plan(&PlanRequest::zoo("VGG-E").strategy(Strategy::Exhaustive)),
        Err(EngineError::InvalidRequest(_)) // 19 layers x 4 levels >> 24 slots
    ));
    // Errors never poison the cache.
    assert_eq!(engine.cache_stats().entries, 0);
}

#[test]
fn thirty_layer_exhaustive_request_is_rejected_not_panicked() {
    // Regression: the brute-force module used to enforce its feasibility
    // bound with `assert!`, so a crafted service request could unwind a
    // worker thread.  A 30-layer exhaustive request must now come back as
    // a typed error at any hierarchy depth.
    let engine = PlanEngine::new();
    let wide = CustomNetwork {
        name: Some("wide".to_owned()),
        input: InputSpec {
            channels: 1,
            height: 1,
            width: 64,
        },
        layers: (0..30).map(|_| fc_layer(64)).collect(),
    };
    for levels in [1usize, 4, 16] {
        let err = engine
            .plan(
                &PlanRequest::custom(wide.clone())
                    .levels(levels)
                    .strategy(Strategy::Exhaustive),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidRequest(_)),
            "levels {levels}: {err}"
        );
        assert!(err.to_string().contains("slots"), "{err}");
    }
    // The degenerate 0-level request is feasible (one empty plan) and must
    // answer, not panic.
    let trivial = engine
        .plan(
            &PlanRequest::custom(wide)
                .levels(0)
                .strategy(Strategy::Exhaustive),
        )
        .unwrap();
    assert_eq!(trivial.accelerators, 1);
    assert_eq!(trivial.total_comm_elems, 0.0);
}

/// Past 2^53 an f64 no longer holds every integer, so a level-by-level
/// f64 sum rounds at each addition.  VGG-A at batch 2^28 (every count
/// below 2^53) with layers 5.. mp at 14 levels totals about 5.4e18: the
/// reply must carry the exact integer total rounded once, which here
/// differs from the level-by-level f64 sum.
#[test]
fn totals_past_two_to_the_53_are_the_exact_total_rounded_once() {
    use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism::Data};

    let levels = 14;
    let request = PlanRequest::zoo("vgg_a")
        .batch(1 << 28)
        .levels(levels)
        .strategy(Strategy::Explicit)
        .assignments(vec!["00000111111".to_owned(); levels]);
    let reply = PlanEngine::new().plan(&request).unwrap();

    let net = NetworkCommTensors::from_network(&hypar_models::zoo::vgg_a(), 1 << 28).unwrap();
    let plan = reply.plan.levels().to_vec();
    let exact = CostTerms::chain(&net).total(&plan, JunctionScaling::Consumer);
    assert!(exact >= 1 << 53);
    assert_eq!(reply.total_comm_elems, exact as f64);

    // The level-by-level f64 definition: at level h, 2^h pairs each pay
    // Table 1's amounts and then Table 2's, every tensor scaled by the
    // fractions the levels above committed (a dp level halves a layer's
    // batch, an mp level its input features; junctions take the
    // consumer's scope).
    let (mut batch, mut features) = (vec![1.0; net.len()], vec![1.0; net.len()]);
    let mut level_by_level = 0.0;
    for (h, level) in plan.iter().enumerate() {
        let layers = net.layers();
        let intra: f64 = (0..net.len())
            .map(|l| match level[l] {
                Data => 2.0 * layers[l].weight_elems * features[l],
                _ => 2.0 * layers[l].output_elems * batch[l],
            })
            .sum();
        let inter: f64 = (0..net.len() - 1)
            .filter(|&l| level[l] != Data || level[l + 1] != Data)
            .map(|l| layers[l].junction_elems * (batch[l + 1] * features[l + 1]))
            .sum();
        level_by_level += f64::from(1u32 << h) * (intra + inter);
        for (l, &choice) in level.iter().enumerate() {
            if choice == Data {
                batch[l] /= 2.0;
            } else {
                features[l] /= 2.0;
            }
        }
    }
    assert_ne!(level_by_level, reply.total_comm_elems);
}
