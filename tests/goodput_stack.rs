//! Integration tests of the goodput stack: profiles → agent → models →
//! scheduler, without the simulation engine.

use pollux::agent::PolluxAgent;
use pollux::cluster::{ClusterSpec, JobId};
use pollux::models::{GradientStats, PlacementShape};
use pollux::sched::speedup::pure_speedup;
use pollux::sched::{GaConfig, GeneticAlgorithm, SchedJob, SpeedupTable};
use pollux::workload::ModelKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trains an agent on noiseless observations of a model profile and
/// returns it.
fn learned_agent(kind: ModelKind, phi: f64) -> PolluxAgent {
    let profile = kind.profile();
    let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();
    for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (4, 2), (8, 2), (16, 4)] {
        let shape = PlacementShape::new(g, n).unwrap();
        for mult in [1u64, 2, 4, 8] {
            let m = profile.m0 * mult;
            if profile
                .limits
                .range(shape)
                .is_some_and(|(lo, hi)| m >= lo && m <= hi)
            {
                agent.observe_iteration(shape, m, profile.params.t_iter(shape, m));
            }
        }
    }
    assert!(agent.refit(), "fit must succeed with observations");
    agent.observe_gradient_stats(GradientStats::new(phi / profile.m0 as f64, 1.0).unwrap());
    agent
}

#[test]
fn agent_report_predicts_profile_throughput() {
    for kind in [ModelKind::ResNet18Cifar10, ModelKind::ResNet50ImageNet] {
        let profile = kind.profile();
        let agent = learned_agent(kind, 1000.0);
        let report = agent.report().unwrap();
        for (g, n, mult) in [(2u32, 1u32, 2u64), (8, 2, 4), (16, 4, 8)] {
            let shape = PlacementShape::new(g, n).unwrap();
            let m = profile.m0 * mult;
            if profile
                .limits
                .range(shape)
                .is_none_or(|(lo, hi)| m < lo || m > hi)
            {
                continue;
            }
            let predicted = report.model.throughput.throughput(shape, m);
            let truth = profile.params.throughput(shape, m);
            let rel = (predicted - truth).abs() / truth;
            assert!(
                rel < 0.2,
                "{}: ({g},{n},{m}) predicted {predicted:.0} vs true {truth:.0}",
                profile.name
            );
        }
    }
}

#[test]
fn tuned_batch_grows_through_training() {
    // As training progresses (phi grows per the profile), the agent's
    // optimal batch size for a fixed allocation grows — the mechanism
    // behind Fig 1b and the auto-scaling behavior.
    let profile = ModelKind::ResNet50ImageNet.profile();
    let shape = PlacementShape::new(16, 4).unwrap();
    let mut batches = Vec::new();
    for progress in [0.05, 0.5, 0.95] {
        let agent = learned_agent(ModelKind::ResNet50ImageNet, profile.phi_at(progress));
        let d = agent.tune(shape).unwrap();
        batches.push(d.batch_size);
    }
    assert!(
        batches[0] < batches[1] && batches[1] <= batches[2],
        "batches should grow: {batches:?}"
    );
}

#[test]
fn scheduler_prefers_jobs_that_scale() {
    // Two learned jobs competing for one 8-GPU node: DeepSpeech2 has a
    // small noise scale and heavy sync (scales poorly); ResNet18 with
    // high phi scales well. The GA should give ResNet18 more GPUs.
    let resnet = learned_agent(ModelKind::ResNet18Cifar10, 4000.0);
    let speech = learned_agent(ModelKind::DeepSpeech2Arctic, 60.0);
    let jobs: Vec<SchedJob> = [(0u32, &resnet), (1u32, &speech)]
        .iter()
        .map(|(id, agent)| {
            let report = agent.report().unwrap();
            SchedJob {
                id: JobId(*id),
                model: report.model,
                min_gpus: report.min_gpus,
                gpu_cap: 64,
                weight: 1.0,
                current_placement: vec![],
            }
        })
        .collect();
    let spec = ClusterSpec::homogeneous(2, 4).unwrap();
    let ga = GeneticAlgorithm::new(GaConfig {
        population: 24,
        generations: 20,
        ..Default::default()
    });
    let table = SpeedupTable::build(&jobs, &spec, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let (out, _) = ga.evolve(&jobs, &spec, vec![], &table, &mut rng);
    assert!(
        out.best.gpus_of(0) > out.best.gpus_of(1),
        "resnet {} vs speech {}\n{}",
        out.best.gpus_of(0),
        out.best.gpus_of(1),
        out.best
    );
    assert!(out.best.gpus_of(1) >= 1, "speech job must still run");
}

#[test]
fn speedup_canonicalization_matches_direct_model() {
    // The scheduler's (K, min(N,2)) canonicalization must agree with
    // the uncanonicalized model evaluation.
    let agent = learned_agent(ModelKind::ResNet18Cifar10, 2000.0);
    let report = agent.report().unwrap();
    let job = SchedJob {
        id: JobId(0),
        model: report.model,
        min_gpus: 1,
        gpu_cap: 64,
        weight: 1.0,
        current_placement: vec![],
    };
    let spec = ClusterSpec::homogeneous(16, 4).unwrap();
    let table = SpeedupTable::build(std::slice::from_ref(&job), &spec, 1);
    for (g, n) in [(8u32, 2u32), (8, 4), (8, 8)] {
        let shape = PlacementShape::new(g, n).unwrap();
        let direct = job.model.speedup(shape);
        for canonical in [pure_speedup(&job, shape), table.speedup(0, shape)] {
            assert!(
                (canonical - direct).abs() < 1e-9,
                "({g},{n}): canonical {canonical} vs direct {direct}"
            );
        }
    }
}

#[test]
fn prior_driven_exploration_expands_the_cap() {
    // Sec 4.1: a job starts on one GPU; its scale-out cap is twice the
    // largest allocation it has ever held, so repeated grant-observe-
    // refit rounds walk the cap up geometrically, and the optimistic
    // sync priors keep the predicted speedup attractive until real
    // multi-GPU data arrives.
    let profile = ModelKind::ResNet18Cifar10.profile();
    let mut agent = PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap();

    // Round 0: single-GPU observation only.
    let s1 = PlacementShape::single();
    agent.observe_iteration(s1, profile.m0, profile.params.t_iter(s1, profile.m0));
    assert!(agent.refit());
    agent.observe_gradient_stats(GradientStats::new(20.0, 1.0).unwrap());

    let mut caps = vec![agent.report().unwrap().gpu_cap];
    let mut granted = 1u32;
    for _ in 0..4 {
        // The scheduler grants the full cap; the agent observes there.
        let cap = agent.report().unwrap().gpu_cap;
        granted = cap;
        let nodes = granted.div_ceil(4).max(1);
        let shape = PlacementShape::new(granted, nodes.min(granted)).unwrap();
        agent.observe_iteration(shape, profile.m0, profile.params.t_iter(shape, profile.m0));
        assert!(agent.refit());
        caps.push(agent.report().unwrap().gpu_cap);
    }
    // Caps walked 2 -> 4 -> 8 -> 16 -> 32.
    assert_eq!(caps, vec![2, 4, 8, 16, 32], "cap trajectory: {caps:?}");
    assert!(granted >= 16);
}
