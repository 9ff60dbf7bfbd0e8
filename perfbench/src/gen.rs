//! Seeded request streams for the three workloads.
//!
//! Every stream is a list of distinct request lines plus two index
//! sequences into it: the set-up lines and the measured lines, in send
//! order.  The same seed gives byte-identical lines; the program under
//! test only ever sees the generated lines.

use hypar_comm::NetworkCommTensors;
use hypar_models::NetworkShapes;

/// The paper's chain zoo (Table 3).
pub const CHAIN_ZOO: [&str; 10] = hypar_models::zoo::NAMES;
/// The branchy graph zoo.
pub const BRANCHY_ZOO: [&str; 2] = hypar_graph::zoo::NAMES;

/// Batch sizes of measured cold lines are drawn from `BATCH_BASE ..
/// BATCH_BASE + BATCH_SPAN`; set-up lines use batches above that range,
/// so a warm-up never shares a fingerprint with a measured line.
const BATCH_BASE: u64 = 32;
const BATCH_SPAN: u64 = 4096;
const WARMUP_BATCH: u64 = BATCH_BASE + BATCH_SPAN + 64;
/// The warm-up is the same for every seed.
const WARMUP_SEED: u64 = 0x5e70_5e70;

/// A seeded bijection of `0..BATCH_SPAN` onto batch sizes: block (or
/// cycle) `k` of one request tuple gets batch `32 + (k * mul + add) mod
/// 4096`, with `mul` odd.  Distinct `k` give distinct batches, so the
/// tuple never repeats a fingerprint, and consecutive blocks get batches
/// far apart, so a run samples the batch-dependent cost of every tuple.
#[derive(Clone, Copy, Debug)]
struct BatchPerm {
    mul: u64,
    add: u64,
}

impl BatchPerm {
    fn draw(rng: &mut Rng) -> Self {
        BatchPerm {
            mul: rng.below(BATCH_SPAN / 2) * 2 + 1,
            add: rng.below(BATCH_SPAN),
        }
    }

    fn batch(self, k: usize) -> u64 {
        BATCH_BASE + (k as u64).wrapping_mul(self.mul).wrapping_add(self.add) % BATCH_SPAN
    }
}

/// Measured lines generated per second of run time: several times the
/// rate the service reaches today, so a faster program does not run out.
const COLD_LINES_PER_S: usize = 8_000;
const SIM_LINES_PER_S: usize = 300;
const HOT_REPLAYS_PER_S: usize = 40_000;

/// Levels of the cold-plan mix, and of the simulated mix.
const COLD_LEVELS: std::ops::RangeInclusive<usize> = 2..=16;
const SIM_LEVELS: std::ops::RangeInclusive<usize> = 6..=12;

/// `exhaustive` lines stay at or under 12 `layers x levels` slots.
const EXHAUSTIVE_TUPLES: [(&str, usize); 7] = [
    ("SFC", 2),
    ("SFC", 3),
    ("SCONV", 2),
    ("SCONV", 3),
    ("Lenet-c", 2),
    ("Lenet-c", 3),
    ("Cifar-c", 2),
];

/// Strategies of the cold-plan zoo lines (`exhaustive` is listed apart).
const COLD_STRATEGIES: [&str; 5] = ["hypar", "dp", "owt", "refined", "explicit"];
/// Strategies of the simulated lines.
const SIM_STRATEGIES: [&str; 3] = ["hypar", "dp", "owt"];

/// Inline networks per cold-plan block, of each kind (`layers`, `nodes`).
const COLD_INLINE_PER_KIND: usize = 18;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct planning requests over stdin/stdout, simulate off.
    ColdPlan,
    /// Distinct `simulate: true` requests at levels 6-12 over stdin/stdout.
    SimDeep,
    /// A cached working set replayed over two TCP connections.
    HotTcp,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::ColdPlan, Workload::SimDeep, Workload::HotTcp];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPlan => "cold-plan",
            Workload::SimDeep => "sim-deep",
            Workload::HotTcp => "hot-tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A generated request stream.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Every distinct request line, each ending in `\n`.
    pub lines: Vec<String>,
    /// Indices of the set-up lines, in send order.
    pub setup: Vec<usize>,
    /// Indices of the measured lines, in send order; a run sends a prefix.
    pub measured: Vec<usize>,
    /// Indices whose replies the state digest folds, in order: the
    /// workload's distinct requests in seed order.
    pub digest: Vec<usize>,
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Builds the stream of `workload` for `seed`, with enough measured
/// lines for a run of `seconds`.
pub fn stream(workload: Workload, seed: u64, seconds: u64) -> Stream {
    let seconds = usize::try_from(seconds.max(1)).unwrap_or(usize::MAX);
    match workload {
        Workload::ColdPlan => cold_plan(seed, seconds.saturating_mul(COLD_LINES_PER_S)),
        Workload::SimDeep => sim_deep(seed, seconds.saturating_mul(SIM_LINES_PER_S)),
        Workload::HotTcp => hot_tcp(seed, seconds.saturating_mul(HOT_REPLAYS_PER_S)),
    }
}

/// Number of weighted layers of a zoo network (what `explicit`
/// assignments and the exhaustive slot count are measured in).
pub fn weighted_layers(name: &str) -> usize {
    if let Some(chain) = hypar_models::zoo::by_name(name) {
        let shapes = NetworkShapes::infer(&chain, 1).expect("zoo chains infer");
        return NetworkCommTensors::from_shapes(&shapes).len();
    }
    let dag = hypar_graph::zoo::by_name(name).expect("a zoo network");
    dag.segments(1).expect("zoo graphs segment").num_layers()
}

fn zoo_line(net: &str, batch: u64, levels: usize, strategy: &str, extra: &str) -> String {
    format!(
        "{{\"network\":\"{net}\",\"batch\":{batch},\"levels\":{levels},\
         \"strategy\":\"{strategy}\"{extra}}}\n"
    )
}

fn inline_line(network: &str, batch: u64, levels: usize, strategy: &str, extra: &str) -> String {
    format!(
        "{{\"network\":{network},\"batch\":{batch},\"levels\":{levels},\
         \"strategy\":\"{strategy}\"{extra}}}\n"
    )
}

/// `,"assignments":[...]` with random dp/mp bits for every layer and level.
fn assignments(rng: &mut Rng, layers: usize, levels: usize) -> String {
    let strings: Vec<String> = (0..levels)
        .map(|_| {
            let bits: String = (0..layers)
                .map(|_| if rng.below(2) == 0 { '0' } else { '1' })
                .collect();
            format!("\"{bits}\"")
        })
        .collect();
    format!(",\"assignments\":[{}]", strings.join(","))
}

/// An inline `layers` chain: a small conv stack with up to three pools
/// on a 3x32x32 input, then fully-connected layers.
fn inline_chain(rng: &mut Rng, name: &str) -> String {
    let mut layers = Vec::new();
    let convs = 3 + rng.below(5) as usize;
    let mut pools = 0;
    for _ in 0..convs {
        let out = rng.pick(&[16u64, 32, 64, 128]);
        let kernel = rng.pick(&[3u64, 5]);
        let pool = if pools < 3 && rng.below(2) == 0 {
            pools += 1;
            ",\"pool\":2"
        } else {
            ""
        };
        layers.push(format!(
            "{{\"kind\":\"conv\",\"out\":{out},\"kernel\":{kernel}{pool}}}"
        ));
    }
    let fcs = 1 + rng.below(2) as usize;
    for _ in 0..fcs {
        let out = rng.pick(&[256u64, 512, 1024]);
        layers.push(format!("{{\"kind\":\"fc\",\"out\":{out}}}"));
    }
    layers.push("{\"kind\":\"fc\",\"out\":10}".to_owned());
    format!(
        "{{\"name\":\"{name}\",\"input\":{{\"channels\":3,\"height\":32,\"width\":32}},\
         \"layers\":[{}]}}",
        layers.join(",")
    )
}

/// An inline `nodes` graph: a residual tower of three stages (a few
/// KB of JSON), so request parsing carries real weight.
fn inline_graph(rng: &mut Rng, name: &str) -> String {
    let mut nodes = Vec::new();
    let mut width = *rng.pick(&[16u64, 32]);
    nodes.push(format!(
        "{{\"name\":\"stem\",\"kind\":\"conv\",\"out\":{width},\"kernel\":3}}"
    ));
    let mut last = "stem".to_owned();
    for stage in 0..3 {
        if stage > 0 {
            width *= 2;
            let down = format!("down{stage}");
            nodes.push(format!(
                "{{\"name\":\"{down}\",\"kind\":\"conv\",\"out\":{width},\"kernel\":3,\"stride\":2}}"
            ));
            last = down;
        }
        let blocks = 3 + rng.below(4) as usize;
        for block in 0..blocks {
            let a = format!("s{stage}b{block}a");
            let b = format!("s{stage}b{block}b");
            let add = format!("s{stage}b{block}add");
            let kernel = rng.pick(&[1u64, 3]);
            nodes.push(format!(
                "{{\"name\":\"{a}\",\"kind\":\"conv\",\"out\":{width},\"kernel\":3}}"
            ));
            nodes.push(format!(
                "{{\"name\":\"{b}\",\"kind\":\"conv\",\"out\":{width},\"kernel\":{kernel}}}"
            ));
            nodes.push(format!(
                "{{\"name\":\"{add}\",\"kind\":\"add\",\"inputs\":[\"{last}\",\"{b}\"]}}"
            ));
            last = add;
        }
    }
    nodes.push("{\"name\":\"fc\",\"kind\":\"fc\",\"out\":10}".to_owned());
    format!(
        "{{\"name\":\"{name}\",\"input\":{{\"channels\":3,\"height\":32,\"width\":32}},\
         \"nodes\":[{}]}}",
        nodes.join(",")
    )
}

/// The zoo `(network, strategy, levels)` tuples of one cold-plan block.
fn cold_tuples() -> Vec<(&'static str, &'static str, usize)> {
    let mut tuples = Vec::new();
    for net in CHAIN_ZOO.iter().chain(BRANCHY_ZOO.iter()) {
        for strategy in COLD_STRATEGIES {
            for levels in COLD_LEVELS {
                tuples.push((*net, strategy, levels));
            }
        }
    }
    for (net, levels) in EXHAUSTIVE_TUPLES {
        tuples.push((net, "exhaustive", levels));
    }
    tuples
}

/// One cold-plan block: every zoo tuple once plus the inline networks,
/// shuffled.  `batch_of(tuple)` gives each line's batch.
fn cold_block(
    rng: &mut Rng,
    block: usize,
    layer_counts: &[(&str, usize)],
    batch_of: &dyn Fn(usize) -> u64,
) -> Vec<String> {
    let tuples = cold_tuples();
    let mut lines = Vec::with_capacity(tuples.len() + 2 * COLD_INLINE_PER_KIND);
    for (t, (net, strategy, levels)) in tuples.iter().enumerate() {
        let extra = if *strategy == "explicit" {
            let layers = layer_counts
                .iter()
                .find(|(name, _)| name == net)
                .map_or(0, |(_, n)| *n);
            assignments(rng, layers, *levels)
        } else {
            String::new()
        };
        lines.push(zoo_line(net, batch_of(t), *levels, strategy, &extra));
    }
    for j in 0..COLD_INLINE_PER_KIND {
        let t = tuples.len() + 2 * j;
        let levels = rng.below(15) as usize + 2;
        let chain = inline_chain(rng, &format!("chain-{block}-{j}"));
        let strategy = rng.pick(&["hypar", "dp", "owt", "refined"]);
        lines.push(inline_line(&chain, batch_of(t), levels, strategy, ""));
        let levels = rng.below(15) as usize + 2;
        let graph = inline_graph(rng, &format!("tower-{block}-{j}"));
        let strategy = rng.pick(&["hypar", "dp", "owt"]);
        lines.push(inline_line(&graph, batch_of(t + 1), levels, strategy, ""));
    }
    rng.shuffle(&mut lines);
    lines
}

fn zoo_layer_counts() -> Vec<(&'static str, usize)> {
    CHAIN_ZOO
        .iter()
        .chain(BRANCHY_ZOO.iter())
        .map(|name| (*name, weighted_layers(name)))
        .collect()
}

/// `cold-plan`: shuffled blocks that each hold every zoo
/// `(network, strategy, levels)` tuple once, the capped exhaustive
/// tuples, and a few inline networks.  A block is a fixed amount of
/// work, so throughput does not depend on which requests a seed puts
/// first.  Each line of a block draws its batch from its tuple's
/// [`BatchPerm`], so no fingerprint repeats within 4096 blocks; the two
/// warm-up blocks (more lines than the cache holds) use batches above
/// that range.
fn cold_plan(seed: u64, want: usize) -> Stream {
    let layer_counts = zoo_layer_counts();
    let per_block = cold_tuples().len() + 2 * COLD_INLINE_PER_KIND;
    let mut lines = Vec::new();
    let mut warm_rng = Rng::new(WARMUP_SEED);
    for block in 0..2u64 {
        let batch = WARMUP_BATCH + block;
        lines.extend(cold_block(
            &mut warm_rng,
            block as usize,
            &layer_counts,
            &|_| batch,
        ));
    }
    let setup: Vec<usize> = (0..lines.len()).collect();
    let mut rng = Rng::new(seed);
    let perms: Vec<BatchPerm> = (0..per_block).map(|_| BatchPerm::draw(&mut rng)).collect();
    let blocks = want.div_ceil(per_block).clamp(2, BATCH_SPAN as usize);
    for block in 0..blocks {
        let batch_of = |t: usize| perms[t].batch(block);
        lines.extend(cold_block(&mut rng, block, &layer_counts, &batch_of));
    }
    let measured: Vec<usize> = (setup.len()..lines.len()).collect();
    let digest = measured[..per_block].to_vec();
    Stream {
        lines,
        setup,
        measured,
        digest,
    }
}

/// `sim-deep`: cycles over every zoo network at every level 6-12, each
/// cycle with strategies rotated so three consecutive cycles cover
/// `hypar`, `dp` and `owt` for every pair.  Inside a cycle the lines come
/// in groups of seven, one per level, so the work done by any prefix of
/// the stream grows evenly.  Batches follow the cold-plan rule: one
/// [`BatchPerm`] per (network, level).
fn sim_deep(seed: u64, want: usize) -> Stream {
    let nets: Vec<&str> = CHAIN_ZOO
        .iter()
        .chain(BRANCHY_ZOO.iter())
        .copied()
        .collect();
    let levels: Vec<usize> = SIM_LEVELS.collect();
    let mut lines = Vec::new();
    // Warm-up: every network at three levels, the same for every seed.
    for (n, net) in nets.iter().enumerate() {
        for (k, level) in [7usize, 9, 11].into_iter().enumerate() {
            let strategy = SIM_STRATEGIES[(n + k) % SIM_STRATEGIES.len()];
            let extra = ",\"simulate\":true";
            lines.push(zoo_line(net, WARMUP_BATCH, level, strategy, extra));
        }
    }
    let setup: Vec<usize> = (0..lines.len()).collect();
    let mut rng = Rng::new(seed);
    let batches: Vec<BatchPerm> = (0..nets.len() * levels.len())
        .map(|_| BatchPerm::draw(&mut rng))
        .collect();
    let per_cycle = nets.len() * levels.len();
    let cycles = want.div_ceil(per_cycle).clamp(3, BATCH_SPAN as usize);
    for cycle in 0..cycles {
        // One shuffled column of networks per level; group `g` takes the
        // `g`-th network of every column.
        let mut columns: Vec<std::vec::IntoIter<usize>> = levels
            .iter()
            .map(|_| {
                let mut perm: Vec<usize> = (0..nets.len()).collect();
                rng.shuffle(&mut perm);
                perm.into_iter()
            })
            .collect();
        for _ in 0..nets.len() {
            let mut order: Vec<usize> = (0..levels.len()).collect();
            rng.shuffle(&mut order);
            for l in order {
                let n = columns[l].next().expect("a network per group and level");
                let level = levels[l];
                let strategy = SIM_STRATEGIES[(cycle + n + level) % SIM_STRATEGIES.len()];
                let batch = batches[n * levels.len() + l].batch(cycle);
                lines.push(zoo_line(
                    nets[n],
                    batch,
                    level,
                    strategy,
                    ",\"simulate\":true",
                ));
            }
        }
    }
    let measured: Vec<usize> = (setup.len()..lines.len()).collect();
    let digest = measured[..per_cycle].to_vec();
    Stream {
        lines,
        setup,
        measured,
        digest,
    }
}

/// The hot-tcp working set: 86 requests, well under the cache's 1,024
/// entries.  Loading it is the workload's set-up, so it is the same for
/// every seed (drawn from the warm-up seed): batches and inline networks
/// change the planning work, and with it `setup_s`.  The refined branchy
/// lines make loading it over half a second of planning work; the
/// simulated lines stay at low levels so that the DES does not set the
/// server's peak memory.
fn hot_working_set() -> Vec<String> {
    let rng = &mut Rng::new(WARMUP_SEED);
    let mut lines = Vec::new();
    let batch = |rng: &mut Rng| BATCH_BASE + rng.below(BATCH_SPAN);
    for (n, net) in CHAIN_ZOO.iter().enumerate() {
        for (k, strategy) in ["hypar", "refined", "owt"].into_iter().enumerate() {
            let levels = 2 + (n * 3 + k * 5) % 15;
            lines.push(zoo_line(net, batch(rng), levels, strategy, ""));
        }
    }
    for net in BRANCHY_ZOO {
        for levels in [4, 8, 10, 11, 12, 13, 14, 15, 16] {
            lines.push(zoo_line(net, batch(rng), levels, "refined", ""));
        }
        for (levels, strategy) in [(5, "hypar"), (9, "dp"), (12, "owt")] {
            lines.push(zoo_line(net, batch(rng), levels, strategy, ""));
        }
    }
    for j in 0..16 {
        let graph = inline_graph(rng, &format!("tower-{j}"));
        let strategy = if j % 2 == 0 { "hypar" } else { "refined" };
        lines.push(inline_line(&graph, batch(rng), 4 + j % 12, strategy, ""));
    }
    for j in 0..8 {
        let chain = inline_chain(rng, &format!("chain-{j}"));
        let strategy = ["hypar", "dp", "owt", "refined"][j % 4];
        lines.push(inline_line(&chain, batch(rng), 3 + j, strategy, ""));
    }
    for (j, net) in CHAIN_ZOO.iter().take(8).enumerate() {
        let levels = 6 + j % 3;
        lines.push(zoo_line(
            net,
            batch(rng),
            levels,
            "hypar",
            ",\"simulate\":true",
        ));
    }
    lines
}

/// `hot-tcp`: the working set is loaded once, then replayed in
/// back-to-back seeded shuffles, so every measured reply is a cache hit.
/// The seed draws only the replay order.
fn hot_tcp(seed: u64, want: usize) -> Stream {
    let lines = hot_working_set();
    let mut rng = Rng::new(seed);
    // Loaded in a fixed order: the server's peak memory depends on when
    // the heaviest requests arrive, and should not depend on the seed.
    let setup: Vec<usize> = (0..lines.len()).collect();
    let mut measured = Vec::with_capacity(want + lines.len());
    while measured.len() < want {
        let mut round: Vec<usize> = (0..lines.len()).collect();
        rng.shuffle(&mut round);
        measured.extend(round);
    }
    let digest = setup.clone();
    Stream {
        lines,
        setup,
        measured,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_engine::{PlanEngine, PlanRequest};
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        for workload in Workload::ALL {
            let a = stream(workload, 7, 1);
            let b = stream(workload, 7, 1);
            assert_eq!(a.lines, b.lines, "{}", workload.name());
            assert_eq!(a.setup, b.setup);
            assert_eq!(a.measured, b.measured);
            // Another seed sends other requests; on hot-tcp, whose
            // working set is fixed, in another order.
            let other = stream(workload, 8, 1);
            let sent = |s: &Stream| -> Vec<String> {
                s.measured.iter().map(|&i| s.lines[i].clone()).collect()
            };
            assert_ne!(sent(&a), sent(&other), "{}", workload.name());
        }
    }

    #[test]
    fn set_up_lines_do_not_depend_on_the_seed() {
        for workload in Workload::ALL {
            let set_up = |seed| {
                let s = stream(workload, seed, 1);
                s.setup
                    .iter()
                    .map(|&i| s.lines[i].clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(set_up(7), set_up(8), "{}", workload.name());
        }
    }

    #[test]
    fn every_line_is_a_valid_request() {
        for workload in Workload::ALL {
            for line in &stream(workload, 3, 1).lines {
                serde_json::from_str::<PlanRequest>(line.trim_end())
                    .unwrap_or_else(|e| panic!("{e}: {line}"));
            }
        }
    }

    /// The cache key of every set-up and measured line, as the engine
    /// computes it: through the public resolve/fingerprint path for zoo
    /// networks (no search or simulation), by planning inline networks.
    fn fingerprints(stream: &Stream) -> Vec<String> {
        let engine = PlanEngine::with_cache_capacity(0);
        stream
            .setup
            .iter()
            .chain(&stream.measured)
            .map(|&i| {
                let line = stream.lines[i].trim_end();
                let request: PlanRequest = serde_json::from_str(line).expect("valid line");
                match crate::trace::resolve(&request) {
                    Some(resolved) => resolved.expect("resolves").fingerprint().to_string(),
                    None => engine.plan(&request).expect("plans").fingerprint,
                }
            })
            .collect()
    }

    fn assert_distinct(prints: &[String]) {
        let distinct: HashSet<&String> = prints.iter().collect();
        assert_eq!(distinct.len(), prints.len());
    }

    #[test]
    fn cold_plan_never_repeats_a_fingerprint() {
        let s = stream(Workload::ColdPlan, 11, 1);
        assert!(s.measured.len() > PlanEngine::DEFAULT_CACHE_CAPACITY);
        assert_distinct(&fingerprints(&s));
    }

    #[test]
    fn sim_deep_never_repeats_a_fingerprint() {
        assert_distinct(&fingerprints(&stream(Workload::SimDeep, 11, 1)));
    }

    #[test]
    fn exhaustive_lines_stay_within_twelve_slots() {
        for (net, levels) in EXHAUSTIVE_TUPLES {
            assert!(weighted_layers(net) * levels <= 12, "{net} L{levels}");
        }
    }

    #[test]
    fn hot_working_set_fits_the_cache() {
        let s = stream(Workload::HotTcp, 5, 1);
        assert!(s.lines.len() < PlanEngine::DEFAULT_CACHE_CAPACITY);
        assert!(s.measured.iter().all(|&i| i < s.lines.len()));
    }
}
