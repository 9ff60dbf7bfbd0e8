//! Algorithm 1: partition between two (groups of) accelerators.
//!
//! A layer-wise dynamic program with two states per layer — dp or mp —
//! whose transition costs are the Table 2 junction amounts and whose
//! emission costs are the Table 1 intra-layer amounts.  Linear in the
//! number of weighted layers; the Viterbi-style traceback recovers the
//! minimizing assignment.
//!
//! It runs on the exact integer terms of one hierarchy level
//! ([`CostTerms::layer_term`], [`CostTerms::pair_term`]): the level's
//! array-wide amounts, `2^h` times one group pair's.

use hypar_comm::{CostTerms, JunctionScaling, Parallelism};

/// The outcome of one two-group partition: the minimum communication and
/// the per-layer assignment achieving it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoGroupPartition {
    /// Minimum array-wide communication at this level, in tensor
    /// elements: exactly [`CostTerms::level_total`] of `assignment`.
    pub comm_elems: u128,
    /// The per-layer parallelism achieving it.
    pub assignment: Vec<Parallelism>,
}

/// Runs Algorithm 1 at hierarchy level `h` on a chain's terms
/// ([`CostTerms::chain`]: pair `l` joins layer `l` to `l + 1`), with
/// `dp_above[l]` the levels above `h` at which layer `l` is dp (all zero
/// at the top of the hierarchy) and junctions scoped by `mode`.
///
/// Ties are broken toward **data parallelism**, both in the final state and
/// in the traceback: dp→dp junctions are free, so on equal cost dp keeps
/// future options open (and matches the paper's preference for dp in
/// inference, §3.3).
///
/// # Panics
///
/// Panics if the chain is empty or `dp_above` does not cover its layers.
///
/// # Examples
///
/// ```
/// use hypar_comm::{CostTerms, JunctionScaling, NetworkCommTensors, Parallelism};
/// use hypar_core::two_group;
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256)?;
/// let terms = CostTerms::chain(&net);
/// let result = two_group::partition(&terms, 0, &[0; 4], JunctionScaling::Consumer);
/// // Figure 9: conv layers dp, fc layers mp.
/// use Parallelism::{Data, Model};
/// assert_eq!(result.assignment, vec![Data, Data, Model, Model]);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[must_use]
pub fn partition(
    terms: &CostTerms,
    h: usize,
    dp_above: &[usize],
    mode: JunctionScaling,
) -> TwoGroupPartition {
    use Parallelism::{Data, Model};

    let num_layers = terms.num_layers();
    assert!(num_layers > 0, "cannot partition an empty network");
    assert_eq!(
        dp_above.len(),
        num_layers,
        "dp_above must cover every weighted layer"
    );

    // com[l][s]: minimum accumulated communication with layer l in state s.
    // parent[l][s]: the state of layer l-1 on that minimum path.
    let mut com = vec![[0u128; 2]; num_layers];
    let mut parent = vec![[Data; 2]; num_layers];

    let intra = |l: usize, p: Parallelism| terms.layer_term(l, p, h, dp_above);
    let inter = |l: usize, prev: Parallelism, next: Parallelism| {
        terms.pair_term(l, (prev, next), h, dp_above, mode)
    };

    com[0] = [intra(0, Data), intra(0, Model)];

    for l in 1..num_layers {
        for (s, &state) in [Data, Model].iter().enumerate() {
            let from_dp = com[l - 1][0] + inter(l - 1, Data, state);
            let from_mp = com[l - 1][1] + inter(l - 1, Model, state);
            // `<=` keeps dp as the predecessor on ties.
            let (best, who) = if from_dp <= from_mp {
                (from_dp, Data)
            } else {
                (from_mp, Model)
            };
            com[l][s] = best + intra(l, state);
            parent[l][s] = who;
        }
    }

    // Final state: dp wins ties.
    let mut state = if com[num_layers - 1][0] <= com[num_layers - 1][1] {
        Data
    } else {
        Model
    };
    let comm_elems = com[num_layers - 1][usize::from(state.bit())];

    let mut assignment = vec![Data; num_layers];
    for l in (0..num_layers).rev() {
        assignment[l] = state;
        if l > 0 {
            state = parent[l][usize::from(state.bit())];
        }
    }

    TwoGroupPartition {
        comm_elems,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_comm::{count_dp, LayerCommTensors, NetworkCommTensors};
    use hypar_models::zoo;
    use Parallelism::{Data, Model};

    const MODES: [JunctionScaling; 3] = [
        JunctionScaling::Consumer,
        JunctionScaling::Producer,
        JunctionScaling::Unscaled,
    ];

    fn terms(net: &hypar_models::Network, batch: u64) -> CostTerms {
        CostTerms::chain(&NetworkCommTensors::from_network(net, batch).unwrap())
    }

    fn chain(name: &str, batch: u64, layers: Vec<LayerCommTensors>) -> CostTerms {
        CostTerms::chain(&NetworkCommTensors::from_layers(name, batch, layers))
    }

    /// Algorithm 1 at the top of the hierarchy, where nothing is split.
    fn top(terms: &CostTerms) -> TwoGroupPartition {
        let dp_above = vec![0; terms.num_layers()];
        partition(terms, 0, &dp_above, JunctionScaling::Consumer)
    }

    #[test]
    fn reported_cost_matches_level_cost_of_assignment() {
        // At every level Algorithm 2 visits, in every junction mode.
        for name in zoo::NAMES {
            let terms = terms(&zoo::by_name(name).unwrap(), 256);
            for mode in MODES {
                let mut dp_above = vec![0; terms.num_layers()];
                for h in 0..5 {
                    let result = partition(&terms, h, &dp_above, mode);
                    let level = terms.level_total(&result.assignment, h, &dp_above, mode);
                    assert_eq!(result.comm_elems, level, "{name} H{h} {mode:?}");
                    count_dp(&mut dp_above, &result.assignment);
                }
            }
        }
    }

    #[test]
    fn lenet_chooses_conv_dp_fc_mp() {
        let result = top(&terms(&zoo::lenet_c(), 256));
        assert_eq!(result.assignment, vec![Data, Data, Model, Model]);
    }

    #[test]
    fn sconv_is_all_dp_and_sfc_mostly_mp() {
        let r = top(&terms(&zoo::sconv(), 256));
        assert_eq!(r.assignment, vec![Data; 4]);

        let r = top(&terms(&zoo::sfc(), 256));
        // The three big fc layers prefer mp at the top level (Figure 5a).
        assert_eq!(&r.assignment[..3], &[Model, Model, Model]);
    }

    #[test]
    fn single_layer_network_picks_cheaper_table1_side() {
        let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
        let r = top(&chain("one", 32, vec![fc]));
        assert_eq!(r.assignment, vec![Model]); // 25.6 KB < 56 KB
        assert_eq!(r.comm_elems, 2 * 32 * 100);
    }

    #[test]
    fn tie_breaks_toward_dp() {
        // With batch == in_features, A(ΔW) == A(F_out): intra costs tie
        // exactly and dp must win (the paper's §6.5.2 fc3-b4096 argument).
        let layer = LayerCommTensors::fully_connected("fc", 128, 128, 50);
        assert_eq!(layer.weight_elems, layer.output_elems);
        let r = top(&chain("tie", 128, vec![layer]));
        assert_eq!(r.assignment, vec![Data]);
    }

    #[test]
    fn deep_chain_runs_in_linear_time_shape() {
        // 1000 alternating layers: just exercise that the DP handles long
        // chains and returns a full assignment.
        let layers: Vec<LayerCommTensors> = (0..1000)
            .map(|i| {
                if i % 2 == 0 {
                    LayerCommTensors::conv("c", 8, (16, 8, 8), 3, 16, (8, 8), (8, 8))
                } else {
                    LayerCommTensors::fully_connected("f", 8, 1024, 1024)
                }
            })
            .collect();
        let r = top(&chain("chain", 8, layers));
        assert_eq!(r.assignment.len(), 1000);
        assert!(r.comm_elems > 0);
    }

    #[test]
    fn scales_change_the_decision() {
        // VGG-E conv5 at b32: dp at the top, mp once two dp levels above
        // have halved the batch twice (the Figure 13 crossover).
        let conv5 = LayerCommTensors::conv("conv5", 32, (512, 14, 14), 3, 512, (14, 14), (7, 7));
        let terms = chain("conv5", 32, vec![conv5]);
        assert_eq!(top(&terms).assignment, vec![Data]);
        let deeper = partition(&terms, 2, &[2], JunctionScaling::Consumer);
        assert_eq!(deeper.assignment, vec![Model]);
    }
}
