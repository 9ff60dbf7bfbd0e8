//! Algorithm 1: partition between two (groups of) accelerators.
//!
//! A layer-wise dynamic program with two states per layer — dp or mp —
//! whose transition costs are the Table 2 junction amounts and whose
//! emission costs are the Table 1 intra-layer amounts.  Linear in the
//! number of weighted layers; the Viterbi-style traceback recovers the
//! minimizing assignment.

use hypar_comm::{
    inter_elems, intra_elems, JunctionScaling, NetworkCommTensors, Parallelism, ScaleState,
};

/// The outcome of one two-group partition: the minimum communication (in
/// tensor elements, both directions) and the per-layer assignment achieving
/// it.
#[derive(Clone, Debug, PartialEq)]
pub struct TwoGroupPartition {
    /// Minimum total communication at this level, in tensor elements.
    pub comm_elems: f64,
    /// The per-layer parallelism achieving it.
    pub assignment: Vec<Parallelism>,
}

/// Runs Algorithm 1 for a network whose tensors are scaled by `scales`
/// (identity scales at the top of the hierarchy).
///
/// Ties are broken toward **data parallelism**, both in the final state and
/// in the traceback: dp→dp junctions are free, so on equal cost dp keeps
/// future options open (and matches the paper's preference for dp in
/// inference, §3.3).
///
/// # Panics
///
/// Panics if the network is empty or `scales.len() != net.len()`.
///
/// # Examples
///
/// ```
/// use hypar_comm::{NetworkCommTensors, Parallelism, ScaleState};
/// use hypar_core::two_group;
/// use hypar_models::zoo;
///
/// let net = NetworkCommTensors::from_network(&zoo::lenet_c(), 256)?;
/// let result = two_group::partition(&net, &ScaleState::identity(net.len()));
/// // Figure 9: conv layers dp, fc layers mp.
/// use Parallelism::{Data, Model};
/// assert_eq!(result.assignment, vec![Data, Data, Model, Model]);
/// # Ok::<(), hypar_models::NetworkError>(())
/// ```
#[must_use]
pub fn partition(net: &NetworkCommTensors, scales: &ScaleState) -> TwoGroupPartition {
    partition_with(net, scales, JunctionScaling::Consumer)
}

/// [`partition`] under an explicit [`JunctionScaling`] interpretation
/// (used by the model-ablation experiment).
///
/// # Panics
///
/// Same as [`partition`].
#[must_use]
pub fn partition_with(
    net: &NetworkCommTensors,
    scales: &ScaleState,
    mode: JunctionScaling,
) -> TwoGroupPartition {
    use Parallelism::{Data, Model};

    let num_layers = net.len();
    assert!(num_layers > 0, "cannot partition an empty network");
    assert_eq!(
        scales.len(),
        num_layers,
        "scales must cover every weighted layer"
    );

    // com[l][s]: minimum accumulated communication with layer l in state s.
    // parent[l][s]: the state of layer l-1 on that minimum path.
    let mut com = vec![[0.0f64; 2]; num_layers];
    let mut parent = vec![[Data; 2]; num_layers];

    let intra = |l: usize, p: Parallelism| intra_elems(p, net.layer(l), scales.layer(l));
    let inter = |l: usize, prev: Parallelism, next: Parallelism| {
        inter_elems(
            prev,
            next,
            net.layer(l).junction_elems,
            scales.junction_scale(l, mode),
        )
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
    let comm_elems = com[num_layers - 1][state.bit() as usize];

    let mut assignment = vec![Data; num_layers];
    for l in (0..num_layers).rev() {
        assignment[l] = state;
        if l > 0 {
            state = parent[l][state.bit() as usize];
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
    use hypar_comm::{level_cost, LayerCommTensors};
    use hypar_models::zoo;
    use Parallelism::{Data, Model};

    fn view(net: &hypar_models::Network, batch: u64) -> NetworkCommTensors {
        NetworkCommTensors::from_network(net, batch).unwrap()
    }

    #[test]
    fn reported_cost_matches_level_cost_of_assignment() {
        for name in hypar_models::zoo::NAMES {
            let net = view(&hypar_models::zoo::by_name(name).unwrap(), 256);
            let scales = ScaleState::identity(net.len());
            let result = partition(&net, &scales);
            let recomputed =
                level_cost(&net, &scales, &result.assignment, JunctionScaling::Consumer)
                    .total_elems();
            assert!(
                (result.comm_elems - recomputed).abs() < 1e-6 * recomputed.max(1.0),
                "{name}: DP cost {} != recomputed {recomputed}",
                result.comm_elems
            );
        }
    }

    #[test]
    fn lenet_chooses_conv_dp_fc_mp() {
        let net = view(&zoo::lenet_c(), 256);
        let result = partition(&net, &ScaleState::identity(4));
        assert_eq!(result.assignment, vec![Data, Data, Model, Model]);
    }

    #[test]
    fn sconv_is_all_dp_and_sfc_mostly_mp() {
        let sconv = view(&zoo::sconv(), 256);
        let r = partition(&sconv, &ScaleState::identity(4));
        assert_eq!(r.assignment, vec![Data; 4]);

        let sfc = view(&zoo::sfc(), 256);
        let r = partition(&sfc, &ScaleState::identity(4));
        // The three big fc layers prefer mp at the top level (Figure 5a).
        assert_eq!(&r.assignment[..3], &[Model, Model, Model]);
    }

    #[test]
    fn single_layer_network_picks_cheaper_table1_side() {
        let fc = LayerCommTensors::fully_connected("fc", 32, 70, 100);
        let net = NetworkCommTensors::from_layers("one", 32, vec![fc]);
        let r = partition(&net, &ScaleState::identity(1));
        assert_eq!(r.assignment, vec![Model]); // 25.6 KB < 56 KB
        assert_eq!(r.comm_elems, 2.0 * 32.0 * 100.0);
    }

    #[test]
    fn tie_breaks_toward_dp() {
        // With batch == in_features, A(ΔW) == A(F_out): intra costs tie
        // exactly and dp must win (the paper's §6.5.2 fc3-b4096 argument).
        let layer = LayerCommTensors::fully_connected("fc", 128, 128, 50);
        assert_eq!(layer.weight_elems, layer.output_elems);
        let net = NetworkCommTensors::from_layers("tie", 128, vec![layer]);
        let r = partition(&net, &ScaleState::identity(1));
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
        let net = NetworkCommTensors::from_layers("chain", 8, layers);
        let r = partition(&net, &ScaleState::identity(1000));
        assert_eq!(r.assignment.len(), 1000);
        assert!(r.comm_elems > 0.0);
    }

    #[test]
    fn scales_change_the_decision() {
        // VGG-E conv5 at b32: dp at identity scales, mp once the batch has
        // been halved twice (the Figure 13 crossover).
        let conv5 = LayerCommTensors::conv("conv5", 32, (512, 14, 14), 3, 512, (14, 14), (7, 7));
        let net = NetworkCommTensors::from_layers("conv5", 32, vec![conv5]);
        let top = ScaleState::identity(1);
        assert_eq!(partition(&net, &top).assignment, vec![Data]);
        let deeper = top.descend(&[Data]).descend(&[Data]);
        assert_eq!(partition(&net, &deeper).assignment, vec![Model]);
    }
}
