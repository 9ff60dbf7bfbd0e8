//! Tables 1–3: the communication model's worked examples and the SFC/SCONV
//! hyper-parameters.

use hypar_comm::{
    CostTerms, JunctionScaling, LayerCommTensors, NetworkCommTensors, Parallelism, PRECISION_BYTES,
};
use hypar_models::zoo;
use serde::Serialize;

use crate::report::Table;

/// Table 1 rendered on the paper's §3.4 worked examples: intra-layer
/// communication of the 70×100 fc layer and the 5×5×20×50 conv layer at
/// batch 32.
#[derive(Clone, Debug, Serialize)]
pub struct Table1 {
    /// (layer, dp bytes, mp bytes) rows.
    pub rows: Vec<(String, f64, f64)>,
}

/// Runs the Table 1 examples.
#[must_use]
pub fn table1() -> Table1 {
    let fc = LayerCommTensors::fully_connected("fc 70x100 @B=32", 32, 70, 100);
    let conv = LayerCommTensors::conv(
        "conv 5x5x20x50 @B=32",
        32,
        (20, 12, 12),
        5,
        50,
        (8, 8),
        (8, 8),
    );
    let names = [fc.name.clone(), conv.name.clone()];
    let terms = CostTerms::chain(&NetworkCommTensors::from_layers(
        "table1",
        32,
        vec![fc, conv],
    ));
    // The top level's terms: one group pair, nothing split yet.
    let bytes = |l: usize, choice: Parallelism| {
        hypar_tensor::Bytes::from_elems(
            terms.layer_term(l, choice, 0, &[0, 0]) as f64,
            PRECISION_BYTES,
        )
        .value()
    };
    let rows = names
        .into_iter()
        .enumerate()
        .map(|(l, name)| {
            (
                name,
                bytes(l, Parallelism::Data),
                bytes(l, Parallelism::Model),
            )
        })
        .collect();
    Table1 { rows }
}

/// Renders Table 1.
#[must_use]
pub fn table1_table(t: &Table1) -> Table {
    let mut out = Table::new(
        "Table 1: intra-layer communication (A(dW) under dp, A(F_out) under mp)",
        &["layer", "dp", "mp", "winner"],
    );
    for (name, dp, mp) in &t.rows {
        let winner = if dp < mp { "dp" } else { "mp" };
        out.row(&[
            name.clone(),
            hypar_tensor::Bytes(*dp).to_string(),
            hypar_tensor::Bytes(*mp).to_string(),
            winner.to_owned(),
        ]);
    }
    out
}

/// Table 2: the four inter-layer transition coefficients, instantiated on a
/// unit junction tensor.
#[derive(Clone, Debug, Serialize)]
pub struct Table2 {
    /// (transition, fraction of `A(junction)` exchanged one way) rows.
    pub rows: Vec<(String, f64)>,
}

/// Runs the Table 2 transitions.
#[must_use]
pub fn table2() -> Table2 {
    use Parallelism::{Data, Model};
    // Two 1x1 fc layers at batch 1: a one-element junction tensor.
    let unit = || LayerCommTensors::fully_connected("unit", 1, 1, 1);
    let terms = CostTerms::chain(&NetworkCommTensors::from_layers(
        "table2",
        1,
        vec![unit(), unit()],
    ));
    let rows = [(Data, Data), (Data, Model), (Model, Model), (Model, Data)]
        .iter()
        .map(|&(a, b)| {
            // One-way fraction of the junction tensor (the paper's table).
            let elems = terms.pair_term(0, (a, b), 0, &[0, 0], JunctionScaling::Consumer);
            (format!("{a}-{b}"), elems as f64 / 2.0)
        })
        .collect();
    Table2 { rows }
}

/// Renders Table 2 with the paper's coefficient notation.
#[must_use]
pub fn table2_table(t: &Table2) -> Table {
    let mut out = Table::new(
        "Table 2: inter-layer communication for layer transitions",
        &["transition", "amount"],
    );
    for (name, frac) in &t.rows {
        let amount = match (name.as_str(), *frac) {
            (_, 0.0) => "0".to_owned(),
            ("dp-mp", _) => "0.25 A(F) + 0.25 A(E)".to_owned(),
            _ => "0.5 A(E)".to_owned(),
        };
        out.row(&[name.clone(), amount]);
    }
    out
}

/// Table 3: the hyper-parameters of the two extreme networks.
#[derive(Clone, Debug, Serialize)]
pub struct Table3 {
    /// (network, description) rows, one per weighted layer.
    pub rows: Vec<(String, String)>,
}

/// Runs Table 3 (reads the zoo definitions).
#[must_use]
pub fn table3() -> Table3 {
    let mut rows = Vec::new();
    for net in [zoo::sfc(), zoo::sconv()] {
        for layer in net.layers() {
            rows.push((net.name().to_owned(), layer.to_string()));
        }
    }
    Table3 { rows }
}

/// Renders Table 3.
#[must_use]
pub fn table3_table(t: &Table3) -> Table {
    let mut out = Table::new(
        "Table 3: hyper-parameters for SFC and SCONV",
        &["network", "layer"],
    );
    for (net, layer) in &t.rows {
        out.row(&[net.clone(), layer.clone()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_bytes() {
        let t = table1();
        assert_eq!(t.rows[0].1, 56_000.0); // fc dp
        assert_eq!(t.rows[0].2, 25_600.0); // fc mp
        assert_eq!(t.rows[1].1, 200_000.0); // conv dp
        assert_eq!(t.rows[1].2, 819_200.0); // conv mp
    }

    #[test]
    fn table2_coefficients() {
        let t = table2();
        let by_name: std::collections::HashMap<_, _> =
            t.rows.iter().map(|(n, f)| (n.clone(), *f)).collect();
        assert_eq!(by_name["dp-dp"], 0.0);
        assert_eq!(by_name["dp-mp"], 0.5);
        assert_eq!(by_name["mp-mp"], 0.5);
        assert_eq!(by_name["mp-dp"], 0.5);
    }

    #[test]
    fn table3_lists_eight_layers() {
        let t = table3();
        assert_eq!(t.rows.len(), 8); // 4 SFC + 4 SCONV
        assert!(t.rows[0].1.contains("8192"));
        assert!(t.rows[4].1.contains("20@5x5"));
    }

    #[test]
    fn renderers_do_not_panic() {
        let _ = table1_table(&table1()).to_string();
        let _ = table2_table(&table2()).to_string();
        let _ = table3_table(&table3()).to_string();
    }
}
