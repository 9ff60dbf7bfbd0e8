//! Figures 6–8: performance, energy efficiency, and total communication of
//! Model Parallelism, Data Parallelism, and HyPar on the ten networks.

use hypar_core::{baselines, hierarchical};
use hypar_models::zoo;
use hypar_sim::{training, ArchConfig, StepReport};
use serde::Serialize;

use crate::context::{shapes, view, PAPER_BATCH, PAPER_LEVELS};
use crate::report::{gigabytes, gmean, ratio, Table};

/// Results for one network.
#[derive(Clone, Debug, Serialize)]
pub struct OverallRow {
    /// Network name.
    pub network: String,
    /// Model Parallelism performance normalized to Data Parallelism.
    pub mp_perf: f64,
    /// HyPar performance normalized to Data Parallelism (Figure 6).
    pub hypar_perf: f64,
    /// Model Parallelism energy efficiency normalized to Data Parallelism.
    pub mp_energy: f64,
    /// HyPar energy efficiency normalized to Data Parallelism (Figure 7).
    pub hypar_energy: f64,
    /// Total communication per step in GB (Figure 8).
    pub mp_comm_gb: f64,
    /// Data Parallelism communication per step in GB.
    pub dp_comm_gb: f64,
    /// HyPar communication per step in GB.
    pub hypar_comm_gb: f64,
}

/// The Figures 6–8 dataset: per-network rows plus geometric means.
#[derive(Clone, Debug, Serialize)]
pub struct Overall {
    /// Per-network results in the paper's order.
    pub rows: Vec<OverallRow>,
    /// Geometric mean of `mp_perf` / `hypar_perf`.
    pub gmean_perf: (f64, f64),
    /// Geometric mean of `mp_energy` / `hypar_energy`.
    pub gmean_energy: (f64, f64),
    /// Geometric mean of the three communication columns, in GB.
    pub gmean_comm_gb: (f64, f64, f64),
}

fn simulate(name: &str, cfg: &ArchConfig) -> (StepReport, StepReport, StepReport) {
    let shapes = shapes(name, PAPER_BATCH);
    let net = view(name, PAPER_BATCH);
    let hypar = hierarchical::partition(&net, PAPER_LEVELS);
    let dp = baselines::all_data(&net, PAPER_LEVELS);
    let mp = baselines::all_model(&net, PAPER_LEVELS);
    (
        training::simulate_step(&shapes, &mp, cfg).expect("plan matches the network"),
        training::simulate_step(&shapes, &dp, cfg).expect("plan matches the network"),
        training::simulate_step(&shapes, &hypar, cfg).expect("plan matches the network"),
    )
}

/// Runs the three schemes on all ten networks under `cfg`.
#[must_use]
pub fn run_with(cfg: &ArchConfig) -> Overall {
    let rows: Vec<OverallRow> = zoo::NAMES
        .iter()
        .map(|name| {
            let (mp, dp, hypar) = simulate(name, cfg);
            OverallRow {
                network: (*name).to_owned(),
                mp_perf: mp.performance_gain_over(&dp),
                hypar_perf: hypar.performance_gain_over(&dp),
                mp_energy: mp.energy_efficiency_over(&dp),
                hypar_energy: hypar.energy_efficiency_over(&dp),
                mp_comm_gb: mp.comm_bytes.gigabytes(),
                dp_comm_gb: dp.comm_bytes.gigabytes(),
                hypar_comm_gb: hypar.comm_bytes.gigabytes(),
            }
        })
        .collect();

    let col = |f: fn(&OverallRow) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
    // SCONV's HyPar == DP, whose comm ratio is exactly 1; all values are
    // positive so gmean is well-defined.
    Overall {
        gmean_perf: (gmean(&col(|r| r.mp_perf)), gmean(&col(|r| r.hypar_perf))),
        gmean_energy: (
            gmean(&col(|r| r.mp_energy)),
            gmean(&col(|r| r.hypar_energy)),
        ),
        gmean_comm_gb: (
            gmean(&col(|r| r.mp_comm_gb)),
            gmean(&col(|r| r.dp_comm_gb)),
            gmean(&col(|r| r.hypar_comm_gb)),
        ),
        rows,
    }
}

/// Runs with the paper's configuration.
#[must_use]
pub fn run() -> Overall {
    run_with(&ArchConfig::paper())
}

/// Figure 6: performance normalized to Data Parallelism.
#[must_use]
pub fn fig6_table(o: &Overall) -> Table {
    let mut t = Table::new(
        "Figure 6: performance normalized to Data Parallelism",
        &["network", "Model Par.", "Data Par.", "HyPar"],
    );
    for r in &o.rows {
        t.row(&[
            r.network.clone(),
            ratio(r.mp_perf),
            "1.00".into(),
            ratio(r.hypar_perf),
        ]);
    }
    t.row(&[
        "Gmean".into(),
        ratio(o.gmean_perf.0),
        "1.00".into(),
        ratio(o.gmean_perf.1),
    ]);
    t
}

/// Figure 7: energy efficiency normalized to Data Parallelism.
#[must_use]
pub fn fig7_table(o: &Overall) -> Table {
    let mut t = Table::new(
        "Figure 7: energy efficiency normalized to Data Parallelism",
        &["network", "Model Par.", "Data Par.", "HyPar"],
    );
    for r in &o.rows {
        t.row(&[
            r.network.clone(),
            ratio(r.mp_energy),
            "1.00".into(),
            ratio(r.hypar_energy),
        ]);
    }
    t.row(&[
        "Gmean".into(),
        ratio(o.gmean_energy.0),
        "1.00".into(),
        ratio(o.gmean_energy.1),
    ]);
    t
}

/// Figure 8: total communication per step in GB.
#[must_use]
pub fn fig8_table(o: &Overall) -> Table {
    let mut t = Table::new(
        "Figure 8: total communication per step (GB)",
        &["network", "Model Par.", "Data Par.", "HyPar"],
    );
    for r in &o.rows {
        t.row(&[
            r.network.clone(),
            gigabytes(r.mp_comm_gb * 1e9),
            gigabytes(r.dp_comm_gb * 1e9),
            gigabytes(r.hypar_comm_gb * 1e9),
        ]);
    }
    t.row(&[
        "Gmean".into(),
        gigabytes(o.gmean_comm_gb.0 * 1e9),
        gigabytes(o.gmean_comm_gb.1 * 1e9),
        gigabytes(o.gmean_comm_gb.2 * 1e9),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // `run()` simulates 30 training steps; do it once for all assertions.
    fn dataset() -> &'static Overall {
        use std::sync::OnceLock;
        static DATA: OnceLock<Overall> = OnceLock::new();
        DATA.get_or_init(run)
    }

    #[test]
    fn hypar_beats_dp_everywhere_except_sconv() {
        for r in &dataset().rows {
            if r.network == "SCONV" {
                assert!((r.hypar_perf - 1.0).abs() < 1e-9, "SCONV should equal DP");
            } else {
                assert!(
                    r.hypar_perf > 1.0,
                    "{}: HyPar perf {}",
                    r.network,
                    r.hypar_perf
                );
            }
        }
    }

    #[test]
    fn mp_is_worst_except_for_sfc() {
        for r in &dataset().rows {
            if r.network == "SFC" {
                assert!(r.mp_perf > 1.0, "SFC: mp should beat dp");
                assert!(r.hypar_perf >= r.mp_perf, "SFC: HyPar should beat mp too");
            } else {
                assert!(r.mp_perf < 1.0, "{}: mp perf {}", r.network, r.mp_perf);
            }
        }
    }

    #[test]
    fn comm_ordering_matches_figure8() {
        for r in &dataset().rows {
            assert!(r.hypar_comm_gb <= r.dp_comm_gb + 1e-12, "{}", r.network);
            if r.network == "SFC" {
                assert!(r.mp_comm_gb < r.dp_comm_gb, "SFC: mp comm should be lower");
            } else {
                assert!(
                    r.mp_comm_gb > r.dp_comm_gb,
                    "{}: mp comm should be higher",
                    r.network
                );
            }
        }
    }

    #[test]
    fn dp_figure8_column_matches_paper() {
        // The all-dp totals the model reproduces (see the README section
        // "Reproducing the paper").
        let by_name: std::collections::HashMap<_, _> = dataset()
            .rows
            .iter()
            .map(|r| (r.network.as_str(), r.dp_comm_gb))
            .collect();
        assert!((by_name["SFC"] - 16.9).abs() / 16.9 < 0.01);
        assert!((by_name["SCONV"] - 0.0121).abs() / 0.0121 < 0.01);
        assert!((by_name["Lenet-c"] - 0.0517).abs() / 0.0517 < 0.01);
        assert!((by_name["VGG-A"] - 15.9).abs() / 15.9 < 0.02);
    }

    #[test]
    fn gmeans_are_consistent_with_rows() {
        let o = dataset();
        let hand = gmean(&o.rows.iter().map(|r| r.hypar_perf).collect::<Vec<_>>());
        assert!((o.gmean_perf.1 - hand).abs() < 1e-12);
    }

    #[test]
    fn tables_render() {
        let o = dataset();
        for t in [fig6_table(o), fig7_table(o), fig8_table(o)] {
            let s = t.to_string();
            assert!(s.contains("Gmean"));
            assert_eq!(t.len(), 11);
        }
    }
}
