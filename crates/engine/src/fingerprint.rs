//! Stable workload fingerprints — the plan cache's keys.
//!
//! A fingerprint hashes the **resolved** workload, not the request text:
//! the network's inferred tensor sizes, the batch, the hierarchy depth,
//! the strategy (plus explicit assignments, when given), the architecture
//! configuration, and whether simulation was requested.  Two requests that
//! resolve to the same workload — e.g. the zoo name `"vgg_a"`, an inline
//! custom spec with identical layers, and the same layers as branch-free
//! `nodes` — therefore share a cache entry, while anything that changes
//! the answer changes the key.

use std::fmt;

use hypar_comm::{LayerCommTensors, NetworkCommTensors, Parallelism};
use hypar_graph::SegmentCommGraph;
use hypar_sim::ArchConfig;
use serde::{Serialize, Value};

use crate::request::Strategy;

/// A 64-bit FNV-1a fingerprint of a resolved planning workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a hasher over primitive fields.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn f64(&mut self, n: f64) {
        self.bytes(&n.to_bits().to_le_bytes());
    }

    fn bool(&mut self, b: bool) {
        self.bytes(&[u8::from(b)]);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Hashes the workload-relevant fields of one layer's comm tensors
    /// (names are labels, not inputs — see [`fingerprint`]).
    fn layer(&mut self, layer: &LayerCommTensors) {
        self.bool(layer.is_conv);
        self.f64(layer.weight_elems);
        self.f64(layer.input_elems);
        self.f64(layer.output_elems);
        self.f64(layer.junction_elems);
    }

    /// Hashes optional explicit per-level assignments — one encoding
    /// shared by the chain and DAG fingerprints so the two cache-key
    /// rules cannot drift.
    fn assignments(&mut self, assignments: Option<&[Vec<Parallelism>]>) {
        match assignments {
            None => self.bool(false),
            Some(levels) => {
                self.bool(true);
                self.u64(levels.len() as u64);
                for level in levels {
                    for p in level {
                        self.bool(*p == Parallelism::Model);
                    }
                }
            }
        }
    }

    /// Hashes a serde value tree canonically (variant tag + contents).
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => {
                self.bytes(&[1]);
                self.bool(*b);
            }
            Value::U64(n) => {
                self.bytes(&[2]);
                self.u64(*n);
            }
            Value::I64(n) => {
                self.bytes(&[3]);
                self.u64(*n as u64);
            }
            Value::F64(n) => {
                self.bytes(&[4]);
                self.f64(*n);
            }
            Value::String(s) => {
                self.bytes(&[5]);
                self.str(s);
            }
            Value::Array(items) => {
                self.bytes(&[6]);
                self.u64(items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
            Value::Object(fields) => {
                self.bytes(&[7]);
                self.u64(fields.len() as u64);
                for (k, val) in fields {
                    self.str(k);
                    self.value(val);
                }
            }
        }
    }
}

/// Fingerprints a resolved workload.
///
/// Layer and network *names* are deliberately excluded: they label the
/// answer but never change it.
#[must_use]
pub fn fingerprint(
    tensors: &NetworkCommTensors,
    levels: usize,
    strategy: Strategy,
    assignments: Option<&[Vec<Parallelism>]>,
    cfg: &ArchConfig,
    simulate: bool,
) -> Fingerprint {
    let mut h = Fnv::new();
    h.u64(tensors.batch());
    h.u64(tensors.len() as u64);
    for layer in tensors.layers() {
        h.layer(layer);
    }
    h.u64(levels as u64);
    h.u64(strategy.tag());
    h.assignments(assignments);
    // The architecture config covers topology, bandwidths, energy model,
    // precision, and the PE grid; hashing its serialized form keeps the
    // fingerprint in sync with any future ArchConfig fields for free.
    h.value(&cfg.to_value());
    h.bool(simulate);
    Fingerprint(h.0)
}

/// Fingerprints a resolved workload given as a segment graph — the key of
/// every engine request.
///
/// A graph with one segment and no edges is a chain and takes the chain
/// encoding, [`fingerprint`] of that segment, so a zoo chain, an inline
/// `layers` chain and the same layers as branch-free `nodes` share one
/// cache entry.  Any other graph hashes its segment tensors and junction
/// edges behind a marker that domain-separates DAG keys from chain keys;
/// the canonical order of [`hypar_graph::DagNetwork`] keeps the key
/// stable across node-insertion order.
#[must_use]
pub fn fingerprint_dag(
    graph: &SegmentCommGraph,
    levels: usize,
    strategy: Strategy,
    assignments: Option<&[Vec<Parallelism>]>,
    cfg: &ArchConfig,
    simulate: bool,
) -> Fingerprint {
    if let ([segment], []) = (graph.segments(), graph.edges()) {
        return fingerprint(segment, levels, strategy, assignments, cfg, simulate);
    }
    let mut h = Fnv::new();
    h.str("dag");
    h.u64(graph.batch());
    h.u64(graph.num_segments() as u64);
    for segment in graph.segments() {
        h.u64(segment.len() as u64);
        for layer in segment.layers() {
            h.layer(layer);
        }
    }
    h.u64(graph.edges().len() as u64);
    for edge in graph.edges() {
        h.u64(edge.from as u64);
        h.u64(edge.to as u64);
        h.f64(edge.elems);
        h.f64(edge.join_elems);
    }
    h.u64(levels as u64);
    h.u64(strategy.tag());
    h.assignments(assignments);
    h.value(&cfg.to_value());
    h.bool(simulate);
    Fingerprint(h.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypar_models::zoo;
    use hypar_sim::Topology;

    fn tensors(name: &str, batch: u64) -> NetworkCommTensors {
        NetworkCommTensors::from_network(&zoo::by_name(name).unwrap(), batch).unwrap()
    }

    #[test]
    fn identical_workloads_agree() {
        let a = fingerprint(
            &tensors("VGG-A", 256),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            false,
        );
        let b = fingerprint(
            &tensors("VGG-A", 256),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            false,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn every_knob_changes_the_key() {
        let base = fingerprint(
            &tensors("VGG-A", 256),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            false,
        );
        let batch = fingerprint(
            &tensors("VGG-A", 128),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            false,
        );
        let levels = fingerprint(
            &tensors("VGG-A", 256),
            2,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            false,
        );
        let strategy = fingerprint(
            &tensors("VGG-A", 256),
            4,
            Strategy::Dp,
            None,
            &ArchConfig::paper(),
            false,
        );
        let topology = fingerprint(
            &tensors("VGG-A", 256),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper().with_topology(Topology::Torus),
            false,
        );
        let simulate = fingerprint(
            &tensors("VGG-A", 256),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            true,
        );
        let network = fingerprint(
            &tensors("VGG-B", 256),
            4,
            Strategy::Hypar,
            None,
            &ArchConfig::paper(),
            false,
        );
        for other in [batch, levels, strategy, topology, simulate, network] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn a_one_segment_graph_is_keyed_as_its_chain() {
        let shapes =
            hypar_models::NetworkShapes::infer(&zoo::by_name("VGG-A").unwrap(), 64).unwrap();
        let chain = fingerprint(
            &NetworkCommTensors::from_shapes(&shapes),
            4,
            Strategy::Refined,
            None,
            &ArchConfig::paper(),
            true,
        );
        let graph = fingerprint_dag(
            &SegmentCommGraph::chain(shapes),
            4,
            Strategy::Refined,
            None,
            &ArchConfig::paper(),
            true,
        );
        assert_eq!(graph, chain);
    }

    #[test]
    fn display_is_16_hex_digits() {
        assert_eq!(Fingerprint(0xdead_beef).to_string(), "00000000deadbeef");
    }
}
