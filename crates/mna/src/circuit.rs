//! Netlist container: named nodes plus a list of behavioural devices.

use crate::device::Device;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a circuit node.
///
/// `NodeId(0)` is the global ground / reference node ([`Circuit::GROUND`]);
/// its voltage is fixed at zero and it does not get a KCL equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns `true` if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// Raw index of this node (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// A netlist: a set of named nodes and the devices connected between them.
///
/// Nodes are created on demand with [`Circuit::node`]; devices are added with
/// [`Circuit::add`]. The circuit itself holds no simulation state — it is a
/// pure description consumed by
/// [`TransientAnalysis`](crate::transient::TransientAnalysis).
#[derive(Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    devices: Vec<Box<dyn Device>>,
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("nodes", &self.node_names)
            .field(
                "devices",
                &self
                    .devices
                    .iter()
                    .map(|d| d.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Circuit {
    /// The ground (reference) node; always present, voltage fixed at 0 V.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["gnd".to_string()],
            node_lookup: HashMap::from([("gnd".to_string(), NodeId(0))]),
            devices: Vec::new(),
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    ///
    /// The name `"gnd"` always refers to the ground node.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_lookup.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_lookup.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_lookup.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of non-ground nodes (each contributes one KCL equation).
    pub fn unknown_node_count(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Adds a device to the circuit.
    pub fn add<D: Device + 'static>(&mut self, device: D) {
        self.devices.push(Box::new(device));
    }

    /// The devices in insertion order.
    pub fn devices(&self) -> &[Box<dyn Device>] {
        &self.devices
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Iterates over the node names (index = raw node id).
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Resistor;

    #[test]
    fn ground_is_predefined() {
        let mut c = Circuit::new();
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert!(Circuit::GROUND.is_ground());
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.unknown_node_count(), 0);
    }

    #[test]
    fn nodes_are_created_once() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn devices_are_stored_in_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 10.0));
        c.add(Resistor::new("R2", a, Circuit::GROUND, 20.0));
        assert_eq!(c.device_count(), 2);
        assert_eq!(c.devices()[0].name(), "R1");
        assert_eq!(c.devices()[1].name(), "R2");
        let dbg = format!("{c:?}");
        assert!(dbg.contains("R1") && dbg.contains("R2"));
    }

    #[test]
    fn node_display() {
        assert_eq!(Circuit::GROUND.to_string(), "gnd");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
