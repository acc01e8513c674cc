use pax_bespoke::stimulus_for;
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::{traverse, NetId, Netlist, Node};
use pax_sim::CompiledNetlist;

/// Per-net τ and φ metrics of one circuit, computed once and reused by
/// the whole (τc, φc) sweep.
#[derive(Debug, Clone)]
pub struct PruneAnalysis {
    /// Per-net `(τ, dominant value)` from the training-set simulation.
    pub tau: Vec<(f64, bool)>,
    /// Per-net φ: most significant reachable score bit, `−1` when no
    /// observation point is reachable.
    pub phi: Vec<i64>,
    /// Prunable gates (area-occupying gate nodes).
    pub candidates: Vec<NetId>,
}

impl PruneAnalysis {
    /// Dominant constant of a net.
    pub fn dominant(&self, net: NetId) -> bool {
        self.tau[net.index()].1
    }

    /// τ of a net.
    pub fn tau_of(&self, net: NetId) -> f64 {
        self.tau[net.index()].0
    }

    /// φ of a net.
    pub fn phi_of(&self, net: NetId) -> i64 {
        self.phi[net.index()]
    }

    /// The paper's step-3 filter: the prunable gates whose τ meets
    /// `tau_c` and whose φ is at most `phi_c`, sorted by net id.
    pub fn select(&self, tau_c: f64, phi_c: i64) -> Vec<NetId> {
        let mut set: Vec<NetId> = self
            .candidates
            .iter()
            .copied()
            .filter(|&g| self.tau_of(g) >= tau_c - 1e-12 && self.phi_of(g) <= phi_c)
            .collect();
        set.sort_unstable();
        set
    }
}

/// Runs the paper's pruning steps 1–3 prerequisites: simulate the
/// *training* dataset for per-gate constness (τ) and compute φ against
/// the score-bus observation points.
///
/// # Panics
///
/// Panics if the netlist lacks `score*` ports (it must come from
/// `pax-bespoke`) or the dataset does not match the model.
pub fn analyze(netlist: &Netlist, model: &QuantizedModel, train: &Dataset) -> PruneAnalysis {
    analyze_compiled(&CompiledNetlist::compile(netlist), netlist, model, train)
}

/// [`analyze`] over an already-compiled netlist. The framework compiles
/// each base circuit once and reuses the tape across the τ simulation
/// here and the accuracy/power measurement — pass the tape compiled
/// from `netlist` (the φ traversal still needs the netlist structure).
///
/// # Panics
///
/// See [`analyze`].
pub fn analyze_compiled(
    compiled: &CompiledNetlist,
    netlist: &Netlist,
    model: &QuantizedModel,
    train: &Dataset,
) -> PruneAnalysis {
    // τ from training-set switching activity (paper steps 1–2).
    let stim = stimulus_for(model, train);
    let sim = compiled.run_with_activity(&stim).unwrap_or_else(|e| panic!("{e}"));
    let tau: Vec<(f64, bool)> =
        (0..netlist.len()).map(|i| sim.activity.tau(NetId::from_index(i))).collect();

    // φ seeds: bit significance on every score-port bit (a net may feed
    // several score bits; the maximum significance wins).
    let mut seed = vec![-1i64; netlist.len()];
    let mut score_ports = 0;
    for port in netlist.output_ports() {
        if !port.name.starts_with("score") {
            continue;
        }
        score_ports += 1;
        for (bit, net) in port.bits.iter().enumerate() {
            seed[net.index()] = seed[net.index()].max(bit as i64);
        }
    }
    assert!(score_ports > 0, "netlist exposes no score ports for φ");
    let phi = traverse::max_backward(netlist, &seed);

    let candidates: Vec<NetId> = netlist
        .iter()
        .filter_map(|(id, node)| match node {
            Node::Gate(g) if !g.kind.is_free() => Some(id),
            _ => None,
        })
        .collect();

    PruneAnalysis { tau, phi, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_bespoke::BespokeCircuit;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;

    fn setup() -> (BespokeCircuit, Dataset) {
        let data = blobs("b", 240, 3, 3, 0.08, 31);
        let (train, _) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &train.clone());
        let _ = test;
        let m = pax_ml::train::svm::train_svm_classifier(
            &train,
            &pax_ml::train::svm::SvmParams { epochs: 40, ..Default::default() },
            3,
        );
        let q =
            pax_ml::quant::QuantizedModel::from_linear_classifier("b", &m, QuantSpec::default());
        (BespokeCircuit::generate(&q), train)
    }

    #[test]
    fn analysis_covers_every_net() {
        let (c, train) = setup();
        let a = analyze(&c.netlist, &c.model, &train);
        assert_eq!(a.tau.len(), c.netlist.len());
        assert_eq!(a.phi.len(), c.netlist.len());
        assert!(!a.candidates.is_empty());
        for &(t, _) in &a.tau {
            assert!((0.5..=1.0).contains(&t), "τ={t}");
        }
    }

    #[test]
    fn score_bits_have_their_own_significance() {
        let (c, train) = setup();
        let a = analyze(&c.netlist, &c.model, &train);
        let port = c.netlist.output_port("score0").unwrap();
        for (bit, net) in port.bits.iter().enumerate() {
            assert!(a.phi_of(*net) >= bit as i64, "bit {bit}");
        }
    }

    #[test]
    fn argmax_gates_get_phi_minus_one() {
        let (c, train) = setup();
        let a = analyze(&c.netlist, &c.model, &train);
        // The class port's driver gates live inside the argmax: they
        // cannot reach any score bus (those are upstream), so φ = −1.
        let class = c.netlist.output_port("class").unwrap();
        let mut saw_argmax_gate = false;
        for &net in &class.bits {
            if c.netlist.gate(net).is_some() {
                assert_eq!(a.phi_of(net), -1, "argmax gate {net}");
                saw_argmax_gate = true;
            }
        }
        assert!(saw_argmax_gate, "expected gate-driven class bits");
    }

    #[test]
    fn phi_grows_towards_significant_bits() {
        let (c, train) = setup();
        let a = analyze(&c.netlist, &c.model, &train);
        // Primary inputs influence everything, so their φ should be the
        // maximum significance of any score port.
        let max_phi = c
            .netlist
            .output_ports()
            .iter()
            .filter(|p| p.name.starts_with("score"))
            .map(|p| p.width() as i64 - 1)
            .max()
            .unwrap();
        let x0 = c.netlist.input_ports()[0].bits[0];
        assert_eq!(a.phi_of(x0), max_phi);
    }
}
