//! Fibre-cardinality recovery and the fibre census (§4.2–4.5).
//!
//! Once an agent holds the minimum base, it recovers the fibre
//! cardinalities *up to a common factor* by solving a linear system whose
//! shape depends on the communication model:
//!
//! - **outdegree awareness** (eq. 1): the homogeneous system `M z = 0`
//!   with `M_{ij} = d_{i,j}` off-diagonal and `M_{ii} = d_{i,i} - b_i`,
//!   whose kernel is one-dimensional and positive (the Perron–Frobenius
//!   argument of §4.2) — solved exactly over ℚ;
//! - **symmetric communications** (eq. 4): `d_{i,j} |F_j| = d_{j,i}
//!   |F_i|`, solved by ratio propagation along a spanning tree;
//! - **output port awareness** (eq. 3): every fibration is a covering, so
//!   all fibres have the same cardinality — the ray is all-ones.
//!
//! The result is a [`FibreCensus`]: input values with relative
//! multiplicities. Frequencies follow by normalization; exact
//! multiplicities follow when the network size is known (Corollary 4.3)
//! or a known number of leaders breaks the scale invariance (eq. 5,
//! Corollary 4.4).

use crate::min_base::{MinBaseBroadcast, MinBaseOutdegree, MinBasePorts, ViewState};
use crate::views::CandidateBase;
use kya_arith::{BigInt, BigRational, KernelError, QMatrix};
use kya_runtime::{Algorithm, BroadcastAlgorithm, IsotropicAlgorithm};
use std::fmt;

/// Errors from fibre-cardinality solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CensusError {
    /// The kernel of the outdegree system is not a positive ray (should
    /// not happen for genuine minimum bases; indicates bad input).
    Kernel(KernelError),
    /// The base violates the symmetry condition of eq. (4) — the network
    /// was not bidirectional.
    NotSymmetric {
        /// Base vertices whose edge counts violate `d_{i,j} z_j = d_{j,i} z_i`.
        i: usize,
        /// See `i`.
        j: usize,
    },
    /// The requested exact scaling does not divide the recovered ray
    /// (e.g. the claimed network size is not a multiple of the ray total).
    ScaleMismatch,
}

impl fmt::Display for CensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CensusError::Kernel(e) => write!(f, "kernel solve failed: {e}"),
            CensusError::NotSymmetric { i, j } => {
                write!(
                    f,
                    "base edge pair ({i}, {j}) violates the symmetry relation"
                )
            }
            CensusError::ScaleMismatch => write!(f, "scaling constraint has no integer solution"),
        }
    }
}

impl std::error::Error for CensusError {}

impl From<KernelError> for CensusError {
    fn from(e: KernelError) -> Self {
        CensusError::Kernel(e)
    }
}

/// The recovered census: one entry per fibre, with the fibre's (encoded)
/// input value and its cardinality *up to a global factor* (the entries
/// of the ray are coprime, eq. 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FibreCensus {
    values: Vec<u64>,
    ray: Vec<BigInt>,
}

impl FibreCensus {
    /// Build from parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, the census is empty, or some ray entry
    /// is not positive.
    pub fn new(values: Vec<u64>, ray: Vec<BigInt>) -> FibreCensus {
        assert_eq!(values.len(), ray.len(), "one ray entry per fibre");
        assert!(!values.is_empty(), "empty census");
        assert!(ray.iter().all(BigInt::is_positive), "ray must be positive");
        FibreCensus { values, ray }
    }

    /// Fibre values (one per base vertex; distinct fibres may share a
    /// value).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The coprime positive ray of relative fibre cardinalities.
    pub fn ray(&self) -> &[BigInt] {
        &self.ray
    }

    /// Sum of the ray (the size of the canonical representative vector
    /// `⟨ν⟩`).
    fn ray_total(&self) -> BigInt {
        self.ray.iter().sum()
    }

    /// The frequency of each *value* (summing fibres that share a value),
    /// sorted by value. Frequencies sum to 1.
    pub fn frequencies(&self) -> Vec<(u64, BigRational)> {
        let total = self.ray_total();
        let mut acc: std::collections::BTreeMap<u64, BigInt> = std::collections::BTreeMap::new();
        for (v, z) in self.values.iter().zip(&self.ray) {
            let e = acc.entry(*v).or_insert_with(BigInt::zero);
            *e += z;
        }
        acc.into_iter()
            .map(|(v, z)| (v, BigRational::new(z, total.clone())))
            .collect()
    }

    /// Exact multiplicities when the network size `n` is known
    /// (Corollary 4.3): the global factor is `n / Σ ray`, which must be
    /// a positive integer.
    ///
    /// # Errors
    ///
    /// [`CensusError::ScaleMismatch`] if the ray's sum does not divide
    /// `n`.
    pub fn multiplicities_known_n(&self, n: usize) -> Result<Vec<(u64, BigInt)>, CensusError> {
        let total = self.ray_total();
        let n_big = BigInt::from(n);
        let (k, r) = n_big.div_rem(&total);
        if !r.is_zero() || !k.is_positive() {
            return Err(CensusError::ScaleMismatch);
        }
        Ok(self.scaled(&k))
    }

    /// Exact multiplicities when `ell` agents are known to be leaders
    /// (eq. 5, Corollary 4.4): the leader fibres are those whose value
    /// satisfies `is_leader`, and the factor is
    /// `ell / Σ_{leader fibres} z_j`.
    ///
    /// # Errors
    ///
    /// [`CensusError::ScaleMismatch`] if there is no leader fibre or the
    /// division is not exact.
    pub fn multiplicities_with_leaders(
        &self,
        ell: usize,
        is_leader: impl Fn(u64) -> bool,
    ) -> Result<Vec<(u64, BigInt)>, CensusError> {
        let leader_mass: BigInt = self
            .values
            .iter()
            .zip(&self.ray)
            .filter(|(v, _)| is_leader(**v))
            .map(|(_, z)| z)
            .sum();
        if !leader_mass.is_positive() {
            return Err(CensusError::ScaleMismatch);
        }
        let (k, r) = BigInt::from(ell).div_rem(&leader_mass);
        if !r.is_zero() || !k.is_positive() {
            return Err(CensusError::ScaleMismatch);
        }
        Ok(self.scaled(&k))
    }

    fn scaled(&self, k: &BigInt) -> Vec<(u64, BigInt)> {
        let mut acc: std::collections::BTreeMap<u64, BigInt> = std::collections::BTreeMap::new();
        for (v, z) in self.values.iter().zip(&self.ray) {
            let e = acc.entry(*v).or_insert_with(BigInt::zero);
            *e += &(z * k);
        }
        acc.into_iter().collect()
    }

    /// The canonical representative vector `⟨ν⟩` (§2.3): each value
    /// repeated with its ray multiplicity, sorted by value. Any
    /// frequency-based function takes its true value on this vector.
    pub fn canonical_vector(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut pairs: Vec<(u64, &BigInt)> =
            self.values.iter().copied().zip(self.ray.iter()).collect();
        pairs.sort_by_key(|(v, _)| *v);
        for (v, z) in pairs {
            let reps = z.to_u64().expect("census multiplicities fit in u64");
            out.extend(std::iter::repeat_n(v, reps as usize));
        }
        out
    }
}

/// Solve eq. (1) for a candidate base produced under outdegree awareness:
/// `b_i z_i = Σ_j d_{i,j} z_j` with `b_i` the fibre outdegrees (the
/// base's annotations).
///
/// # Errors
///
/// [`CensusError::Kernel`] if the kernel is not a positive line — which
/// the paper proves cannot happen for a genuine minimum base of a
/// strongly connected network.
pub fn census_from_outdegree_base(cb: &CandidateBase) -> Result<FibreCensus, CensusError> {
    let m = cb.graph.n();
    let counts = cb.graph.multiplicity_matrix();
    let mut mat = QMatrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            let d = counts[i][j] as i64;
            let entry = if i == j {
                d - cb.annotations[i] as i64
            } else {
                d
            };
            mat[(i, j)] = BigRational::from_integer(entry);
        }
    }
    let ray = mat.positive_integer_kernel()?;
    Ok(FibreCensus::new(cb.values.clone(), ray))
}

/// Solve eq. (4) for a candidate base of a bidirectional network:
/// `d_{i,j} z_j = d_{j,i} z_i`, by ratio propagation along a BFS tree of
/// the base, then scaling to coprime integers. All pairs are verified.
///
/// # Errors
///
/// [`CensusError::NotSymmetric`] if some pair has `d_{i,j} > 0` but
/// `d_{j,i} == 0`, or the propagated ray violates the relation.
pub fn census_from_symmetric_base(cb: &CandidateBase) -> Result<FibreCensus, CensusError> {
    let m = cb.graph.n();
    let counts = cb.graph.multiplicity_matrix();
    // BFS over the support, propagating z_j = z_i * d_{i,j} / d_{j,i}.
    let mut z: Vec<Option<BigRational>> = vec![None; m];
    z[0] = Some(BigRational::one());
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(i) = queue.pop_front() {
        let zi = z[i].clone().expect("queued vertices are assigned");
        for j in 0..m {
            if counts[i][j] == 0 && counts[j][i] == 0 {
                continue;
            }
            if (counts[i][j] == 0) != (counts[j][i] == 0) {
                return Err(CensusError::NotSymmetric { i, j });
            }
            if z[j].is_none() {
                // eq. (4): d_{i,j} z_j = d_{j,i} z_i.
                let ratio = BigRational::from_i64(counts[j][i] as i64, counts[i][j] as i64);
                z[j] = Some(&zi * &ratio);
                queue.push_back(j);
            }
        }
    }
    let ray_q: Vec<BigRational> = z
        .into_iter()
        .map(|zi| zi.expect("base is strongly connected"))
        .collect();
    // Verify eq. (4) on every pair.
    for i in 0..m {
        for j in 0..m {
            let lhs = &BigRational::from_integer(counts[i][j] as i64) * &ray_q[j];
            let rhs = &BigRational::from_integer(counts[j][i] as i64) * &ray_q[i];
            if lhs != rhs {
                return Err(CensusError::NotSymmetric { i, j });
            }
        }
    }
    // Scale to coprime positive integers via the shared-kernel helper:
    // build a 1 x m matrix whose kernel is exactly the ray's orthogonal
    // complement? Simpler: clear denominators and divide by gcd.
    let denom_lcm = ray_q
        .iter()
        .fold(BigInt::one(), |acc, x| kya_arith::lcm(&acc, x.denom()));
    let ints: Vec<BigInt> = ray_q
        .iter()
        .map(|x| x.numer() * &(&denom_lcm / x.denom()))
        .collect();
    let g = ints
        .iter()
        .fold(BigInt::zero(), |acc, x| kya_arith::gcd(&acc, x));
    let ray = ints.iter().map(|x| x / &g).collect();
    Ok(FibreCensus::new(cb.values.clone(), ray))
}

/// Apply eq. (3) for a candidate base under output port awareness: all
/// fibres have equal cardinality, so the ray is all ones.
pub fn census_from_port_base(cb: &CandidateBase) -> FibreCensus {
    FibreCensus::new(cb.values.clone(), vec![BigInt::one(); cb.graph.n()])
}

// ---------------------------------------------------------------------
// Composed end-to-end algorithms: distributed min base + solver.
// ---------------------------------------------------------------------

/// End-to-end frequency recovery under **outdegree awareness**: the
/// distributed min-base algorithm with the eq. (1) solver applied to each
/// round's candidate. Output stabilizes to the true census by round
/// `n + D`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CensusOutdegree;

impl IsotropicAlgorithm for CensusOutdegree {
    type State = ViewState;
    type Msg = <MinBaseOutdegree as IsotropicAlgorithm>::Msg;
    type Output = Option<FibreCensus>;

    fn message(&self, state: &ViewState, outdegree: usize) -> Self::Msg {
        MinBaseOutdegree.message(state, outdegree)
    }

    fn transition(&self, state: &ViewState, inbox: &[Self::Msg]) -> ViewState {
        MinBaseOutdegree.transition(state, inbox)
    }

    fn output(&self, state: &ViewState) -> Option<FibreCensus> {
        let cb = MinBaseOutdegree.output(state)?;
        census_from_outdegree_base(&cb).ok()
    }
}

/// End-to-end frequency recovery under **symmetric communications**: the
/// broadcast min-base algorithm with the eq. (4) solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct CensusSymmetric;

impl BroadcastAlgorithm for CensusSymmetric {
    type State = ViewState;
    type Msg = <MinBaseBroadcast as BroadcastAlgorithm>::Msg;
    type Output = Option<FibreCensus>;

    fn message(&self, state: &ViewState) -> Self::Msg {
        MinBaseBroadcast.message(state)
    }

    fn transition(&self, state: &ViewState, inbox: &[Self::Msg]) -> ViewState {
        MinBaseBroadcast.transition(state, inbox)
    }

    fn output(&self, state: &ViewState) -> Option<FibreCensus> {
        let cb = MinBaseBroadcast.output(state)?;
        census_from_symmetric_base(&cb).ok()
    }
}

/// End-to-end frequency recovery under **output port awareness**: the
/// port-colored min-base algorithm with the eq. (3) equal-fibres rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct CensusPorts;

impl Algorithm for CensusPorts {
    type State = ViewState;
    type Msg = <MinBasePorts as Algorithm>::Msg;
    type Output = Option<FibreCensus>;

    fn send(&self, state: &ViewState, outdegree: usize) -> Vec<Self::Msg> {
        MinBasePorts.send(state, outdegree)
    }

    fn transition(&self, state: &ViewState, inbox: &[Self::Msg]) -> ViewState {
        MinBasePorts.transition(state, inbox)
    }

    fn output(&self, state: &ViewState) -> Option<FibreCensus> {
        let cb = MinBasePorts.output(state)?;
        Some(census_from_port_base(&cb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, Digraph, StaticGraph};
    use kya_runtime::RunConfig;
    use kya_runtime::{Broadcast, Execution, Isotropic};

    fn big(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn census_basics() {
        let census = FibreCensus::new(vec![10, 20, 10], vec![big(1), big(2), big(3)]);
        assert_eq!(census.ray_total(), big(6));
        let freqs = census.frequencies();
        assert_eq!(
            freqs,
            vec![
                (10, BigRational::from_i64(4, 6)),
                (20, BigRational::from_i64(2, 6)),
            ]
        );
        assert_eq!(census.canonical_vector(), vec![10, 10, 10, 10, 20, 20]);
    }

    #[test]
    fn known_n_scaling() {
        let census = FibreCensus::new(vec![1, 2], vec![big(1), big(2)]);
        assert_eq!(
            census.multiplicities_known_n(9).unwrap(),
            vec![(1, big(3)), (2, big(6))]
        );
        assert_eq!(
            census.multiplicities_known_n(8),
            Err(CensusError::ScaleMismatch)
        );
    }

    #[test]
    fn leader_scaling() {
        // Value 99 marks the leader fibre (size 1 in the ray).
        let census = FibreCensus::new(vec![99, 5], vec![big(1), big(3)]);
        let mult = census.multiplicities_with_leaders(2, |v| v == 99).unwrap();
        assert_eq!(mult, vec![(5, big(6)), (99, big(2))]);
        assert!(census.multiplicities_with_leaders(1, |v| v == 77).is_err());
    }

    #[test]
    fn outdegree_census_on_star() {
        // Star(4): center fibre size 1, leaf fibre size 3.
        let g = generators::star(4);
        let net = StaticGraph::new(g);
        let mut exec = Execution::new(
            Isotropic(CensusOutdegree),
            ViewState::initial(&[7, 3, 3, 3]),
        );
        exec.drive(&net, RunConfig::rounds(10));
        for out in exec.outputs() {
            let census = out.expect("stabilized");
            let freqs = census.frequencies();
            assert_eq!(
                freqs,
                vec![
                    (3, BigRational::from_i64(3, 4)),
                    (7, BigRational::from_i64(1, 4)),
                ]
            );
            // Known n = 4 gives exact multiplicities.
            assert_eq!(
                census.multiplicities_known_n(4).unwrap(),
                vec![(3, big(3)), (7, big(1))]
            );
        }
    }

    #[test]
    fn outdegree_census_on_lifted_base() {
        // Prescribed fibre sizes (2, 3, 4) via a lift; ray must be the
        // coprime version of (2, 3, 4) — itself.
        // Self-loops on the base lift to intra-fibre permutations, which
        // keeps large fibres exit-connected even when their base edges
        // target smaller fibres.
        let base = generators::random_strongly_connected(3, 2, 17).with_self_loops();
        let (g, fibre_of) =
            generators::connected_lift(&base, &[2, 3, 4], 17, 256).expect("connected lift");
        // Distinct values per fibre keep the min base aligned with the lift.
        let values: Vec<u64> = fibre_of.iter().map(|&f| f as u64 * 100).collect();
        let net = StaticGraph::new(g.clone());
        let mut exec = Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values));
        exec.drive(&net, RunConfig::rounds((g.n() * 2 + 10) as u64));
        let census = exec.outputs()[0].clone().expect("stabilized");
        let freqs = census.frequencies();
        assert_eq!(
            freqs,
            vec![
                (0, BigRational::from_i64(2, 9)),
                (100, BigRational::from_i64(3, 9)),
                (200, BigRational::from_i64(4, 9)),
            ]
        );
    }

    #[test]
    fn symmetric_census_on_bidirectional_graphs() {
        // Star is bidirectional: leaf/center frequencies 3/4 and 1/4.
        let g = generators::star(4);
        let net = StaticGraph::new(g);
        let mut exec = Execution::new(
            Broadcast(CensusSymmetric),
            ViewState::initial(&[7, 3, 3, 3]),
        );
        exec.drive(&net, RunConfig::rounds(12));
        for out in exec.outputs() {
            let census = out.expect("stabilized");
            assert_eq!(
                census.frequencies(),
                vec![
                    (3, BigRational::from_i64(3, 4)),
                    (7, BigRational::from_i64(1, 4)),
                ]
            );
        }
    }

    #[test]
    fn symmetric_solver_rejects_directed_base() {
        // A directed ring base (no reciprocal edges) must be rejected.
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 0);
        g.add_edge(1, 1);
        let cb = CandidateBase {
            graph: g,
            values: vec![0, 1],
            annotations: vec![0, 0],
        };
        assert!(matches!(
            census_from_symmetric_base(&cb),
            Err(CensusError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn port_census_all_fibres_equal() {
        // Port-symmetric directed ring of 6 with period-2 values: the
        // port-colored base is R_2 and both fibres have size 3.
        let n = 6;
        let mut g = Digraph::new(n);
        for i in 0..n {
            g.add_edge_with_port(i, (i + 1) % n, Some(0));
            g.add_edge_with_port(i, i, Some(1));
        }
        let values: Vec<u64> = (0..n as u64).map(|v| v % 2).collect();
        let net = StaticGraph::new(g);
        let mut exec = Execution::new(CensusPorts, ViewState::initial(&values));
        exec.drive(&net, RunConfig::rounds(14));
        for out in exec.outputs() {
            let census = out.expect("stabilized");
            assert_eq!(
                census.frequencies(),
                vec![
                    (0, BigRational::from_i64(1, 2)),
                    (1, BigRational::from_i64(1, 2)),
                ]
            );
        }
    }

    #[test]
    fn census_rejects_bad_input() {
        let r = std::panic::catch_unwind(|| FibreCensus::new(vec![1], vec![BigInt::zero()]));
        assert!(r.is_err());
    }
}
