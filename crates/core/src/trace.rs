//! Simulation traces.
//!
//! Paper §3.3: *"Following simulation, an output trace shows the modified
//! PHVs and the state vectors. … Assertions check the equivalence of the
//! output traces to determine if the behaviors of the Druzhba pipeline and
//! the specification match."*

use std::fmt;

use crate::phv::Phv;
use crate::value::Value;

/// Final switch-state snapshot: `state[stage][slot]` is the state-variable
/// vector of the stateful ALU at that grid position.
pub type StateSnapshot = Vec<Vec<Vec<Value>>>;

/// A sequence of PHVs, used both as pipeline input (from the traffic
/// generator) and as output (after simulation), optionally with the final
/// state snapshot attached.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// PHVs in entry (or exit) order.
    pub phvs: Vec<Phv>,
    /// Final state of every stateful ALU, if recorded.
    pub state: Option<StateSnapshot>,
}

impl Trace {
    /// A trace of PHVs with no state snapshot.
    pub fn from_phvs(phvs: Vec<Phv>) -> Self {
        Trace { phvs, state: None }
    }

    /// Number of PHVs.
    pub fn len(&self) -> usize {
        self.phvs.len()
    }

    /// True if the trace holds no PHVs.
    pub fn is_empty(&self) -> bool {
        self.phvs.is_empty()
    }

    /// The first `len` PHVs as a new trace (no state snapshot). Used by
    /// counterexample minimization: a prefix of a failing input trace is
    /// the cheapest reduction candidate.
    pub fn prefix(&self, len: usize) -> Trace {
        Trace::from_phvs(self.phvs.iter().take(len).cloned().collect())
    }

    /// Compare against another trace on the given container indices only.
    ///
    /// The compiler allocates a subset of PHV containers to program-visible
    /// packet fields; scratch containers are free to differ, so equivalence
    /// is asserted only on the observable ones. Passing `None` compares all
    /// containers.
    ///
    /// Returns the first mismatch found, or `None` if equivalent.
    pub fn first_mismatch(
        &self,
        other: &Trace,
        observable: Option<&[usize]>,
    ) -> Option<TraceMismatch> {
        if self.phvs.len() != other.phvs.len() {
            return Some(TraceMismatch::LengthMismatch {
                expected: self.phvs.len(),
                actual: other.phvs.len(),
            });
        }
        self.phvs
            .iter()
            .zip(&other.phvs)
            .enumerate()
            .find_map(|(tick, (a, b))| phv_mismatch(tick, a, b.containers(), observable))
    }
}

/// Compare one expected PHV against the containers of one actual PHV:
/// the per-tick step of [`Trace::first_mismatch`], also called directly by
/// comparators whose actual outputs are not a [`Trace`]. `observable`
/// names the compared containers; `None` compares every container of
/// either PHV. Returns the first differing container as a
/// [`TraceMismatch::ContainerMismatch`] at `tick`.
pub fn phv_mismatch(
    tick: usize,
    expected: &Phv,
    actual: &[Value],
    observable: Option<&[usize]>,
) -> Option<TraceMismatch> {
    let differs = |&c: &usize| expected.try_get(c) != actual.get(c).copied();
    let container = match observable {
        Some(idx) => idx.iter().copied().find(differs),
        None => (0..expected.len().max(actual.len())).find(differs),
    }?;
    Some(TraceMismatch::ContainerMismatch {
        tick,
        container,
        expected: expected.try_get(container),
        actual: actual.get(container).copied(),
    })
}

/// A divergence between an expected and an actual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMismatch {
    /// The traces hold different numbers of PHVs.
    LengthMismatch { expected: usize, actual: usize },
    /// A container value differs at a given tick.
    ContainerMismatch {
        /// Index of the diverging PHV within the trace.
        tick: usize,
        /// Diverging container index.
        container: usize,
        /// Expected value (`None` if the container does not exist).
        expected: Option<Value>,
        /// Actual value (`None` if the container does not exist).
        actual: Option<Value>,
    },
    /// Final state differs at a given stateful ALU.
    StateMismatch {
        stage: usize,
        slot: usize,
        expected: Vec<Value>,
        actual: Vec<Value>,
    },
}

impl TraceMismatch {
    /// The tick at which the divergence occurs, when it is tick-specific
    /// (state mismatches are observed only after the whole trace).
    /// Counterexample minimization truncates the failing trace here.
    pub fn tick(&self) -> Option<usize> {
        match self {
            TraceMismatch::ContainerMismatch { tick, .. } => Some(*tick),
            _ => None,
        }
    }
}

impl fmt::Display for TraceMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceMismatch::LengthMismatch { expected, actual } => {
                write!(f, "trace lengths differ: expected {expected}, got {actual}")
            }
            TraceMismatch::ContainerMismatch {
                tick,
                container,
                expected,
                actual,
            } => write!(
                f,
                "PHV {tick} container {container}: expected {expected:?}, got {actual:?}"
            ),
            TraceMismatch::StateMismatch {
                stage,
                slot,
                expected,
                actual,
            } => write!(
                f,
                "stateful ALU ({stage},{slot}) final state: expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rows: &[&[Value]]) -> Trace {
        Trace::from_phvs(rows.iter().map(|r| Phv::new(r.to_vec())).collect())
    }

    #[test]
    fn identical_traces_match() {
        let a = trace(&[&[1, 2], &[3, 4]]);
        let b = trace(&[&[1, 2], &[3, 4]]);
        assert_eq!(a.first_mismatch(&b, None), None);
    }

    #[test]
    fn length_mismatch_detected() {
        let a = trace(&[&[1]]);
        let b = trace(&[&[1], &[2]]);
        assert_eq!(
            a.first_mismatch(&b, None),
            Some(TraceMismatch::LengthMismatch {
                expected: 1,
                actual: 2
            })
        );
    }

    #[test]
    fn container_mismatch_reports_location() {
        let a = trace(&[&[1, 2], &[3, 4]]);
        let b = trace(&[&[1, 2], &[3, 9]]);
        assert_eq!(
            a.first_mismatch(&b, None),
            Some(TraceMismatch::ContainerMismatch {
                tick: 1,
                container: 1,
                expected: Some(4),
                actual: Some(9)
            })
        );
    }

    #[test]
    fn observable_subset_ignores_scratch_containers() {
        let a = trace(&[&[1, 100]]);
        let b = trace(&[&[1, 200]]);
        // Container 1 is scratch; only container 0 is observable.
        assert_eq!(a.first_mismatch(&b, Some(&[0])), None);
        assert!(a.first_mismatch(&b, Some(&[1])).is_some());
    }

    #[test]
    fn differing_phv_lengths_detected_when_compared() {
        let a = trace(&[&[1, 2]]);
        let b = trace(&[&[1]]);
        assert_eq!(
            a.first_mismatch(&b, None),
            Some(TraceMismatch::ContainerMismatch {
                tick: 0,
                container: 1,
                expected: Some(2),
                actual: None
            })
        );
        assert_eq!(
            b.first_mismatch(&a, None),
            Some(TraceMismatch::ContainerMismatch {
                tick: 0,
                container: 1,
                expected: None,
                actual: Some(2)
            })
        );
    }

    #[test]
    fn prefix_takes_leading_phvs() {
        let a = trace(&[&[1], &[2], &[3]]);
        assert_eq!(a.prefix(2), trace(&[&[1], &[2]]));
        assert_eq!(a.prefix(0).len(), 0);
        assert_eq!(a.prefix(9), a);
    }

    #[test]
    fn mismatch_tick_is_container_specific() {
        let m = TraceMismatch::ContainerMismatch {
            tick: 3,
            container: 0,
            expected: Some(1),
            actual: Some(2),
        };
        assert_eq!(m.tick(), Some(3));
        let s = TraceMismatch::StateMismatch {
            stage: 0,
            slot: 0,
            expected: vec![],
            actual: vec![],
        };
        assert_eq!(s.tick(), None);
    }

    #[test]
    fn mismatch_display_is_readable() {
        let m = TraceMismatch::ContainerMismatch {
            tick: 5,
            container: 2,
            expected: Some(7),
            actual: Some(8),
        };
        let s = m.to_string();
        assert!(s.contains("PHV 5"));
        assert!(s.contains("container 2"));
    }
}
