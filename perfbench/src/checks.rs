//! Output checks, computed apart from the program: every expectation here
//! comes from the inputs the benchmark generated, never from the
//! program's own bookkeeping.

use std::collections::HashSet;
use std::fmt;

/// Why an observed delivery sequence is not the expected one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqFault {
    /// An expected mark never arrived.
    Missing(i64),
    /// A mark arrived twice.
    Duplicate(i64),
    /// A mark arrived after a later-published one.
    Reordered {
        /// The mark delivered before it.
        after: i64,
        /// The out-of-order mark.
        got: i64,
    },
    /// A mark arrived that was never due.
    Unexpected(i64),
}

impl fmt::Display for SeqFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqFault::Missing(m) => write!(f, "mark {m} was due but never delivered"),
            SeqFault::Duplicate(m) => write!(f, "mark {m} delivered twice"),
            SeqFault::Reordered { after, got } => {
                write!(f, "mark {got} delivered after later mark {after}")
            }
            SeqFault::Unexpected(m) => write!(f, "mark {m} delivered but not due"),
        }
    }
}

/// Checks that `observed` is exactly `expected`: every due mark once, in
/// publish order, nothing else. `expected` must be strictly increasing
/// (marks are numbered in publish order).
pub fn check_exact_sequence(expected: &[i64], observed: &[i64]) -> Result<(), SeqFault> {
    debug_assert!(expected.windows(2).all(|w| w[0] < w[1]), "expected marks in publish order");
    let due: HashSet<i64> = expected.iter().copied().collect();
    let mut seen = HashSet::with_capacity(observed.len());
    let mut last: Option<i64> = None;
    for &m in observed {
        if !seen.insert(m) {
            return Err(SeqFault::Duplicate(m));
        }
        if !due.contains(&m) {
            return Err(SeqFault::Unexpected(m));
        }
        if let Some(prev) = last {
            if m < prev {
                return Err(SeqFault::Reordered { after: prev, got: m });
            }
        }
        last = Some(m);
    }
    // No duplicates, nothing unexpected, increasing: `observed` is a
    // subsequence of `expected`, so equal lengths mean equality.
    match expected.iter().find(|m| !seen.contains(m)) {
        Some(m) => Err(SeqFault::Missing(*m)),
        None => Ok(()),
    }
}

/// Why the churner's delivery log contradicts the churn loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnFault {
    /// A cycle the benchmark saw become effective left no delivery in the
    /// client's log.
    Lost {
        /// The cycle (topic index).
        cycle: usize,
    },
    /// A probe was delivered twice, out of publish order, or never
    /// published.
    Sequence(SeqFault),
    /// A probe for a retired topic, published after the loop, was
    /// delivered.
    Retired {
        /// The probe's mark.
        probe: i64,
    },
}

impl fmt::Display for ChurnFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnFault::Lost { cycle } => {
                write!(f, "cycle {cycle} became effective but its delivery is missing from the log")
            }
            ChurnFault::Sequence(s) => write!(f, "probe sequence: {s}"),
            ChurnFault::Retired { probe } => {
                write!(f, "probe {probe} for a retired topic was delivered")
            }
        }
    }
}

/// The probes one churn round published, in publish order.
#[derive(Debug, Default, Clone)]
pub struct ProbeLog {
    /// `(mark, cycle)` of every probe, marks strictly increasing.
    pub probes: Vec<(i64, usize)>,
    /// Marks at or above this were published after the loop, to topics
    /// already retired: none of them may be delivered.
    pub retired_from: i64,
}

/// Checks a churn round. `effective[c]` says whether the benchmark saw
/// cycle `c`'s subscription deliver within the timeout; `observed` is the
/// client's delivery log (probe marks, in delivery order). Probes of one
/// cycle may legitimately arrive more than once only as distinct marks
/// (probes still in flight when the cycle ended), so the log must be a
/// duplicate-free, order-preserving subsequence of the published probes,
/// hold at least one probe of every effective cycle, and no retired probe.
pub fn check_churn(log: &ProbeLog, effective: &[bool], observed: &[i64]) -> Result<(), ChurnFault> {
    let published: std::collections::HashMap<i64, usize> = log.probes.iter().copied().collect();
    let mut seen = HashSet::with_capacity(observed.len());
    let mut last: Option<i64> = None;
    let mut delivered_cycle = vec![false; effective.len()];
    for &m in observed {
        if !seen.insert(m) {
            return Err(ChurnFault::Sequence(SeqFault::Duplicate(m)));
        }
        let Some(&cycle) = published.get(&m) else {
            return Err(ChurnFault::Sequence(SeqFault::Unexpected(m)));
        };
        if let Some(prev) = last {
            if m < prev {
                return Err(ChurnFault::Sequence(SeqFault::Reordered { after: prev, got: m }));
            }
        }
        last = Some(m);
        if m >= log.retired_from {
            return Err(ChurnFault::Retired { probe: m });
        }
        if let Some(d) = delivered_cycle.get_mut(cycle) {
            *d = true;
        }
    }
    match effective.iter().zip(&delivered_cycle).position(|(e, d)| *e && !*d) {
        Some(cycle) => Err(ChurnFault::Lost { cycle }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sequence_accepts_the_expected_stream() {
        assert_eq!(check_exact_sequence(&[1, 4, 9], &[1, 4, 9]), Ok(()));
        assert_eq!(check_exact_sequence(&[], &[]), Ok(()));
    }

    #[test]
    fn exact_sequence_catches_loss_duplicate_reorder_and_strays() {
        let due = [0, 2, 4, 6];
        assert_eq!(check_exact_sequence(&due, &[0, 2, 6]), Err(SeqFault::Missing(4)));
        assert_eq!(check_exact_sequence(&due, &[0, 2, 2, 4, 6]), Err(SeqFault::Duplicate(2)));
        assert_eq!(
            check_exact_sequence(&due, &[0, 4, 2, 6]),
            Err(SeqFault::Reordered { after: 4, got: 2 })
        );
        assert_eq!(check_exact_sequence(&due, &[0, 1, 2, 4, 6]), Err(SeqFault::Unexpected(1)));
    }

    fn churn_log() -> ProbeLog {
        // Cycle 0: probes 0..3, cycle 1: probes 3..5, then retired probes.
        ProbeLog {
            probes: vec![(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 0), (6, 1)],
            retired_from: 5,
        }
    }

    #[test]
    fn churn_check_accepts_a_clean_log() {
        // Cycle 0 took effect at probe 1; probe 2 was still in flight.
        assert_eq!(check_churn(&churn_log(), &[true, true], &[1, 2, 4]), Ok(()));
        // A cycle that timed out need not appear.
        assert_eq!(check_churn(&churn_log(), &[true, false], &[1]), Ok(()));
    }

    #[test]
    fn churn_check_catches_loss_duplicate_reorder_and_retired() {
        let log = churn_log();
        assert_eq!(check_churn(&log, &[true, true], &[1, 2]), Err(ChurnFault::Lost { cycle: 1 }));
        assert_eq!(
            check_churn(&log, &[true, true], &[1, 1, 4]),
            Err(ChurnFault::Sequence(SeqFault::Duplicate(1)))
        );
        assert_eq!(
            check_churn(&log, &[true, true], &[4, 1]),
            Err(ChurnFault::Sequence(SeqFault::Reordered { after: 4, got: 1 }))
        );
        assert_eq!(
            check_churn(&log, &[true, true], &[1, 4, 6]),
            Err(ChurnFault::Retired { probe: 6 })
        );
        assert_eq!(
            check_churn(&log, &[true, true], &[1, 4, 99]),
            Err(ChurnFault::Sequence(SeqFault::Unexpected(99)))
        );
    }
}
