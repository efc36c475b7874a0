//! The §5.1 atomic broadcast check at benchmark scale.
//!
//! [`AbcastChecker`] is exact but quadratic (validity and agreement scan
//! delivery lists per message, total order compares every pair of
//! stacks), which is minutes at 10⁵ broadcasts or 10³ stacks. The
//! benchmark therefore feeds it an exact reduction of the run:
//!
//! 1. every delivered message gets a reference index (first-seen order
//!    over all stacks), and messages are cut into chunks of [`CHUNK`]
//!    consecutive indices;
//! 2. each stack's sequence must visit the chunks in non-decreasing
//!    order — then two messages of different chunks are delivered in
//!    the same relative order everywhere, so total order across chunks
//!    holds;
//! 3. within a chunk, stacks whose restricted sequences are identical
//!    are represented by one of them (identical sequences cannot
//!    disagree on order, agreement or integrity), and the checker runs
//!    on the representatives with every broadcast of the chunk, its
//!    sender mapped to its representative.
//!
//! A violation anywhere in the run therefore shows up as a violation of
//! one chunk or as a chunk-order regression. Messages that missed some
//! stack by the drain deadline are the workload's failed operations:
//! their validity/agreement reports are expected and counted, not
//! fatal; everything else is.

use dpu_core::abcast_check::{AbcastChecker, AbcastViolation, MsgId};
use dpu_core::time::Time;
use dpu_core::StackId;
use std::collections::{HashMap, HashSet};

/// Messages per checked chunk.
pub const CHUNK: usize = 256;

/// Result of [`check`].
#[derive(Debug, Default)]
pub struct Verdict {
    /// Broadcasts issued.
    pub attempted: u64,
    /// Broadcasts not delivered at every stack.
    pub failed: HashSet<MsgId>,
    /// Property violations other than the failed operations' own.
    pub violations: Vec<String>,
}

/// Check a finished run: `broadcasts` as `(message, sender, send time)`,
/// `deliveries[i]` the messages stack `stacks[i]` delivered, in order.
pub fn check(
    stacks: &[StackId],
    broadcasts: &[(MsgId, StackId, Time)],
    deliveries: &[Vec<MsgId>],
) -> Verdict {
    let mut v = Verdict { attempted: broadcasts.len() as u64, ..Verdict::default() };
    let mut index: HashMap<MsgId, usize> = HashMap::new();
    let mut copies: HashMap<MsgId, usize> = HashMap::new();
    for seq in deliveries {
        for m in seq {
            let next = index.len();
            index.entry(*m).or_insert(next);
            *copies.entry(*m).or_insert(0) += 1;
        }
    }
    for (m, _, _) in broadcasts {
        if copies.get(m).copied().unwrap_or(0) < stacks.len() {
            v.failed.insert(*m);
        }
    }
    let chunks = index.len().div_ceil(CHUNK);
    let chunk_of = |m: &MsgId| index[m] / CHUNK;

    // Each stack's sequence, split at chunk boundaries.
    let mut segments: Vec<Vec<&[MsgId]>> = vec![Vec::new(); chunks];
    for (si, seq) in deliveries.iter().enumerate() {
        let mut start = 0;
        let mut last = 0;
        for (k, m) in seq.iter().enumerate() {
            let c = chunk_of(m);
            if c < last {
                v.violations.push(format!(
                    "total order: stack {} delivers {m:?} (chunk {c}) after chunk {last}",
                    stacks[si]
                ));
                return v;
            }
            if c != last {
                segments[last].push(&seq[start..k]);
                for seg in segments.iter_mut().take(c).skip(last + 1) {
                    seg.push(&[]);
                }
                start = k;
                last = c;
            }
        }
        if chunks > 0 {
            segments[last].push(&seq[start..]);
            for seg in segments.iter_mut().skip(last + 1) {
                seg.push(&[]);
            }
        }
    }

    // A broadcast delivered nowhere is already a failed op, with nothing
    // to order.
    let mut by_chunk: Vec<Vec<(MsgId, StackId, Time)>> = vec![Vec::new(); chunks];
    for b in broadcasts {
        if let Some(i) = index.get(&b.0) {
            by_chunk[i / CHUNK].push(*b);
        }
    }

    let slot: HashMap<StackId, usize> = stacks.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    for (c, segs) in segments.iter().enumerate() {
        let mut rep_of_seq: HashMap<&[MsgId], usize> = HashMap::new();
        let mut rep: Vec<usize> = Vec::with_capacity(stacks.len());
        for (si, seg) in segs.iter().enumerate() {
            rep.push(*rep_of_seq.entry(seg).or_insert(si));
        }
        let reps: Vec<usize> = {
            let mut r: Vec<usize> = rep_of_seq.values().copied().collect();
            r.sort_unstable();
            r
        };
        let mut checker = AbcastChecker::new(reps.iter().map(|&si| stacks[si]));
        for (m, sender, t) in &by_chunk[c] {
            let Some(&si) = slot.get(sender) else {
                v.violations.push(format!("broadcast {m:?} from unknown stack {sender}"));
                continue;
            };
            checker.record_broadcast(*m, stacks[rep[si]], *t);
        }
        for &si in &reps {
            for m in segs[si] {
                checker.record_delivery(*m, stacks[si], Time::ZERO);
            }
        }
        for viol in checker.check() {
            let expected = match &viol {
                AbcastViolation::Validity { msg } | AbcastViolation::Agreement { msg, .. } => {
                    v.failed.contains(msg)
                }
                _ => false,
            };
            if !expected {
                v.violations.push(viol.to_string());
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(order: &[Vec<u64>], sent: &[u64]) -> Verdict {
        let stacks: Vec<StackId> = (0..order.len() as u32).map(StackId).collect();
        let msg = |k: u64| (StackId((k % order.len() as u64) as u32), k);
        let broadcasts: Vec<_> = sent.iter().map(|&k| (msg(k), msg(k).0, Time::ZERO)).collect();
        let deliveries: Vec<Vec<MsgId>> =
            order.iter().map(|seq| seq.iter().map(|&k| msg(k)).collect()).collect();
        check(&stacks, &broadcasts, &deliveries)
    }

    #[test]
    fn identical_sequences_pass() {
        let seq: Vec<u64> = (0..2000).collect();
        let v = run(&[seq.clone(), seq.clone(), seq], &(0..2000).collect::<Vec<_>>());
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert!(v.failed.is_empty());
        assert_eq!(v.attempted, 2000);
    }

    #[test]
    fn swap_within_and_across_chunks_is_caught() {
        let seq: Vec<u64> = (0..1000).collect();
        for (a, b) in [(10, 11), (CHUNK - 1, CHUNK), (3, 900)] {
            let mut other = seq.clone();
            other.swap(a, b);
            let v = run(&[seq.clone(), other], &seq);
            assert!(!v.violations.is_empty(), "swap {a}<->{b} missed");
        }
    }

    #[test]
    fn duplicate_and_spurious_deliveries_are_caught() {
        let seq: Vec<u64> = (0..600).collect();
        let mut dup = seq.clone();
        dup.insert(300, 299);
        assert!(!run(&[seq.clone(), dup], &seq).violations.is_empty());
        let mut spurious = seq.clone();
        spurious.push(5000);
        let both = vec![spurious.clone(), spurious];
        assert!(!run(&both, &seq).violations.is_empty());
    }

    #[test]
    fn missing_delivery_is_a_failed_op_not_a_violation() {
        let seq: Vec<u64> = (0..600).collect();
        let mut short = seq.clone();
        short.remove(400);
        let v = run(&[seq.clone(), short], &(0..601).collect::<Vec<_>>());
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert_eq!(v.failed.len(), 2, "one missed at a stack, one never delivered");
    }
}
