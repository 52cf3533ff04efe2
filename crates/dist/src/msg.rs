//! A thread-backed message-passing world: the MPI-like substrate under the
//! *executed* (as opposed to modeled) distributed MTTKRP.
//!
//! Every rank is a thread; sends are tagged, buffered, and matched out of
//! order, exactly like MPI point-to-point semantics. Collectives are
//! implemented on top of point-to-point so the byte counters measure real
//! wire volume, which the tests compare against the α–β model's volume
//! assumptions.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Packet = (usize, u64, Vec<f64>);

/// Per-rank communication context handed to the rank body.
pub struct RankCtx {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Out-of-order buffer: (from, tag) -> queued payloads.
    pending: HashMap<(usize, u64), Vec<Vec<f64>>>,
    bytes_sent: Arc<AtomicU64>,
}

impl RankCtx {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `data` to rank `to` under `tag` (non-blocking; unbounded
    /// buffering).
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        self.bytes_sent
            .fetch_add((data.len() * 8) as u64, Ordering::Relaxed);
        self.senders[to]
            .send((self.rank, tag, data))
            .expect("receiver alive");
    }

    /// Receives the next message from `from` with `tag`, blocking until it
    /// arrives; other messages are buffered for later matching.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        if let Some(q) = self.pending.get_mut(&(from, tag)) {
            if !q.is_empty() {
                return q.remove(0);
            }
        }
        loop {
            let (f, t, data) = self.receiver.recv().expect("sender alive");
            if f == from && t == tag {
                return data;
            }
            self.pending.entry((f, t)).or_default().push(data);
        }
    }

    /// AllGather within `group` (must contain this rank): returns every
    /// member's contribution, ordered as in `group`. Naive all-to-all
    /// exchange — the byte count is the true total volume.
    pub fn allgather(&mut self, group: &[usize], tag: u64, mine: Vec<f64>) -> Vec<Vec<f64>> {
        debug_assert!(group.contains(&self.rank));
        for &peer in group {
            if peer != self.rank {
                self.send(peer, tag, mine.clone());
            }
        }
        group
            .iter()
            .map(|&peer| {
                if peer == self.rank {
                    mine.clone()
                } else {
                    self.recv(peer, tag)
                }
            })
            .collect()
    }

    /// AllReduce (sum) within `group`: every member returns the
    /// element-wise sum of all contributions.
    pub fn allreduce_sum(&mut self, group: &[usize], tag: u64, mine: Vec<f64>) -> Vec<f64> {
        let parts = self.allgather(group, tag, mine);
        let mut out = vec![0.0; parts[0].len()];
        for p in parts {
            debug_assert_eq!(p.len(), out.len());
            for (o, v) in out.iter_mut().zip(p) {
                *o += v;
            }
        }
        out
    }
}

/// Runs `body` on `p` rank-threads and returns their results in rank
/// order, plus the total bytes sent on the (simulated) wire.
pub fn run_world<F, R>(p: usize, body: F) -> (Vec<R>, u64)
where
    F: Fn(&mut RankCtx) -> R + Sync,
    R: Send,
{
    assert!(p > 0, "world must have at least one rank");
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let bytes = Arc::new(AtomicU64::new(0));

    let results: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| {
                let senders = senders.clone();
                let bytes = Arc::clone(&bytes);
                let body = &body;
                scope.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        size: p,
                        senders,
                        receiver,
                        pending: HashMap::new(),
                        bytes_sent: bytes,
                    };
                    body(&mut ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    });
    let total = bytes.load(Ordering::Relaxed);
    (results, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptp_roundtrip() {
        let (results, bytes) = run_world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0, 2.0, 3.0]);
                0.0
            } else {
                ctx.recv(0, 7).iter().sum::<f64>()
            }
        });
        assert_eq!(results[1], 6.0);
        assert_eq!(bytes, 24);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let (results, _) = run_world(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![10.0]);
                ctx.send(1, 2, vec![20.0]);
                0.0
            } else {
                // receive tag 2 first even though tag 1 arrives first
                let b = ctx.recv(0, 2)[0];
                let a = ctx.recv(0, 1)[0];
                a * 100.0 + b
            }
        });
        assert_eq!(results[1], 1020.0);
    }

    #[test]
    fn allgather_ordering_and_volume() {
        let (results, bytes) = run_world(4, |ctx| {
            let mine = vec![ctx.rank() as f64; 2];
            let all = ctx.allgather(&[0, 1, 2, 3], 5, mine);
            all.iter().map(|v| v[0]).collect::<Vec<f64>>()
        });
        for r in &results {
            assert_eq!(r, &[0.0, 1.0, 2.0, 3.0]);
        }
        // each of 4 ranks sends 2 doubles to 3 peers
        assert_eq!(bytes, 4 * 3 * 16);
    }

    #[test]
    fn allreduce_sums() {
        let (results, _) = run_world(3, |ctx| {
            ctx.allreduce_sum(&[0, 1, 2], 9, vec![ctx.rank() as f64 + 1.0])
        });
        for r in results {
            assert_eq!(r, vec![6.0]);
        }
    }

    #[test]
    fn subgroup_collectives_do_not_interfere() {
        let (results, _) = run_world(4, |ctx| {
            let group: Vec<usize> = if ctx.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            ctx.allreduce_sum(&group, 3, vec![ctx.rank() as f64])[0]
        });
        assert_eq!(results, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn single_rank_world() {
        let (results, bytes) = run_world(1, |ctx| ctx.allreduce_sum(&[0], 0, vec![42.0])[0]);
        assert_eq!(results, vec![42.0]);
        assert_eq!(bytes, 0);
    }
}
