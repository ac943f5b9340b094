//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes everything that can go wrong on the wire:
//! per-link probabilistic drops, duplicates, reorders and latency jitter,
//! plus *windowed* faults — link partitions and rank kills active during a
//! time interval measured from engine start. Probabilistic decisions are a
//! pure function of `(seed, src, dst, link sequence number)`, hashed with a
//! splitmix64-style finalizer, so the fault *schedule* of a run is fully
//! replayable from the seed regardless of thread interleaving: the Nth
//! message from rank `s` to rank `d` suffers exactly the same fate in every
//! run (DESIGN.md §2.9).

use std::time::Duration;

use crate::message::Rank;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A link partition: traffic crossing the cut between `ranks` and everyone
/// else is dropped while the window is open.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Ranks on one side of the cut.
    pub ranks: Vec<Rank>,
    /// Window start, measured from engine start.
    pub from: Duration,
    /// Window end (exclusive), measured from engine start.
    pub until: Duration,
}

/// A rank failure at a point in time. With an `outage`, the rank "reboots"
/// after the window (a transient kill: all its traffic is dropped while
/// down, and reliable transports retry through the outage). Without one,
/// the rank stays dead and senders eventually report it unreachable.
#[derive(Debug, Clone, Copy)]
pub struct RankKill {
    /// The rank that dies.
    pub rank: Rank,
    /// When it dies, measured from engine start.
    pub at: Duration,
    /// How long it stays down; `None` means forever.
    pub outage: Option<Duration>,
}

/// What a [`FaultPlan`] decided for one message (pure, replayable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Silently discard the message.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Allow this message to overtake earlier traffic on its link.
    pub reorder: bool,
    /// Extra in-flight delay, ns.
    pub jitter_ns: u64,
    /// Extra in-flight delay for the duplicate copy, ns.
    pub dup_jitter_ns: u64,
}

/// A seeded, replayable description of network misbehaviour.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Per-message drop probability.
    pub drop_p: f64,
    /// Per-message duplication probability.
    pub dup_p: f64,
    /// Per-message probability of escaping the per-link FIFO clamp.
    pub reorder_p: f64,
    /// Maximum extra latency added to each message (uniform in `[0, jitter]`).
    pub jitter: Duration,
    /// Windowed link partitions.
    pub partitions: Vec<Partition>,
    /// Windowed or permanent rank kills.
    pub kills: Vec<RankKill>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to measure plumbing overhead).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with a seed; chain the builder methods to arm faults.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-message drop probability.
    pub fn drop_p(mut self, p: f64) -> FaultPlan {
        self.drop_p = p;
        self
    }

    /// Sets the per-message duplication probability.
    pub fn dup_p(mut self, p: f64) -> FaultPlan {
        self.dup_p = p;
        self
    }

    /// Sets the per-message reorder probability.
    pub fn reorder_p(mut self, p: f64) -> FaultPlan {
        self.reorder_p = p;
        self
    }

    /// Sets the maximum latency jitter.
    pub fn jitter(mut self, jitter: Duration) -> FaultPlan {
        self.jitter = jitter;
        self
    }

    /// Adds a partition window isolating `ranks` from everyone else.
    pub fn partition(mut self, ranks: Vec<Rank>, from: Duration, until: Duration) -> FaultPlan {
        self.partitions.push(Partition { ranks, from, until });
        self
    }

    /// Adds a rank kill at `at`; `outage` is the reboot delay (`None` =
    /// permanent).
    pub fn kill(mut self, rank: Rank, at: Duration, outage: Option<Duration>) -> FaultPlan {
        self.kills.push(RankKill { rank, at, outage });
        self
    }

    /// True when the plan can actually perturb traffic. The delivery engine
    /// drops an inactive plan, so such a run skips the per-link fault
    /// decisions entirely; the reliable layer above runs the same path
    /// either way.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.reorder_p > 0.0
            || !self.jitter.is_zero()
            || !self.partitions.is_empty()
            || !self.kills.is_empty()
    }

    /// True when the plan may deliver traffic out of per-link order (the
    /// engine then skips its FIFO clamp and a reliable layer must resequence).
    pub fn reorders(&self) -> bool {
        self.reorder_p > 0.0 || !self.jitter.is_zero()
    }

    /// The fate of the `seq`-th message sent from `src` to `dst`. Pure:
    /// identical inputs give identical decisions in every run.
    pub fn decide(&self, src: Rank, dst: Rank, seq: u64) -> FaultDecision {
        let link = ((src as u64) << 32) | dst as u64;
        let base = mix(self.seed ^ mix(link) ^ seq.wrapping_mul(0xa076_1d64_78bd_642f));
        let jitter_ns = self.jitter.as_nanos() as u64;
        FaultDecision {
            drop: unit(mix(base ^ 0x01)) < self.drop_p,
            duplicate: unit(mix(base ^ 0x02)) < self.dup_p,
            reorder: unit(mix(base ^ 0x03)) < self.reorder_p,
            jitter_ns: if jitter_ns == 0 {
                0
            } else {
                mix(base ^ 0x04) % jitter_ns
            },
            dup_jitter_ns: if jitter_ns == 0 {
                0
            } else {
                mix(base ^ 0x05) % jitter_ns
            },
        }
    }

    /// True when the `src -> dst` link is severed at `elapsed_ns` (from
    /// engine start) by a partition window or a killed endpoint.
    pub fn link_down(&self, src: Rank, dst: Rank, elapsed_ns: u64) -> bool {
        for p in &self.partitions {
            if (p.from.as_nanos() as u64..p.until.as_nanos() as u64).contains(&elapsed_ns) {
                let a = p.ranks.contains(&src);
                let b = p.ranks.contains(&dst);
                if a != b {
                    return true;
                }
            }
        }
        for k in &self.kills {
            if src != k.rank && dst != k.rank {
                continue;
            }
            let at = k.at.as_nanos() as u64;
            let down = match k.outage {
                Some(d) => (at..at + d.as_nanos() as u64).contains(&elapsed_ns),
                None => elapsed_ns >= at,
            };
            if down {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!(!p.reorders());
        for seq in 0..100 {
            assert_eq!(p.decide(0, 1, seq), FaultDecision::default());
        }
        assert!(!p.link_down(0, 1, 0));
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = FaultPlan::seeded(7)
            .drop_p(0.3)
            .dup_p(0.2)
            .jitter(Duration::from_micros(50));
        let b = a.clone();
        for seq in 0..1000 {
            assert_eq!(a.decide(1, 2, seq), b.decide(1, 2, seq));
        }
        // A different seed gives a different schedule.
        let c = FaultPlan::seeded(8)
            .drop_p(0.3)
            .dup_p(0.2)
            .jitter(Duration::from_micros(50));
        let differs = (0..1000).any(|seq| a.decide(1, 2, seq) != c.decide(1, 2, seq));
        assert!(differs);
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let p = FaultPlan::seeded(42).drop_p(0.25);
        let drops = (0..10_000).filter(|&s| p.decide(0, 1, s).drop).count();
        assert!(
            (2000..3000).contains(&drops),
            "25% of 10k should drop ~2500, got {}",
            drops
        );
    }

    #[test]
    fn links_are_independent_streams() {
        let p = FaultPlan::seeded(5).drop_p(0.5);
        let a: Vec<bool> = (0..200).map(|s| p.decide(0, 1, s).drop).collect();
        let b: Vec<bool> = (0..200).map(|s| p.decide(1, 0, s).drop).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn partition_window_cuts_only_crossing_traffic() {
        let p = FaultPlan::seeded(0).partition(
            vec![0, 1],
            Duration::from_millis(10),
            Duration::from_millis(20),
        );
        let inside = 15_000_000;
        assert!(p.link_down(0, 2, inside));
        assert!(p.link_down(2, 1, inside));
        assert!(!p.link_down(0, 1, inside), "same-side traffic flows");
        assert!(!p.link_down(2, 3, inside));
        assert!(!p.link_down(0, 2, 5_000_000), "before window");
        assert!(!p.link_down(0, 2, 25_000_000), "after window");
    }

    #[test]
    fn transient_and_permanent_kills() {
        let p = FaultPlan::seeded(0)
            .kill(1, Duration::from_millis(5), Some(Duration::from_millis(10)))
            .kill(3, Duration::from_millis(5), None);
        assert!(!p.link_down(0, 1, 1_000_000));
        assert!(p.link_down(0, 1, 7_000_000));
        assert!(p.link_down(1, 0, 7_000_000));
        assert!(!p.link_down(0, 1, 20_000_000), "rank 1 rebooted");
        assert!(p.link_down(0, 3, 20_000_000), "rank 3 stays dead");
    }
}
