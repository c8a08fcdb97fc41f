//! Library counters read through public accessors before and after the timed
//! ops of a rep, summed over every rank's VCIs, and the per-op figures made of them.

use rankmpi_core::universe::UniverseShared;

/// One reading of every counter the per-layer ledger uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `ProcShared::notify().version()`.
    pub notifies: u64,
    /// `Vci::polls`.
    pub polls: u64,
    /// `Vci::lock_acquires` / `lock_acquires_contended`.
    pub lock_acquires: u64,
    pub lock_contended: u64,
    /// `Vci::lock_hold_stats().sum()`: virtual ns the engine lock was held.
    pub lock_hold_sim_ns: u64,
    /// `Vci::doorbells` / `doorbells_coalesced`; their sum is the number of
    /// messages that took the NIC path.
    pub doorbells: u64,
    pub doorbells_coalesced: u64,
    /// `Vci::match_scanned` / `matched`.
    pub match_scanned: u64,
    pub matched: u64,
    /// `Mailbox::ring_pushes` / `ring_spills`.
    pub ring_pushes: u64,
    pub ring_spills: u64,
    /// `PayloadPool::reuses` / `fresh_allocs`.
    pub arena_reuses: u64,
    pub arena_fresh: u64,
    /// `HwContext::gate_contention`, virtual ns.
    pub gate_contention_sim_ns: u64,
}

impl Counters {
    /// Read every counter of every rank of `uni`. Exact only while the
    /// ranks are quiescent (rank 0 reads between reps).
    pub fn read(uni: &UniverseShared) -> Counters {
        let mut c = Counters::default();
        for rank in 0..uni.n_procs() {
            let proc = uni.proc(rank);
            c.notifies += proc.notify().version();
            for id in 0..proc.num_vcis() {
                let vci = proc.vci(id);
                c.polls += vci.polls();
                c.lock_acquires += vci.lock_acquires();
                c.lock_contended += vci.lock_acquires_contended();
                c.lock_hold_sim_ns += vci.lock_hold_stats().sum();
                c.doorbells += vci.doorbells();
                c.doorbells_coalesced += vci.doorbells_coalesced();
                c.match_scanned += vci.match_scanned();
                c.matched += vci.matched();
                c.ring_pushes += vci.mailbox().ring_pushes();
                c.ring_spills += vci.mailbox().ring_spills();
                c.arena_reuses += vci.payload_pool().reuses();
                c.arena_fresh += vci.payload_pool().fresh_allocs();
                c.gate_contention_sim_ns += vci.hw_context().gate_contention().0;
            }
        }
        c
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            notifies: f(self.notifies, o.notifies),
            polls: f(self.polls, o.polls),
            lock_acquires: f(self.lock_acquires, o.lock_acquires),
            lock_contended: f(self.lock_contended, o.lock_contended),
            lock_hold_sim_ns: f(self.lock_hold_sim_ns, o.lock_hold_sim_ns),
            doorbells: f(self.doorbells, o.doorbells),
            doorbells_coalesced: f(self.doorbells_coalesced, o.doorbells_coalesced),
            match_scanned: f(self.match_scanned, o.match_scanned),
            matched: f(self.matched, o.matched),
            ring_pushes: f(self.ring_pushes, o.ring_pushes),
            ring_spills: f(self.ring_spills, o.ring_spills),
            arena_reuses: f(self.arena_reuses, o.arena_reuses),
            arena_fresh: f(self.arena_fresh, o.arena_fresh),
            gate_contention_sim_ns: f(self.gate_contention_sim_ns, o.gate_contention_sim_ns),
        }
    }

    /// What was counted since the reading `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        self.zip(before, |now, then| now - then)
    }

    /// The sum of two deltas.
    pub fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }
}

/// `num / den` for per-op figures and shares; 0 when `den` is 0 (no ops ran,
/// or the layer was not used).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_per_op_figures() {
        let before = Counters {
            notifies: 10,
            polls: 100,
            doorbells: 5,
            doorbells_coalesced: 15,
            ring_pushes: 20,
            ..Counters::default()
        };
        let after = Counters {
            notifies: 2_010,
            polls: 4_100,
            doorbells: 255,
            doorbells_coalesced: 765,
            ring_pushes: 1_020,
            ring_spills: 0,
            ..Counters::default()
        };
        let d = after.since(&before);
        assert_eq!(d.plus(&d).polls, 8_000);
        assert_eq!(d.notifies, 2_000);
        assert_eq!(d.lock_acquires, 0);
        assert_eq!(ratio(d.notifies, 1_000), 2.0);
        assert_eq!(ratio(d.polls, 1_000), 4.0);
        // 250 rings for 1000 NIC messages: the halo's expected 0.25.
        assert_eq!(
            ratio(d.doorbells, d.doorbells + d.doorbells_coalesced),
            0.25
        );
        assert_eq!(ratio(d.ring_spills, d.ring_pushes + d.ring_spills), 0.0);
        // Unused layers report 0 instead of NaN.
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(5, 0), 0.0);
    }

    #[test]
    fn reads_a_live_universe() {
        use rankmpi_core::Universe;
        let uni = Universe::builder().nodes(2).build();
        let before = Counters::read(uni.shared());
        uni.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 7, b"12345678").unwrap();
            } else {
                world.recv(&mut th, 0, 7).unwrap();
            }
        });
        let d = Counters::read(uni.shared()).since(&before);
        assert_eq!(d.doorbells, 1);
        assert_eq!(d.matched, 1);
        assert_eq!(d.ring_pushes + d.ring_spills, 1);
        assert_eq!(d.arena_reuses + d.arena_fresh, 1);
        assert!(d.notifies >= 1 && d.polls >= 1 && d.lock_acquires >= 1);
    }
}
