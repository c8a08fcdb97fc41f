//! The injection path: from send descriptor to remote mailbox.

use bytes::Bytes;
use rankmpi_obs::trace as obs;
use rankmpi_vtime::lock::ContentionGuard;
use rankmpi_vtime::{Clock, Nanos};

use crate::fault::LossCause;
use crate::packet::errcode;
use crate::resil::Outcome;
use crate::{Header, HwContext, Mailbox, NetworkProfile, Packet};

/// Timing report for one transmitted message.
#[derive(Debug, Clone, Copy)]
pub struct TxInfo {
    /// Virtual time at which the sending CPU was done (returned from the
    /// doorbell write); an eager send is locally complete here.
    pub local_complete: Nanos,
    /// Virtual time at which the message left the source context's pipeline.
    pub injected_at: Nanos,
    /// Virtual time at which the packet is fully arrived at the destination
    /// context (payload landed, ready for matching). Under a lossy plan this
    /// is the *final* attempt's arrival — or, if the retry budget ran out,
    /// the time the failure notification surfaces.
    pub arrive_at: Nanos,
    /// Transmission attempts the reliability layer spent (1 without loss).
    pub attempts: u32,
}

/// Transmit one message from `src` to the channel behind `dst_mail`.
///
/// Models the full path the paper's performance discussion rests on:
///
/// 1. **CPU overhead** (`o_send`): descriptor construction on the calling thread;
/// 2. **gate**: the lock serializing software access to the source context —
///    free-ish when the context is dedicated to this channel, increasingly
///    expensive when channels share contexts (oversubscription) or threads share
///    a channel (the "MPI+threads original" regime);
/// 3. **doorbell**: MMIO write, paid under the gate;
/// 4. **context occupancy**: the source context processes messages at rate `1/g`
///    (plus `bytes * G` DMA time) — the per-context message-rate ceiling that
///    makes *parallel* contexts necessary for multithreaded rate scaling;
/// 5. **wire latency** `L` plus the remote context's per-packet landing cost
///    (`rx_gap`), charged additively.
///
/// The remote landing cost is deliberately *not* serialized through the
/// destination context's virtual resource: that resource's `next_free` is
/// advanced by the receiver's own (possibly virtually-later) sends and by
/// other senders whose clocks have diverged, so serializing against it from
/// the sender's thread would let the receiver's *future* influence this
/// packet's arrival — a causality violation. Receiver-side serialization is
/// modeled where it causally belongs: in the matching engine the receiving
/// process drains at its own pace (see `rankmpi-core`'s VCI lock).
///
/// The packet is stamped with its virtual arrival time and pushed while the
/// gate is held, so per-context real order equals virtual order (this is what
/// preserves MPI's non-overtaking guarantee within a channel).
///
/// When the destination mailbox has a lossy plan armed, the send additionally
/// flows through its [`Resil`](crate::resil::Resil) layer: the sliding window
/// may stall injection (backpressure), lost attempts are retransmitted on
/// backed-off virtual timeouts (each re-occupying the source context), and a
/// send whose retries are exhausted is delivered *poisoned* so the receiver's
/// matching request fails instead of hanging. Without a lossy plan this path
/// costs one atomic load and nothing else — the timing model is unchanged.
///
/// The destination context is named but not touched: landing is priced
/// additively (above), and a sender that wrote anything there — even a
/// statistic — would share a line with every other sender to that receiver.
pub fn transmit(
    profile: &NetworkProfile,
    clock: &mut Clock,
    src: &HwContext,
    _dst: &HwContext,
    dst_mail: &Mailbox,
    header: Header,
    payload: Bytes,
) -> TxInfo {
    let entered_at = clock.now();
    clock.advance(profile.send_overhead);
    let gate = src.lock_gate(clock);
    clock.advance(profile.doorbell);

    let info = inject(profile, clock, src, dst_mail, header, payload);
    dst_mail.wake();
    release_gate(clock, src, gate);

    obs::busy("fabric", "transmit", entered_at, clock.now(), src.res_id());
    TxInfo {
        local_complete: clock.now(),
        ..info
    }
}

/// Leave `src`'s software gate, recording its collision shift — the time
/// this section waited behind earlier ones in virtual time — as a wait span.
fn release_gate(clock: &mut Clock, src: &HwContext, gate: ContentionGuard<'_, ()>) {
    let shift = gate.release(clock);
    obs::wait(
        "fabric",
        "gate_acquire",
        clock.now() - shift,
        clock.now(),
        src.res_id(),
    );
}

/// Inject one descriptor through `src`, whose gate the caller holds: window
/// slot → context occupancy → reliability admission → the packet (or, when
/// the retry budget ran out, its poisoned tombstone) → quiet mailbox push.
/// The caller notifies and fills in `local_complete`.
fn inject(
    profile: &NetworkProfile,
    clock: &mut Clock,
    src: &HwContext,
    dst_mail: &Mailbox,
    header: Header,
    payload: Bytes,
) -> TxInfo {
    let resil = dst_mail.resil();
    let chan = (header.context_id, header.src);
    if let Some(r) = &resil {
        // Sliding-window backpressure: may stall the sender before injection.
        r.acquire_slot(clock, chan);
    }

    let bytes = payload.len();
    let occupancy = profile.tx_occupancy_on(bytes, src.is_shared());
    let injected_at = src.occupy_tx(clock.now(), occupancy, bytes);
    let post_inject = profile.wire_latency() + profile.rx_gap;
    let first_arrive = injected_at + post_inject;

    let mut packet = Packet {
        header,
        payload,
        arrive_at: first_arrive,
    };
    let mut spurious = None;
    let mut attempts = 1;
    if let Some(r) = &resil {
        let d = r.admit(
            src,
            header.src,
            header.seq,
            chan,
            occupancy,
            bytes,
            injected_at,
            first_arrive,
            post_inject,
            // Ack path: the bare wire back (no payload serialization).
            profile.wire_latency(),
        );
        packet.arrive_at = d.arrive_at;
        attempts = d.attempts;
        match d.outcome {
            Outcome::Delivered => {
                spurious = d.spurious_arrive_at.map(|at| Packet {
                    arrive_at: at,
                    ..packet.clone()
                });
            }
            Outcome::Lost(cause) => {
                // Deliver the failure, not silence: a poisoned packet
                // matches like the original and fails the receive.
                packet.header.poison(
                    match cause {
                        LossCause::LinkDown => errcode::LINK_DOWN,
                        LossCause::Drop => errcode::RETRIES_EXHAUSTED,
                    },
                    d.attempts,
                );
                packet.payload = Bytes::new();
            }
        }
    }
    let arrive_at = packet.arrive_at;
    dst_mail.push_quiet(packet, spurious);
    obs::busy("fabric", "wire", injected_at, arrive_at, obs::ResId::NONE);
    TxInfo {
        local_complete: Nanos(0),
        injected_at,
        arrive_at,
        attempts,
    }
}

/// One message of a batched injection (see [`send_batch`]) and its route.
pub struct SendDesc<'a, R = ()> {
    /// Destination mailbox.
    pub dst_mail: &'a Mailbox,
    /// Packet header (already stamped with channel ids and sequence number).
    pub header: Header,
    /// Payload bytes; [`send_batch`] moves them out.
    pub payload: Bytes,
    /// The caller's routing data; never read here.
    pub route: R,
}

/// Inject `descs` through `src` as one batch: N descriptors written under a
/// *single* context-gate acquisition, with a *single* (amortized) doorbell
/// ring — `doorbell_batched(n)` instead of `n * doorbell`.
///
/// This is the endpoints-paper optimization the per-send path cannot express:
/// when a thread has several sends ready (halo-exchange posts, a stream
/// lane's flush, a collective fan-out, a retransmit burst), the per-message
/// software cost collapses to descriptor construction, and the gate+doorbell
/// cost is paid once per batch. Everything else is per-descriptor and shared
/// with [`transmit`]: context occupancy, the reliability layer's admission
/// (including backpressure and poisoning), arrival stamping, and the mailbox
/// push. Each destination mailbox is notified once per batch (not once per
/// packet); a batch of one costs exactly a plain [`transmit`].
///
/// All descriptors share `src`'s channel FIFO guarantee: they are stamped and
/// pushed in descriptor order while the gate is held. The batch allocates
/// nothing: payloads move into packets; timings go to `infos`, if given, empty.
pub fn send_batch<R>(
    profile: &NetworkProfile,
    clock: &mut Clock,
    src: &HwContext,
    descs: &mut [SendDesc<'_, R>],
    mut infos: Option<&mut Vec<TxInfo>>,
) {
    let n = descs.len();
    if n == 0 {
        return;
    }
    let entered_at = clock.now();
    // Descriptor construction is per-message CPU work; batching cannot
    // amortize it.
    clock.advance(Nanos(profile.send_overhead.as_ns() * n as u64));
    let gate = src.lock_gate(clock);
    clock.advance(profile.doorbell_batched(n));

    for d in descs.iter_mut() {
        let payload = std::mem::take(&mut d.payload);
        let info = inject(profile, clock, src, d.dst_mail, d.header, payload);
        infos.iter_mut().for_each(|v| v.push(info));
    }
    // One wakeup per destination per batch, not one per packet, in the
    // order destinations first appear.
    for (i, d) in descs.iter().enumerate() {
        let seen = descs[..i]
            .iter()
            .any(|e| std::ptr::eq(e.dst_mail, d.dst_mail));
        if !seen {
            d.dst_mail.wake();
        }
    }
    release_gate(clock, src, gate);

    // The batch completes together.
    let local_complete = clock.now();
    for info in infos.into_iter().flatten() {
        info.local_complete = local_complete;
    }
    obs::busy(
        "fabric",
        "transmit_batch",
        entered_at,
        local_complete,
        src.res_id(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Nic, Notify};
    use std::sync::Arc;

    fn setup() -> (NetworkProfile, Arc<HwContext>, Arc<HwContext>, Mailbox) {
        let profile = NetworkProfile::omni_path();
        let src_nic = Nic::new(0, profile.clone());
        let dst_nic = Nic::new(1, profile.clone());
        let src = src_nic.alloc_context();
        let dst = dst_nic.alloc_context();
        let mail = Mailbox::new(Arc::new(Notify::new()));
        (profile, src, dst, mail)
    }

    #[test]
    fn single_message_timing_adds_up() {
        let (p, src, dst, mail) = setup();
        let mut clock = Clock::new();
        let info = transmit(
            &p,
            &mut clock,
            &src,
            &dst,
            &mail,
            Header::zeroed(),
            Bytes::new(),
        );

        // CPU side: overhead + gate base + doorbell.
        let cpu = p.send_overhead + p.context_lock.acquire_base + p.doorbell;
        assert_eq!(info.local_complete, cpu);
        assert_eq!(clock.now(), cpu);
        // Pipeline: leaves the context gap after the doorbell.
        assert_eq!(info.injected_at, cpu + p.context_gap);
        // Arrival: + wire latency + rx serialization.
        assert_eq!(info.arrive_at, info.injected_at + p.latency + p.rx_gap);

        let mut out = Vec::new();
        mail.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arrive_at, info.arrive_at);
    }

    #[test]
    fn back_to_back_sends_are_rate_limited_by_gap() {
        let (p, src, dst, mail) = setup();
        let mut clock = Clock::new();
        let n = 100;
        let mut last = None;
        for i in 0..n {
            let h = Header {
                seq: i,
                ..Header::zeroed()
            };
            last = Some(transmit(&p, &mut clock, &src, &dst, &mail, h, Bytes::new()));
        }
        let last = last.unwrap();
        // The CPU path (60+30+40 = 130ns/msg here) is slower than the context
        // gap (120ns), so injection is CPU-bound; but the context never idles
        // between consecutive messages faster than the gap.
        assert!(last.injected_at >= Nanos(p.context_gap.as_ns() * n));
        // FIFO arrival order per channel.
        let mut out = Vec::new();
        mail.drain_into(&mut out);
        let arrivals: Vec<_> = out.iter().map(|pk| pk.arrive_at).collect();
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted);
        let seqs: Vec<u64> = out.iter().map(|pk| pk.header.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn payload_bytes_extend_occupancy() {
        let (p, src, dst, mail) = setup();
        let mut clock = Clock::new();
        let small = transmit(
            &p,
            &mut clock,
            &src,
            &dst,
            &mail,
            Header::zeroed(),
            Bytes::new(),
        );
        let big_payload = Bytes::from(vec![0u8; 1 << 20]); // 1 MiB
        let big = transmit(
            &p,
            &mut clock,
            &src,
            &dst,
            &mail,
            Header::zeroed(),
            big_payload,
        );
        let dma = Nanos((1u64 << 20) * p.byte_time_ps / 1_000);
        assert!(big.injected_at >= small.injected_at + dma);
    }

    #[test]
    fn two_channels_on_shared_context_serialize() {
        let p = NetworkProfile::constrained(1);
        let nic = Nic::new(0, p.clone());
        let ch1 = nic.alloc_context();
        let ch2 = nic.alloc_context(); // shares the single context
        assert!(Arc::ptr_eq(&ch1, &ch2));
        let dst_nic = Nic::new(1, p.clone());
        let dst = dst_nic.alloc_context();
        let mail = Mailbox::new(Arc::new(Notify::new()));

        let mut c1 = Clock::new();
        let mut c2 = Clock::new();
        let a = transmit(
            &p,
            &mut c1,
            &ch1,
            &dst,
            &mail,
            Header::zeroed(),
            Bytes::new(),
        );
        let b = transmit(
            &p,
            &mut c2,
            &ch2,
            &dst,
            &mail,
            Header::zeroed(),
            Bytes::new(),
        );
        // Second channel's message cannot leave before the first's.
        assert!(b.injected_at >= a.injected_at + p.context_gap);
    }

    #[test]
    fn lossy_mailbox_retransmits_until_delivery() {
        use crate::FaultPlan;
        let (p, src, dst, mail) = setup();
        // Heavy independent drops, unlimited-ish retries: everything must
        // still be delivered exactly once, in order, with retransmits logged.
        mail.arm_faults(FaultPlan::new(0xD70).drops(0.4));
        let r = mail.resil().expect("lossy plan arms resil");
        let mut clock = Clock::new();
        let n = 60u64;
        for i in 0..n {
            let h = Header {
                src: 2,
                seq: i,
                ..Header::zeroed()
            };
            let info = transmit(&p, &mut clock, &src, &dst, &mail, h, Bytes::new());
            assert!(info.attempts >= 1);
        }
        let mut out = Vec::new();
        let delivered = mail.drain_into(&mut out);
        assert_eq!(delivered as u64, n, "no loss may reach the receiver");
        assert!(out.iter().all(|pk| !pk.header.is_poisoned()));
        let seqs: Vec<u64> = out.iter().map(|pk| pk.header.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "no reordering");
        let arrivals: Vec<_> = out.iter().map(|pk| pk.arrive_at).collect();
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted, "channel arrivals stay monotone");
        let rep = r.report();
        assert!(rep.retransmits > 0, "a 40% drop rate must retransmit");
        assert_eq!(rep.delivered, n);
        assert_eq!(rep.exhausted, 0);
    }

    #[test]
    fn exhausted_retries_deliver_a_poisoned_packet() {
        use crate::resil::ResilConfig;
        use crate::FaultPlan;
        let (p, src, dst, mail) = setup();
        mail.arm_faults(FaultPlan::new(7).drops(1.0));
        let r = mail.resil().unwrap();
        r.set_config(ResilConfig {
            max_retries: 3,
            ..ResilConfig::default()
        });
        let mut clock = Clock::new();
        let h = Header {
            kind: 1,
            src: 4,
            seq: 0,
            ..Header::zeroed()
        };
        let info = transmit(
            &p,
            &mut clock,
            &src,
            &dst,
            &mail,
            h,
            Bytes::from_static(b"xy"),
        );
        assert_eq!(info.attempts, 4);
        let mut out = Vec::new();
        assert_eq!(mail.drain_into(&mut out), 1, "the failure is delivered");
        let pk = &out[0];
        assert!(pk.header.is_poisoned());
        assert_eq!(pk.header.base_kind(), 1);
        assert_eq!(
            pk.header.poison_code(),
            crate::packet::errcode::RETRIES_EXHAUSTED
        );
        assert_eq!(pk.header.poison_attempts(), 4);
        assert!(
            pk.payload.is_empty(),
            "no payload on a failure notification"
        );
        assert_eq!(r.report().exhausted, 1);
    }

    #[test]
    fn no_lossy_plan_means_identical_timing() {
        // The resil hook must be a strict no-op on the virtual timing when
        // no lossy class is armed (chaos has none).
        use crate::FaultPlan;
        let (p, src, dst, mail) = setup();
        let mut c1 = Clock::new();
        let a = transmit(
            &p,
            &mut c1,
            &src,
            &dst,
            &mail,
            Header::zeroed(),
            Bytes::new(),
        );
        let cpu = p.send_overhead + p.context_lock.acquire_base + p.doorbell;
        assert_eq!(a.local_complete, cpu);
        assert_eq!(a.attempts, 1);
        assert!(mail.resil().is_none());
        mail.arm_faults(FaultPlan::chaos(3));
        assert!(mail.resil().is_none());
    }

    #[test]
    fn batch_of_one_costs_exactly_a_plain_transmit() {
        let (p, src, dst, mail) = setup();
        let mut c1 = Clock::new();
        let single = transmit(
            &p,
            &mut c1,
            &src,
            &dst,
            &mail,
            Header::zeroed(),
            Bytes::new(),
        );
        // A fresh identical setup for the batched path.
        let (p2, src2, _dst2, mail2) = setup();
        let mut c2 = Clock::new();
        let mut batched = Vec::new();
        send_batch(
            &p2,
            &mut c2,
            &src2,
            &mut [SendDesc {
                dst_mail: &mail2,
                header: Header::zeroed(),
                payload: Bytes::new(),
                route: (),
            }],
            Some(&mut batched),
        );
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].local_complete, single.local_complete);
        assert_eq!(batched[0].injected_at, single.injected_at);
        assert_eq!(batched[0].arrive_at, single.arrive_at);
    }

    #[test]
    fn batch_amortizes_gate_and_doorbell() {
        let n = 16u64;
        let (p, src, dst, mail) = setup();
        let mut c1 = Clock::new();
        for i in 0..n {
            let h = Header {
                seq: i,
                ..Header::zeroed()
            };
            transmit(&p, &mut c1, &src, &dst, &mail, h, Bytes::new());
        }
        let singles_cpu = c1.now();

        let (p2, src2, _dst2, mail2) = setup();
        let mut c2 = Clock::new();
        let mut descs: Vec<_> = (0..n)
            .map(|i| SendDesc {
                dst_mail: &mail2,
                header: Header {
                    seq: i,
                    ..Header::zeroed()
                },
                payload: Bytes::new(),
                route: (),
            })
            .collect();
        let mut infos = Vec::new();
        send_batch(&p2, &mut c2, &src2, &mut descs, Some(&mut infos));
        // CPU cost: n sends pay the gate + full doorbell each; the batch pays
        // one gate and one amortized doorbell.
        let saved = (n - 1) * (p.context_lock.acquire_base + p.doorbell).as_ns()
            - (n - 1) * p.doorbell_batch_step.as_ns();
        assert_eq!(c2.now(), singles_cpu - Nanos(saved));
        // Channel FIFO survives batching.
        let mut out = Vec::new();
        mail2.drain_into(&mut out);
        let seqs: Vec<u64> = out.iter().map(|pk| pk.header.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        let arrivals: Vec<_> = infos.iter().map(|i| i.arrive_at).collect();
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted);
    }

    #[test]
    fn batch_fanout_notifies_each_mailbox_once() {
        let p = NetworkProfile::omni_path();
        let nic = Nic::new(0, p.clone());
        let src = nic.alloc_context();
        let (n1, n2) = (Arc::new(Notify::new()), Arc::new(Notify::new()));
        let m1 = Mailbox::new(Arc::clone(&n1));
        let m2 = Mailbox::new(Arc::clone(&n2));
        let mut clock = Clock::new();
        // 8 messages alternating between two destinations.
        let mut descs: Vec<_> = (0..8u64)
            .map(|i| SendDesc {
                dst_mail: if i % 2 == 0 { &m1 } else { &m2 },
                header: Header {
                    seq: i,
                    ..Header::zeroed()
                },
                payload: Bytes::new(),
                route: (),
            })
            .collect();
        send_batch(&p, &mut clock, &src, &mut descs, None);
        assert_eq!(m1.len(), 4);
        assert_eq!(m2.len(), 4);
        assert_eq!(n1.version(), 1, "one batch, one notification");
        assert_eq!(n2.version(), 1);
    }

    #[test]
    fn lossy_batch_retransmits_and_delivers_exactly_once() {
        use crate::FaultPlan;
        let (p, src, _dst, mail) = setup();
        mail.arm_faults(FaultPlan::new(0xBA7C).drops(0.4));
        let r = mail.resil().unwrap();
        let mut clock = Clock::new();
        let n = 40u64;
        let mut descs: Vec<_> = (0..n)
            .map(|i| SendDesc {
                dst_mail: &mail,
                header: Header {
                    src: 2,
                    seq: i,
                    ..Header::zeroed()
                },
                payload: Bytes::new(),
                route: (),
            })
            .collect();
        send_batch(&p, &mut clock, &src, &mut descs, None);
        let mut out = Vec::new();
        let delivered = mail.drain_into(&mut out);
        assert_eq!(delivered as u64, n);
        let seqs: Vec<u64> = out.iter().map(|pk| pk.header.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        assert!(r.report().retransmits > 0);
        assert_eq!(r.report().delivered, n);
    }

    #[test]
    fn independent_contexts_inject_in_parallel() {
        let p = NetworkProfile::omni_path();
        let nic = Nic::new(0, p.clone());
        let ch1 = nic.alloc_context();
        let ch2 = nic.alloc_context();
        let dst_nic = Nic::new(1, p.clone());
        let d1 = dst_nic.alloc_context();
        let d2 = dst_nic.alloc_context();
        let m1 = Mailbox::new(Arc::new(Notify::new()));
        let m2 = Mailbox::new(Arc::new(Notify::new()));

        let mut c1 = Clock::new();
        let mut c2 = Clock::new();
        let a = transmit(&p, &mut c1, &ch1, &d1, &m1, Header::zeroed(), Bytes::new());
        let b = transmit(&p, &mut c2, &ch2, &d2, &m2, Header::zeroed(), Bytes::new());
        // Both threads started at t=0 on independent contexts: identical timing.
        assert_eq!(a.injected_at, b.injected_at);
        assert_eq!(a.arrive_at, b.arrive_at);
    }
}
