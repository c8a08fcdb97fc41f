//! Tests of partitioned communication's receive sinks and of the per-process
//! route table ([`crate::partitioned`]).

mod tests {
    use std::sync::Arc;

    use bytes::Bytes;
    use rankmpi_fabric::{Header, Notify, Packet};
    use rankmpi_vtime::Nanos;

    use crate::partitioned::PartSink;
    use crate::vci::KIND_DIRECT;
    use crate::{Info, Universe};

    fn pkt(iter: u64, part: u64, data: &'static [u8], arrive: u64) -> Packet {
        Packet {
            header: Header {
                kind: KIND_DIRECT,
                aux2: (iter << 32) | part,
                ..Header::zeroed()
            },
            payload: Bytes::from_static(data),
            arrive_at: Nanos(arrive),
        }
    }

    #[test]
    fn partitions_assemble_into_the_buffer() {
        let sink = PartSink::new(3, 2, Arc::new(Notify::new()), Nanos(10));
        sink.deliver(pkt(0, 1, b"BB", 100));
        assert_eq!(sink.partition_ready(1), Some(Nanos(110)));
        assert_eq!(sink.partition_ready(0), None);
        assert!(sink.all_ready().is_none());
        sink.deliver(pkt(0, 0, b"AA", 50));
        sink.deliver(pkt(0, 2, b"CC", 200));
        assert_eq!(sink.all_ready(), Some(Nanos(210)));
        assert_eq!(sink.read_all(), b"AABBCC");
        assert_eq!(sink.read_partition(1), b"BB");
    }

    #[test]
    fn early_packets_wait_for_their_iteration() {
        let sink = PartSink::new(1, 1, Arc::new(Notify::new()), Nanos(0));
        sink.deliver(pkt(1, 0, b"y", 500)); // sender ran ahead
        assert!(sink.all_ready().is_none());
        sink.deliver(pkt(0, 0, b"x", 100));
        assert_eq!(sink.all_ready(), Some(Nanos(100)));
        assert_eq!(sink.read_partition(0), b"x");

        sink.complete_iteration();
        // The early packet was re-delivered into iteration 1.
        assert_eq!(sink.all_ready(), Some(Nanos(500)));
        assert_eq!(sink.read_partition(0), b"y");
    }

    /// A receive registers its sink in its own process's table, under an id
    /// that process counts from 1, and dropping it unregisters the sink.
    #[test]
    fn route_registry_roundtrip() {
        for _universe in 0..2 {
            let u = Universe::builder().nodes(2).build();
            u.run(|env| {
                let world = env.world();
                let mut th = env.single_thread();
                let table = world.proc().direct();
                if env.rank() == 0 {
                    let sreq = world.psend_init(&mut th, 1, 4, 1, 8, &Info::new()).unwrap();
                    sreq.start(&mut th).unwrap();
                    sreq.pready(&mut th, 0, &[3; 8]).unwrap();
                    sreq.wait(&mut th).unwrap();
                    assert_eq!(table.len(), 0, "a send registers no sink");
                } else {
                    let rreq = world.precv_init(&mut th, 0, 4, 1, 8, &Info::new()).unwrap();
                    assert_eq!(rreq.route_id(), 1);
                    assert_eq!(table.len(), 1);
                    assert!(table.sink(1).is_some());
                    rreq.start(&mut th).unwrap();
                    assert_eq!(rreq.wait(&mut th).unwrap(), [3; 8]);
                    drop(rreq);
                    assert_eq!(table.len(), 0);
                    assert!(table.sink(1).is_none());
                }
            });
        }
    }
}
