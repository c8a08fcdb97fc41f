//! Tests of Lesson 20's device-initiated cost model
//! (`paper::DeviceProfile`).

mod tests {
    use crate::paper::DeviceProfile;

    #[test]
    fn partitioned_beats_device_full_at_scale() {
        let p = DeviceProfile::default();
        let iters = 100;
        let msgs = 64;
        assert!(p.device_partitioned(iters, msgs) < p.device_full(iters, msgs));
    }

    #[test]
    fn partitioned_beats_cpu_proxy_on_message_heavy_phases() {
        let p = DeviceProfile::default();
        assert!(p.device_partitioned(100, 64) < p.cpu_proxy(100, 64));
    }

    #[test]
    fn per_iteration_control_return_still_dominates_small_phases() {
        // The Lesson 20 caveat: with one message per iteration, repeated
        // control transfers erase the trigger advantage versus a pure CPU
        // proxy (which pays the same round trips anyway) — but the
        // device-full path with a single cheap message can win.
        let p = DeviceProfile::default();
        let partitioned = p.device_partitioned(1000, 1);
        let proxy = p.cpu_proxy(1000, 1);
        // Both pay 1000 round trips; partitioned adds only triggers.
        assert!(partitioned < proxy);
        // Yet neither eliminates the runtime overhead the way a persistent
        // device-full kernel does for tiny phases.
        assert!(p.device_full(1000, 1) < partitioned);
    }
}
