//! Tests of the endpoint rank layout that `Communicator::create_endpoints`
//! builds.

mod tests {
    use crate::Universe;

    #[test]
    fn ranks_are_laid_out_in_parent_order() {
        let u = Universe::builder().nodes(3).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            // Rank r asks for r+1 endpoints: counts 1, 2, 3.
            let eps = world.create_endpoints(&mut th, env.rank() + 1).unwrap();
            eps.iter().map(|e| e.rank()).collect::<Vec<_>>()
        });
        assert_eq!(out[0], vec![0]);
        assert_eq!(out[1], vec![1, 2]);
        assert_eq!(out[2], vec![3, 4, 5]);
    }

    #[test]
    fn topology_maps_eps_to_owner_procs() {
        let u = Universe::builder().nodes(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = world.create_endpoints(&mut th, 2).unwrap();
            let g = eps[0].group().clone();
            (0..g.size()).map(|e| g.global(e)).collect::<Vec<_>>()
        });
        assert_eq!(out[0], vec![0, 0, 1, 1]);
    }

    #[test]
    fn each_endpoint_gets_its_own_vci() {
        let u = Universe::builder().nodes(1).num_vcis(1).build();
        let before = u.shared().proc(0).num_vcis();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = world.create_endpoints(&mut th, 4).unwrap();
            let vcis: Vec<_> = eps.iter().map(|e| e.vci_block()[0]).collect();
            let mut sorted = vcis.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "distinct VCIs per endpoint");
        });
        assert_eq!(u.shared().proc(0).num_vcis(), before + 4);
    }

    #[test]
    fn zero_endpoints_is_an_error() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            assert!(world.create_endpoints(&mut th, 0).is_err());
        });
    }
}
