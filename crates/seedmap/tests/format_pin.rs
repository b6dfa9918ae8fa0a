//! Pins the v2 on-disk format to an index written by the build that still
//! had pluggable hash families (hasher id 1 = xxh32): it must keep loading,
//! answer queries like a freshly built index, and re-serialise to the same
//! bytes.

use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::{read_seedmap, write_seedmap, SeedMap, SeedMapConfig};

const FIXTURE: &[u8] = include_bytes!("fixtures/parent_v2_500bp_k10.seedmap");

#[test]
fn parent_written_index_loads_queries_and_rewrites_identically() {
    let genome = RandomGenomeBuilder::new(500).seed(18).build();
    let cfg = SeedMapConfig {
        seed_len: 10,
        hash_seed: 7,
        ..SeedMapConfig::default()
    };
    let fresh = SeedMap::build(&genome, &cfg);
    let loaded = read_seedmap(FIXTURE).expect("parent-written index loads");

    assert_eq!(loaded.stats(), fresh.stats());
    // `bucket_bits` comes back explicit, so whole configs would differ there.
    assert_eq!(loaded.config().seed_len, cfg.seed_len);
    assert_eq!(loaded.config().hash_seed, cfg.hash_seed);
    let seq = genome.chromosome(0).seq();
    for pos in 0..=seq.len() - cfg.seed_len {
        let codes = seq.subseq(pos..pos + cfg.seed_len).to_codes();
        let hits = loaded.query(&codes);
        assert!(hits.contains(&(pos as u32)), "position {pos} missing");
        assert_eq!(hits, fresh.query(&codes));
    }

    for map in [&loaded, &fresh] {
        let mut bytes = Vec::new();
        write_seedmap(map, &mut bytes).unwrap();
        assert!(bytes == FIXTURE, "re-serialised index differs");
    }
}
