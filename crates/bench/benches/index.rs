//! Index substrate benchmarks: shift-add-xor hashing, the chained hash table
//! vs std::HashMap, B⁺-tree inserts/lookups, Z-order codes and LSB queries.
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viderec_index::{
    zorder_encode, BPlusTree, CauchyLsh, ChainedHashTable, LsbConfig, LsbForest, ShiftAddXor,
};

fn bench_hashing(c: &mut Criterion) {
    let h = ShiftAddXor::default();
    let names: Vec<String> = (0..1000).map(|i| format!("user_{i:05}")).collect();
    c.bench_function("shift_add_xor_1000_names", |bench| {
        bench.iter(|| names.iter().map(|n| h.hash(n, 4096)).sum::<usize>())
    });

    let mut chained: ChainedHashTable<usize> = ChainedHashTable::new(4096);
    let mut std_map = std::collections::HashMap::new();
    for (i, n) in names.iter().enumerate() {
        chained.insert(n, i);
        std_map.insert(n.clone(), i);
    }
    c.bench_function("chained_get_1000", |bench| {
        bench.iter(|| names.iter().filter_map(|n| chained.get(n)).sum::<usize>())
    });
    c.bench_function("std_hashmap_get_1000", |bench| {
        bench.iter(|| names.iter().filter_map(|n| std_map.get(n)).sum::<usize>())
    });
}

fn bench_btree(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let keys: Vec<u128> = (0..10_000).map(|_| rng.gen()).collect();
    c.bench_function("bptree_insert_10k", |bench| {
        bench.iter(|| {
            let mut t = BPlusTree::new();
            for &k in &keys {
                t.insert(k, ());
            }
            t.len()
        })
    });
    let mut t = BPlusTree::new();
    for &k in &keys {
        t.insert(k, ());
    }
    c.bench_function("bptree_seek_10k", |bench| {
        bench.iter(|| {
            keys.iter()
                .filter(|&&k| t.cursor_forward(k).peek_key() == Some(k))
                .count()
        })
    });
}

fn bench_zorder_and_lsb(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let coords: Vec<u64> = (0..8).map(|_| rng.gen_range(0..1u64 << 12)).collect();
    c.bench_function("zorder_encode_8x12", |bench| {
        bench.iter(|| zorder_encode(&coords, 12))
    });

    let lsh = CauchyLsh::new(8, 32, 4.0, 10);
    let point: Vec<f64> = (0..32).map(|_| rng.gen_range(-10.0..10.0)).collect();
    c.bench_function("cauchy_lsh_hash_32d", |bench| {
        let mut coords = [0u64; 8];
        bench.iter(|| {
            lsh.hash_unsigned_into(&point, 12, &mut coords);
            coords[0]
        })
    });

    let mut forest: LsbForest<u32> = LsbForest::new(LsbConfig::default(), 32);
    for i in 0..2000 {
        let p: Vec<f64> = (0..32).map(|_| rng.gen_range(-10.0..10.0)).collect();
        forest.insert(&p, i);
    }
    c.bench_function("lsb_query_2k_corpus", |bench| {
        bench.iter(|| forest.query(&point, 64).len())
    });
}

criterion_group!(benches, bench_hashing, bench_btree, bench_zorder_and_lsb);
criterion_main!(benches);
