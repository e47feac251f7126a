//! Storage-substrate operation costs: the KV store's queue pattern (the
//! pipeline's inter-process backbone, App. B) and the object store's
//! put/get.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tero_store::{KvStore, ObjectStore};

fn bench_kv(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("set_get_1k", |b| {
        b.iter(|| {
            let kv = KvStore::new();
            for i in 0..1_000 {
                kv.set(&format!("key:{i}"), i.to_string());
            }
            (0..1_000)
                .filter(|i| kv.get(&format!("key:{i}")).is_some())
                .count()
        })
    });
    group.bench_function("queue_push_pop_1k", |b| {
        b.iter(|| {
            let kv = KvStore::new();
            for i in 0..1_000 {
                kv.rpush("q", i.to_string());
            }
            let mut n = 0;
            while kv.lpop("q").is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

fn bench_object_store(c: &mut Criterion) {
    let payload = vec![0u8; 160 * 90]; // one thumbnail
    c.bench_function("object_put_get_thumbnail", |b| {
        let store = ObjectStore::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("s/{i}");
            store.put("thumbs", &key, payload.clone());
            store.get("thumbs", &key).map(|b| b.len())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_kv, bench_object_store);
criterion_main!(benches);
