//! One differential check over the one write path: a seeded history of
//! mixed insert/delete transactions — with a view registration midway
//! and checkpoints — is driven through a live durable [`Store`] via
//! `seal`, mirrored into a replica fed the way a replication feed feeds
//! one (`install_checkpoint` on a setup change, `apply_replicated`
//! otherwise), and recovered from the live store's backend with
//! `Store::open` after every version. At every version all three must
//! agree byte for byte — database digest, formatted citations, fixity
//! tokens — and the replica and the recovered store must serve their
//! cites from warm views (no re-materialization).

use citesys_core::format::{format_citation, CitationFormat};
use citesys_core::paper;
use citesys_core::{
    cite_with_service, Changeset, CitationMode, DurableHandle, EngineOptions, SpanSet, Store,
};
use citesys_cq::{parse_query, ConjunctiveQuery};
use citesys_storage::{tuple, MemStore, Tuple};

const STEPS: usize = 12;

/// xorshift64*: a dependency-free, seedable generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

fn queries() -> Vec<ConjunctiveQuery> {
    [
        "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
        "Q(FName) :- Family(11, FName, Desc), FamilyIntro(11, Text)",
        "Q(FID, Text) :- FamilyIntro(FID, Text)",
    ]
    .iter()
    .map(|q| parse_query(q).unwrap())
    .collect()
}

fn options() -> EngineOptions {
    EngineOptions {
        mode: CitationMode::Formal,
        ..Default::default()
    }
}

fn spans() -> SpanSet {
    SpanSet::disabled()
}

fn open(backend: &MemStore) -> Store {
    Store::open(DurableHandle::new(Box::new(backend.reopen()))).unwrap()
}

/// One transaction of 1–4 ops over a small id range, so inserts collide
/// with keys (refused transactions) and deletes hit and miss.
fn transaction(rng: &mut Rng) -> Changeset {
    let mut changes = Changeset::new();
    for _ in 0..=rng.below(4) {
        let fid = 11 + rng.below(6) as i64;
        let (rel, t): (&str, Tuple) = match rng.below(3) {
            0 => ("Family", tuple![fid, format!("F{}", rng.below(2)), "D"]),
            1 => ("FamilyIntro", tuple![fid, "intro"]),
            _ => ("Committee", tuple![fid, format!("P{}", rng.below(3))]),
        };
        if rng.below(3) == 0 {
            changes.delete(rel, t);
        } else {
            changes.insert(rel, t);
        }
    }
    changes
}

/// Every query's formatted citation (fixity token included) at `version`.
fn citations(store: &mut Store, version: u64) -> Vec<String> {
    let (service, _) = store.service_at(version, options()).unwrap();
    queries()
        .iter()
        .map(|q| {
            let (cited, token) = cite_with_service(&service, version, q).unwrap();
            let snippets = cited.aggregate.map(|a| a.snippets).unwrap_or_default();
            format!(
                "{} {}",
                format_citation(&snippets, Some(&token), CitationFormat::Text),
                token.digest
            )
        })
        .collect()
}

/// Cites the query set on the live store, so the views a checkpoint
/// ships are the ones the queries need.
fn warm(live: &mut Store) {
    let v = live.latest_version();
    citations(live, v);
}

fn check(seed: u64, live: &mut Store, replica: &mut Store, backend: &MemStore) {
    let v = live.latest_version();
    let digest = live.database().unwrap().digest_at(v).unwrap();
    let expected = citations(live, v);
    let mut recovered = open(backend);
    for (name, store) in [("replica", replica), ("recovered", &mut recovered)] {
        assert_eq!(store.latest_version(), v, "seed {seed}: {name}");
        assert_eq!(
            store.database().unwrap().digest_at(v).unwrap(),
            digest,
            "seed {seed}: {name} digest at v{v}"
        );
        assert_eq!(
            citations(store, v),
            expected,
            "seed {seed}: {name} citations at v{v}"
        );
        let stats = store.view_cache_stats().unwrap();
        assert_eq!(
            stats.materializations, 0,
            "seed {seed}: {name} re-materialized at v{v}: {stats:?}"
        );
    }
}

fn run(seed: u64) {
    let mut rng = Rng(seed);
    let backend = MemStore::new();
    let mut live = open(&backend);
    let registry = paper::paper_registry();
    for schema in paper::paper_schemas() {
        live.declare_relation(schema, &mut spans()).unwrap();
    }
    for view in ["V2", "V3"] {
        let cv = registry.get(view).unwrap().clone();
        live.register_view(cv, &mut spans()).unwrap();
    }
    let mut data = Changeset::new();
    for (name, rel) in paper::paper_database().relations() {
        for t in rel.scan() {
            data.insert(name.as_str(), t.clone());
        }
    }
    live.apply(&data).unwrap();
    live.seal(&mut spans()).unwrap();
    warm(&mut live);
    live.write_checkpoint(&mut spans()).unwrap();

    let mut replica = Store::new();
    replica
        .install_checkpoint(&live.checkpoint_data().unwrap())
        .unwrap();
    let mut generation = live.replication_generation();
    check(seed, &mut live, &mut replica, &backend);

    for step in 0..STEPS {
        if step == STEPS / 2 {
            let v1 = registry.get("V1").unwrap().clone();
            live.register_view(v1, &mut spans()).unwrap();
            warm(&mut live);
            live.write_checkpoint(&mut spans()).unwrap();
        }
        if live.apply(&transaction(&mut rng)).is_err() {
            continue; // a key violation: refused whole, no version cut
        }
        let sealed = live.seal(&mut spans()).unwrap();
        assert!(sealed.swapped, "seed {seed}: live service carried");
        if live.replication_generation() == generation {
            let changes = live.changes_in(sealed.version).unwrap();
            replica
                .apply_replicated(sealed.version, &changes, &mut spans())
                .unwrap();
        } else {
            replica
                .install_checkpoint(&live.checkpoint_data().unwrap())
                .unwrap();
            generation = live.replication_generation();
        }
        check(seed, &mut live, &mut replica, &backend);
    }
}

#[test]
fn live_replica_and_recovered_stores_agree_at_every_version() {
    for seed in [1, 7, 42, 2024, 0x5eed] {
        run(seed);
    }
}
