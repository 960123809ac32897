//! Property tests for the allocation- and hash-lean state layer: the
//! arena-backed `TupleBuilder` against the pair-vector `Tuple::base`
//! reference, and the store (one arrival-order log per partition with
//! inline-posting indexes) against a rebuilt-from-scratch oracle under
//! interleaved insert / expire / `add_indexed_attr` sequences spread over
//! multiple epochs.

use clash_common::{
    arena_stats, AttrId, AttrRef, Epoch, RelationId, RelationSet, Schema, Timestamp, Tuple,
    TupleBuilder, Value, Window,
};
use clash_query::{EquiPredicate, StoreDescriptor};
use clash_runtime::store::StoreInstance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-100..100i64)),
        3 => Value::Float(rng.gen_range(-5.0..5.0f64)),
        4 => Value::str(format!("v{}", rng.gen_range(0..20u32))),
        _ => Value::Int(rng.gen_range(0..5i64)),
    }
}

fn schema_of(arity: usize) -> Schema {
    Schema::new(RelationId::new(3), "P", (0..arity).map(|i| format!("a{i}")))
}

proptest! {
    /// Arena-backed builder tuples are content-equal (and wire-round-trip
    /// equal) to `Tuple::base`-built ones for random slot subsets, values
    /// and duplicate writes, whether slots are set positionally or by
    /// name through the schema.
    #[test]
    fn builder_matches_pair_vector_construction(seed in 0u64..1_000_000, arity in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = schema_of(arity);
        let ts = Timestamp::from_millis(rng.gen_range(0..10_000u64));
        // Random multiset of slot writes, possibly with duplicates (the
        // first write must win on every construction path).
        let writes: Vec<(usize, Value)> = (0..rng.gen_range(0..12usize))
            .map(|_| (rng.gen_range(0..arity), random_value(&mut rng)))
            .collect();

        let pairs: Vec<(AttrRef, Value)> = writes
            .iter()
            .map(|(slot, v)| {
                (
                    AttrRef::new(schema.relation, AttrId::new(*slot as u32)),
                    v.clone(),
                )
            })
            .collect();
        let reference = Tuple::base(schema.relation, ts, pairs);

        let mut by_slot = TupleBuilder::new(&schema, ts);
        for (slot, v) in &writes {
            by_slot = by_slot.set_slot(AttrId::new(*slot as u32), v.clone());
        }
        let by_slot = by_slot.build();

        let mut by_name = TupleBuilder::new(&schema, ts);
        for (slot, v) in &writes {
            by_name = by_name.set(&format!("a{slot}"), v.clone());
        }
        let by_name = by_name.build();

        prop_assert_eq!(&reference, &by_slot);
        prop_assert_eq!(&reference, &by_name);
        prop_assert_eq!(reference.arity(), by_slot.arity());
        prop_assert_eq!(reference.approx_size_bytes(), by_slot.approx_size_bytes());
        for slot in 0..arity {
            let attr = AttrRef::new(schema.relation, AttrId::new(slot as u32));
            prop_assert_eq!(reference.get(&attr), by_slot.get(&attr));
            prop_assert_eq!(reference.get(&attr), by_name.get(&attr));
        }
        prop_assert_eq!(reference.relations, RelationSet::singleton(schema.relation));

        // Wire round trip: builder-built tuples decode back equal, and
        // both construction paths serialize identically.
        let decoded = Tuple::from_wire(&by_slot.to_wire()).expect("round trip");
        prop_assert_eq!(&decoded, &by_slot);
        prop_assert_eq!(by_slot.to_wire(), reference.to_wire());
    }
}

#[test]
fn arena_recycles_leaf_buffers_through_build_drop_cycles() {
    let schema = schema_of(4);
    // Warm one buffer of this width into the pool.
    drop(
        TupleBuilder::new(&schema, Timestamp::from_millis(0))
            .set_slot(AttrId::new(0), 1i64)
            .build(),
    );
    let before = arena_stats();
    for i in 0..100u64 {
        let t = TupleBuilder::new(&schema, Timestamp::from_millis(i))
            .set_slot(AttrId::new(0), i as i64)
            .set_slot(AttrId::new(3), Value::str("payload"))
            .build();
        assert_eq!(t.arity(), 2);
        // `t` drops here; its leaf buffer must come back for the next one.
    }
    let after = arena_stats();
    assert!(
        after.reused >= before.reused + 100,
        "expected 100 pool reuses, got {} -> {:?}",
        before.reused,
        after
    );
    assert_eq!(
        after.allocated, before.allocated,
        "steady-state build/drop cycles must not allocate fresh buffers"
    );
}

// --- store index oracle ---------------------------------------------------

/// The oracle: a plain list of stored tuples. Probing filters it with the
/// same timestamp/window/predicate semantics the store promises; no index
/// is maintained, so any index-repair bug in the store diverges from it.
struct Oracle {
    tuples: Vec<Tuple>,
    window: Window,
}

impl Oracle {
    fn probe_count(&self, probe: &Tuple, predicates: &[(AttrRef, AttrRef)]) -> usize {
        self.tuples
            .iter()
            .filter(|stored| {
                if stored.ts >= probe.ts || !self.window.contains(probe.ts, stored.ts) {
                    return false;
                }
                predicates.iter().all(|(stored_attr, probe_attr)| {
                    match (stored.get(stored_attr), probe.get(probe_attr)) {
                        (Some(sv), Some(pv)) => sv.join_eq(pv),
                        _ => false,
                    }
                })
            })
            .count()
    }
}

fn stored_tuple(schema: &Schema, rng: &mut StdRng, ts: u64, key_domain: i64) -> Tuple {
    TupleBuilder::new(schema, Timestamp::from_millis(ts))
        .set_slot(AttrId::new(0), rng.gen_range(0..key_domain))
        .set_slot(AttrId::new(1), rng.gen_range(0..key_domain))
        .set_slot(AttrId::new(2), Value::str(format!("p{}", ts % 7)))
        .build()
}

proptest! {
    /// Interleaved insert / expire / `add_indexed_attr` sequences over
    /// multiple epochs keep the store consistent with a scan oracle: every
    /// expiry removes exactly the oracle's count, and every probe (on the
    /// originally indexed attribute, the later-indexed one and the
    /// never-indexed scan fallback) returns exactly the oracle's match
    /// count — including after late inserts, which make the log
    /// disordered.
    #[test]
    fn store_indexes_match_scan_oracle(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::new(RelationId::new(0), "S", ["a", "b", "c"]);
        let probe_schema = Schema::new(RelationId::new(1), "R", ["a", "b", "c"]);
        let window = Window::secs(8);
        let key_domain = rng.gen_range(2..6i64);
        let attr = |i: u32| AttrRef::new(schema.relation, AttrId::new(i));
        let probe_attr = |i: u32| AttrRef::new(probe_schema.relation, AttrId::new(i));

        let mut store = StoreInstance::new(
            StoreDescriptor::unpartitioned(RelationSet::singleton(schema.relation)),
            window,
            vec![attr(0)],
        );
        let mut oracle = Oracle { tuples: Vec::new(), window };
        // Tuples land in one of four epochs; probes always cover all of
        // them, so the epoch labels are invisible to results.
        const EPOCHS: u64 = 4;
        let epochs: Vec<Epoch> = (0..EPOCHS).map(Epoch).collect();
        let mut now = 0u64;
        let mut b_indexed = false;

        for _ in 0..rng.gen_range(10..60usize) {
            match rng.gen_range(0..12u32) {
                // Expire a random horizon (sometimes everything).
                0 | 1 => {
                    let horizon = Timestamp::from_millis(now.saturating_sub(rng.gen_range(0..12_000u64)));
                    let removed = store.expire(horizon);
                    let before = oracle.tuples.len();
                    oracle.tuples.retain(|t| t.ts >= horizon);
                    prop_assert_eq!(removed, before - oracle.tuples.len());
                }
                // Index S.b mid-stream (idempotent after the first call).
                2 => {
                    store.add_indexed_attr(attr(1));
                    b_indexed = true;
                }
                // Insert out of timestamp order (exercises the compaction
                // of a disordered log rather than the in-order prefix
                // pop).
                3 => {
                    let ts = now.saturating_sub(rng.gen_range(0..4_000u64)).max(1);
                    let t = stored_tuple(&schema, &mut rng, ts, key_domain);
                    store.insert(0, Epoch(rng.gen_range(0..EPOCHS)), t.clone());
                    oracle.tuples.push(t);
                }
                // Insert at an advancing timestamp.
                _ => {
                    now += rng.gen_range(1..2_000u64);
                    let t = stored_tuple(&schema, &mut rng, now, key_domain);
                    store.insert(0, Epoch(rng.gen_range(0..EPOCHS)), t.clone());
                    oracle.tuples.push(t);
                }
            }
            // Cross-check: probes on the indexed key, the (possibly)
            // later-indexed attribute and the unindexed scan fallback all
            // agree with the oracle, for every key in the domain plus a
            // guaranteed miss.
            let probe_ts = now + rng.gen_range(1..3_000u64);
            for key in 0..key_domain + 1 {
                let probe = TupleBuilder::new(&probe_schema, Timestamp::from_millis(probe_ts),
                )
                .set_slot(AttrId::new(0), key)
                .set_slot(AttrId::new(1), key)
                .set_slot(AttrId::new(2), Value::str("p1"))
                .build();
                // Indexed from the start.
                let pred_a = EquiPredicate::new(attr(0), probe_attr(0));
                prop_assert_eq!(
                    store.probe(0, &epochs, &probe, std::slice::from_ref(&pred_a)).len(),
                    oracle.probe_count(&probe, &[(attr(0), probe_attr(0))]),
                    "key {} on indexed attribute", key
                );
                // Indexed mid-stream or still scanning, depending on ops.
                let pred_b = EquiPredicate::new(attr(1), probe_attr(1));
                prop_assert_eq!(
                    store.probe(0, &epochs, &probe, std::slice::from_ref(&pred_b)).len(),
                    oracle.probe_count(&probe, &[(attr(1), probe_attr(1))]),
                    "key {} on {} attribute", key, if b_indexed { "late-indexed" } else { "unindexed" }
                );
                // Never indexed: exercises the scan-marker path.
                let pred_c = EquiPredicate::new(attr(2), probe_attr(2));
                prop_assert_eq!(
                    store.probe(0, &epochs, &probe, std::slice::from_ref(&pred_c)).len(),
                    oracle.probe_count(&probe, &[(attr(2), probe_attr(2))]),
                    "key {} on scan fallback", key
                );
                // Conjunction of an indexed and an unindexed predicate.
                let both = [pred_a, pred_c];
                prop_assert_eq!(
                    store.probe(0, &epochs, &probe, &both).len(),
                    oracle.probe_count(
                        &probe,
                        &[(attr(0), probe_attr(0)), (attr(2), probe_attr(2))]
                    ),
                    "key {} on conjunction", key
                );
            }
        }
    }
}

#[test]
fn null_probe_values_never_match() {
    let schema = Schema::new(RelationId::new(0), "S", ["a"]);
    let probe_schema = Schema::new(RelationId::new(1), "R", ["a"]);
    let attr_s = AttrRef::new(schema.relation, AttrId::new(0));
    let attr_r = AttrRef::new(probe_schema.relation, AttrId::new(0));
    let mut store = StoreInstance::new(
        StoreDescriptor::unpartitioned(RelationSet::singleton(schema.relation)),
        Window::secs(60),
        vec![attr_s],
    );
    // One tuple with a Null key, one with a real key.
    for v in [Value::Null, Value::Int(1)] {
        let t = TupleBuilder::new(&schema, Timestamp::from_millis(10))
            .set("a", v)
            .build();
        store.insert(0, Epoch(0), t);
    }
    let pred = EquiPredicate::new(attr_s, attr_r);
    let null_probe = TupleBuilder::new(&probe_schema, Timestamp::from_millis(99))
        .set("a", Value::Null)
        .build();
    assert!(store
        .probe(0, &[Epoch(0)], &null_probe, std::slice::from_ref(&pred))
        .is_empty());
    let int_probe = TupleBuilder::new(&probe_schema, Timestamp::from_millis(99))
        .set("a", 1i64)
        .build();
    assert_eq!(
        store
            .probe(0, &[Epoch(0)], &int_probe, std::slice::from_ref(&pred))
            .len(),
        1
    );
}
