//! Property tests for the zero-copy rope tuple representation.
//!
//! A flat reference model (the seed's `(AttrRef, Value)`-pair list with
//! linear lookup and copying concatenation) is built alongside every rope
//! under test; `get`, iteration, arity, size accounting, equality and the
//! wire codec must agree between the two — for random base tuples, random
//! join-tree shapes and random join orders. A second group checks that
//! deep rope chains flow end-to-end through both engines: a 5-way join
//! query on out-of-order input yields identical result multisets from
//! `LocalEngine` and `ParallelEngine`, under infinite and finite windows.

use clash_bench::exactness::{local_results, planned, run_paths};
use clash_common::{
    AttrId, AttrRef, Duration, EpochConfig, JoinSlot, QueryId, RelationId, SlotAccessor, Timestamp,
    Tuple, Value, Window,
};
use clash_datagen::exactness::{five_chain, multiset, render, StreamShape};
use clash_optimizer::Strategy;
use clash_query::parse_query;
use clash_runtime::{EngineConfig, LocalEngine, ParallelEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- flat reference model -------------------------------------------------

/// The seed representation: flattened pairs, linear everything.
#[derive(Debug, Clone)]
struct FlatRef {
    ts: Timestamp,
    pairs: Vec<(AttrRef, Value)>,
}

impl FlatRef {
    fn get(&self, attr: &AttrRef) -> Option<&Value> {
        self.pairs.iter().find(|(a, _)| a == attr).map(|(_, v)| v)
    }

    fn join(&self, other: &FlatRef) -> FlatRef {
        let mut pairs = self.pairs.clone();
        pairs.extend(other.pairs.iter().cloned());
        FlatRef {
            ts: self.ts.max(other.ts),
            pairs,
        }
    }

    /// The seed's size formula: header + per-entry charge + value bytes.
    fn approx_size_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<(AttrRef, Value)>();
        32 + self
            .pairs
            .iter()
            .map(|(_, v)| per_entry + v.approx_size_bytes())
            .sum::<usize>()
    }
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-1_000..1_000i64)),
        3 => Value::Float(rng.gen_range(-10.0..10.0f64)),
        4 => Value::str(format!("s{}", rng.gen_range(0..50u32))),
        _ => Value::Int(rng.gen_range(0..10i64)),
    }
}

/// One random base tuple of `relation` with `arity` attributes at slots
/// 0..arity (slot order, so reference pair order == rope iteration order).
fn random_base(rng: &mut StdRng, relation: u32, arity: usize) -> (Tuple, FlatRef) {
    let rel = RelationId::new(relation);
    let ts = Timestamp::from_millis(rng.gen_range(0..10_000u64));
    let pairs: Vec<(AttrRef, Value)> = (0..arity)
        .map(|slot| {
            (
                AttrRef::new(rel, AttrId::new(slot as u32)),
                random_value(rng),
            )
        })
        .collect();
    let rope = Tuple::base(rel, ts, pairs.clone());
    let flat = FlatRef { ts, pairs };
    (rope, flat)
}

/// Joins `leaves` into one tuple with a random tree shape (repeatedly
/// merging two adjacent entries), mirroring every merge on the reference.
fn random_tree(rng: &mut StdRng, mut leaves: Vec<(Tuple, FlatRef)>) -> (Tuple, FlatRef) {
    while leaves.len() > 1 {
        let i = rng.gen_range(0..leaves.len() - 1);
        let (right_rope, right_flat) = leaves.remove(i + 1);
        let (left_rope, left_flat) = leaves.remove(i);
        let rope = left_rope.join(&right_rope).expect("distinct relations");
        leaves.insert(i, (rope, left_flat.join(&right_flat)));
    }
    leaves.pop().expect("nonempty")
}

fn random_leaves(rng: &mut StdRng, relations: usize) -> Vec<(Tuple, FlatRef)> {
    (0..relations)
        .map(|r| {
            let arity = rng.gen_range(1..5usize);
            random_base(rng, r as u32, arity)
        })
        .collect()
}

/// Timestamp, arity, size and every `(attribute, value)` pair in order.
fn assert_matches_reference(rope: &Tuple, flat: &FlatRef) {
    assert_eq!(rope.ts, flat.ts);
    assert_eq!(rope.arity(), flat.pairs.len());
    assert_eq!(rope.approx_size_bytes(), flat.approx_size_bytes());
    assert_eq!(rope.flatten(), flat.pairs);
}

proptest! {
    /// `get` (by attr and by precomputed slot accessor), `iter`, `arity`
    /// and `approx_size_bytes` agree with the flat reference model for
    /// random join trees.
    #[test]
    fn rope_agrees_with_flat_reference(seed in 0u64..1_000_000, relations in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let leaves = random_leaves(&mut rng, relations);
        let (rope, flat) = random_tree(&mut rng, leaves);

        prop_assert_eq!(rope.ts, flat.ts);
        prop_assert_eq!(rope.arity(), flat.pairs.len());
        prop_assert_eq!(rope.approx_size_bytes(), flat.approx_size_bytes());
        prop_assert_eq!(rope.is_intermediate(), relations > 1);

        // Iteration yields exactly the reference pairs (leaf slot order
        // inside each relation, relations left to right).
        let iterated: Vec<(AttrRef, Value)> = rope.iter().map(|(a, v)| (a, v.clone())).collect();
        prop_assert_eq!(&iterated, &flat.pairs);
        prop_assert_eq!(rope.flatten(), flat.pairs.clone());

        // Every attribute resolves identically, via `get` and via a
        // precomputed positional accessor.
        for (attr, _) in &flat.pairs {
            prop_assert_eq!(rope.get(attr), flat.get(attr), "attr {}", attr);
            prop_assert_eq!(SlotAccessor::of(attr).get(&rope), flat.get(attr));
        }
        // Absent attributes (unknown relation / out-of-range slot).
        let foreign = AttrRef::new(RelationId::new(99), AttrId::new(0));
        prop_assert_eq!(rope.get(&foreign), None);
        let out_of_range = AttrRef::new(RelationId::new(0), AttrId::new(63));
        prop_assert_eq!(rope.get(&out_of_range), flat.get(&out_of_range));
    }

    /// A `JoinSlot` builds what `Tuple::join` builds whichever of its
    /// results the caller keeps: a run of joins through one slot (random
    /// tree shapes on both sides, now and then an overlapping pair, a
    /// random third of the results kept past the joins after them) agrees
    /// with the flat reference result by result, and every kept result
    /// still does once the run is over.
    #[test]
    fn join_slot_results_equal_plain_joins_whatever_is_kept(
        seed in 0u64..1_000_000,
        joins in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slot = JoinSlot::default();
        let mut kept: Vec<(Tuple, FlatRef)> = Vec::new();
        for _ in 0..joins {
            let relations = rng.gen_range(2..6usize);
            let mut leaves = random_leaves(&mut rng, relations);
            let right_leaves = leaves.split_off(rng.gen_range(1..relations));
            let (left, left_flat) = random_tree(&mut rng, leaves);
            let (right, right_flat) = random_tree(&mut rng, right_leaves);
            if rng.gen_bool(0.1) {
                prop_assert!(slot.join(&left, &left).is_none());
            }
            let joined = slot.join(&left, &right).expect("disjoint relations");
            let flat = left_flat.join(&right_flat);
            assert_matches_reference(joined, &flat);
            prop_assert_eq!(joined.relations, left.relations.union(&right.relations));
            if rng.gen_bool(0.3) {
                kept.push((joined.clone(), flat));
            }
        }
        for (tuple, flat) in &kept {
            assert_matches_reference(tuple, flat);
        }
    }

    /// Equality is content equality: any two join-tree shapes and join
    /// orders over the same leaves compare equal, and the wire codec
    /// round-trips both (flattening the rope without losing anything).
    #[test]
    fn equality_and_wire_round_trip_are_shape_independent(
        seed in 0u64..1_000_000,
        relations in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let leaves = random_leaves(&mut rng, relations);

        let (tree_a, _) = random_tree(&mut rng, leaves.clone());
        // A second, independently random shape over a shuffled leaf order.
        let mut shuffled = leaves.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            shuffled.swap(i, j);
        }
        let (tree_b, _) = random_tree(&mut rng, shuffled);
        prop_assert_eq!(&tree_a, &tree_b, "shape/order must not affect equality");

        // Wire round trip: decode(encode(t)) == t, and the decoded tuple
        // still resolves every attribute.
        let decoded = Tuple::from_wire(&tree_a.to_wire()).expect("round trip");
        prop_assert_eq!(&decoded, &tree_a);
        prop_assert_eq!(decoded.ts, tree_a.ts);
        prop_assert_eq!(decoded.relations, tree_a.relations);
        prop_assert_eq!(decoded.approx_size_bytes(), tree_a.approx_size_bytes());
        for (attr, value) in tree_a.iter() {
            prop_assert_eq!(decoded.get(&attr), Some(value));
        }

        // Mutating one value breaks equality (the comparison is not
        // trivially true).
        if let Some((attr, Value::Int(_))) = tree_a.iter().next().map(|(a, v)| (a, v.clone())) {
            let mut pairs = tree_a.flatten();
            for (a, v) in &mut pairs {
                if *a == attr {
                    *v = Value::Int(123_456);
                }
            }
            let changed = Tuple::base(attr.relation, tree_a.ts, pairs
                .into_iter()
                .filter(|(a, _)| a.relation == attr.relation)
                .collect());
            if relations == 1 {
                prop_assert!(changed != tree_a || tree_a.get(&attr) == Some(&Value::Int(123_456)));
            }
        }
    }
}

/// Leaves cross worker threads inside `Batch` messages and results.
#[test]
fn tuples_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tuple>();
}

// --- deep rope chains through both engines --------------------------------

/// The five-way chain's relations, 7 ms apart, each timestamp moved
/// forward by up to 19 ms: timestamps jitter backwards relative to
/// arrival.
const CHAIN: StreamShape = StreamShape {
    relations: &["A", "B", "C", "D", "E"],
    step_ms: 7,
    jitter_ms: 20,
};

#[test]
fn five_way_chain_multisets_agree_between_engines_on_out_of_order_input() {
    let (catalog, queries) = five_chain(Window::secs(3600), 2);
    let stream = CHAIN.draw(&catalog, 24, 0..6, 0x5EED);
    let config = EngineConfig::default();
    for strategy in [Strategy::Shared, Strategy::GlobalIlp] {
        let plan = planned(&catalog, &queries, strategy);
        let runs = run_paths(&catalog, &plan, config, &stream, &[3], &[]);
        let (local, parallel) = runs.split_first().unwrap();
        for run in parallel {
            assert_eq!(
                local.metrics.total_results(),
                run.metrics.total_results(),
                "{strategy:?} result counts, {}",
                run.path
            );
            assert_eq!(
                local.results, run.results,
                "{strategy:?} result multisets, {}",
                run.path
            );
        }
        assert!(
            local.metrics.total_results() > 0,
            "{strategy:?} produced no 5-way results; stream too sparse"
        );
        // The emitted results are genuine deep ropes: 5 constituent
        // relations, at least two join levels.
        let mut engine = LocalEngine::new(catalog.clone(), plan, config);
        let results = engine.subscribe();
        for (relation, tuple) in &stream {
            engine.ingest(*relation, tuple.clone()).unwrap();
        }
        for (_, tuple) in results.try_iter().take(16) {
            assert_eq!(tuple.relations.len(), 5);
            assert!(
                tuple.depth() >= 2,
                "expected a deep rope, got {}",
                tuple.depth()
            );
            assert_eq!(tuple.arity(), 8, "x + (x,y) + (y,z) + (z,w) + w");
        }
    }
}

#[test]
fn micro_batching_preserves_chain_equivalence() {
    // Same 5-way chain, explicitly sweeping router micro-batch sizes.
    let (catalog, queries) = five_chain(Window::secs(3600), 2);
    let stream = CHAIN.draw(&catalog, 20, 0..5, 0xBA7C4);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    let reference = local_results(&catalog, &plan, &stream);
    for micro_batch in [1usize, 7, 1 << 20] {
        let config = EngineConfig {
            micro_batch,
            ..EngineConfig::default()
        };
        for run in run_paths(&catalog, &plan, config, &stream, &[2], &[]) {
            assert_eq!(
                run.results, reference,
                "micro_batch={micro_batch}, {}",
                run.path
            );
        }
    }
}

/// Out-of-order input under a finite window: one stream (a 3 s window of
/// 100 ms epochs over ≈ 14 s of stream time, so the window spans 30
/// epochs, stores expire every 64 tuples and their logs are disordered)
/// must produce the same per-query result multisets on every engine path,
/// and a `LocalEngine` subscription must hold the same results.
#[test]
fn out_of_order_finite_window_multisets_agree_on_every_path() {
    let (catalog, mut queries) = five_chain(Window::secs(3), 2);
    queries.push(parse_query(&catalog, QueryId::new(1), "mid3", "B(x,y), C(y,z), D(z,w)").unwrap());
    let stream = CHAIN.draw(&catalog, 400, 0..40, 0xF02E);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    let config = EngineConfig {
        epoch: EpochConfig::new(Duration::from_millis(100)),
        expire_every: 64,
        ..EngineConfig::default()
    };

    let runs = run_paths(&catalog, &plan, config, &stream, &[1, 2], &[]);
    let reference = &runs[0].results;
    for query in [QueryId::new(0), QueryId::new(1)] {
        let prefix = format!("{query}|");
        assert!(
            reference.iter().any(|r| r.starts_with(&prefix)),
            "{query} produced no results; stream too sparse"
        );
    }
    for run in &runs[1..] {
        assert_eq!(&run.results, reference, "{}", run.path);
    }

    let mut local = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let results = local.subscribe();
    for (relation, tuple) in &stream {
        local.ingest(*relation, tuple.clone()).unwrap();
    }
    let held: Vec<(QueryId, Tuple)> = results.try_iter().collect();
    assert_eq!(&multiset(&held), reference, "held by a subscription");

    // Lifetime: held results stay readable after a plan install carried
    // the stores over and after expiry dropped every epoch they came from.
    local.install_plan(plan).unwrap();
    let far = stream.last().map(|(_, t)| t.ts.as_millis()).unwrap_or(0) + 60_000;
    let (relation, _) = &stream[0];
    let meta = catalog.relation(*relation).unwrap();
    let late = clash_common::TupleBuilder::new(&meta.schema, Timestamp::from_millis(far)).build();
    local.ingest(*relation, late).unwrap();
    local.expire_stores();
    assert_eq!(local.store_tuples(), 1, "only the late tuple is in window");
    assert_eq!(&multiset(&held), reference, "held results survived expiry");
}

/// The kernel builds a delivery's results in one node while nobody keeps
/// them, so a sink that only reads each result must see what a consumer
/// keeping every result sees. On a hit-heavy finite-window stream (four
/// join-key values, so a probe matches many stored tuples), the results a
/// `LocalEngine` sink renders while it is called, the results a
/// `LocalEngine` subscription keeps and renders afterwards, and a
/// `ParallelEngine` subscription form one multiset.
#[test]
fn results_read_in_a_sink_equal_results_kept_past_it_on_both_engines() {
    let (catalog, _) = five_chain(Window::secs(1), 2);
    let queries = [
        (0, "A(x), B(x,y), C(y,z)"),
        (1, "A(x), B(x,y)"),
        (2, "B(x,y), C(y,z)"),
    ]
    .map(|(id, text)| parse_query(&catalog, QueryId::new(id), "q", text).unwrap());
    let stream = CHAIN.draw(&catalog, 120, 0..4, 0x5107);
    let plan = planned(&catalog, &queries, Strategy::GlobalIlp);
    let config = EngineConfig::default();

    let read = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut reading = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let sink = std::sync::Arc::clone(&read);
    reading.set_sink(Box::new(move |q, t| {
        sink.lock().unwrap().push(render(q, t))
    }));
    let mut keeping = LocalEngine::new(catalog.clone(), plan.clone(), config);
    let kept = keeping.subscribe();
    let mut parallel = ParallelEngine::new(catalog.clone(), plan, config, 2);
    let subscription = parallel.subscribe();
    for (relation, tuple) in &stream {
        reading.ingest(*relation, tuple.clone()).unwrap();
        keeping.ingest(*relation, tuple.clone()).unwrap();
        parallel.ingest(*relation, tuple.clone()).unwrap();
    }
    parallel.flush();

    let mut read = std::mem::take(&mut *read.lock().unwrap());
    read.sort();
    let evaluations = reading.snapshot().probes;
    assert!(
        read.len() as u64 > 4 * evaluations,
        "{} results over {evaluations} probes: not hit-heavy",
        read.len()
    );
    let kept: Vec<(QueryId, Tuple)> = kept.try_iter().collect();
    assert_eq!(multiset(&kept), read, "kept past the sink");
    let subscribed: Vec<(QueryId, Tuple)> = subscription.try_iter().collect();
    assert_eq!(multiset(&subscribed), read, "ParallelEngine subscription");
}
