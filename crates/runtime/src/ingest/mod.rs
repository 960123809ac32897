//! Asynchronous multi-source ingestion: the front-end that removes the
//! last serial stage of the sharded runtime.
//!
//! The coordinator of [`crate::parallel::ParallelEngine`] was the single
//! thread every input tuple had to pass through — the CLASH paper's
//! scale-out deployment instead assumes tuples arrive from many
//! independent stream sources concurrently. This module lets N producer
//! threads ingest in parallel while the coordinator degrades to a
//! control-plane thread (barriers, plan installs, expiry):
//!
//! * [`SourceHandle`] — the producer-side API handed out by
//!   `ParallelEngine::open_source`. Each handle owns a private ingress
//!   router: it resolves partition routing with
//!   [`crate::parallel::router::fan_out`], micro-batches deliveries in its
//!   own [`crate::parallel::router::BatchBuffer`] (the PR 2 batching
//!   machinery) and ships them straight to the worker shards — no hop
//!   through the coordinator thread. The coordinator's own `ingest`
//!   pushes through a handle it keeps for itself, so this is the only
//!   producer path. Handles never share hot state: every slot has its own
//!   lock, so producers block each other only if the caller shares one
//!   handle across threads.
//! * **Backpressure** — every push first passes an admission gate bounding
//!   the number of in-flight roots (`EngineConfig::max_inflight_roots`)
//!   against the global completion watermark, so a slow consumer throttles
//!   producers instead of letting worker queues grow without limit.
//! * **Demand-driven shipping** — a batch ships when a worker it holds
//!   deliveries for is idle: the push that buffered them checks, and a
//!   worker whose queue runs dry pulls whatever the producers still hold
//!   for it ([`shared::ControlShared::ship_held_for`]), so a producer that
//!   left deliveries behind a busy worker and then went quiet cannot
//!   strand them (and the results they would produce) until the next
//!   barrier. No timer and no thread besides the workers is involved.
//!
//! # Exactness under concurrent producers: linearizability
//!
//! Every root still receives a unique sequence number (one shared atomic
//! allocator), so a single logical serial order exists: the allocation
//! order, which respects every source's push order. The engine's
//! guarantee is *linearizability with respect to that order* — the result
//! multiset is exactly what `LocalEngine` produces when ingesting all
//! pushed tuples in sequence-number order. `SourceHandle::push` returns
//! the allocated number, so the realized order is observable (the
//! equivalence property test replays it through `LocalEngine`).
//!
//! Which serial order was realized only matters where the seed's
//! arrival-order semantics make it matter: a pair of tuples joins only if
//! the stored side both carries a smaller timestamp *and* arrived (was
//! sequenced) earlier. Streams whose timestamps are consistent with every
//! source's push order, or whose sources never share join keys, therefore
//! produce one deterministic multiset under any interleaving; only
//! cross-source pairs with inverted timestamps depend on the race — the
//! same way `LocalEngine`'s output depends on arrival order for
//! out-of-order input.
//!
//! Mechanically, what multi-producer delivery breaks is the channel-FIFO
//! half of the single-coordinator argument: a probe from source A can
//! reach a (store, partition) before an insert from source B that carries
//! a *smaller* sequence number. The kernel's one registration rule already
//! covers it: a probe registers as a pending prober iff a root below its
//! guard may still be in flight, whoever sent either side, and the late
//! insert retro-matches it exactly once — the same mechanism that covers
//! forward-fed stores and a single producer's buffered batches. Nothing
//! changes when a source opens. Per-(source, partition) FIFO holds per
//! handle (each handle's sends to a worker are dequeued in push order),
//! so most matches are found at probe time; a prober costs only while an
//! earlier root is still in flight.
//!
//! # Plan installs under live ingestion: the quiesce protocol
//!
//! Plan installs drop no push under concurrent producers. The engine
//! pauses the [`shared::QuiesceGate`] every push passes through (new
//! pushes block, in-flight pushes finish routing), flushes every slot's
//! residual old-plan batches, drains the workers to the completion
//! watermark, installs the new plan on every worker and every slot, and
//! resumes the gate. A racing push therefore either completes entirely
//! under the old plan (and its results are emitted before the switch)
//! or blocks for the duration of the quiesce window and then routes
//! against the new plan — it is never routed against a stale plan and
//! never dropped by a worker that already switched. See
//! `ParallelEngine::install_plan` and DESIGN.md.

pub(crate) mod shared;
mod source;

pub use source::SourceHandle;
