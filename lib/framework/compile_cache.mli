(** Compile-once / run-many: a process-wide cache of
    {!Core.Is_cr.compiled} artifacts.

    Grounding is the specification-level analogue of query
    compilation — a pure function of (ruleset, entity, master,
    template) — so repeated runs over the same specification reuse
    one artifact instead of re-instantiating Γ. Its callers are the
    ones whose lookups repeat: {!Pipeline.execute} (chase and top-k,
    which a long-lived server sees again and again for one spec), the
    server's warm restart ({!warm}) and the benchmark's per-layer
    timing. A batch clean or a session compiles each entity once,
    directly ({!Cleaner.process_entity}), and never goes through
    here.

    Rulesets and master relations are keyed by physical identity; the
    entity relation and template by content ([Value.equal]-wise, with
    a physical shortcut). The content key stays although the server
    reuses one loaded spec per key: it costs one hash over the
    entity's tuples per lookup, against a compile, and a library
    caller that rebuilds a spec from the same tuples still hits
    instead of compiling again.

    Domain-safe: lookups and insertions are mutex-guarded (the
    compile itself runs outside the lock; a racing duplicate compile
    is idempotent). The cache is bounded ([1024] entries) and resets
    wholesale when full. Hits and misses are observable as
    [compile_cache_hits_total] / [compile_cache_misses_total]. *)

val compile : Core.Specification.t -> Core.Is_cr.compiled
(** Cached {!Core.Is_cr.compile}. *)

val clear : unit -> unit
(** Drop every cached artifact (tests and memory-sensitive callers). *)

val size : unit -> int
(** Current number of cached artifacts. *)

val warm : Core.Specification.t -> unit
(** Prefill: compile (through the cache) and discard the artifact —
    the checkpoint-replay hook a restarting {!Service} uses to
    restore warmth before serving traffic. *)

type stats = { hits : int; misses : int }

val stats : unit -> stats
(** Lifetime hit/miss totals, counted independently of the Obs
    enabled flag (warm-restart assertions depend on them). *)
