(** A shared, lazily-built value index over one master relation: per
    column, which rows hold a given value.

    This is the master-side half of demand-driven form-(2) grounding
    ({!Ground.template}): when a chase assigns a [te] attribute a
    form-(2) rule joins on, the engine asks this index which master
    rows carry that value in the join column and materializes ground
    steps for exactly those rows. The index owns its own
    {!Relational.Intern} table, so the O(|Im|) interning pass over a
    master column happens once per master relation {e process-wide} —
    never once per entity — and each probe is one boundary-level
    intern lookup plus an integer table hit.

    Instances are memoized by the master relation's {e physical}
    identity in a small MRU-bounded cache (masters are long-lived;
    a [Master_fix] builds a new relation, and the old entry ages
    out). All operations are serialized by per-index mutexes, so
    worker domains cleaning different entities share one index
    safely. *)

type t

val of_master : Relational.Relation.t -> t
(** The (memoized) index of a master relation. Cheap: columns are
    only indexed on first probe. *)

val rows : t -> col:int -> Relational.Value.t -> int list
(** [rows t ~col v] — the master rows whose [col] cell equals [v]
    ({!Relational.Value.equal}-wise, numeric twins unified),
    ascending; [[]] for a value absent from the column or for null
    (a null join value never satisfies a [te] equality). *)

val relation : t -> Relational.Relation.t
(** The indexed master relation itself. *)

val domain :
  t -> cols:int list -> skip:Relational.Value.t list -> Relational.Value.t list
(** [domain t ~cols ~skip] — the distinct non-null values of the
    master columns [cols], in first-seen order (the columns in the
    given order, each top to bottom), leaving out every value
    {!Relational.Value.equal} to one in [skip]. This is the master
    half of a top-k active domain: the distinct values of a column
    set are computed once per index and reused for every entity
    cleaned against the same master. *)
