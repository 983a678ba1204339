(** Incremental cleaning: a long-lived session that delta-maintains
    the cleaned relation under single-tuple updates.

    A batch {!Cleaner.clean} is a pure fold over independent
    per-entity results ({!Cleaner.process_entity} per ER cluster,
    {!Cleaner.assemble} over the lot). A session caches exactly those
    per-entity results and, on each {!update}, re-cleans only the
    entities the update can affect — through the very same per-entity
    code path — so the maintained {!report} is byte-identical to a
    fresh batch run over the current state (property-tested), while
    untouched entities cost zero.

    The affectedness analysis per update kind:

    - {e Tuple_add / Tuple_retract}: ER is blocking + above-threshold
      matching + transitive closure, i.e. connected components of an
      edge relation local to each cluster. Only the clusters merged
      with (or split by) the touched row change; every other entity's
      instance, Γ, and result are untouched. The session maintains a
      blocking-key index to find an added tuple's candidate
      neighbours without re-blocking.
    - {e Master_fix}, {e Rule_add}, {e Rule_retire}: one
      reachability test. A form-(2) step can change an entity only if
      its [Te_master] join values are ones that entity's write-once
      [te] can ever hold (own cell values, values copyable from
      master, or anything on a chase-null attribute). A master fix
      changes a rule's steps only if the rule mentions the fixed
      attribute, and both row versions (removed old / added new) are
      tested. An added or retired form-(2) rule tests the steps it
      grounds over the whole master.
    - {e Rule_add} of a form-(1) rule: the new rule alone is ground
      against each entity ({!Rules.Ground.instantiate_demand} with
      [~only]); zero steps proves Γ unchanged.
    - {e Rule_retire}: an entity whose current Γ does not name the
      rule (as a step's provenance or a deferred template) survives
      unchanged; the probe demand-grounds Γ and stops at the first
      match, after the reachability test for a form-(2) rule.

    Under a {e finite} budget the master/rule analyses are disabled
    (every entity re-cleans): budgets charge |Γ| up front, so even a
    never-firing ground-step change is observable in retry/quarantine
    accounting. Tuple updates stay pruned — unaffected entities have
    bit-identical inputs, budgets included.

    Sessions are single-threaded on the update side ([jobs] only
    parallelizes the initial clean); confine one session to one
    domain. *)

type t

type update =
  | Tuple_add of Relational.Tuple.t
      (** a new dirty row joins the relation (at the end) *)
  | Tuple_retract of int
      (** remove the row at this position of the current relation *)
  | Master_fix of { row : int; attr : int; value : Relational.Value.t }
      (** correct one master cell in place *)
  | Rule_add of Rules.Ar.t  (** append a user rule to Σ *)
  | Rule_retire of string  (** remove a user rule by name *)

type delta_report = {
  d_touched : int;  (** entities whose membership or inputs changed *)
  d_recleaned : int;  (** entities actually re-cleaned *)
  d_rows_changed : int;
      (** cleaned-report row churn (removed + added-or-rewritten) —
          an upper bound: a re-clean may reproduce the same tuple *)
  d_entities : int;  (** current entity count *)
}

val create :
  ?master:Relational.Relation.t ->
  ?pref_of:(Relational.Relation.t -> Topk.Preference.t) ->
  ?k_budget:int ->
  ?budget:Robust.Budget.limits ->
  ?retries:int ->
  ?jobs:int ->
  er:Er.Resolver.config ->
  Rules.Ruleset.t ->
  Relational.Relation.t ->
  t
(** Cluster, clean, and cache every entity of the dirty relation —
    the initial full clean, identical in result to
    {!Cleaner.clean}[ ~er] with the same knobs ([jobs] parallelizes
    it the same way). Raises [Invalid_argument] on [jobs < 0]. *)

val update : t -> update -> (delta_report, Robust.Error.t) result
(** Apply one update and re-establish the invariant that every
    cached entity result equals a fresh clean of its current inputs.
    [Error] rejects the update without changing any state: an arity
    mismatch, an out-of-range position/row/attribute, a duplicate or
    invalid rule, an unknown (or axiom) retire name. Entity-level
    failures are NOT update errors — they quarantine the entity in
    the report, exactly as in batch. *)

val apply :
  t -> update list -> (int * Cleaner.report, Robust.Error.t) result
(** Fold {!update} over a list (stops at the first rejected update),
    returning how many applied and the resulting {!report}. *)

val report : t -> Cleaner.report
(** The maintained clean — byte-identical to
    [Cleaner.clean ~er ... (relation t)] on the current state. Cached
    between updates; assembly is a cheap fold when invalidated. *)

val relation : t -> Relational.Relation.t
(** The current dirty relation (live rows, in order). *)

val master : t -> Relational.Relation.t option
val ruleset : t -> Rules.Ruleset.t
val entities : t -> int
