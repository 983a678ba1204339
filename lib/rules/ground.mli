(** [Instantiation] (§5): partial evaluation of the ARs in Σ over the
    tuples of [Ie] and [Im] into ground single chase steps Γ.

    A form (1) rule is instantiated on every ordered tuple pair
    (including [i = j], which is how axiom φ9 yields the λ-refresh
    steps that instantiate [te] on attributes with a unique greatest
    value). A form (2) rule is instantiated on every master tuple.
    Constant predicates are folded away — a false one kills the
    step — and the residue is one of two monotone event kinds:

    - {!P_ord}: a strict class pair must appear in one attribute's
      accuracy order (distinct value classes; a non-strict atom over
      one class folds to [true], a strict one to [false]);
    - {!P_te}: the target attribute, once assigned, must compare as
      stated. [te] attributes are write-once and only ever assigned
      non-null values, so a test against the {e initial} null (e.g.
      [te\[A\] = null]) is never satisfied — matching the paper,
      where [Φ_δ] keys on assignment events [te\[Ak\] = c] only.

    Steps are deduplicated (same residue and action ⇒ one step,
    first provenance wins); duplicate predicates within a step are
    collapsed so that each residual predicate fires at most once. *)

type action =
  | Add_order of { attr : int; c1 : int; c2 : int }
      (** assert class [c1 ⪯ c2] on [attr] ([c1 ≠ c2]) *)
  | Refresh of int
      (** a same-class order assertion: its only observable effect is
          the λ update of [te] on the attribute *)
  | Assign of { attr : int; value : Relational.Value.t }
      (** [te\[attr\] := value] from master data (value non-null) *)

type gpred =
  | P_ord of { attr : int; c1 : int; c2 : int }
      (** satisfied when the class edge [c1 → c2] appears *)
  | P_te of { attr : int; op : Ar.op; value : Relational.Value.t }
      (** satisfied when [te\[attr\]] is assigned some [w] with
          [w op value]; dead if assigned a [w] failing it *)

type step = {
  sid : int;  (** dense id, [0 .. |Γ|-1] *)
  rule_name : string;  (** provenance *)
  preds : gpred list;  (** residual predicates, deduplicated *)
  action : action;
}

type packed
(** Γ in flat form: the emission arenas themselves — packed action
    and predicate words over interned ids, rule-name and
    [Assign]-spelling side arrays — copied out of domain-local
    scratch into a caller-owned value. This is what the fast
    consumers use: {!Core.Is_cr.compile} builds its watch tables and
    slot space straight from the words, so the ~|Γ| [step] records
    and predicate lists are never materialized on the compile/clean
    path. {!steps_of_packed} recovers the record form for the
    reference engines and for provenance traces. *)

val instantiate_packed :
  intern:Relational.Intern.t ->
  ruleset:Ruleset.t ->
  entity:Relational.Relation.t ->
  master:Relational.Relation.t option ->
  orders:Ordering.Attr_order.numbering array ->
  packed
(** Eager Γ without record materialization: every form-(2) rule
    grounds one step per master row. See {!instantiate} for the
    instantiation semantics; the two entry points share the whole
    emission pipeline and produce identical step sequences. The
    production path grounds through {!instantiate_demand}; this one
    is the reference it is tested against. *)

type template
(** One form-(2) rule held back from eager grounding (demand mode):
    the rule's selections, residual recipe and conclusion, plus its
    {e join binding} — the first [Te_master] conjunct. It stands in
    for one candidate step per master row; the chase materializes
    those only when a [te] write on the join attribute produces a
    value present in the master join column ({!Master_index}), which
    is the only event under which any of them could fire. Rules with
    no [Te_master] conjunct never defer. *)

val template_id : template -> int
(** Dense per-grounding id, [0 .. n_templates-1]. *)

val template_name : template -> string
(** Provenance: the rule's name. *)

val template_join_attr : template -> int
(** The [te] attribute whose writes can wake this template. *)

val template_join_col : template -> int
(** The master column the join attribute must match. *)

type demand = {
  d_packed : packed;  (** the eagerly-ground steps *)
  d_templates : template array;  (** deferred form-(2) rules, by id *)
}
(** A demand-mode grounding: eager steps plus deferred templates. *)

val instantiate_demand :
  ?only:(Ar.t -> bool) ->
  intern:Relational.Intern.t ->
  ruleset:Ruleset.t ->
  entity:Relational.Relation.t ->
  master:Relational.Relation.t option ->
  orders:Ordering.Attr_order.numbering array ->
  unit ->
  demand
(** Demand-driven grounding: form-(2) rules with a [Te_master]
    conjunct emit one {!template} each instead of |Im| candidate
    steps; everything else grounds exactly as {!instantiate_packed}.
    Together with {!arena_materialize} this produces the same step
    set, with the same dedup classes and first-provenance-wins
    spellings, as the eager path — restricted to steps whose join
    keys the run actually produced (no other deferred step can ever
    fire). Without a master no rule defers, and the packed Γ equals
    {!instantiate_packed}'s.

    [only] restricts the instantiated rules (axioms included in the
    filter): grounding just an added rule against a live entity
    decides whether its Γ can grow without re-instantiating the rest
    of Σ. Dedup then only sees the filtered rules, so a step
    duplicating one of an excluded rule is emitted even though a full
    instantiation would drop it — callers treat a non-empty result as
    "possibly affected", which stays sound. *)

type arena
(** The growable tail of a packed Γ: a frozen eager prefix plus steps
    materialized from templates mid-chase. Sids extend the packed
    numbering densely, so slot tables, undo logs and traces are
    oblivious to a step's provenance. Owned by a single run state —
    never shared, never part of the immutable compiled artifact. *)

val arena_create : packed -> template array -> arena
(** A fresh arena over an eager prefix. Seeds the dedup key set with
    the prefix's [Assign] keys, so materialization reproduces the
    eager path's first-provenance-wins dedup exactly. *)

val arena_template : arena -> int -> template

val arena_materialize :
  arena ->
  master:Relational.Relation.t ->
  rows:int list ->
  int ->
  on_new:(int -> unit) ->
  unit
(** [arena_materialize a ~master ~rows tid ~on_new] instantiates
    template [tid] over the given master rows (a residual-index hit
    for one join value), appending each new step and reporting its
    sid through [on_new]; rows whose step the arena (or the eager
    prefix) already holds are deduplicated silently. *)

val arena_rule_name : arena -> int -> string
val arena_pred_count : arena -> int -> int
val arena_iter_predi : arena -> int -> (int -> gpred -> unit) -> unit
(** Total over both the eager prefix and the materialized tail. *)

val arena_action : arena -> int -> action
(** The action of a {e materialized} step (always an [Assign] with
    the master row's own spelling). Eager-prefix sids must use the
    compiled action table instead. *)

val arena_step : arena -> int -> step
(** Decoded record of a {e materialized} step — the cold provenance/
    trace path. *)

val packed_count : packed -> int
(** |Γ|. *)

val packed_rule_name : packed -> int -> string
(** Provenance of step [sid]. *)

val packed_pred_count : packed -> int -> int
(** Number of residual predicates of step [sid]. *)

val packed_iter_predi : packed -> int -> (int -> gpred -> unit) -> unit
(** [packed_iter_predi pk sid f] decodes each residual of step [sid]
    and calls [f slot pred] in slot order. *)

val packed_actions : packed -> action array
(** The decoded action of every step, indexed by [sid]. [Assign]
    actions carry the master row's own value spelling, exactly as in
    the [step] records. *)

val steps_of_packed : packed -> step list
(** The [step] records of a packed Γ, in [sid] order, with shared
    sub-structure hash-consed through domain-local caches. *)

val instantiate :
  intern:Relational.Intern.t ->
  ruleset:Ruleset.t ->
  entity:Relational.Relation.t ->
  master:Relational.Relation.t option ->
  orders:Ordering.Attr_order.numbering array ->
  step list
(** Γ. [orders] supplies the value-class numbering of each attribute
    (instantiation only reads classes, never order state, so it takes
    the bare numbering — see {!Core.Specification.numbering}).

    Each AR is compiled once against the entity's class numbering and
    the interning table [intern] (pass {!Core.Specification.intern}
    so ids agree with the rest of the pipeline; a fresh table is fine
    for standalone grounding): tuple-local predicate parts become
    precomputed
    per-tuple byte tables, residuals become packed-int emitters over
    flat id arrays, and the per-pair hot loop touches only machine
    ints. Candidate identities are sorted packed-[int array] keys —
    no structural value hashing — with {!Relational.Intern} ids
    standing in for values, so the dedup classes are exactly those of
    [Value.equal] (numeric twins unify). Form (2) rules carrying a
    [Master_const (b, Eq, c)] selection look up the matching master
    rows through a per-attribute index keyed by interned id instead
    of scanning all of [Im].

    Raises [Invalid_argument] on a form (1) predicate comparing two
    different target attributes (outside the paper's grammar), or if
    an attribute/class/value-id exceeds the packed-key ranges (4096
    attributes, ~8.4M classes or distinct values). *)

val pp_step : Format.formatter -> step -> unit
