(** [TopKCT] (Fig. 5, §6.2): exact top-k candidate targets by
    lattice enumeration over per-attribute heaps, with a priority
    queue as the frontier.

    Given the deduced target [te] of a Church-Rosser specification,
    let [Z = {A | te[A] = null}]. The key fact (§6.2): if [Te] is
    the current top set and [t] is the next-best candidate, then [t]
    differs from some already-enumerated tuple in exactly one
    attribute. So the algorithm seeds the frontier with the
    all-top-values tuple and, on each pop, pushes the [m] neighbours
    obtained by advancing one attribute to its next-ranked domain
    value — popping tuples in exact score order without materializing
    ranked lists. Each popped tuple is verified a candidate target by
    [check] (a chase run, §5) before it is emitted.

    The enumeration is instance-optimal w.r.t. heap pops
    (Prop. 7). The paper's Brodal queue (kept in {!Pqueue}) is
    replaced by a mutable binary heap: the frontier is never shared
    or persisted, and its order — score, then the position vector —
    is total over distinct candidates, so the pop sequence is the
    same under either queue. Frontier objects carry only their
    position vector and score, deduplicated on the vector; a
    candidate's tuple is built when it is popped. *)

type stats = {
  heap_pops : int;  (** total pops over the m attribute heaps *)
  queue_pops : int;  (** pops from the frontier queue *)
  checks : int;  (** candidate verifications (chase runs) *)
  enumerated : int;  (** distinct tuples pushed to the frontier *)
}

type result = {
  targets : Relational.Value.t array list;
      (** up to [k] candidate targets, best score first *)
  stats : stats;
  exhausted : Robust.Error.trip option;
      (** [Some _] when the [budget] meter tripped before the search
          found [k] targets or proved no more exist; the targets are
          then the best found so far *)
}

val run :
  ?check:bool ->
  ?snapshot:Core.Is_cr.snapshot ->
  ?include_default:bool ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  result
(** [run ~k ~pref compiled te] enumerates candidates for the null
    attributes of [te]. [check] (default [true]) — [TopKCTh] reuses
    this machinery with [check:false] to get its initial k tuples.
    If [te] is already complete the result is just [te] (verified).

    All verifications of one run share a chase {!Core.Is_cr.snapshot}
    (built lazily from [compiled] on the first check, or supplied by
    the caller to amortise across runs), so each candidate costs one
    snapshot delta rather than a from-scratch chase.

    [budget] is charged one unit per frontier pop: its step cap
    bounds the pops and its deadline the wall time, and whichever
    trips first stops the search. §6.2 notes that when the
    specification has fewer than [k] candidate targets, TopKCT
    "would inevitably exhaust the entire search space", which is
    exponential; callers pass a budget so such pathological entities
    return their partial result instead. Unbounded by default
    (exact).

    Raises [Invalid_argument] if [k < 1] or some null attribute has
    an empty active domain. *)
