module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema

let m_hits = Obs.Counter.make ~help:"compile cache hits" "compile_cache_hits_total"
let m_misses = Obs.Counter.make ~help:"compile cache misses" "compile_cache_misses_total"

(* Unconditional twins of the Obs counters: the service checkpoints
   warmth even when metrics collection is off. *)
type stats = { hits : int; misses : int }

let n_hits = Atomic.make 0
let n_misses = Atomic.make 0

(* A compiled artifact is a pure function of (ruleset, entity,
   master, template). Rulesets and master relations are long-lived
   shared structures, so physical identity is the right (and cheap)
   key for them; an entity relation may be rebuilt from the same
   tuples by a caller that re-makes its spec, so it is compared by
   content with a physical shortcut per tuple. Content equality is [Value.equal]-wise — the
   same notion every chase comparison uses — so a hit is guaranteed
   to produce an equivalent artifact. [hash] below leans on the
   [Value.hash]/[Value.compare] consistency contract (equal values —
   including an [Int]/[Float] pair spelling the same number — hash
   alike): without it, two content-equal specifications could land
   in different buckets and silently compile twice, defeating the
   warm-restart byte-identity the service relies on. *)
module Key = struct
  type t = Core.Specification.t

  let tuple_equal a b = a == b || Relational.Tuple.equal_values a b

  let relation_equal a b =
    a == b
    || Schema.equal (Relation.schema a) (Relation.schema b)
       && Relation.size a = Relation.size b
       && List.for_all2 tuple_equal (Relation.tuples a) (Relation.tuples b)

  let equal s1 s2 =
    Core.Specification.ruleset s1 == Core.Specification.ruleset s2
    && (match (Core.Specification.master s1, Core.Specification.master s2) with
       | None, None -> true
       | Some m1, Some m2 -> m1 == m2
       | _ -> false)
    && Array.for_all2 Value.equal
         (Core.Specification.template s1)
         (Core.Specification.template s2)
    && relation_equal (Core.Specification.entity s1) (Core.Specification.entity s2)

  let combine h x = (h * 1000003) + x

  let hash s =
    let h = ref (Hashtbl.hash (Core.Specification.schema s)) in
    Array.iter (fun v -> h := combine !h (Value.hash v)) (Core.Specification.template s);
    List.iter
      (fun t -> h := combine !h (Relational.Tuple.hash_values t))
      (Relation.tuples (Core.Specification.entity s));
    !h
end

module Tbl = Hashtbl.Make (Key)

(* Shared across all threads and worker domains: reads and writes go
   through the mutex; the (idempotent) compile itself runs outside
   it, so a racing duplicate compile costs time, never correctness. *)
let capacity = 1024
let lock = Mutex.create ()
let table : Core.Is_cr.compiled Tbl.t = Tbl.create 64

let compile spec =
  match Mutex.protect lock (fun () -> Tbl.find_opt table spec) with
  | Some c ->
      Obs.Counter.incr m_hits;
      Atomic.incr n_hits;
      c
  | None ->
      Obs.Counter.incr m_misses;
      Atomic.incr n_misses;
      let c = Core.Is_cr.compile spec in
      Mutex.protect lock (fun () ->
          if Tbl.length table >= capacity then Tbl.reset table;
          Tbl.replace table spec c);
      c

let clear () = Mutex.protect lock (fun () -> Tbl.reset table)
let size () = Mutex.protect lock (fun () -> Tbl.length table)

(* Checkpoint hooks for the service layer: the cache itself holds
   closures (not serializable), so a warm restart re-compiles from
   replayed spec descriptors and [warm] prefills without the caller
   needing the artifact. *)
let warm spec = ignore (compile spec : Core.Is_cr.compiled)
let stats () = { hits = Atomic.get n_hits; misses = Atomic.get n_misses }
