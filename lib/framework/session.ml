module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Intern = Relational.Intern

let m_updates = Obs.Counter.make ~help:"session updates applied" "session_updates_total"
let m_recleaned = Obs.Counter.make ~help:"entities re-cleaned by session updates" "session_recleaned_total"
let m_unaffected = Obs.Counter.make ~help:"entities proved unaffected by session updates" "session_unaffected_total"

type update =
  | Tuple_add of Tuple.t
  | Tuple_retract of int
  | Master_fix of { row : int; attr : int; value : Value.t }
  | Rule_add of Rules.Ar.t
  | Rule_retire of string

type delta_report = {
  d_touched : int;
  d_recleaned : int;
  d_rows_changed : int;
  d_entities : int;
}

(* One live entity: its membership, the cached result of the exact
   batch per-entity path, and [e_vals], the lazily-packed (attribute,
   interned value id) pairs of the member tuples — the values the
   reachability test probes. An entry's membership never changes (ER
   updates replace entries), so neither does [e_vals]. *)
type centry = {
  e_members : int list;  (* row ids, ascending *)
  mutable e_vals : int array option;
  mutable e_result : Cleaner.entity_result;
}

type t = {
  schema : Relational.Schema.t;
  er : Er.Resolver.config;
  pref_of : (Relation.t -> Topk.Preference.t) option;
  k_budget : int option;
  budget : Robust.Budget.limits;
  retries : int option;
  mutable ruleset : Rules.Ruleset.t;
  mutable master : Relation.t option;
  (* Live rows: id -> tuple, plus ids in insertion order. Ids are
     allocated monotonically and never reused, so ascending id order
     IS current relation-position order — which keeps cluster member
     order and cluster order (by first member) in lockstep with what
     a batch run over [relation] would produce. *)
  rows : (int, Tuple.t) Hashtbl.t;
  mutable order : int list;
  mutable next_id : int;
  (* (attr, block key) -> row ids, maintained under add/retract: the
     candidate neighbours of an added tuple without re-blocking. *)
  keys : (int * string, int list) Hashtbl.t;
  mutable clusters : centry list;  (* sorted by first member id *)
  (* Session-wide intern table for the affectedness analysis: entity
     and master values map to dense ids once, so every value-level
     probe is an integer membership test. Distinct from the
     per-entity specification interns Γ is grounded with. *)
  sintern : Intern.t;
  mutable cached : Cleaner.report option;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

let pack_av attr vid = (attr lsl 32) lor vid

let key_add t id tuple =
  List.iter
    (fun (a, k) ->
      let key = (a, k) in
      let ids = match Hashtbl.find_opt t.keys key with Some l -> l | None -> [] in
      Hashtbl.replace t.keys key (id :: ids))
    (Er.Resolver.tuple_block_keys t.er tuple)

let key_remove t id tuple =
  List.iter
    (fun (a, k) ->
      let key = (a, k) in
      match Hashtbl.find_opt t.keys key with
      | None -> ()
      | Some ids -> (
          match List.filter (fun i -> i <> id) ids with
          | [] -> Hashtbl.remove t.keys key
          | ids -> Hashtbl.replace t.keys key ids))
    (Er.Resolver.tuple_block_keys t.er tuple)

let tuple_of t id = Hashtbl.find t.rows id

let instance_of t members =
  Relation.make t.schema (List.map (tuple_of t) members)

(* Two live rows are ER-linked iff they share a blocking key and
   score at or above the threshold — exactly the edge relation of
   [Er.Resolver.cluster], whose connected components the session
   maintains. *)
let share_block t t1 t2 =
  let k2 = Er.Resolver.tuple_block_keys t.er t2 in
  List.exists (fun k -> List.mem k k2) (Er.Resolver.tuple_block_keys t.er t1)

let linked t t1 t2 =
  share_block t t1 t2 && Er.Resolver.similarity t.er t1 t2 >= t.er.threshold

let sort_clusters t =
  t.clusters <-
    List.sort
      (fun a b -> compare (List.hd a.e_members) (List.hd b.e_members))
      t.clusters

(* ------------------------------------------------------------------ *)
(* Per-entity recompute — the exact batch path                        *)
(* ------------------------------------------------------------------ *)

let process_entity t instance =
  Cleaner.process_entity ?pref_of:t.pref_of ?k_budget:t.k_budget
    ~budget:t.budget ?retries:t.retries ?master:t.master t.ruleset instance

let fresh_entry t members =
  Obs.Counter.incr m_recleaned;
  {
    e_members = members;
    e_vals = None;
    e_result = process_entity t (instance_of t members);
  }

let reclean e t =
  Obs.Counter.incr m_recleaned;
  e.e_result <- process_entity t (instance_of t e.e_members)

(* ------------------------------------------------------------------ *)
(* Lazy indexes                                                       *)
(* ------------------------------------------------------------------ *)

let vals_of t e =
  match e.e_vals with
  | Some a -> a
  | None ->
      let acc = ref [] in
      List.iter
        (fun id ->
          let tu = tuple_of t id in
          for a = 0 to Tuple.arity tu - 1 do
            let v = Tuple.get tu a in
            if not (Value.is_null v) then
              acc := pack_av a (Intern.intern t.sintern v) :: !acc
          done)
        e.e_members;
      let a = Array.of_list (List.sort_uniq compare !acc) in
      e.e_vals <- Some a;
      a

let mem_sorted (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = x then found := true else if v < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* The entity's Γ over the CURRENT inputs, demand-ground exactly as
   the next recompute would ground it (form-(2) rules stay templates
   instead of |Im| steps). [None] when the entity has no valid
   specification. *)
let ground_entity ?only t e =
  let instance = instance_of t e.e_members in
  Result.to_option
    (Result.map
       (fun spec ->
         Rules.Ground.instantiate_demand ?only
           ~intern:(Core.Specification.intern spec)
           ~ruleset:t.ruleset ~entity:instance ~master:t.master
           ~orders:(Core.Specification.numbering spec)
           ())
       (Core.Specification.make ~entity:instance ?master:t.master t.ruleset))

(* Does the entity's current Γ name rule [name] — as the first-wins
   provenance of a ground step or as a deferred template? [true]
   when the entity has no valid specification. *)
let gamma_names t e name =
  match ground_entity t e with
  | None -> true
  | Some d ->
      let pk = d.Rules.Ground.d_packed in
      let rec step sid =
        sid < Rules.Ground.packed_count pk
        && (Rules.Ground.packed_rule_name pk sid = name || step (sid + 1))
      in
      step 0
      || Array.exists
           (fun tpl -> Rules.Ground.template_name tpl = name)
           d.Rules.Ground.d_templates

(* The (te attr, vid) pairs any form-(2) rule could assign over the
   current master — the "reachable through master copy" part of the
   te-reachability test. The inputs are read now, the set built on
   first force, so a caller may swap the master or rule set in
   between and still probe the pre-swap set. *)
let copyable t =
  let master = t.master and rules = Rules.Ruleset.rules t.ruleset in
  lazy
    (let h = Hashtbl.create 256 in
     Option.iter
       (fun m ->
         List.iter
           (function
             | Rules.Ar.Form2 { f2_te_attr; f2_tm_attr; _ } ->
                 for i = 0 to Relation.size m - 1 do
                   let v = Relation.get m i f2_tm_attr in
                   if not (Value.is_null v) then
                     Hashtbl.replace h
                       (pack_av f2_te_attr (Intern.intern t.sintern v))
                       ()
                 done
             | Rules.Ar.Form1 _ -> ())
           rules)
       master;
     h)

(* ------------------------------------------------------------------ *)
(* Reachability: can a form-(2) step move this entity's result?       *)
(* ------------------------------------------------------------------ *)

(* A form-(2) rule grounds one step per master row passing its
   [Master_const] selection. The step's residuals are te-tests
   against the row's [Te_master] join values, and its action copies
   the row's [f2_tm_attr] value. *)
let master_selects f2 tu =
  List.for_all
    (function
      | Rules.Ar.Master_const (b, op, c) -> Rules.Ar.eval_op op (Tuple.get tu b) c
      | _ -> true)
    f2.Rules.Ar.f2_lhs

let residual_of f2 tu =
  List.filter_map
    (function Rules.Ar.Te_master (al, b) -> Some (al, Tuple.get tu b) | _ -> None)
    f2.Rules.Ar.f2_lhs

(* The deduplicated residual vectors a rule grounds over the current
   master; [None] for form-(1) rules, whose grounding probe is
   entity-level. Computed once per update, probed per entity. *)
let f2_residual_rows t = function
  | Rules.Ar.Form1 _ -> None
  | Rules.Ar.Form2 f2 ->
      let rows =
        match t.master with
        | None -> []
        | Some m ->
            List.filter_map
              (fun tu ->
                if
                  master_selects f2 tu
                  && not (Value.is_null (Tuple.get tu f2.Rules.Ar.f2_tm_attr))
                then Some (residual_of f2 tu)
                else None)
              (Relation.tuples m)
      in
      Some (List.sort_uniq compare rows)

(* The one affectedness test of master and rule updates: can any of
   the residual vectors ever be satisfied by this entity's [te]? A
   step whose residuals never hold never fires, so adding or removing
   it cannot change a result the chase fixpoint decides. [te] is
   write-once, and the values it can ever hold are exhaustive for
   chase and candidate checks alike:
   - the entity's own cells ([e_vals]: λ-refresh only promotes column
     values);
   - anything a rule can copy from master ([copyable]);
   - anything at all on an attribute still null at the chase fixpoint
     ([r_chase_nulls]: top-1 completion tries arbitrary active-domain
     values there).
   Entities whose outcome the fixpoint does not decide (quarantined,
   non-Church-Rosser) are provenance-sensitive — always affected. *)
let entity_reaches t ~copyable e residual_rows =
  match e.e_result.Cleaner.r_outcome with
  | Cleaner.Quarantined _ | Cleaner.Not_church_rosser _ -> true
  | _ ->
      let vals = vals_of t e in
      let nulls = e.e_result.Cleaner.r_chase_nulls in
      let reachable (al, v) =
        (not (Value.is_null v))
        && (List.mem al nulls
           ||
           let key = pack_av al (Intern.intern t.sintern v) in
           mem_sorted vals key || Hashtbl.mem (Lazy.force copyable) key)
      in
      List.exists (List.for_all reachable) residual_rows

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create ?master ?pref_of ?k_budget ?(budget = Robust.Budget.unlimited)
    ?retries ?jobs ~er ruleset dirty =
  let t =
    {
      schema = Relation.schema dirty;
      er;
      pref_of;
      k_budget;
      budget;
      retries;
      ruleset;
      master;
      rows = Hashtbl.create (max 16 (Relation.size dirty));
      order = [];
      next_id = 0;
      keys = Hashtbl.create 256;
      clusters = [];
      sintern = Intern.create ();
      cached = None;
    }
  in
  let n = Relation.size dirty in
  for i = 0 to n - 1 do
    Hashtbl.replace t.rows i (Relation.tuple dirty i)
  done;
  t.order <- List.init n Fun.id;
  t.next_id <- n;
  Hashtbl.iter (fun id tu -> key_add t id tu) t.rows;
  (* Row ids start as relation positions, so the clusters index
     [dirty] directly. *)
  let clusters = Er.Resolver.cluster er dirty in
  let results =
    Cleaner.clean_entities ?master ?pref_of ?k_budget ~budget ?retries ?jobs
      ruleset dirty clusters
  in
  t.clusters <-
    List.mapi
      (fun i members ->
        { e_members = members; e_vals = None; e_result = results.(i) })
      clusters;
  sort_clusters t;
  t

(* ------------------------------------------------------------------ *)
(* Read side                                                          *)
(* ------------------------------------------------------------------ *)

let relation t = Relation.make t.schema (List.map (tuple_of t) t.order)
let master t = t.master
let ruleset t = t.ruleset
let entities t = List.length t.clusters

let report t =
  match t.cached with
  | Some r -> r
  | None ->
      let r =
        Cleaner.assemble t.schema
          (Array.of_list (List.map (fun e -> e.e_result) t.clusters))
      in
      t.cached <- Some r;
      r

(* ------------------------------------------------------------------ *)
(* Update kinds                                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let dreport t ~touched ~recleaned ~rows_changed =
  t.cached <- None;
  Obs.Counter.incr m_updates;
  {
    d_touched = touched;
    d_recleaned = recleaned;
    d_rows_changed = rows_changed;
    d_entities = List.length t.clusters;
  }

(* The shared tail of master and rule updates: split the live
   entities by [affected], re-clean the affected ones and report.
   Under a finite budget the analysis is off (see the interface) and
   every entity re-cleans. Callers that must test against the
   pre-update inputs pass an already-computed split to
   [reclean_split]. *)
let split_affected t affected =
  if Robust.Budget.is_unlimited t.budget then List.partition affected t.clusters
  else (t.clusters, [])

let reclean_split t (dirty, clean) =
  List.iter (fun e -> reclean e t) dirty;
  List.iter (fun _ -> Obs.Counter.incr m_unaffected) clean;
  let n = List.length dirty in
  dreport t ~touched:n ~recleaned:n ~rows_changed:n

let tuple_add t tuple =
  if Tuple.arity tuple <> Relational.Schema.arity t.schema then
    Error
      (Robust.Error.spec_invalid
         (Printf.sprintf "Tuple_add: arity %d, schema wants %d"
            (Tuple.arity tuple)
            (Relational.Schema.arity t.schema)))
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    (* Candidate neighbours share a blocking key; above-threshold ones
       merge their components with the new row — exactly the edges a
       re-clustering would add. *)
    let candidates =
      List.sort_uniq compare
        (List.concat_map
           (fun k ->
             match Hashtbl.find_opt t.keys k with Some l -> l | None -> [])
           (Er.Resolver.tuple_block_keys t.er tuple))
    in
    let matched =
      List.filter
        (fun cid ->
          Er.Resolver.similarity t.er tuple (tuple_of t cid) >= t.er.threshold)
        candidates
    in
    Hashtbl.replace t.rows id tuple;
    t.order <- t.order @ [ id ];
    key_add t id tuple;
    let merged, kept =
      List.partition
        (fun e -> List.exists (fun m -> List.mem m matched) e.e_members)
        t.clusters
    in
    let members =
      List.sort compare (id :: List.concat_map (fun e -> e.e_members) merged)
    in
    List.iter (fun _ -> Obs.Counter.incr m_unaffected) kept;
    t.clusters <- fresh_entry t members :: kept;
    sort_clusters t;
    Ok
      (dreport t ~touched:(List.length merged) ~recleaned:1
         ~rows_changed:(List.length merged + 1))
  end

let tuple_retract t pos =
  if pos < 0 || pos >= List.length t.order then
    Error
      (Robust.Error.spec_invalid
         (Printf.sprintf "Tuple_retract: position %d of %d rows" pos
            (List.length t.order)))
  else begin
    let id = List.nth t.order pos in
    let tuple = tuple_of t id in
    t.order <- List.filter (fun i -> i <> id) t.order;
    Hashtbl.remove t.rows id;
    key_remove t id tuple;
    let home, kept = List.partition (fun e -> List.mem id e.e_members) t.clusters in
    let home = List.hd home in
    let rest = List.filter (fun m -> m <> id) home.e_members in
    let parts =
      match rest with
      | [] -> []
      | rest ->
          (* Re-derive the components of the shrunk cluster: edges
             only ever existed inside it, so a local union-find over
             the surviving members reproduces the global partition. *)
          let arr = Array.of_list rest in
          let n = Array.length arr in
          let uf = Util.Union_find.create n in
          for x = 0 to n - 1 do
            for y = x + 1 to n - 1 do
              if
                (not (Util.Union_find.same uf x y))
                && linked t (tuple_of t arr.(x)) (tuple_of t arr.(y))
              then Util.Union_find.union uf x y
            done
          done;
          Util.Union_find.groups uf |> Array.to_list
          |> List.filter (fun g -> g <> [])
          |> List.map (List.map (fun i -> arr.(i)))
          |> List.sort compare
    in
    let fresh = List.map (fresh_entry t) parts in
    List.iter (fun _ -> Obs.Counter.incr m_unaffected) kept;
    t.clusters <- fresh @ kept;
    sort_clusters t;
    Ok
      (dreport t ~touched:1 ~recleaned:(List.length fresh)
         ~rows_changed:(1 + List.length fresh))
  end

(* Fixing one master cell changes a form-(2) rule's grounding only
   when the rule mentions the fixed attribute; the changed step
   (removed old row version / added new one) then goes through the
   reachability test. *)
let master_fix t ~row ~attr ~value =
  match t.master with
  | None -> Error (Robust.Error.spec_invalid "Master_fix: session has no master relation")
  | Some m ->
      if row < 0 || row >= Relation.size m then
        Error
          (Robust.Error.spec_invalid
             (Printf.sprintf "Master_fix: row %d of %d" row (Relation.size m)))
      else if attr < 0 || attr >= Relational.Schema.arity (Relation.schema m)
      then
        Error
          (Robust.Error.spec_invalid (Printf.sprintf "Master_fix: attribute %d" attr))
      else begin
        let old_row = Relation.tuple m row in
        let new_row = Tuple.set old_row attr value in
        let m' =
          Relation.make (Relation.schema m)
            (List.mapi
               (fun i tu -> if i = row then new_row else tu)
               (Relation.tuples m))
        in
        (* The residual vectors of every row version whose step
           appears or disappears. *)
        let changed =
          List.concat_map
            (function
              | Rules.Ar.Form1 _ -> []
              | Rules.Ar.Form2 f2 ->
                  let sel_attrs, join_attrs =
                    List.fold_left
                      (fun (sel, join) -> function
                        | Rules.Ar.Master_const (b, _, _) -> (b :: sel, join)
                        | Rules.Ar.Te_master (_, b) -> (sel, b :: join)
                        | Rules.Ar.Te_const _ -> (sel, join))
                      ([], []) f2.Rules.Ar.f2_lhs
                  in
                  let nonsel =
                    List.mem attr join_attrs || attr = f2.Rules.Ar.f2_tm_attr
                  in
                  if not (nonsel || List.mem attr sel_attrs) then []
                  else
                    let so = master_selects f2 old_row
                    and sn = master_selects f2 new_row in
                    List.map (residual_of f2)
                      ((if so && ((not sn) || nonsel) then [ old_row ] else [])
                      @ if sn && ((not so) || nonsel) then [ new_row ] else []))
            (Rules.Ruleset.rules t.ruleset)
        in
        (* The reachability probe must cover [te] values under the
           OLD inputs (did the removed step ever fire?) as well as
           the new ones, so take the pre-fix copyable set and extend
           it with the fixed cell's new value where a rule copies
           that column. *)
        let pre_fix = copyable t in
        let copyable =
          lazy
            (let h = Lazy.force pre_fix in
             if not (Value.is_null value) then
               List.iter
                 (function
                   | Rules.Ar.Form2 { f2_te_attr; f2_tm_attr; _ }
                     when f2_tm_attr = attr ->
                       Hashtbl.replace h
                         (pack_av f2_te_attr (Intern.intern t.sintern value))
                         ()
                   | _ -> ())
                 (Rules.Ruleset.rules t.ruleset);
             h)
        in
        t.master <- Some m';
        if changed = [] then Ok (dreport t ~touched:0 ~recleaned:0 ~rows_changed:0)
        else
          Ok
            (reclean_split t
               (split_affected t (fun e -> entity_reaches t ~copyable e changed)))
      end

let rule_add t rule =
  let name = Rules.Ar.name rule in
  match Rules.Ruleset.find t.ruleset name with
  | Some _ ->
      Error
        (Robust.Error.rule_invalid
           (Printf.sprintf "Rule_add: a rule named %S already exists" name))
  | None -> (
      match Rules.Ruleset.add t.ruleset rule with
      | Error e -> Error (Robust.Error.rule_invalid e)
      | Ok rs ->
          t.ruleset <- rs;
          (* A form-(2) rule grounds one step per selected master row
             {e whatever the entity} — a bare "did it ground?" probe
             would dirty the whole session on every such rule-add, so
             it goes through the reachability test, against the
             post-add copyable set (the new rule's own copies count).
             A form-(1) rule is ground alone against each entity: zero
             steps means Γ is provably unchanged (the filtered pass
             can only over-approximate), so the cached result
             stands. *)
          let f2_residuals = f2_residual_rows t rule in
          let copyable = copyable t in
          let affected e =
            match f2_residuals with
            | Some residual_rows -> entity_reaches t ~copyable e residual_rows
            | None -> (
                match ground_entity ~only:(fun r -> r == rule) t e with
                | None -> true
                | Some d -> Rules.Ground.packed_count d.Rules.Ground.d_packed > 0)
          in
          Ok (reclean_split t (split_affected t affected)))

let rule_retire t name =
  match
    List.find_opt
      (fun r -> Rules.Ar.name r = name)
      (Rules.Ruleset.user_rules t.ruleset)
  with
  | None ->
      Error
        (Robust.Error.rule_invalid
           (Printf.sprintf "Rule_retire: no user rule named %S (axioms cannot be retired)" name))
  | Some rule ->
      (* Split BEFORE swapping the rule set: an entity whose current Γ
         names no step or template of this rule (every candidate step
         lost first-provenance dedup or never grounded) keeps an
         identical Γ after the retire. A form-(2) rule first goes
         through the (cheaper) reachability test, the only one that
         can clear a templated rule, which Γ always names: steps this
         entity's [te] can never satisfy could never have fired, and
         removing never-fired steps cannot change a fixpoint-decided
         result (re-attributing their dedup twins to another rule
         changes provenance only). *)
      let f2_residuals = f2_residual_rows t rule in
      let copyable = copyable t in
      let affected e =
        (match f2_residuals with
        | None -> true
        | Some residual_rows -> entity_reaches t ~copyable e residual_rows)
        && gamma_names t e name
      in
      let split = split_affected t affected in
      t.ruleset <- Rules.Ruleset.remove t.ruleset name;
      Ok (reclean_split t split)

let update t u =
  Obs.Span.with_ ~name:"session.update" @@ fun () ->
  match u with
  | Tuple_add tuple -> tuple_add t tuple
  | Tuple_retract pos -> tuple_retract t pos
  | Master_fix { row; attr; value } -> master_fix t ~row ~attr ~value
  | Rule_add rule -> rule_add t rule
  | Rule_retire name -> rule_retire t name

let apply t updates =
  let* n =
    List.fold_left
      (fun acc u ->
        let* n = acc in
        let* _ = update t u in
        Ok (n + 1))
      (Ok 0) updates
  in
  Ok (n, report t)
