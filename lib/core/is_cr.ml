module Ground = Rules.Ground
module Master_index = Rules.Master_index
module Itbl = Hashtbl.Make (Int)

(* Observability: the Fig. 4 loop's cost drivers. Each mutation is a
   single flag-check branch when collection is disabled (see Obs). *)
let m_fired = Obs.Counter.make ~help:"chase steps dequeued and applied" "chase_steps_fired_total"
let m_changed = Obs.Counter.make ~help:"chase steps that changed the instance" "chase_steps_changed_total"
let m_decr = Obs.Counter.make ~help:"n_phi predicate-counter decrements" "chase_pred_decrements_total"
let m_conflicts = Obs.Counter.make ~help:"order conflicts (not Church-Rosser)" "chase_conflicts_total"
let m_qhwm = Obs.Gauge.make ~help:"worklist Q length high-water mark" "chase_queue_hwm"
let m_snapshots = Obs.Counter.make ~help:"candidate-independent base fixpoints built" "chase_snapshot_builds_total"
let m_delta = Obs.Counter.make ~help:"candidate checks answered from a snapshot delta" "chase_delta_checks_total"
let m_index_hits = Obs.Counter.make ~help:"join-key probes of the master residual index that matched rows" "residual_index_hits_total"
let m_learned = Obs.Counter.make ~help:"(attr, value) pairs found refuted alone by a one-fill delta" "chase_refutations_learned_total"
let m_refuted = Obs.Counter.make ~help:"candidate checks answered from the refutation memo" "chase_refuted_checks_total"

type verdict =
  | Church_rosser of Instance.t
  | Not_church_rosser of { rule : string; reason : string }

type stat = {
  ground_steps : int;
  fired_steps : int;
  changed_steps : int;
}

(* A template-attribute watcher, compiled at [compile] time against
   the specification's intern table. Equality and inequality
   constraints — every form-(2) residue the grounder emits, i.e. the
   overwhelming majority — specialize to a single comparison of
   interned ids (sound because the intern table dedups by
   [Value.equal], exactly [eval_op Eq]'s notion of equality, and the
   fill's id comes from the same table via the [Te_set] event); the
   ordered operators keep a structural closure over the expected
   value. *)
type te_watcher = {
  w_sid : int;
  w_slot : int;
  w_test : int -> Relational.Value.t -> bool;
      (* interned id of the fill, then the fill itself *)
}

let compile_te_test intern op expected =
  match (op : Rules.Ar.op) with
  | Rules.Ar.Eq ->
      let eid = Relational.Intern.intern intern expected in
      fun vid _ -> vid = eid
  | Rules.Ar.Neq ->
      let eid = Relational.Intern.intern intern expected in
      fun vid _ -> vid <> eid
  | op -> fun _ w -> Rules.Ar.eval_op op w expected

(* The compiled form keeps everything immutable across runs, built
   straight from the packed (flat-array) form of Γ: the decoded
   per-step actions, the slot space, and the Φ_δ watch tables. The
   [step] records themselves are only materialized lazily, for
   provenance traces — the compile/clean path never builds them. A
   run only allocates the per-step remaining counters, the
   per-predicate satisfied flags, and the worklist. *)
type compiled = {
  cspec : Specification.t;
  packed : Ground.packed;
  actions : Ground.action array; (* per step, indexed by sid *)
  slot_base : int array; (* step -> offset into the flat slot space *)
  total_slots : int;
  ord_watch : (int * int * int, (int * int) list) Hashtbl.t;
  te_watch : (int, te_watcher list) Hashtbl.t;
  templates : Ground.template array;
      (* demand mode: form-(2) rules deferred behind join triggers *)
  tpl_watch : (int, int list) Hashtbl.t;
      (* join te-attribute -> template ids it can wake *)
  midx : Master_index.t option;
      (* the shared master value index templates probe; Some iff
         templates is non-empty *)
  steps : Ground.step array Lazy.t; (* trace/explain only *)
}

let compile_packed ?(templates = [||]) spec packed =
  let n = Ground.packed_count packed in
  let slot_base = Array.make n 0 in
  let total = ref 0 in
  for sid = 0 to n - 1 do
    slot_base.(sid) <- !total;
    total := !total + Ground.packed_pred_count packed sid
  done;
  let ord_acc = Hashtbl.create 256 and te_acc = Hashtbl.create 64 in
  let watch tbl key entry =
    Hashtbl.replace tbl key
      (entry :: (match Hashtbl.find_opt tbl key with Some l -> l | None -> []))
  in
  let intern = Specification.intern spec in
  for sid = 0 to n - 1 do
    Ground.packed_iter_predi packed sid (fun slot p ->
        match p with
        | Ground.P_ord { attr; c1; c2 } -> watch ord_acc (attr, c1, c2) (sid, slot)
        | Ground.P_te { attr; op; value } ->
            watch te_acc attr
              { w_sid = sid; w_slot = slot; w_test = compile_te_test intern op value })
  done;
  let tpl_watch = Hashtbl.create (if Array.length templates = 0 then 1 else 16) in
  Array.iter
    (fun t ->
      let attr = Ground.template_join_attr t in
      Hashtbl.replace tpl_watch attr
        (Ground.template_id t
        :: (match Hashtbl.find_opt tpl_watch attr with Some l -> l | None -> [])))
    templates;
  {
    cspec = spec;
    packed;
    actions = Ground.packed_actions packed;
    slot_base;
    total_slots = !total;
    ord_watch = ord_acc;
    te_watch = te_acc;
    templates;
    tpl_watch;
    midx =
      (if Array.length templates = 0 then None
       else Option.map Master_index.of_master (Specification.master spec));
    steps = lazy (Array.of_list (Ground.steps_of_packed packed));
  }

(* The value-class numbering is a pure function of the entity
   relation, cached on the specification; class ids therefore agree
   with every future run's orders without building a throwaway
   instance here. *)
let compile spec =
  let d =
    Ground.instantiate_demand ~intern:(Specification.intern spec)
      ~ruleset:(Specification.ruleset spec) ~entity:(Specification.entity spec)
      ~master:(Specification.master spec) ~orders:(Specification.numbering spec)
      ()
  in
  compile_packed ~templates:d.Ground.d_templates spec d.Ground.d_packed

let compile_eager spec =
  compile_packed spec
    (Ground.instantiate_packed ~intern:(Specification.intern spec)
       ~ruleset:(Specification.ruleset spec) ~entity:(Specification.entity spec)
       ~master:(Specification.master spec) ~orders:(Specification.numbering spec))

let compiled_spec c = c.cspec
let compiled_template_count c = Array.length c.templates

(* One reversal record of the undo log. Rollback is order-
   independent: each entry resets one monotone bit (or counter tick)
   to its pre-delta state, and no two entries target the same bit —
   [satisfy] and the dead/queued transitions each fire at most once
   per slot/step, and [Instance.undo_event] is sound for any order
   (see its contract). *)
type undo =
  | U_slot of { flat : int; sid : int }  (** un-satisfy one predicate slot *)
  | U_dead of int  (** revive a step killed by a te mismatch *)
  | U_queued of int  (** clear a queued flag set during the delta *)
  | U_event of Instance.event  (** reverse an instance mutation *)

(* Mutable per-run state. [logging] turns the undo log on for
   snapshot deltas; plain runs never pay more than the flag check.

   Demand mode makes the state {e growable}: steps materialized from
   templates extend the packed numbering densely, so [n], the step
   arrays and the flat slot space all grow in lockstep while the
   shared [compiled] stays immutable. Watchers of materialized steps
   live in the per-run [x_ord]/[x_te] side tables (the compiled watch
   tables are shared), and [probed] marks join keys already taken to
   the master index so every (value, template) pair materializes at
   most once per run — rollback keeps materialized steps, only their
   delta-dependent slot state is undone. *)
type run_state = {
  c : compiled;
  mutable n : int; (* live step count: eager prefix + materialized *)
  mutable remaining : int array;
  mutable slot_base : int array; (* = c.slot_base prefix, then growth *)
  mutable nslots : int;
  mutable sat : Bytes.t;
  mutable dead : Bytes.t;
  mutable queued : Bytes.t;
  queue : int Queue.t;
  arena : Ground.arena option; (* Some iff c.templates non-empty *)
  probed : unit Itbl.t; (* (vid lsl 12) lor template id *)
  x_ord : (int * int * int, (int * int) list) Hashtbl.t;
  x_te : (int, te_watcher list) Hashtbl.t;
  mutable base_inst : Instance.t option;
      (* the drained snapshot base, for evaluating a materialized
         step's residuals into un-logged (base) vs logged (delta)
         state — see [attach_step] *)
  mutable logging : bool;
  mutable log : undo list;
}

let record st u = if st.logging then st.log <- u :: st.log

let fresh_state c =
  let n = Array.length c.actions in
  let demand = Array.length c.templates > 0 in
  let st =
    {
      c;
      n;
      remaining = Array.init n (fun sid -> Ground.packed_pred_count c.packed sid);
      slot_base = (if demand then Array.copy c.slot_base else c.slot_base);
      nslots = c.total_slots;
      sat = Bytes.make c.total_slots '\000';
      dead = Bytes.make n '\000';
      queued = Bytes.make n '\000';
      queue = Queue.create ();
      arena =
        (if demand then Some (Ground.arena_create c.packed c.templates)
         else None);
      probed = Itbl.create (if demand then 64 else 1);
      x_ord = Hashtbl.create (if demand then 32 else 1);
      x_te = Hashtbl.create (if demand then 32 else 1);
      base_inst = None;
      logging = false;
      log = [];
    }
  in
  for sid = 0 to n - 1 do
    if st.remaining.(sid) = 0 then begin
      Bytes.set st.queued sid '\001';
      Queue.add sid st.queue
    end
  done;
  (* The initial worklist — typically every axiom step — is often the
     queue's true peak; [enqueue_if_ready] alone would miss it. *)
  Obs.Gauge.observe_max m_qhwm (float_of_int (Queue.length st.queue));
  st

let enqueue_if_ready st sid =
  if
    Bytes.get st.dead sid = '\000'
    && Bytes.get st.queued sid = '\000'
    && st.remaining.(sid) = 0
  then begin
    record st (U_queued sid);
    Bytes.set st.queued sid '\001';
    Queue.add sid st.queue;
    Obs.Gauge.observe_max m_qhwm (float_of_int (Queue.length st.queue))
  end

let satisfy st sid slot =
  let flat = st.slot_base.(sid) + slot in
  if Bytes.get st.dead sid = '\000' && Bytes.get st.sat flat = '\000' then begin
    record st (U_slot { flat; sid });
    Bytes.set st.sat flat '\001';
    st.remaining.(sid) <- st.remaining.(sid) - 1;
    Obs.Counter.incr m_decr;
    enqueue_if_ready st sid
  end

(* Grow the per-step arrays (in lockstep) and the flat slot space.
   Sids are never reused, so the zero-fill of fresh capacity is the
   correct initial state for every future step. *)
let ensure_step_capacity st want =
  if want > Array.length st.remaining then begin
    let cap = max want (2 * max 16 (Array.length st.remaining)) in
    let g = Array.make cap 0 in
    Array.blit st.remaining 0 g 0 st.n;
    st.remaining <- g;
    let g = Array.make cap 0 in
    Array.blit st.slot_base 0 g 0 st.n;
    st.slot_base <- g;
    let b = Bytes.make cap '\000' in
    Bytes.blit st.dead 0 b 0 st.n;
    st.dead <- b;
    let b = Bytes.make cap '\000' in
    Bytes.blit st.queued 0 b 0 st.n;
    st.queued <- b
  end

let ensure_slot_capacity st want =
  if want > Bytes.length st.sat then begin
    let cap = max want (2 * max 64 (Bytes.length st.sat)) in
    let b = Bytes.make cap '\000' in
    Bytes.blit st.sat 0 b 0 st.nslots;
    st.sat <- b
  end

(* Attach one just-materialized step to the run. Its slot block is
   appended and each residual is decided three-way:

   - holds/fails at the {e snapshot base} — settle it un-logged. The
     step conceptually existed (un-fired) at the base fixpoint, so
     this state must survive rollback;
   - still open at base — register a watcher in the run's side
     tables; and if the {e live} (mid-delta) instance has since
     decided it, settle it logged, so rollback returns the step to
     exactly its base state while the watcher re-fires it on any
     later delta.

   Outside snapshot deltas base and live coincide and the logging
   flag is off, so both paths degenerate to plain evaluation against
   the current instance. *)
let attach_step st inst sid =
  let arena = match st.arena with Some a -> a | None -> assert false in
  let np = Ground.arena_pred_count arena sid in
  ensure_step_capacity st (sid + 1);
  ensure_slot_capacity st (st.nslots + np);
  (* Materialization appends densely, in lockstep with [st.n]. *)
  assert (sid = st.n);
  let flat0 = st.nslots in
  st.slot_base.(sid) <- flat0;
  st.nslots <- flat0 + np;
  st.remaining.(sid) <- np;
  st.n <- sid + 1;
  let base = match st.base_inst with Some b -> b | None -> inst in
  let live_differs = base != inst in
  let intern = Specification.intern st.c.cspec in
  let sat_slot ~logged slot =
    if Bytes.get st.dead sid = '\000' && Bytes.get st.sat (flat0 + slot) = '\000'
    then begin
      if logged then record st (U_slot { flat = flat0 + slot; sid });
      Bytes.set st.sat (flat0 + slot) '\001';
      st.remaining.(sid) <- st.remaining.(sid) - 1;
      Obs.Counter.incr m_decr
    end
  and kill ~logged =
    if Bytes.get st.dead sid = '\000' then begin
      if logged then record st (U_dead sid);
      Bytes.set st.dead sid '\001'
    end
  and watch tbl key entry =
    Hashtbl.replace tbl key
      (entry :: (match Hashtbl.find_opt tbl key with Some l -> l | None -> []))
  in
  Ground.arena_iter_predi arena sid (fun slot p ->
      match p with
      | Ground.P_ord { attr; c1; c2 } ->
          if Ordering.Attr_order.lt_classes (Instance.order base attr) c1 c2 then
            sat_slot ~logged:false slot
          else begin
            watch st.x_ord (attr, c1, c2) (sid, slot);
            if
              live_differs
              && Ordering.Attr_order.lt_classes (Instance.order inst attr) c1 c2
            then sat_slot ~logged:true slot
          end
      | Ground.P_te { attr; op; value } ->
          let bv = Instance.te_value base attr in
          if not (Relational.Value.is_null bv) then begin
            (* te is write-once: the base decides this slot for good. *)
            if compile_te_test intern op value (Instance.te_id base attr) bv
            then sat_slot ~logged:false slot
            else kill ~logged:false
          end
          else begin
            let test = compile_te_test intern op value in
            watch st.x_te attr { w_sid = sid; w_slot = slot; w_test = test };
            if live_differs then begin
              let lv = Instance.te_value inst attr in
              if not (Relational.Value.is_null lv) then
                if test (Instance.te_id inst attr) lv then
                  sat_slot ~logged:true slot
                else kill ~logged:true
            end
          end);
  enqueue_if_ready st sid

(* A [te] write on a template's join attribute: probe the master
   value index for rows matching the written value and materialize
   their steps. [probed] caps the work at one probe per (value,
   template) per run — a re-play of the same fill after a rollback
   finds the steps already attached and reaches them through the
   side watch tables instead. *)
let maybe_materialize st inst attr value vid =
  match Hashtbl.find_opt st.c.tpl_watch attr with
  | None -> ()
  | Some tids ->
      let arena = match st.arena with Some a -> a | None -> assert false in
      let midx = match st.c.midx with Some m -> m | None -> assert false in
      List.iter
        (fun tid ->
          let key = (vid lsl 12) lor tid in
          if not (Itbl.mem st.probed key) then begin
            Itbl.replace st.probed key ();
            let t = Ground.arena_template arena tid in
            match
              Master_index.rows midx ~col:(Ground.template_join_col t) value
            with
            | [] -> ()
            | rows ->
                Obs.Counter.incr m_index_hits;
                Ground.arena_materialize arena
                  ~master:(Master_index.relation midx)
                  ~rows tid
                  ~on_new:(fun sid -> attach_step st inst sid)
          end)
        tids

let handle_event st inst event =
  match event with
  | Instance.Edge { attr; c1; c2 } ->
      let key = (attr, c1, c2) in
      (match Hashtbl.find_opt st.c.ord_watch key with
      | None -> ()
      | Some l -> List.iter (fun (sid, slot) -> satisfy st sid slot) l);
      (match Hashtbl.find_opt st.x_ord key with
      | None -> ()
      | Some l -> List.iter (fun (sid, slot) -> satisfy st sid slot) l)
  | Instance.Te_set { attr; value; vid } ->
      let fire { w_sid = sid; w_slot = slot; w_test } =
        if Bytes.get st.dead sid = '\000' then
          if w_test vid value then satisfy st sid slot
          else begin
            record st (U_dead sid);
            Bytes.set st.dead sid '\001'
            (* te is write-once: this step can never fire *)
          end
      in
      (match Hashtbl.find_opt st.c.te_watch attr with
      | None -> ()
      | Some l -> List.iter fire l);
      (* Watchers attached during this very event's materialization
         are not in the list fetched here — their slots were already
         settled against the live instance at attach time. *)
      (match Hashtbl.find_opt st.x_te attr with
      | None -> ()
      | Some l -> List.iter fire l);
      if Array.length st.c.templates > 0 then
        maybe_materialize st inst attr value vid

(* Reverse everything logged since [logging] was switched on,
   restoring the exact pre-delta state. The queue is simply cleared:
   deltas only start from a fully drained snapshot, so the pre-delta
   queue is empty. *)
let rollback st inst =
  List.iter
    (function
      | U_slot { flat; sid } ->
          Bytes.set st.sat flat '\000';
          st.remaining.(sid) <- st.remaining.(sid) + 1
      | U_dead sid -> Bytes.set st.dead sid '\000'
      | U_queued sid -> Bytes.set st.queued sid '\000'
      | U_event e -> Instance.undo_event inst e)
    st.log;
  st.log <- [];
  st.logging <- false;
  Queue.clear st.queue

(* Drain the worklist to a terminal or invalid state; reusable by
   both one-shot runs and incremental sessions. With a budget, each
   fired step is charged and exhaustion stops the drain — sound as a
   partial result because the chase state is monotone. *)
let drain_budgeted ?trace ?budget c st inst ~fired ~changed =
  let stat () =
    { ground_steps = st.n; fired_steps = !fired; changed_steps = !changed }
  in
  let charge =
    match budget with
    | None -> fun () -> None
    | Some b -> fun () -> Robust.Budget.step b
  in
  (* Materialized sids live past the compiled arrays; their action,
     rule name and trace record come from the run's arena instead. *)
  let eager_n = Array.length c.actions in
  let action_of sid =
    if sid < eager_n then c.actions.(sid)
    else
      match st.arena with Some a -> Ground.arena_action a sid | None -> assert false
  in
  let rule_name_of sid =
    if sid < eager_n then Ground.packed_rule_name c.packed sid
    else
      match st.arena with
      | Some a -> Ground.arena_rule_name a sid
      | None -> assert false
  in
  let step_of sid =
    if sid < eager_n then (Lazy.force c.steps).(sid)
    else
      match st.arena with Some a -> Ground.arena_step a sid | None -> assert false
  in
  let rec go () =
    match Queue.take_opt st.queue with
    | None -> (`Done (Church_rosser inst), stat ())
    | Some sid ->
        if Bytes.get st.dead sid = '\001' then go ()
        else begin
          match charge () with
          | Some trip ->
              (* The dequeued step has not fired: put it back so the
                 exhausted state remains a sound description of the
                 pending work (its [queued] flag is still set, so a
                 later [satisfy] would never re-add it) and a resumed
                 drain picks it up again. *)
              Queue.add sid st.queue;
              (`Out trip, stat ())
          | None -> (
              incr fired;
              Obs.Counter.incr m_fired;
              match Instance.apply inst (action_of sid) with
              | Instance.Unchanged -> go ()
              | Instance.Changed events ->
                  incr changed;
                  Obs.Counter.incr m_changed;
                  (match trace with Some f -> f (step_of sid) | None -> ());
                  List.iter (fun e -> record st (U_event e)) events;
                  List.iter (handle_event st inst) events;
                  go ()
              | Instance.Invalid { reason; applied } ->
                  Obs.Counter.incr m_conflicts;
                  List.iter (fun e -> record st (U_event e)) applied;
                  ( `Done (Not_church_rosser { rule = rule_name_of sid; reason }),
                    stat () ))
        end
  in
  go ()

let drain ?trace c st inst ~fired ~changed =
  match drain_budgeted ?trace c st inst ~fired ~changed with
  | `Done verdict, stat -> (verdict, stat)
  | `Out _, _ -> assert false (* no budget supplied *)

let prepare ?template c =
  let spec =
    match template with
    | None -> c.cspec
    | Some tpl -> Specification.with_template c.cspec tpl
  in
  let inst = Instance.init spec in
  let st = fresh_state c in
  (* A non-null initial template (candidate checking) counts as
     pre-fired target events. *)
  Array.iteri
    (fun attr value ->
      if not (Relational.Value.is_null value) then
        handle_event st inst
          (Instance.Te_set { attr; value; vid = Instance.te_id inst attr }))
    (Instance.te inst);
  (inst, st)

let run_internal ?trace ?template c =
  let inst, st = prepare ?template c in
  drain ?trace c st inst ~fired:(ref 0) ~changed:(ref 0)

let run ?trace spec = fst (run_internal ?trace (compile spec))
let run_stat spec = run_internal (compile spec)

let run_compiled ?trace ?template c = fst (run_internal ?trace ?template c)

type budgeted =
  | Verdict of verdict
  | Exhausted of { partial : Instance.t; fired : int; trip : Robust.Error.trip }

let run_budgeted ?trace ?template ~budget c =
  let inst, st = prepare ?template c in
  let fired = ref 0 and changed = ref 0 in
  match Robust.Budget.charge_instantiations budget (Array.length c.actions) with
  | Some trip -> Exhausted { partial = inst; fired = 0; trip }
  | None -> (
      match drain_budgeted ?trace ~budget c st inst ~fired ~changed with
      | `Done verdict, _ -> Verdict verdict
      | `Out trip, _ -> Exhausted { partial = inst; fired = !fired; trip })

let check c tuple =
  if Array.exists Relational.Value.is_null tuple then
    invalid_arg "Is_cr.check: candidate target has a null attribute";
  match run_compiled ~template:tuple c with
  | Church_rosser _ -> true
  | Not_church_rosser _ -> false

(* ------------------------------------------------------------------ *)
(* Snapshot–delta candidate checking                                  *)
(* ------------------------------------------------------------------ *)

(* [check c t] replaces the template entirely, so the candidate-
   independent part of every such run is the fixpoint from the
   ALL-NULL template (not the specification's own template, which a
   check never sees). A snapshot drains that base fixpoint once;
   each candidate then resumes from it by applying its attribute
   values as fills — exactly the incremental-session argument, which
   the session QCheck property already establishes — and an undo log
   restores the snapshot afterwards, so one snapshot serves any
   number of candidates.

   If the base fixpoint itself conflicts, those conflicting steps
   have no te predicates left unsatisfied — they fire under every
   template — so no candidate can pass: [base_cr = false] answers
   every check with [false] without touching any state.

   The snapshot also remembers which single fills are refuted: an
   [(attr, value)] pair whose one-fill delta from the base is not
   Church-Rosser. The chase is monotone — a candidate holding that
   pair starts from a superset of the one-fill template, so every
   step the one-fill run fired fires again and the same conflict (or
   an earlier one) is reached — hence such a candidate fails without
   running its delta. Pairs are classified lazily, only when a
   candidate holding them fails its full delta, and each at most once
   per snapshot. The memo is keyed by interned value id. *)
type snapshot = {
  zc : compiled;
  zst : run_state;
  zinst : Instance.t;
  base_cr : bool;
  base_te : Relational.Value.t array;
      (* te at the base fixpoint (all-null template): every value
         here is forced by the rules alone, so a candidate disagreeing
         with a non-null entry conflicts without running the delta. *)
  refuted : bool Itbl.t;
      (* [vid * arity + attr] -> whether that one fill alone is not
         Church-Rosser; absent while unclassified *)
}

let snapshot c =
  Obs.Counter.incr m_snapshots;
  let arity = Relational.Schema.arity (Specification.schema c.cspec) in
  let tpl = Array.make arity Relational.Value.Null in
  let inst, st = prepare ~template:tpl c in
  let base_cr =
    match drain c st inst ~fired:(ref 0) ~changed:(ref 0) with
    | Church_rosser _, _ -> true
    | Not_church_rosser _, _ -> false
  in
  (* Demand mode: steps materialized during a {e delta} must settle
     their residuals as of this drained base (un-logged, surviving
     rollback) — keep a frozen copy to evaluate them against. *)
  (match st.arena with
  | Some _ -> st.base_inst <- Some (Instance.copy inst)
  | None -> ());
  {
    zc = c;
    zst = st;
    zinst = inst;
    base_cr;
    base_te = Instance.te inst;
    refuted = Itbl.create 64;
  }

let snapshot_base_cr z = z.base_cr
let snapshot_base_te z = Array.copy z.base_te

(* Resume the snapshot with the fills [fills] passes to its argument,
   drain, roll back. *)
let delta ?budget z fills =
  let st = z.zst and inst = z.zinst in
  st.logging <- true;
  st.log <- [];
  let conflict = ref false in
  fills (fun attr value ->
      if not !conflict then
        match Instance.apply inst (Ground.Assign { attr; value }) with
        | Instance.Unchanged -> ()
        | Instance.Changed events ->
            List.iter (fun e -> record st (U_event e)) events;
            List.iter (handle_event st inst) events
        | Instance.Invalid { applied; _ } ->
            List.iter (fun e -> record st (U_event e)) applied;
            conflict := true);
  let out =
    if !conflict then `Verdict false
    else
      match drain_budgeted ?budget z.zc st inst ~fired:(ref 0) ~changed:(ref 0) with
      | `Done (Church_rosser _), _ -> `Verdict true
      | `Done (Not_church_rosser _), _ -> `Verdict false
      | `Out trip, _ -> `Out trip
  in
  rollback st inst;
  out

let memo_key z attr vid = (vid * Array.length z.base_te) + attr

(* Does the candidate hold a pair already found refuted? Values never
   interned were never filled, so they cannot be in the memo. *)
let holds_refuted z tuple =
  let intern = Specification.intern z.zc.cspec in
  let rec go attr =
    attr < Array.length tuple
    && ((Relational.Value.is_null z.base_te.(attr)
        &&
        match Relational.Intern.find_opt intern tuple.(attr) with
        | None -> false
        | Some vid -> Itbl.find_opt z.refuted (memo_key z attr vid) = Some true)
       || go (attr + 1))
  in
  Itbl.length z.refuted > 0 && go 0

(* After a failed delta, classify the candidate's unclassified pairs
   with one-fill deltas. A candidate with a single free attribute was
   itself that one-fill delta. *)
let learn z tuple =
  let intern = Specification.intern z.zc.cspec in
  let free =
    List.filter
      (fun (attr, _) -> Relational.Value.is_null z.base_te.(attr))
      (List.mapi (fun attr value -> (attr, value)) (Array.to_list tuple))
  in
  List.iter
    (fun (attr, value) ->
      let key = memo_key z attr (Relational.Intern.intern intern value) in
      if not (Itbl.mem z.refuted key) then begin
        let refuted =
          match free with
          | [ _ ] -> true
          | _ -> (
              match delta z (fun assign -> assign attr value) with
              | `Verdict ok -> not ok
              | `Out _ -> assert false (* no budget supplied *))
        in
        if refuted then Obs.Counter.incr m_learned;
        Itbl.replace z.refuted key refuted
      end)
    free

(* The candidate-level shortcuts, then the delta. Raises
   [Invalid_argument] on a null attribute (like [check]). *)
let delta_run ?budget z tuple =
  if Array.exists Relational.Value.is_null tuple then
    invalid_arg "Is_cr.check: candidate target has a null attribute";
  if not z.base_cr then `Verdict false
  else if
    (* Fast path: the base fixpoint already forced a different value. *)
    Array.exists2
      (fun forced cand ->
        (not (Relational.Value.is_null forced))
        && not (Relational.Value.equal forced cand))
      z.base_te tuple
  then begin
    Obs.Counter.incr m_delta;
    `Verdict false
  end
  else if holds_refuted z tuple then begin
    Obs.Counter.incr m_refuted;
    `Verdict false
  end
  else begin
    Obs.Counter.incr m_delta;
    let out =
      delta ?budget z (fun assign ->
          Array.iteri
            (fun attr value ->
              if Relational.Value.is_null z.base_te.(attr) then assign attr value)
            tuple)
    in
    (* A budget meters the candidate's own delta only, so a budgeted
       check reads the memo but never extends it. *)
    (match (out, budget) with `Verdict false, None -> learn z tuple | _ -> ());
    out
  end

let check_snapshot z tuple =
  match delta_run z tuple with
  | `Verdict v -> v
  | `Out _ -> assert false (* no budget supplied *)

let check_snapshot_budgeted ~budget z tuple =
  match delta_run ~budget z tuple with
  | `Verdict v -> Ok v
  | `Out trip -> Error trip

(* ------------------------------------------------------------------ *)
(* Incremental sessions                                               *)
(* ------------------------------------------------------------------ *)

type session = {
  sc : compiled;
  sst : run_state;
  sinst : Instance.t;
  mutable broken : bool;
}

let session_start ?template ?budget c =
  let inst, st = prepare ?template c in
  match drain_budgeted ?budget c st inst ~fired:(ref 0) ~changed:(ref 0) with
  | `Done (Church_rosser _), _ ->
      Ok { sc = c; sst = st; sinst = inst; broken = false }
  | `Done (Not_church_rosser { rule; reason }), _ -> Error (rule, reason)
  | `Out _, _ ->
      (* Budget tripped mid-drain: the state is sound and the
         worklist retains every pending step, so the session can be
         resumed by any later fill (including an empty one). *)
      Ok { sc = c; sst = st; sinst = inst; broken = false }

let session_te s = Instance.te s.sinst
let session_complete s = Instance.te_complete s.sinst
let session_null_attrs s = Instance.null_attrs s.sinst

let session_fill s fills =
  if s.broken then invalid_arg "Is_cr.session_fill: session is broken";
  let fail rule reason =
    s.broken <- true;
    Error (rule, reason)
  in
  let rec apply_fills = function
    | [] -> Ok ()
    | (attr, value) :: rest -> (
        if Relational.Value.is_null value then
          invalid_arg "Is_cr.session_fill: cannot fill with null";
        match Instance.apply s.sinst (Ground.Assign { attr; value }) with
        | Instance.Unchanged -> apply_fills rest
        | Instance.Changed events ->
            List.iter (handle_event s.sst s.sinst) events;
            apply_fills rest
        | Instance.Invalid { reason; _ } -> fail "user-fill" reason)
  in
  match apply_fills fills with
  | Error _ as e -> e
  | Ok () -> (
      match drain s.sc s.sst s.sinst ~fired:(ref 0) ~changed:(ref 0) with
      | Church_rosser _, _ -> Ok ()
      | Not_church_rosser { rule; reason }, _ -> fail rule reason)

let is_church_rosser spec =
  match run spec with Church_rosser _ -> true | Not_church_rosser _ -> false
