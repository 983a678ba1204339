(** The facade over the whole engine.

    The primary API is {!Session}: [open_] loads (CSV + rules +
    specification validation), clusters, compiles, and performs the
    initial clean; [update] then delta-maintains the cleaned
    relation under single-tuple and rule/master updates; [report]
    reads the continuously-maintained result. {!run}, {!load_spec}
    and {!execute} are derived one-shot conveniences over the same
    machinery — [run] with a [Clean] task is literally "open a
    session, read its report, drop it".

    {b Migration note for embedders}: code that called
    [run]/[execute] once per change should open a session once and
    feed it {!Session.update}s — same typed errors, same budget
    semantics, same report, minus the full re-clean per change. The
    one-shot entry points are stable and remain the right call for
    genuinely batch workloads ([Chase] and [Topk] tasks have no
    incremental form).

    Every phase is wrapped in an {!Obs.Span}: [pipeline.load],
    [pipeline.compile], [pipeline.chase], [pipeline.topk],
    [pipeline.clean] (the initial clean of a session), plus
    [session.update] per update. Enable collection with
    [Obs.set_enabled true] to get per-phase wall times and the
    engines' counters. *)

type task =
  | Chase  (** check Church-Rosser and deduce the target tuple *)
  | Topk of { k : int; algo : Topk.algo }
      (** deduce, then complete with the top-[k] candidate targets *)
  | Clean of {
      key_attrs : string list;
      threshold : float;
      retries : int;
      jobs : int;
    }
      (** ER-cluster the whole relation on [key_attrs], then deduce
          and complete one target per entity — on [jobs] worker
          domains (see {!Cleaner.clean}; the report is identical for
          every [jobs] value) *)

type config = {
  entity : string;  (** entity instance CSV (with header) *)
  master : string option;  (** master relation CSV *)
  rules : string;  (** accuracy-rule file (relacc syntax) *)
  task : task;
  limits : Robust.Budget.limits;
}

val config :
  ?master:string ->
  ?limits:Robust.Budget.limits ->
  entity:string ->
  rules:string ->
  task ->
  config
(** [limits] defaults to {!Robust.Budget.unlimited}. *)

type chase_outcome =
  | Deduced of { te : Relational.Value.t array; complete : bool }
  | Not_church_rosser of { rule : string; reason : string }
      (** reported as data, not an error: an order conflict is a
          meaningful verdict of the [Chase] task *)
  | Chase_exhausted of {
      partial : Relational.Value.t array;
      fired : int;
      trip : Robust.Error.trip;
    }  (** the budget tripped; [partial] is sound as far as it got *)

type outcome =
  | Chased of chase_outcome
  | Ranked of { pref : Topk.Preference.t; result : Topk.outcome }
  | Cleaned of Cleaner.report

type report = { spec : Core.Specification.t; outcome : outcome }

val load_spec :
  ?master:string ->
  entity:string ->
  rules:string ->
  unit ->
  (Core.Specification.t, Robust.Error.t) result
(** Just the loading phase — the first half of {!Session.open_},
    exposed standalone: read the CSVs (relations are named after
    their file, [stat.csv] -> [stat], so rule files may quantify
    over them by name), parse and validate the rules against the
    schemas, and assemble the specification. Unreadable files
    surface as [Io], malformed CSV as [Csv_shape] with file and row,
    rule-text problems as [Rule_parse] with file and line. *)

val execute :
  ?on_step:(Rules.Ground.step -> unit) ->
  ?limits:Robust.Budget.limits ->
  Core.Specification.t ->
  task ->
  (report, Robust.Error.t) result
(** Just the execution phase, over an already-loaded specification —
    the request entry point of a long-lived server ({!Service}
    caches loaded specs across requests and arms per-request
    [limits]). Identical semantics to the execution half of {!run};
    chase and top-k compile through {!Compile_cache}, so a server's
    repeat requests share one artifact. A
    [Clean] task runs as a dropped-on-return {!Session} (see the
    migration note above — callers re-executing after each change
    should hold the session instead). *)

val run :
  ?on_step:(Rules.Ground.step -> unit) ->
  config ->
  (report, Robust.Error.t) result
(** Load, then execute the task ({!load_spec} composed with
    {!execute}). [on_step] observes each applied chase step (only
    meaningful for the [Chase] task).

    For [Topk], a non-Church-Rosser verdict is an
    [Order_conflict] error — there is no well-defined target to
    complete. For [Chase] it is a verdict, carried in the report. *)

(** The long-lived, incremental entry point: everything in
    {!Framework.Session} (the session type, {!Session.update},
    {!Session.report}, ...) plus config-level constructors. *)
module Session : sig
  (* Strengthened include: [Pipeline.Session.t] (and [update],
     [delta_report]) ARE [Framework.Session]'s types, so sessions and
     update values flow freely between the facade and direct users of
     the inner module (e.g. generated update streams). *)
  include module type of struct
    include Session
  end

  val open_ : config -> (t, Robust.Error.t) result
  (** Load ({!load_spec}), cluster, compile, and fully clean once —
      the session's initial state; {!Session.report} then serves the
      batch-identical result and {!Session.update} maintains it. The
      config's task must be [Clean] (its [key_attrs]/[threshold]
      drive ER, [retries]/[jobs] and the config [limits] the
      per-entity budgets); [Chase]/[Topk] are rejected with
      [Spec_invalid]. *)

  val open_spec :
    key_attrs:string list ->
    threshold:float ->
    ?retries:int ->
    ?jobs:int ->
    ?limits:Robust.Budget.limits ->
    Core.Specification.t ->
    (t, Robust.Error.t) result
  (** {!open_} over an already-loaded specification (the session
      analogue of {!execute}; a warm server opens sessions from its
      spec cache this way). *)
end
