module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation

let default_value schema a =
  Value.String (Printf.sprintf "<other:%s>" (Schema.attribute schema a))

let is_default = function
  | Value.String s ->
      String.length s > 8 && String.sub s 0 7 = "<other:" && s.[String.length s - 1] = '>'
  | _ -> false

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let values ?(include_default = true) spec attr =
  let entity = Core.Specification.entity spec in
  let schema = Relation.schema entity in
  let seen = Vtbl.create 16 in
  let acc = ref [] in
  Array.iter
    (fun v ->
      if (not (Value.is_null v)) && not (Vtbl.mem seen v) then begin
        Vtbl.add seen v ();
        acc := v :: !acc
      end)
    (Relation.column entity attr);
  let local = List.rev !acc in
  (* Master contributions: any form (2) rule that writes or binds
     this entity attribute exposes the corresponding Im column. *)
  let master =
    match Core.Specification.master spec with
    | None -> []
    | Some im ->
        let master_cols = ref [] in
        List.iter
          (function
            | Rules.Ar.Form2 r ->
                if r.f2_te_attr = attr then master_cols := r.f2_tm_attr :: !master_cols;
                List.iter
                  (function
                    | Rules.Ar.Te_master (a, b) when a = attr ->
                        master_cols := b :: !master_cols
                    | _ -> ())
                  r.f2_lhs
            | Rules.Ar.Form1 _ -> ())
          (Rules.Ruleset.user_rules (Core.Specification.ruleset spec));
        (match List.sort_uniq Int.compare !master_cols with
        | [] -> []
        | cols ->
            Rules.Master_index.domain (Rules.Master_index.of_master im) ~cols
              ~skip:local)
  in
  let base = local @ master in
  if include_default then base @ [ default_value schema attr ] else base

let ranked ?include_default spec pref attr =
  let domain = values ?include_default spec attr in
  let weighted =
    Array.of_list (List.map (fun v -> (v, Preference.weight pref attr v)) domain)
  in
  Array.sort
    (fun (v1, w1) (v2, w2) ->
      match Float.compare w2 w1 with 0 -> Value.compare v1 v2 | c -> c)
    weighted;
  weighted
