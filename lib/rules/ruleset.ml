module A = Repro_arm.Insn

(* Index key: shape of the first pattern element. *)
type key = K_dp of A.dp_op * bool | K_mul of bool * bool | K_movw | K_movt

let keys_of_rule (r : Rule.t) =
  match r.Rule.guest with
  | [] -> []
  | first :: _ -> (
    match first with
    | Rule.G_dp { ops; s; _ } -> List.map (fun op -> K_dp (op, s)) ops
    | Rule.G_mul { s; acc; _ } -> [ K_mul (s, acc <> None) ]
    | Rule.G_movw _ -> [ K_movw ]
    | Rule.G_movt _ -> [ K_movt ])

let key_of_insn (i : A.t) =
  match i.A.op with
  | A.Dp { op; s; _ } -> Some (K_dp (op, s))
  | A.Mul { s; acc; _ } -> Some (K_mul (s, acc <> None))
  | A.Movw _ -> Some K_movw
  | A.Movt _ -> Some K_movt
  | A.Mull _ | A.Clz _ | A.Ldr _ | A.Ldrs _ | A.Str _ | A.Ldm _ | A.Stm _ | A.B _
  | A.Bx _ | A.Mrs _
  | A.Msr _ | A.Svc _ | A.Cps _ | A.Mcr _ | A.Mrc _ | A.Vmsr _ | A.Vmrs _ | A.Nop
  | A.Udf _ -> None

module Ids = Set.Make (Int)
module Counts = Map.Make (Int)

type health = { strikes : int Counts.t; quarantined : Ids.t }

type t = {
  table : (key, Rule.t list) Hashtbl.t;
      (* longest pattern first, ties in the order the rules were given *)
  active : (key, Rule.t list) Hashtbl.t;
      (* [table] minus quarantined rules, same longest-first order —
         what [match_at] scans, so the hot lookup loop pays no
         per-rule quarantine probe *)
  all : Rule.t list;
  count : int;  (* O(1) [size]; [all] is kept for [rules] *)
  by_id : (int, Rule.t) Hashtbl.t;  (* the first rule given with each id *)
  mutable health : health;  (* replaced on every change, never mutated *)
}

let health t = t.health
let is_quarantined t (rule : Rule.t) = Ids.mem rule.Rule.id t.health.quarantined
let quarantined_count t = Ids.cardinal t.health.quarantined
let quarantined_ids t = Ids.elements t.health.quarantined

let refresh_active_bucket t k =
  match Hashtbl.find_opt t.table k with
  | None -> Hashtbl.remove t.active k
  | Some bucket ->
    Hashtbl.replace t.active k (List.filter (fun r -> not (is_quarantined t r)) bucket)

let refresh_active t = Hashtbl.iter (fun k _ -> refresh_active_bucket t k) t.table

let of_list rules =
  (* Each bucket is built once, longest pattern first (lookup is
     longest-match); the stable sort keeps equal lengths in the order
     the rules were given. *)
  let table = Hashtbl.create 64 in
  let add rule k =
    Hashtbl.replace table k (rule :: Option.value ~default:[] (Hashtbl.find_opt table k))
  in
  List.iter (fun rule -> List.iter (add rule) (keys_of_rule rule)) rules;
  let longest_first a b = compare (Rule.guest_pattern_length b) (Rule.guest_pattern_length a) in
  Hashtbl.filter_map_inplace (fun _ b -> Some (List.stable_sort longest_first (List.rev b))) table;
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (r : Rule.t) -> if not (Hashtbl.mem by_id r.Rule.id) then Hashtbl.add by_id r.Rule.id r)
    rules;
  let t =
    { table; active = Hashtbl.create 64; all = rules; count = List.length rules; by_id;
      health = { strikes = Counts.empty; quarantined = Ids.empty } }
  in
  refresh_active t;
  t

let size t = t.count
let rules t = t.all
let find t id = Hashtbl.find_opt t.by_id id

(* A rule newly quarantined: its buckets drop it. *)
let quarantine t (rule : Rule.t) strikes =
  t.health <- { strikes; quarantined = Ids.add rule.Rule.id t.health.quarantined };
  List.iter (refresh_active_bucket t) (keys_of_rule rule)

let strike t (rule : Rule.t) ~threshold =
  let { strikes; quarantined } = t.health in
  if Ids.mem rule.Rule.id quarantined then false
  else
    let n = 1 + Option.value ~default:0 (Counts.find_opt rule.Rule.id strikes) in
    let strikes = Counts.add rule.Rule.id n strikes in
    if n >= threshold then (quarantine t rule strikes; true)
    else (t.health <- { t.health with strikes }; false)

(* The fleet circuit breaker's demotion lever: quarantine by id without
   a local strike history (the strikes happened on another machine). *)
let quarantine_by_id t id =
  match find t id with
  | Some rule when not (is_quarantined t rule) -> quarantine t rule t.health.strikes; true
  | _ -> false

(* Every bucket is refreshed only when the quarantine set is a new one. *)
let set_health t h =
  let refresh = h.quarantined != t.health.quarantined in
  t.health <- h;
  if refresh then refresh_active t

let match_at t insns =
  match insns with
  | [] -> None
  | first :: _ -> (
    match key_of_insn first with
    | None -> None
    | Some k -> (
      match Hashtbl.find_opt t.active k with
      | None -> None
      | Some bucket ->
        List.find_map
          (fun rule ->
            match Rule.match_sequence rule insns with
            | Some b -> Some (rule, b)
            | None -> None)
          bucket))

let coverage t insns =
  let arr = Array.of_list insns in
  let n = Array.length arr in
  let covered = ref 0 in
  let i = ref 0 in
  while !i < n do
    let rest = Array.to_list (Array.sub arr !i (n - !i)) in
    match match_at t rest with
    | Some (rule, _) ->
      let len = Rule.guest_pattern_length rule in
      covered := !covered + len;
      i := !i + len
    | None -> incr i
  done;
  !covered
