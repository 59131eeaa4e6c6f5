module AI = Repro_arm.Insn
module Stats = Repro_x86.Stats
module Jsonx = Repro_observe.Jsonx

(* Fallback cost models, used only when a bucket has no measured
   sibling to borrow a mean from: the approximate host insns per guest
   insn of baseline TCG and of rule-translated code on this backend. *)
let default_baseline_cpi = 8.0
let default_covered_cpi = 3.0

(* ---- sources: raw attribution tables, mergeable across machines ---- *)

type source = {
  entries : (int * int * int) list;  (* (attr, retirements, cost), sorted *)
  guest_insns : int;
  host_insns : int;
  residual : int;  (* host insns accrued since the last retirement *)
}

let of_stats st =
  {
    entries = Stats.cov_entries st;
    guest_insns = st.Stats.guest_insns;
    host_insns = st.Stats.host_insns;
    residual = Stats.cov_residual st;
  }

let merge sources =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      List.iter
        (fun (attr, n, c) ->
          match Hashtbl.find_opt tbl attr with
          | Some (n0, c0) -> Hashtbl.replace tbl attr (n0 + n, c0 + c)
          | None -> Hashtbl.add tbl attr (n, c))
        s.entries)
    sources;
  {
    entries =
      Hashtbl.fold (fun a (n, c) acc -> (a, n, c) :: acc) tbl [] |> List.sort compare;
    guest_insns = List.fold_left (fun acc s -> acc + s.guest_insns) 0 sources;
    host_insns = List.fold_left (fun acc s -> acc + s.host_insns) 0 sources;
    residual = List.fold_left (fun acc s -> acc + s.residual) 0 sources;
  }

(* The partition invariant: the per-attribution retirement counts sum
   exactly to the retired-guest-instruction total — every retirement
   is charged to exactly one tier. Structural (Stats.retire is the
   only increment site of both), but asserted anyway, the way
   perfscope asserts [Scope.total = host_insns]. *)
let partition_error s =
  let sum = List.fold_left (fun acc (_, n, _) -> acc + n) 0 s.entries in
  if sum <> s.guest_insns then
    Some
      (Printf.sprintf "tier partition broken: sum of tier counts %d <> %d retired"
         sum s.guest_insns)
  else None

let check_partition s =
  match partition_error s with None -> () | Some msg -> failwith ("covscope: " ^ msg)

(* ---- the report ---- *)

type cell = { n : int; cost : int }

let cell_zero = { n = 0; cost = 0 }
let cell_add a b = { n = a.n + b.n; cost = a.cost + b.cost }
let mean c = if c.n = 0 then 0. else float_of_int c.cost /. float_of_int c.n

type rule_row = {
  rule_id : int;
  rule_name : string;
  hits : int;  (* dynamic retirements attributed to this rule (any tier) *)
  dyn_cost : int;
  sites : int;  (* translation sites (static, when a tally was given) *)
  emitted : int;  (* host insns those sites emitted *)
  counterfactual : float;  (* estimated baseline cost of the same retirements *)
  payoff : float;  (* counterfactual - dyn_cost; negative = regression *)
  dead : bool;
  negative : bool;
}

type opportunity = {
  o_cls : AI.cls;
  o_idiom : int;
  o_cell : cell;  (* uncovered dynamic footprint of the (class, idiom) pair *)
  o_savings : float;  (* count x per-insn host-cost delta *)
}

type t = {
  src : source;
  tiers : cell array;  (* by Attr.tier_index *)
  matrix : cell array array;  (* class x tier *)
  rules : rule_row list;
  opportunities : opportunity list;
}

let coverage_of tiers guest_insns =
  if guest_insns = 0 then 0.
  else
    let covered =
      List.fold_left
        (fun acc tr -> if Attr.covered tr then acc + tiers.(Attr.tier_index tr).n else acc)
        0 Attr.all_tiers
    in
    float_of_int covered /. float_of_int guest_insns

let coverage t = coverage_of t.tiers t.src.guest_insns

let make ?static ?(rules = []) src =
  check_partition src;
  let tiers = Array.make Attr.n_tiers cell_zero in
  let matrix = Array.make_matrix AI.n_classes Attr.n_tiers cell_zero in
  let by_rule = Hashtbl.create 32 in
  let by_pair = Hashtbl.create 128 in
  List.iter
    (fun (attr, n, cost) ->
      let ti = Attr.tier_index (Attr.tier attr) in
      let c = { n; cost } in
      tiers.(ti) <- cell_add tiers.(ti) c;
      matrix.(Attr.cls attr).(ti) <- cell_add matrix.(Attr.cls attr).(ti) c;
      (match Attr.rule attr with
      | Some id ->
        let prev = Option.value (Hashtbl.find_opt by_rule id) ~default:cell_zero in
        Hashtbl.replace by_rule id (cell_add prev c)
      | None -> ());
      if not (Attr.covered (Attr.tier attr)) then begin
        let key = (Attr.cls attr, Attr.idiom attr) in
        let prev = Option.value (Hashtbl.find_opt by_pair key) ~default:cell_zero in
        Hashtbl.replace by_pair key (cell_add prev c)
      end)
    src.entries;
  (* Counterfactual cost model: what would this class have cost under
     baseline TCG?  Borrow the measured baseline mean of the same
     class; fall back to the global baseline mean, then a constant. *)
  let baseline_ti = Attr.tier_index Attr.Baseline in
  let global_baseline =
    if tiers.(baseline_ti).n > 0 then mean tiers.(baseline_ti) else default_baseline_cpi
  in
  let baseline_cpi cls_ix =
    if matrix.(cls_ix).(baseline_ti).n > 0 then mean matrix.(cls_ix).(baseline_ti)
    else global_baseline
  in
  (* Covered mean: what does a rule-served guest insn cost today? *)
  let covered_cell =
    List.fold_left
      (fun acc tr -> if Attr.covered tr then cell_add acc tiers.(Attr.tier_index tr) else acc)
      cell_zero Attr.all_tiers
  in
  let covered_cpi = if covered_cell.n > 0 then mean covered_cell else default_covered_cpi in
  (* Per-rule ledger: every rule in the ruleset gets a row, so dead
     rules (zero dynamic hits) surface instead of vanishing. *)
  let rule_rows =
    List.map
      (fun (id, name) ->
        let dyn = Option.value (Hashtbl.find_opt by_rule id) ~default:cell_zero in
        let sites, emitted =
          match static with Some s -> Static.find s id | None -> (0, 0)
        in
        (* Class mix of this rule's retirements is not tracked per
           rule (the attr word already holds it — recover it from the
           entries). *)
        let counterfactual =
          List.fold_left
            (fun acc (attr, n, _) ->
              if Attr.rule attr = Some id then
                acc +. (float_of_int n *. baseline_cpi (Attr.cls attr))
              else acc)
            0. src.entries
        in
        let payoff = counterfactual -. float_of_int dyn.cost in
        {
          rule_id = id;
          rule_name = name;
          hits = dyn.n;
          dyn_cost = dyn.cost;
          sites;
          emitted;
          counterfactual;
          payoff;
          dead = dyn.n = 0;
          negative = dyn.n > 0 && payoff < 0.;
        })
      (List.sort compare rules)
  in
  let opportunities =
    Hashtbl.fold
      (fun (cls_ix, idiom) cl acc ->
        let savings = float_of_int cl.n *. Float.max 0. (mean cl -. covered_cpi) in
        { o_cls = AI.cls_of_index cls_ix; o_idiom = idiom; o_cell = cl; o_savings = savings }
        :: acc)
      by_pair []
    |> List.sort (fun a b ->
           match compare b.o_savings a.o_savings with
           | 0 -> compare (AI.cls_index a.o_cls, a.o_idiom) (AI.cls_index b.o_cls, b.o_idiom)
           | c -> c)
  in
  { src; tiers; matrix; rules = rule_rows; opportunities }

(* ---- JSON ---- *)

let cell_json c = Jsonx.obj [ ("insns", Jsonx.int c.n); ("cost", Jsonx.int c.cost) ]

let to_json t =
  let tiers_json =
    Jsonx.obj
      (List.map
         (fun tr -> (Attr.tier_name tr, cell_json t.tiers.(Attr.tier_index tr)))
         Attr.all_tiers)
  in
  let matrix_json =
    Jsonx.arr
      (List.filter_map
         (fun cls ->
           let ix = AI.cls_index cls in
           let row = t.matrix.(ix) in
           let total = Array.fold_left cell_add cell_zero row in
           if total.n = 0 then None
           else
             Some
               (Jsonx.obj
                  ([
                     ("class", Jsonx.str (AI.cls_name cls));
                     ("insns", Jsonx.int total.n);
                     ("cost", Jsonx.int total.cost);
                     ("coverage", Jsonx.float (coverage_of row total.n));
                   ]
                  @ List.filter_map
                      (fun tr ->
                        let c = row.(Attr.tier_index tr) in
                        if c.n = 0 then None else Some (Attr.tier_name tr, cell_json c))
                      Attr.all_tiers)))
         AI.all_classes)
  in
  let rules_json =
    Jsonx.arr
      (List.map
         (fun r ->
           Jsonx.obj
             [
               ("id", Jsonx.int r.rule_id);
               ("name", Jsonx.str r.rule_name);
               ("hits", Jsonx.int r.hits);
               ("dyn_cost", Jsonx.int r.dyn_cost);
               ("sites", Jsonx.int r.sites);
               ("emitted", Jsonx.int r.emitted);
               ("counterfactual", Jsonx.float r.counterfactual);
               ("payoff", Jsonx.float r.payoff);
               ("dead", Jsonx.bool r.dead);
               ("negative_payoff", Jsonx.bool r.negative);
             ])
         t.rules)
  in
  let opps_json =
    Jsonx.arr
      (List.map
         (fun o ->
           Jsonx.obj
             [
               ("class", Jsonx.str (AI.cls_name o.o_cls));
               ("idiom", Jsonx.str (AI.idiom_name o.o_cls o.o_idiom));
               ("insns", Jsonx.int o.o_cell.n);
               ("cost", Jsonx.int o.o_cell.cost);
               ("mean_cost", Jsonx.float (mean o.o_cell));
               ("est_savings", Jsonx.float o.o_savings);
             ])
         t.opportunities)
  in
  Jsonx.obj
    [
      ("meta", Jsonx.str "dbt-coverage");
      ("guest_insns", Jsonx.int t.src.guest_insns);
      ("host_insns", Jsonx.int t.src.host_insns);
      ( "attributed",
        Jsonx.int (List.fold_left (fun acc (_, _, c) -> acc + c) 0 t.src.entries) );
      ("coverage", Jsonx.float (coverage t));
      ("tiers", tiers_json);
      ("matrix", matrix_json);
      ("rules", rules_json);
      ("opportunities", opps_json);
      (* Fields that may legitimately differ between otherwise
         identical runs of different harnesses (report writers, not
         execution) live under [volatile] so gates can [del] them. *)
      ("volatile", Jsonx.obj [ ("residual", Jsonx.int t.src.residual) ]);
    ]

(* ---- text views ---- *)

let pp_tiers ppf t =
  Format.fprintf ppf "@[<v>retired guest insns %d  (coverage %.1f%%)@ " t.src.guest_insns
    (100. *. coverage t);
  List.iter
    (fun tr ->
      let c = t.tiers.(Attr.tier_index tr) in
      if c.n > 0 then
        Format.fprintf ppf "  %-8s %10d insns  %10d host  (%.2f/insn)@ " (Attr.tier_name tr)
          c.n c.cost (mean c))
    Attr.all_tiers;
  Format.fprintf ppf "@]"

let pp_matrix ppf t =
  Format.fprintf ppf "@[<v>%-10s %10s %10s  %s@ " "class" "insns" "host" "coverage";
  List.iter
    (fun cls ->
      let row = t.matrix.(AI.cls_index cls) in
      let total = Array.fold_left cell_add cell_zero row in
      if total.n > 0 then
        Format.fprintf ppf "%-10s %10d %10d  %5.1f%%  %s@ " (AI.cls_name cls) total.n
          total.cost
          (100. *. coverage_of row total.n)
          (String.concat " "
             (List.filter_map
                (fun tr ->
                  let c = row.(Attr.tier_index tr) in
                  if c.n = 0 then None
                  else Some (Printf.sprintf "%s:%d" (Attr.tier_name tr) c.n))
                Attr.all_tiers)))
    AI.all_classes;
  Format.fprintf ppf "@]"

let pp_rules ppf t =
  Format.fprintf ppf "@[<v>%-28s %10s %10s %9s  flags@ " "rule" "hits" "host" "payoff";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %10d %10d %9.0f  %s@ " r.rule_name r.hits r.dyn_cost
        r.payoff
        (String.concat ","
           ((if r.dead then [ "dead" ] else [])
           @ if r.negative then [ "negative-payoff" ] else [])))
    t.rules;
  Format.fprintf ppf "@]"

let pp_opportunities ?(limit = 10) ppf t =
  Format.fprintf ppf "@[<v>%-20s %10s %10s %12s@ " "class.idiom" "insns" "mean" "savings";
  List.iteri
    (fun i o ->
      if i < limit then
        Format.fprintf ppf "%-20s %10d %10.2f %12.0f@ "
          (AI.cls_name o.o_cls ^ "." ^ AI.idiom_name o.o_cls o.o_idiom)
          o.o_cell.n (mean o.o_cell) o.o_savings)
    t.opportunities;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>-- coverage: tiers --@ %a@ -- coverage: matrix --@ %a@ " pp_tiers
    t pp_matrix t;
  if t.rules <> [] then Format.fprintf ppf "-- coverage: rules --@ %a@ " pp_rules t;
  if t.opportunities <> [] then
    Format.fprintf ppf "-- coverage: opportunities --@ %a@ " (pp_opportunities ~limit:10) t;
  Format.fprintf ppf "@]"
