(* Offline analysis over the JSON the toolchain writes: stats-json
   files from repro-dbt-run (phase breakdowns, A/B diffs) and the
   consolidated BENCH_<rev>.json from the bench harness (the
   regression gate). Library code so the tests can assert the two
   load-bearing properties directly: same-seed diffs are exactly zero,
   and a synthetic regression trips the gate. *)

module Jsonx = Repro_observe.Jsonx

let ( let* ) = Option.bind

(* ---- phase breakdowns from a stats-json file ---- *)

(* The ["perf"]["phases"] section when the run carried a scope;
   otherwise fall back to the per-tag host-instruction split the bare
   stats always record. Deterministic either way. *)
let phase_totals json =
  match
    let* perf = Jsonx.member "perf" json in
    let* phases = Jsonx.member "phases" perf in
    match phases with
    | Jsonx.Obj fields ->
      Some
        (List.filter_map
           (fun (k, v) ->
             if k = "total" then None
             else match Jsonx.to_int v with Some n -> Some (k, n) | None -> None)
           fields)
    | _ -> None
  with
  | Some l -> l
  | None -> (
    match Jsonx.member "stats" json with
    | Some (Jsonx.Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          if String.length k > 5 && String.sub k 0 5 = "host_" && k <> "host_insns"
             && k <> "host_per_guest"
          then match Jsonx.to_int v with Some n -> Some (k, n) | None -> None
          else None)
        fields
    | _ -> [])

let stat_int json field =
  let* stats = Jsonx.member "stats" json in
  let* v = Jsonx.member field stats in
  Jsonx.to_int v

(* ---- document-kind validation ---- *)

(* Every JSON artifact the toolchain writes carries a ["meta"] kind
   tag ("dbt-stats", "dbt-coverage", "fleet-telemetry", "bench",
   "trace", ...). Feeding one artifact to another artifact's consumer
   used to produce confusing empty tables; the kind check turns it
   into a one-line diagnosis. Documents without the tag pass unless
   [require] — older artifacts predate the tagging. *)
let check_kind ?(require = false) ~expect json =
  match Jsonx.member "meta" json with
  | None ->
    if require then
      Error (Printf.sprintf "missing \"meta\" document-kind tag (expected %S)" expect)
    else Ok ()
  | Some m -> (
    match Jsonx.to_string m with
    | Some k when k = expect -> Ok ()
    | Some k -> Error (Printf.sprintf "document kind %S, expected %S" k expect)
    | None -> Error (Printf.sprintf "malformed \"meta\" tag (expected %S)" expect))

(* ---- A/B diff ---- *)

type diff_row = {
  d_phase : string;
  d_a : int;
  d_b : int;
  d_pct : float;  (* (b - a) / a * 100; 0 when both are 0 *)
}

let pct_delta a b =
  if a = b then 0.
  else if a = 0 then infinity
  else 100. *. float_of_int (b - a) /. float_of_int a

let diff a b =
  let pa = phase_totals a and pb = phase_totals b in
  let keys =
    List.map fst pa @ List.filter (fun k -> not (List.mem_assoc k pa)) (List.map fst pb)
  in
  List.map
    (fun k ->
      let va = match List.assoc_opt k pa with Some n -> n | None -> 0 in
      let vb = match List.assoc_opt k pb with Some n -> n | None -> 0 in
      { d_phase = k; d_a = va; d_b = vb; d_pct = pct_delta va vb })
    keys

let max_abs_pct rows =
  List.fold_left (fun acc r -> Float.max acc (Float.abs r.d_pct)) 0. rows

(* ---- the benchmark-regression gate ---- *)

type slice = {
  sl_name : string;
  sl_figure : string;
  sl_mode : string;
  sl_bench : string;
  sl_rule_enabled : bool;
  sl_guest : int;
  sl_host : int;
  sl_host_per_guest : float;
  sl_sync : int;
}

type bench_file = { bf_rev : string; bf_target : int; bf_slices : slice list }

let slice_of_json v =
  let str k = match Jsonx.member k v with Some s -> Jsonx.to_string s | None -> None in
  let num k = match Jsonx.member k v with Some n -> Jsonx.to_int n | None -> None in
  let* sl_name = str "name" in
  let* sl_figure = str "figure" in
  let* sl_mode = str "mode" in
  let* sl_bench = str "bench" in
  let* sl_rule_enabled =
    match Jsonx.member "rule_enabled" v with Some b -> Jsonx.to_bool b | None -> None
  in
  let* sl_guest = num "guest_insns" in
  let* sl_host = num "host_insns" in
  let* sl_host_per_guest =
    match Jsonx.member "host_per_guest" v with Some f -> Jsonx.to_float f | None -> None
  in
  let* sl_sync = num "sync_insns" in
  Some
    {
      sl_name;
      sl_figure;
      sl_mode;
      sl_bench;
      sl_rule_enabled;
      sl_guest;
      sl_host;
      sl_host_per_guest;
      sl_sync;
    }

let bench_of_json json =
  let* rev = Jsonx.member "rev" json in
  let* bf_rev = Jsonx.to_string rev in
  let* target = Jsonx.member "target" json in
  let* bf_target = Jsonx.to_int target in
  let* slices = Jsonx.member "slices" json in
  let* items = Jsonx.to_list slices in
  let parsed = List.filter_map slice_of_json items in
  if List.length parsed <> List.length items then None
  else Some { bf_rev; bf_target; bf_slices = parsed }

type gate_status =
  | Gate_ok
  | Gate_regressed of float  (* host/guest delta % over the threshold *)
  | Gate_missing  (* baseline slice absent from the current run *)
  | Gate_empty  (* zero retired guest instructions *)

type gate_row = {
  g_name : string;
  g_base : float;  (* baseline host insns per guest insn *)
  g_cur : float;
  g_pct : float;
  g_status : gate_status;
}

(* Rule-enabled baseline slices must not regress host-insn/guest-insn
   by more than [threshold_pct]; qemu-baseline slices are reported but
   never gate (they are the reference the speedups are measured
   against, not the optimized artifact under protection). *)
let gate ?(threshold_pct = 5.) ~baseline ~current () =
  let rows =
    List.map
      (fun b ->
        match
          List.find_opt (fun c -> c.sl_name = b.sl_name) current.bf_slices
        with
        | None ->
          {
            g_name = b.sl_name;
            g_base = b.sl_host_per_guest;
            g_cur = 0.;
            g_pct = 0.;
            g_status = (if b.sl_rule_enabled then Gate_missing else Gate_ok);
          }
        | Some c ->
          let pct =
            if b.sl_host_per_guest = 0. then 0.
            else
              100. *. (c.sl_host_per_guest -. b.sl_host_per_guest)
              /. b.sl_host_per_guest
          in
          let status =
            if c.sl_guest = 0 then Gate_empty
            else if b.sl_rule_enabled && pct > threshold_pct then Gate_regressed pct
            else Gate_ok
          in
          {
            g_name = b.sl_name;
            g_base = b.sl_host_per_guest;
            g_cur = c.sl_host_per_guest;
            g_pct = pct;
            g_status = status;
          })
      baseline.bf_slices
  in
  let ok = List.for_all (fun r -> r.g_status = Gate_ok) rows in
  (ok, rows)

(* ---- file loading ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_json path = Jsonx.parse (read_file path)

(* JSONL: one value per non-empty line (the trace/metrics exports). *)
let load_jsonl path =
  read_file path
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if String.trim line = "" then None else Some (Jsonx.parse line))
