(* Declarative service-level objectives over a finished drill.

   An SLO file is one JSON object; every key is optional but unknown
   keys are a hard error — a typo like "availabilty_min" silently
   gating nothing is exactly the failure mode an error budget exists
   to prevent. Evaluation reads only deterministic fleet counters, so
   a burned budget is reproducible from the drill seed. *)

module Jsonx = Repro_observe.Jsonx
module Fleet = Repro_resilience.Fleet
module Histo = Repro_perfscope.Histo

exception Slo_error of string

type t = {
  p99_latency_max : int option;
      (* ceiling on p99 serve latency, retired guest insns *)
  availability_min : float option;  (* floor on served_ok / offered *)
  deadline_miss_rate_max : float option;  (* ceiling on timed_out / offered *)
  breaker_trips_max : int option;  (* budget of circuit-breaker trips *)
}

type objective = {
  name : string;
  target : float;
  actual : float;
  burned : bool;
}

let keys =
  [
    "p99_latency_max";
    "availability_min";
    "deadline_miss_rate_max";
    "breaker_trips_max";
  ]

let of_json v =
  match v with
  | Jsonx.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k keys) then
          raise
            (Slo_error
               (Printf.sprintf "unknown SLO key %S (expected one of: %s)" k
                  (String.concat ", " keys))))
      fields;
    let num k =
      match Jsonx.member k v with
      | None -> None
      | Some (Jsonx.Num f) -> Some f
      | Some _ -> raise (Slo_error (Printf.sprintf "SLO key %S: expected a number" k))
    in
    let int_of k =
      match num k with
      | None -> None
      | Some f ->
        if Float.is_integer f then Some (int_of_float f)
        else raise (Slo_error (Printf.sprintf "SLO key %S: expected an integer" k))
    in
    {
      p99_latency_max = int_of "p99_latency_max";
      availability_min = num "availability_min";
      deadline_miss_rate_max = num "deadline_miss_rate_max";
      breaker_trips_max = int_of "breaker_trips_max";
    }
  | _ -> raise (Slo_error "SLO file must be one JSON object")

let load path =
  match Jsonx.parse (In_channel.with_open_bin path In_channel.input_all) with
  | v -> of_json v
  | exception Jsonx.Parse_error msg ->
    raise (Slo_error (Printf.sprintf "%s: %s" path msg))

let evaluate t fleet =
  let objective name target actual burned = { name; target; actual; burned } in
  let deadline_miss_rate =
    if Fleet.offered fleet = 0 then 0.
    else float_of_int (Fleet.timed_out fleet) /. float_of_int (Fleet.offered fleet)
  in
  List.filter_map
    (fun o -> o)
    [
      Option.map
        (fun max ->
          let p99 = Histo.percentile (Fleet.latency fleet) 99. in
          objective "p99_latency" (float_of_int max) (float_of_int p99)
            (p99 > max))
        t.p99_latency_max;
      Option.map
        (fun min ->
          let a = Fleet.availability fleet in
          objective "availability" min a (a < min))
        t.availability_min;
      Option.map
        (fun max ->
          objective "deadline_miss_rate" max deadline_miss_rate
            (deadline_miss_rate > max))
        t.deadline_miss_rate_max;
      Option.map
        (fun max ->
          let trips = Fleet.breaker_trips fleet in
          objective "breaker_trips" (float_of_int max) (float_of_int trips)
            (trips > max))
        t.breaker_trips_max;
    ]

let burned objectives = List.exists (fun o -> o.burned) objectives

let report_json objectives =
  Jsonx.obj
    [
      ("meta", Jsonx.str "slo-report");
      ("burned", Jsonx.bool (burned objectives));
      ( "objectives",
        Jsonx.arr
          (List.map
             (fun o ->
               Jsonx.obj
                 [
                   ("name", Jsonx.str o.name);
                   ("target", Jsonx.float o.target);
                   ("actual", Jsonx.float o.actual);
                   ("burned", Jsonx.bool o.burned);
                 ])
             objectives) );
    ]
