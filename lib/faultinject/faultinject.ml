open Repro_common

type site =
  | Bus_read
  | Bus_write
  | Tlb_flush
  | Walk_corrupt
  | Spurious_irq
  | Tb_flush
  | Rule_corrupt
  | Host_livelock
  | Depot_torn
  | Depot_trunc
  | Depot_flip

type behavior = Transient | Surface

let all_sites =
  [ Bus_read; Bus_write; Tlb_flush; Walk_corrupt; Spurious_irq; Tb_flush; Rule_corrupt;
    Host_livelock; Depot_torn; Depot_trunc; Depot_flip ]

let n_sites = List.length all_sites

let index = function
  | Bus_read -> 0
  | Bus_write -> 1
  | Tlb_flush -> 2
  | Walk_corrupt -> 3
  | Spurious_irq -> 4
  | Tb_flush -> 5
  | Rule_corrupt -> 6
  | Host_livelock -> 7
  | Depot_torn -> 8
  | Depot_trunc -> 9
  | Depot_flip -> 10

let site_name = function
  | Bus_read -> "bus-read"
  | Bus_write -> "bus-write"
  | Tlb_flush -> "tlb-flush"
  | Walk_corrupt -> "walk-corrupt"
  | Spurious_irq -> "spurious-irq"
  | Tb_flush -> "tb-flush"
  | Rule_corrupt -> "rule-corrupt"
  | Host_livelock -> "host-livelock"
  | Depot_torn -> "depot-torn"
  | Depot_trunc -> "depot-trunc"
  | Depot_flip -> "depot-flip"

type t = {
  prng : Prng.t;
  rates : float array;
  events : int array;
  fired : int array;
  behavior : behavior;
  mutable fire_hook : (site -> unit) option;
  mutable trace : Repro_observe.Trace.t option;
      (* observational only: not part of [export] — the PRNG stream is
         identical with or without it *)
}

let create ?(seed = 1) ?(rate = 0.001) ?(behavior = Transient) () =
  let rates = Array.make n_sites rate in
  (* Host_livelock sabotages emitted code into a host infinite loop —
     strictly opt-in (watchdog drills), never part of the blanket
     background rate. *)
  rates.(index Host_livelock) <- 0.;
  {
    prng = Prng.create ~seed;
    rates;
    events = Array.make n_sites 0;
    fired = Array.make n_sites 0;
    behavior;
    fire_hook = None;
    trace = None;
  }

let set_rate t site r = t.rates.(index site) <- r

let fire t site =
  let i = index site in
  t.events.(i) <- t.events.(i) + 1;
  let r = t.rates.(i) in
  if r <= 0. then false
  else begin
    let hit = Prng.chance t.prng r in
    if hit then begin
      t.fired.(i) <- t.fired.(i) + 1;
      (match t.fire_hook with Some h -> h site | None -> ());
      match t.trace with
      | Some tr ->
        Repro_observe.Trace.emit tr ~a:t.fired.(i) Repro_observe.Trace.Fault
          (site_name site)
      | None -> ()
    end;
    hit
  end

let set_fire_hook t h = t.fire_hook <- h
let set_trace t tr = t.trace <- tr

(* Snapshot support: the injector is the machine's only runtime entropy
   source, so its complete state rides in every snapshot. Layout:
   [prng state; behavior; n_sites; rates (float bits); events; fired]. *)
let export t =
  Array.concat
    [
      [| Prng.state t.prng;
         (match t.behavior with Transient -> 0L | Surface -> 1L);
         Int64.of_int n_sites |];
      Array.map Int64.bits_of_float t.rates;
      Array.map Int64.of_int t.events;
      Array.map Int64.of_int t.fired;
    ]

let import t words =
  if Array.length words < 3 then invalid_arg "Faultinject.import: truncated state";
  let n = Int64.to_int words.(2) in
  if n <> n_sites || Array.length words <> 3 + (3 * n) then
    invalid_arg "Faultinject.import: site count mismatch";
  Prng.set_state t.prng words.(0);
  (* behavior is immutable per injector; a snapshot restored into an
     injector with the other behavior would not replay faithfully *)
  let b = match words.(1) with 0L -> Transient | _ -> Surface in
  if b <> t.behavior then invalid_arg "Faultinject.import: behavior mismatch";
  for i = 0 to n - 1 do
    t.rates.(i) <- Int64.float_of_bits words.(3 + i);
    t.events.(i) <- Int64.to_int words.(3 + n + i);
    t.fired.(i) <- Int64.to_int words.(3 + (2 * n) + i)
  done

let of_export words =
  if Array.length words < 2 then
    invalid_arg "Faultinject.of_export: truncated state";
  let behavior = match words.(1) with 0L -> Transient | _ -> Surface in
  let t = create ~behavior () in
  import t words;
  t

let behavior t = t.behavior
let rate t site = t.rates.(index site)

let reseed t ~seed = Prng.set_state t.prng (Prng.state (Prng.create ~seed))

(* Fleet chaos-drill orchestration: one deterministic plan decides
   which k of N machines run faulty and with what per-machine injector
   seed, so a drill replays bit-identically from the fleet seed alone. *)
module Plan = struct
  type assignment = { a_machine : int; a_faulty : bool; a_seed : int }

  type t = {
    p_seed : int;
    p_faults : (site * float) list;
    p_assign : assignment array;
  }

  let make ~seed ~machines ~faulty faults =
    if machines <= 0 then invalid_arg "Faultinject.Plan.make: machines <= 0";
    if faulty < 0 || faulty > machines then
      invalid_arg "Faultinject.Plan.make: faulty out of range";
    List.iter
      (fun (_, r) ->
        if r < 0. then invalid_arg "Faultinject.Plan.make: negative rate")
      faults;
    let prng = Prng.create ~seed in
    let seeds = Array.init machines (fun _ -> 1 + Prng.int prng 0x3FFF_FFFF) in
    (* Fisher–Yates over the machine indices; the first [faulty] are it *)
    let order = Array.init machines (fun i -> i) in
    for i = machines - 1 downto 1 do
      let j = Prng.int prng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    let is_faulty = Array.make machines false in
    for i = 0 to faulty - 1 do
      is_faulty.(order.(i)) <- true
    done;
    {
      p_seed = seed;
      p_faults = faults;
      p_assign =
        Array.init machines (fun m ->
            { a_machine = m; a_faulty = is_faulty.(m); a_seed = seeds.(m) });
    }

  let seed t = t.p_seed
  let machines t = Array.length t.p_assign
  let is_faulty t m = t.p_assign.(m).a_faulty
  let machine_seed t m = t.p_assign.(m).a_seed

  let faulty_machines t =
    Array.to_list t.p_assign
    |> List.filter_map (fun a -> if a.a_faulty then Some a.a_machine else None)

  let arm t m inj =
    reseed inj ~seed:t.p_assign.(m).a_seed;
    List.iter (fun s -> set_rate inj s 0.) all_sites;
    if t.p_assign.(m).a_faulty then
      List.iter (fun (s, r) -> set_rate inj s r) t.p_faults
end

let surfaces t = t.behavior = Surface
let events t site = t.events.(index site)
let fired t site = t.fired.(index site)
let total_events t = Array.fold_left ( + ) 0 t.events
let total_fired t = Array.fold_left ( + ) 0 t.fired

let pp ppf t =
  Format.fprintf ppf "@[<v>fault injection (%s bus faults): %d fired / %d events"
    (match t.behavior with Transient -> "transient" | Surface -> "surfaced")
    (total_fired t) (total_events t);
  List.iter
    (fun s ->
      let i = index s in
      if t.events.(i) > 0 && t.rates.(i) > 0. then
        Format.fprintf ppf "@   %-12s %6d / %d" (site_name s) t.fired.(i) t.events.(i))
    all_sites;
  Format.fprintf ppf "@]"
