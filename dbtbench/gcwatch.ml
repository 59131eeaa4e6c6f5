(* GC and allocation around timed calls: [Gc.quick_stat] deltas for
   allocation and collection counts, and per-domain pause time read
   from the runtime's own event rings ([runtime_events], shipped with
   the compiler). A pause is an outermost minor collection or major
   slice on one domain's ring; only pauses that end inside a timed call
   are booked. *)

module RE = Runtime_events

type t = {
  mutable minor_words : float;
  mutable major_collections : int;
  mutable pause_ns : int;
  mutable lost_events : int;
  mutable counting : bool;
  depth : (int, int * int) Hashtbl.t;  (** ring -> (nesting, outer start) *)
}

let is_pause = function
  | RE.EV_MINOR | RE.EV_MAJOR_SLICE | RE.EV_EXPLICIT_GC_MINOR
  | RE.EV_EXPLICIT_GC_MAJOR | RE.EV_EXPLICIT_GC_FULL_MAJOR
  | RE.EV_EXPLICIT_GC_COMPACT | RE.EV_EXPLICIT_GC_MAJOR_SLICE ->
    true
  | _ -> false

let ts x = Int64.to_int (RE.Timestamp.to_int64 x)

let callbacks t =
  RE.Callbacks.create
    ~runtime_begin:(fun ring at phase ->
      if is_pause phase then
        match Hashtbl.find_opt t.depth ring with
        | None | Some (0, _) -> Hashtbl.replace t.depth ring (1, ts at)
        | Some (d, s) -> Hashtbl.replace t.depth ring (d + 1, s))
    ~runtime_end:(fun ring at phase ->
      if is_pause phase then
        match Hashtbl.find_opt t.depth ring with
        | Some (1, s) ->
          Hashtbl.replace t.depth ring (0, 0);
          if t.counting then t.pause_ns <- t.pause_ns + (ts at - s)
        | Some (d, s) when d > 1 -> Hashtbl.replace t.depth ring (d - 1, s)
        | _ -> ())
    ~lost_events:(fun _ n -> t.lost_events <- t.lost_events + n)
    ()

type watch = { t : t; cursor : RE.cursor; cb : RE.Callbacks.t }

let create () =
  RE.start ();
  let t =
    {
      minor_words = 0.;
      major_collections = 0;
      pause_ns = 0;
      lost_events = 0;
      counting = false;
      depth = Hashtbl.create 4;
    }
  in
  let w = { t; cursor = RE.create_cursor None; cb = callbacks t } in
  ignore (RE.read_poll w.cursor w.cb None);
  w

let poll w ~counting =
  w.t.counting <- counting;
  ignore (RE.read_poll w.cursor w.cb None);
  w.t.counting <- false

(* [around w f] runs [f] and books its allocation, collections and GC
   pauses. *)
let around w f =
  poll w ~counting:false;
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  poll w ~counting:true;
  let t = w.t in
  t.minor_words <- t.minor_words +. (b.Gc.minor_words -. a.Gc.minor_words);
  t.major_collections <-
    t.major_collections + (b.Gc.major_collections - a.Gc.major_collections);
  r
