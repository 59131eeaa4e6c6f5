(* The traced run: spans around every call into a layer's public
   functions, taken from outside the program.

   [System.run] builds its engine callbacks internally, so outside code
   cannot wrap them. The traced run therefore drives [Engine.run] itself
   on the machine's runtime and code cache, wiring the translators'
   public callbacks exactly as [System.run]'s natural rung does (rules:
   translate, link_hook, on_enter, on_executed and the superblock
   [on_hot] hook; qemu: the baseline translator alone). The benchmark
   then checks that the traced loop leaves the same [Stats] as
   [System.run] did, so the layer figures describe the same execution.

   Spans are kept in memory for the whole engine run and folded into
   per-layer totals when it ends. *)

module D = Repro_dbt
module T = Repro_tcg

type layer =
  | Translate  (** [Translator_rule.translate] *)
  | Tcg  (** [Translator_qemu.translate] *)
  | Region  (** [Translator_rule.form_region], the [on_hot] hook *)
  | Link  (** [Translator_rule.link_hook] *)
  | Enter  (** [Translator_rule.on_enter] *)
  | Verify  (** [Translator_rule.on_executed] *)
  | Depot_load  (** [Depot.load], before the engine runs *)
  | Depot_install  (** [System.depot_install], before the engine runs *)
  | Engine  (** the engine run; folded to its self time *)

let index = function
  | Translate -> 0
  | Tcg -> 1
  | Region -> 2
  | Link -> 3
  | Enter -> 4
  | Verify -> 5
  | Depot_load -> 6
  | Depot_install -> 7
  | Engine -> 8

let n = 9

type t = {
  mutable buf : int array;  (** open engine run: (layer, start, stop) triples *)
  mutable len : int;
  calls : int array;  (** per layer, folded *)
  ns : int array;  (** per layer, folded; [Engine] holds self time *)
  mutable regions_formed : int;
}

let create () =
  {
    buf = Array.make (3 * 4096) 0;
    len = 0;
    calls = Array.make n 0;
    ns = Array.make n 0;
    regions_formed = 0;
  }

let record t layer start stop =
  if t.len + 3 > Array.length t.buf then begin
    let bigger = Array.make (2 * Array.length t.buf) 0 in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- index layer;
  t.buf.(t.len + 1) <- start;
  t.buf.(t.len + 2) <- stop;
  t.len <- t.len + 3

let span t layer f =
  let start = Util.now_ns () in
  let r = f () in
  record t layer start (Util.now_ns ());
  r

(* Close an engine run: fold its spans. The engine span's self time is
   its duration minus the callback spans it contains (callbacks never
   nest in one another). *)
let fold t =
  let children = ref 0 and engine = ref 0 in
  let i = ref 0 in
  while !i < t.len do
    let l = t.buf.(!i) and d = t.buf.(!i + 2) - t.buf.(!i + 1) in
    t.calls.(l) <- t.calls.(l) + 1;
    if l = index Engine then engine := !engine + d
    else begin
      t.ns.(l) <- t.ns.(l) + d;
      (* the engine callbacks precede the depot layers in [index] *)
      if l < index Depot_load then children := !children + d
    end;
    i := !i + 3
  done;
  let e = index Engine in
  t.ns.(e) <- t.ns.(e) + (!engine - !children);
  t.len <- 0

let calls t l = t.calls.(index l)
let ns t l = t.ns.(index l)

(* A warm machine's engine callbacks include the depot's private
   miss-triggered install waves, so its run is one [System.run] span;
   the depot layers are spanned around the boot (see [Depot_load]). *)
let run_system t sys =
  let res = span t Engine (fun () -> D.System.run sys) in
  fold t;
  res

(* Run [sys] from boot to halt under spans. *)
let run t (sys : D.System.t) engine =
  let rt = sys.D.System.rt and cache = sys.D.System.cache in
  let res =
    span t Engine (fun () ->
        match (engine : Progs.engine) with
        | Progs.Qemu ->
          T.Engine.run rt cache
            ~translate:(fun rt cache ~pc ->
              span t Tcg (fun () -> T.Translator_qemu.translate rt cache ~pc))
            ()
        | Progs.Rules ->
          let tr =
            match sys.D.System.rule_translator with
            | Some tr -> tr
            | None -> invalid_arg "Spans.run: not a rules machine"
          in
          let module R = D.Translator_rule in
          T.Engine.run rt cache
            ~translate:(fun rt cache ~pc ->
              span t Translate (fun () -> R.translate tr rt cache ~pc))
            ~on_hot:(fun tb ->
              span t Region (fun () ->
                  let r = R.form_region tr rt cache tb in
                  if Option.is_some r then t.regions_formed <- t.regions_formed + 1;
                  r))
            ~link_hook:(fun ~pred ~slot ~succ ->
              span t Link (fun () -> R.link_hook tr ~pred ~slot ~succ))
            ~on_enter:(fun tb -> span t Enter (fun () -> R.on_enter tr rt tb))
            ~on_executed:(fun tb ~outcome ~guest ->
              span t Verify (fun () -> R.on_executed tr rt tb ~outcome ~guest))
            ())
  in
  fold t;
  res
