(* Ring-buffered structured event trace.

   The machine is deterministic and its only meaningful clock is
   retired guest instructions, so events carry that as their
   timestamp (installed by the runtime via [set_clock]).  The buffer
   is bounded: when full, the oldest event is overwritten and the
   drop counter advances — tracing can stay on for arbitrarily long
   runs with constant memory.

   Emission must never perturb the modelled machine: it charges no
   Stats counters and draws no PRNG.  That invariant is what keeps
   traced runs bit-identical to untraced ones (asserted in tests). *)

type category =
  | Exec
  | Chain
  | Sync
  | Irq
  | Tlb
  | Shadow
  | Watchdog
  | Snapshot
  | Fault
  | Fleet
  | Request

let categories =
  [ Exec; Chain; Sync; Irq; Tlb; Shadow; Watchdog; Snapshot; Fault; Fleet;
    Request ]

let category_name = function
  | Exec -> "exec"
  | Chain -> "chain"
  | Sync -> "sync"
  | Irq -> "irq"
  | Tlb -> "tlb"
  | Shadow -> "shadow"
  | Watchdog -> "watchdog"
  | Snapshot -> "snapshot"
  | Fault -> "fault"
  | Fleet -> "fleet"
  | Request -> "request"

(* stable small ids, used as Chrome trace tids *)
let category_id = function
  | Exec -> 1
  | Chain -> 2
  | Sync -> 3
  | Irq -> 4
  | Tlb -> 5
  | Shadow -> 6
  | Watchdog -> 7
  | Snapshot -> 8
  | Fault -> 9
  | Fleet -> 10
  | Request -> 11

type event = { at : int; cat : category; name : string; a : int; b : int }

type t = {
  ring : event array;
  mutable head : int;  (* next write position *)
  mutable count : int; (* retained events, <= capacity *)
  mutable total : int; (* events ever emitted *)
  mutable clock : unit -> int;
}

let default_capacity = 65536
let nil = { at = 0; cat = Exec; name = ""; a = 0; b = 0 }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    ring = Array.make capacity nil;
    head = 0;
    count = 0;
    total = 0;
    clock = (fun () -> 0);
  }

let set_clock t f = t.clock <- f
let length t = t.count
let total t = t.total
let dropped t = t.total - t.count

let emit t ?(a = 0) ?(b = 0) cat name =
  let cap = Array.length t.ring in
  t.ring.(t.head) <- { at = t.clock (); cat; name; a; b };
  t.head <- (t.head + 1) mod cap;
  if t.count < cap then t.count <- t.count + 1;
  t.total <- t.total + 1

let clear t =
  t.head <- 0;
  t.count <- 0;
  t.total <- 0

let iter t f =
  (* oldest first *)
  let cap = Array.length t.ring in
  let start = (t.head - t.count + cap * 2) mod cap in
  for i = 0 to t.count - 1 do
    f t.ring.((start + i) mod cap)
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

(* ---------- export ---------- *)

let event_json e =
  Jsonx.obj
    [
      ("at", Jsonx.int e.at);
      ("cat", Jsonx.str (category_name e.cat));
      ("name", Jsonx.str e.name);
      ("a", Jsonx.int e.a);
      ("b", Jsonx.int e.b);
    ]

let write_jsonl oc t =
  iter t (fun e ->
      output_string oc (event_json e);
      output_char oc '\n');
  (* a trailer line so consumers can detect ring overflow *)
  output_string oc
    (Jsonx.obj
       [
         ("meta", Jsonx.str "trace");
         ("total", Jsonx.int t.total);
         ("dropped", Jsonx.int (dropped t));
       ]);
  output_char oc '\n'

(* Chrome trace-event JSON (Perfetto-loadable): one process per
   stream, one thread per category within it, instant events, [ts] in
   retired guest instructions (Perfetto treats ts as microseconds; the
   absolute unit is irrelevant for a deterministic machine). A
   [merged] export of several rings (a fleet machine each, the fleet
   dispatcher, ...) names its processes and renders Request-category
   begin/end pairs as duration slices, so a slow request shows as a
   span on its machine's track. The streams' clocks need not agree —
   each process carries its own timeline. *)
let chrome oc ~merged streams =
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let put s =
    if !first then first := false else output_char oc ',';
    output_string oc s
  in
  let event pid e ~ph ~name args =
    put
      (Jsonx.obj
         ([ ("name", Jsonx.str name); ("cat", Jsonx.str (category_name e.cat));
            ("ph", Jsonx.str ph) ]
         @ (if ph = "i" then [ ("s", Jsonx.str "t") ] else [])
         @ [ ("ts", Jsonx.int e.at); ("pid", Jsonx.int pid);
             ("tid", Jsonx.int (category_id e.cat)); ("args", Jsonx.obj args) ]))
  in
  List.iteri
    (fun i (sname, t) ->
      let pid = i + 1 in
      if merged then
        put
          (Jsonx.obj
             [
               ("name", Jsonx.str "process_name");
               ("ph", Jsonx.str "M");
               ("pid", Jsonx.int pid);
               ("args", Jsonx.obj [ ("name", Jsonx.str sname) ]);
             ]);
      List.iter
        (fun cat ->
          put
            (Jsonx.obj
               [
                 ("name", Jsonx.str "thread_name");
                 ("ph", Jsonx.str "M");
                 ("pid", Jsonx.int pid);
                 ("tid", Jsonx.int (category_id cat));
                 ("args", Jsonx.obj [ ("name", Jsonx.str (category_name cat)) ]);
               ]))
        categories;
      iter t (fun e ->
          match (merged, e.cat, e.name) with
          | true, Request, ("req:begin" | "req:end") ->
            event pid e
              ~ph:(if e.name = "req:begin" then "B" else "E")
              ~name:(Printf.sprintf "req%d#%d" e.a e.b)
              [ ("request", Jsonx.int e.a); ("attempt", Jsonx.int e.b) ]
          | _ ->
            event pid e ~ph:"i" ~name:e.name
              [ ("a", Jsonx.int e.a); ("b", Jsonx.int e.b) ]))
    streams;
  let sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 streams in
  Printf.fprintf oc "],\"otherData\":{\"clock\":\"guest_insns\",%s\"dropped\":%d,\"total\":%d}}"
    (if merged then Printf.sprintf "\"streams\":%d," (List.length streams) else "")
    (sum dropped) (sum total)

let write_chrome oc t = chrome oc ~merged:false [ ("", t) ]
let write_chrome_streams oc streams = chrome oc ~merged:true streams
