(* Observability tour: run a workload with the structured trace and
   the coordination ledger attached, write the trace in both formats,
   and summarize what the instrumentation saw.

     dune exec examples/trace_explore.exe

   Outputs (in the current directory):
     trace_explore.jsonl   one event object per line + a meta trailer
     trace_explore.chrome  Chrome trace-event JSON; load it in
                           Perfetto (ui.perfetto.dev) or
                           chrome://tracing — each event category is a
                           named track, timestamps are retired guest
                           instructions

   The console report breaks the event stream down by category and
   ranks the top-3 coordination hotspots: the optimization passes
   whose absence would cost the most host instructions at run time
   (the dynamic view of the paper's Fig. 17). *)

module D = Repro_dbt
module O = Repro_observe
module Ledger = Repro_perfscope.Ledger
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads

let () =
  let spec = W.find "gcc" in
  let user =
    W.generate spec ~iterations:(max 1 (60_000 / W.insns_per_iteration spec))
  in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  let trace = O.Trace.create () in
  let ledger = Ledger.create () in
  let sys = D.System.create ~trace ~ledger (D.System.Rules D.Opt.full) in
  K.load image (fun base words -> D.System.load_image sys base words);
  (match (D.System.run ~max_guest_insns:3_000_000 sys).Repro_tcg.Engine.reason with
  | `Halted _ -> ()
  | `Insn_limit | `Livelock _ | `Deadline -> failwith "did not halt");

  (* both export formats from the same ring *)
  let write path f =
    let oc = open_out path in
    f oc trace;
    close_out oc
  in
  write "trace_explore.jsonl" O.Trace.write_jsonl;
  write "trace_explore.chrome" O.Trace.write_chrome;
  Format.printf "trace: %d events (%d dropped by the ring)@."
    (O.Trace.total trace) (O.Trace.dropped trace);
  Format.printf "wrote trace_explore.jsonl and trace_explore.chrome@.@.";

  (* what kinds of events dominated? *)
  let counts = Hashtbl.create 16 in
  O.Trace.iter trace (fun e ->
      let k = O.Trace.category_name e.O.Trace.cat in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)));
  Format.printf "events by category:@.";
  List.iter
    (fun cat ->
      let k = O.Trace.category_name cat in
      match Hashtbl.find_opt counts k with
      | Some n -> Format.printf "  %-9s %d@." k n
      | None -> ())
    O.Trace.categories;

  (* the dynamic Fig. 17 view, ranked *)
  Format.printf "@.%a@.@." Ledger.pp_report ledger;
  let ranked =
    List.sort
      (fun a b -> compare (Ledger.dyn_insns ledger b) (Ledger.dyn_insns ledger a))
      Ledger.passes
  in
  Format.printf "top-3 coordination hotspots (host insns saved at run time):@.";
  List.iteri
    (fun i p ->
      if i < 3 then
        Format.printf "  %d. %s (%s): %d host insns, %d sync ops@." (i + 1)
          (Ledger.pass_name p) (Ledger.pass_id p)
          (Ledger.dyn_insns ledger p) (Ledger.dyn_ops ledger p))
    ranked
