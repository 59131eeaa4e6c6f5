(* Profile a benchmark under both engines and show where the host
   instructions actually go — the per-TB analogue of the paper's §IV-B
   per-functionality breakdown.

     dune exec examples/profile_hot_blocks.exe

   The hottest blocks are printed with their host/guest expansion; the
   rule-based engine's win shows up as the same guest blocks costing
   fewer host instructions, while the kernel's IRQ path stays equally
   hot on both engines (interrupt delivery is engine-independent). *)

module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Scope = Repro_perfscope.Scope

let run_profiled mode =
  let spec = W.find "gcc" in
  let user = W.generate spec ~iterations:(max 1 (60_000 / W.insns_per_iteration spec)) in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  let scope = Scope.create () in
  let sys = D.System.create ~scope mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  (match (D.System.run ~max_guest_insns:3_000_000 sys).T.Engine.reason with
  | `Halted _ -> ()
  | `Insn_limit | `Livelock _ | `Deadline -> failwith "did not halt");
  scope

let () =
  let qemu = run_profiled D.System.Qemu in
  let rules = run_profiled (D.System.Rules D.Opt.full) in
  Format.printf "=== hot blocks, QEMU-mode baseline ===@.%a@.@."
    (Scope.pp_blocks ~top:8) qemu;
  Format.printf "=== hot blocks, rule-based engine (full opt) ===@.%a@.@."
    (Scope.pp_blocks ~top:8) rules;
  (* The hottest user-mode block under the rules engine, disassembled:
     this is where the learned rules do their work. *)
  (match
     List.find_opt
       (fun (b : Scope.block) -> not b.Scope.privileged)
       (Scope.top_blocks 100 rules)
   with
  | Some hot ->
    Format.printf "hottest user block under the rules engine:@.%a@."
      Scope.pp_disasm hot
  | None -> ());
  let expansion scope =
    let sum f = List.fold_left (fun acc b -> acc + f b) 0 (Scope.blocks scope) in
    float_of_int (sum (fun b -> b.Scope.host_spent))
    /. float_of_int (sum (fun b -> b.Scope.guest_retired))
  in
  Format.printf "@.attributed host/guest: qemu %.2f, rules %.2f@." (expansion qemu)
    (expansion rules)
