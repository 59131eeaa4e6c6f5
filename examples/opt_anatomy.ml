(* Anatomy of the coordination optimizations: emit the same guest
   translation block at every optimization level and show how the
   Sync-save / Sync-restore code shrinks — the paper's Figs. 6-13 as
   live output.

     dune exec examples/opt_anatomy.exe *)

open Repro_arm
module D = Repro_dbt
module X = Repro_x86

(* The guest block under study: a flag producer, two memory accesses
   (the Fig. 10 consecutive-ld/st scenario), a conditional pair on the
   same condition (Fig. 9), and a conditional branch. *)
let guest_block () =
  let a = Asm.create () in
  Asm.cmp a 0 5;
  Asm.ldr a 1 6 0;
  Asm.str a 1 6 4;
  Asm.add a ~cond:Cond.EQ 2 2 1;
  Asm.add a ~cond:Cond.EQ 3 3 1;
  Asm.branch_to a ~cond:Cond.NE "self";
  Asm.label a "self";
  snd (Asm.assemble_insns a)

let () =
  let insns = guest_block () in
  Format.printf "guest block:@.";
  Array.iter (fun i -> Format.printf "  %a@." Insn.pp i) insns;
  let ruleset = Repro_rules.Builtin.ruleset () in
  List.iter
    (fun (name, opt) ->
      let scheduled, origins =
        let tagged =
          Array.mapi (fun k x -> (x, k)) (D.Translator_rule.schedule ~opt insns)
        in
        (Array.map fst tagged, Array.map snd tagged)
      in
      let r =
        D.Emitter.emit ~opt ~ruleset ~privileged:false
          ~chunks:[| { D.Emitter.pc = 0; insns = scheduled; origins; hoists = 0 } |]
          ()
      in
      let count = X.Prog.static_count r.D.Emitter.prog in
      Format.printf "@.=== %s: %d host instructions ===@.%a@." name count X.Prog.pp
        r.D.Emitter.prog)
    D.Opt.levels
