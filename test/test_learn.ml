module L = Repro_learn
module D = Repro_dbt
module T = Repro_tcg
module Minic = Repro_minic
module Rule = Repro_rules.Rule
open Repro_arm

let report = lazy (L.Learn.learn ())

let test_pipeline_stats () =
  let r = Lazy.force report in
  Alcotest.(check bool) "many candidates" true (r.L.Learn.candidates >= 60);
  Alcotest.(check bool)
    (Printf.sprintf "high verification rate (%d/%d)" r.L.Learn.verified
       r.L.Learn.candidates)
    true
    (float_of_int r.L.Learn.verified
    >= 0.85 *. float_of_int r.L.Learn.candidates);
  Alcotest.(check bool) "substantial rule set" true (List.length r.L.Learn.rules >= 20)

let test_class_lumping () =
  let r = Lazy.force report in
  let has_class =
    List.exists
      (fun rule ->
        match rule.Rule.guest with
        | [ Rule.G_dp { ops; _ } ] -> List.length ops > 1
        | _ -> false)
      r.L.Learn.rules
  in
  Alcotest.(check bool) "opcode-class rule exists" true has_class

let test_variable_shift_rules () =
  (* the variable_shifts corpus program must yield register-specified
     shift rules that match and instantiate (cl-based host shifts) *)
  let r = Lazy.force report in
  let shift_reg_rules =
    List.filter
      (fun rule ->
        List.exists
          (fun g ->
            match g with
            | Rule.G_dp { op2 = Rule.G_shift_reg _; _ } -> true
            | Rule.G_dp _ | Rule.G_mul _ | Rule.G_movw _ | Rule.G_movt _ -> false)
          rule.Rule.guest)
      r.L.Learn.rules
  in
  Alcotest.(check bool) "register-shift rules learned" true (shift_reg_rules <> []);
  (* each must use a cl shift on the host side *)
  List.iter
    (fun rule ->
      let has_cl =
        List.exists
          (fun h -> match h with Rule.H_shift_cl _ -> true | _ -> false)
          rule.Rule.host
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s uses cl shift" rule.Rule.name)
        true has_cl)
    shift_reg_rules;
  (* and a concrete instance must match the rule set *)
  let insn =
    Insn.make
      (Insn.Dp
         {
           op = Insn.MOV;
           s = false;
           rd = 2;
           rn = 0;
           op2 = Insn.Reg_shift_reg { rm = 0; kind = Insn.LSL; rs = 1 };
         })
  in
  let rs = Repro_rules.Ruleset.of_list r.L.Learn.rules in
  match Repro_rules.Ruleset.match_at rs [ insn ] with
  | Some _ -> ()
  | None -> Alcotest.fail "mov rd, rm lsl rs must match a learned rule"

let test_verifier_rejects_wrong_pairs () =
  (* guest add vs host sub must refute *)
  let guest =
    [ Insn.make (Insn.Dp { op = Insn.ADD; s = false; rd = 0; rn = 1;
                           op2 = Insn.Reg_shift_imm { rm = 2; kind = Insn.LSL; amount = 0 } }) ]
  in
  let module X = Repro_x86.Insn in
  let pin r = Option.get (Repro_rules.Pinmap.pin r) in
  let host_wrong =
    [ X.Mov { width = X.W32; dst = X.Reg (pin 0); src = X.Reg (pin 1) };
      X.Alu { op = X.Sub; dst = X.Reg (pin 0); src = X.Reg (pin 2) } ]
  in
  (match L.Verify.check ~guest ~host:host_wrong with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "add/sub pair must be rejected");
  let host_right =
    [ X.Mov { width = X.W32; dst = X.Reg (pin 0); src = X.Reg (pin 1) };
      X.Alu { op = X.Add; dst = X.Reg (pin 0); src = X.Reg (pin 2) } ]
  in
  match L.Verify.check ~guest ~host:host_right with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "correct pair rejected: %s" e

let test_verifier_detects_pinned_clobber () =
  (* a template that corrupts an unrelated pinned register must fail *)
  let guest =
    [ Insn.make (Insn.Dp { op = Insn.MOV; s = false; rd = 0; rn = 0;
                           op2 = Insn.imm_operand_exn 5 }) ]
  in
  let module X = Repro_x86.Insn in
  let pin r = Option.get (Repro_rules.Pinmap.pin r) in
  let host =
    [ X.Mov { width = X.W32; dst = X.Reg (pin 0); src = X.Imm 5 };
      X.Mov { width = X.W32; dst = X.Reg (pin 3); src = X.Imm 0 } ]
  in
  match L.Verify.check ~guest ~host with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pinned-register clobber must be rejected"

let test_carry_in_detection () =
  (* adc template verifies with `Direct carry-in *)
  let guest =
    [ Insn.make (Insn.Dp { op = Insn.ADC; s = true; rd = 0; rn = 1;
                           op2 = Insn.imm_operand_exn 0 }) ]
  in
  let module X = Repro_x86.Insn in
  let pin r = Option.get (Repro_rules.Pinmap.pin r) in
  let host =
    [ X.Mov { width = X.W32; dst = X.Reg (pin 0); src = X.Reg (pin 1) };
      X.Alu { op = X.Adc; dst = X.Reg (pin 0); src = X.Imm 0 } ]
  in
  match L.Verify.check ~guest ~host with
  | Ok v ->
    Alcotest.(check bool) "carry-in direct" true (v.L.Verify.carry_in = Some `Direct)
  | Error e -> Alcotest.failf "adc pair rejected: %s" e

(* Each corpus program: compile, run under the learned rules at base
   and full, and compare the locals (r4..r8) with the reference
   interpreter. The end-to-end soundness test of the whole pipeline. *)
let test_corpus_differential () =
  let r = Lazy.force report in
  let ruleset = L.Learn.ruleset r in
  List.iter
    (fun prog ->
      let words = Minic.Codegen_arm.compile_runnable prog ~halt_with:None in
      let m = T.Ref_machine.create () in
      T.Ref_machine.load_image m 0 words;
      (match fst (T.Ref_machine.run m ~max_steps:500_000) with
      | T.Ref_machine.Halted _ -> ()
      | _ -> Alcotest.failf "%s: reference did not halt" prog.Minic.Ast.name);
      List.iter
        (fun opt ->
          let sys = D.System.create ~ruleset (D.System.Rules opt) in
          D.System.load_image sys 0 words;
          (match (D.System.run ~max_guest_insns:500_000 sys).T.Engine.reason with
          | `Halted _ -> ()
          | `Insn_limit | `Livelock _ | `Deadline ->
            Alcotest.failf "%s: did not halt" prog.Minic.Ast.name);
          let cpu = D.System.cpu sys in
          for reg = 4 to 8 do
            Alcotest.(check int)
              (Printf.sprintf "%s r%d" prog.Minic.Ast.name reg)
              (Cpu.get_reg m.T.Ref_machine.cpu reg)
              (Cpu.get_reg cpu reg)
          done)
        [ D.Opt.base; D.Opt.full ])
    L.Corpus.programs

let test_learned_rules_serialize () =
  let r = Lazy.force report in
  let rs = L.Learn.ruleset r in
  match Repro_rules.Serialize.load (Repro_rules.Serialize.save rs) with
  | Ok rs' ->
    Alcotest.(check bool) "learned set roundtrips" true
      (Repro_rules.Ruleset.rules rs = Repro_rules.Ruleset.rules rs')
  | Error e -> Alcotest.failf "learned serialization failed: %s" e

(* Loading is total: every prefix of the learned set's bytes, and the
   bytes with any one byte inverted or its low bit flipped, load or
   give an [Error]; no input raises. *)
let test_learned_rules_load_total () =
  let bytes = Repro_rules.Serialize.save (L.Learn.ruleset (Lazy.force report)) in
  let total what s =
    match Repro_rules.Serialize.load s with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  for n = 0 to String.length bytes - 1 do
    total (Printf.sprintf "prefix %d" n) (String.sub bytes 0 n)
  done;
  String.iteri
    (fun i c ->
      List.iter
        (fun mask ->
          let b = Bytes.of_string bytes in
          Bytes.set b i (Char.chr (Char.code c lxor mask));
          total (Printf.sprintf "byte %d xor %#x" i mask) (Bytes.to_string b))
        [ 0xff; 0x01 ])
    bytes

let test_determinism () =
  let a = L.Learn.learn () in
  let b = L.Learn.learn () in
  Alcotest.(check int) "same rule count" (List.length a.L.Learn.rules)
    (List.length b.L.Learn.rules);
  Alcotest.(check int) "same verified" a.L.Learn.verified b.L.Learn.verified

(* The learned ruleset and the verifier's verdicts, pinned: a change to
   how either side of a candidate is evaluated symbolically must leave
   the same rules, counts and Proved/Probable split. The digest is
   FNV-1a of the set's saved bytes, so it moves with the byte format
   as well as with the rules. *)
let test_learned_ruleset_pinned () =
  let r = Lazy.force report in
  Alcotest.(check int) "ruleset digest" 1885240043
    (Repro_rules.Serialize.digest (L.Learn.ruleset r));
  Alcotest.(check (list int)) "candidates, verified, rules, rejected" [ 152; 152; 53; 0 ]
    [ r.L.Learn.candidates; r.L.Learn.verified; List.length r.L.Learn.rules;
      List.length r.L.Learn.rejected ];
  let proved = ref 0 and probable = ref 0 in
  List.iter
    (fun (c : L.Extract.candidate) ->
      match L.Verify.check ~guest:c.L.Extract.guest ~host:c.L.Extract.host with
      | Ok { L.Verify.strength = Repro_symexec.Equiv.Proved; _ } -> incr proved
      | Ok _ -> incr probable
      | Error _ -> ())
    (List.concat_map L.Extract.of_program L.Corpus.programs);
  Alcotest.(check (pair int int)) "proved, probable" (148, 4) (!proved, !probable)

let suite =
  [
    ( "learn.pipeline",
      [
        Alcotest.test_case "stats sane" `Quick test_pipeline_stats;
        Alcotest.test_case "opcode-class lumping" `Quick test_class_lumping;
        Alcotest.test_case "variable-shift rules" `Quick test_variable_shift_rules;
        Alcotest.test_case "deterministic" `Quick test_determinism;
        Alcotest.test_case "learned rules serialize" `Quick test_learned_rules_serialize;
        Alcotest.test_case "rule set load is total" `Quick test_learned_rules_load_total;
        Alcotest.test_case "learned ruleset is pinned" `Quick test_learned_ruleset_pinned;
      ] );
    ( "learn.verify",
      [
        Alcotest.test_case "rejects wrong opcode" `Quick test_verifier_rejects_wrong_pairs;
        Alcotest.test_case "rejects pinned clobber" `Quick test_verifier_detects_pinned_clobber;
        Alcotest.test_case "detects adc carry-in" `Quick test_carry_in_detection;
      ] );
    ( "learn.end_to_end",
      [ Alcotest.test_case "corpus differential" `Quick test_corpus_differential ] );
  ]
