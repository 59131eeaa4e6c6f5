module R = Repro_rules
module Rule = R.Rule
module Ruleset = R.Ruleset
module Flagconv = R.Flagconv
module A = Repro_arm.Insn
module X = Repro_x86.Insn
module Cond = Repro_arm.Cond

let rules = lazy (R.Builtin.all ())
let ruleset = lazy (R.Builtin.ruleset ())

let find_rule name = List.find (fun r -> r.Rule.name = name) (Lazy.force rules)

let dp ?(s = false) ?(cond = Cond.AL) op rd rn op2 =
  { A.cond; op = A.Dp { op; s; rd; rn; op2 } }

let reg r = A.Reg_shift_imm { rm = r; kind = A.LSL; amount = 0 }

let test_match_alias_vs_3op () =
  (* add r0, r0, r1 should prefer the 1-insn alias rule *)
  let insn = dp A.ADD 0 0 (reg 1) in
  match Ruleset.match_at (Lazy.force ruleset) [ insn ] with
  | Some (r, b) ->
    Alcotest.(check bool)
      ("rule " ^ r.Rule.name)
      true
      (r.Rule.name = "alu_alias_reg" || r.Rule.name = "add_reg_lea");
    Alcotest.(check int) "p0 bound" 0 b.Rule.regs.(0)
  | None -> Alcotest.fail "no match"

let test_param_consistency () =
  (* add r0, r1, r1: distinct params may bind the same register *)
  let insn = dp A.ADD 0 1 (reg 1) in
  (match Ruleset.match_at (Lazy.force ruleset) [ insn ] with
  | Some _ -> ()
  | None -> Alcotest.fail "same-reg operands must match");
  (* the alias rule (rd = rn shared param) must NOT match add r0, r1, r2 *)
  let alias = find_rule "alus_alias_reg" in
  let insn' = dp ~s:true A.ADD 0 1 (reg 2) in
  match Rule.match_sequence alias [ insn' ] with
  | Some _ -> Alcotest.fail "alias rule must not match distinct rd/rn"
  | None -> ()

let test_distinct_constraint_blocks_alias () =
  (* alus_3op_reg requires rd <> rm *)
  let r = find_rule "alus_3op_reg" in
  let ok = dp ~s:true A.SUB 0 1 (reg 2) in
  let bad = dp ~s:true A.SUB 0 1 (reg 0) in
  Alcotest.(check bool) "rd<>rm matches" true (Rule.match_sequence r [ ok ] <> None);
  Alcotest.(check bool) "rd=rm rejected" true (Rule.match_sequence r [ bad ] = None)

let test_opcode_class_matched_op () =
  let r = find_rule "alus_alias_imm" in
  let insn = dp ~s:true A.EOR 3 3 (A.imm_operand_exn 12) in
  match Rule.match_sequence r [ insn ] with
  | Some b ->
    Alcotest.(check bool) "matched EOR" true (b.Rule.matched = Some A.EOR);
    (match
       Rule.instantiate r b ~pin_of_guest_reg:R.Pinmap.pin ~scratch:R.Pinmap.scratch
     with
    | Some [ X.Alu { op = X.Xor; dst = X.Reg hr; src = X.Imm 12 } ] ->
      Alcotest.(check (option int)) "host reg is pin(r3)" (R.Pinmap.pin 3) (Some hr)
    | Some other ->
      Alcotest.failf "unexpected template: %s"
        (String.concat "; " (List.map X.to_string other))
    | None -> Alcotest.fail "instantiation failed");
    (match Rule.convention_after r b with
    | Some Flagconv.Logic_like -> ()
    | _ -> Alcotest.fail "EOR should leave logic convention")
  | None -> Alcotest.fail "no match"

let test_unpinned_instantiation_fails () =
  let r = find_rule "mov_reg" in
  let insn = dp A.MOV 9 0 (reg 1) in
  match Rule.match_sequence r [ insn ] with
  | Some b ->
    Alcotest.(check bool) "unpinned blocks instantiation" true
      (Rule.instantiate r b ~pin_of_guest_reg:R.Pinmap.pin ~scratch:R.Pinmap.scratch
      = None)
  | None -> Alcotest.fail "pattern should match structurally"

let test_imm_linking () =
  (* movt's template uses the matched imm16 shifted left 16 *)
  let r = find_rule "movt" in
  let insn = { A.cond = Cond.AL; op = A.Movt { rd = 2; imm16 = 0xBEEF } } in
  match Rule.match_sequence r [ insn ] with
  | Some b -> (
    match
      Rule.instantiate r b ~pin_of_guest_reg:R.Pinmap.pin ~scratch:R.Pinmap.scratch
    with
    | Some [ _; X.Alu { op = X.Or; src = X.Imm v; _ } ] ->
      Alcotest.(check int) "shifted immediate" (0xBEEF lsl 16) v
    | _ -> Alcotest.fail "unexpected movt template")
  | None -> Alcotest.fail "movt must match"

let test_longest_match_wins () =
  (* a synthetic 2-insn rule must win over 1-insn rules *)
  let two =
    {
      Rule.id = 9999;
      name = "two";
      guest =
        [
          Rule.G_dp { ops = [ A.MOV ]; s = false; rd = 0; rn = 0; op2 = Rule.G_imm (Rule.P_imm 0) };
          Rule.G_dp { ops = [ A.ADD ]; s = false; rd = 1; rn = 1; op2 = Rule.G_reg 0 };
        ];
      host = [ Rule.H_mov { dst = Rule.H_param 0; src = Rule.H_imm (Rule.P_imm 0) } ];
      n_reg_params = 2;
      n_imm_params = 1;
      flags = { Rule.guest_writes = false; host_clobbers = false; convention = None };
      carry_in = None;
      require_distinct = [];
      source = `Builtin;
    }
  in
  let rs = Ruleset.of_list (two :: Lazy.force rules) in
  let insns = [ dp A.MOV 0 0 (A.imm_operand_exn 1); dp A.ADD 1 1 (reg 0) ] in
  match Ruleset.match_at rs insns with
  | Some (r, _) -> Alcotest.(check string) "longest first" "two" r.Rule.name
  | None -> Alcotest.fail "no match"

(* [match_at] against a naive scan of every active rule, longest
   pattern first, ties to the earliest added — over random rule
   orders, quarantine sets and instruction blocks. *)
let prop_match_at_reference =
  let gen =
    QCheck.Gen.(
      let* order = shuffle_l (Lazy.force rules) in
      let* quarantined = list_size (int_range 0 8) (oneofl order) in
      let* block = list_size (int_range 1 4) Gen.gen_plain_insn in
      return (order, quarantined, List.map (fun i -> { i with A.cond = Cond.AL }) block))
  in
  let print (_, _, block) = String.concat "; " (List.map A.to_string block) in
  QCheck.Test.make ~count:300 ~name:"match_at = naive longest-first scan"
    (QCheck.make ~print gen) (fun (order, quarantined, insns) ->
      let rs = Ruleset.of_list order in
      List.iter (fun r -> ignore (Ruleset.quarantine_by_id rs r.Rule.id)) quarantined;
      let naive =
        List.stable_sort
          (fun a b -> compare (Rule.guest_pattern_length b) (Rule.guest_pattern_length a))
          order
        |> List.find_map (fun r ->
               if Ruleset.is_quarantined rs r then None
               else Option.map (fun b -> (r.Rule.id, b)) (Rule.match_sequence r insns))
      in
      Option.map (fun (r, b) -> (r.Rule.id, b)) (Ruleset.match_at rs insns) = naive)

let test_coverage_metric () =
  let insns =
    [
      dp A.MOV 0 0 (A.imm_operand_exn 1);
      dp A.ADD 1 0 (reg 0);
      { A.cond = Cond.AL; op = A.Svc 0 };  (* uncovered *)
      dp A.SUB 2 1 (A.imm_operand_exn 3);
    ]
  in
  Alcotest.(check int) "3 of 4 covered" 3 (Ruleset.coverage (Lazy.force ruleset) insns)

(* --- flag conventions --- *)

let test_flagconv_all_conditions_canonical () =
  List.iter
    (fun c ->
      match Flagconv.eval Flagconv.Canonical c with
      | Flagconv.Cc _ | Flagconv.Always -> ()
      | _ ->
        Alcotest.failf "canonical must express %s" (Cond.to_string c))
    Cond.all

let test_flagconv_add_needs_materialize () =
  (match Flagconv.eval Flagconv.Add_like Cond.HI with
  | Flagconv.Needs_materialize -> ()
  | _ -> Alcotest.fail "HI after add has no single cc");
  match Flagconv.eval Flagconv.Logic_like Cond.CS with
  | Flagconv.Never -> ()
  | _ -> Alcotest.fail "CS after logic is constant false"

let test_flagconv_sub_mappings () =
  let check c cc =
    match Flagconv.eval Flagconv.Sub_like c with
    | Flagconv.Cc got when got = cc -> ()
    | _ -> Alcotest.failf "wrong mapping for %s" (Cond.to_string c)
  in
  check Cond.CS X.AE;
  check Cond.CC X.B;
  check Cond.HI X.A;
  check Cond.LS X.BE;
  check Cond.EQ X.E;
  check Cond.GT X.G

(* --- flag conventions: exhaustive soundness on the real host --- *)

let test_flagconv_sound () =
  (* For every convention, ARM condition and NZCV value: encode the
     guest flags into host EFLAGS exactly as the convention promises,
     run a real [setcc] on the host model, and compare against the
     architectural {!Cond.holds}. This is the semantic contract every
     emitted conditional guard relies on. *)
  let module Exec = Repro_x86.Exec in
  let module FC = Flagconv in
  let run_setcc cc host_flags_word =
    let b = Repro_x86.Prog.builder () in
    Repro_x86.Prog.emit b
      (X.Mov { width = X.W32; dst = X.Reg X.rax; src = X.Imm host_flags_word });
    Repro_x86.Prog.emit b (X.Loadf X.rax);
    Repro_x86.Prog.emit b (X.Setcc { cc; dst = X.rbx });
    Repro_x86.Prog.emit b (X.Exit { slot = 0 });
    let ctx = Exec.create () in
    (match Exec.run ctx (Repro_x86.Prog.finalize b) ~fuel:100 with
    | Exec.Exited 0 -> ()
    | _ -> Alcotest.fail "setcc probe did not exit");
    ctx.Exec.regs.(X.rbx) = 1
  in
  List.iter
    (fun conv ->
      List.iter
        (fun cond ->
          for nzcv = 0 to 15 do
            let flags =
              {
                Cond.n = nzcv land 8 <> 0;
                z = nzcv land 4 <> 0;
                c = nzcv land 2 <> 0;
                v = nzcv land 1 <> 0;
              }
            in
            (* Logic_like only ever describes states with C = V = 0 *)
            if not (conv = FC.Logic_like && (flags.Cond.c || flags.Cond.v)) then begin
              let bit cond_ b = if cond_ then 1 lsl b else 0 in
              let host_cf =
                if FC.carry_inverted conv then not flags.Cond.c else flags.Cond.c
              in
              let w =
                bit flags.Cond.n 31 lor bit flags.Cond.z 30 lor bit host_cf 29
                lor bit flags.Cond.v 28
              in
              let expected = Cond.holds cond flags in
              match FC.eval conv cond with
              | FC.Cc cc ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s/nzcv=%x" (FC.name conv)
                     (Cond.to_string cond) nzcv)
                  expected (run_setcc cc w)
              | FC.Always ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s always" (FC.name conv) (Cond.to_string cond))
                  true expected
              | FC.Never ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s never" (FC.name conv) (Cond.to_string cond))
                  false expected
              | FC.Needs_materialize ->
                (* legal: the emitter re-installs Canonical first, whose
                   own entries are checked in this same sweep *)
                ()
            end
          done)
        Cond.all)
    [ FC.Add_like; FC.Sub_like; FC.Logic_like; FC.Canonical ];
  (* Canonical must express every condition without materialization *)
  List.iter
    (fun cond ->
      match FC.eval FC.Canonical cond with
      | FC.Needs_materialize ->
        Alcotest.failf "Canonical cannot express %s" (Cond.to_string cond)
      | FC.Cc _ | FC.Always | FC.Never -> ())
    Cond.all


let suite =
  [
    ( "rules.match",
      [
        Alcotest.test_case "alias preferred" `Quick test_match_alias_vs_3op;
        Alcotest.test_case "param consistency" `Quick test_param_consistency;
        Alcotest.test_case "distinct constraints" `Quick test_distinct_constraint_blocks_alias;
        Alcotest.test_case "opcode class + instantiation" `Quick test_opcode_class_matched_op;
        Alcotest.test_case "unpinned instantiation fails" `Quick
          test_unpinned_instantiation_fails;
        Alcotest.test_case "movt immediate shifting" `Quick test_imm_linking;
        Alcotest.test_case "longest match wins" `Quick test_longest_match_wins;
        QCheck_alcotest.to_alcotest prop_match_at_reference;
        Alcotest.test_case "static coverage metric" `Quick test_coverage_metric;
      ] );
    ( "rules.flagconv",
      [
        Alcotest.test_case "canonical covers all conditions" `Quick
          test_flagconv_all_conditions_canonical;
        Alcotest.test_case "add/logic corner cases" `Quick test_flagconv_add_needs_materialize;
        Alcotest.test_case "sub-convention mappings" `Quick test_flagconv_sub_mappings;
        Alcotest.test_case "convention soundness (exhaustive)" `Quick
          test_flagconv_sound;
      ] );
  ]

(* --- serialization --- *)

let load_exn bytes =
  match R.Serialize.load bytes with Ok rs -> rs | Error e -> Alcotest.failf "load failed: %s" e

let test_serialize_roundtrip_builtin () =
  List.iter
    (fun r ->
      match Ruleset.rules (load_exn (R.Serialize.save (Ruleset.of_list [ r ]))) with
      | [ r' ] when r' = r -> ()
      | _ -> Alcotest.failf "roundtrip mismatch for %s" r.Rule.name)
    (Lazy.force rules)

let test_serialize_ruleset_file () =
  let rs = Lazy.force ruleset in
  let rs' = load_exn (R.Serialize.save rs) in
  Alcotest.(check int) "same size" (Ruleset.size rs) (Ruleset.size rs');
  Alcotest.(check bool) "same rules" true (Ruleset.rules rs = Ruleset.rules rs')

let test_serialize_rejects_garbage () =
  match R.Serialize.load "(rule (id banana))" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The first two lines of a rule file written by the text format this
   codec replaced. *)
let old_text_file =
  "; repro-dbt rule set (one rule per line)\n\
   (rule (id 1001) (name arith_basic:154) (source (learned arith_basic:154)) (guest (dp \
   (mov) false 0 0 (imm (p 0)))) (host (mov (param 0) (imm (p 0)))) (regs 1) (imms 1) \
   (flags false false none) (carry none) (distinct))\n"

let test_serialize_old_text () =
  match R.Serialize.load old_text_file with
  | Error e ->
    if not (contains e "not a rule set in this format") then
      Alcotest.failf "error does not say the format is wrong: %s" e
  | Ok _ -> Alcotest.fail "an old text rule file loaded"

(* Each forgery is a builtin rule with one field made invalid, saved
   unchecked: the encoder writes whatever it is given, and only the
   decoder judges. [mov_imm] is [mov rd, #i0] -> [mov p0, i0]; [add_imm]
   has two register parameters. *)
let forgeries =
  let mov_imm = find_rule "mov_imm" and mov_reg = find_rule "mov_reg" in
  let one r = [ r ] in
  let bytes rules = R.Serialize.save (Ruleset.of_list rules) in
  [
    ( "guest register index past its count",
      bytes
        (one
           {
             mov_imm with
             guest = [ G_dp { ops = [ A.MOV ]; s = false; rd = 1; rn = 0; op2 = G_imm (P_imm 0) } ];
           }) );
    ( "guest immediate index past its count",
      bytes
        (one
           {
             mov_imm with
             guest = [ G_dp { ops = [ A.MOV ]; s = false; rd = 0; rn = 0; op2 = G_imm (P_imm 3) } ];
           }) );
    ( "host register index past its count",
      bytes (one { mov_imm with host = [ H_mov { dst = H_param 1; src = H_imm (P_imm 0) } ] }) );
    ( "host immediate index past its count",
      bytes (one { mov_imm with host = [ H_mov { dst = H_param 0; src = H_imm (P_imm 1) } ] }) );
    ("require_distinct index past its count", bytes (one { mov_reg with require_distinct = [ (0, 2) ] }));
    ( "shifted immediate in a guest pattern",
      bytes
        (one
           {
             mov_imm with
             guest =
               [ G_dp { ops = [ A.MOV ]; s = false; rd = 0; rn = 0; op2 = G_imm (P_imm_shl (0, 16)) } ];
           }) );
    ( "scratch register past the scratch set",
      bytes
        (one
           {
             mov_imm with
             host =
               [ H_mov { dst = H_scratch (Array.length R.Pinmap.scratch); src = H_imm (P_imm 0) } ];
           }) );
    ( "immediate in a register position",
      bytes (one { mov_imm with host = [ H_mov { dst = H_imm (P_imm 0); src = H_param 0 } ] }) );
    ("parameter count past the bound", bytes (one { mov_imm with n_imm_params = 17 }));
    ("duplicate rule id", bytes [ mov_imm; { mov_reg with id = mov_imm.id } ]);
    ("trailing bytes", bytes [ mov_imm ] ^ "\000");
  ]

let test_serialize_forgery bytes () =
  match R.Serialize.load bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a forged rule set loaded"

(* A file round trip goes through the crash-atomic writer: it leaves
   the file and nothing else, and a file that is not there is an
   [Error], not an exception. *)
let test_serialize_file_roundtrip () =
  let dir = Filename.temp_file "repro-rules" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "rules.bin" in
  let rs = Lazy.force ruleset in
  R.Serialize.save_file rs path;
  let listed = Sys.readdir dir in
  let back = R.Serialize.load_file path in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) listed;
  Sys.rmdir dir;
  Alcotest.(check (array string)) "only the file is left" [| "rules.bin" |] listed;
  (match back with
  | Ok rs' -> Alcotest.(check bool) "same rules" true (Ruleset.rules rs = Ruleset.rules rs')
  | Error e -> Alcotest.failf "load_file failed: %s" e);
  match R.Serialize.load_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a missing file loaded"

(* The depot's compatibility key: over every builtin rule's shape
   (ids and names blanked) and single-field edits of it, two rules
   share a digest exactly when they save to the same bytes. *)
let test_serialize_digest () =
  let rs = Lazy.force ruleset in
  Alcotest.(check int) "reloaded set keeps its digest" (R.Serialize.digest rs)
    (R.Serialize.digest (load_exn (R.Serialize.save rs)));
  let edits (r : Rule.t) =
    let r = { r with Rule.id = 0; name = "r" } in
    [
      r;
      { r with id = 1 };
      { r with name = "s" };
      { r with source = `Learned "x" };
      { r with guest = List.rev r.guest };
      { r with host = List.rev r.host };
      { r with host = List.tl r.host };
      { r with n_reg_params = r.n_reg_params + 1 };
      { r with n_imm_params = r.n_imm_params + 1 };
      { r with flags = { r.flags with guest_writes = not r.flags.guest_writes } };
      { r with flags = { r.flags with host_clobbers = not r.flags.host_clobbers } };
      {
        r with
        flags =
          {
            r.flags with
            convention =
              (match r.flags.convention with
              | Some Flagconv.Canonical -> None
              | _ -> Some Flagconv.Canonical);
          };
      };
      { r with carry_in = (match r.carry_in with None -> Some `Direct | _ -> None) };
      { r with require_distinct = (0, 1) :: r.require_distinct };
    ]
  in
  let pool =
    List.concat_map edits (Lazy.force rules)
    |> List.map (fun r ->
           let rs = Ruleset.of_list [ r ] in
           (R.Serialize.save rs, R.Serialize.digest rs))
  in
  List.iter
    (fun (bytes, d) ->
      List.iter
        (fun (bytes', d') ->
          if (bytes = bytes') <> (d = d') then
            Alcotest.failf "%s bytes but %s digests:\n%S\n%S"
              (if bytes = bytes' then "equal" else "different")
              (if d = d' then "equal" else "different")
              bytes bytes')
        pool)
    pool

let serialize_suite =
  ( "rules.serialize",
    [
      Alcotest.test_case "rule roundtrip" `Quick test_serialize_roundtrip_builtin;
      Alcotest.test_case "ruleset save/load" `Quick test_serialize_ruleset_file;
      Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
      Alcotest.test_case "digest follows the saved text" `Quick test_serialize_digest;
      Alcotest.test_case "a text rule file is not this format" `Quick test_serialize_old_text;
      Alcotest.test_case "file round trip, atomic, missing file" `Quick
        test_serialize_file_roundtrip;
    ]
    @ List.map
        (fun (name, bytes) ->
          Alcotest.test_case ("refuses " ^ name) `Quick (test_serialize_forgery bytes))
        forgeries )

let suite = suite @ [ serialize_suite ]
