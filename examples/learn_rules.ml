(* The learning pipeline, end to end on one program: compile a mini-C
   source with both compilers, extract per-line fragment pairs, verify
   them symbolically, parameterize, and finally RUN the program under
   a DBT armed only with the rules just learned.

     dune exec examples/learn_rules.exe *)

open Repro_minic.Ast
module L = Repro_learn
module D = Repro_dbt
module T = Repro_tcg
module Minic = Repro_minic
module Stats = Repro_x86.Stats

let training =
  let s line body = { line; body } in
  {
    name = "demo";
    locals = [ "x"; "y"; "acc" ];
    body =
      [
        s 1 (Assign ("x", i 12));
        s 2 (Assign ("y", (v "x" <<< 2) + i 5));
        s 3 (Assign ("acc", i 0));
        s 4
          (While
             ( Rel (Ne, v "y", i 0),
               [
                 s 5 (Assign ("acc", v "acc" + (v "y" &&& i 7)));
                 s 6 (Assign ("y", v "y" - i 1));
               ] ));
      ];
  }

let () =
  Format.printf "training source:@.%a@.@." pp_program training;

  (* 1. extraction: same source, two compilers, line-paired fragments *)
  let candidates = L.Extract.of_program training in
  Format.printf "extracted %d candidate fragment pairs, e.g.:@.%a@.@."
    (List.length candidates) L.Extract.pp_candidate (List.hd candidates);

  (* 2+3. verification and parameterization *)
  let report = L.Learn.learn ~corpus:[ training ] () in
  Format.printf "%a@.@." L.Learn.pp_report report;
  List.iter (fun r -> Format.printf "%a@." Repro_rules.Rule.pp r) report.L.Learn.rules;

  (* 4. application: run the program under the freshly-learned rules *)
  let ruleset = L.Learn.ruleset report in
  let words = Minic.Codegen_arm.compile_runnable training ~halt_with:(Some "acc") in
  let sys = D.System.create ~ruleset (D.System.Rules D.Opt.full) in
  D.System.load_image sys 0 words;
  (match (D.System.run ~max_guest_insns:500_000 sys).T.Engine.reason with
  | `Halted acc -> Format.printf "@.guest computed acc = %d under the learned rules@." acc
  | `Insn_limit | `Livelock _ | `Deadline -> Format.printf "@.guest did not halt@.");
  let s = D.System.stats sys in
  Format.printf "host/guest expansion: %.2f@." (Stats.host_per_guest s);
  match sys.D.System.rule_translator with
  | Some tr ->
    let st = D.Translator_rule.state tr in
    Format.printf "rule-covered guest insns (static): %d, fallbacks: %d@."
      st.D.Translator_rule.rule_covered st.D.Translator_rule.fallback
  | None -> ()
