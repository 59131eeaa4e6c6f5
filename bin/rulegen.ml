(* Run the rule-learning pipeline over the mini-C corpus and dump the
   resulting parameterized rule set. *)

module L = Repro_learn
open Cmdliner

let run verbose show_rejects out =
  let report = L.Learn.learn () in
  Format.printf "%a@.@." L.Learn.pp_report report;
  (match out with
  | Some path ->
    let rs = L.Learn.full_ruleset report in
    Repro_rules.Serialize.save_file rs path;
    Format.printf "wrote %d rules (builtin and learned) to %s@.@."
      (Repro_rules.Ruleset.size rs) path
  | None -> ());
  List.iter
    (fun r ->
      Format.printf "%a@." Repro_rules.Rule.pp r;
      if verbose then
        Format.printf "  flags: writes=%b clobbers=%b%s%s@."
          r.Repro_rules.Rule.flags.Repro_rules.Rule.guest_writes
          r.Repro_rules.Rule.flags.Repro_rules.Rule.host_clobbers
          (match r.Repro_rules.Rule.flags.Repro_rules.Rule.convention with
          | Some c -> " conv=" ^ Repro_rules.Flagconv.name c
          | None -> "")
          (match r.Repro_rules.Rule.carry_in with
          | Some `Direct -> " carry-in=direct"
          | Some `Inverted -> " carry-in=inverted"
          | None -> ""))
    report.L.Learn.rules;
  if show_rejects then begin
    Format.printf "@.rejected candidates:@.";
    List.iter
      (fun (c, why) -> Format.printf "-- %s@.%a@." why L.Extract.pp_candidate c)
      report.L.Learn.rejected
  end

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show per-rule flag metadata.")

let rejects_arg =
  Arg.(value & flag & info [ "rejects" ] ~doc:"Show rejected candidate fragments.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the rule set to $(docv).")

let cmd =
  let doc = "learn translation rules from the mini-C corpus" in
  Cmd.v (Cmd.info "repro-rulegen" ~doc)
    Term.(const run $ verbose_arg $ rejects_arg $ out_arg)

let () = exit (Cmd.eval cmd)
