module A = Repro_arm.Insn
module Rule = Repro_rules.Rule
module Ruleset = Repro_rules.Ruleset

type report = {
  programs : int;
  candidates : int;
  verified : int;
  rules : Rule.t list;
  rejected : (Extract.candidate * string) list;
}

(* Structural rule key ignoring id/name/provenance, for dedup. *)
let key (r : Rule.t) =
  (r.Rule.guest, r.Rule.host, r.Rule.flags, r.Rule.carry_in, r.Rule.require_distinct)

(* ---------- opcode-class lumping ----------

   Two single-dp-insn rules whose host templates differ only in the
   ALU opcode corresponding to the guest opcode merge into one
   class rule with [`Matched]. *)

let lumpable_dp (r : Rule.t) =
  match r.Rule.guest with
  | [ Rule.G_dp { ops = [ op ]; s; rd; rn; op2 } ] -> (
    match Rule.host_alu_of_dp op with
    | Some host_op ->
      (* exactly one H_alu with that op in the template *)
      let hits =
        List.filter
          (fun h ->
            match h with Rule.H_alu { op = `Fixed o; _ } -> o = host_op | _ -> false)
          r.Rule.host
      in
      if List.length hits = 1 then Some (op, s, rd, rn, op2, host_op) else None
    | None -> None)
  | _ -> None

(* Template with the matched ALU op abstracted out. *)
let abstract_host host host_op =
  List.map
    (fun h ->
      match h with
      | Rule.H_alu { op = `Fixed o; dst; src } when o = host_op ->
        Rule.H_alu { op = `Matched; dst; src }
      | other -> other)
    host

let class_shape (r : Rule.t) =
  match lumpable_dp r with
  | None -> None
  | Some (op, s, rd, rn, op2, host_op) ->
    Some
      ( op,
        ( s,
          rd,
          rn,
          op2,
          abstract_host r.Rule.host host_op,
          r.Rule.flags.Rule.guest_writes,
          r.Rule.carry_in,
          r.Rule.require_distinct ) )

let lump rules =
  (* group by abstract shape *)
  let tbl = Hashtbl.create 64 in
  let passthrough = ref [] in
  List.iter
    (fun r ->
      match class_shape r with
      | None -> passthrough := r :: !passthrough
      | Some (op, shape) ->
        let bucket =
          match Hashtbl.find_opt tbl shape with
          | Some b -> b
          | None ->
            let b = ref [] in
            Hashtbl.replace tbl shape b;
            b
        in
        bucket := (op, r) :: !bucket)
    rules;
  let lumped =
    Hashtbl.fold
      (fun (s, rd, rn, op2, host, guest_writes, carry_in, distinct) bucket acc ->
        match !bucket with
        | [] -> acc
        | [ (_, r) ] -> r :: acc (* singleton: keep concrete *)
        | multi ->
          let ops = List.sort_uniq compare (List.map fst multi) in
          let _, sample = List.hd multi in
          let flags =
            if guest_writes then
              { Rule.guest_writes = true; host_clobbers = true; convention = None }
            else sample.Rule.flags
          in
          {
            sample with
            Rule.name = sample.Rule.name ^ "+class";
            guest =
              [ Rule.G_dp { ops; s; rd; rn; op2 } ];
            host;
            flags;
            carry_in;
            require_distinct = distinct;
          }
          :: acc)
      tbl []
  in
  List.rev !passthrough @ lumped

let learn ?(corpus = Corpus.programs) () =
  List.iter
    (fun p ->
      match Repro_minic.Ast.validate p with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "corpus program %s: %s" p.Repro_minic.Ast.name e))
    corpus;
  let next = ref 1000 in
  let next_id () =
    incr next;
    !next
  in
  let candidates = List.concat_map Extract.of_program corpus in
  let rejected = ref [] in
  let verified = ref 0 in
  let rules = ref [] in
  List.iter
    (fun (c : Extract.candidate) ->
      match Verify.check ~guest:c.Extract.guest ~host:c.Extract.host with
      | Error e -> rejected := (c, "verify: " ^ e) :: !rejected
      | Ok v -> (
        incr verified;
        match Parameterize.generalize c v ~next_id with
        | Error e -> rejected := (c, "parameterize: " ^ e) :: !rejected
        | Ok rule -> rules := rule :: !rules))
    candidates;
  (* dedup *)
  let seen = Hashtbl.create 64 in
  let unique =
    List.filter
      (fun r ->
        let k = key r in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      (List.rev !rules)
  in
  (* Renumber positionally from 1001: the ids handed out during
     generalization depend on how many candidates parameterized before
     each survivor, so two learners running concurrently (or a corpus
     tweak) would drift. After lumping, position in the final list is
     the only input — learned ids are a pure function of the builder,
     disjoint from the builtin range (which ends well below 1000). *)
  let final =
    List.mapi (fun i r -> { r with Rule.id = 1001 + i }) (lump unique)
  in
  {
    programs = List.length corpus;
    candidates = List.length candidates;
    verified = !verified;
    rules = final;
    rejected = List.rev !rejected;
  }

let ruleset report = Ruleset.of_list report.rules
let full_ruleset report = Ruleset.of_list (Repro_rules.Builtin.all () @ report.rules)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>learning report:@ programs    %d@ candidates  %d@ verified    %d@ rules       \
     %d (after lumping/dedup)@ rejected    %d@]"
    r.programs r.candidates r.verified (List.length r.rules) (List.length r.rejected)
