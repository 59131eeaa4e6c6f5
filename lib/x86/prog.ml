type builder = {
  mutable rev_code : (Insn.t * Insn.tag) list;
  mutable next_label : int;
  mutable count : int;
}

let builder () = { rev_code = []; next_label = 0; count = 0 }

let is_pseudo = function
  | Insn.Label _ | Insn.Count _ -> true
  | Insn.Mov _ | Insn.Movzx8 _ | Insn.Movzx16 _ | Insn.Movsx8 _ | Insn.Movsx16 _
  | Insn.Lea _ | Insn.Alu _ | Insn.Neg _
  | Insn.Not _
  | Insn.Imul _ | Insn.Shift _ | Insn.Setcc _ | Insn.Cmovcc _ | Insn.Jcc _ | Insn.Jmp _
  | Insn.Savef _ | Insn.Loadf _ | Insn.Call_helper _ | Insn.Exit _ -> false

let emit b ?(tag = Insn.Tag_compute) insn =
  b.rev_code <- (insn, tag) :: b.rev_code;
  if not (is_pseudo insn) then b.count <- b.count + 1

let emit_all b ?tag insns = List.iter (fun i -> emit b ?tag i) insns

(* Rewrite the payload of the most recently emitted retirement
   counter. Used by the emitter's fallback path to re-attribute the
   current guest instruction (e.g. to the helper-assisted tier) after
   its [Count] has already been placed — patching the one emission
   site is drift-proof where mirroring the dispatch logic would not
   be. *)
let repatch_last_retire b f =
  let rec go acc = function
    | [] -> ()  (* no retirement emitted yet: nothing to re-attribute *)
    | (Insn.Count (Insn.Cnt_guest_insn attr), tag) :: tl ->
      b.rev_code <-
        List.rev_append acc ((Insn.Count (Insn.Cnt_guest_insn (f attr)), tag) :: tl)
    | hd :: tl -> go (hd :: acc) tl
  in
  go [] b.rev_code

let fresh_label b =
  let l = b.next_label in
  b.next_label <- l + 1;
  l

let length b = b.count

type t = Exec.program = private {
  code : Insn.t array;
  tags : Insn.tag array;
  mutable kernel : Exec.kernel;
}

let finalize b =
  let items = Array.of_list (List.rev b.rev_code) in
  Exec.compile ~code:(Array.map fst items) ~tags:(Array.map snd items)

let of_code ~code ~tags =
  if Array.length code <> Array.length tags then invalid_arg "Prog.of_code: length mismatch";
  Exec.compile ~code ~tags

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Label _ -> Format.fprintf ppf "%a@ " Insn.pp insn
      | _ -> Format.fprintf ppf "  %3d: %a@ " i Insn.pp insn)
    t.code;
  Format.fprintf ppf "@]"

let static_count t =
  Array.fold_left (fun acc i -> if is_pseudo i then acc else acc + 1) 0 t.code
