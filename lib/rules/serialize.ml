module A = Repro_arm.Insn
module X = Repro_x86.Insn

(* ---------- a minimal s-expression reader/writer ---------- *)

type sexp = Atom of string | List of sexp list

let rec pp_sexp buf = function
  | Atom s ->
    if String.contains s ' ' || String.contains s '(' || s = "" then begin
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped s);
      Buffer.add_char buf '"'
    end
    else Buffer.add_string buf s
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ' ';
        pp_sexp buf item)
      items;
    Buffer.add_char buf ')'

let sexp_to_string s =
  let buf = Buffer.create 256 in
  pp_sexp buf s;
  Buffer.contents buf

exception Parse of string

let parse_sexp (src : string) : sexp =
  let n = String.length src in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n && (src.[!pos] = ' ' || src.[!pos] = '\n' || src.[!pos] = '\t') then begin
      incr pos;
      skip_ws ()
    end
  in
  let rec parse () =
    skip_ws ();
    if !pos >= n then raise (Parse "unexpected end of input")
    else if src.[!pos] = '(' then begin
      incr pos;
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        if !pos >= n then raise (Parse "unterminated list")
        else if src.[!pos] = ')' then incr pos
        else begin
          items := parse () :: !items;
          loop ()
        end
      in
      loop ();
      List (List.rev !items)
    end
    else if src.[!pos] = '"' then begin
      incr pos;
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then raise (Parse "unterminated string")
        else if src.[!pos] = '\\' && !pos + 1 < n then begin
          Buffer.add_char buf src.[!pos + 1];
          pos := !pos + 2;
          loop ()
        end
        else if src.[!pos] = '"' then incr pos
        else begin
          Buffer.add_char buf src.[!pos];
          incr pos;
          loop ()
        end
      in
      loop ();
      Atom (Buffer.contents buf)
    end
    else begin
      let start = !pos in
      while
        !pos < n
        && src.[!pos] <> ' ' && src.[!pos] <> ')' && src.[!pos] <> '(' && src.[!pos] <> '\n'
        && src.[!pos] <> '\t'
      do
        incr pos
      done;
      Atom (String.sub src start (!pos - start))
    end
  in
  let result = parse () in
  skip_ws ();
  result

(* ---------- writers ---------- *)

let int_atom i = Atom (string_of_int i)
let bool_atom b = Atom (if b then "true" else "false")

let pimm_sexp = function
  | Rule.P_imm i -> List [ Atom "p"; int_atom i ]
  | Rule.P_imm_shl (i, k) -> List [ Atom "pshl"; int_atom i; int_atom k ]
  | Rule.Fixed v -> List [ Atom "fix"; int_atom v ]

let shift_atom k = Atom (A.shift_kind_to_string k)

let gop2_sexp = function
  | Rule.G_imm pi -> List [ Atom "imm"; pimm_sexp pi ]
  | Rule.G_reg p -> List [ Atom "reg"; int_atom p ]
  | Rule.G_shift { rm; kind; amount } ->
    List [ Atom "shift"; int_atom rm; shift_atom kind; pimm_sexp amount ]
  | Rule.G_shift_reg { rm; kind; rs } ->
    List [ Atom "shiftreg"; int_atom rm; shift_atom kind; int_atom rs ]

let ginsn_sexp = function
  | Rule.G_dp { ops; s; rd; rn; op2 } ->
    List
      [
        Atom "dp";
        List (List.map (fun o -> Atom (A.dp_op_to_string o)) ops);
        bool_atom s;
        int_atom rd;
        int_atom rn;
        gop2_sexp op2;
      ]
  | Rule.G_mul { s; rd; rn; rm; acc } ->
    List
      ([ Atom "mul"; bool_atom s; int_atom rd; int_atom rn; int_atom rm ]
      @ match acc with Some a -> [ int_atom a ] | None -> [])
  | Rule.G_movw { rd; imm } -> List [ Atom "movw"; int_atom rd; pimm_sexp imm ]
  | Rule.G_movt { rd; imm } -> List [ Atom "movt"; int_atom rd; pimm_sexp imm ]

let hop_sexp = function
  | Rule.H_param i -> List [ Atom "param"; int_atom i ]
  | Rule.H_scratch k -> List [ Atom "scratch"; int_atom k ]
  | Rule.H_imm pi -> List [ Atom "imm"; pimm_sexp pi ]

let alu_name (o : X.alu_op) =
  match o with
  | X.Add -> "add"
  | X.Adc -> "adc"
  | X.Sub -> "sub"
  | X.Sbb -> "sbb"
  | X.And -> "and"
  | X.Or -> "or"
  | X.Xor -> "xor"
  | X.Cmp -> "cmp"
  | X.Test -> "test"

let shiftop_name (o : X.shift_op) =
  match o with X.Shl -> "shl" | X.Shr -> "shr" | X.Sar -> "sar" | X.Ror -> "ror"

let alu_atom o = Atom (alu_name o)
let shiftop_atom o = Atom (shiftop_name o)

let hinsn_sexp = function
  | Rule.H_mov { dst; src } -> List [ Atom "mov"; hop_sexp dst; hop_sexp src ]
  | Rule.H_lea2 { dst; a; b } -> List [ Atom "lea2"; hop_sexp dst; hop_sexp a; hop_sexp b ]
  | Rule.H_lea_imm { dst; a; imm } ->
    List [ Atom "leai"; hop_sexp dst; hop_sexp a; pimm_sexp imm ]
  | Rule.H_alu { op = `Matched; dst; src } ->
    List [ Atom "alu"; Atom "matched"; hop_sexp dst; hop_sexp src ]
  | Rule.H_alu { op = `Fixed o; dst; src } ->
    List [ Atom "alu"; alu_atom o; hop_sexp dst; hop_sexp src ]
  | Rule.H_shift { op; dst; amount } ->
    List [ Atom "shift"; shiftop_atom op; hop_sexp dst; pimm_sexp amount ]
  | Rule.H_shift_cl { op; dst; amount_src } ->
    List [ Atom "shiftcl"; shiftop_atom op; hop_sexp dst; hop_sexp amount_src ]
  | Rule.H_not o -> List [ Atom "not"; hop_sexp o ]
  | Rule.H_neg o -> List [ Atom "neg"; hop_sexp o ]
  | Rule.H_imul { dst; src } -> List [ Atom "imul"; hop_sexp dst; hop_sexp src ]

let conv_atom (c : Flagconv.t) = Atom (Flagconv.name c)

let rule_sexp (r : Rule.t) =
  List
    [
      Atom "rule";
      List [ Atom "id"; int_atom r.Rule.id ];
      List [ Atom "name"; Atom r.Rule.name ];
      List
        [
          Atom "source";
          (match r.Rule.source with
          | `Builtin -> Atom "builtin"
          | `Learned s -> List [ Atom "learned"; Atom s ]);
        ];
      List (Atom "guest" :: List.map ginsn_sexp r.Rule.guest);
      List (Atom "host" :: List.map hinsn_sexp r.Rule.host);
      List [ Atom "regs"; int_atom r.Rule.n_reg_params ];
      List [ Atom "imms"; int_atom r.Rule.n_imm_params ];
      List
        [
          Atom "flags";
          bool_atom r.Rule.flags.Rule.guest_writes;
          bool_atom r.Rule.flags.Rule.host_clobbers;
          (match r.Rule.flags.Rule.convention with
          | None -> Atom "none"
          | Some c -> conv_atom c);
        ];
      List
        [
          Atom "carry";
          (match r.Rule.carry_in with
          | None -> Atom "none"
          | Some `Direct -> Atom "direct"
          | Some `Inverted -> Atom "inverted");
        ];
      List
        (Atom "distinct"
        :: List.map (fun (p, q) -> List [ int_atom p; int_atom q ]) r.Rule.require_distinct
        );
    ]

let rule_to_string r = sexp_to_string (rule_sexp r)

(* ---------- digest ---------- *)

(* FNV-1a with one step per integer, over a prefix-free walk of every
   field [rule_sexp] writes: rulesets that save to the same text have
   the same digest, and no text is built. Enumerations enter by the
   names [save] writes. The record patterns list every field, so a
   field added to {!Rule.t} does not compile here until it is hashed. *)
let ( % ) h x = (h lxor (x land 0xffffffff)) * 0x01000193 land 0xffffffff
let d_str h s = String.fold_left (fun h c -> h % Char.code c) (h % String.length s) s
let d_list f h l = List.fold_left f (h % List.length l) l
let d_bool h b = h % Bool.to_int b

let d_pimm h = function
  | Rule.P_imm i -> h % 0 % i
  | Rule.P_imm_shl (i, k) -> h % 1 % i % k
  | Rule.Fixed v -> h % 2 % v

let d_gop2 h = function
  | Rule.G_imm pi -> d_pimm (h % 0) pi
  | Rule.G_reg p -> h % 1 % p
  | Rule.G_shift { rm; kind; amount } ->
    d_pimm (d_str (h % 2 % rm) (A.shift_kind_to_string kind)) amount
  | Rule.G_shift_reg { rm; kind; rs } ->
    d_str (h % 3 % rm) (A.shift_kind_to_string kind) % rs

let d_ginsn h = function
  | Rule.G_dp { ops; s; rd; rn; op2 } ->
    let h = d_list (fun h o -> d_str h (A.dp_op_to_string o)) (h % 0) ops in
    d_gop2 (d_bool h s % rd % rn) op2
  | Rule.G_mul { s; rd; rn; rm; acc } -> (
    let h = d_bool (h % 1) s % rd % rn % rm in
    match acc with None -> h % 0 | Some a -> h % 1 % a)
  | Rule.G_movw { rd; imm } -> d_pimm (h % 2 % rd) imm
  | Rule.G_movt { rd; imm } -> d_pimm (h % 3 % rd) imm

let d_hop h = function
  | Rule.H_param i -> h % 0 % i
  | Rule.H_scratch k -> h % 1 % k
  | Rule.H_imm pi -> d_pimm (h % 2) pi

let d_hinsn h = function
  | Rule.H_mov { dst; src } -> d_hop (d_hop (h % 0) dst) src
  | Rule.H_lea2 { dst; a; b } -> d_hop (d_hop (d_hop (h % 1) dst) a) b
  | Rule.H_lea_imm { dst; a; imm } -> d_pimm (d_hop (d_hop (h % 2) dst) a) imm
  | Rule.H_alu { op; dst; src } ->
    let h =
      match op with `Matched -> h % 3 % 0 | `Fixed o -> d_str (h % 3 % 1) (alu_name o)
    in
    d_hop (d_hop h dst) src
  | Rule.H_shift { op; dst; amount } ->
    d_pimm (d_hop (d_str (h % 4) (shiftop_name op)) dst) amount
  | Rule.H_shift_cl { op; dst; amount_src } ->
    d_hop (d_hop (d_str (h % 5) (shiftop_name op)) dst) amount_src
  | Rule.H_not o -> d_hop (h % 6) o
  | Rule.H_neg o -> d_hop (h % 7) o
  | Rule.H_imul { dst; src } -> d_hop (d_hop (h % 8) dst) src

let d_rule h
    {
      Rule.id;
      name;
      source;
      guest;
      host;
      n_reg_params;
      n_imm_params;
      flags = { Rule.guest_writes; host_clobbers; convention };
      carry_in;
      require_distinct;
    } =
  let h = d_str (h % id) name in
  let h = match source with `Builtin -> h % 0 | `Learned s -> d_str (h % 1) s in
  let h = d_list d_hinsn (d_list d_ginsn h guest) host in
  let h = d_bool (d_bool (h % n_reg_params % n_imm_params) guest_writes) host_clobbers in
  let h =
    match convention with None -> h % 0 | Some c -> d_str (h % 1) (Flagconv.name c)
  in
  let h = h % match carry_in with None -> 0 | Some `Direct -> 1 | Some `Inverted -> 2 in
  d_list (fun h (p, q) -> h % p % q) h require_distinct

let digest ruleset = d_list d_rule 0x811c9dc5 (Ruleset.rules ruleset)

(* ---------- readers ---------- *)

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let as_int = function Atom s -> int_of_string s | List _ -> fail "expected int"
let as_bool = function
  | Atom "true" -> true
  | Atom "false" -> false
  | _ -> fail "expected bool"

let dp_of_name s =
  let rec find = function
    | [] -> fail "unknown dp op %s" s
    | o :: tl -> if A.dp_op_to_string o = s then o else find tl
  in
  find
    A.[ AND; EOR; SUB; RSB; ADD; ADC; SBC; RSC; TST; TEQ; CMP; CMN; ORR; MOV; BIC; MVN ]

let shift_of_name = function
  | "lsl" -> A.LSL
  | "lsr" -> A.LSR
  | "asr" -> A.ASR
  | "ror" -> A.ROR
  | s -> fail "unknown shift %s" s

let pimm_of = function
  | List [ Atom "p"; i ] -> Rule.P_imm (as_int i)
  | List [ Atom "pshl"; i; k ] -> Rule.P_imm_shl (as_int i, as_int k)
  | List [ Atom "fix"; v ] -> Rule.Fixed (as_int v)
  | _ -> fail "bad immediate"

let gop2_of = function
  | List [ Atom "imm"; pi ] -> Rule.G_imm (pimm_of pi)
  | List [ Atom "reg"; p ] -> Rule.G_reg (as_int p)
  | List [ Atom "shift"; rm; Atom k; amount ] ->
    Rule.G_shift { rm = as_int rm; kind = shift_of_name k; amount = pimm_of amount }
  | List [ Atom "shiftreg"; rm; Atom k; rs ] ->
    Rule.G_shift_reg { rm = as_int rm; kind = shift_of_name k; rs = as_int rs }
  | _ -> fail "bad guest operand2"

let ginsn_of = function
  | List [ Atom "dp"; List ops; s; rd; rn; op2 ] ->
    Rule.G_dp
      {
        ops = List.map (function Atom o -> dp_of_name o | _ -> fail "bad op") ops;
        s = as_bool s;
        rd = as_int rd;
        rn = as_int rn;
        op2 = gop2_of op2;
      }
  | List (Atom "mul" :: s :: rd :: rn :: rm :: rest) ->
    Rule.G_mul
      {
        s = as_bool s;
        rd = as_int rd;
        rn = as_int rn;
        rm = as_int rm;
        acc = (match rest with [ a ] -> Some (as_int a) | _ -> None);
      }
  | List [ Atom "movw"; rd; imm ] -> Rule.G_movw { rd = as_int rd; imm = pimm_of imm }
  | List [ Atom "movt"; rd; imm ] -> Rule.G_movt { rd = as_int rd; imm = pimm_of imm }
  | _ -> fail "bad guest instruction"

let hop_of = function
  | List [ Atom "param"; i ] -> Rule.H_param (as_int i)
  | List [ Atom "scratch"; k ] -> Rule.H_scratch (as_int k)
  | List [ Atom "imm"; pi ] -> Rule.H_imm (pimm_of pi)
  | _ -> fail "bad host operand"

let alu_of_name = function
  | "add" -> X.Add
  | "adc" -> X.Adc
  | "sub" -> X.Sub
  | "sbb" -> X.Sbb
  | "and" -> X.And
  | "or" -> X.Or
  | "xor" -> X.Xor
  | "cmp" -> X.Cmp
  | "test" -> X.Test
  | s -> fail "unknown alu op %s" s

let shiftop_of_name = function
  | "shl" -> X.Shl
  | "shr" -> X.Shr
  | "sar" -> X.Sar
  | "ror" -> X.Ror
  | s -> fail "unknown shift op %s" s

let hinsn_of = function
  | List [ Atom "mov"; dst; src ] -> Rule.H_mov { dst = hop_of dst; src = hop_of src }
  | List [ Atom "lea2"; dst; a; b ] ->
    Rule.H_lea2 { dst = hop_of dst; a = hop_of a; b = hop_of b }
  | List [ Atom "leai"; dst; a; imm ] ->
    Rule.H_lea_imm { dst = hop_of dst; a = hop_of a; imm = pimm_of imm }
  | List [ Atom "alu"; Atom "matched"; dst; src ] ->
    Rule.H_alu { op = `Matched; dst = hop_of dst; src = hop_of src }
  | List [ Atom "alu"; Atom o; dst; src ] ->
    Rule.H_alu { op = `Fixed (alu_of_name o); dst = hop_of dst; src = hop_of src }
  | List [ Atom "shift"; Atom o; dst; amount ] ->
    Rule.H_shift { op = shiftop_of_name o; dst = hop_of dst; amount = pimm_of amount }
  | List [ Atom "shiftcl"; Atom o; dst; src ] ->
    Rule.H_shift_cl { op = shiftop_of_name o; dst = hop_of dst; amount_src = hop_of src }
  | List [ Atom "not"; o ] -> Rule.H_not (hop_of o)
  | List [ Atom "neg"; o ] -> Rule.H_neg (hop_of o)
  | List [ Atom "imul"; dst; src ] -> Rule.H_imul { dst = hop_of dst; src = hop_of src }
  | _ -> fail "bad host instruction"

let conv_of_name = function
  | "add" -> Flagconv.Add_like
  | "sub" -> Flagconv.Sub_like
  | "logic" -> Flagconv.Logic_like
  | "canonical" -> Flagconv.Canonical
  | s -> fail "unknown convention %s" s

let field name fields =
  match
    List.find_opt
      (function List (Atom n :: _) -> n = name | _ -> false)
      fields
  with
  | Some (List (_ :: rest)) -> rest
  | _ -> fail "missing field %s" name

let rule_of_sexp = function
  | List (Atom "rule" :: fields) ->
    let id = match field "id" fields with [ i ] -> as_int i | _ -> fail "id" in
    let name =
      match field "name" fields with [ Atom s ] -> s | _ -> fail "name"
    in
    let source =
      match field "source" fields with
      | [ Atom "builtin" ] -> `Builtin
      | [ List [ Atom "learned"; Atom s ] ] -> `Learned s
      | _ -> fail "source"
    in
    let guest = List.map ginsn_of (field "guest" fields) in
    let host = List.map hinsn_of (field "host" fields) in
    let n_reg_params =
      match field "regs" fields with [ i ] -> as_int i | _ -> fail "regs"
    in
    let n_imm_params =
      match field "imms" fields with [ i ] -> as_int i | _ -> fail "imms"
    in
    let flags =
      match field "flags" fields with
      | [ w; c; conv ] ->
        {
          Rule.guest_writes = as_bool w;
          host_clobbers = as_bool c;
          convention =
            (match conv with
            | Atom "none" -> None
            | Atom s -> Some (conv_of_name s)
            | List _ -> fail "convention");
        }
      | _ -> fail "flags"
    in
    let carry_in =
      match field "carry" fields with
      | [ Atom "none" ] -> None
      | [ Atom "direct" ] -> Some `Direct
      | [ Atom "inverted" ] -> Some `Inverted
      | _ -> fail "carry"
    in
    let require_distinct =
      List.map
        (function List [ p; q ] -> (as_int p, as_int q) | _ -> fail "distinct")
        (field "distinct" fields)
    in
    {
      Rule.id;
      name;
      guest;
      host;
      n_reg_params;
      n_imm_params;
      flags;
      carry_in;
      require_distinct;
      source;
    }
  | _ -> fail "expected (rule ...)"

let rule_of_string s =
  match rule_of_sexp (parse_sexp s) with
  | r -> Ok r
  | exception Parse msg -> Error msg
  | exception Failure msg -> Error msg

let save ruleset =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "; repro-dbt rule set (one rule per line)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (rule_to_string r);
      Buffer.add_char buf '\n')
    (Ruleset.rules ruleset);
  Buffer.contents buf

let load text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (Ruleset.of_list (List.rev acc))
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = ';' then go acc rest
      else (
        match rule_of_string line with
        | Ok r -> go (r :: acc) rest
        | Error e -> Error (Printf.sprintf "%s (in %s)" e line))
  in
  go [] lines

let save_file ruleset path =
  let oc = open_out path in
  output_string oc (save ruleset);
  close_out oc

let load_file path = load (In_channel.with_open_bin path In_channel.input_all)
