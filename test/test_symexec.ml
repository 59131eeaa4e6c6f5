open Repro_common
module S = Repro_symexec
module Term = S.Term
module A = Repro_arm.Insn
open Repro_arm

(* --- term language --- *)

let test_normalize_identities () =
  let open Term in
  let x = var "x" in
  let checks =
    [
      (add x (const 0), x);
      (bin Sub x (const 0), x);
      (bin Mul x (const 1), x);
      (bin And x (const 0xFFFFFFFF), x);
      (bin Xor x x, const 0);
      (bin Sub x x, const 0);
      (bin Or x x, x);
      (lnot (lnot x), x);
      (add (add x (const 3)) (const 4), add x (const 7));
      (ite (const 1) x (const 9), x);
      (ite (const 0) x (const 9), const 9);
    ]
  in
  List.iter
    (fun (a, b) ->
      if not (Term.equal a b) then
        Alcotest.failf "%a should normalize to %a" Term.pp a Term.pp b)
    checks

let prop_normalize_preserves_eval =
  (* random small terms: normalization must not change semantics *)
  let gen_term =
    let open QCheck.Gen in
    sized_size (int_range 1 12) @@ fix (fun self n ->
        if n <= 1 then
          oneof
            [ map (fun v -> Term.var (Printf.sprintf "v%d" v)) (int_range 0 3);
              map Term.const (int_range 0 0xFFFF) ]
        else
          let sub = self (n / 2) in
          oneof
            [
              (let* op =
                 oneofl
                   Term.[ Add; Sub; Mul; And; Or; Xor; Shl; Shr; Sar; Ror; Ltu; Lts; Eq ]
               in
               let* a = sub in
               let* b = sub in
               return (Term.bin op a b));
              map Term.lnot sub;
              (let* c = sub in
               let* a = sub in
               let* b = sub in
               return (Term.ite c a b));
            ])
  in
  QCheck.Test.make ~count:500 ~name:"normalize preserves evaluation"
    (QCheck.make ~print:(Format.asprintf "%a" Term.pp) gen_term)
    (fun t ->
      let prng = Prng.create ~seed:7 in
      let env = Array.init 4 (fun _ -> Prng.word prng) in
      let lookup v = env.(int_of_string (String.sub v 1 1)) in
      Word32.mask (Term.eval lookup t) = Word32.mask (Term.eval lookup (Term.normalize t)))

(* --- the frontend's IR, evaluated symbolically, vs the interpreter --- *)

let prop_sym_ir_matches_interp =
  QCheck.Test.make ~count:300
    ~name:"frontend IR evaluated symbolically = interpreter, conditions included"
    (Gen.arbitrary_plain_block 8)
    (fun insns ->
      (* no pc access and registers restricted to r0-r12 by the
         generator; conditional instructions keep their condition, so
         the frontend's guards are checked too *)
      let insns =
        (* [clz] lowers to a helper call, which the evaluator rejects *)
        List.filter (fun i -> match i.Insn.op with Insn.Clz _ -> false | _ -> true) insns
      in
      let ctx =
        Repro_tcg.Frontend.create ~alloc_direct:(fun _ -> 0) ~alloc_indirect:(fun () -> 0) ()
      in
      List.iteri
        (fun i insn -> ignore (Repro_tcg.Frontend.translate_insn ctx ~pc:(4 * i) insn : bool))
        insns;
      let sym = S.Sym_ir.exec (Repro_tcg.Frontend.ops ctx) in
      let prng = Prng.create ~seed:99 in
      let init = Array.init 16 (fun _ -> Prng.word prng) in
      let n0 = Prng.bool prng and z0 = Prng.bool prng in
      let c0 = Prng.bool prng and v0 = Prng.bool prng in
      let cpu = Cpu.create () in
      Array.iteri (fun r v -> if r < 15 then Cpu.set_reg cpu r v) init;
      Cpu.set_flags cpu { Cond.n = n0; z = z0; c = c0; v = v0 };
      let _buf, mem = Mem.flat ~size:64 in
      List.iter
        (fun insn ->
          match Interp.execute_insn cpu mem insn with
          | Interp.Stepped -> ()
          | _ -> Alcotest.fail "interp failed")
        insns;
      let lookup v =
        match v with
        | "n" -> if n0 then 1 else 0
        | "z" -> if z0 then 1 else 0
        | "c" -> if c0 then 1 else 0
        | "v" -> if v0 then 1 else 0
        | _ -> init.(int_of_string (String.sub v 1 (String.length v - 1)))
      in
      let ok = ref true in
      for r = 0 to 12 do
        if Word32.mask (Term.eval lookup sym.S.Sym_ir.regs.(r)) <> Cpu.get_reg cpu r then
          ok := false
      done;
      let f = Cpu.get_flags cpu in
      let flag t b = Word32.mask (Term.eval lookup t) = if b then 1 else 0 in
      !ok
      && flag sym.S.Sym_ir.n f.Cond.n
      && flag sym.S.Sym_ir.z f.Cond.z
      && flag sym.S.Sym_ir.c f.Cond.c
      && flag sym.S.Sym_ir.v f.Cond.v)

(* --- equivalence checker --- *)

let test_equiv_basics () =
  let open Term in
  let x = var "x" and y = var "y" in
  Alcotest.(check bool) "commutative add proved" true
    (S.Equiv.holds (S.Equiv.check (add x y) (add y x)));
  Alcotest.(check bool) "xor-swap residual probable/proved" true
    (S.Equiv.holds
       (S.Equiv.check (bin Xor (bin Xor x y) y) x));
  (match S.Equiv.check (add x y) (bin Sub x y) with
  | S.Equiv.Refuted -> ()
  | v -> Alcotest.failf "add vs sub should refute, got %s" (S.Equiv.verdict_name v));
  match S.Equiv.check (bin Mul x (const 2)) (bin Shl x (const 1)) with
  | S.Equiv.Refuted -> Alcotest.fail "x*2 == x<<1 refuted"
  | _ -> ()

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "symexec.term",
      [
        Alcotest.test_case "normalization identities" `Quick test_normalize_identities;
        q prop_normalize_preserves_eval;
      ] );
    ("symexec.ir", [ q prop_sym_ir_matches_interp ]);
    ("symexec.equiv", [ Alcotest.test_case "basics" `Quick test_equiv_basics ]);
  ]
