open Repro_minic.Ast

(* Globally unique line numbers (nested blocks must not collide with
   outer ones, or the extractor would pair unrelated fragments). The
   numbering state lives inside this one module-initialisation
   expression: it runs exactly once, before any domain is spawned, and
   no mutable state escapes into the built corpus. *)
let programs =
  let counter = ref 0 in
  let stmts body =
    List.map
      (fun b ->
        incr counter;
        { line = !counter; body = b })
      body
  in
  let p name locals body = { name; locals; body = stmts body } in
  [
    p "arith_basic" [ "a"; "b"; "c" ]
      [
        Assign ("a", i 7);
        Assign ("b", i 9);
        Assign ("c", v "a" + v "b");
        Assign ("c", v "c" - v "a");
        Assign ("c", v "c" + i 3);
        Assign ("a", v "b" - i 4);
        Assign ("b", v "b" + v "b");
      ];
    p "logic_ops" [ "x"; "y"; "z" ]
      [
        Assign ("x", i 0xF0);
        Assign ("y", i 0x3C);
        Assign ("z", v "x" &&& v "y");
        Assign ("z", v "x" ||| v "y");
        Assign ("z", v "x" ^^^ v "y");
        Assign ("x", v "x" &&& i 15);
        Assign ("y", v "y" ||| i 0xF0);
        Assign ("z", v "z" ^^^ i 1);
      ];
    p "shifts" [ "x"; "y" ]
      [
        Assign ("x", i 0x1234);
        Assign ("y", v "x" <<< 4);
        Assign ("y", v "x" >>> 3);
        Assign ("y", Binop (Asr, v "x", i 2));
        Assign ("x", (v "x" <<< 1) + v "y");
        Assign ("y", (v "x" >>> 8) &&& i 0xFF);
      ];
    p "multiply" [ "a"; "b"; "c" ]
      [
        Assign ("a", i 6);
        Assign ("b", i 7);
        Assign ("c", v "a" * v "b");
        Assign ("c", (v "a" * v "b") + v "c");
        Assign ("a", v "c" * v "c");
      ];
    p "unary" [ "m"; "n" ]
      [
        Assign ("m", i 25);
        Assign ("n", Unop (Neg, v "m"));
        Assign ("n", Unop (Not, v "m"));
        Assign ("m", Unop (Neg, v "n") + i 1);
        Assign ("n", Unop (Not, v "m") &&& i 0xFF);
      ];
    p "big_constants" [ "k"; "l" ]
      [
        Assign ("k", i 0x12345678);
        Assign ("l", i 0xDEAD0000);
        Assign ("k", v "k" + i 0x10000);
        Assign ("l", v "l" ||| i 0xBE);
        Assign ("k", v "k" ^^^ v "l");
      ];
    p "aliasing" [ "a"; "b" ]
      [
        Assign ("a", i 5);
        Assign ("b", i 11);
        Assign ("a", v "a" + v "b");
        Assign ("a", v "a" + v "a");
        Assign ("b", v "b" - v "b");
        Assign ("a", v "a" &&& v "a");
      ];
    p "compare_signed" [ "a"; "b"; "r" ]
      [
        Assign ("a", i 3);
        Assign ("b", i 8);
        Assign ("r", i 0);
        If (Rel (Slt, v "a", v "b"), stmts [ Assign ("r", v "r" + i 1) ], []);
        If (Rel (Sge, v "a", v "b"), stmts [ Assign ("r", v "r" + i 2) ],
            stmts [ Assign ("r", v "r" + i 4) ]);
        If (Rel (Sgt, v "b", i 5), stmts [ Assign ("r", v "r" + i 8) ], []);
        If (Rel (Sle, v "a", i 3), stmts [ Assign ("r", v "r" + i 16) ], []);
      ];
    p "compare_unsigned" [ "a"; "b"; "r" ]
      [
        Assign ("a", i 0xF0000000);
        Assign ("b", i 16);
        Assign ("r", i 0);
        If (Rel (Ult, v "b", v "a"), stmts [ Assign ("r", v "r" + i 1) ], []);
        If (Rel (Uge, v "a", v "b"), stmts [ Assign ("r", v "r" + i 2) ], []);
        If (Rel (Eq, v "b", i 16), stmts [ Assign ("r", v "r" + i 4) ], []);
        If (Rel (Ne, v "a", v "b"), stmts [ Assign ("r", v "r" + i 8) ], []);
      ];
    p "while_sum" [ "n"; "acc" ]
      [
        Assign ("n", i 50);
        Assign ("acc", i 0);
        While
          ( Rel (Ne, v "n", i 0),
            stmts [ Assign ("acc", v "acc" + v "n"); Assign ("n", v "n" - i 1) ] );
      ];
    p "while_bits" [ "x"; "count" ]
      [
        Assign ("x", i 0xB7);
        Assign ("count", i 0);
        While
          ( Rel (Ne, v "x", i 0),
            stmts
              [
                Assign ("count", v "count" + (v "x" &&& i 1));
                Assign ("x", v "x" >>> 1);
              ] );
      ];
    p "nested_expr" [ "a"; "b"; "c"; "d" ]
      [
        Assign ("a", i 3);
        Assign ("b", i 4);
        Assign ("c", ((v "a" + v "b") * (v "a" - i 1)) + (v "b" <<< 2));
        Assign ("d", (v "c" &&& i 0xFC) ||| (v "a" ^^^ v "b"));
        Assign ("c", (v "c" >>> 2) * (v "d" + i 1));
      ];
    p "fib" [ "n"; "a"; "b"; "t" ]
      [
        Assign ("n", i 15);
        Assign ("a", i 0);
        Assign ("b", i 1);
        While
          ( Rel (Sgt, v "n", i 0),
            stmts
              [
                Assign ("t", v "a" + v "b");
                Assign ("a", v "b");
                Assign ("b", v "t");
                Assign ("n", v "n" - i 1);
              ] );
      ];
    p "gcd" [ "a"; "b"; "t" ]
      [
        Assign ("a", i 1071);
        Assign ("b", i 462);
        While
          ( Rel (Ne, v "b", i 0),
            stmts
              [
                (* a mod b via repeated subtraction (no division) *)
                While (Rel (Uge, v "a", v "b"), stmts [ Assign ("a", v "a" - v "b") ]);
                Assign ("t", v "a");
                Assign ("a", v "b");
                Assign ("b", v "t");
              ] );
      ];
    p "fused_shifts" [ "a"; "b"; "c" ]
      [
        Assign ("a", i 0x1234);
        Assign ("b", i 3);
        Assign ("c", v "a" + (v "b" <<< 4));
        Assign ("c", v "c" - (v "a" >>> 2));
        Assign ("c", v "c" ^^^ (v "b" <<< 7));
        Assign ("a", v "c" &&& (v "a" >>> 1));
        Assign ("b", v "b" ||| (v "c" <<< 2));
        Assign ("c", v "c" + Binop (Asr, v "a", i 3));
      ];
    p "address_arith" [ "base"; "idx"; "p" ]
      [
        Assign ("base", i 0x4000);
        Assign ("idx", i 12);
        Assign ("p", v "base" + (v "idx" <<< 2));
        Assign ("p", v "p" + i 4);
        Assign ("idx", v "idx" + i 1);
        Assign ("p", v "base" + (v "idx" <<< 2));
      ];
    p "mix_checksum" [ "h"; "x"; "n" ]
      [
        Assign ("h", i 0x811C);
        Assign ("x", i 0xABCD);
        Assign ("n", i 20);
        While
          ( Rel (Ne, v "n", i 0),
            stmts
              [
                Assign ("h", v "h" ^^^ v "x");
                Assign ("h", v "h" * i 31);
                Assign ("x", (v "x" <<< 1) ||| (v "x" >>> 31));
                Assign ("n", v "n" - i 1);
              ] );
      ];
    p "variable_shifts" [ "x"; "k"; "y" ]
      [
        Assign ("x", i 0x8765);
        Assign ("k", i 5);
        Assign ("y", Binop (Shl, v "x", v "k"));
        Assign ("y", v "y" + Binop (Shr, v "x", v "k"));
        Assign ("k", v "k" + i 7);
        Assign ("y", v "y" ^^^ Binop (Asr, v "x", v "k"));
        Assign ("x", Binop (Shl, v "y", v "k") ||| i 1);
      ];
    p "bit_clear" [ "flags"; "mask"; "r" ]
      [
        Assign ("flags", i 0xFF37);
        Assign ("mask", i 0x0F10);
        Assign ("r", v "flags" &&& Unop (Not, v "mask"));
        Assign ("r", v "r" &&& Unop (Not, i 3));
        Assign ("flags", Unop (Not, v "r") ||| v "mask");
      ];
    p "popcount_kernighan" [ "x"; "n" ]
      [
        Assign ("x", i 0xDEAD);
        Assign ("n", i 0);
        While
          ( Rel (Ne, v "x", i 0),
            stmts [ Assign ("x", v "x" &&& (v "x" - i 1)); Assign ("n", v "n" + i 1) ] );
      ];
    p "udiv_shift_sub" [ "num"; "den"; "q"; "bit" ]
      [
        Assign ("num", i 1000);
        Assign ("den", i 7 <<< 4);
        Assign ("q", i 0);
        Assign ("bit", i 16);
        While
          ( Rel (Ne, v "bit", i 0),
            stmts
              [
                Assign ("q", v "q" <<< 1);
                If
                  ( Rel (Uge, v "num", v "den"),
                    stmts
                      [ Assign ("num", v "num" - v "den"); Assign ("q", v "q" ||| i 1) ],
                    [] );
                Assign ("den", v "den" >>> 1);
                Assign ("bit", v "bit" - i 1);
              ] );
      ];
    p "byte_pack" [ "a"; "b"; "w" ]
      [
        Assign ("a", i 0x1A2);
        Assign ("b", i 0x3C4);
        Assign ("w", (v "a" &&& i 0xFF) ||| ((v "b" &&& i 0xFF) <<< 8));
        Assign ("w", v "w" ||| ((v "a" >>> 8) <<< 16));
        Assign ("a", (v "w" >>> 8) &&& i 0xFF);
        Assign ("b", v "w" &&& i 0xFF00);
      ];
    p "abs_diff_clamp" [ "a"; "b"; "d" ]
      [
        Assign ("a", i 37);
        Assign ("b", i 91);
        If
          ( Rel (Sge, v "a", v "b"),
            stmts [ Assign ("d", v "a" - v "b") ],
            stmts [ Assign ("d", v "b" - v "a") ] );
        If (Rel (Sgt, v "d", i 32), stmts [ Assign ("d", i 32) ], []);
        Assign ("d", v "d" + (v "d" <<< 1));
      ];
  ]
