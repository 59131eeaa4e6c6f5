open Repro_common

let test_word32_basics () =
  Alcotest.(check int) "mask" 0x2345_6789 (Word32.mask 0x1_2345_6789);
  Alcotest.(check int) "add wrap" 0 (Word32.add 0xFFFF_FFFF 1);
  Alcotest.(check int) "sub wrap" 0xFFFF_FFFF (Word32.sub 0 1);
  Alcotest.(check int) "signed min" (-0x8000_0000) (Word32.signed 0x8000_0000);
  Alcotest.(check int) "sign extend byte" 0xFFFF_FF80 (Word32.sign_extend ~width:8 0x80);
  Alcotest.(check int) "extract" 0xB (Word32.extract 0xAB_C ~lo:4 ~len:4);
  Alcotest.(check int) "insert" 0xA5C (Word32.insert 0xABC ~lo:4 ~len:4 5);
  Alcotest.(check int) "ror" 0x8000_0000 (Word32.rotate_right 1 1);
  Alcotest.(check int) "asr sign" 0xFFFF_FFFF (Word32.shift_right_arith 0x8000_0000 31)

let prop_rotate_inverse =
  QCheck.Test.make ~count:500 ~name:"ror n then ror (32-n) is identity"
    QCheck.(pair int (int_range 1 31))
    (fun (w, n) ->
      let w = Word32.mask w in
      Word32.rotate_right (Word32.rotate_right w n) (32 - n) = w)

let prop_carry_borrow_duality =
  QCheck.Test.make ~count:500 ~name:"carry/borrow match wide arithmetic"
    QCheck.(pair int int)
    (fun (a, b) ->
      let a = Word32.mask a and b = Word32.mask b in
      Word32.carry_of_add a b ~carry_in:false = (a + b > 0xFFFF_FFFF)
      && Word32.borrow_of_sub a b ~borrow_in:false = (a < b))

let test_prng_determinism () =
  let a = Prng.of_string "bench" and b = Prng.of_string "bench" in
  let xs = List.init 20 (fun _ -> Prng.word a) in
  let ys = List.init 20 (fun _ -> Prng.word b) in
  Alcotest.(check (list int)) "same stream" xs ys;
  let c = Prng.of_string "other" in
  let zs = List.init 20 (fun _ -> Prng.word c) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_prng_bounds () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Prng.int p 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yyy"; "22" ] ] in
  Alcotest.(check bool) "contains rule" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  (* all non-empty lines same width *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2. (Table.geomean [ 1.; 4. ]);
  Alcotest.(check (float 1e-9)) "singleton" 3. (Table.geomean [ 3. ]);
  (match Table.geomean [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty must raise");
  match Table.geomean [ 1.; 0. ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive must raise"

(* Paged RAM against one flat byte array: random byte, halfword and
   word accesses, many at or across page boundaries, over three pages
   and a partial fourth; then a capture of it, restored into a fresh
   RAM. *)
let prop_ram_is_flat =
  let size = (3 * Pages.size) + 1024 in
  let access =
    QCheck.(
      triple (int_range 0 5)
        (oneof [ int_range 0 (size - 4); map (fun k -> (Pages.size * (1 + (k mod 3))) - 4 + (k / 3)) (int_range 0 23) ])
        int)
  in
  QCheck.Test.make ~count:300 ~name:"paged RAM reads and writes as flat bytes"
    QCheck.(list_of_size Gen.(int_range 1 60) access)
    (fun ops ->
      let ram = Ram.create size and flat = Bytes.make size '\000' in
      let flat_get a n =
        let v = ref 0 in
        for k = n - 1 downto 0 do
          v := (!v lsl 8) lor Char.code (Bytes.get flat (a + k))
        done;
        !v
      in
      let flat_set a n v =
        for k = 0 to n - 1 do
          Bytes.set flat (a + k) (Char.chr ((v lsr (8 * k)) land 0xFF))
        done
      in
      let ok =
        List.for_all
          (fun (op, a, v) ->
            match op with
            | 0 -> Ram.get8 ram a = flat_get a 1
            | 1 -> Ram.get16 ram a = flat_get a 2
            | 2 -> Ram.get32 ram a = flat_get a 4
            | 3 -> Ram.set8 ram a v; flat_set a 1 v; true
            | 4 -> Ram.set16 ram a v; flat_set a 2 v; true
            | _ -> Ram.set32 ram a v; flat_set a 4 v; true)
          ops
      in
      let copy = Ram.create size in
      Ram.restore copy (Ram.capture ram);
      ok
      && Ram.to_string ram = Bytes.to_string flat
      && Ram.to_string copy = Bytes.to_string flat
      && String.concat "" (Array.to_list (Ram.sync ram)) = Bytes.to_string flat)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "common",
      [
        Alcotest.test_case "word32 basics" `Quick test_word32_basics;
        q prop_rotate_inverse;
        q prop_carry_borrow_duality;
        q prop_ram_is_flat;
        Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
        Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
        Alcotest.test_case "table rendering" `Quick test_table_render;
        Alcotest.test_case "geomean" `Quick test_geomean;
      ] );
  ]
