module P = Repro_perfscope
module Phase = P.Phase
module Histo = P.Histo
module Scope = P.Scope
module Flame = P.Flame
module A = P.Analysis
module T = Repro_tcg
module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Jsonx = Repro_observe.Jsonx
module Ledger = Repro_perfscope.Ledger
module Trace = Repro_observe.Trace

(* Performance-observatory tests: the histogram and flamegraph
   primitives, the Jsonx parser, the load-bearing scope invariants
   (exact phase partition of host_insns, observational purity,
   bit-reproducibility), and the analysis layer the regression gate
   stands on. *)

let kernel_image ?(target = 30_000) ?(timer = 5_000) () =
  let spec = W.find "gcc" in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  K.build ~timer_period:timer ~user_program:user ()

let make_sys ?scope mode image =
  let sys = D.System.create ?scope mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  sys

(* ---- histogram ------------------------------------------------------ *)

let test_histo_buckets () =
  for v = 0 to 7 do
    Alcotest.(check int) "small values are exact buckets" v (Histo.bucket_index v);
    Alcotest.(check int) "small lower bounds are identities" v (Histo.lower_bound v)
  done;
  (* every bucket's lower bound lands back in its own bucket, and the
     bounds strictly increase (checked clear of the sign bit) *)
  let prev = ref (-1) in
  for i = 0 to 399 do
    let lb = Histo.lower_bound i in
    Alcotest.(check bool) "lower bounds strictly increase" true (lb > !prev);
    prev := lb;
    Alcotest.(check int) "lower bound maps to its own bucket" i
      (Histo.bucket_index lb)
  done;
  (* arbitrary values are bracketed by their bucket's bounds *)
  List.iter
    (fun v ->
      let i = Histo.bucket_index v in
      Alcotest.(check bool) "lower bound <= value" true (Histo.lower_bound i <= v);
      Alcotest.(check bool) "value < next lower bound" true
        (v < Histo.lower_bound (i + 1)))
    [ 8; 9; 15; 16; 17; 100; 1_000; 12_345; 1 lsl 20; (1 lsl 40) + 123 ]

let test_histo_stats () =
  let h = Histo.create () in
  Alcotest.(check int) "empty percentile" 0 (Histo.percentile h 50.);
  Alcotest.(check int) "empty min" 0 (Histo.min_value h);
  for v = 0 to 7 do
    Histo.record h v
  done;
  Histo.record h (-5) (* clamps to 0 *);
  Alcotest.(check int) "count" 9 (Histo.count h);
  Alcotest.(check int) "sum" 28 (Histo.sum h);
  Alcotest.(check int) "min" 0 (Histo.min_value h);
  Alcotest.(check int) "max" 7 (Histo.max_value h);
  (* rank ceil(0.5 * 9) = 5, cumulative hits 5 in bucket 3 (two zeros) *)
  Alcotest.(check int) "p50" 3 (Histo.percentile h 50.);
  Alcotest.(check int) "p99" 7 (Histo.percentile h 99.);
  (* determinism: same recordings, byte-identical export *)
  let h2 = Histo.create () in
  for v = 0 to 7 do
    Histo.record h2 v
  done;
  Histo.record h2 (-5);
  Alcotest.(check string) "identical recordings export identically"
    (Histo.to_json h) (Histo.to_json h2)

(* ---- the Jsonx parser ----------------------------------------------- *)

let test_jsonx_parse () =
  let src =
    Jsonx.obj
      [
        ("i", Jsonx.int (-42));
        ("f", Jsonx.float 2.5);
        ("s", Jsonx.str "he\"llo\n");
        ("b", Jsonx.bool false);
        ("z", "null");
        ("l", Jsonx.arr [ Jsonx.int 1; Jsonx.int 2 ]);
      ]
  in
  let v = Jsonx.parse src in
  let get k = Option.get (Jsonx.member k v) in
  Alcotest.(check (option int)) "int field" (Some (-42)) (Jsonx.to_int (get "i"));
  Alcotest.(check (option (float 1e-9))) "float field" (Some 2.5)
    (Jsonx.to_float (get "f"));
  Alcotest.(check (option string)) "string field" (Some "he\"llo\n")
    (Jsonx.to_string (get "s"));
  Alcotest.(check (option bool)) "bool field" (Some false)
    (Jsonx.to_bool (get "b"));
  Alcotest.(check bool) "null field" true (get "z" = Jsonx.Null);
  Alcotest.(check bool) "array field" true
    (Jsonx.to_list (get "l") = Some [ Jsonx.Num 1.; Jsonx.Num 2. ]);
  Alcotest.(check (option int)) "to_int rejects non-integral" None
    (Jsonx.to_int (get "f"));
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Jsonx.member "nope" v) Jsonx.to_int);
  (* unicode escapes decode to UTF-8 bytes *)
  (match Jsonx.parse "\"\\u00e9\\u0041\"" with
  | Jsonx.Str s -> Alcotest.(check string) "\\u decodes to UTF-8" "\xc3\xa9A" s
  | _ -> Alcotest.fail "expected a string");
  List.iter
    (fun bad ->
      match Jsonx.parse bad with
      | exception Jsonx.Parse_error _ -> ()
      | _ -> Alcotest.failf "parse should reject %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "nan" ]

let test_jsonx_roundtrip_bytes () =
  (* every byte string survives str -> parse, including control chars
     and non-UTF-8 bytes *)
  let strings =
    [
      "plain";
      "tab\tnl\ncr\rquote\"backslash\\";
      "\000\001\031"; (* control chars *)
      "caf\xc3\xa9"; (* UTF-8 *)
      "\xff\xfe raw non-UTF-8 bytes \x80";
      String.init 256 Char.chr;
    ]
  in
  List.iter
    (fun s ->
      match Jsonx.parse (Jsonx.str s) with
      | Jsonx.Str s' -> Alcotest.(check string) "byte round-trip" s s'
      | _ -> Alcotest.fail "expected a string")
    strings

(* ---- scope invariants ----------------------------------------------- *)

let run_with_scope ?(timer = 5_000) mode =
  let image = kernel_image ~timer () in
  let scope = Scope.create () in
  let sys = make_sys ~scope mode image in
  ignore (D.System.run ~max_guest_insns:2_000_000 sys);
  (scope, D.System.stats sys)

(* Without watchdog rollbacks the phase totals partition the run's
   host instructions exactly — nothing uncounted, nothing
   double-counted. Region time exists exactly in the modes that can
   fuse superblocks. *)
let test_phase_partition () =
  List.iter
    (fun mode ->
      let scope, st = run_with_scope mode in
      Alcotest.(check int)
        (D.System.mode_name mode ^ ": phases partition host_insns")
        st.Stats.host_insns (Scope.total scope);
      let fuses =
        match mode with D.System.Rules o -> o.D.Opt.regions | _ -> false
      in
      List.iter
        (fun ph ->
          if ph = Phase.Region && not fuses then
            Alcotest.(check int)
              (D.System.mode_name mode ^ ": no region time without fusion")
              0
              (Scope.phase_count scope ph)
          else
            Alcotest.(check bool)
              (D.System.mode_name mode ^ ": " ^ Phase.name ph ^ " attributed")
              true
              (Scope.phase_count scope ph > 0))
        Phase.all)
    [
      D.System.Qemu;
      D.System.Rules D.Opt.full;
      D.System.Rules D.Opt.with_regions;
    ]

let test_scope_histograms () =
  let scope, st = run_with_scope (D.System.Rules D.Opt.full) in
  Alcotest.(check int) "one latency sample per delivered IRQ"
    st.Stats.irqs_delivered
    (Histo.count (Scope.irq_latency scope));
  Alcotest.(check bool) "IRQ latency is positive" true
    (Histo.min_value (Scope.irq_latency scope) >= 0
    && Histo.sum (Scope.irq_latency scope) > 0);
  (* at most one chain-latency sample per translation, and chaining
     did happen *)
  let chains = Histo.count (Scope.chain_latency scope) in
  Alcotest.(check bool) "chain latency sampled" true
    (chains > 0 && chains <= st.Stats.tb_translations)

let test_checkpoint_intervals () =
  let image = kernel_image () in
  let scope = Scope.create () in
  let sys = make_sys ~scope (D.System.Rules D.Opt.full) image in
  ignore (D.System.run ~max_guest_insns:2_000_000 ~checkpoint_every:4_000 sys);
  let h = Scope.checkpoint_interval scope in
  Alcotest.(check bool) "checkpoint intervals recorded" true (Histo.count h > 0);
  (* periodic checkpoints fire at >= the configured cadence *)
  Alcotest.(check bool) "intervals at least the cadence" true
    (Histo.min_value h >= 4_000)

(* Attaching a scope must not perturb the run: same guest behaviour,
   same statistics, to the last counter. *)
let test_scope_purity () =
  List.iter
    (fun (what, image) ->
      let bare = make_sys (D.System.Rules D.Opt.full) image in
      ignore (D.System.run ~max_guest_insns:2_000_000 bare);
      let scoped = make_sys ~scope:(Scope.create ()) (D.System.Rules D.Opt.full) image in
      ignore (D.System.run ~max_guest_insns:2_000_000 scoped);
      Alcotest.(check (array int))
        (what ^ ": scope attachment is observationally pure")
        (Stats.to_array (D.System.stats bare))
        (Stats.to_array (D.System.stats scoped)))
    [
      ("gcc", kernel_image ());
      (* an undecodable word runs on the interpreter-helper TB, whose
         one guest instruction has no decoded form *)
      ("undefined insn", K.build ~user_program:[| 0xFFFF_FFFF |] ());
    ]

(* Bit-reproducibility: two same-config runs export byte-identical
   scope JSON, and the analysis diff over their stats-json documents
   reports exactly 0%% in every phase. *)
let test_scope_determinism () =
  let once () =
    let scope, st = run_with_scope (D.System.Rules D.Opt.full) in
    ( Scope.to_json scope,
      Jsonx.parse
        (Jsonx.obj
           [ ("perf", Scope.to_json scope); ("stats", Stats.to_json st) ]) )
  in
  let j1, v1 = once () in
  let j2, v2 = once () in
  Alcotest.(check string) "scope JSON is byte-identical" j1 j2;
  let rows = A.diff v1 v2 in
  Alcotest.(check int) "all six phases compared" (List.length Phase.all)
    (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check (float 0.)) ("phase " ^ r.A.d_phase ^ " delta") 0. r.A.d_pct)
    rows;
  Alcotest.(check (float 0.)) "max |delta|" 0. (A.max_abs_pct rows)

(* ---- observer outputs are pinned ------------------------------------ *)

let observed_run ?scope ?ledger ?trace bench mode =
  let spec = W.find bench in
  let iterations = max 1 (40_000 / W.insns_per_iteration spec) in
  let image = K.build ~timer_period:2_000 ~user_program:(W.generate spec ~iterations) () in
  let sys = D.System.create ?scope ?ledger ?trace mode in
  K.load image (D.System.load_image sys);
  ignore (D.System.run ~max_guest_insns:5_000_000 sys);
  (image, sys)

(* The five renderings of a fully observed run: the scope's JSON, its
   hot-block table, its flamegraph under [dbt_run]'s frames, the
   ledger's JSON and the raw counters. *)
let observer_outputs bench mode =
  let scope = Scope.create () and ledger = Ledger.create () in
  let image, sys = observed_run ~scope ~ledger bench mode in
  let frames (b : Scope.block) =
    [
      D.System.mode_name mode;
      (if b.Scope.privileged then "kernel" else "user");
      K.symbolize image b.Scope.pc;
      Printf.sprintf (if b.Scope.region then "region_0x%08x" else "tb_0x%08x") b.Scope.pc;
    ]
  in
  let folded =
    String.concat "\n"
      (List.map
         (fun (stack, n) -> Printf.sprintf "%s %d" stack n)
         (Flame.fold (Scope.flame scope ~frames)))
  in
  [
    Scope.to_json scope;
    Format.asprintf "%a" (Scope.pp_blocks ~top:10) scope;
    folded;
    Ledger.to_json ledger;
    String.concat "," (Array.to_list (Array.map string_of_int (Stats.to_array (D.System.stats sys))));
  ]
  |> List.map (fun s -> Digest.to_hex (Digest.string s))

(* MD5s of [observer_outputs], in its order. Refactors of the engine's
   cost plumbing or of the observers' folds must leave them unchanged. *)
let pinned_outputs =
  let qemu = D.System.Qemu and rules o = D.System.Rules o in
  [
    ( "gcc",
      qemu,
      [
        "1fe5b5d111304e331c9c8e0df0ecd52c"; "d4d9b074aa8d2d2c7ccae27989d60464";
        "2cf779bd52d5d38bc3a9a3171aede78f"; "f6ddf017ed849e15600f7990da42e83d";
        "b97966e6c25fdaf165fa81e1906207c7";
      ] );
    ( "gcc",
      rules D.Opt.full,
      [
        "daaa6996a60236c94eef16396c76d252"; "c201b1fd297cbc70a73c7e5170d6d27b";
        "cc9db32b588ee5a225d118a4d40992a3"; "3d7352414c69f953f870fad686c53ced";
        "80994fcfdaeec84cb2ae848f78f2c039";
      ] );
    ( "gcc",
      rules D.Opt.with_regions,
      [
        "bd2652e69f01dbfc8af364e86c72e8ce"; "49e4be021f9809f1fd8c2b34efb8a140";
        "59af01bcfbce85045f3b3f094fdb73fc"; "88c62d30f1c4912bfb81d8926f76788b";
        "7c0ddf360bccf8bfb1b67076bf7c0f04";
      ] );
    ( "hmmer",
      qemu,
      [
        "d7f554f7528b980ace6dea8301dd5800"; "ed4e9e6ee961f5c15384a7871d2e6552";
        "34fa4b6b0cbc1097ec413ec662c7cfcf"; "f6ddf017ed849e15600f7990da42e83d";
        "adb6d8eb245d0f1d815b638c4fc4c41a";
      ] );
    ( "hmmer",
      rules D.Opt.full,
      [
        "e6926a071abcc95e181e86409f57cac5"; "e3859ab074c6030b468481cbcfe3f35a";
        "1cca15541d3d31291f4d4cbc60cb8d2b"; "37712733ba0e9e38a6a551062cb3ecdc";
        "679504da38f55c71f0de772c3e64de41";
      ] );
    ( "hmmer",
      rules D.Opt.with_regions,
      [
        "1a95d109e4e78333eb67783b9cff144e"; "54917932ae62edc9ea702b19d8824e9e";
        "4c0fe2ce9fc909935034ebad1670e12a"; "702e67a7c43d7883da2b9f0b3cd64000";
        "1687d29010199381d976dbd9375457ec";
      ] );
  ]

let test_outputs_pinned () =
  let names = [ "scope json"; "hot blocks"; "flamegraph"; "ledger json"; "stats" ] in
  List.iter
    (fun (bench, mode, digests) ->
      let got = observer_outputs bench mode in
      List.iteri
        (fun i name ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: %s" bench (D.System.mode_name mode) name)
            (List.nth digests i) (List.nth got i))
        names)
    pinned_outputs

let trace_jsonl trace =
  let path = Filename.temp_file "trace" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> Trace.write_jsonl oc trace);
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

(* Each observer sees the same run whoever else watches: the counters
   match a bare run, the scope's JSON does not depend on the other
   observers being attached, nor the ledger's or the trace ring's. *)
let test_observers_independent () =
  let mode = D.System.Rules D.Opt.with_regions in
  let run ~with_scope ~with_ledger ~with_trace =
    let scope = if with_scope then Some (Scope.create ()) else None in
    let ledger = if with_ledger then Some (Ledger.create ()) else None in
    let trace = if with_trace then Some (Trace.create ()) else None in
    let _, sys = observed_run ?scope ?ledger ?trace "gcc" mode in
    ( Stats.to_array (D.System.stats sys),
      Option.map Scope.to_json scope,
      Option.map Ledger.to_json ledger,
      Option.map trace_jsonl trace )
  in
  let bare, _, _, _ = run ~with_scope:false ~with_ledger:false ~with_trace:false in
  let s_only, scope_alone, _, _ = run ~with_scope:true ~with_ledger:false ~with_trace:false in
  let l_only, _, ledger_alone, _ = run ~with_scope:false ~with_ledger:true ~with_trace:false in
  let t_only, _, _, trace_alone = run ~with_scope:false ~with_ledger:false ~with_trace:true in
  let all, scope_all, ledger_all, trace_all =
    run ~with_scope:true ~with_ledger:true ~with_trace:true
  in
  List.iter
    (fun (what, a) -> Alcotest.(check (array int)) (what ^ ": stats as bare") bare a)
    [ ("scope only", s_only); ("ledger only", l_only); ("trace only", t_only); ("all", all) ];
  Alcotest.(check (option string)) "scope JSON without or with the others" scope_alone scope_all;
  Alcotest.(check (option string)) "ledger JSON without or with the others" ledger_alone ledger_all;
  Alcotest.(check (option string)) "trace JSONL without or with the others" trace_alone trace_all

(* ---- profile phase split -------------------------------------------- *)

let test_profile_phases () =
  let image = kernel_image () in
  let scope = Scope.create () in
  let sys = make_sys ~scope (D.System.Rules D.Opt.full) image in
  ignore (D.System.run ~max_guest_insns:2_000_000 sys);
  let entries = Scope.blocks scope in
  Alcotest.(check bool) "profiled some TBs" true (entries <> []);
  List.iter
    (fun (e : Scope.block) ->
      Alcotest.(check int)
        (Printf.sprintf "entry %#x phase split sums to host_spent" e.Scope.pc)
        e.Scope.host_spent
        (Array.fold_left ( + ) 0 e.Scope.phases))
    entries;
  (* the in-window split never sees translate or deliver work *)
  List.iter
    (fun (e : Scope.block) ->
      Alcotest.(check int) "no translate inside a TB window" 0
        e.Scope.phases.(Phase.index Phase.Translate);
      Alcotest.(check int) "no deliver inside a TB window" 0
        e.Scope.phases.(Phase.index Phase.Deliver))
    entries;
  (* the report renders the phase-split footer *)
  let report = Format.asprintf "%a" (Scope.pp_blocks ~top:5) scope in
  Alcotest.(check bool) "report carries the phase split" true
    (let rec mem i =
       i + 11 <= String.length report
       && (String.sub report i 11 = "phase split" || mem (i + 1))
     in
     mem 0)

(* ---- flamegraph folding --------------------------------------------- *)

let test_flame_fold () =
  let f = Flame.create () in
  Flame.add f [ "a"; "b" ] 3;
  Flame.add f [ "a"; "b" ] 2;
  Flame.add f [ "a" ] 1;
  Flame.add f [ "z;evil"; "x\ny" ] 4 (* separators scrubbed *);
  Flame.add f [] 9 (* ignored *);
  Flame.add f [ "neg" ] (-1) (* ignored *);
  Alcotest.(check (list (pair string int)))
    "folded, deduplicated, sorted"
    [ ("a", 1); ("a;b", 5); ("z_evil;x_y", 4) ]
    (Flame.fold f);
  let buf_path = Filename.temp_file "repro_flame" ".folded" in
  Fun.protect
    ~finally:(fun () -> Sys.remove buf_path)
    (fun () ->
      let oc = open_out buf_path in
      Flame.write_folded oc f;
      close_out oc;
      let ic = open_in buf_path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "folded file format" "a 1\na;b 5\nz_evil;x_y 4\n" s)

(* ---- the regression gate -------------------------------------------- *)

let bench_json ~rev slices =
  Jsonx.parse
    (Jsonx.obj
       [
         ("rev", Jsonx.str rev);
         ("target", Jsonx.int 1000);
         ( "slices",
           Jsonx.arr
             (List.map
                (fun (name, rule_enabled, guest, host) ->
                  Jsonx.obj
                    [
                      ("name", Jsonx.str name);
                      ("figure", Jsonx.str "fig14");
                      ("mode", Jsonx.str "rules:full");
                      ("bench", Jsonx.str "gcc");
                      ("rule_enabled", Jsonx.bool rule_enabled);
                      ("guest_insns", Jsonx.int guest);
                      ("host_insns", Jsonx.int host);
                      ( "host_per_guest",
                        Jsonx.float
                          (if guest = 0 then 0.
                           else float_of_int host /. float_of_int guest) );
                      ("sync_insns", Jsonx.int 7);
                      (* older bench files carry wall_ms; the decoder
                         ignores it like any unknown key *)
                      ("wall_ms", Jsonx.float 1.5);
                    ])
                slices) );
       ])

let decode v =
  match A.bench_of_json v with
  | Some b -> b
  | None -> Alcotest.fail "bench file failed to decode"

let test_gate () =
  let baseline =
    decode (bench_json ~rev:"base" [ ("full", true, 1000, 11_000); ("qemu", false, 1000, 40_000) ])
  in
  (* identical: ok *)
  let ok, rows = A.gate ~baseline ~current:baseline () in
  Alcotest.(check bool) "self-compare passes" true ok;
  Alcotest.(check int) "one row per baseline slice" 2 (List.length rows);
  (* +10% host/guest on the rule slice: regressed *)
  let worse =
    decode (bench_json ~rev:"cur" [ ("full", true, 1000, 12_100); ("qemu", false, 1000, 40_000) ])
  in
  let ok, rows = A.gate ~baseline ~current:worse () in
  Alcotest.(check bool) "10%% regression fails the 5%% gate" false ok;
  (match List.find (fun r -> r.A.g_name = "full") rows with
  | { A.g_status = A.Gate_regressed pct; _ } ->
    Alcotest.(check bool) "measured ~10%%" true (pct > 9. && pct < 11.)
  | _ -> Alcotest.fail "expected Gate_regressed");
  (* a looser threshold admits it *)
  let ok, _ = A.gate ~threshold_pct:15. ~baseline ~current:worse () in
  Alcotest.(check bool) "15%% threshold admits +10%%" true ok;
  (* qemu (reference) slices never gate on regression *)
  let qemu_worse =
    decode (bench_json ~rev:"cur" [ ("full", true, 1000, 11_000); ("qemu", false, 1000, 80_000) ])
  in
  let ok, _ = A.gate ~baseline ~current:qemu_worse () in
  Alcotest.(check bool) "reference slices are reported, not gated" true ok;
  (* a missing rule-enabled slice fails *)
  let missing = decode (bench_json ~rev:"cur" [ ("qemu", false, 1000, 40_000) ]) in
  let ok, rows = A.gate ~baseline ~current:missing () in
  Alcotest.(check bool) "missing slice fails" false ok;
  (match List.find (fun r -> r.A.g_name = "full") rows with
  | { A.g_status = A.Gate_missing; _ } -> ()
  | _ -> Alcotest.fail "expected Gate_missing");
  (* zero retired guest instructions fail, even at equal ratios *)
  let empty =
    decode (bench_json ~rev:"cur" [ ("full", true, 0, 0); ("qemu", false, 1000, 40_000) ])
  in
  let ok, rows = A.gate ~baseline ~current:empty () in
  Alcotest.(check bool) "empty slice fails" false ok;
  match List.find (fun r -> r.A.g_name = "full") rows with
  | { A.g_status = A.Gate_empty; _ } -> ()
  | _ -> Alcotest.fail "expected Gate_empty"

let test_bench_decode_rejects_malformed () =
  (* a slice missing a required field poisons the whole file *)
  let v =
    Jsonx.parse
      (Jsonx.obj
         [
           ("rev", Jsonx.str "x");
           ("target", Jsonx.int 1);
           ("slices", Jsonx.arr [ Jsonx.obj [ ("name", Jsonx.str "half") ] ]);
         ])
  in
  Alcotest.(check bool) "malformed slice rejected" true (A.bench_of_json v = None)

let suite =
  [
    ( "perfscope",
      [
        Alcotest.test_case "histogram bucket geometry" `Quick test_histo_buckets;
        Alcotest.test_case "histogram stats + determinism" `Quick test_histo_stats;
        Alcotest.test_case "jsonx parser" `Quick test_jsonx_parse;
        Alcotest.test_case "jsonx byte round-trip" `Quick test_jsonx_roundtrip_bytes;
        Alcotest.test_case "phases partition host_insns" `Quick
          test_phase_partition;
        Alcotest.test_case "latency histograms" `Quick test_scope_histograms;
        Alcotest.test_case "checkpoint intervals" `Quick test_checkpoint_intervals;
        Alcotest.test_case "scope is observationally pure" `Quick
          test_scope_purity;
        Alcotest.test_case "scope determinism + zero diff" `Quick
          test_scope_determinism;
        Alcotest.test_case "profile phase split" `Quick test_profile_phases;
        Alcotest.test_case "observer outputs are pinned" `Quick test_outputs_pinned;
        Alcotest.test_case "observers are independent" `Quick test_observers_independent;
        Alcotest.test_case "flamegraph folding" `Quick test_flame_fold;
        Alcotest.test_case "regression gate" `Quick test_gate;
        Alcotest.test_case "bench decode rejects malformed" `Quick
          test_bench_decode_rejects_malformed;
      ] );
  ]
