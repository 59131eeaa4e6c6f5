(* The benchmark's guest programs, their reference outputs, the
   machines that run them, and the guards that keep every modelled
   figure honest. *)

module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Ref = Repro_tcg.Ref_machine

type engine = Qemu | Rules

let engine_name = function Qemu -> "qemu" | Rules -> "rules"

(* dbt_run's default engine: every paper optimisation plus hot-region
   superblocks. *)
let rules_mode = D.System.Rules D.Opt.with_regions

type program = {
  name : string;
  image : K.image;
  ref_code : int;
  ref_uart : string;  (** MD5 (hex) of the reference UART byte stream *)
}

let timer_period = 2_000

let cint_image ?(timer_period = timer_period) name ~target =
  let spec = W.find name in
  let iterations = max 1 (target / W.insns_per_iteration spec) in
  K.build ~timer_period ~user_program:(W.generate spec ~iterations) ()

let app_image (app : W.app) ~iterations =
  K.build ~timer_period ~user_program:(W.generate_app app ~iterations) ()

let md5 s = Digest.to_hex (Digest.string s)

(* dbt_run's default ruleset: the learned rules on top of the builtin
   ones. *)
let learned_rules () =
  Repro_rules.Builtin.all () @ (Repro_learn.Learn.learn ()).Repro_learn.Learn.rules

(* Ground truth from the architectural interpreter, never from the
   DBT under test. *)
let reference name image =
  let r = Ref.create () in
  K.load image (Ref.load_image r);
  match Ref.run r ~max_steps:100_000_000 with
  | Ref.Halted code, _ ->
    {
      name;
      image;
      ref_code = code;
      ref_uart =
        md5 (Repro_machine.Devices.Uart.output r.Ref.bus.Repro_machine.Bus.uart);
    }
  | _ -> Util.fail "%s: the reference interpreter did not halt" name

(* A fresh machine with the program loaded. Every rules machine gets its
   own ruleset (rule health is per-machine state). *)
let machine ?scope rules engine prog =
  let sys =
    match engine with
    | Qemu -> D.System.create ?scope D.System.Qemu
    | Rules ->
      D.System.create ?scope ~ruleset:(Repro_rules.Ruleset.of_list rules)
        rules_mode
  in
  K.load prog.image (D.System.load_image sys);
  sys

(* Did the run halt with the reference's code and UART stream? *)
let matches prog sys (res : Repro_tcg.Engine.result) =
  match res.Repro_tcg.Engine.reason with
  | `Halted code ->
    code = prog.ref_code && md5 (D.System.uart_output sys) = prog.ref_uart
  | `Insn_limit | `Livelock _ | `Deadline -> false

(* Same-process determinism guard: every run of one (program, engine)
   must leave bit-identical counters. *)
let guard tbl key stats =
  let a = Stats.to_array stats in
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.add tbl key a
  | Some b ->
    if a <> b then
      Util.fail "%s: modelled counters differ from its earlier run" key

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Cross-process determinism guard: the modelled figures of [name] are
   recorded per executable under [state_dir] on first sight; any later
   run of the same executable (another seed, where [name] omits it)
   must reproduce them byte for byte. *)
let fingerprint ~state_dir ~name content =
  let dir = Filename.concat state_dir "fingerprints" in
  mkdir_p dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat dir (name ^ "-" ^ exe) in
  if Sys.file_exists path then begin
    let seen = In_channel.with_open_bin path In_channel.input_all in
    if seen <> content then
      Util.fail "%s: modelled figures differ from an earlier run\n  was %s\n  now %s"
        name seen content
  end
  else begin
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc content);
    Sys.rename tmp path
  end
