module D = Repro_dbt
module T = Repro_tcg
module Fi = Repro_faultinject.Faultinject
module Snapshot = Repro_snapshot.Snapshot
module Stats = Repro_x86.Stats
module Trace = Repro_observe.Trace
module Scope = Repro_perfscope.Scope
module Histo = Repro_perfscope.Histo

type policy = {
  deadline : int;
  retry_budget : int;
  checkpoint_every : int;
  backoff_base : int;
  backoff_cap : int;
  degrade_after : int;
  quarantine_after : int;
  shadow_depth : int;
  quarantine_threshold : int;
}

let default_policy =
  {
    deadline = 2_000_000;
    retry_budget = 3;
    checkpoint_every = 4_000;
    backoff_base = 10_000;
    backoff_cap = 1_000_000;
    degrade_after = 1;
    quarantine_after = 4;
    shadow_depth = 4;
    quarantine_threshold = 2;
  }

type reference = { r_code : int; r_uart_digest : string; r_insns : int }

type outcome =
  | Served of { code : int; insns : int; attempts : int }
  | Timed_out
  | Rejected
  | Gave_up of { attempts : int }

let outcome_name = function
  | Served _ -> "served"
  | Timed_out -> "timed-out"
  | Rejected -> "rejected"
  | Gave_up _ -> "gave-up"

(* stable small codes for the req:verdict trace payload *)
let outcome_code = function
  | Served _ -> 0
  | Timed_out -> 1
  | Rejected -> 2
  | Gave_up _ -> 3

type t = {
  id : int;
  policy : policy;
  base : Snapshot.t;
  base_insns : int;  (* retired-insn clock value captured in [base] *)
  machine : D.System.t;
  plan : Fi.Plan.t option;
  health : Health.t;
  backoff : Backoff.t;
  mtrace : Trace.t;  (* this machine's own ring (work clock), always on *)
  scope : Scope.t;  (* per-machine phase attribution, always on *)
  latency : Histo.t;  (* serve latency of this machine's requests *)
  work_skew : int ref;
      (* monotone work clock: restores rewind [stats.guest_insns], so
         telemetry time is [!work_skew + guest_insns] and the skew is
         re-anchored across every supervision-level restore *)
  mutable served : int;
  mutable timeouts : int;
  mutable wrong_results : int;
  mutable surfaced_crashes : int;
}

(* Derive a per-(machine, request, attempt) injector seed from the
   plan's per-machine seed: deterministic for a fleet seed, different
   across retries so a restart is not condemned to replay the exact
   fault schedule that just killed the request. *)
let salt seed ~request ~attempt =
  let mix a b = (a * 0x9E3779B1) + b land max_int in
  1 + (mix (mix seed (request + 1)) (attempt + 1) land 0x3FFF_FFFF)

(* machine-ring events ride the monotone work clock *)
let emit_m t ?a ?b cat name = Trace.emit t.mtrace ?a ?b cat name

(* Restore without letting the telemetry clock travel backwards: the
   snapshot rewinds [stats.guest_insns], the skew absorbs the rewind
   so the machine's work clock is continuous (a restore takes zero
   work time). *)
let restore_monotone machine work_skew snap =
  let stats = D.System.stats machine in
  let before = !work_skew + stats.Stats.guest_insns in
  D.System.restore machine snap;
  work_skew := before - stats.Stats.guest_insns

let create ?plan ~id ~policy base =
  let mode = D.System.snapshot_mode base in
  let mtrace = Trace.create () in
  let scope = Scope.create () in
  let machine =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib base)
      ?inject:(D.System.snapshot_injector base)
      ~shadow_depth:policy.shadow_depth
      ~quarantine_threshold:policy.quarantine_threshold ~trace:mtrace ~scope
      mode
  in
  let work_skew = ref 0 in
  (* override the runtime's raw guest-insn clock with the monotone
     work clock (same value until the first restore rewinds stats) *)
  Trace.set_clock mtrace (fun () ->
      !work_skew + (D.System.stats machine).Stats.guest_insns);
  (* one restore up front pins the base clock value (the retired-insn
     count captured in the warm snapshot) and proves the shape matches *)
  restore_monotone machine work_skew base;
  {
    id;
    policy;
    base;
    base_insns = (D.System.stats machine).Stats.guest_insns;
    machine;
    plan;
    health =
      Health.create ~degrade_after:policy.degrade_after
        ~quarantine_after:policy.quarantine_after ();
    backoff =
      Backoff.create ~base:policy.backoff_base ~cap:policy.backoff_cap
        ~seed:(salt (id + 1) ~request:0 ~attempt:0)
        ();
    mtrace;
    scope;
    latency = Histo.create ();
    work_skew;
    served = 0;
    timeouts = 0;
    wrong_results = 0;
    surfaced_crashes = 0;
  }

let id t = t.id
let health t = t.health
let machine t = t.machine
let trace_ring t = t.mtrace
let scope t = t.scope
let latency t = t.latency
let work_insns t = !(t.work_skew) + (D.System.stats t.machine).Stats.guest_insns
let backoff_total t = Backoff.total t.backoff
let served t = t.served
let timeouts t = t.timeouts
let wrong_results t = t.wrong_results
let surfaced_crashes t = t.surfaced_crashes

let arm t ~request ~attempt =
  match (t.plan, t.machine.D.System.rt.T.Runtime.inject) with
  | Some plan, Some inj ->
    Fi.Plan.arm plan t.id inj;
    Fi.reseed inj ~seed:(salt (Fi.Plan.machine_seed plan t.id) ~request ~attempt)
  | _ -> ()

let fired_now t =
  match t.machine.D.System.rt.T.Runtime.inject with
  | Some inj -> Fi.total_fired inj
  | None -> 0

let classify_postmortem reason =
  if String.length reason >= 8 && String.sub reason 0 8 = "livelock" then
    Health.Watchdog_recovered
  else Health.Shadow_divergence

let uart_digest machine =
  Digest.to_hex (Digest.string (D.System.uart_output machine))

(* Crash-only serving: every request (and every retry) begins with a
   restore — from the warm base snapshot, or from the last clean
   checkpoint this request produced, so a restart resumes partially-
   done work instead of redoing it. The deadline is one absolute
   retired-insn clock value fixed at the first attempt: watchdog
   rollbacks and checkpoint resumes rewind the clock, so re-executed
   spans never eat the request's budget. *)
let serve ?reference t ~request () =
  if not (Health.serving t.health) then Rejected
  else begin
    let deadline_abs = t.base_insns + t.policy.deadline in
    let restart_point = ref None in
    let stats = D.System.stats t.machine in
    let finish attempt outcome =
      emit_m t ~a:request ~b:attempt Trace.Request "req:end";
      emit_m t ~a:request ~b:(outcome_code outcome) Trace.Request "req:verdict";
      (match outcome with
      | Served { insns; _ } -> Histo.record t.latency insns
      | Timed_out -> Histo.record t.latency t.policy.deadline
      | Rejected | Gave_up _ -> ());
      outcome
    in
    let rec attempt_run attempt =
      let crash signal kind =
        (match signal with
        | Health.Crash when kind = `Surfaced ->
          t.surfaced_crashes <- t.surfaced_crashes + 1
        | Health.Crash -> t.wrong_results <- t.wrong_results + 1
        | _ -> ());
        let state = Health.note t.health signal in
        emit_m t ~a:request ~b:attempt Trace.Request "req:end";
        emit_m t ~a:request Trace.Fleet
          (Printf.sprintf "crash:%s" (Health.signal_name signal));
        (* quarantine-level health drops the engine floor one rung:
           restarts alone did not fix it, so re-serve on a simpler,
           safer engine *)
        if state = Health.Quarantined && D.System.degrade_floor t.machine then begin
          let rung = D.System.rung_name (D.System.rung_floor t.machine) in
          emit_m t ~a:request Trace.Fleet (Printf.sprintf "degrade:%s" rung)
        end;
        if attempt >= t.policy.retry_budget then begin
          Health.kill t.health;
          emit_m t ~a:request Trace.Fleet "dead";
          emit_m t ~a:request ~b:(outcome_code (Gave_up { attempts = 0 }))
            Trace.Request "req:verdict";
          Gave_up { attempts = attempt + 1 }
        end
        else begin
          let delay = Backoff.next t.backoff in
          emit_m t ~a:request ~b:delay Trace.Fleet "backoff";
          emit_m t ~a:request ~b:(attempt + 1) Trace.Request "req:retry";
          attempt_run (attempt + 1)
        end
      in
      match
        restore_monotone t.machine t.work_skew
          (match !restart_point with Some cp -> cp | None -> t.base);
        arm t ~request ~attempt;
        if attempt > 0 then begin
          ignore (Health.note_restart_ok t.health);
          emit_m t ~a:request ~b:attempt Trace.Fleet "restart"
        end;
        emit_m t ~a:request ~b:attempt Trace.Request "req:begin";
        (* A checkpoint taken after a fault fired may already hold its
           damage (a guest sent into its abort handler, a corrupted
           store), and every retry from it would replay that. Only
           checkpoints no fault of this attempt has touched become
           restart points. *)
        let fired = fired_now t in
        D.System.run ~deadline:deadline_abs
          ~checkpoint_every:t.policy.checkpoint_every
          ~on_checkpoint:(fun snap ->
            if D.System.snapshot_clean snap && fired_now t = fired then
              restart_point := Some snap)
          ~on_postmortem:(fun ~reason _dump ->
            ignore (Health.note t.health (classify_postmortem reason)))
          t.machine
      with
      | res -> (
        match res.T.Engine.reason with
        | `Halted code -> (
          let insns = stats.Stats.guest_insns - t.base_insns in
          match reference with
          | Some r when r.r_code <> code || r.r_uart_digest <> uart_digest t.machine
            ->
            crash Health.Crash `Wrong_result
          | _ ->
            Backoff.reset t.backoff;
            t.served <- t.served + 1;
            finish attempt (Served { code; insns; attempts = attempt + 1 }))
        | `Deadline ->
          (* a typed request-level result, not a machine failure worth
             a restart: the guest state is consistent and the next
             request restores from scratch anyway *)
          t.timeouts <- t.timeouts + 1;
          ignore (Health.note t.health Health.Deadline_timeout);
          finish attempt Timed_out
        | `Livelock _ -> crash Health.Crash `Surfaced
        | `Insn_limit -> assert false (* no [max_guest_insns] given *))
      | exception Snapshot.Corrupt _ ->
        (* the held checkpoint did not restore; fall back to the base *)
        restart_point := None;
        crash Health.Crash `Surfaced
      | exception Snapshot.Load_error _ ->
        restart_point := None;
        crash Health.Crash `Surfaced
    in
    attempt_run 0
  end

(* The standing recovery invariant: with faults disarmed, a surviving
   machine — whatever it quarantined, blacklisted or degraded along the
   way — must reproduce the fault-free reference bit-identically. *)
let verify_clean t reference =
  if not (Health.alive t.health) then None
  else begin
    restore_monotone t.machine t.work_skew t.base;
    (match t.machine.D.System.rt.T.Runtime.inject with
    | Some inj -> List.iter (fun s -> Fi.set_rate inj s 0.) Fi.all_sites
    | None -> ());
    let verdict ok =
      emit_m t ~a:(if ok then 1 else 0) Trace.Fleet "verify:clean";
      Some ok
    in
    match
      D.System.run ~deadline:(t.base_insns + t.policy.deadline) t.machine
    with
    | res -> (
      match res.T.Engine.reason with
      | `Halted code ->
        (* architectural output only: halt code and UART byte stream.
           The retired-insn total is NOT engine-invariant — timer IRQs
           are delivered at TB boundaries, and TB boundaries shift
           across rungs and under quarantine fallback, so the handler
           interleaves at marginally different points *)
        verdict
          (code = reference.r_code
          && uart_digest t.machine = reference.r_uart_digest)
      | _ -> verdict false)
    | exception Snapshot.Corrupt _ -> verdict false
    | exception Snapshot.Load_error _ -> verdict false
  end
