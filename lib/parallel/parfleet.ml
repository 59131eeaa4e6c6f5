(* The fleet dispatcher — the only way a fleet serves requests.

   The fleet's machines are already self-contained — every machine
   owns its System, ruleset copy, TB cache, injector, health, backoff,
   perfscope and trace ring, and the base snapshot and fault plan are
   only ever read — so machines can serve on different domains without
   sharing any mutable state. What still couples them is the
   cross-machine policy: admission control, dispatch, the fleet-wide
   circuit breaker, the fleet event ring and the telemetry sampling
   hook. This module moves all of that coupling to deterministic
   epoch barriers, which is what makes the merged report independent
   of the domain count and of domain scheduling:

   - An {e epoch} is the next [machines] requests. At the barrier the
     coordinator takes the serving set (machine-id order) and assigns
     the epoch's requests round-robin over it — deterministic
     failover: a machine that died last epoch simply drops out of the
     rotation, so availability tracks the serving set, not the fleet
     size.
   - Machines are sharded over the domains by id ([id mod domains]);
     shard 0 serves on the coordinator's own domain, the rest on
     spawned domains. A machine is touched by exactly one domain, and
     the per-request outcomes land in disjoint slots of one array, so
     [Domain.join] is the only synchronisation needed.
   - After the join the coordinator {e replays} the epoch in request
     order: the fleet's offered/served/shed counters, the fleet-ring
     [req:assign]/[req:shed] events and the [after_each] telemetry
     hook all advance exactly as they would have, one request at a
     time — the sample points of two drills line up whatever the
     domain count.
   - The circuit-breaker sweep runs once per epoch at the barrier,
     over all machines in id order, while no machine is serving.

   Every per-machine number is computed by the machine's own
   deterministic serve sequence, and every cross-machine decision is
   taken at a barrier from id-ordered state — so the drill report
   after the volatile strip is byte-identical for any [domains] >= 1.
   A ring is not safe for concurrent writers, so only the coordinator
   writes the fleet ring; a serve writes its machine's own ring. *)

module Fleet = Repro_resilience.Fleet
module Supervisor = Repro_resilience.Supervisor
module Trace = Repro_observe.Trace

(* Serve one epoch's share of machines on one domain: the requests
   assigned to machines of shard [d], in request order. Touches only
   machine-owned state; results go to disjoint [outcomes] slots. *)
let serve_shard ~fleet ~reference ~assignment ~request0 ~outcomes ~domains d =
  Array.iteri
    (fun k machine ->
      if machine mod domains = d then begin
        let s = Fleet.supervisor fleet machine in
        let request = request0 + k in
        (* the causal anchor on the machine's own track, emitted on the
           machine's work clock just before the serve *)
        Trace.emit (Supervisor.trace_ring s) ~a:request ~b:machine
          Trace.Request "req:assign";
        outcomes.(k) <- Some (Supervisor.serve ~reference s ~request ())
      end)
    assignment

let run ?after_each ?(domains = 1) fleet ~requests =
  if domains < 1 then invalid_arg "Parfleet.run: domains < 1";
  if requests < 0 then invalid_arg "Parfleet.run: requests < 0";
  let reference = Fleet.reference fleet in
  let epoch = Fleet.machines fleet in
  let after_each () = match after_each with Some f -> f () | None -> () in
  (* round-robin cursor over serving-set positions, persistent across
     epochs so a long drill spreads load over the serving set *)
  let cursor = ref 0 in
  let remaining = ref requests in
  while !remaining > 0 do
    let n = min epoch !remaining in
    let serving = Array.of_list (Fleet.serving_ids fleet) in
    let live = Array.length serving in
    if live = 0 || live < Fleet.min_healthy fleet then begin
      (* admission control, at epoch granularity: nobody (or not
         enough machines) is willing to serve, so the whole epoch is
         shed — replayed one request at a time for the sampling hook *)
      for _ = 1 to n do
        Fleet.account_shed fleet;
        after_each ()
      done
    end
    else begin
      let assignment =
        Array.init n (fun k -> serving.((!cursor + k) mod live))
      in
      cursor := (!cursor + n) mod live;
      let outcomes = Array.make n None in
      let request0 = Fleet.offered fleet in
      let workers =
        List.init (domains - 1) (fun i ->
            let d = i + 1 in
            Domain.spawn (fun () ->
                serve_shard ~fleet ~reference ~assignment ~request0 ~outcomes
                  ~domains d))
      in
      serve_shard ~fleet ~reference ~assignment ~request0 ~outcomes ~domains 0;
      List.iter Domain.join workers;
      (* replay: book the epoch into the fleet's counters and ring in
         request order — identical for every domain count *)
      Array.iteri
        (fun k machine ->
          (match outcomes.(k) with
          | Some result -> Fleet.account_assigned fleet ~machine result
          | None ->
            (* unreachable: every slot's shard serves before the join *)
            Fleet.account_shed fleet);
          after_each ())
        assignment;
      Fleet.breaker_sweep_all fleet
    end;
    remaining := !remaining - n
  done
