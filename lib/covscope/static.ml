(* Translation-time side of the per-rule ledger: how many TB sites
   each rule translated and how many host instructions those sites
   emitted. The rule translator keeps one; installed code is never
   emitted, so never counted. *)

type row = { mutable sites : int; mutable emitted : int }
type t = { by_rule : (int, row) Hashtbl.t }

let create () = { by_rule = Hashtbl.create 32 }

let record t ~rule ~host_insns =
  let r =
    match Hashtbl.find_opt t.by_rule rule with
    | Some r -> r
    | None ->
      let r = { sites = 0; emitted = 0 } in
      Hashtbl.add t.by_rule rule r;
      r
  in
  r.sites <- r.sites + 1;
  r.emitted <- r.emitted + host_insns

let entries t =
  Hashtbl.fold (fun id r acc -> (id, r.sites, r.emitted) :: acc) t.by_rule []
  |> List.sort compare

let find t rule =
  match Hashtbl.find_opt t.by_rule rule with
  | Some r -> (r.sites, r.emitted)
  | None -> (0, 0)
