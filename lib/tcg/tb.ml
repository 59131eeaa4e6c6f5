open Repro_common
module Prog = Repro_x86.Prog

type exit_kind = Direct of Word32.t | Indirect | Irq_deliver

exception Tb_too_complex

type t = {
  id : int;
  guest_pc : Word32.t;
  privileged : bool;
  mmu_on : bool;
  mutable prog : Prog.t;
  exits : exit_kind array;
  links : t option array;
  guest_insns : Repro_arm.Insn.t array;
  guest_len : int;
  fault_producers : (Word32.t * Word32.t array) array;
  translated_override : int option;
  mutable injected : [ `None | `Rule_corrupt | `Livelock ];
  mutable prov : int array;
  mutable hot : int;
  region_ids : int array;
}

let exit_slots = 4
let slot_irq = 3
let region_exit_slots = 12
let is_region tb = Array.length tb.region_ids > 0

module Cache = struct
  type tb = t

  (* Virtual pages span a 32-bit address space: 2^20 pages, one byte
     each in the code bitmap — the O(1) "is this a code page?" check
     the hot store path performs on every write. *)
  let n_pages = 1 lsl 20

  type nonrec t = {
    table : (int * bool * bool, tb) Hashtbl.t;
    regions : (int * bool * bool, tb) Hashtbl.t;
        (* fused superblocks, keyed by head PC; consulted before
           [table] so dispatch at a hot head enters the region *)
    pages : (int, int) Hashtbl.t;  (* virtual page -> overlapping TB count *)
    code_bitmap : Bytes.t;         (* page-indexed mirror of [pages] membership *)
    capacity : int;
    mutable full_flushes : int;
    mutable ids : int;
    mutable generation : int;
        (* bumped on every flush; direct-mapped dispatch caches in
           front of [find] key their entries on it so a flush
           invalidates them without a scan *)
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Tb.Cache.create";
    {
      table = Hashtbl.create 1024;
      regions = Hashtbl.create 64;
      pages = Hashtbl.create 64;
      code_bitmap = Bytes.make n_pages '\000';
      capacity;
      full_flushes = 0;
      ids = 0;
      generation = 0;
    }

  let find t ~pc ~privileged ~mmu_on =
    let key = (pc, privileged, mmu_on) in
    if Hashtbl.length t.regions > 0 then
      match Hashtbl.find_opt t.regions key with
      | Some _ as r -> r
      | None -> Hashtbl.find_opt t.table key
    else Hashtbl.find_opt t.table key

  let find_plain t ~pc ~privileged ~mmu_on =
    Hashtbl.find_opt t.table (pc, privileged, mmu_on)

  let tb_pages tb =
    let first = tb.guest_pc lsr 12 in
    let last = (tb.guest_pc + (4 * tb.guest_len) - 1) lsr 12 in
    if first = last then [ first ] else [ first; last ]

  let flush t =
    Hashtbl.iter (fun p _ -> Bytes.unsafe_set t.code_bitmap (p land (n_pages - 1)) '\000') t.pages;
    Hashtbl.reset t.table;
    Hashtbl.reset t.regions;
    Hashtbl.reset t.pages;
    t.generation <- t.generation + 1

  let register_pages t ps =
    List.iter
      (fun p ->
        let n = try Hashtbl.find t.pages p with Not_found -> 0 in
        Hashtbl.replace t.pages p (n + 1);
        Bytes.unsafe_set t.code_bitmap (p land (n_pages - 1)) '\001')
      ps

  let add t tb =
    (* QEMU's policy when the code-generation buffer fills: drop every
       translation and start over. Safe mid-run because eviction only
       happens between TB executions; flushed TBs become unreachable
       (fresh TBs start unlinked, and lookups go through the table). *)
    if Hashtbl.length t.table >= t.capacity then begin
      flush t;
      t.full_flushes <- t.full_flushes + 1
    end;
    Hashtbl.replace t.table (tb.guest_pc, tb.privileged, tb.mmu_on) tb;
    register_pages t (tb_pages tb)

  (* Snapshot rebuild inserts a live set that fit the cache when it
     was captured; the capacity check in [add] would spuriously flush
     when that set is exactly at capacity. *)
  let add_exact t tb =
    Hashtbl.replace t.table (tb.guest_pc, tb.privileged, tb.mmu_on) tb;
    register_pages t (tb_pages tb)

  let size t = Hashtbl.length t.table
  let region_count t = Hashtbl.length t.regions
  let full_flushes t = t.full_flushes
  let set_full_flushes t n = t.full_flushes <- n
  let ids t = t.ids
  let set_ids t n = t.ids <- n
  let generation t = t.generation

  let is_code_page t page =
    Bytes.unsafe_get t.code_bitmap (page land (n_pages - 1)) <> '\000'

  let code_pages t = Hashtbl.fold (fun p _ acc -> p :: acc) t.pages []

  let next_id t =
    t.ids <- t.ids + 1;
    t.ids

  let near_capacity t = Hashtbl.length t.table >= t.capacity - 8

  (* Install a fused superblock. Never triggers the capacity flush (a
     flush here would drop the constituents the region was just formed
     from — and, during snapshot rebuild, TBs the recipe still
     references). [pages] is every virtual page a constituent chunk
     touches, so self-modifying stores anywhere in the trace are
     detected. The caller must clear links targeting the head TB so
     the next transfer re-dispatches into the region. *)
  let add_region t tb ~pages =
    Hashtbl.replace t.regions (tb.guest_pc, tb.privileged, tb.mmu_on) tb;
    register_pages t pages

  let to_list t =
    Hashtbl.fold (fun _ tb acc -> tb :: acc) t.table []
    |> List.sort (fun a b -> compare a.guest_pc b.guest_pc)

  let regions_list t =
    Hashtbl.fold (fun _ tb acc -> tb :: acc) t.regions []
    |> List.sort (fun a b -> compare a.guest_pc b.guest_pc)

  let sorted_by_id table =
    let a = Array.of_seq (Hashtbl.to_seq_values table) in
    Array.sort (fun a b -> compare a.id b.id) a;
    a

  let by_id t = sorted_by_id t.table
  let regions_by_id t = sorted_by_id t.regions

  (* Null every chain link that targets [target] (physical equality),
     across plain TBs and regions: after a region is installed over
     [target], stale chained jumps would keep bypassing it. *)
  let unlink_target t target =
    let scan _ tb =
      Array.iteri
        (fun i l -> match l with
          | Some succ when succ == target -> tb.links.(i) <- None
          | _ -> ())
        tb.links
    in
    Hashtbl.iter scan t.table;
    Hashtbl.iter scan t.regions
end
