open Repro_common
module Prog = Repro_x86.Prog

type exit_kind = Direct of Word32.t | Indirect | Irq_deliver

exception Tb_too_complex

type meta = ..
type meta += No_meta

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
  mutable injected : [ `None | `Rule_corrupt | `Livelock ];
  mutable prov : int array;
  mutable hot : int;
  region_ids : int array;
  mutable meta : meta;
}

let exit_slots = 4
let slot_irq = 3
let region_exit_slots = 12
let is_region tb = Array.length tb.region_ids > 0

module Cache = struct
  type tb = t

  (* Virtual pages span a 32-bit address space: 2^20 pages, one bit
     each in the code bitmap — the O(1) "is this a code page?" check
     the hot store path performs on every write. 128 KiB a machine: a
     fleet creates machines by the dozen. *)
  let n_pages = 1 lsl 20

  let bit_byte p = (p land (n_pages - 1)) lsr 3
  let bit p = 1 lsl (p land 7)

  let set_bit b p =
    let i = bit_byte p in
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor bit p))

  let clear_bit b p =
    let i = bit_byte p in
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) land lnot (bit p)))

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
    mutable by_id : tb array option;
    mutable regions_by_id : tb array option;
        (* [table] and [regions] in id order, kept until either
           changes: every checkpoint reads them *)
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Tb.Cache.create";
    {
      table = Hashtbl.create 1024;
      regions = Hashtbl.create 64;
      pages = Hashtbl.create 64;
      code_bitmap = Bytes.make (n_pages / 8) '\000';
      capacity;
      full_flushes = 0;
      ids = 0;
      generation = 0;
      by_id = None;
      regions_by_id = None;
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
    Hashtbl.iter (fun p _ -> clear_bit t.code_bitmap p) t.pages;
    Hashtbl.reset t.table;
    Hashtbl.reset t.regions;
    Hashtbl.reset t.pages;
    t.by_id <- None;
    t.regions_by_id <- None;
    t.generation <- t.generation + 1

  let register_pages t ps =
    List.iter
      (fun p ->
        let n = try Hashtbl.find t.pages p with Not_found -> 0 in
        Hashtbl.replace t.pages p (n + 1);
        set_bit t.code_bitmap p)
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
    t.by_id <- None;
    register_pages t (tb_pages tb)

  (* Installing captured code inserts a live set that fit the cache
     when it was captured; the capacity check in [add] would spuriously flush
     when that set is exactly at capacity. *)
  let add_exact t tb =
    Hashtbl.replace t.table (tb.guest_pc, tb.privileged, tb.mmu_on) tb;
    t.by_id <- None;
    register_pages t (tb_pages tb)

  let size t = Hashtbl.length t.table
  let region_count t = Hashtbl.length t.regions
  let full_flushes t = t.full_flushes
  let set_full_flushes t n = t.full_flushes <- n
  let ids t = t.ids
  let set_ids t n = t.ids <- n
  let generation t = t.generation

  let is_code_page t page =
    Char.code (Bytes.unsafe_get t.code_bitmap (bit_byte page)) land bit page <> 0

  let next_id t =
    t.ids <- t.ids + 1;
    t.ids

  let near_capacity t = Hashtbl.length t.table >= t.capacity - 8

  (* Install a fused superblock. Never triggers the capacity flush (a
     flush here would drop the constituents the region was just formed
     from, or the members an install just put in). Every virtual page a constituent touches is
     registered, so self-modifying stores anywhere in the trace are
     detected. The caller must clear links targeting the head TB so
     the next transfer re-dispatches into the region. *)
  let add_region t tb ~members =
    Hashtbl.replace t.regions (tb.guest_pc, tb.privileged, tb.mmu_on) tb;
    t.regions_by_id <- None;
    register_pages t (List.sort_uniq compare (List.concat_map tb_pages members))

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

  let by_id t =
    match t.by_id with
    | Some a -> a
    | None ->
      let a = sorted_by_id t.table in
      t.by_id <- Some a;
      a

  let regions_by_id t =
    match t.regions_by_id with
    | Some a -> a
    | None ->
      let a = sorted_by_id t.regions in
      t.regions_by_id <- Some a;
      a

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
