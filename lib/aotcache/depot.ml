module Snapshot = Repro_snapshot.Snapshot
module Enc = Snapshot.Enc
module Dec = Snapshot.Dec
module Fi = Repro_faultinject.Faultinject
module Atomicio = Repro_common.Atomicio

exception Depot_error of { section : string; reason : string }

let err section fmt =
  Printf.ksprintf (fun reason -> raise (Depot_error { section; reason })) fmt

(* Any decoder slip (truncated payload, bad tag) or failed read inside
   [section] becomes the typed error; nothing else escapes the load
   path. *)
let guard section f =
  try f () with
  | Snapshot.Corrupt reason | Invalid_argument reason | Sys_error reason ->
    err section "%s" reason

let manifest_name = "MANIFEST"
let manifest_header = "DBTDEPOT-MANIFEST 1"

type compat = { c_mode : string; c_rules_digest : int; c_hot_threshold : int }

type t = {
  mutable generation : int;
  compat : compat;
  rules : string;
  cache : string;
  mutable health : string;
  mutable quarantined : int list;  (* sorted ascending *)
}

let create ~compat ~rules ~cache ~health =
  { generation = 0; compat; rules; cache; health; quarantined = [] }

let compat t = t.compat
let generation t = t.generation
let rules t = t.rules
let cache_payload t = t.cache
let health t = t.health
let set_health t h = t.health <- h
let quarantined_pcs t = t.quarantined

let quarantine_pcs t pcs =
  let merged = List.sort_uniq compare (pcs @ t.quarantined) in
  let grew = List.length merged > List.length t.quarantined in
  t.quarantined <- merged;
  grew

(* ---- the blob: a snapshot container ---- *)

let to_string t =
  let c = Snapshot.create () in
  let add name encode = Snapshot.add c name (Enc.encode encode) in
  add "generation" (fun b -> Enc.nat b t.generation);
  add "compat" (fun b ->
      Enc.string b t.compat.c_mode;
      Enc.int b t.compat.c_rules_digest;
      Enc.int b t.compat.c_hot_threshold);
  Snapshot.add c "rules" t.rules;
  Snapshot.add c "cache" t.cache;
  Snapshot.add c "health" t.health;
  add "quarantine" (fun b -> Enc.list b Enc.int t.quarantined);
  Snapshot.to_string c

let of_string s =
  let c =
    try Snapshot.of_string s
    with Snapshot.Load_error { section; reason } ->
      raise (Depot_error { section; reason })
  in
  let find name = guard name (fun () -> Snapshot.find c name) in
  let decode name f = guard name (fun () -> Snapshot.decode c name f) in
  let generation = decode "generation" Dec.nat in
  let compat =
    decode "compat" @@ fun d ->
    let c_mode = Dec.string d in
    let c_rules_digest = Dec.int d in
    { c_mode; c_rules_digest; c_hot_threshold = Dec.int d }
  in
  let quarantined = decode "quarantine" (fun d -> Dec.list d Dec.int) in
  {
    generation;
    compat;
    rules = find "rules";
    cache = find "cache";
    health = find "health";
    quarantined = List.sort_uniq compare quarantined;
  }

(* ---- the directory: manifest-committed generations ---- *)

type manifest = {
  m_generation : int;
  m_blob : string;
  m_bytes : int;
  m_checksum : int;
}

let blob_name t = Printf.sprintf "depot-%d.bin" t.generation
let is_blob f = String.length f > 10 && String.sub f 0 6 = "depot-" && Filename.check_suffix f ".bin"

let parse_manifest s =
  match String.split_on_char '\n' s with
  | header :: rest when header = manifest_header ->
    let kv =
      List.filter_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
          | None -> None)
        rest
    in
    let get k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> err "manifest" "missing field %s" k
    in
    let num k =
      match int_of_string_opt (get k) with
      | Some n when n >= 0 -> n
      | _ -> err "manifest" "bad field %s %S" k (get k)
    in
    let blob = get "blob" in
    if Filename.basename blob <> blob || not (is_blob blob) then
      err "manifest" "bad blob name %S" blob;
    {
      m_generation = num "generation";
      m_blob = blob;
      m_bytes = num "bytes";
      m_checksum = num "checksum";
    }
  | _ -> err "manifest" "bad manifest header"

let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then
    err "manifest" "no depot manifest in %s" dir;
  parse_manifest
    (guard "manifest" (fun () ->
         In_channel.with_open_bin path In_channel.input_all))

let render_manifest m =
  Printf.sprintf "%s\ngeneration %d\nblob %s\nbytes %d\nchecksum 0x%08x\n"
    manifest_header m.m_generation m.m_blob m.m_bytes m.m_checksum

let save ?inject ~dir t =
  (match Sys.is_directory dir with
  | true -> ()
  | false -> err "container" "%s exists and is not a directory" dir
  | exception Sys_error _ -> (
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()));
  let prev =
    if Sys.file_exists (Filename.concat dir manifest_name) then
      (* an unreadable previous manifest must not brick saving: the new
         commit replaces it wholesale *)
      try Some (read_manifest dir) with Depot_error _ -> None
    else None
  in
  t.generation <-
    (match prev with Some m -> m.m_generation + 1 | None -> 1);
  let blob = to_string t in
  let name = blob_name t in
  (* Fault site: a torn write — a prefix of the blob reaches disk yet
     the commit protocol proceeds. The manifest records the intended
     bytes/checksum, which is exactly how the next load catches it. *)
  let written =
    match inject with
    | Some inj when Fi.fire inj Fi.Depot_torn ->
      String.sub blob 0 (String.length blob / 2)
    | _ -> blob
  in
  Atomicio.write (Filename.concat dir name) written;
  Atomicio.write
    (Filename.concat dir manifest_name)
    (render_manifest
       {
         m_generation = t.generation;
         m_blob = name;
         m_bytes = String.length blob;
         m_checksum = Snapshot.header_checksum blob;
       });
  (* Older generations (and orphans from crashed saves) are garbage
     once the manifest moved on. Removal is best-effort: a leftover
     blob is unreachable, not harmful. *)
  Array.iter
    (fun f ->
      if f <> name && is_blob f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  t.generation

let load ?inject dir =
  (match Sys.is_directory dir with
  | true -> ()
  | false -> err "manifest" "%s is not a directory" dir
  | exception Sys_error _ -> err "manifest" "no depot at %s" dir);
  let m = read_manifest dir in
  let raw =
    guard "blob" (fun () ->
        In_channel.with_open_bin (Filename.concat dir m.m_blob)
          In_channel.input_all)
  in
  (* Read-path fault sites: lose the tail, or flip one bit. Both are
     deterministic in *placement* (middle of the blob) — only the
     firing decision draws from the injector PRNG. *)
  let raw =
    match inject with
    | Some inj ->
      let raw =
        if Fi.fire inj Fi.Depot_trunc then
          String.sub raw 0 (String.length raw / 2)
        else raw
      in
      if Fi.fire inj Fi.Depot_flip && String.length raw > 0 then begin
        let b = Bytes.of_string raw in
        let pos = Bytes.length b / 2 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
        Bytes.to_string b
      end
      else raw
    | None -> raw
  in
  if String.length raw <> m.m_bytes then
    err "blob" "manifest promises %d bytes, %s has %d" m.m_bytes m.m_blob
      (String.length raw);
  let t = of_string raw in
  (* Parsing checked every byte after the header against the header's
     checksum, so comparing that with the manifest's folds nothing. *)
  let stored = Snapshot.header_checksum raw in
  if stored <> m.m_checksum then
    err "blob" "blob checksum mismatch (manifest %#x, header %#x)" m.m_checksum stored;
  if t.generation <> m.m_generation then
    err "manifest" "generation skew (manifest %d, blob %d)" m.m_generation
      t.generation;
  t
