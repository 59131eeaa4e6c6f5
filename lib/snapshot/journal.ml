open Repro_common

type event =
  | Irq of { at : int; pc : Word32.t }
  | Fault of { at : int; site : string }
  | Dev_read of { at : int; paddr : Word32.t; value : Word32.t }
  | Diverge of { at : int; pc : Word32.t; detail : string }
  | Halt of { at : int; code : Word32.t }

let at = function
  | Irq { at; _ } | Fault { at; _ } | Dev_read { at; _ }
  | Diverge { at; _ } | Halt { at; _ } ->
    at

type t = { mutable rev_events : event list; mutable n : int }

let create () = { rev_events = []; n = 0 }

let record t e =
  t.rev_events <- e :: t.rev_events;
  t.n <- t.n + 1

let clear t =
  t.rev_events <- [];
  t.n <- 0

let events t = List.rev t.rev_events
let length t = t.n

let string_of_event = function
  | Irq { at; pc } -> Printf.sprintf "irq %d 0x%08x" at pc
  | Fault { at; site } -> Printf.sprintf "fault %d %s" at site
  | Dev_read { at; paddr; value } ->
    Printf.sprintf "devr %d 0x%08x 0x%08x" at paddr value
  | Diverge { at; pc; detail } ->
    Printf.sprintf "diverge %d 0x%08x %s" at pc detail
  | Halt { at; code } -> Printf.sprintf "halt %d 0x%08x" at code

let event_of_string line =
  let num s =
    try int_of_string s
    with Failure _ -> failwith (Printf.sprintf "Journal: bad number %S in %S" s line)
  in
  match String.split_on_char ' ' line with
  | [ "irq"; at; pc ] -> Irq { at = num at; pc = num pc }
  | [ "fault"; at; site ] -> Fault { at = num at; site }
  | [ "devr"; at; paddr; value ] ->
    Dev_read { at = num at; paddr = num paddr; value = num value }
  | "diverge" :: at :: pc :: rest ->
    Diverge { at = num at; pc = num pc; detail = String.concat " " rest }
  | [ "halt"; at; code ] -> Halt { at = num at; code = num code }
  | _ -> failwith (Printf.sprintf "Journal: unparseable event %S" line)

let to_string t =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string b (string_of_event e);
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let of_string s =
  let t = create () in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        try record t (event_of_string line) with Failure e -> raise (Snapshot.Corrupt ("journal: " ^ e)))
    (String.split_on_char '\n' s);
  t

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%s@." (string_of_event e)) (events t)
