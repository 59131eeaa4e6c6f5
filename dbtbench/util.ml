(* Clock, order statistics and the failure exit shared by the
   benchmark's modules. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC via bechamel's stub): immune
   to wall-clock steps, and unlike [Sys.time] it counts real time, not
   CPU time summed over domains. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6

(* [timed log name f] runs [f] and appends [(name, ms taken)] to [log]. *)
let timed log name f =
  let t0 = now_ns () in
  let r = f () in
  log := (name, ms_of_ns (now_ns () - t0)) :: !log;
  r

(* Linear-interpolated quantile of an unsorted sample, [q] in [0, 1]. *)
let quantile q xs =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* A broken invariant (reference mismatch, non-repeating modelled
   figure, traced/untraced divergence) ends the run: no result line,
   exit code 3. *)
exception Invariant of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invariant s)) fmt

(* Deterministic permutation drawn from (seed, salt). *)
let shuffle ~seed ~salt a =
  let st = Random.State.make [| seed; salt |] in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Peak resident set of this process (VmHWM), in MiB; falls back to the
   OCaml major heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
