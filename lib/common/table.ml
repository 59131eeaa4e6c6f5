type align = Left | Right

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render ~header ?aligns rows =
  let ncols = List.length header in
  let aligns =
    match aligns with
    | Some a -> Array.of_list a
    | None -> Array.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let line row =
    row
    |> List.mapi (fun i cell -> pad aligns.(i) widths.(i) cell)
    |> String.concat "  "
  in
  let rule =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  String.concat "\n" (line header :: rule :: List.map line rows) ^ "\n"

let fixed d x = Printf.sprintf "%.*f" d x
let percent x = Printf.sprintf "%.2f%%" (x *. 100.)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Table.geomean: empty"
  | _ ->
    let n = List.length xs in
    let sum =
      List.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Table.geomean: non-positive entry"
          else acc +. log x)
        0. xs
    in
    exp (sum /. float_of_int n)
