type event = { time : float; dir : Packet.direction; size : int }

type t = event array

let empty = [||]
let length = Array.length

(* The order [sort] produces: [Float.compare] on times, so a NaN sorts
   first and is never mistaken for in-order input. *)
let is_sorted t =
  let rec go i = i >= Array.length t || (Float.compare t.(i - 1).time t.(i).time <= 0 && go (i + 1)) in
  go 1

(* Stable, so equal timestamps keep their relative order. *)
let sort t =
  let copy = Array.copy t in
  if not (is_sorted copy) then Array.stable_sort (fun a b -> Float.compare a.time b.time) copy;
  copy

let prefix t n = if n >= Array.length t then Array.copy t else Array.sub t 0 (max n 0)

let duration t =
  let n = Array.length t in
  if n < 2 then 0.0 else t.(n - 1).time -. t.(0).time

let selected dir e = match dir with None -> true | Some d -> e.dir = d

let count ?dir t =
  match dir with
  | None -> Array.length t
  | Some _ -> Array.fold_left (fun acc e -> if selected dir e then acc + 1 else acc) 0 t

let bytes ?dir t = Array.fold_left (fun acc e -> if selected dir e then acc + e.size else acc) 0 t

(* One field of the selected events, in trace order, written straight into
   an unboxed result. *)
let select_field ?dir t field =
  let out = Array.make (count ?dir t) 0.0 and j = ref 0 in
  Array.iter
    (fun e ->
      if selected dir e then begin
        out.(!j) <- (match field with `Time -> e.time | `Size -> float_of_int e.size);
        incr j
      end)
    t;
  out

let times ?dir t = select_field ?dir t `Time
let sizes ?dir t = select_field ?dir t `Size

let interarrivals ?dir t =
  let ts = times ?dir t in
  let n = Array.length ts in
  if n < 2 then [||] else Array.init (n - 1) (fun i -> ts.(i + 1) -. ts.(i))

let signed_sizes t =
  Array.map (fun e -> float_of_int (e.size * Packet.direction_sign e.dir)) t

let shift_to_zero t =
  if Array.length t = 0 then [||]
  else
    let t0 = t.(0).time in
    Array.map (fun e -> { e with time = e.time -. t0 }) t

let concat_sorted traces = sort (Array.concat traces)

let to_csv t =
  let buf = Buffer.create (Array.length t * 24) in
  Array.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "%.9f,%d,%d\n" e.time (Packet.direction_sign e.dir) e.size))
    t;
  Buffer.contents buf

let of_csv text =
  let parse_line line =
    match String.split_on_char ',' (String.trim line) with
    | [ time; dir; size ] ->
        let dir =
          match int_of_string (String.trim dir) with
          | 1 -> Packet.Outgoing
          | -1 -> Packet.Incoming
          | d -> failwith (Printf.sprintf "Trace.of_csv: bad direction %d" d)
        in
        { time = float_of_string (String.trim time); dir; size = int_of_string (String.trim size) }
    | _ -> failwith (Printf.sprintf "Trace.of_csv: malformed line %S" line)
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_line
  |> Array.of_list

(* Atomic (write-to-temp then rename): a crash mid-save can leave a stray
   temp file but never a truncated trace under the target name. *)
let save path t = Stob_store.Atomic_file.write path (to_csv t)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = really_input_string ic len in
      of_csv buf)

let pp_summary fmt t =
  Format.fprintf fmt "%d pkts (%d out / %d in), %d B out, %d B in, %.3f s" (length t)
    (count ~dir:Packet.Outgoing t) (count ~dir:Packet.Incoming t) (bytes ~dir:Packet.Outgoing t)
    (bytes ~dir:Packet.Incoming t) (duration t)
